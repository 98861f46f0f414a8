//! `cluster_trace` and `cluster_admit`: the online scheduler core driven
//! the way the daemon drives it.
//!
//! Both are batch workloads over fixed job streams from
//! `synthetic_mixed_jobs`. The driver keeps exactly one future arrival
//! submitted: job `k + 1` is submitted as soon as the clock reaches job
//! `k`'s arrival, which is what `advance_to` each arrival and then
//! `submit` does, but one event at a time, so each `step` is timed on its
//! own. Between steps it reads a random job's `status`. The seed perturbs
//! the schedule without changing the job mix, which keeps the spread
//! between seeds small: in `cluster_trace` it picks the one job in fifty
//! that is cancelled, in `cluster_admit` it moves each arrival by at most
//! 2% of the mean gap; in both it picks the `status` targets.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use capuchin::measure_footprint;
use capuchin_cluster::{
    synthetic_mixed_jobs, AdmissionMode, Cluster, ClusterConfig, ClusterStats, JobEvent,
    JobEventKind, JobOutcome, JobSpec, StrategyKind,
};
use capuchin_models::ModelKind;
use capuchin_sim::{DeviceSpec, Duration as SimDuration, Time};

use crate::report::{median, peak_rss_mib, Hist, Report, STEP_KINDS};
use crate::trace::Tracer;
use crate::{Args, Rng};

/// `cluster_trace` shape: the `cluster_scale` medium row's cluster, job
/// stream generator, arrival rate and stream seed, with half its jobs so
/// a run holds several repetitions.
const TRACE_GPUS: usize = 256;
const TRACE_JOBS: usize = 10_000;
const TRACE_INTERARRIVAL_S: f64 = 0.006;
const TRACE_STREAM_SEED: u64 = 11;
/// Jobs run once in each set-up to fill the admission caches.
const TRACE_WARM_JOBS: usize = 300;

/// `cluster_admit` shape: capuchin admission with the predictor on; the
/// cold and the warm stream draw the same model and batch menu from
/// different generator seeds.
const ADMIT_GPUS: usize = 64;
const ADMIT_JOBS: usize = 120;
const ADMIT_INTERARRIVAL_S: f64 = 0.05;
const ADMIT_STREAM_SEEDS: [u64; 2] = [7, 8];

/// In `cluster_trace`, one job in this many is cancelled (which ones, the
/// seed decides), this many submissions after its own.
const CANCEL_ONE_IN: u64 = 50;
const CANCEL_LAG: usize = 25;
/// Set-ups per run; `setup_s` is their median.
const TRACE_SETUPS: usize = 3;
const ADMIT_SETUPS: usize = 5;

/// Timings of one or more driven streams.
struct Timings {
    /// Host time of the streams, first submit to idle.
    host: Duration,
    jobs: usize,
    steps: Hist,
    /// Per [`STEP_KINDS`] entry: step times and their total.
    by_kind: Vec<(Hist, Duration)>,
    submit: Hist,
    status: Hist,
    cancel: Hist,
}

impl Default for Timings {
    fn default() -> Timings {
        Timings {
            host: Duration::ZERO,
            jobs: 0,
            steps: Hist::default(),
            by_kind: vec![(Hist::default(), Duration::ZERO); STEP_KINDS.len()],
            submit: Hist::default(),
            status: Hist::default(),
            cancel: Hist::default(),
        }
    }
}

impl Timings {
    fn merge(&mut self, o: &Timings) {
        self.host += o.host;
        self.jobs += o.jobs;
        self.steps.merge(&o.steps);
        for ((h, t), (oh, ot)) in self.by_kind.iter_mut().zip(&o.by_kind) {
            h.merge(oh);
            *t += *ot;
        }
        self.submit.merge(&o.submit);
        self.status.merge(&o.status);
        self.cancel.merge(&o.cancel);
    }
}

/// Index of `name` in [`STEP_KINDS`].
fn kind_ix(name: &str) -> usize {
    STEP_KINDS
        .iter()
        .position(|k| *k == name)
        .expect("step kind is listed")
}

/// Classifies a step by the events it emitted: an admission outranks a
/// preemption, a rebatch, a completion and an iteration, in that order.
fn classify(events: &[JobEvent]) -> Option<usize> {
    let has = |f: fn(&JobEventKind) -> bool| events.iter().any(|e| f(&e.kind));
    let name = if has(|k| matches!(k, JobEventKind::Admitted { .. } | JobEventKind::Resumed)) {
        "admit"
    } else if has(|k| matches!(k, JobEventKind::Preempted)) {
        "preempt"
    } else if has(|k| matches!(k, JobEventKind::Rebatched { .. })) {
        "rebatch"
    } else if has(|k| matches!(k, JobEventKind::Completed)) {
        "complete"
    } else if has(|k| matches!(k, JobEventKind::IterationDone { .. })) {
        "iteration"
    } else {
        return None;
    };
    Some(kind_ix(name))
}

/// The admission source of the first job a step admitted, as a
/// [`STEP_KINDS`] index.
fn admit_source(cluster: &Cluster, events: &[JobEvent]) -> Option<usize> {
    let job = events
        .iter()
        .find(|e| matches!(e.kind, JobEventKind::Admitted { .. }))?;
    let st = cluster.status(usize::try_from(job.job).ok()?)?;
    match st.admission_source.as_str() {
        "measured" => Some(kind_ix("admit_measured")),
        "predicted" => Some(kind_ix("admit_predicted")),
        _ => None,
    }
}

fn arrival(spec: &JobSpec) -> Time {
    Time::ZERO + SimDuration::from_secs_f64(spec.arrival_time.max(0.0))
}

/// The seed's inputs for one stream: which jobs are cancelled (none
/// unless `cancel`), and the generator of `status` targets.
fn driver_inputs(seed: u64, stream: u64, jobs: usize, cancel: bool) -> (Vec<bool>, Rng) {
    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0x9e37_79b9));
    let cancels = (0..jobs)
        .map(|_| cancel && rng.below(CANCEL_ONE_IN) == 0)
        .collect();
    (cancels, rng)
}

/// The fixed `synthetic_mixed_jobs` stream of generator seed `stream`,
/// with each arrival moved by `seed` by at most 2% of the mean gap and
/// kept in order: the job mix stays, the timing shifts a little.
pub fn jittered_stream(n: usize, gpus: usize, stream: u64, gap_s: f64, seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed ^ stream);
    let mut jobs = synthetic_mixed_jobs(n, gpus, stream, gap_s);
    let mut prev = 0.0f64;
    for j in &mut jobs {
        let jitter = (rng.below(2001) as f64 / 1000.0 - 1.0) * 0.02 * gap_s;
        j.arrival_time = (j.arrival_time + jitter).max(prev);
        prev = j.arrival_time;
    }
    jobs
}

/// Drives `jobs` through `cluster`'s online API to idle.
fn drive(
    cluster: &mut Cluster,
    jobs: &[JobSpec],
    (cancels, mut rng): (Vec<bool>, Rng),
    tr: &mut Tracer,
) -> Timings {
    let mut d = Timings {
        jobs: jobs.len(),
        ..Timings::default()
    };
    let mut ids = Vec::with_capacity(jobs.len());
    let start = Instant::now();
    let mut idle = false;
    loop {
        while ids.len() < jobs.len()
            && (idle
                || ids
                    .last()
                    .is_none_or(|&k: &usize| cluster.now() >= arrival(&jobs[k])))
        {
            let k = ids.len();
            let t = Instant::now();
            let h = tr.begin("cluster.submit", k as u64);
            ids.push(cluster.submit(&jobs[k]));
            tr.end(h);
            d.submit.add(t.elapsed());
            if k >= CANCEL_LAG && cancels[k - CANCEL_LAG] {
                let victim = ids[k - CANCEL_LAG];
                let t = Instant::now();
                let h = tr.begin("cluster.cancel", victim as u64);
                // A victim that already finished answers `Terminal`: fine.
                let _ = cluster.cancel(victim);
                tr.end(h);
                d.cancel.add(t.elapsed());
                cluster.take_events();
            }
        }
        let t = Instant::now();
        let h = tr.begin("cluster.step", ids.len() as u64);
        let more = cluster.step();
        tr.end(h);
        let dt = t.elapsed();
        idle = !more;
        if idle {
            if ids.len() == jobs.len() {
                break;
            }
            continue;
        }
        d.steps.add(dt);
        let events = cluster.take_events();
        let kind = classify(&events);
        let source = (kind == Some(kind_ix("admit")))
            .then(|| admit_source(cluster, &events))
            .flatten();
        for k in [kind, source].into_iter().flatten() {
            d.by_kind[k].0.add(dt);
            d.by_kind[k].1 += dt;
        }
        let job = rng.below(ids.len() as u64) as usize;
        let t = Instant::now();
        let h = tr.begin("cluster.status", job as u64);
        std::hint::black_box(cluster.status(ids[job]));
        tr.end(h);
        d.status.add(t.elapsed());
    }
    d.host = start.elapsed();
    d
}

/// Timed `stats()` and `to_json()`: the stats, their JSON and both times.
fn timed_stats(cluster: &Cluster, tr: &mut Tracer) -> (ClusterStats, String, Duration, Duration) {
    let t = Instant::now();
    let h = tr.begin("stats.build", 0);
    let stats = cluster.stats();
    tr.end(h);
    let build = t.elapsed();
    let t = Instant::now();
    let h = tr.begin("stats.to_json", 0);
    let json = stats.to_json();
    tr.end(h);
    (stats, json, build, t.elapsed())
}

/// Output checks on one stream's final stats; returns the failed jobs.
fn check_stats(stats: &ClusterStats, what: &str, rep: &mut Report) -> u64 {
    let failed = stats
        .jobs
        .iter()
        .filter(|j| !matches!(j.outcome, JobOutcome::Completed | JobOutcome::Cancelled))
        .count() as u64;
    if failed > 0 {
        rep.fail(format!(
            "{what}: {failed} jobs rejected, aborted or left non-terminal"
        ));
    }
    if stats.midrun_oom_aborts != 0 {
        rep.fail(format!(
            "{what}: {} mid-run OOM aborts",
            stats.midrun_oom_aborts
        ));
    }
    for g in &stats.per_gpu {
        if g.peak_reserved_bytes > g.capacity {
            rep.fail(format!("{what}: GPU {} reserved past its capacity", g.gpu));
        }
    }
    failed
}

/// Everything a workload measured over its timed repetitions.
#[derive(Default)]
struct Totals {
    t: Timings,
    stats_build: Hist,
    stats_json: Hist,
    stats_bytes: usize,
    rates: Vec<f64>,
}

impl Totals {
    /// Adds one repetition that passed its checks.
    fn add(&mut self, t: &Timings, build: Duration, to_json: Duration, bytes: usize) {
        self.rates
            .push(t.jobs as f64 / t.host.as_secs_f64().max(1e-9));
        self.t.merge(t);
        self.stats_build.add(build);
        self.stats_json.add(to_json);
        self.stats_bytes = bytes;
    }

    fn report(&self, rep: &mut Report, sim: &ClusterStats) {
        let (ms, us) = (1e6, 1e3);
        let rate = median(&self.rates);
        rep.set("ops_per_s", rate);
        rep.set("jobs_per_s", rate);
        // A user of the scheduler waits on the steps that place a job.
        let admits = &self.t.by_kind[kind_ix("admit")].0;
        // The mean, not a percentile: admission steps are a mix of cheap
        // cache hits and engine-bound validations, and the mean prices both.
        let admit_total = self.t.by_kind[kind_ix("admit")].1.as_secs_f64() * 1e3;
        rep.set("latency_ms", admit_total / admits.len().max(1) as f64);
        rep.set("peak_rss_mib", peak_rss_mib("/proc/self/status"));
        let makespan = sim.makespan.as_secs_f64();
        rep.set("sim_rate_per_s", sim.completed as f64 / makespan.max(1e-12));
        rep.set("sim_mean_s", sim.mean_jct.as_secs_f64());
        rep.set("sim_mean_jct_s", sim.mean_jct.as_secs_f64());
        rep.set("sim_makespan_s", makespan);
        rep.set("cluster.steps", self.t.steps.len() as f64);
        rep.set_pcts("cluster.step_us", &self.t.steps, us);
        let host = self.t.host.as_secs_f64().max(1e-9);
        for (k, (h, busy)) in STEP_KINDS.iter().zip(&self.t.by_kind) {
            rep.set(format!("cluster.steps.{k}"), h.len() as f64);
            rep.set_pcts(&format!("cluster.step_us.{k}"), h, us);
            rep.set(
                format!("cluster.busy_pct.{k}"),
                busy.as_secs_f64() * 100.0 / host,
            );
        }
        rep.set_pcts("cluster.submit_us", &self.t.submit, us);
        rep.set_pcts("cluster.status_us", &self.t.status, us);
        rep.set_pcts("cluster.cancel_us", &self.t.cancel, us);
        rep.set("stats.build_ms", self.stats_build.pct_ns(50.0) / ms);
        rep.set("stats.to_json_ms", self.stats_json.pct_ns(50.0) / ms);
        rep.set("stats.bytes", self.stats_bytes as f64);
    }
}

/// Runs `body` repeatedly for `seconds` (at least once).
fn repeat(seconds: f64, tr: &mut Tracer, mut body: impl FnMut(u64, &mut Tracer)) {
    let start = Instant::now();
    let mut reps = 0u64;
    while reps == 0 || start.elapsed().as_secs_f64() < seconds {
        let h = tr.begin("bench.rep", reps);
        body(reps, tr);
        tr.end(h);
        reps += 1;
    }
}

fn trace_config() -> ClusterConfig {
    ClusterConfig::builder()
        .gpus(TRACE_GPUS)
        .strategy(StrategyKind::BestFit)
        .admission(AdmissionMode::TfOri)
        .preemption(true)
        .elastic(true)
        .build()
        .expect("valid cluster_trace config")
}

/// `cluster_trace`: placement, settle, dispatch and stats under load.
pub fn run_trace(args: &Args, tr: &mut Tracer, setup_s: &mut Vec<f64>) -> Report {
    let mut rep = Report::default();
    let mut setup = None;
    for _ in 0..TRACE_SETUPS {
        let t = Instant::now();
        let jobs = synthetic_mixed_jobs(
            TRACE_JOBS,
            TRACE_GPUS,
            TRACE_STREAM_SEED,
            TRACE_INTERARRIVAL_S,
        );
        let mut cluster = Cluster::new(trace_config());
        cluster.run(&jobs[..TRACE_WARM_JOBS]);
        cluster.reset();
        setup_s.push(t.elapsed().as_secs_f64());
        setup = Some((jobs, cluster));
    }
    let (jobs, mut cluster) = setup.expect("at least one set-up");
    // One untimed pass fills the admission caches for every shape the
    // stream reaches; per-job validation counts then repeat exactly.
    drive(
        &mut cluster,
        &jobs,
        driver_inputs(args.seed, 0, jobs.len(), true),
        &mut Tracer::new(false),
    );

    let mut totals = Totals::default();
    let mut first: Option<(String, ClusterStats)> = None;
    repeat(args.seconds, tr, |reps, tr| {
        cluster.reset();
        let d = drive(
            &mut cluster,
            &jobs,
            driver_inputs(args.seed, 0, jobs.len(), true),
            tr,
        );
        let (stats, json, build, to_json) = timed_stats(&cluster, tr);
        rep.attempted += jobs.len() as u64;
        let mut failed = check_stats(&stats, "cluster_trace", &mut rep);
        if first.as_ref().is_some_and(|(j, _)| *j != json) {
            rep.fail(format!(
                "repetition {reps}: stats JSON differs from the first"
            ));
            failed = jobs.len() as u64;
        }
        rep.failed += failed;
        if failed == 0 {
            totals.add(&d, build, to_json, json.len());
        }
        if first.is_none() {
            first = Some((json, stats));
        }
    });
    let sim = first.map(|(_, s)| s).expect("at least one repetition");
    totals.report(&mut rep, &sim);
    rep.set(
        "admission.validation_runs",
        cluster.validation_runs() as f64,
    );
    rep.set(
        "admission.validation_cache_len",
        cluster.validation_cache_len() as f64,
    );
    rep
}

fn admit_config() -> ClusterConfig {
    ClusterConfig::builder()
        .gpus(ADMIT_GPUS)
        .admission(AdmissionMode::Capuchin)
        .predictive(true)
        .build()
        .expect("valid cluster_admit config")
}

/// Admission counters of one repetition.
#[derive(Default, PartialEq)]
struct AdmitCounts {
    validation_runs: u64,
    validation_cache_len: usize,
    hits: u64,
    misses: u64,
    recoveries: u64,
    shrunk: usize,
}

/// `cluster_admit`: measured admission, then predicted admission.
pub fn run_admit(args: &Args, tr: &mut Tracer, setup_s: &mut Vec<f64>) -> Report {
    let mut rep = Report::default();
    let mut streams = Vec::new();
    for _ in 0..ADMIT_SETUPS {
        let t = Instant::now();
        streams = ADMIT_STREAM_SEEDS
            .iter()
            .map(|&s| jittered_stream(ADMIT_JOBS, ADMIT_GPUS, s, ADMIT_INTERARRIVAL_S, args.seed))
            .collect();
        std::hint::black_box(Cluster::new(admit_config()));
        // Process warm-up: one small measuring run.
        let model = ModelKind::ResNet50.build(64);
        if let Err(e) = measure_footprint(&model.graph, &DeviceSpec::p100_pcie3()) {
            rep.fail(format!("warm-up measuring run: {e}"));
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut totals = Totals::default();
    let mut first: Option<(Vec<String>, Vec<ClusterStats>, AdmitCounts)> = None;
    repeat(args.seconds, tr, |reps, tr| {
        // A fresh cluster per repetition: the cold stream must find the
        // admission caches and the predictor empty.
        let mut cluster = Cluster::new(admit_config());
        let (mut jsons, mut all_stats) = (Vec::new(), Vec::new());
        let mut timings = Timings::default();
        let (mut build, mut to_json) = (Duration::ZERO, Duration::ZERO);
        let mut counts = AdmitCounts::default();
        let mut failed = 0;
        for (i, (name, jobs)) in ["cold", "warm"].iter().zip(&streams).enumerate() {
            cluster.reset();
            let inputs = driver_inputs(args.seed, i as u64, jobs.len(), false);
            timings.merge(&drive(&mut cluster, jobs, inputs, tr));
            counts.hits += cluster.predictor_hits();
            counts.misses += cluster.predictor_misses();
            let (stats, json, b, j) = timed_stats(&cluster, tr);
            (build, to_json) = (build + b, to_json + j);
            rep.attempted += jobs.len() as u64;
            failed += check_stats(&stats, &format!("cluster_admit {name}"), &mut rep);
            counts.recoveries += stats.mispredict_recoveries;
            counts.shrunk += stats.jobs.iter().filter(|j| j.shrunk).count();
            jsons.push(json);
            all_stats.push(stats);
        }
        counts.validation_runs = cluster.validation_runs();
        counts.validation_cache_len = cluster.validation_cache_len();
        if first
            .as_ref()
            .is_some_and(|(j, _, c)| *j != jsons || *c != counts)
        {
            rep.fail(format!(
                "repetition {reps}: stats JSON or admission counters differ from the first"
            ));
            failed = timings.jobs as u64;
        }
        rep.failed += failed;
        if failed == 0 {
            let bytes = jsons.iter().map(String::len).sum();
            totals.add(&timings, build, to_json, bytes);
        }
        if first.is_none() {
            first = Some((jsons, all_stats, counts));
        }
    });
    let (_, sims, counts) = first.expect("at least one repetition");
    // The two streams as one simulated run: JCTs of both, makespans added.
    let mut sim = sims[0].clone();
    let jobs = sims.iter().map(|s| s.jobs.len()).sum::<usize>().max(1) as f64;
    let jct: f64 = sims
        .iter()
        .map(|s| s.mean_jct.as_secs_f64() * s.jobs.len() as f64)
        .sum();
    sim.mean_jct = SimDuration::from_secs_f64(jct / jobs);
    sim.makespan = sims.iter().fold(SimDuration::ZERO, |a, s| a + s.makespan);
    sim.completed = sims.iter().map(|s| s.completed).sum();
    totals.report(&mut rep, &sim);
    rep.set("admission.validation_runs", counts.validation_runs as f64);
    rep.set(
        "admission.validation_cache_len",
        counts.validation_cache_len as f64,
    );
    rep.set("admission.shrunk_grants", counts.shrunk as f64);
    rep.set("predict.hits", counts.hits as f64);
    rep.set("predict.misses", counts.misses as f64);
    rep.set("predict.mispredict_recoveries", counts.recoveries as f64);

    if tr.on() {
        // Per-layer evidence only, outside the timed streams: one
        // measuring run per (model, replica batch) family of the streams.
        let families: BTreeSet<(ModelKind, usize)> = streams
            .iter()
            .flatten()
            .map(|s| (s.model, s.replica_batch_at(s.batch)))
            .collect();
        let mut times = Hist::default();
        for (i, &(kind, batch)) in families.iter().enumerate() {
            let model = kind.build(batch);
            let t = Instant::now();
            let h = tr.begin("core.measure_footprint", i as u64);
            let r = measure_footprint(&model.graph, &DeviceSpec::p100_pcie3());
            tr.end(h);
            times.add(t.elapsed());
            if let Err(e) = r {
                rep.fail(format!("measure_footprint {} b={batch}: {e}", kind.name()));
            }
        }
        rep.set("core.measure_footprint_ms", times.pct_ns(50.0) / 1e6);
    }
    rep
}
