//! `train_oversub`: single-GPU Capuchin training past the TF-ori limit.
//!
//! Batch workload: one repetition trains every unit of a fixed model set
//! in turn, each on a fresh engine (build the graph, warm-up iteration,
//! measured iteration, guided iterations). The batches sit at 1.5–1.9×
//! the TF-ori maximum of `results/table2_max_batch.json`, so every unit
//! swaps and recomputes. The seed orders the units and moves each batch
//! by at most 2.

use std::time::{Duration, Instant};

use capuchin::{make_plan, Capuchin, PlannerConfig};
use capuchin_executor::{Engine, EngineConfig, IterStats};
use capuchin_models::ModelKind;
use capuchin_sim::DeviceSpec;

use crate::report::{median, peak_rss_mib, Hist, Report};
use crate::trace::Tracer;
use crate::{Args, Rng};

/// Base model set: (model, batch); TF-ori maxima are 211, 263, 98, 112.
/// Each batch sits where the guided iteration time is smooth within ±2:
/// BERT-Base below batch 199 falls onto a plan 44% slower per iteration.
const UNITS: &[(ModelKind, usize)] = &[
    (ModelKind::ResNet50, 400),
    (ModelKind::Vgg16, 320),
    (ModelKind::ResNet152, 160),
    (ModelKind::BertBase, 202),
];
/// Iterations per unit: warm-up, measured, then guided ones; Capuchin's
/// refinement settles within this many (the paper-figure harnesses use
/// the same count).
const ITERS: u64 = 10;
/// Iteration index of the measured iteration.
const MEASURED: usize = 1;
/// Set-ups per run, spread evenly over it; `setup_s` is their median.
const SETUPS: usize = 9;

fn device() -> DeviceSpec {
    DeviceSpec::p100_pcie3()
}

/// The seed's units: shuffled order, each batch moved by -2 to +2.
fn units(seed: u64) -> Vec<(ModelKind, usize)> {
    let mut rng = Rng::new(seed);
    let mut u: Vec<(ModelKind, usize)> = UNITS
        .iter()
        .map(|&(k, b)| (k, b + rng.below(5) as usize - 2))
        .collect();
    rng.shuffle(&mut u);
    u
}

/// One unit's outcome.
struct Unit {
    host: Duration,
    iter_host: Vec<Duration>,
    build: Duration,
    iters: Vec<IterStats>,
    plan_entries: usize,
    plan_ms: Option<f64>,
}

fn run_unit(kind: ModelKind, batch: usize, id: u64, tr: &mut Tracer) -> Result<Unit, String> {
    let unit = tr.begin("bench.unit", id);
    let t0 = Instant::now();
    let h = tr.begin("models.build", id);
    let model = kind.build(batch);
    tr.end(h);
    let build = t0.elapsed();
    let cfg = EngineConfig {
        spec: device(),
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(&model.graph, cfg, Box::new(Capuchin::new()));
    let mut iters = Vec::with_capacity(ITERS as usize);
    let mut iter_host = Vec::with_capacity(ITERS as usize);
    for _ in 0..ITERS {
        let t = Instant::now();
        let h = tr.begin("executor.run", id);
        let r = eng.run(1);
        tr.end(h);
        iter_host.push(t.elapsed());
        let mut stats = r.map_err(|e| format!("{} b={batch}: {e}", kind.name()))?;
        iters.append(&mut stats.iters);
    }
    let host = t0.elapsed();
    tr.end(unit);
    let capuchin = eng
        .policy()
        .as_any()
        .and_then(|a| a.downcast_ref::<Capuchin>())
        .ok_or("engine policy is not Capuchin")?;
    let plan_entries = capuchin.plan().len();
    // The planner re-run is per-layer evidence only: it happens outside
    // the unit's timed span, so it never moves `ops_per_s`.
    let plan_ms = tr.on().then(|| {
        let profile = capuchin.profile().clone();
        let t = Instant::now();
        let h = tr.begin("core.make_plan", id);
        let plan = make_plan(&profile, &device(), &PlannerConfig::default());
        tr.end(h);
        std::hint::black_box(plan);
        t.elapsed().as_secs_f64() * 1e3
    });
    Ok(Unit {
        host,
        iter_host,
        build,
        iters,
        plan_entries,
        plan_ms,
    })
}

/// Runs the workload for `args.seconds` (at least one repetition).
pub fn run(args: &Args, tr: &mut Tracer, setup_s: &mut Vec<f64>) -> Report {
    let mut rep = Report::default();
    // A set-up takes tens of milliseconds, so set-ups done back to back
    // would all see one moment's machine speed; the later ones run
    // between repetitions, outside the timed units.
    let mut set_up = |rep: &mut Report| {
        let t = Instant::now();
        let set = units(args.seed);
        // The units' graphs, built once to check that every unit builds.
        for &(kind, batch) in &set {
            std::hint::black_box(kind.build(batch));
        }
        // Process warm-up: one small unit faults in the allocator and the
        // code paths before anything is timed.
        let warm = run_unit(ModelKind::ResNet50, 64, u64::MAX, &mut Tracer::new(false));
        if let Err(e) = warm {
            rep.fail(format!("warm-up unit: {e}"));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        set
    };
    let set = set_up(&mut rep);
    let mut setups = 1;

    let mut first: Vec<Option<String>> = vec![None; set.len()];
    let (mut iter_host, mut measured, mut guided, mut builds) = (
        Hist::default(),
        Hist::default(),
        Hist::default(),
        Hist::default(),
    );
    let mut plans = Vec::new();
    let (mut host, mut iter_total, mut iters_done) = (Duration::ZERO, Duration::ZERO, 0u64);
    let mut steady: Vec<IterStats> = Vec::new();
    let mut plan_entries = 0usize;
    let start = Instant::now();
    let mut reps = 0u64;
    while reps == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let h = tr.begin("bench.rep", reps);
        for (i, &(kind, batch)) in set.iter().enumerate() {
            rep.attempted += 1;
            let u = match run_unit(kind, batch, i as u64, tr) {
                Ok(u) => u,
                Err(e) => {
                    rep.failed += 1;
                    rep.fail(e);
                    continue;
                }
            };
            let print = format!("{:?}", u.iters);
            match &first[i] {
                None => first[i] = Some(print),
                Some(p) if *p != print => {
                    rep.failed += 1;
                    rep.fail(format!(
                        "{} b={batch}: simulated stats differ between repetitions",
                        kind.name()
                    ));
                    continue;
                }
                Some(_) => {}
            }
            host += u.host;
            iters_done += ITERS;
            builds.add(u.build);
            measured.add(u.iter_host[MEASURED]);
            for (i, &t) in u.iter_host.iter().enumerate() {
                iter_host.add(t);
                iter_total += t;
                if i > MEASURED {
                    guided.add(t);
                }
            }
            plans.extend(u.plan_ms);
            if reps == 0 {
                steady.push(u.iters.last().cloned().unwrap_or_default());
                plan_entries += u.plan_entries;
            }
        }
        tr.end(h);
        reps += 1;
        if setups < SETUPS
            && start.elapsed().as_secs_f64() * SETUPS as f64 >= args.seconds * setups as f64
        {
            set_up(&mut rep);
            setups += 1;
        }
    }
    for _ in setups..SETUPS {
        set_up(&mut rep);
    }

    let ms = 1e6;
    rep.set(
        "ops_per_s",
        iters_done as f64 / host.as_secs_f64().max(1e-9),
    );
    // The mean, not the median: the four models' iteration times form
    // separate modes, and a median between modes jumps with small shifts.
    let mean_iter = iter_total.as_secs_f64() * 1e3 / iters_done.max(1) as f64;
    rep.set("latency_ms", mean_iter);
    rep.set("executor.iter_ms.p99", iter_host.pct_ns(99.0) / ms);
    rep.set("peak_rss_mib", peak_rss_mib("/proc/self/status"));
    let samples: usize = set.iter().map(|&(_, b)| b).sum();
    let sim_wall: f64 = steady.iter().map(|s| s.wall().as_secs_f64()).sum();
    rep.set("sim_rate_per_s", samples as f64 / sim_wall.max(1e-12));
    rep.set("sim_mean_s", sim_wall / steady.len().max(1) as f64);
    rep.set("host_iters_per_s", rep.metrics["ops_per_s"]);
    rep.set("sim_samples_per_s", rep.metrics["sim_rate_per_s"]);

    rep.set("models.build_ms", builds.pct_ns(50.0) / ms);
    rep.set("executor.measured_iter_ms", measured.pct_ns(50.0) / ms);
    rep.set("executor.guided_iter_ms", guided.pct_ns(50.0) / ms);
    rep.set("core.make_plan_ms", median(&plans));
    let sum = |f: fn(&IterStats) -> f64| steady.iter().map(f).sum::<f64>();
    rep.set("sim.stall_ms", sum(|s| s.stall_time.as_secs_f64() * 1e3));
    rep.set(
        "sim.swap_out_mib",
        sum(|s| s.swap_out_bytes as f64) / f64::from(1 << 20),
    );
    rep.set(
        "sim.swap_in_mib",
        sum(|s| s.swap_in_bytes as f64) / f64::from(1 << 20),
    );
    rep.set(
        "sim.recompute_ms",
        sum(|s| s.recompute_time.as_secs_f64() * 1e3),
    );
    rep.set("executor.kernels", sum(|s| s.kernels as f64));
    rep.set(
        "executor.recompute_kernels",
        sum(|s| s.recompute_kernels as f64),
    );
    rep.set(
        "executor.passive_evictions",
        sum(|s| s.passive_evictions as f64),
    );
    rep.set("core.plan_entries", plan_entries as f64);
    rep
}
