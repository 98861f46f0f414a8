//! Scheduler scale — wall-clock cost per simulated job as the cluster
//! grows to 1024 GPUs and 100k jobs.
//!
//! The online core's placement probes ride an incremental free-headroom
//! index ([`capuchin_cluster::GpuPool`]), the waiting queue is keyed for
//! O(log n) removal, and elastic-ladder probes are memoized per pool
//! generation — this bench is the perf-trajectory artifact that keeps
//! those asymptotics honest. Four scenarios:
//!
//! * `smoke`  —   64 GPUs /   2k jobs, FIFO, tf-ori admission: a CI
//!   guard row.
//! * `smoke_bestfit` — 64 GPUs / 2k jobs, best-fit + preemption +
//!   elastic, tf-ori admission: the CI guard row that clocks the
//!   best-fit pick, the victim search and the elastic pass.
//!
//!   `--smoke` re-runs exactly the two smoke rows and fails when either
//!   one's measured wall-clock-per-job is more than 2× its committed
//!   `results/cluster_scale.json` baseline (a soft guard: machines
//!   differ, asymptotic regressions don't hide inside 2×).
//! * `medium` —  256 GPUs /  20k jobs, best-fit + preemption + elastic:
//!   every scheduling feature's hot path at once.
//! * `large`  — 1024 GPUs / 100k jobs, FIFO, tf-ori admission: the
//!   headline target — single-digit seconds end to end.
//!
//! Workloads come from [`capuchin_cluster::synthetic_mixed_jobs`] (rigid
//! singles, gangs, elastic jobs; a deliberately small shape menu so
//! admission measuring collapses onto cached runs and the clock measures
//! *scheduling*, not graph building). The driver drains the event and
//! transfer side-channels periodically so bench RSS stays bounded; peak
//! RSS is read back from `VmHWM` (Linux; 0 elsewhere).

use std::time::Instant;

use capuchin_bench::write_artifact;
use capuchin_cluster::{synthetic_mixed_jobs, AdmissionMode, Cluster, ClusterConfig, StrategyKind};
use capuchin_sim::InterconnectSpec;
use serde::{Deserialize, Serialize};

/// One scale scenario's measured outcome. Wall-clock fields vary run to
/// run (this artifact records a perf trajectory, not a deterministic
/// simulation result); the simulation-side fields are reproducible.
#[derive(Debug, Serialize, Deserialize)]
struct ScaleRun {
    name: String,
    gpus: usize,
    jobs: usize,
    strategy: String,
    admission: String,
    preemption: bool,
    elastic: bool,
    completed: usize,
    events: u64,
    sim_makespan_secs: f64,
    wall_secs: f64,
    us_per_job: f64,
    peak_rss_kib: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct ScaleArtifact {
    runs: Vec<ScaleRun>,
}

/// Peak resident set size in KiB from `/proc/self/status` (`VmHWM`).
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

struct Scenario {
    name: &'static str,
    gpus: usize,
    jobs: usize,
    seed: u64,
    mean_interarrival: f64,
    strategy: StrategyKind,
    admission: AdmissionMode,
    preemption: bool,
    elastic: bool,
    pcie: bool,
}

const SMOKE: Scenario = Scenario {
    name: "smoke",
    gpus: 64,
    jobs: 2_000,
    seed: 7,
    mean_interarrival: 0.02,
    strategy: StrategyKind::FifoFirstFit,
    admission: AdmissionMode::TfOri,
    preemption: false,
    elastic: false,
    pcie: false,
};

const SMOKE_BESTFIT: Scenario = Scenario {
    name: "smoke_bestfit",
    strategy: StrategyKind::BestFit,
    preemption: true,
    elastic: true,
    ..SMOKE
};

const MEDIUM: Scenario = Scenario {
    name: "medium",
    gpus: 256,
    jobs: 20_000,
    seed: 11,
    mean_interarrival: 0.006,
    strategy: StrategyKind::BestFit,
    // tf-ori admission: under capuchin admission every shrunk grant is a
    // distinct byte budget, and each forces a real planner validation
    // run (~10ms of engine work — the paper's measured validation, by
    // design uncacheable across budgets). That is per-job simulation
    // payload, covered by the admission benches; this bench clocks the
    // scheduler, so the mode stays out of its hot loop.
    admission: AdmissionMode::TfOri,
    preemption: true,
    elastic: true,
    // No fabric: with the interconnect on, wall clock is dominated by
    // replaying each Capuchin job's per-tensor swap timeline (millions
    // of transfer records — simulation payload, not scheduler work,
    // measured by `cluster_transfer` instead).
    pcie: false,
};

const LARGE: Scenario = Scenario {
    name: "large",
    gpus: 1024,
    jobs: 100_000,
    seed: 13,
    mean_interarrival: 0.0015,
    strategy: StrategyKind::FifoFirstFit,
    admission: AdmissionMode::TfOri,
    preemption: false,
    elastic: false,
    pcie: false,
};

fn run_scenario(sc: &Scenario) -> ScaleRun {
    let jobs = synthetic_mixed_jobs(sc.jobs, sc.gpus, sc.seed, sc.mean_interarrival);
    let cfg = ClusterConfig::builder()
        .gpus(sc.gpus)
        .strategy(sc.strategy)
        .admission(sc.admission)
        .preemption(sc.preemption)
        .elastic(sc.elastic)
        .interconnect(sc.pcie.then(InterconnectSpec::pcie_shared))
        .build()
        .expect("valid scale config");
    let mut cluster = Cluster::new(cfg);
    let start = Instant::now();
    for spec in &jobs {
        cluster.submit(spec);
    }
    // Drive the online core to idle, draining the side-channels
    // periodically so the bench's own buffers don't dominate RSS.
    let mut events = 0u64;
    let mut steps = 0u64;
    while cluster.step() {
        steps += 1;
        if steps.is_multiple_of(65_536) {
            events += cluster.take_events().len() as u64;
            cluster.take_transfers().clear();
        }
    }
    events += cluster.take_events().len() as u64;
    cluster.take_transfers().clear();
    let wall = start.elapsed();
    let stats = cluster.stats();
    let run = ScaleRun {
        name: sc.name.to_owned(),
        gpus: sc.gpus,
        jobs: sc.jobs,
        strategy: sc.strategy.name().to_owned(),
        admission: sc.admission.name().to_owned(),
        preemption: sc.preemption,
        elastic: sc.elastic,
        completed: stats.completed,
        events,
        sim_makespan_secs: stats.makespan.as_secs_f64(),
        wall_secs: wall.as_secs_f64(),
        us_per_job: wall.as_secs_f64() * 1e6 / sc.jobs as f64,
        peak_rss_kib: peak_rss_kib(),
    };
    eprintln!(
        "[{}] {} GPUs, {} jobs ({} completed), {} events: {:.2}s wall, \
         {:.1}us/job, peak RSS {} KiB",
        run.name,
        run.gpus,
        run.jobs,
        run.completed,
        run.events,
        run.wall_secs,
        run.us_per_job,
        run.peak_rss_kib,
    );
    assert!(
        run.completed > sc.jobs / 2,
        "{}: scheduler starved — only {}/{} completed",
        sc.name,
        run.completed,
        sc.jobs
    );
    run
}

/// The `--smoke` guard: re-run both smoke rows and compare each against
/// its committed baseline. More than 2× slower per job fails.
fn smoke_guard() -> ! {
    let committed = std::fs::read_to_string("results/cluster_scale.json")
        .ok()
        .and_then(|s| serde_json::from_str::<ScaleArtifact>(&s).ok());
    let mut regressed = false;
    for sc in [&SMOKE, &SMOKE_BESTFIT] {
        let run = run_scenario(sc);
        let baseline = committed
            .as_ref()
            .and_then(|a| a.runs.iter().find(|r| r.name == sc.name));
        let Some(base) = baseline else {
            eprintln!(
                "[{}] no committed baseline; measurement recorded above",
                sc.name
            );
            continue;
        };
        let ratio = run.us_per_job / base.us_per_job;
        eprintln!(
            "[{}] {:.1}us/job vs committed {:.1}us/job ({ratio:.2}x)",
            sc.name, run.us_per_job, base.us_per_job
        );
        if ratio > 2.0 {
            eprintln!(
                "error: {} wall-clock-per-job regressed {ratio:.2}x over the \
                 committed baseline (limit 2x) — re-profile before shipping",
                sc.name
            );
            regressed = true;
        }
    }
    std::process::exit(i32::from(regressed));
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke_guard();
    }
    let runs: Vec<ScaleRun> = [SMOKE, SMOKE_BESTFIT, MEDIUM, LARGE]
        .iter()
        .map(run_scenario)
        .collect();
    let large = runs.iter().find(|r| r.name == "large").expect("large row");
    assert!(
        large.wall_secs < 10.0,
        "1024-GPU / 100k-job run took {:.2}s — the single-digit-seconds \
         target regressed",
        large.wall_secs
    );
    write_artifact("cluster_scale", &ScaleArtifact { runs });
}
