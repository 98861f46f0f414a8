//! The repository's benchmark: one command per workload that prints every
//! end-to-end and per-layer metric by name with its unit, checks the
//! program's outputs, and ends with one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root: it reads `BENCHMARK.json` there and
//! writes traced runs' spans under `perfbench/out/`. `perfbench/README.md`
//! describes the workloads and metrics.

mod cluster;
mod report;
mod trace;
mod train;
mod wire;

use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;

use report::{median, per_layer, Report, END_TO_END, LAYERS};
use trace::Tracer;

/// Command-line arguments of a benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// SplitMix64: the benchmark's input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_cafe_f00d_d00d)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Units of the workload-specific names printed beside the contract
/// metrics (the same quantities under the names the workloads give them).
const NAMED: &[(&str, &str)] = &[
    ("host_iters_per_s", "1/s"),
    ("sim_samples_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("sim_mean_jct_s", "s"),
    ("sim_makespan_s", "s"),
];

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut flags = HashMap::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or(format!("unexpected argument `{a}`"))?;
        let val = it.next().ok_or(format!("missing value for --{key}"))?;
        flags.insert(key.to_owned(), val.clone());
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

fn run_workload(args: &Args, tr: &mut Tracer) -> Report {
    let mut setups = Vec::new();
    let mut rep = match args.workload.as_str() {
        "train_oversub" => train::run(args, tr, &mut setups),
        "cluster_trace" => cluster::run_trace(args, tr, &mut setups),
        "cluster_admit" => cluster::run_admit(args, tr, &mut setups),
        "serve_wire" => wire::run(args, tr, &mut setups),
        other => unreachable!("workload `{other}` passed the manifest check"),
    };
    rep.set("setup_s", median(&setups));
    rep.set_failed_permille();
    rep
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("daemon") {
        return wire::daemon_main(&raw[1..]);
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))
        .and_then(|t| report::check_manifest(&t));
    match manifest {
        Ok(names) if names.contains(&args.workload) => {}
        Ok(names) => {
            eprintln!(
                "error: unknown workload `{}` (have: {})",
                args.workload,
                names.join(", ")
            );
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }

    let units: BTreeMap<String, &str> = END_TO_END
        .iter()
        .chain(NAMED)
        .map(|&(n, u)| (n.to_owned(), u))
        .chain(per_layer())
        .collect();
    let (rep, reported): (Report, Vec<String>) = if args.trace {
        // Half the time untraced, half traced: the rate difference is the
        // tracing overhead.
        let half = Args {
            seconds: args.seconds / 2.0,
            ..args.clone()
        };
        let base = run_workload(&half, &mut Tracer::new(false));
        let mut tr = Tracer::new(true);
        let mut rep = run_workload(&half, &mut tr);
        let overhead = base.metrics["ops_per_s"] / rep.metrics["ops_per_s"].max(1e-12) - 1.0;
        rep.set("trace.overhead_pct", overhead * 100.0);
        rep.set("trace.spans", tr.len() as f64);
        let by_layer = tr.self_ns_by_layer();
        let total: u64 = by_layer.values().sum();
        for l in LAYERS {
            let ns = by_layer.get(l).copied().unwrap_or(0);
            rep.set(
                format!("self_pct.{l}"),
                ns as f64 * 100.0 / total.max(1) as f64,
            );
        }
        let path = format!(
            "perfbench/out/{}-seed{}.spans.jsonl",
            args.workload, args.seed
        );
        match tr.write(std::path::Path::new(&path)) {
            Ok(()) => eprintln!("spans: {path}"),
            Err(e) => eprintln!("warning: cannot write {path}: {e}"),
        }
        rep.attempted += base.attempted;
        rep.failed += base.failed;
        rep.errors.extend(base.errors);
        rep.set_failed_permille();
        (rep, per_layer().into_iter().map(|(n, _)| n).collect())
    } else {
        let rep = run_workload(&args, &mut Tracer::new(false));
        (rep, END_TO_END.iter().map(|&(n, _)| n.to_owned()).collect())
    };

    for (name, value) in &rep.metrics {
        let unit = units.get(name).copied().unwrap_or("");
        println!(
            "{:<40} {value:>16.6} {unit}",
            format!("{}.{name}", args.workload)
        );
    }
    let metrics: Vec<String> = reported
        .iter()
        .map(|n| {
            let v = rep.metrics.get(n).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{n}\":{{\"value\":{v},\"unit\":\"{}\"}}", units[n])
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.errors.is_empty() && rep.failed == 0,
        rep.attempted.max(1),
        rep.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
