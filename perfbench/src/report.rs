//! Metric names, units and the result line.
//!
//! Every workload reports every end-to-end metric (untraced run) and every
//! per-layer metric (traced run); a layer a workload bypasses reads 0.
//! `BENCHMARK.json` lists the same names, and [`check_manifest`] refuses a
//! run when the two drift apart.

use std::collections::BTreeMap;
use std::time::Duration;

use serde::Value;

/// End-to-end metrics: name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("sim_rate_per_s", "1/s"),
    ("sim_mean_s", "s"),
];

/// Step kinds `cluster.step_us` is split by: the events a step emitted.
pub const STEP_KINDS: &[&str] = &[
    "admit",
    "iteration",
    "complete",
    "preempt",
    "rebatch",
    "admit_measured",
    "admit_predicted",
];

/// Layers self time is reported for, in the order spans name them.
pub const LAYERS: &[&str] = &[
    "bench", "models", "executor", "core", "cluster", "stats", "serve",
];

/// Per-layer metrics: name, unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("models.build_ms", "ms"),
        ("executor.iter_ms.p99", "ms"),
        ("executor.measured_iter_ms", "ms"),
        ("executor.guided_iter_ms", "ms"),
        ("core.make_plan_ms", "ms"),
        ("sim.stall_ms", "ms"),
        ("sim.swap_out_mib", "MiB"),
        ("sim.swap_in_mib", "MiB"),
        ("sim.recompute_ms", "ms"),
        ("executor.kernels", "count"),
        ("executor.recompute_kernels", "count"),
        ("executor.passive_evictions", "count"),
        ("core.plan_entries", "count"),
        ("core.measure_footprint_ms", "ms"),
        ("cluster.steps", "count"),
        ("cluster.step_us.p50", "us"),
        ("cluster.step_us.p99", "us"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_owned(), u))
    .collect();
    for k in STEP_KINDS {
        m.push((format!("cluster.steps.{k}"), "count"));
        m.push((format!("cluster.step_us.{k}.p50"), "us"));
        m.push((format!("cluster.step_us.{k}.p99"), "us"));
        m.push((format!("cluster.busy_pct.{k}"), "%"));
    }
    for op in ["submit", "status", "cancel"] {
        m.push((format!("cluster.{op}_us.p50"), "us"));
        m.push((format!("cluster.{op}_us.p99"), "us"));
    }
    for (n, u) in [
        ("stats.build_ms", "ms"),
        ("stats.to_json_ms", "ms"),
        ("stats.bytes", "bytes"),
        ("admission.validation_runs", "count"),
        ("admission.validation_cache_len", "count"),
        ("admission.shrunk_grants", "count"),
        ("predict.hits", "count"),
        ("predict.misses", "count"),
        ("predict.mispredict_recoveries", "count"),
        ("serve.parse_us", "us"),
    ] {
        m.push((n.to_owned(), u));
    }
    for op in ["submit", "status", "stats"] {
        m.push((format!("serve.{op}_ms.p50"), "ms"));
        m.push((format!("serve.{op}_ms.p99"), "ms"));
    }
    for (n, u) in [
        ("serve.drain_s", "s"),
        ("serve.gen_late_ms", "ms"),
        ("serve.backlog", "count"),
        ("serve.max_ops_per_s", "1/s"),
        ("serve.capacity_per_s", "1/s"),
        ("serve.burst_stats_pct", "%"),
    ] {
        m.push((n.to_owned(), u));
    }
    for rate in ["low", "mid", "high"] {
        m.push((format!("serve.reply_p50_ms.{rate}"), "ms"));
        m.push((format!("serve.reply_p99_ms.{rate}"), "ms"));
    }
    m.push(("failed_permille".to_owned(), "permille"));
    m.push(("trace.overhead_pct".to_owned(), "%"));
    m.push(("trace.spans".to_owned(), "count"));
    for l in LAYERS {
        m.push((format!("self_pct.{l}"), "%"));
    }
    m
}

/// One workload run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (engine units, jobs or wire requests).
    pub attempted: u64,
    /// Attempted operations that failed or broke an output check.
    pub failed: u64,
    /// Output-check failures, one line each.
    pub errors: Vec<String>,
    /// Metrics by name (end-to-end, the workload's named metrics, and
    /// per-layer ones in a traced run).
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Sets `failed_permille` from the counts so far.
    pub fn set_failed_permille(&mut self) {
        let permille = self.failed as f64 * 1e3 / self.attempted.max(1) as f64;
        self.set("failed_permille", permille);
    }

    /// Records a failed output check.
    pub fn fail(&mut self, msg: String) {
        eprintln!("check failed: {msg}");
        self.errors.push(msg);
    }

    /// Sets `<name>.p50` and `<name>.p99` from `h`, in microseconds or
    /// milliseconds as `unit_ns` says (1e3 or 1e6).
    pub fn set_pcts(&mut self, name: &str, h: &Hist, unit_ns: f64) {
        self.set(format!("{name}.p50"), h.pct_ns(50.0) / unit_ns);
        self.set(format!("{name}.p99"), h.pct_ns(99.0) / unit_ns);
    }
}

/// Sub-buckets per power of two: bucket bounds are 0.54% apart.
const SUB_BITS: u32 = 7;

/// A log-bucketed duration histogram: fixed memory however long the run,
/// so the benchmark's own samples never move `peak_rss_mib`.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    /// Sum of the samples in each bucket, in nanoseconds.
    sums: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; 64 << SUB_BITS],
            sums: vec![0; 64 << SUB_BITS],
            n: 0,
        }
    }
}

impl Hist {
    /// Adds one sample.
    pub fn add(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).max(1);
        let e = 63 - ns.leading_zeros();
        let frac = if e >= SUB_BITS {
            ns >> (e - SUB_BITS)
        } else {
            ns << (SUB_BITS - e)
        } & ((1 << SUB_BITS) - 1);
        let i = ((e << SUB_BITS) as u64 + frac) as usize;
        self.counts[i] += 1;
        self.sums[i] = self.sums[i].saturating_add(ns);
        self.n += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        for (s, o) in self.sums.iter_mut().zip(&other.sums) {
            *s = s.saturating_add(*o);
        }
        self.n += other.n;
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile in nanoseconds: the mean of the samples
    /// in the bucket holding that rank, so the figure keeps its digits
    /// instead of snapping to bucket bounds; 0 when empty.
    pub fn pct_ns(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (&c, &sum) in self.counts.iter().zip(&self.sums) {
            seen += c;
            if seen >= rank {
                return sum as f64 / c as f64;
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// Median of `xs`; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size in MiB (`VmHWM`) from a `/proc/<pid>/status`
/// file; 0 where there is none.
pub fn peak_rss_mib(status: &str) -> f64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Checks that `BENCHMARK.json` names exactly the metrics this program
/// reports, and returns its workload names.
pub fn check_manifest(text: &str) -> Result<Vec<String>, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Result<Vec<(String, String)>, String> {
        v.get(key)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json: no `{key}` list"))?
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Value::as_str);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                name.map(|n| (n.to_owned(), unit.to_owned()))
                    .ok_or(format!("BENCHMARK.json: `{key}` entry without a name"))
            })
            .collect()
    };
    let want_e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect();
    if names("end_to_end")? != want_e2e {
        return Err("BENCHMARK.json `end_to_end` differs from the metrics reported".into());
    }
    let want_layer: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    if names("per_layer")? != want_layer {
        return Err("BENCHMARK.json `per_layer` differs from the metrics reported".into());
    }
    Ok(names("workloads")?.into_iter().map(|(n, _)| n).collect())
}
