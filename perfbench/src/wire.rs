//! `serve_wire`: a `capuchin-serve` daemon driven over TCP.
//!
//! The daemon runs in a child process (this binary's `daemon` mode, which
//! does what the `capuchin-serve` binary does) with a virtual clock and
//! tf-ori admission. One generator process with two threads drives it
//! over one connection: the main thread sends, a second thread receives.
//! A calibration pass first sends the whole request plan back to back; its
//! reply rate is the daemon's capacity. The load is then open loop: three
//! phases at fixed shares of that capacity (low, mid, high, the last near
//! saturation), then a burst of back-to-back requests that finds the
//! highest rate the daemon sustains, then `drain`. Each request is timed
//! from when it was due, so a stall also delays the requests queued
//! behind it. The mix is `submit` (writes), `status` (O(1) reads) and
//! `stats` (reads that grow with the job count).
//!
//! The daemon is stopped by closing its stdin, not by a `shutdown`
//! request: `ServerHandle::wait` does not wait for the connection writer
//! threads, so the daemon can exit before it sends the `shutdown` reply
//! (most often on a busy host). The README records this.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use capuchin_cluster::{Cluster, JobSpec};
use capuchin_serve::protocol::parse_request;
use capuchin_serve::{serve, ServeConfig, WIRE_SCHEMA_VERSION};
use serde::{Serialize as _, Value};

use crate::cluster::jittered_stream;
use crate::report::{median, peak_rss_mib, Hist, Report};
use crate::trace::{Tracer, NONE};
use crate::{Args, Rng};

/// Daemon flags, shared with the in-process reference run.
const DAEMON_FLAGS: &[(&str, &str)] = &[
    ("addr", "127.0.0.1:0"),
    ("clock", "virtual"),
    ("gpus", "16"),
    ("admission", "tf-ori"),
];
/// Offered rates of the fixed phases, as shares of the capacity.
const RATES: &[(&str, f64)] = &[("low", 0.1), ("mid", 0.4), ("high", 0.7)];
/// Each phase lasts as long as the daemon takes to answer this many
/// requests at capacity, so a phase at share `f` sends `f × PHASE_REQS`.
const PHASE_REQS: f64 = 8_000.0;
/// Requests in the closing burst.
const BURST: usize = 2_000;
/// Op mix of one block: eight job arrivals, as a client that tracks the
/// stream would send them. Each arrival submits its job and reads the
/// `status` of every job in the system once: 16 of them on average, by
/// Little's law on the stream's batch run (mean JCT `sim_mean_s` ≈ 8 s
/// over the 0.5 s mean arrival gap). A monitor reads `stats` twice per
/// mean JCT, so every job shows in about two snapshots: once per ~4 s,
/// i.e. per eight arrivals.
const BLOCK: &[(Op, usize)] = &[(Op::Submit, 8), (Op::Status, 128), (Op::Stats, 1)];
/// A reply slower than this counts as a timeout.
const TIMEOUT: Duration = Duration::from_secs(60);
/// Generator seed of the submitted jobs and the mean simulated gap
/// between their arrivals; the run's seed only shifts the arrivals.
const STREAM_SEED: u64 = 5;
const INTERARRIVAL_S: f64 = 0.5;
/// Daemon cold starts per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// `daemon` mode: serve until stdin closes or a client sends `shutdown`.
pub fn daemon_main(raw: &[String]) -> ExitCode {
    let mut flags = HashMap::new();
    for pair in raw.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k[2..].to_owned(), v.clone());
            }
            _ => {
                eprintln!("daemon: flags come in `--key value` pairs");
                return ExitCode::from(2);
            }
        }
    }
    let handle = match ServeConfig::from_flags(&flags)
        .map_err(|e| e.to_string())
        .and_then(|cfg| serve(cfg).map_err(|e| e.to_string()))
    {
        Ok(h) => h,
        Err(e) => {
            eprintln!("daemon: {e}");
            return ExitCode::from(2);
        }
    };
    println!("listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    // The generator holds this pipe open; if it dies, stop with it.
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(0);
    });
    handle.wait();
    ExitCode::SUCCESS
}

/// A daemon child; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    /// Open for the daemon's lifetime: it exits when this closes.
    stdin: Option<ChildStdin>,
    addr: String,
}

impl Daemon {
    fn spawn() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("daemon");
        for (k, v) in DAEMON_FLAGS {
            cmd.arg(format!("--{k}")).arg(v);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let out = child.stdout.take().expect("stdout is piped");
        let mut d = Daemon {
            stdin: child.stdin.take(),
            child,
            addr: String::new(),
        };
        let mut line = String::new();
        BufReader::new(out)
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        d.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or(format!("daemon said `{}`", line.trim()))?
            .to_owned();
        Ok(d)
    }

    /// Closes the daemon's stdin and waits for its clean exit.
    fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(st)) if st.success() => return Ok(()),
                Ok(Some(st)) => return Err(format!("daemon exited with {st}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("daemon did not exit after its stdin closed".into()),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    Submit,
    Status,
    Stats,
    Drain,
}

/// One scheduled request.
struct Req {
    op: Op,
    /// Phase index into [`RATES`], or `RATES.len()` for the burst.
    phase: usize,
    /// Due time from the start of the load, in requests the daemon
    /// answers at capacity; `None` sends at once.
    due: Option<f64>,
    line: String,
}

/// The request plan of one repetition: the seed fixes the op order, the
/// job arrivals and the status targets.
fn plan(seed: u64) -> (Vec<Req>, Vec<JobSpec>) {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::new();
    let mut t = 0.0f64;
    for (phase, &(_, share)) in RATES.iter().enumerate() {
        let n = (share * PHASE_REQS) as usize;
        ops.extend((0..n).map(|i| (phase, Some(t + i as f64 / share))));
        t += PHASE_REQS;
    }
    ops.extend((0..BURST).map(|_| (RATES.len(), None)));
    // Exact op counts in every block, in a seeded order, so each phase
    // carries the same mix whatever the seed.
    let mut kinds = Vec::with_capacity(ops.len());
    while kinds.len() < ops.len() {
        let mut block: Vec<Op> = BLOCK
            .iter()
            .flat_map(|&(op, n)| std::iter::repeat_n(op, n))
            .collect();
        rng.shuffle(&mut block);
        kinds.extend(block);
    }
    kinds.truncate(ops.len());
    // The first request submits, so every `status` names a real job.
    let first = kinds
        .iter()
        .position(|&k| k == Op::Submit)
        .expect("a submit");
    kinds.swap(0, first);
    let n_jobs = kinds.iter().filter(|&&k| k == Op::Submit).count();
    let gpus: usize = DAEMON_FLAGS
        .iter()
        .find(|(k, _)| *k == "gpus")
        .and_then(|(_, v)| v.parse().ok())
        .expect("gpus flag");
    let specs = jittered_stream(n_jobs, gpus, STREAM_SEED, INTERARRIVAL_S, seed);
    let mut submitted = 0usize;
    let mut reqs = Vec::with_capacity(ops.len() + 2);
    for (id, ((phase, due), op)) in ops.into_iter().zip(kinds).enumerate() {
        let body = match op {
            Op::Submit => {
                let spec =
                    serde_json::to_string(&specs[submitted].to_value()).expect("spec serializes");
                submitted += 1;
                format!("\"op\":\"submit\",\"spec\":{spec}")
            }
            Op::Status => format!("\"op\":\"status\",\"job\":{}", rng.below(submitted as u64)),
            _ => "\"op\":\"stats\"".to_owned(),
        };
        reqs.push(Req {
            op,
            phase,
            due,
            line: format!("{{{body},\"id\":{id}}}\n"),
        });
    }
    let id = reqs.len();
    reqs.push(Req {
        op: Op::Drain,
        phase: RATES.len(),
        due: None,
        line: format!("{{\"op\":\"drain\",\"id\":{id}}}\n"),
    });
    (reqs, specs)
}

/// What one repetition measured.
struct Rep {
    start: Instant,
    /// Send time of each request, by id.
    sent: Vec<Instant>,
    /// Reply lines with their receive times, in arrival order.
    replies: Vec<(Instant, String)>,
    error: Option<String>,
    daemon_rss_mib: f64,
}

/// Runs one repetition against `daemon`: every request of the plan, the
/// last one `drain`. With a `capacity` (replies per second) requests go
/// out when due; without, all at once.
fn drive(daemon: &Daemon, reqs: &[Req], capacity: Option<f64>) -> Rep {
    let mut rep = Rep {
        start: Instant::now(),
        sent: Vec::with_capacity(reqs.len()),
        replies: Vec::new(),
        error: None,
        daemon_rss_mib: 0.0,
    };
    let conn = TcpStream::connect(&daemon.addr).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(TIMEOUT))?;
        let r = s.try_clone()?;
        Ok((s, r))
    });
    let (mut conn, reader) = match conn {
        Ok(c) => c,
        Err(e) => {
            rep.error = Some(format!("connect: {e}"));
            return rep;
        }
    };
    let answered = AtomicUsize::new(0);
    let mut reader = BufReader::with_capacity(1 << 20, reader);
    let received = std::thread::scope(|s| {
        // Every request gets exactly one reply, so the receiver stops
        // after the drain reply.
        let rx = s.spawn(|| {
            let mut lines = Vec::with_capacity(reqs.len());
            while lines.len() < reqs.len() {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) => return (lines, Some("daemon closed the connection".to_owned())),
                    Ok(_) => lines.push((Instant::now(), line)),
                    Err(e) => return (lines, Some(format!("receive: {e}"))),
                }
                answered.store(lines.len(), Ordering::Release);
            }
            (lines, None)
        });
        rep.start = Instant::now();
        for (i, q) in reqs.iter().enumerate() {
            // Paced runs start the burst on an idle daemon: every earlier
            // request answered.
            if capacity.is_some() && q.phase == RATES.len() && reqs[i - 1].phase < q.phase {
                while answered.load(Ordering::Acquire) < i && !rx.is_finished() {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
            if let Some(due) = due_after(q, capacity) {
                let at = rep.start + due;
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
            }
            rep.sent.push(Instant::now());
            // One write per request line, newline included.
            if let Err(e) = conn.write_all(q.line.as_bytes()) {
                rep.error = Some(format!("send: {e}"));
                break;
            }
        }
        rx.join().expect("receiver thread does not panic")
    });
    (rep.replies, rep.error) = (received.0, rep.error.take().or(received.1));
    rep.daemon_rss_mib = peak_rss_mib(&format!("/proc/{}/status", daemon.child.id()));
    rep
}

/// When `q` is due after the start of the load, at `capacity`.
fn due_after(q: &Req, capacity: Option<f64>) -> Option<Duration> {
    Some(Duration::from_secs_f64(q.due? / capacity?))
}

/// Latency samples of one phase and op.
type Buckets = HashMap<(usize, Op), Hist>;

/// Spawns a daemon, drives one repetition, stops the daemon and scores
/// the replies. Returns the repetition and its failed count.
fn repetition(
    reqs: &[Req],
    capacity: Option<f64>,
    drain_line: &str,
    rep: &mut Report,
) -> (Option<Rep>, u64) {
    rep.attempted += reqs.len() as u64;
    let daemon = match Daemon::spawn() {
        Ok(d) => d,
        Err(e) => {
            rep.fail(e);
            return (None, reqs.len() as u64);
        }
    };
    let r = drive(&daemon, reqs, capacity);
    let mut failed = score(&r, reqs, drain_line, rep);
    if let Err(e) = daemon.stop() {
        rep.fail(e);
        failed = failed.max(1);
    }
    (Some(r), failed)
}

/// Runs the workload for `args.seconds` (at least one repetition).
pub fn run(args: &Args, tr: &mut Tracer, setup_s: &mut Vec<f64>) -> Report {
    let mut rep = Report::default();
    let (reqs, specs) = plan(args.seed);
    let flags: HashMap<String, String> = DAEMON_FLAGS
        .iter()
        .map(|&(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    let cfg = ServeConfig::from_flags(&flags).expect("valid daemon flags");
    // The batch run the daemon's drain must reproduce byte for byte.
    let reference = Cluster::new(cfg.cluster.clone()).run(&specs);
    let burst_stats_s = stats_render_s(Cluster::new(cfg.cluster), &reqs, &specs);
    let drain_line = format!(
        "{{\"schema_version\":{WIRE_SCHEMA_VERSION},\"reply\":\"drain\",\"id\":{},\"ok\":true,\"stats\":{}}}",
        reqs.len() - 1,
        serde_json::to_string(&reference.to_value()).expect("stats serialize")
    );

    // Set-up: start a daemon, connect, stop it; the repetitions below
    // start their own.
    for _ in 0..SETUPS {
        let t = Instant::now();
        let up = Daemon::spawn().and_then(|d| {
            TcpStream::connect(&d.addr).map_err(|e| format!("connect: {e}"))?;
            d.stop()
        });
        match up {
            Ok(()) => setup_s.push(t.elapsed().as_secs_f64()),
            Err(e) => rep.fail(format!("set-up: {e}")),
        }
    }

    // Calibration: the whole plan back to back on a fresh daemon. Its
    // reply rate is the capacity the phases' rates are shares of.
    let capacity = match repetition(&reqs, None, &drain_line, &mut rep) {
        (Some(r), 0) => {
            let n = r.replies.len() - 1;
            n as f64 / (r.replies[n - 1].0 - r.start).as_secs_f64().max(1e-9)
        }
        (_, failed) => {
            rep.failed += failed;
            return rep;
        }
    };

    let mut buckets = Buckets::new();
    let (mut late, mut parse) = (Hist::default(), Hist::default());
    let (mut burst_rates, mut burst_lats, mut drains, mut rss) = (vec![], vec![], vec![], vec![]);
    let mut backlog = 0usize;
    let start = Instant::now();
    let mut reps = 0u64;
    while reps == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let h = tr.begin("bench.rep", reps);
        reps += 1;
        let (r, failed) = repetition(&reqs, Some(capacity), &drain_line, &mut rep);
        let parent = tr.current();
        tr.end(h);
        rep.failed += failed;
        let Some(r) = r.filter(|_| failed == 0) else {
            continue;
        };
        // Replies come in request order on one connection.
        let recv: Vec<Instant> = r.replies.iter().map(|(t, _)| *t).collect();
        let mut phase_span = vec![NONE; RATES.len() + 1];
        for (p, span) in phase_span.iter_mut().enumerate() {
            let ids: Vec<usize> = (0..recv.len()).filter(|&i| reqs[i].phase == p).collect();
            if let (Some(&a), Some(&b)) = (ids.first(), ids.last()) {
                *span = tr.record("bench.phase", parent, p as u64, r.sent[a], recv[b]);
            }
        }
        for (i, q) in reqs[..recv.len()].iter().enumerate() {
            let due = due_after(q, Some(capacity)).map_or(r.sent[i], |d| r.start + d);
            let name = match q.op {
                Op::Submit => "serve.submit",
                Op::Status => "serve.status",
                Op::Stats => "serve.stats",
                Op::Drain => "serve.drain",
            };
            tr.record(name, phase_span[q.phase], i as u64, due, recv[i]);
            if q.due.is_some() {
                buckets
                    .entry((q.phase, q.op))
                    .or_default()
                    .add(recv[i] - due);
                late.add(r.sent[i].saturating_duration_since(due));
            }
        }
        // Requests of a phase still unanswered when the phase ends.
        for p in 0..RATES.len() {
            let end = r.start + Duration::from_secs_f64(PHASE_REQS * (p + 1) as f64 / capacity);
            let open = (0..recv.len())
                .filter(|&i| reqs[i].phase == p && r.sent[i] <= end && recv[i] > end)
                .count();
            backlog = backlog.max(open);
        }
        let burst: Vec<usize> = (0..recv.len())
            .filter(|&i| reqs[i].phase == RATES.len() && reqs[i].op != Op::Drain)
            .collect();
        if let (Some(&a), Some(&b)) = (burst.first(), burst.last()) {
            burst_rates.push(burst.len() as f64 / (recv[b] - r.sent[a]).as_secs_f64().max(1e-9));
            let waited: Duration = burst.iter().map(|&i| recv[i] - r.sent[i]).sum();
            burst_lats.push(waited.as_secs_f64() * 1e3 / burst.len() as f64);
        }
        let d = recv.len() - 1;
        drains.push((recv[d] - r.sent[d]).as_secs_f64());
        rss.push(r.daemon_rss_mib);
        if tr.on() && parse.len() == 0 {
            for (i, q) in reqs.iter().enumerate() {
                let t = Instant::now();
                let h = tr.begin("serve.parse", i as u64);
                let ok = parse_request(q.line.trim_end()).is_ok();
                tr.end(h);
                parse.add(t.elapsed());
                if !ok {
                    rep.fail(format!("request {i} does not parse"));
                }
            }
        }
    }

    let ms = 1e6;
    let merged = |keep: &dyn Fn(usize, Op) -> bool| {
        let mut h = Hist::default();
        for ((p, o), b) in &buckets {
            if keep(*p, *o) {
                h.merge(b);
            }
        }
        h
    };
    for (p, &(name, _)) in RATES.iter().enumerate() {
        let all = merged(&|q, _| q == p);
        rep.set(format!("serve.reply_p50_ms.{name}"), all.pct_ns(50.0) / ms);
        rep.set(format!("serve.reply_p99_ms.{name}"), all.pct_ns(99.0) / ms);
    }
    // The mean over a repetition's burst, not its median: replies leave
    // in clumps (Nagle's algorithm), and a median lands in one clump or
    // the next.
    rep.set("latency_ms", median(&burst_lats));
    for (op, name) in [
        (Op::Submit, "submit"),
        (Op::Status, "status"),
        (Op::Stats, "stats"),
    ] {
        rep.set_pcts(&format!("serve.{name}_ms"), &merged(&|_, o| o == op), ms);
    }
    let max_ops = median(&burst_rates);
    rep.set("ops_per_s", max_ops);
    rep.set("serve.max_ops_per_s", max_ops);
    rep.set("serve.capacity_per_s", capacity);
    let burst_len = reqs.iter().filter(|q| q.phase == RATES.len()).count() - 1;
    rep.set(
        "serve.burst_stats_pct",
        burst_stats_s * max_ops * 100.0 / burst_len as f64,
    );
    rep.set("serve.drain_s", median(&drains));
    rep.set("serve.gen_late_ms", late.pct_ns(99.0) / ms);
    rep.set("serve.backlog", backlog as f64);
    rep.set("serve.parse_us", parse.pct_ns(50.0) / 1e3);
    rep.set("peak_rss_mib", median(&rss));
    let makespan = reference.makespan.as_secs_f64();
    rep.set(
        "sim_rate_per_s",
        reference.completed as f64 / makespan.max(1e-12),
    );
    rep.set("sim_mean_s", reference.mean_jct.as_secs_f64());
    rep.set("sim_mean_jct_s", reference.mean_jct.as_secs_f64());
    rep.set("sim_makespan_s", makespan);
    rep
}

/// In-process time to build and render the burst's `stats` replies, on a
/// cluster that saw the same submissions before each of them (the
/// virtual-clock daemon only queues jobs until `drain`).
fn stats_render_s(mut cluster: Cluster, reqs: &[Req], specs: &[JobSpec]) -> f64 {
    let mut submitted = 0;
    let mut total = Duration::ZERO;
    for q in reqs {
        match q.op {
            Op::Submit => {
                cluster.submit(&specs[submitted]);
                submitted += 1;
            }
            Op::Stats if q.phase == RATES.len() => {
                let t = Instant::now();
                let line =
                    serde_json::to_string(&cluster.stats().to_value()).expect("stats serialize");
                total += t.elapsed();
                std::hint::black_box(line);
            }
            _ => {}
        }
    }
    total.as_secs_f64()
}

/// The reply's leading fields (`schema_version`, `reply`, `id`, `ok`,
/// `error`), parsed without the bulky `stats` payload.
fn header(line: &str) -> Option<Value> {
    let head = match line.find(",\"stats\":") {
        Some(i) => format!("{}}}", &line[..i]),
        None => line.trim_end().to_owned(),
    };
    serde_json::from_str(&head).ok()
}

/// Whether a wire line carries this build's [`WIRE_SCHEMA_VERSION`].
fn version_ok(v: &Value) -> bool {
    v.get("schema_version").and_then(Value::as_u64) == Some(u64::from(WIRE_SCHEMA_VERSION))
}

/// Checks one repetition's replies; returns the failed requests.
fn score(r: &Rep, reqs: &[Req], drain_line: &str, rep: &mut Report) -> u64 {
    let want = reqs.len();
    let mut failed = want.saturating_sub(r.replies.len()) as u64;
    if let Some(e) = &r.error {
        rep.fail(e.clone());
        failed = failed.max(1);
    }
    for (i, (_, line)) in r.replies.iter().enumerate() {
        let v = header(line).unwrap_or(Value::Null);
        let id = v.get("id").and_then(Value::as_u64);
        let ok = v.get("ok").and_then(Value::as_bool) == Some(true);
        if !version_ok(&v) || id != Some(i as u64) || !ok {
            rep.fail(format!(
                "reply {i}: `{}`",
                line.chars().take(200).collect::<String>().trim()
            ));
            failed += 1;
        } else if reqs[i].op == Op::Drain && line.trim_end() != drain_line {
            rep.fail("drain stats differ from the batch run of the same submissions".into());
            failed += 1;
        }
    }
    failed
}
