//! End-to-end daemon tests over a real TCP socket: submissions, status,
//! streaming, drain byte-identity against the batch run, cancel errors,
//! and the wall clock's liveness.

use capuchin_cluster::{
    AdmissionMode, Cluster, ClusterConfig, JobPolicy, JobSpec, STATS_SCHEMA_VERSION,
};
use capuchin_models::ModelKind;
use capuchin_serve::client::{request, Client};
use capuchin_serve::{serve, ClockMode, ServeConfig, WIRE_SCHEMA_VERSION};
use serde::Value;

fn job(name: &str, batch: usize, iters: u64, arrival: f64) -> JobSpec {
    JobSpec {
        name: name.to_owned(),
        model: ModelKind::Vgg16,
        batch,
        gpus: 1,
        policy: JobPolicy::TfOri,
        iters,
        priority: 0,
        arrival_time: arrival,
        elastic: false,
        ..JobSpec::default()
    }
}

fn cfg() -> ClusterConfig {
    ClusterConfig::builder()
        .gpus(1)
        .admission(AdmissionMode::TfOri)
        .build()
        .expect("valid config")
}

fn workload() -> Vec<JobSpec> {
    vec![job("alpha", 32, 3, 0.0), job("beta", 32, 2, 0.5)]
}

fn submit(control: &mut Client, spec: &JobSpec) -> u64 {
    use serde::Serialize as _;
    let reply = control
        .request(&request(
            "submit",
            vec![("spec".to_owned(), spec.to_value())],
        ))
        .expect("submit");
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "{reply:?}"
    );
    reply.get("job").and_then(Value::as_u64).expect("job id")
}

fn wire_version_of(v: &Value) -> Option<u64> {
    v.get("schema_version").and_then(Value::as_u64)
}

#[test]
fn virtual_clock_drain_matches_batch_run_byte_for_byte() {
    let expected = Cluster::new(cfg()).run(&workload()).to_json();

    let handle = serve(ServeConfig {
        cluster: cfg(),
        clock: ClockMode::Virtual,
        addr: "127.0.0.1:0".into(),
    })
    .expect("bind");
    let addr = handle.addr();

    let mut control = Client::connect(addr).expect("connect control");
    let mut ids = Vec::new();
    for spec in workload() {
        ids.push(submit(&mut control, &spec));
    }
    assert_eq!(ids, vec![0, 1]);

    // Live status before any time passed: both jobs queued.
    let st = control
        .request(&request("status", vec![("job".to_owned(), Value::UInt(0))]))
        .expect("status");
    assert_eq!(wire_version_of(&st), Some(u64::from(WIRE_SCHEMA_VERSION)));
    let state = st
        .get("status")
        .and_then(|s| s.get("state"))
        .and_then(Value::as_str)
        .map(str::to_owned);
    assert_eq!(state.as_deref(), Some("Queued"), "{st:?}");

    // A subscriber on its own connection watches job 0 retire.
    let mut sub = Client::connect(addr).expect("connect subscriber");
    let reply = sub
        .request(&request(
            "subscribe",
            vec![("job".to_owned(), Value::UInt(0))],
        ))
        .expect("subscribe");
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "{reply:?}"
    );

    let drained = control.request(&request("drain", vec![])).expect("drain");
    assert_eq!(
        drained.get("ok").and_then(Value::as_bool),
        Some(true),
        "{drained:?}"
    );
    let stats = drained.get("stats").expect("drain carries stats");
    assert_eq!(
        stats.get("schema_version").and_then(Value::as_u64),
        Some(u64::from(STATS_SCHEMA_VERSION))
    );
    // The byte-identity contract: re-rendering the wire stats tree as
    // pretty JSON reproduces the batch run's `to_json` exactly.
    assert_eq!(serde_json::to_string_pretty(stats).unwrap(), expected);

    // Admission is closed after drain.
    let refused = control
        .request(&request(
            "submit",
            vec![(
                "spec".to_owned(),
                serde::Serialize::to_value(&job("late", 32, 1, 0.0)),
            )],
        ))
        .expect("refused submit");
    assert_eq!(refused.get("ok").and_then(Value::as_bool), Some(false));

    let bye = control
        .request(&request("shutdown", vec![]))
        .expect("shutdown");
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));

    // Shutdown closes the subscriber; its stream is complete up to EOF
    // and scoped to job 0.
    let mut kinds = Vec::new();
    while let Some(line) = sub.recv().expect("stream") {
        assert_eq!(wire_version_of(&line), Some(u64::from(WIRE_SCHEMA_VERSION)));
        assert_eq!(line.get("stream").and_then(Value::as_str), Some("event"));
        assert_eq!(line.get("job").and_then(Value::as_u64), Some(0));
        kinds.push(
            line.get("kind")
                .and_then(Value::as_str)
                .expect("kind")
                .to_owned(),
        );
    }
    // The stream starts at subscription time: the `submitted` events
    // fired (and were pumped) before this subscriber existed, so the
    // first record it sees is the drain-time admission.
    assert_eq!(kinds.first().map(String::as_str), Some("admitted"));
    assert_eq!(kinds.last().map(String::as_str), Some("completed"));
    assert!(kinds.iter().any(|k| k == "iteration"), "{kinds:?}");

    handle.wait();
}

#[test]
fn errors_are_replies_not_disconnects() {
    let handle = serve(ServeConfig {
        cluster: cfg(),
        clock: ClockMode::Virtual,
        addr: "127.0.0.1:0".into(),
    })
    .expect("bind");
    let mut control = Client::connect(handle.addr()).expect("connect");

    // Unknown job: cancel and status both answer with ok:false.
    for op in ["cancel", "status"] {
        let reply = control
            .request(&request(op, vec![("job".to_owned(), Value::UInt(42))]))
            .expect(op);
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(false),
            "{reply:?}"
        );
        assert!(
            reply
                .get("error")
                .and_then(Value::as_str)
                .is_some_and(|e| e.contains("never submitted")),
            "{reply:?}"
        );
    }

    // A malformed request (valid JSON, no `op`) is answered locally and
    // the connection survives to serve the next request.
    let reply = control
        .request(&Value::Str("not an object".into()))
        .expect("parse-error reply");
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));

    // The id token is echoed verbatim.
    let reply = control
        .request(&request(
            "stats",
            vec![("id".to_owned(), Value::Str("tok".into()))],
        ))
        .expect("stats");
    assert_eq!(reply.get("id").and_then(Value::as_str), Some("tok"));

    let _ = control.request(&request("shutdown", vec![]));
    handle.wait();
}

/// Closed-loop round trips do not stall: each request and each reply
/// leaves in one write, so neither side's small trailing segment waits
/// out Nagle plus a delayed ACK (about 44 ms a round trip when they did).
#[test]
fn sequential_status_round_trips_do_not_stall() {
    let handle = serve(ServeConfig {
        cluster: cfg(),
        clock: ClockMode::Virtual,
        addr: "127.0.0.1:0".into(),
    })
    .expect("bind");
    let mut control = Client::connect(handle.addr()).expect("connect");
    let id = submit(&mut control, &job("alpha", 32, 3, 0.0));
    let start = std::time::Instant::now();
    for _ in 0..50 {
        let reply = control
            .request(&request(
                "status",
                vec![("job".to_owned(), Value::UInt(id))],
            ))
            .expect("status");
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(true),
            "{reply:?}"
        );
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "50 status round trips took {elapsed:?}"
    );
    let _ = control.request(&request("shutdown", vec![]));
    handle.wait();
}

#[test]
fn wall_clock_daemon_still_drains_to_completion() {
    let handle = serve(ServeConfig {
        cluster: cfg(),
        clock: ClockMode::Wall,
        addr: "127.0.0.1:0".into(),
    })
    .expect("bind");
    let mut control = Client::connect(handle.addr()).expect("connect");
    submit(&mut control, &job("solo", 32, 1, 0.0));
    // Drain fast-forwards the event clock past the wall, so this is
    // deterministic even under a wall pacer.
    let drained = control.request(&request("drain", vec![])).expect("drain");
    let completed = drained
        .get("stats")
        .and_then(|s| s.get("completed"))
        .and_then(Value::as_u64);
    assert_eq!(completed, Some(1), "{drained:?}");
    let _ = control.request(&request("shutdown", vec![]));
    handle.wait();
}

#[test]
fn from_flags_rejects_unknown_flags() {
    let mut flags = std::collections::HashMap::new();
    flags.insert("gpus".to_owned(), "2".to_owned());
    flags.insert("preempt".to_owned(), "on".to_owned()); // typo of --preemption
    let err = ServeConfig::from_flags(&flags).unwrap_err();
    assert!(err.contains("--preempt"), "{err}");
    assert!(err.contains("--preemption"), "accepted list missing: {err}");
    flags.remove("preempt");
    assert!(ServeConfig::from_flags(&flags).is_ok());
}

#[test]
fn shutdown_reply_reaches_every_requester() {
    // `ServerHandle::wait` returns only once the requester's writer has
    // put the reply on the wire, so the reply is in this socket's buffer
    // (followed by EOF) however the daemon's threads were scheduled.
    for round in 0..100 {
        let handle = serve(ServeConfig {
            cluster: cfg(),
            clock: ClockMode::Virtual,
            addr: "127.0.0.1:0".into(),
        })
        .expect("bind");
        let mut control = Client::connect(handle.addr()).expect("connect");
        control
            .send(&request("shutdown", vec![]))
            .expect("send shutdown");
        handle.wait();
        let reply = control.recv().expect("read shutdown reply");
        let reply = reply.unwrap_or_else(|| panic!("round {round}: shutdown reply lost"));
        assert_eq!(reply.get("reply").and_then(Value::as_str), Some("shutdown"));
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
        assert!(control.recv().expect("read EOF").is_none(), "round {round}");
    }
}

#[test]
fn unmeasurable_job_is_rejected_and_drain_still_replies() {
    let handle = serve(ServeConfig {
        cluster: cfg(),
        clock: ClockMode::Virtual,
        addr: "127.0.0.1:0".into(),
    })
    .expect("bind");
    let mut control = Client::connect(handle.addr()).expect("connect");
    // A 2.4 PB activation: the footprint measuring run itself fails.
    let mut huge = job("huge", 4_000_000_000, 1, 0.0);
    huge.model = ModelKind::ResNet50;
    let huge_id = submit(&mut control, &huge);
    let normal_id = submit(&mut control, &job("normal", 32, 2, 0.0));
    let drained = control.request(&request("drain", vec![])).expect("drain");
    let stats = drained.get("stats").expect("drain stats");
    assert_eq!(
        stats.get("oom_rejections").and_then(Value::as_u64),
        Some(1),
        "{drained:?}"
    );
    assert_eq!(stats.get("completed").and_then(Value::as_u64), Some(1));
    for (id, want) in [(huge_id, "Rejected"), (normal_id, "Completed")] {
        let reply = control
            .request(&request(
                "status",
                vec![("job".to_owned(), Value::UInt(id))],
            ))
            .expect("status");
        let state = reply
            .get("status")
            .and_then(|s| s.get("state"))
            .and_then(Value::as_str);
        assert_eq!(state, Some(want), "job {id}: {reply:?}");
    }
    let _ = control.request(&request("shutdown", vec![]));
    handle.wait();
}
