//! Golden pin for the two side channels the stats JSON does not cover:
//! the lifecycle event log ([`Cluster::take_events`]) and the unified
//! transfer trace ([`Cluster::run_traced`] / [`Cluster::take_transfers`]).
//!
//! Every scenario runs on the shared PCIe fabric (`--interconnect pcie`)
//! so checkpoint, restore and batch-change copies appear in the trace
//! with their labels and `want`/`start`/`end` instants. Together the
//! scenarios walk every residency-lifecycle path of the scheduler:
//!
//! * preemption checkpoint, then resume restore;
//! * elastic admission at a reduced batch, then an in-place regrow;
//! * a burst-absorption shrink of an elastic training job;
//! * cancellation of a resident job (and of a queued one);
//! * mispredict recovery of an under-shooting predicted admission.
//!
//! The fixture `fixtures/side_channels_pcie.json` was captured from the
//! scheduler before its lifecycle paths were folded into shared helpers;
//! it is a contract, never regenerated to make this test pass. Set
//! `SIDE_CHANNELS_OUT=<file>` to write the current streams to a file for
//! diffing against it.

use capuchin_cluster::{
    AdmissionMode, Cluster, ClusterConfig, ClusterConfigBuilder, ClusterStats, ClusterTransfer,
    JobEvent, JobEventKind, JobPolicy, JobSpec, JobState, StrategyKind,
};
use capuchin_models::ModelKind;
use capuchin_sim::{DeviceSpec, InterconnectSpec};
use serde::{Deserialize, Serialize};

/// One scenario's two side channels, as the fixture stores them.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Streams {
    name: String,
    events: Vec<JobEvent>,
    transfers: Vec<ClusterTransfer>,
}

fn job(name: &str, model: ModelKind, batch: usize, iters: u64, arrival: f64) -> JobSpec {
    JobSpec {
        name: name.into(),
        model,
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

fn pcie() -> ClusterConfigBuilder {
    ClusterConfig::builder().interconnect(Some(InterconnectSpec::pcie_shared()))
}

/// Runs a batch workload and returns both streams.
fn traced(name: &str, cluster: &mut Cluster, jobs: &[JobSpec]) -> (Streams, ClusterStats) {
    let (stats, transfers) = cluster.run_traced(jobs);
    let streams = Streams {
        name: name.to_owned(),
        events: cluster.take_events(),
        transfers,
    };
    (streams, stats)
}

/// A low-priority job is checkpointed out for a high-priority arrival
/// and later restored.
fn preempt_resume() -> Streams {
    let mut low = job("low-long", ModelKind::Vgg16, 48, 12, 0.0);
    low.priority = 0;
    let mut high = job("high-short", ModelKind::Vgg16, 48, 3, 0.5);
    high.priority = 8;
    let cfg = pcie()
        .gpus(1)
        .spec(DeviceSpec::p100_pcie3().with_memory(6 << 30))
        .strategy(StrategyKind::BestFit)
        .preemption(true)
        .build()
        .unwrap();
    let mut cluster = Cluster::new(cfg);
    let (streams, stats) = traced("preempt_resume", &mut cluster, &[low, high]);
    assert!(stats.preemptions >= 1, "{}", stats.to_json());
    streams
}

/// An elastic job starts at a reduced batch beside a resident and grows
/// back once the resident finishes.
fn elastic_regrow() -> Streams {
    let resident = job("resident", ModelKind::Vgg16, 128, 4, 0.0);
    let mut grower = job("grower", ModelKind::Vgg16, 256, 8, 0.05);
    grower.elastic = true;
    let cfg = pcie()
        .gpus(1)
        .admission(AdmissionMode::TfOri)
        .elastic(true)
        .build()
        .unwrap();
    let mut cluster = Cluster::new(cfg);
    let (streams, stats) = traced("elastic_regrow", &mut cluster, &[resident, grower]);
    assert_eq!(stats.jobs[1].rebatches, 2, "{}", stats.to_json());
    streams
}

/// Elastic training fills two small GPUs; inference bursts make a
/// training neighbour shrink one rung, then grow back.
fn burst_shrink() -> Streams {
    let rate = 12.0;
    let mut jobs: Vec<JobSpec> = (0..6)
        .map(|i| {
            let mut j = job(
                &format!("train{i}"),
                ModelKind::Vgg16,
                32,
                6,
                0.05 * i as f64,
            );
            j.priority = 1;
            j.elastic = true;
            j
        })
        .collect();
    for i in 0..2 {
        jobs.push(
            job(
                &format!("serve{i}"),
                ModelKind::ResNet50,
                32,
                1,
                0.2 + 0.1 * i as f64,
            )
            .into_inference(rate, 400.0, (rate * 4.0) as u64, 768 << 20, 6),
        );
    }
    let cfg = pcie()
        .gpus(2)
        .spec(DeviceSpec::p100_pcie3().with_memory(4 << 30))
        .strategy(StrategyKind::BestFit)
        .admission(AdmissionMode::TfOri)
        .preemption(true)
        .elastic(true)
        .build()
        .unwrap();
    let mut cluster = Cluster::new(cfg);
    let (streams, stats) = traced("burst_shrink", &mut cluster, &jobs);
    assert!(stats.burst_shrinks >= 1, "{}", stats.to_json());
    streams
}

/// Online API: a resident job is cancelled mid-iteration (its gang is
/// released and the queued job behind it is placed), and a queued job
/// is cancelled before it ever runs.
fn cancel_resident() -> Streams {
    let cfg = pcie()
        .gpus(1)
        .spec(DeviceSpec::p100_pcie3().with_memory(6 << 30))
        .admission(AdmissionMode::TfOri)
        .build()
        .unwrap();
    let mut cluster = Cluster::new(cfg);
    let a = cluster.submit(&job("a", ModelKind::Vgg16, 48, 6, 0.0));
    let b = cluster.submit(&job("b", ModelKind::Vgg16, 48, 2, 0.1));
    let c = cluster.submit(&job("c", ModelKind::Vgg16, 48, 2, 0.2));
    while cluster.status(a).unwrap().iters_done < 2 {
        assert!(cluster.step(), "job a never reached its second iteration");
    }
    assert_eq!(cluster.status(a).unwrap().state, JobState::Running);
    assert_eq!(cluster.status(c).unwrap().state, JobState::Queued);
    cluster.cancel(c).unwrap();
    cluster.cancel(a).unwrap();
    assert_eq!(cluster.status(b).unwrap().state, JobState::Running);
    cluster.drain();
    Streams {
        name: "cancel_resident".to_owned(),
        events: cluster.take_events(),
        transfers: cluster.take_transfers(),
    }
}

/// A predicted admission under-shoots its true footprint, is caught at
/// its first boundary and recovers through measured re-admission.
fn mispredict_recovery() -> Streams {
    let jobs = vec![
        job("seed", ModelKind::Vgg16, 16, 3, 0.0),
        job("big", ModelKind::Vgg16, 48, 3, 120.0),
    ];
    let cfg = pcie()
        .gpus(1)
        .admission(AdmissionMode::TfOri)
        .predictive(true)
        .min_samples(1)
        .build()
        .unwrap();
    let mut cluster = Cluster::new(cfg);
    let (streams, stats) = traced("mispredict_recovery", &mut cluster, &jobs);
    assert_eq!(stats.mispredict_recoveries, 1, "{}", stats.to_json());
    streams
}

/// Index and both sides of the first record where two streams differ.
fn first_diff<T: PartialEq + std::fmt::Debug>(want: &[T], got: &[T]) -> Option<String> {
    let i = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i))?;
    Some(format!(
        "record {i} of {}/{}:\n want {:?}\n  got {:?}",
        want.len(),
        got.len(),
        want.get(i),
        got.get(i)
    ))
}

#[test]
fn side_channels_match_fixture() {
    let got = vec![
        preempt_resume(),
        elastic_regrow(),
        burst_shrink(),
        cancel_resident(),
        mispredict_recovery(),
    ];
    if let Ok(out) = std::env::var("SIDE_CHANNELS_OUT") {
        let rendered = serde_json::to_string_pretty(&got).expect("streams serialize");
        std::fs::write(&out, rendered).expect("write SIDE_CHANNELS_OUT");
    }
    // Every lifecycle path must actually be exercised, or the pin is
    // vacuous.
    let labels: Vec<&str> = got
        .iter()
        .flat_map(|s| &s.transfers)
        .map(|t| t.label.as_str())
        .collect();
    for want in [
        "checkpoint",
        "restore",
        "regrow-checkpoint",
        "regrow-restore",
        "shrink-checkpoint",
        "shrink-restore",
        "mispredict-checkpoint",
    ] {
        assert!(
            labels.contains(&want),
            "no `{want}` transfer in any scenario"
        );
    }
    let cancels = got
        .iter()
        .flat_map(|s| &s.events)
        .filter(|e| e.kind == JobEventKind::Cancelled)
        .count();
    assert_eq!(cancels, 2, "both cancellations are logged");

    let path = format!(
        "{}/tests/fixtures/side_channels_pcie.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {path}: {e}"));
    let want: Vec<Streams> = serde_json::from_str(&want).expect("fixture parses");
    assert_eq!(want.len(), got.len(), "scenario count changed");
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(w.name, g.name, "scenario order changed");
        if let Some(d) = first_diff(&w.events, &g.events) {
            panic!("{}: events diverge at {d}", w.name);
        }
        if let Some(d) = first_diff(&w.transfers, &g.transfers) {
            panic!("{}: transfers diverge at {d}", w.name);
        }
    }
}
