//! Unit tests of the cluster core.

use std::cmp::Reverse;
use std::sync::Arc;

use capuchin_sim::{DeviceSpec, Duration, InterconnectSpec, Time};

use super::session::{EmptyWalls, GpuState, JobRun};
use super::*;
use crate::admission::{AdmissionMode, ReplayIter};
use crate::job::{synthetic_inference_jobs, synthetic_jobs, synthetic_mixed_jobs, JobPolicy};
use crate::strategy::StrategyKind;

fn small_workload() -> Vec<JobSpec> {
    vec![
        JobSpec {
            name: "a".into(),
            model: capuchin_models::ModelKind::Vgg16,
            batch: 16,
            gpus: 1,
            policy: JobPolicy::Capuchin,
            iters: 3,
            priority: 0,
            arrival_time: 0.0,
            elastic: false,
            ..JobSpec::default()
        },
        JobSpec {
            name: "b".into(),
            model: capuchin_models::ModelKind::ResNet50,
            batch: 16,
            gpus: 1,
            policy: JobPolicy::TfOri,
            iters: 3,
            priority: 1,
            arrival_time: 0.1,
            elastic: false,
            ..JobSpec::default()
        },
    ]
}

#[test]
fn small_workload_completes_on_one_gpu() {
    let cfg = ClusterConfig::builder().gpus(1).build().unwrap();
    let stats = Cluster::new(cfg).run(&small_workload());
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.oom_rejections, 0);
    assert_eq!(stats.midrun_oom_aborts, 0);
    assert_eq!(stats.preemptions, 0);
    assert!(stats.makespan > Duration::ZERO);
    assert!(stats.aggregate_samples_per_sec > 0.0);
    assert!(stats.per_gpu[0].peak_reserved_bytes > 0);
    assert!(stats.per_gpu[0].mean_utilization > 0.0);
    assert_eq!(stats.interconnect, "off");
    assert!(stats.links.is_empty());
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let jobs = synthetic_jobs(6, 1, 0.5);
    let a = Cluster::new(ClusterConfig::default()).run(&jobs).to_json();
    let b = Cluster::new(ClusterConfig::default()).run(&jobs).to_json();
    assert_eq!(a, b);
}

#[test]
fn tf_ori_rejects_what_capuchin_shrinks() {
    // VGG16 @ 320 (ideal peak ≈ 19 GiB) oversubscribes a bare 16 GiB
    // device.
    let big = vec![JobSpec {
        name: "big".into(),
        model: capuchin_models::ModelKind::Vgg16,
        batch: 320,
        gpus: 1,
        policy: JobPolicy::Capuchin,
        iters: 3,
        priority: 0,
        arrival_time: 0.0,
        elastic: false,
        ..JobSpec::default()
    }];
    let tf = Cluster::new(
        ClusterConfig::builder()
            .gpus(1)
            .admission(AdmissionMode::TfOri)
            .build()
            .unwrap(),
    )
    .run(&big);
    assert_eq!(tf.oom_rejections, 1, "{}", tf.to_json());
    let cap = Cluster::new(
        ClusterConfig::builder()
            .gpus(1)
            .admission(AdmissionMode::Capuchin)
            .build()
            .unwrap(),
    )
    .run(&big);
    assert_eq!(cap.completed, 1, "{}", cap.to_json());
    assert!(cap.jobs[0].shrunk);
    assert!(cap.jobs[0].reserved_bytes < cap.jobs[0].footprint_bytes);
}

/// A gang splits its batch: admission measures the per-replica
/// footprint, all replicas are placed atomically, and the gang
/// completes with allreduce time visible when a fabric is modelled.
/// A spec whose footprint cannot even be measured (a 2.4 PB
/// activation) is rejected at arrival with a logged reason, instead of
/// panicking the scheduler, and the job behind it still runs.
#[test]
fn unmeasurable_spec_is_rejected_not_panicked() {
    let mut huge = small_workload()[1].clone();
    huge.name = "huge".into();
    huge.batch = 4_000_000_000;
    huge.elastic = true;
    let normal = small_workload()[1].clone();
    let cfg = ClusterConfig::builder()
        .gpus(1)
        .elastic(true)
        .build()
        .unwrap();
    let mut cluster = Cluster::new(cfg);
    let stats = cluster.run(&[huge, normal]);
    assert_eq!(stats.jobs[0].outcome, JobOutcome::Rejected);
    assert_eq!(stats.jobs[1].outcome, JobOutcome::Completed);
    let kinds: Vec<(u64, JobEventKind)> = cluster
        .take_events()
        .into_iter()
        .filter(|e| matches!(e.kind, JobEventKind::Rejected | JobEventKind::Completed))
        .map(|e| (e.job, e.kind))
        .collect();
    assert_eq!(
        kinds,
        vec![(0, JobEventKind::Rejected), (1, JobEventKind::Completed)]
    );
}

#[test]
fn gang_places_all_replicas_atomically() {
    let gang = vec![JobSpec {
        name: "gang".into(),
        model: capuchin_models::ModelKind::ResNet50,
        batch: 64,
        gpus: 2,
        policy: JobPolicy::TfOri,
        iters: 3,
        priority: 0,
        arrival_time: 0.0,
        elastic: false,
        ..JobSpec::default()
    }];
    let stats = Cluster::new(
        ClusterConfig::builder()
            .gpus(2)
            .interconnect(Some(InterconnectSpec::pcie_shared()))
            .build()
            .unwrap(),
    )
    .run(&gang);
    assert_eq!(stats.completed, 1, "{}", stats.to_json());
    let j = &stats.jobs[0];
    assert_eq!(j.replicas, 2);
    assert_eq!(j.gpus_used, vec![0, 1]);
    assert!(j.allreduce_time > Duration::ZERO);
    // Both devices hosted one replica with the same reservation.
    assert_eq!(stats.per_gpu[0].peak_reserved_bytes, j.reserved_bytes);
    assert_eq!(stats.per_gpu[1].peak_reserved_bytes, j.reserved_bytes);
    // The host link carried the allreduce traffic.
    assert!(stats.links[0].bytes > 0);
}

/// A gang wider than the cluster is rejected defensively at arrival
/// (parse-time validation already catches it for workload files).
#[test]
fn oversized_gang_is_rejected_not_panicked() {
    let wide = vec![JobSpec {
        name: "wide".into(),
        model: capuchin_models::ModelKind::ResNet50,
        batch: 64,
        gpus: 4,
        policy: JobPolicy::TfOri,
        iters: 2,
        priority: 0,
        arrival_time: 0.0,
        elastic: false,
        ..JobSpec::default()
    }];
    let stats = Cluster::new(ClusterConfig::builder().gpus(2).build().unwrap()).run(&wide);
    assert_eq!(stats.oom_rejections, 1);
    assert_eq!(stats.jobs[0].outcome, JobOutcome::Rejected);
    assert!(stats.jobs[0].gpus_used.is_empty());
}

/// With the interconnect modelled, two co-resident shrunk jobs (both
/// replaying swap traffic over the one host link) finish later than
/// with private lanes; an unconstrained fabric reproduces the private
/// timings exactly.
#[test]
fn shared_fabric_stretches_swapping_neighbours() {
    let swapper = |name: &str| JobSpec {
        name: name.into(),
        model: capuchin_models::ModelKind::Vgg16,
        batch: 320,
        gpus: 1,
        policy: JobPolicy::Capuchin,
        iters: 3,
        priority: 0,
        arrival_time: 0.0,
        elastic: false,
        ..JobSpec::default()
    };
    let jobs = vec![swapper("s0"), swapper("s1")];
    let cfg = |ic: Option<InterconnectSpec>| {
        ClusterConfig::builder()
            .gpus(2)
            .interconnect(ic)
            .build()
            .unwrap()
    };
    let off = Cluster::new(cfg(None)).run(&jobs);
    let on = Cluster::new(cfg(Some(InterconnectSpec::pcie_shared()))).run(&jobs);
    let free = Cluster::new(cfg(Some(InterconnectSpec::unconstrained()))).run(&jobs);
    assert_eq!(off.completed, 2);
    assert_eq!(on.completed, 2);
    // Both jobs swap; their replayed traffic shares one link, so at
    // least one queues behind the other.
    let total_delay: Duration = on.jobs.iter().map(|j| j.comm_delay).sum();
    assert!(total_delay > Duration::ZERO, "{}", on.to_json());
    assert!(on.makespan > off.makespan);
    // The no-contention limit matches the unmodelled fabric.
    for (a, b) in off.jobs.iter().zip(free.jobs.iter()) {
        assert_eq!(a.jct, b.jct, "{}: jct drifted", a.name);
        assert_eq!(a.queueing_delay, b.queueing_delay);
        assert_eq!(a.mean_iter, b.mean_iter);
    }
    assert_eq!(off.makespan, free.makespan);
}

/// Two staggered jobs must slow each other for exactly the overlap:
/// the first job's in-flight iteration is re-priced when the second
/// arrives mid-iteration, so neither keeps a stale 1× wall.
#[test]
fn staggered_jobs_reprice_in_flight_iterations() {
    let solo = |arrival: f64, name: &str| JobSpec {
        name: name.into(),
        model: capuchin_models::ModelKind::ResNet50,
        batch: 16,
        gpus: 1,
        policy: JobPolicy::TfOri,
        iters: 4,
        priority: 0,
        arrival_time: arrival,
        elastic: false,
        ..JobSpec::default()
    };
    let baseline =
        Cluster::new(ClusterConfig::builder().gpus(1).build().unwrap()).run(&[solo(0.0, "alone")]);
    let solo_jct = baseline.jobs[0].jct;
    assert!(solo_jct > Duration::ZERO);
    // Stagger the second arrival into the middle of the first job's
    // run (well past admission, well before completion).
    let stagger = solo_jct.as_secs_f64() * 0.4;
    let both = Cluster::new(ClusterConfig::builder().gpus(1).build().unwrap())
        .run(&[solo(0.0, "first"), solo(stagger, "second")]);
    assert_eq!(both.completed, 2, "{}", both.to_json());
    let first = &both.jobs[0];
    let second = &both.jobs[1];
    // Both must be slower than solo: the first pays 2× for its tail
    // (including the re-priced in-flight iteration), the second pays
    // 2× until the first finishes.
    assert!(
        first.jct > solo_jct,
        "first job untouched by contention: {:?} vs solo {:?}",
        first.jct,
        solo_jct
    );
    assert!(
        second.jct > solo_jct,
        "second job untouched by contention: {:?} vs solo {:?}",
        second.jct,
        solo_jct
    );
    // And the overlap is bounded: neither can be slower than a full
    // 2× of the whole solo run.
    assert!(first.jct < solo_jct.mul_f64(2.0));
}

/// The re-pricing itself, in isolation: a job mid-iteration at 1×
/// whose GPU gains a neighbour must finish that iteration later than
/// scheduled, by the remaining fraction at 2×.
#[test]
fn reprice_splits_iteration_at_residency_change() {
    let mut jobs = vec![JobRun::new(
        &JobSpec {
            name: "j".into(),
            model: capuchin_models::ModelKind::ResNet50,
            batch: 1,
            gpus: 1,
            policy: JobPolicy::TfOri,
            iters: 1,
            priority: 0,
            arrival_time: 0.0,
            elastic: false,
            ..JobSpec::default()
        },
        0,
    )];
    jobs[0].gpus_held = vec![0];
    jobs[0].replay = Arc::new(vec![ReplayIter {
        wall: Duration::from_millis(100),
        swap_bytes: 0,
        recompute_time: Duration::ZERO,
        evictions: 0,
        transfers: vec![],
    }]);
    let mut s = Session {
        jobs,
        gpus: vec![GpuState::new(1 << 30)],
        ..Session::default()
    };
    s.gpus[0].resident.push(0);
    s.schedule_iter(0, Time::ZERO).unwrap();
    let Reverse((end, _, _, _, _, epoch)) = *s.heap.peek().unwrap();
    assert_eq!(end, Duration::from_millis(100).as_nanos());
    assert_eq!(epoch, s.jobs[0].epoch);
    // A neighbour joins at t = 40 ms: 60 ms of base wall remain, now
    // at 2× -> new end at 40 + 120 = 160 ms.
    s.gpus[0].resident.push(1);
    let neighbour = JobRun::new(&s.jobs[0].spec, 1);
    s.jobs.push(neighbour);
    let at = Time::ZERO + Duration::from_millis(40);
    s.reprice(0, at);
    let newest = s
        .heap
        .iter()
        .find(|Reverse((_, _, _, _, job, ep))| *job == 0 && *ep == s.jobs[0].epoch)
        .expect("re-priced event exists");
    let Reverse((end, _, _, _, _, _)) = *newest;
    assert_eq!(end, Duration::from_millis(160).as_nanos());
}

/// Empty replay traces are rejected: `schedule_iter` refuses to
/// fabricate zero-time iterations.
#[test]
fn schedule_iter_rejects_empty_walls() {
    let mut s = Session {
        jobs: vec![JobRun::new(&small_workload()[0], 0)],
        gpus: vec![GpuState::new(1 << 30)],
        ..Session::default()
    };
    s.jobs[0].gpus_held = vec![0];
    assert_eq!(s.schedule_iter(0, Time::ZERO), Err(EmptyWalls));
    assert!(s.heap.is_empty());
}

/// On a contended single GPU, best-fit with preemption starts a
/// high-priority arrival before the resident low-priority job
/// finishes; the victim checkpoints out, resumes, and completes with
/// the PCIe checkpoint/restore time visible in its JCT.
#[test]
fn preemption_starts_high_priority_before_low_finishes() {
    let low = JobSpec {
        name: "low-long".into(),
        model: capuchin_models::ModelKind::Vgg16,
        batch: 48,
        gpus: 1,
        policy: JobPolicy::TfOri,
        iters: 40,
        priority: 0,
        arrival_time: 0.0,
        elastic: false,
        ..JobSpec::default()
    };
    let high = JobSpec {
        name: "high-short".into(),
        model: capuchin_models::ModelKind::Vgg16,
        batch: 48,
        gpus: 1,
        policy: JobPolicy::TfOri,
        iters: 4,
        priority: 8,
        arrival_time: 0.5,
        elastic: false,
        ..JobSpec::default()
    };
    let cfg = |preemption: bool| {
        ClusterConfig::builder()
            .gpus(1)
            .spec(DeviceSpec::p100_pcie3().with_memory(6 << 30))
            .strategy(StrategyKind::BestFit)
            .preemption(preemption)
            .build()
            .unwrap()
    };
    // Sanity: the two jobs cannot co-reside (each needs > half).
    let off = Cluster::new(cfg(false)).run(&[low.clone(), high.clone()]);
    assert_eq!(off.completed, 2);
    assert_eq!(off.preemptions, 0);
    let high_off = &off.jobs[1];
    let on = Cluster::new(cfg(true)).run(&[low, high]);
    assert_eq!(on.completed, 2, "{}", on.to_json());
    assert!(on.preemptions >= 1, "{}", on.to_json());
    let low_on = &on.jobs[0];
    let high_on = &on.jobs[1];
    // The high-priority job started before the low one finished:
    // without preemption it had to queue behind the whole run.
    assert!(
        high_on.queueing_delay < high_off.queueing_delay,
        "preemption did not shorten the high-priority queueing delay: {:?} vs {:?}",
        high_on.queueing_delay,
        high_off.queueing_delay
    );
    assert!(high_on.jct < high_off.jct);
    // The victim was preempted, resumed, completed — and paid for it.
    assert_eq!(low_on.outcome, JobOutcome::Completed);
    assert!(low_on.preemptions >= 1);
    assert!(low_on.checkpoint_overhead > Duration::ZERO);
    assert!(low_on.resume_latency > Duration::ZERO);
    assert!(low_on.wasted_work > Duration::ZERO);
    assert!(
        low_on.jct > off.jobs[0].jct + low_on.checkpoint_overhead,
        "checkpoint/restore time must be visible in the victim's JCT"
    );
}

/// `--preemption off` never preempts, regardless of priorities.
#[test]
fn preemption_off_never_preempts() {
    let jobs = synthetic_jobs(8, 3, 0.2);
    let stats = Cluster::new(
        ClusterConfig::builder()
            .gpus(2)
            .strategy(StrategyKind::BestFit)
            .preemption(false)
            .build()
            .unwrap(),
    )
    .run(&jobs);
    assert_eq!(stats.preemptions, 0);
    assert!(stats.jobs.iter().all(|j| j.preemptions == 0));
}

/// The builder refuses out-of-range knobs with typed errors instead of
/// letting a bad configuration reach the event loop.
#[test]
fn builder_rejects_bad_knobs() {
    assert_eq!(
        ClusterConfig::builder().gpus(0).build().unwrap_err(),
        ConfigError::NoGpus
    );
    assert_eq!(
        ClusterConfig::builder()
            .aging_rate(-0.5)
            .build()
            .unwrap_err(),
        ConfigError::BadAgingRate(-0.5)
    );
    assert!(matches!(
        ClusterConfig::builder()
            .aging_rate(f64::NAN)
            .build()
            .unwrap_err(),
        ConfigError::BadAgingRate(_)
    ));
    assert_eq!(
        ClusterConfig::builder()
            .validate_iters(1)
            .build()
            .unwrap_err(),
        ConfigError::TooFewValidateIters(1)
    );
    assert_eq!(
        ClusterConfig::builder()
            .min_batch_fraction(0.0)
            .build()
            .unwrap_err(),
        ConfigError::BadBatchFraction(0.0)
    );
    assert_eq!(
        ClusterConfig::builder()
            .min_batch_fraction(1.5)
            .build()
            .unwrap_err(),
        ConfigError::BadBatchFraction(1.5)
    );
    assert_eq!(
        ClusterConfig::builder()
            .safety_margin_permille(999)
            .build()
            .unwrap_err(),
        ConfigError::BadSafetyMargin(999)
    );
    assert_eq!(
        ClusterConfig::builder()
            .safety_margin_permille(10001)
            .build()
            .unwrap_err(),
        ConfigError::BadSafetyMargin(10001)
    );
    assert_eq!(
        ClusterConfig::builder().min_samples(0).build().unwrap_err(),
        ConfigError::BadMinSamples(0)
    );
    let msg = ConfigError::TooFewValidateIters(1).to_string();
    assert!(msg.contains("at least 2 iterations"), "{msg}");
    let msg = ConfigError::BadSafetyMargin(999).to_string();
    assert!(msg.contains("never shaved"), "{msg}");
    assert!(ClusterConfig::builder()
        .min_batch_fraction(1.0)
        .build()
        .is_ok());
    assert!(ClusterConfig::builder()
        .predictive(true)
        .safety_margin_permille(1000)
        .min_samples(1)
        .build()
        .is_ok());
}

/// An elastic job that cannot fit at its full batch next to a resident
/// job is admitted at a bisected smaller batch — starting earlier than
/// the rigid run — and re-grows to the full batch when the neighbour
/// finishes, with total samples trained preserved exactly.
#[test]
fn elastic_job_shrinks_to_start_earlier_then_regrows() {
    let resident = JobSpec {
        name: "resident".into(),
        model: capuchin_models::ModelKind::Vgg16,
        batch: 128,
        gpus: 1,
        policy: JobPolicy::TfOri,
        iters: 4,
        priority: 0,
        arrival_time: 0.0,
        elastic: false,
        ..JobSpec::default()
    };
    let grower = JobSpec {
        name: "grower".into(),
        model: capuchin_models::ModelKind::Vgg16,
        batch: 256,
        gpus: 1,
        policy: JobPolicy::TfOri,
        iters: 8,
        priority: 0,
        arrival_time: 0.05,
        elastic: true,
        ..JobSpec::default()
    };
    let cfg = |elastic: bool| {
        ClusterConfig::builder()
            .gpus(1)
            .admission(AdmissionMode::TfOri)
            .elastic(elastic)
            .build()
            .unwrap()
    };
    // Rigid baseline: the big job queues behind the whole resident run.
    let rigid = Cluster::new(cfg(false)).run(&[resident.clone(), grower.clone()]);
    assert_eq!(rigid.completed, 2, "{}", rigid.to_json());
    assert_eq!(rigid.rebatches, 0);

    let elastic = Cluster::new(cfg(true)).run(&[resident, grower]);
    assert_eq!(elastic.completed, 2, "{}", elastic.to_json());
    assert_eq!(elastic.midrun_oom_aborts, 0);
    let g = &elastic.jobs[1];
    assert_eq!(g.outcome, JobOutcome::Completed);
    assert_eq!(
        g.rebatches,
        2,
        "shrink at admission + one regrow: {}",
        elastic.to_json()
    );
    assert_eq!(g.samples_preserved, 256 * 8);
    assert!(g.elastic_time_at_reduced_batch > Duration::ZERO);
    assert!(
        g.checkpoint_overhead > Duration::ZERO,
        "regrow checkpoint/restore copies must be charged"
    );
    assert!(
        g.queueing_delay < rigid.jobs[1].queueing_delay,
        "elastic admission must start the job earlier: {:?} vs {:?}",
        g.queueing_delay,
        rigid.jobs[1].queueing_delay
    );
    // The resident job is untouched by its neighbour's elasticity.
    assert_eq!(elastic.jobs[0].rebatches, 0);
    assert_eq!(elastic.jobs[0].samples_preserved, 128 * 4);
    // No over-commit at any instant, even through the regrow window.
    assert!(elastic.per_gpu[0].peak_reserved_bytes <= elastic.per_gpu[0].capacity);
    assert_eq!(elastic.rebatches, 2);
}

/// With elastic re-batching enabled but no `elastic` jobs in the
/// workload, the stats are byte-identical to an elastic-off run: the
/// second admission pass never touches rigid jobs.
#[test]
fn elastic_flag_is_inert_without_elastic_jobs() {
    let jobs = synthetic_jobs(5, 2, 0.3);
    let cfg = |elastic: bool| {
        ClusterConfig::builder()
            .gpus(2)
            .elastic(elastic)
            .build()
            .unwrap()
    };
    let off = Cluster::new(cfg(false)).run(&jobs).to_json();
    let on = Cluster::new(cfg(true)).run(&jobs).to_json();
    assert_eq!(off, on);
}

/// With predictive admission *off* (the default) the new knobs are
/// provably inert: same-seed stats JSON is byte-identical to a
/// default-config run, with every predictor counter zero and every
/// measured job reporting `measured` provenance.
#[test]
fn predictive_off_is_byte_identical_to_default() {
    let jobs = synthetic_jobs(5, 4, 0.3);
    let base = Cluster::new(ClusterConfig::builder().gpus(2).build().unwrap()).run(&jobs);
    let off = Cluster::new(
        ClusterConfig::builder()
            .gpus(2)
            .predictive(false)
            .safety_margin_permille(2000)
            .min_samples(7)
            .build()
            .unwrap(),
    )
    .run(&jobs);
    assert_eq!(base.to_json(), off.to_json());
    assert_eq!(off.predictor_hits, 0);
    assert_eq!(off.predictor_misses, 0);
    assert_eq!(off.mispredict_recoveries, 0);
    for j in &off.jobs {
        assert_ne!(j.admission_source, "predicted", "{}", j.name);
        assert_eq!(j.predicted_bytes, 0);
    }
}

/// The warm-key guarantee: once a completed measured run has fed the
/// predictor, the next arrival of the same `(model, policy, class)`
/// family is admitted on the prediction with **zero** validation
/// engine runs charged — and completes without a mid-run OOM abort.
#[test]
fn warm_key_predicted_admission_charges_zero_validations() {
    let family = |name: &str, arrival: f64| JobSpec {
        name: name.into(),
        model: capuchin_models::ModelKind::Vgg16,
        batch: 16,
        gpus: 1,
        policy: JobPolicy::Capuchin,
        iters: 3,
        priority: 0,
        arrival_time: arrival,
        elastic: false,
        ..JobSpec::default()
    };
    // The second arrival lands well after the first completes, so
    // its key is warm.
    let jobs = vec![family("cold", 0.0), family("warm", 120.0)];
    let cfg = ClusterConfig::builder()
        .gpus(1)
        .predictive(true)
        .min_samples(1)
        .build()
        .unwrap();
    let mut cluster = Cluster::new(cfg);
    let stats = cluster.run(&jobs);
    assert_eq!(stats.completed, 2, "{}", stats.to_json());
    assert_eq!(stats.midrun_oom_aborts, 0);
    assert_eq!(stats.predictor_misses, 1);
    assert_eq!(stats.predictor_hits, 1);
    let cold = &stats.jobs[0];
    assert_eq!(cold.admission_source, "measured");
    assert!(cold.admission_validations > 0, "cold run must validate");
    let warm = &stats.jobs[1];
    assert_eq!(warm.admission_source, "predicted", "{}", stats.to_json());
    assert_eq!(
        warm.admission_validations, 0,
        "warm-key admission must charge zero engine runs"
    );
    assert!(warm.predicted_bytes > 0);
    assert_eq!(warm.mispredict_recoveries, 0, "same-shape prediction holds");
    // Attribution stays complete with the predicted path in play.
    let billed: u64 = stats.jobs.iter().map(|j| j.admission_validations).sum();
    assert_eq!(billed, cluster.validation_runs());

    // The store survives `reset` (how a serve daemon warms across
    // online submissions): a second same-workload run on the same
    // cluster admits *both* jobs predicted, charging nothing.
    let again = cluster.run(&jobs);
    assert_eq!(again.completed, 2);
    assert_eq!(again.predictor_hits, 2);
    assert_eq!(again.predictor_misses, 0);
    for j in &again.jobs {
        assert_eq!(j.admission_source, "predicted", "{}", j.name);
        assert_eq!(j.admission_validations, 0);
    }
}

/// The fallback ladder's bottom rung: a prediction extrapolated to an
/// unseen (larger) batch under-shoots under TfOri admission, is
/// caught at the first completed-iteration boundary, and the job is
/// checkpoint-preempted into a measured re-admission — completing
/// without over-commit instead of aborting.
#[test]
fn undershooting_prediction_recovers_via_remeasure() {
    let job = |name: &str, batch: usize, arrival: f64| JobSpec {
        name: name.into(),
        model: capuchin_models::ModelKind::Vgg16,
        batch,
        gpus: 1,
        policy: JobPolicy::TfOri,
        iters: 3,
        priority: 0,
        arrival_time: arrival,
        elastic: false,
        ..JobSpec::default()
    };
    // One sample at batch 16 fits a flat line; predicting batch 48
    // from it under-shoots the true footprint by far more than the
    // 15% safety margin covers.
    let jobs = vec![job("seed", 16, 0.0), job("big", 48, 120.0)];
    let cfg = ClusterConfig::builder()
        .gpus(1)
        .admission(AdmissionMode::TfOri)
        .predictive(true)
        .min_samples(1)
        .build()
        .unwrap();
    let mut cluster = Cluster::new(cfg);
    let stats = cluster.run(&jobs);
    assert_eq!(stats.completed, 2, "{}", stats.to_json());
    assert_eq!(stats.midrun_oom_aborts, 0);
    assert_eq!(stats.predictor_hits, 1);
    let big = &stats.jobs[1];
    assert_eq!(
        big.mispredict_recoveries,
        1,
        "under-shoot must trigger exactly one recovery: {}",
        stats.to_json()
    );
    assert_eq!(stats.mispredict_recoveries, 1);
    // Re-admission downgraded the provenance to the measured truth
    // and billed the re-measurement to the mispredicting job.
    assert_eq!(big.admission_source, "measured");
    assert!(big.admission_validations > 0);
    assert!(big.prediction_error_permille > 150, "error beyond margin");
    assert!(big.preemptions >= 1, "recovery rides the preemption path");
    assert!(big.checkpoint_overhead > Duration::ZERO);
    // No over-commit at any instant, recovery window included.
    for g in &stats.per_gpu {
        assert!(g.peak_reserved_bytes <= g.capacity);
    }
    let billed: u64 = stats.jobs.iter().map(|j| j.admission_validations).sum();
    assert_eq!(billed, cluster.validation_runs());
}

/// The dominated-waiter skip in [`settle::pick_preemption`] answers
/// exactly what the unskipped search answers. Four low-priority
/// residents fill four GPUs past half; behind a failing 4-wide gang queue
/// same-shape and wider gangs (dominated: skipped), two waiters with no
/// fit threshold at all, and an SLO-boosted inference waiter that can
/// evict one resident. The cluster runs with preemption off so the
/// queue holds still while both searches are diffed over aging rates,
/// SLO awareness and clock offsets.
#[test]
fn preemption_skip_matches_unskipped_search_on_crafted_waiters() {
    let train = |name: &str, batch: usize, gpus: usize, priority: u32, arrival: f64| JobSpec {
        name: name.into(),
        model: capuchin_models::ModelKind::Vgg16,
        batch,
        gpus,
        policy: JobPolicy::TfOri,
        iters: 400,
        priority,
        arrival_time: arrival,
        elastic: false,
        ..JobSpec::default()
    };
    let mut jobs: Vec<JobSpec> = (0..4)
        .map(|i| train(&format!("resident{i}"), 48, 1, 0, 0.0))
        .collect();
    jobs.extend([
        train("gang-a", 192, 4, 6, 1.0),
        train("gang-b", 192, 4, 5, 1.1),
        train("gang-c", 192, 4, 5, 1.2),
        train("gang-wide", 256, 4, 4, 1.3),
        train("hopeless", 48, 1, 7, 1.4),
        train("hopeless-gang", 96, 2, 3, 1.5),
        JobSpec {
            name: "serving".into(),
            priority: 0,
            ..train("serving", 8, 1, 0, 1.6)
        }
        .into_inference(50.0, 100.0, 400, 4 << 30, 1),
    ]);
    let cfg = ClusterConfig::builder()
        .gpus(4)
        .spec(DeviceSpec::p100_pcie3().with_memory(6 << 30))
        .strategy(StrategyKind::BestFit)
        .admission(AdmissionMode::TfOri)
        .preemption(false)
        .build()
        .unwrap();
    let mut cluster = Cluster::new(cfg);
    for spec in &jobs {
        cluster.submit(spec);
    }
    cluster.advance_to(Time::from_micros(2_000_000));
    let s = &mut cluster.session;
    // No headroom can ever satisfy a budget that failed at its full need.
    for hopeless in [8, 9] {
        let j = &mut s.jobs[hopeless];
        let full = j.needs.full;
        j.failed.insert(j.spec.batch, full);
    }
    let s = &cluster.session;
    let (residents, waiters) = ((0..4).collect::<Vec<_>>(), (4..11).collect::<Vec<_>>());
    assert!(
        residents.iter().all(|&r| s.jobs[r].iterating),
        "residents run"
    );
    assert!(
        waiters.iter().all(|w| s.pending.values().any(|p| p == w)),
        "every waiter queues"
    );
    let threshold = |j: usize| s.jobs[j].candidate(j).fit_threshold();
    assert_eq!(threshold(5), threshold(4));
    assert!(threshold(7) > threshold(4), "the wide gang is dominated");
    assert_eq!((threshold(8), threshold(9)), (None, None));
    assert!(
        s.jobs[10].slo_boost(s.now, true) > 0,
        "requests are waiting"
    );
    for aging in [0.0, 0.1, 1.0] {
        for slo_aware in [false, true] {
            for offset_us in [0, 250_000, 5_000_000] {
                let now = s.now + Duration::from_micros(offset_us);
                let skip = settle::pick_preemption(s, now, aging, slo_aware);
                let brute = settle::pick_preemption_brute(s, now, aging, slo_aware);
                assert_eq!(
                    skip, brute,
                    "aging {aging}, slo {slo_aware}, +{offset_us}us"
                );
            }
        }
    }
    // Only the boosted inference waiter can evict: without aging or its
    // SLO boost nothing may, and with it the lowest-index resident goes.
    let now = s.now;
    assert_eq!(settle::pick_preemption(s, now, 0.0, false), None);
    assert_eq!(settle::pick_preemption(s, now, 0.0, true), Some(0));
}

/// The skipped and unskipped victim searches agree at every step of a
/// mixed training and inference run with preemption on.
#[test]
fn preemption_skip_matches_unskipped_search_through_a_mixed_run() {
    let mut jobs = synthetic_mixed_jobs(120, 8, 5, 0.01);
    jobs.extend(synthetic_inference_jobs(8, 3, 0.1, 40.0));
    let cfg = ClusterConfig::builder()
        .gpus(8)
        .strategy(StrategyKind::BestFit)
        .admission(AdmissionMode::TfOri)
        .preemption(true)
        .elastic(true)
        .build()
        .unwrap();
    let (aging, slo_aware) = (cfg.aging_rate, cfg.slo_aware);
    let mut cluster = Cluster::new(cfg);
    for spec in &jobs {
        cluster.submit(spec);
    }
    let mut victims = 0;
    loop {
        let s = &cluster.session;
        for (aging, slo_aware) in [(aging, slo_aware), (0.0, false)] {
            let skip = settle::pick_preemption(s, s.now, aging, slo_aware);
            assert_eq!(
                skip,
                settle::pick_preemption_brute(s, s.now, aging, slo_aware),
                "at {:?}",
                s.now
            );
            victims += usize::from(skip.is_some());
        }
        if !cluster.step() {
            break;
        }
    }
    assert!(victims > 0, "the run never offered a victim");
    assert!(cluster.stats().preemptions > 0);
}
