//! Per-run state — jobs, GPU ledgers, the event heap and the waiting
//! queue — and the residency lifecycle every scheduling path shares:
//! [`Session::place`]/[`Session::admit`] grant a gang,
//! [`Session::release`] gives it back, [`Session::host_copy`] prices a
//! device↔host copy, and [`Session::record_failed`] keeps failed
//! budgets monotone.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

use capuchin_sim::{CopyDir, DeviceSpec, Duration, Interconnect, Time};

use super::elastic::LadderKey;
use super::estimate::EstimateSummary;
use super::ClusterConfig;
use crate::admission::{AdmissionSource, JobNeeds, ReplayIter};
use crate::headroom::GpuPool;
use crate::job::{JobSpec, SplitMix64};
use crate::stats::{ClusterTransfer, JobEvent, JobEventKind};
use crate::strategy::{slo_boost_permille, CandidateJob};

/// Host-side checkpoint of a preempted job: everything the cluster needs
/// to resume the replay on any GPU set. This is the replay-level mirror
/// of [`capuchin_executor::EngineSnapshot`] — the iteration cursor plus
/// the validated per-iteration replay trace and the budget it was
/// validated at.
#[derive(Debug, Clone)]
pub(super) struct Checkpoint {
    /// Completed iterations: the resume point. The interrupted iteration
    /// was discarded and is redone after restore.
    pub(super) iters_done: u64,
    /// Per-replica reservation the replay was validated at; resume
    /// regrants exactly this on every replica, so no re-validation is
    /// needed.
    pub(super) reserved: u64,
    /// Whether that reservation was a shrunk grant.
    pub(super) shrunk: bool,
    /// Validated per-iteration replay trace (shared with the validation
    /// cache — checkpointing never copies the trace).
    pub(super) replay: Arc<Vec<ReplayIter>>,
    /// Global batch in effect when the checkpoint was taken (may be an
    /// elastically reduced batch).
    pub(super) cur_batch: usize,
    /// Samples trained as of the checkpoint; resume continues the count.
    pub(super) samples_done: u64,
}

/// An in-flight elastic batch change: decided at a completed-iteration
/// boundary, applied when the checkpoint + restore copies drain
/// (`EventKind::Regrow`). The new reservation is claimed immediately so the copy
/// window cannot over-commit; the replay swap happens at the event.
#[derive(Debug, Clone)]
pub(super) struct Regrow {
    /// The new global batch.
    pub(super) batch: usize,
    /// Whether the new grant is below the new batch's ideal peak.
    pub(super) shrunk: bool,
    /// Validated replay trace at the new batch and grant.
    pub(super) replay: Arc<Vec<ReplayIter>>,
}

/// Per-job simulation state.
#[derive(Debug)]
pub(super) struct JobRun {
    pub(super) spec: JobSpec,
    pub(super) arrival: Time,
    /// When the job (re-)entered the waiting queue: arrival for fresh
    /// jobs, checkpoint completion for preempted ones. Priority aging and
    /// FIFO order run from here, so a preempted job does not return with
    /// an inflated age and immediately reclaim its slot.
    pub(super) queued_at: Time,
    pub(super) needs: JobNeeds,
    pub(super) footprint: u64,
    /// Gradient bytes per replica (the model's weight bytes), allreduced
    /// at every gang barrier.
    pub(super) grad_bytes: u64,
    /// Largest budget a validation run failed at, keyed by the global
    /// batch it was attempted at (elastic jobs validate at several
    /// batches); never retried at or below the recorded budget.
    pub(super) failed: BTreeMap<usize, u64>,
    pub(super) rejected: bool,
    /// Replay became impossible mid-run (empty replay trace): the job was
    /// evicted and counted as a mid-run abort.
    pub(super) aborted: bool,
    /// Cancelled through the online API ([`Cluster::cancel`]). Events
    /// already in the heap are dead: the arrival by this flag, scheduled
    /// events by the epoch bump taken at cancel time.
    pub(super) cancelled: bool,
    /// GPUs currently held — the whole gang, in placement order. Kept
    /// after completion for stats; cleared on preemption and abort.
    /// Always empty or exactly `spec.gpus` long: grants are atomic.
    pub(super) gpus_held: Vec<usize>,
    /// Per-replica reservation (same bytes on every held GPU).
    pub(super) reserved: u64,
    pub(super) shrunk: bool,
    pub(super) admitted_at: Option<Time>,
    pub(super) finished_at: Option<Time>,
    pub(super) replay: Arc<Vec<ReplayIter>>,
    pub(super) iters_done: u64,
    /// Key of this job's entry in [`Session::pending`] while queued.
    pub(super) queue_key: Option<u64>,
    /// Cached minimum of `needs.min` over the job's whole elastic ladder:
    /// when even this exceeds the best headroom anywhere, the elastic
    /// pass skips the job without probing a single rung.
    pub(super) ladder_floor_min: Option<u64>,
    /// Global batch currently in effect: `spec.batch` unless elastic
    /// re-batching reduced it (and has not yet grown it back).
    pub(super) cur_batch: usize,
    /// Samples the job must train in total: `spec.batch × spec.iters`.
    /// Elastic batch changes never alter this — only how many iterations
    /// it takes.
    pub(super) samples_total: u64,
    /// Samples trained so far (each completed iteration advances by
    /// `cur_batch`, clamped so the final iteration carries a partial
    /// batch when the ladder does not divide evenly).
    pub(super) samples_done: u64,
    /// Elastic batch changes: the admission-time shrink plus every mid-run
    /// re-grow (or re-shrink on resume).
    pub(super) rebatches: u64,
    /// When the current reduced-batch period started; `None` while the
    /// job runs at its full batch (or is checkpointed out — the clock
    /// pauses during preemption).
    pub(super) reduced_since: Option<Time>,
    /// Accumulated wall time spent training below the requested batch.
    pub(super) elastic_reduced_time: Duration,
    /// A decided batch change waiting for its copies to drain.
    pub(super) pending_regrow: Option<Regrow>,
    /// Bumped whenever scheduled events for this job become stale
    /// (re-pricing, preemption, abort); events carry the epoch they were
    /// scheduled under and are skipped on mismatch.
    pub(super) epoch: u64,
    /// An iteration's compute is in flight (false while the gang barrier
    /// communicates, checkpoints or restores).
    pub(super) iterating: bool,
    /// Base (1×) wall of the in-flight iteration.
    pub(super) iter_wall: Duration,
    /// Contention factor in effect since `iter_priced_at`.
    pub(super) iter_k: f64,
    /// When the in-flight iteration started (for wasted-work accounting).
    pub(super) iter_started: Time,
    /// Last re-pricing instant.
    pub(super) iter_priced_at: Time,
    /// Fraction of the base wall completed as of `iter_priced_at`.
    pub(super) iter_progress: f64,
    /// A checkpoint copy is draining (`EventKind::Preempt` scheduled).
    pub(super) preempting: bool,
    pub(super) checkpoint: Option<Checkpoint>,
    /// When the live checkpoint completed (cleared on resume).
    pub(super) preempted_at: Option<Time>,
    pub(super) preemptions: u64,
    pub(super) wasted_work: Duration,
    pub(super) resume_latency: Duration,
    /// Total checkpoint + restore copy time charged to the job.
    pub(super) checkpoint_overhead: Duration,
    /// Total allreduce time charged at gang barriers.
    pub(super) allreduce_time: Duration,
    /// Queueing delay behind other jobs' traffic on the shared fabric.
    pub(super) comm_delay: Duration,
    /// Per-label feedback lead for replayed prefetches (paper §4.4 during
    /// guided replay): a prefetch that came back stretched on the shared
    /// fabric wants the lane `lead` earlier on later iterations. Ordered
    /// for deterministic iteration.
    pub(super) lead: BTreeMap<String, Duration>,
    /// Inference: deterministic per-job generator for request
    /// inter-arrival jitter, seeded from the submission index.
    pub(super) req_rng: SplitMix64,
    /// Inference: request arrivals scheduled so far (arrival `i` schedules
    /// arrival `i + 1` until `spec.requests` have been generated).
    pub(super) req_scheduled: u64,
    /// Inference: arrival instants of requests waiting to enter a serving
    /// round, oldest first.
    pub(super) req_queue: VecDeque<Time>,
    /// Inference: arrival instants of the requests in the in-flight
    /// serving round (each holds `kv_bytes_per_request` on every held
    /// GPU until the round drains).
    pub(super) inflight: Vec<Time>,
    /// Inference: the round concurrency the admission grant priced in —
    /// `min(max_inflight, (grant − base budget) / kv)`. Serving itself is
    /// gated on live headroom up to `max_inflight`, so memory freed after
    /// admission raises the achievable concurrency past this license.
    pub(super) lic_inflight: usize,
    /// Inference: base needs (forward-only, before KV pricing), cached at
    /// arrival so admission can recover the KV-free budget split.
    pub(super) base_needs: JobNeeds,
    /// Inference: per-request served latencies in integer nanoseconds,
    /// accumulated for the percentile stats (sorted only at stats time).
    pub(super) latencies: Vec<u64>,
    /// Inference: requests served so far.
    pub(super) requests_served: u64,
    /// Inference: served requests that exceeded the SLO.
    pub(super) slo_misses: u64,
    /// Inference: the SLO in integer nanoseconds (0 for training).
    pub(super) slo_ns: u64,
    /// Kernel time spent regenerating released tensors, summed over the
    /// replay iterations consumed (integer nanoseconds inside
    /// [`Duration`]; floats only appear at serialization).
    pub(super) recompute_time: Duration,
    /// Reactive evictions summed over the replay iterations consumed.
    pub(super) evictions: u64,
    /// Validation engine runs this job triggered at admission (cache
    /// hits charge nothing; heuristic-class policies stay at zero by
    /// construction).
    pub(super) admission_validations: u64,
    /// Training: mid-run shrinks performed to absorb an inference burst.
    pub(super) burst_shrinks: u64,
    /// Training: currently running reduced specifically for a burst; the
    /// next re-grow closes the cycle.
    pub(super) shrunk_for_burst: bool,
    /// Training: a burst-absorption shrink decided by the scheduler,
    /// applied at the job's next completed-iteration boundary (target
    /// global batch, one ladder rung below the current one).
    pub(super) pending_shrink: Option<usize>,
    /// Where this job's current admission budgets came from. Flips back
    /// to `Measured` when a mispredict recovery re-admits the job, or
    /// when the elastic pass re-derives (and engine-validates) budgets
    /// at a reduced batch.
    pub(super) admission_source: AdmissionSource,
    /// Margin-padded predicted full reservation (the budget the job was
    /// actually admitted on); 0 for non-predicted admissions.
    pub(super) predicted_bytes: u64,
    /// Raw (pre-margin) predicted full reservation, kept for the
    /// first-boundary error measurement; 0 for non-predicted admissions.
    pub(super) predicted_raw_full: u64,
    /// `|raw prediction − measured truth| × 1000 / truth` for the full
    /// reservation, recorded when the first-boundary check runs.
    pub(super) prediction_error_permille: u64,
    /// Times an under-shooting prediction forced a checkpoint-preempt
    /// and measured re-admission.
    pub(super) mispredict_recoveries: u64,
    /// The first-boundary truth check already ran (predicted admissions
    /// run it exactly once).
    pub(super) mispredict_checked: bool,
}

impl JobRun {
    pub(super) fn new(spec: &JobSpec, id: usize) -> JobRun {
        let arrival = Time::ZERO + Duration::from_secs_f64(spec.arrival_time.max(0.0));
        let samples_total = if spec.is_inference() {
            spec.requests
        } else {
            (spec.batch.max(1) as u64).saturating_mul(spec.iters)
        };
        JobRun {
            slo_ns: spec.slo_nanos(),
            spec: spec.clone(),
            arrival,
            queued_at: arrival,
            needs: JobNeeds { full: 0, min: 0 },
            footprint: 0,
            grad_bytes: 0,
            failed: BTreeMap::new(),
            rejected: false,
            aborted: false,
            cancelled: false,
            gpus_held: Vec::new(),
            reserved: 0,
            shrunk: false,
            admitted_at: None,
            finished_at: None,
            replay: Arc::new(Vec::new()),
            iters_done: 0,
            queue_key: None,
            ladder_floor_min: None,
            cur_batch: spec.batch.max(1),
            samples_total,
            samples_done: 0,
            rebatches: 0,
            reduced_since: None,
            elastic_reduced_time: Duration::ZERO,
            pending_regrow: None,
            epoch: 0,
            iterating: false,
            iter_wall: Duration::ZERO,
            iter_k: 1.0,
            iter_started: Time::ZERO,
            iter_priced_at: Time::ZERO,
            iter_progress: 0.0,
            preempting: false,
            checkpoint: None,
            preempted_at: None,
            preemptions: 0,
            wasted_work: Duration::ZERO,
            resume_latency: Duration::ZERO,
            checkpoint_overhead: Duration::ZERO,
            allreduce_time: Duration::ZERO,
            comm_delay: Duration::ZERO,
            lead: BTreeMap::new(),
            // Mixing in a large odd constant decorrelates consecutive
            // submission indices through splitmix's finalizer.
            req_rng: SplitMix64::new((id as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x5EED),
            req_scheduled: 0,
            req_queue: VecDeque::new(),
            inflight: Vec::new(),
            lic_inflight: 0,
            base_needs: JobNeeds { full: 0, min: 0 },
            latencies: Vec::new(),
            requests_served: 0,
            slo_misses: 0,
            recompute_time: Duration::ZERO,
            evictions: 0,
            admission_validations: 0,
            burst_shrinks: 0,
            shrunk_for_burst: false,
            pending_shrink: None,
            admission_source: AdmissionSource::Measured,
            predicted_bytes: 0,
            predicted_raw_full: 0,
            prediction_error_permille: 0,
            mispredict_recoveries: 0,
            mispredict_checked: false,
        }
    }

    /// The gang width (defensively at least 1).
    pub(super) fn width(&self) -> usize {
        self.spec.gpus.max(1)
    }

    /// The strategy's view of this waiting job. A checkpointed job asks
    /// for exactly its validated reservation back — no re-validation, no
    /// shrink search.
    pub(super) fn candidate(&self, idx: usize) -> CandidateJob {
        match &self.checkpoint {
            Some(cp) => CandidateJob {
                job: idx,
                arrival: self.queued_at,
                priority: self.spec.priority,
                gpus: self.width(),
                full_need: cp.reserved,
                min_need: cp.reserved,
                failed_budget: None,
                boost_permille: 0,
            },
            None => CandidateJob {
                job: idx,
                arrival: self.queued_at,
                priority: self.spec.priority,
                gpus: self.width(),
                full_need: self.needs.full,
                min_need: self.needs.min,
                failed_budget: self.failed.get(&self.spec.batch).copied(),
                boost_permille: 0,
            },
        }
    }

    /// SLO-slack priority boost of a *waiting* inference job, from the
    /// age of its oldest pending request. 0 for training jobs, under
    /// SLO-blind scheduling, and while no request waits — so it can never
    /// perturb a training-only run. The boost is read at settle/preempt
    /// time (not baked into the queue), so it grows as requests age
    /// without re-keying anything.
    pub(super) fn slo_boost(&self, now: Time, slo_aware: bool) -> u64 {
        if !slo_aware || self.slo_ns == 0 {
            return 0;
        }
        match self.req_queue.front() {
            Some(&t) => slo_boost_permille(self.slo_ns, now.saturating_since(t).as_nanos()),
            None => 0,
        }
    }

    /// Whether the job reached a terminal state: rejected, completed,
    /// aborted or cancelled.
    pub(super) fn terminal(&self) -> bool {
        self.rejected || self.finished_at.is_some() || self.aborted || self.cancelled
    }

    /// Closes the current reduced-batch window, if one is open, into
    /// [`JobRun::elastic_reduced_time`].
    pub(super) fn close_reduced(&mut self, now: Time) {
        if let Some(since) = self.reduced_since.take() {
            self.elastic_reduced_time += now.saturating_since(since);
        }
    }

    /// Banks the consumed replay iteration's memory-management costs and
    /// advances the iteration cursor (the same index `schedule_iter` read
    /// when it started the iteration).
    pub(super) fn bank_iteration(&mut self) {
        if let Some(it) = self
            .replay
            .get(self.iters_done as usize)
            .or(self.replay.last())
        {
            self.recompute_time += it.recompute_time;
            self.evictions += it.evictions;
        }
        self.iters_done += 1;
    }

    /// Installs freshly derived admission budgets and returns the
    /// published needs. Inference prices a full round's KV state on top
    /// of the forward-only base: `full` asks for the licensed
    /// concurrency's worth, `min` for at least one request's slot — a
    /// grant anywhere in between licenses proportionally fewer concurrent
    /// requests (never zero).
    pub(super) fn set_budgets(&mut self, est: &EstimateSummary, base: JobNeeds) -> JobNeeds {
        let inference = self.spec.is_inference();
        self.needs = if inference {
            let kv = self.spec.kv_bytes_per_request;
            let max_in = self.spec.max_inflight.max(1) as u64;
            JobNeeds {
                full: base.full.saturating_add(max_in.saturating_mul(kv)),
                min: base.min.saturating_add(kv),
            }
        } else {
            base
        };
        self.base_needs = base;
        self.footprint = est.ideal_peak;
        // No backward pass means no gradients: the gang allreduce is
        // skipped for inference via the `grad_bytes > 0` gate.
        self.grad_bytes = if inference { 0 } else { est.weight_bytes };
        self.needs
    }
}

/// Per-GPU reservation ledger with a byte-time integral for utilization.
#[derive(Debug)]
pub(super) struct GpuState {
    pub(super) capacity: u64,
    pub(super) reserved: u64,
    pub(super) resident: Vec<usize>,
    pub(super) peak: u64,
    pub(super) byte_ns: u128,
    pub(super) last_touch: Time,
    pub(super) hosted: usize,
}

impl GpuState {
    pub(super) fn new(capacity: u64) -> GpuState {
        GpuState {
            capacity,
            reserved: 0,
            resident: Vec::new(),
            peak: 0,
            byte_ns: 0,
            last_touch: Time::ZERO,
            hosted: 0,
        }
    }

    /// Accumulates the byte-time integral up to `now`.
    pub(super) fn touch(&mut self, now: Time) {
        let span = now.saturating_since(self.last_touch).as_nanos() as u128;
        self.byte_ns += self.reserved as u128 * span;
        self.last_touch = now;
    }
}

/// Removes `job` from a GPU's resident list by position (one find + one
/// shift instead of a full `retain` rewrite). Order is preserved —
/// re-pricing iterates residents in placement order, and reordering them
/// would drift event sequence numbers and the stats JSON.
fn remove_resident(g: &mut GpuState, job: usize) {
    if let Some(pos) = g.resident.iter().position(|&r| r == job) {
        g.resident.remove(pos);
    }
}

/// What a scheduled event does when the clock reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum EventKind {
    /// A submitted job arrives and goes through admission.
    Arrive,
    /// An iteration's (or serving round's) compute drained.
    IterEnd,
    /// A preemption's device-to-host checkpoint copy drained: release the
    /// reservations and re-enqueue the victim.
    Preempt,
    /// A resume's host-to-device restore copy drained: the job starts
    /// iterating again from its saved cursor.
    Resume,
    /// The iteration-boundary communication (swap-replay queueing and/or
    /// the gang's gradient allreduce) drained: the iteration is truly
    /// complete.
    Comm,
    /// An elastic batch change's checkpoint + restore copies drained: the
    /// new replay takes effect and the job iterates at the new batch.
    Regrow,
    /// An inference request arrived. Carries epoch 0 and — like `Arrive` —
    /// ignores the job's epoch: request arrivals are an external process,
    /// so re-pricing or repreemption epoch bumps must not silently drop
    /// them. Staleness is the job's terminal/cancelled state instead.
    ReqArrive,
    /// A mispredict recovery's device-to-host checkpoint copy drained: the
    /// job's predicted grant under-shot the verified truth, so it drops
    /// its predicted state entirely and re-enters the queue with measured
    /// budgets (unlike `Preempt`, no checkpoint is kept — resuming one
    /// would regrant the insufficient budget verbatim).
    Remeasure,
}

/// Event queue entry: `(time ns, class, sequence, kind, job, epoch)`
/// under `Reverse` for min-heap order. The class ranks arrivals (0)
/// ahead of scheduled events (1) at the same instant, so an online
/// [`Cluster::submit`] — whose arrival necessarily draws a later
/// sequence number than events already in flight — processes exactly
/// where the batch loop (which pushes every arrival before any
/// scheduled event exists) would have ordered it. The sequence number
/// is unique, so it breaks every remaining tie deterministically; the
/// epoch invalidates events superseded by re-pricing or preemption.
pub(super) type Event = Reverse<(u64, u8, u64, EventKind, usize, u64)>;

/// Builds an [`Event`], deriving the arrival-first class rank from the
/// kind.
fn ev(t: Time, seq: u64, kind: EventKind, job: usize, epoch: u64) -> Event {
    let class = u8::from(kind != EventKind::Arrive);
    Reverse((t.as_nanos(), class, seq, kind, job, epoch))
}

/// A job's replay trace is empty — replaying it would fabricate zero-time
/// iterations (and an infinitely fast job).
#[derive(Debug, PartialEq, Eq)]
pub(super) struct EmptyWalls;

/// All mutable state of one simulation run: the event heap and clock,
/// per-job and per-GPU state, the waiting queue, and the side-channel
/// logs. [`Cluster::reset`] swaps in a fresh one; the admission caches
/// live on [`Cluster`] itself and survive across runs (they memoize pure
/// functions of the spec, so reuse cannot perturb determinism). The
/// all-empty `Default` is the placeholder `std::mem::take` leaves behind
/// while the event loop works on the real session; API callers never
/// observe it.
#[derive(Debug, Default)]
pub(super) struct Session {
    pub(super) seq: u64,
    pub(super) heap: BinaryHeap<Event>,
    pub(super) jobs: Vec<JobRun>,
    pub(super) gpus: Vec<GpuState>,
    pub(super) fabric: Option<Interconnect>,
    /// Headroom index mirroring `gpus[i].reserved`; every reservation
    /// change goes through [`Session::reserve_on`]/[`Session::release_on`]
    /// so the two can never disagree.
    pub(super) pool: GpuPool,
    /// Waiting queue in queue-entry order (arrival, or checkpoint
    /// completion for preempted jobs), keyed by a monotone entry
    /// sequence for O(log n) keyed removal.
    pub(super) pending: BTreeMap<u64, usize>,
    /// Next queue-entry key.
    pub(super) queue_seq: u64,
    /// Bumped on every queue mutation (entry, removal, or a failed-budget
    /// record that changes a waiting candidate).
    pub(super) queue_gen: u64,
    /// Waiting candidates indexed by `(fit threshold, queue key)`
    /// (candidates whose threshold is `None` can never fit and are
    /// excluded). Two roles: its first key is the queue's *fit floor* —
    /// while every device's headroom sits below it, the placement pass
    /// provably picks nothing and settle skips it in O(1) — and for
    /// order-insensitive strategies a range query feeds `pick` exactly
    /// the candidates whose threshold clears the best headroom, instead
    /// of scanning the whole backlog per probe.
    pub(super) by_threshold: BTreeMap<(u64, u64), usize>,
    /// Waiting elastic jobs (no checkpoint) in queue-entry order — the
    /// elastic pass walks this instead of filtering the whole queue.
    pub(super) pending_elastic: BTreeMap<u64, usize>,
    /// Multiset of known ladder floors ([`JobRun::ladder_floor_min`])
    /// over the waiting elastic jobs: the elastic-pass analogue of
    /// `fit_thresholds` (no rung of any waiting ladder fits below its
    /// floor, so the pass skips in O(1) while headroom stays under the
    /// smallest floor).
    pub(super) elastic_floors: BTreeMap<u64, usize>,
    /// Waiting elastic jobs whose ladder floor is not yet measured; the
    /// elastic pass cannot be skipped while any remain.
    pub(super) elastic_unfloored: usize,
    /// `(pool generation, queue generation)` at the end of the last
    /// settle pass. While both are unchanged, re-running placement and
    /// the elastic pass provably picks nothing (a `None` pick depends
    /// only on queue contents and headroom, never on the clock), so
    /// settle skips them.
    pub(super) settled_at: Option<(u64, u64)>,
    /// Pool generation [`Session::ladder_probes`] is valid at.
    pub(super) ladder_gen: u64,
    /// Memoized elastic-ladder placement probes: two waiting jobs with
    /// the same replica needs share one strategy probe per generation.
    pub(super) ladder_probes: BTreeMap<LadderKey, Option<Vec<usize>>>,
    /// Jobs currently holding reservations — the preemption victim scan
    /// iterates this instead of every job ever submitted.
    pub(super) resident_jobs: BTreeSet<usize>,
    /// Jobs with a preemption checkpoint copy in flight (the old
    /// `any(|j| j.preempting)` scan, maintained incrementally).
    pub(super) preempting: usize,
    /// Unified transfer trace (the [`Cluster::run_traced`] side-channel),
    /// drained by [`Cluster::take_transfers`].
    pub(super) transfers: Vec<ClusterTransfer>,
    /// Lifecycle event log in occurrence order (the `capuchin-serve`
    /// side-channel), drained by [`Cluster::take_events`].
    pub(super) events: Vec<JobEvent>,
    /// The clock: the last processed event time or the last
    /// [`Cluster::advance_to`] deadline, whichever is later. Online
    /// submissions arriving "in the past" are clamped to it.
    pub(super) now: Time,
    /// Any inference job was ever submitted this session. While false,
    /// the settle pass skips the inference serving loop entirely — a
    /// training-only run executes the exact pre-inference code path.
    pub(super) has_inference: bool,
    /// Completed burst-absorption cycles: a training job shrank to
    /// absorb an inference burst and later re-grew (cluster-wide).
    pub(super) burst_cycles: u64,
    /// Predicted admissions this session: arrivals whose budgets came
    /// from a warm predictor key (predictive mode only).
    pub(super) predictor_hits: u64,
    /// Predictable arrivals that fell back to measured admission because
    /// their key was still cold (predictive mode only).
    pub(super) predictor_misses: u64,
}

impl Session {
    pub(super) fn new(cfg: &ClusterConfig) -> Session {
        let fabric = cfg
            .interconnect
            .clone()
            .map(|spec| Interconnect::new(spec, cfg.gpus));
        let domain_of: Vec<usize> = match &fabric {
            Some(f) => (0..cfg.gpus).map(|g| f.spec().domain_of(g)).collect(),
            // Without a fabric every device is its own link domain.
            None => (0..cfg.gpus).collect(),
        };
        Session {
            gpus: (0..cfg.gpus)
                .map(|_| GpuState::new(cfg.spec.memory_bytes))
                .collect(),
            pool: GpuPool::new(vec![cfg.spec.memory_bytes; cfg.gpus], domain_of),
            fabric,
            ..Session::default()
        }
    }

    /// Appends a job to the waiting queue, in queue-entry order. The fit
    /// floor and elastic bookkeeping pick the job up here; any later
    /// change to its candidate (a failed-budget record) or its ladder
    /// floor adjusts the multisets at the mutation site, so the state
    /// removed by [`Session::dequeue`] always matches what was inserted.
    pub(super) fn enqueue(&mut self, job: usize) {
        let key = self.queue_seq;
        self.queue_seq += 1;
        let j = &self.jobs[job];
        let threshold = j.candidate(job).fit_threshold();
        // Inference jobs never re-batch (parse-time validation rejects
        // the combination; code-built specs get the same verdict here).
        let elastic = j.spec.elastic && !j.spec.is_inference() && j.checkpoint.is_none();
        let floor = j.ladder_floor_min;
        self.jobs[job].queue_key = Some(key);
        self.pending.insert(key, job);
        if let Some(t) = threshold {
            self.by_threshold.insert((t, key), job);
        }
        if elastic {
            self.pending_elastic.insert(key, job);
            match floor {
                Some(f) => multiset_add(&mut self.elastic_floors, f),
                None => self.elastic_unfloored += 1,
            }
        }
        self.queue_gen += 1;
    }

    /// Removes a job from the waiting queue by its stored key — O(log n)
    /// instead of a retain scan.
    pub(super) fn dequeue(&mut self, job: usize) {
        if let Some(key) = self.jobs[job].queue_key.take() {
            self.pending.remove(&key);
            let j = &self.jobs[job];
            if let Some(t) = j.candidate(job).fit_threshold() {
                self.by_threshold.remove(&(t, key));
            }
            if self.pending_elastic.remove(&key).is_some() {
                match j.ladder_floor_min {
                    Some(f) => multiset_sub(&mut self.elastic_floors, f),
                    None => self.elastic_unfloored -= 1,
                }
            }
            self.queue_gen += 1;
        }
    }

    /// Adds `bytes` to `gpu`'s reservation, keeping [`GpuState`] (stats
    /// truth) and [`GpuPool`] (placement index) in lock-step.
    pub(super) fn reserve_on(&mut self, gpu: usize, bytes: u64, now: Time) {
        let g = &mut self.gpus[gpu];
        g.touch(now);
        g.reserved += bytes;
        g.peak = g.peak.max(g.reserved);
        self.pool.set_reserved(gpu, g.reserved);
    }

    /// Releases `bytes` from `gpu`'s reservation, mirrored into the pool.
    pub(super) fn release_on(&mut self, gpu: usize, bytes: u64, now: Time) {
        let g = &mut self.gpus[gpu];
        g.touch(now);
        g.reserved -= bytes;
        self.pool.set_reserved(gpu, g.reserved);
    }

    /// Appends one lifecycle record for `job` to the event log.
    pub(super) fn log(&mut self, t: Time, job: usize, kind: JobEventKind) {
        let name = self.jobs[job].spec.name.clone();
        self.events.push(JobEvent {
            t,
            job: job as u64,
            name,
            kind,
        });
    }

    /// Schedules a `kind` event for `job` at `at`, valid while the job's
    /// epoch stays `epoch`.
    pub(super) fn push(&mut self, at: Time, kind: EventKind, job: usize, epoch: u64) {
        self.heap.push(ev(at, self.seq, kind, job, epoch));
        self.seq += 1;
    }

    /// Whether a heap entry was superseded and must be dropped unseen.
    /// Arrivals die only by cancellation and request arrivals only by
    /// the job reaching a terminal state (both are external processes
    /// that epoch bumps must not silence); every scheduled event dies by
    /// an epoch bump.
    pub(super) fn stale(&self, kind: EventKind, job: usize, epoch: u64) -> bool {
        let j = &self.jobs[job];
        match kind {
            EventKind::Arrive => j.cancelled,
            EventKind::ReqArrive => j.terminal(),
            _ => epoch != j.epoch,
        }
    }

    /// The contention factor a job experiences: the maximum resident
    /// count over the GPUs its gang holds. The lockstep barrier waits for
    /// the slowest replica, so the most crowded device paces the whole
    /// gang.
    fn contention_factor(&self, job: usize) -> f64 {
        self.jobs[job]
            .gpus_held
            .iter()
            .map(|&g| self.gpus[g].resident.len())
            .max()
            .unwrap_or(1)
            .max(1) as f64
    }

    /// Schedules the end of `job`'s next iteration's compute: recorded
    /// wall time (the validation run's final wall repeats past its
    /// length) scaled by the gang's contention factor. Re-pricing adjusts
    /// the end later if residency changes mid-iteration; boundary
    /// communication is charged separately when the compute drains.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyWalls`] when the job has no replay trace —
    /// admission rejects such traces, so this is a defence, not a path.
    pub(super) fn schedule_iter(&mut self, job: usize, now: Time) -> Result<(), EmptyWalls> {
        assert!(
            !self.jobs[job].gpus_held.is_empty(),
            "scheduled job holds a gang"
        );
        let k = self.contention_factor(job);
        let j = &mut self.jobs[job];
        if j.replay.is_empty() {
            return Err(EmptyWalls);
        }
        let idx = (j.iters_done as usize).min(j.replay.len() - 1);
        let wall = j.replay[idx].wall;
        j.iter_wall = wall;
        j.iter_k = k;
        j.iter_progress = 0.0;
        j.iter_started = now;
        j.iter_priced_at = now;
        j.iterating = true;
        let epoch = j.epoch;
        self.push(now + wall.mul_f64(k), EventKind::IterEnd, job, epoch);
        Ok(())
    }

    /// Starts `job`'s next iteration, or aborts it when its replay trace
    /// is empty.
    pub(super) fn start_iter(&mut self, job: usize, now: Time) {
        if self.schedule_iter(job, now).is_err() {
            self.abort(job, now);
        }
    }

    /// Re-prices every in-flight iteration on `gpu` after its resident
    /// set changed at `now`: progress accrued under the old contention
    /// factor is banked, the remainder is rescaled to the new factor, and
    /// a fresh iteration-end event supersedes the stale one (epoch bump).
    /// A gang's factor spans all its GPUs, so a residency change on one
    /// device re-prices gang-mates whose other devices are untouched.
    pub(super) fn reprice(&mut self, gpu: usize, now: Time) {
        let residents = self.gpus[gpu].resident.clone();
        for r in residents {
            let k = self.contention_factor(r);
            let j = &mut self.jobs[r];
            if !j.iterating || j.iter_k == k {
                continue;
            }
            let base = j.iter_wall.as_nanos() as f64;
            if base > 0.0 {
                let elapsed = now.saturating_since(j.iter_priced_at).as_nanos() as f64;
                j.iter_progress = (j.iter_progress + elapsed / (j.iter_k * base)).min(1.0);
            } else {
                j.iter_progress = 1.0;
            }
            j.iter_k = k;
            j.iter_priced_at = now;
            let remaining =
                Duration::from_nanos(((1.0 - j.iter_progress) * k * base).round() as u64);
            j.epoch += 1;
            let epoch = j.epoch;
            self.push(now + remaining, EventKind::IterEnd, r, epoch);
        }
    }

    /// Re-prices the residents of every GPU `job` holds, in gang order.
    fn reprice_gang(&mut self, job: usize, now: Time) {
        for i in 0..self.jobs[job].gpus_held.len() {
            let gpu = self.jobs[job].gpus_held[i];
            self.reprice(gpu, now);
        }
    }

    /// Prices one device↔host copy of `bytes` per replica of `job`,
    /// wanted at `at`, and returns the instant it drains. On a shared
    /// fabric every replica's copy serializes on the host link (behind
    /// any traffic already in flight) and is traced under `label`; with
    /// private lanes the replicas copy in parallel. The label and job
    /// name are only materialized when a fabric is present.
    pub(super) fn host_copy(
        &mut self,
        dev: &DeviceSpec,
        job: usize,
        at: Time,
        dir: CopyDir,
        bytes: u64,
        label: &'static str,
    ) -> Time {
        let Some(fabric) = self.fabric.as_mut() else {
            return at + dev.copy_time(bytes, dir);
        };
        let j = &self.jobs[job];
        let bytes = bytes * j.gpus_held.len().max(1) as u64;
        let tr = fabric.host_transfer(at, bytes);
        self.transfers.push(ClusterTransfer {
            job: j.spec.name.clone(),
            iter: u64::MAX,
            label: label.to_owned(),
            link: "host".to_owned(),
            dir,
            bytes,
            want: at,
            start: tr.start,
            end: tr.end,
            wait: tr.start.saturating_since(at),
            charge: Duration::ZERO,
            lead: Duration::ZERO,
        });
        tr.end
    }

    /// Grants `job` its whole gang at `reserved` bytes per replica: the
    /// job leaves the queue and every member device reserves and hosts it
    /// in this same step — a gang never holds a partial reservation. The
    /// caller starts the job and then re-prices the gang.
    pub(super) fn place(&mut self, job: usize, gang: Vec<usize>, reserved: u64, now: Time) {
        self.dequeue(job);
        self.resident_jobs.insert(job);
        for &gpu in &gang {
            self.reserve_on(gpu, reserved, now);
            let g = &mut self.gpus[gpu];
            g.resident.push(job);
            g.hosted += 1;
        }
        let j = &mut self.jobs[job];
        j.gpus_held = gang;
        j.reserved = reserved;
    }

    /// A fresh admission at global `batch`: [`Session::place`], log
    /// `Admitted`, then start the first iteration (inference waits for
    /// the serving loop to open a round) and re-price the gang. The
    /// caller has installed the validated replay.
    pub(super) fn admit(
        &mut self,
        job: usize,
        gang: Vec<usize>,
        reserved: u64,
        batch: usize,
        now: Time,
    ) {
        self.jobs[job].admitted_at = Some(now);
        let gpus = gang.clone();
        self.log(
            now,
            job,
            JobEventKind::Admitted {
                gpus,
                batch,
                reserved,
            },
        );
        self.place(job, gang, reserved, now);
        if !self.jobs[job].spec.is_inference() && self.schedule_iter(job, now).is_err() {
            self.abort(job, now);
        } else {
            self.reprice_gang(job, now);
        }
    }

    /// Resume placement: regrants the checkpointed budget `grant` on
    /// every replica and charges the host-to-device restore copy; the job
    /// iterates again at `EventKind::Resume`.
    pub(super) fn restore(
        &mut self,
        dev: &DeviceSpec,
        job: usize,
        gang: Vec<usize>,
        grant: u64,
        now: Time,
    ) {
        self.place(job, gang, grant, now);
        let end = self.host_copy(dev, job, now, CopyDir::HostToDevice, grant, "restore");
        let j = &mut self.jobs[job];
        j.checkpoint_overhead += end.saturating_since(now);
        j.epoch += 1;
        let epoch = j.epoch;
        self.push(end, EventKind::Resume, job, epoch);
        self.reprice_gang(job, now);
    }

    /// Gives back every replica's reservation of `job`, logs `kind`, and
    /// re-prices the devices it left. The gang list is kept for stats
    /// when the job completed and cleared otherwise (preemption, abort,
    /// cancel), so `gpus_held` is always empty or the whole gang.
    pub(super) fn release(&mut self, job: usize, now: Time, kind: JobEventKind) {
        let held = std::mem::take(&mut self.jobs[job].gpus_held);
        let reserved = self.jobs[job].reserved;
        self.resident_jobs.remove(&job);
        for &gpu in &held {
            self.release_on(gpu, reserved, now);
            remove_resident(&mut self.gpus[gpu], job);
        }
        let keep = kind == JobEventKind::Completed;
        self.log(now, job, kind);
        for &gpu in &held {
            self.reprice(gpu, now);
        }
        if keep {
            self.jobs[job].gpus_held = held;
        }
    }

    /// Marks `job` complete at `now` and releases its gang.
    pub(super) fn finish(&mut self, job: usize, now: Time) {
        let j = &mut self.jobs[job];
        assert!(!j.gpus_held.is_empty(), "running job holds its gang");
        j.finished_at = Some(now);
        j.close_reduced(now);
        self.release(job, now, JobEventKind::Completed);
    }

    /// Evicts `job` as a mid-run abort: every replica's reservation is
    /// released, its events are invalidated, and it counts toward
    /// `midrun_oom_aborts`.
    pub(super) fn abort(&mut self, job: usize, now: Time) {
        let j = &mut self.jobs[job];
        j.aborted = true;
        j.iterating = false;
        j.close_reduced(now);
        j.epoch += 1;
        self.release(job, now, JobEventKind::Aborted);
    }

    /// Starts copying `job`'s whole reservation (every replica) to the
    /// host; `kind` fires when the copy drains. The job is `preempting`
    /// until then, and still holds its gang.
    pub(super) fn checkpoint_out(
        &mut self,
        dev: &DeviceSpec,
        job: usize,
        now: Time,
        kind: EventKind,
        label: &'static str,
    ) {
        let reserved = self.jobs[job].reserved;
        let end = self.host_copy(dev, job, now, CopyDir::DeviceToHost, reserved, label);
        let j = &mut self.jobs[job];
        j.preempting = true;
        j.preemptions += 1;
        j.checkpoint_overhead += end.saturating_since(now);
        j.epoch += 1;
        let epoch = j.epoch;
        self.preempting += 1;
        self.push(end, kind, job, epoch);
    }

    /// Starts an in-place batch change of a resident job to `to`, granted
    /// `grant` bytes per replica. It is charged like a preemption round
    /// trip — D2H of the old reservation, then H2D of the new, on every
    /// replica — and `EventKind::Regrow` swaps the replay in when both
    /// copies drain. A shrink (burst absorption) returns the freed bytes
    /// at once so the blocked burst can claim them in this very settle
    /// pass; a grow claims the new reservation at once so no placement
    /// decided during the copy window can over-commit it.
    pub(super) fn rebatch(
        &mut self,
        dev: &DeviceSpec,
        job: usize,
        now: Time,
        grant: u64,
        to: Regrow,
    ) {
        let old = self.jobs[job].reserved;
        let shrink = to.batch < self.jobs[job].cur_batch;
        let (out, back) = if shrink {
            ("shrink-checkpoint", "shrink-restore")
        } else {
            ("regrow-checkpoint", "regrow-restore")
        };
        let mid = self.host_copy(dev, job, now, CopyDir::DeviceToHost, old, out);
        let end = self.host_copy(dev, job, mid, CopyDir::HostToDevice, grant, back);
        for i in 0..self.jobs[job].gpus_held.len() {
            let gpu = self.jobs[job].gpus_held[i];
            if shrink {
                self.release_on(gpu, old - grant, now);
            } else {
                self.release_on(gpu, old, now);
                self.reserve_on(gpu, grant, now);
            }
        }
        let j = &mut self.jobs[job];
        j.reserved = grant;
        j.checkpoint_overhead += end.saturating_since(now);
        j.rebatches += 1;
        if shrink {
            j.burst_shrinks += 1;
            j.shrunk_for_burst = true;
        }
        j.pending_regrow = Some(to);
        j.epoch += 1;
        let epoch = j.epoch;
        self.push(end, EventKind::Regrow, job, epoch);
    }

    /// Records that a validation run failed at `grant` bytes per replica
    /// for `job` at global `batch`. Failed budgets only grow, and the job
    /// is never retried at or below one. A waiting job's fit threshold
    /// may move with the record, so the threshold index re-files it and
    /// the queue generation moves (the next settle retries it).
    pub(super) fn record_failed(&mut self, job: usize, batch: usize, grant: u64) {
        let old = self.jobs[job].candidate(job).fit_threshold();
        let j = &mut self.jobs[job];
        let e = j.failed.entry(batch).or_insert(grant);
        *e = (*e).max(grant);
        let Some(key) = j.queue_key else { return };
        let new = self.jobs[job].candidate(job).fit_threshold();
        if old != new {
            if let Some(t) = old {
                self.by_threshold.remove(&(t, key));
            }
            if let Some(t) = new {
                self.by_threshold.insert((t, key), job);
            }
        }
        self.queue_gen += 1;
    }

    /// Returns `bytes` of a serving job's KV state on every held replica.
    pub(super) fn release_kv(&mut self, job: usize, bytes: u64, now: Time) {
        for i in 0..self.jobs[job].gpus_held.len() {
            let gpu = self.jobs[job].gpus_held[i];
            self.release_on(gpu, bytes, now);
        }
        self.jobs[job].reserved -= bytes;
    }
}

/// Adds one occurrence of `v` to a threshold multiset.
pub(super) fn multiset_add(set: &mut BTreeMap<u64, usize>, v: u64) {
    *set.entry(v).or_insert(0) += 1;
}

/// Drops one occurrence of `v`. The entry disappears at zero so
/// `first_key_value` stays the true minimum.
fn multiset_sub(set: &mut BTreeMap<u64, usize>, v: u64) {
    match set.get_mut(&v) {
        Some(c) if *c > 1 => *c -= 1,
        _ => {
            set.remove(&v);
        }
    }
}
