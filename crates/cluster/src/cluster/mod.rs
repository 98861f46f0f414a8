//! The cluster simulation: N GPUs, one deterministic event clock.
//!
//! # Model
//!
//! * Each GPU is a byte-granular reservation ledger. A job holds one
//!   reservation *per replica* (granted at admission) for its entire
//!   stay; there is no mid-run growth, because Capuchin's plan keeps the
//!   footprint under the granted budget.
//! * A job with `gpus = k > 1` is a data-parallel **gang**: `k` replicas,
//!   each training `batch / k` samples, admitted to `k` GPUs atomically —
//!   all or none, never a partial gang. Admission measures the
//!   *per-replica* footprint (weights + activations at the replica
//!   batch) once and every replica gets the same grant. The gang iterates
//!   in lockstep: one barrier per iteration boundary, where gradients are
//!   allreduced before the next iteration starts.
//! * Job execution is replayed, not re-simulated: admission validates the
//!   granted budget with a real engine run and the cluster replays the
//!   recorded per-iteration wall times (and swap-byte volumes) on its own
//!   clock. When a job's validation run is shorter than the job, the
//!   final (steady-state) iteration repeats. An empty validation trace is
//!   a failed validation — replaying it would fabricate zero-time
//!   iterations.
//! * Co-located jobs slow each other down: an iteration in flight while
//!   `k` jobs are resident on the GPU progresses at `1/k` of its recorded
//!   pace (compute is time-sliced, memory is partitioned). A gang's
//!   factor is the *maximum* over its GPUs — the lockstep barrier waits
//!   for the slowest replica. Residency changes *re-price* every
//!   in-flight iteration: progress accrued so far is banked at the old
//!   factor and the remainder is rescaled to the new one, so bursty
//!   arrivals are charged honestly.
//! * With [`ClusterConfig::interconnect`] set, all cluster copy traffic
//!   routes over a shared fabric ([`capuchin_sim::Interconnect`]) instead
//!   of private per-job lanes: the *per-tensor transfer timeline* each
//!   iteration recorded during validation, gang gradient allreduces (ring
//!   schedule, `2·(k−1)/k × gradient bytes` per replica), and
//!   checkpoint/restore copies. Concurrent transfers queue on the
//!   finite-bandwidth links and stretch co-resident iterations. Swap
//!   replay re-issues each recorded transfer at its in-iteration offset
//!   and charges only the *deduplicated queueing delay* (the validated
//!   wall already contains the wire time, paid once on a private lane),
//!   so a job's `comm_delay` decomposes exactly into its per-tensor
//!   transfer records; a stretched prefetch accumulates a feedback lead
//!   that pulls its next replay earlier (the §4.4 in-trigger loop at
//!   cluster level). Allreduce — absent from single-GPU validation —
//!   charges its full span at the barrier.
//! * With [`ClusterConfig::preemption`] on, a high-effective-priority
//!   arrival that fits nowhere may preempt the lowest-priority resident
//!   job: the victim's state is checkpointed to the host (a copy of its
//!   whole reservation, from every replica), its reservations are
//!   released, and it re-enters the queue to resume later from the saved
//!   iteration (restore pays the host-to-device copy). Gangs are
//!   preempted whole or not at all — evicting one replica would stall the
//!   lockstep barrier forever. The interrupted iteration is discarded and
//!   redone on resume — the same boundary semantics as
//!   [`capuchin_executor::Engine::snapshot`].
//! * With [`ClusterConfig::elastic`] on, a waiting [`JobSpec::elastic`]
//!   job that fits nowhere at its full batch is admitted at a *reduced*
//!   batch: the cluster bisects the halving ladder
//!   ([`capuchin::elastic_batches`], floored at
//!   [`ClusterConfig::min_batch_fraction`]) for the largest batch some
//!   gang subset can host right now, reusing the footprint/validation
//!   caches keyed by replica batch. A reduced job trains *more
//!   iterations* so that total samples trained is preserved exactly
//!   (the final iteration carries a partial batch when the ladder does
//!   not divide evenly). At every completed-iteration boundary a reduced
//!   job checks whether freed headroom lets it re-grow toward the full
//!   batch; growing re-plans the engine at the new batch
//!   ([`capuchin_executor::Engine::restore_rebatched`]'s semantics), so
//!   the cluster charges the same device-to-host checkpoint plus
//!   host-to-device restore copies preemption models.
//! * Footprint measurement happens off the critical path (think: a
//!   profiling sidecar), so admission consumes no simulated time.
//!
//! # Determinism and gang atomicity
//!
//! Events are ordered by `(time, class, submission sequence)` — the
//! class ranks arrivals ahead of scheduled events at the same instant,
//! which makes the ordering independent of *when* a job was submitted:
//! the online API ([`Cluster::submit`]) interleaves a late submission
//! exactly where the batch loop (which pushes every arrival before any
//! scheduled event exists) would have processed it. All caches are
//! `BTreeMap`s; the waiting queue is a `BTreeMap` keyed by a monotone
//! entry sequence — queue-entry order (arrival, or checkpoint completion
//! for preempted jobs) with O(log n) keyed removal. Re-pricing and
//! preemption supersede scheduled iteration ends via a per-job epoch
//! counter — stale events are skipped on pop, never mutated in place.
//! Two runs over the same workload produce byte-identical stats JSON.
//!
//! Gang reservation cannot deadlock: the strategy returns the *complete*
//! GPU set for one job and the single-threaded event loop grants every
//! member in the same step. No gang ever holds a partial reservation
//! while waiting for the rest, so there is no hold-and-wait cycle — the
//! classic sort-by-gang-then-release protocol degenerates to a single
//! atomic grant.

mod config;
mod dispatch;
mod elastic;
mod estimate;
mod predictive;
mod serving;
mod session;
mod settle;
#[cfg(test)]
mod tests;

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;

use capuchin_models::ModelKind;
use capuchin_sim::{Duration, Time};

pub use self::config::{ClusterConfig, ClusterConfigBuilder, ConfigError};
use self::estimate::{EstimateCache, ValidationKey};
use self::predictive::VerifiedTruth;
use self::session::{EventKind, JobRun, Session};
use crate::admission::{Admission, ReplayIter};
use crate::job::JobSpec;
use crate::predict::FootprintPredictor;
use crate::stats::{
    ClusterStats, ClusterTransfer, GpuStats, JobEvent, JobEventKind, JobOutcome, JobState,
    JobStats, JobStatus, STATS_SCHEMA_VERSION,
};

/// Handle for a submitted job: its submission index, stable for the
/// lifetime of the run and equal to the index of the job's entry in
/// [`ClusterStats::jobs`].
pub type JobId = usize;

/// Why [`Cluster::cancel`] refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelError {
    /// No job with this id was ever submitted.
    UnknownJob(JobId),
    /// The job already reached a terminal state (completed, rejected,
    /// aborted, or cancelled); there is nothing left to cancel.
    Terminal(JobId),
}

impl std::fmt::Display for CancelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelError::UnknownJob(id) => write!(f, "job {id} was never submitted"),
            CancelError::Terminal(id) => {
                write!(f, "job {id} already reached a terminal state")
            }
        }
    }
}

impl std::error::Error for CancelError {}

/// The cluster scheduler.
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    admission: Admission,
    /// Measured footprints and derived admission budgets keyed by
    /// `(model kind, replica batch)` — jobs (and gang replicas) sharing a
    /// per-replica workload share one measuring run and one bisection.
    /// The interned [`ModelKind`] key avoids a `String` clone per probe,
    /// and only the [`EstimateSummary`] slice of the measuring run is
    /// retained — the full profile would otherwise be cloned on every
    /// cache hit (once per arrival and elastic probe). The trailing flag
    /// is the policy's admission cost class (`true` = heuristic):
    /// heuristic needs skip the measured bisection, so the two classes
    /// derive different budgets from the same measuring run.
    estimates: EstimateCache,
    /// Forward-only (inference) footprints and budgets, keyed like
    /// [`Cluster::estimates`] but measured over the graph's forward
    /// prefix — a separate map because the same `(model, replica batch)`
    /// has a strictly smaller serving footprint than its training twin.
    forward_estimates: EstimateCache,
    /// Built training graphs keyed by `(model kind, replica batch)`.
    /// Validation runs at distinct byte budgets can't share a cache
    /// entry, but they all replan over the same graph — rebuilding it
    /// per run used to dominate Capuchin-admission wall time. Bounded by
    /// the workload's shape menu, which synthetic generators keep small.
    models: BTreeMap<(ModelKind, usize), capuchin_models::Model>,
    /// Validation outcomes: `Some` holds the per-iteration replay trace
    /// (shared, not cloned, with every admission that hits the cache),
    /// `None` records a failed run.
    validations: BTreeMap<ValidationKey, Option<Arc<Vec<ReplayIter>>>>,
    /// Validation engine runs already attributed to some job — the
    /// cursor [`Cluster::charge_admission`] advances against the
    /// controller's monotone [`Admission::validation_runs`] counter.
    charged_runs: u64,
    /// Footprint regression store fed by completed measured runs. Like
    /// the estimate caches it survives [`Cluster::reset`], which is what
    /// lets a `capuchin-serve` daemon warm it across online submissions —
    /// the longer the daemon lives, the more admissions are free.
    predictor: FootprintPredictor,
    /// Measured truth for mispredict verification, keyed by `(model,
    /// replica batch, forward-only)` and shared by every predicted job of
    /// the same shape. Populated without validation engine runs.
    truths: BTreeMap<(ModelKind, usize, bool), VerifiedTruth>,
    /// Live run state for the online API (and the batch wrappers).
    session: Session,
}

impl Cluster {
    /// Creates a cluster.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        let mut admission = Admission::new(cfg.admission);
        admission.validate_iters = cfg.validate_iters.max(2);
        let session = Session::new(&cfg);
        Cluster {
            cfg,
            admission,
            estimates: BTreeMap::new(),
            forward_estimates: BTreeMap::new(),
            models: BTreeMap::new(),
            validations: BTreeMap::new(),
            charged_runs: 0,
            predictor: FootprintPredictor::new(),
            truths: BTreeMap::new(),
            session,
        }
    }

    /// Attributes every validation engine run performed since the last
    /// charge to `j` — called after each admission-driven block
    /// (`estimate_at` / `validated_replay` clusters), so per-job
    /// `admission_validations` sums exactly to the controller's total.
    /// Cache-hit admissions charge nothing; heuristic-class policies
    /// never run a validation engine and stay at zero.
    fn charge_admission(&mut self, j: &mut JobRun) {
        let total = self.admission.validation_runs();
        j.admission_validations += total - self.charged_runs;
        self.charged_runs = total;
    }

    /// Memoized validation entries currently held. Diagnostic hook:
    /// heuristic-class admissions must leave this cache cold, so an
    /// all-`dtr` workload reports zero here.
    pub fn validation_cache_len(&self) -> usize {
        self.validations.len()
    }

    /// Total validation engine runs the admission controller has
    /// performed over this cluster's lifetime (all sessions — the
    /// caches, like the controller, survive [`Cluster::reset`]).
    pub fn validation_runs(&self) -> u64 {
        self.admission.validation_runs()
    }

    /// The footprint regression store (read-only). Like the admission
    /// caches it survives [`Cluster::reset`] — a serve daemon's predictor
    /// keeps warming across submissions for its whole lifetime.
    pub fn predictor(&self) -> &FootprintPredictor {
        &self.predictor
    }

    /// Predicted admissions this session (warm predictor keys).
    pub fn predictor_hits(&self) -> u64 {
        self.session.predictor_hits
    }

    /// Predictable arrivals that fell back to measured admission this
    /// session (cold predictor keys).
    pub fn predictor_misses(&self) -> u64 {
        self.session.predictor_misses
    }

    /// Runs the workload to completion and returns the stats.
    ///
    /// A thin wrapper over the online core: [`Cluster::reset`], then
    /// [`Cluster::submit`] for every spec, then [`Cluster::drain`]. The
    /// stats JSON is byte-identical to driving the incremental API over
    /// the same submission sequence.
    pub fn run(&mut self, specs: &[JobSpec]) -> ClusterStats {
        self.run_traced(specs).0
    }

    /// Runs the workload and additionally returns the unified transfer
    /// trace: every replayed per-tensor swap, gang allreduce, and
    /// checkpoint/restore copy resolved on the shared fabric, in
    /// settlement order. Empty when the interconnect model is off. The
    /// trace is a side-channel — [`ClusterStats`] (and its JSON) is
    /// identical to what [`Cluster::run`] returns.
    pub fn run_traced(&mut self, specs: &[JobSpec]) -> (ClusterStats, Vec<ClusterTransfer>) {
        self.reset();
        for spec in specs {
            self.submit(spec);
        }
        self.drain();
        let transfers = std::mem::take(&mut self.session.transfers);
        (self.stats(), transfers)
    }

    /// Discards all run state (jobs, clock, heap, side-channel logs) and
    /// starts a fresh session on the same configuration. The admission
    /// caches are kept — they memoize pure functions of the spec, so
    /// reuse cannot perturb determinism.
    pub fn reset(&mut self) {
        self.session = Session::new(&self.cfg);
    }

    /// The simulation clock: the last processed event time or the last
    /// [`Cluster::advance_to`] deadline, whichever is later.
    pub fn now(&self) -> Time {
        self.session.now
    }

    /// Submits one job to the online core and returns its handle.
    ///
    /// The job's [`JobSpec::arrival_time`] is honoured while it is still
    /// in the future; an arrival the clock has already passed is clamped
    /// to [`Cluster::now`] — the cluster cannot admit in the past.
    /// Nothing is processed here: the arrival itself (admission
    /// measuring, placement) happens when the clock reaches it via
    /// [`Cluster::step`], [`Cluster::advance_to`] or [`Cluster::drain`].
    pub fn submit(&mut self, spec: &JobSpec) -> JobId {
        let s = &mut self.session;
        let id = s.jobs.len();
        if spec.is_inference() {
            s.has_inference = true;
        }
        let mut run = JobRun::new(spec, id);
        if run.arrival < s.now {
            run.arrival = s.now;
            run.queued_at = s.now;
        }
        let arrival = run.arrival;
        s.jobs.push(run);
        s.log(arrival, id, JobEventKind::Submitted);
        s.push(arrival, EventKind::Arrive, id, 0);
        id
    }

    /// Cancels a job. A never-admitted queued job simply leaves the
    /// waiting queue — it held no reservation, so nothing is refunded; a
    /// resident (or mid-checkpoint-copy) job releases every replica's
    /// reservation immediately and its in-flight events are invalidated.
    /// Either way the job's outcome becomes [`JobOutcome::Cancelled`] —
    /// distinct from `Rejected` (admission never refused it) and
    /// `Aborted` (its replay state never became unusable).
    ///
    /// # Errors
    ///
    /// [`CancelError::UnknownJob`] for an id [`Cluster::submit`] never
    /// returned; [`CancelError::Terminal`] when the job already
    /// completed, was rejected, aborted, or cancelled.
    pub fn cancel(&mut self, id: JobId) -> Result<(), CancelError> {
        match self.session.jobs.get(id) {
            None => return Err(CancelError::UnknownJob(id)),
            Some(j) if j.terminal() => return Err(CancelError::Terminal(id)),
            Some(_) => {}
        }
        let mut s = std::mem::take(&mut self.session);
        let now = s.now;
        let j = &mut s.jobs[id];
        let was_preempting = j.preempting;
        j.cancelled = true;
        j.iterating = false;
        j.preempting = false;
        // Scheduled events die by the epoch bump, the pending arrival by
        // the cancelled flag.
        j.epoch += 1;
        j.close_reduced(now);
        if was_preempting {
            s.preempting -= 1;
        }
        // A queued job holds nothing: refund nothing. A resident job's
        // whole gang releases right away (a preempting victim's
        // checkpoint copy is moot — the job is going away).
        s.dequeue(id);
        s.release(id, now, JobEventKind::Cancelled);
        // Freed memory — or a freed queue slot ahead of other waiters —
        // may unblock placements immediately.
        self.settle(&mut s, now);
        self.session = s;
        Ok(())
    }

    /// A live snapshot of one job, or `None` for an id never submitted.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let j = self.session.jobs.get(id)?;
        let state = if j.rejected {
            JobState::Rejected
        } else if j.finished_at.is_some() {
            JobState::Completed
        } else if j.cancelled {
            JobState::Cancelled
        } else if j.aborted {
            JobState::Aborted
        } else if j.checkpoint.is_some() || j.preempting {
            JobState::Preempted
        } else if !j.gpus_held.is_empty() {
            JobState::Running
        } else {
            JobState::Queued
        };
        Some(JobStatus {
            id: id as u64,
            name: j.spec.name.clone(),
            state,
            iters_done: j.iters_done,
            samples_done: j.samples_done,
            samples_total: j.samples_total,
            cur_batch: j.cur_batch,
            replicas: j.width(),
            gpus: j.gpus_held.clone(),
            reserved_bytes: if j.gpus_held.is_empty() {
                0
            } else {
                j.reserved
            },
            preemptions: j.preemptions,
            rebatches: j.rebatches,
            admission_source: j.admission_source.name().to_owned(),
        })
    }

    /// Drains the lifecycle event log accumulated since the last call
    /// (or [`Cluster::reset`]): every submit, reject, admit, iteration,
    /// preempt, resume, rebatch, complete, abort and cancel transition,
    /// in occurrence order. A pure side-channel — reading or ignoring it
    /// cannot change the stats.
    pub fn take_events(&mut self) -> Vec<JobEvent> {
        std::mem::take(&mut self.session.events)
    }

    /// Drains the unified transfer trace accumulated since the last call
    /// (or [`Cluster::reset`]) — the same records [`Cluster::run_traced`]
    /// returns, exposed incrementally for streaming consumers. Empty
    /// with the interconnect model off.
    pub fn take_transfers(&mut self) -> Vec<ClusterTransfer> {
        std::mem::take(&mut self.session.transfers)
    }

    /// Whether any live (non-superseded) event is still scheduled.
    pub fn has_work(&self) -> bool {
        let s = &self.session;
        s.heap
            .iter()
            .any(|&Reverse((_, _, _, kind, job, epoch))| !s.stale(kind, job, epoch))
    }

    /// Processes the next event, skipping superseded ones: dispatches
    /// its state transition, then runs one settle pass (placement, the
    /// elastic second pass, preemption) — exactly one turn of the batch
    /// loop. Returns whether an event was processed; `false` means the
    /// cluster is idle.
    pub fn step(&mut self) -> bool {
        self.step_bounded(None)
    }

    /// Advances the clock to `deadline`, processing every event at or
    /// before it, and returns whether live events remain beyond it.
    /// Events strictly after the deadline are untouched, so a later
    /// [`Cluster::submit`] whose arrival lands before them still
    /// interleaves exactly as a batch run would have ordered it.
    pub fn advance_to(&mut self, deadline: Time) -> bool {
        while self.step_bounded(Some(deadline)) {}
        if self.session.now < deadline {
            self.session.now = deadline;
        }
        self.has_work()
    }

    /// Runs the event loop to idle: every submitted job reaches a
    /// terminal state or starves waiting.
    pub fn drain(&mut self) {
        while self.step() {}
    }

    /// Snapshots whole-run statistics at the current instant — callable
    /// mid-run (jobs still queued or resident simply have no completion
    /// to report yet) and after [`Cluster::drain`], where it renders the
    /// exact JSON the old batch loop produced. Non-destructive: the run
    /// can continue after a snapshot.
    pub fn stats(&self) -> ClusterStats {
        let s = &self.session;
        let jobs = &s.jobs;
        let start = jobs.iter().map(|j| j.arrival).min().unwrap_or(Time::ZERO);
        let end = jobs
            .iter()
            .filter_map(|j| j.finished_at)
            .max()
            .unwrap_or(start);
        let makespan = end.saturating_since(start);
        let completed: Vec<&JobRun> = jobs.iter().filter(|j| j.finished_at.is_some()).collect();
        // `samples_done` equals `batch × iters` for every completed job,
        // elastic or not: re-batching preserves the sample count exactly.
        // Summed in integers; the one float conversion happens at the
        // throughput division below so no per-job precision is lost.
        let total_samples: u64 = completed.iter().map(|j| j.samples_done).sum();
        let total_requests: u64 = jobs.iter().map(|j| j.requests_served).sum();
        let total_misses: u64 = jobs.iter().map(|j| j.slo_misses).sum();
        let mean = |durs: Vec<Duration>| -> Duration {
            if durs.is_empty() {
                return Duration::ZERO;
            }
            // u128 accumulation: a u64-nanos sum can overflow on long
            // runs with many samples.
            let total: u128 = durs.iter().map(|d| d.as_nanos() as u128).sum();
            Duration::from_nanos((total / durs.len() as u128) as u64)
        };
        let mean_queueing_delay = mean(
            completed
                .iter()
                .map(|j| {
                    j.admitted_at
                        .expect("completed job was admitted")
                        .saturating_since(j.arrival)
                })
                .collect(),
        );
        let mean_jct = mean(
            completed
                .iter()
                .map(|j| j.finished_at.expect("filtered").saturating_since(j.arrival))
                .collect(),
        );
        let job_stats: Vec<JobStats> = jobs
            .iter()
            .map(|j| {
                let jct = j
                    .finished_at
                    .map(|f| f.saturating_since(j.arrival))
                    .unwrap_or(Duration::ZERO);
                JobStats {
                    name: j.spec.name.clone(),
                    model: j.spec.model.name().to_owned(),
                    batch: j.spec.batch,
                    policy: j.spec.policy.name().to_owned(),
                    outcome: if j.rejected {
                        JobOutcome::Rejected
                    } else if j.finished_at.is_some() {
                        JobOutcome::Completed
                    } else if j.cancelled {
                        JobOutcome::Cancelled
                    } else if j.aborted {
                        JobOutcome::Aborted
                    } else if j.checkpoint.is_some() || j.preempting {
                        JobOutcome::Preempted
                    } else {
                        JobOutcome::Starved
                    },
                    replicas: j.spec.gpus,
                    gpus_used: j.gpus_held.clone(),
                    shrunk: j.shrunk,
                    reserved_bytes: j.reserved,
                    footprint_bytes: j.footprint,
                    arrival: j.arrival.saturating_since(Time::ZERO),
                    queueing_delay: j
                        .admitted_at
                        .map(|a| a.saturating_since(j.arrival))
                        .unwrap_or(Duration::ZERO),
                    jct,
                    // Over the iterations actually run: an elastic job
                    // that shrank trains more (cheaper) iterations, and
                    // the mean reflects that. Identical to `spec.iters`
                    // for rigid jobs.
                    mean_iter: match (j.admitted_at, j.finished_at) {
                        (Some(a), Some(f)) if j.iters_done > 0 => {
                            Duration::from_nanos(f.saturating_since(a).as_nanos() / j.iters_done)
                        }
                        _ => Duration::ZERO,
                    },
                    preemptions: j.preemptions,
                    wasted_work: j.wasted_work,
                    resume_latency: j.resume_latency,
                    checkpoint_overhead: j.checkpoint_overhead,
                    allreduce_time: j.allreduce_time,
                    comm_delay: j.comm_delay,
                    rebatches: j.rebatches,
                    elastic_time_at_reduced_batch: j.elastic_reduced_time,
                    samples_preserved: j.samples_done,
                    requests_served: j.requests_served,
                    slo_misses: j.slo_misses,
                    p50_latency: latency_percentile(&j.latencies, 50),
                    p99_latency: latency_percentile(&j.latencies, 99),
                    burst_shrinks: j.burst_shrinks,
                    recompute_time: j.recompute_time,
                    evictions: j.evictions,
                    admission_validations: j.admission_validations,
                    admission_source: j.admission_source.name().to_owned(),
                    predicted_bytes: j.predicted_bytes,
                    prediction_error_permille: j.prediction_error_permille,
                    mispredict_recoveries: j.mispredict_recoveries,
                }
            })
            .collect();
        let makespan_ns = makespan.as_nanos();
        let per_gpu: Vec<GpuStats> = s
            .gpus
            .iter()
            .enumerate()
            .map(|(idx, g)| {
                // The byte-time integral, extended to the makespan end
                // without mutating the ledger (`touch` would).
                let byte_ns = g.byte_ns
                    + g.reserved as u128 * end.saturating_since(g.last_touch).as_nanos() as u128;
                GpuStats {
                    gpu: idx,
                    capacity: g.capacity,
                    peak_reserved_bytes: g.peak,
                    mean_utilization: if makespan_ns == 0 {
                        0.0
                    } else {
                        byte_ns as f64 / (g.capacity as f64 * makespan_ns as f64)
                    },
                    jobs_hosted: g.hosted,
                }
            })
            .collect();
        ClusterStats {
            schema_version: STATS_SCHEMA_VERSION,
            gpus: self.cfg.gpus,
            admission: self.cfg.admission.name().to_owned(),
            strategy: self.cfg.strategy.name().to_owned(),
            submitted: jobs.len(),
            completed: completed.len(),
            cancelled: jobs.iter().filter(|j| j.cancelled).count(),
            oom_rejections: jobs.iter().filter(|j| j.rejected).count(),
            midrun_oom_aborts: jobs.iter().filter(|j| j.aborted).count(),
            preemptions: jobs.iter().map(|j| j.preemptions as usize).sum(),
            rebatches: jobs.iter().map(|j| j.rebatches as usize).sum(),
            requests_served: total_requests,
            slo_misses: total_misses,
            // Attainment in integer permille; an all-training run (no
            // requests) reports a vacuous 1000.
            slo_attainment_permille: ((total_requests - total_misses) * 1000)
                .checked_div(total_requests)
                .unwrap_or(1000),
            burst_shrinks: jobs.iter().map(|j| j.burst_shrinks).sum(),
            burst_cycles: s.burst_cycles,
            mispredict_recoveries: jobs.iter().map(|j| j.mispredict_recoveries).sum(),
            predictor_hits: s.predictor_hits,
            predictor_misses: s.predictor_misses,
            makespan,
            aggregate_samples_per_sec: if makespan.as_secs_f64() == 0.0 {
                0.0
            } else {
                total_samples as f64 / makespan.as_secs_f64()
            },
            mean_queueing_delay,
            mean_jct,
            interconnect: s
                .fabric
                .as_ref()
                .map_or_else(|| "off".to_owned(), |f| f.spec().name.clone()),
            links: s
                .fabric
                .as_ref()
                .map(|f| f.link_stats())
                .unwrap_or_default(),
            per_gpu,
            jobs: job_stats,
        }
    }
}

/// Nearest-rank percentile over integer-nanosecond latency samples —
/// `sorted[(len − 1) × p / 100]`. All accumulation stays in u64 space;
/// the one Duration conversion happens here, at stats assembly.
fn latency_percentile(ns: &[u64], p: u64) -> Duration {
    if ns.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() - 1) as u64 * p / 100) as usize;
    Duration::from_nanos(sorted[idx])
}
