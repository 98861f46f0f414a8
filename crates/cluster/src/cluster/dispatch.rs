//! Event dispatch: one heap entry's state transition — arrival
//! pricing, iteration and communication ends, checkpoint/restore and
//! batch-change copies draining — and the boundary traffic an
//! iteration settles on the shared fabric.

use std::cmp::Reverse;

use capuchin_sim::{CopyDir, Duration, Interconnect, Time};

use super::session::{Checkpoint, EventKind, JobRun, Session};
use super::Cluster;
use crate::admission::AdmissionSource;
use crate::stats::{ClusterTransfer, JobEventKind};

impl Cluster {
    /// Pops and processes the next live event at or before `deadline`,
    /// then runs one settle pass. Superseded events are dropped on the
    /// way without touching the clock. Returns whether an event was
    /// processed.
    pub(super) fn step_bounded(&mut self, deadline: Option<Time>) -> bool {
        let mut s = std::mem::take(&mut self.session);
        let mut processed = false;
        while let Some(&Reverse((t, _, _, kind, job, epoch))) = s.heap.peek() {
            if s.stale(kind, job, epoch) {
                // Superseded by a re-pricing, preemption, abort or
                // cancel: drop it without touching the clock.
                s.heap.pop();
                continue;
            }
            let now = Time::from_nanos(t);
            if deadline.is_some_and(|d| now > d) {
                break;
            }
            s.heap.pop();
            s.now = now;
            self.dispatch(&mut s, job, kind, now);
            self.settle(&mut s, now);
            processed = true;
            break;
        }
        self.session = s;
        processed
    }

    /// One event's state transition — the match-arm body of the old
    /// batch loop. The settle pass (placement and friends) runs
    /// separately after every dispatch.
    fn dispatch(&mut self, s: &mut Session, job: usize, kind: EventKind, now: Time) {
        match kind {
            EventKind::Arrive => {
                // Bad gang widths are rejected at parse time
                // (`load_jobs`); specs built in code get the same
                // verdict here instead of a late panic.
                let width = s.jobs[job].spec.gpus;
                if (1..=self.cfg.gpus).contains(&width) && self.price_arrival(s, job) {
                    s.enqueue(job);
                    if s.jobs[job].spec.is_inference() {
                        // The request-arrival process starts with the
                        // job: each arrival schedules its successor.
                        self.schedule_next_request(s, job, now);
                    }
                } else {
                    // Admission-time OOM: no bare GPU can host a replica
                    // at any allowed batch (or the spec is unmeasurable).
                    s.jobs[job].rejected = true;
                    s.log(now, job, JobEventKind::Rejected);
                }
            }
            EventKind::IterEnd => {
                // Compute done. The iteration is complete only after
                // the boundary communication (replayed swap traffic
                // queueing, then the gang's gradient allreduce)
                // drains on the shared fabric.
                s.jobs[job].iterating = false;
                let comm_end =
                    settle_comm(&mut s.jobs[job], now, s.fabric.as_mut(), &mut s.transfers);
                if comm_end > now {
                    s.jobs[job].epoch += 1;
                    let epoch = s.jobs[job].epoch;
                    s.push(comm_end, EventKind::Comm, job, epoch);
                } else {
                    self.complete_iteration(s, job, now);
                }
            }
            EventKind::Comm => self.complete_iteration(s, job, now),
            EventKind::ReqArrive => {
                // A request joins the job's queue and the arrival
                // process self-perpetuates. Serving is *not* attempted
                // here: the settle pass that follows every dispatch
                // runs the serving loop, so the request is picked up in
                // the same instant if the job is resident and idle.
                s.jobs[job].req_queue.push_back(now);
                s.log(now, job, JobEventKind::RequestArrived);
                self.schedule_next_request(s, job, now);
            }
            EventKind::Regrow => {
                // The batch-change copies drained: swap in the new
                // replay and continue from the same samples cursor at
                // the new batch.
                let j = &mut s.jobs[job];
                // Only `Session::rebatch` schedules this event, and any
                // later preempt/abort/cancel bumps the epoch first.
                let rg = j
                    .pending_regrow
                    .take()
                    .expect("regrowing job has a pending batch change");
                let batch = rg.batch;
                let grew = batch > j.cur_batch;
                j.cur_batch = batch;
                j.shrunk = rg.shrunk;
                j.replay = rg.replay;
                if batch >= j.spec.batch {
                    // Back at the requested batch: close the
                    // reduced-time window.
                    j.close_reduced(now);
                } else if j.reduced_since.is_none() {
                    // A downward change (burst absorption) opens it.
                    j.reduced_since = Some(now);
                }
                // Any re-growth after a burst-absorption shrink closes
                // the cycle: the burst drained and the trained batch
                // recovered.
                if grew && j.shrunk_for_burst {
                    j.shrunk_for_burst = false;
                    s.burst_cycles += 1;
                }
                s.log(now, job, JobEventKind::Rebatched { batch });
                s.start_iter(job, now);
            }
            EventKind::Preempt => {
                // Checkpoint copy drained: release every replica's
                // reservation and put the victim back in the queue,
                // resumable.
                let j = &mut s.jobs[job];
                assert!(!j.gpus_held.is_empty(), "preempting job holds its gang");
                j.preempting = false;
                j.checkpoint = Some(Checkpoint {
                    iters_done: j.iters_done,
                    reserved: j.reserved,
                    shrunk: j.shrunk,
                    replay: j.replay.clone(),
                    cur_batch: j.cur_batch,
                    samples_done: j.samples_done,
                });
                // The reduced-batch clock pauses while the job sits
                // on the host.
                j.close_reduced(now);
                j.preempted_at = Some(now);
                j.queued_at = now;
                s.preempting -= 1;
                s.release(job, now, JobEventKind::Preempted);
                // All earlier queue entries have queued_at <= now, so
                // appending preserves queue-entry order.
                s.enqueue(job);
            }
            EventKind::Resume => {
                // Restore copy drained: rebuild the replay state from
                // the checkpoint and continue from the saved cursor.
                let j = &mut s.jobs[job];
                // Only resume placement schedules this event, and it
                // never clears the checkpoint it regranted.
                let cp = j.checkpoint.take().expect("resuming job has a checkpoint");
                j.iters_done = cp.iters_done;
                j.shrunk = cp.shrunk;
                j.replay = cp.replay;
                j.cur_batch = cp.cur_batch;
                j.samples_done = cp.samples_done;
                if j.cur_batch < j.spec.batch.max(1) {
                    j.reduced_since = Some(now);
                }
                if let Some(at) = j.preempted_at.take() {
                    j.resume_latency += now.saturating_since(at);
                }
                s.log(now, job, JobEventKind::Resumed);
                s.start_iter(job, now);
            }
            EventKind::Remeasure => {
                // Mispredict checkpoint copy drained: the predicted
                // grant is surrendered wholesale and the job re-enters
                // admission on the measured path. Unlike `Preempt` no
                // checkpoint is kept — resuming one would regrant the
                // insufficient budget verbatim.
                assert!(
                    !s.jobs[job].gpus_held.is_empty(),
                    "recovering job holds its gang"
                );
                s.preempting -= 1;
                s.release(job, now, JobEventKind::Preempted);
                let j = &mut s.jobs[job];
                j.preempting = false;
                j.checkpoint = None;
                j.admission_source = AdmissionSource::Measured;
                j.queued_at = now;
                let measured = self.estimate_at(&s.jobs[job].spec, s.jobs[job].spec.batch);
                // The re-measurement's engine runs bill the job whose
                // prediction forced them, not whoever admits next.
                self.charge_admission(&mut s.jobs[job]);
                let fits = measured.is_ok_and(|(est, base)| {
                    s.jobs[job].set_budgets(&est, base).min <= self.cfg.spec.memory_bytes
                });
                if fits {
                    s.enqueue(job);
                } else {
                    // The measured truth does not fit a bare GPU (or
                    // cannot be measured at all): the prediction
                    // admitted an impossible job. Abort it — the one
                    // mispredict outcome re-queueing cannot recover.
                    s.abort(job, now);
                }
            }
        }
    }

    /// Marks the in-flight iteration complete (compute and boundary
    /// communication both drained): advances the samples cursor by the
    /// current batch (clamped — the final iteration carries a partial
    /// batch), finishing the job — releasing every replica's
    /// reservation — or re-growing an elastically reduced batch, or
    /// scheduling the next iteration.
    fn complete_iteration(&mut self, s: &mut Session, job: usize, now: Time) {
        if s.jobs[job].spec.is_inference() {
            // A serving round ended; its requests complete together.
            self.complete_round(s, job, now);
            return;
        }
        // A predicted grant is checked against measured truth at its
        // first completed boundary; an under-shoot discards this
        // iteration and checkpoint-preempts into measured re-admission.
        if self.verify_prediction(s, job, now) {
            return;
        }
        let j = &mut s.jobs[job];
        j.bank_iteration();
        let step = (j.cur_batch as u64).min(j.samples_total.saturating_sub(j.samples_done));
        j.samples_done += step;
        let (iter, samples_done) = (j.iters_done, j.samples_done);
        let done = j.samples_done >= j.samples_total;
        s.log(now, job, JobEventKind::IterationDone { iter, samples_done });
        if done {
            s.finish(job, now);
            // A measured completion is ground truth: warm the predictor
            // so the next arrival of this family admits for free.
            self.feed_predictor(s, job);
            return;
        }
        // A burst-absorption shrink decided by the serving loop applies
        // at this boundary, ahead of any re-grow attempt.
        if self.cfg.elastic && s.jobs[job].pending_shrink.is_some() && self.try_shrink(s, job, now)
        {
            return;
        }
        // A reduced elastic job checks for freed headroom at every
        // completed-iteration boundary — the only instants a batch change
        // is sound (the engine snapshot cursor is at a boundary).
        if self.cfg.elastic
            && s.jobs[job].spec.elastic
            && s.jobs[job].cur_batch < s.jobs[job].spec.batch.max(1)
            && self.try_regrow(s, job, now)
        {
            return;
        }
        s.start_iter(job, now);
    }
}

/// Per-iteration feedback step for replayed swap-ins: a stretched
/// host-to-device transfer moves its want `lead_step × service time`
/// earlier on later iterations — the same §4.4 constant the single-GPU
/// policy uses.
fn lead_step() -> f64 {
    capuchin::CapuchinConfig::default().lead_step
}

/// Routes the just-finished iteration's boundary traffic over the shared
/// fabric and returns when it drains (`now` with no fabric, or nothing to
/// move).
///
/// Two charges, in order:
///
/// 1. **Per-tensor swap replay** — the iteration's recorded transfer
///    timeline is re-issued on the host link, each transfer at its
///    recorded in-iteration offset (every replica's bytes coalesced per
///    tensor). Only the *deduplicated queueing charge* accumulates into
///    `comm_delay` ([`capuchin_sim::Lane::admit_charged`]): the validated
///    wall already contains the wire time, paid once on a private lane,
///    and the dedup keeps one busy period from being billed to every
///    waiter — so per-link charges can never exceed the link's wall-clock
///    occupancy, and per-job `comm_delay` is exactly the sum of its
///    transfer records' charges.
///
///    A stretched host-to-device swap replay (a prefetch, or an
///    on-demand swap-in — the ultimate late prefetch) feeds the §4.4
///    loop during guided replay: its accumulated `lead` pulls the want
///    earlier on the next iteration (a 5%-of-service step per late
///    arrival), which is the cluster-level mirror of the engine's
///    in-trigger feedback.
/// 2. **Gradient allreduce** — for gangs, the ring allreduce
///    (`2·(k−1)/k × gradient bytes` per replica) runs after the swap
///    traffic clears. Validation is single-GPU so no part of this is in
///    the wall: the full span is charged at the barrier.
pub(super) fn settle_comm(
    j: &mut JobRun,
    now: Time,
    fabric: Option<&mut Interconnect>,
    sink: &mut Vec<ClusterTransfer>,
) -> Time {
    let Some(fabric) = fabric else {
        return now;
    };
    let k = j.gpus_held.len().max(1);
    let iter = j.iters_done;
    let idx = (iter as usize).min(j.replay.len().saturating_sub(1));
    let mut charged = Duration::ZERO;
    if let Some(it) = j.replay.get(idx) {
        // Replay the recorded timeline inside the just-finished
        // iteration's span: offsets are relative to the (uncontended)
        // iteration start, and contention only stretches the span, so
        // every want lands at or before `now`. Wants are kept monotonic —
        // the lane is FIFO and the records are in submission order.
        let mut prev_want = j.iter_started;
        for rec in &it.transfers {
            let lead = j.lead.get(&rec.label).copied().unwrap_or(Duration::ZERO);
            let want = (j.iter_started + rec.offset.saturating_sub(lead)).max(prev_want);
            prev_want = want;
            let bytes = rec.bytes * k as u64;
            let (tr, charge) = fabric.host_admit(want, bytes);
            charged += charge;
            let wait = tr.start.saturating_since(want);
            if wait > Duration::ZERO && rec.dir == CopyDir::HostToDevice {
                // A stretched swap-in — whether the engine had already
                // converted it to a prefetch or it was still on-demand —
                // means the bytes arrived late; pull its in-trigger
                // earlier next iteration (§4.4 feedback).
                let step = tr.end.saturating_since(tr.start).mul_f64(lead_step());
                *j.lead.entry(rec.label.clone()).or_insert(Duration::ZERO) += step;
            }
            sink.push(ClusterTransfer {
                job: j.spec.name.clone(),
                iter,
                label: rec.label.clone(),
                link: "host".to_owned(),
                dir: rec.dir,
                bytes,
                want,
                start: tr.start,
                end: tr.end,
                wait,
                charge,
                lead,
            });
        }
        j.comm_delay += charged;
    }
    let mut comm_end = now + charged;
    if k >= 2 && j.grad_bytes > 0 {
        let route = fabric.allreduce_route(&j.gpus_held);
        let ar = fabric.allreduce(comm_end, &j.gpus_held, j.grad_bytes);
        let per_replica = fabric.spec().allreduce_bytes(j.grad_bytes, k);
        let bytes = if route == "host" {
            per_replica * k as u64
        } else {
            per_replica
        };
        sink.push(ClusterTransfer {
            job: j.spec.name.clone(),
            iter,
            label: "allreduce".to_owned(),
            link: route,
            dir: CopyDir::DeviceToHost,
            bytes,
            want: comm_end,
            start: ar.start,
            end: ar.end,
            wait: ar.start.saturating_since(comm_end),
            charge: Duration::ZERO,
            lead: Duration::ZERO,
        });
        j.allreduce_time += ar.end.saturating_since(comm_end);
        comm_end = ar.end;
    }
    comm_end
}
