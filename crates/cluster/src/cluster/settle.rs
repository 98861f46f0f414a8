//! The settle pass that runs after every state change: full-batch
//! placement (fresh admissions and resumes), the elastic second pass,
//! the inference serving loop, and checkpoint-preemption.

use std::cmp::Reverse;

use capuchin_sim::Time;

use super::session::{EventKind, JobRun, Session};
use super::Cluster;
use crate::admission::AdmissionSource;
use crate::job::JobClass;
use crate::strategy::{aging_permille, effective_priority_permille};

impl Cluster {
    /// One settle pass after a state change: (re-)place waiting jobs,
    /// then the elastic second pass, then consider one preemption — the
    /// tail of the old batch loop body, behaviour-identical. Runs after
    /// every dispatched event and after a [`Cluster::cancel`].
    pub(super) fn settle(&mut self, s: &mut Session, now: Time) {
        // The strategies are stateless values, so rebuilding one per
        // pass is free — and keeps `self` unborrowed for the admission
        // caches the passes consult.
        let strategy = self.cfg.strategy.build(self.cfg.aging_rate);
        // A `None` pick depends only on queue contents and pool headroom,
        // never on the clock, so while both generations are unchanged the
        // placement and elastic passes provably find nothing — skip them.
        // (Preemption *is* clock-dependent through priority aging and
        // runs below regardless.)
        let settled = s.settled_at == Some((s.pool.generation(), s.queue_gen));
        // (Re-)place waiting jobs after every state change. Gang
        // grants are atomic: the strategy names the complete GPU set
        // and every member is reserved in this same loop step, so no
        // job ever holds a partial gang (the no-deadlock invariant).
        loop {
            // O(1) hopeless check: when the pass is already settled, or
            // the queue's fit floor sits above the best headroom
            // anywhere, every candidate's threshold fails on every
            // device — `pick` is provably `None` for any strategy, so
            // skip the queue scan entirely. Re-checked per iteration
            // because each admission shrinks headroom.
            let cap = s.pool.max_headroom();
            let floor = s.by_threshold.first_key_value().map(|(&(t, _), _)| t);
            if settled || floor.is_none_or(|t| t > cap) {
                break;
            }
            let picked = {
                let jobs = &s.jobs;
                let slo_aware = self.cfg.slo_aware;
                // The SLO boost is stamped at read time, not baked into
                // the queue: it grows as pending requests age without
                // re-keying anything, and is identically 0 for training
                // jobs and under SLO-blind scheduling.
                let stamped = |j: usize| {
                    let mut c = jobs[j].candidate(j);
                    c.boost_permille = jobs[j].slo_boost(now, slo_aware);
                    c
                };
                if strategy.order_insensitive() {
                    // Feed only the candidates whose threshold clears
                    // some device — a threshold-index range instead of
                    // the whole backlog. Sound because the strategy
                    // declared its pick invariant to candidate order and
                    // to dropping never-placeable candidates.
                    let mut queue = s
                        .by_threshold
                        .range(..=(cap, u64::MAX))
                        .map(|(_, &j)| stamped(j));
                    strategy.pick(&mut queue, &s.pool, now)
                } else {
                    let mut queue = s.pending.values().map(|&j| stamped(j));
                    strategy.pick(&mut queue, &s.pool, now)
                }
            };
            let Some((job, gang)) = picked else {
                break;
            };
            assert_eq!(
                gang.len(),
                s.jobs[job].width(),
                "strategy returned a partial gang"
            );
            if let Some(cp) = &s.jobs[job].checkpoint {
                // Resume placement: no re-validation, the checkpointed
                // budget is regranted verbatim.
                let grant = cp.reserved;
                s.restore(&self.cfg.spec, job, gang, grant, now);
                continue;
            }
            // Every replica gets the same grant: the tightest member
            // of the gang caps it (replicas run one validated replay).
            // The gang is the job's full width, at least 1.
            let headroom = gang
                .iter()
                .map(|&g| s.pool.headroom(g))
                .min()
                .expect("gang is non-empty");
            let j = &s.jobs[job];
            let grant = headroom.min(j.needs.full);
            let spec = &j.spec;
            // For inference the validated budget is the forward-only
            // base slice of the grant; the remainder is the KV pool,
            // licensing the round concurrency. Training validates the
            // whole grant (`budget == grant`, `lic` unused).
            let (budget, shrunk, lic) = if spec.is_inference() {
                let base = j.base_needs;
                let kv = spec.kv_bytes_per_request;
                let max_in = spec.max_inflight.max(1);
                let b = grant
                    .saturating_sub(kv.saturating_mul(max_in as u64))
                    .max(base.min)
                    .min(base.full);
                // ≥ 1 when kv > 0: the published `min` priced one
                // request's slot on top of the base minimum, and the
                // strategy never grants below `min`.
                let lic = match grant.saturating_sub(b).checked_div(kv) {
                    Some(slots) => ((slots.max(1)) as usize).min(max_in),
                    None => max_in,
                };
                (b, b < base.full, lic)
            } else {
                (grant, grant < j.needs.full, 0)
            };
            // A predicted admission synthesizes its replay from the
            // regression store — no engine run. Everything else (measured
            // and heuristic provenance alike) goes through
            // `validated_replay`, which internally routes heuristic-class
            // policies to their own synthetic path.
            let validated = if matches!(j.admission_source, AdmissionSource::Predicted { .. }) {
                self.predicted_replay(spec, budget)
            } else {
                self.validated_replay(spec, spec.batch, budget, shrunk)
            };
            self.charge_admission(&mut s.jobs[job]);
            let batch = s.jobs[job].spec.batch;
            match validated {
                Some(replay) => {
                    let j = &mut s.jobs[job];
                    j.shrunk = shrunk;
                    j.replay = replay;
                    j.lic_inflight = lic;
                    s.admit(job, gang, budget, batch, now);
                }
                // The budget looked plannable but the engine run failed;
                // never retry at or below it.
                None => s.record_failed(job, batch, grant),
            }
        }
        if !settled {
            self.elastic_pass(s, strategy.as_ref(), now);
            s.settled_at = Some((s.pool.generation(), s.queue_gen));
        }
        // Serving loop: every resident inference job with an idle engine
        // and a backlog opens a round now. Runs on every settle, *after*
        // the settled snapshot — request arrivals touch neither queue
        // nor pool, so the settled-skip above would otherwise starve
        // them, and any KV reservation made here moves the pool
        // generation so the next settle re-places honestly. Skipped
        // entirely (flag check only) for training-only sessions.
        if s.has_inference {
            let resident: Vec<usize> = s.resident_jobs.iter().copied().collect();
            for job in resident {
                if s.jobs[job].spec.is_inference() {
                    self.try_serve(s, job, now);
                }
            }
        }
        // Nothing placeable: consider evicting a low-priority resident
        // through a host checkpoint. One preemption in flight at a time
        // keeps victim selection honest about headroom. Aging makes the
        // victim choice clock-dependent, so this pass never skips.
        if self.cfg.preemption && s.preempting == 0 {
            if let Some(victim) = pick_preemption(s, now, self.cfg.aging_rate, self.cfg.slo_aware) {
                let j = &mut s.jobs[victim];
                // The interrupted iteration is lost: checkpoints only
                // capture completed-iteration boundaries.
                if j.iterating {
                    j.wasted_work += now.saturating_since(j.iter_started);
                    j.iterating = false;
                }
                // The whole gang checkpoints or none: every replica's
                // reservation is copied out.
                s.checkpoint_out(
                    &self.cfg.spec,
                    victim,
                    now,
                    EventKind::Preempt,
                    "checkpoint",
                );
            }
        }
    }
}

/// Selects a preemption victim, or `None` when preemption cannot help.
///
/// For each *fresh* waiting job (checkpointed jobs queue for natural
/// space — letting them preempt would ping-pong), in descending effective
/// priority (`priority + aging_rate × wait`): if its gang fits nowhere
/// as-is, look for the lowest-static-priority iterating resident whose
/// eviction would open enough headroom for the waiter's full gang width,
/// with the victim's priority strictly below the waiter's effective
/// priority. A victim gang is evicted whole — releasing its reservation
/// on *every* device it holds — or not at all.
///
/// Dominated waiters are skipped without a scan. Waiters arrive in
/// descending effective priority, so each one's victim set is a prefix
/// of the one before it, and the post-eviction fit count is
/// non-increasing in the threshold. A waiter of width `w` and threshold
/// `t` that found no victim therefore proves every later waiter with
/// `w' >= w` and `t' >= t` finds none either.
pub(super) fn pick_preemption(
    s: &Session,
    now: Time,
    aging_rate: f64,
    slo_aware: bool,
) -> Option<usize> {
    let victims = victim_pool(s);
    // Failed shapes as an antichain of `(width, threshold rank)`.
    let mut failed: Vec<(usize, u128)> = Vec::new();
    for (p, ep) in waiters_by_urgency(s, now, aging_rate, slo_aware) {
        let jp = &s.jobs[p];
        // A `None` threshold (no headroom can ever satisfy it) ranks
        // above every real one.
        let t = jp
            .candidate(0)
            .fit_threshold()
            .map_or(u128::MAX, u128::from);
        let w = jp.width();
        if failed.iter().any(|&(fw, ft)| w >= fw && t >= ft) {
            continue;
        }
        if gang_fits(s, jp, None) {
            // Placeable without violence; the strategy just chose not to
            // (e.g. FIFO head-of-line). Preemption is not the tool.
            continue;
        }
        let eligible = victims
            .iter()
            .take_while(|&&v| (s.jobs[v].spec.priority as u128) * 1000 < ep);
        for &v in eligible {
            if gang_fits(s, jp, Some(v)) {
                return Some(v);
            }
        }
        failed.retain(|&(fw, ft)| fw < w || ft < t);
        failed.push((w, t));
    }
    None
}

/// The victim search without the dominated-waiter skip: every waiter
/// scans its whole victim set — the reference [`pick_preemption`] is
/// diffed against.
#[cfg(test)]
pub(super) fn pick_preemption_brute(
    s: &Session,
    now: Time,
    aging_rate: f64,
    slo_aware: bool,
) -> Option<usize> {
    let victims = victim_pool(s);
    for (p, ep) in waiters_by_urgency(s, now, aging_rate, slo_aware) {
        let jp = &s.jobs[p];
        if gang_fits(s, jp, None) {
            continue;
        }
        let eligible = victims
            .iter()
            .filter(|&&v| (s.jobs[v].spec.priority as u128) * 1000 < ep);
        for &v in eligible {
            if gang_fits(s, jp, Some(v)) {
                return Some(v);
            }
        }
    }
    None
}

/// Fresh waiters (no checkpoint) with their effective priority, most
/// urgent first. A waiter's urgency includes its SLO boost: a latency job
/// with requests burning slack can evict where its static priority alone
/// could not. The boost is 0 for training waiters and under SLO-blind
/// scheduling.
fn waiters_by_urgency(
    s: &Session,
    now: Time,
    aging_rate: f64,
    slo_aware: bool,
) -> Vec<(usize, u128)> {
    let jobs = &s.jobs;
    let ap = aging_permille(aging_rate);
    let mut waiters: Vec<(usize, u128)> = s
        .pending
        .values()
        .copied()
        .filter(|&p| jobs[p].checkpoint.is_none())
        .map(|p| {
            let j = &jobs[p];
            let eff =
                effective_priority_permille(j.spec.priority, ap, now.saturating_since(j.queued_at))
                    + j.slo_boost(now, slo_aware) as u128;
            (p, eff)
        })
        .collect();
    waiters.sort_by_key(|&(p, eff)| {
        (
            Reverse(eff),
            Reverse(jobs[p].spec.priority),
            jobs[p].queued_at.as_nanos(),
            p,
        )
    });
    waiters
}

/// Every resident that may be evicted, lowest static priority first
/// (ties: lowest job index). Inference residents are never victims:
/// checkpoint-preempting a serving job mid-request would strand its
/// in-flight latencies behind a host round-trip the SLO never priced.
fn victim_pool(s: &Session) -> Vec<usize> {
    let jobs = &s.jobs;
    let mut victims: Vec<usize> = s
        .resident_jobs
        .iter()
        .copied()
        .filter(|&v| jobs[v].spec.class == JobClass::Training)
        .filter(|&v| jobs[v].iterating && !jobs[v].preempting)
        .collect();
    victims.sort_by_key(|&v| (jobs[v].spec.priority, v));
    victims
}

/// Would evicting `victim` (or nobody) open enough devices for waiter
/// `jp`'s full gang? The fit predicate is monotone in headroom (a
/// per-waiter threshold, see [`crate::CandidateJob::fit_threshold`]), so
/// the base count is one index probe; the victim's held devices — the
/// only ones whose headroom the eviction changes, disjoint from the base
/// count since they sit below the threshold — are then credited
/// individually.
fn gang_fits(s: &Session, jp: &JobRun, victim: Option<usize>) -> bool {
    let Some(t) = jp.candidate(0).fit_threshold() else {
        // A failed budget at or above the full need: no headroom, freed
        // or not, can ever satisfy this waiter.
        return false;
    };
    let width = jp.width();
    let base = s.pool.count_at_least(t, width);
    if base >= width {
        return true;
    }
    let Some(v) = victim else { return false };
    let vres = s.jobs[v].reserved;
    let credited = s.jobs[v]
        .gpus_held
        .iter()
        .filter(|&&g| {
            let h = s.pool.headroom(g);
            h < t && h + vres >= t
        })
        .count();
    base + credited >= width
}
