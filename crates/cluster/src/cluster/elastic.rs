//! Elastic re-batching: admitting a waiting job at a reduced batch,
//! growing a reduced job back at iteration boundaries, and shrinking one
//! to absorb an inference burst — all through one budget re-derivation
//! ([`Cluster::rebudget`]) and one copy-priced batch change
//! ([`Session::rebatch`]).

use std::collections::BTreeMap;

use capuchin::{bisect_batch, elastic_batches};
use capuchin_sim::Time;

use super::session::{multiset_add, Regrow, Session};
use super::Cluster;
use crate::admission::AdmissionSource;
use crate::strategy::{CandidateJob, PlacementStrategy};

/// Memoization key for one elastic-ladder placement probe: `(gang width,
/// full need, min need, failed budget)` — every input of a
/// single-candidate [`crate::PlacementStrategy::pick`] besides the pool
/// state itself, which is pinned by [`crate::GpuPool::generation`].
pub(super) type LadderKey = (usize, u64, u64, Option<u64>);

impl Cluster {
    /// Re-derives `job`'s per-replica budget at global `batch` inside
    /// `room` free bytes per replica — estimate, grant, validated replay,
    /// charge — the one path elastic admission, regrow and burst shrink
    /// share. A failed validation is recorded against `batch`
    /// ([`Session::record_failed`]); an engine-validated grant upgrades
    /// the job's provenance to `Measured`, whatever the arrival-time
    /// provenance said (a predicted job skips mispredict verification
    /// from then on). Returns the grant and the batch change it
    /// validates, or `None` when `batch` does not fit `room`, cannot be
    /// measured, or failed validation.
    fn rebudget(
        &mut self,
        s: &mut Session,
        job: usize,
        batch: usize,
        room: u64,
    ) -> Option<(u64, Regrow)> {
        let measured = self.estimate_at(&s.jobs[job].spec, batch);
        self.charge_admission(&mut s.jobs[job]);
        let needs = measured.ok()?.1;
        let grant = room.min(needs.full);
        if grant < needs.min {
            return None;
        }
        let shrunk = grant < needs.full;
        let validated = self.validated_replay(&s.jobs[job].spec, batch, grant, shrunk);
        self.charge_admission(&mut s.jobs[job]);
        let Some(replay) = validated else {
            s.record_failed(job, batch, grant);
            return None;
        };
        s.jobs[job].admission_source = AdmissionSource::Measured;
        Some((
            grant,
            Regrow {
                batch,
                shrunk,
                replay,
            },
        ))
    }

    /// Elastic second pass: the strategy just said nothing fits at the
    /// full batch, so trade batch for an earlier start. For each waiting
    /// elastic job (queue-entry order), bisect the halving ladder for the
    /// largest reduced batch some gang subset can host right now and
    /// admit there; the iteration count extends so total samples trained
    /// is preserved.
    pub(super) fn elastic_pass(
        &mut self,
        s: &mut Session,
        strategy: &dyn PlacementStrategy,
        now: Time,
    ) {
        // O(1) elastic gate, mirroring the placement fit floor: no rung
        // of any waiting ladder fits below the smallest known floor, so
        // while headroom stays under it (and every floor is known) the
        // whole pass is provably a no-op.
        let elastic_live = s.elastic_unfloored > 0
            || s.elastic_floors
                .first_key_value()
                .is_some_and(|(&f, _)| f <= s.pool.max_headroom());
        if !self.cfg.elastic || !elastic_live {
            return;
        }
        let waiting: Vec<usize> = s.pending_elastic.values().copied().collect();
        for job in waiting {
            // Known floor first: when even the smallest rung's minimum
            // exceeds the best headroom anywhere, no rung can fit — skip
            // before building the ladder. Every estimate and validation
            // run is charged right after it runs, so none is pending for
            // this job to absorb.
            if s.jobs[job]
                .ladder_floor_min
                .is_some_and(|f| f > s.pool.max_headroom())
            {
                debug_assert_eq!(self.charged_runs, self.admission.validation_runs());
                continue;
            }
            // Admissions earlier in this pass moved the pool
            // generation, so the memo check lives inside the loop.
            if s.ladder_gen != s.pool.generation() {
                s.ladder_probes.clear();
                s.ladder_gen = s.pool.generation();
            }
            let ladder = elastic_batches(s.jobs[job].spec.batch, self.cfg.min_batch_fraction);
            if ladder.len() < 2 {
                // The fraction allows no shrinking — ever. File the
                // job under an unreachable floor so the gate above
                // can still close.
                if s.jobs[job].ladder_floor_min.is_none() {
                    s.jobs[job].ladder_floor_min = Some(u64::MAX);
                    s.elastic_unfloored -= 1;
                    multiset_add(&mut s.elastic_floors, u64::MAX);
                }
                continue;
            }
            // Cheap reject before any probe, for a floor measured just
            // now: every rung's fit threshold is at least its own
            // minimum, which is at least the ladder floor.
            let floor_min = match s.jobs[job].ladder_floor_min {
                Some(v) => v,
                None => {
                    let spec = &s.jobs[job].spec;
                    // An unmeasurable rung fits nowhere. The ladder
                    // holds at least two rungs here.
                    let v = ladder
                        .iter()
                        .map(|&b| self.estimate_at(spec, b).map_or(u64::MAX, |(_, n)| n.min))
                        .min()
                        .expect("ladder is never empty");
                    s.jobs[job].ladder_floor_min = Some(v);
                    s.elastic_unfloored -= 1;
                    multiset_add(&mut s.elastic_floors, v);
                    v
                }
            };
            self.charge_admission(&mut s.jobs[job]);
            if floor_min > s.pool.max_headroom() {
                continue;
            }
            let mut picks: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            // ladder[0] is the full batch the strategy already
            // refused this instant; only reduced candidates.
            let (jobs, pool, probes) = (&s.jobs, &s.pool, &mut s.ladder_probes);
            let chosen = bisect_batch(&ladder[1..], |b| {
                let Ok((_, needs)) = self.estimate_at(&jobs[job].spec, b) else {
                    return false;
                };
                let fb = jobs[job].failed.get(&b).copied();
                // Two waiting jobs with the same shape share one
                // probe per pool generation: a single-candidate pick
                // depends only on (width, needs, failed budget) and
                // the pool — never on identity, arrival or priority.
                let key: LadderKey = (jobs[job].width(), needs.full, needs.min, fb);
                let gang = match probes.get(&key) {
                    Some(cached) => cached.clone(),
                    None => {
                        let cand = CandidateJob {
                            job,
                            arrival: jobs[job].queued_at,
                            priority: jobs[job].spec.priority,
                            gpus: jobs[job].width(),
                            full_need: needs.full,
                            min_need: needs.min,
                            failed_budget: fb,
                            // Single-candidate probe: the boost only
                            // breaks ties between candidates.
                            boost_permille: 0,
                        };
                        let picked = strategy
                            .pick(&mut std::iter::once(cand), pool, now)
                            .map(|(_, gang)| gang);
                        probes.insert(key, picked.clone());
                        picked
                    }
                };
                match gang {
                    Some(gang) => {
                        picks.insert(b, gang);
                        true
                    }
                    None => false,
                }
            });
            self.charge_admission(&mut s.jobs[job]);
            let Some(batch) = chosen else { continue };
            // Bisection only returns a rung its probe accepted, and every
            // accepted probe recorded its gang (at least one device).
            let gang = picks.remove(&batch).expect("chosen batch was probed");
            let headroom = gang
                .iter()
                .map(|&g| s.pool.headroom(g))
                .min()
                .expect("gang is non-empty");
            let Some((grant, to)) = self.rebudget(s, job, batch, headroom) else {
                continue;
            };
            let j = &mut s.jobs[job];
            j.shrunk = to.shrunk;
            j.replay = to.replay;
            j.cur_batch = batch;
            j.rebatches += 1;
            j.reduced_since = Some(now);
            s.admit(job, gang, grant, batch, now);
        }
    }

    /// Tries to grow `job`'s batch back toward the requested size using
    /// headroom on the GPUs it already holds (growth happens in place —
    /// the gang keeps its devices). Bisects the ladder candidates above
    /// the current batch; on success the batch change starts
    /// ([`Session::rebatch`]) — re-planning at a new batch goes through
    /// the same snapshot/restore path preemption uses
    /// ([`capuchin_executor::Engine::restore_rebatched`]). Returns
    /// whether a re-grow is now in flight (the caller must not schedule
    /// the next iteration).
    pub(super) fn try_regrow(&mut self, s: &mut Session, job: usize, now: Time) -> bool {
        let cur = s.jobs[job].cur_batch;
        let above: Vec<usize> =
            elastic_batches(s.jobs[job].spec.batch, self.cfg.min_batch_fraction)
                .into_iter()
                .filter(|&b| b > cur)
                .collect();
        if above.is_empty() {
            return false;
        }
        // Headroom on each held device with this job's own reservation
        // returned; the gang's tightest member caps the grant.
        let old = s.jobs[job].reserved;
        let free = s.jobs[job]
            .gpus_held
            .iter()
            .map(|&g| s.gpus[g].capacity.saturating_sub(s.gpus[g].reserved) + old)
            .min()
            .expect("resident job holds its gang");
        let j = &s.jobs[job];
        let chosen = bisect_batch(&above, |b| {
            self.estimate_at(&j.spec, b).is_ok_and(|(_, needs)| {
                free >= needs.min && j.failed.get(&b).is_none_or(|&fb| free.min(needs.full) > fb)
            })
        });
        self.charge_admission(&mut s.jobs[job]);
        let Some(batch) = chosen else { return false };
        let Some((grant, to)) = self.rebudget(s, job, batch, free) else {
            return false;
        };
        s.rebatch(&self.cfg.spec, job, now, grant, to);
        true
    }

    /// Applies a pending burst-absorption shrink at `job`'s completed-
    /// iteration boundary: re-validates at the reduced batch and starts
    /// the batch change ([`Session::rebatch`]), whose freed bytes return
    /// to the pool at once. Returns whether a batch change is now in
    /// flight (the caller must not schedule the next iteration).
    pub(super) fn try_shrink(&mut self, s: &mut Session, job: usize, now: Time) -> bool {
        let Some(target) = s.jobs[job].pending_shrink.take() else {
            return false;
        };
        if target >= s.jobs[job].cur_batch {
            return false;
        }
        let room = s.jobs[job].reserved;
        let Some((grant, to)) = self.rebudget(s, job, target, room) else {
            return false;
        };
        s.rebatch(&self.cfg.spec, job, now, grant, to);
        true
    }
}
