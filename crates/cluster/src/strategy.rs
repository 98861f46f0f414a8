//! Pluggable placement strategies.
//!
//! A strategy looks at the waiting queue and the current per-GPU
//! reservations and names the next placement: a job plus the full set of
//! GPUs its gang occupies — or `None` when nothing placeable exists. The
//! cluster core owns admission and reservation bookkeeping; strategies
//! only order the search. Returning the whole GPU set at once is what
//! makes gang reservation atomic: the cluster grants every listed GPU in
//! one step of its single-threaded event loop, so a gang can never hold a
//! partial reservation that deadlocks against another job.
//!
//! The live [`PlacementStrategy::pick`] path probes the [`GpuPool`]
//! headroom index (O(log gpus) per device query) and reads candidates
//! lazily from an iterator, so FIFO never materializes the whole queue.
//! The pre-index brute-force scan survives as
//! [`PlacementStrategy::pick_brute`]; `prop_scale` proves both paths pick
//! byte-identical placements on arbitrary reservation histories.

use std::cmp::Reverse;

use capuchin_sim::{Duration, Time};

use crate::headroom::GpuPool;

/// A waiting job as the strategy sees it.
#[derive(Debug, Clone, Copy)]
pub struct CandidateJob {
    /// Job index in the cluster's submission order.
    pub job: usize,
    /// When the job arrived (for FIFO order and priority aging).
    pub arrival: Time,
    /// Static priority from the job spec.
    pub priority: u32,
    /// GPUs the gang needs at once (1 for a single-device job).
    pub gpus: usize,
    /// Ideal-peak reservation *per replica* (no management overhead).
    pub full_need: u64,
    /// Smallest admissible per-replica reservation (equals `full_need`
    /// under tf-ori admission).
    pub min_need: u64,
    /// Largest budget at which a validation run has already failed; the
    /// cluster refuses to retry at or below it.
    pub failed_budget: Option<u64>,
    /// SLO-slack boost in permille priority points (see
    /// [`slo_boost_permille`]); 0 for training jobs and under SLO-blind
    /// scheduling. Added on top of the aged effective priority.
    pub boost_permille: u64,
}

impl CandidateJob {
    /// Minimum headroom a GPU must expose for one replica of this job, or
    /// `None` when no headroom suffices (a validation already failed at or
    /// above `full_need`, so every grant the cluster could make —
    /// `min(headroom, full_need)` — is refused).
    ///
    /// The cluster's fit predicate is `headroom >= min_need` and
    /// `min(headroom, full_need) > failed_budget`; both clauses are
    /// monotone in headroom, which is what lets the [`GpuPool`] index
    /// answer placement with threshold queries instead of per-GPU scans.
    pub fn fit_threshold(&self) -> Option<u64> {
        match self.failed_budget {
            Some(fb) if fb >= self.full_need => None,
            Some(fb) => Some(self.min_need.max(fb + 1)),
            None => Some(self.min_need),
        }
    }
}

/// A GPU as the brute-force reference path sees it.
#[derive(Debug, Clone, Copy)]
pub struct GpuView {
    /// Device index.
    pub idx: usize,
    /// Link domain the device belongs to. Gangs placed inside one domain
    /// allreduce over a private peer lane instead of the shared host
    /// link; with no interconnect model every GPU is its own domain.
    pub domain: usize,
    /// Total device memory.
    pub capacity: u64,
    /// Bytes currently reserved by resident jobs.
    pub reserved: u64,
}

impl GpuView {
    /// Unreserved bytes.
    pub fn headroom(&self) -> u64 {
        self.capacity.saturating_sub(self.reserved)
    }
}

/// Placement test the brute-force reference path uses: can one replica of
/// this job be admitted to this GPU right now? The canonical predicate is
/// [`threshold_fits`].
pub type FitsFn<'a> = dyn Fn(&CandidateJob, &GpuView) -> bool + 'a;

/// The cluster's canonical fit predicate, phrased over a [`GpuView`]:
/// headroom clears [`CandidateJob::fit_threshold`].
pub fn threshold_fits(cand: &CandidateJob, gpu: &GpuView) -> bool {
    cand.fit_threshold().is_some_and(|t| gpu.headroom() >= t)
}

/// Permille fixed-point aging rate: `0.1` points/second becomes `100`.
/// Mirrors the planner's permille margin scaling so effective priorities
/// compare in exact integer arithmetic on every platform.
pub fn aging_permille(aging_rate: f64) -> u64 {
    (aging_rate * 1000.0).round().max(0.0) as u64
}

/// Effective priority in permille fixed point:
/// `priority × 1000 + aging_permille × waited_seconds`, computed exactly
/// over nanoseconds in u128 so comparisons are total and
/// platform-independent (the old `f64` compare could tie-break
/// differently across platforms once waits grew large).
pub fn effective_priority_permille(priority: u32, aging_permille: u64, waited: Duration) -> u128 {
    let aged = (aging_permille as u128).saturating_mul(waited.as_nanos() as u128) / 1_000_000_000;
    (priority as u128) * 1000 + aged
}

/// SLO-slack priority boost in permille fixed point: the fraction of its
/// latency SLO the oldest pending request has already burned, capped at
/// two full priority points. `boost = min(waited × 1000 / slo, 2000)`,
/// computed exactly over integer nanoseconds in u128 — so an inference
/// job whose oldest request has consumed its whole SLO outranks a
/// same-priority training job by one point, and the cap keeps a deeply
/// late job from starving everything above it forever (aging still
/// resolves those). Returns 0 when `slo_ns` is 0 (training jobs) or no
/// request waits.
pub fn slo_boost_permille(slo_ns: u64, oldest_wait_ns: u64) -> u64 {
    if slo_ns == 0 || oldest_wait_ns == 0 {
        return 0;
    }
    ((oldest_wait_ns as u128 * 1000 / slo_ns as u128).min(2000)) as u64
}

/// A placement strategy over one scheduling instant.
pub trait PlacementStrategy: std::fmt::Debug {
    /// Stats/CLI name.
    fn name(&self) -> &'static str;

    /// `true` when [`PlacementStrategy::pick`]'s result is invariant to
    /// the candidates' arrival order *and* to dropping candidates whose
    /// [`CandidateJob::fit_threshold`] is `None` or exceeds every
    /// device's headroom (such candidates can never be picked). The
    /// cluster then feeds `pick` an indexed eligible subset of the queue
    /// instead of scanning the whole backlog per probe. Strategies with
    /// positional semantics (FIFO's head-of-line blocking) must leave
    /// this `false`.
    fn order_insensitive(&self) -> bool {
        false
    }

    /// Picks the next placement: `(job, gpus)` with exactly the job's
    /// gang width of distinct fitting GPUs, or `None` to wait. The
    /// cluster reserves every returned GPU atomically — all or none.
    ///
    /// Candidates arrive in queue order; strategies that only look at the
    /// head (FIFO) never advance the iterator further, so a long backlog
    /// costs nothing to probe.
    fn pick(
        &self,
        queue: &mut dyn Iterator<Item = CandidateJob>,
        pool: &GpuPool,
        now: Time,
    ) -> Option<(usize, Vec<usize>)>;

    /// Reference implementation of [`PlacementStrategy::pick`] that
    /// re-scans every GPU per probe — the pre-index algorithm, retained
    /// so `prop_scale` can prove the indexed path byte-identical.
    fn pick_brute(
        &self,
        pending: &[CandidateJob],
        gpus: &[GpuView],
        now: Time,
        fits: &FitsFn<'_>,
    ) -> Option<(usize, Vec<usize>)>;
}

/// Strict arrival order with head-of-line blocking: only the oldest
/// waiting job is considered, placed on the first GPUs it fits (index
/// order). A gang waits until its full width fits at once.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoFirstFit;

impl PlacementStrategy for FifoFirstFit {
    fn name(&self) -> &'static str {
        "fifo-first-fit"
    }

    fn pick(
        &self,
        queue: &mut dyn Iterator<Item = CandidateJob>,
        pool: &GpuPool,
        _now: Time,
    ) -> Option<(usize, Vec<usize>)> {
        let head = queue.next()?;
        let threshold = head.fit_threshold()?;
        let take = pool.first_fit(threshold, head.gpus.max(1))?;
        Some((head.job, take))
    }

    fn pick_brute(
        &self,
        pending: &[CandidateJob],
        gpus: &[GpuView],
        _now: Time,
        fits: &FitsFn<'_>,
    ) -> Option<(usize, Vec<usize>)> {
        let head = pending.first()?;
        let take: Vec<usize> = gpus
            .iter()
            .filter(|g| fits(head, g))
            .take(head.gpus.max(1))
            .map(|g| g.idx)
            .collect();
        (take.len() == head.gpus.max(1)).then_some((head.job, take))
    }
}

/// Best-fit memory bin-packing with priority aging: jobs are ranked by
/// `priority + aging_rate × wait_seconds` plus any SLO-slack boost
/// ([`slo_boost_permille`]) in permille fixed point (ties broken by raw
/// priority, then arrival, then submission order), and each
/// is placed on the fitting GPU subset that leaves the least leftover
/// headroom. Gangs prefer a subset inside one link domain — a same-domain
/// gang allreduces over its private peer lane instead of loading the
/// shared host link — falling back to the tightest cross-domain subset
/// when no single domain has the width.
#[derive(Debug, Clone, Copy)]
pub struct BestFit {
    /// Effective-priority points gained per second of waiting, rounded to
    /// permille internally. Guarantees low-priority jobs eventually
    /// overtake a stream of urgent arrivals.
    pub aging_rate: f64,
}

impl Default for BestFit {
    fn default() -> BestFit {
        BestFit { aging_rate: 0.1 }
    }
}

/// Leftover headroom after granting `min(headroom, full_need)`.
fn leftover(headroom: u64, full_need: u64) -> u64 {
    headroom - headroom.min(full_need)
}

/// Rank key of one best-fit candidate: `(effective priority, raw
/// priority, earliest arrival, lowest job index)` — descending effective
/// priority with every tie broken, so the key order is total and its
/// maximum is the first candidate of the full-sort order.
type RankKey = (u128, u32, Reverse<u64>, Reverse<usize>);

/// Per-pick memo of the placeability test `count_at_least(t, k) >= k`
/// over gang width `k` and fit threshold `t`. The test is monotone:
/// feasible at (k, t) means feasible at every k' <= k, t' <= t, and
/// infeasible at (k, t) means infeasible at every k' >= k, t' >= t. Each
/// probed width keeps its highest feasible and lowest infeasible
/// threshold, and either bound also answers narrower or wider gangs, so
/// a backlog drawn from a few shapes costs a few index probes per pick.
#[derive(Default)]
struct Feasibility {
    /// `(width, highest feasible threshold, lowest infeasible threshold)`.
    bounds: Vec<(usize, Option<u64>, Option<u64>)>,
}

impl Feasibility {
    /// Whether at least `k` devices clear `t`. The caller has checked
    /// `t <= pool.max_headroom()`, which settles `k == 1` outright.
    fn placeable(&mut self, pool: &GpuPool, k: usize, t: u64) -> bool {
        if k == 1 {
            return true;
        }
        for &(w, yes, no) in &self.bounds {
            if w >= k && yes.is_some_and(|y| t <= y) {
                return true;
            }
            if w <= k && no.is_some_and(|n| t >= n) {
                return false;
            }
        }
        let ok = pool.count_at_least(t, k) >= k;
        // No bound of width k answered `t` above, so `t` tightens it.
        match self.bounds.iter_mut().find(|e| e.0 == k) {
            Some(e) if ok => e.1 = Some(t),
            Some(e) => e.2 = Some(t),
            None => self.bounds.push((k, ok.then_some(t), (!ok).then_some(t))),
        }
        ok
    }
}

/// The tightest gang of `k` devices clearing `threshold`, or `None` when
/// fewer than `k` do. Fitting devices are enumerated domain by domain,
/// skipping domains whose best device falls short: each domain's `k`
/// tightest members compete for the same-domain preference (least total
/// leftover, then lowest domain), and all fitting devices feed the
/// cross-domain fallback.
fn tightest_gang(pool: &GpuPool, threshold: u64, k: usize, full_need: u64) -> Option<Vec<usize>> {
    let mut fitting: Vec<(u64, usize)> = Vec::new();
    let mut best: Option<(u64, usize, Vec<usize>)> = None;
    let mut next = 0;
    while let Some(d) = pool.next_domain_at_least(next, threshold) {
        next = d + 1;
        let mut members: Vec<(u64, usize)> = pool
            .domain_members(d)
            .iter()
            .filter_map(|&g| {
                let h = pool.headroom(g);
                (h >= threshold).then(|| (leftover(h, full_need), g))
            })
            .collect();
        members.sort_unstable();
        if members.len() >= k {
            let total: u64 = members[..k].iter().map(|&(l, _)| l).sum();
            if best
                .as_ref()
                .is_none_or(|&(bt, bd, _)| (total, d) < (bt, bd))
            {
                best = Some((total, d, members[..k].iter().map(|&(_, g)| g).collect()));
            }
        }
        fitting.append(&mut members);
    }
    if let Some((_, _, idxs)) = best {
        return Some(idxs);
    }
    // No single domain is wide enough: tightest k anywhere.
    fitting.sort_unstable();
    (fitting.len() >= k).then(|| fitting[..k].iter().map(|&(_, g)| g).collect())
}

impl BestFit {
    /// Candidates sorted by descending effective priority.
    fn ranked(
        &self,
        queue: &mut dyn Iterator<Item = CandidateJob>,
        now: Time,
    ) -> Vec<CandidateJob> {
        let permille = aging_permille(self.aging_rate);
        let mut order: Vec<CandidateJob> = queue.collect();
        order.sort_by(|a, b| {
            let ea =
                effective_priority_permille(a.priority, permille, now.saturating_since(a.arrival))
                    + a.boost_permille as u128;
            let eb =
                effective_priority_permille(b.priority, permille, now.saturating_since(b.arrival))
                    + b.boost_permille as u128;
            eb.cmp(&ea)
                .then(b.priority.cmp(&a.priority))
                .then(a.arrival.cmp(&b.arrival))
                .then(a.job.cmp(&b.job))
        });
        order
    }
}

impl PlacementStrategy for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    /// Ranking is a total order (the job index breaks every tie) and
    /// unfittable candidates are skipped wholesale, so candidate order
    /// and pre-filtering cannot change the pick.
    fn order_insensitive(&self) -> bool {
        true
    }

    fn pick(
        &self,
        queue: &mut dyn Iterator<Item = CandidateJob>,
        pool: &GpuPool,
        now: Time,
    ) -> Option<(usize, Vec<usize>)> {
        let permille = aging_permille(self.aging_rate);
        let cap = pool.max_headroom();
        // Feasibility first: a candidate is placeable iff at least k
        // devices clear its threshold — exactly the devices the gang
        // search draws from, so the highest-ranked placeable candidate
        // is the pick. One pass keeps its arg-max rank key (computed for
        // placeable candidates only); the gang search then runs once.
        let mut feasible = Feasibility::default();
        let mut best: Option<(RankKey, u64, CandidateJob)> = None;
        for cand in queue {
            let Some(threshold) = cand.fit_threshold() else {
                continue;
            };
            if threshold > cap || !feasible.placeable(pool, cand.gpus.max(1), threshold) {
                continue;
            }
            let eff = effective_priority_permille(
                cand.priority,
                permille,
                now.saturating_since(cand.arrival),
            ) + cand.boost_permille as u128;
            let key = (
                eff,
                cand.priority,
                Reverse(cand.arrival.as_nanos()),
                Reverse(cand.job),
            );
            if best.as_ref().is_none_or(|(b, _, _)| key > *b) {
                best = Some((key, threshold, cand));
            }
        }
        let (_, threshold, cand) = best?;
        tightest_gang(pool, threshold, cand.gpus.max(1), cand.full_need).map(|g| (cand.job, g))
    }

    fn pick_brute(
        &self,
        pending: &[CandidateJob],
        gpus: &[GpuView],
        now: Time,
        fits: &FitsFn<'_>,
    ) -> Option<(usize, Vec<usize>)> {
        let mut queue = pending.iter().copied();
        for cand in self.ranked(&mut queue, now) {
            let k = cand.gpus.max(1);
            let mut fitting: Vec<&GpuView> = gpus.iter().filter(|g| fits(&cand, g)).collect();
            if fitting.len() < k {
                continue;
            }
            // Tightest-first within equal domains: best-fit per device.
            fitting.sort_by_key(|g| (leftover(g.headroom(), cand.full_need), g.idx));
            // Prefer a gang entirely inside one link domain. Among
            // domains wide enough, take the one whose k tightest GPUs
            // leave the least total headroom (ties: lowest domain).
            let mut domains: Vec<usize> = fitting.iter().map(|g| g.domain).collect();
            domains.sort_unstable();
            domains.dedup();
            let best_domain = domains
                .into_iter()
                .filter_map(|d| {
                    let members: Vec<&&GpuView> =
                        fitting.iter().filter(|g| g.domain == d).take(k).collect();
                    (members.len() == k).then(|| {
                        let total: u64 = members
                            .iter()
                            .map(|g| leftover(g.headroom(), cand.full_need))
                            .sum();
                        (total, d, members.iter().map(|g| g.idx).collect::<Vec<_>>())
                    })
                })
                .min_by_key(|(total, d, _)| (*total, *d));
            if let Some((_, _, idxs)) = best_domain {
                return Some((cand.job, idxs));
            }
            // No single domain is wide enough: tightest k GPUs anywhere.
            return Some((cand.job, fitting[..k].iter().map(|g| g.idx).collect()));
        }
        None
    }
}

/// Strategy selector for CLI parsing and construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// [`FifoFirstFit`].
    FifoFirstFit,
    /// [`BestFit`].
    BestFit,
}

impl StrategyKind {
    /// Accepted [`std::str::FromStr`] spellings, canonical first.
    pub const ACCEPTED: &'static [&'static str] =
        &["fifo", "best-fit", "fifo-first-fit", "bestfit"];

    /// CLI/stats name (matches the built strategy's
    /// [`PlacementStrategy::name`]).
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::FifoFirstFit => "fifo-first-fit",
            StrategyKind::BestFit => "best-fit",
        }
    }

    /// Builds the strategy, with `aging_rate` applied to best-fit.
    pub fn build(self, aging_rate: f64) -> Box<dyn PlacementStrategy> {
        match self {
            StrategyKind::FifoFirstFit => Box::new(FifoFirstFit),
            StrategyKind::BestFit => Box::new(BestFit { aging_rate }),
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = crate::parse::ParseEnumError;

    fn from_str(s: &str) -> Result<StrategyKind, crate::parse::ParseEnumError> {
        match s {
            "fifo" | "fifo-first-fit" => Ok(StrategyKind::FifoFirstFit),
            "best-fit" | "bestfit" => Ok(StrategyKind::BestFit),
            other => Err(crate::parse::ParseEnumError::unknown(
                "placement strategy",
                other,
                Self::ACCEPTED,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(job: usize, arrival_us: u64, priority: u32, need: u64) -> CandidateJob {
        CandidateJob {
            job,
            arrival: Time::from_micros(arrival_us),
            priority,
            gpus: 1,
            full_need: need,
            min_need: need,
            failed_budget: None,
            boost_permille: 0,
        }
    }

    fn gang(job: usize, gpus: usize, need: u64) -> CandidateJob {
        CandidateJob {
            gpus,
            ..cand(job, 0, 0, need)
        }
    }

    fn gpu(idx: usize, capacity: u64, reserved: u64) -> GpuView {
        GpuView {
            idx,
            domain: idx,
            capacity,
            reserved,
        }
    }

    fn pool_of(gpus: &[GpuView]) -> GpuPool {
        let mut p = GpuPool::new(
            gpus.iter().map(|g| g.capacity).collect(),
            gpus.iter().map(|g| g.domain).collect(),
        );
        for g in gpus {
            p.set_reserved(g.idx, g.reserved);
        }
        p
    }

    /// Runs the indexed pick and asserts it matches the brute reference.
    fn pick_both(
        strategy: &dyn PlacementStrategy,
        pending: &[CandidateJob],
        gpus: &[GpuView],
        now: Time,
    ) -> Option<(usize, Vec<usize>)> {
        let indexed = strategy.pick(&mut pending.iter().copied(), &pool_of(gpus), now);
        let brute = strategy.pick_brute(pending, gpus, now, &threshold_fits);
        assert_eq!(indexed, brute, "indexed pick diverged from brute scan");
        indexed
    }

    #[test]
    fn fifo_blocks_behind_head_of_line() {
        let pending = [cand(0, 0, 0, 100), cand(1, 1, 5, 10)];
        let gpus = [gpu(0, 50, 0)];
        // Head needs 100, only 50 free: FIFO waits even though job 1 fits.
        assert_eq!(pick_both(&FifoFirstFit, &pending, &gpus, Time::ZERO), None);
        let roomy = [gpu(0, 40, 0), gpu(1, 200, 0)];
        assert_eq!(
            pick_both(&FifoFirstFit, &pending, &roomy, Time::ZERO),
            Some((0, vec![1]))
        );
    }

    #[test]
    fn fifo_gang_waits_for_full_width() {
        let pending = [gang(0, 2, 100)];
        // Only one GPU fits: the gang blocks rather than taking half.
        let tight = [gpu(0, 150, 0), gpu(1, 50, 0)];
        assert_eq!(pick_both(&FifoFirstFit, &pending, &tight, Time::ZERO), None);
        let roomy = [gpu(0, 150, 0), gpu(1, 50, 0), gpu(2, 150, 0)];
        assert_eq!(
            pick_both(&FifoFirstFit, &pending, &roomy, Time::ZERO),
            Some((0, vec![0, 2]))
        );
    }

    #[test]
    fn best_fit_minimizes_leftover_and_respects_priority() {
        let pending = [cand(0, 0, 0, 100), cand(1, 1, 5, 10)];
        let gpus = [gpu(0, 50, 0), gpu(1, 12, 0)];
        // Priority 5 job goes first, onto the tighter GPU (leftover 2
        // beats leftover 40).
        assert_eq!(
            pick_both(&BestFit::default(), &pending, &gpus, Time::ZERO),
            Some((1, vec![1]))
        );
    }

    #[test]
    fn best_fit_prefers_same_domain_gangs() {
        let pending = [gang(0, 2, 100)];
        // Domain 0 = {0, 1}, domain 1 = {2, 3}. GPUs 1 and 2 are the two
        // tightest, but they span domains; GPUs 2 and 3 share domain 1.
        let mk = |idx, domain, cap| GpuView {
            idx,
            domain,
            capacity: cap,
            reserved: 0,
        };
        let gpus = [mk(0, 0, 400), mk(1, 0, 110), mk(2, 1, 105), mk(3, 1, 300)];
        assert_eq!(
            pick_both(&BestFit::default(), &pending, &gpus, Time::ZERO),
            Some((0, vec![2, 3]))
        );
        // When no domain holds the full width, fall back to the tightest
        // GPUs anywhere.
        let split = [mk(0, 0, 110), mk(1, 1, 105), mk(2, 2, 300)];
        assert_eq!(
            pick_both(&BestFit::default(), &pending, &split, Time::ZERO),
            Some((0, vec![1, 0]))
        );
    }

    #[test]
    fn failed_budget_blocks_and_unblocks_through_threshold() {
        // Validation failed at 40 with full need 100: only headroom > 40
        // qualifies, and a failure at or above full need blocks entirely.
        let mut c = cand(0, 0, 0, 100);
        c.min_need = 30;
        c.failed_budget = Some(40);
        assert_eq!(c.fit_threshold(), Some(41));
        let gpus = [gpu(0, 40, 0), gpu(1, 41, 0)];
        assert_eq!(
            pick_both(&FifoFirstFit, &[c], &gpus, Time::ZERO),
            Some((0, vec![1]))
        );
        c.failed_budget = Some(100);
        assert_eq!(c.fit_threshold(), None);
        assert_eq!(pick_both(&FifoFirstFit, &[c], &gpus, Time::ZERO), None);
    }

    #[test]
    fn strategy_kind_round_trips_through_fromstr_and_display() {
        for k in [StrategyKind::FifoFirstFit, StrategyKind::BestFit] {
            assert_eq!(k.to_string().parse::<StrategyKind>(), Ok(k));
            assert_eq!(k.build(0.1).name(), k.name());
        }
        assert_eq!("fifo".parse(), Ok(StrategyKind::FifoFirstFit));
        assert_eq!("bestfit".parse(), Ok(StrategyKind::BestFit));
        let err = "random".parse::<StrategyKind>().unwrap_err();
        assert!(err.to_string().contains("fifo, best-fit"), "{err}");
    }

    #[test]
    fn aging_protects_old_jobs_from_fresh_urgent_arrivals() {
        // Priority-0 job waiting since t=0; priority-3 job arrives at t=5s.
        let pending = [cand(0, 0, 0, 10), cand(1, 5_000_000, 3, 10)];
        let gpus = [gpu(0, 10, 0)];
        let now = Time::from_micros(6_000_000);
        // Without aging, raw priority wins.
        let no_aging = BestFit { aging_rate: 0.0 };
        assert_eq!(
            pick_both(&no_aging, &pending, &gpus, now),
            Some((1, vec![0]))
        );
        // With aging, six seconds of waiting outweigh the newcomer's
        // priority edge (6000 permille effective vs 3000 + 1s aging).
        let aged = BestFit { aging_rate: 1.0 };
        assert_eq!(pick_both(&aged, &pending, &gpus, now), Some((0, vec![0])));
    }

    #[test]
    fn slo_boost_outranks_equal_priority_and_is_capped() {
        // No SLO or no waiting request: no boost.
        assert_eq!(slo_boost_permille(0, 1_000_000), 0);
        assert_eq!(slo_boost_permille(1_000_000, 0), 0);
        // Half the SLO burned = half a priority point; fully burned = one.
        assert_eq!(slo_boost_permille(200_000_000, 100_000_000), 500);
        assert_eq!(slo_boost_permille(200_000_000, 200_000_000), 1000);
        // Capped at two points even when hopelessly late, and exact in
        // u128 at extreme waits.
        assert_eq!(slo_boost_permille(1, u64::MAX), 2000);
        // A boosted candidate outranks an equal-priority unboosted one on
        // both strategy paths...
        let mut boosted = cand(0, 0, 1, 10);
        boosted.boost_permille = 500;
        let pending = [cand(1, 0, 1, 10), boosted];
        let gpus = [gpu(0, 10, 0)];
        assert_eq!(
            pick_both(&BestFit::default(), &pending, &gpus, Time::ZERO),
            Some((0, vec![0]))
        );
        // ...but never outranks strictly higher static priority by more
        // than its capped two points.
        let urgent = [cand(1, 0, 4, 10), boosted];
        assert_eq!(
            pick_both(&BestFit::default(), &urgent, &gpus, Time::ZERO),
            Some((1, vec![0]))
        );
    }

    #[test]
    fn effective_priority_is_exact_integer_permille() {
        // 0.1/s aging over 6 seconds = 600 permille, computed exactly.
        assert_eq!(aging_permille(0.1), 100);
        assert_eq!(
            effective_priority_permille(2, 100, Duration::from_micros(6_000_000)),
            2_600
        );
        // Sub-permille remainders truncate deterministically.
        assert_eq!(
            effective_priority_permille(0, 100, Duration::from_nanos(19)),
            0
        );
        // Extreme waits stay exact in u128 instead of losing precision.
        assert_eq!(
            effective_priority_permille(u32::MAX, u64::MAX, Duration::from_nanos(u64::MAX)),
            u32::MAX as u128 * 1000 + (u64::MAX as u128 * u64::MAX as u128) / 1_000_000_000
        );
    }
}
