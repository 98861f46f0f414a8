//! Scale-path invariants: the incremental headroom index and the indexed
//! strategy picks must be *byte-identical* to the brute-force re-scan
//! they replaced, on arbitrary reservation histories.
//!
//! 1. **Index = scan** — after any interleaving of reserve / partial
//!    release / full release (preempt) / regrow mutations, every
//!    [`GpuPool`] query (max, first-at-least, count-at-least, domain
//!    search) answers exactly what a linear scan answers.
//! 2. **Pick = brute pick** — for arbitrary candidate sets (up to 24
//!    singles and gangs drawn from a small shape menu so equal and
//!    dominated shapes repeat; random priorities, arrivals, SLO boosts
//!    and failed budgets) both [`FifoFirstFit`] and [`BestFit`] return
//!    the same `(job, gang)` through the indexed
//!    [`PlacementStrategy::pick`] as through the retained
//!    [`PlacementStrategy::pick_brute`] reference.
//! 3. **Eligible-subset feed** — [`BestFit`] declares itself
//!    order-insensitive, which lets the cluster feed `pick` only the
//!    candidates whose fit threshold clears the best headroom (a
//!    threshold-index range). Feeding that subset, in threshold order,
//!    must reproduce the full-queue pick exactly.
//! 4. **Same-seed determinism at scale** — a 64-GPU / 2k-job mixed
//!    workload over every scheduling feature produces byte-identical
//!    stats JSON run to run.

use capuchin_cluster::{
    threshold_fits, AdmissionMode, BestFit, CandidateJob, Cluster, ClusterConfig, FifoFirstFit,
    GpuPool, PlacementStrategy, StrategyKind,
};
use capuchin_sim::Time;
use proptest::prelude::*;

/// One candidate shape: `(gang width, full-need eighths, min-need
/// eighths, failed-budget eighths)`. Eighths are scaled against the
/// capacity menu below so thresholds land on, above and below real
/// headroom values.
type ShapeKnobs = (usize, u8, u8, Option<u8>);

/// Candidate knobs: `(priority, arrival slot, shape index into the
/// case's shape menu, SLO boost permille)`. Drawing shapes from a small
/// per-case menu makes equal and dominated shapes repeat, which is what
/// the pick's per-pick feasibility memo answers from.
type CandKnobs = (u32, u64, usize, u64);

const CAPS: &[u64] = &[64, 96, 128];

fn build_pool(caps: &[u64], domains: &[usize]) -> GpuPool {
    GpuPool::new(caps.to_vec(), domains.to_vec())
}

fn candidates_from(menu: &[ShapeKnobs], knobs: &[CandKnobs]) -> Vec<CandidateJob> {
    knobs
        .iter()
        .enumerate()
        .map(|(i, &(priority, slot, shape, boost_permille))| {
            let (gpus, full8, min8, failed8) = menu[shape % menu.len()];
            let full_need = 16 * full8 as u64;
            CandidateJob {
                job: i,
                arrival: Time::from_micros(slot * 250_000),
                priority,
                gpus,
                full_need,
                // The cluster invariant: min never exceeds full.
                min_need: (16 * min8 as u64).min(full_need),
                failed_budget: failed8.map(|f| 16 * f as u64),
                boost_permille,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_queries_and_picks_match_brute_scan(
        shape in prop::collection::vec((0usize..CAPS.len(), 0usize..4), 1..20),
        // Each mutation is (device, new reservation in eighths of its
        // capacity): `0/8` is a full release (the preemption / completion
        // shape), climbing values are regrows, descending values are
        // partial releases — together an arbitrary interleaving.
        muts in prop::collection::vec((0usize..32, 0u8..9), 0..40),
        menu in prop::collection::vec(
            // The failed-budget knob folds `Option` into an integer (0 =
            // no failed budget) — the vendored proptest has no option
            // combinator.
            (1usize..5, 0u8..9, 0u8..9, (0u8..10).prop_map(|v| v.checked_sub(1))),
            1..5,
        ),
        knobs in prop::collection::vec(
            (
                0u32..4,
                0u64..8,
                0usize..4,
                // Half the candidates unboosted; the rest up to the
                // two-point cap, so boosts reorder across priorities.
                prop_oneof![Just(0u64), 1u64..2001],
            ),
            0..24,
        ),
        aging in prop_oneof![Just(0.0), Just(0.1), Just(1.0)],
        now_slot in 0u64..16,
    ) {
        let caps: Vec<u64> = shape.iter().map(|&(c, _)| CAPS[c]).collect();
        let domains: Vec<usize> = shape.iter().map(|&(_, d)| d).collect();
        let mut pool = build_pool(&caps, &domains);
        let mut shadow: Vec<u64> = vec![0; caps.len()];

        // (1) Replay the mutation history, diffing every query against
        // the shadow scan after each step.
        for &(g, eighths) in &muts {
            let g = g % caps.len();
            let reserved = caps[g] * eighths as u64 / 8;
            shadow[g] = reserved;
            pool.set_reserved(g, reserved);

            let head = |g: usize| caps[g] - shadow[g];
            let brute_max = (0..caps.len()).map(head).max().unwrap_or(0);
            prop_assert_eq!(pool.max_headroom(), brute_max);
            for t in [0u64, 1, 16, 48, 64, 96, 128, 129] {
                let fitting: Vec<usize> = (0..caps.len()).filter(|&i| head(i) >= t).collect();
                prop_assert_eq!(
                    pool.first_at_least(0, t),
                    fitting.first().copied(),
                    "first_at_least(0, {})", t
                );
                for limit in [0usize, 1, 2, caps.len() + 1] {
                    prop_assert_eq!(
                        pool.count_at_least(t, limit),
                        fitting.len().min(limit),
                        "count_at_least({}, {})", t, limit
                    );
                }
                let ndomains = domains.iter().max().map_or(0, |&d| d + 1);
                let brute_dom = (0..ndomains)
                    .find(|&d| (0..caps.len()).any(|i| domains[i] == d && head(i) >= t));
                prop_assert_eq!(
                    pool.next_domain_at_least(0, t),
                    brute_dom,
                    "next_domain_at_least(0, {})", t
                );
            }
        }

        // (2) Indexed pick == brute pick, for both strategies, on the
        // final pool state.
        let pending = candidates_from(&menu, &knobs);
        let views = pool.views();
        let now = Time::from_micros(now_slot * 500_000);
        let fifo = FifoFirstFit;
        let best = BestFit { aging_rate: aging };
        for strategy in [&fifo as &dyn PlacementStrategy, &best] {
            let indexed = strategy.pick(&mut pending.iter().copied(), &pool, now);
            let brute = strategy.pick_brute(&pending, &views, now, &threshold_fits);
            prop_assert_eq!(
                indexed.clone(), brute,
                "{}: indexed pick diverged from brute scan", strategy.name()
            );
            // Picks are pure: the same inputs reproduce the same answer
            // (what makes the cluster's generation-keyed memoization of
            // single-candidate ladder probes sound).
            let again = strategy.pick(&mut pending.iter().copied(), &pool, now);
            prop_assert_eq!(indexed, again, "{}: pick is not a pure function", strategy.name());
        }

        // (3) The eligible-subset feed: exactly what the cluster's
        // threshold index hands an order-insensitive strategy — only
        // candidates whose threshold clears the best headroom, ordered
        // by (threshold, queue position) instead of queue position.
        prop_assert!(best.order_insensitive());
        let cap = pool.max_headroom();
        let mut eligible: Vec<(u64, usize)> = pending
            .iter()
            .filter_map(|c| c.fit_threshold().filter(|&t| t <= cap).map(|t| (t, c.job)))
            .collect();
        eligible.sort_unstable();
        let full = best.pick(&mut pending.iter().copied(), &pool, now);
        let subset = best.pick(
            &mut eligible.iter().map(|&(_, j)| pending[j]),
            &pool,
            now,
        );
        prop_assert_eq!(full, subset, "eligible-subset pick diverged from full-queue pick");
    }
}

/// (4) Same-seed determinism at the smoke scenario's scale, with every
/// scheduling feature on: the settle fast paths (fit floor, threshold
/// index, ladder memo) must not perturb a single byte of the stats JSON.
#[test]
fn same_seed_mixed_scale_run_is_byte_identical() {
    let jobs = capuchin_cluster::synthetic_mixed_jobs(2_000, 64, 7, 0.02);
    let cfg = || {
        ClusterConfig::builder()
            .gpus(64)
            .strategy(StrategyKind::BestFit)
            .admission(AdmissionMode::TfOri)
            .preemption(true)
            .elastic(true)
            .build()
            .expect("valid scale config")
    };
    let a = Cluster::new(cfg()).run(&jobs);
    let b = Cluster::new(cfg()).run(&jobs);
    assert_eq!(a.to_json(), b.to_json());
    assert!(
        a.jobs.len() == 2_000,
        "every submitted job must appear in the stats"
    );
}
