//! Admission measuring and validation: the footprint estimate and
//! validated-replay caches keyed by replica shape, and the synthetic
//! replays of unvalidated (heuristic-class and predicted) admissions.

use std::collections::BTreeMap;
use std::sync::Arc;

use capuchin::{measure_footprint, measure_forward_footprint};
use capuchin_executor::ExecError;
use capuchin_models::ModelKind;
use capuchin_sim::{CopyDir, Duration, TransferModel};

use super::Cluster;
use crate::admission::{with_slack, JobNeeds, ReplayIter, ReplayTransfer};
use crate::job::JobSpec;
use crate::policy::CostClass;

/// Validation-cache key: `(model, replica batch, budget, policy, shrunk,
/// iters, forward-only)`. Keyed by the *replica* batch, so a 4-GPU gang
/// at batch 128 shares the cache entry with a single-GPU job at batch 32;
/// the trailing flag separates inference validations (which run the
/// forward prefix only) from training ones at the same shape. The model
/// is the interned [`ModelKind`] — probing the cache allocates nothing.
pub(super) type ValidationKey = (ModelKind, usize, u64, &'static str, bool, u64, bool);

/// Measured footprints and derived admission budgets keyed by `(model,
/// replica batch, heuristic cost class)`.
pub(super) type EstimateCache = BTreeMap<(ModelKind, usize, bool), (EstimateSummary, JobNeeds)>;

/// The slice of a measuring run the scheduler keeps per `(model, replica
/// batch)`: the two footprint numbers stats report. The full
/// [`capuchin::FootprintEstimate`] drags the whole measured access
/// profile along and is dropped once admission needs are derived.
#[derive(Debug, Clone, Copy)]
pub(super) struct EstimateSummary {
    /// Peak live memory an unlimited device holds.
    pub(super) ideal_peak: u64,
    /// Persistent weight bytes (the gang's gradient payload).
    pub(super) weight_bytes: u64,
    /// Wall time of the unconstrained measuring iteration — the base an
    /// unvalidated (heuristic-class) admission synthesizes its replay
    /// from.
    pub(super) iter_wall: Duration,
}

impl Cluster {
    /// Measures the per-replica footprint at global batch `batch`:
    /// weights plus activations at the replica slice (`batch / gpus`).
    /// Elastic probes at reduced batches share the same cache — keyed by
    /// the replica batch, so a 4-GPU gang elastically reduced to batch
    /// 128 reuses the single-GPU batch-32 measuring run.
    ///
    /// # Errors
    ///
    /// The measuring run's own error when the shape cannot be measured at
    /// all (an activation beyond what the simulated device can address,
    /// as a hostile batch size asks for). Errors are not cached.
    pub(super) fn estimate_at(
        &mut self,
        spec: &JobSpec,
        batch: usize,
    ) -> Result<(EstimateSummary, JobNeeds), ExecError> {
        let rb = spec.replica_batch_at(batch);
        let heuristic = spec.policy.descriptor().cost_class == CostClass::Heuristic;
        let key = (spec.model, rb, heuristic);
        let forward = spec.is_inference();
        if let Some(cached) = self.estimate_cache(forward).get(&key) {
            return Ok(*cached);
        }
        let model = self
            .models
            .entry((spec.model, rb))
            .or_insert_with(|| spec.model.build(rb));
        // Inference jobs never run the backward pass: measure (and derive
        // needs from) the forward prefix, whose peak is strictly smaller.
        let (est, needs) = if forward {
            let est = measure_forward_footprint(&model.graph, &self.cfg.spec)?;
            // Forward-only budgets are verified by measured execution —
            // proportional slack alone undershoots when weights dominate
            // the peak (see `Admission::forward_needs`) — except for
            // heuristic-class policies, which pad a step instead of
            // probing with engine runs.
            let needs = if heuristic {
                self.admission.heuristic_forward_needs(&est)
            } else {
                let fwd = model.graph.forward_prefix();
                self.admission.forward_needs(&fwd, &est, spec.policy)
            };
            (est, needs)
        } else {
            let est = measure_footprint(&model.graph, &self.cfg.spec)?;
            let needs = if heuristic {
                self.admission.heuristic_needs(&est)
            } else {
                self.admission.needs(&model.graph, &est)
            };
            (est, needs)
        };
        let summary = EstimateSummary {
            ideal_peak: est.ideal_peak,
            weight_bytes: est.weight_bytes,
            iter_wall: est.iter_wall,
        };
        self.estimate_cache(forward).insert(key, (summary, needs));
        Ok((summary, needs))
    }

    /// The estimate cache for forward-only (inference) or training
    /// shapes.
    pub(super) fn estimate_cache(&mut self, forward: bool) -> &mut EstimateCache {
        if forward {
            &mut self.forward_estimates
        } else {
            &mut self.estimates
        }
    }

    /// The validated replay trace for `spec` at global `batch` under
    /// `budget` bytes per replica, memoized per [`ValidationKey`];
    /// `None` when the engine run failed (or produced an empty trace).
    pub(super) fn validated_replay(
        &mut self,
        spec: &JobSpec,
        batch: usize,
        budget: u64,
        shrunk: bool,
    ) -> Option<Arc<Vec<ReplayIter>>> {
        // Heuristic-class policies are never validated by an engine run:
        // their replay is synthesized from the cached footprint estimate
        // and the validation cache stays cold.
        if spec.policy.descriptor().cost_class == CostClass::Heuristic {
            return self.heuristic_replay(spec, batch, budget);
        }
        let rb = spec.replica_batch_at(batch);
        // Inference validates at least 2 engine iterations regardless of
        // `spec.iters` (which inference specs leave at 1): Capuchin needs
        // a measured iteration before a guided one exists to record.
        let iters = spec.iters.min(self.cfg.validate_iters).max(2);
        let forward = spec.is_inference();
        let key = (
            spec.model,
            rb,
            budget,
            spec.policy.name(),
            shrunk,
            iters,
            forward,
        );
        if let Some(cached) = self.validations.get(&key) {
            return cached.clone();
        }
        let model = self
            .models
            .entry((spec.model, rb))
            .or_insert_with(|| spec.model.build(rb));
        // Inference jobs validate the forward prefix only — the budget
        // they are granted never has to fit a backward pass.
        let validated = if forward {
            let fwd = model.graph.forward_prefix();
            self.admission
                .validate(&fwd, &self.cfg.spec, budget, spec.policy, shrunk, iters)
        } else {
            self.admission.validate(
                &model.graph,
                &self.cfg.spec,
                budget,
                spec.policy,
                shrunk,
                iters,
            )
        };
        let replay = validated
            .ok()
            // An empty trace is a failed validation, not a fast job.
            .filter(|replay| !replay.is_empty())
            .map(Arc::new);
        self.validations.insert(key, replay.clone());
        replay
    }

    /// Synthesizes the replay trace an unvalidated (heuristic-class)
    /// admission hands the clock: the unconstrained measuring iteration's
    /// wall, stretched by a paging round-trip of the budget deficit.
    ///
    /// The model is deliberately conservative — the online policy pages
    /// (or regenerates, usually cheaper) the bytes that no longer fit,
    /// priced here as one D2H + H2D round trip of the deficit per
    /// iteration on the device's own transfer model; the synthetic
    /// transfer pair makes that traffic contend on a shared fabric like
    /// validated swap timelines do. Below the slack-padded weight floor
    /// even an online policy cannot run (weights are unevictable), so
    /// the grant is refused like a failed validation — without an engine
    /// run and without touching the validation cache.
    fn heuristic_replay(
        &mut self,
        spec: &JobSpec,
        batch: usize,
        budget: u64,
    ) -> Option<Arc<Vec<ReplayIter>>> {
        let (est, _) = self.estimate_at(spec, batch).ok()?;
        self.synthesize_replay(spec, &est, budget)
    }

    /// The shared deficit-paging replay model behind
    /// [`Cluster::heuristic_replay`] and [`Cluster::predicted_replay`]:
    /// the (estimated or predicted) unconstrained iteration wall,
    /// stretched by one D2H + H2D round trip of whatever slice of the
    /// slack-padded peak the budget cannot hold.
    pub(super) fn synthesize_replay(
        &self,
        spec: &JobSpec,
        est: &EstimateSummary,
        budget: u64,
    ) -> Option<Arc<Vec<ReplayIter>>> {
        if budget < with_slack(est.weight_bytes) {
            return None;
        }
        let iters = spec.iters.min(self.cfg.validate_iters).max(2);
        let deficit = with_slack(est.ideal_peak).saturating_sub(budget);
        let iter = if deficit == 0 {
            ReplayIter {
                wall: est.iter_wall,
                swap_bytes: 0,
                recompute_time: Duration::ZERO,
                evictions: 0,
                transfers: Vec::new(),
            }
        } else {
            let policy_name = spec.policy.name();
            let transfers = TransferModel::for_device(&self.cfg.spec);
            let out = transfers.time(deficit, CopyDir::DeviceToHost);
            let back = transfers.time(deficit, CopyDir::HostToDevice);
            ReplayIter {
                wall: est.iter_wall + out + back,
                swap_bytes: deficit.saturating_mul(2),
                recompute_time: Duration::ZERO,
                evictions: 1,
                transfers: vec![
                    ReplayTransfer {
                        label: format!("evict:{policy_name}"),
                        bytes: deficit,
                        dir: CopyDir::DeviceToHost,
                        offset: Duration::ZERO,
                    },
                    ReplayTransfer {
                        label: format!("refill:{policy_name}"),
                        bytes: deficit,
                        dir: CopyDir::HostToDevice,
                        offset: out,
                    },
                ],
            }
        };
        Some(Arc::new(vec![iter; iters as usize]))
    }
}
