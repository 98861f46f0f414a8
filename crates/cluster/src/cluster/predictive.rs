//! Admission pricing with provenance: the arrival-time budget derivation
//! (heuristic, measured or predicted), the warm-key predicted replay,
//! and the first-boundary truth check that recovers an under-shooting
//! prediction through measured re-admission.

use std::sync::Arc;

use capuchin::{elastic_batches, measure_footprint, measure_forward_footprint};
use capuchin_executor::ExecError;
use capuchin_sim::Time;

use super::estimate::EstimateSummary;
use super::session::{EventKind, Session};
use super::Cluster;
use crate::admission::{
    min_feasible_budget, with_slack, AdmissionMode, AdmissionSource, JobNeeds, ReplayIter,
};
use crate::job::JobSpec;
use crate::policy::CostClass;
use crate::predict::{key_of, FootprintSample, PredictedFootprint};

/// Measured truth for mispredict verification, cached per `(model,
/// replica batch, forward-only)` shape: one unconstrained measuring run
/// plus planner math — **no validation engine runs**, which is what
/// keeps the warm-key zero-validation guarantee intact even while every
/// predicted admission is checked.
#[derive(Debug, Clone, Copy)]
pub(super) struct VerifiedTruth {
    /// Peak live memory of the unconstrained measuring run.
    ideal_peak: u64,
    /// Smallest planner-feasible budget ([`min_feasible_budget`]) — the
    /// floor a shrunk Capuchin grant must clear.
    min_plan: u64,
}

/// What the footprint predictor said about one predictable arrival.
enum PredictorOutcome {
    /// Warm key: the arrival was admitted on the prediction.
    Hit,
    /// Cold key: the arrival fell back to measured admission.
    Miss,
    /// The predictor was not consulted (predictive off, heuristic-class
    /// policy, or a non-predictable registry row).
    NotConsulted,
}

/// Provenance half of an admission decision, bundled with the budgets by
/// [`Cluster::admission_estimate`] — the internal mirror of the public
/// [`crate::AdmissionDecision`] before validation charging is known.
struct AdmissionDecisionParts {
    /// Where the budgets came from.
    source: AdmissionSource,
    /// Hit/miss accounting for the cluster-level predictor counters.
    outcome: PredictorOutcome,
    /// Pre-margin predicted full need (0 unless `source` is
    /// [`AdmissionSource::Predicted`]) — kept for
    /// `prediction_error_permille`, which scores the regression, not the
    /// safety padding.
    raw_full: u64,
}

impl Cluster {
    /// The warm-key prediction for `spec` as `(raw, margin-padded)`, or
    /// `None` while its key is cold.
    fn predict(&self, spec: &JobSpec) -> Option<(PredictedFootprint, PredictedFootprint)> {
        let features = spec.predict_features();
        let raw = self.predictor.predict(
            &key_of(spec),
            features.replica_batch(),
            self.cfg.min_samples,
        )?;
        Some((raw, raw.with_margin(self.cfg.safety_margin_permille)))
    }

    /// Admission-time budget derivation, provenance included — the entry
    /// point an arrival goes through instead of calling
    /// [`Cluster::estimate_at`] directly.
    ///
    /// Heuristic-class policies estimate exactly as before. For
    /// measured-class (predictable) policies with predictive mode on,
    /// the regression store is consulted first: a warm key admits on
    /// `prediction × safety margin` — zero measuring and zero validation
    /// engine runs, even when the estimate cache happens to hold the
    /// shape (the warm-key guarantee is keyed on the *family*, not the
    /// batch) — and a cold key falls back to measured estimation, whose
    /// completion later feeds the store. With predictive off this is
    /// exactly the old two-provenance pipeline.
    fn admission_estimate(
        &mut self,
        spec: &JobSpec,
    ) -> Result<(EstimateSummary, JobNeeds, AdmissionDecisionParts), ExecError> {
        let descriptor = spec.policy.descriptor();
        let (source, outcome) = if descriptor.cost_class == CostClass::Heuristic {
            (AdmissionSource::Heuristic, PredictorOutcome::NotConsulted)
        } else if self.cfg.predictive && descriptor.predictable {
            if let Some((raw, padded)) = self.predict(spec) {
                let needs = JobNeeds {
                    full: padded.full,
                    min: match self.admission.mode {
                        // TfOri admission never shrinks: min == full,
                        // exactly like the measured path.
                        AdmissionMode::TfOri => padded.full,
                        AdmissionMode::Capuchin => padded.min,
                    },
                };
                let decision = AdmissionDecisionParts {
                    source: AdmissionSource::Predicted {
                        margin_permille: self.cfg.safety_margin_permille,
                    },
                    outcome: PredictorOutcome::Hit,
                    raw_full: raw.full,
                };
                return Ok((summary_of(&padded), needs, decision));
            }
            (AdmissionSource::Measured, PredictorOutcome::Miss)
        } else {
            (AdmissionSource::Measured, PredictorOutcome::NotConsulted)
        };
        let (est, needs) = self.estimate_at(spec, spec.batch)?;
        let decision = AdmissionDecisionParts {
            source,
            outcome,
            raw_full: 0,
        };
        Ok((est, needs, decision))
    }

    /// Prices an arriving job: derives its budgets and provenance and
    /// returns whether some allowed batch of it fits a bare GPU. `false`
    /// is an admission-time rejection — the job's minimum (and, for an
    /// elastic job, its ladder floor's minimum) exceeds a whole device,
    /// or the spec cannot be measured at all.
    pub(super) fn price_arrival(&mut self, s: &mut Session, job: usize) -> bool {
        let spec = &s.jobs[job].spec;
        let priced = self.admission_estimate(spec);
        let Ok((est, base, decision)) = priced else {
            self.charge_admission(&mut s.jobs[job]);
            return false;
        };
        match decision.outcome {
            PredictorOutcome::Hit => s.predictor_hits += 1,
            PredictorOutcome::Miss => s.predictor_misses += 1,
            PredictorOutcome::NotConsulted => {}
        }
        let j = &mut s.jobs[job];
        j.admission_source = decision.source;
        if let AdmissionSource::Predicted { .. } = decision.source {
            j.predicted_bytes = base.full;
            j.predicted_raw_full = decision.raw_full;
        }
        let needs = j.set_budgets(&est, base);
        let capacity = self.cfg.spec.memory_bytes;
        let spec = &s.jobs[job].spec;
        // An elastic job whose full-batch minimum exceeds a bare GPU is
        // still admissible if the ladder's floor batch fits one.
        let admissible = needs.min <= capacity
            || (self.cfg.elastic && spec.elastic && !spec.is_inference() && {
                let ladder = elastic_batches(spec.batch, self.cfg.min_batch_fraction);
                // The ladder always starts with the requested batch.
                let floor = *ladder.last().expect("ladder is never empty");
                self.estimate_at(spec, floor)
                    .is_ok_and(|(_, floor_needs)| floor_needs.min <= capacity)
            });
        self.charge_admission(&mut s.jobs[job]);
        admissible
    }

    /// Synthesizes the replay trace a predicted admission hands the
    /// clock, from the regression store alone — the predicted analogue of
    /// [`Cluster::heuristic_replay`], sharing its deficit-paging model
    /// via [`Cluster::synthesize_replay`]. No measuring run, no
    /// validation engine run: that absence *is* the warm-key guarantee.
    /// `None` when the key went cold (impossible once warm — the store
    /// only grows) or the budget sits below the predicted weight floor.
    pub(super) fn predicted_replay(
        &self,
        spec: &JobSpec,
        budget: u64,
    ) -> Option<Arc<Vec<ReplayIter>>> {
        let (_, padded) = self.predict(spec)?;
        self.synthesize_replay(spec, &summary_of(&padded), budget)
    }

    /// Measured truth for mispredict verification, memoized per `(model,
    /// replica batch, forward-only)`: one unconstrained measuring run
    /// plus planner math ([`min_feasible_budget`]) — **zero validation
    /// engine runs**, so checking predictions never erodes the warm-key
    /// guarantee. `None` when the shape cannot be measured at all.
    fn verify_truth(&mut self, spec: &JobSpec) -> Option<VerifiedTruth> {
        let rb = spec.replica_batch();
        let forward = spec.is_inference();
        let key = (spec.model, rb, forward);
        if let Some(&t) = self.truths.get(&key) {
            return Some(t);
        }
        let model = self
            .models
            .entry((spec.model, rb))
            .or_insert_with(|| spec.model.build(rb));
        let est = if forward {
            measure_forward_footprint(&model.graph, &self.cfg.spec)
        } else {
            measure_footprint(&model.graph, &self.cfg.spec)
        }
        .ok()?;
        let t = VerifiedTruth {
            ideal_peak: est.ideal_peak,
            min_plan: min_feasible_budget(&est, &self.admission.planner),
        };
        self.truths.insert(key, t);
        Some(t)
    }

    /// Checks a predicted admission against measured truth at the job's
    /// first completed iteration (or serving round) boundary — the
    /// bottom rung of the fallback ladder. A prediction that *held*
    /// (the grant clears what the truth actually requires) just records
    /// its error score. An under-shoot — or a shape that cannot be
    /// measured at all — triggers checkpoint-preemption recovery: the
    /// boundary iteration is discarded as wasted work, the state is
    /// copied to the host, and `EventKind::Remeasure` re-enters
    /// admission on the measured path. Returns whether a recovery is now
    /// in flight (the caller must return without banking progress).
    pub(super) fn verify_prediction(&mut self, s: &mut Session, job: usize, now: Time) -> bool {
        if !self.cfg.predictive
            || s.jobs[job].mispredict_checked
            || !matches!(
                s.jobs[job].admission_source,
                AdmissionSource::Predicted { .. }
            )
        {
            return false;
        }
        s.jobs[job].mispredict_checked = true;
        let spec = &s.jobs[job].spec;
        let truth = self.verify_truth(spec);
        // What the grant actually had to clear: TfOri runs unmanaged at
        // the slack-padded peak; Capuchin only needs the smallest
        // planner-feasible budget.
        let required = truth.map_or(u64::MAX, |truth| {
            let true_full = with_slack(truth.ideal_peak);
            // Score the regression itself (pre-margin) — the safety
            // padding is the knob, not the model.
            if true_full > 0 {
                let diff = s.jobs[job].predicted_raw_full.abs_diff(true_full) as u128;
                s.jobs[job].prediction_error_permille = ((diff * 1000) / true_full as u128) as u64;
            }
            match self.admission.mode {
                AdmissionMode::TfOri => true_full,
                AdmissionMode::Capuchin => truth.min_plan.min(true_full),
            }
        });
        // A serving round's KV slots ride on top of the forward base the
        // truth describes; compare the base slice of the reservation.
        let j = &s.jobs[job];
        let kv_per_request = if j.spec.is_inference() {
            j.spec.kv_bytes_per_request
        } else {
            0
        };
        let kv_held = kv_per_request.saturating_mul(j.inflight.len() as u64);
        if j.reserved.saturating_sub(kv_held) >= required {
            return false;
        }
        // Under-shoot: no feasible plan fits the grant. Recover.
        let j = &mut s.jobs[job];
        j.mispredict_recoveries += 1;
        // Give the round's requests back to the queue in arrival order
        // and return their KV slots before checkpointing.
        while let Some(t0) = j.inflight.pop() {
            j.req_queue.push_front(t0);
        }
        if kv_held > 0 {
            s.release_kv(job, kv_held, now);
        }
        let j = &mut s.jobs[job];
        // The boundary iteration that exposed the mispredict is not
        // banked: its compute is wasted work, like an interrupted
        // iteration under preemption.
        j.wasted_work += now.saturating_since(j.iter_started);
        j.close_reduced(now);
        s.checkpoint_out(
            &self.cfg.spec,
            job,
            now,
            EventKind::Remeasure,
            "mispredict-checkpoint",
        );
        true
    }

    /// Feeds a completed measured admission's shape into the regression
    /// store. Only measured-provenance completions qualify — predicted
    /// admissions would re-feed the predictor its own output, and
    /// heuristic budgets were never validated. The cached estimate entry
    /// is the ground truth being recorded, so a missing entry (possible
    /// after an elastic job finished at a reduced batch) just skips.
    pub(super) fn feed_predictor(&mut self, s: &Session, job: usize) {
        if !self.cfg.predictive {
            return;
        }
        let j = &s.jobs[job];
        let spec = &j.spec;
        if !spec.policy.descriptor().predictable
            || !matches!(j.admission_source, AdmissionSource::Measured)
        {
            return;
        }
        let rb = spec.replica_batch();
        let cache = self.estimate_cache(spec.is_inference());
        let Some(&(est, needs)) = cache.get(&(spec.model, rb, false)) else {
            return;
        };
        self.predictor.observe(
            key_of(spec),
            FootprintSample {
                replica_batch: rb as u64,
                full: needs.full,
                min: needs.min,
                ideal_peak: est.ideal_peak,
                weight_bytes: est.weight_bytes,
                iter_wall: est.iter_wall,
            },
        );
    }
}

/// The estimate slice of a (margin-padded) prediction.
fn summary_of(p: &PredictedFootprint) -> EstimateSummary {
    EstimateSummary {
        ideal_peak: p.ideal_peak,
        weight_bytes: p.weight_bytes,
        iter_wall: p.iter_wall,
    }
}
