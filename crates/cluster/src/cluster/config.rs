//! [`ClusterConfig`]: the cluster's shape and scheduling knobs, and the
//! validating builder that produces it.

use capuchin_sim::{DeviceSpec, InterconnectSpec};

use crate::admission::AdmissionMode;
use crate::strategy::StrategyKind;

/// Cluster shape and scheduling knobs.
///
/// Construct with [`ClusterConfig::builder`] (which validates every knob
/// and returns [`ConfigError`] on nonsense) or take
/// [`ClusterConfig::default`]. The struct is `#[non_exhaustive]`, so
/// downstream crates cannot assemble it field-by-field and silently skip
/// validation when a new knob appears.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ClusterConfig {
    /// Number of identical GPUs.
    pub gpus: usize,
    /// Device model for every GPU.
    pub spec: DeviceSpec,
    /// Admission mode.
    pub admission: AdmissionMode,
    /// Placement strategy.
    pub strategy: StrategyKind,
    /// Priority-aging rate for best-fit placement (points per waiting
    /// second).
    pub aging_rate: f64,
    /// Engine iterations per admission validation run (clamped to the
    /// job's own iteration count; at least 2 so Capuchin completes
    /// measured execution).
    pub validate_iters: u64,
    /// Allow checkpoint-preemption: a waiting job whose effective
    /// priority exceeds a resident job's static priority may evict it
    /// through a host-side checkpoint when no GPU set has headroom.
    pub preemption: bool,
    /// Shared-interconnect model. `None` keeps the legacy behavior —
    /// every job owns a private PCIe lane, copies never contend, and
    /// allreduce is free — and reproduces pre-interconnect timings
    /// exactly.
    pub interconnect: Option<InterconnectSpec>,
    /// Elastic re-batching: admit a waiting [`crate::JobSpec::elastic`] job at a
    /// reduced batch when nothing fits at the full batch, and re-grow
    /// resident reduced jobs at completed-iteration boundaries when
    /// headroom frees up. Total samples trained is always preserved — the
    /// iteration count extends to cover `batch × iters` samples.
    pub elastic: bool,
    /// Floor of the elastic batch ladder as a fraction of the requested
    /// batch, in `(0, 1]`: `0.25` means a job never shrinks below a
    /// quarter of its submitted batch. Ignored with `elastic` off.
    pub min_batch_fraction: f64,
    /// SLO-aware scheduling: boost a waiting inference job's effective
    /// priority by the fraction of its latency SLO the oldest pending
    /// request has burned ([`crate::strategy::slo_boost_permille`]), in
    /// placement ranking and preemption alike. `false` is the SLO-blind
    /// baseline the `cluster_mixed` bench compares against; it changes
    /// nothing for training-only workloads (their boost is always 0).
    pub slo_aware: bool,
    /// Predictive admission: once a `(model family, policy, class)` key
    /// has [`ClusterConfig::min_samples`] completed measured runs, admit
    /// on the regression store's prediction scaled by
    /// [`ClusterConfig::safety_margin_permille`] — zero measuring and
    /// zero validation-engine runs. Cold keys fall back to measured
    /// admission (and their completions warm the store); an
    /// under-shooting prediction is caught at the job's first completed
    /// iteration boundary and recovered by checkpoint-preempting the job
    /// back through the measured path. Off by default; with it off, no
    /// predictor code path runs and stats are byte-identical to the
    /// pre-predictor scheduler.
    pub predictive: bool,
    /// Multiplier applied to predicted *budget* targets (full and
    /// minimum reservation), in permille: 1150 reserves 15% above the
    /// raw prediction. Must be in `[1000, 10000]` — a prediction is
    /// never scaled down. Ignored with `predictive` off.
    pub safety_margin_permille: u64,
    /// Completed measured runs a predictor key needs before its
    /// predictions are served (at least 1). Ignored with `predictive`
    /// off.
    pub min_samples: u64,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            gpus: 4,
            spec: DeviceSpec::p100_pcie3(),
            admission: AdmissionMode::Capuchin,
            strategy: StrategyKind::FifoFirstFit,
            aging_rate: 0.1,
            validate_iters: 6,
            preemption: false,
            interconnect: None,
            elastic: false,
            min_batch_fraction: 0.25,
            slo_aware: true,
            predictive: false,
            safety_margin_permille: 1150,
            min_samples: 3,
        }
    }
}

impl ClusterConfig {
    /// Starts a builder seeded with the default configuration.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            cfg: ClusterConfig::default(),
        }
    }
}

/// Why [`ClusterConfigBuilder::build`] refused a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A cluster needs at least one GPU.
    NoGpus,
    /// The priority-aging rate must be finite and non-negative.
    BadAgingRate(f64),
    /// Validation runs need at least 2 iterations: Capuchin must complete
    /// measured execution before a guided iteration exists to record.
    TooFewValidateIters(u64),
    /// The elastic batch floor must be a fraction in `(0, 1]`.
    BadBatchFraction(f64),
    /// The prediction safety margin must be in `[1000, 10000]` permille —
    /// predicted budgets are padded, never shaved.
    BadSafetyMargin(u64),
    /// The predictor needs at least one completed sample per key before
    /// it can fit anything.
    BadMinSamples(u64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoGpus => write!(f, "cluster needs at least 1 GPU"),
            ConfigError::BadAgingRate(r) => {
                write!(f, "aging rate {r} must be finite and >= 0")
            }
            ConfigError::TooFewValidateIters(n) => write!(
                f,
                "validation needs at least 2 iterations, got {n} \
                 (Capuchin records guided iterations only after measured execution)"
            ),
            ConfigError::BadBatchFraction(frac) => {
                write!(f, "min batch fraction {frac} must be in (0, 1]")
            }
            ConfigError::BadSafetyMargin(m) => write!(
                f,
                "safety margin {m} permille must be in [1000, 10000] \
                 (predictions are padded, never shaved)"
            ),
            ConfigError::BadMinSamples(n) => {
                write!(f, "predictor min samples {n} must be at least 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`ClusterConfig`]; every setter overrides one
/// default, and [`ClusterConfigBuilder::build`] checks the whole
/// combination at once.
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Number of identical GPUs.
    pub fn gpus(mut self, gpus: usize) -> Self {
        self.cfg.gpus = gpus;
        self
    }

    /// Device model for every GPU.
    pub fn spec(mut self, spec: DeviceSpec) -> Self {
        self.cfg.spec = spec;
        self
    }

    /// Admission mode.
    pub fn admission(mut self, admission: AdmissionMode) -> Self {
        self.cfg.admission = admission;
        self
    }

    /// Placement strategy.
    pub fn strategy(mut self, strategy: StrategyKind) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Priority-aging rate for best-fit placement.
    pub fn aging_rate(mut self, aging_rate: f64) -> Self {
        self.cfg.aging_rate = aging_rate;
        self
    }

    /// Engine iterations per admission validation run.
    pub fn validate_iters(mut self, validate_iters: u64) -> Self {
        self.cfg.validate_iters = validate_iters;
        self
    }

    /// Allow checkpoint-preemption.
    pub fn preemption(mut self, preemption: bool) -> Self {
        self.cfg.preemption = preemption;
        self
    }

    /// Shared-interconnect model (`None` = private lanes).
    pub fn interconnect(mut self, interconnect: Option<InterconnectSpec>) -> Self {
        self.cfg.interconnect = interconnect;
        self
    }

    /// Elastic re-batching on/off.
    pub fn elastic(mut self, elastic: bool) -> Self {
        self.cfg.elastic = elastic;
        self
    }

    /// Floor of the elastic batch ladder, as a fraction in `(0, 1]`.
    pub fn min_batch_fraction(mut self, min_batch_fraction: f64) -> Self {
        self.cfg.min_batch_fraction = min_batch_fraction;
        self
    }

    /// SLO-aware scheduling on/off (`false` = SLO-blind baseline).
    pub fn slo_aware(mut self, slo_aware: bool) -> Self {
        self.cfg.slo_aware = slo_aware;
        self
    }

    /// Predictive admission on/off.
    pub fn predictive(mut self, predictive: bool) -> Self {
        self.cfg.predictive = predictive;
        self
    }

    /// Safety margin applied to predicted budgets, in permille
    /// (`[1000, 10000]`).
    pub fn safety_margin_permille(mut self, safety_margin_permille: u64) -> Self {
        self.cfg.safety_margin_permille = safety_margin_permille;
        self
    }

    /// Completed samples a predictor key needs before predictions are
    /// served (at least 1).
    pub fn min_samples(mut self, min_samples: u64) -> Self {
        self.cfg.min_samples = min_samples;
        self
    }

    /// Validates the combination and produces the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the first out-of-range knob.
    pub fn build(self) -> Result<ClusterConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.gpus == 0 {
            return Err(ConfigError::NoGpus);
        }
        if !cfg.aging_rate.is_finite() || cfg.aging_rate < 0.0 {
            return Err(ConfigError::BadAgingRate(cfg.aging_rate));
        }
        if cfg.validate_iters < 2 {
            return Err(ConfigError::TooFewValidateIters(cfg.validate_iters));
        }
        if !cfg.min_batch_fraction.is_finite()
            || cfg.min_batch_fraction <= 0.0
            || cfg.min_batch_fraction > 1.0
        {
            return Err(ConfigError::BadBatchFraction(cfg.min_batch_fraction));
        }
        if !(1000..=10000).contains(&cfg.safety_margin_permille) {
            return Err(ConfigError::BadSafetyMargin(cfg.safety_margin_permille));
        }
        if cfg.min_samples == 0 {
            return Err(ConfigError::BadMinSamples(cfg.min_samples));
        }
        Ok(cfg)
    }
}
