//! Typed engine configuration: every tuning knob of the classification
//! pipeline in one builder-constructed value.
//!
//! [`EngineConfig`] replaces the environment-variable knobs that used to
//! be read deep inside the libraries (`ROLECLASS_THREADS` in the kernel)
//! with explicit configuration resolved at the edge: binaries parse
//! their flags/env once, build a config, and hand it to
//! [`Engine::from_config`][crate::Engine::from_config] or the
//! aggregator. Libraries below this type never touch `std::env`.
//!
//! The worker count is a *determinism-free* knob: the one parallel path
//! in the engine, kernel counting, reduces worker output in a fixed
//! order with exact integer arithmetic, so any worker count produces
//! bit-identical groupings and correlation ids. `0` means "use the
//! machine's parallelism".

use crate::params::{ParamError, Params};

/// Configuration carried by [`Engine`][crate::Engine] and the
/// aggregator pipeline: algorithm parameters plus execution knobs.
///
/// Construct with the builder methods; the `Default` value matches the
/// paper's parameters on one auto-sized worker pool. The telemetry
/// recorder is not part of the configuration: it attaches to the
/// running engine ([`Engine::with_recorder`][crate::Engine::with_recorder])
/// or to the aggregator that owns it.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Algorithm parameters (α, β, thresholds).
    pub params: Params,
    /// Worker threads for the common-neighbor kernel build; `0` sizes
    /// from the machine. Output is bit-identical at any value.
    pub kernel_workers: usize,
}

impl EngineConfig {
    /// A config with the given parameters and default execution knobs.
    pub fn new(params: Params) -> Self {
        EngineConfig {
            params,
            ..EngineConfig::default()
        }
    }

    /// Builder-style setter for the kernel worker pool (`0` = auto).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.kernel_workers = workers;
        self
    }

    /// The kernel worker count to actually run with.
    pub fn resolved_kernel_workers(&self) -> usize {
        if self.kernel_workers == 0 {
            netgraph::default_worker_count()
        } else {
            self.kernel_workers
        }
    }

    /// The merge worker count: always 1. The merge phase scores every
    /// pair with one serial sweep per node, which outran a two-worker
    /// split of the same work, so it takes no worker pool. Kept for
    /// callers that report the worker counts a run used.
    pub fn resolved_merge_workers(&self) -> usize {
        1
    }

    /// Validates the algorithm parameters (the worker count has no
    /// invalid values: `0` means auto and anything else is a count).
    pub fn validate(&self) -> Result<(), ParamError> {
        self.params.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_auto_everything() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.params, Params::default());
        assert_eq!(cfg.kernel_workers, 0);
        assert!(cfg.resolved_kernel_workers() >= 1);
        assert_eq!(cfg.resolved_merge_workers(), 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builders_chain() {
        let cfg = EngineConfig::new(Params::default().with_k_hi(3)).with_workers(4);
        assert_eq!(cfg.params.k_hi, 3);
        assert_eq!(cfg.kernel_workers, 4);
        assert_eq!(cfg.resolved_kernel_workers(), 4);
        assert_eq!(cfg.resolved_merge_workers(), 1);
    }

    #[test]
    fn invalid_params_fail_validation() {
        let cfg = EngineConfig::new(Params {
            alpha: 2.0,
            ..Params::default()
        });
        assert!(cfg.validate().is_err());
    }
}
