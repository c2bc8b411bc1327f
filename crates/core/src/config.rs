//! Typed engine configuration: every tuning knob of the classification
//! pipeline in one builder-constructed, serializable value.
//!
//! [`EngineConfig`] replaces the environment-variable knobs that used to
//! be read deep inside the libraries (`ROLECLASS_THREADS` in the kernel)
//! with explicit configuration resolved at the edge: binaries parse
//! their flags/env once, build a config, and hand it to
//! [`Engine::from_config`][crate::Engine::from_config] or the
//! aggregator. Libraries below this type never touch `std::env`.
//!
//! The worker counts are *determinism-free* knobs: every parallel path
//! in the pipeline (kernel counting, merge scoring) reduces worker
//! output in a fixed order with exact integer or per-pair-pure
//! arithmetic, so any worker count produces bit-identical groupings and
//! correlation ids. `0` means "use the machine's parallelism".

use crate::params::{ParamError, Params};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use telemetry::Recorder;

/// Configuration carried by [`Engine`][crate::Engine] and the
/// aggregator pipeline: algorithm parameters plus execution knobs.
///
/// Construct with the builder methods; the `Default` value matches the
/// paper's parameters on one auto-sized worker pool.
/// Serialization covers everything except the recorder attachment
/// (a live handle, rebound at load time by whoever owns the registry).
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Algorithm parameters (α, β, thresholds, tie-break).
    pub params: Params,
    /// Worker threads for the common-neighbor kernel build; `0` sizes
    /// from the machine. Output is bit-identical at any value.
    pub kernel_workers: usize,
    /// Worker threads for merge-phase similarity scoring; `0` sizes
    /// from the machine. Output is bit-identical at any value.
    pub merge_workers: usize,
    /// Telemetry recorder attached to every engine built from this
    /// config. Not serialized.
    recorder: Option<Arc<Recorder>>,
}

impl EngineConfig {
    /// A config with the given parameters and default execution knobs.
    pub fn new(params: Params) -> Self {
        EngineConfig {
            params,
            ..EngineConfig::default()
        }
    }

    /// Builder-style setter for the algorithm parameters.
    pub fn with_params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    /// Builder-style setter for the kernel worker count (`0` = auto).
    pub fn with_kernel_workers(mut self, workers: usize) -> Self {
        self.kernel_workers = workers;
        self
    }

    /// Builder-style setter for the merge worker count (`0` = auto).
    pub fn with_merge_workers(mut self, workers: usize) -> Self {
        self.merge_workers = workers;
        self
    }

    /// Builder-style setter for both worker pools at once.
    pub fn with_workers(self, workers: usize) -> Self {
        self.with_kernel_workers(workers)
            .with_merge_workers(workers)
    }

    /// Builder-style attachment of a telemetry recorder.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// Removes and returns the recorder attachment.
    pub fn take_recorder(&mut self) -> Option<Arc<Recorder>> {
        self.recorder.take()
    }

    /// The kernel worker count to actually run with.
    pub fn resolved_kernel_workers(&self) -> usize {
        resolve_workers(self.kernel_workers)
    }

    /// The merge worker count to actually run with.
    pub fn resolved_merge_workers(&self) -> usize {
        resolve_workers(self.merge_workers)
    }

    /// Validates the algorithm parameters (the execution knobs have no
    /// invalid values: `0` means auto and anything else is a count).
    pub fn validate(&self) -> Result<(), ParamError> {
        self.params.validate()
    }
}

impl From<Params> for EngineConfig {
    fn from(params: Params) -> Self {
        EngineConfig::new(params)
    }
}

fn resolve_workers(configured: usize) -> usize {
    if configured == 0 {
        netgraph::default_worker_count()
    } else {
        configured
    }
}

/// The serialized shape of [`EngineConfig`]: everything but the
/// recorder, with execution knobs defaulting so parameter-only
/// documents keep loading.
#[derive(Serialize, Deserialize)]
struct EngineConfigWire {
    params: Params,
    #[serde(default)]
    kernel_workers: usize,
    #[serde(default)]
    merge_workers: usize,
}

impl Serialize for EngineConfig {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        EngineConfigWire {
            params: self.params,
            kernel_workers: self.kernel_workers,
            merge_workers: self.merge_workers,
        }
        .serialize(s)
    }
}

impl<'de> Deserialize<'de> for EngineConfig {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let wire = EngineConfigWire::deserialize(d)?;
        Ok(EngineConfig {
            params: wire.params,
            kernel_workers: wire.kernel_workers,
            merge_workers: wire.merge_workers,
            recorder: None,
        })
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
        assert_eq!(cfg.merge_workers, 0);
        assert!(cfg.recorder().is_none());
        assert!(cfg.resolved_kernel_workers() >= 1);
        assert!(cfg.resolved_merge_workers() >= 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builders_chain() {
        let rec = Arc::new(Recorder::new());
        let cfg = EngineConfig::new(Params::default().with_k_hi(3))
            .with_workers(4)
            .with_merge_workers(2)
            .with_recorder(Arc::clone(&rec));
        assert_eq!(cfg.params.k_hi, 3);
        assert_eq!(cfg.kernel_workers, 4);
        assert_eq!(cfg.merge_workers, 2);
        assert_eq!(cfg.resolved_kernel_workers(), 4);
        assert_eq!(cfg.resolved_merge_workers(), 2);
        assert!(cfg.recorder().is_some());
    }

    #[test]
    fn serde_round_trips_without_recorder() {
        let cfg = EngineConfig::new(Params::default().with_alpha(0.3))
            .with_workers(8)
            .with_recorder(Arc::new(Recorder::new()));
        let json = serde_json::to_string(&cfg).unwrap();
        let back: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.params, cfg.params);
        assert_eq!(back.kernel_workers, 8);
        assert_eq!(back.merge_workers, 8);
        assert!(back.recorder().is_none(), "recorder must not serialize");
    }

    #[test]
    fn deserializes_parameter_only_documents() {
        let json = format!(
            "{{\"params\":{}}}",
            serde_json::to_string(&Params::default()).unwrap()
        );
        let cfg: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg.kernel_workers, 0);
    }

    #[test]
    fn retired_keys_are_ignored_on_load() {
        // Documents written before `Params::similarity` and
        // `EngineConfig::prune` were removed still load.
        let params = serde_json::to_string(&Params::default()).unwrap();
        let json = format!(
            "{{\"params\":{},\"prune\":\"Off\"}}",
            params.replacen('{', "{\"similarity\":\"Literal\",", 1)
        );
        let cfg: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg.params, Params::default());
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
