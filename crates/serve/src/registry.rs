//! Model registration and exactly-once plan freezing.
//!
//! An application registers *trained* [`Camal`] models once; the serving
//! path then materializes frozen plans lazily, one per [`PlanKey`]. The
//! freeze is guarded by a per-key `OnceLock`, so N racing requests for a
//! cold key perform exactly one freeze — the others block on the cell and
//! share the resulting `Arc`. `tests/serve_concurrency.rs` hammers this from many
//! threads and asserts the single-freeze property.
//!
//! The frozen template is warmed with one full-chunk pass before it is
//! published, which sizes every arena buffer to its steady-state shape.
//! Workers clone the template (one arena per worker, no locking on the
//! hot path) and inherit the warm sizes, so even a worker's *first* real
//! job allocates nothing inside the kernel call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ds_camal::{Backbone, Camal, FrozenCamal, Precision, WINDOW_CHUNK};

/// Identity of one frozen serving plan. Requests carrying the same key
/// share a plan.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlanKey {
    /// Dataset preset the model was trained on (e.g. `UKDALE_1`).
    pub preset: String,
    /// Appliance slug (e.g. `kettle`).
    pub appliance: String,
    /// Window length in samples. Part of the key so every plan's arena is
    /// shaped for exactly one length.
    pub window: usize,
    /// Detector architecture of the registered model (its lead backbone).
    /// Part of the key so plans of different backbones never alias in the
    /// freeze cache, worker plan clones, or streaming sessions.
    pub backbone: Backbone,
    /// Always [`Precision::F32`]. Kept only so `perfbench/` compiles
    /// unchanged; the next benchmark PR removes it.
    pub precision: Precision,
}

/// Why a plan could not be materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// No model registered under (preset, appliance, window) → 404.
    UnknownModel,
}

type ModelId = (String, String, usize, Backbone);
type PlanCell = Arc<OnceLock<Arc<FrozenCamal>>>;

/// Registered models plus the frozen-plan cache derived from them.
#[derive(Default)]
pub struct ModelRegistry {
    models: Mutex<BTreeMap<ModelId, Camal>>,
    plans: Mutex<BTreeMap<PlanKey, PlanCell>>,
    freezes: AtomicU64,
}

impl ModelRegistry {
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Register a trained model under (preset, appliance, window,
    /// backbone) — the backbone is read off the model itself (its lead
    /// backbone), so one (preset, appliance, window) slot can hold one
    /// model per architecture side by side. Re-registering replaces the
    /// model but NOT already-frozen plans (frozen plans are immutable for
    /// the server's lifetime). `_unused` is kept only so `perfbench/`
    /// compiles unchanged; the next benchmark PR removes it.
    pub fn register(
        &self,
        preset: &str,
        appliance: &str,
        window: usize,
        camal: Camal,
        _unused: Vec<Vec<f32>>,
    ) {
        let backbone = camal.config().lead_backbone();
        self.models.lock().unwrap().insert(
            (preset.to_string(), appliance.to_string(), window, backbone),
            camal,
        );
    }

    /// Registered model identities (for the REPL's `serve status`).
    pub fn model_keys(&self) -> Vec<(String, String, usize, Backbone)> {
        self.models.lock().unwrap().keys().cloned().collect()
    }

    /// Cheap admission check: can `key` possibly be served? Run before
    /// queueing a job so unknown plans 404 at submit time instead of
    /// occupying queue slots.
    pub fn check(&self, key: &PlanKey) -> Result<(), PlanError> {
        if self.models.lock().unwrap().contains_key(&model_id(key)) {
            Ok(())
        } else {
            Err(PlanError::UnknownModel)
        }
    }

    /// Total plan freezes performed (the concurrency test asserts this
    /// equals the number of distinct keys served).
    pub fn freeze_count(&self) -> u64 {
        self.freezes.load(Ordering::Relaxed)
    }

    /// Already-frozen plans with their warm arena footprints, for the
    /// stats endpoint.
    pub fn frozen_plans(&self) -> Vec<(PlanKey, usize)> {
        let plans = self.plans.lock().unwrap();
        plans
            .iter()
            .filter_map(|(k, cell)| cell.get().map(|p| (k.clone(), p.arena_bytes())))
            .collect()
    }

    /// Get the shared frozen plan for `key`, freezing it exactly once on
    /// first use. Concurrent callers for the same cold key race to the
    /// per-key cell: one wins and freezes, the rest share its result (a
    /// loser's cloned source model is dropped unused — a one-time cost).
    pub fn get_or_freeze(&self, key: &PlanKey) -> Result<Arc<FrozenCamal>, PlanError> {
        self.check(key)?;
        let cell: PlanCell = {
            let mut plans = self.plans.lock().unwrap();
            plans.entry(key.clone()).or_default().clone()
        };
        if let Some(plan) = cell.get() {
            ds_obs::counter_add("cache.serve_plan.hits", 1);
            return Ok(plan.clone());
        }
        let camal = self
            .models
            .lock()
            .unwrap()
            .get(&model_id(key))
            .ok_or(PlanError::UnknownModel)?
            .clone();
        let plan = cell.get_or_init(|| {
            self.freezes.fetch_add(1, Ordering::Relaxed);
            ds_obs::counter_add("cache.serve_plan.misses", 1);
            let mut frozen = camal.freeze();
            warm(&mut frozen, key.window);
            Arc::new(frozen)
        });
        Ok(plan.clone())
    }
}

fn model_id(key: &PlanKey) -> ModelId {
    (
        key.preset.clone(),
        key.appliance.clone(),
        key.window,
        key.backbone,
    )
}

/// Run one full-chunk pass of flat windows through a fresh plan so every
/// arena buffer reaches its steady-state size before the template is
/// cloned to workers. Flat windows are valid inputs (z-norm maps them to
/// all-zero), and plan outputs are stateless, so warming cannot change
/// any later result.
fn warm(plan: &mut FrozenCamal, window: usize) {
    let zeros = vec![0.0f32; window];
    let refs: Vec<&[f32]> = (0..WINDOW_CHUNK).map(|_| zeros.as_slice()).collect();
    let _ = plan.localize_batch_into(&refs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_camal::{CamalConfig, ResNetEnsemble};

    fn tiny_model(window: usize) -> Camal {
        let cfg = CamalConfig::fast_test();
        let mut windows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..8 {
            let on = i % 2 == 0;
            let w: Vec<f32> = (0..window)
                .map(|t| {
                    let base = ((i * 5 + t * 3) % 7) as f32 * 0.01;
                    if on && t % 5 < 2 {
                        80.0 + base
                    } else {
                        (t % 3) as f32 + base
                    }
                })
                .collect();
            windows.push(w);
            labels.push(on as u8);
        }
        let mut ens = ResNetEnsemble::untrained(&cfg);
        ens.train(&windows, &labels, &cfg);
        Camal::from_parts(ens, cfg)
    }

    fn key(window: usize) -> PlanKey {
        PlanKey {
            preset: "TEST".into(),
            appliance: "kettle".into(),
            window,
            backbone: Backbone::ResNet,
            precision: Precision::F32,
        }
    }

    #[test]
    fn unknown_model_is_rejected_before_any_freeze() {
        let registry = ModelRegistry::new();
        let err = registry.get_or_freeze(&key(32)).unwrap_err();
        assert_eq!(err, PlanError::UnknownModel);
        assert_eq!(registry.freeze_count(), 0);
        assert!(registry.frozen_plans().is_empty());
    }

    #[test]
    fn backbones_never_alias_in_the_registry() {
        // A ResNet model registered under (preset, appliance, window) must
        // not serve a request keyed to a different backbone — that request
        // is an unknown plan, not a silent architecture swap.
        let registry = ModelRegistry::new();
        registry.register("TEST", "kettle", 32, tiny_model(32), Vec::new());
        assert_eq!(
            registry.model_keys(),
            vec![(
                "TEST".to_string(),
                "kettle".to_string(),
                32,
                Backbone::ResNet
            )]
        );
        let mut inception = key(32);
        inception.backbone = Backbone::Inception;
        assert_eq!(
            registry.get_or_freeze(&inception).unwrap_err(),
            PlanError::UnknownModel
        );
        assert!(registry.get_or_freeze(&key(32)).is_ok());
        assert_eq!(registry.freeze_count(), 1);
    }

    #[test]
    fn repeat_gets_share_one_frozen_plan() {
        let registry = ModelRegistry::new();
        registry.register("TEST", "kettle", 32, tiny_model(32), Vec::new());
        let a = registry.get_or_freeze(&key(32)).unwrap();
        let b = registry.get_or_freeze(&key(32)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(registry.freeze_count(), 1);
        // The published template is warm: its arena footprint is nonzero.
        let plans = registry.frozen_plans();
        assert_eq!(plans.len(), 1);
        assert!(plans[0].1 > 0, "warmed template must report arena bytes");
    }
}
