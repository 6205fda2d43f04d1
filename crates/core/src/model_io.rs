//! Persistence of trained CamAL models (ensemble weights + configuration)
//! as versioned JSON, matching the substrate's checkpoint conventions.
//!
//! Three on-disk formats exist:
//!
//! - **v1** (pre-backbone-zoo): members are bare ResNets — the format
//!   carried no backbone information because there was only one.
//! - **v2**: members are externally tagged [`DetectorNet`]s, so every
//!   member records its backbone (`{"ResNet": {...}}`,
//!   `{"Inception": {...}}`, ...) and heterogeneous ensembles round-trip.
//! - **v3** (current): the v2 schema without gradient buffers. v1 and v2
//!   files carry a zero-filled gradient array beside every parameter
//!   array; loading ignores them.
//!
//! [`from_json`] probes `format_version` before committing to a schema, so
//! v1 files keep loading forever (mapped to all-ResNet ensembles,
//! bit-identically — the fixture test freezes both sides and compares raw
//! parameter bits). Every loaded member gets gradient buffers sized from
//! its layer shapes, so it trains exactly as the model that was saved.
//! Unknown future versions are rejected with [`CamalIoError::Version`]
//! instead of a confusing schema error; a v2 reader thus refuses a v3 file
//! rather than loading a model with no gradient buffers.

use crate::config::CamalConfig;
use crate::ensemble::DetectorEnsemble;
use crate::Camal;
use ds_neural::{DetectorNet, ResNet, VisitParams};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Current CamAL checkpoint format version.
pub const FORMAT_VERSION: u32 = 3;

#[derive(Debug, Serialize, Deserialize)]
struct CamalCheckpoint {
    format_version: u32,
    config: CamalConfig,
    ensemble: DetectorEnsemble,
}

/// The v1 schema: an ensemble of untagged ResNet members. `Serialize` is
/// kept so the compatibility tests can author genuine v1 files.
#[derive(Debug, Serialize, Deserialize)]
struct CamalCheckpointV1 {
    format_version: u32,
    config: CamalConfig,
    ensemble: EnsembleV1,
}

#[derive(Debug, Serialize, Deserialize)]
struct EnsembleV1 {
    members: Vec<ResNet>,
}

/// Errors from CamAL model persistence.
#[derive(Debug)]
pub enum CamalIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed JSON or schema mismatch.
    Format(String),
    /// Incompatible checkpoint version.
    Version {
        /// Version found in the file.
        found: u32,
    },
}

impl std::fmt::Display for CamalIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CamalIoError::Io(e) => write!(f, "camal io: {e}"),
            CamalIoError::Format(e) => write!(f, "camal format: {e}"),
            CamalIoError::Version { found } => {
                write!(
                    f,
                    "camal checkpoint version {found}, expected 1..={FORMAT_VERSION}"
                )
            }
        }
    }
}

impl std::error::Error for CamalIoError {}

impl From<std::io::Error> for CamalIoError {
    fn from(e: std::io::Error) -> Self {
        CamalIoError::Io(e)
    }
}

/// Serialize a trained model to JSON (always the current format version).
pub fn to_json(model: &Camal) -> String {
    serde_json::to_string(&CamalCheckpoint {
        format_version: FORMAT_VERSION,
        config: model.config().clone(),
        ensemble: model.ensemble().clone(),
    })
    .expect("CamAL serialization is infallible")
}

/// Deserialize a model from JSON, accepting both the current format and
/// the pre-backbone v1 format.
pub fn from_json(json: &str) -> Result<Camal, CamalIoError> {
    let value =
        serde_json::parse_value_complete(json).map_err(|e| CamalIoError::Format(e.to_string()))?;
    let version = value
        .get("format_version")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| CamalIoError::Format("missing format_version".into()))?;
    match version {
        1 => {
            let ckpt: CamalCheckpointV1 =
                serde_json::from_value(&value).map_err(|e| CamalIoError::Format(e.to_string()))?;
            let mut members: Vec<DetectorNet> = ckpt
                .ensemble
                .members
                .into_iter()
                .map(DetectorNet::ResNet)
                .collect();
            load_members(&mut members)?;
            Ok(Camal::from_parts(
                DetectorEnsemble::from_members(members),
                ckpt.config,
            ))
        }
        2 | 3 => {
            let mut ckpt: CamalCheckpoint =
                serde_json::from_value(&value).map_err(|e| CamalIoError::Format(e.to_string()))?;
            load_members(ckpt.ensemble.members_mut())?;
            Ok(Camal::from_parts(ckpt.ensemble, ckpt.config))
        }
        other => Err(CamalIoError::Version {
            found: other as u32,
        }),
    }
}

/// A model with no members cannot predict (every inference path averages
/// over members), so an empty ensemble is a malformed checkpoint. So is
/// any member whose layer shapes do not chain or whose parameters are not
/// finite: it would load, then panic (or emit NaN) on its first window.
/// Members see univariate windows, hence one input channel. A valid
/// member's gradient buffers are then sized from its layer shapes.
fn load_members(members: &mut [DetectorNet]) -> Result<(), CamalIoError> {
    if members.is_empty() {
        return Err(CamalIoError::Format(
            "checkpoint ensemble has no members".into(),
        ));
    }
    for (i, member) in members.iter_mut().enumerate() {
        member
            .validate(1)
            .map_err(|e| CamalIoError::Format(format!("member {i}: {e}")))?;
        member.size_grads();
    }
    Ok(())
}

/// Save a trained model to a file.
pub fn save(model: &Camal, path: impl AsRef<Path>) -> Result<(), CamalIoError> {
    std::fs::write(path, to_json(model))?;
    Ok(())
}

/// Load a trained model from a file.
pub fn load(path: impl AsRef<Path>) -> Result<Camal, CamalIoError> {
    let json = std::fs::read_to_string(path)?;
    from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CamalConfig;
    use ds_neural::Backbone;

    fn untrained_model() -> Camal {
        let cfg = CamalConfig::fast_test();
        Camal::from_parts(DetectorEnsemble::untrained(&cfg), cfg)
    }

    /// Add the zero-filled gradient array v1 and v2 writers stored beside
    /// every conv/linear/batch-norm parameter array.
    fn with_grad_arrays(v: &mut serde_json::Value) {
        match v {
            serde_json::Value::Object(m) => {
                for (param, grad) in [
                    ("weight", "grad_weight"),
                    ("bias", "grad_bias"),
                    ("gamma", "grad_gamma"),
                    ("beta", "grad_beta"),
                ] {
                    if let Some(serde_json::Value::Array(a)) = m.get(param) {
                        let zeros = vec![serde_json::Value::from(0.0); a.len()];
                        m.insert(grad.to_string(), serde_json::Value::Array(zeros));
                    }
                }
                m.values_mut().for_each(with_grad_arrays);
            }
            serde_json::Value::Array(a) => a.iter_mut().for_each(with_grad_arrays),
            _ => {}
        }
    }

    /// `json` as a v2 writer would have stored it.
    fn v2_json(json: &str) -> String {
        let mut value = serde_json::parse_value_complete(json).unwrap();
        with_grad_arrays(&mut value);
        value.to_string().replace(
            &format!("\"format_version\":{FORMAT_VERSION}"),
            "\"format_version\":2",
        )
    }

    /// Author a genuine v1 checkpoint for `model` (all members must be
    /// ResNets): untagged members with gradient arrays, no `backbones`
    /// config key.
    fn v1_json(model: &Camal) -> String {
        let members: Vec<ResNet> = model
            .ensemble()
            .members()
            .iter()
            .map(|m| match m {
                DetectorNet::ResNet(n) => n.clone(),
                other => panic!("v1 cannot hold a {} member", other.backbone()),
            })
            .collect();
        let mut value = serde_json::to_value(&CamalCheckpointV1 {
            format_version: 1,
            config: model.config().clone(),
            ensemble: EnsembleV1 { members },
        })
        .unwrap();
        with_grad_arrays(&mut value);
        value
            .to_string()
            .replace("\"backbones\":[],", "")
            .replace(",\"backbones\":[]", "")
    }

    #[test]
    fn round_trip_preserves_behavior() {
        let model = untrained_model();
        let window: Vec<f32> = (0..48)
            .map(|i| (i as f32 * 0.7).cos() * 100.0 + 200.0)
            .collect();
        let before = model.localize(&window);
        let back = from_json(&to_json(&model)).unwrap();
        let after = back.localize(&window);
        assert_eq!(before.status, after.status);
        assert_eq!(before.detection.probability, after.detection.probability);
        assert_eq!(back.config(), model.config());
    }

    #[test]
    fn round_trip_preserves_mixed_backbones() {
        let cfg = CamalConfig {
            backbones: vec![Backbone::Inception, Backbone::TransApp],
            ..CamalConfig::fast_test()
        };
        let model = Camal::from_parts(DetectorEnsemble::untrained(&cfg), cfg);
        let json = to_json(&model);
        // The externally tagged member form *is* the per-member backbone tag.
        assert!(json.contains("\"Inception\""));
        assert!(json.contains("\"TransApp\""));
        let back = from_json(&json).unwrap();
        let tags: Vec<Backbone> = back
            .ensemble()
            .members()
            .iter()
            .map(|m| m.backbone())
            .collect();
        assert_eq!(tags, vec![Backbone::Inception, Backbone::TransApp]);
        assert_eq!(
            model.freeze().ensemble().param_bits(),
            back.freeze().ensemble().param_bits(),
            "mixed-backbone frozen plan drifted across a round trip"
        );
    }

    #[test]
    fn freeze_after_round_trip_is_bit_identical() {
        // BN folding consumes gamma/beta/running stats and conv weights;
        // if the checkpoint preserves those exactly (it serializes f32s
        // losslessly), the frozen plan must come out bit-for-bit equal.
        let model = untrained_model();
        let back = from_json(&to_json(&model)).unwrap();
        assert_eq!(
            model.freeze().ensemble().param_bits(),
            back.freeze().ensemble().param_bits(),
            "frozen plan drifted across a save/load round trip"
        );
    }

    #[test]
    fn v1_checkpoint_still_loads() {
        // A file written by the pre-backbone format: untagged ResNet
        // members, no `backbones` key anywhere.
        let model = untrained_model();
        let json = v1_json(&model);
        assert!(json.contains("\"format_version\":1"));
        assert!(json.contains("\"grad_weight\"") && json.contains("\"grad_gamma\""));
        assert!(!json.contains("backbones"));
        let back = from_json(&json).unwrap();
        assert_eq!(back.ensemble().len(), model.ensemble().len());
        assert!(back
            .ensemble()
            .members()
            .iter()
            .all(|m| m.backbone() == Backbone::ResNet));
        // Bit-identical serving plans: v1 loading is lossless, not merely
        // approximate.
        assert_eq!(
            model.freeze().ensemble().param_bits(),
            back.freeze().ensemble().param_bits(),
            "v1-loaded frozen plan drifted from the source model"
        );
        assert_trains_like(
            &model.ensemble().members()[0],
            &back.ensemble().members()[0],
            "v1",
        );
        // And the loaded model re-saves as the current version,
        // round-tripping from there.
        let rewritten = to_json(&back);
        assert!(rewritten.contains(&format!("\"format_version\":{FORMAT_VERSION}")));
        let again = from_json(&rewritten).unwrap();
        assert_eq!(
            back.freeze().ensemble().param_bits(),
            again.freeze().ensemble().param_bits()
        );
    }

    #[test]
    fn version_and_format_guards() {
        // Future versions are rejected by number, not by schema accident.
        let json =
            to_json(&untrained_model()).replace("\"format_version\":3", "\"format_version\":4");
        assert!(matches!(
            from_json(&json),
            Err(CamalIoError::Version { found: 4 })
        ));
        assert!(matches!(
            from_json("not json"),
            Err(CamalIoError::Format(_))
        ));
        assert!(matches!(
            from_json("{\"config\":{}}"),
            Err(CamalIoError::Format(_))
        ));
    }

    #[test]
    fn empty_ensembles_are_rejected_at_load() {
        // An empty member list has the same shape in both schemas.
        let v1 = serde_json::to_string(&CamalCheckpointV1 {
            format_version: 1,
            config: CamalConfig::fast_test(),
            ensemble: EnsembleV1 {
                members: Vec::new(),
            },
        })
        .unwrap();
        let v2 = v1.replace("\"format_version\":1", "\"format_version\":2");
        for json in [v1, v2] {
            assert!(json.contains("\"members\":[]"), "{json}");
            match from_json(&json) {
                Err(CamalIoError::Format(msg)) => assert!(msg.contains("no members"), "{msg}"),
                Err(other) => panic!("empty ensemble: wrong error {other}"),
                Ok(_) => panic!("empty ensemble loaded: {json}"),
            }
        }
    }

    /// Depth-first search for the first object under `v` that `pred`
    /// accepts (keys in map order, so the pick is deterministic).
    fn find<'a>(
        v: &'a mut serde_json::Value,
        pred: &dyn Fn(&serde_json::Map) -> bool,
    ) -> Option<&'a mut serde_json::Map> {
        match v {
            serde_json::Value::Object(m) => {
                if pred(m) {
                    return Some(m);
                }
                m.values_mut().find_map(|c| find(c, pred))
            }
            serde_json::Value::Array(a) => a.iter_mut().find_map(|c| find(c, pred)),
            _ => None,
        }
    }

    fn array<'a>(m: &'a mut serde_json::Map, key: &str) -> &'a mut Vec<serde_json::Value> {
        match m.get_mut(key) {
            Some(serde_json::Value::Array(a)) => a,
            other => panic!("{key} is not an array: {other:?}"),
        }
    }

    fn bump(m: &mut serde_json::Map, key: &str, by: u64) {
        let n = m[key].as_u64().expect("integer field");
        m.insert(key.to_string(), serde_json::Value::from(n + by));
    }

    fn has(m: &serde_json::Map, keys: &[&str]) -> bool {
        keys.iter().all(|k| m.contains_key(*k))
    }

    /// A stand-in value the JSON text then swaps for a literal that
    /// parses to infinity (the writer itself never emits one).
    const NON_FINITE_MARK: f64 = 123456.5;

    #[test]
    fn malformed_members_are_rejected_at_load() {
        type Mutation = fn(&mut serde_json::Value);
        let mutations: [(&str, Mutation); 5] = [
            ("truncated conv weight", |v| {
                array(
                    find(v, &|m| has(m, &["kernel", "weight"])).unwrap(),
                    "weight",
                )
                .remove(0);
            }),
            ("short BN vector", |v| {
                array(
                    find(v, &|m| has(m, &["running_var"])).unwrap(),
                    "running_var",
                )
                .pop();
            }),
            ("non-finite conv bias", |v| {
                array(find(v, &|m| has(m, &["kernel", "bias"])).unwrap(), "bias")[0] =
                    serde_json::Value::from(NON_FINITE_MARK);
            }),
            ("head dims", |v| {
                bump(
                    find(v, &|m| has(m, &["in_features"])).unwrap(),
                    "out_features",
                    1,
                );
            }),
            ("broken channel chain", |v| {
                let cfg = find(v, &|m| has(m, &["seed", "num_classes"])).unwrap();
                if cfg.contains_key("d_model") {
                    bump(cfg, "d_model", 1);
                } else {
                    let first = array(cfg, "channels")[0].as_u64().unwrap();
                    array(cfg, "channels")[0] = serde_json::Value::from(first + 4);
                }
            }),
        ];
        let mut checkpoints: Vec<(String, String)> =
            vec![("v1".into(), v1_json(&untrained_model()))];
        for b in Backbone::ALL {
            let cfg = CamalConfig {
                backbones: vec![b],
                ..CamalConfig::fast_test()
            };
            let model = Camal::from_parts(DetectorEnsemble::untrained(&cfg), cfg);
            checkpoints.push((format!("v2 {b}"), to_json(&model)));
        }
        for (label, json) in &checkpoints {
            assert!(
                from_json(json).is_ok(),
                "{label}: pristine checkpoint must load"
            );
            for (name, mutate) in &mutations {
                let mut value = serde_json::parse_value_complete(json).unwrap();
                let members = value.as_object_mut().unwrap().get_mut("ensemble").unwrap();
                mutate(members);
                let text = value
                    .to_string()
                    .replace(&NON_FINITE_MARK.to_string(), "1e999");
                match from_json(&text) {
                    Err(CamalIoError::Format(msg)) => {
                        assert!(msg.starts_with("member 0:"), "{label} {name}: {msg}")
                    }
                    Err(other) => panic!("{label} {name}: wrong error {other}"),
                    Ok(_) => panic!("{label} {name}: malformed checkpoint loaded"),
                }
            }
        }
    }

    fn single_backbone_model(backbone: Backbone) -> Camal {
        let cfg = CamalConfig {
            backbones: vec![backbone],
            ..CamalConfig::fast_test()
        };
        Camal::from_parts(DetectorEnsemble::untrained(&cfg), cfg)
    }

    /// Raw bits of every parameter of `net`, in visit order.
    fn param_bits(net: &DetectorNet) -> Vec<u32> {
        let mut bits = Vec::new();
        net.clone()
            .visit_params(&mut |p, _| bits.extend(p.iter().map(|v| v.to_bits())));
        bits
    }

    /// Train a copy of `saved` and of `loaded` for one epoch on the same
    /// data; both must end bit-identical, and training must have moved
    /// the weights (an unsized gradient buffer would freeze them).
    fn assert_trains_like(saved: &DetectorNet, loaded: &DetectorNet, label: &str) {
        let windows: Vec<Vec<f32>> = (0..12)
            .map(|i| {
                (0..48)
                    .map(|t| ((t * (i + 1)) as f32 * 0.3).sin())
                    .collect()
            })
            .collect();
        let labels: Vec<u8> = (0..12).map(|i| (i % 2) as u8).collect();
        let cfg = ds_neural::train::TrainConfig {
            epochs: 1,
            ..ds_neural::train::TrainConfig::fast()
        };
        let (mut a, mut b) = (saved.clone(), loaded.clone());
        ds_neural::train::train_classifier(&mut a, &windows, &labels, &cfg);
        ds_neural::train::train_classifier(&mut b, &windows, &labels, &cfg);
        assert_ne!(
            param_bits(&a),
            param_bits(saved),
            "{label}: training moved nothing"
        );
        assert_eq!(
            param_bits(&a),
            param_bits(&b),
            "{label}: loaded model trains differently"
        );
    }

    #[test]
    fn checkpoints_store_no_gradient_buffers() {
        for b in Backbone::ALL {
            let json = to_json(&single_backbone_model(b));
            assert!(
                !json.contains("\"grad_"),
                "{b}: checkpoint stores gradients"
            );
        }
    }

    #[test]
    fn round_tripped_models_train_bit_identically() {
        for b in Backbone::ALL {
            let model = single_backbone_model(b);
            let json = to_json(&model);
            for (label, file) in [("v3", json.clone()), ("v2", v2_json(&json))] {
                let back = from_json(&file).unwrap();
                assert_trains_like(
                    &model.ensemble().members()[0],
                    &back.ensemble().members()[0],
                    &format!("{label} {b}"),
                );
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("ds_camal_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("camal.json");
        let model = untrained_model();
        save(&model, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.ensemble().len(), model.ensemble().len());
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load(dir.join("nope.json")),
            Err(CamalIoError::Io(_))
        ));
    }
}
