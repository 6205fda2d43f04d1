//! Persistence of trained CamAL models (ensemble weights + configuration)
//! as versioned JSON, matching the substrate's checkpoint conventions.
//!
//! Two on-disk formats exist:
//!
//! - **v1** (pre-backbone-zoo): members are bare ResNets — the format
//!   carried no backbone information because there was only one.
//! - **v2** (current): members are externally tagged [`DetectorNet`]s, so
//!   every member records its backbone (`{"ResNet": {...}}`,
//!   `{"Inception": {...}}`, ...) and heterogeneous ensembles round-trip.
//!
//! [`from_json`] probes `format_version` before committing to a schema, so
//! v1 files keep loading forever (mapped to all-ResNet ensembles,
//! bit-identically — the fixture test freezes both sides and compares raw
//! parameter bits). Unknown future versions are rejected with
//! [`CamalIoError::Version`] instead of a confusing schema error.

use crate::config::CamalConfig;
use crate::ensemble::DetectorEnsemble;
use crate::Camal;
use ds_neural::{DetectorNet, ResNet};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Current CamAL checkpoint format version.
pub const FORMAT_VERSION: u32 = 2;

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
            require_members(ckpt.ensemble.members.len())?;
            let members = ckpt
                .ensemble
                .members
                .into_iter()
                .map(DetectorNet::ResNet)
                .collect();
            Ok(Camal::from_parts(
                DetectorEnsemble::from_members(members),
                ckpt.config,
            ))
        }
        2 => {
            let ckpt: CamalCheckpoint =
                serde_json::from_value(&value).map_err(|e| CamalIoError::Format(e.to_string()))?;
            require_members(ckpt.ensemble.len())?;
            Ok(Camal::from_parts(ckpt.ensemble, ckpt.config))
        }
        other => Err(CamalIoError::Version {
            found: other as u32,
        }),
    }
}

/// A model with no members cannot predict (every inference path averages
/// over members), so an empty ensemble is a malformed checkpoint.
fn require_members(count: usize) -> Result<(), CamalIoError> {
    if count == 0 {
        return Err(CamalIoError::Format(
            "checkpoint ensemble has no members".into(),
        ));
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

    /// Author a genuine v1 checkpoint for `model` (all members must be
    /// ResNets): untagged members, no `backbones` config key.
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
        serde_json::to_string(&CamalCheckpointV1 {
            format_version: 1,
            config: model.config().clone(),
            ensemble: EnsembleV1 { members },
        })
        .unwrap()
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
        // And the loaded model re-saves as v2, round-tripping from there.
        let rewritten = to_json(&back);
        assert!(rewritten.contains("\"format_version\":2"));
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
            to_json(&untrained_model()).replace("\"format_version\":2", "\"format_version\":3");
        assert!(matches!(
            from_json(&json),
            Err(CamalIoError::Version { found: 3 })
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
