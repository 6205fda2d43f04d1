//! Model persistence: JSON weight files.
//!
//! JSON is deliberately chosen over a binary format: trained models in this
//! reproduction are small (tens of thousands of parameters), and an
//! auditable text format lets users diff and inspect checkpoints. The file
//! embeds a format version so future layouts can migrate. Gradient buffers
//! are not stored; loading sizes them from the layer shapes.

use crate::resnet::ResNet;
use crate::VisitParams;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Current checkpoint format version.
pub const FORMAT_VERSION: u32 = 1;

#[derive(Debug, Serialize, Deserialize)]
struct Checkpoint {
    format_version: u32,
    model: ResNet,
}

/// Errors from model persistence.
#[derive(Debug)]
pub enum ModelIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed JSON or schema mismatch.
    Format(String),
    /// The checkpoint was written by an incompatible version.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "model io: {e}"),
            ModelIoError::Format(e) => write!(f, "model format: {e}"),
            ModelIoError::Version { found, expected } => {
                write!(f, "checkpoint version {found}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

/// Serialize a model to a JSON string.
pub fn to_json(model: &ResNet) -> String {
    serde_json::to_string(&Checkpoint {
        format_version: FORMAT_VERSION,
        model: model.clone(),
    })
    .expect("ResNet serialization is infallible")
}

/// Deserialize a model from a JSON string.
pub fn from_json(json: &str) -> Result<ResNet, ModelIoError> {
    let ckpt: Checkpoint =
        serde_json::from_str(json).map_err(|e| ModelIoError::Format(e.to_string()))?;
    if ckpt.format_version != FORMAT_VERSION {
        return Err(ModelIoError::Version {
            found: ckpt.format_version,
            expected: FORMAT_VERSION,
        });
    }
    let mut model = ckpt.model;
    model.size_grads();
    Ok(model)
}

/// Save a model to a file.
pub fn save(model: &ResNet, path: impl AsRef<Path>) -> Result<(), ModelIoError> {
    std::fs::write(path, to_json(model))?;
    Ok(())
}

/// Load a model from a file.
pub fn load(path: impl AsRef<Path>) -> Result<ResNet, ModelIoError> {
    let json = std::fs::read_to_string(path)?;
    from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resnet::ResNetConfig;
    use crate::tensor::Tensor;

    #[test]
    fn round_trip_preserves_predictions() {
        let mut model = ResNet::new(ResNetConfig::tiny(5, 3));
        let x = Tensor::from_windows(&[(0..32).map(|i| (i as f32 / 5.0).cos()).collect()]);
        let before = model.predict_positive_proba(&x);
        let json = to_json(&model);
        let mut back = from_json(&json).unwrap();
        let after = back.predict_positive_proba(&x);
        assert_eq!(before, after);
    }

    #[test]
    fn round_trip_supports_continued_training() {
        use crate::optim::Adam;
        use crate::VisitParams;
        let model = ResNet::new(ResNetConfig::tiny(3, 1));
        let mut back = from_json(&to_json(&model)).unwrap();
        // Gradients must be correctly sized so an optimizer step works.
        let x = Tensor::from_windows(&[vec![0.5; 16], vec![0.1; 16]]);
        back.zero_grad();
        let logits = back.forward(&x, true);
        let (_, grad) = crate::loss::softmax_cross_entropy(&logits, &[0, 1], None);
        back.backward(&grad);
        Adam::new(1e-3).step(&mut back);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let model = ResNet::new(ResNetConfig::tiny(3, 0));
        let json = to_json(&model).replace("\"format_version\":1", "\"format_version\":99");
        match from_json(&json) {
            Err(ModelIoError::Version {
                found: 99,
                expected,
            }) => {
                assert_eq!(expected, FORMAT_VERSION)
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(matches!(from_json("{"), Err(ModelIoError::Format(_))));
        assert!(matches!(from_json("{}"), Err(ModelIoError::Format(_))));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("ds_neural_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let model = ResNet::new(ResNetConfig::tiny(7, 9));
        save(&model, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.config(), model.config());
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load(dir.join("missing.json")),
            Err(ModelIoError::Io(_))
        ));
    }
}
