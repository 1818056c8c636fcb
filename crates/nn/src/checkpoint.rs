//! Model checkpointing.
//!
//! A [`Checkpoint`] captures everything needed to restore a trained
//! [`CascadeModel`]: the architecture specs, flattened parameter values,
//! and BN running statistics. Checkpoints serialize with serde, so they
//! can be written to JSON (or any serde format) and restored later —
//! including on a different machine, since the whole stack is
//! deterministic pure Rust. A `CascadeModel` itself serializes as its
//! `Checkpoint`: that is the one place the model's wire format is
//! decided, and every type holding a model inherits it.
//!
//! # Example
//!
//! ```
//! use fp_nn::{models, checkpoint::Checkpoint, Mode};
//! use fp_tensor::Tensor;
//!
//! let mut rng = fp_tensor::seeded_rng(0);
//! let mut model = models::tiny_vgg(3, 8, 4, &[4, 8], &mut rng);
//! let ckpt = Checkpoint::capture(&model);
//! let mut restored = ckpt.restore().unwrap();
//! let x = Tensor::zeros(&[1, 3, 8, 8]);
//! assert_eq!(
//!     model.forward(&x, Mode::Eval).data(),
//!     restored.forward(&x, Mode::Eval).data()
//! );
//! ```

use crate::cascade::CascadeModel;
use crate::layer::Layer;
use crate::spec::AtomSpec;
use fp_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A serializable snapshot of a trained cascade model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    specs: Vec<AtomSpec>,
    input_shape: Vec<usize>,
    n_classes: usize,
    params: Vec<f32>,
    bn_stats: Vec<(Tensor, Tensor)>,
}

/// Why a checkpoint failed to restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The parameter vector does not match the architecture.
    ParamCountMismatch {
        /// Scalars expected by the specs.
        expected: usize,
        /// Scalars stored in the checkpoint.
        stored: usize,
    },
    /// The BN statistics count does not match the architecture.
    BnCountMismatch {
        /// BN layers expected by the specs.
        expected: usize,
        /// Stats stored in the checkpoint.
        stored: usize,
    },
    /// A stored BN mean or variance does not fit its layer: its shape is
    /// not the layer's, or it holds a different number of values than its
    /// shape says.
    BnShapeMismatch {
        /// Index of the `(mean, var)` pair, in `bn_stats` order.
        index: usize,
        /// The layer's statistics shape.
        expected: Vec<usize>,
        /// The stored tensor's shape.
        stored: Vec<usize>,
        /// The stored tensor's value count.
        values: usize,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::ParamCountMismatch { expected, stored } => write!(
                f,
                "checkpoint has {stored} parameters but the architecture needs {expected}"
            ),
            RestoreError::BnCountMismatch { expected, stored } => write!(
                f,
                "checkpoint has {stored} bn-stat pairs but the architecture needs {expected}"
            ),
            RestoreError::BnShapeMismatch {
                index,
                expected,
                stored,
                values,
            } => write!(
                f,
                "checkpoint bn-stat pair {index} holds a {stored:?} tensor of {values} values \
                 but the architecture needs {expected:?}"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

impl Checkpoint {
    /// Snapshots a model.
    pub fn capture(model: &CascadeModel) -> Self {
        Checkpoint {
            specs: model.specs(),
            input_shape: model.input_shape().to_vec(),
            n_classes: model.n_classes(),
            params: model.flat_params(),
            bn_stats: model.bn_stats(),
        }
    }

    /// Rebuilds the model (fresh layers, then restored weights and BN
    /// statistics).
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] if the stored tensors are inconsistent
    /// with the stored architecture (e.g. a hand-edited file).
    pub fn restore(&self) -> Result<CascadeModel, RestoreError> {
        let mut rng = fp_tensor::seeded_rng(0);
        let mut model =
            crate::models::instantiate(&self.specs, &self.input_shape, self.n_classes, &mut rng);
        if model.param_count() != self.params.len() {
            return Err(RestoreError::ParamCountMismatch {
                expected: model.param_count(),
                stored: self.params.len(),
            });
        }
        let bn_expected: Vec<_> = model
            .atoms()
            .iter()
            .flat_map(Layer::running_stats)
            .collect();
        if bn_expected.len() != self.bn_stats.len() {
            return Err(RestoreError::BnCountMismatch {
                expected: bn_expected.len(),
                stored: self.bn_stats.len(),
            });
        }
        for (index, ((mean, var), (m, v))) in
            bn_expected.into_iter().zip(&self.bn_stats).enumerate()
        {
            for (want, got) in [(mean, m), (var, v)] {
                if got.shape() != want.shape() || got.data().len() != want.data().len() {
                    return Err(RestoreError::BnShapeMismatch {
                        index,
                        expected: want.shape().to_vec(),
                        stored: got.shape().to_vec(),
                        values: got.data().len(),
                    });
                }
            }
        }
        model.set_flat_params(&self.params);
        model.set_bn_stats(&self.bn_stats);
        Ok(model)
    }

    /// The stored architecture.
    pub fn specs(&self) -> &[AtomSpec] {
        &self.specs
    }

    /// Number of stored parameter scalars.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }
}

// Converts the live model to and from its `Checkpoint`.
impl Serialize for CascadeModel {
    fn serialize(&self) -> serde::Value {
        Checkpoint::capture(self).serialize()
    }
}

impl Deserialize for CascadeModel {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        Checkpoint::deserialize(v)?
            .restore()
            .map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use crate::models;

    #[test]
    fn capture_restore_is_exact() {
        let mut rng = fp_tensor::seeded_rng(1);
        let mut model = models::tiny_resnet(3, 8, 4, &[4, 8], &mut rng);
        // Make BN stats non-trivial.
        let x = Tensor::rand_uniform(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
        model.forward(&x, Mode::Train);
        let ckpt = Checkpoint::capture(&model);
        let mut restored = ckpt.restore().expect("restore");
        assert_eq!(restored.flat_params(), model.flat_params());
        let a = model.forward(&x, Mode::Eval);
        let b = restored.forward(&x, Mode::Eval);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn corrupted_params_are_rejected() {
        let mut rng = fp_tensor::seeded_rng(2);
        let model = models::tiny_vgg(3, 8, 4, &[4], &mut rng);
        let mut ckpt = Checkpoint::capture(&model);
        ckpt.params.pop();
        match ckpt.restore() {
            Err(RestoreError::ParamCountMismatch { .. }) => {}
            other => panic!("expected param mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_bn_stats_are_rejected() {
        let mut rng = fp_tensor::seeded_rng(3);
        let model = models::tiny_vgg(3, 8, 4, &[4], &mut rng);
        let mut ckpt = Checkpoint::capture(&model);
        ckpt.bn_stats.pop();
        assert!(matches!(
            ckpt.restore(),
            Err(RestoreError::BnCountMismatch { .. })
        ));
    }

    /// Restores `model`'s checkpoint JSON with its first BN mean (all
    /// zeros, four channels) replaced by `mean`.
    fn restore_with_first_mean(mean: &str) -> Result<CascadeModel, RestoreError> {
        let mut rng = fp_tensor::seeded_rng(5);
        let model = models::tiny_vgg(3, 8, 4, &[4], &mut rng);
        let json = serde_json::to_string(&Checkpoint::capture(&model)).unwrap();
        let at = json.find("\"bn_stats\"").unwrap();
        let first = r#"{"data":[0,0,0,0],"shape":[4]}"#;
        assert!(json[at..].starts_with(&format!(r#""bn_stats":[[{first}"#)));
        let edited = format!("{}{}", &json[..at], json[at..].replacen(first, mean, 1));
        serde_json::from_str::<Checkpoint>(&edited)
            .unwrap()
            .restore()
    }

    #[test]
    fn wrong_shaped_bn_mean_is_rejected() {
        let err = restore_with_first_mean(r#"{"data":[0,0,0,0,0],"shape":[5]}"#).unwrap_err();
        let want = RestoreError::BnShapeMismatch {
            index: 0,
            expected: vec![4],
            stored: vec![5],
            values: 5,
        };
        assert_eq!(err, want);
        assert_eq!(
            err.to_string(),
            "checkpoint bn-stat pair 0 holds a [5] tensor of 5 values but the architecture needs [4]"
        );
    }

    #[test]
    fn bn_mean_short_of_its_shape_is_rejected() {
        let err = restore_with_first_mean(r#"{"data":[0,0,0],"shape":[4]}"#).unwrap_err();
        let want = RestoreError::BnShapeMismatch {
            index: 0,
            expected: vec![4],
            stored: vec![4],
            values: 3,
        };
        assert_eq!(err, want);
    }

    #[test]
    fn checkpoint_survives_serde_roundtrip() {
        let mut rng = fp_tensor::seeded_rng(4);
        let model = models::tiny_vgg(3, 8, 4, &[4, 8], &mut rng);
        let ckpt = Checkpoint::capture(&model);
        // serde round-trip through a self-describing format.
        let json = serde_json::to_string(&ckpt).expect("serialize");
        let back: Checkpoint = serde_json::from_str(&json).expect("deserialize");
        let restored = back.restore().expect("restore");
        assert_eq!(restored.flat_params(), model.flat_params());
    }
}
