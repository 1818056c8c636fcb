//! Trainable parameters.

use fp_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A trainable tensor together with its accumulated gradient and a stable
/// name used for debugging and structured (per-channel) aggregation.
///
/// Gradients accumulate across [`Layer::backward`](crate::Layer::backward)
/// calls until [`Param::zero_grad`] resets them, which lets the cascade
/// trainer sum gradients over adversarial and clean passes when needed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    name: String,
    value: Tensor,
    grad: Tensor,
}

impl Param {
    /// Creates a parameter with a zeroed gradient of matching shape.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param {
            name: name.into(),
            value,
            grad,
        }
    }

    /// The parameter's stable name (e.g. `"conv1.w"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable value (used by optimizers and aggregators).
    pub fn value_mut(&mut self) -> &mut Tensor {
        &mut self.value
    }

    /// Accumulated gradient.
    pub fn grad(&self) -> &Tensor {
        &self.grad
    }

    /// Mutable gradient (layers accumulate into this during backward).
    pub fn grad_mut(&mut self) -> &mut Tensor {
        &mut self.grad
    }

    /// The value and the gradient at once, for updates that read one and
    /// write the other.
    pub(crate) fn value_and_grad_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (self.value.data_mut(), self.grad.data_mut())
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Replaces the value, keeping the gradient buffer.
    ///
    /// # Panics
    ///
    /// Panics if the new value has a different shape.
    pub fn set_value(&mut self, value: Tensor) {
        assert_eq!(
            self.value.shape(),
            value.shape(),
            "set_value shape mismatch for {}",
            self.name
        );
        self.value = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new("w", Tensor::ones(&[2, 3]));
        assert_eq!(p.grad().data(), &[0.0; 6]);
        assert_eq!(p.numel(), 6);
        assert_eq!(p.name(), "w");
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut p = Param::new("b", Tensor::zeros(&[2]));
        p.grad_mut().data_mut()[0] = 5.0;
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn set_value_rejects_shape_change() {
        let mut p = Param::new("w", Tensor::zeros(&[2]));
        p.set_value(Tensor::zeros(&[3]));
    }
}
