use std::sync::atomic::{AtomicU64, Ordering};

use betty_tensor::Tensor;

static NEXT_PARAM_ID: AtomicU64 = AtomicU64::new(0);

/// A trainable parameter: a value tensor plus an accumulated gradient.
///
/// Parameters persist across tape lifetimes. Each forward pass binds the
/// value to a fresh tape leaf (see [`crate::Session`]); after backward, the
/// leaf's gradient is *added* to [`Param::grad`] — accumulation across
/// micro-batches is therefore the default, and an explicit
/// [`Param::zero_grad`] starts the next batch.
#[derive(Debug, Clone)]
pub struct Param {
    id: u64,
    value: Tensor,
    grad: Tensor,
}

impl Param {
    /// Wraps an initial value.
    pub(crate) fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self {
            id: NEXT_PARAM_ID.fetch_add(1, Ordering::Relaxed),
            value,
            grad,
        }
    }

    /// Process-unique identity used by [`crate::Session`] to key bindings.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// The parameter value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable access to the value (used by optimizers).
    pub(crate) fn value_mut(&mut self) -> &mut Tensor {
        &mut self.value
    }

    /// The accumulated gradient.
    pub fn grad(&self) -> &Tensor {
        &self.grad
    }

    /// Adds `delta` into the accumulated gradient.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub(crate) fn accumulate_grad(&mut self, delta: &Tensor) {
        self.grad.add_assign(delta);
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar values in the parameter.
    pub(crate) fn len(&self) -> usize {
        self.value.len()
    }
}

/// An owner of trainable parameters: one walk over them, in one fixed
/// order, which the optimizer's moments, checkpoints and gradient
/// accumulation all line up on. `visit_mut` must follow `visit`'s order;
/// everything else is built on the two.
pub(crate) trait Params {
    /// Visits every parameter.
    fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a Param));

    /// Visits every parameter mutably, in [`Params::visit`] order.
    fn visit_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param));

    /// Scalar parameter count.
    fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |p| n += p.len());
        n
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Parameter lists built on the walk, which only tests take.
    pub(crate) trait ParamList: Params {
        fn params(&self) -> Vec<&Param> {
            let mut out = Vec::new();
            self.visit(&mut |p| out.push(p));
            out
        }

        fn params_mut(&mut self) -> Vec<&mut Param> {
            let mut out = Vec::new();
            self.visit_mut(&mut |p| out.push(p));
            out
        }
    }

    impl<T: Params + ?Sized> ParamList for T {}

    #[test]
    fn ids_are_unique() {
        let a = Param::new(Tensor::zeros(&[2]));
        let b = Param::new(Tensor::zeros(&[2]));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn grad_accumulates_and_clears() {
        let mut p = Param::new(Tensor::zeros(&[2]));
        p.accumulate_grad(&Tensor::from_slice(&[1.0, 2.0]));
        p.accumulate_grad(&Tensor::from_slice(&[0.5, 0.5]));
        assert_eq!(p.grad().data(), &[1.5, 2.5]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    fn clone_keeps_id() {
        // Cloning a Param (e.g. checkpointing) preserves identity.
        let p = Param::new(Tensor::zeros(&[1]));
        assert_eq!(p.clone().id(), p.id());
    }
}
