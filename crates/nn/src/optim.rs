use betty_tensor::{kernels, Tensor};

use crate::Param;

/// A first-order optimizer over a parameter list.
///
/// Optimizers are stateful (Adam keeps moments keyed by `Param::id`);
/// call [`Optimizer::step`] after gradients have been accumulated and
/// [`Param::zero_grad`] on every parameter before the next batch.
pub trait Optimizer {
    /// Applies one update using each parameter's accumulated gradient.
    fn step(&mut self, params: &mut [&mut Param]);

    /// Scalar count of optimizer state values per model value (2 for
    /// Adam's two moments) — what the memory estimator's item (8) charges.
    fn state_values_per_param(&self) -> usize;
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    moments: std::collections::HashMap<u64, (Tensor, Tensor)>,
}

/// A process-independent snapshot of Adam's mutable state.
///
/// [`Adam`] keys its moments by `Param::id`, which is a process-global
/// counter — ids differ between the run that saved a checkpoint and the
/// run that loads it. `AdamState` therefore stores the moments
/// *positionally*, in the parameter-list order the caller passed to
/// [`Adam::export_state`]; [`Adam::import_state`] re-keys them under the
/// loading process's ids. Entries are `None` for parameters the optimizer
/// has never stepped. The learning rate is intentionally excluded: it is
/// configuration, not progress.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Number of optimizer steps taken (drives bias correction).
    pub t: i32,
    /// Per-parameter first and second moments in parameter-list order.
    pub moments: Vec<Option<(Tensor, Tensor)>>,
}

impl Adam {
    /// Adam with learning rate `lr` and the standard β/ε defaults.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: std::collections::HashMap::new(),
        }
    }

    /// Snapshots the step counter and the moments of `params`, positionally.
    pub fn export_state(&self, params: &[&Param]) -> AdamState {
        AdamState {
            t: self.t,
            moments: params
                .iter()
                .map(|p| self.moments.get(&p.id()).cloned())
                .collect(),
        }
    }

    /// Restores a snapshot taken by [`Adam::export_state`], re-keying each
    /// moment pair under the current process's `Param::id`s.
    ///
    /// # Errors
    ///
    /// Returns a message if the entry count or any moment shape does not
    /// match `params` (the optimizer is left unchanged).
    pub fn import_state(&mut self, params: &[&Param], state: &AdamState) -> Result<(), String> {
        if state.moments.len() != params.len() {
            return Err(format!(
                "optimizer state has {} entries, model has {} parameters",
                state.moments.len(),
                params.len()
            ));
        }
        for (i, (p, entry)) in params.iter().zip(&state.moments).enumerate() {
            if let Some((m, v)) = entry {
                if m.shape() != p.value().shape() || v.shape() != p.value().shape() {
                    return Err(format!(
                        "optimizer moment {i}: shape {:?}/{:?} != parameter shape {:?}",
                        m.shape(),
                        v.shape(),
                        p.value().shape()
                    ));
                }
            }
        }
        self.t = state.t;
        self.moments.clear();
        for (p, entry) in params.iter().zip(&state.moments) {
            if let Some(pair) = entry {
                self.moments.insert(p.id(), pair.clone());
            }
        }
        Ok(())
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        let coeffs = kernels::AdamCoeffs {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bias1: 1.0 - self.beta1.powi(self.t),
            bias2: 1.0 - self.beta2.powi(self.t),
        };
        for p in params.iter_mut() {
            let (m, v) = self
                .moments
                .entry(p.id())
                .or_insert_with(|| (Tensor::zeros(p.value().shape()), Tensor::zeros(p.value().shape())));
            let grad = p.grad().clone();
            kernels::adam_step(
                p.value_mut().data_mut(),
                grad.data(),
                m.data_mut(),
                v.data_mut(),
                coeffs,
            );
        }
    }

    fn state_values_per_param(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_step(opt: &mut dyn Optimizer, p: &mut Param) {
        // loss = x², grad = 2x.
        let grad = betty_tensor::kernels::scale(p.value(), 2.0);
        p.zero_grad();
        p.accumulate_grad(&grad);
        opt.step(&mut [p]);
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut p = Param::new(Tensor::from_slice(&[5.0, -3.0]));
        let mut opt = Adam::new(0.3);
        for _ in 0..200 {
            quadratic_step(&mut opt, &mut p);
        }
        assert!(p.value().max_abs() < 0.05, "{:?}", p.value());
    }

    #[test]
    fn adam_state_is_per_param() {
        let mut a = Param::new(Tensor::from_slice(&[1.0]));
        let mut b = Param::new(Tensor::from_slice(&[1.0]));
        let mut opt = Adam::new(0.1);
        a.accumulate_grad(&Tensor::from_slice(&[1.0]));
        b.accumulate_grad(&Tensor::from_slice(&[-1.0]));
        opt.step(&mut [&mut a, &mut b]);
        assert!(a.value().at(0) < 1.0);
        assert!(b.value().at(0) > 1.0);
        assert_eq!(opt.state_values_per_param(), 2);
    }

    #[test]
    fn adam_state_roundtrips_across_fresh_params() {
        // Train one Adam for a few steps, export, import into a fresh
        // optimizer over *different* Param ids, and check the next update
        // is bit-identical — the cross-process resume scenario.
        let mut a = Param::new(Tensor::from_slice(&[5.0, -3.0]));
        let mut opt = Adam::new(0.3);
        for _ in 0..5 {
            quadratic_step(&mut opt, &mut a);
        }
        let state = opt.export_state(&[&a]);
        assert_eq!(state.t, 5);

        // "Fresh process": a new Param (new id) holding the same values.
        let mut b = Param::new(a.value().clone());
        let mut opt2 = Adam::new(0.3);
        opt2.import_state(&[&b], &state).unwrap();
        quadratic_step(&mut opt, &mut a);
        quadratic_step(&mut opt2, &mut b);
        assert_eq!(a.value().data(), b.value().data());
    }

    #[test]
    fn adam_import_rejects_mismatches() {
        let p = Param::new(Tensor::from_slice(&[1.0, 2.0]));
        let mut opt = Adam::new(0.1);
        let too_few = AdamState { t: 1, moments: vec![] };
        assert!(opt.import_state(&[&p], &too_few).is_err());
        let bad_shape = AdamState {
            t: 1,
            moments: vec![Some((Tensor::zeros(&[3]), Tensor::zeros(&[3])))],
        };
        assert!(opt.import_state(&[&p], &bad_shape).is_err());
        // Unstepped parameters export as None and import cleanly.
        let none_state = AdamState { t: 0, moments: vec![None] };
        opt.import_state(&[&p], &none_state).unwrap();
        assert_eq!(opt.export_state(&[&p]), none_state);
    }
}
