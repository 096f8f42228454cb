use std::collections::HashMap;

use betty_tensor::{Graph, VarId};

use crate::models::GnnModel;
use crate::Param;

/// One forward/backward pass: a fresh autograd tape plus the bindings from
/// persistent [`Param`]s to their tape leaves.
///
/// GNN forward passes are shaped by the sampled batch, so every
/// (micro-)batch gets its own `Session`. Binding is idempotent within a
/// session — a parameter used by several layers (or several times by an
/// unrolled LSTM) maps to a single leaf, so its gradient contributions
/// accumulate on the tape as they should.
#[derive(Debug, Default)]
pub struct Session {
    /// The underlying autograd tape; layers build their ops on it directly.
    pub graph: Graph,
    bindings: HashMap<u64, VarId>,
}

impl Session {
    /// Creates an empty session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the tape and bindings for the next micro-batch while keeping
    /// the tape's buffer pool warm: values and gradients from the finished
    /// step are recycled instead of freed, so rebuilding a same-shaped
    /// forward pass performs almost no heap allocation.
    pub fn reset(&mut self) {
        self.graph.reset();
        self.bindings.clear();
    }

    /// Returns the tape leaf bound to `param`, creating it on first use.
    pub(crate) fn bind(&mut self, param: &Param) -> VarId {
        if let Some(&v) = self.bindings.get(&param.id()) {
            return v;
        }
        let v = self.graph.leaf(param.value().clone());
        self.bindings.insert(param.id(), v);
        v
    }

    /// Runs backward from `loss` and adds each bound parameter's tape
    /// gradient into its persistent [`Param::grad`].
    ///
    /// Parameters that did not participate in `loss` are left untouched.
    pub fn backward(&mut self, loss: VarId, model: &mut dyn GnnModel) {
        self.graph.backward(loss);
        let Session { graph, bindings } = self;
        model.for_each_param_mut(&mut |param| {
            if let Some(&var) = bindings.get(&param.id()) {
                if let Some(grad) = graph.grad(var) {
                    param.accumulate_grad(grad);
                }
            }
        });
    }

    /// Total bytes of forward activations held by the tape — what the
    /// device simulator charges as activation memory.
    pub fn activation_bytes(&self) -> usize {
        self.graph.activation_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty_tensor::Tensor;

    // Lets generic tape utilities such as
    // `betty_tensor::check::check_gradient` drive layer code.
    impl Session {
        pub(crate) fn from_graph(graph: Graph) -> Self {
            Self {
                graph,
                bindings: HashMap::new(),
            }
        }

        pub(crate) fn into_graph(self) -> Graph {
            self.graph
        }
    }

    #[test]
    fn bind_is_idempotent() {
        let mut s = Session::new();
        let p = Param::new(Tensor::ones(&[2]));
        let a = s.bind(&p);
        let b = s.bind(&p);
        assert_eq!(a, b);
        assert_eq!(s.graph.len(), 1);
    }

    /// A bound leaf shares the parameter's storage through a forward and
    /// backward pass and a reset, which is why the estimator charges a
    /// parameter once (item 1) and not again as a tape value.
    #[test]
    fn bound_leaf_aliases_the_resident_parameter() {
        let mut s = Session::new();
        let p = Param::new(Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[2, 2]).unwrap());
        let v = s.bind(&p);
        assert_eq!(s.graph.value(v).data().as_ptr(), p.value().data().as_ptr());
        let r = s.graph.relu(v);
        let loss = s.graph.sum(r);
        s.graph.backward(loss);
        assert_eq!(s.graph.value(v).data().as_ptr(), p.value().data().as_ptr());
        s.reset();
        assert_eq!(p.value().data(), &[1.0, -2.0, 3.0, -4.0]);
    }

    #[test]
    fn distinct_params_get_distinct_leaves() {
        let mut s = Session::new();
        let p = Param::new(Tensor::ones(&[2]));
        let q = Param::new(Tensor::ones(&[2]));
        assert_ne!(s.bind(&p), s.bind(&q));
    }

    #[test]
    fn reset_clears_bindings_and_recycles_tape() {
        let mut s = Session::new();
        let p = Param::new(Tensor::ones(&[2, 2]));
        s.bind(&p);
        s.reset();
        assert_eq!(s.graph.len(), 0);
        assert_eq!(s.activation_bytes(), 0);
        // The session stays usable after reset, and binding again makes a
        // fresh leaf rather than returning the cleared one.
        let v = s.bind(&p);
        assert_eq!(s.graph.len(), 1);
        let w = s.graph.relu(v);
        assert_eq!(s.graph.value(w).shape(), &[2, 2]);
    }
}
