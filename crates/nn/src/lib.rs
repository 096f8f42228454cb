//! GNN layers, aggregators, losses and optimizers for the Betty training
//! system.
//!
//! Built on [`betty_tensor`]'s tape autograd and [`betty_graph`]'s bipartite
//! [`betty_graph::Block`]s, this crate provides the neural substrate the
//! paper trains:
//!
//! * [`SageConv`] — GraphSAGE convolution with the four aggregators of
//!   Table 1 ([`Aggregator::Mean`], [`Aggregator::Sum`], pooling, and the
//!   memory-hungry LSTM aggregator, one packed sequence per layer).
//! * [`GatConv`] — multi-head graph attention.
//! * [`GcnConv`] / [`GinConv`] — the GCN and GIN convolutions.
//! * [`Stack`] — the one multi-layer model: a [`Conv`] per block, the
//!   [`GnnModel`] the trainer drives. [`GraphSage`], [`Gat`], [`Gcn`] and
//!   [`Gin`] are its four instances.
//! * [`Params`] — one parameter walk per owner, in the one order the
//!   optimizer, checkpoints and gradient accumulation share.
//! * [`Session`] — binds persistent [`Param`]s to tape variables for one
//!   forward/backward pass and accumulates gradients back, which is what
//!   makes micro-batch gradient accumulation (§4.2) a one-liner.
//! * [`Adam`] — the optimizer; [`schedule`] — learning-rate schedules.
//!
//! # Example: one training step
//!
//! ```
//! use betty_graph::{Batch, Block};
//! use betty_nn::{Adam, AggregatorSpec, GnnModel, GraphSage, Optimizer, Session};
//! use betty_tensor::{Reduction, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_pcg::Pcg64Mcg::seed_from_u64(0);
//! let mut model = GraphSage::new(4, 8, 3, 1, AggregatorSpec::Mean, 0.0, &mut rng);
//! let batch = Batch::new(vec![Block::new(vec![0, 1], &[(2, 0), (3, 1)])]);
//! let feats = Tensor::ones(&[4, 4]);
//!
//! let mut sess = Session::new();
//! let x = sess.graph.leaf(feats);
//! let logits = model.forward(&mut sess, batch.blocks(), x, true, &mut rng);
//! let loss = sess.graph.cross_entropy(logits, &[0, 2], Reduction::Mean);
//! sess.backward(loss, &mut model);
//! Adam::new(1e-2).step(&mut model.params_mut());
//! ```

#![deny(missing_docs)]

mod aggregator;
pub mod checkpoint;
mod gat;
mod gcn;
mod gin;
mod linear;
mod lstm;
mod models;
mod optim;
mod param;
mod sage;
pub mod schedule;
mod session;

pub use aggregator::{Aggregator, AggregatorSpec};
pub use checkpoint::{
    load_checkpoint, load_train_state, save_checkpoint, save_train_state, CheckpointError,
    TrainState,
};
pub use gat::GatConv;
pub use gat::HeadMerge;
pub use gcn::GcnConv;
pub use gin::GinConv;
pub use linear::Linear;
pub use lstm::LstmCell;
pub use models::{Conv, Gat, Gcn, Gin, GnnModel, GraphSage, Stack};
pub use optim::{Adam, AdamState, Optimizer};
pub use param::{Param, Params};
pub use sage::SageConv;
pub use schedule::{CosineAnnealing, LrSchedule, StepDecay};
pub use session::Session;
