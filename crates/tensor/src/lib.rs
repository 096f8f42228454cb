//! Dense `f32` tensors and a tape-based reverse-mode autograd engine.
//!
//! This crate is the numerical substrate of the Betty reproduction. It
//! provides:
//!
//! * [`Tensor`] — a contiguous, row-major, reference-counted `f32` tensor
//!   with the dense kernels GNN training needs (elementwise ops, matmul,
//!   reductions, row gather/scatter, and segment reductions used by graph
//!   aggregation).
//! * [`Graph`] — a dynamic computation tape. Operations record enough state
//!   to run reverse-mode differentiation; [`Graph::backward`] produces
//!   gradients for every reachable leaf.
//! * [`check`] — finite-difference gradient checking used by the test suite.
//!
//! # Example
//!
//! ```
//! use betty_tensor::{Graph, Tensor};
//!
//! let mut g = Graph::new();
//! let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap());
//! let w = g.leaf(Tensor::from_vec(vec![0.5, -1.0, 0.25, 2.0], &[2, 2]).unwrap());
//! let y = g.matmul(x, w);
//! let loss = g.sum(y);
//! g.backward(loss);
//! let dw = g.grad(w).expect("w participates in loss");
//! assert_eq!(dw.shape(), &[2, 2]);
//! ```

#![deny(missing_docs)]

mod affine;
mod crc;
mod error;
mod graph;
mod lstm;
mod pool;
mod tensor;

pub(crate) mod backend;
pub mod check;
pub mod dtype;
pub(crate) mod init;
pub mod kernels;
pub mod sealed;
pub mod segment;

pub use backend::{set_backend_override, with_backend, Backend};
pub use crc::crc32;
pub use dtype::DType;
pub use error::TensorError;
pub use graph::{AffineTerm, Graph, Reduction, VarId};
pub use pool::PoolStats;
pub use init::{glorot_uniform, randn};
pub use tensor::Tensor;

/// Convenient result alias for fallible tensor operations.
pub(crate) type Result<T> = std::result::Result<T, TensorError>;
