//! Minimal, dependency-light f32 tensor math for the ShiftEx reproduction.
//!
//! This crate provides the numeric substrate used by every other crate in the
//! workspace: a row-major [`Matrix`] type with the linear-algebra operations a
//! small neural-network library needs, free-function vector helpers in
//! [`vector`], seedable sampling distributions in [`rngx`] (normal, gamma,
//! Dirichlet — implemented from scratch so the workspace depends only on the
//! `rand` core) and descriptive statistics in [`stats`]. Naive reference
//! implementations of the blocked kernels live in [`naive`] for equivalence
//! testing.
//!
//! Every kernel runs on the caller's thread: the crate spawns none, so no
//! result depends on the core count. A federation gets its parallelism from
//! its parties, one process each; no product the shipped models form is
//! large enough to repay a thread spawn.
//!
//! # Example
//!
//! ```
//! use shiftex_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

// `deny` rather than `forbid`: the one exception is the explicit-SIMD
// kernel module, which carries its own scoped `allow` and documents why
// autovectorization alone cannot be trusted on the Gram-matrix hot path.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod gemm;
mod matrix;
pub mod rngx;
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
mod simd;
pub mod stats;
pub mod vector;

pub use gemm::{gemm_acc, gemm_acc_strided, sq_dist_acc, MR, NR};
pub use matrix::{naive, Matrix};

/// Error type for shape mismatches and invalid numeric arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes; payload is a human-readable
    /// description of the expected vs. actual shapes.
    ShapeMismatch(String),
    /// A numeric argument was outside its valid domain.
    InvalidArgument(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}
