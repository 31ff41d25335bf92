//! Dense linear algebra substrate for the VAQ reproduction.
//!
//! The VAQ pipeline ("Fast Adaptive Similarity Search through Variance-Aware
//! Quantization", ICDE 2022) measures the importance of data dimensions
//! through the eigen-spectrum of the covariance matrix (Algorithm 1,
//! `VarPCA`). The baselines it compares against need a little more: OPQ's
//! non-parametric variant solves an orthogonal Procrustes problem per
//! iteration and ITQ alternates sign-quantization with Procrustes rotations.
//!
//! This crate provides exactly that surface, implemented from scratch:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix tuned for bulk row access
//!   (each row is one data vector, matching how quantizers scan data).
//! * [`DMatrix`] — a small row-major `f64` matrix used for covariance /
//!   eigen work where `f32` accumulation error would distort eigenvalues.
//! * [`eigen::sym_eigen`] — cyclic Jacobi eigendecomposition for symmetric
//!   matrices (covariance matrices are symmetric PSD).
//! * [`svd::svd`] / [`svd::procrustes`] — singular value decomposition via
//!   the eigendecomposition of `AᵀA`, and the orthogonal Procrustes solve
//!   `argmin_R ‖A − BR‖` built on it.
//! * [`pca::Pca`] — principal component analysis: fit on a sample, project
//!   data and queries, expose the explained-variance profile that drives
//!   VAQ's bit allocation.
//!
//! Beside it sit the pieces that need `unsafe` and so cannot live in
//! `vaq-core`: the quantized scan kernels ([`qtables`]), the mapped
//! storage ([`mmap`]) and the CRC-32C that guards every durable byte
//! ([`crc`]).
//!
//! Everything is deterministic: no randomized algorithms are used, so the
//! same input always yields the same rotation, which keeps the experiment
//! harness reproducible.

pub mod covariance;
pub mod crc;
pub mod eigen;
pub mod matrix;
pub mod mmap;
pub mod norms;
pub mod pca;
pub mod qtables;
pub mod svd;
pub mod tables;

pub use covariance::{column_means, covariance, covariance_centered};
pub use eigen::{sym_eigen, SymEigen};
pub use matrix::{DMatrix, Matrix};
pub use mmap::{
    CodesStorage, ExtentSpan, F32Storage, MappedRegion, MappedSpan, U16Storage, U32Storage,
    U64Storage, PAGE_ALIGN,
};
pub use norms::{dot, euclidean, hamming, squared_euclidean};
pub use pca::Pca;
pub use qtables::{
    accumulate_qsums, accumulate_qsums_multi, accumulate_qsums_with, active_kernel,
    install_kernel_timing_hook, kernel_supported, prefetch_read, KernelTimingHook, PackedCodes,
    PackedRow, QuantizedTables, ScanKernel, QUERY_TILE,
};
pub use svd::{procrustes, svd, Svd};
pub use tables::{squared_distances_into, TableArena};

use std::fmt;

/// Errors produced by the linear-algebra layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// The input matrix was expected to be square.
    NotSquare {
        /// Actual shape.
        shape: (usize, usize),
    },
    /// An iterative routine failed to converge within its iteration cap.
    NoConvergence {
        /// The routine that failed.
        routine: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// The input was empty where at least one row/column is required.
    Empty {
        /// The operation that received empty input.
        op: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "expected square matrix, got {}x{}", shape.0, shape.1)
            }
            LinalgError::NoConvergence { routine, iterations } => {
                write!(f, "{routine} did not converge after {iterations} iterations")
            }
            LinalgError::Empty { op } => write!(f, "{op} requires non-empty input"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
