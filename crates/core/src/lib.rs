//! # Variance-Aware Quantization (VAQ)
//!
//! From-scratch Rust implementation of the primary contribution of
//! *"Fast Adaptive Similarity Search through Variance-Aware Quantization"*
//! (Paparrizos, Edian, Liu, Elmore, Franklin — ICDE 2022).
//!
//! VAQ is a product-quantization-family encoder that, instead of giving
//! every subspace the same dictionary, **adapts dictionary sizes to the
//! importance of each subspace** (its share of the data variance) and
//! accelerates queries with two hardware-oblivious pruning strategies.
//! The pipeline (paper Algorithms 1–5):
//!
//! 1. [`subspaces`] — `VarPCA`: eigendecompose the covariance, use
//!    normalized eigenvalue energy as per-dimension importance (Eq. 6);
//!    build subspaces either uniformly or by clustering the variance
//!    vector (non-uniform), repair the importance ordering, and *partially
//!    balance* importance by bounded PC swaps (§III-B, §III-C).
//! 2. [`allocation`] — solve a mixed-integer linear program to allocate the
//!    bit budget across subspaces proportionally to their importance,
//!    under constraints C1–C4 (§III-C).
//! 3. [`encoder`] — build *variable-sized* dictionaries with k-means
//!    (hierarchical beyond 2^10 items) and encode the database (§III-D).
//! 4. [`ti`] + [`search`] — partition the encoded data around sampled
//!    centroids, cache code→centroid distances, sort each partition, and
//!    at query time combine triangle-inequality data skipping with
//!    early-abandoned table lookups (§III-E).
//!
//! The entry point is [`Vaq::train`] / [`Vaq::search`]:
//!
//! ```
//! use vaq_core::{Vaq, VaqConfig};
//! use vaq_linalg::Matrix;
//!
//! // 64 three-dimensional vectors on a noisy line.
//! let rows: Vec<Vec<f32>> = (0..64)
//!     .map(|i| {
//!         let t = i as f32 / 8.0;
//!         vec![t, 2.0 * t + 0.01 * (i as f32).sin(), 0.1 * (i % 3) as f32]
//!     })
//!     .collect();
//! let data = Matrix::from_rows(&rows);
//! let cfg = VaqConfig::new(12, 3); // 12-bit budget, 3 subspaces
//! let vaq = Vaq::train(&data, &cfg).unwrap();
//! let hits = vaq.search(data.row(10), 3).unwrap();
//! assert_eq!(hits[0].index, 10); // a database vector finds itself
//! ```

#![forbid(unsafe_code)]

pub mod allocation;
pub mod audit;
pub mod encoder;
pub mod engine;
pub mod faults;
pub mod ivf;
pub mod obs;
pub mod persist;
pub mod pipeline;
pub mod search;
pub mod segment;
pub mod subspaces;
pub mod sync;
pub mod threads;
pub mod ti;
pub mod vaq;

pub use allocation::{
    allocate_bits, allocate_bits_constrained, greedy_allocation, AllocationConstraint,
    AllocationStrategy,
};
pub use audit::{Audit, AuditIssue, AuditReport};
pub use engine::{IndexView, QueryEngine};
pub use ivf::{VaqIvf, VaqIvfConfig};
pub use pipeline::{BitPlan, DictionaryStage, SubspacePlan, VarPcaStage};
pub use search::{Neighbor, SearchStats, SearchStrategy};
pub use segment::{SegmentPolicy, SegmentSearcher, SegmentSet, SegmentedVaq};
pub use subspaces::{SubspaceLayout, SubspaceMode};
pub use vaq::{IngressPolicy, Vaq, VaqConfig};
/// CRC-32C, the checksum of every extent and WAL record: the in-register
/// kernels live beside the scan kernels in `vaq-linalg`, since this crate
/// forbids `unsafe`.
pub use vaq_linalg::crc;

use std::fmt;
use vaq_kmeans::KMeansError;
use vaq_linalg::LinalgError;
use vaq_milp::SolveError;

/// Errors produced while training or querying VAQ.
#[derive(Debug, Clone)]
pub enum VaqError {
    /// Training data was empty.
    EmptyData,
    /// Configuration is internally inconsistent (detail in message).
    BadConfig(String),
    /// The bit budget cannot satisfy the per-subspace bounds.
    InfeasibleBudget {
        /// Requested total bits.
        budget: usize,
        /// Number of subspaces.
        subspaces: usize,
        /// Minimum bits per subspace.
        min_bits: usize,
        /// Maximum bits per subspace.
        max_bits: usize,
    },
    /// Ingress validation found a NaN/Inf value and the configured
    /// [`IngressPolicy`] is `Reject`.
    NonFinite {
        /// Row of the first offending value.
        row: usize,
        /// Column of the first offending value.
        col: usize,
    },
    /// A linear-algebra routine failed.
    Linalg(LinalgError),
    /// A k-means dictionary build failed.
    KMeans(KMeansError),
    /// The MILP solver failed in a way no fallback covers.
    Solve(SolveError),
    /// A fault-injection site fired (only with the `faults` feature).
    Injected {
        /// The registered fault-site name.
        site: &'static str,
    },
    /// An internal numeric routine failed (propagated message).
    Numeric(String),
    /// A filesystem operation failed while saving or loading an index
    /// (or appending to its write-ahead log). Unlike [`BadConfig`], the
    /// underlying [`std::io::Error`] is preserved so callers can walk
    /// the `source()` chain and match on `ErrorKind`.
    ///
    /// [`BadConfig`]: VaqError::BadConfig
    Io {
        /// The file or directory the operation targeted.
        path: std::path::PathBuf,
        /// The underlying IO failure (`Arc`-wrapped: `std::io::Error` is
        /// not `Clone`, and `VaqError` must stay cheaply clonable).
        source: crate::sync::Arc<std::io::Error>,
    },
}

impl VaqError {
    /// Builds an [`VaqError::Io`] from a path and the failed operation's
    /// error.
    pub fn io(path: impl Into<std::path::PathBuf>, source: std::io::Error) -> VaqError {
        VaqError::Io { path: path.into(), source: crate::sync::Arc::new(source) }
    }
}

/// Structural equality. Two [`VaqError::Io`] values compare equal when
/// their paths, [`std::io::ErrorKind`]s, and rendered messages agree —
/// `std::io::Error` itself has no equality, and tests only ever compare
/// errors for shape, never for OS-handle identity.
impl PartialEq for VaqError {
    fn eq(&self, other: &Self) -> bool {
        use VaqError::*;
        match (self, other) {
            (EmptyData, EmptyData) => true,
            (BadConfig(a), BadConfig(b)) => a == b,
            (
                InfeasibleBudget { budget, subspaces, min_bits, max_bits },
                InfeasibleBudget { budget: b2, subspaces: s2, min_bits: lo2, max_bits: hi2 },
            ) => budget == b2 && subspaces == s2 && min_bits == lo2 && max_bits == hi2,
            (NonFinite { row, col }, NonFinite { row: r2, col: c2 }) => row == r2 && col == c2,
            (Linalg(a), Linalg(b)) => a == b,
            (KMeans(a), KMeans(b)) => a == b,
            (Solve(a), Solve(b)) => a == b,
            (Injected { site: a }, Injected { site: b }) => a == b,
            (Numeric(a), Numeric(b)) => a == b,
            (Io { path: p1, source: e1 }, Io { path: p2, source: e2 }) => {
                p1 == p2 && e1.kind() == e2.kind() && e1.to_string() == e2.to_string()
            }
            _ => false,
        }
    }
}

impl fmt::Display for VaqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VaqError::EmptyData => write!(f, "training data is empty"),
            VaqError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            VaqError::InfeasibleBudget { budget, subspaces, min_bits, max_bits } => write!(
                f,
                "budget of {budget} bits cannot be split over {subspaces} subspaces \
                 with {min_bits}..={max_bits} bits each"
            ),
            VaqError::NonFinite { row, col } => {
                write!(f, "ingress rejected non-finite value at row {row}, column {col}")
            }
            VaqError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            VaqError::KMeans(e) => write!(f, "k-means failure: {e}"),
            VaqError::Solve(e) => write!(f, "bit-allocation solver failure: {e}"),
            VaqError::Injected { site } => write!(f, "injected fault at site `{site}`"),
            VaqError::Numeric(msg) => write!(f, "numeric failure: {msg}"),
            VaqError::Io { path, source } => {
                write!(f, "io failure at {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for VaqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VaqError::Linalg(e) => Some(e),
            VaqError::KMeans(e) => Some(e),
            VaqError::Solve(e) => Some(e),
            VaqError::Io { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<LinalgError> for VaqError {
    fn from(e: LinalgError) -> Self {
        VaqError::Linalg(e)
    }
}

impl From<KMeansError> for VaqError {
    fn from(e: KMeansError) -> Self {
        VaqError::KMeans(e)
    }
}

impl From<SolveError> for VaqError {
    fn from(e: SolveError) -> Self {
        VaqError::Solve(e)
    }
}
