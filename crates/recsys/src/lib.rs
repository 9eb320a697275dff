//! Collaborative filtering for performance/power inference.
//!
//! CuttleSys infers each job's throughput, tail latency, and power across all
//! 108 resource configurations from two profiling samples plus a library of
//! offline-characterized "known" applications. The machinery is
//! PQ-reconstruction (§V, Alg. 1): the sparse job × configuration rating
//! matrix is factored as `R ≈ Q·Pᵀ`, initialized from a truncated SVD of the
//! mean-imputed matrix and refined by Stochastic Gradient Descent over the
//! observed entries. The decision quantum does not re-run that fit: the
//! known applications never change, so SGD learns the configuration side of
//! the factorization from them once and each live row is then folded in —
//! solved in closed form from its own samples.
//!
//! Modules:
//!
//! * [`matrix`] — sparse rating matrices and dense results.
//! * [`svd`] — truncated SVD by power iteration, used to initialize P and Q.
//! * [`sgd`] — the serial reference SGD (Alg. 1): the learner of the
//!   configuration factors and the reference joint solver.
//! * [`foldin`] — configuration factors learned once from the dense rows,
//!   and the closed-form ridge solve that completes a live row against them
//!   (what the Resource Controller runs every decision interval).
//! * [`hogwild`] — the lock-free parallel SGD of §V (HOGWILD-style, no
//!   synchronization primitives, small bounded inaccuracy).
//! * [`reconstruction`] — the joint fit over a whole matrix with value
//!   transforms and observed-entry overlays: the paper's per-interval
//!   reconstruction, kept as the reference the fold-in is measured against.
//!
//! # Quick example
//!
//! ```
//! use recsys::{RatingMatrix, Reconstructor, ValueTransform};
//!
//! // 4 fully-known rows plus one new row with 2 observations.
//! let mut m = RatingMatrix::new(5, 6);
//! for r in 0..4 {
//!     for c in 0..6 {
//!         m.set(r, c, 1.0 + r as f64 + 0.5 * c as f64);
//!     }
//! }
//! m.set(4, 0, 3.0);
//! m.set(4, 5, 5.5);
//! let completed = Reconstructor::default().complete(&m, ValueTransform::Linear);
//! assert!(completed.get(4, 2).is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod foldin;
pub mod hogwild;
pub mod matrix;
pub mod reconstruction;
pub mod sgd;
pub mod svd;

pub use foldin::ConfigFactors;
pub use matrix::{DenseMatrix, RatingMatrix};
pub use reconstruction::{Reconstructor, SessionInput, ValueTransform};
pub use sgd::{SgdConfig, SgdModel};
