//! Dynamically Dimensioned Search (DDS) for discrete configuration spaces.
//!
//! DDS (Tolson & Shoemaker, 2007) is a stochastic single-solution search
//! designed for high-dimensional, expensive objective functions: each
//! iteration perturbs a randomly chosen *subset* of dimensions of the current
//! best point, and the expected subset size shrinks from all dimensions to
//! one as the iteration budget is spent — a built-in global-to-local
//! schedule with no tuning beyond the perturbation scale `r`.
//!
//! CuttleSys (§VI) adapts DDS to the co-scheduling problem: a point is a
//! vector assigning one of `m·p = 108` (core configuration, cache allocation)
//! pairs to every batch job — the latency-critical jobs keep the QoS-safe
//! configuration and are not dimensions of the search at all — and a penalty
//! objective enforces the power and cache budgets. The crate provides:
//!
//! * [`serial`] — the reference single-threaded DDS;
//! * [`parallel`] — the paper's parallel DDS (Alg. 2): thread groups with
//!   perturbation radii `r = [0.2, 0.3, 0.4, 0.5]`, `pointsPerIteration`
//!   candidates per thread per round, and a barrier-synchronized global-best
//!   exchange. Its random draws never read the objective, so they are made
//!   once as [`Draws`] and replayed: a caller searching the same space with
//!   the same parameters every quantum keeps them and pays only for moves
//!   and evaluations. A move is stored as an integer shift wherever that
//!   provably reflects to the same choice as its `f64` delta, and each
//!   worker applies a candidate to its local best in place and undoes it
//!   when it loses;
//! * [`objective`] — the objective abstraction and the tabulated soft-penalty
//!   objective of §VI-A.
//!
//! # Quick example
//!
//! ```
//! use dds::{SearchSpace, serial::DdsParams, serial::search};
//!
//! // Pull every dimension toward 7 out of 10 choices.
//! let space = SearchSpace::new(16, 10);
//! let objective =
//!     |x: &[usize]| -x.iter().map(|&v| (v as f64 - 7.0).abs()).sum::<f64>();
//! let result = search(&space, &objective, &DdsParams::default());
//! assert!(result.best_value >= -8.0);
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod objective;
pub mod parallel;
pub mod rng;
pub mod serial;

pub use objective::{Objective, PenaltyTable};
pub use parallel::{parallel_search, parallel_search_in, Draws, ParallelDdsParams};
pub use serial::{search, DdsParams};

/// A discrete search space: `dims` decision variables, each taking a value
/// in `0..num_choices`.
///
/// Alg. 2 line 5 keeps the latency-critical service's cores at the
/// configuration the QoS scan chose; here those cores are simply not
/// dimensions — the space holds the batch jobs' slots only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    dims: usize,
    num_choices: usize,
}

impl SearchSpace {
    /// Creates a space.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `num_choices == 0`.
    pub fn new(dims: usize, num_choices: usize) -> SearchSpace {
        assert!(dims > 0, "search space needs at least one dimension");
        assert!(num_choices > 0, "each dimension needs at least one choice");
        SearchSpace { dims, num_choices }
    }

    /// Number of decision variables.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of choices per dimension (the paper's `#confs`).
    pub fn num_choices(&self) -> usize {
        self.num_choices
    }

    /// Whether `point` lies in the space.
    pub fn contains(&self, point: &[usize]) -> bool {
        point.len() == self.dims && point.iter().all(|&v| v < self.num_choices)
    }

    /// Draws a uniformly random point.
    pub fn random_point(&self, rng: &mut impl rand::RngExt) -> Vec<usize> {
        (0..self.dims)
            .map(|_| rng.random_range(0..self.num_choices))
            .collect()
    }

    /// Reflects a continuous-valued coordinate back into `[0, num_choices)`
    /// and rounds it to a valid choice (Alg. 2 lines 14-15).
    pub fn reflect(&self, value: f64) -> usize {
        let n = self.num_choices as f64;
        let mut v = value;
        // Mirror about the boundaries until inside; a couple of passes cover
        // any realistic perturbation magnitude.
        for _ in 0..64 {
            if v < 0.0 {
                v = -v;
            } else if v >= n {
                v = 2.0 * n - v - 1.0;
            } else {
                break;
            }
        }
        (v.round().max(0.0) as usize).min(self.num_choices - 1)
    }
}

/// Result of a DDS run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The best point found.
    pub best_point: Vec<usize>,
    /// Objective value at the best point.
    pub best_value: f64,
    /// Number of objective evaluations spent.
    pub evaluations: usize,
    /// Every point evaluated, with its objective value, when recording was
    /// requested (Fig. 10(a)); empty otherwise.
    pub explored: Vec<(Vec<usize>, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn space_accessors() {
        let s = SearchSpace::new(4, 10);
        assert_eq!(s.dims(), 4);
        assert_eq!(s.num_choices(), 10);
    }

    #[test]
    fn contains_checks_bounds_and_length() {
        let s = SearchSpace::new(3, 5);
        assert!(s.contains(&[2, 4, 0]));
        assert!(!s.contains(&[2, 5, 0]), "out of range");
        assert!(!s.contains(&[2, 4]), "wrong length");
    }

    #[test]
    fn random_points_lie_in_the_space() {
        let s = SearchSpace::new(6, 108);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert!(s.contains(&s.random_point(&mut rng)));
        }
    }

    #[test]
    fn reflection_stays_in_bounds() {
        let s = SearchSpace::new(1, 108);
        for v in [-250.0, -107.9, -0.4, 0.0, 53.7, 107.4, 108.0, 250.0, 1e6] {
            let r = s.reflect(v);
            assert!(r < 108, "reflect({v}) = {r} out of bounds");
        }
        // Interior values round.
        assert_eq!(s.reflect(53.4), 53);
        assert_eq!(s.reflect(-2.0), 2);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_space_rejected() {
        let _ = SearchSpace::new(0, 5);
    }
}
