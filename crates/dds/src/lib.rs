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
//! pairs to every batch job, the latency-critical job's dimensions are frozen
//! to the QoS-safe configuration, and a penalty objective enforces the power
//! and cache budgets. The crate provides:
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
/// in `0..num_choices`, with an optional set of frozen dimensions.
///
/// Frozen dimensions implement Alg. 2 line 5: cores assigned to the
/// latency-critical service keep the configuration chosen by the QoS scan
/// while DDS explores the batch jobs' dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    dims: usize,
    num_choices: usize,
    frozen: Vec<Option<usize>>,
}

impl SearchSpace {
    /// Creates a space with no frozen dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `num_choices == 0`.
    pub fn new(dims: usize, num_choices: usize) -> SearchSpace {
        assert!(dims > 0, "search space needs at least one dimension");
        assert!(num_choices > 0, "each dimension needs at least one choice");
        SearchSpace {
            dims,
            num_choices,
            frozen: vec![None; dims],
        }
    }

    /// Freezes dimension `dim` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `value` is out of range.
    pub fn freeze(&mut self, dim: usize, value: usize) {
        assert!(dim < self.dims, "dimension {dim} out of range");
        assert!(value < self.num_choices, "value {value} out of range");
        self.frozen[dim] = Some(value);
    }

    /// Number of decision variables.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of choices per dimension (the paper's `#confs`).
    pub fn num_choices(&self) -> usize {
        self.num_choices
    }

    /// The frozen value of `dim`, if any.
    pub fn frozen_value(&self, dim: usize) -> Option<usize> {
        self.frozen[dim]
    }

    /// Indices of the dimensions DDS may perturb.
    pub fn free_dims(&self) -> Vec<usize> {
        (0..self.dims)
            .filter(|&d| self.frozen[d].is_none())
            .collect()
    }

    /// Whether `point` lies in the space and honours the frozen values.
    pub fn contains(&self, point: &[usize]) -> bool {
        point.len() == self.dims
            && point.iter().all(|&v| v < self.num_choices)
            && self
                .frozen
                .iter()
                .zip(point)
                .all(|(f, &v)| f.is_none_or(|fv| fv == v))
    }

    /// Draws a uniformly random point honouring the frozen dimensions.
    pub fn random_point(&self, rng: &mut impl rand::RngExt) -> Vec<usize> {
        (0..self.dims)
            .map(|d| self.frozen[d].unwrap_or_else(|| rng.random_range(0..self.num_choices)))
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
        let mut s = SearchSpace::new(4, 10);
        assert_eq!(s.dims(), 4);
        assert_eq!(s.num_choices(), 10);
        s.freeze(1, 7);
        assert_eq!(s.frozen_value(1), Some(7));
        assert_eq!(s.free_dims(), vec![0, 2, 3]);
    }

    #[test]
    fn contains_checks_bounds_and_frozen() {
        let mut s = SearchSpace::new(3, 5);
        s.freeze(0, 2);
        assert!(s.contains(&[2, 4, 0]));
        assert!(!s.contains(&[1, 4, 0]), "frozen value violated");
        assert!(!s.contains(&[2, 5, 0]), "out of range");
        assert!(!s.contains(&[2, 4]), "wrong length");
    }

    #[test]
    fn random_points_honour_frozen_dims() {
        let mut s = SearchSpace::new(6, 108);
        s.freeze(0, 42);
        s.freeze(5, 3);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let p = s.random_point(&mut rng);
            assert!(s.contains(&p));
            assert_eq!(p[0], 42);
            assert_eq!(p[5], 3);
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
