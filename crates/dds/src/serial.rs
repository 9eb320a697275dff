//! The reference single-threaded DDS.
//!
//! Tolson & Shoemaker's algorithm, specialized to the discrete configuration
//! spaces of §VI: each iteration perturbs every dimension with
//! probability `p(i) = 1 − ln(i)/ln(maxIter)` (at least one), by
//! `r · #confs · N(0,1)` reflected back into range, and greedily keeps the
//! better point.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::objective::Objective;
use crate::rng::standard_normal;
use crate::{SearchResult, SearchSpace};

/// Parameters of the serial DDS run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdsParams {
    /// Iteration budget (Fig. 6: 40 for the parallel variant; the serial
    /// reference gets the equivalent sequential budget by default).
    pub max_iters: usize,
    /// Perturbation radius as a fraction of the choice range.
    pub r: f64,
    /// Number of uniformly random starting points (Fig. 6: 50).
    pub initial_points: usize,
    /// RNG seed.
    pub seed: u64,
    /// Record every evaluated point (for the Fig. 10(a) scatter).
    pub record_explored: bool,
}

impl Default for DdsParams {
    fn default() -> Self {
        DdsParams {
            max_iters: 400,
            r: 0.2,
            initial_points: 50,
            seed: 0xDD5,
            record_explored: false,
        }
    }
}

/// Runs serial DDS, maximizing `objective` over `space`.
///
/// # Panics
///
/// Panics if `max_iters == 0` or `initial_points == 0`.
pub fn search(space: &SearchSpace, objective: &dyn Objective, params: &DdsParams) -> SearchResult {
    assert!(params.max_iters > 0, "need at least one iteration");
    assert!(params.initial_points > 0, "need at least one initial point");
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut explored = Vec::new();
    let mut evaluations = 0;

    let record = |point: &[usize], value: f64, explored: &mut Vec<(Vec<usize>, f64)>| {
        if params.record_explored {
            explored.push((point.to_vec(), value));
        }
    };

    // Initial random population; best becomes the incumbent.
    let mut best_point = space.random_point(&mut rng);
    let mut best_value = objective.evaluate(&best_point);
    evaluations += 1;
    record(&best_point, best_value, &mut explored);
    for _ in 1..params.initial_points {
        let p = space.random_point(&mut rng);
        let v = objective.evaluate(&p);
        evaluations += 1;
        record(&p, v, &mut explored);
        if v > best_value {
            best_value = v;
            best_point = p;
        }
    }

    let ln_max = (params.max_iters as f64).ln().max(f64::MIN_POSITIVE);
    for i in 1..=params.max_iters {
        let p_select = 1.0 - (i as f64).ln() / ln_max;
        let mut candidate = best_point.clone();
        let mut perturbed_any = false;
        for choice in candidate.iter_mut() {
            if rng.random_range(0.0..1.0) < p_select {
                let delta = params.r * space.num_choices() as f64 * standard_normal(&mut rng);
                *choice = space.reflect(*choice as f64 + delta);
                perturbed_any = true;
            }
        }
        if !perturbed_any {
            // DDS always perturbs at least one dimension.
            let d = rng.random_range(0..space.dims());
            let delta = params.r * space.num_choices() as f64 * standard_normal(&mut rng);
            candidate[d] = space.reflect(candidate[d] as f64 + delta);
        }
        let v = objective.evaluate(&candidate);
        evaluations += 1;
        record(&candidate, v, &mut explored);
        if v > best_value {
            best_value = v;
            best_point = candidate;
        }
    }

    SearchResult {
        best_point,
        best_value,
        evaluations,
        explored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Separable objective with a unique optimum at `target` in every
    /// dimension.
    fn separable(target: usize) -> impl Fn(&[usize]) -> f64 + Sync {
        move |x: &[usize]| {
            -x.iter()
                .map(|&v| (v as f64 - target as f64).abs())
                .sum::<f64>()
        }
    }

    #[test]
    fn finds_separable_optimum() {
        let space = SearchSpace::new(10, 108);
        let result = search(&space, &separable(54), &DdsParams::default());
        // Perfect would be 0; DDS should land very close.
        assert!(
            result.best_value > -20.0,
            "best value {}",
            result.best_value
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let space = SearchSpace::new(8, 108);
        let a = search(&space, &separable(30), &DdsParams::default());
        let b = search(&space, &separable(30), &DdsParams::default());
        assert_eq!(a.best_point, b.best_point);
        assert_eq!(a.best_value, b.best_value);
    }

    #[test]
    fn more_iterations_do_not_hurt() {
        let space = SearchSpace::new(12, 108);
        let short = search(
            &space,
            &separable(100),
            &DdsParams {
                max_iters: 20,
                ..DdsParams::default()
            },
        );
        let long = search(
            &space,
            &separable(100),
            &DdsParams {
                max_iters: 2000,
                ..DdsParams::default()
            },
        );
        assert!(long.best_value >= short.best_value);
    }

    #[test]
    fn explored_points_are_recorded_when_asked() {
        let space = SearchSpace::new(4, 10);
        let params = DdsParams {
            record_explored: true,
            max_iters: 25,
            ..DdsParams::default()
        };
        let result = search(&space, &separable(5), &params);
        assert_eq!(result.explored.len(), result.evaluations);
        assert_eq!(result.evaluations, 50 + 25);
        let off = search(
            &space,
            &separable(5),
            &DdsParams {
                max_iters: 25,
                ..DdsParams::default()
            },
        );
        assert!(off.explored.is_empty());
    }

    #[test]
    fn handles_multimodal_objective() {
        // Two peaks; the global one is higher. DDS should not get stuck on
        // the local peak given its global early phase.
        let space = SearchSpace::new(6, 100);
        let objective = |x: &[usize]| {
            let d_local: f64 = x.iter().map(|&v| (v as f64 - 20.0).abs()).sum();
            let d_global: f64 = x.iter().map(|&v| (v as f64 - 80.0).abs()).sum();
            (10.0 - d_local / 10.0).max(20.0 - d_global / 10.0)
        };
        let result = search(&space, &objective, &DdsParams::default());
        assert!(
            result.best_value > 15.0,
            "should find the global basin, got {}",
            result.best_value
        );
    }
}
