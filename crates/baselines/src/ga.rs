//! Generational genetic algorithm over discrete configuration spaces.
//!
//! Flicker's design-space optimizer, and the comparison point for Fig. 10:
//! the paper swaps DDS for a GA (keeping SGD for inference) and measures up
//! to 19 % lower throughput at equal time budget. The implementation is a
//! standard generational GA — tournament selection, uniform crossover,
//! per-gene mutation, elitism — over the same [`SearchSpace`] abstraction
//! DDS uses, so budget-matched comparisons are exact (both count objective
//! evaluations).

use dds::{Objective, SearchResult, SearchSpace};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// GA hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaParams {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Probability of crossover (else the fitter parent is cloned).
    pub crossover_rate: f64,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// RNG seed.
    pub seed: u64,
    /// Record every evaluated point (for the Fig. 10(a) scatter).
    pub record_explored: bool,
}

impl Default for GaParams {
    fn default() -> Self {
        GaParams {
            population: 50,
            generations: 40,
            tournament: 3,
            crossover_rate: 0.9,
            mutation_rate: 0.05,
            elitism: 2,
            seed: 0x6A,
            record_explored: false,
        }
    }
}

impl GaParams {
    /// Sizes the GA to spend approximately `budget` objective evaluations,
    /// for fair comparisons against a DDS run.
    pub fn with_evaluation_budget(mut self, budget: usize) -> GaParams {
        self.generations = (budget / self.population).max(1);
        self
    }
}

/// Runs the GA, maximizing `objective` over `space`.
///
/// # Panics
///
/// Panics if `population < 2`, `tournament == 0`, or
/// `elitism >= population`.
pub fn ga_search(
    space: &SearchSpace,
    objective: &dyn Objective,
    params: &GaParams,
) -> SearchResult {
    assert!(params.population >= 2, "population must be at least 2");
    assert!(params.tournament > 0, "tournament size must be positive");
    assert!(
        params.elitism < params.population,
        "elitism must leave room for offspring"
    );
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut explored = Vec::new();
    let mut evaluations = 0;

    let evaluate =
        |point: &[usize], explored: &mut Vec<(Vec<usize>, f64)>, evaluations: &mut usize| {
            let v = objective.evaluate(point);
            *evaluations += 1;
            if params.record_explored {
                explored.push((point.to_vec(), v));
            }
            v
        };

    let mut population: Vec<(Vec<usize>, f64)> = (0..params.population)
        .map(|_| {
            let p = space.random_point(&mut rng);
            let v = evaluate(&p, &mut explored, &mut evaluations);
            (p, v)
        })
        .collect();

    for _ in 0..params.generations {
        population.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut next: Vec<(Vec<usize>, f64)> =
            population.iter().take(params.elitism).cloned().collect();
        while next.len() < params.population {
            let pick = |rng: &mut StdRng| -> usize {
                let mut best = rng.random_range(0..population.len());
                for _ in 1..params.tournament {
                    let c = rng.random_range(0..population.len());
                    if population[c].1 > population[best].1 {
                        best = c;
                    }
                }
                best
            };
            let a = pick(&mut rng);
            let b = pick(&mut rng);
            let mut child = if rng.random_range(0.0..1.0) < params.crossover_rate {
                // Uniform crossover.
                let (pa, pb) = (&population[a].0, &population[b].0);
                let mut c = pa.clone();
                for (gene, &other) in c.iter_mut().zip(pb) {
                    if rng.random_range(0.0..1.0) < 0.5 {
                        *gene = other;
                    }
                }
                c
            } else {
                let fitter = if population[a].1 >= population[b].1 {
                    a
                } else {
                    b
                };
                population[fitter].0.clone()
            };
            for gene in child.iter_mut() {
                if rng.random_range(0.0..1.0) < params.mutation_rate {
                    *gene = rng.random_range(0..space.num_choices());
                }
            }
            let v = evaluate(&child, &mut explored, &mut evaluations);
            next.push((child, v));
        }
        population = next;
    }

    population.sort_by(|a, b| b.1.total_cmp(&a.1));
    let (best_point, best_value) = population.swap_remove(0);
    SearchResult {
        best_point,
        best_value,
        evaluations,
        scored: evaluations,
        explored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable(target: usize) -> impl Fn(&[usize]) -> f64 + Sync {
        move |x: &[usize]| {
            -x.iter()
                .map(|&v| (v as f64 - target as f64).abs())
                .sum::<f64>()
        }
    }

    #[test]
    fn finds_separable_optimum_neighbourhood() {
        let space = SearchSpace::new(10, 108);
        let result = ga_search(&space, &separable(54), &GaParams::default());
        assert!(result.best_value > -80.0, "best {}", result.best_value);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let space = SearchSpace::new(8, 108);
        let a = ga_search(&space, &separable(30), &GaParams::default());
        let b = ga_search(&space, &separable(30), &GaParams::default());
        assert_eq!(a.best_point, b.best_point);
    }

    #[test]
    fn budget_sizing_controls_evaluations() {
        let space = SearchSpace::new(4, 20);
        let params = GaParams::default().with_evaluation_budget(500);
        let result = ga_search(&space, &separable(10), &params);
        assert_eq!(
            result.evaluations,
            50 + params.generations * (50 - params.elitism)
        );
        assert!(result.evaluations <= 550 + 50);
    }

    #[test]
    fn explored_points_recorded_when_asked() {
        let space = SearchSpace::new(4, 10);
        let params = GaParams {
            record_explored: true,
            generations: 3,
            ..GaParams::default()
        };
        let result = ga_search(&space, &separable(5), &params);
        assert_eq!(result.explored.len(), result.evaluations);
    }

    #[test]
    #[should_panic(expected = "population must be at least 2")]
    fn tiny_population_rejected() {
        let space = SearchSpace::new(2, 4);
        let _ = ga_search(
            &space,
            &separable(1),
            &GaParams {
                population: 1,
                ..GaParams::default()
            },
        );
    }
}
