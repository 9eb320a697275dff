//! Objective functions and the soft-penalty combinator of §VI-A.

/// A maximization objective over discrete configuration vectors.
///
/// Implemented for closures, so ad-hoc objectives read naturally:
///
/// ```
/// use dds::Objective;
/// let o = |x: &[usize]| x.iter().sum::<usize>() as f64;
/// assert_eq!(o.evaluate(&[1, 2, 3]), 6.0);
/// ```
pub trait Objective: Sync {
    /// Returns the objective value at `point`; higher is better.
    fn evaluate(&self, point: &[usize]) -> f64;
}

impl<F> Objective for F
where
    F: Fn(&[usize]) -> f64 + Sync,
{
    fn evaluate(&self, point: &[usize]) -> f64 {
        self(point)
    }
}

/// The paper's constrained objective (§VI-A):
///
/// ```text
/// objective(x) = BIPS(x)
///              − penalty_power · max(0, Power(x)  − maxPower)
///              − penalty_cache · max(0, Ways(x)   − maxWays)
/// ```
///
/// Soft penalties keep slightly-infeasible points rankable ("points with
/// slightly higher power are not heavily penalized"), which lets the search
/// cross narrow infeasible ridges. Note the paper's formula as printed
/// subtracts `(maxPower − Power)`, which would *reward* high power — we
/// implement the evident intent: penalize only the excess.
pub struct SoftPenalty<B, P, C>
where
    B: Fn(&[usize]) -> f64 + Sync,
    P: Fn(&[usize]) -> f64 + Sync,
    C: Fn(&[usize]) -> f64 + Sync,
{
    /// The raw benefit (geo-mean batch BIPS).
    pub benefit: B,
    /// Total power of the point, in Watts.
    pub power: P,
    /// Total LLC ways of the point.
    pub cache_ways: C,
    /// Power budget (the paper's `maxPower`).
    pub max_power: f64,
    /// LLC associativity (the paper's `maxWays`).
    pub max_ways: f64,
    /// Penalty weight per Watt of excess (Fig. 6: 2).
    pub penalty_power: f64,
    /// Penalty weight per way of excess (Fig. 6: 2).
    pub penalty_cache: f64,
}

impl<B, P, C> SoftPenalty<B, P, C>
where
    B: Fn(&[usize]) -> f64 + Sync,
    P: Fn(&[usize]) -> f64 + Sync,
    C: Fn(&[usize]) -> f64 + Sync,
{
    /// Whether `point` satisfies both hard constraints.
    pub fn is_feasible(&self, point: &[usize]) -> bool {
        (self.power)(point) <= self.max_power && (self.cache_ways)(point) <= self.max_ways
    }
}

impl<B, P, C> Objective for SoftPenalty<B, P, C>
where
    B: Fn(&[usize]) -> f64 + Sync,
    P: Fn(&[usize]) -> f64 + Sync,
    C: Fn(&[usize]) -> f64 + Sync,
{
    fn evaluate(&self, point: &[usize]) -> f64 {
        let power_excess = ((self.power)(point) - self.max_power).max(0.0);
        let cache_excess = ((self.cache_ways)(point) - self.max_ways).max(0.0);
        (self.benefit)(point)
            - self.penalty_power * power_excess
            - self.penalty_cache * cache_excess
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestPenalty = SoftPenalty<fn(&[usize]) -> f64, fn(&[usize]) -> f64, fn(&[usize]) -> f64>;

    fn penalty() -> TestPenalty {
        SoftPenalty {
            benefit: (|x: &[usize]| x.iter().sum::<usize>() as f64) as fn(&[usize]) -> f64,
            power: (|x: &[usize]| 2.0 * x.len() as f64 + x[0] as f64) as fn(&[usize]) -> f64,
            cache_ways: (|x: &[usize]| x[1] as f64) as fn(&[usize]) -> f64,
            max_power: 10.0,
            max_ways: 4.0,
            penalty_power: 2.0,
            penalty_cache: 2.0,
        }
    }

    #[test]
    fn feasible_points_pay_no_penalty() {
        let o = penalty();
        // power = 2*3 + 1 = 7 ≤ 10, ways = 2 ≤ 4.
        let p = [1usize, 2, 3];
        assert!(o.is_feasible(&p));
        assert_eq!(o.evaluate(&p), 6.0);
    }

    #[test]
    fn power_excess_is_penalized_linearly() {
        let o = penalty();
        // power = 6 + 8 = 14 → excess 4 → penalty 8.
        let p = [8usize, 0, 0];
        assert!(!o.is_feasible(&p));
        assert_eq!(o.evaluate(&p), 8.0 - 8.0);
    }

    #[test]
    fn cache_excess_is_penalized_too() {
        let o = penalty();
        // ways = 6 → excess 2 → penalty 4; power = 6 ≤ 10.
        let p = [0usize, 6, 0];
        assert_eq!(o.evaluate(&p), 6.0 - 4.0);
    }

    #[test]
    fn closures_are_objectives() {
        let o = |x: &[usize]| -(x[0] as f64);
        assert_eq!(o.evaluate(&[3]), -3.0);
    }
}
