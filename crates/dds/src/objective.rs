//! Objective functions and the tabulated soft-penalty objective of §VI-A.

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

/// The paper's constrained objective (§VI-A) over one job per slot, slot `s`
/// of a point choosing one of the job's configurations:
///
/// ```text
/// objective(x) = geo-mean BIPS(x)
///              − penalty_power · max(0, Power(x)  − maxPower)
///              − penalty_cache · max(0, Ways(x)   − maxWays)
/// ```
///
/// Soft penalties keep slightly-infeasible points rankable ("points with
/// slightly higher power are not heavily penalized"), which lets the search
/// cross narrow infeasible ridges. Note the paper's formula as printed
/// subtracts `(maxPower − Power)`, which would *reward* high power — we
/// implement the evident intent: penalize only the excess.
///
/// The objective is a separable per-job sum, so everything that depends on
/// one (slot, choice) pair alone is tabulated once: each job's `ln(BIPS)` and
/// Watts, packed slot-major into one buffer, and the LLC ways of every
/// choice. An evaluation then makes one pass over the point, adding into
/// three accumulators, each in slot order from `Iterator::sum`'s −0.0 start,
/// so every value is bit-equal to the three sums taken on their own.
pub struct PenaltyTable {
    /// `(ln BIPS, Watts)` of slot `s` at choice `c`, at `s · choices + c`.
    cells: Vec<(f64, f64)>,
    ways: Vec<f64>,
    slots: usize,
    base_watts: f64,
    base_ways: f64,
    /// Power budget (the paper's `maxPower`).
    pub max_power: f64,
    /// LLC associativity (the paper's `maxWays`).
    pub max_ways: f64,
    /// Penalty weight per Watt of excess (Fig. 6: 2).
    pub penalty_power: f64,
    /// Penalty weight per way of excess (Fig. 6: 2).
    pub penalty_cache: f64,
}

impl PenaltyTable {
    /// Tabulates the problem from one `(BIPS row, Watts row)` pair per slot
    /// and the LLC ways of each choice; `base_watts` and `base_ways` are what
    /// the chip draws and holds outside the searched jobs. The penalty
    /// weights start at Fig. 6's 2 per Watt and 2 per way.
    ///
    /// # Panics
    ///
    /// Panics, naming the slot, if a row's length differs from the number of
    /// choices (`ways.len()`): a ragged row would shift every later slot's
    /// cells.
    pub fn new<B, W>(
        rows: impl IntoIterator<Item = (B, W)>,
        ways: Vec<f64>,
        (base_watts, base_ways): (f64, f64),
        (max_power, max_ways): (f64, f64),
    ) -> PenaltyTable
    where
        B: AsRef<[f64]>,
        W: AsRef<[f64]>,
    {
        let choices = ways.len();
        let rows = rows.into_iter();
        let mut cells = Vec::with_capacity(rows.size_hint().0 * choices);
        let mut slots = 0;
        for (slot, (bips, watts)) in rows.enumerate() {
            let (bips, watts) = (bips.as_ref(), watts.as_ref());
            assert!(
                bips.len() == choices && watts.len() == choices,
                "slot {slot}: BIPS row of {} and Watts row of {} for {choices} choices",
                bips.len(),
                watts.len()
            );
            cells.extend(bips.iter().zip(watts).map(|(b, &w)| (b.max(1e-9).ln(), w)));
            slots += 1;
        }
        PenaltyTable {
            cells,
            ways,
            slots,
            base_watts,
            base_ways,
            max_power,
            max_ways,
            penalty_power: 2.0,
            penalty_cache: 2.0,
        }
    }

    /// Number of slots (searched jobs): the length of every point.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// What the chip draws outside the searched jobs, in Watts.
    pub fn base_watts(&self) -> f64 {
        self.base_watts
    }

    /// Watts of slot `slot`'s job at `choice`.
    pub fn watts_at(&self, slot: usize, choice: usize) -> f64 {
        assert!(choice < self.ways.len(), "choice {choice} out of range");
        self.cells[slot * self.ways.len() + choice].1
    }

    /// The point's `(Σ ln BIPS, Σ Watts, Σ ways)` over its slots, in one
    /// pass, each sum in slot order from −0.0 (where `Iterator::sum` starts).
    #[inline]
    fn sums(&self, point: &[usize]) -> (f64, f64, f64) {
        let (mut ln_bips, mut watts, mut ways) = (-0.0, -0.0, -0.0);
        // `max(1)`: `chunks_exact` refuses 0, and a table without choices
        // has no cells to chunk.
        for (&c, row) in point
            .iter()
            .zip(self.cells.chunks_exact(self.ways.len().max(1)))
        {
            let (l, w) = row[c];
            ln_bips += l;
            watts += w;
            ways += self.ways[c];
        }
        (ln_bips, watts, ways)
    }

    /// The raw benefit: geo-mean BIPS of the point's jobs.
    #[inline]
    pub fn benefit(&self, point: &[usize]) -> f64 {
        (self.sums(point).0 / self.slots as f64).exp()
    }

    /// Total power of the point, in Watts.
    #[inline]
    pub fn power(&self, point: &[usize]) -> f64 {
        self.base_watts + self.sums(point).1
    }

    /// Total LLC ways of the point.
    #[inline]
    pub fn cache_ways(&self, point: &[usize]) -> f64 {
        self.base_ways + self.sums(point).2
    }

    /// Whether `point` satisfies both hard constraints.
    pub fn is_feasible(&self, point: &[usize]) -> bool {
        let (_, watts, ways) = self.sums(point);
        self.base_watts + watts <= self.max_power && self.base_ways + ways <= self.max_ways
    }
}

impl Objective for PenaltyTable {
    #[inline]
    fn evaluate(&self, point: &[usize]) -> f64 {
        let (ln_bips, watts, ways) = self.sums(point);
        let power_excess = (self.base_watts + watts - self.max_power).max(0.0);
        let cache_excess = (self.base_ways + ways - self.max_ways).max(0.0);
        let benefit = (ln_bips / self.slots as f64).exp();
        benefit - self.penalty_power * power_excess - self.penalty_cache * cache_excess
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn penalties_are_zero_when_feasible_and_linear_in_each_excess() {
        // Flat BIPS of 1 (benefit exactly 1), choice 3 power-hungry, choice 1
        // cache-hungry; 1 W and 1 way outside the jobs; 10 W / 6 ways allowed.
        let (bips, watts) = ([1.0; 4], [1.0, 2.0, 4.0, 8.0]);
        let table = PenaltyTable::new(
            (0..3).map(|_| (&bips, &watts)),
            vec![1.0, 4.0, 1.0, 1.0],
            (1.0, 1.0),
            (10.0, 6.0),
        );
        assert_eq!(
            (table.slots(), table.base_watts(), table.watts_at(1, 3)),
            (3, 1.0, 8.0)
        );
        for (point, power, ways, value) in [
            ([0, 0, 2], 7.0, 4.0, 1.0),
            ([3, 2, 0], 14.0, 4.0, 1.0 - 2.0 * 4.0),
            ([3, 3, 0], 18.0, 4.0, 1.0 - 2.0 * 8.0),
            ([1, 1, 0], 6.0, 10.0, 1.0 - 2.0 * 4.0),
            ([1, 3, 1], 13.0, 10.0, 1.0 - 2.0 * 3.0 - 2.0 * 4.0),
        ] {
            assert_eq!(table.power(&point), power, "{point:?}");
            assert_eq!(table.cache_ways(&point), ways, "{point:?}");
            assert_eq!(table.is_feasible(&point), value == 1.0, "{point:?}");
            assert_eq!(table.evaluate(&point), value, "{point:?}");
        }
    }

    /// The table against the §VI-A formula evaluated from scratch per point,
    /// on the three shapes in use: the runtime's (108 choices, the LC tenants'
    /// Watts and ways outside the jobs, a binding cap), `paper fig10`'s
    /// (16 × 108 beside 32 W on 2 ways) and Flicker's (27 core configurations,
    /// no way accounting, a BIPS entry below the floor).
    #[test]
    fn table_matches_the_from_scratch_formula_to_the_bit() {
        let mut rng = StdRng::seed_from_u64(0x6AB1E);
        for (slots, choices, partitioned, base, max) in [
            (3, 108, true, (49.3, 4.0), (57.0, 32.0)),
            (16, 108, true, (32.0, 2.0), (70.0, 32.0)),
            (5, 27, false, (48.0, 0.0), (60.0, f64::INFINITY)),
        ] {
            let mut bips: Vec<Vec<f64>> = (0..slots)
                .map(|_| (0..choices).map(|_| rng.random_range(0.05..4.0)).collect())
                .collect();
            bips[slots - 1][7] = 0.0;
            let watts: Vec<Vec<f64>> = (0..slots)
                .map(|_| (0..choices).map(|_| rng.random_range(1.0..4.0)).collect())
                .collect();
            let ways: Vec<f64> = (0..choices)
                .map(|c| {
                    if partitioned {
                        [0.5, 1.0, 2.0, 4.0][c % 4]
                    } else {
                        0.0
                    }
                })
                .collect();
            let table = PenaltyTable::new(bips.iter().zip(&watts), ways.clone(), base, max);
            let power =
                |x: &[usize]| base.0 + x.iter().enumerate().map(|(s, &c)| watts[s][c]).sum::<f64>();
            let cache_ways = |x: &[usize]| base.1 + x.iter().map(|&c| ways[c]).sum::<f64>();
            let benefit = |x: &[usize]| {
                let log_sum: f64 = x
                    .iter()
                    .enumerate()
                    .map(|(s, &c)| bips[s][c].max(1e-9).ln())
                    .sum();
                (log_sum / slots as f64).exp()
            };
            let reference = |x: &[usize]| {
                benefit(x)
                    - 2.0 * (power(x) - max.0).max(0.0)
                    - 2.0 * (cache_ways(x) - max.1).max(0.0)
            };
            let mut infeasible = 0;
            for i in 0..2000 {
                let mut x: Vec<usize> = (0..slots).map(|_| rng.random_range(0..choices)).collect();
                if i % 10 == 0 {
                    x[slots - 1] = 7;
                }
                assert_eq!(
                    table.evaluate(&x).to_bits(),
                    reference(&x).to_bits(),
                    "objective diverged at {x:?}"
                );
                for (what, got, want) in [
                    ("benefit", table.benefit(&x), benefit(&x)),
                    ("power", table.power(&x), power(&x)),
                    ("cache ways", table.cache_ways(&x), cache_ways(&x)),
                ] {
                    assert_eq!(got.to_bits(), want.to_bits(), "{what} diverged at {x:?}");
                }
                assert_eq!(
                    table.is_feasible(&x),
                    power(&x) <= max.0 && cache_ways(&x) <= max.1,
                    "feasibility diverged at {x:?}"
                );
                infeasible += usize::from(!table.is_feasible(&x));
            }
            assert!(
                (200..1800).contains(&infeasible),
                "{slots} × {choices}: constraints bind on {infeasible} of 2000 points"
            );
        }
    }

    #[test]
    #[should_panic(expected = "slot 1: BIPS row of 3 and Watts row of 4 for 4 choices")]
    fn ragged_rows_are_refused() {
        let (full, short) = ([1.0; 4], [1.0; 3]);
        let _ = PenaltyTable::new(
            [(&full[..], &full[..]), (&short[..], &full[..])],
            vec![1.0; 4],
            (0.0, 0.0),
            (10.0, 6.0),
        );
    }

    #[test]
    fn closures_are_objectives() {
        let o = |x: &[usize]| -(x[0] as f64);
        assert_eq!(o.evaluate(&[3]), -3.0);
    }
}
