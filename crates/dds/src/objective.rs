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

    /// The certified bound [`Draws::run_in`](crate::Draws::run_in) rejects
    /// candidates with before scoring them, when this objective offers one.
    /// The default offers none, and every candidate is evaluated. Only a
    /// [`PenaltyTable`] makes a [`Bound`], and it bounds the table's own
    /// `evaluate`.
    fn bound(&self) -> Option<Bound<'_>> {
        None
    }
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

    /// The objective from a benefit and the Watts and ways sums over the
    /// slots: the one formula both [`Objective::evaluate`] and
    /// [`Bound::upper`] compute.
    #[inline]
    fn penalized(&self, benefit: f64, watts: f64, ways: f64) -> f64 {
        let power_excess = (self.base_watts + watts - self.max_power).max(0.0);
        let cache_excess = (self.base_ways + ways - self.max_ways).max(0.0);
        benefit - self.penalty_power * power_excess - self.penalty_cache * cache_excess
    }

    /// The point's score with the benefit and the sums it came from.
    #[inline]
    fn score(&self, point: &[usize]) -> Scored {
        let (ln_bips, watts, ways) = self.sums(point);
        let benefit = (ln_bips / self.slots as f64).exp();
        Scored {
            value: self.penalized(benefit, watts, ways),
            benefit,
            watts,
            ways,
        }
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
        self.score(point).value
    }

    fn bound(&self) -> Option<Bound<'_>> {
        Bound::new(self)
    }
}

/// A point's exact score and the sums it came from: what [`Bound::upper`]
/// starts from when the point is a search worker's incumbent.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scored {
    /// The objective value, bit-equal to [`Objective::evaluate`]'s.
    pub(crate) value: f64,
    /// `exp(Σ ln BIPS / slots)`, the benefit inside `value`.
    benefit: f64,
    /// `Σ Watts` over the slots, in slot order.
    watts: f64,
    /// `Σ ways` over the slots, in slot order.
    ways: f64,
}

impl Scored {
    /// A value from an objective that offers no bound, which is all the
    /// search reads of it.
    pub(crate) fn bare(value: f64) -> Scored {
        Scored {
            value,
            benefit: 0.0,
            watts: 0.0,
            ways: 0.0,
        }
    }
}

/// The slack ε = 2⁻⁴⁸ = 32u on the bounded benefit (see [`Bound`]).
const BENEFIT_SLACK: f64 = 1.0 / (1u64 << 48) as f64;

/// A [`PenaltyTable`]'s certified upper bound on a candidate's score, made
/// from an incumbent's exact sums and the `(ln BIPS, Watts, ways)`
/// differences between the candidate's cells and the incumbent's, without
/// touching either point. A search that rejects a candidate whose bound is
/// no better than its incumbent rejects only candidates that
/// [`Objective::evaluate`] would score no better, so it keeps every
/// decision, bit for bit, while scoring only the candidates that might win.
///
/// # Why the bound holds
///
/// Write `u = 2⁻⁵³`, `n` for the slots, and, per column, `M` for the sum
/// over slots of the column's largest magnitude: no point's cells sum to
/// more than `M` in magnitude. For a candidate `x′` of incumbent `x`:
///
/// * The candidate's slot-order sum and the incumbent's cached one each lie
///   within `(n − 1)·u·M` of their real sums (recursive summation).
/// * The delta sum of `k ≤ n` differences lies within `(2k + 2)·u·M` of the
///   real difference: each subtraction rounds once, the accumulation
///   `k` times.
/// * Forming `incumbent + delta ± margin` rounds twice more, by at most
///   `6·u·M` together.
///
/// So the candidate's computed sum lies within `(4n + 6)·u·M` of
/// `incumbent + delta`, and each column's margin is `(8n + 16)·u·M`, which
/// leaves room for the roundings of `M` itself and, in the ln BIPS column,
/// for the two divisions by `n` inside the benefits' exponents (`2·u·M`
/// together). The Watts and ways sums then have lower bounds
/// `incumbent + delta − margin`.
///
/// The benefit is `exp(Σ ln BIPS / n)`. With `d = (delta + margin) / n`, the
/// candidate's exponent exceeds the incumbent's by at most `d`, so its
/// computed benefit is at most `B₀·eᵈ·(1 + 16u)`, where `B₀` is the
/// incumbent's computed benefit and `exp` errs by at most 4 ulps (8u) on
/// each of the two. Since `eᵈ ≤ 1 / (1 − d)` for every `d < 1`, the bound is
/// `B₀·(1 + ε) / (1 − d)` with ε = 2⁻⁴⁸ = 32u. It is used only for `d < ½`,
/// where rounding `d` (twice: `1 / n` and the product) moves `1 / (1 − d)`
/// by at most `2u`; with the bound's own three roundings (4u), that leaves
/// 10u of ε to spare. From `d ≥ ½` on the benefit is unbounded and the
/// candidate is scored.
///
/// The penalties: each operation of the objective's formula (`+`, `−`,
/// `max` with 0, and `×` by a weight ≥ 0) is monotone under round-to-nearest,
/// so the formula fed an upper bound of the benefit and lower bounds of the
/// two sums, in the same order, bounds the computed score from above. A NaN
/// bound compares false and has its candidate scored.
///
/// A table offers no bound when a cell, a way, or a base is not finite,
/// when a limit is NaN, or when a penalty weight is negative or not finite.
#[derive(Clone, Copy)]
pub struct Bound<'a> {
    table: &'a PenaltyTable,
    /// `1 / slots`, a product being cheaper than a quotient per candidate.
    inv_slots: f64,
    /// The `(ln BIPS, Watts, ways)` margins of the delta sums.
    margin: (f64, f64, f64),
}

impl<'a> Bound<'a> {
    fn new(table: &'a PenaltyTable) -> Option<Bound<'a>> {
        let finite_inputs = [table.base_watts, table.base_ways]
            .iter()
            .chain(&table.ways)
            .all(|x| x.is_finite())
            && !table.max_power.is_nan()
            && !table.max_ways.is_nan()
            && [table.penalty_power, table.penalty_cache]
                .iter()
                .all(|w| w.is_finite() && *w >= 0.0);
        if !finite_inputs {
            return None;
        }
        let mut largest = (0.0, 0.0);
        for row in table.cells.chunks_exact(table.ways.len().max(1)) {
            let mut row_largest = (0.0_f64, 0.0_f64);
            for &(l, w) in row {
                if !(l.is_finite() && w.is_finite()) {
                    return None;
                }
                row_largest = (row_largest.0.max(l.abs()), row_largest.1.max(w.abs()));
            }
            largest = (largest.0 + row_largest.0, largest.1 + row_largest.1);
        }
        let n = table.slots as f64;
        let ways = n * table.ways.iter().fold(0.0_f64, |m, w| m.max(w.abs()));
        let per_unit = (4.0 * n + 8.0) * f64::EPSILON;
        Some(Bound {
            table,
            inv_slots: 1.0 / n,
            margin: (per_unit * largest.0, per_unit * largest.1, per_unit * ways),
        })
    }

    /// Whether the table's points are those of a space of `dims` dimensions
    /// with `choices` choices each.
    pub(crate) fn fits(&self, dims: usize, choices: usize) -> bool {
        self.table.slots == dims && self.table.ways.len() == choices
    }

    /// The point's exact score, its value bit-equal to the table's
    /// [`Objective::evaluate`].
    #[inline]
    pub(crate) fn score(&self, point: &[usize]) -> Scored {
        self.table.score(point)
    }

    /// Adds to `delta` the `(ln BIPS, Watts, ways)` differences of moving
    /// slot `slot` from choice `from` to choice `to`.
    #[inline]
    pub(crate) fn add_move(
        &self,
        delta: &mut (f64, f64, f64),
        slot: usize,
        from: usize,
        to: usize,
    ) {
        let t = self.table;
        let row = slot * t.ways.len();
        let ((l1, w1), (l0, w0)) = (t.cells[row + to], t.cells[row + from]);
        delta.0 += l1 - l0;
        delta.1 += w1 - w0;
        delta.2 += t.ways[to] - t.ways[from];
    }

    /// An upper bound on the score of the candidate whose moves add up to
    /// `delta` from `incumbent`.
    #[inline]
    pub(crate) fn upper(&self, incumbent: &Scored, delta: (f64, f64, f64)) -> f64 {
        let d = (delta.0 + self.margin.0) * self.inv_slots;
        let benefit = if d < 0.5 {
            incumbent.benefit * (1.0 + BENEFIT_SLACK) / (1.0 - d)
        } else {
            f64::INFINITY
        };
        self.table.penalized(
            benefit,
            incumbent.watts + delta.1 - self.margin.1,
            incumbent.ways + delta.2 - self.margin.2,
        )
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

    fn ulps(x: f64, k: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + k) as u64)
    }

    /// Pairs of an incumbent and a candidate a few moves away, on tables
    /// built to put the bound's slack to work: cells a few ulps apart around
    /// ln BIPS 0 (exponents one rounding from a different benefit), around
    /// ln BIPS levels from the floor up, and around ln BIPS ≈ 300 (summation
    /// error far above the benefit's slack); flat BIPS under a cap every
    /// point misses (the Watts sums decide); exact ties; and cells at the
    /// 1e-9 floor. Penalty weights 0, 2 and 1e6. The bound is never below
    /// the candidate's score.
    #[test]
    fn the_bound_never_undercuts_the_score() {
        let mut rng = StdRng::seed_from_u64(0xB0_0E5);
        let few = |rng: &mut StdRng| rng.random_range(0..7) as i64 - 3;
        let ways: Vec<f64> = (0..108).map(|c| [0.5, 1.0, 2.0, 4.0][c % 4]).collect();
        for table_seed in 0..36 {
            let slots = [16, 13, 8, 3][table_seed % 4];
            let (mut bips, mut watts) = (Vec::new(), Vec::new());
            for _ in 0..slots {
                let level = rng.random_range(-20.7..1.4);
                let w0 = rng.random_range(1.0..4.0);
                let row: Vec<(f64, f64)> = (0..108)
                    .map(|_| {
                        let b = match table_seed % 6 {
                            0 => ulps(1.0, few(&mut rng)),
                            1 => ulps(level, few(&mut rng)).exp(),
                            2 => ulps(level + 300.0, few(&mut rng)).exp(),
                            3 => 1.0,
                            4 => [0.5, 1.0, 2.0][rng.random_range(0..3)],
                            _ => [0.0, 1e-12, rng.random_range(0.05..4.0)][rng.random_range(0..3)],
                        };
                        (b, ulps(w0, few(&mut rng)))
                    })
                    .collect();
                bips.push(row.iter().map(|c| c.0).collect::<Vec<f64>>());
                watts.push(row.iter().map(|c| c.1).collect::<Vec<f64>>());
            }
            let typical: f64 = watts.iter().map(|r| r.iter().sum::<f64>() / 108.0).sum();
            let cap = 49.3 + typical - if table_seed % 6 == 3 { 1.0 } else { 0.0 };
            let mut table = PenaltyTable::new(
                bips.iter().zip(&watts),
                ways.clone(),
                (49.3, 4.0),
                (cap, 32.0),
            );
            let weight = [0.0, 2.0, 1e6][table_seed / 6 % 3];
            (table.penalty_power, table.penalty_cache) = (weight, weight);
            let bound = table.bound().expect("finite inputs offer a bound");
            for _ in 0..4000 {
                let x: Vec<usize> = (0..slots).map(|_| rng.random_range(0..108)).collect();
                let mut candidate = x.clone();
                let mut delta = (0.0, 0.0, 0.0);
                for (d, to) in candidate.iter_mut().enumerate() {
                    if rng.random_range(0..3) == 0 {
                        let from = *to;
                        *to = rng.random_range(0..108);
                        bound.add_move(&mut delta, d, from, *to);
                    }
                }
                let upper = bound.upper(&table.score(&x), delta);
                let value = table.evaluate(&candidate);
                assert!(
                    value.partial_cmp(&upper) != Some(std::cmp::Ordering::Greater),
                    "table {table_seed}: {candidate:?} scores {value:e} over its bound {upper:e}"
                );
            }
        }
    }

    #[test]
    fn tables_with_non_finite_inputs_or_unusable_weights_offer_no_bound() {
        let table = |bips: f64, watts: f64, base: (f64, f64), max: (f64, f64), weight: f64| {
            let mut t = PenaltyTable::new([([1.0, bips], [1.0, watts])], vec![1.0, 2.0], base, max);
            t.penalty_power = weight;
            t.penalty_cache = 2.0;
            t
        };
        let usable = (1.0, 2.0, (1.0, 1.0), (10.0, 6.0), 2.0);
        let offers = |(b, w, base, max, weight): (f64, f64, (f64, f64), (f64, f64), f64)| {
            table(b, w, base, max, weight).bound().is_some()
        };
        assert!(offers(usable));
        assert!(
            offers((1.0, 2.0, (1.0, 1.0), (10.0, f64::INFINITY), 0.0)),
            "∞ ways, weight 0"
        );
        assert!(
            offers((f64::NAN, 2.0, (1.0, 1.0), (10.0, 6.0), 2.0)),
            "NaN BIPS sit at the floor"
        );
        for (what, case) in [
            ("∞ BIPS", (f64::INFINITY, 2.0, (1.0, 1.0), (10.0, 6.0), 2.0)),
            ("NaN Watts", (1.0, f64::NAN, (1.0, 1.0), (10.0, 6.0), 2.0)),
            (
                "∞ Watts",
                (1.0, f64::INFINITY, (1.0, 1.0), (10.0, 6.0), 2.0),
            ),
            (
                "∞ base Watts",
                (1.0, 2.0, (f64::INFINITY, 1.0), (10.0, 6.0), 2.0),
            ),
            (
                "NaN base ways",
                (1.0, 2.0, (1.0, f64::NAN), (10.0, 6.0), 2.0),
            ),
            ("NaN cap", (1.0, 2.0, (1.0, 1.0), (f64::NAN, 6.0), 2.0)),
            ("negative weight", (1.0, 2.0, (1.0, 1.0), (10.0, 6.0), -2.0)),
            (
                "∞ weight",
                (1.0, 2.0, (1.0, 1.0), (10.0, 6.0), f64::INFINITY),
            ),
            ("NaN weight", (1.0, 2.0, (1.0, 1.0), (10.0, 6.0), f64::NAN)),
        ] {
            assert!(!offers(case), "{what}");
        }
        let mut ways = table(1.0, 2.0, (1.0, 1.0), (10.0, 6.0), 2.0);
        ways.ways[1] = f64::INFINITY;
        assert!(ways.bound().is_none(), "∞ ways");
        assert!((|_: &[usize]| 0.0).bound().is_none(), "closures offer none");
    }

    /// A replay over a space of another shape scores every candidate: the
    /// bound would read cells of slots or choices the table does not have.
    #[test]
    fn a_bound_fits_only_its_tables_shape() {
        let row = [1.0; 4];
        let table = PenaltyTable::new([(&row, &row); 3], vec![1.0; 4], (0.0, 0.0), (9.0, 9.0));
        let bound = table.bound().expect("finite inputs offer a bound");
        assert!(bound.fits(3, 4));
        assert!(!bound.fits(4, 4) && !bound.fits(2, 4) && !bound.fits(3, 5));
    }

    #[test]
    fn closures_are_objectives() {
        let o = |x: &[usize]| -(x[0] as f64);
        assert_eq!(o.evaluate(&[3]), -3.0);
    }
}
