//! Worker-ordered reductions for parallel fan-outs.
//!
//! Floating-point reduction is where parallel code quietly loses
//! determinism: `+` is not associative in `f64`, and "keep the best"
//! scans resolve ties by visit order. Any reduction whose order depends on
//! thread completion — a shared accumulator, an atomic CAS loop over float
//! bits, whatever drains a channel first — can return different bits on
//! different runs of the *same* seed.
//!
//! The helpers here pin the order structurally: workers deposit their
//! partial results into per-worker slots, and the orchestrator folds the
//! slots in worker-index order after the fan-out barrier. Parallel DDS
//! reduces through [`ordered_best`], which is why a 1-thread pool, an
//! 8-thread pool, and no pool at all return bit-identical answers
//! (`tests/determinism.rs` pins this).
//!
//! `crates/clippy.toml` bans the atomic read-modify-writes that ad-hoc
//! float accumulation needs, and its reason points here.

/// Reduces `(candidate, value)` pairs against an incumbent, keeping the
/// strictly better value; ties keep the earlier entry (the incumbent, then
/// the lowest worker index).
///
/// This is the paper's Alg. 2 reduction: "install the best local best as
/// the next global best", with ties broken by worker index so the outcome
/// does not depend on which thread finished first.
pub fn ordered_best<T>(parts: impl IntoIterator<Item = (T, f64)>, incumbent: (T, f64)) -> (T, f64) {
    parts.into_iter().fold(incumbent, |best, (point, value)| {
        if value > best.1 {
            (point, value)
        } else {
            best
        }
    })
}

/// Concatenates per-worker logs in worker-index order.
///
/// Used for evaluation traces recorded concurrently: each worker appends to
/// its own log, and the concatenation order (not the interleaving of
/// evaluations) defines the record.
pub fn ordered_concat<T>(parts: impl IntoIterator<Item = Vec<T>>) -> Vec<T> {
    parts.into_iter().fold(Vec::new(), |mut acc, mut part| {
        acc.append(&mut part);
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_best_keeps_the_incumbent_on_ties() {
        let parts = vec![("w0", 2.0), ("w1", 3.0), ("w2", 3.0)];
        let (point, value) = ordered_best(parts, ("incumbent", 1.0));
        assert_eq!(point, "w1", "tie at 3.0 must keep the earlier worker");
        assert_eq!(value, 3.0);
        let parts = vec![("w0", 1.0)];
        let (point, _) = ordered_best(parts, ("incumbent", 1.0));
        assert_eq!(point, "incumbent", "equal value must not displace");
    }

    #[test]
    fn ordered_best_ignores_nan_candidates() {
        // NaN > x is false, so a NaN-valued candidate never wins.
        let parts = vec![("nan", f64::NAN), ("w1", 0.5)];
        let (point, value) = ordered_best(parts, ("incumbent", 0.0));
        assert_eq!(point, "w1");
        assert_eq!(value, 0.5);
    }

    #[test]
    fn ordered_concat_preserves_slot_order() {
        let parts = vec![vec![1, 2], vec![], vec![3]];
        assert_eq!(ordered_concat(parts), vec![1, 2, 3]);
    }
}
