// Fixture: scope boundaries. Linted as crates/workloads/src/fixture.rs —
// NOT a decision-path crate — so the decision-path-only token rule
// (DET-FLOAT-REDUCE) must stay quiet.

use std::sync::Mutex;

pub struct ArrivalStats {
    pub mean_gap_us: Mutex<f64>,
}

pub fn sum(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |acc, x| acc + x)
}
