// Fixture: the hazard below carries a reasoned allow and the file must
// lint clean when checked as crates/core/src/fixture.rs.

use std::sync::Mutex;

pub struct Budget {
    // lint:allow(DET-FLOAT-REDUCE, reason = "single writer: the coordinator thread alone updates it, workers only read")
    pub remaining_watts: Mutex<f64>,
}
