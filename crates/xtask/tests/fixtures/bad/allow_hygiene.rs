// Fixture: allow-comment hygiene. A reason-less allow must report
// LINT-ALLOW-REASON and NOT suppress its rule; an unknown rule id must
// report LINT-UNKNOWN-RULE (linted as crates/core/src/fixture.rs).

pub struct StillFlagged {
    // lint:allow(DET-FLOAT-REDUCE)
    pub total: Mutex<f64>,
}

// lint:allow(DET-TYPO-RULE, reason = "this rule does not exist")
pub fn fine() {}
