//! Colocation study: the same web-search + batch-analytics server managed
//! by four different resource managers, under the same 60 % power cap.
//!
//! This is the paper's core claim in miniature: against core-level gating
//! and even an oracle-like asymmetric multicore, fine-grained
//! reconfiguration extracts more batch throughput from the same Watts while
//! never violating the interactive service's QoS.
//!
//! Run with: `cargo run --release --example colocation`

use baselines::gating::GatingOrder;
use cuttlesys::managers::{AsymmetricMode, Scheme};
use cuttlesys::types::{RunRecord, Scenario};
use workloads::loadgen::LoadPattern;

fn summarize(record: &RunRecord, baseline: f64) {
    println!(
        " {:<18}  {:>6.2}x batch   {:>2} QoS violations   worst tail {:.1}x QoS",
        record.scheme,
        record.batch_instructions() / baseline,
        record.qos_violations(),
        record.worst_tail_ratio(),
    );
}

fn main() {
    let scenario = Scenario::paper_default().with_cap(LoadPattern::Constant(0.6));
    // The no-gating reference ignores the cap: it sets the 1.0x baseline.
    // (`Scheme::run` puts every baseline but Flicker on fixed cores.)
    let reference = Scheme::NoGating.run(&scenario);
    let baseline = reference.batch_instructions();
    println!(
        "xapian @ 80% load + 16 SPEC jobs, 60% power cap ({:.1} W):\n",
        0.6 * scenario.nominal_budget_watts()
    );
    summarize(&reference, baseline);

    for scheme in [
        Scheme::CoreGating {
            order: GatingOrder::DescendingPower,
            way_partitioning: true,
        },
        Scheme::Asymmetric(AsymmetricMode::Oracle),
        Scheme::CuttleSys,
    ] {
        summarize(&scheme.run(&scenario), baseline);
    }
}
