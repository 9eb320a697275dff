//! Power-cap study: how much batch work survives as the cap tightens from
//! 90 % to 50 % of nominal, for an ML-inference service (ImgDNN-like)
//! colocation.
//!
//! Mirrors Fig. 5(c) for a single colocation: CuttleSys degrades gracefully
//! because it can shave partial cores instead of turning whole ones off.
//!
//! Run with: `cargo run --release --example power_cap_study`

use baselines::gating::GatingOrder;
use cuttlesys::managers::Scheme;
use cuttlesys::types::Scenario;
use workloads::latency;
use workloads::loadgen::LoadPattern;

fn main() {
    println!("imgdnn @ 80% load + 16 SPEC jobs, batch instructions (1e9) by cap:\n");
    println!("  cap   core-gating   cuttlesys   advantage");
    for cap in [0.9, 0.8, 0.7, 0.6, 0.5] {
        let scenario = Scenario::paper_default()
            .with_cap(LoadPattern::Constant(cap))
            .with_service(latency::service_by_name("imgdnn").expect("imgdnn exists"));
        let gating = Scheme::CoreGating {
            order: GatingOrder::DescendingPower,
            way_partitioning: true,
        }
        .run(&scenario);
        let cuttle = Scheme::CuttleSys.run(&scenario);
        let (g, c) = (gating.batch_instructions(), cuttle.batch_instructions());
        println!(
            "  {:>3.0}%  {:>11.2}  {:>10.2}   {:>6.2}x",
            cap * 100.0,
            g / 1e9,
            c / 1e9,
            c / g.max(1.0)
        );
    }
}
