//! Fig. 10: DDS versus GA as the design-space exploration algorithm.
//!
//! * `--scatter` (Fig. 10a): both algorithms explore the same SGD-predicted
//!   space for one colocation; we report the Pareto frontier each finds in
//!   the (power, 1/throughput) plane and the best feasible point under the
//!   budget.
//! * `--sweep` (Fig. 10b): the full CuttleSys runtime with DDS vs with a
//!   budget-matched GA, across power caps; the paper reports up to 19 %
//!   higher throughput for DDS, with the gap shrinking at the 50 % cap.
//!
//! Usage: `fig10_dds_vs_ga [--scatter|--sweep|--both] [mixes_per_service]`

use baselines::ga::{ga_search, GaParams};
use bench::report::ratio;
use bench::{colocations, geo_mean, standard_scenario, Table, POWER_CAPS};
use cuttlesys::matrices::JobMatrices;
use cuttlesys::runtime::SearchAlgo;
use cuttlesys::testbed::run_scenario;
use cuttlesys::CuttleSysManager;
use dds::{parallel_search, ParallelDdsParams, SearchSpace, SoftPenalty};
use recsys::Reconstructor;
use simulator::power::CoreKind;
use simulator::{Chip, JobConfig, SystemParams, NUM_JOB_CONFIGS};
use workloads::batch;
use workloads::latency;
use workloads::oracle::Oracle;

/// Pareto-filter explored points in the (power, 1/throughput) plane (both
/// minimized).
fn pareto(points: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut sorted = points.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut front = Vec::new();
    let mut best = f64::INFINITY;
    for (power, inv_tput) in sorted {
        if inv_tput < best {
            best = inv_tput;
            front.push((power, inv_tput));
        }
    }
    front
}

fn scatter() {
    // Build SGD predictions for one colocation, as the runtime would.
    let oracle = Oracle::new(Chip::new(SystemParams::default(), CoreKind::Reconfigurable));
    let training: Vec<_> = batch::training_set().iter().map(|b| b.profile).collect();
    let mix = batch::mix(16, 0xC0FFEE);
    let mut matrices = JobMatrices::new(oracle, &training, 1, 16);
    let hi = JobConfig::profiling_high().index();
    let lo = JobConfig::profiling_low().index();
    for (j, app) in mix.apps.iter().enumerate() {
        let b = oracle.bips_row(&app.profile);
        let w = oracle.power_row(&app.profile);
        matrices.record_sample(1 + j, hi, b[hi], w[hi]);
        matrices.record_sample(1 + j, lo, b[lo], w[lo]);
    }
    let preds = matrices.reconstruct(&Reconstructor::default(), &[0.8]);

    let svc = latency::service_by_name("xapian").expect("xapian exists");
    let scenario = standard_scenario(&svc, 0, 0.7);
    let budget = 0.7 * scenario.nominal_budget_watts();
    let lc_power = 16.0 * 2.0; // representative pinned LC power
    let bips = preds.batch_bips.clone();
    let watts = preds.batch_watts.clone();
    let objective = SoftPenalty {
        benefit: |x: &[usize]| {
            let log_sum: f64 = x
                .iter()
                .enumerate()
                .map(|(j, &c)| bips[j][c].max(1e-9).ln())
                .sum();
            (log_sum / 16.0).exp()
        },
        power: |x: &[usize]| {
            lc_power + x.iter().enumerate().map(|(j, &c)| watts[j][c]).sum::<f64>()
        },
        cache_ways: |x: &[usize]| {
            2.0 + x
                .iter()
                .map(|&c| JobConfig::from_index(c).cache.ways())
                .sum::<f64>()
        },
        max_power: budget,
        max_ways: 32.0,
        penalty_power: 2.0,
        penalty_cache: 2.0,
    };

    let space = SearchSpace::new(16, NUM_JOB_CONFIGS);
    let dds_result = parallel_search(
        &space,
        &objective,
        &ParallelDdsParams {
            record_explored: true,
            ..Default::default()
        },
    );
    // Budgets are matched by *time*, as in the paper: parallel DDS spreads
    // its candidate evaluations across the chip's cores, while the
    // generational GA is sequential (each generation depends on the last),
    // so in the same couple of milliseconds it completes roughly
    // 1/threads as many evaluations.
    let ga_budget = dds_result.evaluations / ParallelDdsParams::default().threads;
    let ga_result = ga_search(
        &space,
        &objective,
        &GaParams {
            record_explored: true,
            ..GaParams::default().with_evaluation_budget(ga_budget)
        },
    );

    let to_plane = |explored: &[(Vec<usize>, f64)]| -> Vec<(f64, f64)> {
        explored
            .iter()
            .map(|(x, _)| {
                let p = lc_power + x.iter().enumerate().map(|(j, &c)| watts[j][c]).sum::<f64>();
                let log_sum: f64 = x
                    .iter()
                    .enumerate()
                    .map(|(j, &c)| bips[j][c].max(1e-9).ln())
                    .sum();
                (p, 1.0 / (log_sum / 16.0).exp())
            })
            .collect()
    };
    let dds_front = pareto(&to_plane(&dds_result.explored));
    let ga_front = pareto(&to_plane(&ga_result.explored));

    let mut table = Table::new(
        "Fig. 10(a): exploration quality in the (power, 1/throughput) plane",
        &[
            "algorithm",
            "evaluations",
            "pareto points",
            "best objective",
            "best under budget",
        ],
    );
    let best_feasible = |points: &[(f64, f64)]| -> String {
        points
            .iter()
            .filter(|(p, _)| *p <= budget)
            .map(|(_, it)| 1.0 / it)
            .fold(f64::NEG_INFINITY, f64::max)
            .to_string()
            .chars()
            .take(6)
            .collect()
    };
    table.row(vec![
        "parallel DDS".into(),
        dds_result.evaluations.to_string(),
        dds_front.len().to_string(),
        format!("{:.4}", dds_result.best_value),
        best_feasible(&to_plane(&dds_result.explored)),
    ]);
    table.row(vec![
        "GA (budget-matched)".into(),
        ga_result.evaluations.to_string(),
        ga_front.len().to_string(),
        format!("{:.4}", ga_result.best_value),
        best_feasible(&to_plane(&ga_result.explored)),
    ]);
    table.print();
    println!("Pareto frontier found by DDS (power W, 1/gmean-BIPS), budget {budget:.1} W:");
    for (p, it) in dds_front.iter().take(12) {
        println!("  {p:7.1}  {it:.4}");
    }
    println!("Pareto frontier found by GA:");
    for (p, it) in ga_front.iter().take(12) {
        println!("  {p:7.1}  {it:.4}");
    }
    println!();
}

fn sweep(mixes: u64) {
    let mut table = Table::new(
        "Fig. 10(b): relative batch throughput, SGD-DDS vs SGD-GA, across power caps",
        &["cap", "SGD-GA", "SGD-DDS", "DDS/GA"],
    );
    for cap in POWER_CAPS {
        let mut dds_g = Vec::new();
        let mut ga_g = Vec::new();
        for (svc, mix) in colocations(mixes) {
            let scenario = standard_scenario(&svc, mix, cap);
            let dds_run = {
                let mut m = CuttleSysManager::for_scenario(&scenario);
                run_scenario(&scenario, &mut m)
            };
            // Match the GA's budget by wall-clock, as the paper does: the
            // sequential GA completes ~1/threads of parallel DDS's
            // (50 + 40 iters x 10 points x 8 threads) evaluations in the
            // same time.
            let ga_budget = (50 + 40 * 10 * 8) / 8;
            let ga_run = {
                let mut m = CuttleSysManager::for_scenario(&scenario).with_search(SearchAlgo::Ga(
                    GaParams::default().with_evaluation_budget(ga_budget),
                ));
                run_scenario(&scenario, &mut m)
            };
            let steady_gmean = |r: &cuttlesys::types::RunRecord| {
                let g: Vec<f64> = r
                    .slices
                    .iter()
                    .skip(1)
                    .map(|s| s.batch_gmean_bips.max(1e-9))
                    .collect();
                geo_mean(&g)
            };
            dds_g.push(steady_gmean(&dds_run));
            ga_g.push(steady_gmean(&ga_run));
        }
        let dds_mean = geo_mean(&dds_g);
        let ga_mean = geo_mean(&ga_g);
        table.row(vec![
            format!("{:.0}%", cap * 100.0),
            format!("{ga_mean:.3}"),
            format!("{dds_mean:.3}"),
            ratio(dds_mean / ga_mean),
        ]);
    }
    table.print();
    println!("Paper shape: DDS up to ~1.19x, gap smallest at the 50% cap.");
}

const USAGE: &str = "usage: fig10_dds_vs_ga [--scatter|--sweep|--both] [mixes_per_service]";

/// Parses the mode argument into `(run scatter, run sweep)`; an absent
/// argument means both, an unrecognised one is `None`.
fn parse_mode(arg: Option<&str>) -> Option<(bool, bool)> {
    match arg.unwrap_or("--both") {
        "--scatter" => Some((true, false)),
        "--sweep" => Some((false, true)),
        "--both" => Some((true, true)),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some((run_scatter, run_sweep)) = parse_mode(args.get(1).map(String::as_str)) else {
        eprintln!("unknown mode {:?}\n{USAGE}", args[1]);
        std::process::exit(2);
    };
    let mixes: u64 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(1);
    if run_scatter {
        scatter();
    }
    if run_sweep {
        sweep(mixes);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_mode;

    #[test]
    fn an_unknown_mode_is_rejected_not_swallowed() {
        assert_eq!(parse_mode(Some("1")), None);
        assert_eq!(parse_mode(None), Some((true, true)));
        assert_eq!(parse_mode(Some("--sweep")), Some((false, true)));
    }
}
