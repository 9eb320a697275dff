//! Motivation experiment (§I/§II): the performance-power Pareto frontier of
//! DVFS versus core reconfiguration.
//!
//! The paper's case for reconfigurable cores rests on two cited results
//! (Zhang et al. \[20\], Meisner et al. \[23\]): DVFS's range collapses as
//! voltage margins thin, and reconfiguration — which gates capacity, hence
//! both dynamic *and* leakage power — extends the performance-energy Pareto
//! frontier beyond it. This experiment quantifies that claim on our calibrated
//! models, per application class:
//!
//! * the 9-point *modern* DVFS ladder (voltage floor at 0.8 V/V₀),
//! * the idealized *wide-margin* ladder (no floor; an optimistic bound),
//! * the 27 core configurations at nominal frequency,
//!
//! and a maxBIPS-vs-reconfiguration chip-level comparison under tight caps.

use baselines::maxbips::{max_bips, CoreOptions};
use simulator::dvfs::{DvfsLadder, DvfsModel};
use simulator::power::CoreKind;
use simulator::{AppProfile, CacheAlloc, Chip, CoreConfig, SystemParams};
use workloads::batch;

use crate::cli::Args;
use crate::grid::Grid;
use crate::{Report, Table};

/// (bips, watts) of every core configuration at nominal frequency on a
/// reconfigurable core.
fn reconfig_frontier(chip: &Chip, app: &AppProfile, cache: CacheAlloc) -> Vec<(f64, f64)> {
    CoreConfig::all()
        .map(|config| {
            let ipc = chip.perf().ipc(app, config, cache.ways(), 0.0);
            let bips = chip.core_bips(app, config, cache.ways(), 0.0);
            let watts = chip.power().core_watts(app, config, ipc);
            (bips.get(), watts.get())
        })
        .collect()
}

/// Lowest power achieving at least `target_bips`, or `None` if out of
/// range.
fn min_power_at(frontier: &[(f64, f64)], target_bips: f64) -> Option<f64> {
    frontier
        .iter()
        .filter(|(b, _)| *b >= target_bips)
        .map(|(_, w)| *w)
        .min_by(f64::total_cmp)
}

pub(super) fn run(_: &Args, _: &Grid) -> Report {
    let mut report = Report::default();
    let params = SystemParams::default();
    let chip = Chip::new(params, CoreKind::Reconfigurable);
    let dvfs = DvfsModel::new(params);
    let modern = DvfsLadder::modern(&params);
    let wide = DvfsLadder::wide_margin(&params);
    let cache = CacheAlloc::Two;

    let mut table = Table::new(
        "Pareto: min Watts to reach a fraction of peak BIPS (per app class)",
        &[
            "app",
            "target",
            "DVFS (modern)",
            "DVFS (wide)",
            "reconfig",
            "reconfig gain",
        ],
    );
    let examples = [
        ("povray (compute)", batch::catalog()[6].profile),
        ("bzip2 (mixed)", batch::catalog()[22].profile),
        ("mcf (memory)", batch::catalog()[13].profile),
    ];
    for (name, app) in &examples {
        let d_modern = dvfs.frontier(app, cache, &modern);
        let d_wide = dvfs.frontier(app, cache, &wide);
        let reconf = reconfig_frontier(&chip, app, cache);
        let peak = d_modern[0].0;
        for target in [0.9, 0.7, 0.5, 0.35, 0.25] {
            let t = peak * target;
            let fmt = |w: Option<f64>| w.map_or("out of range".into(), |w| format!("{w:.2} W"));
            let m = min_power_at(&d_modern, t);
            let r = min_power_at(&reconf, t);
            let gain = match (m, r) {
                (Some(m), Some(r)) => format!("{:.2}x", m / r),
                (None, Some(_)) => "DVFS cannot".into(),
                _ => "-".into(),
            };
            table.row(vec![
                name.to_string(),
                format!("{:.0}% peak", target * 100.0),
                fmt(m),
                fmt(min_power_at(&d_wide, t)),
                fmt(r),
                gain,
            ]);
        }
    }
    report.table(table);

    // Idle / low-activity power: the energy-proportionality angle
    // (Meisner et al. [23]) — a reconfigurable core parked in its
    // narrowest configuration leaks far less than a fixed core parked at
    // the bottom of its DVFS ladder, because the gated arrays stop leaking.
    let app = AppProfile::balanced();
    let dvfs_floor = *modern.states().last().expect("ladder non-empty");
    let reconf_idle = chip
        .power()
        .core_watts(&app, CoreConfig::narrowest(), 0.0)
        .get();
    let dvfs_parked = {
        // Parked fixed core: bottom of the ladder at zero activity.
        let fixed = simulator::PowerModel::new(params, CoreKind::Fixed);
        let idle_nominal = fixed.core_watts(&app, CoreConfig::widest(), 0.0).get();
        let leak = idle_nominal * 0.6;
        let dynamic = idle_nominal * 0.4;
        dynamic * dvfs_floor.dynamic_scale(params.frequency_ghz) + leak * dvfs_floor.leakage_scale()
    };
    report.line(format!(
        "Idle (parked) core power: fixed core at DVFS floor {dvfs_parked:.2} W vs reconfigurable \
         core at {{2,2,2}} {reconf_idle:.2} W ({:.0}% lower) —",
        100.0 * (1.0 - reconf_idle / dvfs_parked)
    ));
    report.line("the energy-proportionality benefit of gating capacity instead of slowing it.\n");

    // Chip-level: 16 batch cores under tightening budgets — maxBIPS over
    // the modern ladder vs an oracle sweep of core configurations.
    let mix = batch::mix(16, batch::STANDARD_MIX_SEED);
    let dvfs_options: Vec<CoreOptions> = mix
        .profiles()
        .iter()
        .map(|app| {
            modern
                .states()
                .iter()
                .map(|&s| {
                    (
                        dvfs.bips(app, CoreConfig::widest(), cache, s).get(),
                        dvfs.watts(app, CoreConfig::widest(), cache, s).get(),
                    )
                })
                .collect()
        })
        .collect();
    // Reconfiguration "ladder": the per-app Pareto-filtered configuration
    // frontier, reusing the same greedy allocator.
    let reconf_options: Vec<CoreOptions> = mix
        .profiles()
        .iter()
        .map(|app| {
            let mut points = reconfig_frontier(&chip, app, cache);
            points.sort_by(|a, b| b.0.total_cmp(&a.0));
            let mut frontier: CoreOptions = Vec::new();
            let mut best_w = f64::INFINITY;
            for (b, w) in points {
                if w < best_w {
                    best_w = w;
                    frontier.push((b, w));
                }
            }
            frontier
        })
        .collect();

    // Modern chips pair DVFS with core-level gating ("gating has become
    // necessary to reduce power beyond DVFS", §II-A2): give both schemes a
    // gated terminal state so every budget is feasible, then compare the
    // throughput each salvages.
    let with_gating = |options: &[CoreOptions]| -> Vec<CoreOptions> {
        options
            .iter()
            .map(|o| {
                let mut o = o.clone();
                o.push((0.0, params.gated_core_watts));
                o
            })
            .collect()
    };
    let dvfs_gated = with_gating(&dvfs_options);
    let reconf_gated = with_gating(&reconf_options);

    let nominal: f64 = dvfs_options.iter().map(|o| o[0].1).sum();
    let mut table = Table::new(
        "16 batch cores under a tightening budget: maxBIPS over DVFS+gating vs reconfiguration+gating",
        &["budget", "DVFS+gating BIPS", "gated cores", "reconfig BIPS", "gated cores", "reconfig gain"],
    );
    for frac in [0.9, 0.7, 0.5, 0.4, 0.3] {
        let budget = nominal * frac;
        let d = max_bips(&dvfs_gated, 0.0, budget);
        let r = max_bips(&reconf_gated, 0.0, budget);
        let gated = |plan: &baselines::maxbips::MaxBipsPlan, opts: &[CoreOptions]| {
            plan.states
                .iter()
                .zip(opts)
                .filter(|(&s, o)| s == o.len() - 1)
                .count()
        };
        table.row(vec![
            format!("{:.0}%", frac * 100.0),
            format!("{:.1}", d.total_bips),
            gated(&d, &dvfs_gated).to_string(),
            format!("{:.1}", r.total_bips),
            gated(&r, &reconf_gated).to_string(),
            format!("{:.2}x", r.total_bips / d.total_bips.max(1e-9)),
        ]);
    }
    report.table(table);
    report.line("Paper motivation: within its range DVFS is competitive (V^2 savings), but at");
    report.line("tight budgets its thin voltage margins force whole-core gating, while");
    report.line("capacity gating keeps every core contributing (Zhang et al. [20]).");
    report
}
