//! Fig. 1 (§III): characterization of tail latency and power of the five
//! latency-critical services across all 27 core configurations, on a
//! homogeneous 16-core system, at 20 % and 80 % load.
//!
//! The paper's observations to reproduce:
//! * at high load, tail latency increases dramatically when the sections a
//!   service depends on are constrained; at low load it stays low even in
//!   narrow configurations;
//! * the critical section differs per service (Xapian: LS; Moses: FE;
//!   ImgDNN/Masstree/Silo: FE and LS);
//! * the least-power configuration that keeps the tail low differs per
//!   service.
//!
//! By default reports the 8 extreme rows per service; `--full` all 27.

use simulator::power::CoreKind;
use simulator::{CacheAlloc, Chip, CoreConfig, Section, SystemParams};
use workloads::latency::{self, LcService};

use crate::cli::Args;
use crate::grid::Grid;
use crate::{Report, Table};

/// One characterized configuration.
struct Row {
    config: CoreConfig,
    tail_low: f64,
    tail_high: f64,
    watts: f64,
}

fn characterize(chip: &Chip, svc: &LcService) -> Vec<Row> {
    let cores = chip.params().num_cores;
    let cache = CacheAlloc::Four;
    let mut rows: Vec<Row> = CoreConfig::all()
        .map(|config| {
            let ipc = chip.perf().ipc(&svc.profile, config, cache.ways(), 0.0);
            let bips = chip.core_bips(&svc.profile, config, cache.ways(), 0.0);
            let per_core = chip
                .power()
                .job_core_watts(&svc.profile, config, cache, ipc, bips);
            Row {
                config,
                tail_low: svc
                    .tail_latency_ms(chip.perf(), cores, config, cache, 0.2, 0.0)
                    .get(),
                tail_high: svc
                    .tail_latency_ms(chip.perf(), cores, config, cache, 0.8, 0.0)
                    .get(),
                watts: per_core.get() * cores as f64,
            }
        })
        .collect();
    // The paper sorts the x-axis by tail latency at 80% load.
    rows.sort_by(|a, b| a.tail_high.total_cmp(&b.tail_high));
    rows
}

/// The most tail-critical section: narrow only that section from {6,6,6}
/// and measure the damage.
fn critical_section(chip: &Chip, svc: &LcService) -> Section {
    let cores = chip.params().num_cores;
    let cache = CacheAlloc::Four;
    let narrowed = |s: Section| {
        let mut widths = [simulator::SectionWidth::Six; 3];
        widths[match s {
            Section::FrontEnd => 0,
            Section::BackEnd => 1,
            Section::LoadStore => 2,
        }] = simulator::SectionWidth::Two;
        let config = CoreConfig::new(widths[0], widths[1], widths[2]);
        svc.tail_latency_ms(chip.perf(), cores, config, cache, 0.8, 0.0)
            .get()
    };
    Section::ALL
        .into_iter()
        .max_by(|a, b| narrowed(*a).total_cmp(&narrowed(*b)))
        .expect("three sections")
}

pub(super) fn run(args: &Args, _: &Grid) -> Report {
    let full = args.word("--full") == "--full";
    let mut report = Report::default();
    let chip = Chip::new(SystemParams::paper_16core(), CoreKind::Reconfigurable);

    for svc in latency::services() {
        let rows = characterize(&chip, &svc);
        let mut table = Table::new(
            &format!(
                "Fig. 1: {} (QoS {} ms, max {} kQPS) — sorted by tail@80%",
                svc.name,
                svc.qos_ms,
                svc.max_qps / 1000.0
            ),
            &[
                "config",
                "tail@20% (ms)",
                "tail@80% (ms)",
                "power (W, 16 cores)",
            ],
        );
        let selected: Vec<&Row> = if full {
            rows.iter().collect()
        } else {
            rows.iter()
                .take(4)
                .chain(rows.iter().rev().take(4).rev())
                .collect()
        };
        for r in selected {
            table.row(vec![
                r.config.to_string(),
                format!("{:.2}", r.tail_low),
                if r.tail_high > 1e4 {
                    "saturated".to_string()
                } else {
                    format!("{:.2}", r.tail_high)
                },
                format!("{:.1}", r.watts),
            ]);
        }
        report.table(table);

        // Best power among QoS-meeting configs at 80% load (the paper's
        // per-service "least power while keeping tail low" labels).
        let best = rows
            .iter()
            .filter(|r| r.tail_high <= svc.qos_ms)
            .min_by(|a, b| a.watts.total_cmp(&b.watts));
        let low_ok = rows.iter().filter(|r| r.tail_low <= svc.qos_ms).count();
        report.line(match best {
            Some(b) => format!(
                "  least-power config meeting QoS at 80% load: {} ({:.1} W); \
                 critical section: {}; configs meeting QoS at 20% load: {}/27\n",
                b.config,
                b.watts,
                critical_section(&chip, &svc),
                low_ok
            ),
            None => "  no configuration meets QoS at 80% load\n".to_string(),
        });
    }
    report
}
