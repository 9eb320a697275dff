//! The experiments, one module each, and the [`REGISTRY`] that names them.
//!
//! A module's doc comment says which table or figure it regenerates and
//! what the paper reports there; its `run` builds the [`Report`] from the
//! run [`Grid`] it is handed. Arguments are declared here as data — nothing
//! below parses a command line.

use crate::cli::Kind::{Fraction, Int, OneOf, Text};
use crate::cli::{ArgSpec, Args, Kind};
use crate::grid::Grid;
use crate::report::Report;

mod dds_iters;
mod fault_matrix;
mod feedback;
mod fig01;
mod fig05;
mod fig05c;
mod fig07;
mod fig08;
mod fig09;
mod fig10;
mod flicker;
mod gating_orders;
mod pareto;
mod reconfig_cost;
mod sgd;
mod sweep;
mod table2;
mod training_set;

/// One registered experiment.
pub struct Experiment {
    /// What `paper <id>` is called by; DESIGN.md §4 cites it.
    pub id: &'static str,
    /// The table, figure or section of the paper it regenerates.
    pub paper_item: &'static str,
    /// Its declared arguments.
    pub args: &'static [ArgSpec],
    /// Runs it, reading its cells and factor libraries from the grid.
    pub run: fn(&Args, &Grid) -> Report,
}

const fn arg(name: &'static str, kind: Kind, default: &'static str) -> ArgSpec {
    ArgSpec {
        name,
        kind,
        default,
    }
}

/// SPEC mixes per service; the evaluation's 50 co-locations are 10.
const fn mixes(default: &'static str) -> ArgSpec {
    arg("mixes_per_service", Int(1), default)
}
/// The power cap as a fraction of the nominal budget.
const CAP: ArgSpec = arg("cap_fraction", Fraction, "0.7");
/// Run length in 100 ms timeslices.
const SLICES: ArgSpec = arg("slices", Int(1), "10");
/// Fig. 1: all 27 configurations per service instead of the 8 extreme ones.
const FULL: ArgSpec = arg("--full", OneOf(&["--full"]), "");
/// Fig. 5: (a), (b), or both.
const FIG05_MODE: ArgSpec = arg(
    "mode",
    OneOf(&["--isolation", "--runtime", "--both"]),
    "--both",
);
/// Fig. 10: (a), (b), or both.
const FIG10_MODE: ArgSpec = arg("mode", OneOf(&["--scatter", "--sweep", "--both"]), "--both");
/// Fig. 8: which panel — (a) load, (b) power, (c) relocation.
const PANEL: ArgSpec = arg(
    "--scenario",
    OneOf(&["all", "load", "power", "relocation"]),
    "all",
);
/// The fault plan's seed.
const SEED: ArgSpec = arg("--seed", Int(0), "7");
/// The sweep's scenario file (required; absent, the sweep refuses).
const SCENARIO: ArgSpec = arg("scenario", Text, "");
/// The sweep's output directory (absent: `runs/<name>`).
const OUT: ArgSpec = arg("--out", Text, "");

/// Every experiment, in the order of DESIGN.md §4.
#[rustfmt::skip]
pub const REGISTRY: &[Experiment] = &[
    Experiment { id: "fig01", paper_item: "Fig. 1 (§III)", args: &[FULL], run: fig01::run },
    Experiment { id: "table2", paper_item: "Table II", args: &[], run: table2::run },
    Experiment { id: "fig05", paper_item: "Fig. 5(a)/(b)", args: &[FIG05_MODE, mixes("10")], run: fig05::run },
    Experiment { id: "fig05c", paper_item: "Fig. 5(c)", args: &[mixes("10")], run: fig05c::run },
    Experiment { id: "fig07", paper_item: "Fig. 7", args: &[CAP], run: fig07::run },
    Experiment { id: "fig08", paper_item: "Fig. 8(a)-(c)", args: &[PANEL, SLICES], run: fig08::run },
    Experiment { id: "fig09", paper_item: "Fig. 9", args: &[], run: fig09::run },
    Experiment { id: "fig10", paper_item: "Fig. 10(a)/(b)", args: &[FIG10_MODE, mixes("10")], run: fig10::run },
    Experiment { id: "flicker", paper_item: "§VIII-E", args: &[CAP, mixes("2")], run: flicker::run },
    Experiment { id: "pareto", paper_item: "§I/§II motivation", args: &[], run: pareto::run },
    Experiment { id: "feedback", paper_item: "§IV open vs closed loop", args: &[], run: feedback::run },
    Experiment { id: "ablation-training-set", paper_item: "§VIII-A2", args: &[], run: training_set::run },
    Experiment { id: "ablation-dds-iters", paper_item: "§VI / §VIII-A3", args: &[], run: dds_iters::run },
    Experiment { id: "ablation-gating-orders", paper_item: "§VII-B", args: &[mixes("2")], run: gating_orders::run },
    Experiment { id: "ablation-sgd", paper_item: "§V", args: &[], run: sgd::run },
    Experiment { id: "ablation-reconfig-cost", paper_item: "§IV quantum choice", args: &[], run: reconfig_cost::run },
    Experiment { id: "fault-matrix", paper_item: "robustness (DESIGN.md §7)", args: &[SEED, SLICES], run: fault_matrix::run },
    Experiment { id: "sweep", paper_item: "§VII-§VIII scenario grids", args: &[SCENARIO, OUT], run: sweep::run },
];
