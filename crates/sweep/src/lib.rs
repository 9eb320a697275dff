//! Statistical scenario fleet: declarative sweeps that turn every
//! claim into hundreds of verified runs.
//!
//! A *sweep* is a JSON scenario file describing a grid of conditions —
//! load shapes, power caps, fault profiles, fleet fault profiles — and
//! a set of seeds. The runner executes every `(cell, seed)` point
//! through the real CuttleSys stack (single node or lockstep cluster),
//! in parallel across a [`util::WorkerPool`], and reduces the results
//! to cross-seed statistics, a byte-stable `summary.json`, and a
//! detector verdict: a pass/fail table whose failure means a claim the
//! repo makes (QoS recovery, graceful degradation, no throughput
//! cliffs, no stranded tenants) did not hold somewhere in the grid.
//!
//! The determinism contract, verified by `tests/sweep_determinism.rs`:
//! the summary is bit-identical at any pool width and for any on-disk
//! seed ordering, because the run grid is enumerated before execution,
//! seeds are canonicalized (sorted, deduplicated) at load time, every
//! run is bit-deterministic, and results land in pre-assigned slots.
//!
//! * [`spec`] — the scenario format and its strict loader.
//! * [`runner`] — grid enumeration and parallel execution.
//! * [`detectors`] — the pure pass/fail reductions.
//! * [`report`] — cross-seed stats and `summary.json`.
//!
//! This crate is the library only. `cargo paper sweep <scenario.json>
//! [--out <dir>]` (the `bench` crate's `sweep` experiment) loads a spec,
//! runs it, writes `summary.json` and prints the pass/fail tables.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod detectors;
pub mod report;
pub mod runner;
pub mod spec;

pub use detectors::{Finding, RunSeries};
pub use report::{summary_json, Stats};
pub use runner::{run_sweep, Cell, CellOutcome, RunMetrics, RunOutcome, SweepOutcome};
pub use spec::{load_spec, LoadShape, SweepError, SweepSpec, Topology};
