//! Shared runtime utilities for the CuttleSys workspace.
//!
//! Two things live here because more than one crate needs them and the
//! crates that need them must not depend on each other:
//!
//! * [`pool`] — a persistent [`pool::WorkerPool`] with long-lived threads
//!   and channel dispatch. The decision quantum leaves almost no budget for
//!   the manager itself (Table 2 of the paper charges reconstruction + DDS
//!   against the 100 ms quantum), so spawning OS threads per call is
//!   avoidable overhead: HOGWILD SGD, the three-matrix reconstruction
//!   driver, and parallel DDS all reuse one pool across quanta instead
//!   (or, handed no pool, run their logical workers inline).
//! * [`rng64`] — the SplitMix64 finalizer and the counter-based stream
//!   mixing built on it. Previously each crate carried its own copy of the
//!   constants; a single unit-tested helper keeps the fault streams (and the
//!   DDS per-thread seeding) from silently diverging.
//! * [`reduce`] — worker-ordered reduction helpers. Parallel float
//!   reductions must fold per-worker slots in worker-index order to stay
//!   bit-deterministic; the `DET-FLOAT-REDUCE` lint points offenders here.
//! * [`json`] — the hand-rolled [`json::JsonValue`] writer and parser.
//!   Shared by the bench report tables, the core run-record snapshots, and
//!   the control-plane service.

pub mod json;
pub mod pool;
pub mod reduce;
pub mod rng64;

pub use json::{emit_json, JsonValue};
pub use pool::WorkerPool;
