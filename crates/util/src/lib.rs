//! Shared runtime utilities for the CuttleSys workspace.
//!
//! Four things live here because more than one crate needs them and the
//! crates that need them must not depend on each other:
//!
//! * [`pool`] — [`pool::WorkerPool`], a width: each `scope` runs its jobs
//!   on the caller plus at most `threads - 1` threads of one
//!   `std::thread::scope`. The paper runs SGD and DDS on spare cores (§V,
//!   §VI); here both measured faster inline, so no decision quantum opens a
//!   scope. What does is coarse — the sweep runner, opt-in pooled fleet
//!   stepping, the HOGWILD reference fit — and handed `None`, every
//!   `Option<&WorkerPool>` entry point runs its logical workers inline.
//! * [`rng64`] — the SplitMix64 finalizer and the counter-based stream
//!   mixing built on it. Previously each crate carried its own copy of the
//!   constants; a single unit-tested helper keeps the fault streams (and the
//!   DDS per-thread seeding) from silently diverging.
//! * [`reduce`] — worker-ordered reduction helpers. Parallel float
//!   reductions must fold per-worker slots in worker-index order to stay
//!   bit-deterministic; the atomic read-modify-write bans in
//!   `crates/clippy.toml` point offenders here.
//! * [`json`] — the hand-rolled [`json::JsonValue`] writer and parser.
//!   Shared by the bench report tables, the core run-record snapshots, and
//!   the control-plane service.

#![forbid(unsafe_code)]

pub mod json;
pub mod pool;
pub mod reduce;
pub mod rng64;

pub use json::{emit_json, JsonValue};
pub use pool::WorkerPool;
