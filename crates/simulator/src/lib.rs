//! Reconfigurable multicore simulator substrate.
//!
//! This crate stands in for the zsim + McPAT v1.3 infrastructure used by the
//! CuttleSys paper (MICRO 2020). It models a multicore in which every core is
//! split into three sections — front-end (FE), back-end (BE), and load/store
//! (LS) — each independently configurable to six-, four-, or two-wide, for a
//! total of 27 core configurations, plus a way-partitioned last level cache.
//!
//! The simulator is *analytic* rather than cycle-accurate: it produces the
//! same interface the CuttleSys runtime consumes — throughput (BIPS), power
//! (Watts), and per-core instruction counts as a function of the assigned
//! application, core configuration, LLC way allocation, and chip-level
//! contention — with the qualitative shapes the paper's evaluation depends on
//! (section-width bottlenecks, cache miss curves, bandwidth contention, and
//! the energy/frequency tax of reconfigurable cores).
//!
//! # Quick example
//!
//! ```
//! use simulator::{AppProfile, CoreConfig, CacheAlloc, SystemParams, PerfModel};
//!
//! let params = SystemParams::default();
//! let perf = PerfModel::new(params);
//! let app = AppProfile::balanced();
//! let wide = perf.bips(&app, CoreConfig::widest(), CacheAlloc::Four, 0.0);
//! let narrow = perf.bips(&app, CoreConfig::narrowest(), CacheAlloc::Half, 0.0);
//! assert!(wide.get() > narrow.get());
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod chip;
pub mod config;
pub mod dvfs;
pub mod fault;
pub mod metrics;
pub mod params;
pub mod perf;
pub mod power;
pub mod profile;

pub use cache::{BandwidthModel, LlcPartition};
pub use chip::{Chip, CoreAssignment, CoreState, FrameResult, JobId};
pub use config::{
    CacheAlloc, CoreConfig, JobConfig, Section, SectionWidth, NUM_CACHE_ALLOCS, NUM_CORE_CONFIGS,
    NUM_JOB_CONFIGS,
};
pub use dvfs::{DvfsLadder, DvfsModel, DvfsState};
pub use fault::{Corruption, FaultStream};
pub use metrics::{Bips, Millis, Watts};
pub use params::SystemParams;
pub use perf::PerfModel;
pub use power::PowerModel;
pub use profile::AppProfile;
