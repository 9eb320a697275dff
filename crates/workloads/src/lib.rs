//! Synthetic workload models for the CuttleSys reproduction.
//!
//! The paper evaluates on SPEC CPU2006 binaries (batch) and TailBench
//! interactive services (latency-critical), neither of which can run inside
//! an analytic simulator. This crate supplies the closest synthetic
//! equivalents:
//!
//! * [`batch`] — a catalog of 28 named SPEC CPU2006 application profiles with
//!   hand-assigned microarchitectural characteristics, split 16/12 into the
//!   training and testing sets of §VII-A, plus the multiprogrammed mix
//!   generator.
//! * [`latency`] — the five TailBench services with the paper's saturation
//!   loads, each mapped to a queueing model whose per-request service rate is
//!   driven by the simulator's performance model.
//! * [`queueing`] — an analytic M/M/k tail-latency model with explicit
//!   saturation behaviour.
//! * [`loadgen`] — constant, diurnal, step, and spike input-load patterns
//!   (§VIII-D).
//! * [`phase`] — slow application phase drift, the source of runtime
//!   prediction error in Fig. 5(b).
//!
//! # Quick example
//!
//! ```
//! use workloads::{batch, latency};
//!
//! assert_eq!(batch::catalog().len(), 28);
//! assert_eq!(batch::training_set().len(), 16);
//! assert_eq!(batch::testing_set().len(), 12);
//! let xapian = latency::service_by_name("xapian").unwrap();
//! assert_eq!(xapian.max_qps, 22_000.0);
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod latency;
pub mod loadgen;
pub mod oracle;
pub mod phase;
pub mod queueing;

pub use batch::{SpecBenchmark, SpecMix};
pub use latency::LcService;
pub use loadgen::LoadPattern;
pub use oracle::Oracle;
pub use phase::PhasedProfile;
pub use queueing::MmcQueue;
