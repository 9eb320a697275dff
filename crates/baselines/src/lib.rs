//! Baseline resource managers the paper compares CuttleSys against (§VII-B,
//! §VII-C, §VIII-E).
//!
//! * [`gating`] — core-level gating: the widely deployed C6-style baseline
//!   that turns whole cores off to meet the power budget, with the four
//!   core-selection orderings the paper evaluates and an optional UCP-style
//!   LLC way-partitioning.
//! * [`asymmetric`] — the oracle-like asymmetric multicore: big ({6,6,6}) and
//!   little ({2,2,2}) fixed cores with an oracle choosing the split and the
//!   job placement each timeslice, plus the realistic fixed 50-50 variant.
//! * [`ga`] — a generational genetic algorithm over the same configuration
//!   space as DDS (the paper's Fig. 10 comparison and Flicker's optimizer).
//! * [`feedback`] — a PID power controller over a global width level, the
//!   closed-loop alternative §IV argues converges too slowly.
//! * [`maxbips`] — the classic global DVFS power manager (Isci et al.),
//!   used to quantify the paper's DVFS-range motivation.
//! * [`rbf`] — radial-basis-function surrogate fitting (Flicker's inference,
//!   compared against SGD in Fig. 9).
//! * [`flicker`] — Flicker itself: 3-level sampling, RBF surrogates per job,
//!   and GA search over core configurations only (no cache partitioning).

#![forbid(unsafe_code)]

pub mod asymmetric;
pub mod feedback;
pub mod flicker;
pub mod ga;
pub mod gating;
pub mod maxbips;
pub mod rbf;

pub use asymmetric::{oracle_plan, plan_with_big_count, AsymmetricInput, AsymmetricPlan};
pub use feedback::{PidController, WidthLevel};
pub use flicker::{three_level_design, FlickerModel};
pub use ga::{ga_search, GaParams};
pub use gating::{select_gated, ucp_partition, GatingOrder};
pub use maxbips::{max_bips, MaxBipsPlan};
pub use rbf::RbfModel;
