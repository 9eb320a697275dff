//! Baseline resource managers the paper compares CuttleSys against (§VII-B,
//! §VII-C, §VIII-E).
//!
//! * [`gating`] — core-level gating: the widely deployed C6-style baseline
//!   that turns whole cores off to meet the power budget, with the four
//!   core-selection orderings the paper evaluates, the greedy victim loop
//!   every gate on the chip shares (CuttleSys' repair and safe mode and
//!   Flicker's last resort included), and UCP-style LLC way-partitioning.
//! * [`asymmetric`] — the oracle-like asymmetric multicore: big ({6,6,6}) and
//!   little ({2,2,2}) fixed cores, every big-core count tried each timeslice
//!   with a greedy job placement per count, plus the realistic fixed-split
//!   variant.
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
