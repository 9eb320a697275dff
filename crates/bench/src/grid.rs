//! The run grid: every (scheme, co-location, cap) the paper's §VIII
//! evaluates, run once and kept.
//!
//! Fig. 5(c), Fig. 7, Fig. 10(b), `flicker` and `ablation-gating-orders`
//! read the same standard co-locations under the same constant caps, so a
//! cell one of them reads is run by the first reader and handed to the
//! rest: Fig. 10(b)'s DDS column *is* Fig. 5(c)'s CuttleSys runs. Runs are
//! deterministic, so a cell's record does not depend on who asked first.
//! The grid also holds the [`Libraries`] every CuttleSys run of the record
//! learns its chip's factors from; experiments that build their own
//! managers take their library from it too.

use std::sync::{Arc, Mutex, PoisonError};

use cuttlesys::managers::Scheme;
use cuttlesys::matrices::Libraries;
use cuttlesys::types::RunRecord;
use workloads::latency::LcService;

use crate::standard_scenario;

/// A cell: `scheme` on [`standard_scenario`]`(service, mix, cap)`.
#[derive(PartialEq)]
struct Key {
    scheme: Scheme,
    service: LcService,
    mix: u64,
    /// The cap's bits: equal caps are the same cell, and only they are.
    cap: u64,
}

/// Each cell's [`RunRecord`], computed on first read, and one factor
/// library per chip.
#[derive(Default)]
pub struct Grid {
    libraries: Libraries,
    cells: Mutex<Vec<(Key, Arc<RunRecord>)>>,
}

impl Grid {
    /// The record of `scheme` on [`standard_scenario`]`(service, mix, cap)`,
    /// run on the first read of the cell and kept for every later one.
    pub fn record(
        &self,
        scheme: Scheme,
        service: &LcService,
        mix: u64,
        cap: f64,
    ) -> Arc<RunRecord> {
        let key = Key {
            scheme,
            service: *service,
            mix,
            cap: cap.to_bits(),
        };
        // A panicking run stores nothing, so a poisoned lock still guards
        // complete cells.
        let mut cells = self.cells.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, record)) = cells.iter().find(|(k, _)| *k == key) {
            return Arc::clone(record);
        }
        let scenario = standard_scenario(service, mix, cap);
        let record = Arc::new(scheme.run_sharing(&scenario, &self.libraries));
        cells.push((key, Arc::clone(&record)));
        record
    }

    /// The factor libraries the grid's runs share, one per chip.
    pub fn libraries(&self) -> &Libraries {
        &self.libraries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::gating::GatingOrder;
    use workloads::latency;

    #[test]
    fn a_cell_read_twice_runs_once() {
        let grid = Grid::default();
        let svc = latency::service_by_name("silo").unwrap();
        let first = grid.record(Scheme::CuttleSys, &svc, 0, 0.7);
        let again = grid.record(Scheme::CuttleSys, &svc, 0, 0.7);
        let runs = || grid.cells.lock().unwrap().len();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(runs(), 1);
        let _ = grid.record(Scheme::CuttleSys, &svc, 0, 0.6);
        let _ = grid.record(Scheme::CuttleSys, &svc, 1, 0.7);
        let _ = grid.record(Scheme::NoGating, &svc, 0, 0.7);
        assert_eq!(runs(), 4);
        assert_eq!(grid.libraries().learned(), 1, "one chip, one library");
    }

    #[test]
    fn a_cell_is_what_its_scheme_runs_on_the_standard_scenario() {
        let grid = Grid::default();
        let svc = latency::service_by_name("xapian").unwrap();
        let gating = Scheme::CoreGating {
            order: GatingOrder::DescendingPower,
            way_partitioning: false,
        };
        // The second CuttleSys cell takes the library the first learned.
        for (scheme, mix) in [(gating, 1), (Scheme::CuttleSys, 0), (Scheme::CuttleSys, 1)] {
            let alone = scheme.run(&standard_scenario(&svc, mix, 0.7));
            let cell = grid.record(scheme, &svc, mix, 0.7);
            assert_eq!((*cell).clone().comparable(), alone.comparable());
        }
    }
}
