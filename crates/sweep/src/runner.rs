//! The sweep executor: grid enumeration and parallel seeded runs.
//!
//! The run grid is enumerated *before* any execution: cells in the
//! deterministic nested order shapes × caps × faults × fleet-faults,
//! seeds within a cell in sorted order. Execution fans the flat point
//! list across the caller's [`WorkerPool`] with
//! [`WorkerPool::map_indexed`], which writes each result into its
//! input slot — so the output ordering (and therefore every byte of
//! the summary) is independent of pool width and scheduling. Runs
//! themselves are bit-deterministic per the core/cluster contracts, so
//! serial and parallel sweeps agree exactly.

use cluster::{ClusterConfig, ClusterCoordinator, ClusterEvent, ClusterScenario, FleetFaultPlan};
use cuttlesys::{run_scenario, CuttleSysManager};
use util::WorkerPool;

use crate::detectors::{evaluate, Finding, RunSeries};
use crate::spec::{LoadShape, SweepSpec, Topology};

/// One grid cell: a point on every axis except the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The load shape driving the primary LC tenant.
    pub shape: LoadShape,
    /// The power cap as a fraction of nominal.
    pub cap: f64,
    /// The single-node fault profile name.
    pub fault: String,
    /// The fleet fault profile name (`"clean"` for single-node sweeps).
    pub fleet_fault: String,
}

impl Cell {
    /// A stable, human-readable cell label for reports.
    pub fn label(&self) -> String {
        format!(
            "{} cap={} fault={} fleet={}",
            self.shape.label(),
            self.cap,
            self.fault,
            self.fleet_fault
        )
    }
}

/// Cluster-level metrics of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterMetrics {
    /// Fleet size.
    pub nodes: usize,
    /// Evacuations (batch re-placements + LC traffic foldings).
    pub evacuations: usize,
    /// Tenants still parked in the displaced queue at run end.
    pub displaced_final: usize,
    /// Tenants lost outright: abandoned migrations plus tenants still
    /// displaced when the run ended.
    pub tenants_lost: usize,
    /// Quanta the fleet spent in degraded mode.
    pub fleet_degraded_quanta: usize,
}

/// The scalar metrics and detector series of one seeded run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// The run's seed.
    pub seed: u64,
    /// Quanta executed.
    pub quanta: usize,
    /// Quanta in which some LC tenant violated QoS.
    pub qos_violations: usize,
    /// Quanta in which the power cap was exceeded.
    pub power_violations: usize,
    /// Worst observed p99/QoS ratio across tenants and quanta.
    pub worst_tail_ratio: f64,
    /// Total batch instructions retired (fleet-summed for clusters).
    pub batch_instructions: f64,
    /// Quanta spent anywhere on the degradation ladder (node-level;
    /// summed across nodes for clusters).
    pub degraded_quanta: usize,
    /// Quanta spent in safe mode (summed across nodes for clusters).
    pub safe_mode_quanta: usize,
    /// Quanta that carried an injected single-node fault.
    pub injected_fault_slices: usize,
    /// The per-quantum series the detectors consume.
    pub series: RunSeries,
    /// Fleet metrics (`None` for single-node runs).
    pub cluster: Option<ClusterMetrics>,
}

/// One executed run: its metrics plus every detector's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The metrics.
    pub metrics: RunMetrics,
    /// Detector findings in catalogue order.
    pub findings: Vec<Finding>,
}

impl RunOutcome {
    /// Whether any detector tripped on this run.
    pub fn tripped(&self) -> bool {
        self.findings.iter().any(|f| f.tripped)
    }
}

/// One cell with all its seeded runs, in sorted-seed order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The cell.
    pub cell: Cell,
    /// One outcome per seed.
    pub runs: Vec<RunOutcome>,
}

/// A fully-executed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Cells in grid order, each with its runs in seed order.
    pub cells: Vec<CellOutcome>,
}

impl SweepOutcome {
    /// Total runs executed.
    pub fn total_runs(&self) -> usize {
        self.cells.iter().map(|c| c.runs.len()).sum()
    }

    /// Whether any detector tripped anywhere in the sweep.
    pub fn tripped(&self) -> bool {
        self.cells
            .iter()
            .any(|c| c.runs.iter().any(RunOutcome::tripped))
    }
}

/// Enumerates the grid cells in the canonical nested order:
/// shapes × caps × fault profiles × fleet fault profiles.
pub fn grid(spec: &SweepSpec) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(
        spec.load_shapes.len()
            * spec.caps.len()
            * spec.fault_profiles.len()
            * spec.fleet_fault_profiles.len(),
    );
    for shape in &spec.load_shapes {
        for &cap in &spec.caps {
            for fault in &spec.fault_profiles {
                for fleet_fault in &spec.fleet_fault_profiles {
                    cells.push(Cell {
                        shape: shape.clone(),
                        cap,
                        fault: fault.clone(),
                        fleet_fault: fleet_fault.clone(),
                    });
                }
            }
        }
    }
    cells
}

fn run_single(spec: &SweepSpec, cell: &Cell, seed: u64) -> RunMetrics {
    let scenario = spec.scenario_for(&cell.shape, cell.cap, &cell.fault, seed);
    let mut manager = CuttleSysManager::for_scenario(&scenario);
    let record = run_scenario(&scenario, &mut manager);
    let series = RunSeries {
        qos_violated: record.slices.iter().map(|s| s.qos_violation()).collect(),
        safe_mode_quanta: record.safe_mode_quanta(),
        degraded_quanta: record.degraded_quanta(),
        throughput: record.slices.iter().map(|s| s.batch_instructions).collect(),
        displaced: Vec::new(),
        tenants_lost: 0,
        quanta: record.slices.len(),
        error: None,
    };
    RunMetrics {
        seed,
        quanta: record.slices.len(),
        qos_violations: record.qos_violations(),
        power_violations: record.power_violations(),
        worst_tail_ratio: record.worst_tail_ratio(),
        batch_instructions: record.batch_instructions(),
        degraded_quanta: record.degraded_quanta(),
        safe_mode_quanta: record.safe_mode_quanta(),
        injected_fault_slices: record.injected_fault_slices(),
        series,
        cluster: None,
    }
}

fn run_cluster(spec: &SweepSpec, cell: &Cell, seed: u64, nodes: usize) -> RunMetrics {
    let base = spec.scenario_for(&cell.shape, cell.cap, &cell.fault, seed);
    let node_faults = base.faults.clone();
    let cs = ClusterScenario::uniform(&base, nodes).with_node_faults(node_faults);
    // Profiles are validated at load time, so the lookup cannot fail.
    let plan = FleetFaultPlan::named(&cell.fleet_fault, seed).unwrap_or_else(FleetFaultPlan::none);
    let mut coord = ClusterCoordinator::with_faults(&cs, ClusterConfig::default(), plan);

    let mut displaced_series = Vec::with_capacity(spec.quanta);
    let mut fleet_degraded_quanta = 0;
    let mut error = None;
    for _ in 0..spec.quanta {
        if let Err(e) = coord.step_quantum() {
            error = Some(format!("cluster step failed: {e}"));
            break;
        }
        displaced_series.push(coord.displaced_tenants());
        if coord.is_degraded() {
            fleet_degraded_quanta += 1;
        }
    }
    // A full match (no `_` arm) so that a new fleet event variant forces a
    // decision here: does the sweep verdict need to count it?
    let abandoned = coord
        .drain_events()
        .iter()
        .filter(|e| match e {
            ClusterEvent::MigrationAbandoned { .. } => true,
            ClusterEvent::Node(_)
            | ClusterEvent::Placed { .. }
            | ClusterEvent::MigrationStarted { .. }
            | ClusterEvent::MigrationCompleted { .. }
            | ClusterEvent::MigrationFailed { .. }
            | ClusterEvent::MigrationRetried { .. }
            | ClusterEvent::NodeHealthChanged { .. }
            | ClusterEvent::NodeDrained { .. }
            | ClusterEvent::Evacuated { .. }
            | ClusterEvent::Displaced { .. }
            | ClusterEvent::FleetDegraded { .. }
            | ClusterEvent::FleetRecovered { .. }
            | ClusterEvent::SharesShifted { .. } => false,
        })
        .count();
    let displaced_final = coord.displaced_tenants();
    let evacuations = coord.evacuations_total();
    let record = coord.into_record();

    // Per-quantum fleet series. A crashed node's record simply stops,
    // so its missing quanta contribute zero throughput and no QoS
    // signal — exactly the collapse the cliff detector looks for.
    let quanta = record.quanta;
    let mut qos_violated = vec![false; quanta];
    let mut throughput = vec![0.0; quanta];
    for node in &record.nodes {
        for (q, slice) in node.slices.iter().enumerate().take(quanta) {
            if slice.qos_violation() {
                qos_violated[q] = true;
            }
            throughput[q] += slice.batch_instructions;
        }
    }
    let safe_mode_quanta = record.nodes.iter().map(|n| n.safe_mode_quanta()).sum();
    let degraded_quanta = record.nodes.iter().map(|n| n.degraded_quanta()).sum();
    let tenants_lost = abandoned + displaced_final;
    let series = RunSeries {
        qos_violated,
        safe_mode_quanta,
        degraded_quanta,
        throughput: throughput.clone(),
        displaced: displaced_series,
        tenants_lost,
        quanta,
        error: error.clone(),
    };
    RunMetrics {
        seed,
        quanta,
        qos_violations: series.qos_violated.iter().filter(|&&v| v).count(),
        power_violations: record.nodes.iter().map(|n| n.power_violations()).sum(),
        worst_tail_ratio: record
            .nodes
            .iter()
            .map(|n| n.worst_tail_ratio())
            .fold(0.0, f64::max),
        batch_instructions: record.nodes.iter().map(|n| n.batch_instructions()).sum(),
        degraded_quanta,
        safe_mode_quanta,
        injected_fault_slices: record.nodes.iter().map(|n| n.injected_fault_slices()).sum(),
        series,
        cluster: Some(ClusterMetrics {
            nodes,
            evacuations,
            displaced_final,
            tenants_lost,
            fleet_degraded_quanta,
        }),
    }
}

fn run_point(spec: &SweepSpec, cell: &Cell, seed: u64) -> RunOutcome {
    let metrics = match spec.topology {
        Topology::SingleNode => run_single(spec, cell, seed),
        Topology::Cluster { nodes } => run_cluster(spec, cell, seed, nodes),
    };
    let findings = evaluate(&metrics.series);
    RunOutcome { metrics, findings }
}

/// The cells of [`grid`] whose [`Cell::label`] contains `filter`.
///
/// This is the `sweep run --filter` selection rule: a plain substring
/// match against the exact label the pass/fail table prints, so a row
/// copied out of a failing CI log re-runs that cell verbatim. An empty
/// filter matches every cell.
pub fn filter_grid(spec: &SweepSpec, filter: &str) -> Vec<Cell> {
    grid(spec)
        .into_iter()
        .filter(|c| c.label().contains(filter))
        .collect()
}

/// Executes every run of the sweep across `pool`, returning cells in
/// grid order with runs in seed order — bit-identical at any pool
/// width and for any on-disk seed ordering.
pub fn run_sweep(spec: &SweepSpec, pool: &WorkerPool) -> SweepOutcome {
    run_cells(spec, pool, grid(spec))
}

/// [`run_sweep`] over a caller-chosen subset of the grid (normally from
/// [`filter_grid`]). The subset keeps grid order, so a filtered outcome
/// is a projection of the full sweep: every surviving cell's runs are
/// bit-identical to what the unfiltered sweep produces for that cell.
pub fn run_sweep_cells(spec: &SweepSpec, pool: &WorkerPool, cells: Vec<Cell>) -> SweepOutcome {
    run_cells(spec, pool, cells)
}

fn run_cells(spec: &SweepSpec, pool: &WorkerPool, cells: Vec<Cell>) -> SweepOutcome {
    let points: Vec<(usize, u64)> = cells
        .iter()
        .enumerate()
        .flat_map(|(c, _)| spec.seeds.iter().map(move |&s| (c, s)))
        .collect();
    let outcomes = pool.map_indexed(&points, |_, &(c, seed)| run_point(spec, &cells[c], seed));
    let per_cell = spec.seeds.len();
    let mut out = Vec::with_capacity(cells.len());
    let mut iter = outcomes.into_iter();
    for cell in cells {
        let runs: Vec<RunOutcome> = iter.by_ref().take(per_cell).collect();
        out.push(CellOutcome { cell, runs });
    }
    SweepOutcome { cells: out }
}
