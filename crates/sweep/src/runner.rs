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
//! serial and parallel sweeps agree exactly. Single-node runs on one chip
//! share its factor library through one [`Libraries`], which moves no bit.

use cluster::{
    ClusterConfig, ClusterCoordinator, ClusterEvent, ClusterRecord, ClusterScenario, FleetFaultPlan,
};
use cuttlesys::managers::Scheme;
use cuttlesys::matrices::Libraries;
use cuttlesys::types::RunRecord;
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
    /// Quanta in which some LC tenant violated QoS.
    pub qos_violations: usize,
    /// Quanta in which the power cap was exceeded.
    pub power_violations: usize,
    /// Worst observed p99/QoS ratio across tenants and quanta.
    pub worst_tail_ratio: f64,
    /// Total batch instructions retired (fleet-summed for clusters).
    pub batch_instructions: f64,
    /// Quanta that carried an injected single-node fault.
    pub injected_fault_slices: usize,
    /// The per-quantum series the detectors consume, with the run's
    /// quanta and its safe-mode and degraded quanta.
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

fn run_single(spec: &SweepSpec, cell: &Cell, seed: u64, libraries: &Libraries) -> RunMetrics {
    let scenario = spec.scenario_for(&cell.shape, cell.cap, &cell.fault, seed);
    let record = Scheme::CuttleSys.run_sharing(&scenario, libraries);
    let fleet_of_one = ClusterRecord {
        quanta: record.slices.len(),
        nodes: vec![record],
    };
    reduce(seed, &fleet_of_one, Vec::new(), None, None)
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
    let cluster = ClusterMetrics {
        nodes,
        evacuations: coord.evacuations_total(),
        displaced_final,
        tenants_lost: abandoned + displaced_final,
        fleet_degraded_quanta,
    };
    let record = coord.into_record();
    reduce(seed, &record, displaced_series, error, Some(cluster))
}

/// Reduces a fleet record to one run's metrics; a single-node run is
/// reduced as a fleet of one. `displaced` is the fleet's per-quantum
/// displaced-tenant count (empty for a single node).
fn reduce(
    seed: u64,
    record: &ClusterRecord,
    displaced: Vec<usize>,
    error: Option<String>,
    cluster: Option<ClusterMetrics>,
) -> RunMetrics {
    // Per-quantum fleet series. A crashed node's record simply stops,
    // so its missing quanta contribute zero throughput and no QoS
    // signal — exactly the collapse the cliff detector looks for.
    let quanta = record.quanta;
    let mut qos_violated = vec![false; quanta];
    let mut throughput = vec![0.0; quanta];
    for node in &record.nodes {
        for (q, slice) in node.slices.iter().enumerate().take(quanta) {
            qos_violated[q] |= slice.qos_violation();
            throughput[q] += slice.batch_instructions;
        }
    }
    let total = |count: fn(&RunRecord) -> usize| record.nodes.iter().map(count).sum();
    let series = RunSeries {
        qos_violated,
        safe_mode_quanta: total(RunRecord::safe_mode_quanta),
        degraded_quanta: total(RunRecord::degraded_quanta),
        throughput,
        displaced,
        tenants_lost: cluster.as_ref().map_or(0, |c| c.tenants_lost),
        quanta,
        error,
    };
    RunMetrics {
        seed,
        qos_violations: series.qos_violated.iter().filter(|&&v| v).count(),
        power_violations: total(RunRecord::power_violations),
        worst_tail_ratio: record.worst_tail_ratio(),
        batch_instructions: record.nodes.iter().map(RunRecord::batch_instructions).sum(),
        injected_fault_slices: total(RunRecord::injected_fault_slices),
        series,
        cluster,
    }
}

fn run_point(spec: &SweepSpec, cell: &Cell, seed: u64, libraries: &Libraries) -> RunOutcome {
    let metrics = match spec.topology {
        Topology::SingleNode => run_single(spec, cell, seed, libraries),
        Topology::Cluster { nodes } => run_cluster(spec, cell, seed, nodes),
    };
    let findings = evaluate(&metrics.series);
    RunOutcome { metrics, findings }
}

/// Executes every run of the sweep across `pool`, returning cells in
/// grid order with runs in seed order — bit-identical at any pool
/// width and for any on-disk seed ordering.
pub fn run_sweep(spec: &SweepSpec, pool: &WorkerPool) -> SweepOutcome {
    let cells = grid(spec);
    let points: Vec<(usize, u64)> = (0..cells.len())
        .flat_map(|c| spec.seeds.iter().map(move |&s| (c, s)))
        .collect();
    // Single-node runs on one chip share its factors; a fleet run's
    // coordinator takes its own.
    let libraries = Libraries::default();
    let outcomes = pool.map_indexed(&points, |_, &(c, seed)| {
        run_point(spec, &cells[c], seed, &libraries)
    });
    let per_cell = spec.seeds.len();
    let mut out = Vec::with_capacity(cells.len());
    let mut iter = outcomes.into_iter();
    for cell in cells {
        let runs: Vec<RunOutcome> = iter.by_ref().take(per_cell).collect();
        out.push(CellOutcome { cell, runs });
    }
    SweepOutcome { cells: out }
}
