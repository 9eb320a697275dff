//! One run of one workload: set-ups, passes, correctness checks, and the
//! metric tables computed from them.

use cuttlesys::telemetry::StageTelemetry;
use cuttlesys::types::Scenario;
use std::time::Instant;
use util::{JsonValue, WorkerPool};

use crate::metrics::{judged_per_layer, registry, MetricSet};
use crate::pass::{digest, digest_prefix, Live, Ops, Pass, SimStats};
use crate::probes::{self, Probes};
use crate::stats::{percentile, share_over};
use crate::trace::Tracer;
use crate::workloads::{self, FleetPlan, Workload, FLEET_NODES, WARMUP_QUANTA};
use crate::{fleet, node, service};

/// Set-ups timed per untraced run, so `setup_s` is a median, not one draw.
const SETUP_SAMPLES: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Timed quanta per pass.
    pub timed: usize,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Timed passes of an untraced run; each metric is their median.
    pub reps: usize,
}

/// What one run found.
pub struct RunOutcome {
    /// The arguments it ran with.
    pub args: RunArgs,
    /// Digest of the wall-clock-stripped records: equal between two commits
    /// exactly when they decide identically for this (workload, seed, size).
    pub digest: u64,
    /// Operations attempted and failed, over every timed pass.
    pub ops: Ops,
    /// Correctness problems; the run is correct when there are none.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced): what
    /// the driver's result line carries.
    pub metrics: MetricSet,
    /// The per-layer metrics `compare` judges, which an untraced run prints
    /// beside its end-to-end ones (empty on a traced run, whose table has
    /// them already).
    pub judged: MetricSet,
    /// Notes for the human-readable report (e.g. an unresolved overhead).
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// The inputs generated from (workload, seed, size).
enum Inputs {
    Node(Scenario),
    Fleet(FleetPlan),
    Service(Scenario),
}

impl Inputs {
    fn generate(workload: Workload, seed: u64, timed: usize) -> Inputs {
        match workload {
            Workload::NodeSteady => Inputs::Node(workloads::node_steady(seed, timed)),
            Workload::NodeChurn => Inputs::Node(workloads::node_churn(seed, timed)),
            Workload::FleetFaulted => Inputs::Fleet(workloads::fleet_faulted(seed, timed)),
            Workload::ServiceScrape => Inputs::Service(workloads::service_scrape(seed, timed)),
        }
    }

    /// Constructs and warms the workload, ready to run `quanta` timed quanta.
    fn setup(&self, quanta: usize) -> Box<dyn Live> {
        match self {
            Inputs::Node(scenario) => Box::new(node::setup(scenario, quanta)),
            Inputs::Fleet(plan) => Box::new(fleet::setup(plan, quanta)),
            Inputs::Service(scenario) => Box::new(service::setup(scenario, quanta)),
        }
    }

    /// A single-node scenario of the workload (node 0's on the fleet).
    fn scenario(&self) -> &Scenario {
        match self {
            Inputs::Node(s) | Inputs::Service(s) => s,
            Inputs::Fleet(plan) => &plan.scenario.nodes[0],
        }
    }
}

/// Peak resident set of this process (MB), from `VmHWM`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Runs one workload once.
pub fn run(args: RunArgs) -> RunOutcome {
    let inputs = Inputs::generate(args.workload, args.seed, args.timed);
    if args.trace {
        run_traced(args, &inputs)
    } else {
        run_untraced(args, &inputs)
    }
}

fn run_untraced(args: RunArgs, inputs: &Inputs) -> RunOutcome {
    let reps = args.reps.max(1);
    let setups = reps.max(SETUP_SAMPLES);
    let mut setup_s = Vec::with_capacity(setups);
    let mut warm_digests = Vec::with_capacity(setups);
    let mut passes: Vec<Pass> = Vec::with_capacity(reps);
    for i in 0..setups {
        let t0 = Instant::now();
        let live = inputs.setup(args.timed);
        setup_s.push(t0.elapsed().as_secs_f64());
        warm_digests.push(live.warm_digest());
        // The last `reps` set-ups go on to run; the earlier ones only
        // contribute a set-up time and are torn down.
        if i + reps >= setups {
            passes.push(live.run(None));
        }
    }

    let mut problems: Vec<String> = passes.iter().flat_map(|p| p.problems.clone()).collect();
    if warm_digests.windows(2).any(|w| w[0] != w[1]) {
        problems.push(format!(
            "set-ups of one seed disagree: warm-up digests {warm_digests:x?}"
        ));
    }
    let digests: Vec<u64> = passes.iter().map(|p| digest(&p.records)).collect();
    if digests.windows(2).any(|w| w[0] != w[1]) {
        problems.push(format!(
            "repetitions of one seed disagree: record digests {digests:x?}"
        ));
    }
    if digest_prefix(&passes[0].records, WARMUP_QUANTA) != warm_digests[0] {
        problems.push("the timed pass rewrote its warm-up records".to_string());
    }
    let mut ops = Ops::default();
    for pass in &passes {
        ops.absorb(&pass.ops);
    }

    let sims: Vec<SimStats> = passes.iter().map(Pass::sim_stats).collect();
    let per_rep = |f: &dyn Fn(&Pass, &SimStats) -> Option<f64>| -> Vec<f64> {
        passes
            .iter()
            .zip(&sims)
            .map(|(p, sim)| f(p, sim).unwrap_or(f64::NAN))
            .collect()
    };
    let mut metrics = MetricSet::new(&registry().end_to_end);
    metrics.set_reps("setup_s", &setup_s, setup_s.len());
    metrics.set_reps(
        "quantum_ms_p50",
        &per_rep(&|p, _| percentile(&p.quantum_ms, 0.5)),
        passes[0].quantum_ms.len(),
    );
    metrics.set_reps(
        "quanta_per_s",
        &per_rep(&|p, sim| Some(sim.slices as f64 / p.timed_wall_s)),
        sims[0].slices,
    );
    metrics.set_reps(
        "batch_ginstr_per_sim_s",
        &per_rep(&|_, sim| Some(sim.batch_ginstr_per_sim_s)),
        sims[0].slices,
    );
    metrics.set("peak_rss_mb", peak_rss_mb(), 1);

    let mut judged = MetricSet::new(judged_per_layer());
    judged.set_reps(
        "failed_share",
        &per_rep(&|p, _| Some(p.ops.failed_share())),
        passes[0].ops.attempted as usize,
    );
    judged.set_reps(
        "qos_violation_share",
        &per_rep(&|_, sim| Some(sim.qos_violation_share)),
        sims[0].slices,
    );
    judged.set_reps(
        "power_violation_share",
        &per_rep(&|_, sim| Some(sim.power_violation_share)),
        sims[0].slices,
    );

    RunOutcome {
        args,
        digest: digests[0],
        ops,
        problems,
        metrics,
        judged,
        notes: Vec::new(),
        tracer: None,
    }
}

fn run_traced(args: RunArgs, inputs: &Inputs) -> RunOutcome {
    let half = (args.timed / 2).max(1);
    let mut problems = Vec::new();

    let mut tracer = Tracer::new();
    let live = inputs.setup(args.timed);
    let warm_digest = live.warm_digest();
    let pass = live.run(Some(&mut tracer));
    problems.extend(pass.problems.iter().cloned());
    // A second, independent set-up of the same seed must have decided the
    // same warm-up quanta, and the timed pass must have left them alone.
    let again = inputs.setup(args.timed).warm_digest();
    if again != warm_digest || digest_prefix(&pass.records, WARMUP_QUANTA) != warm_digest {
        problems
            .push("two set-ups of one seed decide their warm-up quanta differently".to_string());
    }

    // The bare pass the facade or the coordinator is compared against: wall
    // time per quantum and per node (ms) over the first half of the quanta.
    let bare: Option<Vec<f64>> = match inputs {
        Inputs::Node(_) => None,
        Inputs::Fleet(plan) => {
            let (quantum_ms, nodes) = fleet::bare_pass(plan, half);
            Some(quantum_ms.iter().map(|ms| ms / nodes as f64).collect())
        }
        Inputs::Service(scenario) => {
            let (quantum_ms, record) = service::bare_pass(scenario, half);
            if digest_prefix(&pass.records, WARMUP_QUANTA + half) != digest(&[record]) {
                problems.push("the service and a bare control core decide differently".to_string());
            }
            Some(quantum_ms)
        }
    };
    let probes = probes::run(&pass.records[0], inputs.scenario());

    let mut notes = Vec::new();
    let metrics = per_layer(&args, &pass, &tracer, bare.as_deref(), &probes, &mut notes);
    RunOutcome {
        digest: digest(&pass.records),
        ops: pass.ops.clone(),
        args,
        problems,
        metrics,
        judged: MetricSet::new([]),
        notes,
        tracer: Some(tracer),
    }
}

/// `reading` on a workload that goes through the layer, absent otherwise.
fn only(through_layer: bool, reading: (Option<f64>, usize)) -> (Option<f64>, usize) {
    if through_layer {
        reading
    } else {
        (None, 0)
    }
}

/// Median of `samples` when it has enough of them, with the sample count.
fn p50(samples: &[f64]) -> (Option<f64>, usize) {
    (percentile(samples, 0.5), samples.len())
}

fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

fn scaled(samples: &[f64], factor: f64) -> Vec<f64> {
    samples.iter().map(|v| v * factor).collect()
}

/// Fills the per-layer table of a traced run.
fn per_layer(
    args: &RunArgs,
    pass: &Pass,
    tracer: &Tracer,
    bare: Option<&[f64]>,
    probes: &Probes,
    notes: &mut Vec<String>,
) -> MetricSet {
    let mut m = MetricSet::new(&registry().per_layer);
    let mut put = |name: &str, (value, samples): (Option<f64>, usize)| m.set(name, value, samples);
    let workload = args.workload;
    let on_node = matches!(workload, Workload::NodeSteady | Workload::NodeChurn);
    let on_fleet = workload == Workload::FleetFaulted;
    let on_service = workload == Workload::ServiceScrape;
    let quanta = pass.quantum_ms.len();
    let half = (quanta / 2).max(1);
    let sim = pass.sim_stats();
    // Wall times of the quanta that recorded spans, and of those that did
    // not (every seventh quantum of a traced pass).
    let by_tracing = |want: bool| -> Vec<f64> {
        pass.quantum_ms
            .iter()
            .zip(&pass.traced)
            .filter(|(_, traced)| **traced == want)
            .map(|(ms, _)| *ms)
            .collect()
    };
    let (traced_ms, untraced_ms) = (by_tracing(true), by_tracing(false));

    // --- the whole quantum --------------------------------------------
    put(
        "failed_share",
        (Some(pass.ops.failed_share()), pass.ops.attempted as usize),
    );
    put(
        "over_slice_share",
        (
            Some(pass.ops.over_slice as f64 / pass.ops.attempted.max(1) as f64),
            pass.ops.attempted as usize,
        ),
    );
    put(
        "qos_violation_share",
        (Some(sim.qos_violation_share), sim.slices),
    );
    put(
        "power_violation_share",
        (Some(sim.power_violation_share), sim.slices),
    );
    put(
        "quantum_ms_p95",
        (percentile(&pass.quantum_ms, 0.95), quanta),
    );
    put(
        "quantum_ms_p99",
        (percentile(&pass.quantum_ms, 0.99), quanta),
    );
    let traced_p50 = percentile(&traced_ms, 0.5);
    put(
        "trace_overhead_share",
        (
            traced_p50
                .zip(percentile(&untraced_ms, 0.5))
                .map(|(traced, untraced)| traced / untraced - 1.0),
            untraced_ms.len(),
        ),
    );

    // --- core: decorator spans ----------------------------------------
    let decide = tracer.self_times_ms("plan");
    let observe = tracer.durations_ms("observe");
    let testbed = tracer.self_times_ms("quantum");
    put("core.decide_ms_p50", p50(&decide));
    put(
        "core.decide_ms_p99",
        (percentile(&decide, 0.99), decide.len()),
    );
    put(
        "core.decide_over_20ms_share",
        (
            (!decide.is_empty()).then(|| share_over(&decide, 20.0)),
            decide.len(),
        ),
    );
    put("core.observe_us_p50", p50(&scaled(&observe, 1e3)));
    put("core.testbed_ms_p50", p50(&testbed));

    // --- core: the stage split the records already carry ----------------
    let telemetry: Vec<&StageTelemetry> = pass
        .records
        .iter()
        .flat_map(|r| r.slices.iter().skip(WARMUP_QUANTA))
        .filter_map(|s| s.telemetry.as_ref())
        .collect();
    // On a single node: the telemetry of the quanta that have a plan span.
    let traced_telemetry: Vec<&StageTelemetry> = if on_node && telemetry.len() == quanta {
        telemetry
            .iter()
            .zip(&pass.traced)
            .filter(|(_, traced)| **traced)
            .map(|(t, _)| *t)
            .collect()
    } else {
        Vec::new()
    };
    let stage =
        |f: fn(&StageTelemetry) -> f64| -> Vec<f64> { telemetry.iter().map(|t| f(t)).collect() };
    let profile = stage(|t| t.profile_wall_ms);
    let reconstruct = stage(|t| t.reconstruct_wall_ms);
    let qos = stage(|t| t.qos_wall_ms);
    let search = stage(|t| t.search_wall_ms);
    let repair = stage(|t| t.repair_wall_ms);
    // One plan span per traced quantum, in order.
    let unattributed: Vec<f64> = if decide.len() == traced_telemetry.len() {
        decide
            .iter()
            .zip(&traced_telemetry)
            .map(|(d, t)| d - t.total_wall_ms())
            .collect()
    } else {
        Vec::new()
    };
    put("core.decide_unattributed_ms_p50", p50(&unattributed));
    let probe_ms = tracer.durations_ms("probe");
    let probes_per_quantum = tracer.count_values("probes");
    // Probe time per quantum: the spans are recorded in quantum order.
    let mut probe_total_ms = Vec::with_capacity(probes_per_quantum.len());
    let mut next = 0usize;
    for n in &probes_per_quantum {
        let n = *n as usize;
        probe_total_ms.push(probe_ms[next..next + n].iter().sum::<f64>());
        next += n;
    }
    // The rows a reader adds up — stages + unattributed + probes + observe +
    // testbed — against the median of the same (traced) quanta.
    let traced_stage = |f: fn(&StageTelemetry) -> f64| -> Vec<f64> {
        traced_telemetry.iter().map(|t| f(t)).collect()
    };
    let rows = [
        &traced_stage(|t| t.profile_wall_ms),
        &traced_stage(|t| t.reconstruct_wall_ms),
        &traced_stage(|t| t.qos_wall_ms),
        &traced_stage(|t| t.search_wall_ms),
        &traced_stage(|t| t.repair_wall_ms),
        &unattributed,
        &probe_total_ms,
        &observe,
        &testbed,
    ];
    let row_sum: Option<f64> = rows.iter().map(|r| percentile(r, 0.5)).sum();
    put(
        "core.attribution_gap_share",
        (
            row_sum
                .filter(|_| on_node)
                .zip(traced_p50)
                .map(|(sum, whole)| sum / whole - 1.0),
            traced_ms.len(),
        ),
    );
    put("core.stage_profile_ms_p50", p50(&profile));
    put("core.stage_reconstruct_ms_p50", p50(&reconstruct));
    put(
        "core.stage_reconstruct_ms_p99",
        (percentile(&reconstruct, 0.99), reconstruct.len()),
    );
    put("core.stage_qos_us_p50", p50(&scaled(&qos, 1e3)));
    put("core.stage_search_ms_p50", p50(&search));
    put(
        "core.stage_search_ms_p99",
        (percentile(&search, 0.99), search.len()),
    );
    put("core.stage_repair_us_p50", p50(&scaled(&repair, 1e3)));
    let n = telemetry.len();
    let count = |f: &dyn Fn(&StageTelemetry) -> usize| -> (Option<f64>, usize) {
        (
            Some(telemetry.iter().map(|t| f(t)).sum::<usize>() as f64),
            n,
        )
    };
    put(
        "core.relocations_total",
        count(&|t| usize::from(t.reclaimed_core || t.relinquished_core)),
    );
    put("core.gated_jobs_total", count(&|t| t.gated_jobs));
    put(
        "core.degraded_quanta",
        count(&|t| usize::from(t.degradation.degraded())),
    );

    // --- recsys -----------------------------------------------------------
    put("recsys.complete_all_ms_p50", p50(&probes.complete_all_ms));
    put("recsys.sgd_fit_ms_p50", p50(&probes.sgd_fit_ms));
    put(
        "recsys.sgd_epochs_per_quantum",
        (mean(&stage(|t| t.sgd_epochs as f64)), n),
    );
    put(
        "recsys.warm_solve_share",
        (mean(&stage(|t| f64::from(u8::from(t.warm_solves > 0)))), n),
    );
    put("recsys.bips_rel_err_p50", p50(&pass.layer.bips_rel_err));
    put(
        "recsys.chip_watts_rel_err_p50",
        p50(&pass.layer.watts_rel_err),
    );

    // --- dds --------------------------------------------------------------
    put("dds.search_ms_p50", p50(&probes.search_ms));
    put("dds.us_per_eval", p50(&probes.us_per_eval));
    put(
        "dds.evals_per_quantum",
        (mean(&stage(|t| t.search_evaluations as f64)), n),
    );
    let hits: usize = telemetry.iter().map(|t| t.cache_hits).sum();
    let lookups: usize = hits + telemetry.iter().map(|t| t.cache_misses).sum::<usize>();
    put(
        "dds.cache_hit_share",
        ((lookups > 0).then(|| hits as f64 / lookups as f64), lookups),
    );

    // --- simulator, workloads, util -----------------------------------------
    put("simulator.probe_ms_p50", p50(&probe_ms));
    put(
        "simulator.probes_per_quantum",
        (mean(&probes_per_quantum), probes_per_quantum.len()),
    );
    put("simulator.frame_us_p50", p50(&probes.frame_us));
    put(
        "workloads.oracle_tail_row_us_p50",
        p50(&probes.oracle_tail_row_us),
    );
    put("workloads.mmc_p99_us_p50", p50(&probes.mmc_p99_us));
    put("util.pool_fanout_us_p50", p50(&probes.pool_fanout_us));
    put("util.json_emit_ms_p50", p50(&probes.json_emit_ms));
    put("util.json_parse_ms_p50", p50(&probes.json_parse_ms));

    // --- cluster ------------------------------------------------------------
    let layer = &pass.layer;
    let fleet_only = |v: usize| only(on_fleet, (Some(v as f64), quanta));
    let fleet_bare = bare.filter(|_| on_fleet);
    put(
        "cluster.bare_nodes_ms_p50",
        fleet_bare.map_or((None, 0), |b| p50(&scaled(b, FLEET_NODES as f64))),
    );
    let per_node: Vec<f64> = pass
        .quantum_ms
        .iter()
        .zip(&pass.nodes_stepped)
        .take(half)
        .filter(|(_, n)| **n > 0)
        .map(|(ms, n)| ms / *n as f64)
        .collect();
    let overhead = fleet_bare.and_then(|b| {
        let bare_p50 = percentile(b, 0.5)?;
        let overhead = percentile(&per_node, 0.5)? / bare_p50 - 1.0;
        // The bare pass's own quartile spread is the noise floor.
        let spread = (percentile(b, 0.75)? - percentile(b, 0.25)?) / bare_p50;
        if overhead.abs() < spread {
            notes.push(format!(
                "cluster.coord_overhead_share {overhead:+.4} is unresolved: smaller than the bare pass's quartile spread {spread:.4}"
            ));
        }
        Some(overhead)
    });
    put(
        "cluster.coord_overhead_share",
        (overhead.filter(|_| on_fleet), per_node.len()),
    );
    let if_fleet = |samples: &[f64]| only(on_fleet, p50(samples));
    put("cluster.placement_us_p50", if_fleet(&layer.command_us));
    put("cluster.snapshot_us_p50", if_fleet(&layer.snapshot_us));
    put(
        "cluster.drain_events_us_p50",
        if_fleet(&layer.drain_events_us),
    );
    put(
        "cluster.events_per_quantum",
        only(
            on_fleet,
            (
                Some(layer.cluster_events as f64 / quanta.max(1) as f64),
                quanta,
            ),
        ),
    );
    put("cluster.evacuations_total", fleet_only(layer.evacuations));
    put("cluster.migrations_total", fleet_only(layer.migrations));
    put(
        "cluster.migrations_abandoned",
        fleet_only(layer.migrations_abandoned),
    );
    put(
        "cluster.displaced_tenant_quanta",
        fleet_only(layer.displaced_tenant_quanta),
    );
    put(
        "cluster.degraded_quanta",
        fleet_only(layer.fleet_degraded_quanta),
    );

    // --- service ------------------------------------------------------------
    put(
        "service.facade_overhead_ms",
        (
            bare.filter(|_| on_service).and_then(|b| {
                Some(percentile(&pass.quantum_ms[..half.min(quanta)], 0.5)? - percentile(b, 0.5)?)
            }),
            half,
        ),
    );
    let latency: Vec<f64> = layer.scrapes.iter().map(|s| s.latency_ms).collect();
    let late: Vec<f64> = layer.scrapes.iter().map(|s| s.late_ms).collect();
    let bytes: Vec<f64> = layer.scrapes.iter().map(|s| s.bytes as f64).collect();
    put("service.scrape_ms_p50", p50(&latency));
    put(
        "service.scrape_ms_p95",
        (percentile(&latency, 0.95), latency.len()),
    );
    put(
        "service.scrape_ms_max",
        (latency.iter().copied().reduce(f64::max), latency.len()),
    );
    put("service.scrape_late_ms_p50", p50(&late));
    put("service.scrape_bytes_p50", p50(&bytes));
    let service_only = |v: usize| only(on_service, (Some(v as f64), quanta));
    put("service.scrapes_total", service_only(layer.scrapes.len()));
    put(
        "service.scrapes_failed",
        service_only(layer.scrapes.iter().filter(|s| s.failure.is_some()).count()),
    );
    put("service.metrics_call_us_p50", p50(&layer.metrics_call_us));
    put("service.state_ms_p50", p50(&layer.state_ms));
    put("service.render_us_at_100", p50(&probes.render_us_at_100));
    put("service.render_us_at_1200", p50(&probes.render_us_at_1200));
    put(
        "service.command_rtt_us_p50",
        only(on_service, p50(&layer.command_us)),
    );
    put(
        "service.bus_lagged_total",
        service_only(layer.bus_lagged as usize),
    );
    put(
        "service.bus_overwrites_total",
        service_only(layer.bus_overwrites as usize),
    );
    m
}

/// The run as a JSON document (`run --json`, and one entry of a run set).
pub fn to_json(outcome: &RunOutcome) -> JsonValue {
    let num = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::Num);
    let metrics = outcome
        .metrics
        .entries()
        .into_iter()
        .chain(outcome.judged.entries())
        .map(|(d, r)| {
            let fields = [
                ("unit", JsonValue::from(d.unit.as_str())),
                ("better", d.better.as_str().into()),
                ("value", num(r.value)),
                ("samples", r.samples.into()),
                ("min", num(r.spread.map(|s| s.0))),
                ("max", num(r.spread.map(|s| s.1))),
            ];
            (d.name.clone(), JsonValue::object(fields))
        })
        .collect();
    JsonValue::object([
        ("workload", outcome.args.workload.name().into()),
        ("seed", JsonValue::Str(outcome.args.seed.to_string())),
        ("timed_quanta", outcome.args.timed.into()),
        ("reps", outcome.args.reps.into()),
        ("trace", outcome.args.trace.into()),
        ("digest", format!("{:016x}", outcome.digest).into()),
        ("correct", outcome.problems.is_empty().into()),
        ("attempted", JsonValue::Num(outcome.ops.attempted as f64)),
        ("failed", JsonValue::Num(outcome.ops.failed as f64)),
        ("over_slice", JsonValue::Num(outcome.ops.over_slice as f64)),
        (
            "problems",
            JsonValue::array(outcome.problems.iter().cloned()),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .into(),
        ),
        ("pool_threads", WorkerPool::default_threads().into()),
        ("metrics", JsonValue::Obj(metrics)),
    ])
}

/// The last line of standard output the driver reads.
pub fn driver_line(outcome: &RunOutcome) -> String {
    JsonValue::object([
        ("correct", outcome.problems.is_empty().into()),
        ("attempted", JsonValue::Num(outcome.ops.attempted as f64)),
        ("failed", JsonValue::Num(outcome.ops.failed as f64)),
        ("metrics", outcome.metrics.to_driver_json()),
    ])
    .to_string()
}

/// The human-readable report: every metric by name, with value, unit and
/// sample count.
pub fn report(outcome: &RunOutcome) -> String {
    use std::fmt::Write as _;
    let a = &outcome.args;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} | seed {} | {} timed quanta after {WARMUP_QUANTA} warm-up | {} | nproc {} pool_threads {}",
        a.workload.name(),
        a.seed,
        a.timed,
        if a.trace { "traced".to_string() } else { format!("untraced, {} rep(s)", a.reps.max(1)) },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        WorkerPool::default_threads(),
    );
    let _ = writeln!(out, "   {}", a.workload.why());
    let _ = writeln!(
        out,
        "{:<36} {:>14} {:<9} {:>8}  spread over reps",
        "metric", "value", "unit", "samples"
    );
    let entries = outcome.metrics.entries();
    for (d, r) in entries.into_iter().chain(outcome.judged.entries()) {
        let value = r.value.map_or("—".to_string(), |v| format!("{v:.4}"));
        let spread = match r.spread {
            Some((lo, hi)) if lo != hi => format!("{lo:.4}..{hi:.4}"),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "{:<36} {:>14} {:<9} {:>8}  {}",
            d.name, value, d.unit, r.samples, spread
        );
    }
    let _ = writeln!(
        out,
        "operations: {} attempted, {} failed, {} over the 100 ms slice | record digest {:016x}",
        outcome.ops.attempted, outcome.ops.failed, outcome.ops.over_slice, outcome.digest
    );
    for reason in outcome.ops.reasons.iter().take(8) {
        let _ = writeln!(out, "  failed: {reason}");
    }
    for note in &outcome.notes {
        let _ = writeln!(out, "  note: {note}");
    }
    for problem in &outcome.problems {
        let _ = writeln!(out, "  INCORRECT: {problem}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Thirty timed quanta of every workload, traced and untraced: every
    /// declared metric is written exactly once (the set refuses anything
    /// else), the result line has the shape the driver wants, and nothing
    /// fails (host wall time fails nothing: the tests run in parallel on a
    /// small machine). The fleet is too short here for a migration to
    /// complete, which is the one problem a smoke run may report.
    #[test]
    fn every_workload_emits_every_declared_metric_exactly_once() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let outcome = run(RunArgs {
                    workload,
                    seed: 7,
                    timed: 30,
                    trace,
                    reps: 1,
                });
                let declared = if trace {
                    &registry().per_layer
                } else {
                    &registry().end_to_end
                };
                let entries = outcome.metrics.entries();
                assert_eq!(entries.len(), declared.len());
                for ((d, _), want) in entries.iter().zip(declared) {
                    assert_eq!(d.name, want.name);
                }
                let also = outcome.judged.entries();
                assert_eq!(also.len(), if trace { 0 } else { judged_per_layer().len() });
                if !trace {
                    for (d, r) in &entries {
                        assert!(
                            r.value.is_some_and(|v| v > 0.0),
                            "{} on {}",
                            d.name,
                            workload.name()
                        );
                    }
                    for (d, r) in &also {
                        assert!(r.value.is_some(), "{}", d.name);
                    }
                }
                let line = driver_line(&outcome);
                let doc = util::json::parse(&line).unwrap();
                let keys: Vec<&str> = doc
                    .entries()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(
                    doc.get("metrics").unwrap().entries().unwrap().len(),
                    declared.len()
                );
                assert!(doc.get("attempted").unwrap().as_usize().unwrap() >= 30);
                assert_eq!(
                    outcome.ops.failed,
                    0,
                    "{}: {:?}",
                    workload.name(),
                    outcome.ops.reasons
                );
                let tolerated =
                    |p: &String| workload == Workload::FleetFaulted && p.contains("migration");
                assert!(
                    outcome.problems.iter().all(tolerated),
                    "{}: {:?}",
                    workload.name(),
                    outcome.problems
                );
                assert_eq!(outcome.tracer.is_some(), trace);
                let full = util::json::parse(&to_json(&outcome).to_string()).unwrap();
                assert_eq!(
                    full.get("metrics").unwrap().entries().unwrap().len(),
                    declared.len() + also.len()
                );
                assert!(report(&outcome).contains(&declared[0].name));
            }
        }
    }

    /// Attribution is span arithmetic, not a wall-time estimate: within
    /// every traced quantum the self times of `quantum`, `plan`, each
    /// `probe` and `observe` add up to the quantum span's duration, to the
    /// nanosecond — so the rows the per-layer table is computed from leave
    /// nothing of a quantum out and count nothing twice.
    #[test]
    fn self_times_of_a_traced_quantum_add_up_to_it() {
        let outcome = run(RunArgs {
            workload: Workload::NodeChurn,
            seed: 7,
            timed: 30,
            trace: true,
            reps: 1,
        });
        let tracer = outcome.tracer.unwrap();
        let spans = tracer.spans();
        let mut whole = std::collections::BTreeMap::new();
        let mut parts = std::collections::BTreeMap::new();
        for (span, self_ns) in spans.iter().zip(tracer.self_times_ns()) {
            *parts.entry(span.quantum).or_insert(0u64) += self_ns;
            if span.name == "quantum" {
                assert_eq!(whole.insert(span.quantum, span.duration_ns()), None);
            }
        }
        assert_eq!(
            whole.len(),
            (0..30).filter(|q| crate::pass::traced_quantum(*q)).count()
        );
        assert_eq!(whole, parts);
        // Every plan span sits inside the quantum span that caused it.
        let plans: Vec<_> = spans.iter().filter(|s| s.name == "plan").collect();
        assert_eq!(plans.len(), whole.len());
        for plan in plans {
            let parent = spans
                .iter()
                .find(|p| p.name == "quantum" && p.quantum == plan.quantum)
                .unwrap();
            assert!(parent.start_ns <= plan.start_ns && plan.end_ns <= parent.end_ns);
        }
    }
}
