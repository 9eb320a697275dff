//! `node_steady` and `node_churn`: one node, stepped back-to-back through
//! `ScenarioDriver::step` by one caller (closed loop). In a traced pass the
//! shipped manager is wrapped in a timing decorator; an untraced pass hands
//! the driver the manager itself.

use std::time::Instant;

use cuttlesys::runtime::CuttleSysManager;
use cuttlesys::telemetry::StageTelemetry;
use cuttlesys::types::{
    BatchAction, Plan, ProfilePlan, ProfileSample, ResourceManager, Scenario, SliceInfo,
    SliceOutcome,
};
use cuttlesys::ScenarioDriver;

use crate::pass::{digest, traced_quantum, LayerSamples, Live, Ops, Pass};
use crate::trace::{SpanId, Tracer};
use crate::workloads::WARMUP_QUANTA;

/// A [`ResourceManager`] that times the wrapped manager from outside:
/// `plan` and `observe` become spans under the quantum's span, and every
/// call of the probe callback the driver hands in becomes a `probe` span
/// under `plan` — so `plan`'s self time is the manager's own compute.
struct Traced<'a> {
    inner: &'a mut CuttleSysManager,
    tracer: &'a mut Tracer,
    layer: &'a mut LayerSamples,
    quantum_span: SpanId,
    quantum: u32,
}

impl ResourceManager for Traced<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn plan(
        &mut self,
        info: &SliceInfo,
        probe: &mut dyn FnMut(&ProfilePlan, f64) -> ProfileSample,
    ) -> Plan {
        let plan_span = self
            .tracer
            .open("plan", Some(self.quantum_span), self.quantum);
        let tracer = &mut *self.tracer;
        let quantum = self.quantum;
        let mut probes = 0u32;
        let mut timed_probe = |pp: &ProfilePlan, ms: f64| {
            let span = tracer.open("probe", Some(plan_span), quantum);
            let sample = probe(pp, ms);
            tracer.close(span);
            probes += 1;
            sample
        };
        let plan = self.inner.plan(info, &mut timed_probe);
        self.tracer.close(plan_span);
        self.tracer.count("probes", quantum, f64::from(probes));
        plan
    }

    fn observe(&mut self, outcome: &SliceOutcome) {
        let span = self
            .tracer
            .open("observe", Some(self.quantum_span), self.quantum);
        self.inner.observe(outcome);
        self.tracer.close(span);
        prediction_errors(self.inner, outcome, self.layer);
    }

    fn take_telemetry(&mut self) -> Option<StageTelemetry> {
        self.inner.take_telemetry()
    }
}

/// Compares what the manager predicted for the configurations it chose
/// with what the slice then measured (the noisy steady-state readings the
/// manager itself is given): per-core BIPS of every running batch job, and
/// the summed power of the active cores.
fn prediction_errors(manager: &CuttleSysManager, outcome: &SliceOutcome, layer: &mut LayerSamples) {
    let Some(preds) = manager.last_predictions() else {
        return;
    };
    let num_lc = outcome.plan.lc.len();
    let (mut predicted_watts, mut measured_watts) = (0.0, 0.0);
    for (i, a) in outcome.plan.lc.iter().enumerate() {
        if let Some(watts) = preds.lc.get(i).and_then(|p| p.watts.get(a.config.index())) {
            predicted_watts += a.cores as f64 * watts;
            measured_watts += a.cores as f64 * outcome.measured_watts[i];
        }
    }
    for (j, action) in outcome.plan.batch.iter().enumerate() {
        let BatchAction::Run(config) = action else {
            continue;
        };
        let measured = outcome.measured_bips[num_lc + j];
        let (Some(bips), Some(watts)) = (
            preds.batch_bips.get(j).map(|row| row[config.index()]),
            preds.batch_watts.get(j).map(|row| row[config.index()]),
        ) else {
            continue;
        };
        // A job that is gone or idled by rotation measured nothing.
        if measured > 0.0 {
            layer.bips_rel_err.push((bips - measured).abs() / measured);
            predicted_watts += watts;
            measured_watts += outcome.measured_watts[num_lc + j];
        }
    }
    if measured_watts > 0.0 {
        layer
            .watts_rel_err
            .push((predicted_watts - measured_watts).abs() / measured_watts);
    }
}

/// A constructed and warmed single node.
pub struct NodeLive {
    driver: ScenarioDriver,
    manager: CuttleSysManager,
    timed: usize,
}

/// Builds the driver and the shipped default manager for `scenario`
/// (offline characterisation, worker pool) and runs the warm-up quanta.
pub fn setup(scenario: &Scenario, timed: usize) -> NodeLive {
    let mut driver = ScenarioDriver::new(scenario);
    let mut manager = CuttleSysManager::for_scenario(scenario);
    for _ in 0..WARMUP_QUANTA {
        driver.step(&mut manager);
    }
    NodeLive {
        driver,
        manager,
        timed,
    }
}

impl NodeLive {
    fn record(&self) -> cuttlesys::types::RunRecord {
        cuttlesys::types::RunRecord {
            scheme: self.manager.name(),
            slices: self.driver.records().to_vec(),
        }
    }
}

impl Live for NodeLive {
    fn warm_digest(&self) -> u64 {
        digest(&[self.record()])
    }

    fn run(mut self: Box<Self>, mut tracer: Option<&mut Tracer>) -> Pass {
        let mut quantum_ms = Vec::with_capacity(self.timed);
        let mut traced = Vec::with_capacity(self.timed);
        let mut ops = Ops::default();
        let mut layer = LayerSamples::default();
        let start = Instant::now();
        for q in 0..self.timed {
            let t0 = Instant::now();
            let tracer = tracer.as_deref_mut().filter(|_| traced_quantum(q));
            traced.push(tracer.is_some());
            let record = match tracer {
                None => self.driver.step(&mut self.manager),
                Some(tracer) => {
                    let quantum = q as u32;
                    let span = tracer.open("quantum", None, quantum);
                    let record = self.driver.step(&mut Traced {
                        inner: &mut self.manager,
                        tracer,
                        layer: &mut layer,
                        quantum_span: span,
                        quantum,
                    });
                    tracer.close(span);
                    record
                }
            };
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            quantum_ms.push(wall_ms);
            let degraded = record
                .telemetry
                .as_ref()
                .is_some_and(|t| t.degradation.degraded());
            ops.tally_quantum(degraded, wall_ms);
        }
        let timed_wall_s = start.elapsed().as_secs_f64();
        Pass {
            nodes_stepped: vec![1; quantum_ms.len()],
            traced,
            quantum_ms,
            timed_wall_s,
            records: vec![self.record()],
            ops,
            layer,
            problems: Vec::new(),
        }
    }
}
