//! The declarative scenario-file format and its hard-error loader.
//!
//! A sweep spec is a JSON document describing a *region of scenario
//! space*: a tenant mix, a set of seeds, and up to four axes (load
//! shapes, power caps, single-node fault profiles, fleet fault
//! profiles) whose cross product defines the grid of cells; every cell
//! is run once per seed. Loading is strict — unknown top-level fields,
//! unknown profiles, services, or shapes are all *hard errors at load
//! time*, each listing the valid vocabulary, so a typo can never silently
//! shrink a sweep. So are tenants and load shapes no run could host: zero
//! or too many LC cores, negative loads (of a tenant or of a shape), QoS
//! targets or noise, a shape period shorter than one decision quantum
//! (the JSON parser already refuses non-finite numbers), a `name` that would
//! lead its output directory out of `runs/`, and a sweep larger than
//! [`MAX_NODE_QUANTA`].
//!
//! A spec has no settings for the runtime itself: every run uses the
//! manager's and the coordinator's defaults, and the detectors' thresholds
//! are the constants in [`crate::detectors`].
//!
//! The loader also *lowers* the spec: load shapes become
//! [`LoadPattern`]s and tenant mixes become [`Scenario`] job lists, so the
//! runner only ever sees fully-validated values.

use cluster::FleetFaultPlan;
use cuttlesys::faults::FaultPlan;
use cuttlesys::types::{BatchJobSpec, JobSpec, LcJobSpec, Scenario};
use util::json::{self, JsonValue};
use workloads::batch;
use workloads::latency::{self, LcService};
use workloads::loadgen::LoadPattern;

/// Top-level spec fields the loader accepts, sorted for error messages.
const SPEC_FIELDS: &[&str] = &[
    "caps",
    "fault_profiles",
    "fleet_fault_profiles",
    "load_shapes",
    "name",
    "noise",
    "phases",
    "quanta",
    "seeds",
    "tenants",
    "topology",
];

/// Valid load-shape kinds, sorted.
pub const LOAD_SHAPES: &[&str] = &["diurnal", "flash-crowd", "ramp", "square-wave", "steady"];

/// The most node-quanta — grid cells × seeds × nodes × quanta — one spec
/// may describe. Each node-quantum is one full decision (about 2 ms of one
/// core in a release build) and keeps a slice record of about 300 bytes
/// while its run lasts, so a million is about half an hour of one core and
/// at most about 0.3 GB of records. That is far above the committed specs
/// (`smoke` 36, `soak` 200, `collapse` 10), and it refuses at load a typo
/// such as `"quanta": 4000000000`, which would otherwise abort the process
/// on a terabyte allocation.
pub const MAX_NODE_QUANTA: usize = 1_000_000;

/// Why a scenario file was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The file is not JSON at all.
    Json(json::JsonError),
    /// The document parsed but violates the spec schema.
    Invalid(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Json(e) => write!(f, "scenario file is not valid JSON: {e}"),
            SweepError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

fn invalid(msg: impl Into<String>) -> SweepError {
    SweepError::Invalid(msg.into())
}

fn too_large() -> SweepError {
    invalid(format!(
        "the scenario describes more than {MAX_NODE_QUANTA} node-quanta \
         (grid cells × seeds × nodes × quanta)"
    ))
}

/// Where the runs execute: one simulated node, or a lockstep fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// A single simulated 32-core server.
    SingleNode,
    /// A uniform fleet stepped by the [`cluster`] coordinator.
    Cluster {
        /// Fleet size.
        nodes: usize,
    },
}

impl Topology {
    /// The topology as a report label (`"single"` / `"cluster:4"`).
    pub fn label(&self) -> String {
        match self {
            Topology::SingleNode => "single".to_string(),
            Topology::Cluster { nodes } => format!("cluster:{nodes}"),
        }
    }
}

/// One latency-critical tenant of the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct LcTenantSpec {
    /// The resolved service (validated at load time).
    pub service: LcService,
    /// Base load fraction of the service's calibrated maximum.
    pub load: f64,
    /// Initial core reservation.
    pub cores: usize,
    /// QoS override in ms (`None` = the service's calibrated target).
    pub qos_ms: Option<f64>,
}

/// The tenant mix every cell runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMix {
    /// Latency-critical tenants, in priority order (at least one).
    pub lc: Vec<LcTenantSpec>,
    /// Number of batch jobs drawn from the SPEC catalog.
    pub batch: usize,
    /// Seed of the batch-mix draw.
    pub mix_seed: u64,
}

/// A time shape applied to the *primary* LC tenant's load; the other
/// tenants hold their base load constant.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadShape {
    /// Constant at the tenant's base load.
    Steady,
    /// Sinusoid between `min` and `max`; `period_s = None` means one
    /// full cycle over the run.
    Diurnal {
        /// Trough load fraction.
        min: f64,
        /// Peak load fraction.
        max: f64,
        /// Cycle period in seconds (`None` = the run duration).
        period_s: Option<f64>,
    },
    /// A square spike from `base` to `peak` between two run fractions.
    FlashCrowd {
        /// Load outside the spike.
        base: f64,
        /// Load during the spike (may exceed 1.0: overload).
        peak: f64,
        /// Spike start as a fraction of the run.
        start_frac: f64,
        /// Spike end as a fraction of the run.
        end_frac: f64,
    },
    /// Linear ramp from `from` to `to` over the run.
    Ramp {
        /// Load at the first quantum.
        from: f64,
        /// Load at the last quantum.
        to: f64,
    },
    /// Alternating steps between `lo` and `hi`; `period_s = None` means
    /// one toggle at mid-run.
    SquareWave {
        /// Low-level load fraction.
        lo: f64,
        /// High-level load fraction.
        hi: f64,
        /// Full lo+hi period in seconds (`None` = the run duration).
        period_s: Option<f64>,
    },
}

fn trim_num(v: f64) -> String {
    format!("{v}")
}

impl LoadShape {
    /// A deterministic report label carrying the shape's parameters.
    pub fn label(&self) -> String {
        match self {
            LoadShape::Steady => "steady".to_string(),
            LoadShape::Diurnal { min, max, period_s } => format!(
                "diurnal[{},{},{}]",
                trim_num(*min),
                trim_num(*max),
                period_s.map_or("run".to_string(), trim_num),
            ),
            LoadShape::FlashCrowd {
                base,
                peak,
                start_frac,
                end_frac,
            } => format!(
                "flash-crowd[{},{},{},{}]",
                trim_num(*base),
                trim_num(*peak),
                trim_num(*start_frac),
                trim_num(*end_frac),
            ),
            LoadShape::Ramp { from, to } => {
                format!("ramp[{},{}]", trim_num(*from), trim_num(*to))
            }
            LoadShape::SquareWave { lo, hi, period_s } => format!(
                "square-wave[{},{},{}]",
                trim_num(*lo),
                trim_num(*hi),
                period_s.map_or("run".to_string(), trim_num),
            ),
        }
    }

    /// Lowers the shape to a [`LoadPattern`] for a run of `duration_s`
    /// seconds whose primary tenant idles at `base_load`.
    pub fn lower(&self, base_load: f64, duration_s: f64) -> LoadPattern {
        match self {
            LoadShape::Steady => LoadPattern::Constant(base_load),
            LoadShape::Diurnal { min, max, period_s } => LoadPattern::Diurnal {
                min: *min,
                max: *max,
                period_s: period_s.unwrap_or(duration_s),
            },
            LoadShape::FlashCrowd {
                base,
                peak,
                start_frac,
                end_frac,
            } => LoadPattern::Spike {
                base: *base,
                peak: *peak,
                start_s: start_frac * duration_s,
                end_s: end_frac * duration_s,
            },
            LoadShape::Ramp { from, to } => LoadPattern::Trace {
                interval_s: duration_s,
                samples: vec![*from, *to],
            },
            LoadShape::SquareWave { lo, hi, period_s } => {
                let period = period_s.unwrap_or(duration_s).max(1e-9);
                let mut steps = Vec::new();
                let mut t = 0.0;
                let mut high = false;
                while t < duration_s {
                    steps.push((t, if high { *hi } else { *lo }));
                    high = !high;
                    t += period / 2.0;
                }
                LoadPattern::Steps(steps)
            }
        }
    }
}

/// A fully-validated, lowered sweep specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Scenario identifier; names the default output directory
    /// `runs/<name>`, so it is one plain path component (not empty, no
    /// `/` or `\`, not `.` or `..`).
    pub name: String,
    /// Decision quanta per run.
    pub quanta: usize,
    /// Seeds, sorted and deduplicated — the file's ordering is
    /// immaterial by construction.
    pub seeds: Vec<u64>,
    /// Where runs execute.
    pub topology: Topology,
    /// The tenant mix.
    pub tenants: TenantMix,
    /// Load-shape axis (default `[Steady]`).
    pub load_shapes: Vec<LoadShape>,
    /// Power-cap axis, as fractions of nominal (default `[0.7]`).
    pub caps: Vec<f64>,
    /// Single-node fault-profile axis (default `["clean"]`).
    pub fault_profiles: Vec<String>,
    /// Fleet fault-profile axis (default `["clean"]`; cluster only).
    pub fleet_fault_profiles: Vec<String>,
    /// Measurement-noise relative sigma (default 0.03).
    pub noise: f64,
    /// Whether applications drift through phases (default true).
    pub phases: bool,
}

impl SweepSpec {
    /// Total runs the spec describes: grid cells × seeds.
    pub fn total_runs(&self) -> usize {
        self.load_shapes.len()
            * self.caps.len()
            * self.fault_profiles.len()
            * self.fleet_fault_profiles.len()
            * self.seeds.len()
    }

    /// Run duration in simulated seconds.
    pub fn duration_s(&self) -> f64 {
        self.quanta as f64 * cuttlesys::types::TIMESLICE_MS / 1000.0
    }

    /// Builds the base [`Scenario`] for one `(shape, cap, fault, seed)`
    /// point — the one construction path the sweep, its tests, and the
    /// fixture examples share.
    pub fn scenario_for(&self, shape: &LoadShape, cap: f64, fault: &str, seed: u64) -> Scenario {
        let duration_s = self.duration_s();
        let mut jobs = Vec::new();
        for (i, lc) in self.tenants.lc.iter().enumerate() {
            let load = if i == 0 {
                shape.lower(lc.load, duration_s)
            } else {
                LoadPattern::Constant(lc.load)
            };
            let mut spec = LcJobSpec::new(lc.service, load, lc.cores);
            if let Some(qos_ms) = lc.qos_ms {
                spec.qos_ms = qos_ms;
            }
            jobs.push(JobSpec::LatencyCritical(spec));
        }
        for app in batch::mix(self.tenants.batch, self.tenants.mix_seed).apps {
            jobs.push(JobSpec::Batch(BatchJobSpec::resident(app)));
        }
        // Profiles are validated at load time, so the lookup cannot fail.
        let faults = FaultPlan::named(fault, seed).unwrap_or_else(FaultPlan::none);
        Scenario {
            jobs,
            ..Scenario::paper_default()
        }
        .with_duration_slices(self.quanta)
        .with_cap(LoadPattern::Constant(cap))
        .with_seed(seed)
        .with_noise(self.noise)
        .with_phases(self.phases)
        .with_faults(faults)
    }
}

fn sorted_list(items: &[&str]) -> String {
    items.join(", ")
}

fn field_usize(obj: &JsonValue, field: &str, what: &str) -> Result<usize, SweepError> {
    obj.get(field)
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| invalid(format!("scenario field \"{field}\" must be {what}")))
}

fn shape_param(obj: &JsonValue, kind: &str, field: &str, default: f64) -> Result<f64, SweepError> {
    match obj.get(field) {
        None => Ok(default),
        Some(v) => v.as_f64().ok_or_else(|| {
            invalid(format!(
                "load shape \"{kind}\" field \"{field}\" must be a number"
            ))
        }),
    }
}

/// A shape's load level: a number, and never negative (`load_at` would
/// clamp it to 0 and the run would quietly measure an idle service).
fn shape_load(obj: &JsonValue, kind: &str, field: &str, default: f64) -> Result<f64, SweepError> {
    let load = shape_param(obj, kind, field, default)?;
    if load < 0.0 {
        return Err(invalid(format!(
            "load shape \"{kind}\" field \"{field}\" must be a non-negative number"
        )));
    }
    Ok(load)
}

fn parse_shape(value: &JsonValue) -> Result<LoadShape, SweepError> {
    let (kind, obj) = match value {
        JsonValue::Str(s) => (s.as_str(), None),
        JsonValue::Obj(_) => {
            let kind = value
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| invalid("a load-shape object needs a string \"kind\""))?;
            (kind, Some(value))
        }
        _ => return Err(invalid("a load shape must be a string or an object")),
    };
    let obj = obj.unwrap_or(&JsonValue::Null);
    // A period must be positive and at least one decision quantum: a zero
    // one turns a diurnal load into NaN, and a square wave lowers to one
    // step per half period, so a tiny one exhausts memory.
    let opt_period = |kind: &str| -> Result<Option<f64>, SweepError> {
        let Some(v) = obj.get("period_s") else {
            return Ok(None);
        };
        let field = format!("load shape \"{kind}\" field \"period_s\"");
        let quantum_s = cuttlesys::types::TIMESLICE_MS / 1000.0;
        match v.as_f64().filter(|p| *p > 0.0) {
            None => Err(invalid(format!("{field} must be a positive number"))),
            Some(p) if p < quantum_s => Err(invalid(format!(
                "{field} must be at least one decision quantum ({quantum_s} s)"
            ))),
            Some(p) => Ok(Some(p)),
        }
    };
    match kind {
        "steady" => Ok(LoadShape::Steady),
        "diurnal" => Ok(LoadShape::Diurnal {
            min: shape_load(obj, kind, "min", 0.2)?,
            max: shape_load(obj, kind, "max", 1.0)?,
            period_s: opt_period(kind)?,
        }),
        "flash-crowd" => Ok(LoadShape::FlashCrowd {
            base: shape_load(obj, kind, "base", 0.2)?,
            peak: shape_load(obj, kind, "peak", 1.3)?,
            start_frac: shape_param(obj, kind, "start_frac", 0.3)?,
            end_frac: shape_param(obj, kind, "end_frac", 0.7)?,
        }),
        "ramp" => Ok(LoadShape::Ramp {
            from: shape_load(obj, kind, "from", 0.2)?,
            to: shape_load(obj, kind, "to", 1.0)?,
        }),
        "square-wave" => Ok(LoadShape::SquareWave {
            lo: shape_load(obj, kind, "lo", 0.2)?,
            hi: shape_load(obj, kind, "hi", 1.0)?,
            period_s: opt_period(kind)?,
        }),
        other => Err(invalid(format!(
            "unknown load shape \"{other}\"; valid shapes are: {}",
            sorted_list(LOAD_SHAPES)
        ))),
    }
}

fn parse_seeds(value: &JsonValue) -> Result<Vec<u64>, SweepError> {
    let bad = || {
        invalid(
            "scenario field \"seeds\" must be a non-empty array of integers \
             or {\"range\": [start, end]}",
        )
    };
    let mut seeds: Vec<u64> = match value {
        JsonValue::Arr(items) if !items.is_empty() => items
            .iter()
            .map(|v| v.as_usize().map(|s| s as u64).ok_or_else(bad))
            .collect::<Result<_, _>>()?,
        JsonValue::Obj(_) => {
            let range = value
                .get("range")
                .and_then(JsonValue::as_array)
                .ok_or_else(bad)?;
            let (start, end) = match range {
                [a, b] => (
                    a.as_usize().ok_or_else(bad)? as u64,
                    b.as_usize().ok_or_else(bad)? as u64,
                ),
                _ => return Err(bad()),
            };
            if end <= start {
                return Err(bad());
            }
            // Counted before it is collected: every seed is at least one
            // node-quantum.
            if end - start > MAX_NODE_QUANTA as u64 {
                return Err(too_large());
            }
            (start..end).collect()
        }
        _ => return Err(bad()),
    };
    // The file's ordering is immaterial: sort + dedup here so shuffled
    // seed lists load to the identical spec (and identical summary).
    seeds.sort_unstable();
    seeds.dedup();
    Ok(seeds)
}

fn parse_topology(value: Option<&JsonValue>) -> Result<Topology, SweepError> {
    let Some(value) = value else {
        return Ok(Topology::SingleNode);
    };
    let kind = value
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| invalid("scenario field \"topology\" needs a string \"kind\""))?;
    match kind {
        "single" => Ok(Topology::SingleNode),
        "cluster" => {
            let nodes = value
                .get("nodes")
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| {
                    invalid("topology kind \"cluster\" needs a positive integer \"nodes\"")
                })?;
            if nodes == 0 {
                return Err(invalid(
                    "topology kind \"cluster\" needs a positive integer \"nodes\"",
                ));
            }
            Ok(Topology::Cluster { nodes })
        }
        other => Err(invalid(format!(
            "unknown topology kind \"{other}\"; valid kinds are: cluster, single"
        ))),
    }
}

fn parse_tenants(value: &JsonValue) -> Result<TenantMix, SweepError> {
    let lc_arr = value
        .get("lc")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| invalid("scenario field \"tenants\" needs a non-empty \"lc\" array"))?;
    if lc_arr.is_empty() {
        return Err(invalid(
            "scenario field \"tenants\" needs a non-empty \"lc\" array",
        ));
    }
    let mut lc = Vec::new();
    for entry in lc_arr {
        let name = entry
            .get("service")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| invalid("an \"lc\" tenant needs a string \"service\""))?;
        let service = latency::service_by_name(name).ok_or_else(|| {
            let mut names: Vec<&str> = latency::services().iter().map(|s| s.name).collect();
            names.sort_unstable();
            invalid(format!(
                "unknown service \"{name}\"; valid services are: {}",
                sorted_list(&names)
            ))
        })?;
        let load = match entry.get("load") {
            None => 0.8,
            Some(v) => v.as_f64().filter(|l| *l >= 0.0).ok_or_else(|| {
                invalid("an \"lc\" tenant field \"load\" must be a non-negative number")
            })?,
        };
        let cores = match entry.get("cores") {
            None => 16,
            Some(v) => v.as_usize().filter(|c| *c > 0).ok_or_else(|| {
                invalid("an \"lc\" tenant field \"cores\" must be a positive integer")
            })?,
        };
        let qos_ms = match entry.get("qos_ms") {
            None => None,
            Some(v) => Some(v.as_f64().filter(|q| *q > 0.0).ok_or_else(|| {
                invalid("an \"lc\" tenant field \"qos_ms\" must be a positive number")
            })?),
        };
        lc.push(LcTenantSpec {
            service,
            load,
            cores,
            qos_ms,
        });
    }
    // Every run is on the paper's chip; batch jobs need at least one core.
    let chip_cores = Scenario::paper_default().params.num_cores;
    let lc_cores: usize = lc.iter().map(|t| t.cores).sum();
    if lc_cores >= chip_cores {
        return Err(invalid(format!(
            "the \"lc\" tenants' \"cores\" sum to {lc_cores}, leaving none of the \
             chip's {chip_cores} cores for batch jobs"
        )));
    }
    let batch = match value.get("batch") {
        None => 0,
        Some(v) => v.as_usize().ok_or_else(|| {
            invalid("scenario field \"tenants\" field \"batch\" must be a non-negative integer")
        })?,
    };
    let mix_seed = match value.get("mix_seed") {
        None => batch::STANDARD_MIX_SEED,
        Some(v) => v.as_usize().ok_or_else(|| {
            invalid("scenario field \"tenants\" field \"mix_seed\" must be a non-negative integer")
        })? as u64,
    };
    Ok(TenantMix {
        lc,
        batch,
        mix_seed,
    })
}

fn parse_profiles(
    value: Option<&JsonValue>,
    field: &str,
    what: &str,
    valid: &[&str],
) -> Result<Vec<String>, SweepError> {
    let Some(value) = value else {
        return Ok(vec!["clean".to_string()]);
    };
    let items = value.get_arr_or(field)?;
    let mut out = Vec::new();
    for item in items {
        let name = item.as_str().ok_or_else(|| {
            invalid(format!(
                "scenario field \"{field}\" must be an array of strings"
            ))
        })?;
        if !valid.contains(&name) {
            return Err(invalid(format!(
                "unknown {what} \"{name}\"; valid profiles are: {}",
                sorted_list(valid)
            )));
        }
        out.push(name.to_string());
    }
    if out.is_empty() {
        return Err(invalid(format!(
            "scenario field \"{field}\" must be a non-empty array"
        )));
    }
    Ok(out)
}

trait JsonFieldExt {
    fn get_arr_or(&self, field: &str) -> Result<&[JsonValue], SweepError>;
}

impl JsonFieldExt for JsonValue {
    fn get_arr_or(&self, field: &str) -> Result<&[JsonValue], SweepError> {
        self.as_array()
            .ok_or_else(|| invalid(format!("scenario field \"{field}\" must be an array")))
    }
}

/// Parses and validates a scenario file.
///
/// # Errors
///
/// Returns a [`SweepError`] on malformed JSON or any schema violation —
/// unknown fields, keys, profiles, services, or shapes are all hard
/// errors listing the valid vocabulary.
pub fn load_spec(text: &str) -> Result<SweepSpec, SweepError> {
    let doc = json::parse(text).map_err(SweepError::Json)?;
    let fields = doc
        .entries()
        .ok_or_else(|| invalid("a scenario file must be a JSON object"))?;
    for (key, _) in fields {
        if !SPEC_FIELDS.contains(&key.as_str()) {
            return Err(invalid(format!(
                "unknown scenario field \"{key}\"; valid fields are: {}",
                sorted_list(SPEC_FIELDS)
            )));
        }
    }
    let name = doc
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| invalid("scenario is missing required string field \"name\""))?
        .to_string();
    // The name is the default output directory under `runs/`, so it must
    // be one plain path component.
    if name.is_empty() || name == "." || name == ".." || name.contains(['/', '\\']) {
        return Err(invalid(format!(
            "scenario field \"name\" must be one plain path component, got \"{name}\""
        )));
    }
    let quanta = field_usize(&doc, "quanta", "a positive integer")?;
    if quanta == 0 {
        return Err(invalid(
            "scenario field \"quanta\" must be a positive integer",
        ));
    }
    let seeds = parse_seeds(
        doc.get("seeds")
            .ok_or_else(|| invalid("scenario is missing required field \"seeds\""))?,
    )?;
    let topology = parse_topology(doc.get("topology"))?;
    let tenants = parse_tenants(
        doc.get("tenants")
            .ok_or_else(|| invalid("scenario is missing required field \"tenants\""))?,
    )?;
    let load_shapes = match doc.get("load_shapes") {
        None => vec![LoadShape::Steady],
        Some(v) => {
            let items = v.get_arr_or("load_shapes")?;
            if items.is_empty() {
                return Err(invalid(
                    "scenario field \"load_shapes\" must be a non-empty array",
                ));
            }
            items.iter().map(parse_shape).collect::<Result<_, _>>()?
        }
    };
    let caps = match doc.get("caps") {
        None => vec![0.7],
        Some(v) => {
            let items = v.get_arr_or("caps")?;
            if items.is_empty() {
                return Err(invalid("scenario field \"caps\" must be a non-empty array"));
            }
            items
                .iter()
                .map(|c| {
                    c.as_f64().filter(|c| *c > 0.0).ok_or_else(|| {
                        invalid("scenario field \"caps\" must contain positive numbers")
                    })
                })
                .collect::<Result<_, _>>()?
        }
    };
    let fault_profiles = parse_profiles(
        doc.get("fault_profiles"),
        "fault_profiles",
        "fault profile",
        FaultPlan::NAMES,
    )?;
    let fleet_fault_profiles = parse_profiles(
        doc.get("fleet_fault_profiles"),
        "fleet_fault_profiles",
        "fleet fault profile",
        FleetFaultPlan::NAMES,
    )?;
    if doc.get("fleet_fault_profiles").is_some() && topology == Topology::SingleNode {
        return Err(invalid(
            "\"fleet_fault_profiles\" requires a cluster topology",
        ));
    }
    let noise = match doc.get("noise") {
        None => 0.03,
        Some(v) => v
            .as_f64()
            .filter(|n| *n >= 0.0)
            .ok_or_else(|| invalid("scenario field \"noise\" must be a non-negative number"))?,
    };
    let phases = match doc.get("phases") {
        None => true,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| invalid("scenario field \"phases\" must be a boolean"))?,
    };
    let nodes = match topology {
        Topology::SingleNode => 1,
        Topology::Cluster { nodes } => nodes,
    };
    let node_quanta = [
        load_shapes.len(),
        caps.len(),
        fault_profiles.len(),
        fleet_fault_profiles.len(),
        seeds.len(),
        nodes,
        quanta,
    ]
    .into_iter()
    .try_fold(1, usize::checked_mul);
    if node_quanta.is_none_or(|n| n > MAX_NODE_QUANTA) {
        return Err(too_large());
    }
    Ok(SweepSpec {
        name,
        quanta,
        seeds,
        topology,
        tenants,
        load_shapes,
        caps,
        fault_profiles,
        fleet_fault_profiles,
        noise,
        phases,
    })
}
