//! The metric registry: every name the benchmark may print, with its unit
//! and direction.
//!
//! `BENCHMARK.json` at the repo root is the one list: the driver reads it,
//! and this crate compiles it in and builds [`registry`] from it. A run
//! fills a [`MetricSet`], which refuses undeclared names and double writes,
//! and is only complete when every declared name was written exactly once.

use std::sync::OnceLock;

use util::JsonValue;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]`, at most 64 characters.
    pub name: String,
    /// Unit, `[A-Za-z0-9_/%.-]`, at most 16 characters.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
}

/// `BENCHMARK.json`, as this crate uses it.
pub struct Registry {
    /// How long one driver run measures (s).
    pub run_seconds: usize,
    /// Every workload's name and the one line on why it exists.
    pub workloads: Vec<(String, String)>,
    /// What a user of the system sees; printed by untraced runs, defined
    /// (and never zero) on every workload. All times are host wall time.
    pub end_to_end: Vec<MetricDef>,
    /// Single-layer metrics, printed by traced runs. A metric of a layer the
    /// workload does not go through has no samples (absent in the table, 0
    /// in the driver's result line).
    pub per_layer: Vec<MetricDef>,
}

impl Registry {
    /// Reads a `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics when a key the crate reads is missing or has the wrong type:
    /// the file is compiled in, so that is a bug in this repository.
    fn parse(text: &str) -> Registry {
        let doc = util::json::parse(text).expect("BENCHMARK.json is JSON");
        let list = |key: &str| -> &[JsonValue] {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json: {key} is a list"))
        };
        let text_of = |entry: &JsonValue, key: &str| -> String {
            entry
                .get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: {key} is a string in {entry}"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricDef> {
            list(key)
                .iter()
                .map(|m| MetricDef {
                    name: text_of(m, "name"),
                    unit: text_of(m, "unit"),
                    better: match text_of(m, "better").as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => panic!("BENCHMARK.json: better is {other}"),
                    },
                })
                .collect()
        };
        Registry {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_usize)
                .expect("BENCHMARK.json: run_seconds is a whole number"),
            workloads: list("workloads")
                .iter()
                .map(|w| (text_of(w, "name"), text_of(w, "why")))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// The registry built from the `BENCHMARK.json` this crate was compiled
/// next to.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry::parse(include_str!("../../BENCHMARK.json")))
}

/// How far `compare` lets a metric worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Allow {
    /// By this share of the base's median.
    Rel(f64),
    /// By this much, in the metric's own unit.
    Abs(f64),
}

/// The metrics `compare` judges and by how much each may worsen: the
/// end-to-end metrics of the issue, with the issue's bounds. (Its ninth,
/// the scrape latency, did not repeat within a tenth between runs and is,
/// by the issue's own rule, a per-layer metric that is shown, not judged.)
///
/// They are not the bounds of `BENCHMARK.json`, because the two gates ask
/// different questions. The driver compares medians over runs of ten
/// *different* seeds and accepts the benchmark only while the spread
/// between those runs stays well inside the bound, so its bounds are as
/// wide as that spread demands. `compare` puts two run sets of *one* seed
/// and size side by side: there the simulated statistics are exact, and a
/// timing whose repetitions scatter wider than its bound is reported as
/// `unresolved` rather than judged, so the issue's tighter bounds hold.
///
/// Three of them cannot be end-to-end metrics in `BENCHMARK.json` at all:
/// the driver wants each defined and non-zero on every workload, and
/// `failed_share` and the violation shares may be 0. They are declared
/// per-layer there; untraced runs compute and print them all the same
/// (report and `--json`, never the driver's line), so that they are judged
/// beside the other five.
pub const COMPARE_BOUNDS: &[(&str, Allow)] = &[
    ("setup_s", Allow::Rel(0.10)),
    ("quantum_ms_p50", Allow::Rel(0.10)),
    ("quanta_per_s", Allow::Rel(0.10)),
    ("failed_share", Allow::Abs(0.0)),
    ("qos_violation_share", Allow::Abs(0.005)),
    ("power_violation_share", Allow::Abs(0.005)),
    ("batch_ginstr_per_sim_s", Allow::Rel(0.01)),
    ("peak_rss_mb", Allow::Rel(0.10)),
];

/// The per-layer metrics among [`COMPARE_BOUNDS`], which an untraced run
/// prints beside its end-to-end ones.
pub fn judged_per_layer() -> Vec<&'static MetricDef> {
    registry()
        .per_layer
        .iter()
        .filter(|d| COMPARE_BOUNDS.iter().any(|(name, _)| *name == d.name))
        .collect()
}

/// Whether `name` is a legal metric or workload name: starts with a letter
/// or digit, at most 64 of `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One written metric: the value (absent when the workload produced no
/// samples for it, or too few for the percentile) and its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The measured value; the median over repetitions when there are any.
    pub value: Option<f64>,
    /// How many samples the value (of one repetition) summarises.
    pub samples: usize,
    /// Smallest and largest per-repetition value.
    pub spread: Option<(f64, f64)>,
}

/// The metrics of one run, in declaration order.
pub struct MetricSet {
    defs: Vec<&'static MetricDef>,
    readings: Vec<Option<Reading>>,
}

impl MetricSet {
    /// An empty set over `defs` (a list of the [`registry`], or part of one).
    pub fn new(defs: impl IntoIterator<Item = &'static MetricDef>) -> MetricSet {
        let defs: Vec<_> = defs.into_iter().collect();
        MetricSet {
            readings: vec![None; defs.len()],
            defs,
        }
    }

    /// Writes one metric.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name or a second write — both are bugs in
    /// the benchmark that would otherwise print a silently wrong table.
    pub fn set(&mut self, name: &str, value: Option<f64>, samples: usize) {
        let value = value.filter(|v| v.is_finite());
        self.write(
            name,
            Reading {
                value,
                samples,
                spread: value.map(|v| (v, v)),
            },
        );
    }

    /// Writes one metric from its per-repetition values: the value is their
    /// median, the spread their range.
    ///
    /// # Panics
    ///
    /// As [`MetricSet::set`].
    pub fn set_reps(&mut self, name: &str, reps: &[f64], samples: usize) {
        let finite = reps.iter().all(|v| v.is_finite()) && !reps.is_empty();
        self.write(
            name,
            Reading {
                value: finite.then(|| crate::stats::median(reps)).flatten(),
                samples,
                spread: finite.then(|| {
                    reps.iter()
                        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                            (lo.min(*v), hi.max(*v))
                        })
                }),
            },
        );
    }

    fn write(&mut self, name: &str, reading: Reading) {
        let idx = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(self.readings[idx].is_none(), "metric {name} written twice");
        self.readings[idx] = Some(reading);
    }

    /// Declared names not written yet.
    pub fn missing(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .zip(&self.readings)
            .filter(|(_, r)| r.is_none())
            .map(|(d, _)| d.name.as_str())
            .collect()
    }

    /// Every declared metric with its reading.
    ///
    /// # Panics
    ///
    /// Panics when a declared metric was never written.
    pub fn entries(&self) -> Vec<(&'static MetricDef, Reading)> {
        let missing = self.missing();
        assert!(missing.is_empty(), "metrics never written: {missing:?}");
        self.defs
            .iter()
            .zip(&self.readings)
            .map(|(d, r)| (*d, r.expect("checked above")))
            .collect()
    }

    /// The `metrics` object of the driver's result line: every declared
    /// name once, `{"value": v, "unit": u}`, absent values as 0.
    pub fn to_driver_json(&self) -> JsonValue {
        JsonValue::Obj(
            self.entries()
                .into_iter()
                .map(|(d, r)| {
                    (
                        d.name.clone(),
                        JsonValue::object([
                            ("value", JsonValue::Num(r.value.unwrap_or(0.0))),
                            ("unit", d.unit.as_str().into()),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_follow_the_charset() {
        for ok in ["setup_s", "core.decide_ms_p50", "a-b.c_d", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/y",
            "µs",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "Ginstr/s", "%", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "10⁹", "a b", "seventeen_chars__"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    /// The limits the driver's contract puts on `BENCHMARK.json`.
    #[test]
    fn benchmark_json_is_well_formed() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = util::json::parse(text).unwrap();
        let keys: Vec<&str> = doc
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let r = registry();
        let mut seen = BTreeSet::new();
        for d in r.end_to_end.iter().chain(&r.per_layer) {
            assert!(valid_name(&d.name), "{}", d.name);
            assert!(valid_unit(&d.unit), "{}: {}", d.name, d.unit);
            assert!(seen.insert(&d.name), "{} declared twice", d.name);
        }
        // The driver's bounds: every end-to-end metric has one, no per-layer
        // metric does, and set-up carries the largest.
        let bounds = |key: &str| -> Vec<(String, Option<f64>)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().to_string(),
                        m.get("bound").and_then(JsonValue::as_f64),
                    )
                })
                .collect()
        };
        let driver = bounds("end_to_end");
        for (name, bound) in &driver {
            assert!(bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{name}");
        }
        assert!(bounds("per_layer").iter().all(|(_, b)| b.is_none()));
        let widest = driver.iter().filter_map(|(_, b)| *b).fold(0.0, f64::max);
        assert_eq!(driver[0], ("\"setup_s\"".to_string(), Some(widest)));
        assert!(r.end_to_end.len() <= 16 && r.per_layer.len() <= 128);
        let setup = r.end_to_end.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!((1..=60).contains(&r.run_seconds));
        // The workloads listed are the workloads the crate can run.
        let names: Vec<&str> = r.workloads.iter().map(|(name, _)| name.as_str()).collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
        for (name, why) in &r.workloads {
            assert!(valid_name(name) && why.len() <= 200 && !why.contains('\n'));
        }
        // `compare` judges every end-to-end metric, and three per-layer ones.
        for (name, _) in COMPARE_BOUNDS {
            assert!(seen.iter().any(|n| n == name), "{name}");
        }
        assert_eq!(
            r.end_to_end.len() + judged_per_layer().len(),
            COMPARE_BOUNDS.len()
        );
    }

    #[test]
    fn a_metric_set_wants_every_name_exactly_once() {
        let end_to_end = &registry().end_to_end;
        let mut set = MetricSet::new(end_to_end);
        assert_eq!(set.missing().len(), end_to_end.len());
        for d in end_to_end {
            set.set(&d.name, Some(1.5), 3);
        }
        assert!(set.missing().is_empty());
        assert_eq!(set.entries().len(), end_to_end.len());
        let doc = set.to_driver_json();
        assert_eq!(doc.entries().unwrap().len(), end_to_end.len());
        assert_eq!(
            doc.get("setup_s").unwrap().to_string(),
            "{\"value\":1.5,\"unit\":\"s\"}"
        );
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn a_second_write_is_refused() {
        let mut set = MetricSet::new(&registry().end_to_end);
        set.set("setup_s", Some(1.0), 1);
        set.set("setup_s", Some(2.0), 1);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_name_is_refused() {
        MetricSet::new(&registry().end_to_end).set("made_up", Some(1.0), 1);
    }
}
