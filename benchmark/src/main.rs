//! `perf-ledger`: the repo's benchmark. One harness that attributes the
//! whole decision quantum, layer by layer, over four named workloads.
//!
//! ```text
//! perf-ledger run --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                 [--reps R] [--json out.json] [--spans spans.jsonl]
//! perf-ledger all [--seed N] [--seconds S] [--reps R] [--json set.json] [--history history.jsonl]
//! perf-ledger compare a.json b.json
//! ```
//!
//! `run` prints every metric by name with its unit and sample count, then —
//! as the last line of standard output — the one-line JSON result the
//! driver reads. It exits non-zero when a correctness check fails. See
//! `README.md` next to this crate for what each metric means.

mod compare;
mod fleet;
mod metrics;
mod node;
mod pass;
mod probes;
mod run;
mod service;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use util::{JsonValue, WorkerPool};

use crate::metrics::{judged_per_layer, registry};
use crate::run::RunArgs;
use crate::workloads::Workload;

const USAGE: &str = "usage:
  perf-ledger run --workload <node_steady|node_churn|fleet_faulted|service_scrape>
                  [--seed N] [--seconds S] [--trace 0|1] [--reps R]
                  [--json out.json] [--spans spans.jsonl]
  perf-ledger all [--seed N] [--seconds S] [--reps R] [--json set.json] [--history history.jsonl]
  perf-ledger compare a.json b.json";

/// Flags shared by `run` and `all`, as given.
#[derive(Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    reps: Option<usize>,
    json: Option<PathBuf>,
    spans: Option<PathBuf>,
    history: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value.clone()),
            "--seed" => flags.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must lie in (0, 60], got {value}"));
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            "--reps" => {
                let r: usize = value.parse().map_err(|_| bad())?;
                if !(1..=20).contains(&r) {
                    return Err(format!("--reps must lie in 1..=20, got {value}"));
                }
                flags.reps = Some(r);
            }
            "--json" => flags.json = Some(PathBuf::from(value)),
            "--spans" => flags.spans = Some(PathBuf::from(value)),
            "--history" => flags.history = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(flags)
}

fn write_file(
    path: &Path,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let run = || -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write(&mut out)?;
        out.flush()
    };
    run().map_err(|e| format!("writing {}: {e}", path.display()))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    if flags.history.is_some() {
        return Err("--history belongs to `all`".to_string());
    }
    let name = flags.workload.ok_or("run needs --workload")?;
    let workload = Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds = flags.seconds.unwrap_or(registry().run_seconds as f64);
    let outcome = run::run(RunArgs {
        workload,
        seed: flags.seed.unwrap_or(7),
        timed: workload.timed_quanta(seconds),
        trace: flags.trace.unwrap_or(false),
        reps: flags.reps.unwrap_or(1),
    });
    if let Some(path) = &flags.json {
        write_file(path, |out| writeln!(out, "{}", run::to_json(&outcome)))?;
    }
    if let (Some(path), Some(tracer)) = (&flags.spans, &outcome.tracer) {
        write_file(path, |out| tracer.write_jsonl(out))?;
    }
    print!("{}", run::report(&outcome));
    println!("{}", run::driver_line(&outcome));
    Ok(if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// First line of a command's standard output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit the working tree sits on, `+dirty` when the tree differs
/// from it (as it does in the change that is about to become a commit).
fn commit() -> String {
    let head = first_line_of("git", &["rev-parse", "--short=12", "HEAD"]);
    let clean = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .is_ok_and(|o| o.status.success() && o.stdout.is_empty());
    if clean || head == "unknown" {
        head
    } else {
        format!("{head}+dirty")
    }
}

fn cmd_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    if flags.workload.is_some() || flags.trace.is_some() || flags.spans.is_some() {
        return Err("`all` runs every workload, traced and untraced".to_string());
    }
    let seed = flags.seed.unwrap_or(7);
    let seconds = flags.seconds.unwrap_or(registry().run_seconds as f64);
    let reps = flags.reps.unwrap_or(3);
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let part = |workload: Workload, trace: bool| -> PathBuf {
        let name = format!(
            "perf-ledger-{}-{}-{}.part.json",
            std::process::id(),
            workload.name(),
            u8::from(trace)
        );
        match flags.json.as_deref().and_then(Path::parent) {
            Some(dir) if !dir.as_os_str().is_empty() => dir.join(name),
            _ => std::env::temp_dir().join(name),
        }
    };

    // Each workload in its own process, so peak_rss_mb is per workload.
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let path = part(workload, trace);
            let status = Command::new(&exe)
                .arg("run")
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .args(["--reps", &reps.to_string()])
                .arg("--json")
                .arg(&path)
                .status()
                .map_err(|e| format!("starting {}: {e}", exe.display()))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let _ = std::fs::remove_file(&path);
            runs.push(util::json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?);
        }
        // The decorator must not change a decision: the traced and the
        // untraced run of one workload digest the same.
        let digests: Vec<Option<&str>> = runs[runs.len() - 2..]
            .iter()
            .map(|r| r.get("digest").and_then(JsonValue::as_str))
            .collect();
        if digests[0] != digests[1] {
            eprintln!(
                "perf-ledger: {}: traced and untraced runs decide differently ({digests:?})",
                workload.name()
            );
            all_correct = false;
        }
    }

    let meta = vec![
        ("commit", commit().into()),
        ("rustc", first_line_of("rustc", &["-V"]).into()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .into(),
        ),
        ("pool_threads", WorkerPool::default_threads().into()),
        ("seed", JsonValue::Str(seed.to_string())),
        ("seconds", seconds.into()),
        ("reps", reps.into()),
    ];
    if let Some(path) = &flags.history {
        // One line per run set: the provenance, and per workload the record
        // digest and the medians of every metric an untraced run prints.
        let workloads = runs
            .iter()
            .filter(|r| r.get("trace").and_then(JsonValue::as_bool) == Some(false))
            .map(|r| {
                let mut row = vec![(
                    "digest".to_string(),
                    r.get("digest").cloned().unwrap_or(JsonValue::Null),
                )];
                for d in registry().end_to_end.iter().chain(judged_per_layer()) {
                    let value = r
                        .get("metrics")
                        .and_then(|m| m.get(&d.name))
                        .and_then(|m| m.get("value"));
                    row.push((d.name.clone(), value.cloned().unwrap_or(JsonValue::Null)));
                }
                (
                    r.get("workload")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    JsonValue::Obj(row),
                )
            })
            .collect();
        let mut line = meta.clone();
        line.push(("workloads", JsonValue::Obj(workloads)));
        let append = || -> std::io::Result<()> {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            writeln!(file, "{}", JsonValue::object(line))?;
            file.flush()
        };
        append().map_err(|e| format!("appending to {}: {e}", path.display()))?;
    }
    if let Some(path) = &flags.json {
        let set = JsonValue::object([
            ("meta", JsonValue::object(meta)),
            ("runs", JsonValue::Arr(runs)),
        ]);
        write_file(path, |out| writeln!(out, "{set}"))?;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two files".to_string());
    };
    let load = |path: &String| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        util::json::parse(&text).map_err(|e| format!("{path}: {e:?}"))
    };
    let (report, failed) = compare::compare(&load(a)?, &load(b)?);
    print!("{report}");
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "all" => cmd_all(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        _ => Err("expected run, all or compare".to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perf-ledger: {e}\n{USAGE}");
        ExitCode::from(64)
    })
}
