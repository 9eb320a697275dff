//! The sweep CLI: `sweep run --scenario scenarios/<name>.json`.
//!
//! Exit codes: `0` when every detector passed, `1` on a usage or
//! scenario-load error, `2` when at least one detector tripped —
//! so CI can gate directly on the process status.
//!
//! The wall-clock footer is print-only: nothing timed ever reaches
//! `summary.json`, which stays a pure function of the scenario file.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use sweep::{
    filter_grid, load_spec, render_tables, run_sweep_cells, summary_json, summary_json_partial,
};
use util::json::emit_json;
use util::WorkerPool;

const USAGE: &str = "usage: sweep run --scenario <file.json> [--out <dir>] [--pool <threads>] \
                     [--filter <substring>]";

struct Args {
    scenario: PathBuf,
    out: Option<PathBuf>,
    pool: usize,
    filter: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    match it.next().map(String::as_str) {
        Some("run") => {}
        Some(other) => return Err(format!("unknown command \"{other}\"\n{USAGE}")),
        None => return Err(USAGE.to_string()),
    }
    let mut scenario = None;
    let mut out = None;
    let mut pool = 4;
    let mut filter = None;
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {what} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--scenario" => scenario = Some(PathBuf::from(value("--scenario")?)),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--filter" => filter = Some(value("--filter")?),
            "--pool" => {
                pool = value("--pool")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--pool needs a positive integer\n{USAGE}"))?;
            }
            other => return Err(format!("unknown flag \"{other}\"\n{USAGE}")),
        }
    }
    let scenario = scenario.ok_or_else(|| format!("--scenario is required\n{USAGE}"))?;
    Ok(Args {
        scenario,
        out,
        pool,
        filter,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };
    let text = match std::fs::read_to_string(&args.scenario) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.scenario.display());
            return ExitCode::from(1);
        }
    };
    let spec = match load_spec(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{}: {e}", args.scenario.display());
            return ExitCode::from(1);
        }
    };
    let filter = args.filter.as_deref().unwrap_or("");
    let cells = filter_grid(&spec, filter);
    let grid_size = spec.total_runs() / spec.seeds.len();
    if cells.is_empty() {
        eprintln!(
            "--filter \"{filter}\" matches none of the {grid_size} cell labels \
             (labels look like the `cell` column of the pass/fail table)"
        );
        return ExitCode::from(1);
    }
    let partial = cells.len() < grid_size;
    if partial {
        println!(
            "PARTIAL sweep: --filter \"{filter}\" matched {} of {grid_size} cells; \
             results go to summary.partial.json (the golden summary.json is untouched)",
            cells.len(),
        );
    }
    println!(
        "sweep \"{}\": {} cells x {} seeds = {} runs across {} workers",
        spec.name,
        cells.len(),
        spec.seeds.len(),
        cells.len() * spec.seeds.len(),
        args.pool,
    );
    #[allow(
        clippy::disallowed_methods,
        reason = "times the run for the console footer only; nothing timed reaches summary.json"
    )]
    let started = Instant::now();
    let pool = WorkerPool::new(args.pool);
    let outcome = run_sweep_cells(&spec, &pool, cells);
    let elapsed = started.elapsed();
    println!("{}", render_tables(&spec, &outcome));

    let out_dir = args
        .out
        .unwrap_or_else(|| PathBuf::from("runs").join(&spec.name));
    let summary_path = out_dir.join(if partial {
        "summary.partial.json"
    } else {
        "summary.json"
    });
    let summary = if partial {
        summary_json_partial(&spec, &outcome, filter)
    } else {
        summary_json(&spec, &outcome)
    };
    if let Err(e) = emit_json(&summary_path, &summary) {
        eprintln!("cannot write {}: {e}", summary_path.display());
        return ExitCode::from(1);
    }
    println!(
        "{} runs in {:.1}s -> {}",
        outcome.total_runs(),
        elapsed.as_secs_f64(),
        summary_path.display(),
    );
    let scope = if partial {
        " (PARTIAL: filtered cells only)"
    } else {
        ""
    };
    if outcome.tripped() {
        eprintln!("verdict: FAIL{scope} (a detector tripped; see the table above)");
        ExitCode::from(2)
    } else {
        println!("verdict: pass{scope}");
        ExitCode::SUCCESS
    }
}
