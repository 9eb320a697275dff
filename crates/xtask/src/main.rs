//! CLI entry point for `cargo xtask`.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("schema") => schema(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage: cargo xtask <task>

tasks:
  lint [--json] [PATH...]   check the determinism invariants clippy cannot
                            express: float accumulators, the item-graph
                            rules (taint, float comparators, event
                            exhaustiveness), and the schema lock (default
                            PATH: crates/). --json writes the stable v3
                            machine-readable report to stdout. Exits 0
                            when clean, 1 on violations.
  schema                    print the generated emitted-schema lock text.
  schema --check            fail (exit 1) if schema.lock drifted from the
                            emitter sources.
  schema --write            regenerate schema.lock from the sources.
";

fn workspace_root() -> Result<PathBuf, ExitCode> {
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("xtask: cannot determine working directory: {e}");
            return Err(ExitCode::from(2));
        }
    };
    match xtask::find_workspace_root(&cwd) {
        Some(w) => Ok(w),
        None => {
            eprintln!("xtask: no workspace Cargo.toml above {}", cwd.display());
            Err(ExitCode::from(2))
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut roots: Vec<PathBuf> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("xtask lint: unknown flag `{flag}`");
                return ExitCode::from(2);
            }
            path => roots.push(PathBuf::from(path)),
        }
    }
    if roots.is_empty() {
        roots = xtask::default_roots();
    }
    let workspace = match workspace_root() {
        Ok(w) => w,
        Err(code) => return code,
    };
    match xtask::run_lint(&workspace, &roots) {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn schema(args: &[String]) -> ExitCode {
    let mode = match args.first().map(String::as_str) {
        None => "print",
        Some("--check") => "check",
        Some("--write") => "write",
        Some("--help" | "-h") => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => {
            eprintln!("xtask schema: unknown argument `{other}`");
            return ExitCode::from(2);
        }
    };
    let workspace = match workspace_root() {
        Ok(w) => w,
        Err(code) => return code,
    };
    let outcome = match mode {
        "print" => xtask::schema::extract_workspace(&workspace).map(|entries| {
            print!("{}", xtask::schema::render_lock(&entries));
            ExitCode::SUCCESS
        }),
        "write" => xtask::schema::write_lock(&workspace).map(|n| {
            println!("xtask schema: wrote {} entries to schema.lock", n);
            ExitCode::SUCCESS
        }),
        _ => xtask::schema::check(&workspace).map(|(diags, entries)| {
            if diags.is_empty() {
                println!("xtask schema: schema.lock is in sync ({entries} entries)");
                ExitCode::SUCCESS
            } else {
                for d in &diags {
                    println!("{}:{}:{}: {}: {}", d.file, d.line, d.col, d.rule, d.message);
                }
                println!("xtask schema: {} drift finding(s)", diags.len());
                ExitCode::FAILURE
            }
        }),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("xtask schema: {e}");
        ExitCode::from(2)
    })
}
