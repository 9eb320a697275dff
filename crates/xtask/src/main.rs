//! CLI entry point for `cargo xtask`.

use std::process::ExitCode;
use xtask::rules::Diagnostic;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["lint"] | ["schema", "--check" | "--write"] => {}
        [] | ["--help" | "-h" | "help"] | [_, "--help" | "-h"] => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("xtask: unknown arguments `{}`\n", args.join(" "));
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("xtask: cannot determine working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workspace) = xtask::find_workspace_root(&cwd) else {
        eprintln!("xtask: no workspace Cargo.toml above {}", cwd.display());
        return ExitCode::from(2);
    };
    let outcome = match args.as_slice() {
        ["lint"] => xtask::run_lint(&workspace).map(|(diags, files)| {
            report(
                "lint",
                &diags,
                format!("{files} files checked, no violations"),
            )
        }),
        ["schema", "--check"] => xtask::schema::check(&workspace).map(|(diags, entries)| {
            report(
                "schema",
                &diags,
                format!("schema.lock is in sync ({entries} entries)"),
            )
        }),
        _ => xtask::schema::write_lock(&workspace).map(|n| {
            println!("xtask schema: wrote {n} entries to schema.lock");
            ExitCode::SUCCESS
        }),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("xtask {}: {e}", args[0]);
        ExitCode::from(2)
    })
}

const USAGE: &str = "\
usage: cargo xtask <task>

tasks:
  lint             check what clippy cannot express: float comparator
                   totality and event exhaustiveness over crates/, and
                   the schema lock. Exits 0 when clean, 1 on violations.
  schema --check   fail (exit 1) if schema.lock drifted from the emitter
                   sources.
  schema --write   regenerate schema.lock from the sources.
";

/// Prints each diagnostic and a summary trailer; exit 1 on any finding.
fn report(task: &str, diags: &[Diagnostic], clean: String) -> ExitCode {
    for d in diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!("xtask {task}: {clean}");
        ExitCode::SUCCESS
    } else {
        println!("xtask {task}: {} finding(s)", diags.len());
        ExitCode::FAILURE
    }
}
