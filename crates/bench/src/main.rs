//! `paper <id> [args] | paper list | paper record` — see [`bench::cli`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(bench::cli::run(&argv))
}
