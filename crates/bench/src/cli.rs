//! The `paper` command line: one strict argument parser and one output path
//! for every experiment in the [`REGISTRY`].
//!
//! An experiment *declares* its arguments as [`ArgSpec`] data and [`parse`]
//! checks a command line against the declaration. Anything it does not
//! recognise — an unknown flag, a surplus positional, a malformed number, a
//! value outside the allowed set, a flag without its value, an argument
//! given twice — is a usage error, never a silent default. Flags may appear
//! anywhere relative to positionals.
//!
//! `paper record` runs, in registry order, every experiment that needs no
//! argument, each at its defaults and under a `=== paper <id> ===` header:
//! the paper record, kept as `results/full_run.txt`. The experiments share
//! one run [`Grid`], so a (scheme, co-location, cap) several of them read is
//! run once; `paper <id>` runs on a grid of its own.
//!
//! Exit status: `0` ok, `1` usage (or an input the experiment refused), `2`
//! an experiment's own acceptance failed.

use crate::experiments::{Experiment, REGISTRY};
use crate::grid::Grid;
use crate::report::Report;

/// Which values an argument accepts.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// An unsigned integer no smaller than the given minimum.
    Int(u64),
    /// A fraction of nominal: a decimal number in `(0, 1]`.
    Fraction,
    /// One of a fixed set of words.
    OneOf(&'static [&'static str]),
    /// Any text.
    Text,
}

/// One declared argument. How it is written follows from the declaration:
/// a [`Kind::OneOf`] whose words are themselves flags (`--runtime`) is a
/// *switch*, given as one of those words; any other `--name` is an *option*
/// taking the next token as its value; the rest are *positionals*, bound in
/// declaration order.
#[derive(Debug, Clone, Copy)]
pub struct ArgSpec {
    /// What the experiment looks the value up by (for an option, the flag).
    pub name: &'static str,
    /// What it accepts.
    pub kind: Kind,
    /// The value when absent (`""`: an unset switch or text option).
    pub default: &'static str,
}

impl ArgSpec {
    fn is_switch(&self) -> bool {
        matches!(self.kind, Kind::OneOf(words) if words[0].starts_with("--"))
    }

    fn is_option(&self) -> bool {
        !self.is_switch() && self.name.starts_with("--")
    }

    fn is_positional(&self) -> bool {
        !self.is_switch() && !self.name.starts_with("--")
    }

    /// A positional without a default must be given.
    fn is_required(&self) -> bool {
        self.is_positional() && self.default.is_empty()
    }

    fn accepts(&self, value: &str) -> bool {
        match self.kind {
            Kind::Int(min) => value.parse::<u64>().is_ok_and(|v| v >= min),
            Kind::Fraction => value.parse::<f64>().is_ok_and(|v| v > 0.0 && v <= 1.0),
            Kind::OneOf(words) => words.contains(&value),
            Kind::Text => true,
        }
    }

    /// The argument as usage text shows it: `[--a|--b, default --b]`,
    /// `[--seed <integer >= 0>, default 7]`, `[slices: integer >= 1, …]`.
    fn synopsis(&self) -> String {
        let values = match self.kind {
            Kind::Int(min) => format!("integer >= {min}"),
            Kind::Fraction => "number in (0, 1]".to_string(),
            Kind::OneOf(words) => words.join("|"),
            Kind::Text => "path".to_string(),
        };
        let shown = if self.is_switch() {
            values
        } else if self.is_option() {
            format!("{} <{values}>", self.name)
        } else {
            format!("{}: {values}", self.name)
        };
        match self.default {
            "" => format!("[{shown}]"),
            default => format!("[{shown}, default {default}]"),
        }
    }
}

fn synopsis(specs: &[ArgSpec]) -> String {
    let each: Vec<String> = specs.iter().map(ArgSpec::synopsis).collect();
    each.join(" ")
}

/// The usage line of one experiment.
pub fn usage(experiment: &Experiment) -> String {
    format!(
        "usage: paper {} {}",
        experiment.id,
        synopsis(experiment.args)
    )
}

/// A validated command line: one value per declared argument.
#[derive(Debug, Clone, PartialEq)]
pub struct Args(Vec<(&'static str, String)>);

impl Args {
    /// The value of a declared argument.
    ///
    /// # Panics
    ///
    /// Panics if the experiment never declared `name` — a bug in the
    /// registry, not in the command line.
    pub fn word(&self, name: &str) -> &str {
        let found = self.0.iter().find(|(n, _)| *n == name);
        &found
            .unwrap_or_else(|| panic!("argument {name} is not declared"))
            .1
    }

    /// A [`Kind::Int`] argument.
    pub fn int(&self, name: &str) -> u64 {
        self.word(name).parse().expect("validated by parse")
    }

    /// A [`Kind::Fraction`] argument.
    pub fn fraction(&self, name: &str) -> f64 {
        self.word(name).parse().expect("validated by parse")
    }
}

/// Parses `argv` (everything after the experiment id) against `specs`.
///
/// # Errors
///
/// Returns the first thing wrong with the command line, as one line.
pub fn parse(specs: &[ArgSpec], argv: &[String]) -> Result<Args, String> {
    let mut values: Vec<Option<&str>> = vec![None; specs.len()];
    let mut positionals = (0..specs.len()).filter(|&i| specs[i].is_positional());
    let mut tokens = argv.iter();
    while let Some(token) = tokens.next() {
        let find = |pred: &dyn Fn(&ArgSpec) -> bool| specs.iter().position(pred);
        let (i, value) = if !token.starts_with("--") {
            let i = positionals.next();
            (
                i.ok_or_else(|| format!("unexpected argument \"{token}\""))?,
                token,
            )
        } else if let Some(i) = find(&|s| s.is_switch() && s.accepts(token)) {
            (i, token)
        } else if let Some(i) = find(&|s| s.is_option() && s.name == token) {
            let value = tokens.next();
            (
                i,
                value.ok_or_else(|| format!("flag {token} needs a value"))?,
            )
        } else {
            return Err(format!("unknown flag \"{token}\""));
        };
        if !specs[i].accepts(value) {
            return Err(format!("\"{value}\" does not fit {}", specs[i].synopsis()));
        }
        if values[i].replace(value).is_some() {
            return Err(format!("{} given more than once", specs[i].name));
        }
    }
    let resolved = specs.iter().zip(values);
    Ok(Args(
        resolved
            .map(|(s, v)| (s.name, v.unwrap_or(s.default).to_string()))
            .collect(),
    ))
}

/// Runs `paper <argv>`: prints to stdout/stderr and returns the exit status.
pub fn run(argv: &[String]) -> u8 {
    let Some((id, rest)) = argv.split_first() else {
        eprintln!("usage: paper <id> [args] | paper list | paper record");
        return 1;
    };
    if id == "list" && rest.is_empty() {
        println!("paper <id> [arguments], where <id> is one of:");
        for e in REGISTRY {
            let row = format!("  {:<24}{:<28}{}", e.id, e.paper_item, synopsis(e.args));
            println!("{}", row.trim_end());
        }
        println!("paper record runs each one that needs no argument, at its defaults.");
        return 0;
    }
    if id == "record" && rest.is_empty() {
        return record();
    }
    let Some(experiment) = REGISTRY.iter().find(|e| e.id == id) else {
        let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        eprintln!(
            "unknown experiment \"{id}\"; `paper list` describes: {}",
            ids.join(" ")
        );
        return 1;
    };
    match parse(experiment.args, rest) {
        Ok(args) => finish(id, &(experiment.run)(&args, &Grid::default())),
        Err(msg) => {
            eprintln!("paper {id}: {msg}\n{}", usage(experiment));
            1
        }
    }
}

/// The experiments `paper record` runs: those without a required argument,
/// in registry order.
fn recorded() -> impl Iterator<Item = &'static Experiment> {
    REGISTRY
        .iter()
        .filter(|e| !e.args.iter().any(ArgSpec::is_required))
}

/// `paper record`: each [`recorded`] experiment at its defaults, all on one
/// [`Grid`], so each cell and each chip's factors are computed once; the
/// worst exit status wins.
fn record() -> u8 {
    let grid = Grid::default();
    let mut status = 0;
    for e in recorded() {
        println!("=== paper {} ===", e.id);
        let args = parse(e.args, &[]).expect("every default is valid");
        status = status.max(finish(e.id, &(e.run)(&args, &grid)));
        println!();
    }
    status
}

/// Prints a report and returns its exit status.
fn finish(id: &str, report: &Report) -> u8 {
    if let Some(msg) = &report.refused {
        eprintln!("paper {id}: {msg}");
        return 1;
    }
    print!("{}", report.render());
    if report.failed {
        2
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_for(id: &str, argv: &[&str]) -> Result<Args, String> {
        let experiment = REGISTRY.iter().find(|e| e.id == id).expect("known id");
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        parse(experiment.args, &argv)
    }

    #[test]
    fn flags_bind_anywhere_relative_to_positionals() {
        let a = parse_for("fig08", &["3", "--scenario", "relocation"]).unwrap();
        let b = parse_for("fig08", &["--scenario", "relocation", "3"]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.int("slices"), 3);
        assert_eq!(a.word("--scenario"), "relocation");
        let c = parse_for("fig05", &["1", "--runtime"]).unwrap();
        assert_eq!(
            (c.word("mode"), c.int("mixes_per_service")),
            ("--runtime", 1)
        );
    }

    #[test]
    fn absent_arguments_take_their_declared_defaults() {
        let a = parse_for("fault-matrix", &[]).unwrap();
        assert_eq!((a.int("--seed"), a.int("slices")), (7, 10));
        let b = parse_for("flicker", &["0.6"]).unwrap();
        assert_eq!(
            (b.fraction("cap_fraction"), b.int("mixes_per_service")),
            (0.6, 2)
        );
        assert_eq!(parse_for("fig01", &[]).unwrap().word("--full"), "");
    }

    #[test]
    fn anything_undeclared_or_malformed_is_a_usage_error() {
        for (id, argv, needle) in [
            ("fig05", &["--runtim"][..], "unknown flag \"--runtim\""),
            (
                "fault-matrix",
                &["--seed", "x"],
                "\"x\" does not fit [--seed <integer >= 0>",
            ),
            ("fault-matrix", &["--seed"], "flag --seed needs a value"),
            (
                "fig07",
                &["0,7"],
                "\"0,7\" does not fit [cap_fraction: number in (0, 1]",
            ),
            ("fig07", &["1.5"], "\"1.5\" does not fit [cap_fraction"),
            ("fig07", &["0.7", "0.6"], "unexpected argument \"0.6\""),
            ("fig09", &["3"], "unexpected argument \"3\""),
            (
                "fig05c",
                &["0"],
                "\"0\" does not fit [mixes_per_service: integer >= 1",
            ),
            ("fig05c", &["-2"], "\"-2\" does not fit [mixes_per_service"),
            (
                "fig08",
                &["--scenario", "spike"],
                "\"spike\" does not fit [--scenario <all|load|",
            ),
            (
                "fig10",
                &["--sweep", "--scatter"],
                "mode given more than once",
            ),
            ("table2", &["--full"], "unknown flag \"--full\""),
        ] {
            let err = parse_for(id, argv).expect_err(&format!("{id} {argv:?} must be rejected"));
            assert!(err.contains(needle), "{id} {argv:?}: {err}");
        }
    }

    /// Seeded random command lines for every experiment, drawn from every
    /// registry flag and switch word, the experiment's own values, numbers
    /// at and beyond the `u64` and `f64` limits, empty strings and dashes
    /// (so an option is often followed by another flag, and arguments repeat).
    /// `parse` never panics, and on every `Ok` each declared `Int` and
    /// `Fraction` argument reads back through `Args::int` / `Args::fraction`
    /// inside its declared range.
    #[test]
    fn parse_survives_hostile_command_lines() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use std::panic::catch_unwind;

        let numbers: Vec<&str> = "-1 -0 +5 0 1 2 7 10 0x10 1_000 0,7 18446744073709551615
            18446744073709551616 340282366920938463463374607431768211456 0.0 -0.0 0.5 .5 1. 1e0
            1.0000000000000002 0.9999999999999999 4.9e-324 1e-400 1.7976931348623157e308 1e309
            inf -inf NaN"
            .split_whitespace()
            .collect();
        let mut words = vec!["", " ", "-", "--", "---json", "x.json", "ü"];
        for spec in REGISTRY.iter().flat_map(|e| e.args) {
            words.push(spec.name);
            if let Kind::OneOf(one_of) = spec.kind {
                words.extend(one_of);
            }
        }
        let mut rng = StdRng::seed_from_u64(0xC11);
        let mut accepted = 0;
        for experiment in REGISTRY {
            let specs = experiment.args;
            // Half the tokens come from the experiment's own arguments, so
            // that non-empty lines parse and hostile numbers follow its flags.
            let mut own = vec![""];
            for spec in specs {
                own.extend([spec.name, spec.default]);
                if let Kind::OneOf(one_of) = spec.kind {
                    own.extend(one_of);
                }
            }
            // Every number alone and after every option, then random lines.
            let mut lines: Vec<Vec<&str>> = numbers.iter().map(|&n| vec![n]).collect();
            for spec in specs.iter().filter(|s| s.is_option()) {
                lines.extend(numbers.iter().map(|&n| vec![spec.name, n]));
            }
            for _ in 0..2500 {
                let len = rng.random_range(1..7);
                lines.push(
                    (0..len)
                        .map(|_| {
                            let pool = match rng.random_range(0..4) {
                                0 | 1 => &own[..],
                                2 => &numbers[..],
                                _ => &words[..],
                            };
                            pool[rng.random_range(0..pool.len())]
                        })
                        .collect(),
                );
            }
            for line in lines {
                let argv: Vec<String> = line.iter().map(|t| t.to_string()).collect();
                let at = format!("paper {} {argv:?}", experiment.id);
                let parsed = catch_unwind(|| parse(specs, &argv));
                let Ok(args) = parsed.unwrap_or_else(|_| panic!("{at}: parse panicked")) else {
                    continue;
                };
                accepted += 1;
                let read = catch_unwind(|| {
                    specs.iter().all(|spec| match spec.kind {
                        Kind::Int(min) => args.int(spec.name) >= min,
                        Kind::Fraction => {
                            let f = args.fraction(spec.name);
                            f > 0.0 && f <= 1.0
                        }
                        Kind::OneOf(_) | Kind::Text => true,
                    })
                });
                assert!(
                    read.unwrap_or(false),
                    "{at}: accepted {args:?}, which does not read back"
                );
            }
        }
        assert!(accepted > 1500, "only {accepted} command lines accepted");
    }

    #[test]
    fn every_declared_default_is_itself_valid() {
        for experiment in REGISTRY {
            for spec in experiment.args {
                assert!(
                    spec.default.is_empty() || spec.accepts(spec.default),
                    "{}: {}",
                    experiment.id,
                    spec.synopsis()
                );
            }
        }
        let fig08 = REGISTRY.iter().find(|e| e.id == "fig08").expect("fig08");
        assert_eq!(
            usage(fig08),
            "usage: paper fig08 [--scenario <all|load|power|relocation>, default all] \
             [slices: integer >= 1, default 10]"
        );
    }

    #[test]
    fn the_record_runs_every_experiment_but_the_sweep() {
        let ids: Vec<&str> = recorded().map(|e| e.id).collect();
        let all: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        assert_eq!(ids, all[..17]);
        assert_eq!(all[17], "sweep");
    }

    #[test]
    fn the_registry_holds_the_eighteen_experiments_once_each() {
        let mut ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), 18);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 18, "duplicate id");
        let declared: usize = REGISTRY.iter().map(|e| e.args.len()).sum();
        assert_eq!(
            declared, 16,
            "per-experiment arguments (the paper's 14 + the sweep's 2)"
        );
    }
}
