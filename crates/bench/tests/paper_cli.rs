//! The `paper` binary from the outside: exit statuses, what goes to which
//! stream, and — the fence for "same" — the paper record: `paper record`
//! must print `results/full_run.txt`, and every table EXPERIMENTS.md quotes
//! from it (a fence opened with `record <id>`) must occur in that section.
//! `paper sweep` is pinned by the summary it writes
//! (`tests/golden/sweep_smoke_summary.json`).

use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("paper binary runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("utf-8 output")
}

/// The record sections whose tables carry wall-clock columns: they are
/// compared through [`mask_timings`], every other section byte for byte.
const TIMED: [&str; 4] = [
    "table2",
    "ablation-training-set",
    "ablation-dds-iters",
    "ablation-sgd",
];

/// The committed paper record: what `paper record` prints.
const RECORD: &str = include_str!("../../../results/full_run.txt");

/// A record's sections, `(id, body)`, in order: each body is what `paper
/// <id>` prints, followed by one blank line.
fn sections(record: &str) -> Vec<(&str, &str)> {
    let mut out: Vec<(&str, &str)> = vec![];
    let mut rest = record;
    while let Some(header) = rest.strip_prefix("=== paper ") {
        let (id, after) = header.split_once(" ===\n").expect("a header line");
        let end = after.find("\n=== paper ").map_or(after.len(), |i| i + 1);
        out.push((id, &after[..end]));
        rest = &after[end..];
    }
    assert!(rest.is_empty(), "text outside any section: {rest:.80}");
    out
}

/// The committed section of `id`.
fn section(id: &str) -> &'static str {
    let found = sections(RECORD).into_iter().find(|(s, _)| *s == id);
    found
        .unwrap_or_else(|| panic!("results/full_run.txt has no section {id}"))
        .1
}

/// `text` as section `id` is compared: through [`mask_timings`] in the four
/// [`TIMED`] sections, verbatim in the others.
fn comparable(id: &str, text: &str) -> String {
    if TIMED.contains(&id) {
        mask_timings(text)
    } else {
        text.to_string()
    }
}

/// `quote`'s lines occur, in order and whole, in section `id` of the record.
fn quotes(id: &str, quote: &str) -> bool {
    let (body, quote) = (comparable(id, section(id)), comparable(id, quote));
    format!("\n{body}").contains(&format!("\n{quote}"))
}

/// Blanks what a stopwatch or a HOGWILD race decides — `<x> ms`,
/// `<x> ms/app`, and `ablation-sgd`'s `<x>x` speedup and `<x> pp` delta —
/// and, because a wider number re-pads its whole column, the alignment too.
fn mask_timings(text: &str) -> String {
    let number = |t: &str| t.parse::<f64>().is_ok();
    let mut out = String::new();
    for line in text.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let masked: Vec<&str> = tokens
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let unit = tokens.get(i + 1).copied().unwrap_or("");
                let timed = number(t) && ["ms", "ms/app", "pp"].contains(&unit);
                let speedup = t.strip_suffix('x').is_some_and(number);
                let rule = t.len() > 3 && t.bytes().all(|b| b == b'-');
                match (timed || speedup, rule) {
                    (true, _) => "#",
                    (_, true) => "---",
                    _ => t,
                }
            })
            .collect();
        out.push_str(&masked.join(" "));
        out.push('\n');
    }
    out
}

#[test]
fn the_committed_record_is_what_paper_record_prints() {
    let out = paper(&["record"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let printed = text(&out.stdout);
    let (printed, committed) = (sections(&printed), sections(RECORD));
    let ids = |s: &[(&str, &str)]| s.iter().map(|(id, _)| id.to_string()).collect::<Vec<_>>();
    assert_eq!(ids(&printed), ids(&committed));
    assert_eq!(printed.len(), 17);
    for ((id, body), (_, pinned)) in printed.iter().zip(&committed) {
        assert_eq!(
            comparable(id, body),
            comparable(id, pinned),
            "{id}: regenerate with `cargo paper record > results/full_run.txt`"
        );
    }
    // `paper <id>` alone prints its record section.
    for id in ["fig07", "table2"] {
        let out = paper(&[id]);
        assert_eq!(out.status.code(), Some(0), "{id}");
        let alone = format!("{}\n", text(&out.stdout));
        assert_eq!(
            comparable(id, &alone),
            comparable(id, section(id)),
            "paper {id}"
        );
    }
}

#[test]
fn every_record_quote_in_experiments_md_is_in_the_record() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let mut quoted = vec![];
    let mut rest = doc;
    let fence = "\n```record ";
    while let Some(start) = rest.find(fence) {
        let (id, after) = rest[start + fence.len()..]
            .split_once('\n')
            .expect("a fence line");
        let end = after.find("```\n").expect("the quote is closed");
        let quote = &after[..end];
        assert!(!quote.trim().is_empty(), "empty quote of {id}");
        assert!(
            quotes(id, quote),
            "EXPERIMENTS.md quotes `record {id}` but that section does not print:\n{quote}"
        );
        quoted.push(id);
        rest = &after[end..];
    }
    for (id, _) in sections(RECORD) {
        assert!(
            quoted.contains(&id),
            "EXPERIMENTS.md quotes nothing of {id}"
        );
    }
}

#[test]
fn the_mask_hides_timings_and_nothing_else() {
    let a = "rank  err %  wall time\n----------------------\n   2   10.9    1.25 ms\n 2 x 1 ms 0.43x +0.1 pp\n";
    let b = "rank  err %  wall time\n-----------------------\n   2   10.9   11.25 ms\n 2 x 1 ms 1.07x -0.3 pp\n";
    assert_eq!(mask_timings(a), mask_timings(b));
    assert_eq!(
        mask_timings(a),
        "rank err % wall time\n---\n2 10.9 # ms\n2 x # ms # # pp\n"
    );
    assert_ne!(mask_timings(a), mask_timings(&a.replace("10.9", "11.0")));
}

#[test]
fn malformed_invocations_exit_1_with_usage_on_stderr_and_nothing_on_stdout() {
    for (argv, needle) in [
        (&["fig05", "--runtim"][..], "usage: paper fig05 "),
        (
            &["fault-matrix", "--seed", "x"],
            "usage: paper fault-matrix ",
        ),
        (&["fig07", "0,7"], "usage: paper fig07 "),
        (&["fig07", "--json", "x"], "unknown flag \"--json\""),
        (&["fig09", "3"], "usage: paper fig09 "),
        (&["fig10", "1", "2"], "unexpected argument \"2\""),
        (&["fig99"], "unknown experiment \"fig99\""),
        (&["list", "fig01"], "unknown experiment \"list\""),
        (&["record", "fig01"], "unknown experiment \"record\""),
        (&[], "usage: paper <id>"),
    ] {
        let out = paper(argv);
        assert_eq!(out.status.code(), Some(1), "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?}: {}", text(&out.stdout));
        let err = text(&out.stderr);
        assert!(err.contains(needle), "{argv:?}: {err}");
    }
}

#[test]
fn list_names_the_eighteen_ids_and_design_md_cites_each() {
    let out = paper(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let listing = text(&out.stdout);
    let design = include_str!("../../../DESIGN.md");
    let start = design.find("\n## 4. ").expect("DESIGN.md has a §4");
    let end = start + 1 + design[start + 1..].find("\n## ").expect("§4 ends");
    let section4 = &design[start..end];
    assert_eq!(bench::REGISTRY.len(), 18);
    for experiment in bench::REGISTRY {
        let id = experiment.id;
        assert!(
            listing
                .lines()
                .any(|l| l.split_whitespace().next() == Some(id)),
            "`paper list` omits {id}"
        );
        assert!(
            section4.contains(&format!("`paper {id}`")),
            "DESIGN.md §4 does not cite `paper {id}`"
        );
    }
}

#[test]
fn positional_and_flag_order_does_not_change_the_run() {
    let a = paper(&["fig08", "3", "--scenario", "relocation"]);
    let b = paper(&["fig08", "--scenario", "relocation", "3"]);
    assert_eq!(a.status.code(), Some(0));
    assert_eq!(a.stdout, b.stdout);
    assert!(text(&a.stdout).contains("Fig. 8 (relocation): xapian + mix 0, 3 slices"));
}

#[test]
fn a_failed_acceptance_exits_2_after_printing_the_report() {
    // Three slices are too few for the flaky-reconfig profile to leave a
    // telemetry trace — the experiment's own acceptance check.
    let out = paper(&["fault-matrix", "3"]);
    assert_eq!(out.status.code(), Some(2), "{}", text(&out.stderr));
    assert!(text(&out.stderr).contains("flaky-reconfig: no degradation telemetry"));
    assert!(text(&out.stdout)
        .contains("== Fault-resilience matrix: xapian + mix 0, 3 slices, seed 7 =="));
}

/// A scratch path for one sweep test's files.
fn scratch(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("paper_sweep_{name}"))
}

fn scenario(name: &str) -> String {
    format!("{}/../../scenarios/{name}.json", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn a_sweep_writes_the_golden_summary_and_a_tripped_detector_exits_2() {
    let smoke = scratch("smoke");
    let out = paper(&[
        "sweep",
        &scenario("smoke"),
        "--out",
        smoke.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(text(&out.stdout).ends_with("verdict: pass\n"));
    let written = std::fs::read(smoke.join("summary.json")).expect("summary.json written");
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/sweep_smoke_summary.json"
    );
    assert!(
        written == std::fs::read(golden).expect("golden exists"),
        "paper sweep scenarios/smoke.json drifted from tests/golden/sweep_smoke_summary.json"
    );

    let collapse = scratch("collapse");
    let out = paper(&[
        "sweep",
        &scenario("collapse"),
        "--out",
        collapse.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", text(&out.stderr));
    assert!(text(&out.stdout).contains("verdict: FAIL"));
    assert!(collapse.join("summary.json").exists());
}

#[test]
fn refused_sweep_inputs_exit_1_with_nothing_on_stdout() {
    let zero_cores = r#"{"name": "zero-cores", "quanta": 2, "seeds": [1],
        "tenants": {"lc": [{"service": "xapian", "cores": 0}]}}"#;
    let zero_period = r#"{"name": "zero-period", "quanta": 2, "seeds": [1],
        "tenants": {"lc": [{"service": "xapian"}]},
        "load_shapes": [{"kind": "square-wave", "period_s": 0}]}"#;
    let tiny_period = zero_period
        .replace("zero-period", "tiny-period")
        .replace("\"period_s\": 0", "\"period_s\": 1e-300");
    let oversize = zero_cores
        .replace("zero-cores", "oversize")
        .replace("\"quanta\": 2", "\"quanta\": 4000000000")
        .replace("\"cores\": 0", "\"cores\": 16");
    let deep = "[".repeat(200_000);
    let missing = scratch("missing.json");
    let mut cases = vec![
        (vec![], "a scenario file is required".to_string()),
        (
            vec![missing.display().to_string()],
            format!("cannot read {}", missing.display()),
        ),
    ];
    for (name, body, needle) in [
        (
            "zero-cores",
            zero_cores,
            "field \"cores\" must be a positive integer",
        ),
        (
            "zero-period",
            zero_period,
            "field \"period_s\" must be a positive number",
        ),
        (
            "tiny-period",
            &tiny_period,
            "field \"period_s\" must be at least one decision quantum",
        ),
        ("oversize", &oversize, "more than 1000000 node-quanta"),
        ("deep", &deep, "nest deeper than 128 levels"),
    ] {
        let path = scratch(&format!("{name}.json"));
        std::fs::write(&path, body).expect("scratch spec written");
        let out = scratch(name).display().to_string();
        cases.push((
            vec![path.display().to_string(), "--out".into(), out],
            needle.to_string(),
        ));
    }
    for (args, needle) in cases {
        let mut argv = vec!["sweep"];
        argv.extend(args.iter().map(String::as_str));
        let out = paper(&argv);
        assert_eq!(out.status.code(), Some(1), "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?}: {}", text(&out.stdout));
        let err = text(&out.stderr);
        assert!(err.starts_with("paper sweep: "), "{argv:?}: {err}");
        assert!(err.contains(&needle), "{argv:?}: {err}");
    }
}
