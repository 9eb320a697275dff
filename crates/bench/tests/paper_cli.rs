//! The `paper` binary from the outside: exit statuses, what goes to which
//! stream, and — the fence for "same" — every paper experiment's stdout
//! against the output its pre-consolidation binary printed
//! (`tests/golden/paper/<id>.txt`, captured from the 17 `src/bin/*.rs`
//! programs before they were folded into one). `paper sweep` is pinned by
//! the summary it writes (`tests/golden/sweep_smoke_summary.json`).

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

/// The invocation each golden file was captured with: default arguments,
/// except 1 mix where the default is larger and 3 slices where slices are
/// settable (`fault-matrix` keeps its 10: at 3 it fails its own acceptance,
/// which `a_failed_acceptance_exits_2` uses). `true` marks the four whose
/// tables carry wall-clock columns.
const GOLDEN_RUNS: [(&str, &[&str], bool); 17] = [
    ("fig01", &[], false),
    ("table2", &[], true),
    ("fig05", &["--both", "1"], false),
    ("fig05c", &["1"], false),
    ("fig07", &[], false),
    ("fig08", &["3"], false),
    ("fig09", &[], false),
    ("fig10", &[], false),
    ("flicker", &[], false),
    ("pareto", &[], false),
    ("feedback", &[], false),
    ("ablation-training-set", &[], true),
    ("ablation-dds-iters", &[], true),
    ("ablation-gating-orders", &["1"], false),
    ("ablation-sgd", &[], true),
    ("ablation-reconfig-cost", &[], false),
    ("fault-matrix", &[], false),
];

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
#[cfg_attr(
    debug_assertions,
    ignore = "runs all 17 experiments; minutes unoptimized — CI runs it under --release"
)]
fn every_experiment_prints_what_its_old_binary_printed() {
    let golden_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/paper");
    for (id, args, timed) in GOLDEN_RUNS {
        let golden = std::fs::read_to_string(format!("{golden_dir}/{id}.txt"))
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let mut argv = vec![id];
        argv.extend(args);
        let out = paper(&argv);
        assert_eq!(out.status.code(), Some(0), "{id}: {}", text(&out.stderr));
        let printed = text(&out.stdout);
        if timed {
            assert_eq!(
                mask_timings(&printed),
                mask_timings(&golden),
                "{id} (timings masked)"
            );
        } else {
            assert_eq!(printed, golden, "{id}");
        }
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
        (&["fig08", "3", "--json"], "flag --json needs a value"),
        (&["fig09", "3"], "usage: paper fig09 "),
        (&["fig10", "1", "2"], "unexpected argument \"2\""),
        (&["fig99"], "unknown experiment \"fig99\""),
        (&["list", "fig01"], "unknown experiment \"list\""),
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
fn a_failed_acceptance_exits_2_after_printing_and_writing_the_report() {
    // Three slices are too few for the flaky-reconfig profile to leave a
    // telemetry trace — the experiment's own acceptance check.
    let json = std::env::temp_dir().join(format!("paper_cli_{}.json", std::process::id()));
    let out = paper(&[
        "fault-matrix",
        "3",
        "--json",
        json.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", text(&out.stderr));
    assert!(text(&out.stderr).contains("flaky-reconfig: no degradation telemetry"));
    assert!(text(&out.stdout)
        .contains("== Fault-resilience matrix: xapian + mix 0, 3 slices, seed 7 =="));
    let written = std::fs::read_to_string(&json).expect("--json wrote the report");
    std::fs::remove_file(&json).expect("temp file removable");
    let doc = util::json::parse(&written).expect("valid JSON");
    let util::json::JsonValue::Arr(tables) = doc else {
        panic!("--json writes an array of tables: {written}");
    };
    assert_eq!(tables.len(), 1);
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
