//! `dcbench run --quick` end to end: every workload emits all nine
//! end-to-end metrics with `ok_share` = 1 over identical replays, the
//! seed changes what the program is handed but not the work, and the
//! traced run writes a span file per workload plus a `layers.json` that
//! holds every per-layer metric `BENCHMARK.json` names.
//!
//! Needs `topobench` next to `dcbench` in the target directory
//! (`benchmark/smoke.sh` builds both).

use std::path::{Path, PathBuf};
use std::process::Command;

use dctopo_obs::json::Json;

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dcbench(args: &[&str], out: &Path) -> String {
    let exe = Path::new(env!("CARGO_BIN_EXE_dcbench"));
    assert!(
        exe.with_file_name("topobench").is_file(),
        "build topobench into {} first (benchmark/smoke.sh does)",
        exe.parent().unwrap().display()
    );
    let run = Command::new(exe)
        .arg("run")
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("dcbench starts");
    assert!(
        run.status.success(),
        "dcbench run {args:?} failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    String::from_utf8(run.stdout).expect("dcbench prints UTF-8")
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn benchmark_json() -> Json {
    load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
}

fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"))
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn metric(record: &Json, workload: &str, section: &str, name: &str) -> (f64, String) {
    let m = record
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(section))
        .and_then(|s| s.get(name))
        .unwrap_or_else(|| panic!("{workload} reports no {section}.{name}"));
    (
        m.get("value")
            .and_then(Json::as_f64)
            .expect("a finite value"),
        m.get("unit")
            .and_then(Json::as_str)
            .expect("a unit")
            .to_string(),
    )
}

#[test]
fn quick_run_emits_every_metric_over_identical_replays() {
    let spec = benchmark_json();
    let out = out_dir("quick-run");
    let printed = dcbench(&["--quick", "--seed", "1"], &out);
    let record = load(&out.join("results.json"));
    for key in ["logical_cores", "rustc", "git_commit", "build_profile"] {
        assert!(
            record.get("host").and_then(|h| h.get(key)).is_some(),
            "host stamp lacks {key}"
        );
    }
    assert_eq!(record.get("seed").and_then(Json::as_u64), Some(1));

    // the same instance shown under another seed
    let other_out = out_dir("quick-run-seed2");
    dcbench(&["--quick", "--seed", "2"], &other_out);
    let other = load(&other_out.join("results.json"));

    for (workload, _) in names(&spec, "workloads") {
        for (name, unit) in names(&spec, "end_to_end") {
            let (value, reported_unit) = metric(&record, &workload, "metrics", &name);
            assert_eq!(reported_unit, unit, "{workload} {name}");
            assert!(value > 0.0, "{workload} {name} = {value} must never be 0");
            assert!(
                printed.contains(&format!("{workload} {name} {value} {unit}\n")),
                "{workload} {name} is not printed as `workload metric value unit`"
            );
        }
        for run in [&record, &other] {
            assert_eq!(
                metric(run, &workload, "metrics", "ok_share").0,
                1.0,
                "{workload}"
            );
            assert_eq!(
                metric(run, &workload, "info", "replays").0,
                2.0,
                "{workload}"
            );
        }
        let threads = if workload == "aggregate-solve-2t" {
            2.0
        } else {
            1.0
        };
        assert_eq!(
            metric(&record, &workload, "info", "threads").0,
            threads,
            "{workload}"
        );
        // presentation changes, the switch-level problem does not
        for name in ["work_count", "mean_gap"] {
            assert_eq!(
                metric(&record, &workload, "metrics", name).0,
                metric(&other, &workload, "metrics", name).0,
                "{workload}: {name} depends on --seed"
            );
        }
    }
}

#[test]
fn traced_quick_run_reports_every_layer_and_accounts_for_the_replay() {
    let spec = benchmark_json();
    let out = out_dir("quick-traced");
    dcbench(&["--quick", "--traced"], &out);
    let record = load(&out.join("layers.json"));
    let per_layer = names(&spec, "per_layer");
    let mut seen = vec![false; per_layer.len()];
    for (workload, _) in names(&spec, "workloads") {
        let spans = std::fs::read_to_string(out.join(format!("trace-{workload}.jsonl")))
            .unwrap_or_else(|e| panic!("no span file for {workload}: {e}"));
        let first = Json::parse(spans.lines().next().expect("at least one span")).unwrap();
        for key in [
            "id", "parent", "name", "layer", "workload", "replay", "op", "start_ns", "end_ns",
            "probe",
        ] {
            assert!(first.get(key).is_some(), "{workload}: spans lack `{key}`");
        }
        assert!(
            spans.contains(r#""probe":true"#),
            "{workload}: no probe spans"
        );

        for (i, (name, unit)) in per_layer.iter().enumerate() {
            let reported = record
                .get("workloads")
                .and_then(|w| w.get(&workload))
                .and_then(|w| w.get("metrics"))
                .and_then(|m| m.get(name));
            if let Some(m) = reported {
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                seen[i] = true;
            }
        }
        assert!(metric(&record, &workload, "metrics", "dcbench.trace_overhead").0 > 0.0);
        // layer self times add up to the replay's span (within 5 %)
        let span = metric(&record, &workload, "info", "replay_span_ms").0;
        let sum = metric(&record, &workload, "info", "self_sum_ms").0;
        assert!(
            (sum - span).abs() <= 0.05 * span,
            "{workload}: {sum} ms of {span} ms"
        );
    }
    for ((name, _), seen) in per_layer.iter().zip(seen) {
        assert!(seen, "no workload reports the per-layer metric {name}");
    }
}

#[test]
fn a_single_traced_workload_still_reports_every_layer_on_its_last_line() {
    let spec = benchmark_json();
    let out = out_dir("quick-traced-single");
    let printed = dcbench(
        &["--quick", "--workload", "sweep-grid", "--trace", "1"],
        &out,
    );
    let last = Json::parse(printed.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(last.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
    let reported = last.get("metrics").expect("metrics").keys().len();
    for (name, unit) in names(&spec, "per_layer") {
        let m = last.get("metrics").and_then(|m| m.get(&name));
        let m = m.unwrap_or_else(|| panic!("the result line lacks {name}"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
    }
    assert_eq!(
        reported,
        names(&spec, "per_layer").len(),
        "only per-layer metrics are reported"
    );
}
