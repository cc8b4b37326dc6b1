//! End-to-end CLI pins for the strict sweep gate, the `sweep --json`
//! writer and the planner subcommand, driving the real `topobench`
//! binary.

use std::process::Command;

use dctopo::core::{Degradation, Scenario, SweepCell, SweepRunner, SweepSpec};
use dctopo::flow::FlowOptions;
use dctopo::obs::Json;

fn topobench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_topobench"))
}

/// A grid whose every cell solves exits 0 under `--strict` and says so.
#[test]
fn strict_sweep_passes_on_a_clean_grid() {
    let out = topobench()
        .args([
            "sweep",
            "--families",
            "complete:4x1",
            "--traffic",
            "permutation",
            "--failures",
            "0",
            "--runs",
            "1",
            "--seed",
            "1",
            "--strict",
            "--threads",
            "2",
        ])
        .output()
        .expect("failed to run topobench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "clean grid exited non-zero under --strict:\n{stderr}"
    );
    assert!(
        stderr.contains("sweep --strict: all"),
        "missing strict confirmation:\n{stderr}"
    );
}

/// A grid with failed cells exits non-zero under `--strict` and prints
/// the typed per-kind error summary — here a disconnected degree-2
/// "network" whose cells all fail `unreachable`. Without `--strict` the
/// same grid exits 0 (failures stay per-cell).
#[test]
fn strict_sweep_fails_on_error_cells_with_typed_summary() {
    let bad = [
        "sweep",
        "--families",
        "rrg:16x6x2",
        "--traffic",
        "permutation",
        "--failures",
        "0",
        "--runs",
        "1",
        "--seed",
        "1",
        "--threads",
        "2",
    ];
    let lax = topobench().args(bad).output().expect("failed to run");
    assert!(
        lax.status.success(),
        "without --strict, per-cell failures must not fail the process"
    );
    let strict = topobench()
        .args(bad)
        .arg("--strict")
        .output()
        .expect("failed to run");
    assert!(
        !strict.status.success(),
        "--strict must exit non-zero when cells failed"
    );
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert!(
        stderr.contains("sweep --strict:") && stderr.contains("cells failed"),
        "missing typed summary:\n{stderr}"
    );
    assert!(
        stderr.contains("unreachable") && stderr.contains("first:"),
        "summary must name the error kind and a witness cell:\n{stderr}"
    );
}

/// A scale that over- or underflows a capacity fails its cell as a bad
/// capacity, and the sweep goes on: `1e308` killed the whole sweep in a
/// KSP solve and certified a `NaN%` gap on `fptas`, and `1e-310` failed
/// the cell as `unreachable` because `1/c` overflowed.
#[test]
fn capacity_scales_past_the_normal_floats_fail_their_cell() {
    for (family, scale, backend) in [
        ("vl2:4x4", "1e308", "ksp:2"),
        ("vl2:4x4", "1e308", "fptas"),
        ("rrg:12x8x4", "1e-310", "fptas"),
    ] {
        let out = topobench()
            .args(["sweep", "--families", family, "--traffic", "permutation"])
            .args(["--failures", "0", "--scales", scale, "--backends", backend])
            .output()
            .expect("failed to run topobench");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let ctx = format!("{family} --scales {scale} --backends {backend}");
        assert!(out.status.success(), "{ctx}: exit {:?}", out.status.code());
        let bad = "FAILED: graph error: edge capacity must be a normal positive float";
        assert_eq!(stdout.matches(bad).count(), 1, "{ctx}:\n{stdout}");
    }
}

/// A comma-separated axis, each entry through its `FromStr`.
fn axis<T: std::str::FromStr>(list: &str) -> Vec<T> {
    let parse = |x: &str| x.parse().unwrap_or_else(|_| panic!("bad axis entry '{x}'"));
    list.split(',').map(parse).collect()
}

/// Run `topobench sweep` (seed 1, one run, the `fptas` backend) over
/// the given axes with `--json`, and return the parsed file beside the
/// grid the same spec solves to in process. `degrade` is the CLI's
/// degradation flags, `scenarios` the axis they spell.
fn sweep_json_and_grid(
    tag: &str,
    families: &str,
    traffic: &str,
    degrade: &[&str],
    scenarios: Vec<Scenario>,
) -> (Vec<Json>, Vec<SweepCell>) {
    let path = format!("{}/sweep_{tag}.json", env!("CARGO_TARGET_TMPDIR"));
    let out = topobench()
        .args(["sweep", "--families", families, "--traffic", traffic])
        .args(degrade)
        .args(["--json", &path])
        .output()
        .expect("failed to run topobench");
    assert!(
        out.status.success(),
        "sweep failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("sweep wrote the file");
    let Json::Arr(cells) = Json::parse(&text).expect("valid JSON") else {
        panic!("--json must hold one array:\n{text}");
    };
    let grid = SweepRunner::new(SweepSpec {
        topologies: axis(families),
        traffic: axis(traffic),
        scenarios,
        backends: axis("fptas"),
        opts: FlowOptions::fast(),
        seed: 1,
        runs: 1,
    })
    .run();
    (cells, grid.cells)
}

/// `sweep --json` is the grid itself: every coordinate and count as the
/// in-process cell has it, every float equal **by bits** after a parse
/// (so no digit is lost however small λ is), `settles` exactly; a
/// failed cell carries its error's display text with `null` metrics,
/// and a non-finite value (an all-local cell's λ = ∞) is `null`.
#[test]
fn sweep_json_matches_the_in_process_grid_bitwise() {
    let fail_links = Degradation::FailLinks { count: 2, seed: 1 };
    let (mut written, mut solved) = sweep_json_and_grid(
        "grid",
        "rrg:16x8x4",
        "permutation,all-to-all",
        &["--failures", "0,2"],
        vec![
            Scenario::baseline(),
            Scenario::new("fail:2", vec![fail_links]),
        ],
    );
    assert_eq!(written.len(), 4);
    // `complete:1x4` cannot be built (an error cell); `complete:2x4`
    // with one switch failed keeps only same-switch flows (λ = ∞)
    let fail_switch = Degradation::FailSwitches { count: 1, seed: 1 };
    let (w, s) = sweep_json_and_grid(
        "edge",
        "complete:1x4,complete:2x4",
        "permutation",
        &["--failures", "0", "--switch-failures", "0,1"],
        vec![
            Scenario::baseline(),
            Scenario::new("sw-fail:1", vec![fail_switch]),
        ],
    );
    written.extend(w);
    solved.extend(s);
    assert_eq!(written.len(), solved.len());

    const METRICS: [&str; 5] = [
        "throughput",
        "network_lambda",
        "upper_bound",
        "gap",
        "hop_bound",
    ];
    let (mut errors, mut infinite) = (0, 0);
    for (j, cell) in written.iter().zip(&solved) {
        let ctx = format!("{}/{}/{}", cell.topology, cell.scenario, cell.traffic);
        let text = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{ctx}: {k}"))
        };
        let count = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{ctx}: {k}"))
        };
        assert_eq!(text("topology"), cell.topology);
        assert_eq!(text("scenario"), cell.scenario, "{ctx}");
        assert_eq!(text("traffic"), cell.traffic, "{ctx}");
        assert_eq!(text("backend"), cell.backend, "{ctx}");
        assert_eq!(count("run"), cell.run as u64, "{ctx}");
        assert_eq!(count("switches"), cell.switches as u64, "{ctx}");
        assert_eq!(count("live_links"), cell.live_links as u64, "{ctx}");
        assert_eq!(count("flows"), cell.flows as u64, "{ctx}");
        match &cell.result {
            Ok(m) => {
                assert_eq!(text("status"), "ok", "{ctx}");
                assert_eq!(count("settles"), m.settles, "{ctx}");
                let values = [
                    m.throughput,
                    m.network_lambda,
                    m.upper_bound,
                    m.gap,
                    m.hop_bound,
                ];
                for (k, x) in METRICS.into_iter().zip(values) {
                    if x.is_finite() {
                        let got = j.get(k).and_then(Json::as_f64);
                        assert_eq!(
                            got.map(f64::to_bits),
                            Some(x.to_bits()),
                            "{ctx}: {k} {got:?} vs {x}"
                        );
                    } else {
                        assert_eq!(j.get(k), Some(&Json::Null), "{ctx}: {k} = {x}");
                        infinite += 1;
                    }
                }
            }
            Err(e) => {
                assert_eq!(text("status"), e.to_string(), "{ctx}");
                for k in METRICS.into_iter().chain(["settles"]) {
                    assert_eq!(j.get(k), Some(&Json::Null), "{ctx}: {k}");
                }
                errors += 1;
            }
        }
    }
    assert!(errors > 0, "the edge grid must hold an error cell");
    assert!(infinite > 0, "the edge grid must hold an all-local cell");
}

/// `topobench plan` produces a staged plan with a fingerprint, and the
/// fingerprint is stable across invocations (CLI-level determinism).
#[test]
fn plan_subcommand_emits_a_stable_staged_plan() {
    let run = || {
        let out = topobench()
            .args([
                "plan",
                "--family",
                "rrg:16x6x4",
                "--pairs",
                "2",
                "--floor-frac",
                "0.5",
                "--seed",
                "7",
                "--threads",
                "2",
            ])
            .output()
            .expect("failed to run topobench plan");
        assert!(
            out.status.success(),
            "plan failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = run();
    assert!(first.contains("stage "), "no stages printed:\n{first}");
    assert!(first.contains("achieved floor"));
    let fp = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("fingerprint:"))
            .map(str::to_owned)
            .expect("no fingerprint line")
    };
    assert_eq!(
        fp(&first),
        fp(&run()),
        "plan fingerprint drifted across runs"
    );
}

/// A solve budget that runs out before the search finishes is not an
/// unreachable floor: the fallback ordering keeps the floor on this
/// instance, so it is printed as the plan (exit 0), not as a failure.
#[test]
fn plan_with_an_exhausted_budget_prints_its_safe_fallback() {
    for budget in ["0", "1"] {
        let out = topobench()
            .args(["plan", "--family", "rrg:16x6x4", "--pairs", "2"])
            .args(["--max-solves", budget])
            .output()
            .expect("failed to run topobench plan");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "--max-solves {budget}:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("plan: 4 moves in 4 stages") && stdout.contains("≥ 0.7481"),
            "--max-solves {budget}:\n{stdout}"
        );
    }
}

/// Packet parameters no simulation can run are refused before the fluid
/// solve, naming the parameter: a utilization of `0` or `-1` used to
/// certify a solve and then report "no network traffic", `nan` a "paced
/// mode needs a positive rate", and `--queue 0` ran the whole certified
/// solve before the simulator refused it. Traced, the refused runs emit
/// no solve event; the accepted control run does.
#[test]
fn packetsim_refuses_bad_packet_parameters_before_solving() {
    const SIM: [&str; 12] = [
        "packetsim",
        "rrg",
        "--switches",
        "12",
        "--ports",
        "8",
        "--degree",
        "4",
        "--duration",
        "5",
        "--warmup",
        "1",
    ];
    let traced = |tag: &str, extra: [&str; 2]| {
        let path = format!("{}/packetsim_{tag}.jsonl", env!("CARGO_TARGET_TMPDIR"));
        let _ = std::fs::remove_file(&path);
        let out = topobench()
            .args(SIM)
            .args(extra)
            .args(["--trace", &path])
            .output()
            .expect("failed to run topobench");
        let trace = std::fs::read_to_string(&path).unwrap_or_default();
        (out, trace)
    };
    let solved = |trace: &str| trace.lines().any(|l| l.contains("_solve\""));
    for (tag, flag, value) in [
        ("zero", "--utilization", "0"),
        ("negative", "--utilization", "-1"),
        ("nan", "--utilization", "nan"),
        ("queue", "--queue", "0"),
    ] {
        let (out, trace) = traced(tag, [flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let ctx = format!("{flag} {value}");
        assert_eq!(out.status.code(), Some(1), "{ctx}:\n{stderr}");
        assert!(stderr.contains(&flag[2..]), "{ctx}:\n{stderr}");
        assert!(out.stdout.is_empty(), "{ctx} printed a result");
        assert!(!solved(&trace), "{ctx} solved first:\n{trace}");
    }
    let (out, trace) = traced("control", ["--utilization", "0.9"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        solved(&trace),
        "the control run emitted no solve event:\n{trace}"
    );
}

/// Aggregated traffic is solved by the default FPTAS only. Any other
/// `--backend` is refused, naming it as the flag spells it, where it
/// used to be ignored: the four backends printed the same bytes.
#[test]
fn aggregated_traffic_refuses_the_backends_it_cannot_run() {
    let solve = |backend: &str| {
        topobench()
            .args([
                "solve",
                "rrg",
                "--switches",
                "8",
                "--ports",
                "6",
                "--degree",
                "3",
            ])
            .args([
                "--traffic",
                "all-to-all-agg",
                "--runs",
                "1",
                "--backend",
                backend,
            ])
            .output()
            .expect("failed to run topobench")
    };
    let out = solve("fptas");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for backend in ["fptas-strict", "exact", "ksp:2"] {
        let out = solve(backend);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{backend}:\n{stderr}");
        // the refused backend is named as `--backend` spells it, as a
        // whole word: `backend exact-lp` does not name `exact`
        let words: Vec<&str> = stderr.split_whitespace().collect();
        assert!(
            words.windows(2).any(|w| w == ["backend", backend]),
            "{backend}:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{backend} printed a result");
    }
}
