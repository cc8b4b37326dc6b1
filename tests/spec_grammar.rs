//! The one spec grammar (`dctopo-core`'s `FromStr` impls): names
//! round-trip through it, the CLI's flag form lowers onto it, and the
//! real binary meets hostile specs with a typed error, never a panic.

use std::process::Command;

use dctopo::graph::io::to_edge_list;
use dctopo::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse(name(x)) == x` on every axis, and `name` is the spelling
    /// `parse` was given.
    #[test]
    fn names_round_trip(k in 1usize..1000, pct in 0u32..=1000, pick in 0usize..4) {
        let backend = [
            BackendChoice::fptas(),
            BackendChoice::fptas_strict(),
            BackendChoice::exact(),
            BackendChoice::ksp(k),
        ][pick];
        prop_assert_eq!(backend.name().parse::<BackendChoice>().unwrap(), backend);

        let traffic = [
            TrafficModel::Permutation,
            TrafficModel::AllToAll,
            TrafficModel::Chunky { percent: f64::from(pct) / 10.0 },
            TrafficModel::Hotspot { hot: k },
        ][pick].clone();
        prop_assert_eq!(&traffic.name().parse::<TrafficModel>().unwrap(), &traffic);

        let routing = [
            RoutingMode::Decomposed,
            RoutingMode::Ksp { k },
            RoutingMode::Ecmp { limit: k },
        ][pick % 3];
        prop_assert_eq!(routing.name().parse::<RoutingMode>().unwrap(), routing);

        for spelling in ["fptas", "fptas-strict", "exact", &format!("ksp:{k}")] {
            prop_assert_eq!(spelling.parse::<BackendChoice>().unwrap().name(), spelling);
        }
    }
}

fn topobench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_topobench"))
        .args(args)
        .output()
        .expect("failed to run topobench")
}

/// Every family's flag form (`topobench build rrg --switches ...`)
/// builds, under the same seed, exactly the topology its spec builds
/// through the library — and the spec is the point's name.
#[test]
fn flag_form_builds_what_the_spec_builds() {
    let cases: [(&str, &[&str]); 9] = [
        (
            "rrg:10x6x4",
            &["rrg", "--switches", "10", "--ports", "6", "--degree", "4"],
        ),
        ("fat-tree:4", &["fat-tree", "--k", "4"]),
        (
            "complete:5x2",
            &["complete", "--switches", "5", "--servers", "2"],
        ),
        ("hypercube:3x1", &["hypercube", "--dim", "3"]),
        (
            "torus:3x4x2",
            &["torus", "--rows", "3", "--cols", "4", "--servers", "2"],
        ),
        ("vl2:4x6", &["vl2", "--da", "4", "--di", "6"]),
        (
            "vl2:4x6x5",
            &["vl2", "--da", "4", "--di", "6", "--tors", "5"],
        ),
        // `vl2:AxIxT` and the `vl2-rewired` family are spellings this
        // grammar adds on purpose: every flag form is a row of the family
        // table, so it has a spec (and the row's name works positionally)
        (
            "vl2-rewired:4x4",
            &["vl2", "--da", "4", "--di", "4", "--rewired"],
        ),
        (
            "vl2-rewired:4x4x5",
            &["vl2-rewired", "--da", "4", "--di", "4", "--tors", "5"],
        ),
    ];
    for (spec, flags) in cases {
        let point: TopologyPoint = spec.parse().unwrap();
        assert_eq!(point.name, spec);
        let topo = (point.build)(&mut StdRng::seed_from_u64(9)).unwrap();
        let out = topobench(&[&["build"], flags, &["--seed", "9"]].concat());
        assert!(out.status.success(), "build {flags:?} failed");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            to_edge_list(&topo.graph),
            "{spec} and its flag form disagree"
        );
    }
}

/// Hostile and mistyped invocations: non-zero exit, a message on
/// stderr, and never a panic.
#[test]
fn hostile_specs_are_typed_errors_not_panics() {
    const RRG: &str = "rrg --switches 12 --ports 7 --degree 4";
    let cases = [
        // traffic the flag-form commands used to panic on or reject
        // although usage() advertised it
        format!("solve {RRG} --traffic chunky:150"),
        format!("serve {RRG} --traffic chunky:NaN"),
        format!("packetsim {RRG} --traffic hotspot:0"),
        format!("profile {RRG} --traffic hotspot:99"),
        format!("solve {RRG} --traffic hotspot-agg:99"),
        // values and flags that used to be swallowed
        format!("solve {RRG} --runs abc"),
        format!("solve {RRG} --runs 0"),
        format!("solve {RRG} --trafic all-to-all"),
        format!("solve {RRG} --full"),
        format!("solve {RRG} --seed"),
        format!("solve {RRG} stray"),
        "--sweep".to_string(),
        "bounds --switches 4 --degree 2 --flows 1 --".to_string(),
        // specs outside the grammar
        format!("solve {RRG} --backend ksp:0"),
        format!("packetsim {RRG} --routing ecmp:0"),
        "sweep --families rrg:8x6".to_string(),
        "sweep --backends fptas,exact-lp".to_string(),
        "search --family two-cluster:1x1x1".to_string(),
        "plan --family hypercube:99999999999x1".to_string(),
        "solve rrg --switches 12 --ports 7".to_string(),
        "build two-cluster".to_string(),
    ];
    for case in &cases {
        let args: Vec<&str> = case.split_whitespace().collect();
        let out = topobench(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "`topobench {case}` exited 0");
        assert!(
            !stderr.contains("panicked"),
            "`topobench {case}` panicked:\n{stderr}"
        );
        assert!(
            !stderr.trim().is_empty(),
            "`topobench {case}` failed silently"
        );
    }
}

/// `hotspot:<n>` works on every command `usage()` lists it for — here
/// the four that used to reject it.
#[test]
fn hotspot_traffic_is_accepted_by_the_flag_form_commands() {
    const SMALL: &str = "rrg --switches 8 --ports 6 --degree 4 --traffic hotspot:2";
    for cmd in [
        format!("solve {SMALL} --runs 1"),
        format!("packetsim {SMALL} --duration 20 --warmup 5"),
        format!("serve {SMALL}"),
        format!("profile {SMALL} --phases 2"),
    ] {
        let args: Vec<&str> = cmd.split_whitespace().collect();
        let out = topobench(&args);
        assert!(
            out.status.success(),
            "`topobench {cmd}` failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// A boundary input ends in the given exit code with `needle` on
/// stderr, before anything reaches stdout: no panic (exit 101) and no
/// made-up result.
fn rejects(cmd: &str, code: i32, needle: &str) {
    let args: Vec<&str> = cmd.split_whitespace().collect();
    let out = topobench(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(code),
        "`topobench {cmd}`:\n{stderr}"
    );
    assert!(stderr.contains(needle), "`topobench {cmd}`:\n{stderr}");
    assert!(
        out.stdout.is_empty(),
        "`topobench {cmd}` printed:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// Queue bounds no link reaches print the run any such bound prints.
/// The link queues were one slab of `arcs × queue` packets: `2^32 + 1`
/// aborted on a 3 TiB allocation, and `2^60` wrapped the slab to nothing
/// while `queue as u32` read 0, so every packet dropped and the law
/// still read "upheld".
#[test]
fn packetsim_queue_bounds_past_the_peak_print_one_run() {
    const SIM: &str =
        "packetsim rrg --switches 12 --ports 8 --degree 4 --duration 5 --warmup 1 --queue";
    let run = |queue: &str| {
        let cmd = format!("{SIM} {queue}");
        let out = topobench(&cmd.split_whitespace().collect::<Vec<_>>());
        assert!(
            out.status.success(),
            "`topobench {cmd}`:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let reference = run("1000000");
    assert!(
        reference.contains("sim: 189 events, 72 delivered, 0 drops"),
        "{reference}"
    );
    for queue in ["4294967297", "1152921504606846976"] {
        assert_eq!(run(queue), reference, "--queue {queue}");
    }
}

/// A duration whose end tick does not fit below 2^63 saturated to
/// `u64::MAX`, and the paced sources never stopped.
#[test]
fn packetsim_rejects_a_duration_past_the_tick_range() {
    rejects(
        "packetsim rrg --switches 12 --ports 8 --degree 4 --duration 1e300 --warmup 1",
        1,
        "duration 1e300 ends beyond tick 2^63",
    );
}

/// Theorem 1 has no value for zero flows; it used to panic in
/// `dctopo-bounds`.
#[test]
fn bounds_rejects_zero_flows() {
    rejects(
        "bounds --switches 5 --degree 3 --flows 0",
        2,
        "--flows must be positive",
    );
}

/// Zero runs made every ToR count vacuously supported ("+100.0%").
#[test]
fn vl2_study_rejects_zero_runs() {
    rejects(
        "vl2-study --da 4 --di 4 --runs 0",
        2,
        "--runs must be positive",
    );
}

/// An impossible VL2 used to print "design capacity 0 ToRs" and results.
#[test]
fn vl2_study_rejects_invalid_params() {
    rejects("vl2-study --da 0 --di 0", 1, "D_A must be even ≥ 2");
}

/// A negative temperature made the pruning floor four times the
/// incumbent λ, so nothing was ever certified.
#[test]
fn search_rejects_negative_temperature() {
    rejects(
        "search --family rrg:8x6x3 --temperature -1",
        1,
        "temperature must be finite",
    );
}

/// A capacity budget outside its domain ran a search that could not
/// make a move ("8 invalid … improvement +0.00%"): a step that is not a
/// fraction, or a multiplier band that does not straddle the uniform
/// plan's 1.
#[test]
fn search_rejects_an_unusable_capacity_budget() {
    const SEARCH: &str =
        "search --family two-cluster:6x8x3-6x5x2-6 --mode capacity --rounds 2 --batch 4";
    for step in ["5", "-0.5", "nan"] {
        rejects(
            &format!("{SEARCH} --cap-step {step}"),
            1,
            "capacity step must be a fraction in (0, 1]",
        );
    }
    rejects(
        &format!("{SEARCH} --min-mult 3 --max-mult 0.5"),
        1,
        "capacity multipliers need 0 <= min_mult < 1 < max_mult",
    );
}

/// An empty migration printed "achieved floor inf", and a negative
/// floor called a plan certified-safe against nothing.
#[test]
fn plan_rejects_an_empty_migration_and_a_negative_floor() {
    const PLAN: &str = "plan --family rrg:12x6x4";
    rejects(
        &format!("{PLAN} --pairs 0"),
        1,
        "an empty migration has nothing to order",
    );
    for floor in ["--floor -0.5", "--floor-frac -1"] {
        rejects(&format!("{PLAN} {floor}"), 1, "negative safety floor");
    }
}

/// `figures` takes one target from the index and the flags it declares,
/// nothing else; `--runs 0` would print means over no sample.
#[test]
fn figures_rejects_what_it_cannot_print() {
    rejects("figures", 2, "`figures` needs a <target>");
    rejects("figures fig99", 2, "unknown figure 'fig99'");
    rejects("figures fig3 --runs 0", 2, "--runs must be positive");
    rejects("figures fig3 --runs", 2, "missing value for --runs");
    rejects("figures fig3 --bogus", 2, "unknown flag --bogus");
    rejects("figures fig3 --backend ksp:0", 2, "--backend ksp:0");
}

/// Zero-sized loops are usage errors: `sweep --runs 0` ran one run, and
/// `search --rounds 0` / `--batch 0` reported a search that evaluated
/// nothing.
#[test]
fn zero_sized_loops_are_usage_errors() {
    rejects(
        "sweep --families rrg:8x6x4 --runs 0",
        2,
        "--runs must be positive",
    );
    rejects(
        "search --family rrg:8x6x3 --rounds 0",
        2,
        "--rounds must be positive",
    );
    rejects(
        "search --family rrg:8x6x3 --batch 0",
        2,
        "--batch must be positive",
    );
}
