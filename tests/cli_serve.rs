//! End-to-end pins for `topobench serve`, driving the real binary with
//! piped stdin: a golden request/response transcript checked against an
//! in-process engine (floats round-trip bitwise through the protocol),
//! typed error records for malformed lines (the process must NOT crash
//! or exit), and EOF shutdown draining the in-flight batch.

use std::io::Write;
use std::process::{Command, Stdio};

use dctopo::core::{AppliedScenario, Degradation, Scenario, ThroughputEngine};
use dctopo::flow::FlowError;
use dctopo::prelude::*;
use dctopo::serve::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `tm` solved cold under the scenario `applied`: its surviving demand
/// on its view.
fn scenario_solve(
    engine: &ThroughputEngine,
    applied: &AppliedScenario,
    tm: &TrafficMatrix,
    opts: &FlowOptions,
) -> Result<ThroughputResult, FlowError> {
    let (cs, nic, flows) = engine.scenario_demand(applied, tm);
    engine.solve_commodities_warm(&applied.net, cs, nic, flows, opts, &[])
}

/// Spawn `topobench serve` on a fixed fabric, feed it `input`, and
/// collect (stdout lines, stderr, success).
fn serve_transcript(input: &[u8], extra: &[&str]) -> (Vec<String>, String, bool) {
    let fabric = [
        "rrg",
        "--switches",
        "12",
        "--ports",
        "8",
        "--degree",
        "4",
        "--seed",
        "5",
        "--threads",
        "2",
    ];
    serve_on(&[&fabric[..], extra].concat(), input)
}

/// Spawn `topobench serve` with `args`, feed it `input`, and collect
/// (stdout lines, stderr, success).
fn serve_on(args: &[&str], input: &[u8]) -> (Vec<String>, String, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_topobench"));
    cmd.arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("failed to spawn topobench serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input)
        .expect("failed to write requests");
    // dropping stdin closes the pipe: EOF is the shutdown signal
    let out = child.wait_with_output().expect("serve did not exit");
    (
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(str::to_owned)
            .collect(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// The same fabric the CLI builds: family seed drives both the
/// topology and the traffic draw, exactly like `cmd_serve`.
fn reference_engine() -> (Topology, TrafficMatrix) {
    let mut rng = StdRng::seed_from_u64(5);
    let topo = Topology::random_regular(12, 8, 4, &mut rng).unwrap();
    let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
    (topo, tm)
}

fn field_f64(line: &str, key: &str) -> f64 {
    Json::parse(line)
        .unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"))
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing {key} in {line}"))
}

#[test]
fn golden_transcript_matches_in_process_engine_bitwise() {
    let input = "\
{\"id\":1}\n\
{\"id\":2,\"degrade\":[{\"kind\":\"fail-links\",\"count\":2,\"seed\":9}]}\n\
{\"id\":3,\"op\":\"ping\"}\n\
\n\
{\"id\":4,\"op\":\"stats\"}\n";
    let (lines, stderr, ok) = serve_transcript(input.as_bytes(), &[]);
    assert!(ok, "serve exited non-zero:\n{stderr}");
    assert_eq!(lines.len(), 4, "one response per request:\n{lines:?}");

    // golden shape pins (id echo, arrival order, response kinds)
    assert!(lines[0].starts_with("{\"id\":1,\"ok\":true,\"throughput\":"));
    assert!(lines[1].starts_with("{\"id\":2,\"ok\":true,\"throughput\":"));
    assert!(lines[1].contains("\"warm\":false") && lines[1].contains("\"backend\":\"fptas\""));
    assert_eq!(lines[2], "{\"id\":3,\"ok\":true,\"pong\":true}");
    assert_eq!(
        lines[3],
        "{\"id\":4,\"ok\":true,\"stats\":{\"batches\":1,\"queries\":2,\"errors\":0,\
         \"warm_hits\":0,\"warm_misses\":2,\"warm_slots\":2,\
         \"trace\":{\"enabled\":false,\"events\":0}}}"
    );

    // differential pin: floats round-trip bitwise through the protocol,
    // so the transcript must agree with an in-process cold solve
    let (topo, tm) = reference_engine();
    let engine = ThroughputEngine::new(&topo);
    let opts = FlowOptions::fast();
    let cases = [
        (0usize, Scenario::baseline()),
        (
            1,
            Scenario::new("f", vec![Degradation::FailLinks { count: 2, seed: 9 }]),
        ),
    ];
    for (i, sc) in cases {
        let applied = sc.apply(&topo, engine.net()).unwrap();
        let cold = scenario_solve(&engine, &applied, &tm, &opts).unwrap();
        assert_eq!(
            field_f64(&lines[i], "throughput").to_bits(),
            cold.throughput.to_bits(),
            "line {i} throughput diverged from the in-process engine"
        );
        assert_eq!(
            field_f64(&lines[i], "network_lambda").to_bits(),
            cold.network_lambda.to_bits()
        );
        assert_eq!(
            field_f64(&lines[i], "upper_bound").to_bits(),
            cold.network_upper_bound.to_bits()
        );
    }

    // CLI-level determinism: identical stdin → identical stdout
    let (again, _, ok2) = serve_transcript(input.as_bytes(), &[]);
    assert!(ok2);
    assert_eq!(lines, again, "serve transcript drifted across runs");
}

/// An exact-LP query whose seeded master (1,272 × 1,905 on this fabric:
/// 640 arc rows, 632 commodity rows and a slack each, λ and one path per
/// commodity) is past the simplex's budget gets a typed `solver` error
/// record at once instead of stalling the server, which goes on to
/// answer the next line.
#[test]
fn an_oversized_exact_query_is_refused_promptly() {
    let fabric = [
        "rrg",
        "--switches",
        "160",
        "--ports",
        "8",
        "--degree",
        "4",
        "--threads",
        "1",
    ];
    let input = b"{\"id\":8,\"backend\":\"exact\"}\n{\"id\":9,\"op\":\"ping\"}\n";
    let start = std::time::Instant::now();
    let (lines, stderr, ok) = serve_on(&fabric, input);
    let elapsed = start.elapsed();
    assert!(ok, "{stderr}");
    assert_eq!(lines.len(), 2, "{lines:?}");
    let v = Json::parse(&lines[0]).unwrap();
    assert_eq!(v.get("id").and_then(Json::as_u64), Some(8));
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(false),
        "{}",
        lines[0]
    );
    let err = v.get("error").unwrap();
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("solver"));
    let message = err.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("1272 × 1905"), "{message}");
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "refusal took {elapsed:?}"
    );
}

/// A `ksp:K` request past the solver's cap on K gets a `solver` error
/// record at once (K = 4,096 used to stall the server for minutes
/// freezing path sets), and the next line is answered normally.
#[test]
fn an_oversized_ksp_query_is_refused_promptly() {
    let fabric = [
        "rrg",
        "--switches",
        "32",
        "--ports",
        "10",
        "--degree",
        "6",
        "--threads",
        "1",
    ];
    let input = b"{\"id\":1,\"backend\":\"ksp:100000\"}\n{\"id\":2,\"backend\":\"ksp:2\"}\n";
    let start = std::time::Instant::now();
    let (lines, stderr, ok) = serve_on(&fabric, input);
    let elapsed = start.elapsed();
    assert!(ok, "{stderr}");
    assert_eq!(lines.len(), 2, "{lines:?}");
    let refused = Json::parse(&lines[0]).unwrap();
    assert_eq!(refused.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    let err = refused.get("error").unwrap();
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("solver"));
    let message = err.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("ksp:100000"), "{message}");
    let answered = Json::parse(&lines[1]).unwrap();
    assert_eq!(answered.get("id").and_then(Json::as_u64), Some(2));
    assert_eq!(
        answered.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        lines[1]
    );
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "both answers took {elapsed:?}"
    );
}

#[test]
fn malformed_requests_get_typed_error_records_and_the_server_survives() {
    let input = b"\
} not json at all {\n\
{\"id\":1,\"degrade\":[{\"kind\":\"no-such-kind\"}]}\n\
{\"id\":2,\"degrade\":[{\"kind\":\"fail-links\",\"count\":2,\"seed\":1,\"bogus\":3}]}\n\
{\"id\":3,\"op\":\"teapot\"}\n\
{\"id\":4,\"drift\":{\"spread\":1.5,\"seed\":1}}\n\
{\"id\":5,\"degrade\":[{\"kind\":\"scale-capacity\",\"factor\":1e308},\
{\"kind\":\"scale-capacity\",\"factor\":1e308}],\"backend\":\"ksp:2\"}\n\
{\"id\":6,\"op\":\"ping\"}\n\
\n\
\xff\xfe{\"id\":7,\"op\":\"ping\"}\n\
\n\
{\"id\":8,\"op\":\"ping\"}\n";
    let (lines, stderr, ok) = serve_transcript(input, &[]);
    assert!(
        ok,
        "bad input must never crash or exit the server:\n{stderr}"
    );
    assert_eq!(lines.len(), 9, "every line gets a response:\n{lines:?}");
    // line i answers with id i, except the lines that are not JSON
    // and not UTF-8
    let expect_err = |i: usize, kind: &str| {
        let line = &lines[i];
        let v = Json::parse(line).unwrap();
        let id = v.get("id").and_then(Json::as_u64);
        assert_eq!(id, (i != 0 && i != 7).then_some(i as u64), "{line}");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
        let err = v.get("error").unwrap_or_else(|| panic!("no error: {line}"));
        assert_eq!(
            err.get("kind").and_then(Json::as_str),
            Some(kind),
            "wrong error kind in {line}"
        );
        assert!(
            !err.get("message")
                .and_then(Json::as_str)
                .unwrap()
                .is_empty(),
            "empty message: {line}"
        );
    };
    expect_err(0, "malformed");
    expect_err(1, "bad-request");
    expect_err(2, "bad-request");
    expect_err(3, "bad-request");
    expect_err(4, "bad-request");
    // two scales past f64::MAX: a typed error, not a killed server
    expect_err(5, "bad-capacity");
    // the good request in the same batch still answers
    assert_eq!(lines[6], "{\"id\":6,\"ok\":true,\"pong\":true}");
    // a line that is not UTF-8 is malformed, and the next batch answers
    expect_err(7, "malformed");
    assert_eq!(lines[8], "{\"id\":8,\"ok\":true,\"pong\":true}");
    assert!(
        stderr.contains("7 errors"),
        "final stats must count the typed errors:\n{stderr}"
    );
}

#[test]
fn eof_shutdown_drains_the_in_flight_batch() {
    // no trailing blank line: the second batch is still in flight when
    // stdin closes, and must be answered before exit
    let input =
        "{\"id\":1,\"op\":\"ping\"}\n\n{\"id\":2,\"op\":\"ping\"}\n{\"id\":3,\"op\":\"stats\"}";
    let (lines, stderr, ok) = serve_transcript(input.as_bytes(), &[]);
    assert!(ok, "{stderr}");
    assert_eq!(
        lines.len(),
        3,
        "EOF must drain the in-flight batch:\n{lines:?}"
    );
    assert_eq!(lines[1], "{\"id\":2,\"ok\":true,\"pong\":true}");
    // the drained batch is the second one: stats snapshot sees batch 1
    let v = Json::parse(&lines[2]).unwrap();
    let batches = v
        .get("stats")
        .and_then(|s| s.get("batches"))
        .and_then(Json::as_f64)
        .unwrap();
    assert_eq!(batches, 1.0);
    assert!(
        stderr.contains("in 2 batches"),
        "shutdown summary must count the drained batch:\n{stderr}"
    );
}

#[test]
fn no_warm_flag_disables_warm_starts_by_default() {
    let input = "\
{\"id\":1,\"degrade\":[{\"kind\":\"fail-links\",\"count\":2,\"seed\":9}]}\n\
\n\
{\"id\":2,\"degrade\":[{\"kind\":\"fail-links\",\"count\":2,\"seed\":9}],\"drift\":{\"spread\":0.1,\"seed\":3}}\n\
{\"id\":3,\"degrade\":[{\"kind\":\"fail-links\",\"count\":2,\"seed\":9}],\"drift\":{\"spread\":0.1,\"seed\":3},\"warm\":true}\n";
    let (lines, stderr, ok) = serve_transcript(input.as_bytes(), &["--no-warm"]);
    assert!(ok, "{stderr}");
    assert_eq!(lines.len(), 3);
    assert!(
        lines[1].contains("\"warm\":false"),
        "--no-warm must make cold the default:\n{}",
        lines[1]
    );
    assert!(
        lines[2].contains("\"warm\":true"),
        "per-request \"warm\":true must still opt in:\n{}",
        lines[2]
    );
}
