//! `serve-whatif`: the real `topobench serve` CLI as a child process,
//! driven closed-loop over its stdin/stdout — the hand-rolled JSON
//! parser, canonical batch ordering, the warm store and process start
//! are only on this path.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use dctopo_core::{Degradation, Scenario, ThroughputEngine};
use dctopo_flow::{max_concurrent_flow_warm, FlowOptions};
use dctopo_serve::{Drift, Json, QuerySpec, Request, ServeConfig, Server};
use dctopo_topology::Topology;
use dctopo_traffic::TrafficMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use super::{
    ms, pinned_rng, pinned_seed, probe_csr_build, probe_view, us, within, Cfg, Op, OpOut, Replay,
    Workload,
};
use crate::host;
use crate::stats::nearest_rank;
use crate::trace::Tracer;

const TAG: u64 = 4;

/// The server solves with `FlowOptions::fast()`: 5 % plus stall slack.
const GAP_LIMIT: f64 = 0.08;

pub const WORKLOAD: Workload = Workload {
    name: "serve-whatif",
    why: "stdin/stdout, the hand-rolled JSON parser, canonical batch ordering and the warm store \
          are only on this path, and process start is inside setup_s",
    threads: 1,
    set_up: |cfg, ready| {
        let _built = set_up(cfg, &mut Tracer::new(false))?;
        ready();
        Ok(())
    },
    replay,
    layer_metrics: &[
        "serve.spawn_ready_ms",
        "serve.batch_inproc_ms_p50",
        "serve.pipe_overhead_ms",
        "serve.parse_us_per_line",
        "serve.warm_hit_ratio",
        "serve.warm_slots",
        "flow.warm_ms_per_solve",
        "flow.warm_phase_ratio",
        "graph.view_us",
    ],
};

/// Query lines per batch.
const BATCH_LINES: usize = 2;

/// What a reply to one request line must look like.
#[derive(Clone, Copy, PartialEq)]
enum Expect {
    Solved,
    Stats,
    Malformed,
}

struct Line {
    text: String,
    expect: Expect,
}

/// The request stream: 22 batches of two queries over six degradation
/// recipes with drifting demand, then a `stats` request and a malformed
/// line — 24 ops. The first three batches and batch 11 touch a
/// structure for the first time, so 4 of 22 batches (18 %) carry a cold
/// solve: `lat_p95_ms` (the second-slowest op) sits in the cold mode,
/// `lat_p50_ms` in the warm one. A warm query costs ~14 ms here, a cold
/// one ~45 ms, which is what sizes the stream to a ~0.9 s replay.
struct Stream {
    size: (usize, usize, usize),
    child_seed: u64,
    recipes: Vec<Vec<Degradation>>,
    batches: Vec<Vec<Line>>,
}

fn degradation_json(d: &Degradation) -> String {
    match *d {
        Degradation::FailLinks { count, seed } => {
            format!(r#"{{"kind":"fail-links","count":{count},"seed":{seed}}}"#)
        }
        Degradation::FailSwitches { count, seed } => {
            format!(r#"{{"kind":"fail-switches","count":{count},"seed":{seed}}}"#)
        }
        Degradation::ScaleCapacity { factor } => {
            format!(r#"{{"kind":"scale-capacity","factor":{factor}}}"#)
        }
        Degradation::LineCardMix {
            fraction,
            factor,
            seed,
        } => format!(
            r#"{{"kind":"line-card-mix","fraction":{fraction},"factor":{factor},"seed":{seed}}}"#
        ),
    }
}

fn generate(cfg: &Cfg) -> Stream {
    let mut pinned = pinned_rng(TAG);
    let mut shown = cfg.seed_rng(TAG);
    let mut fresh_seed = || pinned.random_range(1..1_000_000u64);
    let link_seed = fresh_seed();
    let recipes = vec![
        vec![],
        vec![Degradation::FailLinks {
            count: 3,
            seed: link_seed,
        }],
        vec![Degradation::FailLinks {
            count: 6,
            seed: link_seed,
        }],
        vec![Degradation::ScaleCapacity { factor: 0.7 }],
        vec![Degradation::FailSwitches {
            count: 1,
            seed: fresh_seed(),
        }],
        vec![Degradation::LineCardMix {
            fraction: 0.25,
            factor: 2.0,
            seed: fresh_seed(),
        }],
    ];
    let batch_count = if cfg.quick { 6 } else { 22 };
    let mut batches = Vec::with_capacity(batch_count + 2);
    for b in 0..batch_count {
        let mut lines = Vec::with_capacity(BATCH_LINES);
        for q in 0..BATCH_LINES {
            let recipe = if b == batch_count / 2 && q == 0 {
                // a failure set nobody has asked about yet
                vec![Degradation::FailLinks {
                    count: 5,
                    seed: fresh_seed(),
                }]
            } else {
                recipes[(BATCH_LINES * b + q) % recipes.len()].clone()
            };
            let degrade: Vec<String> = recipe.iter().map(degradation_json).collect();
            let text = format!(
                r#"{{"id":{},"degrade":[{}],"drift":{{"spread":0.02,"seed":{}}}}}"#,
                shown.random_range(0..1_000_000u32),
                degrade.join(","),
                fresh_seed(),
            );
            lines.push(Line {
                text,
                expect: Expect::Solved,
            });
        }
        // arrival order inside a batch is the seed's; the server's
        // canonical ordering makes the answers independent of it
        lines.shuffle(&mut shown);
        batches.push(lines);
    }
    batches.push(vec![Line {
        text: format!(
            r#"{{"id":{},"op":"stats"}}"#,
            shown.random_range(0..1_000_000u32)
        ),
        expect: Expect::Stats,
    }]);
    batches.push(vec![Line {
        text: r#"{"id":1,"degrade":[{"kind":"fail-links","count":"#.to_string(),
        expect: Expect::Malformed,
    }]);
    Stream {
        size: if cfg.quick { (12, 8, 4) } else { (32, 10, 6) },
        child_seed: pinned_seed(TAG),
        recipes,
        batches,
    }
}

/// Check one batch's reply lines; `work` is the phases the replies
/// report.
fn check_batch(batch: &[Line], replies: &[String]) -> OpOut {
    let mut out = OpOut::default();
    let mut hasher = DefaultHasher::new();
    for (line, reply) in batch.iter().zip(replies) {
        reply.hash(&mut hasher);
        let Ok(v) = Json::parse(reply) else {
            out.fail
                .get_or_insert(format!("reply is not JSON: {reply}"));
            continue;
        };
        let ok = v.get("ok").and_then(Json::as_bool);
        let wrong = match line.expect {
            Expect::Solved => {
                let num = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                let (lambda, upper) = (num("network_lambda"), num("upper_bound"));
                let gap = (upper - lambda) / upper;
                out.work += v.get("phases").and_then(Json::as_u64).unwrap_or(0);
                out.gaps.push(gap);
                ok != Some(true) || !within(lambda, upper) || gap > GAP_LIMIT
            }
            Expect::Stats => ok != Some(true) || v.get("stats").is_none(),
            Expect::Malformed => {
                let kind = v.get("error").and_then(|e| e.get("kind"));
                ok != Some(false) || kind.and_then(Json::as_str) != Some("malformed")
            }
        };
        if wrong {
            out.fail
                .get_or_insert(format!("unexpected reply to `{}`: {reply}", line.text));
        }
    }
    out.check = vec![hasher.finish()];
    out
}

/// The child and the pipes to it. Dropping it stops the child and
/// waits for it, whatever state the replay ended in.
struct Served {
    child: Child,
    /// `None` once closed: EOF is how the server is told to exit.
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Drop for Served {
    fn drop(&mut self) {
        // both fail harmlessly on a child that has already been reaped
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Served {
    fn spawn(cfg: &Cfg, stream: &Stream) -> Result<Served, String> {
        let (n, k, r) = stream.size;
        let mut child = Command::new(&cfg.topobench)
            .args(["serve", "rrg", "--threads", "1"])
            .args(["--switches", &n.to_string()])
            .args(["--ports", &k.to_string()])
            .args(["--degree", &r.to_string()])
            .args(["--seed", &stream.child_seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cfg.topobench.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Served {
            child,
            stdin,
            stdout,
        })
    }

    /// Send one batch and wait for its last reply line (closed loop).
    fn exchange(&mut self, lines: &[&str]) -> Result<Vec<String>, String> {
        let mut request = lines.join("\n");
        request.push_str("\n\n"); // the blank line flushes the batch
        let stdin = self.stdin.as_mut().ok_or("topobench serve was shut down")?;
        stdin
            .write_all(request.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write to topobench serve: {e}"))?;
        let mut replies = Vec::with_capacity(lines.len());
        for _ in lines {
            let mut reply = String::new();
            let read = self
                .stdout
                .read_line(&mut reply)
                .map_err(|e| format!("read from topobench serve: {e}"))?;
            if read == 0 {
                return Err("topobench serve closed its stdout mid-batch".into());
            }
            replies.push(reply.trim_end().to_string());
        }
        Ok(replies)
    }

    /// Close stdin (EOF shuts the server down) and reap the child.
    fn shut_down(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for topobench serve: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("topobench serve exited with {status}"))
        }
    }
}

/// The request stream, the child, and its first `ping` reply.
fn set_up(cfg: &Cfg, tr: &mut Tracer) -> Result<(Stream, Served), String> {
    let stream = tr.span("request stream", "dcbench", |_| generate(cfg)).out;
    let ready = tr.span("spawn + ping", "cli", |_| -> Result<Served, String> {
        let mut served = Served::spawn(cfg, &stream)?;
        let pong = served.exchange(&[r#"{"id":0,"op":"ping"}"#])?;
        if !pong[0].contains(r#""pong":true"#) {
            return Err(format!("unexpected ping reply: {}", pong[0]));
        }
        Ok(served)
    });
    tr.metric("serve.spawn_ready_ms", ms(ready.ns), "ms");
    Ok((stream, ready.out?))
}

fn replay(cfg: &Cfg, tr: &mut Tracer) -> Result<Replay, String> {
    let (stream, mut served) = set_up(cfg, tr)?;
    // the child is the measured process; what it has burned by now
    // (process start, building the fabric, the ping) belongs to set-up
    let pid = served.child.id().to_string();
    let cpu_ready = host::cpu_seconds(&pid)?;
    let mut ops = Vec::with_capacity(stream.batches.len());
    let mut op_spans = Vec::with_capacity(stream.batches.len());
    let mut transcript = Vec::with_capacity(stream.batches.len());
    for (i, batch) in stream.batches.iter().enumerate() {
        let lines: Vec<&str> = batch.iter().map(|l| l.text.as_str()).collect();
        tr.set_op(Some(i));
        let sent = tr.span("batch", "cli", |_| served.exchange(&lines));
        let replies = sent.out?;
        ops.push(Op {
            ns: sent.ns,
            out: check_batch(batch, &replies),
        });
        op_spans.push(sent.id);
        transcript.push(replies);
    }
    tr.set_op(None);
    let cpu_s = host::cpu_seconds(&pid)? - cpu_ready;
    let child_rss_mb = Some(host::peak_rss_mb(&pid)?);
    served.shut_down()?;
    let replay = Replay {
        ops,
        cpu_s,
        child_rss_mb,
    };
    if tr.enabled() {
        probe_layers(tr, &stream, &replay, &op_spans, &transcript)?;
    }
    Ok(replay)
}

/// The same stream against an in-process `Server` on the same fabric,
/// batch by batch under the CLI's op spans; then the parser, the warm
/// solver and the delta views on their own.
fn probe_layers(
    tr: &mut Tracer,
    stream: &Stream,
    replay: &Replay,
    op_spans: &[usize],
    transcript: &[Vec<String>],
) -> Result<(), String> {
    // what `topobench serve --seed S` builds
    let (n, k, r) = stream.size;
    let mut rng = StdRng::seed_from_u64(stream.child_seed);
    let topo = tr.probe(None, "Topology::random_regular", "topology", |_| {
        Topology::random_regular(n, k, r, &mut rng)
    });
    tr.metric("topology.build_us", us(topo.ns), "us");
    let topo = topo.out.map_err(|e| e.to_string())?;
    let tm = tr.probe(None, "TrafficMatrix::random_permutation", "traffic", |_| {
        TrafficMatrix::random_permutation(topo.server_count(), &mut rng)
    });
    tr.metric("traffic.generate_us", us(tm.ns), "us");
    let tm = tm.out;
    probe_csr_build(tr, &topo);
    let server = tr.probe(None, "Server::new", "serve", |_| {
        Server::new(&topo, tm.clone(), ServeConfig::default())
    });
    tr.metric("core.engine_new_us", us(server.ns), "us");
    let mut server = server.out;

    let mut inproc_ms = Vec::with_capacity(stream.batches.len());
    for ((batch, &op), replies) in stream.batches.iter().zip(op_spans).zip(transcript) {
        let lines: Vec<String> = batch.iter().map(|l| l.text.clone()).collect();
        let answered = tr.probe(Some(op), "Server::serve_batch", "serve", |_| {
            server.serve_batch(&lines)
        });
        if batch[0].expect != Expect::Stats && &answered.out != replies {
            return Err(format!(
                "the CLI and the in-process server disagree on batch `{}`",
                lines[0]
            ));
        }
        inproc_ms.push(ms(answered.ns));
    }
    let cli_ms: Vec<f64> = replay.ops.iter().map(|o| ms(o.ns)).collect();
    let inproc_p50 = nearest_rank(&inproc_ms, 50.0);
    tr.metric("serve.batch_inproc_ms_p50", inproc_p50, "ms");
    tr.metric(
        "serve.pipe_overhead_ms",
        nearest_rank(&cli_ms, 50.0) - inproc_p50,
        "ms",
    );
    let stats = server.stats();
    tr.metric(
        "serve.warm_hit_ratio",
        stats.warm_hits as f64 / (stats.warm_hits + stats.warm_misses).max(1) as f64,
        "ratio",
    );
    tr.metric("serve.warm_slots", server.warm_slots() as f64, "count");

    let lines: Vec<&str> = stream
        .batches
        .iter()
        .flatten()
        .map(|l| l.text.as_str())
        .collect();
    let parsed = tr.probe(None, "Request::parse", "serve", |_| {
        lines.iter().filter(|l| Request::parse(l).is_ok()).count()
    });
    if parsed.out + 1 != lines.len() {
        return Err("exactly the malformed line must fail to parse".into());
    }
    tr.metric(
        "serve.parse_us_per_line",
        us(parsed.ns) / lines.len() as f64,
        "us",
    );

    // per recipe: the view, a cold solve, then the same drifted demand
    // solved warm and cold
    let engine = ThroughputEngine::new(&topo);
    let opts = FlowOptions::fast();
    let drift = Drift {
        spread: 0.02,
        seed: stream.child_seed,
    };
    let (mut view_ns, mut views) = (0, 0u32);
    let (mut warm_ns, mut warm_phases, mut cold_phases) = (0, 0, 0);
    for recipe in &stream.recipes {
        let scenario = Scenario::new("recipe", recipe.clone());
        let applied = tr.probe(None, "Scenario::apply", "core", |_| {
            scenario.apply(&topo, engine.net())
        });
        let view = applied.out.map_err(|e| format!("probe apply: {e}"))?;
        if let Some(ns) = probe_view(tr, applied.id, engine.net(), &scenario, &view)? {
            view_ns += ns;
            views += 1;
        }
        let (mut demand, _, _) = engine.scenario_demand(&view, &tm);
        let (_, learned) = max_concurrent_flow_warm(&view.net, &demand, &opts, None)
            .map_err(|e| format!("probe cold solve: {e}"))?;
        for c in &mut demand {
            c.demand *= QuerySpec::drift_factor(drift, c.src, c.dst);
        }
        let warm = tr.probe(None, "max_concurrent_flow_warm", "flow", |_| {
            max_concurrent_flow_warm(&view.net, &demand, &opts, Some(&learned))
        });
        let (warm_solved, _) = warm.out.map_err(|e| format!("probe warm solve: {e}"))?;
        let (cold_solved, _) = max_concurrent_flow_warm(&view.net, &demand, &opts, None)
            .map_err(|e| format!("probe cold solve: {e}"))?;
        warm_ns += warm.ns;
        warm_phases += warm_solved.phases;
        cold_phases += cold_solved.phases;
    }
    tr.metric("graph.view_us", us(view_ns) / f64::from(views), "us");
    tr.metric(
        "flow.warm_ms_per_solve",
        ms(warm_ns) / stream.recipes.len() as f64,
        "ms",
    );
    tr.metric(
        "flow.warm_phase_ratio",
        warm_phases as f64 / cold_phases as f64,
        "ratio",
    );
    Ok(())
}
