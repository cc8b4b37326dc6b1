//! How one workload is measured: a discarded warm-up replay, then timed
//! replays of identical work, every timing reduced by the minimum over
//! replays; and how the traced run turns the same replays into spans
//! and per-layer metrics.

use std::time::Instant;

use crate::host;
use crate::stats::{median, min, nearest_rank};
use crate::trace::{layer_self_times, LayerMetric, Tracer};
use crate::workloads::{at_width, ms, Cfg, Replay, Workload, ALL};

/// Fewest timed replays a run may reduce over, however short `--seconds`.
pub const MIN_REPLAYS: usize = 8;
/// Most timed replays in a run, however long `--seconds`.
pub const MAX_REPLAYS: usize = 64;
/// `--quick` replays: enough to show that a replay repeats.
pub const QUICK_REPLAYS: usize = 2;
/// How long an untraced replay keeps setting up before its ops: a set-up
/// lasts 7 µs to 1.2 ms, too short to time alone.
pub const SETUP_BATCH_NS: u64 = 20_000_000;
/// Fewest set-ups in that batch, however slow one is.
pub const MIN_SETUPS: u64 = 4;
/// Replays of the traced run, before and after switching the tracer on.
pub const TRACED_REPLAYS: usize = 3;

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// What one run of one workload reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Gated metrics: end-to-end when untraced, per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Printed, never gated.
    pub info: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed (first few).
    pub failures: Vec<String>,
}

/// Where replays run. On a shared host the cores are not equally quiet
/// at any moment and the scheduler cannot tell, so a run left to it
/// reads whatever core it happened to sit on. A one-thread workload
/// visits the allowed cores in turn — every thread of the process (and
/// the child it spawns) bound to one — and the minimum over replays
/// picks the quietest. A wider workload always runs a thread per core:
/// the scheduler stacks its threads on one core in some minutes and
/// spreads them in others, and only spread can a second thread bring
/// anything.
struct Cores {
    allowed: Vec<usize>,
    next: usize,
}

impl Cores {
    fn new() -> Self {
        Cores {
            allowed: host::allowed_cores(),
            next: 0,
        }
    }

    /// Bind the process for its next replay.
    fn place_next(&mut self, threads: usize) {
        if self.allowed.is_empty() {
            return;
        }
        let cores = placement(&self.allowed, threads, self.next);
        self.next += 1;
        if let Err(e) = host::bind_threads(cores) {
            eprintln!("dcbench: warning: replays run unbound: {e}");
            self.allowed.clear();
        }
    }
}

/// The cores the `turn`-th replay of a workload `threads` wide is bound
/// to: for one thread each allowed core in turn, for more all of them.
fn placement(allowed: &[usize], threads: usize, turn: usize) -> &[usize] {
    if threads > 1 {
        return allowed;
    }
    let core = turn % allowed.len();
    &allowed[core..=core]
}

/// One replay as the harness ran it.
struct Ran {
    replay: Replay,
    /// Mean of the set-ups timed before the replay, in seconds; 0 when
    /// traced.
    setup_s: f64,
}

/// Set up from scratch, over and over for [`SETUP_BATCH_NS`], and return
/// the mean. What a set-up built is dropped after its clock has stopped.
fn time_setups(w: &Workload, cfg: &Cfg) -> Result<f64, String> {
    let (mut ns, mut count) = (0, 0);
    while ns < SETUP_BATCH_NS || count < MIN_SETUPS {
        let t = Instant::now();
        (w.set_up)(cfg, &mut || ns += t.elapsed().as_nanos() as u64)?;
        count += 1;
    }
    Ok(ns as f64 / 1e9 / count as f64)
}

fn one_replay(w: &Workload, cfg: &Cfg, tr: &mut Tracer, cores: &mut Cores) -> Result<Ran, String> {
    cores.place_next(w.threads);
    at_width(w.threads, || {
        let setup_s = if tr.enabled() {
            0.0
        } else {
            time_setups(w, cfg)?
        };
        let replay = tr.span("replay", "dcbench", |tr| (w.replay)(cfg, tr)).out?;
        Ok(Ran { replay, setup_s })
    })
}

/// Count an op as failed when its own check failed or when it differs
/// from the same op of the first timed replay.
fn failures(ran: &[Ran]) -> (u64, u64, Vec<String>) {
    let (mut attempted, mut failed, mut why) = (0, 0, Vec::new());
    for (r, Ran { replay, .. }) in ran.iter().enumerate() {
        for (i, op) in replay.ops.iter().enumerate() {
            attempted += 1;
            let reason = match (&op.out.fail, ran[0].replay.ops.get(i)) {
                (Some(reason), _) => reason.clone(),
                (None, Some(first)) if first.out.check == op.out.check => continue,
                _ => "output differs bitwise from replay 1".to_string(),
            };
            failed += 1;
            if why.len() < 5 {
                why.push(format!("replay {} op {i}: {reason}", r + 1));
            }
        }
    }
    (attempted, failed, why)
}

/// The nine end-to-end metrics, from the timed replays.
fn end_to_end(ran: &[Ran]) -> Result<(Vec<Metric>, u64, u64, Vec<String>), String> {
    let secs = |ns: u64| ns as f64 / 1e9;
    let per_replay = |f: &dyn Fn(&Ran) -> f64| -> Vec<f64> { ran.iter().map(f).collect() };
    let latency = |p: f64| {
        per_replay(&|r| {
            let ops_ms: Vec<f64> = r.replay.ops.iter().map(|o| ms(o.ns)).collect();
            nearest_rank(&ops_ms, p)
        })
    };
    let child_rss = per_replay(&|r| r.replay.child_rss_mb.unwrap_or(f64::INFINITY));
    let peak_rss_mb = if child_rss[0].is_finite() {
        min(&child_rss)
    } else {
        host::peak_rss_mb("self")?
    };
    let first = &ran[0].replay;
    let gaps: Vec<f64> = first
        .ops
        .iter()
        .flat_map(|o| o.out.gaps.iter().copied())
        .collect();
    let mean_gap = gaps.iter().sum::<f64>() / gaps.len().max(1) as f64;
    let work: u64 = first.ops.iter().map(|o| o.out.work).sum();
    let (attempted, failed, why) = failures(ran);
    let metrics = vec![
        Metric::new("setup_s", min(&per_replay(&|r| r.setup_s)), "s"),
        Metric::new(
            "wall_s",
            min(&per_replay(&|r| secs(r.replay.wall_ns()))),
            "s",
        ),
        Metric::new("cpu_s", min(&per_replay(&|r| r.replay.cpu_s)), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new("lat_p50_ms", min(&latency(50.0)), "ms"),
        Metric::new("lat_p95_ms", min(&latency(95.0)), "ms"),
        Metric::new("work_count", work as f64, "count"),
        Metric::new("mean_gap", mean_gap, "ratio"),
        Metric::new(
            "ok_share",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        ),
    ];
    Ok((metrics, attempted, failed, why))
}

/// The untraced run: warm-up, then timed replays for `seconds` (at
/// least [`MIN_REPLAYS`]), or exactly [`QUICK_REPLAYS`] when quick.
pub fn untraced(w: &Workload, cfg: &Cfg, seconds: f64) -> Result<Outcome, String> {
    let mut off = Tracer::new(false);
    let mut cores = Cores::new();
    let warm = Instant::now();
    one_replay(w, cfg, &mut off, &mut cores)?;
    let warmup_s = warm.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut replays = Vec::new();
    loop {
        replays.push(one_replay(w, cfg, &mut off, &mut cores)?);
        let enough = if cfg.quick {
            replays.len() >= QUICK_REPLAYS
        } else {
            replays.len() >= MAX_REPLAYS
                || (replays.len() >= MIN_REPLAYS && started.elapsed().as_secs_f64() >= seconds)
        };
        if enough {
            break;
        }
    }

    let (metrics, attempted, failed, failures) = end_to_end(&replays)?;
    let walls: Vec<f64> = replays.iter().map(|r| r.replay.wall_ns() as f64).collect();
    let info = vec![
        Metric::new(
            "replay_spread",
            (median(&walls) - min(&walls)) / min(&walls),
            "ratio",
        ),
        Metric::new("warmup_s", warmup_s, "s"),
        Metric::new("lat_samples", replays[0].replay.ops.len() as f64, "count"),
        Metric::new("replays", replays.len() as f64, "count"),
        Metric::new("threads", w.threads as f64, "count"),
        Metric::new("cores_visited", cores.allowed.len() as f64, "count"),
    ];
    Ok(Outcome {
        metrics,
        info,
        attempted,
        failed,
        failures,
    })
}

/// What the traced run hands back besides its [`Outcome`].
pub struct Traced {
    pub outcome: Outcome,
    /// Span file contents, one JSON object per line.
    pub jsonl: String,
}

/// Median over traced replays of each per-layer metric, first
/// occurrence order.
fn layer_medians(metrics: &[LayerMetric]) -> Vec<Metric> {
    let mut names: Vec<&str> = Vec::new();
    for m in metrics {
        if !names.contains(&m.name) {
            names.push(m.name);
        }
    }
    names
        .into_iter()
        .map(|name| {
            let of: Vec<&LayerMetric> = metrics.iter().filter(|m| m.name == name).collect();
            let values: Vec<f64> = of.iter().map(|m| m.value).collect();
            Metric::new(name, median(&values), of[0].unit)
        })
        .collect()
}

/// The traced run: warm-up, [`TRACED_REPLAYS`] untraced replays (the
/// base of `dcbench.trace_overhead`), then [`TRACED_REPLAYS`] traced
/// ones. With `fill`, one traced replay of every other workload
/// supplies the per-layer metrics this workload does not record, so a
/// single-workload run still reports every layer.
pub fn traced(w: &Workload, cfg: &Cfg, fill: bool) -> Result<Traced, String> {
    let reps = if cfg.quick { 1 } else { TRACED_REPLAYS };
    let mut off = Tracer::new(false);
    let mut cores = Cores::new();
    one_replay(w, cfg, &mut off, &mut cores)?;
    let mut plain = Vec::new();
    for _ in 0..reps {
        plain.push(one_replay(w, cfg, &mut off, &mut cores)?);
    }
    let mut tr = Tracer::new(true);
    let mut replays = Vec::new();
    for i in 0..reps {
        tr.set_replay(i);
        replays.push(one_replay(w, cfg, &mut tr, &mut cores)?);
    }
    let (attempted, failed, failures) = failures(&replays);

    let wall = |rs: &[Ran]| {
        let walls: Vec<f64> = rs.iter().map(|r| r.replay.wall_ns() as f64).collect();
        min(&walls)
    };
    let mut metrics = layer_medians(&tr.metrics);
    metrics.push(Metric::new(
        "dcbench.trace_overhead",
        wall(&replays) / wall(&plain),
        "ratio",
    ));

    // layer self times of the quietest traced replay
    let roots: Vec<usize> = tr
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "replay")
        .map(|s| s.id)
        .collect();
    let span_ns = |id: usize| tr.spans[id].end_ns - tr.spans[id].start_ns;
    let root = *roots
        .iter()
        .min_by_key(|&&id| span_ns(id))
        .ok_or("the traced run recorded no replay span")?;
    let layers = layer_self_times(&tr.spans, root);
    let total: u64 = layers.iter().map(|(_, ns)| ns).sum();
    let mut info = vec![
        Metric::new("replay_span_ms", ms(span_ns(root)), "ms"),
        Metric::new("self_sum_ms", ms(total), "ms"),
    ];
    for (layer, ns) in &layers {
        info.push(Metric::new(&format!("self_ms.{layer}"), ms(*ns), "ms"));
        info.push(Metric::new(
            &format!("self_share.{layer}"),
            *ns as f64 / span_ns(root) as f64,
            "ratio",
        ));
    }
    if fill {
        for other in ALL.iter().filter(|o| o.name != w.name) {
            let have = |name: &str| metrics.iter().any(|m| m.name == name);
            if other.layer_metrics.iter().all(|m| have(m)) {
                continue;
            }
            let mut side = Tracer::new(true);
            one_replay(other, cfg, &mut side, &mut cores)?;
            for m in layer_medians(&side.metrics) {
                if !metrics.iter().any(|seen| seen.name == m.name) {
                    metrics.push(m);
                }
            }
        }
    }
    Ok(Traced {
        outcome: Outcome {
            metrics,
            info,
            attempted,
            failed,
            failures,
        },
        jsonl: tr.to_jsonl(w.name),
    })
}

#[cfg(test)]
mod tests {
    use super::placement;

    #[test]
    fn one_thread_visits_each_core_and_a_wider_pool_takes_them_all() {
        let allowed = [2, 5];
        let turns = |threads| -> Vec<&[usize]> {
            (0..3).map(|t| placement(&allowed, threads, t)).collect()
        };
        assert_eq!(turns(1), [&[2][..], &[5], &[2]]);
        assert_eq!(turns(2), [&[2, 5][..], &[2, 5], &[2, 5]]);
        // on a host with one core both threads share it
        assert_eq!(placement(&[0], 2, 1), [0]);
    }
}
