//! The six workloads and what they share: how a replay is recorded,
//! how inputs are derived, and how an op's output is checked.
//!
//! **Instances are pinned, the seed drives presentation.** The FPTAS
//! stops on a certified-gap test whose phase count is chaotic in its
//! input: relabelling the *same* RRG(64,12,8) permutation instance moved
//! one solve between 115 and 259 phases (README, "Why instances are
//! pinned"). A run on a freshly drawn instance would therefore differ
//! from the next by ±25 % before any noise, and the driver refuses a
//! benchmark whose runs on ten different seeds spread by more than a
//! bound (0.20 on the timings, 0.02 on the counters). So each workload
//! draws its fabric, its switch-level demand and its query stream from
//! a constant, and `--seed` generates what the program under test is
//! handed on top of that: server numbering inside each switch, the
//! order of pairs in a matrix, the order of a sweep's scenario axis,
//! request ids and the order of lines inside a serve batch. Every one
//! of these reaches a public entry point, and none changes the
//! switch-level problem — `work_count` and `mean_gap` are the same for
//! every seed, which the quick test checks.

pub mod aggregate;
pub mod design;
pub mod pairwise;
pub mod serve;
pub mod sweep;

use std::path::PathBuf;
use std::time::Instant;

use dctopo_core::{AppliedScenario, Degradation, Scenario, ThroughputEngine};
use dctopo_graph::CsrNet;
use dctopo_topology::Topology;
use dctopo_traffic::TrafficMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::host;
use crate::trace::{SpanId, Tracer};

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// `--seed`: drives presentation (see the module docs).
    pub seed: u64,
    /// `--quick`: tiny instances, for the test that every workload runs.
    pub quick: bool,
    /// The `topobench` binary `serve-whatif` spawns.
    pub topobench: PathBuf,
}

/// The constant a workload's pinned instance is drawn from; also the
/// seed handed to a layer that takes one (sweep, search, plan,
/// `topobench --seed`).
pub const fn pinned_seed(workload_tag: u64) -> u64 {
    20_140_402 + workload_tag
}

/// The stream a workload draws its pinned instance from.
pub fn pinned_rng(workload_tag: u64) -> StdRng {
    StdRng::seed_from_u64(pinned_seed(workload_tag))
}

impl Cfg {
    /// The stream a workload draws its presentation from.
    pub fn seed_rng(&self, workload_tag: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ workload_tag)
    }
}

/// What one op produced, reduced to what the harness needs.
#[derive(Debug, Clone, Default)]
pub struct OpOut {
    /// The op's share of the workload's deterministic work counter.
    pub work: u64,
    /// Certified gap `(upper_bound − λ)/upper_bound` of each solve the
    /// op reported.
    pub gaps: Vec<f64>,
    /// Everything that must repeat bit for bit in every replay.
    pub check: Vec<u64>,
    /// Why the output is wrong, if it is.
    pub fail: Option<String>,
}

impl OpOut {
    pub fn failed(why: impl Into<String>) -> Self {
        OpOut {
            fail: Some(why.into()),
            ..OpOut::default()
        }
    }
}

/// One timed op.
#[derive(Debug, Clone)]
pub struct Op {
    pub ns: u64,
    pub out: OpOut,
}

/// One replay: the ops, one at a time, on a fresh set-up.
#[derive(Debug, Clone)]
pub struct Replay {
    pub ops: Vec<Op>,
    /// CPU seconds of the measured process across the ops.
    pub cpu_s: f64,
    /// Peak RSS of the child, when the measured process is a child.
    pub child_rss_mb: Option<f64>,
}

impl Replay {
    /// Wall time of the ops, set-up excluded.
    pub fn wall_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.ns).sum()
    }
}

/// Records the ops of a replay that runs inside this process.
pub struct Ops<'a> {
    pub tr: &'a mut Tracer,
    ops: Vec<Op>,
    cpu_s: f64,
}

impl<'a> Ops<'a> {
    pub fn new(tr: &'a mut Tracer) -> Self {
        Ops {
            tr,
            ops: Vec::new(),
            cpu_s: 0.0,
        }
    }

    /// Time `f` as the next op. Returns the op's span (for probes) and
    /// what `f` handed back alongside its [`OpOut`].
    pub fn op<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce() -> (OpOut, T),
    ) -> (SpanId, T) {
        self.tr.set_op(Some(self.ops.len()));
        let cpu0 = host::own_cpu_seconds();
        let timed = self.tr.span(name, layer, |_| f());
        self.cpu_s += host::own_cpu_seconds() - cpu0;
        let (out, extra) = timed.out;
        self.ops.push(Op { ns: timed.ns, out });
        (timed.id, extra)
    }

    pub fn finish(self) -> Replay {
        self.tr.set_op(None);
        Replay {
            ops: self.ops,
            cpu_s: self.cpu_s,
            child_rss_mb: None,
        }
    }
}

/// One workload of the benchmark.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Pool width the ops run at; never autodetected.
    pub threads: usize,
    /// Set up from scratch — generate the inputs, build the engine or
    /// spawn the server — and call `ready`; what was built is dropped
    /// after `ready` returns. The time up to `ready` is what `setup_s`
    /// measures.
    pub set_up: fn(&Cfg, ready: &mut dyn FnMut()) -> Result<(), String>,
    /// Run one replay: the same set-up, then the ops.
    pub replay: fn(&Cfg, &mut Tracer) -> Result<Replay, String>,
    /// Per-layer metrics a traced replay of this workload records,
    /// besides the four set-up metrics every workload records.
    pub layer_metrics: &'static [&'static str],
}

/// The workloads, in the order every report lists them.
pub const ALL: [Workload; 6] = [
    pairwise::WORKLOAD,
    aggregate::WORKLOAD_1T,
    aggregate::WORKLOAD_2T,
    sweep::WORKLOAD,
    serve::WORKLOAD,
    design::WORKLOAD,
];

/// Run `f` with the worker pool's chunk count pinned to `threads`.
pub fn at_width<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the pool shim's build cannot fail")
        .install(f)
}

/// Run one set-up step as a span and record its per-layer metric (in
/// microseconds).
pub fn setup_step<T>(
    tr: &mut Tracer,
    name: &str,
    layer: &'static str,
    metric: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let timed = tr.span(name, layer, |_| f());
    tr.metric(metric, us(timed.ns), "us");
    timed.out
}

/// The set-up step every in-process workload ends with: a fresh engine.
pub fn engine_step<'t>(tr: &mut Tracer, topo: &'t Topology) -> ThroughputEngine<'t> {
    setup_step(
        tr,
        "ThroughputEngine::new",
        "core",
        "core.engine_new_us",
        || ThroughputEngine::new(topo),
    )
}

/// The CSR flattening `ThroughputEngine::new` performs, on its own.
pub fn probe_csr_build(tr: &mut Tracer, topo: &Topology) {
    let csr = tr.probe(None, "CsrNet::from_graph", "graph", |_| {
        std::hint::black_box(CsrNet::from_graph(&topo.graph));
    });
    tr.metric("graph.csr_build_us", us(csr.ns), "us");
}

/// Re-issue the delta-view constructor `Scenario::apply` ran for
/// `scenario`, as a probe under the apply span. `None` for the baseline,
/// which builds no view.
pub fn probe_view(
    tr: &mut Tracer,
    apply_span: SpanId,
    base: &CsrNet,
    scenario: &Scenario,
    applied: &AppliedScenario,
) -> Result<Option<u64>, String> {
    let built = match scenario.degradations.first() {
        None => return Ok(None),
        Some(Degradation::ScaleCapacity { factor }) => tr.probe(
            Some(apply_span),
            "CsrNet::with_scaled_capacity",
            "graph",
            |_| base.with_scaled_capacity(*factor).map(|_| ()),
        ),
        Some(_) => {
            // arcs come in pairs (even = forward); disabling one downs the link
            let down: Vec<usize> = (0..base.arc_count())
                .step_by(2)
                .filter(|&a| !applied.net.is_live(a))
                .collect();
            tr.probe(
                Some(apply_span),
                "CsrNet::with_disabled_arcs",
                "graph",
                |_| base.with_disabled_arcs(&down).map(|_| ()),
            )
        }
    };
    built
        .out
        .map_err(|e| format!("probe view of {}: {e}", scenario.name))?;
    Ok(Some(built.ns))
}

/// Microseconds of a nanosecond count.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Milliseconds of a nanosecond count.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Time `f` on the real clock.
pub fn clocked<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// Present `tm` the way `--seed` says: servers renumbered inside their
/// switch, pairs in shuffled order. The switch-level commodities the
/// engine lowers this to are the ones `tm` lowers to.
pub fn present(topo: &Topology, tm: &TrafficMatrix, rng: &mut StdRng) -> TrafficMatrix {
    let mut rename: Vec<usize> = (0..topo.server_count()).collect();
    for group in topo.server_groups() {
        let mut shuffled = group.clone();
        shuffled.shuffle(rng);
        for (from, to) in group.into_iter().zip(shuffled) {
            rename[from] = to;
        }
    }
    let mut pairs: Vec<(usize, usize)> = tm
        .pairs()
        .iter()
        .map(|&(s, d)| (rename[s], rename[d]))
        .collect();
    pairs.shuffle(rng);
    TrafficMatrix::from_pairs(tm.server_count(), pairs)
}

/// `0 < λ ≤ upper`, with the rounding slack every check here allows.
pub fn within(lambda: f64, upper: f64) -> bool {
    lambda > 0.0 && lambda <= upper * (1.0 + 1e-9)
}

/// The certificate every solve must carry: `λ ≤ upper_bound`, no arc
/// over capacity, and the certified gap within `gap_limit`. Returns the
/// gap, or why the certificate is broken.
pub fn check_certificate(
    net: &CsrNet,
    lambda: f64,
    upper: f64,
    arc_flow: &[f64],
    gap_limit: f64,
) -> Result<f64, String> {
    if !within(lambda, upper) {
        return Err(format!("λ {lambda} is not in (0, upper bound {upper}]"));
    }
    for (a, &flow) in arc_flow.iter().enumerate() {
        if flow > net.capacity(a) * (1.0 + 1e-9) {
            return Err(format!(
                "arc {a} carries {flow}, capacity {}",
                net.capacity(a)
            ));
        }
    }
    let gap = (upper - lambda) / upper;
    if gap > gap_limit {
        return Err(format!(
            "certified gap {gap:.4} misses the target {gap_limit}"
        ));
    }
    Ok(gap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_core::solve::aggregate_commodities;

    #[test]
    fn presentation_changes_the_matrix_but_not_the_switch_level_demand() {
        let mut rng = StdRng::seed_from_u64(5);
        let topo = Topology::random_regular(12, 8, 4, &mut rng).unwrap();
        let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
        let lowered = aggregate_commodities(&topo, &tm);
        let mut seen = Vec::new();
        for seed in 0..4 {
            let shown = present(&topo, &tm, &mut StdRng::seed_from_u64(seed));
            assert_eq!(aggregate_commodities(&topo, &shown), lowered);
            assert_ne!(shown.pairs(), tm.pairs());
            seen.push(shown.pairs().to_vec());
        }
        seen.dedup();
        assert_eq!(seen.len(), 4, "each seed presents the matrix differently");
    }
}
