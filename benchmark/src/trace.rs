//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! it makes into each layer; nothing inside the program under test is
//! instrumented. Because internals are invisible from outside, the
//! harness re-issues an op's calls into lower layers *after* the op as
//! **probe** spans. A probe's duration is measured, its position is
//! not: probes are laid end to end inside the span they explain,
//! starting at that span's start, and the clock spans read from stands
//! still while a probe runs — so a replay's span stays as long as the
//! replay's own work, and a span's self time (its duration minus what
//! its children cover) can be read off the tree.

use std::time::Instant;

use dctopo_obs::json::Json;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds on the tracer's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: String,
    pub layer: &'static str,
    pub replay: usize,
    pub op: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub probe: bool,
}

/// A per-layer measurement taken by a probe, e.g.
/// `("graph.dijkstra_ns_per_settle", 21.4, "ns")`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub replay: usize,
}

/// What [`Tracer::span`] hands back: the closure's result, how long it
/// took on the real clock, and the span's id (meaningless when the
/// tracer is off).
pub struct Timed<T> {
    pub out: T,
    pub ns: u64,
    pub id: SpanId,
}

/// The recorder. When off, [`Tracer::span`] still times its closure —
/// the untraced run uses the same code path and pays one branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Real nanoseconds the span clock has skipped (time inside probes).
    skipped_ns: u64,
    /// Ids of the spans currently open, innermost last.
    open: Vec<SpanId>,
    /// Per span: where its next probe child starts.
    cursor: Vec<u64>,
    probing: bool,
    replay: usize,
    op: Option<usize>,
    pub spans: Vec<Span>,
    pub metrics: Vec<LayerMetric>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            skipped_ns: 0,
            open: Vec::new(),
            cursor: Vec::new(),
            probing: false,
            replay: 0,
            op: None,
            spans: Vec::new(),
            metrics: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Index of the traced replay in progress.
    pub fn replay(&self) -> usize {
        self.replay
    }

    pub fn set_replay(&mut self, replay: usize) {
        self.replay = replay;
    }

    /// Tag the spans that follow with an op index (`None` between ops).
    pub fn set_op(&mut self, op: Option<usize>) {
        self.op = op;
    }

    fn real_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn now_ns(&self) -> u64 {
        self.real_ns() - self.skipped_ns
    }

    fn open_span(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
    ) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            layer,
            replay: self.replay,
            op: self.op,
            start_ns,
            end_ns: start_ns,
            probe: self.probing,
        });
        self.cursor.push(start_ns);
        self.open.push(id);
        id
    }

    fn close_span(&mut self, id: SpanId) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` as a span named `name` in `layer`, child of the innermost
    /// open span.
    pub fn span<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> Timed<T> {
        if !self.on {
            let t = Instant::now();
            let out = f(self);
            return Timed {
                out,
                ns: t.elapsed().as_nanos() as u64,
                id: 0,
            };
        }
        let parent = self.open.last().copied();
        let id = self.open_span(name, layer, parent, self.now_ns());
        let out = f(self);
        self.close_span(id);
        Timed {
            out,
            ns: self.spans[id].end_ns - self.spans[id].start_ns,
            id,
        }
    }

    /// Run `f` as a probe span explaining the closed span `parent`
    /// (`None` for a stand-alone probe that belongs to no replay tree).
    /// Spans opened inside `f` nest normally and are marked as probes
    /// too. Only meaningful while the tracer is on.
    pub fn probe<T>(
        &mut self,
        parent: Option<SpanId>,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> Timed<T> {
        if !self.on || self.probing {
            // a probe inside a probe is an ordinary child span
            return self.span(name, layer, f);
        }
        let entered = self.real_ns();
        let resume = self.skipped_ns;
        let at = parent.map_or(entered - resume, |p| self.cursor[p]);
        // move the span clock to `at` for the duration of the probe
        self.skipped_ns = entered - at;
        self.probing = true;
        let outer = std::mem::take(&mut self.open);
        let id = self.open_span(name, layer, parent, at);
        let out = f(self);
        self.close_span(id);
        self.open = outer;
        self.probing = false;
        if let Some(p) = parent {
            self.cursor[p] = self.spans[id].end_ns;
        }
        // the replay's clock resumes where it stopped
        self.skipped_ns = resume + (self.real_ns() - entered);
        Timed {
            out,
            ns: self.spans[id].end_ns - self.spans[id].start_ns,
            id,
        }
    }

    /// Record a per-layer measurement for the current replay.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if self.on {
            self.metrics.push(LayerMetric {
                name,
                value,
                unit,
                replay: self.replay,
            });
        }
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let opt = |v: Option<usize>| v.map_or(Json::Null, Json::from);
            let line = Json::Obj(vec![
                ("id".into(), s.id.into()),
                ("parent".into(), opt(s.parent)),
                ("name".into(), s.name.as_str().into()),
                ("layer".into(), s.layer.into()),
                ("workload".into(), workload.into()),
                ("replay".into(), s.replay.into()),
                ("op".into(), opt(s.op)),
                ("start_ns".into(), s.start_ns.into()),
                ("end_ns".into(), s.end_ns.into()),
                ("probe".into(), s.probe.into()),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. A child counts only for the part of its
/// interval that lies inside its parent's (a probe that ran longer than
/// the op it explains cannot explain more than the op), and overlapping
/// children are counted once — so the self times of a tree add up to
/// the duration of its root.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // the part of each span inside all of its ancestors; parents are
    // recorded before their children
    let mut inside: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        let mut at = (s.start_ns, s.end_ns);
        if let Some(p) = s.parent {
            let (lo, hi) = inside[p];
            at = (at.0.clamp(lo, hi), at.1.clamp(lo, hi));
            children[p].push(at);
        }
        inside.push(at);
    }
    inside
        .iter()
        .zip(&mut children)
        .map(|(&(start, end), kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = start;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (end - start) - covered
        })
        .collect()
}

/// Self time per layer inside the tree under `root`, in nanoseconds,
/// sorted by layer name.
pub fn layer_self_times(spans: &[Span], root: SpanId) -> Vec<(&'static str, u64)> {
    let own = self_times(spans);
    let mut in_tree = vec![false; spans.len()];
    in_tree[root] = true;
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    // parents are recorded before their children, so one pass suffices
    for s in spans {
        if s.parent.is_some_and(|p| in_tree[p]) {
            in_tree[s.id] = true;
        }
        if in_tree[s.id] {
            match totals.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, t)) => *t += own[s.id],
                None => totals.push((s.layer, own[s.id])),
            }
        }
    }
    totals.sort_unstable();
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, layer: &'static str, at: (u64, u64)) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer,
            replay: 0,
            op: None,
            start_ns: at.0,
            end_ns: at.1,
            probe: false,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(0, None, "core", (0, 100)),
            span(1, Some(0), "flow", (10, 50)),
            span(2, Some(0), "flow", (30, 70)), // overlaps span 1 on [30, 50)
            span(3, Some(0), "graph", (60, 65)), // inside span 2
            span(4, Some(0), "graph", (90, 140)), // runs past the parent
            span(5, Some(1), "graph", (10, 20)),
        ];
        let own = self_times(&spans);
        // children cover [10, 70) and [90, 100): 70 of the parent's 100
        assert_eq!(own[0], 30);
        assert_eq!(own[1], 30);
        assert_eq!(own[2], 40);
        assert_eq!(own[4], 10, "only the part inside the parent counts");
        assert_eq!(own[5], 10);
    }

    #[test]
    fn self_time_of_disjoint_children_sums_to_the_root() {
        let spans = vec![
            span(0, None, "dcbench", (0, 1000)),
            span(1, Some(0), "core", (100, 400)),
            span(2, Some(0), "core", (400, 900)),
            span(3, Some(1), "flow", (100, 350)),
            span(4, Some(3), "graph", (100, 180)),
            span(5, None, "cli", (0, 5000)), // stand-alone probe, not in the tree
        ];
        let layers = layer_self_times(&spans, 0);
        assert_eq!(
            layers,
            vec![
                ("core", 550),
                ("dcbench", 200),
                ("flow", 170),
                ("graph", 80)
            ]
        );
        assert_eq!(layers.iter().map(|(_, t)| t).sum::<u64>(), 1000);
    }

    #[test]
    fn probes_stop_the_clock_and_line_up_inside_their_parent() {
        let mut tr = Tracer::new(true);
        let spin = |ms: u64| {
            let t = Instant::now();
            while t.elapsed().as_millis() < u128::from(ms) {
                std::hint::spin_loop();
            }
        };
        // every assertion below holds however the host schedules this
        // thread: a busy host stretches spans, it cannot reorder them
        let started = Instant::now();
        let mut probed_ns = 0;
        let root = tr.span("replay", "dcbench", |tr| {
            let op = tr.span("op", "core", |_| spin(4)).id;
            let a = tr.probe(Some(op), "a", "flow", |tr| {
                tr.span("inner", "graph", |_| spin(1));
                spin(1);
            });
            let b = tr.probe(Some(op), "b", "flow", |_| spin(1));
            assert!(a.ns >= 2_000_000 && b.ns >= 1_000_000);
            probed_ns = a.ns + b.ns;
            tr.span("op2", "core", |_| spin(1));
        });
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        let s = &tr.spans;
        let (op, a, inner, b, op2) = (&s[1], &s[2], &s[3], &s[4], &s[5]);
        // probes start at the parent's start and follow one another
        assert_eq!(a.start_ns, op.start_ns);
        assert_eq!(b.start_ns, a.end_ns);
        assert!(a.probe && inner.probe && b.probe && !op.probe && !op2.probe);
        assert_eq!(inner.parent, Some(a.id));
        assert!(inner.start_ns >= a.start_ns && inner.end_ns <= a.end_ns);
        // the clock stood still while the probes ran: the replay's span
        // is shorter than the real time by at least the probes
        assert!(tr.skipped_ns >= probed_ns);
        assert!(root.ns + probed_ns <= elapsed_ns);
        assert!(op2.start_ns >= op.end_ns);
        let own = self_times(s);
        let total: u64 = layer_self_times(s, root.id).iter().map(|(_, t)| t).sum();
        assert_eq!(total, s[root.id].end_ns - s[root.id].start_ns);
        // the probes explain the op from its start up to where they end
        let explained = b.end_ns.min(op.end_ns) - op.start_ns;
        assert_eq!(own[op.id], (op.end_ns - op.start_ns) - explained);
    }

    #[test]
    fn an_idle_tracer_still_times_and_records_nothing() {
        let mut tr = Tracer::new(false);
        let t = tr.span("op", "core", |tr| {
            tr.metric("core.lower_us", 1.0, "us");
            7
        });
        assert_eq!(t.out, 7);
        assert!(tr.spans.is_empty() && tr.metrics.is_empty());
    }
}
