//! The certificate core every multiplicative-weights loop in this crate
//! runs on.
//!
//! The four production loops — the pairwise FPTAS with and without its
//! reuse ladder (`crate::fptas`), the grouped solver
//! ([`crate::solve_grouped`]) and the frozen-path solver (`crate::ksp`)
//! — differ in how they *route*: which tree or path carries a step, in
//! what order loads are charged, what a residual looks like. What turns
//! a routing trajectory into a certificate is the same arithmetic in all
//! of them, and it lives here once:
//!
//! * **lengths** `l(a)`, grown by `1 + ε·sent/c(a)` in exactly one
//!   place ([`Core::grow`], which [`Core::step`] calls for every arc a
//!   capacity-scaled step touched) and rescaled uniformly past
//!   [`RESCALE_ABOVE`];
//! * the **step size** ε: the configured one, or a coarser opening
//!   value halved towards it as the gap closes (only the fast pairwise
//!   path opens coarse; for every other loop the schedule is inert);
//! * the **primal**: accumulated raw flow divided by its worst
//!   congestion `μ` ([`Core::congestion`]) is feasible by construction.
//!   "Accumulated" is a weighted sum, an [`Average`]: every step enters
//!   it at its current weight, and any non-negative combination of
//!   flows is a flow, so the argument does not care what the weights
//!   are. A core keeps one or more averages and every step enters all
//!   of them. The fast pairwise path keeps two, phase `t` at `√t` and
//!   at `t²`, so its coarse opening phases fade from both. A warm-started
//!   one opens on certified lengths at the configured ε, so it has no
//!   coarse ramp to fade, and keeps a third at 1.0 that holds its first
//!   phases at full weight. [`Pairwise::snapshot`] certifies whichever
//!   reads the largest λ. Every other loop keeps one at 1.0, where
//!   `1.0·x` is exact;
//! * the **dual**: `D(l)/α(l)` bounds λ* for *any* positive lengths, so
//!   every loop hands its `α` — however it harvested it — and the
//!   lengths it was read at to [`Core::note_dual`], which admits the
//!   bound only when it is finite, positive and below the best so far,
//!   and then keeps a copy of those lengths: the witness a solve returns
//!   as [`crate::SolvedFlow::dual_lengths`];
//! * the **stop rule** ([`Core::verdict`]): certified gap closed, or the
//!   primal has not improved by 0.05 % for `stall_phases` phases. A
//!   caller that reads the answer only through `λ ≥ floor` passes its
//!   floor, and the loop also stops as soon as that comparison is
//!   certified: the phase's primal is ≥ floor (safe), or the best dual
//!   is < floor (not safe, since `λ ≤ λ* ≤ dual`). Up to that stop the
//!   trajectory is the floorless one, so the returned λ — the best
//!   primal so far — decides the comparison exactly as a full solve
//!   would, and is ≤ the full solve's λ. Without a floor the rule is
//!   the gap-and-stall rule alone. [`Stop`] names which rule fired.
//!
//! Routing stays with the callers on purpose. They differ at a dozen
//! points and every float order in them is pinned bit for bit
//! (`tests/trajectory_pins.rs`), so one loop over routing *policies*
//! would have to branch on its caller. What a loop returns is checked
//! by code that shares nothing with this module:
//! [`dctopo_graph::certify`] re-derives every certificate in debug
//! builds.

use dctopo_graph::CsrNet;
use dctopo_obs as obs;

use crate::{Commodity, FlowOptions, SolvedFlow};

/// The dual bound `D(l)/α(l)` and shortest paths are invariant under
/// uniform scaling of all lengths, so lengths are rescaled whenever one
/// exceeds this, before overflow can corrupt the bound.
pub(crate) const RESCALE_ABOVE: f64 = 1e100;

/// How `x / c(a)` is evaluated — the one numeric difference between the
/// loops, fixed when a [`Core`] is built.
///
/// The two forms differ in the last place whenever `1/c(a)` is inexact,
/// and every trajectory is pinned bit for bit, so each loop keeps the
/// form it has always used. The `match` is on a loop-invariant `Copy`
/// value and inlines to a perfectly predicted branch, not a call.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cong {
    /// `x / c(a)`. The strict pairwise trajectory, whose pinned form
    /// divides; the grouped solver, which was written from it.
    Divide,
    /// `x * (1/c(a))` with the reciprocal [`CsrNet`] precomputes: the
    /// fast pairwise path and the frozen-path solver.
    Reciprocal,
}

impl Cong {
    #[inline]
    fn of(self, net: &CsrNet, a: usize, x: f64) -> f64 {
        match self {
            Cong::Divide => x / net.capacity(a),
            Cong::Reciprocal => x * net.inv_capacity(a),
        }
    }
}

/// Why a loop returned its best certificate — the deterministic `stop`
/// field of its trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// The certified gap closed.
    Gap,
    /// The primal plateaued for `stall_phases` phases.
    Stall,
    /// The caller's `λ ≥ floor` was certified either way.
    Floor,
    /// The phase budget ran out.
    Phases,
}

impl Stop {
    /// The name traces print.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Stop::Gap => "gap",
            Stop::Stall => "stall",
            Stop::Floor => "floor",
            Stop::Phases => "phases",
        }
    }
}

/// One weighted sum of a solve's steps — a primal candidate (see the
/// module docs). A step enters at `weight·sent` per arc, per commodity
/// and, when recorded, per commodity and arc, so the three stay one
/// conserved flow.
pub(crate) struct Average {
    /// What a unit of sent flow adds to the accumulators (not to the
    /// lengths, which grow by what was sent).
    pub(crate) weight: f64,
    /// Raw (pre-scaling) accumulated flow per arc.
    arc_flow: Vec<f64>,
    /// Raw amount routed per commodity (empty outside [`Pairwise`]).
    pub(crate) routed: Vec<f64>,
    /// Raw per-commodity arc flows, when the caller asked for them.
    pub(crate) record: Option<Vec<Vec<f64>>>,
}

/// Lengths, step size, the primal averages, the pending step's load,
/// the best dual bound and the plateau counters of one solve. See the
/// module docs.
pub(crate) struct Core<'n> {
    net: &'n CsrNet,
    cong: Cong,
    length: Vec<f64>,
    eps: f64,
    /// Every average takes every step; the first is the one loops that
    /// keep a single average read.
    averages: Vec<Average>,
    /// Load the pending step would put on each arc if it were sent in
    /// full, and the arcs where that is non-zero, in first-touch order.
    tree_load: Vec<f64>,
    touched: Vec<usize>,
    best_dual: f64,
    /// The lengths `best_dual` was read at (empty before the first).
    dual_lengths: Vec<f64>,
    last_primal: f64,
    stagnant: usize,
}

impl<'n> Core<'n> {
    /// A core over `net` starting from `length` (`None`: the cold
    /// `1/c(a)`) and step size `eps` (the configured ε, or a coarser
    /// one for [`Core::verdict`] to anneal down to it), keeping
    /// `averages` primal averages, each at weight 1.0 until set.
    pub(crate) fn new(
        net: &'n CsrNet,
        cong: Cong,
        length: Option<Vec<f64>>,
        eps: f64,
        averages: usize,
    ) -> Self {
        let arcs = net.arc_count();
        let average = || Average {
            weight: 1.0,
            arc_flow: vec![0.0; arcs],
            routed: Vec::new(),
            record: None,
        };
        Core {
            net,
            cong,
            length: length.unwrap_or_else(|| net.inv_capacities().to_vec()),
            eps,
            averages: (0..averages).map(|_| average()).collect(),
            tree_load: vec![0.0; arcs],
            touched: Vec::new(),
            best_dual: f64::INFINITY,
            dual_lengths: Vec::new(),
            last_primal: 0.0,
            stagnant: 0,
        }
    }

    /// The network this core routes on.
    pub(crate) fn net(&self) -> &'n CsrNet {
        self.net
    }

    /// Current step size.
    pub(crate) fn eps(&self) -> f64 {
        self.eps
    }

    /// The primal averages. The caller credits their per-commodity
    /// accumulators with the `weight·sent` [`Core::grow`] put on the
    /// arcs.
    pub(crate) fn averages_mut(&mut self) -> &mut [Average] {
        &mut self.averages
    }

    /// Current arc lengths.
    pub(crate) fn length(&self) -> &[f64] {
        &self.length
    }

    /// Smallest admitted dual bound so far (`∞` before the first).
    pub(crate) fn best_dual(&self) -> f64 {
        self.best_dual
    }

    /// Charge `r` units of the pending step to arc `a`.
    #[inline]
    pub(crate) fn load(&mut self, a: usize, r: f64) {
        if self.tree_load[a] == 0.0 {
            self.touched.push(a);
        }
        self.tree_load[a] += r;
    }

    /// Drop the pending step's load (its tree turned out stale).
    pub(crate) fn unload(&mut self) {
        for a in self.touched.drain(..) {
            self.tree_load[a] = 0.0;
        }
    }

    /// Send the pending load scaled by `τ = min(1, min_a c(a)/load(a))`,
    /// so no step puts more than `c(a)` on an arc, and return `τ`.
    /// `on_grow(a, old, new)` sees every length change.
    pub(crate) fn step(&mut self, mut on_grow: impl FnMut(usize, f64, f64)) -> f64 {
        let mut tau = 1.0f64;
        for &a in &self.touched {
            tau = tau.min(self.net.capacity(a) / self.tree_load[a]);
        }
        for i in 0..self.touched.len() {
            let a = self.touched[i];
            let old = self.length[a];
            self.grow(a, tau * self.tree_load[a]);
            on_grow(a, old, self.length[a]);
            self.tree_load[a] = 0.0;
        }
        self.touched.clear();
        tau
    }

    /// Put `sent` more raw flow on arc `a`, at each average's weight,
    /// and lengthen it by `1 + ε·sent/c(a)` — the only place a length
    /// grows, and by the unweighted `sent`: lengths never read the
    /// accumulators, so the weights reach routing only through the
    /// primal [`Core::verdict`] is handed.
    #[inline]
    pub(crate) fn grow(&mut self, a: usize, sent: f64) {
        for avg in &mut self.averages {
            avg.arc_flow[a] += avg.weight * sent;
        }
        self.length[a] *= 1.0 + self.eps * self.cong.of(self.net, a, sent);
    }

    /// `D(l) = Σ_a c(a)·l(a)` as one full pass.
    pub(crate) fn d_l(&self) -> f64 {
        let caps = self.net.capacities();
        self.length.iter().zip(caps).map(|(&l, &c)| l * c).sum()
    }

    /// Admit `d_l / alpha`, read at the lengths `at` (`None`: the
    /// core's own), as the dual bound if it is one (degenerate ratios —
    /// `α = 0` before any growth, an overflowed sum — are not) and is
    /// below the best so far, and then keep a copy of those lengths;
    /// returns the ratio either way, for telemetry.
    pub(crate) fn note_dual(&mut self, d_l: f64, alpha: f64, at: Option<&[f64]>) -> f64 {
        let bound = d_l / alpha;
        if bound.is_finite() && bound > 0.0 && bound < self.best_dual {
            self.best_dual = bound;
            self.dual_lengths.clear();
            self.dual_lengths
                .extend_from_slice(at.unwrap_or(&self.length));
        }
        bound
    }

    /// The lengths the best dual bound was read at, leaving the core
    /// without them.
    pub(crate) fn take_dual_lengths(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.dual_lengths)
    }

    /// Rescale all lengths by `1/max` once one exceeds
    /// [`RESCALE_ABOVE`]; says whether it did (stored distances are
    /// then in stale units).
    pub(crate) fn rescale(&mut self) -> bool {
        let max_len = self.length.iter().copied().fold(0.0f64, f64::max);
        if max_len <= RESCALE_ABOVE {
            return false;
        }
        let inv = 1.0 / max_len;
        for l in self.length.iter_mut() {
            *l *= inv;
        }
        true
    }

    /// Worst congestion `μ = max_a flow(a)/c(a)` of average `i`'s raw
    /// flow, floored away from zero so the first phases can divide by it.
    pub(crate) fn congestion(&self, i: usize) -> f64 {
        let worst = self.averages[i]
            .arc_flow
            .iter()
            .enumerate()
            .map(|(a, &f)| self.cong.of(self.net, a, f))
            .fold(0.0f64, f64::max);
        worst.max(1e-300)
    }

    /// Average `i`'s raw flow scaled down to feasibility by `mu`.
    pub(crate) fn feasible_flow(&self, i: usize, mu: f64) -> Vec<f64> {
        self.averages[i].arc_flow.iter().map(|&f| f / mu).collect()
    }

    /// Stop when `primal` is within `target_gap` of the best dual, or
    /// has not grown by 0.05 % for `stall_phases` phases (it is
    /// certified feasible regardless; what is left of the gap may sit
    /// on either side — on dense demand the primal stalls far below
    /// λ*), or — given a `floor` — once `primal ≥
    /// floor` or `best dual < floor` has decided `λ ≥ floor`. A step
    /// size still coarser than the configured one is halved instead —
    /// once the certified gap has shrunk to its own order, which it
    /// cannot certify much past, or after ten stalled phases — and the
    /// count restarts. `None` keeps routing.
    pub(crate) fn verdict(
        &mut self,
        primal: f64,
        opts: &FlowOptions,
        phases: usize,
        floor: Option<f64>,
    ) -> Option<Stop> {
        if primal >= (1.0 - opts.target_gap) * self.best_dual {
            return Some(Stop::Gap);
        }
        if floor.is_some_and(|floor| primal >= floor || self.best_dual < floor) {
            return Some(Stop::Floor);
        }
        if primal >= (1.0 - self.eps) * self.best_dual {
            self.anneal(opts, phases, "gap");
        }
        if primal > self.last_primal * 1.0005 {
            self.last_primal = primal;
            self.stagnant = 0;
            return None;
        }
        self.stagnant += 1;
        if self.stagnant >= 10usize.min(opts.stall_phases) && self.anneal(opts, phases, "stall") {
            return None;
        }
        (self.stagnant >= opts.stall_phases).then_some(Stop::Stall)
    }

    /// Halve a step size that is still above the configured one and
    /// restart the plateau count; says whether there was one to halve.
    /// Both certificates hold at every step size, so annealing changes
    /// the trajectory, never the guarantees.
    fn anneal(&mut self, opts: &FlowOptions, phases: usize, reason: &'static str) -> bool {
        if self.eps <= opts.epsilon {
            return false;
        }
        let next = (self.eps * 0.5).max(opts.epsilon);
        if obs::enabled() {
            obs::Event::new("fptas_anneal")
                .field("phase", phases as u64)
                .field("from", self.eps)
                .field("to", next)
                .field("reason", reason)
                .emit();
        }
        self.eps = next;
        self.stagnant = 0;
        true
    }
}

/// The per-commodity side of a pairwise solve: the best feasible
/// solution seen so far, and which average and phase it came from.
pub(crate) struct Pairwise<'c> {
    commodities: &'c [Commodity],
    /// The best solution so far. Its buffers are overwritten in place
    /// each time a phase beats it, so a solve allocates them once.
    best: SolvedFlow,
    /// The phase `best` was snapshotted after (0 before the first), and
    /// the index of the average it was read from.
    best_phase: usize,
    best_from: usize,
}

impl<'c> Pairwise<'c> {
    /// Give each of `core`'s averages its per-commodity accumulators:
    /// the amount routed and, when the caller asked for it, the arc
    /// record.
    pub(crate) fn new(commodities: &'c [Commodity], core: &mut Core, opts: &FlowOptions) -> Self {
        let arcs = core.net.arc_count();
        let record = opts.record_commodity_flows;
        for avg in core.averages_mut() {
            avg.routed = vec![0.0; commodities.len()];
            avg.record = record.then(|| vec![vec![0.0; arcs]; commodities.len()]);
        }
        Pairwise {
            commodities,
            best: SolvedFlow {
                throughput: 0.0,
                upper_bound: f64::INFINITY,
                arc_flow: Vec::new(),
                commodity_rate: Vec::new(),
                phases: 0,
                settles: 0,
                commodity_arc_flow: record.then(|| vec![Vec::new(); commodities.len()]),
                dual_lengths: Vec::new(),
            },
            best_phase: 0,
            best_from: 0,
        }
    }

    /// The certified primal after phase `phase` — the largest over the
    /// averages of `min_j routed_j / (μ·d_j)`, the earliest winning a
    /// tie — copying that average's scaled solution into the best
    /// whenever it beats it.
    pub(crate) fn snapshot(&mut self, core: &Core, phase: usize) -> f64 {
        let (mut from, mut mu, mut primal) = (0, 0.0, 0.0);
        for (i, avg) in core.averages.iter().enumerate() {
            let m = core.congestion(i);
            let p = (self.commodities.iter().zip(&avg.routed))
                .map(|(c, &r)| r / (m * c.demand))
                .fold(f64::INFINITY, f64::min);
            if i == 0 || p > primal {
                (from, mu, primal) = (i, m, p);
            }
        }
        if self.best_phase == 0 || primal > self.best.throughput {
            let (avg, best) = (&core.averages[from], &mut self.best);
            best.throughput = primal;
            scale_into(&mut best.arc_flow, &avg.arc_flow, mu);
            scale_into(&mut best.commodity_rate, &avg.routed, mu);
            if let (Some(out), Some(record)) = (&mut best.commodity_arc_flow, &avg.record) {
                for (out, raw) in out.iter_mut().zip(record) {
                    scale_into(out, raw, mu);
                }
            }
            (self.best_phase, self.best_from) = (phase, from);
        }
        primal
    }

    /// The phase whose snapshot [`Pairwise::finish`] returns, and the
    /// index of the average it was read from.
    pub(crate) fn best_of(&self) -> (usize, usize) {
        (self.best_phase, self.best_from)
    }

    /// The best solution, stamped with the solve's final dual bound, its
    /// lengths and the work counters.
    pub(crate) fn finish(self, core: &mut Core, phases: usize, settles: u64) -> SolvedFlow {
        assert!(self.best_phase > 0, "at least one phase ran");
        let mut sol = self.best;
        sol.upper_bound = core.best_dual();
        sol.dual_lengths = core.take_dual_lengths();
        sol.phases = phases;
        sol.settles = settles;
        sol
    }
}

/// Overwrite `out` with `raw / mu`, element by element, in its own
/// buffer.
fn scale_into(out: &mut Vec<f64>, raw: &[f64], mu: f64) {
    out.clear();
    out.extend(raw.iter().map(|&f| f / mu));
}
