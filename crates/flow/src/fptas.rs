//! The Garg–Könemann / Fleischer FPTAS for max concurrent flow over the
//! shared [`CsrNet`], with certified primal and dual bounds,
//! phase-parallel shortest-path computation, and an incremental
//! shortest-path fast path.
//!
//! ## Sketch
//!
//! Maintain a length `l(a)` per arc, initially `1/c(a)`. In each *phase*,
//! route every commodity's demand along shortest paths under the current
//! lengths, multiplying the length of every used arc `a` by
//! `1 + ε·(sent_a / c(a))`; congested arcs grow exponentially long, so
//! later flow avoids them. The accumulated (infeasible) flow divided by
//! its maximum congestion is feasible — and "accumulated" may be any
//! non-negative weighted sum of the per-step flows, which is still a
//! flow: the fast path keeps two such sums, crediting phase `t` at
//! weight `√t` in one and `t²` in the other, so the coarse single-path
//! flows it opens with fade from the average instead of holding λ down
//! for the whole solve, and certifies the better. A warm-started solve
//! has no coarse opening and keeps a third, uniform sum beside them.
//! LP duality gives the upper bound `λ* ≤ D(l)/α(l)` for *any*
//! positive lengths `l`, where `D(l) = Σ_a c(a)·l(a)` and
//! `α(l) = Σ_j d_j · dist_l(s_j, t_j)`.
//! A phase routes every demand once, so the lengths grow by about
//! `e^(ε/λ*)` a phase: on dense demand (λ* ≪ 1) a phase is a long run
//! of saturating steps and the loop stalls far below λ*. The bound the
//! opening tree pass reads, `u₀ = D(l)/α(l)` at the opening lengths —
//! flat on a cold start, the certificate's on a warm one, where `u₀ ≈
//! λ*` — is handed to `gk::Core::normalise`; outside `[1/4, 8]` every
//! phase routes `s·d` for the power of two `s` nearest `2·u₀`, so λ* is
//! about ½ in the phases' unit. λ and the bound stay in the caller's units
//! (`gk.rs`). The loop takes no other estimate: the first phase's primal
//! also fires on the sparse hot-spot demand of `dcbench`'s
//! `pairwise-solve`, where it trades 0.5 % of the settles for 1.2 % more
//! `mean_gap`.
//! We track the best (smallest) dual bound seen and stop as soon as the
//! certified primal/dual gap is below `target_gap`. The fast path
//! evaluates the bound at two length functions — the last iterate every
//! phase and, every few phases, the running mean of the iterates, which
//! is where a multiplicative-weights method converges — and "best" is
//! over both. All of that arithmetic is `gk::Core`'s (see `gk.rs`);
//! this module decides which tree each augmentation is charged along
//! and which lengths the bound is evaluated at.
//!
//! ## One loop, two tree policies
//!
//! Commodities are grouped by source and routed *sequentially in fixed
//! group order* by one loop, `solve_pairwise`, whose tree policy is an
//! `Option<Ladder>` chosen by [`crate::FlowOptions::strict_reference`].
//! Every point where the two trajectories differ is one `match` on that
//! option:
//!
//! * **`Some(Ladder)` — the fast path (default).** Each source group
//!   keeps a *full* shortest-path tree in its [`DijkstraWorkspace`] and
//!   routes against it through a three-tier reuse ladder (see
//!   [`Ladder`]): exact reuse of untouched paths (increase-only lengths
//!   keep them *exactly* shortest), Fleischer `(1+ε·δ)` drift tolerance
//!   for touched ones, and [`CsrNet::dijkstra_repair`] — an
//!   increase-only incremental re-settle of just the drifted subtree,
//!   seeded with the tree arcs whose update stamp is newer than the
//!   group's cursor — beyond the gate. Every few phases all trees are
//!   rebuilt in one **rayon-parallel** exact pass, the dual bound is
//!   harvested every phase for free from the (possibly mixed-age)
//!   trees, `D(l)` is
//!   maintained incrementally as lengths grow (verified against the
//!   full sum in debug builds), and the step size ε anneals from coarse
//!   to the configured value as the certified gap closes. A second
//!   dual candidate rides along: the ladder keeps the decayed running
//!   mean of the iterates `l/D(l)` and every [`MEAN_DUAL_EVERY`]-th
//!   phase evaluates `D(mean)/α(mean)` with one tree per group in a
//!   scratch workspace of its own. On chunky traffic the last-iterate
//!   bound plateaus a few percent above λ* while the primal creeps up
//!   to it; the mean-length bound does not, and the solve stops on its
//!   gap in a third of the phases instead of on the stall rule. The
//!   primal is averaged too, polynomially instead of by decay, and
//!   twice (`primal_weight`): each phase certifies the larger λ of the
//!   √phase and the phase² average, and a warm-started solve, whose
//!   first phases already route on certified lengths, also that of a
//!   uniform average. Lengths grow by what was sent and never read the
//!   accumulators, so routing is the same until the stop rule or the
//!   ε-anneal acts on the larger λ. None of this bends
//!   correctness: the primal stays feasible by construction (a
//!   non-negative combination of capacity-scaled steps, divided by its
//!   own worst congestion) and `D(l)/α(l)` upper-bounds λ* for *any*
//!   positive lengths, so the reported gap is certified no matter how
//!   the trajectory was chosen.
//! * **`None` — the strict path** (`strict_reference: true`). The fast
//!   path with the ladder taken out: every inner augmentation recomputes
//!   the group's shortest-path tree under the current lengths with
//!   target-set early termination, ε is fixed, the exact `α(l)` pass
//!   runs every eighth phase, and congestion is `x / c(a)` —
//!   operation-for-operation the textbook Garg–Könemann loop, which
//!   `tests/gk_model.rs` keeps as a model over the adjacency-list
//!   [`dctopo_graph::Graph`] and pins this path against bit for bit.
//!
//! Every multi-tree pass (the strict dual pass, the ladder's batched
//! rebuilds) writes into disjoint per-group workspaces and fans out on
//! **rayon** (the mean-length pass is the exception: one scratch
//! workspace, group after group, so pool width cannot reach it), with every floating-point reduction performed sequentially
//! in fixed group order — so a seeded run is **bit-identical at every
//! thread count**. Routing itself is kept sequential deliberately:
//! length updates are a serial dependency, and routing on stale length
//! snapshots (the obvious way to parallelise it) measurably slows
//! convergence — more phases to reach `target_gap` than the parallel
//! passes save.

use std::collections::HashMap;

use dctopo_graph::{CsrNet, DijkstraWorkspace, NodeId};
use dctopo_obs as obs;
use rayon::prelude::*;

use crate::gk::{Cong, Core, Pairwise, Stop, RESCALE_ABOVE};
use crate::{Commodity, FlowError, FlowOptions, SolvedFlow};

/// Minimum `source groups × arcs` before a multi-tree pass fans out on
/// rayon; below this, even a pool dispatch costs more than the pass.
/// Rayon's persistent worker pool made fan-out ~two orders of magnitude
/// cheaper than the scoped-thread spawning this gate was originally
/// calibrated for (65536), so instances as small as a 32-switch RRG now
/// take the parallel path.
const PARALLEL_DUAL_MIN_WORK: usize = 1 << 12;

/// Strict path: evaluate the exact dual every this many phases (it
/// changes slowly and costs a Dijkstra per source group).
const STRICT_DUAL_EVERY: usize = 8;

/// Normalize a previous certificate's dual lengths into a valid
/// initial length function for `net`, or `None` when they are unusable
/// (empty, or sized for a different arc space) and the solve should
/// start cold.
///
/// The dual bound and shortest paths are invariant under uniform
/// scaling, so the lengths are re-anchored to the cold-start gauge:
/// scaled so the minimum of `l(a)·c(a)` over live arcs is 1 (cold start
/// has `l·c = 1` everywhere). Per-arc healing keeps the function
/// strictly positive on live arcs no matter what the previous view did:
/// non-finite/non-positive entries (e.g. arcs that were disabled in the
/// view the lengths were learned on) fall back to the cold `1/c(a)`,
/// dead arcs get 0.0 (never traversed), and survivors clamp at
/// [`RESCALE_ABOVE`] like any in-solve length.
fn warm_lengths(net: &CsrNet, warm: &[f64]) -> Option<Vec<f64>> {
    if warm.len() != net.arc_count() {
        return None;
    }
    let caps = net.capacities();
    let mut anchor = f64::INFINITY;
    for (a, &l) in warm.iter().enumerate() {
        if caps[a] > 0.0 && l.is_finite() && l > 0.0 {
            anchor = anchor.min(l * caps[a]);
        }
    }
    if !(anchor.is_finite() && anchor > 0.0) {
        return None;
    }
    let scale = 1.0 / anchor;
    let out: Vec<f64> = warm
        .iter()
        .enumerate()
        .map(|(a, &l)| {
            if caps[a] <= 0.0 {
                0.0
            } else if l.is_finite() && l > 0.0 {
                (l * scale).min(RESCALE_ABOVE)
            } else {
                net.inv_capacity(a)
            }
        })
        .collect();
    Some(out)
}

/// Fast path: opening (coarse) step size of the annealing schedule.
/// Solves whose configured ε is already coarser start there instead.
/// Calibrated on RRG(64, 12, 8) permutation sweeps — the instance of
/// `fptas_fast_path_settles_less_on_rrg_sweep_matrix` (`tests/properties.rs`).
const COARSE_EPS: f64 = 0.55;

/// Fast path: the weights at which phase `t`'s flow enters the primal
/// averages (`gk::Average`): `t^p` for `p = ½` and `p = 2`, and, in a
/// warm-started solve only, the uniform `p = 0`. Each phase certifies
/// the largest λ of them, the earlier average on a tie. A uniform
/// average keeps the single-path flows of the [`COARSE_EPS`] opening
/// phases at full weight for the whole solve, diluted only as `1/T`; a
/// growing weight lets them fade the way [`MEAN_DUAL_DECAY`] forgets
/// the flat opening lengths on the dual side. Sized on dcbench's
/// deterministic counters (the same on every host), one average per row
/// but the last two:
///
/// | `p`  | `pairwise-solve` settles | `sweep-grid` settles | `serve-whatif` phases |
/// |------|-----------:|-----------:|------:|
/// | 0    | 2,413,027 | 1,929,818 | 2,233 |
/// | 0.25 | 1,878,921 | 1,358,299 | 2,100 |
/// | 0.35 | 1,665,099 | 1,312,788 | 1,969 |
/// | 0.4  | 1,585,544 | 1,268,615 | 1,991 |
/// | 0.5  | 1,594,095 | 1,177,777 | 1,971 |
/// | 0.6  | 1,604,622 | 1,145,359 | 2,081 |
/// | 0.65 | 1,631,328 | 1,063,678 | 2,182 |
/// | 0.75 | 1,705,401 | 1,050,394 | 2,195 |
/// | 1    | 1,898,248 |   999,227 | 2,393 |
/// | 1.5  | 1,996,234 |   933,966 | 2,615 |
/// | 2    | 2,650,995 |   988,983 | 2,979 |
/// | ½ and 2, the better | 1,594,095 | 940,586 | 1,794 |
/// | **½ and 2; warm: ½, 2 and 0, the best** | **1,594,095** | **940,586** | **1,422** |
///
/// The single-average rows were read before warm starts opened on the
/// certified dual lengths; `½` alone reads 1,791 `serve-whatif` phases
/// since. Steeper weights help cold solves with a long coarse ramp
/// (`sweep-grid`) and hurt warm-started ones, which open on good
/// lengths and want their early phases (`serve-whatif`). Two averages
/// serve the cold solves: `½` still decides every `pairwise-solve`
/// stop, `2` lifts λ past it on the long cold solves. A warm start
/// opens at the configured ε on certified lengths ([`Ladder::opener`]),
/// so its first phases are no ramp, and the uniform average, which
/// keeps them at full weight, decides every warm stop of a
/// `serve-whatif` replay; the two `fptas-warm` trajectory pins, longer
/// solves, are still decided by `2`. `pairwise-solve` solves cold only,
/// so its column repeats the row above's; so did `sweep-grid`'s while
/// every sweep cell solved cold. Since its degraded FPTAS cells open on
/// their undegraded sibling's certificate (`dctopo_core::sweep`) the
/// grid reads 712,712.
/// `f64::sqrt` is correctly rounded on every host where a libm `powf`
/// is not, and `t²` is exact — the solver's pinned trajectories call no
/// libm function.
fn primal_weight(phase: usize) -> [f64; 3] {
    [(phase as f64).sqrt(), (phase * phase) as f64, 1.0]
}

/// The trace names of [`primal_weight`]'s averages, in its order; a
/// cold solve keeps the first two.
const PRIMAL_FROM: [&str; 3] = ["sqrt", "square", "uniform"];

/// Fast path: rebuild every tree (making that phase's dual bound the
/// exact `D(l)/α(l)`) every this many phases. Between exact passes
/// trees are only repaired lazily by the routing ladder and the
/// per-phase dual bound is the valid mixed-age lower-bound form.
const EXACT_PASS_EVERY: usize = 2;

/// Fast path: tier-2 tolerates a touched path while its current length
/// is within `1 + ε·DRIFT_FRACTION` of the tree-time distance. Measured
/// cliff: fractions ≥ ~0.75 let groups keep loading paths competitors
/// already saturated and the phase count explodes; 0.5 is the sweet
/// spot between skipped rebuilds and routing reactivity.
const DRIFT_FRACTION: f64 = 0.5;

/// Fast path: decay `ρ` of the running mean of the length iterates,
/// `mean ← ρ·mean + l/D(l)` once a phase. A multiplicative-weights loop
/// converges in the *average* of its iterates, so `D(mean)/α(mean)` is
/// the tighter certificate; `ρ < 1` forgets the flat opening lengths
/// that a plain mean would carry for the whole solve. Normalising each
/// iterate by its own `D(l)` weighs them equally however far the
/// lengths have grown, and makes a uniform rescale invisible. Sized together
/// with [`MEAN_DUAL_EVERY`] and [`MEAN_DUAL_FROM`] on the settles of
/// dcbench's `pairwise-solve` (RRG(64, 12, 8); two permutations,
/// `chunky:50`, `hotspot:8`; 6.14 M without this candidate): sixteen
/// points of ρ ∈ {0.9, 0.95, 0.98, 1.0} × every ∈ {2, 4, 8} × from ∈
/// {4, 8, 16} read 2.28 M to 2.80 M and this one 2.41 M, so the choice
/// is flat; what moves it is `every` (2: +10 to 16 %, 8: −5 %). Table
/// in `docs/PERF_NOTES.md`, *The averaged dual*.
const MEAN_DUAL_DECAY: f64 = 0.95;

/// Fast path: evaluate the dual at the mean lengths every this many
/// phases. A pass is one tree per source group — on a 64-switch fabric,
/// where stopping at the last sink saves little, as many settles as an
/// exact pass, and 11 % of a solve's at this spacing — and the mean
/// moves slowly.
const MEAN_DUAL_EVERY: usize = 4;

/// Fast path: first phase that evaluates the dual at the mean lengths.
/// Before it the mean is mostly the flat opener and bounds nothing the
/// last iterate does not; a solve that stops earlier is bit-identical
/// to one without the second candidate.
const MEAN_DUAL_FROM: usize = 8;

/// One source group: commodities sharing a source, plus the group's
/// persistent Dijkstra scratch state.
struct GroupState {
    src: NodeId,
    /// (commodity index, dst, demand)
    sinks: Vec<(usize, NodeId, f64)>,
    /// Unique sink nodes: the strict path's Dijkstra stops once all of
    /// them are settled (the ladder keeps full trees instead).
    targets: Vec<u32>,
    /// Per-group scratch: written by the parallel passes, read by
    /// routing. Under the ladder it holds the group's persistent
    /// shortest-path tree.
    ws: DijkstraWorkspace,
    /// Per-sink demand left to route in the current phase.
    remaining: Vec<f64>,
}

/// What lets the ladder keep routing on a tree older than the lengths:
/// the group's `cursor`, the per-arc update stamps and the drift factor.
type Gate<'l> = (usize, &'l [usize], f64);

impl GroupState {
    /// Charge every unfinished sink's remaining demand along its path in
    /// the stored tree. With a `gate`, stop at the first path that an
    /// update since the tree was built has stretched past the drift
    /// factor — `Ok(false)`: the tree is stale — leaving the partial
    /// load for the caller to drop.
    fn load_paths(&self, core: &mut Core, gate: Option<Gate>) -> Result<bool, FlowError> {
        let residue = core.residue();
        for (k, &(_, dst, _)) in self.sinks.iter().enumerate() {
            let r = self.remaining[k];
            if r <= residue {
                continue;
            }
            let dist = self.ws.distance(dst);
            if !dist.is_finite() {
                return Err(FlowError::Unreachable { src: self.src, dst });
            }
            let mut plen = 0.0f64;
            let mut hit = false;
            self.ws.walk_path(core.net(), dst, |a| {
                core.load(a, r);
                if let Some((cursor, updated_at, _)) = gate {
                    plen += core.length()[a];
                    hit |= grew_since(updated_at, a, cursor);
                }
            });
            // tier 1: an untouched path is still exactly shortest;
            // tier 2: touched but within the gate
            if gate.is_some_and(|(_, _, drift)| hit && plen > drift * dist) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

fn group_by_source(commodities: &[Commodity], n: usize) -> Vec<GroupState> {
    let mut groups: Vec<GroupState> = Vec::new();
    // hash-map index over sources; `groups` itself preserves first-seen
    // source order, so grouping stays stable while lookup is O(1)
    // (the old linear rescan was quadratic on all-to-all matrices)
    let mut index: HashMap<NodeId, usize> = HashMap::with_capacity(commodities.len().min(n));
    for (i, c) in commodities.iter().enumerate() {
        match index.get(&c.src) {
            Some(&gi) => groups[gi].sinks.push((i, c.dst, c.demand)),
            None => {
                index.insert(c.src, groups.len());
                groups.push(GroupState {
                    src: c.src,
                    sinks: vec![(i, c.dst, c.demand)],
                    targets: Vec::new(),
                    ws: DijkstraWorkspace::new(n),
                    remaining: Vec::new(),
                });
            }
        }
    }
    for g in &mut groups {
        g.remaining = vec![0.0; g.sinks.len()];
        g.targets = g.sinks.iter().map(|&(_, dst, _)| dst as u32).collect();
        g.targets.sort_unstable();
        g.targets.dedup();
    }
    groups
}

/// The [`crate::Backend::Fptas`] arm of the backend dispatch, which has
/// validated `commodities` and `opts`: solve on `net` with the
/// phase-parallel FPTAS — the incremental fast path, opened on `warm` when it is a usable
/// certificate's lengths ([`crate::solve_from`]), or the strict
/// trajectory when [`FlowOptions::strict_reference`] is set (which never
/// warm-starts) — stopped as soon as `λ ≥ floor` is certified either way
/// when a `floor` is given (`gk::Core::verdict`).
pub(crate) fn pairwise(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
    warm: &[f64],
    floor: Option<f64>,
) -> Result<SolvedFlow, FlowError> {
    let ladder = (!opts.strict_reference).then(|| Ladder::new(net, warm));
    solve_pairwise(net, commodities, opts, ladder, floor)
}

/// The pairwise phase loop. `ladder: None` is the strict trajectory and
/// `Some` the incremental fast path; the two differ exactly where this
/// function matches on it (see the module docs). A `floor` adds the
/// floor stop to the verdict. Debug builds check the certificate it
/// returns.
fn solve_pairwise(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
    mut ladder: Option<Ladder>,
    floor: Option<f64>,
) -> Result<SolvedFlow, FlowError> {
    let mut groups = group_by_source(commodities, net.node_count());
    let (mode, cong, dual_every) = match ladder {
        Some(_) => ("fast", Cong::Reciprocal, EXACT_PASS_EVERY),
        None => ("strict", Cong::Divide, STRICT_DUAL_EVERY),
    };
    let eps = opts.epsilon;
    let (length, eps) = (ladder.as_mut()).map_or((None, eps), |l| l.opener(eps));
    let warm_started = length.is_some();
    // the fast path keeps `primal_weight`'s averages, the uniform one
    // only when warm-started; the strict path one at weight 1.0
    let averages = match ladder {
        Some(_) if warm_started => PRIMAL_FROM.len(),
        Some(_) => PRIMAL_FROM.len() - 1,
        None => 1,
    };
    let mut core = Core::new(net, cong, length, eps, averages);
    let mut pairs = Pairwise::new(commodities, &mut core, opts);

    // reachability check up front (an edgeless net fails it at the
    // first commodity); it seeds the first dual bound, the estimate of
    // λ* the phase unit is normalised to and, under the ladder, every
    // group's full tree
    let d_l = core.d_l();
    tree_pass(net, &mut groups, core.length(), ladder.is_some());
    let opening = core.note_dual(d_l, alpha_of(&groups)?, None);
    core.normalise(opening);
    if let Some(l) = ladder.as_mut() {
        // every tree is exact as of clock 0
        (l.d_l, l.cursor) = (d_l, vec![0; groups.len()]);
    }

    let mut phases = 0usize;
    let mut stop = Stop::Phases;
    let t_solve = obs::clock();
    while phases < opts.max_phases {
        phases += 1;
        let t_phase = obs::clock();
        let eps = core.eps();
        // Every few phases the dual bound is the exact `D(l)/α(l)`, from
        // one tree per group against one length snapshot: the ladder
        // opens such a phase with it (and harvests a free, looser bound
        // at the top of every other), the strict path closes it with it.
        let exact_pass = phases.is_multiple_of(dual_every) || phases == opts.max_phases;
        if let Some(l) = ladder.as_mut() {
            for (avg, weight) in core.averages_mut().iter_mut().zip(primal_weight(phases)) {
                avg.weight = weight;
            }
            l.begin_phase(&mut core, &mut groups, phases, exact_pass);
        }

        // sequential routing in fixed group order (see module docs for
        // why routing is not parallelised)
        let (unit, residue) = (core.unit(), core.residue());
        for (gi, g) in groups.iter_mut().enumerate() {
            for (k, &(_, _, d)) in g.sinks.iter().enumerate() {
                g.remaining[k] = d * unit;
            }
            // Route until the group's phase demand is (essentially)
            // done: every step saturates an arc or finishes the group.
            while g.remaining.iter().any(|&r| r > residue) {
                // charge the remaining demand along the group's tree:
                // a fresh one under the current lengths, or the stored
                // one walked through the ladder
                match ladder.as_mut() {
                    Some(l) => l.charge(&mut core, g, gi)?,
                    None => {
                        net.dijkstra_targets(g.src, core.length(), &g.targets, &mut g.ws);
                        g.load_paths(&mut core, None)?;
                    }
                }
                let tau = core.step(|a, old, new| {
                    if let Some(l) = ladder.as_mut() {
                        l.grew(net, a, old, new);
                    }
                });
                for (k, &(j, dst, _)) in g.sinks.iter().enumerate() {
                    let r = g.remaining[k];
                    let sent = tau * r;
                    for avg in core.averages_mut() {
                        // each average takes what `Core::grow` put on
                        // the arcs, so its three stay one conserved flow
                        let credit = avg.weight * sent;
                        // mirror the tree walk that charged this sink
                        // into the per-commodity record; the workspace
                        // still holds the tree the load went along
                        if let (Some(record), true) = (avg.record.as_mut(), r > residue) {
                            g.ws.walk_path(net, dst, |a| record[j][a] += credit);
                        }
                        avg.routed[j] += credit;
                    }
                    g.remaining[k] -= sent;
                }
                if tau >= 1.0 {
                    break;
                }
            }
        }

        if core.rescale() {
            if let Some(l) = ladder.as_mut() {
                l.rescaled(&core);
            }
        }
        let primal = pairs.snapshot(&core, phases);
        if ladder.is_none() && exact_pass {
            let d_l = core.d_l();
            tree_pass(net, &mut groups, core.length(), false);
            core.note_dual(d_l, alpha_of(&groups)?, None);
        }

        // emission sits in the sequential phase loop, so the event
        // sequence is deterministic whenever solves themselves are run
        // sequentially (see dctopo-obs crate docs)
        if obs::enabled() {
            let mut ev = obs::Event::new("fptas_phase")
                .field("mode", mode)
                .field("phase", phases as u64)
                .field("eps", eps);
            if ladder.is_some() {
                ev = ev
                    .field("weight", primal_weight(phases)[0])
                    .field("exact_pass", exact_pass);
            }
            ev = ev.field("primal", primal).field("dual", core.best_dual());
            if let Some(l) = &ladder {
                ev = tier_fields(ev.field("d_l", l.d_l), l.total, l.before_phase);
            }
            if let Some(mean_dual) = ladder.as_ref().and_then(|l| l.mean_dual) {
                ev = ev.field("mean_dual", mean_dual);
            }
            ev.field("settles", settles(&groups, ladder.as_ref()))
                .nd("wall_us", obs::us_since(t_phase))
                .emit();
        }
        if let Some(why) = core.verdict(primal, opts, phases, floor) {
            stop = why;
            break;
        }
    }

    let (best_phase, best_from) = pairs.best_of();
    let sol = pairs.finish(&mut core, phases, settles(&groups, ladder.as_ref()));
    if obs::enabled() {
        let mut ev = obs::Event::new("fptas_solve").field("mode", mode);
        if ladder.is_some() {
            ev = ev.field("warm", warm_started);
        }
        ev = ev
            .field("groups", groups.len())
            .field("commodities", commodities.len())
            .field("phases", phases as u64)
            .field("stop", stop.name())
            .field("unit", core.unit())
            .field("settles", sol.settles);
        if let Some(l) = &ladder {
            // which candidate the final bound came from, and which
            // average and phase the returned primal was read from
            let from = if l.mean_best == sol.upper_bound {
                "mean"
            } else {
                "last"
            };
            ev = tier_fields(ev, l.total, [0; 4])
                .field("mean_dual_passes", l.mean_passes)
                .field("dual_from", from)
                .field("primal_from", PRIMAL_FROM[best_from])
                .field("best_phase", best_phase as u64);
        }
        ev.field("lambda", sol.throughput)
            .field("upper_bound", sol.upper_bound)
            .nd("wall_us", obs::us_since(t_solve))
            .emit();
    }
    crate::debug_certify(|| sol.certify(net, commodities, None));
    Ok(sol)
}

/// Queue pops of every Dijkstra run so far: all groups' trees plus the
/// ladder's trees under the mean lengths.
fn settles(groups: &[GroupState], ladder: Option<&Ladder>) -> u64 {
    let stored: u64 = groups.iter().map(|g| g.ws.settles()).sum();
    stored + ladder.map_or(0, |l| l.mean_ws.settles())
}

/// One shortest-path tree per source group against fixed lengths — a
/// read-only pass that runs **in parallel on rayon** into the disjoint
/// per-group workspaces. `full` trees settle whole components (what the
/// ladder stores); otherwise each run early-terminates at its group's
/// targets.
fn tree_pass(net: &CsrNet, groups: &mut [GroupState], length: &[f64], full: bool) {
    let settle = |g: &mut GroupState| {
        if full {
            net.dijkstra(g.src, length, &mut g.ws);
        } else {
            net.dijkstra_targets(g.src, length, &g.targets, &mut g.ws);
        }
    };
    // Fan out only when the pass is big enough to amortise the pool
    // dispatch. Results are identical either way — the sequential path
    // is exactly the one-thread schedule.
    if groups.len() * net.arc_count() >= PARALLEL_DUAL_MIN_WORK {
        groups.par_iter_mut().for_each(settle);
    } else {
        groups.iter_mut().for_each(settle);
    }
}

/// `α = Σ_j d_j · dist(s_j, t_j)` over the trees the groups hold, summed
/// sequentially in group order so it is bit-identical at every thread
/// count; the first sink outside its source's component is an error.
fn alpha_of(groups: &[GroupState]) -> Result<f64, FlowError> {
    let mut alpha = 0.0f64;
    for g in groups {
        for &(_, dst, demand) in &g.sinks {
            let d = g.ws.distance(dst);
            if !d.is_finite() {
                return Err(FlowError::Unreachable { src: g.src, dst });
            }
            alpha += demand * d;
        }
    }
    Ok(alpha)
}

/// Ladder tier counters, in the order traces print them:
/// augmentations accepted on an exact tree (tier 1 / post-repair),
/// accepted inside the drift gate (tier 2), incremental repairs
/// (tier 3), and post-rescale full rebuilds.
const TIERS: [&str; 4] = ["aug_exact", "aug_drift", "repairs", "rescale_rebuilds"];
const EXACT: usize = 0;
const DRIFT: usize = 1;
const REPAIRS: usize = 2;
const REBUILDS: usize = 3;

/// Append the tier counts accrued since `since`.
fn tier_fields(mut ev: obs::Event, now: [u64; 4], since: [u64; 4]) -> obs::Event {
    for (tier, name) in TIERS.iter().enumerate() {
        ev = ev.field(name, now[tier] - since[tier]);
    }
    ev
}

/// The fast path's tree policy. Each source group keeps a persistent
/// **full** shortest-path tree and routes against it through a
/// three-tier reuse ladder, cheapest first:
///
/// 1. **Exact reuse.** Lengths only grow, so a routed path none of
///    whose arcs changed since the tree was computed is *still exactly
///    shortest* — every alternative only got longer. A per-arc update
///    stamp (`updated_at`) makes this an O(path) check.
/// 2. **Fleischer drift tolerance.** A touched path may still be
///    routed while its current length stays within a `(1+ε·δ)` factor
///    of the tree-time distance (a valid lower bound on the current
///    shortest distance). The certified primal/dual bounds hold for
///    any routing, so this trades a little path quality for skipped
///    recomputes.
/// 3. **Incremental repair.** Beyond the gate,
///    [`CsrNet::dijkstra_repair`] re-settles just the subtrees hanging
///    off the tree arcs that grew since the group's cursor (read off
///    the parent array by their `updated_at` stamps) instead of
///    recomputing from scratch.
///
/// Ladder misses rebuild lazily (speculative per-phase refreshes
/// measurably double-pay: a tree rebuilt at phase start is often
/// drifted again before its routing turn). Every [`EXACT_PASS_EVERY`]
/// phases a **rayon-parallel** exact pass (disjoint workspaces)
/// rebuilds all trees against one length snapshot, which makes that
/// phase's dual bound exact; the in-between phases harvest the valid
/// mixed-age bound for free. Those bounds are all at the *last* length
/// iterate; the ladder also keeps the decayed running mean of the
/// iterates ([`Ladder::average`]) and every [`MEAN_DUAL_EVERY`]-th
/// phase from [`MEAN_DUAL_FROM`] on bounds λ* there too
/// ([`Ladder::note_mean_dual`]) — the candidate that closes the gap
/// when the last iterate's bound has stopped moving. The step size ε
/// anneals from [`COARSE_EPS`] down to the configured
/// value as the certified gap closes — coarse steps cross the early
/// primal ground in far fewer phases, fine steps finish the endgame,
/// and the flow of the coarse phases fades from the primal as the
/// later ones enter it at growing weight ([`primal_weight`]).
/// Both certificates remain valid at every step, so annealing changes
/// the trajectory, never the guarantees.
#[derive(Default)]
struct Ladder {
    /// Re-anchored warm lengths, when usable, until the loop takes
    /// them as its opener.
    warm: Option<Vec<f64>>,
    /// `D(l)`, maintained incrementally wherever a length grows;
    /// recomputed in full only when seeded and after a uniform rescale.
    d_l: f64,
    /// Event clock: the number of length increases so far.
    clock: usize,
    /// Each arc's last update clock (the exact-reuse stamp and the
    /// repair seed test; `usize::MAX` = never).
    updated_at: Vec<usize>,
    /// Scratch for [`Ladder::charge`]: the tree arcs that grew since the
    /// repairing group's cursor.
    grown: Vec<u32>,
    /// Per group: the clock up to which its tree is exact, or
    /// [`UNUSABLE`] when a rescale left its stored distances in stale
    /// units and it must be rebuilt in full before routing.
    cursor: Vec<usize>,
    /// Tier counters ([`TIERS`]) of the solve so far, and their values
    /// when the current phase began: pure functions of the trajectory,
    /// a few scalar adds per augmentation, so maintained whether or not
    /// tracing is on.
    total: [u64; 4],
    before_phase: [u64; 4],
    /// The running mean of the length iterates, each normalised by its
    /// own `D(l)` (so a uniform rescale is invisible to it) and decayed
    /// by [`MEAN_DUAL_DECAY`] a phase.
    mean: Vec<f64>,
    /// The one scratch workspace every tree under `mean` is built in:
    /// the groups' stored trees never see the mean lengths.
    mean_ws: DijkstraWorkspace,
    /// `D(mean)/α(mean)` when the current phase evaluated it.
    mean_dual: Option<f64>,
    /// How often it was evaluated, and the smallest value admitted.
    mean_passes: u64,
    mean_best: f64,
}

/// A [`Ladder::cursor`] no clock reaches.
const UNUSABLE: usize = usize::MAX;

/// Whether arc `a` has grown at or after clock `cursor`.
#[inline]
fn grew_since(updated_at: &[usize], a: usize, cursor: usize) -> bool {
    updated_at[a] != usize::MAX && updated_at[a] >= cursor
}

impl Ladder {
    fn new(net: &CsrNet, warm: &[f64]) -> Self {
        // unusable lengths degrade to a cold start, bit-identical to
        // no lengths at all
        Ladder {
            warm: warm_lengths(net, warm),
            updated_at: vec![usize::MAX; net.arc_count()],
            mean: vec![0.0; net.arc_count()],
            mean_best: f64::INFINITY,
            ..Ladder::default()
        }
    }

    /// The lengths and step size to open with. Usable warm lengths
    /// replace the flat `1/c(a)` opener and skips the coarse-ε ramp:
    /// the inherited lengths already encode the congestion landscape
    /// the coarse phases exist to discover, and re-coarsening would
    /// churn them.
    fn opener(&mut self, eps: f64) -> (Option<Vec<f64>>, f64) {
        let ramp = if self.warm.is_some() { eps } else { COARSE_EPS };
        (self.warm.take(), eps.max(ramp))
    }

    /// Open phase `phase`: the exact pass when one is due, then the dual
    /// bound at the current lengths and, when due, at their mean.
    fn begin_phase(
        &mut self,
        core: &mut Core,
        groups: &mut [GroupState],
        phase: usize,
        exact_pass: bool,
    ) {
        self.before_phase = self.total;
        // All trees are rebuilt against one consistent length snapshot
        // so the bound below is the exact `D(l)/α(l)` and every repair
        // cursor realigns.
        if exact_pass {
            tree_pass(core.net(), groups, core.length(), true);
            self.cursor.fill(self.clock);
        }
        // The dual bound, every phase and essentially free. Each
        // group's stored distances were exact under the (older) lengths
        // its tree was computed at; lengths only grow, so they are
        // lower bounds on the current distances, Σ d_j·dist_j is a
        // lower bound on α(l), and `d_l / Σ` is a *valid* (if slightly
        // weak) upper bound on λ*.
        //
        // The one exception is the aftermath of a uniform rescale:
        // un-rebuilt trees then hold distances in *pre-rescale* units —
        // far larger than any current distance, which would fabricate a
        // too-small (invalid!) bound. Skip the harvest until the next
        // rebuild has made every tree usable again.
        if !self.cursor.contains(&UNUSABLE) {
            #[cfg(debug_assertions)]
            {
                let full = core.d_l();
                debug_assert!(
                    (self.d_l - full).abs() <= 1e-6 * full.max(f64::MIN_POSITIVE),
                    "incremental D(l) drifted: {} vs {full}",
                    self.d_l
                );
            }
            // every sink was reachable when the trees were seeded; a
            // sum that overflowed since is a degenerate ratio, not one
            core.note_dual(self.d_l, alpha_of(groups).unwrap_or(f64::INFINITY), None);
        }
        self.average(core);
        let due = phase >= MEAN_DUAL_FROM && phase.is_multiple_of(MEAN_DUAL_EVERY);
        self.mean_dual = due.then(|| self.note_mean_dual(core, groups));
    }

    /// Fold the current lengths into the running mean: one pass over
    /// the arcs. Dead arcs have length 0 and stay 0.
    fn average(&mut self, core: &Core) {
        let weight = 1.0 / self.d_l;
        for (m, &l) in self.mean.iter_mut().zip(core.length()) {
            *m = MEAN_DUAL_DECAY * *m + l * weight;
        }
    }

    /// The second dual candidate, `D(mean)/α(mean)`: as valid as the
    /// first, since the bound holds at *any* non-negative lengths, and
    /// tighter once the iterates oscillate around the optimum their
    /// mean converges to. `α(mean)` takes one early-terminated tree per
    /// group, sequentially in group order into the one scratch
    /// workspace, so no stored tree, cursor or stamp moves and routing
    /// is the same until the stop rule or the ε-anneal acts on the
    /// smaller bound.
    fn note_mean_dual(&mut self, core: &mut Core, groups: &[GroupState]) -> f64 {
        let caps = core.net().capacities();
        let d_mean: f64 = self.mean.iter().zip(caps).map(|(&m, &c)| m * c).sum();
        let mut alpha = 0.0f64;
        for g in groups {
            (core.net()).dijkstra_targets(g.src, &self.mean, &g.targets, &mut self.mean_ws);
            for &(_, dst, demand) in &g.sinks {
                alpha += demand * self.mean_ws.distance(dst);
            }
        }
        let bound = core.note_dual(d_mean, alpha, Some(&self.mean));
        if core.best_dual() == bound {
            self.mean_best = bound;
        }
        self.mean_passes += 1;
        bound
    }

    /// Charge group `gi`'s remaining demand along its stored tree,
    /// walking it through the ladder; repair at most once per
    /// augmentation (a repaired tree is exact).
    fn charge(&mut self, core: &mut Core, g: &mut GroupState, gi: usize) -> Result<(), FlowError> {
        if self.cursor[gi] == UNUSABLE {
            // post-rescale: stored distances are in pre-rescale units,
            // so the drift gate cannot be trusted — rebuild
            core.net().dijkstra(g.src, core.length(), &mut g.ws);
            self.cursor[gi] = self.clock;
            self.total[REBUILDS] += 1;
        }
        let cursor = self.cursor[gi];
        let mut exact = self.clock == cursor;
        // Tier-2 gate `1 + ε/2`: tighter than `(1+ε)` so routing stays
        // reactive to other groups' congestion (the
        // multiplicative-weights trajectory degrades sharply when
        // groups keep loading paths that competitors already saturated).
        let drift = 1.0 + core.eps() * DRIFT_FRACTION;
        let gate = (!exact).then_some((cursor, &self.updated_at[..], drift));
        if !g.load_paths(core, gate)? {
            // tier 3: incremental repair of the drifted tree (every
            // stored tree is full — seeded, exact-pass, and repaired
            // trees all settle the component, as repair's preconditions
            // require)
            core.unload();
            // only an increased *tree* arc can move a distance, and the
            // tree has at most n − 1 of them: read them off the parent
            // array by their stamps
            self.grown.clear();
            self.grown.extend(
                (0..core.net().node_count())
                    .filter_map(|w| g.ws.parent(w))
                    .filter(|&a| grew_since(&self.updated_at, a, cursor))
                    .map(|a| a as u32),
            );
            core.net()
                .dijkstra_repair(g.src, core.length(), &self.grown, &mut g.ws);
            self.cursor[gi] = self.clock;
            exact = true;
            self.total[REPAIRS] += 1;
            g.load_paths(core, None)?;
        }
        self.total[if exact { EXACT } else { DRIFT }] += 1;
        Ok(())
    }

    /// Arc `a` grew from `old` to `new`: incremental `D(l)` and the
    /// update stamp, both kept where lengths change.
    fn grew(&mut self, net: &CsrNet, a: usize, old: f64, new: f64) {
        self.d_l += net.capacity(a) * (new - old);
        self.updated_at[a] = self.clock;
        self.clock += 1;
    }

    /// Scaling is not an arcwise *increase*, so incremental repair no
    /// longer applies: recompute `D(l)` in full and flag every tree for
    /// a full rebuild.
    fn rescaled(&mut self, core: &Core) {
        self.d_l = core.d_l();
        self.cursor.fill(UNUSABLE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_graph::Graph;
    use rayon::ThreadPoolBuilder;

    /// A cold solve of `g` on a fresh net.
    fn solve(g: &Graph, cs: &[Commodity], o: &FlowOptions) -> Result<SolvedFlow, FlowError> {
        pairwise(&CsrNet::from_graph(g), cs, o, &[], None)
    }

    fn opts() -> FlowOptions {
        FlowOptions {
            epsilon: 0.05,
            target_gap: 0.02,
            max_phases: 20000,
            stall_phases: 2000,
            ..FlowOptions::default()
        }
    }

    /// Flow on a single edge: one unit-demand commodity, capacity 1 → λ = 1.
    #[test]
    fn single_edge() {
        let mut g = Graph::new(2);
        g.add_unit_edge(0, 1).unwrap();
        let s = solve(&g, &[Commodity::unit(0, 1)], &opts()).unwrap();
        assert!(
            s.throughput > 0.97 && s.throughput <= 1.0 + 1e-9,
            "λ = {}",
            s.throughput
        );
        assert!(s.upper_bound >= s.throughput);
        // the dual approaches λ* = 1 from above, stopping within the gap
        assert!(
            s.upper_bound <= 1.0 / (1.0 - 0.02) + 1e-9,
            "dual = {}",
            s.upper_bound
        );
    }

    /// Two commodities share one unit edge → λ = 1/2 each.
    #[test]
    fn shared_bottleneck() {
        let mut g = Graph::new(3);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(1, 2).unwrap();
        let cs = [Commodity::unit(0, 2), Commodity::unit(1, 2)];
        let s = solve(&g, &cs, &opts()).unwrap();
        assert!((s.throughput - 0.5).abs() < 0.02, "λ = {}", s.throughput);
    }

    /// 4-cycle, opposite corners: two edge-disjoint 2-hop paths → λ = 2
    /// for a single unit commodity.
    #[test]
    fn cycle_multipath() {
        let mut g = Graph::new(4);
        for v in 0..4 {
            g.add_unit_edge(v, (v + 1) % 4).unwrap();
        }
        let s = solve(&g, &[Commodity::unit(0, 2)], &opts()).unwrap();
        assert!((s.throughput - 2.0).abs() < 0.06, "λ = {}", s.throughput);
    }

    /// Capacity scaling: doubling all capacities doubles λ.
    #[test]
    fn capacity_scaling() {
        let mut g1 = Graph::new(3);
        g1.add_edge(0, 1, 1.0).unwrap();
        g1.add_edge(1, 2, 1.0).unwrap();
        let mut g2 = Graph::new(3);
        g2.add_edge(0, 1, 2.0).unwrap();
        g2.add_edge(1, 2, 2.0).unwrap();
        let cs = [Commodity::unit(0, 2)];
        let s1 = solve(&g1, &cs, &opts()).unwrap();
        let s2 = solve(&g2, &cs, &opts()).unwrap();
        assert!((s2.throughput / s1.throughput - 2.0).abs() < 0.08);
    }

    /// Demand scaling: doubling demand halves λ.
    #[test]
    fn demand_scaling() {
        let mut g = Graph::new(2);
        g.add_unit_edge(0, 1).unwrap();
        let s1 = solve(
            &g,
            &[Commodity {
                src: 0,
                dst: 1,
                demand: 1.0,
            }],
            &opts(),
        )
        .unwrap();
        let s2 = solve(
            &g,
            &[Commodity {
                src: 0,
                dst: 1,
                demand: 2.0,
            }],
            &opts(),
        )
        .unwrap();
        assert!((s1.throughput / s2.throughput - 2.0).abs() < 0.08);
    }

    /// The solution passes the independent checker.
    #[test]
    fn feasibility_certificate() {
        let mut g = Graph::new(5);
        for &(u, v) in &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)] {
            g.add_unit_edge(u, v).unwrap();
        }
        let cs = [
            Commodity::unit(0, 3),
            Commodity::unit(1, 4),
            Commodity::unit(2, 0),
            Commodity::unit(4, 2),
        ];
        let s = solve(&g, &cs, &opts()).unwrap();
        // no arc over capacity, each commodity at λ·d or more, the
        // bound re-derived from its lengths
        let net = dctopo_graph::CsrNet::from_graph(&g);
        s.certify(&net, &cs, None).unwrap();
        assert!(s.gap() <= 0.02 + 1e-9);
    }

    /// Unreachable destination is an error, not a hang — on both paths.
    #[test]
    fn unreachable_errors() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(2, 3).unwrap();
        let r = solve(&g, &[Commodity::unit(0, 3)], &opts());
        assert!(matches!(r, Err(FlowError::Unreachable { src: 0, dst: 3 })));
        let strict = opts().with_strict_reference(true);
        let r = solve(&g, &[Commodity::unit(0, 3)], &strict);
        assert!(matches!(r, Err(FlowError::Unreachable { src: 0, dst: 3 })));
    }

    /// Star network: k leaves all sending to the hub through unit edges.
    #[test]
    fn star_to_hub() {
        let k = 6;
        let mut g = Graph::new(k + 1);
        for v in 1..=k {
            g.add_unit_edge(v, 0).unwrap();
        }
        let cs: Vec<_> = (1..=k).map(|v| Commodity::unit(v, 0)).collect();
        let s = solve(&g, &cs, &opts()).unwrap();
        // each leaf has its own edge → λ = 1
        assert!((s.throughput - 1.0).abs() < 0.03, "λ = {}", s.throughput);
    }

    /// Mean flow path length on a path graph equals the hop distance.
    #[test]
    fn mean_path_len() {
        let mut g = Graph::new(4);
        for v in 0..3 {
            g.add_unit_edge(v, v + 1).unwrap();
        }
        let s = solve(&g, &[Commodity::unit(0, 3)], &opts()).unwrap();
        assert!((s.mean_flow_path_len() - 3.0).abs() < 1e-6);
    }

    /// Heterogeneous capacities: big trunk plus thin side path.
    #[test]
    fn heterogeneous_capacities() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 10.0).unwrap();
        g.add_edge(0, 1, 1.0).unwrap();
        let s = solve(
            &g,
            &[Commodity {
                src: 0,
                dst: 1,
                demand: 1.0,
            }],
            &opts(),
        )
        .unwrap();
        assert!((s.throughput - 11.0).abs() < 0.4, "λ = {}", s.throughput);
    }

    /// The fast path certifies the same optimum as the strict path.
    #[test]
    fn fast_path_agrees_with_strict() {
        let mut g = Graph::new(16);
        for v in 0..16 {
            g.add_unit_edge(v, (v + 1) % 16).unwrap();
        }
        for v in 0..8 {
            g.add_edge(v, v + 8, 1.5).unwrap();
        }
        let cs: Vec<Commodity> = (0..8).map(|v| Commodity::unit(v, (v + 7) % 16)).collect();
        let fast = solve(&g, &cs, &opts()).unwrap();
        let strict = solve(&g, &cs, &opts().with_strict_reference(true)).unwrap();
        // both certify their own interval around the same optimum
        assert!(fast.throughput <= strict.upper_bound * (1.0 + 1e-9));
        assert!(strict.throughput <= fast.upper_bound * (1.0 + 1e-9));
        assert!(fast.gap() <= 0.02 + 1e-9, "fast gap {}", fast.gap());
    }

    /// Both paths report their settle instrumentation (the sweep-scale
    /// "fast settles less" property lives in `tests/properties.rs`,
    /// which can build real RRG instances).
    #[test]
    fn settle_instrumentation_reported() {
        let mut g = Graph::new(6);
        for v in 0..6 {
            g.add_unit_edge(v, (v + 1) % 6).unwrap();
        }
        let cs = [Commodity::unit(0, 3), Commodity::unit(1, 4)];
        for strict in [false, true] {
            let s = solve(&g, &cs, &opts().with_strict_reference(strict)).unwrap();
            assert!(s.settles > 0, "strict {strict}: no settles recorded");
        }
    }

    /// An empty or wrong-length warm slice is bitwise the cold solve —
    /// the warm hook is invisible until usable lengths are supplied.
    #[test]
    fn warm_none_is_bitwise_cold() {
        let mut g = Graph::new(12);
        for v in 0..12 {
            g.add_unit_edge(v, (v + 1) % 12).unwrap();
        }
        g.add_edge(0, 6, 2.0).unwrap();
        let net = dctopo_graph::CsrNet::from_graph(&g);
        let cs: Vec<Commodity> = (0..6).map(|v| Commodity::unit(v, (v + 5) % 12)).collect();
        let o = opts();
        let cold = pairwise(&net, &cs, &o, &[], None).unwrap();
        let (none, lengths) = crate::max_concurrent_flow_warm(&net, &cs, &o, None).unwrap();
        let cache = crate::PathSetCache::new();
        let empty = crate::solve_from(&net, &cs, &o, &cache, &[]).unwrap();
        // wrong arc space → degrade to cold
        let ill = crate::solve_from(&net, &cs, &o, &cache, &[1.0; 3]).unwrap();
        for s in [&none, &empty, &ill] {
            assert_eq!(cold.throughput.to_bits(), s.throughput.to_bits());
            assert_eq!(cold.upper_bound.to_bits(), s.upper_bound.to_bits());
            assert_eq!(cold.phases, s.phases);
            for (x, y) in cold.arc_flow.iter().zip(&s.arc_flow) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(lengths, none.dual_lengths);
    }

    /// A warm-started re-solve of a drifted instance certifies an
    /// interval overlapping the cold solve's, at the same target gap —
    /// the soundness half of the serve-mode warm-reuse contract.
    #[test]
    fn warm_resolve_certificates_overlap_cold() {
        let mut g = Graph::new(16);
        for v in 0..16 {
            g.add_unit_edge(v, (v + 1) % 16).unwrap();
        }
        for v in 0..8 {
            g.add_edge(v, v + 8, 1.5).unwrap();
        }
        let net = dctopo_graph::CsrNet::from_graph(&g);
        let cs: Vec<Commodity> = (0..8).map(|v| Commodity::unit(v, (v + 7) % 16)).collect();
        let o = opts();
        let seed = pairwise(&net, &cs, &o, &[], None).unwrap();
        // drift demands ±10% deterministically
        let drifted: Vec<Commodity> = cs
            .iter()
            .enumerate()
            .map(|(i, c)| Commodity {
                demand: c.demand * (0.9 + 0.2 * (i as f64 / 7.0)),
                ..*c
            })
            .collect();
        let cold = pairwise(&net, &drifted, &o, &[], None).unwrap();
        let warm = pairwise(&net, &drifted, &o, &seed.dual_lengths, None).unwrap();
        // a warm solve may plateau-stop slightly past the target (its
        // inherited lengths make the *dual* tighter from phase one);
        // the certified gap stays O(ε) regardless
        let gap_cap = o.target_gap.max(o.epsilon) + 1e-9;
        assert!(warm.gap() <= gap_cap, "warm gap {}", warm.gap());
        assert!(warm.throughput <= cold.upper_bound * (1.0 + 1e-9));
        assert!(cold.throughput <= warm.upper_bound * (1.0 + 1e-9));
        assert_eq!(warm.dual_lengths.len(), net.arc_count());
        // feasibility of the warm primal: no arc over capacity
        for a in 0..net.arc_count() {
            assert!(warm.arc_flow[a] <= net.capacity(a) * (1.0 + 1e-9));
        }
    }

    /// A warm-started re-solve opens at the configured ε on certified
    /// lengths, so it keeps a third, uniform primal average beside the
    /// √phase and phase² ones; on this drifted instance that average
    /// certifies the λ returned, and the solve's trace names it. The
    /// cold solve it opened from keeps the two.
    #[test]
    fn a_warm_solve_certifies_its_uniform_average() {
        // a 12-ring with its six diameters, each node sending 5 hops on
        let mut g = Graph::new(12);
        for v in 0..12 {
            g.add_unit_edge(v, (v + 1) % 12).unwrap();
        }
        for v in 0..6 {
            g.add_unit_edge(v, v + 6).unwrap();
        }
        let net = dctopo_graph::CsrNet::from_graph(&g);
        let cs: Vec<Commodity> = (0..6).map(|v| Commodity::unit(v, (v + 5) % 12)).collect();
        let drifted: Vec<Commodity> = (cs.iter().enumerate())
            .map(|(i, c)| Commodity {
                demand: c.demand * (0.9 + 0.05 * (i % 5) as f64),
                ..*c
            })
            .collect();
        let o = FlowOptions::fast();
        // the recorder is process-global and other tests may solve while
        // it is on, so each event is picked out by the λ it reports
        obs::enable_memory();
        let cold = pairwise(&net, &cs, &o, &[], None).unwrap();
        let warm = pairwise(&net, &drifted, &o, &cold.dual_lengths, None).unwrap();
        let trace = obs::drain_memory();
        obs::disable();
        let solve_event = |s: &SolvedFlow| {
            (trace.iter())
                .filter_map(|line| obs::Json::parse(line).ok())
                .find(|ev| {
                    ev.get("ev").and_then(obs::Json::as_str) == Some("fptas_solve")
                        && ev.get("lambda").and_then(obs::Json::as_f64) == Some(s.throughput)
                })
                .expect("the solve emitted its event")
        };
        let field =
            |ev: &obs::Json, key| ev.get(key).and_then(obs::Json::as_str).map(str::to_owned);
        let ev = solve_event(&warm);
        assert_eq!(ev.get("warm").and_then(obs::Json::as_bool), Some(true));
        assert_eq!(field(&ev, "primal_from").as_deref(), Some("uniform"));
        assert_eq!(field(&ev, "stop").as_deref(), Some("gap"));
        let ev = solve_event(&cold);
        assert_eq!(ev.get("warm").and_then(obs::Json::as_bool), Some(false));
        assert_ne!(field(&ev, "primal_from").as_deref(), Some("uniform"));
        warm.certify(&net, &drifted, None).unwrap();
    }

    /// The strict path refuses to warm-start: its output with a fast
    /// solve's certificate is bitwise the strict cold output.
    #[test]
    fn strict_path_never_warm_starts() {
        let mut g = Graph::new(8);
        for v in 0..8 {
            g.add_unit_edge(v, (v + 1) % 8).unwrap();
        }
        let net = dctopo_graph::CsrNet::from_graph(&g);
        let cs = [Commodity::unit(0, 4), Commodity::unit(1, 5)];
        let o = opts();
        let seeded = pairwise(&net, &cs, &o, &[], None).unwrap();
        let strict = o.with_strict_reference(true);
        let cold = pairwise(&net, &cs, &strict, &[], None).unwrap();
        let warm = pairwise(&net, &cs, &strict, &seeded.dual_lengths, None).unwrap();
        assert_eq!(cold.throughput.to_bits(), warm.throughput.to_bits());
        assert_eq!(cold.upper_bound.to_bits(), warm.upper_bound.to_bits());
    }

    /// The headline determinism guarantee: a seeded instance solved at
    /// 1, 2, and 8 rayon threads produces bit-identical output — on the
    /// fast path (default) and the strict path alike.
    #[test]
    fn bit_identical_across_thread_counts() {
        // ring + chords with many source groups so the parallel pass
        // actually splits work
        let mut g = Graph::new(24);
        for v in 0..24 {
            g.add_unit_edge(v, (v + 1) % 24).unwrap();
        }
        for v in 0..8 {
            g.add_edge(v, v + 12, 1.5).unwrap();
        }
        let cs: Vec<Commodity> = (0..12).map(|v| Commodity::unit(v, (v + 11) % 24)).collect();
        for strict in [false, true] {
            let o = opts().with_strict_reference(strict);
            let solve_at = |threads: usize| {
                ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(|| solve(&g, &cs, &o).unwrap())
            };
            let base = solve_at(1);
            for threads in [2, 8] {
                let s = solve_at(threads);
                assert_eq!(
                    base.throughput.to_bits(),
                    s.throughput.to_bits(),
                    "{threads} threads (strict: {strict})"
                );
                assert_eq!(base.upper_bound.to_bits(), s.upper_bound.to_bits());
                assert_eq!(base.phases, s.phases);
                assert_eq!(base.settles, s.settles);
                assert_eq!(base.arc_flow.len(), s.arc_flow.len());
                for (a, (x, y)) in base.arc_flow.iter().zip(&s.arc_flow).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "arc {a} at {threads} threads");
                }
                for (x, y) in base.commodity_rate.iter().zip(&s.commodity_rate) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }
}
