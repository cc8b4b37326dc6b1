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
//! its maximum congestion is feasible; LP duality gives the upper bound
//! `λ* ≤ D(l)/α(l)` for *any* positive lengths `l`, where
//! `D(l) = Σ_a c(a)·l(a)` and `α(l) = Σ_j d_j · dist_l(s_j, t_j)`.
//! We track the best (smallest) dual bound seen and stop as soon as the
//! certified primal/dual gap is below `target_gap`.
//!
//! ## Two execution strategies
//!
//! Commodities are grouped by source; routing is *sequential in fixed
//! group order* in both modes, so seeded runs are bit-identical at every
//! thread count either way. [`crate::FlowOptions::strict_reference`]
//! selects the trajectory:
//!
//! * **Fast path (default).** Each source group keeps a *full*
//!   shortest-path tree in its [`DijkstraWorkspace`] and routes against
//!   it through a three-tier reuse ladder (see [`solve_fast`] docs):
//!   exact reuse of untouched paths (increase-only lengths keep them
//!   *exactly* shortest), Fleischer `(1+ε·δ)` drift tolerance for
//!   touched ones, and [`CsrNet::dijkstra_repair`] — an increase-only
//!   incremental re-settle of just the drifted subtree, fed by a global
//!   length-increase log with one cursor per group — beyond the gate.
//!   Every few phases all trees are rebuilt in one **rayon-parallel**
//!   exact pass, the dual bound is harvested every phase for free from
//!   the (possibly mixed-age) trees, `D(l)` is maintained incrementally
//!   at the length-update sites (verified against the full sum in debug
//!   builds), and the step size ε anneals from coarse to the configured
//!   value as the certified gap closes. None of this bends correctness:
//!   the primal stays feasible by construction (capacity-scaled steps)
//!   and `D(l)/α(l)` upper-bounds λ* for *any* positive lengths, so the
//!   reported gap is certified no matter how the trajectory was chosen.
//! * **Strict path** (`strict_reference: true`). The retained
//!   pre-fast-path trajectory: every inner augmentation recomputes the
//!   group's shortest-path tree under the current lengths with
//!   target-set early termination — operation-for-operation the
//!   trajectory of [`crate::reference`], so the two produce
//!   bit-identical results. This is the escape hatch that keeps the
//!   legacy baseline pinned.
//!
//! Every multi-tree pass (the strict dual pass, the fast path's batched
//! rebuilds) writes into disjoint per-group workspaces and fans out on
//! **rayon**, with every floating-point reduction performed sequentially
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

use crate::{validate, Commodity, FlowError, FlowOptions, SolvedFlow};

/// Minimum `source groups × arcs` before the dual-bound Dijkstra pass
/// fans out on rayon; below this, even a pool dispatch costs more than
/// the pass. Rayon's persistent worker pool made fan-out ~two orders of
/// magnitude cheaper than the scoped-thread spawning this gate was
/// originally calibrated for (65536), so instances as small as a
/// 32-switch RRG now take the parallel path.
const PARALLEL_DUAL_MIN_WORK: usize = 1 << 12;

/// The dual bound D(l)/α(l) is invariant under uniform scaling of all
/// lengths, and so are shortest paths — so we rescale whenever lengths
/// grow large to avoid overflow corrupting the bound.
const RESCALE_ABOVE: f64 = 1e100;

/// Terminal solver state a later solve can warm-start from: the arc
/// length function the FPTAS ended on.
///
/// Soundness rests on the same two facts as the fast path itself: the
/// primal is feasible by construction (capacity-scaled steps), and the
/// dual `D(l)/α(l)` upper-bounds λ* for **any** positive length
/// function — so seeding the next solve's lengths from a previous
/// solve's terminal state changes the trajectory, never the
/// certificates. A warm solve's reported `(throughput, upper_bound)`
/// interval is certified exactly as a cold one's is.
///
/// Warm states transfer across [`CsrNet`] **views** of one structure:
/// arc ids are stable across `with_capacity_overrides` /
/// `with_scaled_capacity` views, and the lengths are re-anchored (and
/// invalid entries healed per-arc) by the normalization in
/// [`max_concurrent_flow_warm`], so a state learned under one capacity
/// profile is a usable starting point for a re-rated or drifted-demand
/// solve of the same structure. An empty state (the default) means
/// "cold": solving with it is identical to [`max_concurrent_flow_csr`].
#[derive(Debug, Clone, Default)]
pub struct WarmState {
    /// Terminal arc lengths (empty = cold). Indexed by arc id of the
    /// net the state was produced on.
    lengths: Vec<f64>,
}

impl WarmState {
    /// A cold (empty) state.
    pub fn cold() -> Self {
        WarmState::default()
    }

    /// Whether the state carries any learned lengths.
    pub fn is_seeded(&self) -> bool {
        !self.lengths.is_empty()
    }

    /// Number of arcs the stored lengths cover (0 when cold).
    pub fn arc_count(&self) -> usize {
        self.lengths.len()
    }
}

/// Normalize a warm state's lengths into a valid initial length
/// function for `net`, or `None` when the state is unusable (cold, or
/// sized for a different arc space) and the solve should start cold.
///
/// The dual bound and shortest paths are invariant under uniform
/// scaling, so the lengths are re-anchored to the cold-start gauge:
/// scaled so the minimum of `l(a)·c(a)` over live arcs is 1 (cold start
/// has `l·c = 1` everywhere). Per-arc healing keeps the function
/// strictly positive on live arcs no matter what the previous view did:
/// non-finite/non-positive entries (e.g. arcs that were disabled in the
/// view the state was learned on) fall back to the cold `1/c(a)`, dead
/// arcs get 0.0 (never traversed), and survivors clamp at
/// [`RESCALE_ABOVE`] like any in-solve length.
fn warm_lengths(net: &CsrNet, warm: &WarmState) -> Option<Vec<f64>> {
    if warm.lengths.len() != net.arc_count() {
        return None;
    }
    let caps = net.capacities();
    let mut anchor = f64::INFINITY;
    for (a, &l) in warm.lengths.iter().enumerate() {
        if caps[a] > 0.0 && l.is_finite() && l > 0.0 {
            anchor = anchor.min(l * caps[a]);
        }
    }
    if !(anchor.is_finite() && anchor > 0.0) {
        return None;
    }
    let scale = 1.0 / anchor;
    let out: Vec<f64> = warm
        .lengths
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
/// Calibrated on RRG(64, 12, 8) permutation sweeps — see `BENCH_fptas`.
const COARSE_EPS: f64 = 0.55;

/// Fast path: rebuild every tree (making that phase's dual bound the
/// exact `D(l)/α(l)`) and compact the increase log every this many
/// phases. Between exact passes trees are only repaired lazily by the
/// routing ladder and the per-phase dual bound is the valid mixed-age
/// lower-bound form.
const EXACT_PASS_EVERY: usize = 2;

/// Fast path: tier-2 tolerates a touched path while its current length
/// is within `1 + ε·DRIFT_FRACTION` of the tree-time distance. Measured
/// cliff: fractions ≥ ~0.75 let groups keep loading paths competitors
/// already saturated and the phase count explodes; 0.5 is the sweet
/// spot between skipped rebuilds and routing reactivity.
const DRIFT_FRACTION: f64 = 0.5;

/// One source group: commodities sharing a source, plus the group's
/// persistent Dijkstra scratch state.
struct GroupState {
    src: NodeId,
    /// (commodity index, dst, demand)
    sinks: Vec<(usize, NodeId, f64)>,
    /// Unique sink nodes: the strict path's Dijkstra stops once all of
    /// them are settled (the fast path keeps full trees instead).
    targets: Vec<u32>,
    /// Per-group scratch: written by the parallel pass, read by routing.
    /// In fast mode it holds the group's persistent shortest-path tree.
    ws: DijkstraWorkspace,
    /// Per-sink demand left to route in the current phase.
    remaining: Vec<f64>,
    /// Fast path: absolute increase-log position up to which this
    /// group's tree is exact (pending repairs start there).
    cursor: usize,
    /// Fast path: the tree's stored distances are unusable (after a
    /// uniform length rescale) — recompute in full before routing.
    needs_full: bool,
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
                    cursor: 0,
                    needs_full: false,
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

/// `D(l) = Σ_a c(a)·l(a)` as one full pass (the strict path's per-call
/// form, and the fast path's init/rescale/debug-verification form).
fn weighted_length_sum(net: &CsrNet, length: &[f64]) -> f64 {
    length
        .iter()
        .zip(net.capacities())
        .map(|(&l, &c)| l * c)
        .sum()
}

/// Solve max concurrent flow on `net` for `commodities` with the
/// phase-parallel FPTAS.
///
/// Returns a [`SolvedFlow`] whose `throughput` is a *feasible* concurrent
/// rate and whose `upper_bound` certifies how far from optimal it can be.
/// [`FlowOptions::strict_reference`] selects between the incremental
/// fast path (default) and the legacy trajectory (see module docs).
///
/// # Errors
///
/// * [`FlowError::Unreachable`] if any commodity's endpoints are in
///   different components.
/// * validation errors for empty/invalid inputs (see [`FlowError`]).
pub fn max_concurrent_flow_csr(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
) -> Result<SolvedFlow, FlowError> {
    max_concurrent_flow_warm(net, commodities, opts, None).map(|(sol, _)| sol)
}

/// [`max_concurrent_flow_csr`] with cross-solve warm-starting: seed the
/// fast path's initial lengths from a previous solve's terminal
/// [`WarmState`] and return the new terminal state for the next solve.
///
/// `warm: None` (or an empty/ill-sized state) is **bit-identical** to
/// the cold [`max_concurrent_flow_csr`] — the warm hook changes nothing
/// until a usable state is supplied. The strict path
/// ([`FlowOptions::strict_reference`]) never warm-starts (its whole
/// point is the pinned legacy trajectory) and returns a cold state.
///
/// A warm-started solve follows a different — typically much shorter —
/// trajectory, but its certificates are as strong as a cold solve's:
/// the primal is feasible by construction and the dual bound holds for
/// any positive lengths (see [`WarmState`]). Warm solves also skip the
/// coarse-ε annealing ramp: the inherited lengths already encode the
/// congestion landscape the ramp exists to discover.
///
/// # Errors
/// As [`max_concurrent_flow_csr`].
pub fn max_concurrent_flow_warm(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
    warm: Option<&WarmState>,
) -> Result<(SolvedFlow, WarmState), FlowError> {
    validate(net.node_count(), commodities, opts)?;
    if net.arc_count() == 0 {
        // commodities exist but there are no edges at all
        let c = &commodities[0];
        return Err(FlowError::Unreachable {
            src: c.src,
            dst: c.dst,
        });
    }
    if opts.strict_reference {
        Ok((solve_strict(net, commodities, opts)?, WarmState::cold()))
    } else {
        solve_fast(net, commodities, opts, warm)
    }
}

/// The legacy trajectory: recompute each group's (early-terminated)
/// shortest-path tree on every inner augmentation. Bit-identical to
/// [`crate::reference::max_concurrent_flow_graph`].
fn solve_strict(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
) -> Result<SolvedFlow, FlowError> {
    let num_arcs = net.arc_count();
    let eps = opts.epsilon;
    let mut groups = group_by_source(commodities, net.node_count());
    let inv_cap = net.inv_capacities();

    // lengths l(a) = 1/c(a) initially
    let mut length: Vec<f64> = inv_cap.to_vec();
    // raw (pre-scaling) accumulated flow
    let mut arc_flow = vec![0.0f64; num_arcs];
    let mut routed = vec![0.0f64; commodities.len()];
    // optional per-commodity arc-flow record, same units as arc_flow
    let mut cf: Option<Vec<Vec<f64>>> = opts
        .record_commodity_flows
        .then(|| vec![vec![0.0f64; num_arcs]; commodities.len()]);

    let mut best_dual = f64::INFINITY;
    // reachability check up front (also seeds the first dual bound)
    let d_l = weighted_length_sum(net, &length);
    if let Some(bound) = dual_bound(net, &mut groups, &length, d_l, false)? {
        best_dual = best_dual.min(bound);
    }
    // evaluate the dual every few phases (it changes slowly and costs a
    // Dijkstra per source group — the parallel pass)
    let dual_every = 8usize;
    // plateau detection: stop when the primal stops improving materially
    let mut last_primal_check = 0.0f64;
    let mut stagnant_phases = 0usize;

    let mut best: Option<SolvedFlow> = None;
    let mut phases = 0usize;
    // routing scratch shared across groups (routing is sequential)
    let mut tree_load = vec![0.0f64; num_arcs];
    let mut touched: Vec<usize> = Vec::new();
    let t_solve = obs::clock();

    while phases < opts.max_phases {
        phases += 1;
        let t_phase = obs::clock();
        // sequential routing in fixed group order, shortest paths always
        // under the *current* lengths (see module docs for why routing
        // is not parallelised)
        for g in &mut groups {
            for (k, &(_, _, d)) in g.sinks.iter().enumerate() {
                g.remaining[k] = d;
            }
            let mut inner = 0usize;
            // route until the group's phase demand is (essentially) done
            while g.remaining.iter().any(|&r| r > 1e-12) {
                inner += 1;
                if inner > 64 {
                    // Extremely skewed instances can shrink τ repeatedly;
                    // carry the leftover to the next phase (correctness is
                    // unaffected — `routed` only counts what was sent).
                    break;
                }
                net.dijkstra_targets(g.src, &length, &g.targets, &mut g.ws);
                // accumulate load if all remaining demand were routed
                touched.clear();
                for (k, &(_, dst, _)) in g.sinks.iter().enumerate() {
                    let r = g.remaining[k];
                    if r <= 1e-12 {
                        continue;
                    }
                    if !g.ws.distance(dst).is_finite() {
                        return Err(FlowError::Unreachable { src: g.src, dst });
                    }
                    g.ws.walk_path(net, dst, |a| {
                        if tree_load[a] == 0.0 {
                            touched.push(a);
                        }
                        tree_load[a] += r;
                    });
                }
                // capacity-scaled step: never send more than c(a) on any arc
                let mut tau = 1.0f64;
                for &a in &touched {
                    tau = tau.min(net.capacity(a) / tree_load[a]);
                }
                // send τ·remaining along the tree, update lengths.
                // Divide by the capacity (rather than multiplying by the
                // precomputed reciprocal the fast path uses): division
                // is what `reference` does, and the strict path's whole
                // point is ulp-for-ulp agreement with it.
                for &a in &touched {
                    let sent = tau * tree_load[a];
                    arc_flow[a] += sent;
                    length[a] *= 1.0 + eps * (sent / net.capacity(a));
                    tree_load[a] = 0.0;
                }
                // mirror the same tree walk into the per-commodity
                // record before `remaining` is consumed; the workspace
                // still holds the tree the load was charged along
                if let Some(cf) = cf.as_mut() {
                    for (k, &(j, dst, _)) in g.sinks.iter().enumerate() {
                        let r = g.remaining[k];
                        if r <= 1e-12 {
                            continue;
                        }
                        let sent = tau * r;
                        g.ws.walk_path(net, dst, |a| cf[j][a] += sent);
                    }
                }
                for (k, &(j, _, _)) in g.sinks.iter().enumerate() {
                    let sent = tau * g.remaining[k];
                    routed[j] += sent;
                    g.remaining[k] -= sent;
                }
                if tau >= 1.0 {
                    break;
                }
            }
        }

        // rescale lengths when they get large (scale-invariant)
        let max_len = length.iter().copied().fold(0.0f64, f64::max);
        if max_len > RESCALE_ABOVE {
            let inv = 1.0 / max_len;
            for l in length.iter_mut() {
                *l *= inv;
            }
        }

        // certified primal: scale by max congestion
        let mu = arc_flow
            .iter()
            .zip(net.capacities())
            .map(|(&f, &c)| f / c)
            .fold(0.0f64, f64::max)
            .max(1e-300);
        let primal = commodities
            .iter()
            .enumerate()
            .map(|(j, c)| routed[j] / (mu * c.demand))
            .fold(f64::INFINITY, f64::min);

        // certified dual: D(l)/α(l) at current lengths, every few phases
        // — the rayon-parallel source-group Dijkstra pass
        if phases.is_multiple_of(dual_every) || phases == opts.max_phases {
            let d_l = weighted_length_sum(net, &length);
            if let Some(bound) = dual_bound(net, &mut groups, &length, d_l, false)? {
                best_dual = best_dual.min(bound);
            }
        }

        // emission sits in the sequential phase loop, so the event
        // sequence is deterministic whenever solves themselves are run
        // sequentially (see dctopo-obs crate docs)
        if obs::enabled() {
            obs::Event::new("fptas_phase")
                .field("mode", "strict")
                .field("phase", phases as u64)
                .field("eps", eps)
                .field("primal", primal)
                .field("dual", best_dual)
                .field(
                    "settles",
                    groups.iter().map(|g| g.ws.settles()).sum::<u64>(),
                )
                .nd("wall_us", obs::us_since(t_phase))
                .emit();
        }

        let better = best.as_ref().is_none_or(|b| primal > b.throughput);
        if better {
            best = Some(SolvedFlow {
                throughput: primal,
                upper_bound: best_dual,
                arc_flow: arc_flow.iter().map(|&f| f / mu).collect(),
                commodity_rate: routed.iter().map(|&r| r / mu).collect(),
                phases,
                settles: 0,
                commodity_arc_flow: cf.as_ref().map(|c| {
                    c.iter()
                        .map(|v| v.iter().map(|&f| f / mu).collect())
                        .collect()
                }),
            });
        }
        if primal >= (1.0 - opts.target_gap) * best_dual {
            break;
        }
        // plateau stop: the primal is certified-feasible regardless; when
        // it stops improving the remaining gap is dual-side looseness
        if primal > last_primal_check * 1.0005 {
            last_primal_check = primal;
            stagnant_phases = 0;
        } else {
            stagnant_phases += 1;
            if stagnant_phases >= opts.stall_phases {
                break;
            }
        }
    }

    let mut sol = best.expect("at least one phase ran");
    sol.upper_bound = best_dual;
    sol.phases = phases;
    sol.settles = groups.iter().map(|g| g.ws.settles()).sum();
    if obs::enabled() {
        obs::Event::new("fptas_solve")
            .field("mode", "strict")
            .field("groups", groups.len())
            .field("commodities", commodities.len())
            .field("phases", phases as u64)
            .field("settles", sol.settles)
            .field("lambda", sol.throughput)
            .field("upper_bound", sol.upper_bound)
            .nd("wall_us", obs::us_since(t_solve))
            .emit();
    }
    Ok(sol)
}

/// The incremental fast path. Each source group keeps a persistent
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
///    off the arcs that actually grew (`log[cursor..]`) instead of
///    recomputing from scratch.
///
/// Ladder misses rebuild lazily (speculative per-phase refreshes
/// measurably double-pay: a tree rebuilt at phase start is often
/// drifted again before its routing turn). Every [`EXACT_PASS_EVERY`]
/// phases a **rayon-parallel** exact pass (disjoint workspaces)
/// rebuilds all trees against one length snapshot, which makes that
/// phase's dual bound exact and lets the increase log compact; the
/// in-between phases harvest the valid mixed-age bound for free. The
/// step size ε anneals from [`COARSE_EPS`] down to the configured
/// value as the certified gap closes — coarse steps cross the early
/// primal ground in far fewer phases, fine steps finish the endgame.
fn solve_fast(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
    warm: Option<&WarmState>,
) -> Result<(SolvedFlow, WarmState), FlowError> {
    let num_arcs = net.arc_count();
    let eps = opts.epsilon;
    let mut groups = group_by_source(commodities, net.node_count());
    let inv_cap = net.inv_capacities();

    // Cross-solve warm start: inherit a previous solve's terminal
    // lengths (re-anchored to the cold gauge, per-arc healed) instead
    // of the flat `1/c(a)` opener. An unusable state degrades to a
    // cold start, bit-identical to `warm: None`.
    let warm_init = warm.and_then(|w| warm_lengths(net, w));
    let warm_started = warm_init.is_some();
    let mut length: Vec<f64> = warm_init.unwrap_or_else(|| inv_cap.to_vec());
    let mut arc_flow = vec![0.0f64; num_arcs];
    let mut routed = vec![0.0f64; commodities.len()];
    // optional per-commodity arc-flow record, same units as arc_flow
    let mut cf: Option<Vec<Vec<f64>>> = opts
        .record_commodity_flows
        .then(|| vec![vec![0.0f64; num_arcs]; commodities.len()]);

    // D(l) maintained incrementally at the length-update sites below;
    // recomputed in full only at init and after a uniform rescale, and
    // cross-checked against the full sum in debug builds.
    let mut d_l = weighted_length_sum(net, &length);

    // Global monotone increase log. `clock = base + log.len()` is an
    // absolute event counter; a group whose tree was computed at
    // absolute cursor `c` repairs with `log[c - base..]`. `updated_at`
    // holds each arc's last absolute update index (the exact-reuse
    // stamp). The log prefix is compacted whenever every cursor reaches
    // the clock (each dual refresh), keeping memory proportional to the
    // inter-refresh update volume.
    let mut log: Vec<u32> = Vec::new();
    let mut base = 0usize;
    let mut updated_at = vec![usize::MAX; num_arcs];

    let mut best_dual = f64::INFINITY;
    // seeds every group's full tree and checks reachability up front
    if let Some(bound) = dual_bound(net, &mut groups, &length, d_l, true)? {
        best_dual = best_dual.min(bound);
    }
    let dual_every = EXACT_PASS_EVERY;
    let mut last_primal_check = 0.0f64;
    let mut stagnant_phases = 0usize;

    let mut best: Option<SolvedFlow> = None;
    let mut phases = 0usize;
    let mut tree_load = vec![0.0f64; num_arcs];
    let mut touched: Vec<usize> = Vec::new();
    // Annealed step size: open with a coarse ε (few, productive phases
    // while the primal is far from optimal), halve it whenever the
    // primal stalls, and finish at the configured ε which governs the
    // endgame accuracy. Both certificates remain valid at every step —
    // the primal is feasible by construction and `D(l)/α(l)` bounds λ*
    // for *any* positive lengths — so annealing changes the trajectory,
    // never the guarantees.
    //
    // A warm-started solve skips the ramp entirely: the inherited
    // lengths already encode the congestion landscape the coarse
    // phases exist to discover, and re-coarsening would churn them.
    let mut eps_cur = if warm_started {
        eps
    } else {
        eps.max(COARSE_EPS)
    };
    // Patience before halving ε (or, at the final ε, before the
    // `stall_phases` plateau stop takes over).
    let anneal_patience = 10usize.min(opts.stall_phases);

    // Tier-ladder telemetry: augmentations accepted on an exact tree
    // (tier 1 / post-repair), accepted inside the drift gate (tier 2),
    // incremental repairs (tier 3), and post-rescale full rebuilds.
    // Per-phase counts with running solve totals; deterministic (pure
    // functions of the trajectory) and cheap (a few scalar adds per
    // augmentation), so they are maintained unconditionally — only
    // event emission is gated on `obs::enabled()`.
    let (mut ph_exact, mut ph_drift, mut ph_repairs, mut ph_rebuilds) = (0u64, 0u64, 0u64, 0u64);
    let (mut tot_exact, mut tot_drift, mut tot_repairs, mut tot_rebuilds) =
        (0u64, 0u64, 0u64, 0u64);
    let t_solve = obs::clock();

    while phases < opts.max_phases {
        phases += 1;
        let t_phase = obs::clock();
        // Tier-2 gate: tolerate a touched path while its current length
        // stays within (1 + ε/2) of the tree-time distance. A
        // tighter-than-(1+ε) gate keeps routing reactive to other
        // groups' congestion (the multiplicative-weights trajectory
        // degrades sharply when groups keep loading paths that
        // competitors already saturated).
        let drift = 1.0 + eps_cur * DRIFT_FRACTION;

        // ---- periodic exact pass (the parallel refresh) ----
        // Trees are rebuilt *lazily* inside the routing ladder (a
        // speculative per-phase refresh measurably double-pays: a tree
        // rebuilt at phase start is often drifted again by the earlier
        // groups of the same phase before its turn comes). Every
        // `dual_every`-th phase, though, all trees are rebuilt in one
        // rayon-parallel pass against a consistent length snapshot so
        // the dual bound below is the exact `D(l)/α(l)`, every repair
        // cursor realigns, and the increase log can be compacted.
        let exact_pass = phases.is_multiple_of(dual_every) || phases == opts.max_phases;
        if exact_pass {
            let clock = base + log.len();
            let rebuild = |g: &mut GroupState| {
                net.dijkstra(g.src, &length, &mut g.ws);
                g.cursor = clock;
                g.needs_full = false;
            };
            if groups.len() * net.arc_count() >= PARALLEL_DUAL_MIN_WORK {
                groups.par_iter_mut().for_each(rebuild);
            } else {
                groups.iter_mut().for_each(rebuild);
            }
        }

        // ---- dual bound, every phase and essentially free ----
        // Each group's stored distances were exact under the (older)
        // lengths its tree was computed at; lengths only grow, so they
        // are lower bounds on the current distances, Σ d_j·dist_j is a
        // lower bound on α(l), and `d_l / Σ` is a *valid* (if slightly
        // weak) upper bound on λ*. On exact-pass phases every tree was
        // just rebuilt, making the bound the exact `D(l)/α(l)`.
        //
        // The one exception is the aftermath of a uniform rescale:
        // un-rebuilt trees then hold distances in *pre-rescale* units —
        // far larger than any current distance, which would fabricate a
        // too-small (invalid!) bound. Skip the harvest until the next
        // rebuild has cleared every `needs_full` flag.
        if groups.iter().all(|g| !g.needs_full) {
            #[cfg(debug_assertions)]
            {
                let full = weighted_length_sum(net, &length);
                debug_assert!(
                    (d_l - full).abs() <= 1e-6 * full.max(f64::MIN_POSITIVE),
                    "incremental D(l) drifted: {d_l} vs {full}"
                );
            }
            let mut alpha = 0.0f64;
            for g in groups.iter() {
                for &(_, dst, demand) in &g.sinks {
                    alpha += demand * g.ws.distance(dst);
                }
            }
            let bound = d_l / alpha;
            if bound.is_finite() && bound > 0.0 {
                best_dual = best_dual.min(bound);
            }
        }
        if exact_pass {
            // every cursor is at the clock: compact the increase log
            base += log.len();
            log.clear();
        }

        // ---- sequential routing in fixed group order ----
        for g in &mut groups {
            for (k, &(_, _, d)) in g.sinks.iter().enumerate() {
                g.remaining[k] = d;
            }
            let mut inner = 0usize;
            while g.remaining.iter().any(|&r| r > 1e-12) {
                inner += 1;
                if inner > 64 {
                    // carry skewed-instance leftovers to the next phase
                    // (correctness unaffected; see strict path)
                    break;
                }
                if g.needs_full {
                    // post-rescale: stored distances are in pre-rescale
                    // units, so the drift gate cannot be trusted — rebuild
                    net.dijkstra(g.src, &length, &mut g.ws);
                    g.cursor = base + log.len();
                    g.needs_full = false;
                    ph_rebuilds += 1;
                }
                // walk the tree through the reuse ladder; repair at most
                // once per augmentation (a repaired tree is exact)
                let mut exact = base + log.len() == g.cursor;
                loop {
                    touched.clear();
                    let mut stale = false;
                    for (k, &(_, dst, _)) in g.sinks.iter().enumerate() {
                        let r = g.remaining[k];
                        if r <= 1e-12 {
                            continue;
                        }
                        if !g.ws.distance(dst).is_finite() {
                            return Err(FlowError::Unreachable { src: g.src, dst });
                        }
                        let mut plen = 0.0f64;
                        let mut hit = false;
                        g.ws.walk_path(net, dst, |a| {
                            if tree_load[a] == 0.0 {
                                touched.push(a);
                            }
                            tree_load[a] += r;
                            plen += length[a];
                            hit |= updated_at[a] != usize::MAX && updated_at[a] >= g.cursor;
                        });
                        // tier 1: untouched path is still exactly
                        // shortest; tier 2: touched but within the gate
                        if !exact && hit && plen > drift * g.ws.distance(dst) {
                            stale = true;
                            break;
                        }
                    }
                    if !stale {
                        break;
                    }
                    // tier 3: incremental repair of the drifted tree
                    // (every stored tree is full — seeded, exact-pass,
                    // and repaired trees all settle the component, as
                    // repair's preconditions require)
                    for &a in &touched {
                        tree_load[a] = 0.0;
                    }
                    net.dijkstra_repair(g.src, &length, &log[g.cursor - base..], &mut g.ws);
                    g.cursor = base + log.len();
                    exact = true;
                    ph_repairs += 1;
                }
                if exact {
                    ph_exact += 1;
                } else {
                    ph_drift += 1;
                }
                let mut tau = 1.0f64;
                for &a in &touched {
                    tau = tau.min(net.capacity(a) / tree_load[a]);
                }
                for &a in &touched {
                    let sent = tau * tree_load[a];
                    arc_flow[a] += sent;
                    let old = length[a];
                    let new = old * (1.0 + eps_cur * (sent * inv_cap[a]));
                    length[a] = new;
                    // incremental D(l), the repair log, and the
                    // exact-reuse stamp — all maintained at the one
                    // place lengths ever change
                    d_l += net.capacity(a) * (new - old);
                    updated_at[a] = base + log.len();
                    log.push(a as u32);
                    tree_load[a] = 0.0;
                }
                // mirror the same tree walk into the per-commodity
                // record before `remaining` is consumed; the workspace
                // still holds the tree the load was charged along
                if let Some(cf) = cf.as_mut() {
                    for (k, &(j, dst, _)) in g.sinks.iter().enumerate() {
                        let r = g.remaining[k];
                        if r <= 1e-12 {
                            continue;
                        }
                        let sent = tau * r;
                        g.ws.walk_path(net, dst, |a| cf[j][a] += sent);
                    }
                }
                for (k, &(j, _, _)) in g.sinks.iter().enumerate() {
                    let sent = tau * g.remaining[k];
                    routed[j] += sent;
                    g.remaining[k] -= sent;
                }
                if tau >= 1.0 {
                    break;
                }
            }
        }

        // rescale lengths when they get large (scale-invariant). Scaling
        // is not an arcwise *increase*, so incremental repair no longer
        // applies: recompute D(l) in full and flag every tree for a full
        // rebuild in the next refresh pass.
        let max_len = length.iter().copied().fold(0.0f64, f64::max);
        if max_len > RESCALE_ABOVE {
            let inv = 1.0 / max_len;
            for l in length.iter_mut() {
                *l *= inv;
            }
            d_l = weighted_length_sum(net, &length);
            for g in groups.iter_mut() {
                g.needs_full = true;
            }
        }

        let mu = arc_flow
            .iter()
            .zip(inv_cap)
            .map(|(&f, &ic)| f * ic)
            .fold(0.0f64, f64::max)
            .max(1e-300);
        let primal = commodities
            .iter()
            .enumerate()
            .map(|(j, c)| routed[j] / (mu * c.demand))
            .fold(f64::INFINITY, f64::min);

        // emission sits in the sequential phase loop, so the event
        // sequence is deterministic whenever solves themselves are run
        // sequentially (see dctopo-obs crate docs)
        if obs::enabled() {
            obs::Event::new("fptas_phase")
                .field("mode", "fast")
                .field("phase", phases as u64)
                .field("eps", eps_cur)
                .field("exact_pass", exact_pass)
                .field("primal", primal)
                .field("dual", best_dual)
                .field("d_l", d_l)
                .field("aug_exact", ph_exact)
                .field("aug_drift", ph_drift)
                .field("repairs", ph_repairs)
                .field("rescale_rebuilds", ph_rebuilds)
                .field(
                    "settles",
                    groups.iter().map(|g| g.ws.settles()).sum::<u64>(),
                )
                .nd("wall_us", obs::us_since(t_phase))
                .emit();
        }
        tot_exact += ph_exact;
        tot_drift += ph_drift;
        tot_repairs += ph_repairs;
        tot_rebuilds += ph_rebuilds;
        (ph_exact, ph_drift, ph_repairs, ph_rebuilds) = (0, 0, 0, 0);

        let better = best.as_ref().is_none_or(|b| primal > b.throughput);
        if better {
            best = Some(SolvedFlow {
                throughput: primal,
                upper_bound: best_dual,
                arc_flow: arc_flow.iter().map(|&f| f / mu).collect(),
                commodity_rate: routed.iter().map(|&r| r / mu).collect(),
                phases,
                settles: 0,
                commodity_arc_flow: cf.as_ref().map(|c| {
                    c.iter()
                        .map(|v| v.iter().map(|&f| f / mu).collect())
                        .collect()
                }),
            });
        }
        if primal >= (1.0 - opts.target_gap) * best_dual {
            break;
        }
        // a coarse step size has done its job once the certified gap
        // shrinks to its own order (it cannot certify much further):
        // halve ε and keep going
        if eps_cur > eps && primal >= (1.0 - eps_cur) * best_dual {
            let next = (eps_cur * 0.5).max(eps);
            if obs::enabled() {
                obs::Event::new("fptas_anneal")
                    .field("phase", phases as u64)
                    .field("from", eps_cur)
                    .field("to", next)
                    .field("reason", "gap")
                    .emit();
            }
            eps_cur = next;
            stagnant_phases = 0;
        }
        if primal > last_primal_check * 1.0005 {
            last_primal_check = primal;
            stagnant_phases = 0;
        } else {
            stagnant_phases += 1;
            // a stall at a coarse ε also means that step is exhausted
            if eps_cur > eps && stagnant_phases >= anneal_patience {
                let next = (eps_cur * 0.5).max(eps);
                if obs::enabled() {
                    obs::Event::new("fptas_anneal")
                        .field("phase", phases as u64)
                        .field("from", eps_cur)
                        .field("to", next)
                        .field("reason", "stall")
                        .emit();
                }
                eps_cur = next;
                stagnant_phases = 0;
            } else if stagnant_phases >= opts.stall_phases {
                break;
            }
        }
    }

    let mut sol = best.expect("at least one phase ran");
    sol.upper_bound = best_dual;
    sol.phases = phases;
    sol.settles = groups.iter().map(|g| g.ws.settles()).sum();
    if obs::enabled() {
        obs::Event::new("fptas_solve")
            .field("mode", "fast")
            .field("warm", warm_started)
            .field("groups", groups.len())
            .field("commodities", commodities.len())
            .field("phases", phases as u64)
            .field("settles", sol.settles)
            .field("aug_exact", tot_exact)
            .field("aug_drift", tot_drift)
            .field("repairs", tot_repairs)
            .field("rescale_rebuilds", tot_rebuilds)
            .field("lambda", sol.throughput)
            .field("upper_bound", sol.upper_bound)
            .nd("wall_us", obs::us_since(t_solve))
            .emit();
    }
    Ok((sol, WarmState { lengths: length }))
}

/// The certified dual bound `D(l)/α(l)` at the given lengths, or `None`
/// when the ratio is degenerate (e.g. α = 0 before any length growth).
///
/// `d_l` is `D(l) = Σ_a c(a)·l(a)` supplied by the caller (the strict
/// path computes it in full per call; the fast path maintains it
/// incrementally). `α(l)` needs one shortest-path tree per source group
/// against fixed lengths — a read-only pass that runs **in parallel on
/// rayon** into the disjoint per-group workspaces; with `settle_all`
/// the pass settles whole components (the fast path's tree refresh),
/// otherwise it early-terminates at each group's targets. The `α`
/// reduction itself is sequential in group order, so the bound is
/// bit-identical at every thread count.
fn dual_bound(
    net: &CsrNet,
    groups: &mut [GroupState],
    length: &[f64],
    d_l: f64,
    settle_all: bool,
) -> Result<Option<f64>, FlowError> {
    let settle = |g: &mut GroupState| {
        if settle_all {
            net.dijkstra(g.src, length, &mut g.ws);
        } else {
            net.dijkstra_targets(g.src, length, &g.targets, &mut g.ws);
        }
    };
    // Fan out only when the pass is big enough to amortise the pool
    // dispatch (and to avoid contending for pool workers when many
    // Runner threads each solve their own instance). Results are
    // identical either way — the sequential path is exactly the
    // one-thread schedule.
    if groups.len() * net.arc_count() >= PARALLEL_DUAL_MIN_WORK {
        groups.par_iter_mut().for_each(settle);
    } else {
        groups.iter_mut().for_each(settle);
    }
    let mut alpha = 0.0f64;
    for g in groups.iter() {
        for &(_, dst, demand) in &g.sinks {
            let d = g.ws.distance(dst);
            if !d.is_finite() {
                return Err(FlowError::Unreachable { src: g.src, dst });
            }
            alpha += demand * d;
        }
    }
    let bound = d_l / alpha;
    Ok((bound.is_finite() && bound > 0.0).then_some(bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_concurrent_flow;
    use dctopo_graph::Graph;
    use rayon::ThreadPoolBuilder;

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
        let s = max_concurrent_flow(&g, &[Commodity::unit(0, 1)], &opts()).unwrap();
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
        let s = max_concurrent_flow(&g, &cs, &opts()).unwrap();
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
        let s = max_concurrent_flow(&g, &[Commodity::unit(0, 2)], &opts()).unwrap();
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
        let s1 = max_concurrent_flow(&g1, &cs, &opts()).unwrap();
        let s2 = max_concurrent_flow(&g2, &cs, &opts()).unwrap();
        assert!((s2.throughput / s1.throughput - 2.0).abs() < 0.08);
    }

    /// Demand scaling: doubling demand halves λ.
    #[test]
    fn demand_scaling() {
        let mut g = Graph::new(2);
        g.add_unit_edge(0, 1).unwrap();
        let s1 = max_concurrent_flow(
            &g,
            &[Commodity {
                src: 0,
                dst: 1,
                demand: 1.0,
            }],
            &opts(),
        )
        .unwrap();
        let s2 = max_concurrent_flow(
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

    /// Flow solution is actually feasible: no arc over capacity.
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
        let s = max_concurrent_flow(&g, &cs, &opts()).unwrap();
        for a in 0..g.arc_count() {
            assert!(
                s.arc_flow[a] <= g.arc_capacity(a) * (1.0 + 1e-9),
                "arc {a} over capacity: {} > {}",
                s.arc_flow[a],
                g.arc_capacity(a)
            );
        }
        // each commodity achieves at least λ·d
        for (j, c) in cs.iter().enumerate() {
            assert!(s.commodity_rate[j] >= s.throughput * c.demand - 1e-9);
        }
        assert!(s.gap() <= 0.02 + 1e-9);
    }

    /// Unreachable destination is an error, not a hang — on both paths.
    #[test]
    fn unreachable_errors() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(2, 3).unwrap();
        let r = max_concurrent_flow(&g, &[Commodity::unit(0, 3)], &opts());
        assert!(matches!(r, Err(FlowError::Unreachable { src: 0, dst: 3 })));
        let strict = opts().with_strict_reference(true);
        let r = max_concurrent_flow(&g, &[Commodity::unit(0, 3)], &strict);
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
        let s = max_concurrent_flow(&g, &cs, &opts()).unwrap();
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
        let s = max_concurrent_flow(&g, &[Commodity::unit(0, 3)], &opts()).unwrap();
        assert!((s.mean_flow_path_len() - 3.0).abs() < 1e-6);
    }

    /// Utilization on the single-edge instance is flow/capacity over both
    /// directions: 1 unit flows one way on a 2-unit bidirectional edge.
    #[test]
    fn utilization_definition() {
        let mut g = Graph::new(2);
        g.add_unit_edge(0, 1).unwrap();
        let s = max_concurrent_flow(&g, &[Commodity::unit(0, 1)], &opts()).unwrap();
        let u = s.utilization(&g);
        assert!((u - 0.5).abs() < 0.03, "U = {u}");
        let eu = s.edge_utilization(&g);
        assert!((eu[0] - 1.0).abs() < 0.03);
    }

    /// Heterogeneous capacities: big trunk plus thin side path.
    #[test]
    fn heterogeneous_capacities() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 10.0).unwrap();
        g.add_edge(0, 1, 1.0).unwrap();
        let s = max_concurrent_flow(
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

    /// The strict escape hatch reproduces the retained baseline
    /// bit-for-bit — the pin that keeps `reference` honest.
    #[test]
    fn strict_path_matches_reference_bitwise() {
        let mut g = Graph::new(9);
        for v in 0..9 {
            g.add_unit_edge(v, (v + 1) % 9).unwrap();
        }
        g.add_edge(0, 4, 2.0).unwrap();
        g.add_edge(2, 7, 0.5).unwrap();
        let cs = [
            Commodity::unit(0, 5),
            Commodity::unit(1, 6),
            Commodity::unit(0, 3),
            Commodity {
                src: 7,
                dst: 2,
                demand: 1.5,
            },
        ];
        let strict = opts().with_strict_reference(true);
        let a = crate::reference::max_concurrent_flow_graph(&g, &cs, &strict).unwrap();
        let b = max_concurrent_flow(&g, &cs, &strict).unwrap();
        assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
        assert_eq!(a.upper_bound.to_bits(), b.upper_bound.to_bits());
        assert_eq!(a.phases, b.phases);
        for (x, y) in a.arc_flow.iter().zip(&b.arc_flow) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.commodity_rate.iter().zip(&b.commodity_rate) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
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
        let fast = max_concurrent_flow(&g, &cs, &opts()).unwrap();
        let strict = max_concurrent_flow(&g, &cs, &opts().with_strict_reference(true)).unwrap();
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
            let s = max_concurrent_flow(&g, &cs, &opts().with_strict_reference(strict)).unwrap();
            assert!(s.settles > 0, "strict {strict}: no settles recorded");
        }
    }

    /// `warm: None` and an empty/ill-sized [`WarmState`] are bitwise
    /// the cold solve — the warm hook is invisible until a usable
    /// state is supplied.
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
        let cold = max_concurrent_flow_csr(&net, &cs, &o).unwrap();
        let (none, state) = max_concurrent_flow_warm(&net, &cs, &o, None).unwrap();
        let (empty, _) = max_concurrent_flow_warm(&net, &cs, &o, Some(&WarmState::cold())).unwrap();
        let bad = WarmState {
            lengths: vec![1.0; 3], // wrong arc space → degrade to cold
        };
        let (ill, _) = max_concurrent_flow_warm(&net, &cs, &o, Some(&bad)).unwrap();
        for s in [&none, &empty, &ill] {
            assert_eq!(cold.throughput.to_bits(), s.throughput.to_bits());
            assert_eq!(cold.upper_bound.to_bits(), s.upper_bound.to_bits());
            assert_eq!(cold.phases, s.phases);
            for (x, y) in cold.arc_flow.iter().zip(&s.arc_flow) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert!(state.is_seeded());
        assert_eq!(state.arc_count(), net.arc_count());
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
        let (_, state) = max_concurrent_flow_warm(&net, &cs, &o, None).unwrap();
        // drift demands ±10% deterministically
        let drifted: Vec<Commodity> = cs
            .iter()
            .enumerate()
            .map(|(i, c)| Commodity {
                demand: c.demand * (0.9 + 0.2 * (i as f64 / 7.0)),
                ..*c
            })
            .collect();
        let cold = max_concurrent_flow_csr(&net, &drifted, &o).unwrap();
        let (warm, next) = max_concurrent_flow_warm(&net, &drifted, &o, Some(&state)).unwrap();
        // a warm solve may plateau-stop slightly past the target (its
        // inherited lengths make the *dual* tighter from phase one);
        // the certified gap stays O(ε) regardless
        let gap_cap = o.target_gap.max(o.epsilon) + 1e-9;
        assert!(warm.gap() <= gap_cap, "warm gap {}", warm.gap());
        assert!(warm.throughput <= cold.upper_bound * (1.0 + 1e-9));
        assert!(cold.throughput <= warm.upper_bound * (1.0 + 1e-9));
        assert!(next.is_seeded());
        // feasibility of the warm primal: no arc over capacity
        for a in 0..net.arc_count() {
            assert!(warm.arc_flow[a] <= net.capacity(a) * (1.0 + 1e-9));
        }
    }

    /// The strict path refuses to warm-start: its output with a seeded
    /// state is bitwise the strict cold output, and it hands back a
    /// cold state.
    #[test]
    fn strict_path_never_warm_starts() {
        let mut g = Graph::new(8);
        for v in 0..8 {
            g.add_unit_edge(v, (v + 1) % 8).unwrap();
        }
        let net = dctopo_graph::CsrNet::from_graph(&g);
        let cs = [Commodity::unit(0, 4), Commodity::unit(1, 5)];
        let o = opts();
        let (_, seeded) = max_concurrent_flow_warm(&net, &cs, &o, None).unwrap();
        let strict = o.with_strict_reference(true);
        let cold = max_concurrent_flow_csr(&net, &cs, &strict).unwrap();
        let (warm, state) = max_concurrent_flow_warm(&net, &cs, &strict, Some(&seeded)).unwrap();
        assert_eq!(cold.throughput.to_bits(), warm.throughput.to_bits());
        assert_eq!(cold.upper_bound.to_bits(), warm.upper_bound.to_bits());
        assert!(!state.is_seeded());
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
                    .install(|| max_concurrent_flow(&g, &cs, &o).unwrap())
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
