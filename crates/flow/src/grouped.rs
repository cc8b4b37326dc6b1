//! Aggregated-demand max concurrent flow: `O(arcs + nodes)` working
//! memory instead of the pairwise formulation's `O(n²)` commodities.
//!
//! The pairwise solver ([`crate::Backend::Fptas`]) keeps one
//! [`DijkstraWorkspace`] **per source group** plus a `(src, dst,
//! demand)` triple per commodity. For an all-to-all matrix on an
//! `n`-switch fabric that is `Θ(n²)` state before the first phase runs
//! — the reason ≥1024-switch dense instances OOM'd rather than merely
//! being slow. This module replaces the commodity *list* with demand
//! *descriptors*: a [`DemandGroup`] says "this source sends `scale ·
//! weights[v]` to every switch `v ≠ src`", with the weight vector shared
//! across all groups behind an [`Arc`]. An all-to-all fabric is `n`
//! groups sharing **one** `O(n)` vector: total demand state `O(n)`, not
//! `O(n²)`.
//!
//! ## The tree-aggregated Garg–Könemann step
//!
//! The pairwise solver already routes a source group's commodities down
//! one shortest-path tree per step, but it materialises per-sink
//! `remaining` vectors and walks each sink's path individually. Here
//! the whole group advances **proportionally**: each step routes the
//! same fraction `τ` of every sink's remaining demand, so the only
//! per-group routing state is a single scalar (`frac_remaining`).
//! Subtree loads come from one leaf-up pass over the tree in reverse
//! settle order ([`DijkstraWorkspace::settled`]), where every child
//! comes before its parent: each loaded node pushes its accumulated
//! demand onto its parent arc, which costs `O(n)` per step however
//! many sinks the group has:
//!
//! 1. build the tree under current lengths ([`CsrNet::dijkstra`], at
//!    every node count and pool width);
//! 2. `L(a)` = demand in the subtree hanging under arc `a`;
//! 3. `τ = min(1, min_a c(a)/L(a))` — the capacity-scaled step;
//! 4. `flow(a) += τ·L(a)`, `l(a) *= 1 + ε·τ·L(a)/c(a)`,
//!    `frac_remaining *= 1 − τ`.
//!
//! A phase starts every group at `frac_remaining = unit`: 1 in the
//! first phase, and from the second on the power of two nearest twice
//! the first phase's λ when that is outside `[1/4, 8]`
//! (`gk::Core::normalise`), so a phase of dense demand routes about
//! twice the `λ*·d` the network carries instead of hundreds of times it,
//! and a phase of sparse demand enough to move the lengths. The first phase's harvested
//! bound would be the natural estimate, but it is read at lengths the
//! first phase has already blown up: on RRG(32, 10, 6) all-to-all-agg
//! it is 0.10 against λ* = 0.0059, where the primal reads 0.0042.
//!
//! Because every sink of a group routes the *same* cumulative fraction
//! of its demand, the per-sink rates collapse to one factor per group:
//! a grouped answer's [`SolvedFlow::commodity_rate`] holds `factor_g`,
//! and sink `dst` of group `g` receives `factor_g · demand(dst)`. The
//! certified primal is `λ = min_g factor_g` after scaling by the worst
//! congestion, exactly the pairwise `min_j routed_j / (μ·d_j)`
//! specialised to proportional routing.
//!
//! ## Certification
//!
//! The dual bound is the usual `D(l)/α(l)` with `α(l) = Σ_j d_j ·
//! dist_l(s_j, t_j)`. `α` is harvested from the **first** tree each
//! group builds in a phase (a free by-product — no extra SSSP pass),
//! while `D(l)` is summed at phase end. Lengths only grow within a
//! phase, so each harvested distance is ≤ its value under the
//! phase-end lengths, hence `D(l_end)/α_harvest ≥ D(l_end)/α(l_end) ≥
//! λ*`: still a valid (slightly looser) certificate. Rescaling runs
//! *after* the bound is taken so the growth argument is never violated.
//! After the phase loop a **final exact harvest** at the terminal
//! lengths evaluates `D(l)` and `α(l)` at the *same* `l` (a valid bound
//! for any positive length function by LP duality) and usually tightens
//! the interval by an order of magnitude. It grows its trees from
//! whichever side has fewer roots: one per group from its source, or
//! one per distinct sink over the reversed lengths `len[a ^ 1]` — the
//! model is undirected, so an arc is live exactly when its reverse is,
//! and a sink's tree holds `dist_l(src, sink)` for every source. A tie
//! keeps the sources, so all-to-all demand builds `groups` trees and
//! hot-spot demand one per hot switch.
//!
//! ## Determinism
//!
//! Groups route sequentially in input order; the leaf-up pass visits
//! nodes in reverse settle order, which is a pure function of the arc
//! lengths (heap keys are `(distance, node)` pairs, so no two are
//! equal and the pop sequence has no ties to break), and so is every
//! float accumulation order; sinks are visited in node-index order;
//! every tree is one sequential `CsrNet::dijkstra`. The solve touches
//! the worker pool nowhere, so it is
//! **bit-identical across thread counts and reruns** — `settles`
//! included — by construction rather than by argument. (A window of
//! groups routed against one stale length snapshot was measured and
//! rejected: on hot-spot demand it multiplies the certified gap; see
//! `docs/PERF_NOTES.md`, *Resolution*.)

use std::sync::Arc;

use dctopo_graph::certify::{self, Certificate, Violation};
use dctopo_graph::{CsrNet, DijkstraWorkspace, NodeId};
use dctopo_obs as obs;

use crate::gk::{Cong, Core, Stop};
use crate::{demand_in_range, node_in_range, FlowError, FlowOptions, SolvedFlow};

/// One source and its aggregated sinks — the grouped analogue of a run
/// of [`crate::Commodity`] entries sharing a `src`: demand `scale ·
/// weights[v]` to every node `v` with `weights[v] > 0`, **skipping `v ==
/// src`** (same-switch traffic never enters the network).
#[derive(Debug, Clone)]
pub struct DemandGroup {
    /// Source node.
    pub src: NodeId,
    /// Per-node sink weights (length = node count; zero = no sink),
    /// `Arc`-shared so `n` groups over the same population cost `O(n)`
    /// total, not `O(n²)`.
    pub weights: Arc<Vec<f64>>,
    /// Multiplier applied to every weight (e.g. servers at the source
    /// switch for switch-level all-to-all).
    pub scale: f64,
}

impl DemandGroup {
    /// All-to-all from `src`: demand `scale · weights[v]` to every
    /// other node with positive weight.
    pub fn weighted(src: NodeId, weights: Arc<Vec<f64>>, scale: f64) -> Self {
        DemandGroup {
            src,
            weights,
            scale,
        }
    }

    /// Visit every `(dst, demand)` sink in node-index order, skipping
    /// `src` and zero weights.
    pub fn for_each_sink(&self, mut f: impl FnMut(NodeId, f64)) {
        for (v, &w) in self.weights.iter().enumerate() {
            if v != self.src && w > 0.0 {
                f(v, self.scale * w);
            }
        }
    }

    /// Total demand out of this group's source.
    pub fn total_demand(&self) -> f64 {
        let mut t = 0.0;
        self.for_each_sink(|_, d| t += d);
        t
    }

    /// Number of `(src, dst)` pairs this group aggregates.
    pub fn sink_count(&self) -> usize {
        let mut k = 0usize;
        self.for_each_sink(|_, _| k += 1);
        k
    }

    /// Check this group, the `index`-th of a solve on a net of `n`
    /// nodes: its source on the net, one finite non-negative weight per
    /// node, and every sink's demand `scale · w` (which also refuses a
    /// bad `scale`) and the group's total in [`crate::MIN_DEMAND`,
    /// [`crate::MAX_DEMAND`]]; no sinks is a total of zero.
    pub(crate) fn check(&self, index: usize, n: usize) -> Result<(), FlowError> {
        node_in_range(self.src, n)?;
        if self.weights.len() != n {
            return Err(FlowError::BadOptions(format!(
                "group {index}: weight vector has {} entries, net has {n} nodes",
                self.weights.len()
            )));
        }
        if self.weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(FlowError::BadOptions(format!(
                "group {index}: weights must be finite and non-negative"
            )));
        }
        let (mut total, mut out_of_range) = (0.0f64, None);
        self.for_each_sink(|_, d| {
            total += d;
            if !demand_in_range(d) {
                out_of_range = out_of_range.or(Some(d));
            }
        });
        match out_of_range.or((!demand_in_range(total)).then_some(total)) {
            Some(demand) => Err(FlowError::BadDemand { index, demand }),
            None => Ok(()),
        }
    }
}

impl SolvedFlow {
    /// Re-derive a [`crate::solve_grouped`] certificate, solved on `net` for
    /// `groups`, with [`certify::check`]: every sink of group `g` is one
    /// commodity at rate `commodity_rate[g] · demand`. Returns the
    /// re-derived bound.
    ///
    /// # Errors
    /// The first [`Violation`] the checker finds.
    pub fn certify_groups(&self, net: &CsrNet, groups: &[DemandGroup]) -> Result<f64, Violation> {
        let (mut demands, mut rates) = (Vec::new(), Vec::new());
        for (g, &factor) in groups.iter().zip(&self.commodity_rate) {
            g.for_each_sink(|dst, d| {
                demands.push((g.src, dst, d));
                rates.push(factor * d);
            });
        }
        let cert = Certificate {
            lambda: self.throughput,
            upper_bound: self.upper_bound,
            arc_flow: &self.arc_flow,
            rates: &rates,
            record: None,
            dual_lengths: &self.dual_lengths,
            paths: None,
        };
        certify::check(net, &demands, &cert)
    }
}

/// The aggregated arm of the backend dispatch, which has validated
/// `groups` and `opts`: solve on `net` with the tree-aggregated loop
/// (module docs), showing `phase_end` the arc lengths each phase ends
/// on and the settles so far (tests compare shortest-path kernels on
/// the lengths and split the harvest's settles from the phases').
pub(crate) fn solve(
    net: &CsrNet,
    groups: &[DemandGroup],
    opts: &FlowOptions,
    mut phase_end: impl FnMut(&[f64], u64),
) -> Result<SolvedFlow, FlowError> {
    let n = net.node_count();
    // lengths l(a) = 1/c(a) initially, as in the pairwise solver, and
    // the strict pairwise loop's `x / c(a)` (this loop was written from
    // it and is pinned in that form)
    let mut core = Core::new(net, Cong::Divide, None, opts.epsilon, 1);
    // cumulative fraction of each group's demand that has been routed
    // (unscaled): sink dst of group g has received routed_frac[g]·d(dst)
    let mut routed_frac = vec![0.0f64; groups.len()];

    // ONE shared workspace — the memory story. Groups route
    // sequentially, so warm per-group trees are traded for O(n) state.
    let mut ws = DijkstraWorkspace::default();
    // leaf-up scratch: per-node demand still to push toward the root
    let mut node_demand = vec![0.0f64; n];

    let mut best: Option<SolvedFlow> = None;
    let mut phases = 0usize;
    let mut stop = Stop::Phases;

    while phases < opts.max_phases {
        phases += 1;
        let t_phase = obs::clock();
        // per-phase telemetry: routing steps (= trees built) plus
        // tree-build and leaf-up wall time (nd; zero when disabled —
        // `obs::clock()` never touches the clock then)
        let mut ph_steps = 0u64;
        let mut tree_us = 0u64;
        let mut leafup_us = 0u64;
        // α(l) harvested from each group's first tree of the phase
        let mut alpha_phase = 0.0f64;

        // a group's phase demand is `unit` times its demand: the
        // fraction routed starts there
        let (unit, residue) = (core.unit(), core.residue());
        for (gi, g) in groups.iter().enumerate() {
            let mut frac_remaining = unit;
            let mut inner = 0usize;
            while frac_remaining > residue {
                inner += 1;
                if inner > 64 {
                    // A first phase routes whole demands, before its
                    // primal sets the unit, and on dense demand a group
                    // would take hundreds of steps: every group of
                    // RRG(32, 10, 6) all-to-all-agg (`topobench solve
                    // rrg --switches 32 --ports 10 --degree 6 --traffic
                    // all-to-all-agg`) and of the three grouped-weighted
                    // trajectory pins stops here in phase 1, and nothing
                    // after it. The leftover is dropped — the next phase
                    // starts the group afresh, and `routed_frac` counts
                    // only what was sent.
                    break;
                }
                ph_steps += 1;
                let t_tree = obs::clock();
                net.dijkstra(g.src, core.length(), &mut ws);
                tree_us += obs::us_since(t_tree);

                // seed the per-node sink demand for this step and check
                // reachability; harvest α from the phase's first tree
                let mut unreachable: Option<NodeId> = None;
                let mut alpha_g = 0.0f64;
                g.for_each_sink(|dst, d| {
                    let dist = ws.distance(dst);
                    if !dist.is_finite() {
                        unreachable = unreachable.or(Some(dst));
                        return;
                    }
                    node_demand[dst] += frac_remaining * d;
                    if inner == 1 {
                        alpha_g += d * dist;
                    }
                });
                if let Some(dst) = unreachable {
                    return Err(FlowError::Unreachable { src: g.src, dst });
                }
                if inner == 1 {
                    alpha_phase += alpha_g;
                }

                // leaf-up: reverse settle order visits every child
                // before its parent, so each loaded node pushes its whole
                // subtree's demand onto its parent arc, L(a), in one visit
                let t_leafup = obs::clock();
                for &v in ws.settled().iter().rev() {
                    let v = v as usize;
                    let load = node_demand[v];
                    if load > 0.0 {
                        node_demand[v] = 0.0;
                        if let Some(a) = ws.parent(v) {
                            core.load(a, load);
                            node_demand[net.arc_tail(a)] += load;
                        }
                    }
                }
                leafup_us += obs::us_since(t_leafup);

                let tau = core.step(|_, _, _| {});
                routed_frac[gi] += tau * frac_remaining;
                frac_remaining -= tau * frac_remaining;
                if tau >= 1.0 {
                    break;
                }
            }
        }

        // dual BEFORE rescale: α was harvested under in-phase lengths,
        // which only grew since — D(l_end)/α_harvest ≥ D(l_end)/α(l_end)
        // ≥ λ*, a valid certificate (module docs)
        let d_l = core.d_l();
        core.note_dual(d_l, alpha_phase, None);
        core.rescale();
        phase_end(core.length(), ws.settles());

        // certified primal: scale by worst congestion
        let mu = core.congestion(0);
        let primal = routed_frac.iter().copied().fold(f64::INFINITY, f64::min) / mu;
        if phases == 1 {
            // the first primal estimates λ* for the phase unit from
            // phase 2 on (module docs)
            core.normalise(primal);
        }

        // groups route sequentially, so this sits outside any parallel
        // region and the event sequence is deterministic per solve
        if obs::enabled() {
            obs::Event::new("grouped_phase")
                .field("phase", phases as u64)
                .field("steps", ph_steps)
                .field("alpha", alpha_phase)
                .field("d_l", d_l)
                .field("primal", primal)
                .field("dual", core.best_dual())
                .field("settles", ws.settles())
                .nd("tree_us", tree_us)
                .nd("leafup_us", leafup_us)
                .nd("wall_us", obs::us_since(t_phase))
                .emit();
        }

        if best.as_ref().is_none_or(|b| primal > b.throughput) {
            best = Some(SolvedFlow {
                throughput: primal,
                upper_bound: core.best_dual(),
                arc_flow: core.feasible_flow(0, mu),
                commodity_rate: routed_frac.iter().map(|&r| r / mu).collect(),
                phases,
                settles: 0,
                commodity_arc_flow: None,
                dual_lengths: Vec::new(),
            });
        }
        if let Some(why) = core.verdict(primal, opts, phases, None) {
            stop = why;
            break;
        }
    }

    // Final exact certificate: one tree per root at the terminal
    // lengths evaluates α(l) and D(l) at the SAME l, which bounds λ*
    // for any positive length function by LP duality. The in-loop
    // mixed-age bound loosens as lengths grow within a phase; the
    // terminal lengths are the most congestion-aware of the run and
    // this single extra harvest usually tightens the interval by an
    // order of magnitude for O(min(groups, sinks)) trees total.
    let t_harvest = obs::clock();
    let harvest = harvest_alpha(net, groups, core.length(), &mut ws);
    let d_final = core.d_l();
    let final_bound = core.note_dual(d_final, harvest.alpha, None);
    if obs::enabled() {
        obs::Event::new("grouped_harvest")
            .field("side", harvest.side)
            .field("trees", harvest.trees)
            .field("alpha", harvest.alpha)
            .field("d_l", d_final)
            .field("bound", final_bound)
            .nd("wall_us", obs::us_since(t_harvest))
            .emit();
    }

    // the dispatch refused `max_phases == 0`, so a phase set `best`
    let mut sol = best.expect("at least one phase ran");
    sol.upper_bound = core.best_dual();
    sol.dual_lengths = core.take_dual_lengths();
    sol.phases = phases;
    sol.settles = ws.settles();
    if obs::enabled() {
        obs::Event::new("grouped_solve")
            .field("groups", groups.len())
            .field("phases", phases as u64)
            .field("stop", stop.name())
            .field("unit", core.unit())
            .field("settles", sol.settles)
            .field("lambda", sol.throughput)
            .field("upper_bound", sol.upper_bound)
            .emit();
    }
    crate::debug_certify(|| sol.certify_groups(net, groups));
    Ok(sol)
}

/// What the final harvest read: `α(l)`, the side its trees grew from
/// (`"sources"` or `"sinks"`) and how many it grew.
struct Harvest {
    alpha: f64,
    side: &'static str,
    trees: usize,
}

/// `α(l) = Σ d · dist_l(src, dst)` over every sink of every group, from
/// one tree per root on whichever side has fewer: the groups' sources,
/// or the distinct sinks (a tie keeps the sources). A sink's tree runs
/// over reversed lengths `len[a ^ 1]`, so its distance to `src` is
/// `dist_l(src, sink)`; the sink side sums sink-major, reading each
/// group's demand to `sink` as `scale · weights[sink]`.
fn harvest_alpha(
    net: &CsrNet,
    groups: &[DemandGroup],
    len: &[f64],
    ws: &mut DijkstraWorkspace,
) -> Harvest {
    // the distinct sinks, counted only until they tie the groups
    let mut is_sink = vec![false; net.node_count()];
    let mut sinks = 0usize;
    for g in groups {
        if sinks >= groups.len() {
            break;
        }
        g.for_each_sink(|dst, _| {
            sinks += usize::from(!is_sink[dst]);
            is_sink[dst] = true;
        });
    }
    let mut alpha = 0.0f64;
    let mut add = |dist: f64, d: f64| {
        if dist.is_finite() {
            alpha += d * dist;
        }
    };
    if sinks >= groups.len() {
        for g in groups {
            net.dijkstra(g.src, len, ws);
            g.for_each_sink(|dst, d| add(ws.distance(dst), d));
        }
        return Harvest {
            alpha,
            side: "sources",
            trees: groups.len(),
        };
    }

    // the model is undirected: an arc is live exactly when its reverse
    // is, so the reversed lengths walk the same adjacency
    let rev: Vec<f64> = (0..len.len())
        .map(|a| {
            debug_assert!(
                net.is_live(a) == net.is_live(a ^ 1) && net.capacity(a) == net.capacity(a ^ 1),
                "arc {a} and its reverse differ"
            );
            len[a ^ 1]
        })
        .collect();
    for t in (0..is_sink.len()).filter(|&t| is_sink[t]) {
        net.dijkstra(t, &rev, ws);
        for g in groups {
            if g.src != t && g.weights[t] > 0.0 {
                add(ws.distance(g.src), g.scale * g.weights[t]);
            }
        }
    }
    Harvest {
        alpha,
        side: "sinks",
        trees: sinks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_grouped, solve_with_cache, Backend, Commodity, PathSetCache};
    // the retired bucketed kernel, kept as the differential's other side
    use dctopo_graph::delta as bucketed;
    use dctopo_graph::{Graph, GraphError};
    use dctopo_topology::Topology;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use rayon::ThreadPoolBuilder;

    fn ring(n: usize, cap: f64) -> CsrNet {
        let mut g = Graph::new(n);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n, cap).unwrap();
        }
        CsrNet::from_graph(&g)
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

    /// A group from `src` to the listed `(dst, demand)` sinks of an
    /// `n`-node net, as its own weight vector at scale 1.
    fn to_sinks(n: usize, src: NodeId, pairs: &[(NodeId, f64)]) -> DemandGroup {
        let mut weights = vec![0.0; n];
        for &(dst, d) in pairs {
            weights[dst] += d;
        }
        DemandGroup::weighted(src, Arc::new(weights), 1.0)
    }

    fn pairwise_of(groups: &[DemandGroup]) -> Vec<Commodity> {
        let mut cs = Vec::new();
        for g in groups {
            g.for_each_sink(|dst, demand| {
                cs.push(Commodity {
                    src: g.src,
                    dst,
                    demand,
                })
            });
        }
        cs
    }

    /// Certified intervals of the grouped and pairwise formulations of
    /// the same instance must overlap: each λ is feasible, so it can't
    /// exceed the other's certified upper bound.
    fn assert_intervals_overlap(net: &CsrNet, groups: &[DemandGroup]) {
        let o = opts();
        let grouped = solve_grouped(net, groups, &o).unwrap();
        let pairwise =
            solve_with_cache(net, &pairwise_of(groups), &o, &PathSetCache::new()).unwrap();
        assert!(
            grouped.throughput <= pairwise.upper_bound * (1.0 + 1e-9),
            "grouped λ {} exceeds pairwise bound {}",
            grouped.throughput,
            pairwise.upper_bound
        );
        assert!(
            pairwise.throughput <= grouped.upper_bound * (1.0 + 1e-9),
            "pairwise λ {} exceeds grouped bound {}",
            pairwise.throughput,
            grouped.upper_bound
        );
        assert!(
            grouped.gap() <= o.target_gap + 0.25,
            "gap {}",
            grouped.gap()
        );
    }

    #[test]
    fn single_pair_matches_capacity() {
        // two parallel 2-hop routes of capacity 1 ⇒ max flow 2
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 3, 1.0).unwrap();
        g.add_edge(0, 2, 1.0).unwrap();
        g.add_edge(2, 3, 1.0).unwrap();
        let net = CsrNet::from_graph(&g);
        let groups = [to_sinks(4, 0, &[(3, 1.0)])];
        let s = solve_grouped(&net, &groups, &opts()).unwrap();
        assert!(s.throughput > 1.9, "λ = {}", s.throughput);
        assert!(s.upper_bound >= s.throughput);
        assert!(s.upper_bound <= 2.0 / (1.0 - 0.05) + 1e-9);
        assert_eq!(s.commodity_rate.len(), 1);
        assert!((s.commodity_rate[0] - s.throughput).abs() < 1e-12);
        assert!(s.commodity_arc_flow.is_none());
        assert!(s.settles > 0);
    }

    /// Absorption plateaus: every second hop is 2^60 times wider than
    /// the first, so its length `1/c` vanishes beside the first hop's
    /// and each child sits at its parent's distance bits (one plateau
    /// per tie order: child id below and above the parent's). With
    /// sinks at both ends the leaf-up pass must still carry the child's
    /// load through the parent; a distance-sorted sweep strands it and
    /// the certificate fails on conservation.
    #[test]
    fn plateau_children_push_their_load_through_the_parent() {
        let mut g = Graph::new(5);
        g.add_edge(0, 2, 1.0).unwrap();
        g.add_edge(2, 1, 2f64.powi(60)).unwrap();
        g.add_edge(0, 3, 1.0).unwrap();
        g.add_edge(3, 4, 2f64.powi(60)).unwrap();
        let net = CsrNet::from_graph(&g);
        let groups = [DemandGroup::weighted(
            0,
            Arc::new(vec![0.0, 1.0, 1.0, 1.0, 1.0]),
            1.0,
        )];
        let mut ws = DijkstraWorkspace::default();
        net.dijkstra(0, net.inv_capacities(), &mut ws);
        assert_eq!(ws.distance(1), ws.distance(2));
        assert_eq!(ws.distance(4), ws.distance(3));
        let s = solve_grouped(&net, &groups, &opts()).unwrap();
        s.certify_groups(&net, &groups).unwrap();
        // each first hop carries two sinks' demand: λ* = 1/2
        assert!(
            s.throughput > 0.49 && s.throughput <= 0.5,
            "λ = {}",
            s.throughput
        );
    }

    #[test]
    fn grouped_interval_overlaps_pairwise_on_ring() {
        let net = ring(8, 1.0);
        let groups: Vec<DemandGroup> = (0..4)
            .map(|s| to_sinks(8, s, &[((s + 3) % 8, 1.0), ((s + 4) % 8, 0.5)]))
            .collect();
        assert_intervals_overlap(&net, &groups);
    }

    #[test]
    fn weighted_all_to_all_interval_overlaps_pairwise() {
        let net = ring(6, 2.0);
        let weights = Arc::new(vec![1.0; 6]);
        let groups: Vec<DemandGroup> = (0..6)
            .map(|s| DemandGroup::weighted(s, Arc::clone(&weights), 1.0))
            .collect();
        assert_intervals_overlap(&net, &groups);
    }

    #[test]
    fn weighted_skips_own_source() {
        let weights = Arc::new(vec![1.0; 4]);
        let g = DemandGroup::weighted(2, Arc::clone(&weights), 1.0);
        assert_eq!(g.sink_count(), 3);
        assert_eq!(g.total_demand(), 3.0);
        let mut sinks = Vec::new();
        g.for_each_sink(|dst, _| sinks.push(dst));
        assert_eq!(sinks, vec![0, 1, 3]);
    }

    #[test]
    fn unreachable_sink_is_reported() {
        // 0–1 connected, 2 isolated
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0).unwrap();
        let net = CsrNet::from_graph(&g);
        let groups = [DemandGroup::weighted(0, Arc::new(vec![0.0, 1.0, 1.0]), 1.0)];
        let err = solve_grouped(&net, &groups, &opts()).unwrap_err();
        assert!(matches!(err, FlowError::Unreachable { src: 0, dst: 2 }));
    }

    #[test]
    fn validation_rejects_bad_groups() {
        let net = ring(4, 1.0);
        let o = opts();
        assert!(matches!(
            solve_grouped(&net, &[], &o),
            Err(FlowError::NoCommodities)
        ));
        let badw = [DemandGroup::weighted(
            0,
            Arc::new(vec![0.0, -2.0, 0.0, 0.0]),
            1.0,
        )];
        assert!(matches!(
            solve_grouped(&net, &badw, &o),
            Err(FlowError::BadOptions(_))
        ));
        let allzero = [DemandGroup::weighted(0, Arc::new(vec![0.0; 4]), 1.0)];
        assert!(matches!(
            solve_grouped(&net, &allzero, &o),
            Err(FlowError::BadDemand { index: 0, .. })
        ));
        // an out-of-range source reads as it does from the pairwise
        // entry points: the graph's own typed error, naming the node
        let far_src = [to_sinks(4, 9, &[(1, 1.0)])];
        assert_eq!(
            solve_grouped(&net, &far_src, &o).unwrap_err(),
            FlowError::Graph(GraphError::NodeOutOfRange { node: 9, n: 4 })
        );
        let shortw = [DemandGroup::weighted(0, Arc::new(vec![1.0; 3]), 1.0)];
        assert!(matches!(
            solve_grouped(&net, &shortw, &o),
            Err(FlowError::BadOptions(_))
        ));
    }

    /// The loop here is the fast FPTAS's only: every other backend,
    /// and the strict trajectory, is refused by name.
    #[test]
    fn other_backends_are_refused_by_name() {
        let net = ring(4, 1.0);
        let groups = [to_sinks(4, 0, &[(2, 1.0)])];
        assert!(solve_grouped(&net, &groups, &opts()).is_ok());
        let refused = [
            ("fptas-strict", opts().with_strict_reference(true)),
            ("exact", opts().with_backend(Backend::ExactLp)),
            (
                "ksp:2",
                opts().with_backend(Backend::KspRestricted { k: 2 }),
            ),
        ];
        for (name, o) in refused {
            match solve_grouped(&net, &groups, &o) {
                Err(FlowError::BadOptions(m)) => assert!(m.contains(name), "{m}"),
                other => panic!("{name}: {other:?}"),
            }
        }
    }

    #[test]
    fn deterministic_across_reruns() {
        let net = ring(10, 1.5);
        let weights = Arc::new(vec![1.0; 10]);
        let groups: Vec<DemandGroup> = (0..10)
            .map(|s| DemandGroup::weighted(s, Arc::clone(&weights), 1.0))
            .collect();
        let a = solve_grouped(&net, &groups, &opts()).unwrap();
        let b = solve_grouped(&net, &groups, &opts()).unwrap();
        assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
        assert_eq!(a.upper_bound.to_bits(), b.upper_bound.to_bits());
        assert_eq!(a.settles, b.settles);
    }

    /// A seeded `RRG(n, ·, r)` switch graph with unit capacities.
    fn rrg(n: usize, r: usize, rng: &mut StdRng) -> CsrNet {
        let topo = Topology::random_regular(n, r + 1, r, rng).expect("n·r is even");
        CsrNet::from_graph(&topo.graph)
    }

    /// Hot-spot demand over one shared weight vector: every
    /// twelfth switch sends to all others, sixteen of them weighted
    /// fiftyfold, so the arcs into those grow much faster than the
    /// rest: a group needs several capacity-scaled steps per phase and
    /// lengths spread about tenfold per phase.
    fn weighted_hotspot(n: usize) -> Vec<DemandGroup> {
        let weights: Vec<f64> = (0..n).map(|v| if v < 16 { 0.4 } else { 0.008 }).collect();
        let weights = Arc::new(weights);
        (0..n)
            .step_by(12)
            .map(|s| DemandGroup::weighted(s, Arc::clone(&weights), 1.0 + (s % 3) as f64))
            .collect()
    }

    /// Sparse random demand, one weight vector per group, half of it
    /// aimed at the same sixteen switches.
    fn random_sparse(n: usize, rng: &mut StdRng) -> Vec<DemandGroup> {
        (0..n)
            .step_by(12)
            .map(|src| {
                let sinks: Vec<_> = (0..12)
                    .map(|k| {
                        let dst = rng.random_range(0..if k % 2 == 0 { 16 } else { n });
                        (dst, rng.random_range(0.4..3.2f64))
                    })
                    .filter(|&(dst, _)| dst != src)
                    .collect();
                to_sinks(n, src, &sinks)
            })
            .collect()
    }

    /// What replacing delta-stepping by the heap under every solver
    /// tree rests on: on lengths `solve_grouped` itself evolved (not
    /// uniform-random ones), both kernels build the *same tree* from
    /// every group source — every distance bit and every parent arc.
    /// Distances agree by the fixed-point argument; parents agree as
    /// long as no float-absorption plateau separates the heap's
    /// strict-`<` rule from the bucketed kernel's `(tail distance, tail
    /// id, arc id)` rule. A failure here names the instance: report
    /// it, do not loosen the comparison.
    #[test]
    fn heap_and_bucketed_kernels_build_the_same_trees_on_evolved_lengths() {
        let o = FlowOptions {
            epsilon: 0.3,
            max_phases: 3,
            ..FlowOptions::default()
        };
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(0x5EED_0000 + seed);
            let n = 512 + 32 * (seed as usize % 5);
            let r = 8 + seed as usize % 9;
            let net = rrg(n, r, &mut rng);
            let shapes = [
                ("weighted", weighted_hotspot(n)),
                ("sparse", random_sparse(n, &mut rng)),
            ];
            for (shape, groups) in &shapes {
                let mut heap = DijkstraWorkspace::new(n);
                let mut buckets = DijkstraWorkspace::new(n);
                let mut phase = 0;
                solve(&net, groups, &o, |length, _| {
                    phase += 1;
                    for g in groups {
                        net.dijkstra(g.src, length, &mut heap);
                        bucketed::sssp(&net, g.src, length, &mut buckets);
                        for v in 0..n {
                            assert!(
                                heap.distance(v).to_bits() == buckets.distance(v).to_bits()
                                    && heap.parent(v) == buckets.parent(v),
                                "seed {seed} RRG({n}, {r}) {shape} phase {phase} source {} \
                                 node {v}: heap ({}, {:?}) vs bucketed ({}, {:?})",
                                g.src,
                                heap.distance(v),
                                heap.parent(v),
                                buckets.distance(v),
                                buckets.parent(v)
                            );
                        }
                    }
                })
                .unwrap();
                assert_eq!(phase, 3, "seed {seed} {shape}: every phase was compared");
            }
        }
    }

    /// α from one forward tree per group, the harvest's source side
    /// written out as the model.
    fn forward_alpha(net: &CsrNet, groups: &[DemandGroup], len: &[f64]) -> f64 {
        let mut ws = DijkstraWorkspace::default();
        let mut alpha = 0.0;
        for g in groups {
            net.dijkstra(g.src, len, &mut ws);
            g.for_each_sink(|dst, d| alpha += d * ws.distance(dst));
        }
        alpha
    }

    /// The three demand shapes the harvest sides are compared on:
    /// hot-spot (`hot` hot switches, every other switch a source),
    /// all-to-all, and sparse groups drawing from four shared sinks.
    fn harvest_shapes(n: usize, hot: usize, rng: &mut StdRng) -> Vec<(String, Vec<DemandGroup>)> {
        let mut weights = vec![0.0; n];
        for v in (0..n).step_by(n / hot).take(hot) {
            weights[v] = rng.random_range(1.0..3.0f64);
        }
        let weights = Arc::new(weights);
        let hotspot = (0..n)
            .map(|u| DemandGroup::weighted(u, Arc::clone(&weights), 1.0 + (u % 3) as f64))
            .filter(|g| g.sink_count() > 0)
            .collect();
        let ones = Arc::new(vec![1.0; n]);
        let all_to_all = (0..n)
            .map(|u| DemandGroup::weighted(u, Arc::clone(&ones), 1.0))
            .collect();
        let pool = [1, n / 2, n - 1];
        let shared = (0..n)
            .step_by(5)
            .map(|src| {
                let sinks: Vec<_> = pool
                    .iter()
                    .filter_map(|&t| {
                        let d = rng.random_range(0.5..2.0f64);
                        (t != src && rng.random_range(0..3) > 0).then_some((t, d))
                    })
                    // node 2 is no source, so no group is empty
                    .chain([(2, 1.0)])
                    .collect();
                to_sinks(n, src, &sinks)
            })
            .collect();
        vec![
            (format!("hotspot-agg:{hot}"), hotspot),
            ("all-to-all".into(), all_to_all),
            ("shared sinks".into(), shared),
        ]
    }

    /// The sink-side harvest reads the α the forward trees read — the
    /// same distances from the other end — and takes the side with fewer
    /// roots, which the solve's `settles` shows: the harvest adds one
    /// tree of `n` pops per root. Checked on evolved lengths over seeded
    /// RRGs, on the base net and on a view with two links failed, where
    /// an arc and its reverse must still be dead together.
    #[test]
    fn both_harvest_sides_read_the_same_alpha() {
        let o = FlowOptions {
            epsilon: 0.3,
            max_phases: 4,
            ..FlowOptions::default()
        };
        let mut sides = [0usize; 2];
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(0xA1FA_0000 + seed);
            let n = 16 + 8 * (seed as usize % 7);
            let r = 4 + seed as usize % 3;
            let base = rrg(n, r, &mut rng);
            let connected = |net: &CsrNet| {
                let mut ws = DijkstraWorkspace::default();
                net.dijkstra(0, net.inv_capacities(), &mut ws);
                ws.settled().len() == n
            };
            let failed = loop {
                let arcs = [0, 1].map(|_| rng.random_range(0..base.arc_count()));
                let view = base.with_disabled_arcs(&arcs).unwrap();
                if connected(&view) {
                    break view;
                }
            };
            let hot = 1 + seed as usize % 4;
            for (shape, groups) in harvest_shapes(n, hot, &mut rng) {
                for (view, net) in [("base", &base), ("failed", &failed)] {
                    let what = format!("seed {seed} RRG({n}, {r}) {view} {shape}");
                    let mut last = (Vec::new(), 0u64);
                    let s = solve(net, &groups, &o, |len, settles| {
                        last = (len.to_vec(), settles);
                    })
                    .unwrap();
                    s.certify_groups(net, &groups)
                        .unwrap_or_else(|v| panic!("{what}: {v}"));

                    let mut sinks: Vec<NodeId> = Vec::new();
                    for g in &groups {
                        g.for_each_sink(|dst, _| sinks.push(dst));
                    }
                    sinks.sort_unstable();
                    sinks.dedup();
                    let mut ws = DijkstraWorkspace::default();
                    let h = harvest_alpha(net, &groups, &last.0, &mut ws);
                    let side = if sinks.len() < groups.len() {
                        "sinks"
                    } else {
                        "sources"
                    };
                    assert_eq!(h.side, side, "{what}");
                    assert_eq!(h.trees, sinks.len().min(groups.len()), "{what}");
                    let pops = (h.trees * n) as u64;
                    assert_eq!(ws.settles(), pops, "{what}");
                    assert_eq!(s.settles - last.1, pops, "{what}: the solve's harvest");
                    let fwd = forward_alpha(net, &groups, &last.0);
                    assert!(
                        (h.alpha - fwd).abs() <= 1e-12 * fwd,
                        "{what}: {} side α {} vs forward α {fwd}",
                        h.side,
                        h.alpha
                    );
                    sides[usize::from(h.side == "sinks")] += 1;
                }
            }
        }
        assert!(sides[0] > 0 && sides[1] > 0, "both sides ran: {sides:?}");
    }

    /// No pool call is left in the solve, so every output — the work
    /// counter included, which delta-stepping's racing rounds made
    /// wander at two threads — is the same at every pool width.
    #[test]
    fn bit_identical_at_1_2_and_8_threads_settles_included() {
        let mut rng = StdRng::seed_from_u64(20140404);
        let net = rrg(512, 8, &mut rng);
        let groups = weighted_hotspot(512);
        let o = FlowOptions {
            epsilon: 0.3,
            max_phases: 4,
            ..FlowOptions::default()
        };
        let solve_at = |threads: usize| {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| solve_grouped(&net, &groups, &o)).unwrap()
        };
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let base = solve_at(1);
        for threads in [2, 8] {
            let s = solve_at(threads);
            assert_eq!(s.throughput.to_bits(), base.throughput.to_bits());
            assert_eq!(s.upper_bound.to_bits(), base.upper_bound.to_bits());
            assert_eq!(bits(&s.arc_flow), bits(&base.arc_flow));
            assert_eq!(bits(&s.commodity_rate), bits(&base.commodity_rate));
            assert_eq!(s.phases, base.phases);
            assert_eq!(s.settles, base.settles, "{threads} threads");
        }
        // one heap pop per node per tree: routing steps plus the harvest
        assert_eq!(base.settles % 512, 0);
    }
}
