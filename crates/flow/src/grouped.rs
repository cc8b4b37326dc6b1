//! Aggregated-demand max concurrent flow: `O(arcs + active pairs)`
//! memory instead of the pairwise formulation's `O(n²)` commodities.
//!
//! The pairwise solver ([`crate::Backend::Fptas`]) keeps one
//! [`DijkstraWorkspace`] **per source group** plus a `(src, dst,
//! demand)` triple per commodity. For an all-to-all matrix on an
//! `n`-switch fabric that is `Θ(n²)` state before the first phase runs
//! — the reason ≥1024-switch dense instances OOM'd rather than merely
//! being slow. This module replaces the commodity *list* with demand
//! *descriptors*:
//!
//! * [`SinkSpec::List`] — an explicit `(dst, demand)` list, for sparse
//!   groups (memory: the pairs that actually exist).
//! * [`SinkSpec::Weighted`] — "this source sends `scale · weights[v]`
//!   to every switch `v ≠ src`", with the weight vector shared across
//!   all groups behind an [`Arc`]. An all-to-all fabric is `n` groups
//!   sharing **one** `O(n)` vector: total demand state `O(n)`, not
//!   `O(n²)`.
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
//! Because every sink of a group routes the *same* cumulative fraction
//! of its demand, the per-sink rates collapse to one factor per group
//! ([`GroupedFlow::group_rate_factor`]): `rate(dst) = factor ·
//! demand(dst)`. The certified primal is `λ = min_g factor_g` after
//! scaling by the worst congestion, exactly the pairwise `min_j
//! routed_j / (μ·d_j)` specialised to proportional routing.
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
//! After the phase loop a **final exact harvest** — one SSSP per group
//! at the terminal lengths — evaluates `D(l)` and `α(l)` at the *same*
//! `l` (a valid bound for any positive length function by LP duality)
//! and usually tightens the interval by an order of magnitude for
//! `O(groups)` extra SSSPs total.
//!
//! ## Determinism
//!
//! Groups route sequentially in input order; the leaf-up pass visits
//! nodes in reverse settle order, which is a pure function of the arc
//! lengths (heap keys are `(distance, node)` pairs, so no two are
//! equal and the pop sequence has no ties to break), and so is every
//! float accumulation order; sink iteration is input order
//! (`List`) or index order (`Weighted`); every tree is one sequential
//! heap Dijkstra. The solve touches the worker pool nowhere, so it is
//! **bit-identical across thread counts and reruns** — `settles`
//! included — by construction rather than by argument. (A window of
//! groups routed against one stale length snapshot was measured and
//! rejected: on hot-spot demand it multiplies the certified gap; see
//! `docs/PERF_NOTES.md`, *Resolution*.)

use std::sync::Arc;

use dctopo_graph::certify::{self, Certificate, Violation};
use dctopo_graph::{CsrNet, DijkstraWorkspace, NodeId};
use dctopo_obs as obs;

use crate::gk::{Cong, Core};
use crate::{
    demand_in_range, node_in_range, validate_opts, validate_pair, Backend, FlowError, FlowOptions,
};

/// The sinks of one [`DemandGroup`].
#[derive(Debug, Clone)]
pub enum SinkSpec {
    /// Explicit `(dst, demand)` pairs. Memory: `O(pairs)`.
    List(Vec<(NodeId, f64)>),
    /// Demand `scale · weights[v]` to every node `v` with
    /// `weights[v] > 0`, **skipping `v == src`** (same-switch traffic
    /// never enters the network). The weight vector is `Arc`-shared so
    /// `n` groups over the same population cost `O(n)` total, not
    /// `O(n²)`.
    Weighted {
        /// Per-node sink weights (length = node count; zero = no sink).
        weights: Arc<Vec<f64>>,
        /// Multiplier applied to every weight (e.g. servers at the
        /// source switch for switch-level all-to-all).
        scale: f64,
    },
}

/// One source and its aggregated sinks — the grouped analogue of a run
/// of [`crate::Commodity`] entries sharing a `src`.
#[derive(Debug, Clone)]
pub struct DemandGroup {
    /// Source node.
    pub src: NodeId,
    /// Aggregated destinations.
    pub sinks: SinkSpec,
}

impl DemandGroup {
    /// All-to-all from `src`: demand `scale · weights[v]` to every
    /// other node with positive weight.
    pub fn weighted(src: NodeId, weights: Arc<Vec<f64>>, scale: f64) -> Self {
        DemandGroup {
            src,
            sinks: SinkSpec::Weighted { weights, scale },
        }
    }

    /// Visit every `(dst, demand)` sink in deterministic order (input
    /// order for [`SinkSpec::List`], node-index order for
    /// [`SinkSpec::Weighted`]; weighted specs skip `src` and zero
    /// weights).
    pub fn for_each_sink(&self, mut f: impl FnMut(NodeId, f64)) {
        match &self.sinks {
            SinkSpec::List(pairs) => {
                for &(dst, d) in pairs {
                    f(dst, d);
                }
            }
            SinkSpec::Weighted { weights, scale } => {
                for (v, &w) in weights.iter().enumerate() {
                    if v != self.src && w > 0.0 {
                        f(v, scale * w);
                    }
                }
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
}

/// Result of [`solve_grouped`]: the grouped analogue of
/// [`crate::SolvedFlow`], with per-**group** rate factors instead of a
/// per-commodity rate vector (the whole point is not materialising one
/// number per pair).
#[derive(Debug, Clone)]
pub struct GroupedFlow {
    /// Feasible concurrent throughput λ: every sink of every group
    /// simultaneously receives ≥ `λ · demand`.
    pub throughput: f64,
    /// Certified upper bound on the optimum: `D(l)/α(l)`, harvested
    /// from the phase trees or from the final exact pass.
    pub upper_bound: f64,
    /// Feasible per-arc flow (scaled to respect every capacity).
    pub arc_flow: Vec<f64>,
    /// Per-group rate factor: sink `dst` of group `g` receives
    /// `group_rate_factor[g] · demand(dst)`. `throughput` is the
    /// minimum entry.
    pub group_rate_factor: Vec<f64>,
    /// Phases executed.
    pub phases: usize,
    /// Total shortest-path tree settles — heap pops, one per node per
    /// tree — the work metric, identical at every thread count.
    pub settles: u64,
    /// The arc lengths `upper_bound` was read at: the witness
    /// [`dctopo_graph::certify`] re-derives the bound from.
    pub dual_lengths: Vec<f64>,
}

impl GroupedFlow {
    /// Relative certified optimality gap `(upper − λ)/upper`.
    pub fn gap(&self) -> f64 {
        if self.upper_bound <= 0.0 {
            return 0.0;
        }
        (self.upper_bound - self.throughput) / self.upper_bound
    }

    /// Re-derive this certificate, solved on `net` for `groups`, with
    /// [`certify::check`]: every sink of group `g` is one commodity at
    /// rate `group_rate_factor[g] · demand`.
    ///
    /// # Errors
    /// The first [`Violation`] the checker finds.
    pub fn certify(&self, net: &CsrNet, groups: &[DemandGroup]) -> Result<Option<f64>, Violation> {
        let (mut demands, mut rates) = (Vec::new(), Vec::new());
        for (g, &factor) in groups.iter().zip(&self.group_rate_factor) {
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

fn validate_grouped(
    node_count: usize,
    groups: &[DemandGroup],
    opts: &FlowOptions,
) -> Result<(), FlowError> {
    if groups.is_empty() {
        return Err(FlowError::NoCommodities);
    }
    // the one loop here is the fast FPTAS's: a backend or trajectory it
    // cannot follow is refused, not silently ignored
    let refused = match (opts.backend, opts.strict_reference) {
        (Backend::Fptas, false) => None,
        (Backend::Fptas, true) => Some("fptas-strict".to_string()),
        (Backend::KspRestricted { k }, _) => Some(format!("ksp:{k}")),
        (Backend::ExactLp, _) => Some(Backend::ExactLp.name().to_string()),
    };
    if let Some(name) = refused {
        return Err(FlowError::BadOptions(format!(
            "aggregated demand is solved by the default FPTAS only, not by backend {name}"
        )));
    }
    validate_opts(opts)?;
    for (gi, g) in groups.iter().enumerate() {
        node_in_range(g.src, node_count)?;
        match &g.sinks {
            SinkSpec::List(pairs) => {
                for &(dst, d) in pairs {
                    validate_pair(node_count, gi, g.src, dst, d)?;
                }
            }
            SinkSpec::Weighted { weights, .. } => {
                if weights.len() != node_count {
                    return Err(FlowError::BadOptions(format!(
                        "group {gi}: weight vector has {} entries, net has {node_count} nodes",
                        weights.len()
                    )));
                }
                if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
                    return Err(FlowError::BadOptions(format!(
                        "group {gi}: weights must be finite and non-negative"
                    )));
                }
            }
        }
        // every sink's demand (a weighted one's `scale · w`, which also
        // refuses a bad `scale`) and the group's total lie in
        // [MIN_DEMAND, MAX_DEMAND]; no sinks is a total of zero
        let (mut total, mut out_of_range) = (0.0f64, None);
        g.for_each_sink(|_, d| {
            total += d;
            if !demand_in_range(d) {
                out_of_range = out_of_range.or(Some(d));
            }
        });
        if let Some(demand) = out_of_range.or((!demand_in_range(total)).then_some(total)) {
            return Err(FlowError::BadDemand { index: gi, demand });
        }
    }
    Ok(())
}

/// Solve max concurrent flow for aggregated demand groups.
///
/// Same guarantees as the pairwise [`crate::Backend::Fptas`] — feasible
/// `throughput`, certified `upper_bound`, bit-identical across thread
/// counts — with working memory `O(arcs + nodes + active pairs)`
/// instead of `O(n²)`. See the module docs for the algorithm.
///
/// # Errors
///
/// * [`FlowError::Unreachable`] if any group has a positive-demand
///   sink outside its source's component.
/// * [`FlowError::BadOptions`] naming the backend when `opts` selects
///   anything but the default [`Backend::Fptas`] fast path.
/// * Validation errors for empty/invalid inputs (see [`FlowError`]).
pub fn solve_grouped(
    net: &CsrNet,
    groups: &[DemandGroup],
    opts: &FlowOptions,
) -> Result<GroupedFlow, FlowError> {
    solve_grouped_observed(net, groups, opts, |_| {})
}

/// [`solve_grouped`], showing `phase_lengths` the arc lengths each
/// phase ends on (tests compare shortest-path kernels on them).
fn solve_grouped_observed(
    net: &CsrNet,
    groups: &[DemandGroup],
    opts: &FlowOptions,
    mut phase_lengths: impl FnMut(&[f64]),
) -> Result<GroupedFlow, FlowError> {
    validate_grouped(net.node_count(), groups, opts)?;

    let n = net.node_count();
    // lengths l(a) = 1/c(a) initially, as in the pairwise solver, and
    // the strict pairwise loop's `x / c(a)` (this loop was written from
    // it and is pinned in that form)
    let mut core = Core::new(net, Cong::Divide, None, opts.epsilon);
    // cumulative fraction of each group's demand that has been routed
    // (unscaled): sink dst of group g has received routed_frac[g]·d(dst)
    let mut routed_frac = vec![0.0f64; groups.len()];

    // ONE shared workspace — the memory story. Groups route
    // sequentially, so warm per-group trees are traded for O(n) state.
    let mut ws = DijkstraWorkspace::default();
    // leaf-up scratch: per-node demand still to push toward the root
    let mut node_demand = vec![0.0f64; n];

    let mut best: Option<GroupedFlow> = None;
    let mut phases = 0usize;

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

        for (gi, g) in groups.iter().enumerate() {
            let mut frac_remaining = 1.0f64;
            let mut inner = 0usize;
            while frac_remaining > 1e-12 {
                inner += 1;
                if inner > 64 {
                    // skewed instances can shrink τ repeatedly; carry
                    // the leftover — `routed_frac` only counts what was
                    // actually sent, so correctness is unaffected
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
        phase_lengths(core.length());

        // certified primal: scale by worst congestion
        let mu = core.congestion();
        let primal = routed_frac.iter().copied().fold(f64::INFINITY, f64::min) / mu;

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
            best = Some(GroupedFlow {
                throughput: primal,
                upper_bound: core.best_dual(),
                arc_flow: core.feasible_flow(mu),
                group_rate_factor: routed_frac.iter().map(|&r| r / mu).collect(),
                phases,
                settles: 0,
                dual_lengths: Vec::new(),
            });
        }
        if core.verdict(primal, opts, phases, None).is_some() {
            break;
        }
    }

    // Final exact certificate: one SSSP per group at the terminal
    // lengths evaluates α(l) and D(l) at the SAME l, which bounds λ*
    // for any positive length function by LP duality. The in-loop
    // mixed-age bound loosens as lengths grow within a phase; the
    // terminal lengths are the most congestion-aware of the run and
    // this single extra harvest usually tightens the interval by an
    // order of magnitude for O(groups) SSSPs total.
    let t_harvest = obs::clock();
    let mut alpha_final = 0.0f64;
    for g in groups {
        net.dijkstra(g.src, core.length(), &mut ws);
        g.for_each_sink(|dst, d| {
            let dist = ws.distance(dst);
            if dist.is_finite() {
                alpha_final += d * dist;
            }
        });
    }
    let d_final = core.d_l();
    let final_bound = core.note_dual(d_final, alpha_final, None);
    if obs::enabled() {
        obs::Event::new("grouped_harvest")
            .field("alpha", alpha_final)
            .field("d_l", d_final)
            .field("bound", final_bound)
            .nd("wall_us", obs::us_since(t_harvest))
            .emit();
    }

    let mut sol = best.expect("at least one phase ran");
    sol.upper_bound = core.best_dual();
    sol.dual_lengths = core.take_dual_lengths();
    sol.phases = phases;
    sol.settles = ws.settles();
    if obs::enabled() {
        obs::Event::new("grouped_solve")
            .field("groups", groups.len())
            .field("phases", phases as u64)
            .field("settles", sol.settles)
            .field("lambda", sol.throughput)
            .field("upper_bound", sol.upper_bound)
            .emit();
    }
    crate::debug_certify(|| sol.certify(net, groups));
    Ok(sol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_with_cache, Commodity, PathSetCache};
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
        let groups = [DemandGroup {
            src: 0,
            sinks: SinkSpec::List(vec![(3, 1.0)]),
        }];
        let s = solve_grouped(&net, &groups, &opts()).unwrap();
        assert!(s.throughput > 1.9, "λ = {}", s.throughput);
        assert!(s.upper_bound >= s.throughput);
        assert!(s.upper_bound <= 2.0 / (1.0 - 0.05) + 1e-9);
        assert_eq!(s.group_rate_factor.len(), 1);
        assert!((s.group_rate_factor[0] - s.throughput).abs() < 1e-12);
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
        let groups = [DemandGroup {
            src: 0,
            sinks: SinkSpec::List(vec![(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)]),
        }];
        let mut ws = DijkstraWorkspace::default();
        net.dijkstra(0, net.inv_capacities(), &mut ws);
        assert_eq!(ws.distance(1), ws.distance(2));
        assert_eq!(ws.distance(4), ws.distance(3));
        let s = solve_grouped(&net, &groups, &opts()).unwrap();
        s.certify(&net, &groups).unwrap();
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
            .map(|s| DemandGroup {
                src: s,
                sinks: SinkSpec::List(vec![((s + 3) % 8, 1.0), ((s + 4) % 8, 0.5)]),
            })
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
    fn weighted_matches_equivalent_list_bitwise() {
        let net = ring(6, 1.0);
        let weights = Arc::new(vec![0.0, 2.0, 0.0, 1.0, 0.5, 0.0]);
        let as_weighted = [DemandGroup::weighted(0, weights, 3.0)];
        let as_list = [DemandGroup {
            src: 0,
            sinks: SinkSpec::List(vec![(1, 6.0), (3, 3.0), (4, 1.5)]),
        }];
        let a = solve_grouped(&net, &as_weighted, &opts()).unwrap();
        let b = solve_grouped(&net, &as_list, &opts()).unwrap();
        assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
        assert_eq!(a.upper_bound.to_bits(), b.upper_bound.to_bits());
        assert_eq!(a.phases, b.phases);
        for (x, y) in a.arc_flow.iter().zip(&b.arc_flow) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
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
        let groups = [DemandGroup {
            src: 0,
            sinks: SinkSpec::List(vec![(1, 1.0), (2, 1.0)]),
        }];
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
        let selfc = [DemandGroup {
            src: 1,
            sinks: SinkSpec::List(vec![(1, 1.0)]),
        }];
        assert!(matches!(
            solve_grouped(&net, &selfc, &o),
            Err(FlowError::SelfCommodity { index: 0 })
        ));
        let badd = [DemandGroup {
            src: 0,
            sinks: SinkSpec::List(vec![(1, -2.0)]),
        }];
        assert!(matches!(
            solve_grouped(&net, &badd, &o),
            Err(FlowError::BadDemand { index: 0, .. })
        ));
        let allzero = [DemandGroup::weighted(0, Arc::new(vec![0.0; 4]), 1.0)];
        assert!(matches!(
            solve_grouped(&net, &allzero, &o),
            Err(FlowError::BadDemand { index: 0, .. })
        ));
        // out-of-range endpoints read as they do from the pairwise
        // entry points: the graph's own typed error, naming the node
        let far_src = [DemandGroup {
            src: 9,
            sinks: SinkSpec::List(vec![(1, 1.0)]),
        }];
        assert_eq!(
            solve_grouped(&net, &far_src, &o).unwrap_err(),
            FlowError::Graph(GraphError::NodeOutOfRange { node: 9, n: 4 })
        );
        let far_dst = [DemandGroup {
            src: 0,
            sinks: SinkSpec::List(vec![(7, 1.0)]),
        }];
        assert_eq!(
            solve_grouped(&net, &far_dst, &o).unwrap_err(),
            FlowError::Graph(GraphError::NodeOutOfRange { node: 7, n: 4 })
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
        let groups = [DemandGroup {
            src: 0,
            sinks: SinkSpec::List(vec![(2, 1.0)]),
        }];
        assert!(solve_grouped(&net, &groups, &opts()).is_ok());
        let refused = [
            ("fptas-strict", opts().with_strict_reference(true)),
            ("exact-lp", opts().with_backend(Backend::ExactLp)),
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

    /// Hot-spot demand in the [`SinkSpec::Weighted`] shape: every
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

    /// Sparse random demand in the [`SinkSpec::List`] shape, half of
    /// it aimed at the same sixteen switches.
    fn random_lists(n: usize, rng: &mut StdRng) -> Vec<DemandGroup> {
        (0..n)
            .step_by(12)
            .map(|src| {
                let sinks = (0..12)
                    .map(|k| {
                        let dst = rng.random_range(0..if k % 2 == 0 { 16 } else { n });
                        (dst, rng.random_range(0.4..3.2f64))
                    })
                    .filter(|&(dst, _)| dst != src)
                    .collect();
                DemandGroup {
                    src,
                    sinks: SinkSpec::List(sinks),
                }
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
                ("list", random_lists(n, &mut rng)),
            ];
            for (shape, groups) in &shapes {
                let mut heap = DijkstraWorkspace::new(n);
                let mut buckets = DijkstraWorkspace::new(n);
                let mut phase = 0;
                solve_grouped_observed(&net, groups, &o, |length| {
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
            assert_eq!(bits(&s.group_rate_factor), bits(&base.group_rate_factor));
            assert_eq!(s.phases, base.phases);
            assert_eq!(s.settles, base.settles, "{threads} threads");
        }
        // one heap pop per node per tree: routing steps plus the harvest
        assert_eq!(base.settles % 512, 0);
    }
}
