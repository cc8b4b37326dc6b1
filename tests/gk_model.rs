//! The textbook Garg–Könemann / Fleischer loop over the adjacency-list
//! [`Graph`], kept as the model the strict trajectory
//! (`FlowOptions::strict_reference`) is pinned against bit for bit.
//!
//! This is the pre-CSR solver: single-threaded, nested-adjacency
//! Dijkstra ([`dctopo::graph::paths::dijkstra`]), one shortest-path
//! recomputation per inner augmentation step, the exact dual every
//! eighth phase. The production loop shares no code with it, so a
//! change there that moves one float of the strict trajectory fails
//! `strict_reference_bitwise_matches_reference_on_50_seeded_graphs`
//! below.

use dctopo::flow::{solve_with_cache, Commodity, FlowError, FlowOptions, PathSetCache, SolvedFlow};
use dctopo::graph::paths::dijkstra;
use dctopo::graph::{CsrNet, Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Commodities grouped by source for shared Dijkstra runs.
struct SourceGroup {
    src: NodeId,
    /// (commodity index, dst, demand)
    sinks: Vec<(usize, NodeId, f64)>,
}

fn group_by_source(commodities: &[Commodity]) -> Vec<SourceGroup> {
    let mut groups: Vec<SourceGroup> = Vec::new();
    // stable grouping that preserves first-seen source order
    for (i, c) in commodities.iter().enumerate() {
        match groups.iter_mut().find(|g| g.src == c.src) {
            Some(g) => g.sinks.push((i, c.dst, c.demand)),
            None => groups.push(SourceGroup {
                src: c.src,
                sinks: vec![(i, c.dst, c.demand)],
            }),
        }
    }
    groups
}

/// Solve max concurrent flow on `g` with the model FPTAS, on inputs the
/// production entry points accept.
///
/// Semantics and certificates match [`production`]'s; only the
/// execution strategy differs (no CSR, no parallelism, shortest paths
/// recomputed inside the augmentation loop).
fn max_concurrent_flow_graph(
    g: &Graph,
    commodities: &[Commodity],
    opts: &FlowOptions,
) -> Result<SolvedFlow, FlowError> {
    let num_arcs = g.arc_count();
    if num_arcs == 0 {
        // commodities exist but there are no edges at all
        let c = &commodities[0];
        return Err(FlowError::Unreachable {
            src: c.src,
            dst: c.dst,
        });
    }
    let eps = opts.epsilon;
    let groups = group_by_source(commodities);

    // lengths l(a) = 1/c(a) initially
    let mut length: Vec<f64> = (0..num_arcs).map(|a| 1.0 / g.arc_capacity(a)).collect();
    // raw (pre-scaling) accumulated flow
    let mut arc_flow = vec![0.0f64; num_arcs];
    let mut routed = vec![0.0f64; commodities.len()];

    // The dual bound D(l)/α(l) is invariant under uniform scaling of all
    // lengths, and so are shortest paths — so we rescale whenever lengths
    // grow large to avoid overflow corrupting the bound.
    const RESCALE_ABOVE: f64 = 1e100;

    // reachability check up front (also seeds the first dual bound)
    let mut best_dual = f64::INFINITY;
    {
        let d_l = total_weighted_length(g, &length);
        let alpha = alpha_of(g, &groups, &length)?;
        let bound = d_l / alpha;
        if bound.is_finite() {
            best_dual = best_dual.min(bound);
        }
    }
    // evaluate the dual every few phases (it changes slowly and costs a
    // Dijkstra per source group)
    let dual_every = 8usize;
    // plateau detection: stop when the primal stops improving materially
    let mut last_primal_check = 0.0f64;
    let mut stagnant_phases = 0usize;

    let mut best: Option<SolvedFlow> = None;
    let mut phases = 0usize;
    // scratch buffers reused across iterations
    let mut tree_load = vec![0.0f64; num_arcs];
    let mut touched: Vec<usize> = Vec::new();

    while phases < opts.max_phases {
        phases += 1;
        for group in &groups {
            // remaining demand to route for this group's sinks this phase
            let mut remaining: Vec<f64> = group.sinks.iter().map(|&(_, _, d)| d).collect();
            let mut inner = 0usize;
            // route until the group's phase demand is (essentially) done
            while remaining.iter().any(|&r| r > 1e-12) {
                inner += 1;
                if inner > 64 {
                    // Extremely skewed instances can shrink τ repeatedly;
                    // carry the leftover to the next phase (correctness is
                    // unaffected — `routed` only counts what was sent).
                    break;
                }
                let tree = dijkstra(g, group.src, &length);
                // accumulate load if all remaining demand were routed
                touched.clear();
                for (k, &(_, dst, _)) in group.sinks.iter().enumerate() {
                    let r = remaining[k];
                    if r <= 1e-12 {
                        continue;
                    }
                    if !tree.dist[dst].is_finite() {
                        return Err(FlowError::Unreachable {
                            src: group.src,
                            dst,
                        });
                    }
                    let mut v = dst;
                    while let Some(a) = tree.parent_arc[v] {
                        if tree_load[a] == 0.0 {
                            touched.push(a);
                        }
                        tree_load[a] += r;
                        v = g.arc_tail(a);
                    }
                }
                // capacity-scaled step: never send more than c(a) on any arc
                let mut tau = 1.0f64;
                for &a in &touched {
                    tau = tau.min(g.arc_capacity(a) / tree_load[a]);
                }
                // send τ·remaining along the tree, update lengths
                for &a in &touched {
                    let sent = tau * tree_load[a];
                    arc_flow[a] += sent;
                    length[a] *= 1.0 + eps * (sent / g.arc_capacity(a));
                    tree_load[a] = 0.0;
                }
                touched.clear();
                for (k, &(j, _, _)) in group.sinks.iter().enumerate() {
                    let sent = tau * remaining[k];
                    routed[j] += sent;
                    remaining[k] -= sent;
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
            .enumerate()
            .map(|(a, &f)| f / g.arc_capacity(a))
            .fold(0.0f64, f64::max)
            .max(1e-300);
        let primal = commodities
            .iter()
            .enumerate()
            .map(|(j, c)| routed[j] / (mu * c.demand))
            .fold(f64::INFINITY, f64::min);

        // certified dual: D(l)/α(l) at current lengths, every few phases
        if phases.is_multiple_of(dual_every) || phases == opts.max_phases {
            let d_l = total_weighted_length(g, &length);
            let alpha = alpha_of(g, &groups, &length)?;
            let bound = d_l / alpha;
            if bound.is_finite() && bound > 0.0 {
                best_dual = best_dual.min(bound);
            }
        }

        let make_solution = |primal: f64, mu: f64, phases: usize| SolvedFlow {
            throughput: primal,
            upper_bound: best_dual,
            arc_flow: arc_flow.iter().map(|&f| f / mu).collect(),
            commodity_rate: routed.iter().map(|&r| r / mu).collect(),
            phases,
            settles: 0,
            // the model stays un-instrumented by design
            commodity_arc_flow: None,
            dual_lengths: Vec::new(),
        };

        let better = best.as_ref().is_none_or(|b| primal > b.throughput);
        if better {
            best = Some(make_solution(primal, mu, phases));
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
    Ok(sol)
}

/// `D(l) = Σ_a c(a) · l(a)`.
fn total_weighted_length(g: &Graph, length: &[f64]) -> f64 {
    length
        .iter()
        .enumerate()
        .map(|(a, &l)| g.arc_capacity(a) * l)
        .sum()
}

/// `α(l) = Σ_j d_j · dist_l(s_j, t_j)`, grouped by source.
fn alpha_of(g: &Graph, groups: &[SourceGroup], length: &[f64]) -> Result<f64, FlowError> {
    let mut alpha = 0.0;
    for group in groups {
        let tree = dijkstra(g, group.src, length);
        for &(_, dst, demand) in &group.sinks {
            let d = tree.dist[dst];
            if !d.is_finite() {
                return Err(FlowError::Unreachable {
                    src: group.src,
                    dst,
                });
            }
            alpha += demand * d;
        }
    }
    Ok(alpha)
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

/// The production solve of `g`: the default backend on a fresh net and
/// cache.
fn production(
    g: &Graph,
    commodities: &[Commodity],
    opts: &FlowOptions,
) -> Result<SolvedFlow, FlowError> {
    solve_with_cache(
        &CsrNet::from_graph(g),
        commodities,
        opts,
        &PathSetCache::new(),
    )
}

/// The model still solves the canonical instances.
#[test]
fn reference_solves_cycle() {
    let mut g = Graph::new(4);
    for v in 0..4 {
        g.add_unit_edge(v, (v + 1) % 4).unwrap();
    }
    let s = max_concurrent_flow_graph(&g, &[Commodity::unit(0, 2)], &opts()).unwrap();
    assert!((s.throughput - 2.0).abs() < 0.06, "λ = {}", s.throughput);
    assert!(s.upper_bound >= s.throughput);
}

/// The model and the production engine certify overlapping intervals.
#[test]
fn reference_and_csr_agree() {
    let mut g = Graph::new(7);
    for v in 0..7 {
        g.add_unit_edge(v, (v + 1) % 7).unwrap();
    }
    g.add_unit_edge(0, 3).unwrap();
    g.add_unit_edge(2, 5).unwrap();
    let cs = [
        Commodity::unit(0, 4),
        Commodity::unit(1, 5),
        Commodity {
            src: 6,
            dst: 2,
            demand: 2.0,
        },
    ];
    let a = max_concurrent_flow_graph(&g, &cs, &opts()).unwrap();
    let b = production(&g, &cs, &opts()).unwrap();
    // both primal values lie under both dual bounds
    assert!(a.throughput <= b.upper_bound * (1.0 + 1e-9));
    assert!(b.throughput <= a.upper_bound * (1.0 + 1e-9));
    // and the certified intervals pin the same optimum to within gaps
    assert!((a.throughput - b.throughput).abs() <= 0.05 * a.throughput.max(b.throughput));
}

#[test]
fn reference_unreachable_errors() {
    let mut g = Graph::new(4);
    g.add_unit_edge(0, 1).unwrap();
    g.add_unit_edge(2, 3).unwrap();
    let r = max_concurrent_flow_graph(&g, &[Commodity::unit(0, 3)], &opts());
    assert!(matches!(r, Err(FlowError::Unreachable { src: 0, dst: 3 })));
}

/// The shared 50-seeded-graph family of `tests/properties.rs` (ring plus
/// random chords with random capacities).
fn seeded_graph(seed: u64) -> Graph {
    use rand::RngExt;
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(6..20);
    let mut g = Graph::new(n);
    for v in 0..n {
        g.add_edge(v, (v + 1) % n, rng.random_range(0.5..4.0))
            .unwrap();
    }
    for _ in 0..rng.random_range(0..n) {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v {
            g.add_edge(u, v, rng.random_range(0.5..4.0)).unwrap();
        }
    }
    g
}

/// A ring of nine with a thick and a thin chord, four commodities from
/// three sources (two share one), one of them at demand 1.5.
fn nine_node_instance() -> (Graph, Vec<Commodity>) {
    let mut g = Graph::new(9);
    for v in 0..9 {
        g.add_unit_edge(v, (v + 1) % 9).unwrap();
    }
    g.add_edge(0, 4, 2.0).unwrap();
    g.add_edge(2, 7, 0.5).unwrap();
    let cs = vec![
        Commodity::unit(0, 5),
        Commodity::unit(1, 6),
        Commodity::unit(0, 3),
        Commodity {
            src: 7,
            dst: 2,
            demand: 1.5,
        },
    ];
    (g, cs)
}

/// The `strict_reference` trajectory reproduces the model bit for bit
/// on 50 seeded graphs and the nine-node instance — λ, the bound, the
/// phase count, every arc flow and every rate.
#[test]
fn strict_reference_bitwise_matches_reference_on_50_seeded_graphs() {
    let short = FlowOptions {
        epsilon: 0.15,
        target_gap: 0.05,
        max_phases: 400,
        stall_phases: 40,
        ..FlowOptions::default()
    };
    let mut instances: Vec<(String, Graph, Vec<Commodity>, FlowOptions)> = (0..50u64)
        .map(|seed| {
            let g = seeded_graph(seed);
            let n = g.node_count();
            let cs = (0..3).map(|i| Commodity::unit(i, n / 2 + i)).collect();
            (format!("seed {seed}"), g, cs, short)
        })
        .collect();
    let (g, cs) = nine_node_instance();
    instances.push(("nine nodes".into(), g, cs, opts()));
    for (name, g, cs, o) in &instances {
        let o = o.with_strict_reference(true);
        let model = max_concurrent_flow_graph(g, cs, &o).unwrap();
        let strict = production(g, cs, &o).unwrap();
        assert_eq!(
            model.throughput.to_bits(),
            strict.throughput.to_bits(),
            "{name}: strict trajectory diverged from the model"
        );
        assert_eq!(
            model.upper_bound.to_bits(),
            strict.upper_bound.to_bits(),
            "{name}"
        );
        assert_eq!(model.phases, strict.phases, "{name}");
        for (x, y) in model.arc_flow.iter().zip(&strict.arc_flow) {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}");
        }
        for (x, y) in model.commodity_rate.iter().zip(&strict.commodity_rate) {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}");
        }
    }
}
