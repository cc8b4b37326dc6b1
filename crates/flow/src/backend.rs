//! Backend selection: every max-concurrent-flow solver consumes the
//! same shared, immutable [`CsrNet`] and produces the same certified
//! [`SolvedFlow`], so experiment code can swap solvers by flipping
//! [`FlowOptions::backend`]. Every backend is deterministic for fixed
//! inputs: repeated calls (at any rayon thread count) return
//! bit-identical results.
//!
//! | backend | algorithm | role |
//! |---|---|---|
//! | [`Backend::Fptas`] | parallel Garg–Könemann / Fleischer (the pairwise loop in `fptas`, the aggregated one in `grouped`) | production path |
//! | [`Backend::ExactLp`] | path LP by column generation via `dctopo-linprog` (`exact`) | ground truth on small instances |
//! | [`Backend::KspRestricted`] | multiplicative weights on frozen k-shortest path sets (`ksp`) | practical-routing model (§8) |
//!
//! Every solve of either demand shape — a commodity list or
//! [`DemandGroup`]s — goes through one private dispatch, the only place
//! a loop is chosen and a demand validated. [`solve_with_cache`],
//! [`solve_from`] and [`certify_floor`] are that dispatch with a cold
//! start, a warm start and a floor stop; [`solve_grouped`] is the cold
//! start on demand groups, and [`max_concurrent_flow_warm`] the warm
//! start in the shape the benchmark's probe calls.

use dctopo_graph::CsrNet;

use crate::cache::PathSetCache;
use crate::grouped::DemandGroup;
use crate::{validate_opts, Commodity, FlowError, FlowOptions, SolvedFlow};

/// Value-level backend selector carried inside [`FlowOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The parallel multiplicative-weights FPTAS — the default. Runs
    /// the incremental fast path (tree reuse + increase-only Dijkstra
    /// repair + annealed ε) unless [`FlowOptions::strict_reference`]
    /// selects the strict trajectory.
    #[default]
    Fptas,
    /// The exact LP: the path form, solved by column generation.
    ExactLp,
    /// Flow restricted to each commodity's `k` shortest paths.
    KspRestricted {
        /// Paths per commodity (must be ≥ 1).
        k: usize,
    },
}

/// The demand one solve routes: a commodity list, or aggregated demand
/// groups.
#[derive(Clone, Copy)]
enum Demand<'d> {
    Pairs(&'d [Commodity]),
    Groups(&'d [DemandGroup]),
}

impl Demand<'_> {
    fn is_empty(self) -> bool {
        match self {
            Demand::Pairs(cs) => cs.is_empty(),
            Demand::Groups(gs) => gs.is_empty(),
        }
    }

    /// Check every item, in input order, against a net of `n` nodes.
    fn check_items(self, n: usize) -> Result<(), FlowError> {
        match self {
            Demand::Pairs(cs) => (cs.iter().enumerate()).try_for_each(|(i, c)| c.check(i, n)),
            Demand::Groups(gs) => (gs.iter().enumerate()).try_for_each(|(i, g)| g.check(i, n)),
        }
    }
}

/// The one dispatch: its one `match` picks the loop for each (backend,
/// shape) pair and refuses by name the pairs no loop serves. It
/// validates once, in this order: empty input, the refusal, the options,
/// then each item (`valid`, run by every served arm). `cache` serves
/// [`Backend::KspRestricted`]'s frozen path sets; `warm` is the opener
/// of the FPTAS fast path (the strict trajectory ignores it); `floor`
/// adds the floor stop to the pairwise loops. [`Backend::ExactLp`] uses
/// none of the three, and demand groups arrive only cold and without a
/// floor ([`solve_grouped`]).
fn dispatch(
    net: &CsrNet,
    demand: Demand<'_>,
    opts: &FlowOptions,
    cache: &PathSetCache,
    warm: &[f64],
    floor: Option<f64>,
) -> Result<SolvedFlow, FlowError> {
    if demand.is_empty() {
        return Err(FlowError::NoCommodities);
    }
    let refused = |name: &str| {
        Err(FlowError::BadOptions(format!(
            "aggregated demand is solved by the default FPTAS only, not by backend {name}"
        )))
    };
    let valid = || {
        validate_opts(opts)?;
        demand.check_items(net.node_count())
    };
    match (opts.backend, demand) {
        (Backend::Fptas, Demand::Pairs(cs)) => {
            valid()?;
            crate::fptas::pairwise(net, cs, opts, warm, floor)
        }
        (Backend::KspRestricted { k }, Demand::Pairs(cs)) => {
            valid()?;
            crate::ksp::solve_ksp(net, cs, k, opts, cache, floor)
        }
        (Backend::ExactLp, Demand::Pairs(cs)) => {
            valid()?;
            crate::exact::exact_solved_flow(net, cs, opts)
        }
        (Backend::Fptas, Demand::Groups(gs)) if !opts.strict_reference => {
            valid()?;
            crate::grouped::solve(net, gs, opts, |_, _| {})
        }
        (Backend::Fptas, Demand::Groups(_)) => refused("fptas-strict"),
        (Backend::ExactLp, Demand::Groups(_)) => refused("exact"),
        (Backend::KspRestricted { k }, Demand::Groups(_)) => refused(&format!("ksp:{k}")),
    }
}

/// Solve on a prebuilt net with the backend selected in `opts.backend`,
/// per-topology preprocessing served from (and recorded into) `cache`
/// (see [`PathSetCache`]). Building the [`CsrNet`] once and calling
/// this repeatedly amortises graph flattening across traffic matrices,
/// and a multi-matrix sweep freezes each k-shortest path set once. A
/// fresh cache is the cold solve; a hit returns bit for bit what the
/// miss computed.
///
/// # Errors
/// See [`FlowError`]; notably [`FlowError::Unreachable`] when a
/// commodity's endpoints are disconnected.
pub fn solve_with_cache(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
    cache: &PathSetCache,
) -> Result<SolvedFlow, FlowError> {
    dispatch(net, Demand::Pairs(commodities), opts, cache, &[], None)
}

/// [`solve_with_cache`] warm-started from `warm`, the
/// [`SolvedFlow::dual_lengths`] of a previous solve's certificate: the
/// FPTAS fast path opens on those lengths instead of the flat `1/c(a)`.
/// The strict trajectory ([`FlowOptions::strict_reference`]) and the
/// other backends ignore `warm`.
///
/// An empty or wrong-length `warm` is **bit-identical** to
/// [`solve_with_cache`]. A warm-started solve follows a different —
/// typically much shorter — trajectory, but its certificates are as
/// strong as a cold solve's: the primal is feasible by construction and
/// the dual `D(l)/α(l)` upper-bounds λ* for **any** positive lengths.
/// Warm solves also skip the coarse-ε annealing ramp.
///
/// The lengths transfer across [`CsrNet`] **views** of one structure:
/// arc ids are stable across `with_capacity_overrides` /
/// `with_scaled_capacity` views, and the lengths are re-anchored (and
/// invalid entries healed per-arc) before the solve opens on them.
///
/// # Errors
/// As [`solve_with_cache`].
pub fn solve_from(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
    cache: &PathSetCache,
    warm: &[f64],
) -> Result<SolvedFlow, FlowError> {
    dispatch(net, Demand::Pairs(commodities), opts, cache, warm, None)
}

/// [`solve_with_cache`] for a caller that reads the answer only through
/// `λ ≥ floor`: the iterative loops stop as soon as that comparison is
/// certified — a phase's primal at or above `floor`, or the best dual
/// below it — instead of at the target gap. [`Backend::ExactLp`]
/// answers from its full solve.
///
/// Up to the floor stop each loop's trajectory is [`solve_with_cache`]'s,
/// and the returned λ is the best primal so far, so
/// `(λ ≥ floor)` is the full solve's answer, λ is at most the full
/// solve's λ, and the result is an ordinary certificate (debug builds
/// check it like any other).
///
/// # Errors
/// As [`solve_with_cache`].
pub fn certify_floor(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
    cache: &PathSetCache,
    floor: f64,
) -> Result<SolvedFlow, FlowError> {
    dispatch(
        net,
        Demand::Pairs(commodities),
        opts,
        cache,
        &[],
        Some(floor),
    )
}

/// Solve max concurrent flow for aggregated demand groups: the cold
/// solve of `groups`, on the default [`Backend::Fptas`] fast path only.
///
/// Same guarantees as the pairwise fast path — feasible `throughput`,
/// certified `upper_bound`, bit-identical across thread counts — with
/// working memory `O(arcs + nodes)` instead of `O(n²)`. The answer's
/// [`SolvedFlow::commodity_rate`] holds one rate factor per group, its
/// [`SolvedFlow::commodity_arc_flow`] is `None`, and
/// [`SolvedFlow::certify_groups`] re-derives it.
///
/// # Errors
///
/// * [`FlowError::Unreachable`] if any group has a positive-demand
///   sink outside its source's component.
/// * [`FlowError::BadOptions`] naming the backend as `--backend` spells
///   it (`fptas-strict`, `exact`, `ksp:<k>`) when `opts` selects
///   anything but the default [`Backend::Fptas`] fast path.
/// * Validation errors for empty/invalid inputs (see [`FlowError`]).
pub fn solve_grouped(
    net: &CsrNet,
    groups: &[DemandGroup],
    opts: &FlowOptions,
) -> Result<SolvedFlow, FlowError> {
    dispatch(
        net,
        Demand::Groups(groups),
        opts,
        &PathSetCache::new(),
        &[],
        None,
    )
}

/// [`solve_from`] with a fresh cache, in the shape the benchmark's warm
/// probe calls: `None` is cold, and the certificate's `dual_lengths`
/// come back beside the solve for the next call.
///
/// # Errors
/// As [`solve_with_cache`].
pub fn max_concurrent_flow_warm(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
    warm: Option<&Vec<f64>>,
) -> Result<(SolvedFlow, Vec<f64>), FlowError> {
    let sol = solve_from(
        net,
        commodities,
        opts,
        &PathSetCache::new(),
        warm.map_or(&[], Vec::as_slice),
    )?;
    let lengths = sol.dual_lengths.clone();
    Ok((sol, lengths))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_graph::Graph;

    fn square_net() -> CsrNet {
        let mut g = Graph::new(4);
        for v in 0..4 {
            g.add_unit_edge(v, (v + 1) % 4).unwrap();
        }
        CsrNet::from_graph(&g)
    }

    fn cold(net: &CsrNet, cs: &[Commodity], opts: &FlowOptions) -> SolvedFlow {
        solve_with_cache(net, cs, opts, &PathSetCache::new()).unwrap()
    }

    #[test]
    fn all_backends_agree_on_cycle() {
        let net = square_net();
        let cs = [Commodity::unit(0, 2)];
        let opts = FlowOptions {
            epsilon: 0.05,
            target_gap: 0.02,
            max_phases: 20000,
            stall_phases: 2000,
            ..FlowOptions::default()
        };
        // λ* = 2 via the two edge-disjoint 2-hop routes
        let exact = cold(&net, &cs, &opts.with_backend(Backend::ExactLp));
        assert!((exact.throughput - 2.0).abs() < 1e-6);
        let fptas = cold(&net, &cs, &opts);
        assert!(
            (fptas.throughput - 2.0).abs() < 0.06,
            "λ = {}",
            fptas.throughput
        );
        let ksp = cold(
            &net,
            &cs,
            &opts.with_backend(Backend::KspRestricted { k: 2 }),
        );
        assert!(
            (ksp.throughput - 2.0).abs() < 0.08,
            "λ = {}",
            ksp.throughput
        );
    }

    /// Every selector value dispatches to a working solver through
    /// every entry: the warm form with nothing to open on is the cold
    /// solve bit for bit, and the floor form gives the cold solve's
    /// answer to `λ ≥ floor`.
    #[test]
    fn options_select_backend() {
        let net = square_net();
        let cs = [Commodity::unit(0, 2)];
        let backends = [
            Backend::Fptas,
            Backend::ExactLp,
            Backend::KspRestricted { k: 2 },
        ];
        for b in backends {
            let opts = FlowOptions::default().with_backend(b);
            let s = cold(&net, &cs, &opts);
            assert!(s.throughput > 1.5, "{b:?}: λ = {}", s.throughput);
            let warm = solve_from(&net, &cs, &opts, &PathSetCache::new(), &[]).unwrap();
            assert_eq!(warm.throughput.to_bits(), s.throughput.to_bits());
            assert_eq!(warm.phases, s.phases, "{b:?}");
            for floor in [1.0, 3.0] {
                let f = certify_floor(&net, &cs, &opts, &PathSetCache::new(), floor).unwrap();
                assert_eq!(f.throughput >= floor, s.throughput >= floor, "{b:?}");
                assert!(f.throughput <= s.throughput, "{b:?}");
            }
        }
    }

    /// The dispatch refuses bad input before any loop runs, in one
    /// order: empty input, then the options, then each commodity.
    #[test]
    fn validation_catches_bad_inputs() {
        let mut g = Graph::new(2);
        g.add_unit_edge(0, 1).unwrap();
        let net = CsrNet::from_graph(&g);
        let solve = |cs: &[Commodity], o: &FlowOptions| {
            solve_with_cache(&net, cs, o, &PathSetCache::new()).map(|s| s.throughput)
        };
        let opts = FlowOptions::default();
        let bad = FlowOptions {
            epsilon: 0.0,
            ..opts
        };
        assert_eq!(solve(&[], &bad), Err(FlowError::NoCommodities));
        let negative = Commodity {
            src: 0,
            dst: 1,
            demand: -1.0,
        };
        assert!(matches!(
            solve(&[negative], &opts),
            Err(FlowError::BadDemand { .. })
        ));
        assert!(matches!(
            solve(&[Commodity::unit(1, 1)], &opts),
            Err(FlowError::SelfCommodity { .. })
        ));
        assert!(matches!(
            solve(&[Commodity::unit(0, 9)], &opts),
            Err(FlowError::Graph(_))
        ));
        assert!(matches!(
            solve(&[negative], &bad),
            Err(FlowError::BadOptions(_))
        ));
    }
}
