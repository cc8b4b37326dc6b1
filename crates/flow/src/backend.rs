//! Backend selection: every max-concurrent-flow solver consumes the
//! same shared, immutable [`CsrNet`] and produces the same certified
//! [`SolvedFlow`], so experiment code can swap solvers by flipping
//! [`FlowOptions::backend`]. Every backend is deterministic for fixed
//! inputs: repeated calls (at any rayon thread count) return
//! bit-identical results.
//!
//! | backend | algorithm | role |
//! |---|---|---|
//! | [`Backend::Fptas`] | parallel Garg–Könemann / Fleischer (the pairwise loop in `fptas`) | production path |
//! | [`Backend::ExactLp`] | path LP by column generation via `dctopo-linprog` (`exact`) | ground truth on small instances |
//! | [`Backend::KspRestricted`] | multiplicative weights on frozen k-shortest path sets (`ksp`) | practical-routing model (§8) |
//!
//! Every pairwise solve goes through one private dispatch, the only
//! place a backend is chosen; [`solve_with_cache`], [`solve_from`] and
//! [`certify_floor`] are that dispatch with a cold start, a warm start
//! and a floor stop.

use dctopo_graph::CsrNet;

use crate::cache::PathSetCache;
use crate::{Commodity, FlowError, FlowOptions, SolvedFlow};

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

impl Backend {
    /// The backend's short stable name (used in logs and benchmark
    /// output).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Fptas => "fptas",
            Backend::ExactLp => "exact-lp",
            Backend::KspRestricted { .. } => "ksp",
        }
    }
}

/// The one backend dispatch. `cache` serves [`Backend::KspRestricted`]'s
/// frozen path sets; `warm` is the opener of the FPTAS fast path (the
/// strict trajectory ignores it); `floor` adds the floor stop to the
/// iterative loops. [`Backend::ExactLp`] uses none of the three.
fn dispatch(
    net: &CsrNet,
    commodities: &[Commodity],
    opts: &FlowOptions,
    cache: &PathSetCache,
    warm: &[f64],
    floor: Option<f64>,
) -> Result<SolvedFlow, FlowError> {
    match opts.backend {
        Backend::Fptas => crate::fptas::pairwise(net, commodities, opts, warm, floor),
        Backend::KspRestricted { k } => {
            crate::ksp::solve_ksp(net, commodities, k, opts, cache, floor)
        }
        Backend::ExactLp => crate::exact::exact_solved_flow(net, commodities, opts),
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
    dispatch(net, commodities, opts, cache, &[], None)
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
    dispatch(net, commodities, opts, cache, warm, None)
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
    dispatch(net, commodities, opts, cache, &[], Some(floor))
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
    fn backend_names_stable() {
        assert_eq!(Backend::Fptas.name(), "fptas");
        assert_eq!(Backend::ExactLp.name(), "exact-lp");
        assert_eq!(Backend::KspRestricted { k: 4 }.name(), "ksp");
        assert_eq!(Backend::default(), Backend::Fptas);
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
            assert!(s.throughput > 1.5, "{}: λ = {}", b.name(), s.throughput);
            let warm = solve_from(&net, &cs, &opts, &PathSetCache::new(), &[]).unwrap();
            assert_eq!(warm.throughput.to_bits(), s.throughput.to_bits());
            assert_eq!(warm.phases, s.phases, "{}", b.name());
            for floor in [1.0, 3.0] {
                let f = certify_floor(&net, &cs, &opts, &PathSetCache::new(), floor).unwrap();
                assert_eq!(f.throughput >= floor, s.throughput >= floor, "{}", b.name());
                assert!(f.throughput <= s.throughput, "{}", b.name());
            }
        }
    }
}
