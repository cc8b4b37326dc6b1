//! From topology + traffic matrix to the paper's throughput number.
//!
//! The paper's model (§4): servers hang off switches with unit-rate NICs;
//! network capacity and path lengths are measured on the switch graph.
//! So we (1) map each server flow to its switch pair, (2) aggregate
//! same-pair flows into one commodity with summed demand, (3) solve max
//! concurrent flow on the switch graph, and (4) cap the per-flow rate at
//! what the busiest server NIC allows (`1 / max flows per NIC`). Flows
//! between servers on the same switch never enter the network and are
//! satisfied at the NIC cap.
//!
//! Step (3) dispatches through [`dctopo_flow::solve_from`], so the
//! backend is whatever [`FlowOptions::backend`] selects.
//! [`ThroughputEngine`] preprocesses a topology into its shared
//! [`CsrNet`] **once**, carries a [`PathSetCache`] so the
//! `KspRestricted` backend also freezes its Yen path sets once, and
//! amortises both over every traffic matrix solved against that
//! topology; [`solve_throughput`] is the one-shot convenience form.

use std::collections::HashMap;
use std::sync::Arc;

use dctopo_flow::{Commodity, DemandGroup, FlowError, FlowOptions, PathSetCache, SolvedFlow};
use dctopo_graph::CsrNet;
use dctopo_topology::Topology;
use dctopo_traffic::{AggregatePattern, AggregateTraffic, TrafficMatrix};

use crate::ladder::hop_alpha;
use crate::scenario::AppliedScenario;

/// Result of [`solve_throughput`].
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// The paper's throughput: minimum per-flow rate, capped at the NIC
    /// line rate constraint. `1.0` = every flow at full line rate.
    pub throughput: f64,
    /// The network-only concurrent flow value λ (may exceed 1 when the
    /// network is overprovisioned relative to the NICs).
    pub network_lambda: f64,
    /// Certified upper bound on the optimal network λ.
    pub network_upper_bound: f64,
    /// The NIC cap `1 / max(flows per server NIC)`.
    pub nic_limit: f64,
    /// The switch-level commodities that were solved (deterministic
    /// `(src, dst)` order).
    pub commodities: Vec<Commodity>,
    /// The underlying flow solution (`None` when all traffic was
    /// switch-local and no network solve was needed).
    pub solved: Option<SolvedFlow>,
}

impl ThroughputResult {
    /// Whether every flow achieves its *fair* full rate (within `tol`):
    /// the line rate for one-flow-per-NIC patterns (permutation, chunky),
    /// or the NIC-fair share `1/flows-per-NIC` for patterns like
    /// all-to-all where the NIC itself is the binding resource.
    pub fn is_full_throughput(&self, tol: f64) -> bool {
        let reference = self.nic_limit.min(1.0);
        self.throughput >= reference * (1.0 - tol)
    }

    /// The §6.1 decomposition of this result; `net` must be the view it
    /// was solved on. `⟨D⟩` is [`hop_alpha`] over the solved commodities
    /// divided by their total demand — the same definition the screening
    /// ladder bounds λ with.
    ///
    /// `None` when there was no network solve, or when a commodity is
    /// disconnected on `net`.
    pub fn decomposition(&self, net: &CsrNet) -> Option<Decomposition> {
        let solved = self.solved.as_ref()?;
        let alpha = hop_alpha(net, &self.commodities);
        if alpha.is_infinite() {
            return None;
        }
        let capacity = net.total_capacity();
        let total_demand: f64 = self.commodities.iter().map(|c| c.demand).sum();
        let aspl = alpha / total_demand;
        let mean_flow_path_len = solved.mean_flow_path_len();
        Some(Decomposition {
            capacity,
            utilization: solved.arc_flow.iter().sum::<f64>() / capacity,
            aspl,
            stretch: mean_flow_path_len / aspl,
            mean_flow_path_len,
            total_demand,
        })
    }
}

/// The paper's §6.1 factors of one solved instance: throughput per unit
/// of demand is exactly `T = C·U / (⟨D⟩·AS)`, so a loss is attributable
/// to capacity, utilization (bottlenecks), path length or stretch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decomposition {
    /// Total network capacity `C` (both directions).
    pub capacity: f64,
    /// Average link utilization `U ∈ [0, 1]`.
    pub utilization: f64,
    /// Demand-weighted average *shortest-path* length ⟨D⟩ between
    /// commodity endpoints.
    pub aspl: f64,
    /// Average stretch `AS ≥ 1`: flow-weighted routed path length / ⟨D⟩.
    pub stretch: f64,
    /// Flow-weighted routed path length (= `aspl · stretch`).
    pub mean_flow_path_len: f64,
    /// Total demand `Σ_j d_j`.
    pub total_demand: f64,
}

impl Decomposition {
    /// Reconstruct the concurrent throughput from the factors:
    /// `T = C·U / (⟨D⟩·AS·f)` where `f` is total demand. Matches the
    /// solver's λ when the optimum serves all commodities at equal rate
    /// (uniform traffic), and is the paper's identity otherwise.
    pub fn implied_throughput(&self) -> f64 {
        self.capacity * self.utilization / (self.aspl * self.stretch * self.total_demand)
    }
}

/// Aggregate a server-level traffic matrix into switch-level commodities.
///
/// Same-switch flows are dropped (they bypass the network); the demand of
/// a commodity is the number of server pairs it aggregates.
pub fn aggregate_commodities(topo: &Topology, tm: &TrafficMatrix) -> Vec<Commodity> {
    let s2sw = topo.server_to_switch();
    assert_eq!(
        tm.server_count(),
        s2sw.len(),
        "traffic matrix has {} servers, topology hosts {}",
        tm.server_count(),
        s2sw.len()
    );
    let mut agg: HashMap<(usize, usize), f64> = HashMap::new();
    for &(s, t) in tm.pairs() {
        let (u, v) = (s2sw[s], s2sw[t]);
        if u != v {
            *agg.entry((u, v)).or_insert(0.0) += 1.0;
        }
    }
    let mut commodities: Vec<Commodity> = agg
        .into_iter()
        .map(|((src, dst), demand)| Commodity { src, dst, demand })
        .collect();
    commodities.sort_by_key(|c| (c.src, c.dst));
    commodities
}

/// The traffic that survives a switch-failure scenario: flows whose
/// endpoint servers both sit on live switches. A failed ToR takes its
/// hosts down with it, so their flows disappear from the demand rather
/// than showing up as unreachable commodities.
///
/// Server numbering is preserved (dead servers simply carry no flows),
/// so NIC accounting and switch aggregation work unchanged.
pub fn surviving_traffic(
    topo: &Topology,
    tm: &TrafficMatrix,
    failed_switch: &[bool],
) -> TrafficMatrix {
    let s2sw = topo.server_to_switch();
    let pairs: Vec<(usize, usize)> = tm
        .pairs()
        .iter()
        .copied()
        .filter(|&(s, t)| !failed_switch[s2sw[s]] && !failed_switch[s2sw[t]])
        .collect();
    TrafficMatrix::from_pairs(tm.server_count(), pairs)
}

/// The NIC cap: no flow can exceed `1 / max(flows on any server NIC)`.
pub fn nic_limit(tm: &TrafficMatrix) -> f64 {
    let busiest = tm
        .out_degree()
        .into_iter()
        .chain(tm.in_degree())
        .max()
        .unwrap_or(0);
    if busiest == 0 {
        f64::INFINITY
    } else {
        1.0 / busiest as f64
    }
}

/// Lower an [`AggregateTraffic`] pattern to switch-level
/// [`DemandGroup`]s without materializing server pairs.
///
/// * All-to-all: one `Arc`-shared weight vector `weights[v] =
///   servers(v)`; switch `u` sends `servers(u)·servers(v)` to every
///   other switch `v` — exactly what [`aggregate_commodities`] produces
///   from the `Θ(n²)` pair list, in `O(switches)` memory.
/// * Smeared hotspot: `weights[v] = hot servers on v`, scaled by
///   `cold(u)/hot`, so switch `u`'s cold servers send their unit each,
///   split evenly over the hot set.
///
/// Same-switch demand never enters the groups (the [`crate::solve`]
/// semantics: local flows bypass the network); switches whose demand is
/// entirely local produce no group.
pub fn aggregate_groups(topo: &Topology, traffic: &AggregateTraffic) -> Vec<DemandGroup> {
    assert_eq!(
        traffic.server_count(),
        topo.server_count(),
        "aggregate traffic has {} servers, topology hosts {}",
        traffic.server_count(),
        topo.server_count()
    );
    let n = topo.switch_count();
    match traffic.pattern() {
        AggregatePattern::AllToAll => {
            let weights = Arc::new(
                topo.servers_at
                    .iter()
                    .map(|&s| s as f64)
                    .collect::<Vec<_>>(),
            );
            (0..n)
                .filter(|&u| topo.servers_at[u] > 0)
                .map(|u| DemandGroup::weighted(u, Arc::clone(&weights), topo.servers_at[u] as f64))
                .filter(|g| g.sink_count() > 0)
                .collect()
        }
        AggregatePattern::Hotspot { hot } => {
            // servers 0..hot are hot; count hot/cold servers per switch
            let s2sw = topo.server_to_switch();
            let mut hot_at = vec![0.0f64; n];
            let mut cold_at = vec![0usize; n];
            for (s, &sw) in s2sw.iter().enumerate() {
                if s < hot {
                    hot_at[sw] += 1.0;
                } else {
                    cold_at[sw] += 1;
                }
            }
            let weights = Arc::new(hot_at);
            (0..n)
                .filter(|&u| cold_at[u] > 0)
                .map(|u| {
                    DemandGroup::weighted(u, Arc::clone(&weights), cold_at[u] as f64 / hot as f64)
                })
                .filter(|g| g.sink_count() > 0)
                .collect()
        }
    }
}

/// Result of [`ThroughputEngine::solve_aggregate`]: the grouped-demand
/// analogue of [`ThroughputResult`].
#[derive(Debug, Clone)]
pub struct AggregateThroughputResult {
    /// Throughput capped at the analytic NIC limit.
    pub throughput: f64,
    /// Network-only concurrent flow value λ.
    pub network_lambda: f64,
    /// Certified upper bound on the optimal network λ.
    pub network_upper_bound: f64,
    /// The analytic NIC cap ([`AggregateTraffic::nic_limit`]).
    pub nic_limit: f64,
    /// The underlying grouped flow, one rate factor per demand group
    /// (`None` when all demand was switch-local).
    pub solved: Option<SolvedFlow>,
}

/// A topology preprocessed for repeated throughput solves.
///
/// Builds the switch graph's [`CsrNet`] once and owns a
/// [`PathSetCache`], so every [`ThroughputEngine::solve`] call against
/// any traffic matrix (and any backend) skips graph flattening entirely
/// and — for the `KspRestricted` backend — freezes each switch pair's
/// k-shortest path set at most once per `k`. This is the form the
/// experiment layer uses when sweeping traffic patterns over one fabric.
#[derive(Debug)]
pub struct ThroughputEngine<'t> {
    topo: &'t Topology,
    net: CsrNet,
    cache: PathSetCache,
}

impl<'t> ThroughputEngine<'t> {
    /// Preprocess `topo` (flattens the switch graph to CSR; the path-set
    /// cache starts empty and fills lazily).
    pub fn new(topo: &'t Topology) -> Self {
        ThroughputEngine {
            topo,
            net: CsrNet::from_graph(&topo.graph),
            cache: PathSetCache::new(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &'t Topology {
        self.topo
    }

    /// The shared CSR network all backends solve on.
    pub fn net(&self) -> &CsrNet {
        &self.net
    }

    /// The engine's path-set cache (hit/miss counters, manual `clear`).
    pub fn path_cache(&self) -> &PathSetCache {
        &self.cache
    }

    /// Cumulative path-set cache counters — shorthand for
    /// [`PathSetCache::stats`] on [`ThroughputEngine::path_cache`],
    /// for CLI summaries.
    pub fn cache_stats(&self) -> dctopo_flow::CacheStats {
        self.cache.stats()
    }

    /// Emit one `cache_key` trace event per `(structure, k)` path-cache
    /// key, in sorted key order. Entry counts and `k` are pure
    /// functions of the workload; the hit/miss split and the raw
    /// structure id depend on solve scheduling, so they sit in the
    /// non-deterministic section. Call from sequential summary sites
    /// (the CLI does, after its solves complete).
    pub fn emit_cache_trace(&self) {
        if !dctopo_obs::enabled() {
            return;
        }
        for (i, ks) in self.cache.key_stats().iter().enumerate() {
            dctopo_obs::Event::new("cache_key")
                .field("key_index", i)
                .field("k", ks.k)
                .field("entries", ks.entries)
                .nd("structure_id", ks.structure_id)
                .nd("hits", ks.hits)
                .nd("misses", ks.misses)
                .emit();
        }
    }

    /// Solve the throughput of the topology under `tm`, using the
    /// backend selected by `opts.backend`. See module docs.
    ///
    /// # Errors
    /// Propagates [`FlowError`] from the solver (e.g. a disconnected
    /// switch graph). A traffic matrix whose flows are all switch-local
    /// succeeds without a network solve.
    pub fn solve(
        &self,
        tm: &TrafficMatrix,
        opts: &FlowOptions,
    ) -> Result<ThroughputResult, FlowError> {
        self.solve_on(&self.net, tm, opts)
    }

    /// [`ThroughputEngine::solve`] against an alternative network view
    /// (typically a degradation delta view of this engine's base net),
    /// sharing the engine's path-set cache.
    ///
    /// The cache key is the view's *structure*, so capacity-only views
    /// reuse the base topology's frozen path sets while failure views
    /// correctly re-freeze; either way results are bit-identical to a
    /// cold solve on the same view.
    pub fn solve_on(
        &self,
        net: &CsrNet,
        tm: &TrafficMatrix,
        opts: &FlowOptions,
    ) -> Result<ThroughputResult, FlowError> {
        let (commodities, nic, flows) = self.demand(tm);
        self.solve_commodities_warm(net, commodities, nic, flows, opts, &[])
    }

    /// [`ThroughputEngine::solve_on`] for a caller that reads the answer
    /// only through `network_lambda ≥ floor` — the migration planner
    /// once its endpoints have fixed its floor. The solve stops as soon
    /// as that comparison is certified ([`dctopo_flow::certify_floor`]):
    /// the answer to it is `solve_on`'s, `network_lambda` is at most
    /// `solve_on`'s, and `solved` is an ordinary certificate.
    ///
    /// # Errors
    /// As [`ThroughputEngine::solve_on`].
    pub fn certify_floor(
        &self,
        net: &CsrNet,
        tm: &TrafficMatrix,
        opts: &FlowOptions,
        floor: f64,
    ) -> Result<ThroughputResult, FlowError> {
        let (commodities, nic, flows) = self.demand(tm);
        lowered(commodities, nic, flows, |cs| {
            dctopo_flow::certify_floor(net, cs, opts, &self.cache, floor)
        })
    }

    /// Lower a traffic matrix to switch-level demand: the commodities
    /// (deterministic `(src, dst)` order), the NIC cap, and the
    /// server-flow count.
    pub(crate) fn demand(&self, tm: &TrafficMatrix) -> (Vec<Commodity>, f64, usize) {
        (
            aggregate_commodities(self.topo, tm),
            nic_limit(tm),
            tm.flow_count(),
        )
    }

    /// Lower a scenario + traffic matrix to the demand that survives
    /// it: flows of servers on failed switches are dropped (see
    /// [`surviving_traffic`]), leaving the switch-level commodities
    /// (deterministic `(src, dst)` order), the NIC cap of the surviving
    /// traffic, and the surviving server-flow count (`0` distinguishes a
    /// dead demand set from an all-local one). Solving a scenario is this
    /// followed by [`ThroughputEngine::solve_commodities_warm`] on the
    /// scenario's view; the split lets the serve layer apply demand drift
    /// to the commodities before solving.
    pub fn scenario_demand(
        &self,
        applied: &AppliedScenario,
        tm: &TrafficMatrix,
    ) -> (Vec<Commodity>, f64, usize) {
        if applied.failed_switch_count() > 0 {
            self.demand(&surviving_traffic(self.topo, tm, &applied.failed_switch))
        } else {
            self.demand(tm)
        }
    }

    /// Solve a prepared commodity list against `net` with optional
    /// cross-request warm-starting — the commodity-level form of
    /// [`ThroughputEngine::solve_on`] the serve layer uses after
    /// applying demand drift.
    ///
    /// `nic` and `flows` are the NIC cap and server-flow count the
    /// commodities were lowered with (see
    /// [`ThroughputEngine::scenario_demand`]); `flows == 0` yields the
    /// zero result and an empty commodity list with `flows > 0` yields
    /// the NIC-limited result. Every pairwise solve of the engine but
    /// [`ThroughputEngine::certify_floor`] ends here.
    ///
    /// Every backend solves through [`dctopo_flow::solve_from`] and the
    /// engine's shared [`PathSetCache`]. `warm` is the
    /// [`SolvedFlow::dual_lengths`] of an earlier answer's certificate;
    /// only the default FPTAS fast path ([`dctopo_flow::Backend::Fptas`]
    /// without [`FlowOptions::strict_reference`]) opens on it. With an
    /// empty `warm` the solve is **bit-identical** to
    /// [`ThroughputEngine::solve_on`] on the same inputs.
    ///
    /// # Errors
    /// As [`ThroughputEngine::solve_on`].
    pub fn solve_commodities_warm(
        &self,
        net: &CsrNet,
        commodities: Vec<Commodity>,
        nic: f64,
        flows: usize,
        opts: &FlowOptions,
        warm: &[f64],
    ) -> Result<ThroughputResult, FlowError> {
        lowered(commodities, nic, flows, |cs| {
            dctopo_flow::solve_from(net, cs, opts, &self.cache, warm)
        })
    }

    /// Solve an [`AggregateTraffic`] pattern through the grouped-demand
    /// FPTAS ([`dctopo_flow::solve_grouped`]): the scale path for dense
    /// matrices, `O(arcs + switches)` memory end to end where the
    /// pair-list path is `Θ(servers²)`.
    ///
    /// # Errors
    /// As [`ThroughputEngine::solve`] (notably
    /// [`FlowError::Unreachable`] on a disconnected switch graph).
    pub fn solve_aggregate(
        &self,
        traffic: &AggregateTraffic,
        opts: &FlowOptions,
    ) -> Result<AggregateThroughputResult, FlowError> {
        let groups = aggregate_groups(self.topo, traffic);
        let nic = traffic.nic_limit();
        if groups.is_empty() {
            // all demand is intra-switch: NIC-limited only
            return Ok(AggregateThroughputResult {
                throughput: nic.min(1.0),
                network_lambda: f64::INFINITY,
                network_upper_bound: f64::INFINITY,
                nic_limit: nic,
                solved: None,
            });
        }
        let solved = dctopo_flow::solve_grouped(&self.net, &groups, opts)?;
        Ok(AggregateThroughputResult {
            throughput: solved.throughput.min(nic),
            network_lambda: solved.throughput,
            network_upper_bound: solved.upper_bound,
            nic_limit: nic,
            solved: Some(solved),
        })
    }
}

/// The result of solving `commodities` — lowered with NIC cap `nic`
/// from `flows` server flows — with `solve`, which runs only when the
/// network has something to carry.
fn lowered(
    commodities: Vec<Commodity>,
    nic: f64,
    flows: usize,
    solve: impl FnOnce(&[Commodity]) -> Result<SolvedFlow, FlowError>,
) -> Result<ThroughputResult, FlowError> {
    if flows == 0 {
        // nothing demands service (e.g. a scenario killed every
        // flow-bearing switch): the min-over-flows throughput is
        // vacuous, and it must read as 0, not as a healthy 1.0, so
        // sweep aggregates never show a dead fabric beating a
        // degraded one
        return Ok(ThroughputResult {
            throughput: 0.0,
            network_lambda: 0.0,
            network_upper_bound: 0.0,
            nic_limit: f64::INFINITY,
            commodities: Vec::new(),
            solved: None,
        });
    }
    if commodities.is_empty() {
        // all traffic is intra-switch: NIC-limited only
        return Ok(ThroughputResult {
            throughput: nic.min(1.0),
            network_lambda: f64::INFINITY,
            network_upper_bound: f64::INFINITY,
            nic_limit: nic,
            commodities,
            solved: None,
        });
    }
    let solved = solve(&commodities)?;
    Ok(ThroughputResult {
        throughput: solved.throughput.min(nic),
        network_lambda: solved.throughput,
        network_upper_bound: solved.upper_bound,
        nic_limit: nic,
        commodities,
        solved: Some(solved),
    })
}

/// Solve the throughput of `topo` under `tm`: one-shot form of
/// [`ThroughputEngine::solve`] (builds the CSR net, solves, discards).
///
/// # Errors
/// As [`ThroughputEngine::solve`].
pub fn solve_throughput(
    topo: &Topology,
    tm: &TrafficMatrix,
    opts: &FlowOptions,
) -> Result<ThroughputResult, FlowError> {
    ThroughputEngine::new(topo).solve(tm, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_topology::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn opts() -> FlowOptions {
        FlowOptions {
            epsilon: 0.08,
            target_gap: 0.03,
            max_phases: 8000,
            stall_phases: 300,
            ..FlowOptions::default()
        }
    }

    #[test]
    fn aggregation_merges_and_drops_local() {
        let mut rng = StdRng::seed_from_u64(1);
        // 4 switches, 2 servers each
        let topo = Topology::random_regular(4, 5, 3, &mut rng).unwrap();
        assert_eq!(topo.server_count(), 8);
        // flows: 0->2 and 1->3 are both switch0 -> switch1; 4->5 is local
        let tm = TrafficMatrix::from_pairs(8, vec![(0, 2), (1, 3), (4, 5)]);
        let cs = aggregate_commodities(&topo, &tm);
        assert_eq!(cs.len(), 1);
        assert_eq!(
            cs[0],
            Commodity {
                src: 0,
                dst: 1,
                demand: 2.0
            }
        );
    }

    #[test]
    fn nic_limit_by_pattern() {
        let perm = TrafficMatrix::from_pairs(4, vec![(0, 1), (1, 0), (2, 3), (3, 2)]);
        assert_eq!(nic_limit(&perm), 1.0);
        let a2a = TrafficMatrix::all_to_all(5);
        assert_eq!(nic_limit(&a2a), 0.25);
    }

    #[test]
    fn complete_graph_permutation_is_full_throughput() {
        // K6 with 1 server each, permutation: every switch pair direct
        let topo = dctopo_topology::classic::complete(6, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let tm = TrafficMatrix::random_permutation(6, &mut rng);
        let r = solve_throughput(&topo, &tm, &opts()).unwrap();
        assert!(r.is_full_throughput(0.05), "throughput {}", r.throughput);
        assert_eq!(r.nic_limit, 1.0);
    }

    #[test]
    fn local_only_traffic_needs_no_network() {
        let mut rng = StdRng::seed_from_u64(3);
        let topo = Topology::random_regular(4, 6, 2, &mut rng).unwrap(); // 4 servers/switch
                                                                         // all flows within switch 0 (servers 0..4)
        let tm = TrafficMatrix::from_pairs(16, vec![(0, 1), (1, 0), (2, 3), (3, 2)]);
        let r = solve_throughput(&topo, &tm, &opts()).unwrap();
        assert_eq!(r.throughput, 1.0);
        assert!(r.solved.is_none());
    }

    #[test]
    fn oversubscription_reduces_throughput() {
        // same switch equipment, more servers ⇒ lower throughput
        let mut rng = StdRng::seed_from_u64(4);
        let lean = Topology::random_regular(20, 8, 6, &mut rng).unwrap(); // 2 servers/sw
        let fat = Topology::random_regular(20, 12, 6, &mut rng).unwrap(); // 6 servers/sw
        let tm_lean = TrafficMatrix::random_permutation(lean.server_count(), &mut rng);
        let tm_fat = TrafficMatrix::random_permutation(fat.server_count(), &mut rng);
        let r_lean = solve_throughput(&lean, &tm_lean, &opts()).unwrap();
        let r_fat = solve_throughput(&fat, &tm_fat, &opts()).unwrap();
        assert!(
            r_lean.throughput > r_fat.throughput,
            "lean {} should beat oversubscribed {}",
            r_lean.throughput,
            r_fat.throughput
        );
    }

    #[test]
    fn all_to_all_respects_nic_cap() {
        let topo = dctopo_topology::classic::complete(4, 2).unwrap();
        let tm = TrafficMatrix::all_to_all(8);
        let r = solve_throughput(&topo, &tm, &opts()).unwrap();
        assert!(r.throughput <= r.nic_limit + 1e-9);
        assert_eq!(r.nic_limit, 1.0 / 7.0);
    }

    /// One engine serves many traffic matrices and matches the one-shot
    /// path exactly (same CsrNet → bit-identical solver trajectory).
    #[test]
    fn engine_reuse_matches_one_shot() {
        let mut rng = StdRng::seed_from_u64(9);
        let topo = Topology::random_regular(10, 6, 4, &mut rng).unwrap();
        let engine = ThroughputEngine::new(&topo);
        assert_eq!(engine.net().node_count(), topo.graph.node_count());
        for seed in 0..3u64 {
            let mut tm_rng = StdRng::seed_from_u64(seed);
            let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut tm_rng);
            let a = engine.solve(&tm, &opts()).unwrap();
            let b = solve_throughput(&topo, &tm, &opts()).unwrap();
            assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
            assert_eq!(a.network_lambda.to_bits(), b.network_lambda.to_bits());
            assert_eq!(a.commodities, b.commodities);
        }
    }

    /// KSP solves through one engine hit the path-set cache on repeat
    /// traffic matrices and stay bit-identical to the cold one-shot
    /// path.
    #[test]
    fn engine_ksp_cache_amortises_and_matches_cold() {
        use dctopo_flow::Backend;
        let mut rng = StdRng::seed_from_u64(11);
        let topo = Topology::random_regular(10, 6, 4, &mut rng).unwrap();
        let engine = ThroughputEngine::new(&topo);
        let opts = opts().with_backend(Backend::KspRestricted { k: 3 });
        let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
        let warm = engine.solve(&tm, &opts).unwrap();
        let stats_after_first = engine.path_cache().stats();
        assert_eq!(stats_after_first.hits, 0);
        assert!(stats_after_first.misses > 0);
        // same matrix again: all pairs served from the cache
        let again = engine.solve(&tm, &opts).unwrap();
        assert_eq!(engine.path_cache().stats().misses, stats_after_first.misses);
        assert!(engine.path_cache().stats().hits >= stats_after_first.misses);
        assert_eq!(warm.throughput.to_bits(), again.throughput.to_bits());
        // and both match the cache-free one-shot solve bitwise
        let cold = solve_throughput(&topo, &tm, &opts).unwrap();
        assert_eq!(cold.throughput.to_bits(), warm.throughput.to_bits());
        assert_eq!(cold.network_lambda.to_bits(), warm.network_lambda.to_bits());
    }

    /// FlowOptions.strict_reference is honored end-to-end: the engine
    /// runs the legacy trajectory on demand (bit-identical to the
    /// one-shot strict solve) and the default fast path certifies an
    /// overlapping optimality interval.
    #[test]
    fn strict_reference_flows_through_engine() {
        let mut rng = StdRng::seed_from_u64(7);
        let topo = Topology::random_regular(10, 6, 4, &mut rng).unwrap();
        let engine = ThroughputEngine::new(&topo);
        let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
        let strict_opts = opts().with_strict_reference(true);
        let strict = engine.solve(&tm, &strict_opts).unwrap();
        let fast = engine.solve(&tm, &opts()).unwrap();
        // engine plumbing is transparent: same options, same bits
        let one_shot = solve_throughput(&topo, &tm, &strict_opts).unwrap();
        assert_eq!(
            strict.network_lambda.to_bits(),
            one_shot.network_lambda.to_bits()
        );
        // fast and strict certify overlapping intervals
        assert!(fast.network_lambda <= strict.network_upper_bound * (1.0 + 1e-9));
        assert!(strict.network_lambda <= fast.network_upper_bound * (1.0 + 1e-9));
    }

    /// The commodity-level warm entry point with an empty `warm`, on a
    /// scenario's demand, is bitwise `solve_on` of the scenario's view
    /// under the surviving traffic — the plumbing the serve layer's
    /// cold/warm equivalence law stands on.
    #[test]
    fn commodity_warm_entry_matches_solve_on_bitwise() {
        use crate::scenario::{Degradation, Scenario};
        let mut rng = StdRng::seed_from_u64(21);
        let topo = Topology::random_regular(12, 8, 4, &mut rng).unwrap();
        let engine = ThroughputEngine::new(&topo);
        let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
        let o = opts();
        for sc in [
            Scenario::baseline(),
            Scenario::new("links", vec![Degradation::FailLinks { count: 3, seed: 5 }]),
            Scenario::new("sw", vec![Degradation::FailSwitches { count: 2, seed: 7 }]),
            Scenario::new("rerate", vec![Degradation::ScaleCapacity { factor: 0.5 }]),
        ] {
            let applied = sc.apply(&topo, engine.net()).unwrap();
            let surviving = surviving_traffic(&topo, &tm, &applied.failed_switch);
            let direct = engine.solve_on(&applied.net, &surviving, &o).unwrap();
            let (cs, nic, flows) = engine.scenario_demand(&applied, &tm);
            assert_eq!(cs, direct.commodities);
            let via = engine
                .solve_commodities_warm(&applied.net, cs, nic, flows, &o, &[])
                .unwrap();
            assert_eq!(direct.throughput.to_bits(), via.throughput.to_bits());
            assert_eq!(
                direct.network_lambda.to_bits(),
                via.network_lambda.to_bits()
            );
            assert_eq!(
                direct.network_upper_bound.to_bits(),
                via.network_upper_bound.to_bits()
            );
            assert_eq!(direct.nic_limit.to_bits(), via.nic_limit.to_bits());
            // and the certificate round-trips: a re-solve of the same
            // demand warm-started from its dual still certifies an
            // overlapping interval
            let lengths = &via.solved.as_ref().unwrap().dual_lengths;
            let (cs2, nic2, flows2) = engine.scenario_demand(&applied, &tm);
            let warm = engine
                .solve_commodities_warm(&applied.net, cs2, nic2, flows2, &o, lengths)
                .unwrap();
            assert!(warm.network_lambda <= direct.network_upper_bound * (1.0 + 1e-9));
            assert!(direct.network_lambda <= warm.network_upper_bound * (1.0 + 1e-9));
        }
    }

    /// One flow solve of `commodities` on `g`'s net, wrapped as the
    /// result the engine would return (no NIC cap).
    fn solved_on(
        g: &dctopo_graph::Graph,
        commodities: Vec<Commodity>,
    ) -> (CsrNet, ThroughputResult) {
        let opts = FlowOptions {
            epsilon: 0.05,
            target_gap: 0.02,
            max_phases: 20000,
            stall_phases: 2000,
            ..FlowOptions::default()
        };
        let net = CsrNet::from_graph(g);
        let s =
            dctopo_flow::solve_with_cache(&net, &commodities, &opts, &PathSetCache::new()).unwrap();
        let result = ThroughputResult {
            throughput: s.throughput,
            network_lambda: s.throughput,
            network_upper_bound: s.upper_bound,
            nic_limit: f64::INFINITY,
            commodities,
            solved: Some(s),
        };
        (net, result)
    }

    /// On a path graph with one commodity, all factors are hand-checkable.
    #[test]
    fn decompose_path_graph() {
        let mut g = dctopo_graph::Graph::new(3);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(1, 2).unwrap();
        let (net, r) = solved_on(&g, vec![Commodity::unit(0, 2)]);
        let d = r.decomposition(&net).unwrap();
        assert_eq!(d.capacity, 4.0);
        assert!((d.aspl - 2.0).abs() < 1e-12);
        assert!((d.stretch - 1.0).abs() < 0.02, "stretch {}", d.stretch);
        // one unit over 2 of 4 capacity-directions
        assert!((d.utilization - 0.5).abs() < 0.03);
        assert!((d.implied_throughput() - r.network_lambda).abs() < 0.05);
    }

    /// The identity T = C·U/(⟨D⟩·AS·f) holds on a symmetric instance.
    #[test]
    fn identity_holds_on_cycle() {
        let mut g = dctopo_graph::Graph::new(6);
        for v in 0..6 {
            g.add_unit_edge(v, (v + 1) % 6).unwrap();
        }
        let cs = (0..6).map(|v| Commodity::unit(v, (v + 3) % 6)).collect();
        let (net, r) = solved_on(&g, cs);
        let d = r.decomposition(&net).unwrap();
        let implied = d.implied_throughput();
        assert!(
            (implied - r.network_lambda).abs() / r.network_lambda < 0.05,
            "implied {implied} vs actual {}",
            r.network_lambda
        );
        assert!(d.stretch >= 1.0 - 0.02);
    }

    #[test]
    fn stretch_detects_long_routes() {
        // two routes: direct (1 hop) and long (3 hops); with enough
        // demand the solver must also use the long one → stretch > 1
        let mut g = dctopo_graph::Graph::new(4);
        g.add_unit_edge(0, 1).unwrap(); // direct
        g.add_unit_edge(0, 2).unwrap();
        g.add_unit_edge(2, 3).unwrap();
        g.add_unit_edge(3, 1).unwrap();
        let cs = vec![Commodity {
            src: 0,
            dst: 1,
            demand: 2.0,
        }];
        let (net, r) = solved_on(&g, cs);
        let d = r.decomposition(&net).unwrap();
        assert!(
            d.stretch > 1.5,
            "stretch {} should reflect the 3-hop detour",
            d.stretch
        );
    }

    /// No decomposition without a network solve, or on a view that
    /// disconnects a commodity.
    #[test]
    fn decomposition_is_none_on_a_view_that_disconnects_a_commodity() {
        let mut g = dctopo_graph::Graph::new(3);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(1, 2).unwrap();
        let (net, mut r) = solved_on(&g, vec![Commodity::unit(0, 2)]);
        assert!(r.decomposition(&net).is_some());
        let cut = net
            .with_disabled_arcs(&[net.arc_between(1, 2).unwrap()])
            .unwrap();
        assert_eq!(r.decomposition(&cut), None);
        r.solved = None;
        assert_eq!(r.decomposition(&net), None);
    }

    /// FlowOptions.backend is honored end-to-end: the exact LP and the
    /// FPTAS agree within the certified gap on a small topology, and the
    /// exact bound, read at the LP's duals, is λ* to 1e-6.
    #[test]
    fn backend_selection_flows_through() {
        use dctopo_flow::Backend;
        let topo = dctopo_topology::classic::complete(5, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let tm = TrafficMatrix::random_permutation(5, &mut rng);
        let engine = ThroughputEngine::new(&topo);
        let fptas = engine.solve(&tm, &opts()).unwrap();
        let exact = engine
            .solve(&tm, &opts().with_backend(Backend::ExactLp))
            .unwrap();
        let (lambda, bound) = (exact.network_lambda, exact.network_upper_bound);
        assert!(lambda <= bound * (1.0 + 1e-9) && bound <= lambda * (1.0 + 1e-6));
        assert!(fptas.network_lambda <= exact.network_lambda * (1.0 + 1e-9));
        assert!(
            fptas.network_lambda >= exact.network_lambda * (1.0 - 0.04),
            "fptas {} vs exact {}",
            fptas.network_lambda,
            exact.network_lambda
        );
    }
}

#[cfg(test)]
mod aggregate_tests {
    use super::*;
    use crate::sweep::hop_throughput_bound;
    use dctopo_topology::Topology;
    use dctopo_traffic::AggregateTraffic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn opts() -> FlowOptions {
        FlowOptions {
            epsilon: 0.08,
            target_gap: 0.03,
            max_phases: 8000,
            stall_phases: 300,
            ..FlowOptions::default()
        }
    }

    /// The grouped lowering must describe the same demand as the
    /// pair-list path: compare against `aggregate_commodities` on the
    /// materialized all-to-all matrix.
    #[test]
    fn all_to_all_groups_match_pairwise_aggregation() {
        let mut rng = StdRng::seed_from_u64(7);
        let topo = Topology::random_regular(6, 6, 3, &mut rng).unwrap();
        let tm = TrafficMatrix::all_to_all(topo.server_count());
        let pairwise = aggregate_commodities(&topo, &tm);
        let agg = AggregateTraffic::all_to_all(topo.server_count());
        let mut grouped_pairs = Vec::new();
        for g in aggregate_groups(&topo, &agg) {
            g.for_each_sink(|dst, demand| {
                grouped_pairs.push(Commodity {
                    src: g.src,
                    dst,
                    demand,
                })
            });
        }
        grouped_pairs.sort_by_key(|c| (c.src, c.dst));
        assert_eq!(grouped_pairs, pairwise);
    }

    /// End-to-end: aggregate solve's certified interval overlaps the
    /// pairwise engine's on the same all-to-all instance, and the NIC
    /// caps agree.
    #[test]
    fn aggregate_solve_interval_overlaps_pairwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let topo = Topology::random_regular(8, 6, 3, &mut rng).unwrap();
        let engine = ThroughputEngine::new(&topo);
        let o = opts();
        let tm = TrafficMatrix::all_to_all(topo.server_count());
        let agg = AggregateTraffic::all_to_all(topo.server_count());
        let pw = engine.solve(&tm, &o).unwrap();
        let gr = engine.solve_aggregate(&agg, &o).unwrap();
        assert_eq!(gr.nic_limit, nic_limit(&tm));
        assert!(gr.network_lambda <= pw.network_upper_bound * (1.0 + 1e-9));
        assert!(pw.network_lambda <= gr.network_upper_bound * (1.0 + 1e-9));
        assert!(gr.throughput <= gr.nic_limit);
        // Theorem 1 binds the grouped solve like any other
        let hop = hop_throughput_bound(engine.net(), &aggregate_commodities(&topo, &tm));
        assert!(gr.network_lambda <= hop * (1.0 + 1e-9));
    }

    #[test]
    fn hotspot_groups_split_cold_demand_over_hot_set() {
        let mut rng = StdRng::seed_from_u64(11);
        // ports 5, degree 3: two servers per switch
        let topo = Topology::random_regular(4, 5, 3, &mut rng).unwrap();
        // 8 servers, hot = servers 0..2 (both on switch 0)
        let agg = AggregateTraffic::hotspot(topo.server_count(), 2);
        let groups = aggregate_groups(&topo, &agg);
        // switches 1..3 each host 2 cold servers sending 1 unit each,
        // all of it to switch 0; switch 0 has no cold servers
        assert_eq!(groups.len(), 3);
        for g in &groups {
            assert_ne!(g.src, 0);
            let mut sinks = Vec::new();
            g.for_each_sink(|dst, d| sinks.push((dst, d)));
            assert_eq!(sinks, vec![(0, 2.0)]);
        }
    }

    #[test]
    fn single_switch_aggregate_is_nic_limited() {
        let topo = Topology {
            graph: dctopo_graph::Graph::new(1),
            servers_at: vec![4],
            class_of: vec![0],
            classes: vec![dctopo_topology::SwitchClass {
                name: "tor".into(),
                ports: 4,
            }],
            unused_ports: 0,
        };
        let engine = ThroughputEngine::new(&topo);
        let agg = AggregateTraffic::all_to_all(4);
        let r = engine.solve_aggregate(&agg, &opts()).unwrap();
        assert!(r.solved.is_none());
        assert_eq!(r.throughput, agg.nic_limit());
    }
}
