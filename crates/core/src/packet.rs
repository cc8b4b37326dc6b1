//! Packet-level co-validation: drive the deterministic simulator
//! (`dctopo-packetsim`) directly from the solver stack, so every
//! certified throughput claim gets an independent packet-level witness
//! (the paper's §8.2 cross-check, rebuilt as a closed loop).
//!
//! The pipeline is: solve the fluid relaxation (recording per-commodity
//! arc flows), decompose each commodity into explicit arc paths
//! ([`dctopo_flow::decompose_paths`]), scale the offered load to a
//! utilization `η` of the certified rates, and simulate on the *same*
//! [`CsrNet`] — including scenario delta views, since the sim's link
//! `a` is exactly CSR arc `a`.
//!
//! The co-validation law (enforced by
//! `tests/packetsim_covalidation.rs`): the fluid certificate upper-bounds
//! packet goodput — no flow's goodput exceeds its offered share of the
//! certified rate — while at `η < 1` the network actually delivers the
//! scaled solution, so the ratio is near 1. Goodput is monotone
//! non-increasing under nested failure scenarios, and reruns are
//! bit-identical.

use std::fmt;

use dctopo_flow::{decompose_paths, Backend, Commodity, FlowError, FlowOptions};
use dctopo_graph::kshortest::ecmp_shortest_paths;
use dctopo_graph::{CsrNet, GraphError};
use dctopo_packetsim::{
    simulate, FlowSpec, PathSpec, SimConfig, SimError, SimResult, TransportMode,
};
use dctopo_traffic::TrafficMatrix;

use crate::scenario::AppliedScenario;
use crate::solve::ThroughputEngine;
use crate::sweep::{positive_after, SpecError};

/// How commodities are mapped to simulator paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingMode {
    /// Decompose the solved flow ([`FlowOptions::record_commodity_flows`]
    /// is forced on) into explicit paths; each path's rate share is its
    /// decomposed flow. Witnesses the solver's own routing.
    Decomposed,
    /// As [`RoutingMode::Decomposed`], but the solve is forced onto the
    /// frozen k-shortest-path backend ([`Backend::KspRestricted`]), so
    /// the witnessed routing is the restricted-path solution.
    Ksp {
        /// Paths per commodity for the KSP backend.
        k: usize,
    },
    /// Ignore the solved split: route each commodity over up to `limit`
    /// equal-cost shortest paths with an even split. Witnesses what
    /// oblivious ECMP delivers of the certified rate.
    Ecmp {
        /// Maximum equal-cost paths per commodity.
        limit: usize,
    },
}

impl RoutingMode {
    /// Stable display name (`decomposed`, `ksp:<k>`, `ecmp:<n>`) — the
    /// spelling [`FromStr`](std::str::FromStr) accepts.
    pub fn name(&self) -> String {
        match self {
            RoutingMode::Decomposed => "decomposed".into(),
            RoutingMode::Ksp { k } => format!("ksp:{k}"),
            RoutingMode::Ecmp { limit } => format!("ecmp:{limit}"),
        }
    }
}

/// The routing grammar: `decomposed`, `ksp:<k>`, `ecmp:<n>`, both counts
/// `≥ 1`.
impl std::str::FromStr for RoutingMode {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        if s == "decomposed" {
            return Ok(RoutingMode::Decomposed);
        }
        positive_after(s, "ksp:")
            .map(|k| RoutingMode::Ksp { k })
            .or_else(|| positive_after(s, "ecmp:").map(|limit| RoutingMode::Ecmp { limit }))
            .ok_or_else(|| SpecError::new("routing", s, "decomposed, ksp:<k>, or ecmp:<n>"))
    }
}

/// Parameters of a co-validation run. Times are model time units, as
/// in [`SimConfig`].
#[derive(Debug, Clone, Copy)]
pub struct PacketParams {
    /// Path construction mode.
    pub routing: RoutingMode,
    /// Traffic generator ([`TransportMode::Paced`] measures delivery of
    /// the scaled certified rates; [`TransportMode::Window`] lets AIMD
    /// subflows discover the capacity).
    pub mode: TransportMode,
    /// Fraction `η` of each commodity's certified rate offered to the
    /// network (paced mode). Below 1, the scaled fluid solution is
    /// feasible, so goodput should match the offer.
    pub utilization: f64,
    /// Total simulated time.
    pub duration: f64,
    /// Leading time excluded from goodput accounting.
    pub warmup: f64,
    /// Drop-tail queue capacity per link, in packets.
    pub queue: usize,
    /// Per-link propagation delay.
    pub link_delay: f64,
    /// Per-hop ACK return delay (window mode).
    pub ack_hop_delay: f64,
    /// Initial congestion window per subflow (window mode).
    pub initial_cwnd: u32,
    /// Retransmission timeout (window mode).
    pub rto: f64,
    /// Keep at most this many paths per commodity (largest decomposed
    /// flows first); the paper simulates up to 8 MPTCP subflows.
    pub max_paths: usize,
}

impl Default for PacketParams {
    fn default() -> Self {
        PacketParams {
            routing: RoutingMode::Decomposed,
            mode: TransportMode::Paced,
            utilization: 0.9,
            duration: 40.0,
            warmup: 10.0,
            queue: 64,
            link_delay: 0.01,
            ack_hop_delay: 0.01,
            initial_cwnd: 10,
            rto: 1.0,
            max_paths: 8,
        }
    }
}

impl PacketParams {
    /// The simulator configuration these parameters describe, refused
    /// when no simulation could run: a utilization that is not finite
    /// and positive, or whatever [`SimConfig::validate`] refuses. Needs
    /// no flows, so it runs before the solve.
    fn sim_config(&self) -> Result<SimConfig, SimError> {
        if !(self.utilization.is_finite() && self.utilization > 0.0) {
            return Err(SimError::BadConfig(format!(
                "utilization {:?} must be finite and > 0",
                self.utilization
            )));
        }
        let cfg = SimConfig {
            mode: self.mode,
            duration: self.duration,
            warmup: self.warmup,
            link_delay: self.link_delay,
            ack_hop_delay: self.ack_hop_delay,
            queue: self.queue,
            initial_cwnd: self.initial_cwnd,
            rto: self.rto,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Errors from the co-validation pipeline: the fluid solve, path
/// construction, or the simulator itself.
#[derive(Debug)]
pub enum PacketError {
    /// The fluid solve failed.
    Flow(FlowError),
    /// Path enumeration failed (ECMP routing).
    Graph(GraphError),
    /// The simulator rejected its input.
    Sim(SimError),
    /// The traffic matrix put no load on the network (no flows, or all
    /// switch-local), so there is no claim to witness.
    NoNetworkTraffic,
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::Flow(e) => write!(f, "fluid solve failed: {e}"),
            PacketError::Graph(e) => write!(f, "path enumeration failed: {e}"),
            PacketError::Sim(e) => write!(f, "simulator rejected input: {e}"),
            PacketError::NoNetworkTraffic => {
                write!(f, "no network traffic: nothing to co-validate")
            }
        }
    }
}

impl std::error::Error for PacketError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PacketError::Flow(e) => Some(e),
            PacketError::Graph(e) => Some(e),
            PacketError::Sim(e) => Some(e),
            PacketError::NoNetworkTraffic => None,
        }
    }
}

impl From<FlowError> for PacketError {
    fn from(e: FlowError) -> Self {
        PacketError::Flow(e)
    }
}

impl From<GraphError> for PacketError {
    fn from(e: GraphError) -> Self {
        PacketError::Graph(e)
    }
}

impl From<SimError> for PacketError {
    fn from(e: SimError) -> Self {
        PacketError::Sim(e)
    }
}

/// A certified claim and its packet-level witness.
#[derive(Debug, Clone)]
pub struct CoValidation {
    /// The fluid solver's certified network λ.
    pub lambda: f64,
    /// The fluid solver's certified upper bound on the optimal λ.
    pub upper_bound: f64,
    /// Offered rate per simulated flow (η × the commodity's certified
    /// rate), aligned with [`SimResult::flow_goodput`].
    pub commodity_offered: Vec<f64>,
    /// Demand of each simulated flow's commodity (same alignment), for
    /// demand-normalized goodput.
    pub commodity_demand: Vec<f64>,
    /// Goodput measurement window (`duration - warmup`), for
    /// packet-granularity tolerances: goodput is a packet count divided
    /// by this, so it resolves rates only to `1 / window`.
    pub measure_window: f64,
    /// The packet-level outcome.
    pub result: SimResult,
}

impl CoValidation {
    /// The upper-bound side of the co-validation law: no flow's goodput
    /// exceeds its offer by more than `slack_packets` per measurement
    /// window. Goodput is packet-granular, and queue backlog built
    /// during warmup drains into the window — both are O(1) packets
    /// independent of the window length, so the excess vanishes as the
    /// duration grows. Four packets of slack covers both on the default
    /// configuration.
    pub fn upholds_law(&self, slack_packets: f64) -> bool {
        let slack = slack_packets / self.measure_window;
        self.result
            .flow_goodput
            .iter()
            .zip(&self.commodity_offered)
            .all(|(&g, &o)| g <= o + slack)
    }

    /// The closed-loop side of the law: the smallest demand-normalized
    /// goodput `min_j goodput_j / demand_j` — the packet-level analogue
    /// of the network λ. However aggressively the transport probes, a
    /// realizable packet schedule is a feasible flow, so this cannot
    /// beat [`CoValidation::upper_bound`] (modulo packet granularity).
    pub fn normalized_min_goodput(&self) -> f64 {
        self.result
            .flow_goodput
            .iter()
            .zip(&self.commodity_demand)
            .map(|(&g, &d)| if d > 0.0 { g / d } else { f64::INFINITY })
            .fold(f64::INFINITY, f64::min)
    }

    /// Per-flow goodput / offered rate; the co-validation law says every
    /// entry is ≤ 1 + tolerance, and ≈ 1 for feasible offers.
    pub fn ratios(&self) -> Vec<f64> {
        self.result
            .flow_goodput
            .iter()
            .zip(&self.commodity_offered)
            .map(|(&g, &o)| if o > 0.0 { g / o } else { 1.0 })
            .collect()
    }

    /// Smallest goodput/offered ratio over the flows.
    pub fn min_ratio(&self) -> f64 {
        self.ratios().into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Mean goodput/offered ratio over the flows.
    pub fn mean_ratio(&self) -> f64 {
        let r = self.ratios();
        if r.is_empty() {
            return 0.0;
        }
        r.iter().sum::<f64>() / r.len() as f64
    }
}

impl<'t> ThroughputEngine<'t> {
    /// Solve `tm` and witness the certificate with a packet-level
    /// simulation on the engine's base network.
    ///
    /// `flow_opts.record_commodity_flows` is forced on for
    /// [`RoutingMode::Decomposed`] / [`RoutingMode::Ksp`] (and the
    /// backend forced to [`Backend::KspRestricted`] for the latter).
    ///
    /// # Errors
    /// [`PacketError::Sim`] before anything is solved when `params`
    /// cannot be simulated (a utilization that is not finite and
    /// positive, or a [`SimConfig`] its own check refuses);
    /// [`PacketError::NoNetworkTraffic`] when the matrix puts no load
    /// on the network; otherwise propagates solver, path-enumeration,
    /// and simulator errors.
    pub fn covalidate(
        &self,
        tm: &TrafficMatrix,
        flow_opts: &FlowOptions,
        params: &PacketParams,
    ) -> Result<CoValidation, PacketError> {
        self.covalidate_on(self.net(), self.demand(tm), flow_opts, params)
    }

    /// [`ThroughputEngine::covalidate`] under a degradation scenario:
    /// the demand is lowered by [`ThroughputEngine::scenario_demand`]
    /// (flows on failed switches are dropped), and both the solve and
    /// the simulation run on the scenario's delta view, so the witness
    /// sees exactly the degraded fabric the certificate was issued for.
    ///
    /// # Errors
    /// As [`ThroughputEngine::covalidate`].
    pub fn covalidate_scenario(
        &self,
        applied: &AppliedScenario,
        tm: &TrafficMatrix,
        flow_opts: &FlowOptions,
        params: &PacketParams,
    ) -> Result<CoValidation, PacketError> {
        let demand = self.scenario_demand(applied, tm);
        self.covalidate_on(&applied.net, demand, flow_opts, params)
    }

    /// Solve the lowered demand `(commodities, nic, flows)` on `net` and
    /// simulate the certificate there.
    fn covalidate_on(
        &self,
        net: &CsrNet,
        (commodities, nic, flows): (Vec<Commodity>, f64, usize),
        flow_opts: &FlowOptions,
        params: &PacketParams,
    ) -> Result<CoValidation, PacketError> {
        let cfg = params.sim_config()?;
        let mut opts = *flow_opts;
        match params.routing {
            RoutingMode::Decomposed => opts.record_commodity_flows = true,
            RoutingMode::Ksp { k } => {
                opts.record_commodity_flows = true;
                opts.backend = Backend::KspRestricted { k };
            }
            RoutingMode::Ecmp { .. } => {}
        }
        let res = self.solve_commodities_warm(net, commodities, nic, flows, &opts, &[])?;
        let solved = res.solved.as_ref().ok_or(PacketError::NoNetworkTraffic)?;

        // each commodity becomes one simulated flow offered η × its
        // certified rate, split over its paths
        let max_paths = params.max_paths.max(1);
        let mut paths_of: Vec<Vec<PathSpec>> = vec![Vec::new(); res.commodities.len()];
        match params.routing {
            RoutingMode::Decomposed | RoutingMode::Ksp { .. } => {
                for p in decompose_paths(net, &res.commodities, solved)? {
                    paths_of[p.commodity].push(PathSpec {
                        arcs: p.arcs,
                        weight: p.flow,
                    });
                }
                for paths in &mut paths_of {
                    // keep the heaviest paths; stable sort preserves the
                    // deterministic decomposition order on ties
                    paths.sort_by(|a, b| b.weight.total_cmp(&a.weight));
                    paths.truncate(max_paths);
                }
            }
            RoutingMode::Ecmp { limit } => {
                let limit = limit.clamp(1, max_paths);
                for (j, c) in res.commodities.iter().enumerate() {
                    let node_paths =
                        ecmp_shortest_paths(&self.topology().graph, c.src, c.dst, limit)?;
                    for nodes in node_paths {
                        // lower the node walk to arcs on the (possibly
                        // degraded) view; a path over a failed link has
                        // no live arc and is skipped — static ECMP does
                        // not reroute
                        let arcs: Option<Vec<usize>> = nodes
                            .windows(2)
                            .map(|w| net.arc_between(w[0], w[1]))
                            .collect();
                        if let Some(arcs) = arcs {
                            paths_of[j].push(PathSpec { arcs, weight: 1.0 });
                        }
                    }
                    if paths_of[j].is_empty() {
                        return Err(PacketError::Graph(GraphError::NoPath {
                            src: c.src,
                            dst: c.dst,
                        }));
                    }
                }
            }
        }

        let eta = params.utilization;
        let mut flows = Vec::new();
        let mut offered = Vec::new();
        let mut demand = Vec::new();
        for (j, c) in res.commodities.iter().enumerate() {
            let rate = eta * solved.commodity_rate[j];
            if rate <= 1e-12 || paths_of[j].is_empty() {
                continue; // dust: nothing measurable to witness
            }
            flows.push(FlowSpec {
                src: c.src,
                dst: c.dst,
                rate,
                paths: std::mem::take(&mut paths_of[j]),
            });
            offered.push(rate);
            demand.push(c.demand);
        }
        if flows.is_empty() {
            return Err(PacketError::NoNetworkTraffic);
        }

        let t_sim = dctopo_obs::clock();
        let result = simulate(net, &flows, &cfg)?;
        if dctopo_obs::enabled() {
            dctopo_obs::Event::new("packet_witness")
                .field("flows", flows.len())
                .field("paths", flows.iter().map(|f| f.paths.len()).sum::<usize>())
                .field("events", result.events)
                .field("delivered", result.delivered)
                .field("drops", result.drops)
                .field("retransmits", result.retransmits)
                .field("peak_queue", result.peak_queue)
                // a string: the hash does not fit a JSON number's 2^53
                .field("trace_hash", format!("{:#018x}", result.trace_hash))
                .nd("sim_us", dctopo_obs::us_since(t_sim))
                .emit();
        }
        Ok(CoValidation {
            lambda: res.network_lambda,
            upper_bound: res.network_upper_bound,
            commodity_offered: offered,
            commodity_demand: demand,
            measure_window: params.duration - params.warmup,
            result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_topology::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_instance() -> (Topology, TrafficMatrix) {
        let mut rng = StdRng::seed_from_u64(40);
        let topo = Topology::random_regular(8, 6, 4, &mut rng).unwrap(); // 16 servers
        let tm = TrafficMatrix::random_permutation(16, &mut rng);
        (topo, tm)
    }

    #[test]
    fn paced_witness_delivers_the_scaled_certificate() {
        let (topo, tm) = small_instance();
        let engine = ThroughputEngine::new(&topo);
        let cv = engine
            .covalidate(&tm, &FlowOptions::default(), &PacketParams::default())
            .unwrap();
        assert!(cv.lambda > 0.0 && cv.lambda <= cv.upper_bound + 1e-9);
        // the law: goodput never exceeds the offer (modulo packet
        // granularity), and at η = 0.9 the scaled fluid solution is
        // feasible so it is (nearly) delivered
        assert!(
            cv.upholds_law(4.0),
            "goodput above offer: {:?}",
            cv.ratios()
        );
        assert!(
            cv.min_ratio() > 0.8,
            "feasible offer mostly delivered, got min ratio {}",
            cv.min_ratio()
        );
    }

    #[test]
    fn ksp_and_ecmp_routings_witness_too() {
        let (topo, tm) = small_instance();
        let engine = ThroughputEngine::new(&topo);
        let base = PacketParams::default();
        for routing in [RoutingMode::Ksp { k: 4 }, RoutingMode::Ecmp { limit: 4 }] {
            let cv = engine
                .covalidate(
                    &tm,
                    &FlowOptions::default(),
                    &PacketParams { routing, ..base },
                )
                .unwrap();
            assert!(!cv.result.flow_goodput.is_empty());
            assert!(
                cv.upholds_law(4.0),
                "{routing:?}: goodput above offer: {:?}",
                cv.ratios()
            );
        }
    }

    #[test]
    fn window_mode_stays_under_the_certificate() {
        let (topo, tm) = small_instance();
        let engine = ThroughputEngine::new(&topo);
        let params = PacketParams {
            mode: TransportMode::Window,
            duration: 60.0,
            warmup: 20.0,
            rto: 4.0,
            queue: 16,
            ..PacketParams::default()
        };
        let cv = engine
            .covalidate(&tm, &FlowOptions::default(), &params)
            .unwrap();
        // however aggressively AIMD probes, a realizable packet schedule
        // is a feasible flow: the min demand-normalized goodput cannot
        // beat the certified upper bound on λ (packet-granularity slack)
        let slack = 3.0 / cv.measure_window;
        let witnessed = cv.normalized_min_goodput();
        assert!(
            witnessed <= cv.upper_bound + slack,
            "packet level witnessed λ {witnessed} above certified upper bound {}",
            cv.upper_bound
        );
        assert!(witnessed > 0.0, "closed-loop transport made no progress");
    }

    #[test]
    fn scenario_covalidation_runs_on_the_delta_view() {
        use crate::scenario::{Degradation, Scenario};
        let (topo, tm) = small_instance();
        let engine = ThroughputEngine::new(&topo);
        let sc = Scenario::new(
            "one-link-down",
            vec![Degradation::FailLinks { count: 1, seed: 7 }],
        );
        let applied = sc.apply(&topo, engine.net()).unwrap();
        let cv = engine
            .covalidate_scenario(
                &applied,
                &tm,
                &FlowOptions::default(),
                &PacketParams::default(),
            )
            .unwrap();
        let base = engine
            .covalidate(&tm, &FlowOptions::default(), &PacketParams::default())
            .unwrap();
        assert!(cv.lambda <= base.lambda + 1e-9, "failures cannot raise λ");
        assert!(
            cv.upholds_law(4.0),
            "goodput above offer: {:?}",
            cv.ratios()
        );
    }
}
