//! # dctopo — High Throughput Data Center Topology Design
//!
//! A from-scratch Rust reproduction of *High Throughput Data Center
//! Topology Design* (Singla, Godfrey, Kolla — NSDI 2014).
//!
//! This facade crate re-exports every subsystem of the workspace under a
//! single dependency:
//!
//! * [`graph`] — capacitated multigraph + shortest paths / k-shortest / seed mixing
//! * [`linprog`] — revised simplex for packing LPs, built column by column
//! * [`flow`] — max concurrent multi-commodity flow (FPTAS + exact bridge)
//! * [`topology`] — RRG, heterogeneous, two-cluster, fat-tree, VL2, ... generators
//! * [`traffic`] — permutation / all-to-all / chunky / hotspot traffic matrices
//! * [`bounds`] — Theorem 1 throughput bound, ASPL lower bound, cut bounds
//! * [`obs`] — deterministic telemetry: trace recorder, typed events, JSONL sink
//! * [`packetsim`] — discrete-event packet simulator with MPTCP-like transport
//! * [`core`](mod@core) — experiment harness, throughput decomposition
//!   `T = C·U / (⟨D⟩·AS)`, scenario sweeps, VL2 case study
//! * [`search`] — multi-fidelity topology search (rewires + line-speed budgets)
//! * [`plan`] — certified-safe reconfiguration planner (migration DAGs)
//! * [`serve`] — batched what-if query server with warm incremental re-solves
//!
//! ## Quickstart
//!
//! ```
//! use dctopo::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Build a random regular graph: 20 switches, 9 ports each,
//! // 4 used for the network, 5 servers per switch.
//! let mut rng = StdRng::seed_from_u64(1);
//! let topo = Topology::random_regular(20, 9, 4, &mut rng).unwrap();
//!
//! // Random permutation traffic among the 100 servers.
//! let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
//!
//! // Throughput = max-min flow rate, certified within the solver gap.
//! let result = solve_throughput(&topo, &tm, &FlowOptions::default()).unwrap();
//! assert!(result.throughput > 0.0);
//!
//! // Compare against the paper's Theorem-1 upper bound (any topology
//! // of 20 switches with network degree 4 and these flows).
//! let bound = throughput_upper_bound(20, 4, tm.flow_count());
//! assert!(result.throughput <= bound * 1.01);
//! ```
//!
//! ## Solver backends and the throughput engine
//!
//! All solvers run over one shared [`graph::CsrNet`];
//! [`FlowOptions::backend`](flow::FlowOptions) selects which
//! [`flow::Backend`] a solve uses, and
//! [`ThroughputEngine`](core::ThroughputEngine) flattens a topology once
//! (CSR arrays plus a [`flow::PathSetCache`] of frozen k-shortest path
//! sets) to amortise preprocessing over many traffic matrices:
//!
//! ```
//! use dctopo::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! // K5 with one server per switch keeps the exact LP tiny
//! let topo = dctopo::topology::classic::complete(5, 1).unwrap();
//! // one CSR flattening, many solves
//! let engine = ThroughputEngine::new(&topo);
//! let tm = TrafficMatrix::random_permutation(topo.server_count(), &mut rng);
//!
//! // the production FPTAS (default) vs the exact LP ground truth
//! let fptas = engine.solve(&tm, &FlowOptions::default()).unwrap();
//! let exact = engine
//!     .solve(&tm, &FlowOptions::default().with_backend(Backend::ExactLp))
//!     .unwrap();
//! assert!(fptas.network_lambda <= exact.network_lambda * 1.000001);
//!
//! // k-shortest-path-restricted routing never beats unrestricted
//! let ksp = engine
//!     .solve(&tm, &FlowOptions::default().with_backend(Backend::KspRestricted { k: 2 }))
//!     .unwrap();
//! assert!(ksp.network_lambda <= exact.network_lambda * 1.000001);
//! ```

pub use dctopo_bounds as bounds;
pub use dctopo_core as core;
pub use dctopo_flow as flow;
pub use dctopo_graph as graph;
pub use dctopo_linprog as linprog;
pub use dctopo_obs as obs;
pub use dctopo_packetsim as packetsim;
pub use dctopo_plan as plan;
pub use dctopo_search as search;
pub use dctopo_serve as serve;
pub use dctopo_topology as topology;
pub use dctopo_traffic as traffic;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use dctopo_bounds::{aspl_lower_bound, throughput_upper_bound};
    pub use dctopo_core::{
        solve_throughput, BackendChoice, CoValidation, Decomposition, Degradation, PacketParams,
        RoutingMode, Scenario, SweepRunner, SweepSpec, ThroughputEngine, ThroughputResult,
        TopologyPoint, TrafficModel,
    };
    pub use dctopo_flow::{Backend, Commodity, FlowOptions, SolvedFlow};
    pub use dctopo_graph::{CsrNet, DijkstraWorkspace, Graph, GraphError, NodeId};
    pub use dctopo_plan::{plan_migration, Migration, MigrationPlan, PlanSpec};
    pub use dctopo_search::{CapacityBudget, SearchResult, SearchRunner, SearchSpec};
    pub use dctopo_serve::{ServeConfig, ServeStats, Server};
    pub use dctopo_topology::{ClusterSpec, ServerPlacement, SwitchClass, Topology};
    pub use dctopo_traffic::TrafficMatrix;
}
