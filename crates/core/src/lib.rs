//! # dctopo-core
//!
//! The experiment layer tying the workspace together:
//!
//! * [`solve::solve_throughput`] — the full pipeline from a
//!   [`dctopo_topology::Topology`] plus a server-level
//!   [`dctopo_traffic::TrafficMatrix`] to the paper's throughput number:
//!   aggregate server flows into switch-level commodities, solve max
//!   concurrent flow (with the backend picked by
//!   [`dctopo_flow::FlowOptions::backend`]), and apply the server-NIC
//!   line-rate cap. [`solve::ThroughputEngine`] is the amortised form
//!   that flattens a topology to its `CsrNet` once and reuses it across
//!   traffic matrices. [`solve::ThroughputResult::decomposition`] factors
//!   a result into the §6.1 identity `T = C·U / (⟨D⟩·AS)`.
//! * [`vl2`] — the §7 case study: binary search for the number of ToRs a
//!   topology family supports at full throughput, for stock VL2 and the
//!   rewired variant.
//! * [`packet`] — packet-level co-validation (§8.2 / Fig. 13):
//!   [`packet::CoValidation`] witnesses a certified throughput claim by
//!   simulating the decomposed (or KSP / ECMP) paths on the same
//!   `CsrNet` the claim was solved on, at a utilization `η` of the
//!   certified rates.
//! * [`ladder`] — the screening ladder: Theorem 1's hop bound and the
//!   per-instance cut bound as sound upper bounds on one view's λ, the
//!   one copy the sweep, the search and the planner all evaluate; its
//!   [`ladder::hop_alpha`] is also the decomposition's ⟨D⟩.
//! * [`scenario`] — failure/degradation recipes ([`scenario::Scenario`])
//!   applied to a base topology's `CsrNet` as cheap delta views.
//! * [`sweep`] — the scenario sweep engine: evaluate a full
//!   `{topology × scenario × traffic × backend}` grid on the persistent
//!   worker pool, bit-identical at every thread count.
//!
//! The experiment axes are also the workspace's one **spec grammar**:
//! [`TopologyPoint`], [`TrafficModel`], [`BackendChoice`] and
//! [`RoutingMode`] each implement [`FromStr`](std::str::FromStr) as the
//! inverse of their `name()`, and every front-end (`topobench`, the
//! serve protocol, `figures`) parses through those impls.

#![warn(missing_docs)]

pub mod ladder;
pub mod packet;
pub mod scenario;
pub mod solve;
pub mod sweep;
pub mod vl2;

/// The trace recorder, for the crates built on this one.
pub use dctopo_obs as obs;
pub use packet::{CoValidation, PacketError, PacketParams, RoutingMode};
pub use scenario::{AppliedScenario, Degradation, Scenario};
pub use solve::{
    aggregate_groups, solve_throughput, Decomposition, ThroughputEngine, ThroughputResult,
};
pub use sweep::{
    BackendChoice, CellMetrics, ErrorKindCount, ErrorSummary, SpecError, SweepCell, SweepReport,
    SweepRunner, SweepSpec, TopologyPoint, TrafficModel,
};
