//! # dctopo-packetsim
//!
//! A deterministic, arena-allocated, event-driven packet simulator
//! that independently witnesses the fluid solver's certified
//! throughput claims (the paper's §8.2 cross-check, rebuilt as a
//! co-validation engine).
//!
//! Unlike its predecessor, this simulator has no private network
//! type: it is constructed directly from any
//! [`dctopo_graph::CsrNet`] — including the sweep engine's
//! `with_disabled_arcs` / capacity-override delta views — with the
//! sim's link `a` being exactly CSR arc `a`. Flows are routed along
//! explicit arc paths (FPTAS path decompositions, frozen KSP path
//! sets, or ECMP shortest paths, built by `dctopo-core`), split per
//! the solved arc flows.
//!
//! ## Determinism contract
//!
//! * Time is integer ticks, [`TICKS_PER_UNIT`] per model time unit.
//! * Events are totally ordered by `(time, seq)` where `seq` is the
//!   scheduler-assigned insertion sequence; ties in time pop in
//!   insertion order.
//! * The production [`CalendarQueue`] and the reference
//!   [`HeapScheduler`] realise the same order, verified by
//!   differential tests; [`simulate`] and [`simulate_with_heap`]
//!   return byte-for-byte identical [`SimResult`]s.
//! * No wall clock, no RNG, no address-dependent iteration: reruns
//!   are bit-identical, pinned by [`SimResult::trace_hash`].
//!
//! ## Performance contract
//!
//! Single-threaded, about 10⁷ packet-events per second; dcbench reads
//! it as `packetsim.ns_per_event` on the `design-witness` workload
//! (`benchmark/README.md`). The hot loop allocates
//! nothing per packet: link queues are rings in one shared slab,
//! transport windows are fixed bitmaps, events are `Copy`.

#![warn(missing_docs)]

pub mod calendar;
pub mod net;
pub mod sim;
mod transport;

pub use calendar::{CalendarQueue, EventScheduler, HeapScheduler};
pub use net::SimError;
pub use sim::{
    simulate, simulate_with_heap, FlowSpec, PathSpec, SimConfig, SimResult, TransportMode,
    TICKS_PER_UNIT,
};
