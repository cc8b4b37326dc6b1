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
//! * A packet costs one event per link it arrives at. A link is FIFO
//!   with a fixed service time, so it keeps one number — the tick its
//!   last accepted packet finishes — and an arriving packet's departure
//!   (`max(arrival, busy_until) + service`) and the packets the
//!   drop-tail test finds ahead of it (`(busy_until − arrival) / service`,
//!   rounded up: a busy period's packets leave exactly one service time
//!   apart) follow from it at once. A packet that departs at the tick
//!   another arrives counts as gone. The next event is the arrival at
//!   the next link; on the last hop the delivery is counted without an
//!   event, at the tick it happens.
//! * [`simulate`] runs on the [`CalendarQueue`], and
//!   [`simulate_with_heap`] on the reference [`HeapScheduler`]; both
//!   realise the one `(time, seq)` order and return byte-for-byte
//!   identical [`SimResult`]s, on mixed line rates and hop counts too,
//!   verified by differential tests.
//! * No wall clock, no RNG, no address-dependent iteration: reruns
//!   are bit-identical, pinned by [`SimResult::trace_hash`].
//! * Tick arithmetic saturates. A delay too long for a `u64` is an
//!   event that never happens, not one that wraps into the past;
//!   non-finite delays are a [`SimError::BadConfig`], and so is a paced
//!   rate or a link capacity too fine for the tick (a packet in under
//!   one tick), rather than a clamp to one tick.
//!
//! ## Performance contract
//!
//! Single-threaded, one event per packet per link: 1.33 M events where
//! the two-event engine spent 3.25 M on the benchmark's fabric, about
//! 0.6× its time (`docs/PERF_NOTES.md`, *One event per link arrival*).
//! The figure is read, not assumed: dcbench reports
//! `packetsim.ns_per_event` and `packetsim.events` on the
//! `design-witness` workload (`benchmark/README.md`). The hot loop
//! allocates nothing per packet, and what the simulator holds follows
//! what is in flight, not the configured bounds: a link is one `u64`
//! whatever [`SimConfig::queue`] says, a paced run keeps 16 bytes a path
//! (window state exists in window mode only, as fixed bitmaps), events
//! are `Copy`, and the calendar passes drained buckets' buffers on,
//! retaining storage for the buckets that hold events at once rather
//! than for all 512. On the benchmark's witness `simulate` stays below
//! the solve's own memory peak (`docs/PERF_NOTES.md`, *The witness's
//! footprint*).

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
