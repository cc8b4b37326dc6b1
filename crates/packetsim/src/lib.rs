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
//! * [`simulate`] keeps its agenda in four places: events whose delay
//!   is a constant of their kind — a link's serialization, a link's
//!   propagation, an ACK's return — are born sorted and wait in one
//!   FIFO lane per kind; timeouts, paced injections, and any event a
//!   lane would have to take out of order, go to the [`CalendarQueue`].
//!   Lane events draw `seq` from the calendar's own counter and each
//!   pop takes the least of the four heads, so the order realised is
//!   the one a single [`CalendarQueue`], or the reference
//!   [`HeapScheduler`], realises for the same pushes: [`simulate`] and
//!   [`simulate_with_heap`] return byte-for-byte identical
//!   [`SimResult`]s, on mixed line rates and hop counts too, verified
//!   by differential tests.
//! * No wall clock, no RNG, no address-dependent iteration: reruns
//!   are bit-identical, pinned by [`SimResult::trace_hash`].
//! * Tick arithmetic saturates. A delay too long for a `u64` is an
//!   event that never happens, not one that wraps into the past;
//!   non-finite delays are a [`SimError::BadConfig`].
//!
//! ## Performance contract
//!
//! Single-threaded, about 40 ns per packet-event on the benchmark's
//! fabric (uniform line rate, 3.2 M events; `docs/PERF_NOTES.md`, *The
//! merged agenda*), against 57–60 ns with every event in the calendar.
//! The figure is read, not assumed: dcbench reports it as
//! `packetsim.ns_per_event` on the `design-witness` workload
//! (`benchmark/README.md`). The hot loop allocates nothing per packet,
//! and what the simulator holds follows what is in flight, not the
//! configured bounds: a link's queue is a `VecDeque` that grows to the
//! most packets the link has held (never to [`SimConfig::queue`]), a
//! paced run keeps 16 bytes a path (window state exists in window mode
//! only, as fixed bitmaps), events are `Copy`, each lane grows to the
//! most events of its kind in flight, and the calendar passes drained
//! buckets' buffers on, retaining storage for the buckets that hold
//! events at once rather than for all 512. On the benchmark's witness
//! `simulate` stays below the solve's own memory peak (`docs/PERF_NOTES.md`,
//! *The witness's footprint*).

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
