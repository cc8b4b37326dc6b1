//! Lowering a [`CsrNet`] into the simulator's per-link timing tables,
//! plus path validation and the typed error surface.
//!
//! The lowering rules (see `docs/ARCHITECTURE.md`):
//!
//! * **Link id = arc id.** The simulator's link `a` is exactly CSR arc
//!   `a`, so path decompositions, delta views
//!   ([`CsrNet::with_disabled_arcs`] / capacity overrides), and solved
//!   arc flows address the sim without translation.
//! * **Service time** of arc `a` is `TICKS_PER_UNIT / capacity(a)`
//!   ticks per packet, rounded — one capacity unit moves one packet per
//!   time unit. Dead arcs (capacity 0) get service 0 and reject any
//!   path routed over them; so does an arc too fast for the tick (its
//!   service rounds to 0), with a [`SimError::BadConfig`] naming its
//!   capacity rather than a clamp to one tick.
//! * **Propagation delay** and **queue capacity** are uniform across
//!   links, from [`SimConfig`](crate::SimConfig); the queue counts the
//!   in-service packet, so a link holds at most `queue_cap` packets.

use std::fmt;

use dctopo_graph::CsrNet;

use crate::sim::ticks_per_packet;

/// Errors from lowering or validating simulator input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A flow's source equals its destination.
    SelfLoopFlow {
        /// The offending node.
        node: usize,
    },
    /// A path is routed over an arc with zero capacity (a failed link
    /// in a delta view, or a disabled arc).
    ZeroCapacityLink {
        /// The dead arc id.
        arc: usize,
    },
    /// A path is structurally invalid for its flow.
    BrokenPath {
        /// Index of the flow the path belongs to.
        flow: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// A configuration value is out of range.
    BadConfig(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::SelfLoopFlow { node } => {
                write!(f, "flow source equals destination (node {node})")
            }
            SimError::ZeroCapacityLink { arc } => {
                write!(f, "path routed over zero-capacity arc {arc}")
            }
            SimError::BrokenPath { flow, reason } => {
                write!(f, "flow {flow} has a broken path: {reason}")
            }
            SimError::BadConfig(msg) => write!(f, "bad sim config: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Per-link timing tables lowered from a [`CsrNet`].
pub(crate) struct SimNet {
    /// Ticks to serialize one packet on arc `a`; 0 marks an arc no path
    /// may use (dead, or too fast for the tick).
    pub service_ticks: Vec<u64>,
    /// Propagation delay in ticks, uniform across links.
    pub delay_ticks: u64,
    /// Drop-tail queue capacity per link, counting the packet in
    /// service.
    pub queue_cap: usize,
}

impl SimNet {
    /// Lower `net` with the given uniform delay (ticks) and queue
    /// capacity.
    pub fn lower(net: &CsrNet, delay_ticks: u64, queue_cap: usize) -> SimNet {
        let service_ticks = (0..net.arc_count())
            .map(|a| match net.capacity(a) {
                cap if cap > 0.0 => ticks_per_packet(cap).unwrap_or(0),
                _ => 0,
            })
            .collect();
        SimNet {
            service_ticks,
            delay_ticks,
            queue_cap,
        }
    }

    /// Validate one flow path on the `net` this was lowered from:
    /// non-empty, in range, live, resolvable by the tick, contiguous,
    /// and anchored at the flow's endpoints.
    pub fn validate_path(
        &self,
        net: &CsrNet,
        flow: usize,
        src: usize,
        dst: usize,
        arcs: &[usize],
    ) -> Result<(), SimError> {
        let broken = |reason: String| SimError::BrokenPath { flow, reason };
        if arcs.is_empty() {
            return Err(broken("empty path".into()));
        }
        for &a in arcs {
            if a >= self.service_ticks.len() {
                return Err(broken(format!(
                    "arc {a} out of range ({} arcs)",
                    self.service_ticks.len()
                )));
            }
            if self.service_ticks[a] == 0 {
                let cap = net.capacity(a);
                return Err(if cap > 0.0 {
                    SimError::BadConfig(format!(
                        "arc {a}: capacity {cap:?} serializes a packet in under one tick"
                    ))
                } else {
                    SimError::ZeroCapacityLink { arc: a }
                });
            }
        }
        if net.arc_tail(arcs[0]) != src {
            return Err(broken(format!(
                "first arc starts at {} not source {src}",
                net.arc_tail(arcs[0])
            )));
        }
        let last = *arcs.last().unwrap();
        if net.arc_head(last) != dst {
            return Err(broken(format!(
                "last arc ends at {} not destination {dst}",
                net.arc_head(last)
            )));
        }
        for w in arcs.windows(2) {
            if net.arc_head(w[0]) != net.arc_tail(w[1]) {
                return Err(broken(format!(
                    "arc {} ends at {} but arc {} starts at {}",
                    w[0],
                    net.arc_head(w[0]),
                    w[1],
                    net.arc_tail(w[1])
                )));
            }
        }
        Ok(())
    }
}
