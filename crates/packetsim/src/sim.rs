//! The deterministic event-driven engine.
//!
//! Time is integer ticks ([`TICKS_PER_UNIT`] per model time unit) and
//! every event carries the scheduler-assigned insertion sequence as a
//! tiebreaker, so execution order — and therefore every counter and
//! the running trace hash — is a pure function of the inputs.
//! Reruns are bit-identical; the calendar queue [`simulate`] runs on
//! and the reference binary heap produce byte-for-byte the same
//! [`SimResult`].
//!
//! A packet costs one event per link it arrives at. A link is FIFO with
//! a fixed service time, so all it keeps is the tick its last accepted
//! packet finishes: an arriving packet's departure, and how many packets
//! the drop-tail test finds ahead of it, both follow from that tick.
//! The next event is the arrival at the next link; the last hop's
//! delivery is counted at once, at the tick it happens.
//!
//! Storage follows what is in flight, not the configured bounds: a link
//! is one `u64`, a paced run keeps an injection interval and a sequence
//! counter per path and nothing else, and the calendar hands a drained
//! bucket's buffer to the next bucket that needs one. Window mode's
//! per-subflow state is fixed-size (bitmaps and a pre-sized
//! retransmission stack), and events are `Copy` structs inside the
//! scheduler. The hot loop allocates only when a bucket buffer reaches
//! a new high-water mark.

use dctopo_graph::mix::Fnv1a;
use dctopo_graph::CsrNet;

use crate::calendar::{CalendarQueue, EventScheduler, HeapScheduler};
use crate::net::{SimError, SimNet};
use crate::transport::{Receiver, Subflow, MAX_CWND};

/// Integer ticks per model time unit. A power of two, so tick
/// arithmetic on round rates stays exact.
pub const TICKS_PER_UNIT: u64 = 1 << 20;

/// A run ends before tick 2^63: a longer duration would saturate its end
/// to `u64::MAX`, and paced sources re-arm until the end.
const MAX_END_TICKS: f64 = (1u64 << 63) as f64;

/// Which traffic generator drives the flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// Open-loop paced injection at each flow's offered rate, split
    /// across its paths by weight. No ACKs, no retransmission: goodput
    /// measures exactly what the network delivers of the offered load.
    Paced,
    /// Closed-loop window transport: one AIMD subflow per path with
    /// MPTCP-LIA coupled increase, per-packet ACKs on a queue-free
    /// reverse channel, and fixed-RTO retransmission.
    Window,
}

/// Simulation parameters. Times are in model time units.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Traffic generator.
    pub mode: TransportMode,
    /// Total simulated time.
    pub duration: f64,
    /// Leading portion excluded from goodput accounting.
    pub warmup: f64,
    /// Per-link propagation delay.
    pub link_delay: f64,
    /// Per-hop delay of the queue-free ACK return channel.
    pub ack_hop_delay: f64,
    /// Drop-tail queue capacity per link, in packets, counting the one
    /// in service.
    pub queue: usize,
    /// Initial congestion window per subflow ([`TransportMode::Window`]).
    pub initial_cwnd: u32,
    /// Fixed retransmission timeout ([`TransportMode::Window`]).
    pub rto: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mode: TransportMode::Window,
            duration: 40.0,
            warmup: 10.0,
            link_delay: 0.01,
            ack_hop_delay: 0.01,
            queue: 64,
            initial_cwnd: 10,
            rto: 1.0,
        }
    }
}

/// One path of a flow: a contiguous arc walk with a rate-split weight.
#[derive(Debug, Clone)]
pub struct PathSpec {
    /// CSR arc ids from the flow's source to its destination.
    pub arcs: Vec<usize>,
    /// Relative share of the flow's rate carried on this path
    /// (normalised over the flow's paths; must be positive).
    pub weight: f64,
}

/// One end-to-end flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Offered rate in packets per time unit — with unit-capacity
    /// links, directly in capacity units. Drives injection in
    /// [`TransportMode::Paced`]; ignored by [`TransportMode::Window`].
    pub rate: f64,
    /// The paths carrying the flow; at least one.
    pub paths: Vec<PathSpec>,
}

/// Aggregate outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Per-flow goodput in packets per time unit, measured over
    /// `duration - warmup`.
    pub flow_goodput: Vec<f64>,
    /// Per-flow delivered packet count inside the measurement window
    /// (window mode counts unique sequences only).
    pub flow_delivered: Vec<u64>,
    /// Total delivered packets inside the measurement window.
    pub delivered: u64,
    /// Packets dropped at full queues (whole run).
    pub drops: u64,
    /// Retransmissions sent (whole run; window mode only).
    pub retransmits: u64,
    /// Events processed (whole run): one per link arrival — a paced
    /// injection is its packet's arrival at the first link, and the
    /// last hop's delivery is no event — plus window mode's ACKs and
    /// timeouts.
    pub events: u64,
    /// The most packets any one link held at once, counting the one in
    /// service (whole run); at most [`SimConfig::queue`].
    pub peak_queue: usize,
    /// FNV-1a hash over the processed event trace — the determinism
    /// fingerprint pinned by the regression corpus.
    pub trace_hash: u64,
}

impl SimResult {
    /// Mean per-flow goodput.
    pub fn mean_goodput(&self) -> f64 {
        if self.flow_goodput.is_empty() {
            return 0.0;
        }
        self.flow_goodput.iter().sum::<f64>() / self.flow_goodput.len() as f64
    }
}

/// A packet in flight: which global path it follows, the hop whose
/// link it is at or headed for, and its sequence within the path's
/// (sub)flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pkt {
    path: u32,
    hop: u16,
    seq: u64,
}

/// Scheduler payload. `Copy`, 24 bytes: events live only inside the
/// scheduler arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// A packet reaches the link of its hop `pkt.hop`.
    Arrive { pkt: Pkt },
    /// An ACK for `(path, seq)` reaches the sender.
    Ack { path: u32, seq: u64 },
    /// The retransmission timer for `(path, seq)` fires; valid only
    /// if `gen` is still that sequence's latest send generation.
    Timeout { path: u32, seq: u64, gen: u16 },
    /// The paced source of `path` injects its next packet.
    Inject { path: u32 },
}

/// Convert a nonnegative time-unit quantity to ticks, minimum 1.
fn ticks(t: f64) -> u64 {
    ((t * TICKS_PER_UNIT as f64).round() as u64).max(1)
}

/// Ticks between two packets at `rate` packets per time unit, or `None`
/// when that rounds below one tick: a rate the tick cannot resolve is
/// refused, not clamped to one packet a tick.
pub(crate) fn ticks_per_packet(rate: f64) -> Option<u64> {
    let t = (TICKS_PER_UNIT as f64 / rate).round();
    (t >= 1.0).then_some(t as u64)
}

impl SimConfig {
    /// Check every parameter that does not depend on the flows — what
    /// [`simulate`] checks first — so a caller can refuse a
    /// configuration before building any flow.
    ///
    /// # Errors
    /// [`SimError::BadConfig`] naming the first parameter out of range.
    pub fn validate(&self) -> Result<(), SimError> {
        let warmup_ok =
            self.warmup.is_finite() && self.warmup >= 0.0 && self.warmup < self.duration;
        if !positive(self.duration) || !warmup_ok {
            return Err(SimError::BadConfig(format!(
                "need 0 <= warmup < duration, got warmup {} duration {}",
                self.warmup, self.duration
            )));
        }
        if self.queue == 0 {
            return Err(SimError::BadConfig("queue capacity must be >= 1".into()));
        }
        let delay_ok = |d: f64| d.is_finite() && d >= 0.0;
        if !delay_ok(self.link_delay) || !delay_ok(self.ack_hop_delay) || !positive(self.rto) {
            return Err(SimError::BadConfig(
                "delays must be finite and >= 0, rto finite and > 0".into(),
            ));
        }
        if self.initial_cwnd == 0 {
            return Err(SimError::BadConfig("initial_cwnd must be >= 1".into()));
        }
        if self.duration * TICKS_PER_UNIT as f64 >= MAX_END_TICKS {
            return Err(SimError::BadConfig(format!(
                "duration {:?} ends beyond tick 2^63",
                self.duration
            )));
        }
        if (self.warmup * TICKS_PER_UNIT as f64).round() as u64 >= ticks(self.duration) {
            return Err(SimError::BadConfig(format!(
                "no tick left between warmup {} and duration {}",
                self.warmup, self.duration
            )));
        }
        Ok(())
    }
}

/// Per-path source state. The variant is the [`TransportMode`], so a
/// paced run carries no window state.
enum Transport {
    /// Open-loop sources: per path, the injection interval (ticks) and
    /// the next sequence to inject.
    Paced {
        interval: Vec<u64>,
        next_seq: Vec<u64>,
    },
    /// Closed-loop sources: per path, one AIMD subflow and the receiver
    /// of its sequence space.
    Window {
        subflows: Vec<Subflow>,
        receivers: Vec<Receiver>,
    },
}

/// Flattened, validated simulation state.
struct Engine {
    net: SimNet,
    // paths, flattened: path p covers path_arcs[path_off[p]..path_off[p+1]]
    path_arcs: Vec<u32>,
    path_off: Vec<u32>,
    path_flow: Vec<u32>,
    // flow f owns paths flow_paths[f].0 .. flow_paths[f].1
    flow_paths: Vec<(u32, u32)>,
    transport: Transport,
    // per link, the tick its last accepted packet finishes serialization
    busy_until: Vec<u64>,
    // timing
    end: u64,
    warm: u64,
    rto_ticks: u64,
    ack_hop_ticks: u64,
    // counters
    flow_delivered: Vec<u64>,
    delivered: u64,
    drops: u64,
    retransmits: u64,
    peak_queue: usize,
}

/// Finite and strictly positive — the validity test for every rate,
/// duration, and weight (rejects NaN and ∞, which would poison tick
/// arithmetic).
#[inline]
fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

impl Engine {
    fn build(net: &CsrNet, flows: &[FlowSpec], cfg: &SimConfig) -> Result<Engine, SimError> {
        cfg.validate()?;
        let delay_ticks = (cfg.link_delay * TICKS_PER_UNIT as f64).round() as u64;
        let mut sim_net = SimNet::lower(net, delay_ticks, cfg.queue);
        // a service time past the run is the run's length: no packet
        // finishes inside it either way, and departures stay below
        // `u64::MAX`, so a link's backlog still counts its packets
        let end = ticks(cfg.duration);
        for svc in &mut sim_net.service_ticks {
            *svc = (*svc).min(end);
        }

        let mut path_arcs = Vec::new();
        let mut path_off = vec![0u32];
        let mut path_flow = Vec::new();
        let mut flow_paths = Vec::new();
        let mut interval = Vec::new();
        let window = cfg.mode == TransportMode::Window;
        for (f, flow) in flows.iter().enumerate() {
            if flow.src == flow.dst {
                return Err(SimError::SelfLoopFlow { node: flow.src });
            }
            if flow.paths.is_empty() {
                return Err(SimError::BrokenPath {
                    flow: f,
                    reason: "flow has no paths".into(),
                });
            }
            let weight_sum: f64 = flow.paths.iter().map(|p| p.weight).sum();
            if !positive(weight_sum) || !flow.paths.iter().all(|p| positive(p.weight)) {
                return Err(SimError::BadConfig(format!(
                    "flow {f}: path weights must be positive"
                )));
            }
            if !window && !positive(flow.rate) {
                return Err(SimError::BadConfig(format!(
                    "flow {f}: paced mode needs a positive rate"
                )));
            }
            let first = path_off.len() as u32 - 1;
            for path in &flow.paths {
                sim_net.validate_path(net, f, flow.src, flow.dst, &path.arcs)?;
                if path.arcs.len() > u16::MAX as usize {
                    return Err(SimError::BrokenPath {
                        flow: f,
                        reason: format!("path too long ({} hops)", path.arcs.len()),
                    });
                }
                path_arcs.extend(path.arcs.iter().map(|&a| a as u32));
                path_off.push(path_arcs.len() as u32);
                path_flow.push(f as u32);
                if !window {
                    let rate = flow.rate * path.weight / weight_sum;
                    interval.push(ticks_per_packet(rate).ok_or_else(|| {
                        SimError::BadConfig(format!(
                            "flow {f}: paced rate {rate:?} on a path is more than one packet a tick"
                        ))
                    })?);
                }
            }
            flow_paths.push((first, path_off.len() as u32 - 1));
        }
        let warm = (cfg.warmup * TICKS_PER_UNIT as f64).round() as u64;
        let paths = path_flow.len();
        let transport = if window {
            Transport::Window {
                subflows: (0..paths).map(|_| Subflow::new(cfg.initial_cwnd)).collect(),
                receivers: (0..paths).map(|_| Receiver::new()).collect(),
            }
        } else {
            Transport::Paced {
                interval,
                next_seq: vec![0; paths],
            }
        };
        Ok(Engine {
            busy_until: vec![0; sim_net.service_ticks.len()],
            net: sim_net,
            path_arcs,
            path_off,
            path_flow,
            flow_paths,
            transport,
            end,
            warm,
            rto_ticks: ticks(cfg.rto),
            ack_hop_ticks: (cfg.ack_hop_delay * TICKS_PER_UNIT as f64).round() as u64,
            flow_delivered: vec![0; flows.len()],
            delivered: 0,
            drops: 0,
            retransmits: 0,
            peak_queue: 0,
        })
    }

    #[inline]
    fn path_len(&self, p: u32) -> u16 {
        (self.path_off[p as usize + 1] - self.path_off[p as usize]) as u16
    }

    #[inline]
    fn path_arc(&self, p: u32, hop: u16) -> u32 {
        self.path_arcs[self.path_off[p as usize] as usize + hop as usize]
    }

    /// Schedule `ev` at `now + delay`, saturating, and only if that is
    /// inside the run: [`Engine::run`] stops at the first event at or
    /// after `end`, so one that late is never dispatched and queueing it
    /// changes no [`SimResult`]. Every scheduling site goes through
    /// here, which is what keeps tick arithmetic from wrapping on
    /// delays that saturated in [`Engine::build`].
    #[inline]
    fn at<Q: EventScheduler<Ev>>(&self, q: &mut Q, now: u64, delay: u64, ev: Ev) {
        let t = now.saturating_add(delay);
        if t < self.end {
            q.push(t, ev);
        }
    }

    /// `pkt` reaches the link of its hop at tick `now`: dropped if the
    /// link holds `queue_cap` packets, otherwise its departure is fixed
    /// now and what follows it is scheduled — the arrival at the next
    /// link, or on the last hop the delivery.
    fn arrive<Q: EventScheduler<Ev>>(&mut self, q: &mut Q, now: u64, pkt: Pkt) {
        let link = self.path_arc(pkt.path, pkt.hop) as usize;
        let svc = self.net.service_ticks[link];
        let busy_until = self.busy_until[link];
        // a busy period's packets leave exactly `svc` apart, so those
        // still held are the departures after `now`; one leaving at
        // `now` is gone
        let held = busy_until.saturating_sub(now).div_ceil(svc);
        if held >= self.net.queue_cap as u64 {
            self.drops += 1;
            return;
        }
        let departs = busy_until.max(now).saturating_add(svc);
        self.busy_until[link] = departs;
        self.peak_queue = self.peak_queue.max(held as usize + 1);
        let hop = pkt.hop + 1;
        if hop < self.path_len(pkt.path) {
            let next = Pkt { hop, ..pkt };
            self.at(q, departs, self.net.delay_ticks, Ev::Arrive { pkt: next });
        } else {
            let t = departs.saturating_add(self.net.delay_ticks);
            if t < self.end {
                self.reach_destination(q, t, pkt);
            }
        }
    }

    /// `pkt` reaches its destination at tick `t`, inside the run.
    fn reach_destination<Q: EventScheduler<Ev>>(&mut self, q: &mut Q, t: u64, pkt: Pkt) {
        let p = pkt.path;
        let flow = self.path_flow[p as usize];
        match &mut self.transport {
            Transport::Paced { .. } => self.deliver(t, flow),
            Transport::Window { receivers, .. } => {
                // one receiver per subflow: each path carries its own
                // sequence space
                if receivers[p as usize].on_packet(pkt.seq) {
                    self.deliver(t, flow);
                }
                // ACK even duplicates: the sender's own dedup handles
                // them, and a lost original must not strand the
                // retransmission unacked
                let hops = u64::from(self.path_len(p));
                let ack = Ev::Ack {
                    path: p,
                    seq: pkt.seq,
                };
                self.at(q, t, hops.saturating_mul(self.ack_hop_ticks), ack);
            }
        }
    }

    /// Send as many packets as `path`'s windows admit (window mode).
    fn try_send<Q: EventScheduler<Ev>>(&mut self, q: &mut Q, now: u64, path: u32) {
        loop {
            let Transport::Window { subflows, .. } = &mut self.transport else {
                unreachable!("paced sources have no window");
            };
            let sf = &mut subflows[path as usize];
            if !sf.can_send() {
                return;
            }
            let (seq, is_rtx, gen) = sf.take_seq();
            let backoff = sf.backoff;
            if is_rtx {
                self.retransmits += 1;
            }
            self.arrive(q, now, Pkt { path, hop: 0, seq });
            // exponential backoff plus a deterministic per-send phase
            // jitter: retries sample different positions in the
            // contention cycle, breaking drop-tail lockout without RNG
            let rto = self.rto_ticks.saturating_mul(1 << backoff.min(6));
            let jitter = seq
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(gen).wrapping_mul(0xD1B5_4A32_D192_ED03))
                % (self.rto_ticks / 4 + 1);
            self.at(
                q,
                now,
                rto.saturating_add(jitter),
                Ev::Timeout { path, seq, gen },
            );
        }
    }

    /// Count a final-hop delivery at tick `t`, inside the run.
    fn deliver(&mut self, t: u64, flow: u32) {
        if t >= self.warm {
            self.flow_delivered[flow as usize] += 1;
            self.delivered += 1;
        }
    }

    fn dispatch<Q: EventScheduler<Ev>>(&mut self, q: &mut Q, t: u64, ev: Ev) {
        match (ev, &mut self.transport) {
            (Ev::Arrive { pkt }, _) => self.arrive(q, t, pkt),
            (Ev::Ack { path, seq }, Transport::Window { subflows, .. }) => {
                if subflows[path as usize].on_ack(seq) {
                    // MPTCP-LIA coupled increase: +1/total over the
                    // flow's subflow windows, on the acked subflow
                    let flow = self.path_flow[path as usize] as usize;
                    let (lo, hi) = self.flow_paths[flow];
                    let total: f64 = (lo..hi).map(|p| subflows[p as usize].cwnd).sum();
                    let sf = &mut subflows[path as usize];
                    sf.cwnd = (sf.cwnd + 1.0 / total).min(MAX_CWND);
                }
                self.try_send(q, t, path);
            }
            (Ev::Timeout { path, seq, gen }, Transport::Window { subflows, .. }) => {
                subflows[path as usize].on_timeout(seq, gen);
                self.try_send(q, t, path);
            }
            (Ev::Inject { path }, Transport::Paced { interval, next_seq }) => {
                let every = interval[path as usize];
                let seq = next_seq[path as usize];
                next_seq[path as usize] += 1;
                self.arrive(q, t, Pkt { path, hop: 0, seq });
                self.at(q, t, every, Ev::Inject { path });
            }
            (Ev::Ack { .. } | Ev::Timeout { .. } | Ev::Inject { .. }, _) => {
                unreachable!("a source event of the other transport mode")
            }
        }
    }

    fn run<Q: EventScheduler<Ev>>(mut self, q: &mut Q) -> SimResult {
        // prime the sources
        match &self.transport {
            Transport::Window { subflows, .. } => {
                for p in 0..subflows.len() as u32 {
                    self.try_send(q, 0, p);
                }
            }
            Transport::Paced { interval, .. } => {
                for (p, &every) in interval.iter().enumerate() {
                    // stagger starts deterministically so synchronized
                    // sources do not phase-lock on shared queues
                    let start = (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % every;
                    self.at(q, 0, start, Ev::Inject { path: p as u32 });
                }
            }
        }
        let mut events = 0u64;
        let mut hash = Fnv1a::default();
        while let Some((t, ev)) = q.pop() {
            if t >= self.end {
                break;
            }
            events += 1;
            hash.write_u64(t);
            match ev {
                Ev::Arrive { pkt } => hash
                    .write_u64(1)
                    .write_u64((u64::from(pkt.path) << 16) | u64::from(pkt.hop))
                    .write_u64(pkt.seq),
                Ev::Ack { path, seq } => {
                    hash.write_u64(2).write_u64(u64::from(path)).write_u64(seq)
                }
                Ev::Timeout { path, seq, gen } => hash
                    .write_u64(3)
                    .write_u64((u64::from(path) << 16) | u64::from(gen))
                    .write_u64(seq),
                Ev::Inject { path } => hash.write_u64(4).write_u64(u64::from(path)),
            };
            self.dispatch(q, t, ev);
        }
        let span = (self.end - self.warm) as f64 / TICKS_PER_UNIT as f64;
        SimResult {
            flow_goodput: self
                .flow_delivered
                .iter()
                .map(|&d| d as f64 / span)
                .collect(),
            flow_delivered: self.flow_delivered,
            delivered: self.delivered,
            drops: self.drops,
            retransmits: self.retransmits,
            events,
            peak_queue: self.peak_queue,
            trace_hash: hash.finish(),
        }
    }
}

/// Pick a calendar bucket width suited to the instance: a thirty-second
/// of the smallest live service time. Consecutive departures from the
/// fastest link land in distinct buckets, and a bucket holds a few
/// events, so the buffers drained buckets hand on stay small: a drained
/// buffer keeps its capacity, and wider buckets grew every recycled
/// buffer to the largest bucket's size.
fn width_hint(e: &Engine) -> u64 {
    let min_svc = e
        .net
        .service_ticks
        .iter()
        .copied()
        .filter(|&s| s > 0)
        .min()
        .unwrap_or(TICKS_PER_UNIT);
    (min_svc / 32).max(1)
}

/// Simulate `flows` over `net` on the [`CalendarQueue`].
pub fn simulate(net: &CsrNet, flows: &[FlowSpec], cfg: &SimConfig) -> Result<SimResult, SimError> {
    let engine = Engine::build(net, flows, cfg)?;
    let mut q = CalendarQueue::with_width_hint(width_hint(&engine));
    Ok(engine.run(&mut q))
}

/// Simulate with the reference [`HeapScheduler`]. Byte-for-byte the
/// same result as [`simulate`]; exists as the oracle the differential
/// tests hold it to.
pub fn simulate_with_heap(
    net: &CsrNet,
    flows: &[FlowSpec],
    cfg: &SimConfig,
) -> Result<SimResult, SimError> {
    let engine = Engine::build(net, flows, cfg)?;
    let mut q = HeapScheduler::new();
    Ok(engine.run(&mut q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo_graph::Graph;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A directed line of `n` nodes with capacity-`cap` links; returns
    /// the net and the forward arc ids.
    fn line(n: usize, cap: f64) -> (CsrNet, Vec<usize>) {
        let mut g = Graph::new(n);
        for u in 0..n - 1 {
            g.add_edge(u, u + 1, cap).unwrap();
        }
        let net = CsrNet::from_graph(&g);
        let arcs = (0..n - 1)
            .map(|u| {
                (0..net.arc_count())
                    .find(|&a| net.arc_tail(a) == u && net.arc_head(a) == u + 1)
                    .unwrap()
            })
            .collect();
        (net, arcs)
    }

    fn one_path_flow(src: usize, dst: usize, rate: f64, arcs: Vec<usize>) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            rate,
            paths: vec![PathSpec { arcs, weight: 1.0 }],
        }
    }

    #[test]
    fn paced_flow_delivers_offered_load() {
        let (net, arcs) = line(3, 1.0);
        let flows = vec![one_path_flow(0, 2, 0.5, arcs)];
        let cfg = SimConfig {
            mode: TransportMode::Paced,
            duration: 30.0,
            warmup: 5.0,
            ..SimConfig::default()
        };
        let res = simulate(&net, &flows, &cfg).unwrap();
        assert_eq!(res.drops, 0);
        let g = res.flow_goodput[0];
        assert!((g - 0.5).abs() < 0.05, "goodput {g} should track rate 0.5");
    }

    #[test]
    fn paced_overload_caps_at_line_rate() {
        let (net, arcs) = line(2, 1.0);
        // offered 3x the unit link rate: goodput pins at ~1.0, the
        // rest drops at the finite queue
        let flows = vec![one_path_flow(0, 1, 3.0, arcs)];
        let cfg = SimConfig {
            mode: TransportMode::Paced,
            duration: 30.0,
            warmup: 5.0,
            queue: 16,
            ..SimConfig::default()
        };
        let res = simulate(&net, &flows, &cfg).unwrap();
        let g = res.flow_goodput[0];
        assert!(g <= 1.0 + 0.05, "goodput {g} cannot beat capacity");
        assert!(g > 0.9, "goodput {g} should saturate the link");
        assert!(res.drops > 0, "overload must shed at the queue");
    }

    #[test]
    fn window_flow_saturates_bottleneck() {
        let (net, arcs) = line(3, 10.0);
        let flows = vec![one_path_flow(0, 2, 0.0, arcs)];
        let cfg = SimConfig {
            duration: 120.0,
            warmup: 40.0,
            queue: 16,
            rto: 8.0,
            ..SimConfig::default()
        };
        let res = simulate(&net, &flows, &cfg).unwrap();
        let g = res.flow_goodput[0];
        assert!(
            g > 8.0,
            "window transport should fill the 10x link, got {g}"
        );
        assert!(g <= 10.0 * 1.05, "goodput {g} cannot beat capacity");
    }

    #[test]
    fn window_two_flows_share_fairly() {
        // 0→1→2 and 3→1→2 contend on arc 1→2
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 10.0).unwrap();
        g.add_edge(1, 2, 10.0).unwrap();
        g.add_edge(3, 1, 10.0).unwrap();
        let net = CsrNet::from_graph(&g);
        let arc = |u: usize, v: usize| {
            (0..net.arc_count())
                .find(|&a| net.arc_tail(a) == u && net.arc_head(a) == v)
                .unwrap()
        };
        let flows = vec![
            one_path_flow(0, 2, 0.0, vec![arc(0, 1), arc(1, 2)]),
            one_path_flow(3, 2, 0.0, vec![arc(3, 1), arc(1, 2)]),
        ];
        let cfg = SimConfig {
            duration: 1000.0,
            warmup: 500.0,
            queue: 16,
            rto: 2.0,
            ..SimConfig::default()
        };
        let res = simulate(&net, &flows, &cfg).unwrap();
        let (a, b) = (res.flow_goodput[0], res.flow_goodput[1]);
        let total = a + b;
        assert!(
            total <= 10.0 * 1.05,
            "shared link capacity exceeded: {total}"
        );
        assert!(total > 8.0, "shared link underused: {total}");
        let ratio = a.min(b) / a.max(b);
        assert!(ratio > 0.3, "AIMD share too skewed: {a} vs {b}");
        // contention, drops and retransmits included, the reference
        // scheduler realises the same run
        assert!(res.drops > 0);
        assert_eq!(res, simulate_with_heap(&net, &flows, &cfg).unwrap());
    }

    #[test]
    fn multipath_outruns_single_path() {
        // two disjoint 2-hop paths 0→1→3 and 0→2→3, 10x links
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 10.0).unwrap();
        g.add_edge(1, 3, 10.0).unwrap();
        g.add_edge(0, 2, 10.0).unwrap();
        g.add_edge(2, 3, 10.0).unwrap();
        let net = CsrNet::from_graph(&g);
        let arc = |u: usize, v: usize| {
            (0..net.arc_count())
                .find(|&a| net.arc_tail(a) == u && net.arc_head(a) == v)
                .unwrap()
        };
        let two = FlowSpec {
            src: 0,
            dst: 3,
            rate: 0.0,
            paths: vec![
                PathSpec {
                    arcs: vec![arc(0, 1), arc(1, 3)],
                    weight: 1.0,
                },
                PathSpec {
                    arcs: vec![arc(0, 2), arc(2, 3)],
                    weight: 1.0,
                },
            ],
        };
        let cfg = SimConfig {
            duration: 240.0,
            warmup: 80.0,
            queue: 16,
            rto: 8.0,
            ..SimConfig::default()
        };
        let res = simulate(&net, &[two], &cfg).unwrap();
        let g2 = res.flow_goodput[0];
        assert!(g2 > 13.0, "two disjoint 10x paths should beat one: {g2}");
        assert!(g2 <= 20.0 * 1.05);
    }

    #[test]
    fn reruns_and_heap_are_bit_identical() {
        let (net, arcs) = line(4, 10.0);
        let flows = vec![one_path_flow(0, 3, 0.0, arcs)];
        let cfg = SimConfig {
            duration: 20.0,
            warmup: 5.0,
            queue: 8,
            ..SimConfig::default()
        };
        let a = simulate(&net, &flows, &cfg).unwrap();
        let b = simulate(&net, &flows, &cfg).unwrap();
        let h = simulate_with_heap(&net, &flows, &cfg).unwrap();
        assert_eq!(a, b, "rerun must be bit-identical");
        assert_eq!(a, h, "calendar and heap schedulers must agree exactly");
        assert!(a.events > 0 && a.trace_hash != 0);
    }

    #[test]
    fn typed_errors() {
        let (net, arcs) = line(3, 1.0);
        let cfg = SimConfig::default();
        let selfloop = FlowSpec {
            src: 1,
            dst: 1,
            rate: 1.0,
            paths: vec![PathSpec {
                arcs: arcs.clone(),
                weight: 1.0,
            }],
        };
        assert_eq!(
            simulate(&net, &[selfloop], &cfg).unwrap_err(),
            SimError::SelfLoopFlow { node: 1 }
        );
        // kill the first forward arc: routing over it is typed
        let dead = net.with_disabled_arcs(&[arcs[0]]).unwrap();
        let f = one_path_flow(0, 2, 1.0, arcs.clone());
        assert_eq!(
            simulate(&dead, &[f], &cfg).unwrap_err(),
            SimError::ZeroCapacityLink { arc: arcs[0] }
        );
        // a disconnected arc sequence is a broken path
        let rev = one_path_flow(0, 2, 1.0, vec![arcs[1], arcs[0]]);
        assert!(matches!(
            simulate(&net, &[rev], &cfg).unwrap_err(),
            SimError::BrokenPath { flow: 0, .. }
        ));
    }

    /// The tie rule: a packet that departs at the tick the next one
    /// arrives is gone. At exactly the line rate, one tick apart from
    /// the service time, a queue of one never sheds; one tick faster,
    /// every other packet finds the link full.
    #[test]
    fn a_packet_leaving_at_the_arrival_tick_is_gone() {
        let (net, arcs) = line(2, 1.0);
        let cfg = SimConfig {
            mode: TransportMode::Paced,
            duration: 40.0,
            warmup: 10.0,
            queue: 1,
            ..SimConfig::default()
        };
        let at_rate = |rate: f64| simulate(&net, &[one_path_flow(0, 1, rate, arcs.clone())], &cfg);
        let exact = at_rate(1.0).unwrap();
        assert_eq!((exact.drops, exact.peak_queue), (0, 1));
        assert_eq!(exact.delivered, 30, "one packet a unit over 30 units");
        let faster = TICKS_PER_UNIT as f64 / (TICKS_PER_UNIT - 1) as f64;
        let over = at_rate(faster).unwrap();
        assert!(over.drops > 0 && over.delivered <= 30, "{over:?}");
        // one event a packet: the injection, which is its only arrival
        assert_eq!(exact.events, 40);
    }

    /// Three routes of one, two and three hops from node 0 to node 1,
    /// every edge at one of `palette`'s capacities, and three flows
    /// over 1–3 of the routes that reach their destination: mixed
    /// service times and mixed hop counts.
    fn braid(rng: &mut StdRng, palette: &[f64]) -> (CsrNet, Vec<FlowSpec>) {
        let mut g = Graph::new(5);
        for (u, v) in [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)] {
            let cap = palette[rng.random_range(0..palette.len())];
            g.add_edge(u, v, cap).unwrap();
        }
        let net = CsrNet::from_graph(&g);
        let routes: [&[&[usize]]; 3] = [
            &[&[0, 1], &[0, 2, 1], &[0, 3, 4, 1]],
            &[&[2, 1], &[2, 0, 1]],
            &[&[3, 4, 1], &[3, 0, 1], &[3, 0, 2, 1]],
        ];
        let flows = routes
            .iter()
            .map(|walks| {
                let first = rng.random_range(0..walks.len());
                let count = rng.random_range(1..=walks.len());
                let paths = (0..count)
                    .map(|i| {
                        let walk = walks[(first + i) % walks.len()];
                        PathSpec {
                            arcs: walk
                                .windows(2)
                                .map(|w| net.arc_between(w[0], w[1]).unwrap())
                                .collect(),
                            weight: rng.random_range(0.5..2.0),
                        }
                    })
                    .collect();
                FlowSpec {
                    src: walks[0][0],
                    dst: 1,
                    rate: rng.random_range(0.3..1.2) * palette[0],
                    paths,
                }
            })
            .collect();
        (net, flows)
    }

    #[test]
    fn calendar_matches_heap_on_mixed_capacities_in_both_modes() {
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let palette: &[f64] = if seed % 2 == 0 {
                &[1.0, 3.5]
            } else {
                &[2.0, 0.75, 9.0]
            };
            let (net, flows) = braid(&mut rng, palette);
            let cfg = SimConfig {
                mode: if seed % 3 == 0 {
                    TransportMode::Paced
                } else {
                    TransportMode::Window
                },
                duration: 30.0,
                warmup: 5.0,
                queue: rng.random_range(2..=16),
                rto: 3.0,
                ..SimConfig::default()
            };
            assert_eq!(
                simulate(&net, &flows, &cfg).unwrap(),
                simulate_with_heap(&net, &flows, &cfg).unwrap(),
                "seed {seed}"
            );
        }
    }

    /// Paced sources over mixed line rates, with queues small enough to
    /// fill: the heap realises the same run, and the peak occupancy
    /// never passes the bound — and has reached it wherever drop-tail
    /// shed.
    #[test]
    fn paced_mixed_capacities_match_heap_within_the_queue_bound() {
        let mut shed = [0u32; 2];
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let palette: &[f64] = if seed % 2 == 0 {
                &[1.0, 3.5]
            } else {
                &[2.0, 0.75, 9.0]
            };
            let (net, flows) = braid(&mut rng, palette);
            let queue = rng.random_range(1..=8);
            let cfg = SimConfig {
                mode: TransportMode::Paced,
                duration: 30.0,
                warmup: 5.0,
                queue,
                ..SimConfig::default()
            };
            let res = simulate(&net, &flows, &cfg).unwrap();
            assert_eq!(
                res,
                simulate_with_heap(&net, &flows, &cfg).unwrap(),
                "seed {seed}"
            );
            assert!((1..=queue).contains(&res.peak_queue), "seed {seed}");
            if res.drops > 0 {
                assert_eq!(res.peak_queue, queue, "seed {seed}");
            }
            shed[usize::from(res.drops > 0)] += 1;
        }
        assert!(shed[0] > 0 && shed[1] > 0, "{shed:?}");
    }
}
