//! Model test: the simulator's one event per link arrival against the
//! two-event engine it replaced, kept here as [`Model`] — a `VecDeque`
//! of packets per link, a `TxDone` event when the head finishes
//! serialization and an `Arrive` event when it reaches the next node.
//! It is that engine's paced mode as it was, line for line: its
//! lowering (rates and capacities clamped to one tick), its event order
//! and its trace hash. Window mode is left out; the corpus is paced.
//!
//! The two engines decide a drop the same way but order some same-tick
//! events differently: the old one resolved an arrival and a departure
//! at one link in one tick by push order, the new one counts the
//! departing packet as gone, and two arrivals at one link in one tick
//! can swap places. So the law is conditional: on every run where the
//! model sees neither coincidence at any link, `delivered`, `drops`,
//! `peak_queue` and `flow_delivered` are equal, and `events` is the
//! model's injections plus its arrivals short of the destination. The
//! runs with coincidences are counted and printed, with how many of them
//! differed.

use std::collections::VecDeque;

use dctopo_graph::mix::Fnv1a;
use dctopo_graph::{CsrNet, Graph};
use dctopo_packetsim::{
    simulate, simulate_with_heap, CalendarQueue, EventScheduler, FlowSpec, PathSpec, SimConfig,
    SimResult, TransportMode, TICKS_PER_UNIT,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pkt {
    path: u32,
    hop: u16,
    seq: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// The head packet of `link` finishes serialization.
    TxDone { link: u32 },
    /// A packet reaches the head end of `link`.
    Arrive { link: u32, pkt: Pkt },
    /// The paced source of `path` injects its next packet.
    Inject { path: u32 },
}

fn ticks(t: f64) -> u64 {
    ((t * TICKS_PER_UNIT as f64).round() as u64).max(1)
}

/// The two-event engine, paced mode, on valid input.
struct Model {
    service_ticks: Vec<u64>,
    delay_ticks: u64,
    queue_cap: usize,
    path_arcs: Vec<u32>,
    path_off: Vec<u32>,
    path_flow: Vec<u32>,
    interval: Vec<u64>,
    next_seq: Vec<u64>,
    queues: Vec<VecDeque<Pkt>>,
    end: u64,
    warm: u64,
    flow_delivered: Vec<u64>,
    delivered: u64,
    drops: u64,
    peak_queue: usize,
    /// What the model saw besides its result.
    census: Census,
    /// Per link, the last tick a packet arrived at it and the last tick
    /// one left it.
    last_arrival: Vec<u64>,
    last_departure: Vec<u64>,
}

#[derive(Debug, Default)]
struct Census {
    injections: u64,
    non_final_arrivals: u64,
    /// Two arrivals, or an arrival and a departure, at one link in one
    /// tick.
    coincidence: bool,
}

impl Model {
    fn build(net: &CsrNet, flows: &[FlowSpec], cfg: &SimConfig) -> Model {
        assert_eq!(cfg.mode, TransportMode::Paced);
        let service_ticks: Vec<u64> = (0..net.arc_count())
            .map(|a| {
                let cap = net.capacity(a);
                assert!(cap > 0.0);
                ((TICKS_PER_UNIT as f64 / cap).round() as u64).max(1)
            })
            .collect();
        let (mut path_arcs, mut path_off, mut path_flow) = (Vec::new(), vec![0u32], Vec::new());
        let mut interval = Vec::new();
        for (f, flow) in flows.iter().enumerate() {
            let weight_sum: f64 = flow.paths.iter().map(|p| p.weight).sum();
            for path in &flow.paths {
                path_arcs.extend(path.arcs.iter().map(|&a| a as u32));
                path_off.push(path_arcs.len() as u32);
                path_flow.push(f as u32);
                let rate = flow.rate * path.weight / weight_sum;
                interval.push(((TICKS_PER_UNIT as f64 / rate).round() as u64).max(1));
            }
        }
        let links = service_ticks.len();
        Model {
            service_ticks,
            delay_ticks: (cfg.link_delay * TICKS_PER_UNIT as f64).round() as u64,
            queue_cap: cfg.queue,
            next_seq: vec![0; path_flow.len()],
            path_arcs,
            path_off,
            path_flow,
            interval,
            queues: vec![VecDeque::new(); links],
            end: ticks(cfg.duration),
            warm: (cfg.warmup * TICKS_PER_UNIT as f64).round() as u64,
            flow_delivered: vec![0; flows.len()],
            delivered: 0,
            drops: 0,
            peak_queue: 0,
            census: Census::default(),
            last_arrival: vec![u64::MAX; links],
            last_departure: vec![u64::MAX; links],
        }
    }

    fn path_len(&self, p: u32) -> u16 {
        (self.path_off[p as usize + 1] - self.path_off[p as usize]) as u16
    }

    fn path_arc(&self, p: u32, hop: u16) -> u32 {
        self.path_arcs[self.path_off[p as usize] as usize + hop as usize]
    }

    fn at<Q: EventScheduler<Ev>>(&self, q: &mut Q, now: u64, delay: u64, ev: Ev) {
        let t = now.saturating_add(delay);
        if t < self.end {
            q.push(t, ev);
        }
    }

    fn enqueue<Q: EventScheduler<Ev>>(&mut self, q: &mut Q, now: u64, link: u32, pkt: Pkt) {
        let l = link as usize;
        if self.last_arrival[l] == now || self.last_departure[l] == now {
            self.census.coincidence = true;
        }
        self.last_arrival[l] = now;
        let queue = &mut self.queues[l];
        if queue.len() == self.queue_cap {
            self.drops += 1;
            return;
        }
        queue.push_back(pkt);
        let held = queue.len();
        self.peak_queue = self.peak_queue.max(held);
        if held == 1 {
            self.at(q, now, self.service_ticks[l], Ev::TxDone { link });
        }
    }

    fn dispatch<Q: EventScheduler<Ev>>(&mut self, q: &mut Q, t: u64, ev: Ev) {
        match ev {
            Ev::TxDone { link } => {
                let l = link as usize;
                if self.last_arrival[l] == t {
                    self.census.coincidence = true;
                }
                self.last_departure[l] = t;
                let queue = &mut self.queues[l];
                let pkt = queue.pop_front().expect("TxDone on an idle link");
                let busy = !queue.is_empty();
                self.at(q, t, self.delay_ticks, Ev::Arrive { link, pkt });
                if busy {
                    self.at(q, t, self.service_ticks[l], Ev::TxDone { link });
                }
            }
            Ev::Arrive { link: _, pkt } => {
                let hop = pkt.hop + 1;
                let p = pkt.path;
                if hop == self.path_len(p) {
                    if t >= self.warm && t < self.end {
                        self.flow_delivered[self.path_flow[p as usize] as usize] += 1;
                        self.delivered += 1;
                    }
                } else {
                    self.census.non_final_arrivals += 1;
                    let next = self.path_arc(p, hop);
                    let seq = pkt.seq;
                    self.enqueue(q, t, next, Pkt { path: p, hop, seq });
                }
            }
            Ev::Inject { path } => {
                self.census.injections += 1;
                let every = self.interval[path as usize];
                let seq = self.next_seq[path as usize];
                self.next_seq[path as usize] += 1;
                let first_arc = self.path_arc(path, 0);
                self.enqueue(q, t, first_arc, Pkt { path, hop: 0, seq });
                self.at(q, t, every, Ev::Inject { path });
            }
        }
    }

    fn run(mut self) -> (SimResult, Census) {
        let width = self
            .service_ticks
            .iter()
            .copied()
            .min()
            .unwrap_or(TICKS_PER_UNIT);
        let mut q = CalendarQueue::with_width_hint((width / 4).max(1));
        for (p, &every) in self.interval.iter().enumerate() {
            let start = (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % every;
            self.at(&mut q, 0, start, Ev::Inject { path: p as u32 });
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
                Ev::TxDone { link } => hash.write_u64(0).write_u64(u64::from(link)),
                Ev::Arrive { link, pkt } => hash
                    .write_u64(1)
                    .write_u64(u64::from(link))
                    .write_u64((u64::from(pkt.path) << 16) | u64::from(pkt.hop))
                    .write_u64(pkt.seq),
                Ev::Inject { path } => hash.write_u64(4).write_u64(u64::from(path)),
            };
            self.dispatch(&mut q, t, ev);
        }
        let span = (self.end - self.warm) as f64 / TICKS_PER_UNIT as f64;
        let result = SimResult {
            flow_goodput: self
                .flow_delivered
                .iter()
                .map(|&d| d as f64 / span)
                .collect(),
            flow_delivered: self.flow_delivered,
            delivered: self.delivered,
            drops: self.drops,
            retransmits: 0,
            events,
            peak_queue: self.peak_queue,
            trace_hash: hash.finish(),
        };
        (result, self.census)
    }
}

/// A simple `d`-regular graph on `n` nodes by the pairing model,
/// re-drawn until no pair is a loop or a repeat, every edge at one of
/// `palette`'s capacities.
fn random_regular(rng: &mut StdRng, n: usize, d: usize, palette: &[f64]) -> Graph {
    'draw: loop {
        let mut stubs: Vec<usize> = (0..n * d).map(|i| i / d).collect();
        stubs.shuffle(rng);
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for w in stubs.chunks(2) {
            let pair = (w[0].min(w[1]), w[0].max(w[1]));
            if pair.0 == pair.1 || pairs.contains(&pair) {
                continue 'draw;
            }
            pairs.push(pair);
        }
        let mut g = Graph::new(n);
        for (u, v) in pairs {
            let cap = palette[rng.random_range(0..palette.len())];
            g.add_edge(u, v, cap).unwrap();
        }
        return g;
    }
}

/// A fewest-hop node walk `src → dst` by BFS, ties to the lower node.
fn shortest_walk(g: &Graph, src: usize, dst: usize) -> Vec<usize> {
    let mut prev = vec![usize::MAX; g.node_count()];
    prev[src] = src;
    let mut queue = VecDeque::from([src]);
    while let Some(v) = queue.pop_front() {
        let mut next: Vec<usize> = g.neighbors(v).collect();
        next.sort_unstable();
        for w in next {
            if prev[w] == usize::MAX {
                prev[w] = v;
                queue.push_back(w);
            }
        }
    }
    let mut walk = vec![dst];
    while *walk.last().unwrap() != src {
        walk.push(prev[*walk.last().unwrap()]);
    }
    walk.reverse();
    walk
}

fn arcs_of(net: &CsrNet, walk: &[usize]) -> Vec<usize> {
    walk.windows(2)
        .map(|w| net.arc_between(w[0], w[1]).unwrap())
        .collect()
}

/// Run `seed` of the corpus: an RRG (even seeds) or a directed line
/// (odd), 1–3 line rates, queue 1–8, offered load η 0.5–2.0.
fn corpus_run(seed: u64) -> (CsrNet, Vec<FlowSpec>, SimConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let palette = &[1.0, 2.5, 0.7][..rng.random_range(1..=3)];
    let slowest = palette.iter().copied().fold(f64::INFINITY, f64::min);
    let eta = rng.random_range(0.5..2.0);
    let rate = |rng: &mut StdRng| eta * slowest * rng.random_range(0.3..0.8);
    let (net, flows) = if seed.is_multiple_of(2) {
        let n = rng.random_range(8..=14) & !1;
        let g = random_regular(&mut rng, n, 3, palette);
        let net = CsrNet::from_graph(&g);
        let flows = (0..rng.random_range(3..=8))
            .map(|_| {
                let src = rng.random_range(0..n);
                let dst = (src + rng.random_range(1..n)) % n;
                let mut walks = vec![shortest_walk(&g, src, dst)];
                // detours through a random node, where they are simple
                for _ in 0..rng.random_range(0..=2) {
                    let mid = rng.random_range(0..n);
                    let mut walk = shortest_walk(&g, src, mid);
                    walk.extend(&shortest_walk(&g, mid, dst)[1..]);
                    let mut nodes = walk.clone();
                    nodes.sort_unstable();
                    nodes.dedup();
                    if nodes.len() == walk.len() && !walks.contains(&walk) {
                        walks.push(walk);
                    }
                }
                let paths = walks
                    .iter()
                    .map(|walk| PathSpec {
                        arcs: arcs_of(&net, walk),
                        weight: rng.random_range(0.5..2.0),
                    })
                    .collect();
                FlowSpec {
                    src,
                    dst,
                    rate: rate(&mut rng),
                    paths,
                }
            })
            .collect();
        (net, flows)
    } else {
        let n = rng.random_range(3..=7);
        let mut g = Graph::new(n);
        for u in 0..n - 1 {
            let cap = palette[rng.random_range(0..palette.len())];
            g.add_edge(u, u + 1, cap).unwrap();
        }
        let net = CsrNet::from_graph(&g);
        let flows = (0..rng.random_range(2..=5))
            .map(|_| {
                let src = rng.random_range(0..n - 1);
                let dst = rng.random_range(src + 1..n);
                let walk: Vec<usize> = (src..=dst).collect();
                FlowSpec {
                    src,
                    dst,
                    rate: rate(&mut rng),
                    paths: vec![PathSpec {
                        arcs: arcs_of(&net, &walk),
                        weight: 1.0,
                    }],
                }
            })
            .collect();
        (net, flows)
    };
    let cfg = SimConfig {
        mode: TransportMode::Paced,
        duration: 40.0,
        warmup: 5.0,
        queue: rng.random_range(1..=8),
        ..SimConfig::default()
    };
    (net, flows, cfg)
}

const RUNS: u64 = 320;

/// FNV-1a over the model's trace hashes on the whole corpus. The
/// two-event engine's own `simulate` folded to this value before it was
/// replaced, with every `SimResult` field equal to the model's.
const RETIRED_FOLD: u64 = 0x3a2b_0c41_16c9_f2bf;

#[test]
fn one_event_per_arrival_matches_the_two_event_model_where_no_tick_coincides() {
    let (mut tie_free, mut tie_free_drops, mut coincident, mut differed) = (0, 0, 0, 0);
    let mut fold = Fnv1a::default();
    for seed in 0..RUNS {
        let (net, flows, cfg) = corpus_run(seed);
        let now = simulate(&net, &flows, &cfg).unwrap();
        assert_eq!(
            now,
            simulate_with_heap(&net, &flows, &cfg).unwrap(),
            "seed {seed}"
        );
        let (model, census) = Model::build(&net, &flows, &cfg).run();
        fold.write_u64(model.trace_hash);
        let same = (
            now.delivered,
            now.drops,
            now.peak_queue,
            &now.flow_delivered,
        ) == (
            model.delivered,
            model.drops,
            model.peak_queue,
            &model.flow_delivered,
        );
        if census.coincidence {
            coincident += 1;
            differed += u32::from(!same);
            continue;
        }
        assert!(same, "seed {seed}: {now:?}\nmodel {model:?}");
        assert_eq!(
            now.events,
            census.injections + census.non_final_arrivals,
            "seed {seed}"
        );
        tie_free += 1;
        tie_free_drops += u32::from(model.drops > 0);
    }
    println!(
        "two-event model: {RUNS} paced runs, {tie_free} with no same-tick coincidence at a \
         link (all equal, {tie_free_drops} of them shedding), {coincident} with one \
         ({differed} of those differed)"
    );
    assert_eq!(
        fold.finish(),
        RETIRED_FOLD,
        "the model is no longer the retired engine"
    );
    assert!(tie_free >= RUNS / 4, "{tie_free} tie-free runs");
    assert!(tie_free_drops >= 10, "{tie_free_drops} tie-free runs shed");
}
