//! Differential and boundary tests for the simulator's schedulers and
//! drop-tail queues.
//!
//! The calendar queue is the performance-critical piece of the
//! determinism contract: it must realise *exactly* the `(time, seq)`
//! total order the reference binary heap realises, including insertion
//! order on time ties, or trace hashes diverge between the production
//! and reference runs.

use dctopo_graph::Graph;
use dctopo_packetsim::{
    simulate, CalendarQueue, EventScheduler, FlowSpec, HeapScheduler, PathSpec, SimConfig,
    SimError, TransportMode,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// 10⁵ random events — clustered times, heavy ties, interleaved
/// push/pop — pop identically from the calendar queue and the heap.
#[test]
fn calendar_matches_heap_on_random_workload() {
    for seed in [1u64, 7, 42] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cal: CalendarQueue<u32> = CalendarQueue::with_width_hint(64);
        let mut heap: HeapScheduler<u32> = HeapScheduler::new();
        let mut now = 0u64;
        for round in 0..100_000u32 {
            // drift the clock forward so inserts span many buckets and
            // force rollovers; cluster 1/4 of events on identical times
            // to exercise the insertion-order tiebreak
            let t = match round % 4 {
                0 => now,
                1 => now + rng.random_range(0..16),
                2 => now + rng.random_range(0..5_000),
                _ => now + rng.random_range(0..200_000),
            };
            cal.push(t, round);
            heap.push(t, round);
            if rng.random_range(0..3) == 0 {
                let a = cal.pop();
                assert_eq!(a, heap.pop(), "divergence at round {round} (seed {seed})");
                if let Some((t, _)) = a {
                    now = now.max(t);
                }
            }
        }
        while let Some(a) = cal.pop() {
            assert_eq!(Some(a), heap.pop(), "drain divergence (seed {seed})");
        }
        assert!(heap.pop().is_none());
        assert!(cal.is_empty() && heap.is_empty());
    }
}

/// The differential on a workload that keeps draining buckets and
/// refilling others, so pushes land in recycled buffers through both of
/// the calendar's paths. On one-tick buckets (a 512-tick epoch), every
/// round pushes 48 events into the 40 ticks ahead of the clock — into
/// buckets that own no buffer, so each takes one a drained bucket gave
/// up — and parks 8 more 512 to 4,096 ticks ahead, past the epoch. It
/// then pops 52: the parked events come back when their epoch opens,
/// and the rollover that opens it redistributes them into recycled
/// buffers as well.
#[test]
fn calendar_matches_heap_through_recycled_buckets() {
    for seed in [3u64, 11] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cal: CalendarQueue<u32> = CalendarQueue::with_width_hint(1);
        let mut heap: HeapScheduler<u32> = HeapScheduler::new();
        let (mut now, mut item) = (0u64, 0u32);
        for round in 0..400 {
            for i in 0..56 {
                let ahead = if i < 48 {
                    rng.random_range(0..40)
                } else {
                    rng.random_range(512..4_096)
                };
                cal.push(now + ahead, item);
                heap.push(now + ahead, item);
                item += 1;
            }
            for _ in 0..52 {
                let popped = cal.pop();
                assert_eq!(popped, heap.pop(), "round {round} (seed {seed})");
                now = popped.unwrap().0;
            }
        }
        while let Some(popped) = cal.pop() {
            assert_eq!(Some(popped), heap.pop(), "drain (seed {seed})");
        }
        assert!(heap.is_empty());
    }
}

/// Monotone pop order and exact FIFO on ties, checked directly.
#[test]
fn pop_order_is_total_and_fifo_on_ties() {
    let mut cal: CalendarQueue<usize> = CalendarQueue::with_width_hint(8);
    for i in 0..1000 {
        cal.push((i / 10) as u64, i); // 10-way ties at every time
    }
    let mut last = (0u64, 0usize);
    let mut first = true;
    let mut n = 0;
    while let Some((t, item)) = cal.pop() {
        if !first {
            assert!(
                t > last.0 || (t == last.0 && item > last.1),
                "order violated: ({t}, {item}) after {last:?}"
            );
        }
        first = false;
        last = (t, item);
        n += 1;
    }
    assert_eq!(n, 1000);
}

fn two_node_net(capacity: f64) -> dctopo_graph::CsrNet {
    let mut g = Graph::new(2);
    g.add_edge(0, 1, capacity).unwrap();
    dctopo_graph::CsrNet::from_graph(&g)
}

fn one_path_flow(net: &dctopo_graph::CsrNet) -> Vec<FlowSpec> {
    vec![FlowSpec {
        src: 0,
        dst: 1,
        rate: 1.0,
        paths: vec![PathSpec {
            arcs: vec![net.arc_between(0, 1).unwrap()],
            weight: 1.0,
        }],
    }]
}

/// Drop-tail boundary: an initial window burst of exactly `queue`
/// packets fits (zero drops); one more packet overflows by exactly one.
/// The link delay exceeds the duration so no service completes — the
/// queue occupancy is purely the burst.
#[test]
fn queue_exactly_full_versus_one_over() {
    let net = two_node_net(1.0);
    let base = SimConfig {
        mode: TransportMode::Window,
        duration: 0.5,
        warmup: 0.0,
        link_delay: 10.0, // nothing arrives within the run
        ack_hop_delay: 0.01,
        queue: 8,
        initial_cwnd: 8, // burst of exactly queue packets
        rto: 100.0,      // no timeouts within the run
    };
    let fits = simulate(&net, &one_path_flow(&net), &base).unwrap();
    assert_eq!(fits.drops, 0, "a burst of queue size must fit exactly");

    let over = SimConfig {
        initial_cwnd: 9, // one packet beyond the queue
        ..base
    };
    let spills = simulate(&net, &one_path_flow(&net), &over).unwrap();
    assert_eq!(spills.drops, 1, "exactly the overflow packet drops");
}

/// A path over a zero-capacity (failed) link is rejected with the
/// typed error, not a panic or a silent no-op.
#[test]
fn zero_capacity_link_is_a_typed_error() {
    let net = two_node_net(1.0);
    let arc = net.arc_between(0, 1).unwrap();
    let dead = net.with_disabled_arcs(&[arc]).unwrap();
    let flows = vec![FlowSpec {
        src: 0,
        dst: 1,
        rate: 1.0,
        paths: vec![PathSpec {
            arcs: vec![arc],
            weight: 1.0,
        }],
    }];
    let err = simulate(&dead, &flows, &SimConfig::default()).unwrap_err();
    assert_eq!(err, SimError::ZeroCapacityLink { arc });
}

/// A flow from a node to itself is rejected with the typed error.
#[test]
fn self_loop_flow_is_a_typed_error() {
    let net = two_node_net(1.0);
    let flows = vec![FlowSpec {
        src: 0,
        dst: 0,
        rate: 1.0,
        paths: vec![PathSpec {
            arcs: vec![net.arc_between(0, 1).unwrap()],
            weight: 1.0,
        }],
    }];
    let err = simulate(&net, &flows, &SimConfig::default()).unwrap_err();
    assert_eq!(err, SimError::SelfLoopFlow { node: 0 });
}
