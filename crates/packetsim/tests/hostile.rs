//! Inputs that pass validation with tick quantities at or beyond what a
//! `u64` holds. Each used to wrap: a hang in release, an overflow panic
//! in debug, or a silently wrong run. They must now end — with the
//! obvious answer or a typed error — in both profiles
//! (`cargo test` and `cargo test --release`).
//!
//! Every run sits under a wall-clock guard, so a regression fails the
//! test instead of hanging CI.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use dctopo_graph::{CsrNet, Graph};
use dctopo_packetsim::{
    simulate, FlowSpec, PathSpec, SimConfig, SimError, SimResult, TransportMode, TICKS_PER_UNIT,
};

/// A directed line `0 → 1 → … → caps.len()` with the given capacities.
fn line(caps: &[f64]) -> CsrNet {
    let mut g = Graph::new(caps.len() + 1);
    for (u, &cap) in caps.iter().enumerate() {
        g.add_edge(u, u + 1, cap).unwrap();
    }
    CsrNet::from_graph(&g)
}

/// One flow along the whole line, on its single forward path.
fn end_to_end(net: &CsrNet, hops: usize, rate: f64) -> Vec<FlowSpec> {
    vec![FlowSpec {
        src: 0,
        dst: hops,
        rate,
        paths: vec![PathSpec {
            arcs: (0..hops)
                .map(|u| net.arc_between(u, u + 1).unwrap())
                .collect(),
            weight: 1.0,
        }],
    }]
}

/// Run one simulation on its own thread and give it ten seconds — a
/// thousand times what any of these takes.
fn guarded(caps: &'static [f64], rate: f64, cfg: SimConfig) -> Result<SimResult, SimError> {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let net = line(caps);
        let _ = tx.send(simulate(&net, &end_to_end(&net, caps.len(), rate), &cfg));
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("simulate neither returned nor panicked within 10 s")
}

fn paced() -> SimConfig {
    SimConfig {
        mode: TransportMode::Paced,
        duration: 20.0,
        warmup: 2.0,
        ..SimConfig::default()
    }
}

/// `rate: 1e-14` is finite and positive; its injection interval
/// saturates to `u64::MAX` ticks, so `t + interval` wrapped to `t − 1`
/// and the source re-armed itself in the past forever. One packet is
/// all such a flow sends in any run: Inject, TxDone, Arrive.
#[test]
fn vanishing_paced_rate_sends_one_packet() {
    let res = guarded(&[1.0], 1e-14, paced()).unwrap();
    assert_eq!((res.events, res.delivered, res.drops), (3, 0, 0));
}

/// A live arc of capacity `1e-300` serializes a packet in `u64::MAX`
/// ticks: the width hint asked the calendar for a bucket so wide its
/// epoch span was 0, and the `TxDone` wrapped into the past. The
/// packets queue behind a head that never leaves within the run.
#[test]
fn near_dead_link_never_finishes_a_packet() {
    let res = guarded(&[1.0, 1e-300], 0.5, paced()).unwrap();
    assert_eq!(res.delivered, 0);
    // 10 injections, each crossing the first hop (Inject, TxDone,
    // Arrive) into the slow link's queue of 64
    assert_eq!((res.events, res.drops), (30, 0));
}

/// `rto: 1e300` passes `positive()`; as ticks it is `u64::MAX`, and
/// `now + rto` fired every timeout in the past. No timer is due inside
/// the run, so nothing is retransmitted.
#[test]
fn unreachable_rto_never_fires() {
    let cfg = SimConfig {
        duration: 2.0,
        warmup: 0.5,
        queue: 16,
        initial_cwnd: 4,
        rto: 1e300,
        ..SimConfig::default()
    };
    let res = guarded(&[4.0, 4.0], 0.0, cfg).unwrap();
    assert_eq!((res.retransmits, res.drops), (0, 0));
    assert!(res.delivered > 0, "the window still clocks packets out");
    let expected = guarded(&[4.0, 4.0], 0.0, SimConfig { rto: 1e6, ..cfg }).unwrap();
    assert_eq!(res, expected, "any rto past the end is the same run");
}

/// An infinite (or NaN) propagation or ACK delay is not a delay: the
/// typed error, where release used to deliver over the infinite link
/// and NaN read as 0.
#[test]
fn non_finite_delays_are_a_typed_error() {
    for bad in [f64::INFINITY, f64::NAN] {
        for cfg in [
            SimConfig {
                link_delay: bad,
                ..paced()
            },
            SimConfig {
                ack_hop_delay: bad,
                ..paced()
            },
        ] {
            let err = guarded(&[1.0], 0.5, cfg).unwrap_err();
            assert!(matches!(err, SimError::BadConfig(_)), "{bad}: {err}");
        }
    }
}

/// The largest finite delay is accepted and means what it says:
/// packets leave the first link and never arrive.
#[test]
fn astronomical_link_delay_delivers_nothing() {
    let cfg = SimConfig {
        link_delay: f64::MAX,
        ..paced()
    };
    let res = guarded(&[1.0], 0.5, cfg).unwrap();
    // 10 injections, each serialized once: Inject + TxDone
    assert_eq!((res.events, res.delivered, res.drops), (20, 0, 0));
}

/// Queue bounds no link comes near. The queues were one slab of
/// `arcs × queue` packets: `u32::MAX + 1` asked for terabytes and
/// aborted the process, `1 << 60` wrapped the product to an empty slab
/// while `queue as u32` read 0, so every packet dropped. A link queue
/// holds what is queued now, so any bound above the peak is one run.
#[test]
fn queue_bounds_past_the_peak_are_the_same_run() {
    for (mode, rate) in [(TransportMode::Paced, 0.9), (TransportMode::Window, 0.0)] {
        let cfg = |queue| SimConfig {
            mode,
            queue,
            ..paced()
        };
        let reference = guarded(&[1.0, 0.5], rate, cfg(1 << 20)).unwrap();
        assert!(reference.peak_queue > 1, "{mode:?}: {reference:?}");
        assert_eq!(reference.drops, 0, "{mode:?}");
        for queue in [u32::MAX as usize + 1, 1 << 60, usize::MAX] {
            let res = guarded(&[1.0, 0.5], rate, cfg(queue)).unwrap();
            assert_eq!(res, reference, "{mode:?}, queue {queue}");
        }
    }
}

/// `duration: 1e300` saturated the end tick to `u64::MAX`, and paced
/// sources re-arm until the end: the run never returned. An end at or
/// past tick 2^63 is the typed error; a long run that fits is the
/// caller's to ask for.
#[test]
fn duration_past_the_tick_range_is_a_typed_error() {
    let first_too_long = (1u64 << 63) as f64 / TICKS_PER_UNIT as f64;
    for duration in [1e300, f64::MAX, first_too_long] {
        let cfg = SimConfig {
            duration,
            ..paced()
        };
        let err = guarded(&[1.0], 0.5, cfg).unwrap_err();
        assert!(
            matches!(&err, SimError::BadConfig(msg) if msg.contains("duration")),
            "{duration}: {err}"
        );
    }
    // just inside the range: a source with one packet to send ends at once
    let cfg = SimConfig {
        duration: first_too_long * 0.99,
        ..paced()
    };
    let res = guarded(&[1.0], 1e-14, cfg).unwrap();
    assert_eq!((res.events, res.delivered, res.drops), (3, 0, 0));
}
