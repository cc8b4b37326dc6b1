//! Window-based transport state: a per-path AIMD subflow (coupled
//! across a flow's paths, MPTCP-LIA style, by the engine) and a
//! per-path receiver that deduplicates deliveries.
//!
//! Window mode only: a paced run builds none of it. All state is
//! fixed-size — sequence bitmaps are [`WINDOW_CAP`]-bit rings and the
//! retransmission stack is pre-allocated, about 5.3 KB a path — so
//! transport processing never allocates per packet.

/// Sender/receiver window in packets. Power of two; bounds how far
/// `next_seq` may run ahead of the cumulative ACK, so the bitmaps
/// below can be fixed-size rings.
pub(crate) const WINDOW_CAP: u64 = 512;

/// Congestion-window ceiling in packets. Strictly below [`WINDOW_CAP`]
/// so the flow-control window never binds the bitmap indexing.
pub(crate) const MAX_CWND: f64 = 256.0;

/// A fixed [`WINDOW_CAP`]-bit bitmap indexed by `seq % WINDOW_CAP`.
#[derive(Clone, Copy)]
pub(crate) struct BitRing {
    words: [u64; (WINDOW_CAP / 64) as usize],
}

impl BitRing {
    pub fn new() -> BitRing {
        BitRing {
            words: [0; (WINDOW_CAP / 64) as usize],
        }
    }

    #[inline]
    fn slot(seq: u64) -> (usize, u64) {
        let bit = seq % WINDOW_CAP;
        ((bit / 64) as usize, 1u64 << (bit % 64))
    }

    #[inline]
    pub fn get(&self, seq: u64) -> bool {
        let (w, m) = Self::slot(seq);
        self.words[w] & m != 0
    }

    #[inline]
    pub fn set(&mut self, seq: u64) {
        let (w, m) = Self::slot(seq);
        self.words[w] |= m;
    }

    #[inline]
    pub fn clear(&mut self, seq: u64) {
        let (w, m) = Self::slot(seq);
        self.words[w] &= !m;
    }
}

/// Sender-side state of one subflow (one path of a flow).
pub(crate) struct Subflow {
    /// Congestion window in packets (fractional; floor gates sending).
    pub cwnd: f64,
    /// Next fresh sequence number.
    pub next_seq: u64,
    /// All sequences below this are acknowledged.
    pub cum_acked: u64,
    /// Packets sent, neither acked nor timed out.
    pub inflight: u32,
    /// Acked sequences in `[cum_acked, cum_acked + WINDOW_CAP)`.
    acked: BitRing,
    /// Sequences with a pending timeout (sent, not yet resolved).
    outstanding: BitRing,
    /// LIFO stack of sequences awaiting retransmission.
    rtx: Vec<u64>,
    /// Per-slot send generation; a timeout is valid only for the
    /// latest send of its sequence.
    gens: Vec<u16>,
    /// Duplicate-ACK counter: new ACKs above a stalled cumulative
    /// point. Three trigger a fast retransmission.
    dup: u32,
    /// Sequences below this already fast-retransmitted once.
    fr_mark: u64,
    /// Consecutive unproductive timeouts; scales the RTO exponentially
    /// (reset when the cumulative point advances).
    pub backoff: u32,
}

impl Subflow {
    pub fn new(initial_cwnd: u32) -> Subflow {
        Subflow {
            cwnd: f64::from(initial_cwnd).clamp(1.0, MAX_CWND),
            next_seq: 0,
            cum_acked: 0,
            inflight: 0,
            acked: BitRing::new(),
            outstanding: BitRing::new(),
            rtx: Vec::with_capacity(WINDOW_CAP as usize),
            gens: vec![0; WINDOW_CAP as usize],
            dup: 0,
            fr_mark: 0,
            backoff: 0,
        }
    }

    /// Drop retransmission candidates that were acknowledged after the
    /// timeout queued them (lazy cancelation).
    fn purge_rtx(&mut self) {
        while let Some(&seq) = self.rtx.last() {
            if seq < self.cum_acked || self.acked.get(seq) {
                self.rtx.pop();
            } else {
                break;
            }
        }
    }

    /// Whether the congestion and flow-control windows admit a send.
    pub fn can_send(&mut self) -> bool {
        if u64::from(self.inflight) >= self.cwnd as u64 {
            return false;
        }
        self.purge_rtx();
        !self.rtx.is_empty() || self.next_seq < self.cum_acked + WINDOW_CAP
    }

    /// Claim the next sequence to transmit; the `bool` means it is a
    /// retransmission, the `u16` is the send generation to stamp into
    /// the retransmission timer. Callers must have checked
    /// [`Subflow::can_send`].
    pub fn take_seq(&mut self) -> (u64, bool, u16) {
        self.purge_rtx();
        let (seq, is_rtx) = match self.rtx.pop() {
            Some(seq) => (seq, true),
            None => {
                let seq = self.next_seq;
                self.next_seq += 1;
                (seq, false)
            }
        };
        self.outstanding.set(seq);
        self.inflight += 1;
        let slot = (seq % WINDOW_CAP) as usize;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        (seq, is_rtx, self.gens[slot])
    }

    /// Process an ACK. Returns `true` if it newly acknowledged data
    /// (the engine then applies the coupled window increase). May
    /// queue a fast retransmission (three duplicate ACKs above a
    /// stalled cumulative point halve the window and resend the
    /// missing sequence without waiting for the timer).
    pub fn on_ack(&mut self, seq: u64) -> bool {
        if seq < self.cum_acked || self.acked.get(seq) {
            return false;
        }
        self.acked.set(seq);
        if self.outstanding.get(seq) {
            self.outstanding.clear(seq);
            self.inflight -= 1;
        }
        let before = self.cum_acked;
        while self.acked.get(self.cum_acked) {
            self.acked.clear(self.cum_acked);
            self.cum_acked += 1;
        }
        if self.cum_acked > before {
            self.dup = 0;
            self.backoff = 0;
        } else {
            // the cumulative point is stalled: this ACK is "duplicate"
            // evidence that cum_acked itself was lost
            self.dup += 1;
            let missing = self.cum_acked;
            if self.dup >= 3 && missing >= self.fr_mark && self.outstanding.get(missing) {
                self.outstanding.clear(missing);
                self.inflight -= 1;
                self.cwnd = (self.cwnd / 2.0).max(1.0);
                self.rtx.push(missing);
                self.fr_mark = missing + 1;
                self.dup = 0;
            }
        }
        true
    }

    /// Process a retransmission timeout for send generation `gen`.
    /// Returns `true` if the loss was real (multiplicative decrease
    /// applied, packet queued for retransmission); `false` lazily
    /// cancels a stale timer — acked, already recovered, or
    /// superseded by a newer send of the same sequence.
    pub fn on_timeout(&mut self, seq: u64, gen: u16) -> bool {
        if seq < self.cum_acked
            || self.acked.get(seq)
            || !self.outstanding.get(seq)
            || self.gens[(seq % WINDOW_CAP) as usize] != gen
        {
            return false;
        }
        self.outstanding.clear(seq);
        self.inflight -= 1;
        self.cwnd = (self.cwnd / 2.0).max(1.0);
        self.rtx.push(seq);
        self.backoff = (self.backoff + 1).min(6);
        true
    }
}

/// Receiver-side state of one subflow: cumulative receive point plus a
/// window bitmap, deduplicating late retransmissions.
pub(crate) struct Receiver {
    cum: u64,
    seen: BitRing,
}

impl Receiver {
    pub fn new() -> Receiver {
        Receiver {
            cum: 0,
            seen: BitRing::new(),
        }
    }

    /// Record an arriving sequence; `true` if it is new (goodput).
    pub fn on_packet(&mut self, seq: u64) -> bool {
        if seq < self.cum || self.seen.get(seq) {
            return false;
        }
        self.seen.set(seq);
        while self.seen.get(self.cum) {
            self.seen.clear(self.cum);
            self.cum += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_advances_cumulative_point() {
        let mut sf = Subflow::new(4);
        let (s0, _, _) = sf.take_seq();
        let (s1, _, _) = sf.take_seq();
        let (s2, _, _) = sf.take_seq();
        assert!(sf.on_ack(s1));
        assert_eq!(sf.cum_acked, 0);
        assert!(sf.on_ack(s0));
        assert_eq!(sf.cum_acked, 2);
        assert!(!sf.on_ack(s1), "duplicate ACK is stale");
        assert!(sf.on_ack(s2));
        assert_eq!(sf.cum_acked, 3);
        assert_eq!(sf.inflight, 0);
    }

    #[test]
    fn timeout_then_late_ack_does_not_double_count() {
        let mut sf = Subflow::new(4);
        let (s0, _, g0) = sf.take_seq();
        assert_eq!(sf.inflight, 1);
        assert!(sf.on_timeout(s0, g0));
        assert_eq!(sf.inflight, 0);
        assert!(
            !sf.on_timeout(s0, g0),
            "second firing of the same timer is stale"
        );
        // the retransmission goes out with a fresh timer generation
        let (again, is_rtx, g1) = sf.take_seq();
        assert_eq!(again, s0);
        assert!(is_rtx);
        assert!(
            !sf.on_timeout(s0, g0),
            "superseded-generation timer is stale"
        );
        // the original packet's ACK arrives late: acked once, and the
        // pending retransmission timer lazily cancels
        assert!(sf.on_ack(s0));
        assert_eq!(sf.inflight, 0);
        assert!(!sf.on_timeout(s0, g1), "timer for an acked seq is stale");
    }

    #[test]
    fn receiver_dedups() {
        let mut r = Receiver::new();
        assert!(r.on_packet(0));
        assert!(r.on_packet(2));
        assert!(!r.on_packet(2));
        assert!(r.on_packet(1));
        assert!(!r.on_packet(0));
    }
}
