//! Event schedulers: the calendar queue — the one general-purpose
//! scheduler — and a naive binary heap used as a differential-testing
//! reference.
//!
//! Both implement [`EventScheduler`] and define the same total order:
//! events pop by ascending `(time, seq)`, where `seq` is the insertion
//! sequence number the scheduler assigns internally. Two schedulers fed
//! the same interleaved push/pop trace therefore pop in exactly the
//! same order — the determinism contract the simulator is built on.

use std::collections::BinaryHeap;

/// A deterministic priority queue of timestamped events.
///
/// Ties in `time` break by insertion order (first in, first out), so
/// the pop order is a pure function of the push/pop trace.
pub trait EventScheduler<T> {
    /// Insert `item` scheduled at integer tick `time`.
    fn push(&mut self, time: u64, item: T);
    /// Remove and return the earliest event, ties by insertion order.
    fn pop(&mut self) -> Option<(u64, T)>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Number of buckets in a calendar epoch. Power of two.
const NUM_BUCKETS: usize = 512;

/// Widest bucket, as a shift: `NUM_BUCKETS << MAX_SHIFT` is 2^63, the
/// largest epoch span a `u64` holds.
const MAX_SHIFT: u32 = 63 - NUM_BUCKETS.trailing_zeros();

/// A calendar-queue scheduler: an epoch of `NUM_BUCKETS` (512) time buckets
/// of width `2^shift` ticks, plus an overflow list for events beyond
/// the epoch.
///
/// Only the *current* bucket is kept sorted (descending, so pop-min is
/// `Vec::pop`); future buckets are append-only and sorted once, when
/// the cursor reaches them. Inserts into the past or the current bucket
/// go into the current bucket by binary search, which preserves the
/// global `(time, seq)` order: an event can only be popped from the
/// current bucket, and everything already popped had a strictly smaller
/// key. When the epoch drains, the overflow list is redistributed into
/// a fresh epoch starting at the minimum pending time.
///
/// With bucket width ≈ the typical event horizon / `NUM_BUCKETS`,
/// push and pop are O(1) amortised and allocation-free in steady state.
///
/// Storage follows the buckets that hold events, not all 512: when the
/// cursor leaves a drained bucket, its buffer goes to a spare list, and
/// a push or a rollover into a bucket with no buffer takes one from
/// there. Only the backing buffer changes hands, never an event, so
/// the pop order is untouched.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// `(time, seq, item)`; only `buckets[cur]` is sorted (descending).
    /// Every bucket but `buckets[cur]` that owns a buffer holds events.
    buckets: Vec<Vec<(u64, u64, T)>>,
    /// Empty buffers of drained buckets, for the next bucket that needs
    /// one.
    spare: Vec<Vec<(u64, u64, T)>>,
    /// log2 of the bucket width in ticks.
    shift: u32,
    /// Start tick of the current epoch; aligned to the epoch span.
    base: u64,
    /// Index of the current bucket.
    cur: usize,
    /// Events at `time >= base + span`, redistributed on rollover.
    overflow: Vec<(u64, u64, T)>,
    /// Next insertion sequence number (the tiebreaker).
    seq: u64,
    /// Total pending events.
    len: usize,
}

impl<T> CalendarQueue<T> {
    /// Create a queue tuned for events roughly `width_hint` ticks
    /// apart: the bucket width is the largest power of two ≤ the hint
    /// (minimum 1), clamped so an epoch's span still fits a `u64`.
    pub fn with_width_hint(width_hint: u64) -> Self {
        let shift = (63 - width_hint.max(1).leading_zeros()).min(MAX_SHIFT);
        CalendarQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            shift,
            base: 0,
            cur: 0,
            overflow: Vec::new(),
            seq: 0,
            len: 0,
        }
    }

    /// Ticks covered by one epoch.
    #[inline]
    fn span(&self) -> u64 {
        (NUM_BUCKETS as u64) << self.shift
    }

    /// Sort a bucket descending by `(time, seq)` so pop-min is
    /// `Vec::pop`.
    fn sort_desc(v: &mut [(u64, u64, T)]) {
        v.sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
    }

    /// Bucket `idx`, handed a spare buffer first if it owns none.
    fn bucket(&mut self, idx: usize) -> &mut Vec<(u64, u64, T)> {
        let v = &mut self.buckets[idx];
        if v.capacity() == 0 {
            if let Some(buffer) = self.spare.pop() {
                *v = buffer;
            }
        }
        v
    }

    /// Insert into the (sorted) current bucket preserving descending
    /// order.
    fn insert_current(&mut self, entry: (u64, u64, T)) {
        let key = (entry.0, entry.1);
        let v = self.bucket(self.cur);
        let pos = v.partition_point(|e| (e.0, e.1) > key);
        v.insert(pos, entry);
    }

    /// Start a new epoch at the minimum overflow time and redistribute
    /// the overflow list into it.
    fn rollover(&mut self) {
        debug_assert!(!self.overflow.is_empty());
        let min_t = self.overflow.iter().map(|e| e.0).min().unwrap();
        let span = self.span();
        self.base = min_t & !(span - 1);
        self.cur = ((min_t - self.base) >> self.shift) as usize;
        let pending = std::mem::take(&mut self.overflow);
        for (t, s, item) in pending {
            // offsets, not `base + span`: the last epoch ends at 2^64
            if t - self.base >= span {
                self.overflow.push((t, s, item));
            } else {
                let idx = ((t - self.base) >> self.shift) as usize;
                self.bucket(idx).push((t, s, item));
            }
        }
        Self::sort_desc(&mut self.buckets[self.cur]);
    }

    /// Move the cursor to the bucket holding the earliest pending event
    /// (sorting it on arrival), sparing each drained bucket's buffer on
    /// the way; `false` when nothing is pending.
    fn advance(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        while self.buckets[self.cur].is_empty() {
            let drained = std::mem::take(&mut self.buckets[self.cur]);
            if drained.capacity() > 0 {
                self.spare.push(drained);
            }
            match (self.cur + 1..NUM_BUCKETS).find(|&i| !self.buckets[i].is_empty()) {
                Some(next) => {
                    self.cur = next;
                    Self::sort_desc(&mut self.buckets[next]);
                }
                None => self.rollover(),
            }
        }
        true
    }
}

impl<T> EventScheduler<T> for CalendarQueue<T> {
    fn push(&mut self, time: u64, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        // past-of-epoch inserts (time < base) can only happen when the
        // epoch was re-based by a rollover; they are still in the
        // future of everything popped, so the current bucket is correct
        let idx = if time < self.base {
            0
        } else if time - self.base >= self.span() {
            self.overflow.push((time, seq, item));
            return;
        } else {
            ((time - self.base) >> self.shift) as usize
        };
        if idx <= self.cur {
            self.insert_current((time, seq, item));
        } else {
            self.bucket(idx).push((time, seq, item));
        }
    }

    fn pop(&mut self) -> Option<(u64, T)> {
        if !self.advance() {
            return None;
        }
        let (t, _, item) = self.buckets[self.cur].pop()?;
        self.len -= 1;
        Some((t, item))
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Heap entry ordered by `(time, seq)` ascending; the payload does not
/// participate in the ordering.
struct HeapEntry<T> {
    time: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // reversed: BinaryHeap is a max-heap, we want pop-min
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Reference scheduler: a plain [`BinaryHeap`] over `(time, seq)`.
///
/// Semantically identical to [`CalendarQueue`]; exists as the oracle
/// the differential tests compare it against.
#[derive(Default)]
pub struct HeapScheduler<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    seq: u64,
}

impl<T> HeapScheduler<T> {
    /// Create an empty heap scheduler.
    pub fn new() -> Self {
        HeapScheduler {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> EventScheduler<T> for HeapScheduler<T> {
    fn push(&mut self, time: u64, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapEntry { time, seq, item });
    }

    fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|e| (e.time, e.item))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = CalendarQueue::with_width_hint(4);
        q.push(10, 'a');
        q.push(5, 'b');
        q.push(10, 'c');
        q.push(5, 'd');
        q.push(0, 'e');
        assert_eq!(q.pop(), Some((0, 'e')));
        assert_eq!(q.pop(), Some((5, 'b')));
        assert_eq!(q.pop(), Some((5, 'd')));
        assert_eq!(q.pop(), Some((10, 'a')));
        assert_eq!(q.pop(), Some((10, 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_rollover_preserves_order() {
        // width hint 1 → span = 512 ticks, so these all overflow
        let mut q = CalendarQueue::with_width_hint(1);
        q.push(100_000, 1u32);
        q.push(50_000, 2);
        q.push(999_999, 3);
        assert_eq!(q.pop(), Some((50_000, 2)));
        // push into the re-based epoch after a rollover
        q.push(60_000, 4);
        assert_eq!(q.pop(), Some((60_000, 4)));
        assert_eq!(q.pop(), Some((100_000, 1)));
        assert_eq!(q.pop(), Some((999_999, 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn push_into_past_of_current_bucket() {
        let mut q = CalendarQueue::with_width_hint(8);
        q.push(100, 'x');
        assert_eq!(q.pop(), Some((100, 'x')));
        // cursor now sits past bucket 0; a "late" insert at a smaller
        // bucket index must still pop next
        q.push(101, 'y');
        q.push(3, 'z'); // earlier bucket than cur — goes to current
        assert_eq!(q.pop(), Some((3, 'z')));
        assert_eq!(q.pop(), Some((101, 'y')));
    }

    /// A periodic source workload: 128 events pending at all times, each
    /// re-armed 1–16 ticks after it pops, on one-tick buckets (a 512-tick
    /// epoch). The pending set slides through every bucket of 100 epochs
    /// and rolls over at the end of each. A queue that keeps each
    /// bucket's high-water mark ends up retaining 16,416 entries for 128
    /// events; recycled, the buffers follow the ~16 buckets that hold
    /// events at once (576 entries).
    #[test]
    fn drained_buckets_recycle_their_buffers() {
        let mut q = CalendarQueue::with_width_hint(1);
        assert_eq!(q.span(), 512);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut delay = || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            1 + (x >> 60)
        };
        for i in 0..128u32 {
            q.push(delay(), i);
        }
        let (mut base, mut rollovers, mut peak, mut retained) = (q.base, 0, 0, 0);
        for step in 0u64.. {
            let (t, i) = q.pop().unwrap();
            q.push(t + delay(), i);
            peak = peak.max(q.len());
            if q.base != base {
                (base, rollovers) = (q.base, rollovers + 1);
            }
            if step % 16 == 0 {
                for (idx, b) in q.buckets.iter().enumerate() {
                    assert!(
                        idx == q.cur || b.is_empty() == (b.capacity() == 0),
                        "bucket {idx} idles on a buffer"
                    );
                }
                let held: usize = q.buckets.iter().chain(&q.spare).map(Vec::capacity).sum();
                retained = retained.max(held);
            }
            if rollovers == 100 {
                break;
            }
        }
        assert_eq!(peak, 128);
        assert!(
            retained <= 8 * peak,
            "{retained} entries retained for {peak} pending"
        );
    }
}
