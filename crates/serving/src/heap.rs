//! A lazily-invalidated priority queue over per-core next-action times —
//! the event queue at the heart of the discrete-event [`drive`](crate::drive)
//! loop and the fleet drivers in `cimtpu-cluster`.
//!
//! Each slot (one per engine core, or per prefill/decode unit in a
//! disaggregated pool) carries an epoch counter. [`ActionHeap::set`]
//! bumps the slot's epoch and pushes a fresh `(time, slot, epoch)` entry;
//! entries whose epoch no longer matches are *stale* and are discarded
//! lazily when they surface at the top ([`ActionHeap::peek`]). This keeps
//! every update `O(log n)` without the `O(n)` decrease-key bookkeeping a
//! strict priority queue would need.
//!
//! # Ordering contract
//!
//! [`peek`](ActionHeap::peek) returns the slot with the minimum scheduled
//! time, breaking ties by the **lowest slot index** — exactly the rule the
//! original linear scan (`t < best` keeps the earlier index) implemented,
//! so a driver ported from the scan to the heap produces bit-identical
//! schedules. Times are ordered by [`f64::total_cmp`] with `-0.0`
//! normalized to `+0.0`, which coincides with the IEEE comparisons the
//! scan used for every non-NaN time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cimtpu_units::Seconds;

/// A simulated time as a totally ordered key: `total_cmp` order with
/// `-0.0` folded into `+0.0`, so it agrees with IEEE `<` on all non-NaN
/// times. Every simulated-time heap keys on it: this queue, the
/// closed-loop client heap in `request.rs`, and the fleet drivers' event
/// queues in `cimtpu-cluster`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey(u64);

impl EventKey {
    /// The key of time `t`.
    pub fn new(t: Seconds) -> Self {
        // `x + 0.0` maps -0.0 to +0.0 and is the identity elsewhere;
        // total_cmp then orders by value. The monotone bit trick (flip
        // the sign bit for non-negative values) turns that order into a
        // plain u64 compare.
        let bits = (t.get() + 0.0).to_bits();
        EventKey(if bits >> 63 == 0 {
            bits | (1 << 63)
        } else {
            !bits
        })
    }
}

/// One slot's authoritative schedule: the epoch stamps heap entries so
/// superseded ones can be recognized and skipped.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    epoch: u64,
    at: Option<Seconds>,
}

/// Binary-heap event queue keyed by each slot's next-action time, with
/// lazy invalidation (see the module docs for the ordering contract).
#[derive(Debug, Default)]
pub struct ActionHeap {
    heap: BinaryHeap<Reverse<(EventKey, usize, u64)>>,
    slots: Vec<Slot>,
}

impl ActionHeap {
    /// An empty queue with `n` slots, none scheduled.
    pub fn new(n: usize) -> Self {
        ActionHeap {
            heap: BinaryHeap::with_capacity(n + 1),
            slots: vec![Slot::default(); n],
        }
    }

    /// Number of slots (scheduled or not).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Reschedules slot `i` to `at` (`None` unschedules it). The previous
    /// entry, if any, becomes stale; an entry equal to the current
    /// schedule is left in place untouched.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, at: Option<Seconds>) {
        let slot = &mut self.slots[i];
        if slot.at == at {
            return; // the live heap entry (if any) already says this
        }
        slot.epoch += 1;
        slot.at = at;
        if let Some(t) = at {
            self.heap.push(Reverse((EventKey::new(t), i, slot.epoch)));
        }
    }

    /// The earliest scheduled `(slot, time)` — minimum time, lowest slot
    /// index on ties — without unscheduling it, or `None` when nothing is
    /// scheduled. Stale entries encountered on the way are discarded.
    pub fn peek(&mut self) -> Option<(usize, Seconds)> {
        while let Some(&Reverse((_, i, epoch))) = self.heap.peek() {
            if self.slots[i].epoch == epoch {
                return Some((i, self.slots[i].at.expect("live entries are scheduled")));
            }
            self.heap.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_time_lowest_index_wins() {
        let mut h = ActionHeap::new(4);
        h.set(2, Some(Seconds::new(5.0)));
        h.set(0, Some(Seconds::new(7.0)));
        h.set(3, Some(Seconds::new(5.0)));
        assert_eq!(h.peek(), Some((2, Seconds::new(5.0))));
        // Tie at 5.0: slot 1 is lower than both 2 and 3.
        h.set(1, Some(Seconds::new(5.0)));
        assert_eq!(h.peek(), Some((1, Seconds::new(5.0))));
    }

    #[test]
    fn stale_entries_are_skipped() {
        let mut h = ActionHeap::new(2);
        h.set(0, Some(Seconds::new(1.0)));
        h.set(1, Some(Seconds::new(2.0)));
        h.set(0, Some(Seconds::new(3.0)));
        assert_eq!(h.peek(), Some((1, Seconds::new(2.0))));
        h.set(1, None);
        assert_eq!(h.peek(), Some((0, Seconds::new(3.0))));
        h.set(0, None);
        assert_eq!(h.peek(), None);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn equal_reschedule_keeps_the_live_entry() {
        let mut h = ActionHeap::new(1);
        h.set(0, Some(Seconds::new(4.0)));
        h.set(0, Some(Seconds::new(4.0)));
        assert_eq!(h.peek(), Some((0, Seconds::new(4.0))));
    }

    #[test]
    fn negative_zero_ties_with_positive_zero() {
        let mut h = ActionHeap::new(2);
        h.set(1, Some(Seconds::new(0.0)));
        h.set(0, Some(Seconds::new(-0.0)));
        // IEEE == holds, so the lowest index must win the tie.
        assert_eq!(h.peek().map(|(i, _)| i), Some(0));
    }

    #[test]
    fn key_order_matches_total_cmp() {
        let ts = [0.0, -0.0, 1.0, 1.5, f64::MAX, 1e-300];
        for &a in &ts {
            for &b in &ts {
                let (ka, kb) = (
                    EventKey::new(Seconds::new(a)),
                    EventKey::new(Seconds::new(b)),
                );
                assert_eq!(ka.cmp(&kb), (a + 0.0).total_cmp(&(b + 0.0)), "{a} vs {b}");
            }
        }
    }
}
