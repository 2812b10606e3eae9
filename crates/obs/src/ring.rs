//! The flight recorder's fixed-capacity event ring.

use vpdift_kernel::SimTime;

use crate::event::ObsEvent;

/// An event with the simulated time it was observed at.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Simulated time (quantum-granular; see [`crate::ObsSink::set_now`]).
    pub time: SimTime,
    /// The event.
    pub event: ObsEvent,
}

/// A fixed-capacity ring buffer keeping the most recent events. Push is
/// O(1); once full, each push evicts the oldest entry.
#[derive(Debug, Clone)]
pub struct EventRing {
    slots: Vec<TimedEvent>,
    capacity: usize,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
    /// Total pushes ever (so callers can tell how much was evicted).
    pushed: u64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events (capacity 0 keeps
    /// nothing).
    pub fn new(capacity: usize) -> Self {
        EventRing { slots: Vec::with_capacity(capacity.min(4096)), capacity, head: 0, pushed: 0 }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total events ever pushed (including evicted ones).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Appends a copy of `event`, observed at `time`, evicting the oldest
    /// entry when full. A zero-capacity ring counts the event without
    /// copying it.
    pub fn push(&mut self, time: SimTime, event: &ObsEvent) {
        self.pushed += 1;
        if self.capacity == 0 {
            return;
        }
        let timed = TimedEvent { time, event: event.clone() };
        if self.slots.len() < self.capacity {
            self.slots.push(timed);
        } else {
            self.slots[self.head] = timed;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
    }

    /// Iterates the retained events oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &TimedEvent> {
        let (newer, older) = self.slots.split_at(self.head);
        older.iter().chain(newer.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(ring: &mut EventRing, pc: u32) {
        ring.push(SimTime::from_ns(pc as u64), &ObsEvent::Trap { pc, cause: 0, irq: false });
    }

    fn pcs(ring: &EventRing) -> Vec<u32> {
        ring.iter()
            .map(|e| match e.event {
                ObsEvent::Trap { pc, .. } => pc,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn keeps_everything_below_capacity() {
        let mut r = EventRing::new(4);
        for pc in 0..3 {
            push(&mut r, pc);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(pcs(&r), vec![0, 1, 2]);
        assert_eq!(r.total_pushed(), 3);
    }

    #[test]
    fn wraparound_keeps_newest_in_order() {
        let mut r = EventRing::new(4);
        for pc in 0..11 {
            push(&mut r, pc);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(pcs(&r), vec![7, 8, 9, 10], "oldest evicted, order preserved");
        assert_eq!(r.total_pushed(), 11);
        // Keep pushing exactly to a wrap boundary.
        push(&mut r, 11);
        assert_eq!(pcs(&r), vec![8, 9, 10, 11]);
    }

    #[test]
    fn zero_capacity_retains_nothing() {
        let mut r = EventRing::new(0);
        push(&mut r, 1);
        assert!(r.is_empty());
        assert_eq!(r.total_pushed(), 1);
    }
}
