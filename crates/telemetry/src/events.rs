//! A bounded ring buffer of recent notable events — cache evictions, forced
//! full rebuilds, gossip merges. Keeps the last N events; older ones are
//! dropped (counted), so the buffer's footprint is fixed no matter how long
//! a deployment runs.

use std::collections::VecDeque;

/// One structured event.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryEvent {
    /// Simulated/domain time of the event in seconds; `-1.0` when the
    /// emitting call site has no clock (e.g. PDS policy edits).
    pub t_s: f64,
    /// Dot-separated event kind, e.g. `"fcs.full_rebuild"`. Owned (not
    /// `&'static str`) so archived snapshots can be parsed back.
    pub kind: String,
    /// Free-form human-readable detail.
    pub detail: String,
}

/// A bounded FIFO: keeps the newest `cap` items and evicts (and counts)
/// the oldest in O(1). The event ring, the span and provenance stores and
/// the profiler's span ring all keep their history in one.
#[derive(Clone, Debug)]
pub struct Ring<T> {
    cap: usize,
    items: VecDeque<T>,
    dropped: u64,
}

impl<T> Ring<T> {
    /// Create a ring holding at most `cap` items (minimum 1).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            items: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Append an item, evicting the oldest when full.
    pub fn push(&mut self, item: T) {
        if self.items.len() >= self.cap {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    /// The retained items, oldest first.
    pub fn items(&self) -> &VecDeque<T> {
        &self.items
    }

    /// The retained items, oldest first, cloned out.
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.items.iter().cloned().collect()
    }

    /// Items evicted so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Change the capacity (minimum 1). Items beyond a lowered capacity
    /// are not dropped at once; each later push evicts one.
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap.max(1);
    }
}

/// The bounded ring of recent notable events.
pub type EventRing = Ring<TelemetryEvent>;

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: usize) -> TelemetryEvent {
        TelemetryEvent {
            t_s: i as f64,
            kind: "test.event".to_string(),
            detail: format!("event {i}"),
        }
    }

    #[test]
    fn wraparound_keeps_last_n() {
        let mut ring = EventRing::new(4);
        for i in 0..10 {
            ring.push(ev(i));
        }
        let kept = ring.items();
        assert_eq!(kept.len(), 4);
        assert_eq!(kept[0].t_s, 6.0, "oldest retained is event 6");
        assert_eq!(kept[3].t_s, 9.0);
        assert_eq!(ring.dropped(), 6);
    }

    #[test]
    fn under_capacity_drops_nothing() {
        let mut ring = EventRing::new(8);
        ring.push(ev(0));
        ring.push(ev(1));
        assert_eq!(ring.items().len(), 2);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.capacity(), 8);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut ring = EventRing::new(0);
        ring.push(ev(0));
        ring.push(ev(1));
        assert_eq!(ring.items().len(), 1);
        assert_eq!(ring.items()[0].t_s, 1.0);
    }
}
