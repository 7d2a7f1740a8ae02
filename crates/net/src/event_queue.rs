//! The pending events of one event loop, shared by both runtimes: the
//! simulator ([`World`](crate::World)) and the live runtime's event loop
//! order deliveries and timers with this one structure.
//!
//! The queue is two sorted structures with one order. A delivery due no
//! earlier than the newest entry of a FIFO *lane* is appended there;
//! everything else — timers, external injections, a simulated delivery
//! over a faster link that would undercut the lane's back — goes to a
//! binary heap. Each pop takes the smaller `(at, seq)` of the lane's front
//! and the heap's top, so the pop order is exactly that of one heap holding
//! every event. Most deliveries take the lane: an append and a pop-front
//! instead of two sift operations. In the live loop every delivery between
//! two of its nodes is stamped with the wall-clock time it was sent, so
//! all of them take the lane.
//!
//! The queue also keeps the timer bookkeeping: which timer ids are pending
//! and which of those were cancelled. A cancelled timer stays queued and
//! is skipped when it pops.

use crate::link::IdHash;
use crate::node::{NodeId, TimerId};
use rebeca_core::SimTime;
use std::collections::{BinaryHeap, HashSet, VecDeque};

pub(crate) enum Event<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Timer { node: NodeId, id: TimerId, tag: u64 },
}

pub(crate) struct Scheduled<M> {
    pub(crate) at: SimTime,
    seq: u64,
    pub(crate) event: Event<M>,
}

impl<M> Scheduled<M> {
    /// The total order events run in; `seq` is unique.
    pub(crate) fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other.key().cmp(&self.key())
    }
}

/// The pending events: a FIFO lane for in-order appends plus a heap for
/// the rest, popped as one `(at, seq)`-ordered queue.
pub(crate) struct EventQueue<M> {
    /// The next event's `seq`: insertion order breaks ties of `at`.
    seq: u64,
    /// Sorted by construction: only events no earlier than the back, with
    /// a larger `seq` than any before them, are appended.
    pub(crate) lane: VecDeque<Scheduled<M>>,
    pub(crate) heap: BinaryHeap<Scheduled<M>>,
    /// Timer ids scheduled and not yet fired. Cancellation is only recorded
    /// for ids in this set, so `cancelled` can never accumulate ids whose
    /// timers already fired (or were never scheduled).
    pending_timers: HashSet<u64, IdHash>,
    cancelled: HashSet<u64, IdHash>,
    /// Tests' reference queue: every event goes to the heap.
    #[cfg(test)]
    pub(crate) heap_only: bool,
}

impl<M> EventQueue<M> {
    pub(crate) fn new() -> Self {
        EventQueue {
            seq: 0,
            lane: VecDeque::new(),
            heap: BinaryHeap::new(),
            pending_timers: HashSet::default(),
            cancelled: HashSet::default(),
            #[cfg(test)]
            heap_only: false,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// Whether no delivery waits in the lane.
    pub(crate) fn lane_is_empty(&self) -> bool {
        self.lane.is_empty()
    }

    fn scheduled(&mut self, at: SimTime, event: Event<M>) -> Scheduled<M> {
        let seq = self.seq;
        self.seq += 1;
        Scheduled { at, seq, event }
    }

    /// Queues a delivery sent over a link: into the lane when it is due no
    /// earlier than the lane's back, into the heap otherwise.
    pub(crate) fn deliver(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: M) {
        let s = self.scheduled(at, Event::Deliver { from, to, msg });
        #[cfg(test)]
        if self.heap_only {
            return self.heap.push(s);
        }
        if self.lane.back().is_none_or(|back| s.at >= back.at) {
            self.lane.push_back(s);
        } else {
            self.heap.push(s);
        }
    }

    /// Queues a delivery that bypasses the lane (an external injection at
    /// any future time).
    pub(crate) fn inject(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: M) {
        let s = self.scheduled(at, Event::Deliver { from, to, msg });
        self.heap.push(s);
    }

    /// Schedules `node`'s timer `id` to fire at `at`.
    pub(crate) fn set_timer(&mut self, at: SimTime, node: NodeId, id: TimerId, tag: u64) {
        self.pending_timers.insert(id.0);
        let s = self.scheduled(at, Event::Timer { node, id, tag });
        self.heap.push(s);
    }

    /// Cancels timer `id`. Cancelling an already-fired (or never-set, or
    /// already-cancelled) timer must not grow the set: only genuinely
    /// pending timers are recorded, and the entry is consumed when the
    /// cancelled timer pops.
    pub(crate) fn cancel_timer(&mut self, id: TimerId) {
        if self.pending_timers.remove(&id.0) {
            self.cancelled.insert(id.0);
        }
    }

    /// Settles timer `id`, which just popped: true when it fires, false
    /// when it was cancelled.
    pub(crate) fn timer_fires(&mut self, id: TimerId) -> bool {
        self.pending_timers.remove(&id.0);
        !self.cancelled.remove(&id.0)
    }

    /// Timers scheduled and not yet fired.
    pub(crate) fn pending_timer_count(&self) -> usize {
        self.pending_timers.len()
    }

    /// Cancellations whose timer has not popped yet.
    pub(crate) fn cancelled_timer_count(&self) -> usize {
        self.cancelled.len()
    }

    /// Whether the next event comes from the lane rather than the heap.
    fn lane_first(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => l.key() < h.key(),
            (l, _) => l.is_some(),
        }
    }

    /// Whether the next event is the lane's only delivery.
    pub(crate) fn next_is_lone_delivery(&self) -> bool {
        self.lane.len() == 1 && self.lane_first()
    }

    /// When the next event is due.
    pub(crate) fn peek_at(&self) -> Option<SimTime> {
        if self.lane_first() {
            self.lane.front().map(|s| s.at)
        } else {
            self.heap.peek().map(|s| s.at)
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Scheduled<M>> {
        if self.lane_first() {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        }
    }
}
