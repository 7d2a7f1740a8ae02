//! The deterministic discrete-event simulator.
//!
//! A [`World`] owns a set of [`Node`]s, the [`LinkTable`] connecting them,
//! a virtual clock and an event queue. Event execution is fully
//! deterministic: events run in `(time, insertion sequence)` order, link
//! jitter comes from per-link [`SplitMix64`] generators forked off one world
//! seed, and no iteration order of any hash map ever influences behaviour.
//!
//! The queue is two sorted structures with one order. A link delivery due
//! no earlier than the newest entry of a FIFO *lane* is appended there;
//! everything else — timers, external injections, a jittered delivery that
//! would undercut the lane's back — goes to a binary heap. Each step pops
//! the smaller `(time, seq)` of the lane's front and the heap's top, so the
//! pop order is exactly that of one heap holding every event. With
//! constant link latencies most deliveries take the lane: an append and a
//! pop-front instead of two sift operations.

use crate::link::{IdHash, LinkConfig, LinkTable};
use crate::metrics::NetMetrics;
use crate::node::{Action, Ctx, Node, NodeId, Payload, TimerId};
use crate::rng::SplitMix64;
use rebeca_core::SimTime;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::fmt;

enum Event<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Timer { node: NodeId, id: TimerId, tag: u64 },
}

struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    event: Event<M>,
}

impl<M> Scheduled<M> {
    /// The total order events run in; `seq` is unique.
    fn key(&self) -> (SimTime, u64) {
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
struct EventQueue<M> {
    /// Sorted by construction: only events no earlier than the back, with
    /// a larger `seq` than any before them, are appended.
    lane: VecDeque<Scheduled<M>>,
    heap: BinaryHeap<Scheduled<M>>,
    /// Tests' reference queue: every event goes to the heap.
    #[cfg(test)]
    heap_only: bool,
}

impl<M> EventQueue<M> {
    fn new() -> Self {
        EventQueue {
            lane: VecDeque::new(),
            heap: BinaryHeap::new(),
            #[cfg(test)]
            heap_only: false,
        }
    }

    fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// Queues an event that may go in the lane. `s.seq` must exceed every
    /// queued `seq`, which the world's counter guarantees.
    fn push_in_order(&mut self, s: Scheduled<M>) {
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

    fn push(&mut self, s: Scheduled<M>) {
        self.heap.push(s);
    }

    /// Whether the next event comes from the lane rather than the heap.
    fn lane_first(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => l.key() < h.key(),
            (l, _) => l.is_some(),
        }
    }

    fn peek_at(&self) -> Option<SimTime> {
        if self.lane_first() {
            self.lane.front().map(|s| s.at)
        } else {
            self.heap.peek().map(|s| s.at)
        }
    }

    fn pop(&mut self) -> Option<Scheduled<M>> {
        if self.lane_first() {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        }
    }
}

/// The deterministic discrete-event world.
///
/// ```
/// use rebeca_core::{SimDuration, SimTime};
/// use rebeca_net::{Ctx, LinkConfig, Node, NodeId, Payload, World};
///
/// #[derive(Debug)]
/// struct Ping(u32);
/// impl Payload for Ping {
///     fn wire_size(&self) -> usize { 4 }
/// }
///
/// #[derive(Default)]
/// struct Counter { seen: u32 }
/// impl Node<Ping> for Counter {
///     fn on_message(&mut self, _ctx: &mut Ctx<'_, Ping>, _from: NodeId, msg: Ping) {
///         self.seen += msg.0;
///     }
///     fn as_any(&self) -> &dyn std::any::Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// }
///
/// let mut world = World::new(42);
/// let a = world.add_node(Box::new(Counter::default()));
/// let b = world.add_node(Box::new(Counter::default()));
/// world.connect(a, b, LinkConfig::default());
/// world.send_external(b, Ping(5));
/// world.run_until(SimTime::from_secs(1));
/// assert_eq!(world.node_as::<Counter>(b).unwrap().seen, 5);
/// ```
pub struct World<M: Payload> {
    time: SimTime,
    seq: u64,
    queue: EventQueue<M>,
    /// The `(at, seq)` of the last event run: each pop must exceed it.
    #[cfg(debug_assertions)]
    last_run: Option<(SimTime, u64)>,
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    links: LinkTable,
    metrics: NetMetrics,
    rng: SplitMix64,
    /// The handlers' action buffer, emptied and reused across dispatches.
    actions: Vec<Action<M>>,
    next_timer: u64,
    /// Timer ids scheduled and not yet fired. Cancellation is only recorded
    /// for ids in this set, so `cancelled` can never accumulate ids whose
    /// timers already fired (or were never scheduled).
    pending_timers: HashSet<u64, IdHash>,
    cancelled: HashSet<u64, IdHash>,
    started: bool,
}

impl<M: Payload> fmt::Debug for World<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("time", &self.time)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("pending", &self.queue.len())
            .finish()
    }
}

impl<M: Payload> World<M> {
    /// Creates an empty world; `seed` drives all link jitter.
    pub fn new(seed: u64) -> Self {
        World {
            time: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            #[cfg(debug_assertions)]
            last_run: None,
            nodes: Vec::new(),
            links: LinkTable::default(),
            metrics: NetMetrics::new(),
            rng: SplitMix64::new(seed),
            actions: Vec::new(),
            next_timer: 0,
            pending_timers: HashSet::default(),
            cancelled: HashSet::default(),
            started: false,
        }
    }

    /// Adds a node, returning its identifier. Nodes added after the world
    /// has started receive their `on_start` callback immediately.
    pub fn add_node(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(Some(node));
        if self.started {
            self.dispatch(id, |node, ctx| node.on_start(ctx));
        }
        id
    }

    /// Installs a bidirectional link between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if either node does not exist.
    pub fn connect(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        assert!(
            (a.raw() as usize) < self.nodes.len() && (b.raw() as usize) < self.nodes.len(),
            "connect: unknown node"
        );
        self.links.insert(a, b, &cfg, &mut self.rng, self.time);
    }

    /// Marks a link up or down (both directions). Messages sent over a down
    /// link are dropped and counted; messages already in flight still
    /// arrive. Returns `false` if no such link exists.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) -> bool {
        self.links.set_up(a, b, up)
    }

    /// Removes a link entirely. Retires the FIFO floors of the removed
    /// directions (so a later re-insert cannot overtake in-flight traffic)
    /// and prunes floors whose time has already passed — long-running
    /// worlds with heavy handover churn stay bounded by the links removed
    /// *recently*, not by every node pair ever torn down.
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) {
        self.links.remove(a, b, self.time);
        self.links.prune_retired(self.time);
    }

    /// Retired FIFO floors currently remembered for removed links
    /// (diagnostics; bounded by floors still in the future).
    pub fn retired_floor_count(&self) -> usize {
        self.links.retired_count()
    }

    /// Returns `true` if the directed link exists and is up.
    pub fn link_up(&self, from: NodeId, to: NodeId) -> bool {
        self.links.is_up(from, to)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Traffic metrics accumulated so far.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Timers scheduled and not yet fired (diagnostics).
    pub fn pending_timer_count(&self) -> usize {
        self.pending_timers.len()
    }

    /// Cancellations whose timer event has not popped yet. Bounded by
    /// [`World::pending_timer_count`] — cancelling fired or unknown timers
    /// never grows this set.
    pub fn cancelled_timer_count(&self) -> usize {
        self.cancelled.len()
    }

    /// Injects a message into `to` as if it arrived from outside the world
    /// (source [`NodeId::EXTERNAL`]), delivered at the current time.
    pub fn send_external(&mut self, to: NodeId, msg: M) {
        self.send_external_at(to, msg, self.time);
    }

    /// Injects an external message at an absolute future time — used to
    /// pre-schedule workloads.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past.
    pub fn send_external_at(&mut self, to: NodeId, msg: M, at: SimTime) {
        assert!(at >= self.time, "cannot schedule into the past");
        let seq = self.next_seq();
        self.queue.push(Scheduled {
            at,
            seq,
            event: Event::Deliver { from: NodeId::EXTERNAL, to, msg },
        });
    }

    /// Downcasts a node to its concrete type for inspection.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.nodes.get(id.raw() as usize)?.as_ref()?.as_any().downcast_ref::<T>()
    }

    /// Mutable downcast of a node.
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes.get_mut(id.raw() as usize)?.as_mut()?.as_any_mut().downcast_mut::<T>()
    }

    /// Runs `on_start` on all nodes that have not been started yet. Called
    /// automatically by the run methods.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.dispatch(NodeId::new(i as u32), |node, ctx| node.on_start(ctx));
        }
    }

    // hot-path: begin
    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start();
        let Some(s) = self.queue.pop() else {
            return false;
        };
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.last_run.is_none_or(|last| s.key() > last),
                "events out of (at, seq) order: {:?} after {:?}",
                s.key(),
                self.last_run
            );
            self.last_run = Some(s.key());
        }
        self.time = s.at;
        match s.event {
            Event::Deliver { from, to, msg } => {
                if (to.raw() as usize) < self.nodes.len() {
                    self.metrics.record_delivery();
                    self.dispatch(to, |node, ctx| node.on_message(ctx, from, msg));
                }
            }
            Event::Timer { node, id, tag } => {
                self.pending_timers.remove(&id.0);
                if !self.cancelled.remove(&id.0) && (node.raw() as usize) < self.nodes.len() {
                    self.dispatch(node, |n, ctx| n.on_timer(ctx, id, tag));
                }
            }
        }
        true
    }
    // hot-path: end

    /// Runs all events scheduled up to and including `deadline`; the clock
    /// ends at `deadline` even if the queue drains earlier.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start();
        while self.queue.peek_at().is_some_and(|at| at <= deadline) {
            self.step();
        }
        if self.time < deadline {
            self.time = deadline;
        }
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    // hot-path: begin
    /// Core dispatch: takes the node out, runs the handler with a context,
    /// puts it back and applies the emitted actions.
    fn dispatch(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node<M>, &mut Ctx<'_, M>)) {
        let idx = id.raw() as usize;
        let Some(slot) = self.nodes.get_mut(idx) else {
            return;
        };
        let Some(mut node) = slot.take() else {
            return;
        };
        let links = &self.links;
        let link_up = move |from: NodeId, to: NodeId| links.is_up(from, to);
        let mut ctx = Ctx {
            now: self.time,
            me: id,
            actions: std::mem::take(&mut self.actions),
            next_timer: &mut self.next_timer,
            link_up: &link_up,
        };
        f(node.as_mut(), &mut ctx);
        let mut actions = ctx.actions;
        self.nodes[idx] = Some(node);
        self.apply(id, &mut actions);
        self.actions = actions;
    }

    /// Applies and drains `actions`, leaving the buffer's capacity.
    fn apply(&mut self, from: NodeId, actions: &mut Vec<Action<M>>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    let now = self.time;
                    match self.links.get_mut(from, to) {
                        Some(link) if link.up => {
                            let delay = link.latency.sample(&mut link.rng);
                            let mut at = now + delay;
                            // FIFO: never deliver before an earlier send on
                            // the same directed link.
                            if at < link.fifo_floor {
                                at = link.fifo_floor;
                            }
                            link.fifo_floor = at;
                            self.metrics.record_send(msg.kind(), msg.wire_size());
                            let seq = self.next_seq();
                            self.queue.push_in_order(Scheduled {
                                at,
                                seq,
                                event: Event::Deliver { from, to, msg },
                            });
                        }
                        _ => self.metrics.record_drop(),
                    }
                }
                Action::SetTimer { at, id, tag } => {
                    self.pending_timers.insert(id.0);
                    let seq = self.next_seq();
                    self.queue.push(Scheduled {
                        at,
                        seq,
                        event: Event::Timer { node: from, id, tag },
                    });
                }
                Action::CancelTimer(id) => {
                    // Cancelling an already-fired (or never-set, or
                    // already-cancelled) timer must not grow the set: only
                    // genuinely pending timers are recorded, and the entry
                    // is consumed when the cancelled timer pops.
                    if self.pending_timers.remove(&id.0) {
                        self.cancelled.insert(id.0);
                    }
                }
            }
        }
    }
    // hot-path: end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LatencyModel;
    use crate::metrics::Counters;
    use rebeca_core::SimDuration;
    use std::any::Any;

    /// Test payload: (sequence number, payload byte count).
    #[derive(Debug, Clone)]
    struct TestMsg {
        seq: u64,
        size: usize,
    }

    impl Payload for TestMsg {
        fn wire_size(&self) -> usize {
            self.size
        }
        fn kind(&self) -> &'static str {
            "test"
        }
    }

    /// Records every delivery; optionally echoes to a peer.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, NodeId, u64)>,
        echo_to: Option<NodeId>,
        timer_fired: Vec<u64>,
    }

    impl Node<TestMsg> for Recorder {
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, from: NodeId, msg: TestMsg) {
            self.seen.push((ctx.now(), from, msg.seq));
            if let Some(to) = self.echo_to {
                ctx.send(to, TestMsg { seq: msg.seq + 1000, size: msg.size });
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TestMsg>, _id: TimerId, tag: u64) {
            self.timer_fired.push(tag);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sets two timers on start (cancelling the second) and chains a third
    /// from the first; records every firing with its time.
    #[derive(Default)]
    struct TimerNode {
        fired: Vec<(SimTime, u64)>,
    }
    impl Node<TestMsg> for TimerNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            let _keep = ctx.set_timer(SimDuration::from_millis(5), 1);
            let cancel = ctx.set_timer(SimDuration::from_millis(10), 2);
            ctx.cancel_timer(cancel);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: NodeId, _: TestMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _id: TimerId, tag: u64) {
            self.fired.push((ctx.now(), tag));
            if tag == 1 {
                ctx.set_timer(SimDuration::from_millis(1), 3);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_node_world(cfg: LinkConfig) -> (World<TestMsg>, NodeId, NodeId) {
        let mut w = World::new(7);
        let a = w.add_node(Box::new(Recorder::default()));
        let b = w.add_node(Box::new(Recorder::default()));
        w.connect(a, b, cfg);
        (w, a, b)
    }

    #[test]
    fn external_injection_and_delivery() {
        let (mut w, _a, b) = two_node_world(LinkConfig::default());
        w.send_external(b, TestMsg { seq: 1, size: 10 });
        w.run_until(SimTime::from_secs(1));
        let r = w.node_as::<Recorder>(b).unwrap();
        assert_eq!(r.seen.len(), 1);
        assert_eq!(r.seen[0].1, NodeId::EXTERNAL);
        assert_eq!(r.seen[0].2, 1);
        assert_eq!(w.metrics().delivered(), 1);
    }

    #[test]
    fn latency_is_applied() {
        let (mut w, a, b) = two_node_world(LinkConfig::constant(SimDuration::from_millis(4)));
        // a echoes to b.
        w.node_as_mut::<Recorder>(a).unwrap().echo_to = Some(b);
        w.send_external_at(a, TestMsg { seq: 1, size: 1 }, SimTime::from_millis(10));
        w.run_until(SimTime::from_secs(1));
        let r = w.node_as::<Recorder>(b).unwrap();
        assert_eq!(r.seen.len(), 1);
        assert_eq!(r.seen[0].0, SimTime::from_millis(14));
    }

    #[test]
    fn fifo_preserved_under_jitter() {
        let cfg = LinkConfig {
            latency: LatencyModel::Uniform {
                min: SimDuration::from_micros(10),
                max: SimDuration::from_millis(50),
            },
            up: true,
        };
        let (mut w, a, b) = two_node_world(cfg);
        w.node_as_mut::<Recorder>(a).unwrap().echo_to = Some(b);
        for i in 0..200 {
            w.send_external_at(a, TestMsg { seq: i, size: 1 }, SimTime::from_micros(i * 7));
        }
        w.run_until(SimTime::from_secs(10));
        let r = w.node_as::<Recorder>(b).unwrap();
        assert_eq!(r.seen.len(), 200);
        let seqs: Vec<u64> = r.seen.iter().map(|(_, _, s)| *s - 1000).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "FIFO violated on jittered link");
    }

    #[test]
    fn down_links_drop_and_count() {
        let (mut w, a, b) = two_node_world(LinkConfig::default());
        w.node_as_mut::<Recorder>(a).unwrap().echo_to = Some(b);
        w.set_link_up(a, b, false);
        w.send_external(a, TestMsg { seq: 1, size: 1 });
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node_as::<Recorder>(b).unwrap().seen.len(), 0);
        assert_eq!(w.metrics().dropped(), 1);
        // Bring it back up: traffic flows again.
        w.set_link_up(a, b, true);
        w.send_external(a, TestMsg { seq: 2, size: 1 });
        w.run_until(SimTime::from_secs(2));
        assert_eq!(w.node_as::<Recorder>(b).unwrap().seen.len(), 1);
    }

    #[test]
    fn sends_without_any_link_drop() {
        let mut w = World::new(1);
        let a =
            w.add_node(Box::new(Recorder { echo_to: Some(NodeId::new(9)), ..Default::default() }));
        w.send_external(a, TestMsg { seq: 1, size: 1 });
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.metrics().dropped(), 1);
    }

    #[test]
    fn timers_fire_and_cancel() {
        let mut w: World<TestMsg> = World::new(3);
        let t = w.add_node(Box::new(TimerNode::default()));
        w.run_until(SimTime::from_secs(1));
        let fired = &w.node_as::<TimerNode>(t).unwrap().fired;
        assert_eq!(
            fired,
            &vec![(SimTime::from_millis(5), 1), (SimTime::from_millis(6), 3),],
            "tag 1 fires, tag 2 cancelled, tag 3 chained"
        );
        assert_eq!(w.pending_timer_count(), 0, "all timers popped");
        assert_eq!(w.cancelled_timer_count(), 0, "cancellation consumed by its pop");
    }

    /// Cancels its start timer only when poked — after the timer has long
    /// fired — and then cancels it again for good measure.
    #[derive(Default)]
    struct LateCanceller {
        armed: Option<TimerId>,
        fired: u32,
    }
    impl Node<TestMsg> for LateCanceller {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            self.armed = Some(ctx.set_timer(SimDuration::from_millis(1), 1));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _: NodeId, _: TestMsg) {
            let id = self.armed.expect("armed at start");
            ctx.cancel_timer(id); // cancel-after-fire
            ctx.cancel_timer(id); // double cancel
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, TestMsg>, _: TimerId, _: u64) {
            self.fired += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn cancel_after_fire_does_not_leak() {
        let mut w: World<TestMsg> = World::new(0);
        let n = w.add_node(Box::new(LateCanceller::default()));
        w.run_until(SimTime::from_millis(10));
        assert_eq!(w.node_as::<LateCanceller>(n).unwrap().fired, 1);
        assert_eq!(w.pending_timer_count(), 0);
        // The timer already fired: cancelling it (twice) must not insert
        // anything that no future pop will ever remove.
        w.send_external(n, TestMsg { seq: 0, size: 0 });
        w.run_until(SimTime::from_millis(20));
        assert_eq!(w.cancelled_timer_count(), 0, "cancel-after-fire leaked");
        assert_eq!(w.pending_timer_count(), 0);
    }

    #[test]
    fn fifo_preserved_across_link_reestablishment() {
        let (mut w, a, b) = two_node_world(LinkConfig::constant(SimDuration::from_millis(50)));
        w.node_as_mut::<Recorder>(a).unwrap().echo_to = Some(b);
        // First message echoes onto the a→b link at t=0, due at t=50ms.
        w.send_external_at(a, TestMsg { seq: 0, size: 1 }, SimTime::ZERO);
        w.run_until(SimTime::from_millis(1));
        // Handover: the link is torn down and re-created — much faster —
        // while the first message is still in flight.
        w.remove_link(a, b);
        w.connect(a, b, LinkConfig::constant(SimDuration::from_millis(1)));
        w.send_external_at(a, TestMsg { seq: 1, size: 1 }, SimTime::from_millis(2));
        w.run_until(SimTime::from_secs(1));
        let r = w.node_as::<Recorder>(b).unwrap();
        assert_eq!(r.seen.len(), 2);
        let seqs: Vec<u64> = r.seen.iter().map(|(_, _, s)| *s - 1000).collect();
        assert_eq!(seqs, vec![0, 1], "re-created link overtook in-flight traffic");
        assert_eq!(
            r.seen[1].0,
            SimTime::from_millis(50),
            "second message held back to the old incarnation's FIFO floor"
        );
    }

    /// Pruning retired FIFO floors never reorders in-flight traffic: while
    /// a removed link still has a message in the air its floor survives
    /// every prune, and only after the floor time has passed does the
    /// entry disappear.
    #[test]
    fn floor_pruning_never_reorders_in_flight_traffic() {
        let (mut w, a, b) = two_node_world(LinkConfig::constant(SimDuration::from_millis(50)));
        w.node_as_mut::<Recorder>(a).unwrap().echo_to = Some(b);
        w.send_external_at(a, TestMsg { seq: 0, size: 1 }, SimTime::ZERO);
        w.run_until(SimTime::from_millis(1));
        // Tear the link down with the echo still in flight (due t=50ms).
        w.remove_link(a, b);
        assert_eq!(w.retired_floor_count(), 1, "a→b floor (50 ms) retired");
        // Unrelated link churn before the floor passes must not prune it.
        let c = w.add_node(Box::new(Recorder::default()));
        w.connect(a, c, LinkConfig::default());
        w.remove_link(a, c);
        assert_eq!(w.retired_floor_count(), 1, "future floor survives pruning");
        // Re-create the pair much faster; FIFO must still hold.
        w.connect(a, b, LinkConfig::constant(SimDuration::from_millis(1)));
        w.send_external_at(a, TestMsg { seq: 1, size: 1 }, SimTime::from_millis(2));
        w.run_until(SimTime::from_secs(1));
        let r = w.node_as::<Recorder>(b).unwrap();
        let seqs: Vec<u64> = r.seen.iter().map(|(_, _, s)| *s - 1000).collect();
        assert_eq!(seqs, vec![0, 1], "pruning reordered in-flight traffic");
        // The floor time passed long ago: the next link op sweeps it.
        w.remove_link(a, b);
        w.connect(a, b, LinkConfig::default());
        w.remove_link(a, b);
        assert_eq!(w.retired_floor_count(), 0, "passed floors pruned");
    }

    #[test]
    fn recorder_timers_observable() {
        struct Arm;
        impl Node<TestMsg> for Arm {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.set_timer(SimDuration::from_millis(1), 7);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: NodeId, _: TestMsg) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w: World<TestMsg> = World::new(0);
        let a = w.add_node(Box::new(Recorder::default()));
        let _b = w.add_node(Box::new(Arm));
        w.run_until(SimTime::from_millis(2));
        // Arm's timer fired (nothing observable on Recorder) — the point is
        // the run terminates and the clock advanced deterministically.
        assert_eq!(w.now(), SimTime::from_millis(2));
        assert!(w.node_as::<Recorder>(a).unwrap().timer_fired.is_empty());
    }

    #[test]
    fn metrics_account_bytes_per_kind() {
        let (mut w, a, b) = two_node_world(LinkConfig::default());
        w.node_as_mut::<Recorder>(a).unwrap().echo_to = Some(b);
        w.send_external(a, TestMsg { seq: 0, size: 123 });
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.metrics().kind("test"), Counters { msgs: 1, bytes: 123 });
        assert_eq!(w.metrics().total_msgs(), 1);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        fn run(seed: u64) -> Vec<(SimTime, u64)> {
            let cfg =
                LinkConfig::jittered(SimDuration::from_micros(5), SimDuration::from_millis(20));
            let mut w = World::new(seed);
            let a = w.add_node(Box::new(Recorder::default()));
            let b = w.add_node(Box::new(Recorder::default()));
            w.connect(a, b, cfg);
            w.node_as_mut::<Recorder>(a).unwrap().echo_to = Some(b);
            for i in 0..50 {
                w.send_external_at(a, TestMsg { seq: i, size: 1 }, SimTime::from_micros(i * 11));
            }
            w.run_until(SimTime::from_secs(5));
            w.node_as::<Recorder>(b).unwrap().seen.iter().map(|(t, _, s)| (*t, *s)).collect()
        }
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should produce different jitter");
    }

    #[test]
    fn late_added_nodes_get_started() {
        struct Starter {
            started: bool,
        }
        impl Node<TestMsg> for Starter {
            fn on_start(&mut self, _: &mut Ctx<'_, TestMsg>) {
                self.started = true;
            }
            fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: NodeId, _: TestMsg) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w: World<TestMsg> = World::new(0);
        w.start();
        let id = w.add_node(Box::new(Starter { started: false }));
        assert!(w.node_as::<Starter>(id).unwrap().started);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn connect_unknown_node_panics() {
        let mut w: World<TestMsg> = World::new(0);
        let a = w.add_node(Box::new(Recorder::default()));
        w.connect(a, NodeId::new(5), LinkConfig::default());
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let (mut w, a, _b) = two_node_world(LinkConfig::default());
        w.send_external_at(a, TestMsg { seq: 0, size: 0 }, SimTime::from_secs(10));
        w.run_until(SimTime::from_secs(20));
        w.send_external_at(a, TestMsg { seq: 1, size: 0 }, SimTime::from_secs(5));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use rebeca_core::SimDuration;
    use std::any::Any;
    use std::collections::{BTreeMap, BTreeSet};

    /// A message with a world-unique id, its sender's per-link sequence
    /// number and the hops it may still travel.
    #[derive(Debug)]
    struct Hop {
        id: u64,
        link_seq: u64,
        ttl: u32,
    }

    impl Payload for Hop {
        fn wire_size(&self) -> usize {
            16
        }
    }

    /// One handled event, as its node saw it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Seen {
        Msg { at: SimTime, from: NodeId, id: u64, link_seq: u64 },
        Timer { at: SimTime, tag: u64 },
    }

    /// Forwards each message to a random peer while its ttl lasts, sets
    /// timers at offsets that often coincide with a delivery instant, and
    /// cancels random earlier timers, some of them already fired.
    struct Mixer {
        me: u64,
        rng: SplitMix64,
        peers: Vec<NodeId>,
        next: u64,
        link_seq: BTreeMap<NodeId, u64>,
        log: Vec<Seen>,
        sent: Vec<u64>,
        /// Every timer set: id, tag, due instant.
        timers: Vec<(TimerId, u64, SimTime)>,
        fired: BTreeSet<u64>,
        /// Tags cancelled before they fired: these must never fire.
        cancelled: BTreeSet<u64>,
    }

    impl Mixer {
        fn new(me: u64, seed: u64, peers: Vec<NodeId>) -> Self {
            Mixer {
                me,
                rng: SplitMix64::new(seed ^ me.wrapping_mul(0x9e37_79b9)),
                peers,
                next: 0,
                link_seq: BTreeMap::new(),
                log: Vec::new(),
                sent: Vec::new(),
                timers: Vec::new(),
                fired: BTreeSet::new(),
                cancelled: BTreeSet::new(),
            }
        }

        fn fresh(&mut self) -> u64 {
            self.next += 1;
            self.me << 32 | self.next
        }

        fn forward(&mut self, ctx: &mut Ctx<'_, Hop>, ttl: u32) {
            let to = self.peers[self.rng.next_below(self.peers.len() as u64) as usize];
            if !ctx.link_up(to) {
                return;
            }
            let id = self.fresh();
            let seq = self.link_seq.entry(to).or_insert(0);
            *seq += 1;
            ctx.send(to, Hop { id, link_seq: *seq, ttl });
            self.sent.push(id);
        }
    }

    impl Node<Hop> for Mixer {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Hop>, from: NodeId, msg: Hop) {
            self.log.push(Seen::Msg { at: ctx.now(), from, id: msg.id, link_seq: msg.link_seq });
            if msg.ttl == 0 {
                return;
            }
            for _ in 0..=self.rng.next_below(2) {
                self.forward(ctx, msg.ttl - 1);
            }
            if self.rng.next_below(2) == 0 {
                let after = [0, 500, 1_000, 2_000][self.rng.next_below(4) as usize];
                let tag = self.fresh();
                let id = ctx.set_timer(SimDuration::from_micros(after), tag);
                self.timers.push((id, tag, ctx.now() + SimDuration::from_micros(after)));
            }
            if !self.timers.is_empty() && self.rng.next_below(3) == 0 {
                let (id, tag, _) =
                    self.timers[self.rng.next_below(self.timers.len() as u64) as usize];
                if !self.fired.contains(&tag) {
                    self.cancelled.insert(tag);
                }
                ctx.cancel_timer(id);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Hop>, _id: TimerId, tag: u64) {
            self.log.push(Seen::Timer { at: ctx.now(), tag });
            assert!(self.fired.insert(tag), "timer {tag:#x} fired twice");
            if self.rng.next_below(2) == 0 {
                self.forward(ctx, 0);
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    const NODES: u32 = 4;

    /// Latency of link kind `k`: constant 1 ms or 2 ms, or jitter that
    /// often undercuts the lane's back.
    fn link(k: u32) -> LinkConfig {
        match k % 3 {
            0 => LinkConfig::default(),
            1 => LinkConfig::constant(SimDuration::from_millis(2)),
            _ => LinkConfig::jittered(SimDuration::from_micros(10), SimDuration::from_millis(3)),
        }
    }

    /// Runs one seeded plan on a full mesh; returns every node's log.
    fn run(
        seed: u64,
        kinds: &[u32],
        externals: &[(u32, u64, u32)],
        cut_ms: u64,
        heap_only: bool,
    ) -> Vec<Vec<Seen>> {
        let mut w: World<Hop> = World::new(seed);
        w.queue.heap_only = heap_only;
        for me in 0..NODES {
            let peers = (0..NODES).filter(|&p| p != me).map(NodeId::new).collect();
            w.add_node(Box::new(Mixer::new(u64::from(me), seed, peers)));
        }
        let mut k = kinds.iter().cycle();
        for a in 0..NODES {
            for b in a + 1..NODES {
                w.connect(NodeId::new(a), NodeId::new(b), link(*k.next().expect("cycled")));
            }
        }
        let mut ext = Vec::new();
        for (i, &(to, at_us, ttl)) in externals.iter().enumerate() {
            let id = 1 << 40 | i as u64;
            w.send_external_at(
                NodeId::new(to % NODES),
                Hop { id, link_seq: 0, ttl },
                SimTime::from_micros(at_us),
            );
            ext.push(id);
        }
        // Handover with messages in flight: 0–1 goes away for a while and
        // comes back with another latency.
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        w.run_until(SimTime::from_millis(cut_ms));
        w.remove_link(a, b);
        w.run_until(SimTime::from_millis(cut_ms + 2));
        w.connect(a, b, link(kinds[0] + 1));
        w.run_until(SimTime::from_secs(10));
        assert_eq!(w.queue.len(), 0, "the run drains");
        assert_eq!(w.metrics().dropped(), 0, "senders check the link first");

        let mixers: Vec<&Mixer> =
            (0..NODES).map(|i| w.node_as::<Mixer>(NodeId::new(i)).expect("mixer")).collect();
        // Every message sent is handled exactly once.
        let mut sent: Vec<u64> = mixers.iter().flat_map(|m| m.sent.iter().copied()).collect();
        sent.extend(ext);
        sent.sort_unstable();
        let mut got: Vec<u64> = mixers
            .iter()
            .flat_map(|m| &m.log)
            .filter_map(|s| match s {
                Seen::Msg { id, .. } => Some(*id),
                Seen::Timer { .. } => None,
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, sent, "a message was lost or handled twice");
        assert_eq!(w.metrics().delivered(), sent.len() as u64);
        for m in &mixers {
            // Every timer not cancelled before its instant fires, on time.
            let due: BTreeMap<u64, SimTime> = m
                .timers
                .iter()
                .filter(|(_, tag, _)| !m.cancelled.contains(tag))
                .map(|&(_, tag, at)| (tag, at))
                .collect();
            let fired: BTreeMap<u64, SimTime> = m
                .log
                .iter()
                .filter_map(|s| match s {
                    Seen::Timer { at, tag } => Some((*tag, *at)),
                    Seen::Msg { .. } => None,
                })
                .collect();
            assert_eq!(fired, due, "node {}: timers fired wrongly", m.me);
            // FIFO per link, and the clock never runs backwards.
            let mut last: BTreeMap<NodeId, u64> = BTreeMap::new();
            let mut clock = SimTime::ZERO;
            for s in &m.log {
                let (Seen::Msg { at, .. } | Seen::Timer { at, .. }) = s;
                assert!(*at >= clock, "node {}: time went backwards", m.me);
                clock = *at;
                if let Seen::Msg { from, link_seq, .. } = s {
                    if !from.is_external() {
                        let prev = last.insert(*from, *link_seq).unwrap_or(0);
                        assert_eq!(*link_seq, prev + 1, "node {}: FIFO broken from {from}", m.me);
                    }
                }
            }
        }
        mixers.iter().map(|m| m.log.clone()).collect()
    }

    proptest! {
        /// The lane plus the heap run every event once, keep FIFO per link
        /// across a remove and re-connect, are reproducible, and pop in
        /// exactly the order of one heap holding everything.
        #[test]
        fn lane_and_heap_pop_in_heap_order(
            seed in 0u64..1_000_000,
            kinds in proptest::collection::vec(0u32..3, 6..7),
            externals in proptest::collection::vec((0u32..NODES, 0u64..20_000, 1u32..6), 1..40),
            cut_ms in 1u64..15,
        ) {
            let once = run(seed, &kinds, &externals, cut_ms, false);
            prop_assert_eq!(&once, &run(seed, &kinds, &externals, cut_ms, false));
            prop_assert_eq!(&once, &run(seed, &kinds, &externals, cut_ms, true));
        }
    }
}
