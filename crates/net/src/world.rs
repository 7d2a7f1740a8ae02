//! The deterministic discrete-event simulator.
//!
//! A [`World`] owns a set of [`Node`]s, the links connecting them, a
//! virtual clock and an event queue. Event execution is fully
//! deterministic: events run in `(time, insertion sequence)` order, each
//! link has one constant latency per direction ([`LinkConfig`]), nothing
//! is drawn at random, and no iteration order of any hash map ever
//! influences behaviour.
//!
//! Events wait in the `EventQueue` the live runtime's event loop orders
//! its events with too: a link delivery due no earlier than the newest
//! entry of a FIFO lane is appended there, everything else goes to a heap,
//! and pops follow one `(time, seq)` order.

use crate::event_queue::{Event, EventQueue};
use crate::link::{LinkConfig, LinkTable};
use crate::metrics::NetMetrics;
use crate::node::{Action, Ctx, Node, NodeId, Payload};
use rebeca_core::SimTime;
use std::fmt;

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
/// let mut world = World::new();
/// let a = world.add_node(Box::new(Counter::default()));
/// let b = world.add_node(Box::new(Counter::default()));
/// world.connect(a, b, LinkConfig::default());
/// world.send_external(b, Ping(5));
/// world.run_until(SimTime::from_secs(1));
/// assert_eq!(world.node_as::<Counter>(b).unwrap().seen, 5);
/// ```
pub struct World<M: Payload> {
    time: SimTime,
    queue: EventQueue<M>,
    /// The `(at, seq)` of the last event run: each pop must exceed it.
    #[cfg(debug_assertions)]
    last_run: Option<(SimTime, u64)>,
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    links: LinkTable,
    metrics: NetMetrics,
    /// The handlers' action buffer, emptied and reused across dispatches.
    actions: Vec<Action<M>>,
    next_timer: u64,
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

impl<M: Payload> Default for World<M> {
    fn default() -> Self {
        World::new()
    }
}

impl<M: Payload> World<M> {
    /// Creates an empty world.
    pub fn new() -> Self {
        World {
            time: SimTime::ZERO,
            queue: EventQueue::new(),
            #[cfg(debug_assertions)]
            last_run: None,
            nodes: Vec::new(),
            links: LinkTable::default(),
            metrics: NetMetrics::new(),
            actions: Vec::new(),
            next_timer: 0,
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

    /// Installs a bidirectional link between two nodes, up. Connecting a
    /// linked pair again reconfigures the link in place: it comes up with
    /// the new latency, and a delivery sent after the reconfiguration never
    /// arrives before one already in flight on the same direction.
    ///
    /// # Panics
    ///
    /// Panics if either node does not exist.
    pub fn connect(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        assert!(
            (a.raw() as usize) < self.nodes.len() && (b.raw() as usize) < self.nodes.len(),
            "connect: unknown node"
        );
        self.links.insert(a, b, &cfg, self.time);
    }

    /// Marks a link up or down (both directions). Messages sent over a down
    /// link are dropped and counted; messages already in flight still
    /// arrive. Returns `false` if no such link exists.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) -> bool {
        self.links.set_up(a, b, up)
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
        self.queue.pending_timer_count()
    }

    /// Cancellations whose timer event has not popped yet. Bounded by
    /// [`World::pending_timer_count`] — cancelling fired or unknown timers
    /// never grows this set.
    pub fn cancelled_timer_count(&self) -> usize {
        self.queue.cancelled_timer_count()
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
        self.queue.inject(at, NodeId::EXTERNAL, to, msg);
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
                if self.queue.timer_fires(id) && (node.raw() as usize) < self.nodes.len() {
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
                            // FIFO: never deliver before an earlier send on
                            // the same directed link.
                            let at = (now + link.latency).max(link.fifo_floor);
                            link.fifo_floor = at;
                            self.metrics.record_send(msg.kind(), msg.wire_size());
                            self.queue.deliver(at, from, to, msg);
                        }
                        _ => self.metrics.record_drop(),
                    }
                }
                Action::SetTimer { at, id, tag } => self.queue.set_timer(at, from, id, tag),
                Action::CancelTimer(id) => self.queue.cancel_timer(id),
            }
        }
    }
    // hot-path: end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Counters;
    use crate::node::TimerId;
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
        let mut w = World::new();
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

    /// Sends one message to each of its targets, in order, per message.
    struct Fan(Vec<NodeId>);
    impl Node<TestMsg> for Fan {
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _: NodeId, msg: TestMsg) {
            for &to in &self.0 {
                ctx.send(to, msg.clone());
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn faster_link_undercuts_the_lane_through_the_heap() {
        let mut w = World::new();
        let (slow, fast) = (NodeId::new(1), NodeId::new(2));
        let a = w.add_node(Box::new(Fan(vec![slow, fast])));
        w.add_node(Box::new(Recorder::default()));
        w.add_node(Box::new(Recorder::default()));
        w.connect(a, slow, LinkConfig::constant(SimDuration::from_millis(2)));
        w.connect(a, fast, LinkConfig::constant(SimDuration::from_micros(50)));
        w.send_external(a, TestMsg { seq: 1, size: 1 });
        assert!(w.step(), "the injection runs");
        // The 2 ms delivery opened the lane; the 50 µs one, sent after it
        // but due before it, cannot join the lane's back.
        assert_eq!((w.queue.lane.len(), w.queue.heap.len()), (1, 1));
        assert!(w.step());
        assert_eq!(w.now(), SimTime::from_micros(50), "the heap's earlier delivery pops first");
        assert_eq!(w.node_as::<Recorder>(fast).unwrap().seen.len(), 1);
        assert!(w.node_as::<Recorder>(slow).unwrap().seen.is_empty());
        assert!(w.step());
        assert_eq!(w.now(), SimTime::from_millis(2));
        assert_eq!(w.node_as::<Recorder>(slow).unwrap().seen.len(), 1);
        assert!(!w.step(), "both deliveries ran once");
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
        let mut w = World::new();
        let a =
            w.add_node(Box::new(Recorder { echo_to: Some(NodeId::new(9)), ..Default::default() }));
        w.send_external(a, TestMsg { seq: 1, size: 1 });
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.metrics().dropped(), 1);
    }

    #[test]
    fn timers_fire_and_cancel() {
        let mut w: World<TestMsg> = World::new();
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
        let mut w: World<TestMsg> = World::new();
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
    fn fifo_preserved_across_link_reconfiguration() {
        let (mut w, a, b) = two_node_world(LinkConfig::constant(SimDuration::from_millis(50)));
        w.node_as_mut::<Recorder>(a).unwrap().echo_to = Some(b);
        // First message echoes onto the a→b link at t=0, due at t=50ms.
        w.send_external_at(a, TestMsg { seq: 0, size: 1 }, SimTime::ZERO);
        w.run_until(SimTime::from_millis(1));
        // The link goes down and is reconfigured in place — much faster —
        // while the first message is still in flight.
        w.set_link_up(a, b, false);
        w.connect(a, b, LinkConfig::constant(SimDuration::from_millis(1)));
        w.send_external_at(a, TestMsg { seq: 1, size: 1 }, SimTime::from_millis(2));
        w.run_until(SimTime::from_secs(1));
        let r = w.node_as::<Recorder>(b).unwrap();
        assert_eq!(r.seen.len(), 2);
        let seqs: Vec<u64> = r.seen.iter().map(|(_, _, s)| *s - 1000).collect();
        assert_eq!(seqs, vec![0, 1], "reconfigured link overtook in-flight traffic");
        assert_eq!(
            r.seen[1].0,
            SimTime::from_millis(50),
            "second message held back to the FIFO floor of the in-flight one"
        );
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
        let mut w: World<TestMsg> = World::new();
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
    fn identical_runs() {
        fn run() -> Vec<(SimTime, u64)> {
            let (mut w, a, b) = two_node_world(LinkConfig::constant(SimDuration::from_micros(5)));
            w.node_as_mut::<Recorder>(a).unwrap().echo_to = Some(b);
            for i in 0..50 {
                w.send_external_at(a, TestMsg { seq: i, size: 1 }, SimTime::from_micros(i * 11));
            }
            w.run_until(SimTime::from_secs(5));
            w.node_as::<Recorder>(b).unwrap().seen.iter().map(|(t, _, s)| (*t, *s)).collect()
        }
        assert_eq!(run(), run());
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
        let mut w: World<TestMsg> = World::new();
        w.start();
        let id = w.add_node(Box::new(Starter { started: false }));
        assert!(w.node_as::<Starter>(id).unwrap().started);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn connect_unknown_node_panics() {
        let mut w: World<TestMsg> = World::new();
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
    use crate::node::TimerId;
    use crate::rng::SplitMix64;
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

    /// Latency of link kind `k`: constant 1 ms, 2 ms, or 50 µs, whose
    /// deliveries often undercut the lane's back.
    fn link(k: u32) -> LinkConfig {
        match k % 3 {
            0 => LinkConfig::default(),
            1 => LinkConfig::constant(SimDuration::from_millis(2)),
            _ => LinkConfig::constant(SimDuration::from_micros(50)),
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
        let mut w: World<Hop> = World::new();
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
        // Messages in flight: 0–1 goes down for a while and comes back,
        // reconfigured in place, with another latency.
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        w.run_until(SimTime::from_millis(cut_ms));
        w.set_link_up(a, b, false);
        // Back within 2 ms: a 2 ms link still has traffic in flight.
        w.run_until(SimTime::from_millis(cut_ms) + SimDuration::from_micros(500));
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
        /// across a link going down and coming back reconfigured, are
        /// reproducible, and pop in exactly the order of one heap holding
        /// everything.
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
