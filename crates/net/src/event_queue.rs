//! The pending events of one event loop and the [`Host`] that runs them,
//! shared by both runtimes: the simulator ([`World`](crate::World)) and
//! the live runtime's event loop order deliveries and timers with this one
//! queue and dispatch them with this one host.
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
//! is skipped when it pops. In a debug build each pop checks that events
//! run in strictly increasing `(at, seq)` order, in both runtimes.
//!
//! The [`Host`] holds the nodes, the queue, the timer-id counter and the
//! handlers' action buffer. It builds each handler's [`Ctx`], runs the
//! handler and applies its actions; where a send goes is the runtime's
//! [`Net`]. What stays per runtime is the clock — the simulator's is the
//! popped event's instant, the live loop's the wall clock — and the round
//! that decides which event runs next and when.

use crate::link::IdHash;
use crate::node::{Action, Ctx, Node, NodeId, Payload, TimerId};
use rebeca_core::SimTime;
use std::collections::{BinaryHeap, HashSet, VecDeque};

enum Event<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Timer { node: NodeId, id: TimerId, tag: u64 },
}

pub(crate) struct Scheduled<M> {
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
    /// The `(at, seq)` of the last event popped: each pop must exceed it.
    #[cfg(debug_assertions)]
    last_run: Option<(SimTime, u64)>,
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
            #[cfg(debug_assertions)]
            last_run: None,
            #[cfg(test)]
            heap_only: false,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
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
    fn set_timer(&mut self, at: SimTime, node: NodeId, id: TimerId, tag: u64) {
        self.pending_timers.insert(id.0);
        let s = self.scheduled(at, Event::Timer { node, id, tag });
        self.heap.push(s);
    }

    /// Cancels timer `id`. Cancelling an already-fired (or never-set, or
    /// already-cancelled) timer must not grow the set: only genuinely
    /// pending timers are recorded, and the entry is consumed when the
    /// cancelled timer pops.
    fn cancel_timer(&mut self, id: TimerId) {
        if self.pending_timers.remove(&id.0) {
            self.cancelled.insert(id.0);
        }
    }

    /// Settles timer `id`, which just popped: true when it fires, false
    /// when it was cancelled.
    fn timer_fires(&mut self, id: TimerId) -> bool {
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

    fn pop(&mut self) -> Option<Scheduled<M>> {
        let s = if self.lane_first() { self.lane.pop_front() } else { self.heap.pop() }?;
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
        Some(s)
    }
}

/// Where a runtime's sends go.
pub(crate) trait Net<M> {
    /// Whether the directed link `from`→`to` is up: what [`Ctx::link_up`]
    /// answers.
    fn link_up(&self, from: NodeId, to: NodeId) -> bool;

    /// Sends `msg` at `now`, checking the link itself: a delivery joins
    /// `queue`, anything else leaves through the runtime.
    fn send(&mut self, queue: &mut EventQueue<M>, now: SimTime, from: NodeId, to: NodeId, msg: M);
}

/// The nodes of one event loop and the events pending for them.
pub(crate) struct Host<M: Payload> {
    /// Indexed by global node id: `Some` for the nodes this host runs.
    pub(crate) nodes: Vec<Option<Box<dyn Node<M>>>>,
    pub(crate) queue: EventQueue<M>,
    /// One timer-id counter for every node, so that one node's cancel never
    /// cancels another's timer.
    next_timer: u64,
    /// The handlers' action buffer, emptied and reused across invocations:
    /// one commit-apply of a batched `Prepare` emits hundreds of sends.
    actions: Vec<Action<M>>,
}

impl<M: Payload> Host<M> {
    pub(crate) fn new(nodes: Vec<Option<Box<dyn Node<M>>>>) -> Self {
        Host { nodes, queue: EventQueue::new(), next_timer: 0, actions: Vec::new() }
    }

    /// Runs `on_start` on every node, in id order, at `now`.
    pub(crate) fn start(&mut self, net: &mut impl Net<M>, now: SimTime) {
        for i in 0..self.nodes.len() {
            self.invoke(net, now, NodeId::new(i as u32), |n, ctx| n.on_start(ctx));
        }
    }

    // hot-path: begin
    /// Runs one handler invocation of node `me` at `now` and applies its
    /// actions in emission order. False when this host does not run `me`.
    pub(crate) fn invoke(
        &mut self,
        net: &mut impl Net<M>,
        now: SimTime,
        me: NodeId,
        f: impl FnOnce(&mut dyn Node<M>, &mut Ctx<'_, M>),
    ) -> bool {
        let Some(Some(node)) = self.nodes.get_mut(me.raw() as usize) else {
            return false;
        };
        let link_up = |from: NodeId, to: NodeId| net.link_up(from, to);
        let mut ctx = Ctx {
            now,
            me,
            actions: std::mem::take(&mut self.actions),
            next_timer: &mut self.next_timer,
            link_up: &link_up,
        };
        f(node.as_mut(), &mut ctx);
        let mut actions = ctx.actions;
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => net.send(&mut self.queue, now, me, to, msg),
                Action::SetTimer { at, id, tag } => self.queue.set_timer(at, me, id, tag),
                Action::CancelTimer(id) => self.queue.cancel_timer(id),
            }
        }
        self.actions = actions;
        true
    }

    /// Pops the next event and runs it at `now`: a delivery goes to its
    /// node's `on_message`, a timer to `on_timer` unless it was cancelled.
    /// True when a node of this host took a delivery.
    pub(crate) fn run(&mut self, net: &mut impl Net<M>, now: SimTime) -> bool {
        match self.queue.pop().map(|s| s.event) {
            Some(Event::Deliver { from, to, msg }) => {
                self.invoke(net, now, to, |n, ctx| n.on_message(ctx, from, msg))
            }
            Some(Event::Timer { node, id, tag }) => {
                if self.queue.timer_fires(id) {
                    self.invoke(net, now, node, |n, ctx| n.on_timer(ctx, id, tag));
                }
                false
            }
            None => false,
        }
    }
    // hot-path: end
}

#[cfg(all(test, not(rebeca_verify)))]
mod tests {
    use crate::node::{Ctx, Node, NodeId, TimerId};
    use crate::process_rt::tests::{wait_until, Tick};
    use crate::{LinkConfig, ProcessRuntime, World};
    use parking_lot::Mutex;
    use rebeca_core::{SimDuration, SimTime};
    use std::any::Any;
    use std::sync::Arc;
    use std::time::Duration;

    #[derive(Debug, Clone, PartialEq)]
    enum Seen {
        Msg(NodeId, u64),
        Timer(u64),
    }

    /// What every probe saw, `(probe, event)`, in the order it happened.
    type Log = Arc<Mutex<Vec<(NodeId, Seen)>>>;

    /// Logs what happens to it. A message from outside makes it, in one
    /// invocation, send across its down link, send to its up neighbour,
    /// and set two timers, cancelling the second.
    struct Probe {
        log: Log,
        down: NodeId,
        up: NodeId,
    }

    impl Node<Tick> for Probe {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Tick>, from: NodeId, msg: Tick) {
            self.log.lock().push((ctx.me(), Seen::Msg(from, msg.0)));
            if from == NodeId::EXTERNAL {
                ctx.send(self.down, Tick(msg.0 + 1));
                ctx.send(self.up, Tick(msg.0 + 2));
                ctx.set_timer(SimDuration::from_millis(1), 1);
                let cancelled = ctx.set_timer(SimDuration::from_millis(2), 2);
                ctx.cancel_timer(cancelled);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Tick>, _: TimerId, tag: u64) {
            self.log.lock().push((ctx.me(), Seen::Timer(tag)));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    const A: NodeId = NodeId::new(0);
    const B: NodeId = NodeId::new(1);
    const C: NodeId = NodeId::new(2);

    /// Three probes: `A` linked to `B` (up) and to `C` (down).
    fn probes(log: &Log) -> [Box<Probe>; 3] {
        [(C, B), (A, A), (A, A)]
            .map(|(down, up)| Box::new(Probe { log: Arc::clone(log), down, up }))
    }

    fn by_node(log: &Log) -> Vec<Vec<Seen>> {
        let log = log.lock();
        [A, B, C]
            .map(|n| log.iter().filter(|(m, _)| *m == n).map(|(_, s)| s.clone()).collect())
            .into()
    }

    /// The simulator and the live loop run the same handler sequence per
    /// node for one invocation that drops a send, makes one, and sets and
    /// cancels timers: both dispatch through one `Host`.
    #[test]
    fn both_runtimes_run_one_invocation_alike() {
        let want = vec![
            vec![Seen::Msg(NodeId::EXTERNAL, 10), Seen::Timer(1)],
            vec![Seen::Msg(A, 12)],
            vec![],
        ];

        let sim_log = Log::default();
        let mut w: World<Tick> = World::new();
        for p in probes(&sim_log) {
            w.add_node(p);
        }
        w.connect(A, B, LinkConfig::default());
        w.connect(A, C, LinkConfig::default());
        w.set_link_up(A, C, false);
        w.send_external(A, Tick(10));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(by_node(&sim_log), want, "the simulator");
        assert_eq!(w.metrics().dropped(), 1, "the send across the down link");
        assert_eq!((w.pending_timer_count(), w.cancelled_timer_count()), (0, 0));

        let live_log = Log::default();
        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        for p in probes(&live_log) {
            rt.add_local(p);
        }
        rt.connect(A, B);
        rt.connect(A, C);
        rt.set_link_up(A, C, false);
        rt.start();
        rt.send_external(A, Tick(10));
        assert!(wait_until(Duration::from_secs(5), || live_log.lock().len() == 3));
        // Past the cancelled timer's deadline.
        std::thread::sleep(Duration::from_millis(20));
        rt.stop();
        assert_eq!(by_node(&live_log), want, "the live loop");
    }
}
