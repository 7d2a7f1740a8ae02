//! The event loop of the live runtime.
//!
//! [`ProcessRuntime`](crate::ProcessRuntime) drives its local [`Node`]s on
//! event loops, one OS thread each: a set of nodes, one inbox of
//! [`Envelope`]s from outside the loop, one [`EventQueue`] and a shared
//! [`LinkSet`] consulted at send time ("unplugged cable": a send across a
//! down link is silently dropped). The queue's lane holds the deliveries
//! between two nodes of the loop — such a send is a push, not a channel
//! send and a thread wake-up — and its heap holds every node's timers,
//! under one timer-id counter, by wall-clock deadline. Where a send to a
//! node outside the loop goes — another loop's inbox, or a frame onto a
//! peer socket — is the runtime's business, so [`run_loop`] takes that
//! step as a monomorphised closure and the loop itself knows nothing of
//! sockets.
//!
//! An envelope taken out of the inbox joins the lane at once, behind every
//! delivery queued before it was taken. The lane is thus the one order
//! the loop handles messages in, and it keeps causal order: if a handler
//! queues `m1` for a loop-mate and then sends `m2` out of the loop, any
//! reply `m3` that `m2` provokes is taken after `m1` was queued and is
//! handled after it — the order the simulator's constant-latency links
//! give a one-hop delivery and a two-hop one. Each (sender, receiver)
//! pair uses one path only — a loop-mate the lane, anyone else the inbox —
//! and both are FIFO, so messages between two nodes arrive in the order
//! they were sent.
//!
//! Each round moves the inbox's backlog, up to [`INBOX_BATCH`] envelopes,
//! onto the lane and then handles every queue event due at the round's
//! start (lane deliveries and expired timers, in `(at, seq)` order); an
//! idle loop sleeps on its inbox until the next timer's deadline. Taking
//! the backlog in one batch keeps a burst together: a burst of
//! publications from outside becomes a burst of lane deliveries to the
//! border broker, whose frames then reach the link's writer thread
//! together and leave in one coalesced write.
//!
//! Before it handles a delivery that leaves the lane empty, the loop looks
//! one envelope ahead: it takes the inbox's next envelope, if any, onto
//! the lane. Every send the handler makes is told whether the lane was
//! still empty then. Such a send is **quiet**: the loop is about to sleep,
//! so it may as well do the send's work itself. The runtime then writes a
//! frame to the peer socket directly instead of waking the link's writer
//! thread; a send to another loop's inbox ignores the flag. Sends from
//! timers and peer verdicts are never quiet.

use crate::event_queue::{Event, EventQueue};
use crate::node::{Action, Ctx, Node, NodeId, Payload};
use crossbeam::channel::{Receiver, RecvTimeoutError};
use parking_lot::RwLock;
use rebeca_core::SimTime;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What an event loop's inbox carries.
pub(crate) enum Envelope<M> {
    Msg {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    /// Supervisor verdict on a peer process: every node in `nodes` (the
    /// nodes hosted behind one peer link) became unreachable or reachable
    /// again. Each node of the loop gets `on_peer_change` once per entry.
    /// Only the multi-process runtime has a supervisor to send it.
    PeerChange {
        nodes: Arc<Vec<NodeId>>,
        up: bool,
    },
    Stop,
}

/// The directed link pairs of one runtime, shared by all its threads.
#[derive(Debug, Default)]
pub(crate) struct LinkSet {
    pub(crate) up: HashSet<(NodeId, NodeId)>,
    /// Every pair ever connected or flipped — the universe the process
    /// supervisor re-broadcasts to a restarted peer so it converges on our
    /// view.
    pub(crate) known: HashSet<(NodeId, NodeId)>,
}

impl LinkSet {
    /// Marks the bidirectional link `a`–`b` up or down.
    pub(crate) fn set(&mut self, a: NodeId, b: NodeId, up: bool) {
        for pair in [(a, b), (b, a)] {
            self.known.insert(pair);
            if up {
                self.up.insert(pair);
            } else {
                self.up.remove(&pair);
            }
        }
    }
}

/// Idle wait when no timer is pending.
const IDLE_WAIT: Duration = Duration::from_millis(50);

/// Inbox envelopes one round moves onto the lane at most, so that a
/// backlog from outside the loop holds its timers back only so long.
const INBOX_BATCH: usize = 64;

/// One event loop's state between handler invocations.
struct EventLoop<M: Payload, S> {
    /// Indexed by global node id: `Some` for the nodes this loop drives.
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    /// The nodes this loop drives, in id order.
    members: Vec<NodeId>,
    t0: Instant,
    /// The latest reading of the clock: what an envelope taken from the
    /// inbox is stamped with, so that the lane's stamps never decrease.
    clock: SimTime,
    links: Arc<RwLock<LinkSet>>,
    send: S,
    /// Whether the lane was empty behind the event being handled, after
    /// the look-ahead: the flag every send of this invocation carries.
    quiet: bool,
    /// The handlers' action buffer, emptied and reused across invocations:
    /// one commit-apply of a batched `Prepare` emits hundreds of sends.
    actions: Vec<Action<M>>,
    next_timer: u64,
    queue: EventQueue<M>,
}

impl<M: Payload, S: FnMut(NodeId, NodeId, M, bool)> EventLoop<M, S> {
    fn now(&mut self) -> SimTime {
        self.clock = SimTime::from_micros(self.t0.elapsed().as_micros() as u64);
        self.clock
    }

    fn hosts(&self, id: NodeId) -> bool {
        self.nodes.get(id.raw() as usize).is_some_and(Option::is_some)
    }

    /// Takes one envelope out of the inbox: a message joins the lane
    /// behind every delivery queued so far, a peer verdict is handled at
    /// once. False on [`Envelope::Stop`].
    fn take(&mut self, envelope: Envelope<M>) -> bool {
        match envelope {
            Envelope::Msg { from, to, msg } => self.queue.deliver(self.clock, from, to, msg),
            Envelope::PeerChange { nodes, up } => {
                self.quiet = false;
                for i in 0..self.members.len() {
                    let me = self.members[i];
                    for &peer in nodes.iter() {
                        self.invoke(me, |n, ctx| n.on_peer_change(ctx, peer, up));
                    }
                }
            }
            Envelope::Stop => return false,
        }
        true
    }

    /// Runs one handler invocation of node `me` and applies its actions.
    fn invoke(&mut self, me: NodeId, f: impl FnOnce(&mut dyn Node<M>, &mut Ctx<'_, M>)) {
        let now = self.now();
        let Some(Some(node)) = self.nodes.get_mut(me.raw() as usize) else {
            return;
        };
        let links = &self.links;
        let link_up = |a: NodeId, b: NodeId| links.read().up.contains(&(a, b));
        let mut ctx = Ctx {
            now,
            me,
            actions: std::mem::take(&mut self.actions),
            next_timer: &mut self.next_timer,
            link_up: &link_up,
        };
        f(node.as_mut(), &mut ctx);
        let mut actions = ctx.actions;
        for a in actions.drain(..) {
            match a {
                // Send-time link check: a down link silently drops the
                // message, like an unplugged cable.
                Action::Send { to, msg } if link_up(me, to) => {
                    if self.hosts(to) {
                        self.queue.deliver(now, me, to, msg);
                    } else {
                        (self.send)(me, to, msg, self.quiet);
                    }
                }
                Action::Send { .. } => {}
                Action::SetTimer { at, id, tag } => self.queue.set_timer(at, me, id, tag),
                Action::CancelTimer(id) => self.queue.cancel_timer(id),
            }
        }
        self.actions = actions;
    }
}

/// Drives `nodes` (indexed by global id, `None` where another loop or
/// process hosts the node) until an [`Envelope::Stop`] arrives (or every
/// sender is gone) and hands them back. `send(from, to, msg, quiet)`
/// executes a send the link set permitted to a node outside the loop;
/// `quiet` says the loop had nothing else to do (see the module doc).
/// `now` is wall-clock time since `t0`.
pub(crate) fn run_loop<M: Payload>(
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    rx: Receiver<Envelope<M>>,
    links: Arc<RwLock<LinkSet>>,
    t0: Instant,
    send: impl FnMut(NodeId, NodeId, M, bool),
) -> Vec<Option<Box<dyn Node<M>>>> {
    let members: Vec<NodeId> = (0..nodes.len() as u32)
        .map(NodeId::new)
        .filter(|id| nodes[id.raw() as usize].is_some())
        .collect();
    let mut lp = EventLoop {
        nodes,
        members,
        t0,
        clock: SimTime::ZERO,
        links,
        send,
        quiet: false,
        actions: Vec::new(),
        next_timer: 0,
        queue: EventQueue::new(),
    };
    for i in 0..lp.members.len() {
        let me = lp.members[i];
        lp.invoke(me, |n, ctx| n.on_start(ctx));
    }
    loop {
        // The inbox's backlog joins the lane. An empty or disconnected
        // inbox both read as "nothing now"; a disconnect is seen again by
        // the next wait.
        for _ in 0..INBOX_BATCH {
            let Ok(envelope) = rx.try_recv() else { break };
            if !lp.take(envelope) {
                return lp.nodes;
            }
        }
        // Every event due at the round's start, in `(at, seq)` order.
        let now = lp.now();
        let mut busy = false;
        while let Some(s) = lp.queue.pop_due(now) {
            busy = true;
            match s.event {
                Event::Deliver { from, to, msg } => {
                    if lp.queue.lane_is_empty() {
                        if let Ok(envelope) = rx.try_recv() {
                            if !lp.take(envelope) {
                                return lp.nodes;
                            }
                        }
                    }
                    lp.quiet = lp.queue.lane_is_empty();
                    lp.invoke(to, |n, ctx| n.on_message(ctx, from, msg));
                }
                Event::Timer { node, id, tag } => {
                    if lp.queue.timer_fires(id) {
                        lp.quiet = false;
                        lp.invoke(node, |n, ctx| n.on_timer(ctx, id, tag));
                    }
                }
            }
        }
        if busy {
            continue;
        }
        // Nothing was due: wait for the inbox or the next deadline.
        let timeout = lp.queue.peek_at().map_or(IDLE_WAIT, |at| {
            Duration::from_micros(at.as_micros().saturating_sub(now.as_micros()))
        });
        match rx.recv_timeout(timeout) {
            Ok(envelope) => {
                if !lp.take(envelope) {
                    return lp.nodes;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return lp.nodes,
        }
    }
}

#[cfg(all(test, not(rebeca_verify)))]
mod tests {
    use crate::node::{Ctx, Node, NodeId};
    use crate::process_rt::tests::{wait_until, Tick};
    use crate::ProcessRuntime;
    use parking_lot::Mutex;
    use rebeca_core::SimDuration;
    use std::any::Any;
    use std::os::unix::net::UnixStream;
    use std::sync::{mpsc, Arc};
    use std::thread::ThreadId;
    use std::time::Duration;

    #[derive(Debug, Clone, PartialEq)]
    enum Seen {
        Started(ThreadId),
        Msg(NodeId, u64),
        Timer(u64),
        Peer(NodeId, bool),
    }

    /// What every probe saw, `(probe, event)`, in the order it happened.
    type Log = Arc<Mutex<Vec<(NodeId, Seen)>>>;

    /// Logs what happens to it. A message from outside makes it send
    /// `BURST` numbered ticks to `burst_to`; `timers` are set at start,
    /// `(after ms, tag, cancel at once)`.
    struct Probe {
        log: Log,
        burst_to: Option<NodeId>,
        next: u64,
        timers: Vec<(u64, u64, bool)>,
    }

    const BURST: u64 = 16;

    fn probe(log: &Log) -> Box<Probe> {
        Box::new(Probe { log: Arc::clone(log), burst_to: None, next: 0, timers: Vec::new() })
    }

    impl Node<Tick> for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Tick>) {
            self.log.lock().push((ctx.me(), Seen::Started(std::thread::current().id())));
            for &(ms, tag, cancel) in &self.timers {
                let id = ctx.set_timer(SimDuration::from_millis(ms), tag);
                if cancel {
                    ctx.cancel_timer(id);
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Tick>, from: NodeId, msg: Tick) {
            self.log.lock().push((ctx.me(), Seen::Msg(from, msg.0)));
            if let (Some(to), true) = (self.burst_to, from == NodeId::EXTERNAL) {
                for _ in 0..BURST {
                    ctx.send(to, Tick(self.next));
                    self.next += 1;
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Tick>, _: crate::node::TimerId, tag: u64) {
            self.log.lock().push((ctx.me(), Seen::Timer(tag)));
        }
        fn on_peer_change(&mut self, ctx: &mut Ctx<'_, Tick>, peer: NodeId, up: bool) {
            self.log.lock().push((ctx.me(), Seen::Peer(peer, up)));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn seen_by(log: &Log, who: NodeId) -> Vec<Seen> {
        log.lock().iter().filter(|(n, _)| *n == who).map(|(_, s)| s.clone()).collect()
    }

    fn thread_of(log: &Log, who: NodeId) -> ThreadId {
        seen_by(log, who)
            .into_iter()
            .find_map(|s| match s {
                Seen::Started(t) => Some(t),
                _ => None,
            })
            .expect("the probe started")
    }

    /// A node with one link shares the loop thread of the local node at
    /// its other end; two nodes with further links, and a node with no
    /// link, get loops of their own.
    #[test]
    fn a_leaf_shares_its_neighbours_loop_thread() {
        let log = Log::default();
        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let [a, b, c, d, e] = [(); 5].map(|()| rt.add_local(probe(&log)));
        // b and d are leaves; a and c are adjacent, with further links.
        rt.connect(a, b);
        rt.connect(a, c);
        rt.connect(c, d);
        rt.start();
        assert!(wait_until(Duration::from_secs(5), || log.lock().len() == 5));
        rt.stop();
        let t = |n| thread_of(&log, n);
        assert_eq!(t(a), t(b), "b is a's leaf");
        assert_eq!(t(c), t(d), "d is c's leaf");
        assert_ne!(t(a), t(c), "a and c have further links");
        assert_ne!(t(e), t(a), "e has no link");
        assert_ne!(t(e), t(c), "e has no link");
        assert_ne!(t(a), std::thread::current().id());
    }

    /// On a message from outside, sends the same number to `to`, then
    /// tells the test and waits until the test has answered through the
    /// inbox.
    struct Teller {
        to: NodeId,
        told: mpsc::Sender<()>,
        go_on: mpsc::Receiver<()>,
    }

    impl Node<Tick> for Teller {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Tick>, _: NodeId, msg: Tick) {
            ctx.send(self.to, msg);
            let _ = self.told.send(());
            let _ = self.go_on.recv();
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A message from outside that answers a loop-mate's send is handled
    /// after that send's lane delivery, though it reaches the inbox while
    /// the delivery still waits in the lane.
    #[test]
    fn an_answer_from_outside_follows_the_lane_delivery_it_answers() {
        const ROUNDS: u64 = 50;
        let log = Log::default();
        let (told, told_rx) = mpsc::channel();
        let (go_on_tx, go_on) = mpsc::channel();
        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let a = rt.add_local(probe(&log));
        let b = rt.add_local(Box::new(Teller { to: a, told, go_on }));
        rt.connect(a, b);
        rt.start();
        for round in 0..ROUNDS {
            rt.send_external(b, Tick(round));
            told_rx.recv_timeout(Duration::from_secs(5)).expect("b was told");
            rt.send_external(a, Tick(round));
            go_on_tx.send(()).expect("b waits");
        }
        let total = 2 * ROUNDS as usize;
        assert!(wait_until(Duration::from_secs(5), || seen_by(&log, a).len() == total + 1));
        rt.stop();
        let want: Vec<Seen> =
            (0..ROUNDS).flat_map(|r| [Seen::Msg(b, r), Seen::Msg(NodeId::EXTERNAL, r)]).collect();
        assert_eq!(seen_by(&log, a)[1..], want[..], "b's delivery first, then the answer");
    }

    /// A node receiving from a loop-mate (the lane) and from outside (the
    /// inbox) at once sees each sender's messages in the order sent.
    #[test]
    fn fifo_per_sender_holds_across_lane_and_inbox() {
        const ROUNDS: u64 = 200;
        let log = Log::default();
        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let mut sender = probe(&log);
        sender.burst_to = Some(NodeId::new(1));
        let s = rt.add_local(sender);
        let r = rt.add_local(probe(&log));
        rt.connect(s, r);
        rt.start();
        for round in 0..ROUNDS {
            rt.send_external(s, Tick(round));
            rt.send_external(r, Tick(round));
        }
        let total = (ROUNDS * (BURST + 1)) as usize;
        assert!(wait_until(Duration::from_secs(10), || seen_by(&log, r).len() == total + 1));
        rt.stop();
        let got = seen_by(&log, r);
        let from = |who: NodeId| -> Vec<u64> {
            got.iter()
                .filter_map(|e| match e {
                    Seen::Msg(f, v) if *f == who => Some(*v),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(from(s), (0..ROUNDS * BURST).collect::<Vec<_>>(), "the loop-mate's order");
        assert_eq!(from(NodeId::EXTERNAL), (0..ROUNDS).collect::<Vec<_>>(), "the inbox's order");
    }

    /// Two nodes' timers on one loop fire in deadline order, and one
    /// node's cancel never cancels the other's timer.
    #[test]
    fn loop_mates_timers_fire_in_deadline_order() {
        let log = Log::default();
        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let mut first = probe(&log);
        first.timers = vec![(10, 10, false), (50, 50, true), (40, 40, false)];
        let mut second = probe(&log);
        // With a timer-id counter per node, the second node's second timer
        // would share its id with the first node's cancelled one.
        second.timers = vec![(30, 30, false), (20, 20, false)];
        let a = rt.add_local(first);
        let b = rt.add_local(second);
        rt.connect(a, b);
        rt.start();
        let fired = || -> Vec<u64> {
            log.lock()
                .iter()
                .filter_map(|(_, s)| match s {
                    Seen::Timer(tag) => Some(*tag),
                    _ => None,
                })
                .collect()
        };
        assert!(wait_until(Duration::from_secs(5), || fired().len() == 4));
        // Past the cancelled timer's deadline.
        std::thread::sleep(Duration::from_millis(60));
        rt.stop();
        assert_eq!(thread_of(&log, a), thread_of(&log, b));
        assert_eq!(fired(), [10, 20, 30, 40], "deadline order, the cancelled one never");
        assert_eq!(seen_by(&log, b).iter().filter(|s| matches!(s, Seen::Timer(_))).count(), 2);
    }

    /// A dead peer's verdict reaches every local node exactly once,
    /// whichever loop hosts it.
    #[test]
    fn a_peer_down_verdict_reaches_every_node_once() {
        let (local, remote) = UnixStream::pair().expect("socketpair");
        let log = Log::default();
        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let peer = rt.add_peer(local);
        let a = rt.add_local(probe(&log));
        let b = rt.add_local(probe(&log));
        let c = rt.add_local(probe(&log));
        let far = rt.add_remote(peer);
        rt.connect(a, b);
        rt.connect(c, far);
        rt.start();
        drop(remote);
        let verdicts = || log.lock().iter().filter(|(_, s)| matches!(s, Seen::Peer(..))).count();
        assert!(wait_until(Duration::from_secs(5), || verdicts() == 3));
        std::thread::sleep(Duration::from_millis(50));
        rt.stop();
        for n in [a, b, c] {
            let peers: Vec<Seen> =
                seen_by(&log, n).into_iter().filter(|s| matches!(s, Seen::Peer(..))).collect();
            assert_eq!(peers, [Seen::Peer(far, false)], "node {n:?}");
        }
        assert_ne!(thread_of(&log, a), thread_of(&log, c), "two loops were told");
    }
}
