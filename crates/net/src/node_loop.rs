//! The event loop of the live runtime.
//!
//! [`ProcessRuntime`](crate::ProcessRuntime) drives its local [`Node`]s on
//! event loops: one inbox of [`Envelope`]s from outside the loop and one
//! [`Host`] — the nodes, their [`EventQueue`] and the dispatch the
//! simulator runs too, which builds each handler's context, runs it and
//! applies its actions. The loop's own are its clock (wall time since the
//! runtime started), its rounds (below) and its [`Net`], which consults a
//! shared [`LinkSet`] at send time ("unplugged cable": a send across a
//! down link is silently dropped). The queue's lane holds the deliveries
//! between two nodes of the loop — such a send is a push, not a channel
//! send and a thread wake-up — and its heap holds every node's timers,
//! under one timer-id counter, by wall-clock deadline. Where a send to a
//! node outside the loop goes — another loop's inbox, or a frame onto a
//! peer socket — is the runtime's business, so the loop takes that step as
//! a monomorphised [`SendStep`] and knows nothing of sockets.
//!
//! An envelope taken out of the inbox joins the lane at once, behind every
//! delivery queued before it was taken. The lane is thus the one order
//! the loop handles messages in, and it keeps causal order: if a handler
//! queues `m1` for a loop-mate and then sends `m2` out of the loop, any
//! reply `m3` that `m2` provokes is taken after `m1` was queued and is
//! handled after it — the order the simulator's constant-latency links
//! give a one-hop delivery and a two-hop one. Each (sender, receiver)
//! pair uses one path only — a loop-mate the lane, anyone else the inbox or
//! a borrowing reader (below) — and each is FIFO, so messages between two
//! nodes arrive in the order they were sent.
//!
//! **One round body, two runners.** A loop's state sits behind its
//! [`LoopToken`]. Its own OS thread holds the token except while it waits
//! on the inbox, and runs rounds: it makes the sends a borrower handed
//! back (below), moves the inbox's backlog, up to [`INBOX_BATCH`]
//! envelopes, onto the lane and then handles every queue event due at the
//! round's start (lane deliveries and expired timers, in `(at, seq)`
//! order); an idle loop sleeps on its inbox until the next timer's
//! deadline, or until an envelope arrives if it has no timer. Taking the
//! backlog in one batch keeps a burst together: a burst of publications
//! from outside becomes a burst of lane deliveries to the border broker,
//! whose frames then reach the link's writer thread together and leave in
//! one coalesced write.
//!
//! A peer link's reader whose read held exactly one frame, for a loop that
//! is parked with nothing posted to its inbox, *borrows* the token instead
//! of posting ([`Loop::deliver`]): it puts the delivery on the lane and
//! runs the same round body on its own thread, saving the loop thread's
//! wake-up. A borrowed round runs only quiet deliveries and stops at the
//! first due event that is not one — a timer, a delivery with another
//! behind it, anything posted meanwhile. It never waits: a send it cannot
//! make without waiting (a full peer buffer) is handed back, with every
//! send after it, for the loop thread to make first thing in its next
//! round. If it leaves work, hands sends back or sets a deadline earlier
//! than the one the loop thread sleeps until, it wakes the loop thread
//! with an [`Envelope::Wake`].
//!
//! Before it handles a delivery that leaves the lane empty, the loop thread
//! looks one envelope ahead: it takes the inbox's next envelope, if any,
//! onto the lane (a borrower, which never takes from the inbox, requires
//! that nothing be posted instead). Every send the handler makes is told
//! whether the lane was still empty then. Such a send is **quiet**: the
//! runner is about to stop, so it may as well do the send's work itself.
//! The runtime then writes a frame to the peer socket directly instead of
//! waking the link's writer thread; a send to another loop's inbox ignores
//! the flag. Sends from timers and peer verdicts are never quiet.

use crate::event_queue::{EventQueue, Host, Net};
use crate::loop_token::{LoopToken, Pending, Refusal};
use crate::metrics::LinkCounters;
use crate::node::{Node, NodeId, Payload};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;
use rebeca_core::SimTime;
use std::collections::{HashSet, VecDeque};
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
    /// A borrowed round left work for the loop thread (see the module
    /// doc); taking it does nothing else.
    Wake,
    Stop,
}

/// The sending side of an event loop's inbox: each envelope is counted as
/// pending before it is sent (see [`Pending`]).
pub(crate) struct Inbox<M> {
    tx: Sender<Envelope<M>>,
    pending: Arc<Pending>,
}

impl<M> Clone for Inbox<M> {
    fn clone(&self) -> Self {
        Inbox { tx: self.tx.clone(), pending: Arc::clone(&self.pending) }
    }
}

impl<M> Inbox<M> {
    /// A new inbox and the receiver its loop thread waits on.
    pub(crate) fn new() -> (Inbox<M>, Receiver<Envelope<M>>) {
        let (tx, rx) = unbounded();
        (Inbox { tx, pending: Arc::default() }, rx)
    }

    /// Posts one envelope. A loop that has stopped drops it.
    pub(crate) fn post(&self, envelope: Envelope<M>) {
        let _ = self.pending.post(|| self.tx.send(envelope));
    }
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

/// Where a send to a node outside the loop goes: the runtime's business.
pub(crate) trait SendStep<M>: Send {
    /// Executes one send the link set permitted. `quiet` says the runner
    /// had nothing else to do (see the module doc); `borrowed` says a
    /// reader runs the round, so the send may not wait: where it would,
    /// it hands the message back (`Err`) unsent.
    fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: M,
        quiet: bool,
        borrowed: bool,
    ) -> Result<(), M>;
}

/// Inbox envelopes one round moves onto the lane at most, so that a
/// backlog from outside the loop holds its timers back only so long.
const INBOX_BATCH: usize = 64;

/// Where the live loop's sends go, after the send-time link check: to a
/// loop-mate through the lane, to anyone else through the runtime's
/// [`SendStep`] — or, where a borrowed round could not make that send
/// without waiting, back to the loop thread.
struct LiveNet<M, S> {
    links: Arc<RwLock<LinkSet>>,
    /// Indexed by global node id: whether this loop drives the node.
    local: Vec<bool>,
    send: S,
    /// Whether a borrower runs the current round.
    borrowed: bool,
    /// Whether the lane was empty behind the event being handled, after
    /// the look-ahead: the flag every send of this invocation carries.
    quiet: bool,
    /// Sends out of the loop a borrowed round could not make without
    /// waiting, with every such send after them, in send order.
    handback: VecDeque<(NodeId, NodeId, M)>,
}

impl<M: Payload, S: SendStep<M>> Net<M> for LiveNet<M, S> {
    fn link_up(&self, from: NodeId, to: NodeId) -> bool {
        self.links.read().up.contains(&(from, to))
    }

    fn send(&mut self, queue: &mut EventQueue<M>, now: SimTime, from: NodeId, to: NodeId, msg: M) {
        // Send-time link check: a down link silently drops the message,
        // like an unplugged cable.
        if !self.link_up(from, to) {
            return;
        }
        if self.local.get(to.raw() as usize) == Some(&true) {
            queue.deliver(now, from, to, msg);
        } else if !self.handback.is_empty() {
            self.handback.push_back((from, to, msg));
        } else if let Err(msg) = self.send.send(from, to, msg, self.quiet, self.borrowed) {
            self.handback.push_back((from, to, msg));
        }
    }
}

/// One event loop's state, behind its token.
pub(crate) struct EventLoop<M: Payload, S> {
    host: Host<M>,
    net: LiveNet<M, S>,
    /// Between the loop thread's start and its stop: a borrower may run
    /// rounds only then.
    running: bool,
    t0: Instant,
    /// The latest reading of the clock: what an envelope taken from the
    /// inbox is stamped with, so that the lane's stamps never decrease.
    clock: SimTime,
    /// The inbox's count of envelopes posted and not yet taken.
    pending: Arc<Pending>,
}

/// How a round ended.
enum Round {
    /// An [`Envelope::Stop`] was taken.
    Stopped,
    /// `handled` events ran. `left`: a borrower stopped short of a due
    /// event, or handed sends back.
    Ran { handled: u64, left: bool },
}

impl<M: Payload, S: SendStep<M>> EventLoop<M, S> {
    fn now(&mut self) -> SimTime {
        self.clock = SimTime::from_micros(self.t0.elapsed().as_micros() as u64);
        self.clock
    }

    /// Takes one envelope out of the inbox: a message joins the lane
    /// behind every delivery queued so far, a peer verdict is handled at
    /// once. False on [`Envelope::Stop`].
    fn take(&mut self, envelope: Envelope<M>) -> bool {
        self.pending.taken();
        match envelope {
            Envelope::Msg { from, to, msg } => self.host.queue.deliver(self.clock, from, to, msg),
            Envelope::PeerChange { nodes, up } => {
                self.net.quiet = false;
                for me in (0..self.host.nodes.len() as u32).map(NodeId::new) {
                    for &peer in nodes.iter() {
                        let now = self.now();
                        let net = &mut self.net;
                        self.host.invoke(net, now, me, |n, ctx| n.on_peer_change(ctx, peer, up));
                    }
                }
            }
            Envelope::Wake => {}
            Envelope::Stop => return false,
        }
        true
    }

    /// Whether a borrower may run the next due event: a delivery that
    /// leaves the lane empty, with nothing posted and nothing handed back.
    fn quiet_next(&self) -> bool {
        self.net.handback.is_empty()
            && self.pending.get() == 0
            && self.host.queue.next_is_lone_delivery()
    }

    /// One round (see the module doc), run by the loop thread, which
    /// passes its `inbox`, or by a borrower, which passes `None`.
    fn round(&mut self, inbox: Option<&Receiver<Envelope<M>>>) -> Round {
        self.net.borrowed = inbox.is_none();
        if let Some(rx) = inbox {
            while let Some((from, to, msg)) = self.net.handback.pop_front() {
                // The loop thread may wait, so the send is never refused.
                let _ = self.net.send.send(from, to, msg, false, false);
            }
            // The inbox's backlog joins the lane. An empty or disconnected
            // inbox both read as "nothing now"; a disconnect is seen again
            // by the next wait.
            for _ in 0..INBOX_BATCH {
                let Ok(envelope) = rx.try_recv() else { break };
                if !self.take(envelope) {
                    return Round::Stopped;
                }
            }
        }
        // Every event due at the round's start, in `(at, seq)` order.
        let now = self.now();
        let mut handled = 0;
        while self.host.queue.peek_at().is_some_and(|at| at <= now) {
            if self.net.borrowed && !self.quiet_next() {
                return Round::Ran { handled, left: true };
            }
            // The look-ahead, before a delivery that leaves the lane empty.
            if let (Some(rx), true) = (inbox, self.host.queue.next_is_lone_delivery()) {
                if let Ok(envelope) = rx.try_recv() {
                    if !self.take(envelope) {
                        return Round::Stopped;
                    }
                }
            }
            self.net.quiet = self.host.queue.next_is_lone_delivery();
            handled += 1;
            let at = self.now();
            self.host.run(&mut self.net, at);
        }
        Round::Ran { handled, left: !self.net.handback.is_empty() }
    }

    /// The earliest deadline in the queue, in microseconds since `t0`
    /// (`u64::MAX` for none).
    fn next_deadline(&self) -> u64 {
        self.host.queue.peek_at().map_or(u64::MAX, SimTime::as_micros)
    }

    /// Ends the loop: borrowers are refused from now on, and the nodes go
    /// back to the caller.
    fn stop(&mut self) -> Vec<Option<Box<dyn Node<M>>>> {
        self.running = false;
        std::mem::take(&mut self.host.nodes)
    }
}

/// One event loop as other threads reach it: its state behind the token,
/// and its inbox.
pub(crate) struct Loop<M: Payload, S> {
    token: LoopToken<EventLoop<M, S>>,
    inbox: Inbox<M>,
}

impl<M: Payload, S: SendStep<M>> Loop<M, S> {
    /// A loop over `nodes` (indexed by global id, `None` where another
    /// loop or process hosts the node), fed by `inbox`. `send` executes a
    /// send the link set permitted to a node outside the loop; `now` is
    /// wall-clock time since `t0`.
    pub(crate) fn new(
        nodes: Vec<Option<Box<dyn Node<M>>>>,
        inbox: Inbox<M>,
        links: Arc<RwLock<LinkSet>>,
        t0: Instant,
        send: S,
    ) -> Self {
        let local = nodes.iter().map(Option::is_some).collect();
        let net = LiveNet {
            links,
            local,
            send,
            borrowed: false,
            quiet: false,
            handback: VecDeque::new(),
        };
        let state = EventLoop {
            host: Host::new(nodes),
            net,
            running: false,
            t0,
            clock: SimTime::ZERO,
            pending: Arc::clone(&inbox.pending),
        };
        Loop { token: LoopToken::new(state, Arc::clone(&inbox.pending)), inbox }
    }

    /// A reader hands over one message from a peer. `alone`: its read held
    /// this frame and nothing else. If the loop is parked with nothing
    /// posted, the reader borrows its token and runs the round itself (see
    /// the module doc); otherwise the message is posted, and the reason
    /// the borrow was refused is counted.
    pub(crate) fn deliver(
        &self,
        from: NodeId,
        to: NodeId,
        msg: M,
        alone: bool,
        counters: &LinkCounters,
    ) {
        let refused = if !alone {
            &counters.borrow_refused_not_quiet
        } else {
            match self.token.try_borrow() {
                Ok(mut held) if held.running => {
                    let now = held.now();
                    held.host.queue.deliver(now, from, to, msg);
                    let Round::Ran { handled, left } = held.round(None) else {
                        unreachable!("a borrower takes nothing from the inbox")
                    };
                    LinkCounters::add(&counters.borrowed_deliveries, handled);
                    let next = held.next_deadline();
                    if held.release(next, left) {
                        self.inbox.post(Envelope::Wake);
                    }
                    return;
                }
                Ok(_) | Err(Refusal::Busy) => &counters.borrow_refused_busy,
                Err(Refusal::Pending) => &counters.borrow_refused_pending,
            }
        };
        LinkCounters::bump(refused);
        self.inbox.post(Envelope::Msg { from, to, msg });
    }
}

/// Drives `lp`'s nodes on the calling thread, fed by `rx`, until an
/// [`Envelope::Stop`] arrives (or every sender is gone), and hands them
/// back (see the module doc).
pub(crate) fn run_loop<M: Payload, S: SendStep<M>>(
    lp: &Loop<M, S>,
    rx: &Receiver<Envelope<M>>,
) -> Vec<Option<Box<dyn Node<M>>>> {
    let mut held = lp.token.hold();
    let now = held.now();
    let EventLoop { host, net, .. } = &mut *held;
    host.start(net, now);
    held.running = true;
    loop {
        match held.round(Some(rx)) {
            Round::Stopped => return held.stop(),
            Round::Ran { handled, .. } if handled > 0 => continue,
            Round::Ran { .. } => {}
        }
        // Nothing was due: release the token and wait for the inbox or the
        // next deadline.
        let (now, next) = (held.clock.as_micros(), held.next_deadline());
        held.park(next);
        let got = if next == u64::MAX {
            rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
        } else {
            rx.recv_timeout(Duration::from_micros(next.saturating_sub(now)))
        };
        held = lp.token.hold();
        // A borrower may have run rounds meanwhile; this thread may wait.
        held.net.borrowed = false;
        match got {
            Ok(envelope) => {
                if !held.take(envelope) {
                    return held.stop();
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return held.stop(),
        }
    }
}

#[cfg(all(test, not(rebeca_verify)))]
mod tests {
    use crate::node::{Ctx, Node, NodeId};
    use crate::process_rt::tests::{tick_frame, until_borrowed, wait_until, Tick};
    use crate::ProcessRuntime;
    use parking_lot::Mutex;
    use rebeca_core::SimDuration;
    use std::any::Any;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::sync::{mpsc, Arc};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

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

    /// A node receiving from a peer — bursts that reach it posted, lone
    /// frames that a borrowing reader delivers — and from another loop's
    /// node through the inbox at the same time sees each sender's messages
    /// in the order sent.
    #[test]
    fn fifo_holds_across_borrowed_and_posted_deliveries() {
        const ROUNDS: u64 = 40;
        const PEER_BURST: u64 = 8;
        const LONE: u64 = 4;
        let (local, mut remote) = UnixStream::pair().expect("socketpair");
        let log = Log::default();
        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let peer = rt.add_peer(local);
        let r = rt.add_local(probe(&log));
        let far = rt.add_remote(peer);
        let mut sender = probe(&log);
        sender.burst_to = Some(r);
        let s = rt.add_local(sender);
        let leaf = rt.add_local(probe(&log));
        rt.connect(r, far);
        rt.connect(r, s);
        rt.connect(s, leaf);
        let mh = rt.metrics_handle();
        rt.start();
        let mut next = 0;
        for round in 0..ROUNDS {
            rt.send_external(s, Tick(round));
            let burst: Vec<u8> =
                (next..next + PEER_BURST).flat_map(|i| tick_frame(far, r, i)).collect();
            remote.write_all(&burst).expect("burst");
            next += PEER_BURST;
            for _ in 0..LONE {
                std::thread::sleep(Duration::from_micros(300));
                remote.write_all(&tick_frame(far, r, next)).expect("lone frame");
                next += 1;
            }
        }
        let total = (ROUNDS * (BURST + PEER_BURST + LONE)) as usize;
        assert!(wait_until(Duration::from_secs(10), || seen_by(&log, r).len() == total + 1));
        let m = mh.snapshot();
        rt.stop();
        assert_ne!(thread_of(&log, r), thread_of(&log, s), "two loops");
        let got = seen_by(&log, r);
        let from = |who: NodeId| -> Vec<u64> {
            got.iter()
                .filter_map(|e| match e {
                    Seen::Msg(f, v) if *f == who => Some(*v),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(from(far), (0..next).collect::<Vec<_>>(), "the peer's order");
        assert_eq!(from(s), (0..ROUNDS * BURST).collect::<Vec<_>>(), "the other loop's order");
        assert!(m.borrowed_deliveries > 0, "some lone frames were borrowed: {m:?}");
        assert!(m.borrow_refused_not_quiet > 0, "the bursts were posted: {m:?}");
    }

    /// Sets a timer of `AFTER` on a `Tick(1)` and records when it got that
    /// message, when the timer fired, and the threads of both.
    struct Alarm {
        got: Option<(Instant, String)>,
        fired: Arc<Mutex<Option<(Instant, String)>>>,
    }

    impl Alarm {
        const AFTER: Duration = Duration::from_millis(20);
    }

    fn stamp() -> (Instant, String) {
        (Instant::now(), std::thread::current().name().unwrap_or_default().to_owned())
    }

    impl Node<Tick> for Alarm {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Tick>, _: NodeId, msg: Tick) {
            if msg.0 == 1 {
                self.got = Some(stamp());
                ctx.set_timer(SimDuration::from_micros(Alarm::AFTER.as_micros() as u64), 0);
            }
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, Tick>, _: crate::node::TimerId, _: u64) {
            *self.fired.lock() = Some(stamp());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A timer set by a handler a reader ran is the loop thread's to fire:
    /// the reader wakes the loop, which slept with no deadline at all, and
    /// the timer fires on time on the loop thread.
    #[test]
    fn a_timer_set_in_a_borrowed_round_fires_on_time() {
        let (local, mut remote) = UnixStream::pair().expect("socketpair");
        let fired = Arc::new(Mutex::new(None));
        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let peer = rt.add_peer(local);
        let a = rt.add_local(Box::new(Alarm { got: None, fired: Arc::clone(&fired) }));
        let far = rt.add_remote(peer);
        rt.connect(a, far);
        let mh = rt.metrics_handle();
        rt.start();
        until_borrowed(&mut remote, &tick_frame(far, a, 0), &mh, |_| {});
        let borrowed = mh.snapshot().borrowed_deliveries;
        remote.write_all(&tick_frame(far, a, 1)).expect("write");
        assert!(wait_until(Duration::from_secs(5), || fired.lock().is_some()), "never fired");
        let nodes = rt.stop();
        let alarm = nodes[a.raw() as usize].as_ref().unwrap().as_any();
        let (got, reader) = alarm.downcast_ref::<Alarm>().unwrap().got.clone().expect("got it");
        let (at, looper) = fired.lock().clone().expect("fired");
        assert_eq!(mh.snapshot().borrowed_deliveries, borrowed + 1);
        assert_eq!(reader, "rebeca-rd-0-e0", "the reader ran the delivery");
        assert_eq!(looper, format!("rebeca-loop-{}", a.raw()), "the loop thread fired it");
        let late = at.duration_since(got);
        assert!(late >= Alarm::AFTER, "fired early, after {late:?}");
        assert!(late < Alarm::AFTER + Duration::from_millis(200), "fired late, after {late:?}");
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
