//! The node message/timer loop of the live runtime.
//!
//! [`ProcessRuntime`](crate::ProcessRuntime) drives each local [`Node`] on
//! its own OS thread: an inbox of [`Envelope`]s, a wall-clock timer heap,
//! and a shared [`LinkSet`] consulted at send time ("unplugged cable": a
//! send across a down link is silently dropped). Where a permitted send
//! goes — another node's inbox, or a frame onto a peer socket — is the
//! runtime's business, so [`run_node`] takes that step as a monomorphised
//! closure and the loop itself knows nothing of sockets.
//!
//! The loop looks one envelope ahead: after taking the current envelope it
//! polls the inbox once more, and every send the handler makes is told
//! whether that poll came back empty. Such a send is **quiet**: the node
//! thread is about to sleep, so it may as well do the send's work itself.
//! The runtime then writes a frame to the peer socket directly instead of
//! waking the link's writer thread; a send to a local inbox ignores the
//! flag. Sends from timers are never quiet (the inbox was not polled for
//! them).

use crate::node::{Action, Ctx, Node, NodeId, Payload, TimerId};
use crossbeam::channel::{Receiver, RecvTimeoutError};
use parking_lot::RwLock;
use rebeca_core::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a node thread's inbox carries.
pub(crate) enum Envelope<M> {
    Msg {
        from: NodeId,
        msg: M,
    },
    /// Wake-up so link changes are observed promptly.
    SetLinkNotice,
    /// Supervisor verdict on a peer process: every node in `nodes` (the
    /// nodes hosted behind one peer link) became unreachable or reachable
    /// again. Dispatched to the node's `on_peer_change`, once per entry.
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

/// Ordered by deadline, then by id (ids are unique per node, so `tag`
/// never decides).
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct PendingTimer {
    at: SimTime,
    id: TimerId,
    tag: u64,
}

/// One node thread's state between handler invocations.
struct NodeLoop<M: Payload, S> {
    node: Box<dyn Node<M>>,
    me: NodeId,
    t0: Instant,
    links: Arc<RwLock<LinkSet>>,
    send: S,
    /// Whether the inbox was empty behind the envelope being handled: the
    /// flag every send of this invocation carries.
    quiet: bool,
    /// The handlers' action buffer, emptied and reused across invocations:
    /// one commit-apply of a batched `Prepare` emits hundreds of sends.
    actions: Vec<Action<M>>,
    next_timer: u64,
    /// Min-heap: the earliest deadline pops first.
    timers: BinaryHeap<Reverse<PendingTimer>>,
    pending: HashSet<u64>,
    cancelled: HashSet<u64>,
}

impl<M: Payload, S: FnMut(NodeId, M, bool)> NodeLoop<M, S> {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.t0.elapsed().as_micros() as u64)
    }

    /// Runs one handler invocation and applies its actions.
    fn invoke(&mut self, f: impl FnOnce(&mut dyn Node<M>, &mut Ctx<'_, M>)) {
        let me = self.me;
        let links = &self.links;
        let link_up = |a: NodeId, b: NodeId| links.read().up.contains(&(a, b));
        let mut ctx = Ctx {
            now: self.now(),
            me,
            actions: std::mem::take(&mut self.actions),
            next_timer: &mut self.next_timer,
            link_up: &link_up,
        };
        f(self.node.as_mut(), &mut ctx);
        let mut actions = ctx.actions;
        for a in actions.drain(..) {
            match a {
                Action::Send { to, msg } => {
                    // Send-time link check: a down link silently drops the
                    // message, like an unplugged cable.
                    if link_up(me, to) {
                        (self.send)(to, msg, self.quiet);
                    }
                }
                Action::SetTimer { at, id, tag } => {
                    self.pending.insert(id.0);
                    self.timers.push(Reverse(PendingTimer { at, id, tag }));
                }
                Action::CancelTimer(id) => {
                    // Only pending timers are recorded — cancelling a fired
                    // timer must not grow the set forever (see World::apply).
                    if self.pending.remove(&id.0) {
                        self.cancelled.insert(id.0);
                    }
                }
            }
        }
        self.actions = actions;
    }

    fn fire_due_timers(&mut self) {
        let now = self.now();
        while self.timers.peek().is_some_and(|head| head.0.at <= now) {
            let Reverse(t) = self.timers.pop().expect("peeked");
            self.pending.remove(&t.id.0);
            if !self.cancelled.remove(&t.id.0) {
                self.invoke(|n, ctx| n.on_timer(ctx, t.id, t.tag));
            }
        }
    }
}

/// Drives `node` until a [`Envelope::Stop`] arrives (or every sender is
/// gone) and hands it back. `send(to, msg, quiet)` executes a send the
/// link set permitted; `quiet` says the inbox held nothing behind the
/// envelope being handled (see the module doc). `now` is wall-clock time
/// since `t0`.
pub(crate) fn run_node<M: Payload>(
    node: Box<dyn Node<M>>,
    me: NodeId,
    rx: Receiver<Envelope<M>>,
    links: Arc<RwLock<LinkSet>>,
    t0: Instant,
    send: impl FnMut(NodeId, M, bool),
) -> Box<dyn Node<M>> {
    let mut lp = NodeLoop {
        node,
        me,
        t0,
        links,
        send,
        quiet: false,
        actions: Vec::new(),
        next_timer: 0,
        timers: BinaryHeap::new(),
        pending: HashSet::new(),
        cancelled: HashSet::new(),
    };
    lp.invoke(|n, ctx| n.on_start(ctx));
    // The envelope the last look-ahead took out of the inbox.
    let mut ahead: Option<Envelope<M>> = None;
    loop {
        lp.quiet = false;
        lp.fire_due_timers();
        let next = match ahead.take() {
            Some(envelope) => Ok(envelope),
            None => {
                // Wait for the next message or timer deadline.
                let timeout = match lp.timers.peek() {
                    Some(t) => Duration::from_micros(
                        t.0.at.as_micros().saturating_sub(lp.now().as_micros()),
                    ),
                    None => Duration::from_millis(50),
                };
                rx.recv_timeout(timeout)
            }
        };
        // An empty or disconnected inbox both read as "nothing behind";
        // a disconnect is seen again by the next wait.
        ahead = rx.try_recv().ok();
        lp.quiet = ahead.is_none();
        match next {
            Ok(Envelope::Msg { from, msg }) => lp.invoke(|n, ctx| n.on_message(ctx, from, msg)),
            Ok(Envelope::PeerChange { nodes, up }) => {
                for peer in nodes.iter() {
                    lp.invoke(|n, ctx| n.on_peer_change(ctx, *peer, up));
                }
            }
            Ok(Envelope::SetLinkNotice) | Err(RecvTimeoutError::Timeout) => {}
            Ok(Envelope::Stop) | Err(RecvTimeoutError::Disconnected) => return lp.node,
        }
    }
}
