//! The sans-io node abstraction.
//!
//! Every protocol participant — broker, replicator, client stub — is a
//! [`Node`]: a state machine that reacts to messages and timers by emitting
//! actions into a [`Ctx`]. Nodes never perform I/O themselves, which is what
//! lets the same implementation run under the deterministic simulator and
//! the live multi-process runtime.

use rebeca_core::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::fmt;

/// Identifier of a node inside a [`World`](crate::World) or a
/// [`ProcessRuntime`](crate::ProcessRuntime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

rebeca_core::wire_table! { struct NodeId { 0: u32 } }

impl NodeId {
    /// Sentinel source for externally injected messages (harness → node).
    pub const EXTERNAL: NodeId = NodeId(u32::MAX);

    /// Creates a node id from its raw index.
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns `true` for the external-injection sentinel.
    pub const fn is_external(self) -> bool {
        self.0 == u32::MAX
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_external() {
            write!(f, "N<ext>")
        } else {
            write!(f, "N{}", self.0)
        }
    }
}

/// Handle for a pending timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

/// Messages exchanged between nodes.
///
/// The substrate only needs to know a message's wire size (for bandwidth
/// accounting) and a coarse classification (for per-kind metrics).
pub trait Payload: fmt::Debug + Send + 'static {
    /// Encoded size in bytes, charged against link counters: what a socket
    /// would carry for this message, so simulated and real links agree.
    fn wire_size(&self) -> usize;

    /// Coarse message class for metrics, e.g. `"pub"`, `"sub"`, `"ctl"`.
    fn kind(&self) -> &'static str {
        "msg"
    }
}

/// A protocol state machine.
///
/// Handlers receive a [`Ctx`] through which they read the clock, send
/// messages, and manage timers. `as_any`/`as_any_mut` let harnesses downcast
/// a node back to its concrete type to inspect state after a run.
pub trait Node<M: Payload>: Send {
    /// Invoked once when the node is started (world start, or its event loop's start in the live runtime).
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// Invoked for every delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// Invoked when a timer set through [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, timer: TimerId, tag: u64) {
        let _ = (ctx, timer, tag);
    }

    /// Invoked when the runtime learns that `peer` became unreachable
    /// (`up == false`) or reachable again (`up == true`). In the
    /// multi-process runtime the link supervisor drives this: a peer
    /// process death reports every node behind the dead peer as down, a
    /// successful restart handshake reports them back up. The
    /// deterministic simulator never calls it — links there change by
    /// harness script, not by crash detection. Default: ignore;
    /// failure-aware nodes (e.g. the replication layer's view-change
    /// trigger) override it.
    fn on_peer_change(&mut self, ctx: &mut Ctx<'_, M>, peer: NodeId, up: bool) {
        let _ = (ctx, peer, up);
    }

    /// Upcast for harness-side state inspection.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for harness-side state manipulation.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Action emitted by a node handler; applied by the runtime afterwards.
#[derive(Debug)]
pub(crate) enum Action<M> {
    Send { to: NodeId, msg: M },
    SetTimer { at: SimTime, id: TimerId, tag: u64 },
    CancelTimer(TimerId),
}

/// Per-invocation handler context: clock, outbox, timers and link queries.
pub struct Ctx<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) me: NodeId,
    pub(crate) actions: Vec<Action<M>>,
    pub(crate) next_timer: &'a mut u64,
    pub(crate) link_up: &'a dyn Fn(NodeId, NodeId) -> bool,
}

impl<'a, M: fmt::Debug> fmt::Debug for Ctx<'a, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .field("me", &self.me)
            .field("actions", &self.actions)
            .finish()
    }
}

impl<'a, M> Ctx<'a, M> {
    /// Builds a detached context for harnesses that drive node cores
    /// directly — benchmarks and allocation-regression tests. The runtimes
    /// construct their own contexts; a standalone context simply records
    /// actions without ever executing them.
    pub fn standalone(
        now: SimTime,
        me: NodeId,
        next_timer: &'a mut u64,
        link_up: &'a dyn Fn(NodeId, NodeId) -> bool,
    ) -> Self {
        Ctx { now, me, actions: Vec::new(), next_timer, link_up }
    }

    /// Number of actions recorded so far (harness inspection).
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }

    /// The `(to, msg)` pairs of the `Send` actions recorded so far, in
    /// emission order — harness inspection (e.g. comparing the announcement
    /// deltas two broker configurations emit for the same mutation). The
    /// runtimes drain actions themselves; a standalone context only ever
    /// records them.
    pub fn sent(&self) -> impl Iterator<Item = (NodeId, &M)> {
        self.actions.iter().filter_map(|a| match a {
            Action::Send { to, msg } => Some((*to, msg)),
            _ => None,
        })
    }

    /// Drops all recorded actions, keeping the buffer's capacity — lets a
    /// harness reuse one context across many handler invocations without
    /// re-allocating the action buffer.
    pub fn clear_actions(&mut self) {
        self.actions.clear();
    }

    /// Current simulated (or wall-clock-mapped) time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's identifier.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Sends a message to a directly linked peer. If no live link exists
    /// the message is counted as dropped by the runtime — exactly like an
    /// unplugged cable; senders that need to know first ask
    /// [`Ctx::link_up`] (the paper's "connection awareness").
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Returns `true` if a live link to `peer` exists right now.
    pub fn link_up(&self, peer: NodeId) -> bool {
        (self.link_up)(self.me, peer)
    }

    /// Schedules a timer `after` from now, carrying an opaque `tag`.
    pub fn set_timer(&mut self, after: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.actions.push(Action::SetTimer { at: self.now + after, id, tag });
        id
    }

    /// Cancels a pending timer (no-op if it already fired).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_sentinel() {
        assert_eq!(NodeId::new(4).to_string(), "N4");
        assert_eq!(NodeId::EXTERNAL.to_string(), "N<ext>");
        assert!(NodeId::EXTERNAL.is_external());
        assert!(!NodeId::new(0).is_external());
    }

    #[test]
    fn ctx_records_actions_in_order() {
        let mut next = 0u64;
        let up = |_: NodeId, _: NodeId| true;
        let mut ctx: Ctx<'_, u32> = Ctx {
            now: SimTime::from_millis(5),
            me: NodeId::new(1),
            actions: Vec::new(),
            next_timer: &mut next,
            link_up: &up,
        };
        assert_eq!(ctx.now(), SimTime::from_millis(5));
        assert_eq!(ctx.me(), NodeId::new(1));
        assert!(ctx.link_up(NodeId::new(2)));
        ctx.send(NodeId::new(2), 7);
        let t = ctx.set_timer(SimDuration::from_millis(1), 9);
        ctx.cancel_timer(t);
        assert_eq!(ctx.actions.len(), 3);
        match &ctx.actions[1] {
            Action::SetTimer { at, tag, .. } => {
                assert_eq!(*at, SimTime::from_millis(6));
                assert_eq!(*tag, 9);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    impl Payload for u32 {
        fn wire_size(&self) -> usize {
            4
        }
    }

    #[test]
    fn timer_ids_are_unique() {
        let mut next = 0u64;
        let up = |_: NodeId, _: NodeId| true;
        let mut ctx: Ctx<'_, u32> = Ctx {
            now: SimTime::ZERO,
            me: NodeId::new(0),
            actions: Vec::new(),
            next_timer: &mut next,
            link_up: &up,
        };
        let a = ctx.set_timer(SimDuration::ZERO, 0);
        let b = ctx.set_timer(SimDuration::ZERO, 0);
        assert_ne!(a, b);
    }
}
