//! Broker nodes that route their mutation surface through a replica group.
//!
//! [`ReplicatedBrokerNode`] wraps a [`BrokerCore`] the way
//! [`BrokerNode`](crate::BrokerNode) does, and runs the same
//! [`BrokerCore::classify`] on every message. The one difference is what
//! happens to a *mutation* — client attach/detach, subscribe/unsubscribe,
//! neighbour announcements: a message's [`BrokerOp`]s are submitted to the
//! node's [`Replica`] as one batch and reach the core only once the group
//! commits them. Each pump applies everything committed since the last
//! one as one batch, so the core sends each link one announcement list
//! pair for it, as [`BrokerCore::apply`] does for a single op. The *read* path (match + route + fan-out of
//! `Publish`/`Forward`) is the core's own and never sees the log — the
//! `// hot-path` markers there and below are enforced by
//! `cargo run -p xtask -- lint` and the end-to-end allocation counter in
//! `crates/bench/tests/alloc_regression.rs`.
//!
//! [`ReplicaNode`] is the log-only group member: it holds the op log and
//! votes in view changes, but applies nothing (its state *is* the log).
//! Both kinds drain through the same [`Replica::drain_committed`], which is
//! what folds committed ops into the log's checkpoint — so every member
//! keeps the live table plus the uncommitted tail, never the history.
//! A broker group of size `g` is one `ReplicatedBrokerNode` plus `g - 1`
//! `ReplicaNode`s, placed on distinct processes by the facade so one
//! SIGKILL never takes a quorum (see `SystemBuilder::replication`).

use super::oplog::BrokerOp;
use super::replica::{Outbox, Replica, ReplicaConfig, ReplicaStatus};
use crate::broker::{BrokerCore, Outcome};
use crate::message::Message;
use rebeca_core::SimDuration;
use rebeca_net::{Ctx, Node, NodeId, TimerId};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Timer tag for the replica protocol tick (retransmits, heartbeats).
const REPLICA_TICK_TAG: u64 = 0x5245_504c; // "REPL"

/// Protocol tick interval: commit heartbeat on the primary, probe/vote
/// retransmission elsewhere. Long enough to be negligible load, short
/// enough that a backup applies a committed op well inside the soak's
/// settle windows.
const REPLICA_TICK: SimDuration = SimDuration::from_millis(200);

/// Shared atomic counters for one system's replication layer (the
/// `LinkMetrics` pattern: nodes bump, the facade snapshots).
#[derive(Debug, Default)]
pub struct ReplicationMetrics {
    ops_logged: AtomicU64,
    prepares_sent: AtomicU64,
    ops_committed: AtomicU64,
    ops_applied: AtomicU64,
    ops_folded: AtomicU64,
    log_resident: AtomicU64,
    view_changes: AtomicU64,
    recoveries: AtomicU64,
}

/// Point-in-time snapshot of [`ReplicationMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Mutations submitted to a replica group.
    pub ops_logged: u64,
    /// `Prepare` batches the primaries built — messages, not ops: a
    /// broadcast counts once (a tick re-send once per lagging backup), so
    /// `ops_logged / prepares_sent` is the mean batch size.
    pub prepares_sent: u64,
    /// Commit-number advancements summed over every group member: each op
    /// counts once per member that learns its commit, so a fully healthy
    /// group of g reports `g * ops_logged`.
    pub ops_committed: u64,
    /// Committed ops applied to a broker core.
    pub ops_applied: u64,
    /// Committed ops folded out of a member's tail into its checkpoint,
    /// summed over every group member: a healthy group of g that keeps up
    /// reports `g * ops_logged`.
    pub ops_folded: u64,
    /// Gauge: what the op logs keep resident right now — live entries plus
    /// tail ops, summed over the members this process hosts. Bounded by the
    /// live tables and the uncommitted windows, not by `ops_logged`.
    pub log_resident: u64,
    /// View changes observed (primary failovers).
    pub view_changes: u64,
    /// Completed state recoveries (a respawned member adopted group state).
    pub recoveries: u64,
}

impl ReplicationMetrics {
    /// ordering: Relaxed — pure statistics counter, no memory published.
    fn add(counter: &AtomicU64, n: u64) {
        if n > 0 {
            // ordering: Relaxed — pure statistics counter, no memory
            // published through it.
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current counter values.
    pub fn snapshot(&self) -> ReplicationStats {
        // ordering: Relaxed — see ReplicationMetrics::add; snapshots are
        // advisory, not synchronisation points.
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ReplicationStats {
            ops_logged: load(&self.ops_logged),
            prepares_sent: load(&self.prepares_sent),
            ops_committed: load(&self.ops_committed),
            ops_applied: load(&self.ops_applied),
            ops_folded: load(&self.ops_folded),
            log_resident: load(&self.log_resident),
            view_changes: load(&self.view_changes),
            recoveries: load(&self.recoveries),
        }
    }
}

/// Shared replica-driving state of both node kinds: outbox flushing,
/// metric transitions and the protocol tick.
struct ReplicaDriver {
    replica: Replica,
    outbox: Outbox,
    metrics: Arc<ReplicationMetrics>,
    last_view: u64,
    last_commit: u64,
    last_prepares: u64,
    last_folded: u64,
    last_resident: u64,
    was_recovering: bool,
}

impl ReplicaDriver {
    fn new(replica: Replica, metrics: Arc<ReplicationMetrics>) -> ReplicaDriver {
        let was_recovering = replica.status() == ReplicaStatus::Recovering;
        ReplicaDriver {
            replica,
            outbox: Outbox::new(),
            metrics,
            last_view: 0,
            last_commit: 0,
            last_prepares: 0,
            last_folded: 0,
            last_resident: 0,
            was_recovering,
        }
    }

    /// Ships queued replica messages and records state transitions. Every
    /// entry point (message, timer, peer change, submit) funnels through
    /// this before returning to the runtime.
    fn flush_outbox(&mut self, ctx: &mut Ctx<'_, Message>) {
        for (to, rm) in self.outbox.drain(..) {
            ctx.send(to, Message::Replica(rm));
        }

        let view = self.replica.view();
        if view > self.last_view {
            ReplicationMetrics::add(&self.metrics.view_changes, view - self.last_view);
            self.last_view = view;
        }
        let commit = self.replica.commit_number();
        if commit > self.last_commit {
            ReplicationMetrics::add(&self.metrics.ops_committed, commit - self.last_commit);
            self.last_commit = commit;
        }
        let prepares = self.replica.prepares_sent();
        ReplicationMetrics::add(&self.metrics.prepares_sent, prepares - self.last_prepares);
        self.last_prepares = prepares;
        match self.replica.status() {
            ReplicaStatus::Recovering => self.was_recovering = true,
            ReplicaStatus::Normal => {
                // Count a completed recovery only when state was actually
                // adopted — a fresh group boot (empty log) is not one.
                if self.was_recovering {
                    self.was_recovering = false;
                    if self.replica.op_number() > 0 {
                        ReplicationMetrics::add(&self.metrics.recoveries, 1);
                    }
                }
            }
            ReplicaStatus::ViewChange => {}
        }
    }

    fn arm_tick(&self, ctx: &mut Ctx<'_, Message>) {
        if self.replica.config().group.len() > 1 {
            ctx.set_timer(REPLICA_TICK, REPLICA_TICK_TAG);
        }
    }

    fn start(&mut self, ctx: &mut Ctx<'_, Message>) {
        self.replica.start(&mut self.outbox);
        self.flush_outbox(ctx);
        self.arm_tick(ctx);
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, Message>) {
        self.replica.tick(&mut self.outbox);
        self.flush_outbox(ctx);
        self.arm_tick(ctx);
    }

    fn on_replica_msg(&mut self, from: NodeId, msg: super::replica::ReplicaMsg) {
        self.replica.on_msg(from, msg, &mut self.outbox);
    }

    fn on_peer_change(&mut self, peer: NodeId, up: bool) {
        self.replica.on_peer_change(peer, up, &mut self.outbox);
    }

    /// Submits one message's mutations to the group as one batch.
    fn submit(&mut self, ops: impl ExactSizeIterator<Item = BrokerOp>) {
        ReplicationMetrics::add(&self.metrics.ops_logged, ops.len() as u64);
        self.replica.submit(ops, &mut self.outbox);
    }

    /// Drains the committed ops through `apply` (which folds them into the
    /// log's checkpoint) and records what the log holds now.
    fn drain(&mut self, apply: impl FnMut(BrokerOp)) -> u64 {
        let drained = self.replica.drain_committed(apply);
        let folded = self.replica.ops_folded();
        ReplicationMetrics::add(&self.metrics.ops_folded, folded - self.last_folded);
        self.last_folded = folded;
        // A gauge: this member's share moves up or down, and a wrapping add
        // of the (two's complement) difference does both.
        let resident = self.replica.log().resident() as u64;
        ReplicationMetrics::add(
            &self.metrics.log_resident,
            resident.wrapping_sub(self.last_resident),
        );
        self.last_resident = resident;
        drained
    }
}

/// A broker whose mutation surface is replicated across its group (see
/// the module docs). Construct via [`ReplicatedBrokerNode::new`] with the
/// group's node ids — index 0 must be this broker's own node.
pub struct ReplicatedBrokerNode {
    core: BrokerCore,
    driver: ReplicaDriver,
    /// Reused across messages so dispatch allocates nothing steady-state.
    outcome: Outcome,
}

impl fmt::Debug for ReplicatedBrokerNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicatedBrokerNode")
            .field("core", &self.core)
            .field("replica", &self.driver.replica)
            .finish()
    }
}

impl ReplicatedBrokerNode {
    /// Wraps a routing core in a replica group member. `group[0]` is this
    /// broker's own world node id; the rest are its [`ReplicaNode`]s.
    pub fn new(core: BrokerCore, group: Vec<NodeId>, metrics: Arc<ReplicationMetrics>) -> Self {
        let replica = Replica::new(ReplicaConfig { group, me: 0 });
        ReplicatedBrokerNode {
            core,
            driver: ReplicaDriver::new(replica, metrics),
            outcome: Outcome::default(),
        }
    }

    /// Access to the routing core.
    pub fn core(&self) -> &BrokerCore {
        &self.core
    }

    /// Access to the replica state machine (view, commit number, status).
    pub fn replica(&self) -> &Replica {
        &self.driver.replica
    }

    /// Snapshot of the replication counters this node shares with every
    /// other group member built by the same facade call (one system, or one
    /// process partition of it).
    pub fn replication_stats(&self) -> ReplicationStats {
        self.driver.metrics.snapshot()
    }

    /// Ships replica messages and applies newly committed ops to the core:
    /// the whole committed batch is staged first, then one flush sends
    /// each link's net announcement change as one list pair.
    fn pump(&mut self, ctx: &mut Ctx<'_, Message>) {
        self.driver.flush_outbox(ctx);
        let core = &mut self.core;
        // By value: a retraction reaches the table without a clone, an add
        // with the one its fold took.
        let applied = self.driver.drain(|op| core.stage(op));
        if applied > 0 {
            core.flush(ctx);
        }
        // Applying ops emits announcements, never new replica traffic: the
        // one outbox flush above suffices.
        ReplicationMetrics::add(&self.driver.metrics.ops_applied, applied);
    }
}

impl Node<Message> for ReplicatedBrokerNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Message>) {
        self.driver.start(ctx);
        self.pump(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Message>, from: NodeId, msg: Message) {
        if let Message::Replica(rm) = msg {
            self.driver.on_replica_msg(from, rm);
            self.pump(ctx);
            return;
        }
        self.outcome.clear();
        // hot-path: begin — what a notification runs through here: the
        // core's read path, then the fan-out of its local deliveries. Must
        // never touch the replica, the op log or any lock.
        self.core.classify(ctx, from, msg, &mut self.outcome);
        for d in self.outcome.deliveries.drain(..) {
            ctx.send(d.node, Message::Deliver { client: d.client, notification: d.notification });
        }
        // hot-path: end
        if !self.outcome.ops.is_empty() {
            self.driver.submit(self.outcome.ops.drain(..));
            self.pump(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Message>, _timer: TimerId, tag: u64) {
        if tag == REPLICA_TICK_TAG {
            self.driver.tick(ctx);
            self.pump(ctx);
        }
    }

    fn on_peer_change(&mut self, ctx: &mut Ctx<'_, Message>, peer: NodeId, up: bool) {
        self.driver.on_peer_change(peer, up);
        // Lifecycle marker in the log (no-op on apply, visible to
        // recovery diagnostics) — only the primary may append.
        if self.driver.replica.is_primary() && self.driver.replica.config().group.len() > 1 {
            let op = if up {
                BrokerOp::LinkUp { node: peer }
            } else {
                BrokerOp::LinkDown { node: peer }
            };
            self.driver.submit(std::iter::once(op));
        }
        self.pump(ctx);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A log-only replica group member: holds the op log, acknowledges
/// prepares, votes in view changes and serves recovery — applies nothing.
pub struct ReplicaNode {
    driver: ReplicaDriver,
    /// Broker-protocol messages misdelivered to the backup (diagnostics).
    ignored: u64,
}

impl fmt::Debug for ReplicaNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicaNode")
            .field("replica", &self.driver.replica)
            .field("ignored", &self.ignored)
            .finish()
    }
}

impl ReplicaNode {
    /// Creates the group member with index `me` (1-based among backups:
    /// the broker itself is index 0).
    pub fn new(group: Vec<NodeId>, me: usize, metrics: Arc<ReplicationMetrics>) -> Self {
        assert!(me > 0, "index 0 is the broker itself, not a log backup");
        let replica = Replica::new(ReplicaConfig { group, me });
        ReplicaNode { driver: ReplicaDriver::new(replica, metrics), ignored: 0 }
    }

    /// Access to the replica state machine.
    pub fn replica(&self) -> &Replica {
        &self.driver.replica
    }

    /// Non-replica messages this backup received and dropped.
    pub fn ignored(&self) -> u64 {
        self.ignored
    }

    fn pump(&mut self, ctx: &mut Ctx<'_, Message>) {
        self.driver.flush_outbox(ctx);
        // A backup's state *is* its log: fold the committed ops, discard
        // what comes out.
        self.driver.drain(drop);
    }
}

impl Node<Message> for ReplicaNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Message>) {
        self.driver.start(ctx);
        self.pump(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Message>, from: NodeId, msg: Message) {
        match msg {
            Message::Replica(rm) => {
                self.driver.on_replica_msg(from, rm);
                self.pump(ctx);
            }
            // Everything else is broker/client business a backup never
            // serves; enumerate so a new Message variant forces a
            // decision here.
            Message::AppPublish { .. }
            | Message::AppSubscribe { .. }
            | Message::AppUnsubscribe { .. }
            | Message::ClientAttach { .. }
            | Message::ClientDetach { .. }
            | Message::Publish { .. }
            | Message::Subscribe { .. }
            | Message::Unsubscribe { .. }
            | Message::Deliver { .. }
            | Message::Forward { .. }
            | Message::SubForward { .. }
            | Message::UnsubForward { .. }
            | Message::Routed { .. }
            | Message::Mobility(_) => self.ignored += 1,
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Message>, _timer: TimerId, tag: u64) {
        if tag == REPLICA_TICK_TAG {
            self.driver.tick(ctx);
            self.pump(ctx);
        }
    }

    fn on_peer_change(&mut self, ctx: &mut Ctx<'_, Message>, peer: NodeId, up: bool) {
        self.driver.on_peer_change(peer, up);
        self.pump(ctx);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(all(test, not(rebeca_verify)))]
mod tests {
    use super::*;
    use crate::routing::RoutingStrategy;
    use rebeca_core::{
        BrokerId, ClientId, Filter, Notification, SimTime, Subscription, SubscriptionId,
    };
    use rebeca_net::Topology;

    fn core(id: u32) -> BrokerCore {
        let topology = Arc::new(Topology::line(1).expect("one broker"));
        let broker_nodes = Arc::new(vec![NodeId::new(id)]);
        BrokerCore::new(BrokerId::new(0), topology, broker_nodes, RoutingStrategy::Simple)
    }

    fn filter_eq(key: &str, v: i64) -> Filter {
        Filter::builder().eq(key, v).build()
    }

    /// One broker + two log backups, fully connected, driven standalone.
    struct Group {
        broker: ReplicatedBrokerNode,
        backups: Vec<ReplicaNode>,
        now: SimTime,
        next_timer: u64,
    }

    impl Group {
        fn new() -> Group {
            let metrics = Arc::new(ReplicationMetrics::default());
            let group = vec![NodeId::new(0), NodeId::new(10), NodeId::new(11)];
            Group {
                broker: ReplicatedBrokerNode::new(core(0), group.clone(), Arc::clone(&metrics)),
                backups: vec![
                    ReplicaNode::new(group.clone(), 1, Arc::clone(&metrics)),
                    ReplicaNode::new(group, 2, metrics),
                ],
                now: SimTime::ZERO,
                next_timer: 0,
            }
        }

        fn deliver_all(&mut self, mut inflight: Vec<(NodeId, NodeId, Message)>) -> Vec<Message> {
            let mut delivered = Vec::new();
            while let Some((from, to, msg)) = inflight.pop() {
                let sent: Vec<(NodeId, Message)> = if to == NodeId::new(0) {
                    self.invoke_broker(from, msg)
                } else if to == NodeId::new(10) {
                    self.invoke_backup(0, from, msg)
                } else if to == NodeId::new(11) {
                    self.invoke_backup(1, from, msg)
                } else {
                    delivered.push(msg);
                    continue;
                };
                for (next_to, m) in sent {
                    inflight.push((to, next_to, m));
                }
            }
            delivered
        }

        fn invoke_broker(&mut self, from: NodeId, msg: Message) -> Vec<(NodeId, Message)> {
            let link_up = |_: NodeId, _: NodeId| true;
            let mut ctx = Ctx::standalone(self.now, NodeId::new(0), &mut self.next_timer, &link_up);
            self.broker.on_message(&mut ctx, from, msg);
            ctx.sent().map(|(to, m)| (to, m.clone())).collect()
        }

        fn invoke_backup(
            &mut self,
            i: usize,
            from: NodeId,
            msg: Message,
        ) -> Vec<(NodeId, Message)> {
            let me = NodeId::new(10 + i as u32);
            let link_up = |_: NodeId, _: NodeId| true;
            let mut ctx = Ctx::standalone(self.now, me, &mut self.next_timer, &link_up);
            self.backups[i].on_message(&mut ctx, from, msg);
            ctx.sent().map(|(to, m)| (to, m.clone())).collect()
        }

        fn start_all(&mut self) {
            let link_up = |_: NodeId, _: NodeId| true;
            let mut inflight = Vec::new();
            {
                let mut ctx =
                    Ctx::standalone(self.now, NodeId::new(0), &mut self.next_timer, &link_up);
                self.broker.on_start(&mut ctx);
                for (to, m) in ctx.sent() {
                    inflight.push((NodeId::new(0), to, m.clone()));
                }
            }
            for i in 0..2 {
                let me = NodeId::new(10 + i as u32);
                let mut ctx = Ctx::standalone(self.now, me, &mut self.next_timer, &link_up);
                self.backups[i].on_start(&mut ctx);
                for (to, m) in ctx.sent() {
                    inflight.push((me, to, m.clone()));
                }
            }
            self.deliver_all(inflight);
        }
    }

    #[test]
    fn subscribe_commits_through_the_group_before_applying() {
        let mut g = Group::new();
        g.start_all();
        assert_eq!(g.broker.replica().status(), ReplicaStatus::Normal);
        assert!(g.broker.replica().is_primary());

        let sub = Subscription::new(SubscriptionId::new(1), ClientId::new(7), filter_eq("k", 1));
        let sent = g.invoke_broker(NodeId::new(99), Message::Subscribe { subscription: sub });
        // Prepares go to both backups; nothing applied yet (no quorum).
        assert_eq!(g.broker.core().router().entry_count(), 0);
        let inflight: Vec<(NodeId, NodeId, Message)> =
            sent.into_iter().map(|(to, m)| (NodeId::new(0), to, m)).collect();
        g.deliver_all(inflight);
        // PrepareOks came back, the op committed and applied.
        assert_eq!(g.broker.core().router().entry_count(), 1);
        assert_eq!(g.broker.replica().commit_number(), 1);
        for b in &g.backups {
            assert_eq!(b.replica().op_number(), 1, "backup holds the logged op");
        }
    }

    #[test]
    fn publish_bypasses_the_log() {
        let mut g = Group::new();
        g.start_all();
        let sub = Subscription::new(SubscriptionId::new(1), ClientId::new(7), filter_eq("k", 1));
        let sent = g.invoke_broker(NodeId::new(99), Message::Subscribe { subscription: sub });
        let inflight = sent.into_iter().map(|(to, m)| (NodeId::new(0), to, m)).collect();
        g.deliver_all(inflight);

        let before = g.broker.replica().op_number();
        let n = Arc::new(Notification::builder().attr("k", 1i64).publish(
            ClientId::new(1),
            0,
            SimTime::ZERO,
        ));
        let sent = g.invoke_broker(NodeId::new(98), Message::Publish { notification: n });
        assert_eq!(g.broker.replica().op_number(), before, "routing is not a logged mutation");
        assert!(
            sent.iter().any(|(to, m)| *to == NodeId::new(99)
                && matches!(m, Message::Deliver { client, .. } if *client == ClientId::new(7))),
            "delivery goes straight out: {sent:?}"
        );
    }

    #[test]
    fn backup_ignores_broker_traffic_but_counts_it() {
        let mut g = Group::new();
        g.start_all();
        let n = Arc::new(Notification::builder().attr("k", 1i64).publish(
            ClientId::new(1),
            0,
            SimTime::ZERO,
        ));
        let sent = g.invoke_backup(0, NodeId::new(99), Message::Publish { notification: n });
        assert!(sent.is_empty());
        assert_eq!(g.backups[0].ignored(), 1);
    }

    #[test]
    fn timer_tick_is_harmless_and_rearms() {
        let mut g = Group::new();
        g.start_all();
        let link_up = |_: NodeId, _: NodeId| true;
        let mut ctx = Ctx::standalone(g.now, NodeId::new(0), &mut g.next_timer, &link_up);
        let timer = ctx.set_timer(SimDuration::from_millis(1), REPLICA_TICK_TAG);
        g.broker.on_timer(&mut ctx, timer, REPLICA_TICK_TAG);
        // Commit heartbeats to both backups, plus a re-armed tick.
        let heartbeats = ctx.sent().filter(|(_, m)| matches!(m, Message::Replica(_))).count();
        assert_eq!(heartbeats, 2);
    }
}
