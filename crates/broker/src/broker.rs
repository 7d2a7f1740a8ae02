//! The broker state machine.
//!
//! [`BrokerCore`] is the routing engine: it owns the routing table, applies
//! the configured [`RoutingStrategy`], forwards notifications, propagates
//! subscriptions, and routes point-to-point control messages through the
//! tree. It is *not* a [`Node`] itself, and it knows nothing of mobility:
//! relocation and pre-subscriptions live in the mobility crate's
//! replicators, which sit in front of the brokers and talk to them as
//! ordinary clients. Two nodes wrap the core: [`BrokerNode`] for a plain
//! broker and [`ReplicatedBrokerNode`](crate::ReplicatedBrokerNode) for a
//! broker whose routing state a replica group keeps.
//!
//! Every mutation of the routing state goes through one seam:
//! [`BrokerCore::classify`] re-expresses a mutating message as a
//! [`BrokerOp`], [`BrokerCore::apply`] applies an op. What happens in
//! between is the wrapper's business — nothing ([`BrokerNode`], via
//! [`BrokerCore::handle_into`]) or a replica-group commit
//! ([`ReplicatedBrokerNode`](crate::ReplicatedBrokerNode)).

use crate::message::Message;
use crate::replication::BrokerOp;
use crate::routing::{CoverChanges, LinkAnnouncer, RoutingStrategy};
use crate::shard::ShardedRouter;
use crate::table::{FilterOrigin, RouteScratch, TableDelta};
use rebeca_core::{BrokerId, ClientId, Digest, Filter, Notification, SharedInterner};
use rebeca_net::{Ctx, Node, NodeId, Topology};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Counters exposed by every broker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Notifications that crossed this broker (published or forwarded).
    pub notifications_routed: u64,
    /// `Forward` messages emitted to neighbour brokers.
    pub forwards_sent: u64,
    /// Deliveries handed to locally attached clients.
    pub local_deliveries: u64,
    /// `SubForward`/`UnsubForward` messages emitted.
    pub control_sent: u64,
    /// Routing-table entries verified in full against a notification —
    /// set against `forwards_sent + local_deliveries`, the work the read
    /// path did per destination it decided.
    pub candidates_verified: u64,
}

/// A pending delivery to a locally attached client, produced by
/// [`BrokerCore::handle`]. The wrapper executes it (sends a `Deliver`).
#[derive(Debug, Clone)]
pub struct LocalDelivery {
    /// The receiving client.
    pub client: ClientId,
    /// The node the client is (last known to be) reachable at.
    pub node: NodeId,
    /// The matching notification (shared with every other delivery and
    /// forward of the same notification).
    pub notification: Arc<Notification>,
}

/// Result of handling one message in the core.
///
/// Wrappers keep one `Outcome` alive across messages and pass it to
/// [`BrokerCore::handle_into`]: its buffers retain capacity, so the
/// steady-state dispatch loop performs no per-message allocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Deliveries to local clients the wrapper must execute.
    pub deliveries: Vec<LocalDelivery>,
}

impl Outcome {
    /// Empties the buffer, keeping its capacity for reuse.
    pub fn clear(&mut self) {
        self.deliveries.clear();
    }
}

/// The routing engine of one broker.
pub struct BrokerCore {
    id: BrokerId,
    strategy: RoutingStrategy,
    topology: Arc<Topology>,
    /// Maps every broker id (raw index) to its node id in the world.
    broker_nodes: Arc<Vec<NodeId>>,
    /// Node ids of the neighbouring brokers.
    neighbors: Vec<NodeId>,
    /// The routing state, partitioned into ≥ 1 digest-range shards (1 shard
    /// behaves exactly like the historical single table).
    router: ShardedRouter,
    /// Incremental announcement state, one per neighbour (same order as
    /// `neighbors`) — the single source of truth for announced sets.
    announcers: Vec<LinkAnnouncer>,
    /// Reusable per-notification routing scratch (zero-alloc hot path).
    scratch: RouteScratch,
    stats: BrokerStats,
}

impl fmt::Debug for BrokerCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokerCore")
            .field("id", &self.id)
            .field("strategy", &self.strategy)
            .field("router", &self.router)
            .finish()
    }
}

impl BrokerCore {
    /// Creates the core for broker `id` of `topology`, with `broker_nodes`
    /// mapping broker ids to world node ids.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not part of the topology or the node map is
    /// shorter than the topology.
    pub fn new(
        id: BrokerId,
        topology: Arc<Topology>,
        broker_nodes: Arc<Vec<NodeId>>,
        strategy: RoutingStrategy,
    ) -> Self {
        Self::with_interner(id, topology, broker_nodes, strategy, Arc::new(SharedInterner::new()))
    }

    /// Creates the core resolving attribute names through `interner` — the
    /// shared symbol table of the broker (or, as the [`System`] facade does
    /// it, of the whole world, so every broker's routing table and
    /// local-delivery index mint identical [`Symbol`](rebeca_core::Symbol)s).
    ///
    /// # Panics
    ///
    /// As [`BrokerCore::new`].
    ///
    /// [`System`]: ../rebeca/struct.System.html
    pub fn with_interner(
        id: BrokerId,
        topology: Arc<Topology>,
        broker_nodes: Arc<Vec<NodeId>>,
        strategy: RoutingStrategy,
        interner: Arc<SharedInterner>,
    ) -> Self {
        Self::with_shards(id, topology, broker_nodes, strategy, interner, 1)
    }

    /// Creates the core with its routing state partitioned into `shards`
    /// match/route shards keyed by filter digest range (`shards.max(1)`;
    /// 1 = the historical unsharded behaviour). All shards share
    /// `interner`, and the sharded decision is bit-for-bit identical to
    /// the unsharded one — see the shard-equivalence test suite.
    ///
    /// # Panics
    ///
    /// As [`BrokerCore::new`].
    pub fn with_shards(
        id: BrokerId,
        topology: Arc<Topology>,
        broker_nodes: Arc<Vec<NodeId>>,
        strategy: RoutingStrategy,
        interner: Arc<SharedInterner>,
        shards: usize,
    ) -> Self {
        assert!((id.raw() as usize) < topology.broker_count(), "broker {id} not in topology");
        assert!(broker_nodes.len() >= topology.broker_count(), "broker node map incomplete");
        let neighbors: Vec<NodeId> =
            topology.neighbors(id).iter().map(|b| broker_nodes[b.raw() as usize]).collect();
        let announcers = neighbors.iter().map(|_| LinkAnnouncer::new(strategy)).collect();
        BrokerCore {
            id,
            strategy,
            topology,
            broker_nodes,
            neighbors,
            router: ShardedRouter::with_interner(shards, interner),
            announcers,
            scratch: RouteScratch::new(),
            stats: BrokerStats::default(),
        }
    }

    /// This broker's id.
    pub fn id(&self) -> BrokerId {
        self.id
    }

    /// The routing strategy in effect.
    pub fn strategy(&self) -> RoutingStrategy {
        self.strategy
    }

    /// Read access to the (sharded) routing state (stats, tests).
    pub fn router(&self) -> &ShardedRouter {
        &self.router
    }

    /// Number of match/route shards the routing state is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.router.shard_count()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> BrokerStats {
        self.stats
    }

    /// Node ids of neighbouring brokers.
    pub fn neighbor_nodes(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// The world node of a broker id (for wrappers sending control traffic).
    pub fn node_of(&self, broker: BrokerId) -> NodeId {
        self.broker_nodes[broker.raw() as usize]
    }

    /// The shared symbol table of this broker's routing state.
    pub fn interner(&self) -> &Arc<SharedInterner> {
        self.router.interner()
    }

    /// Handles one message, returning its local deliveries. Allocating
    /// convenience form of
    /// [`BrokerCore::handle_into`].
    pub fn handle(&mut self, ctx: &mut Ctx<'_, Message>, from: NodeId, msg: Message) -> Outcome {
        let mut out = Outcome::default();
        self.handle_into(ctx, from, msg, &mut out);
        out
    }

    /// Handles one message, appending its local deliveries to `out` (*not*
    /// cleared first — wrappers reuse one buffer across messages to keep
    /// the dispatch loop allocation-free). A mutation is applied on the
    /// spot; a wrapper that must do something else with it first (submit
    /// it to a replicated log) calls [`BrokerCore::classify`] and
    /// [`BrokerCore::apply`] itself.
    pub fn handle_into(
        &mut self,
        ctx: &mut Ctx<'_, Message>,
        from: NodeId,
        msg: Message,
        out: &mut Outcome,
    ) {
        if let Some(op) = self.classify(ctx, from, msg, out) {
            self.apply(ctx, op);
        }
    }

    /// Does everything a message asks for *except* mutating the routing
    /// state, and returns the mutation — the message re-expressed as a
    /// [`BrokerOp`], with `from` as the op's `node` — for the caller to
    /// [`apply`](BrokerCore::apply) now or once a replica group has
    /// committed it. Notifications are routed (the read path), `Routed`
    /// envelopes are unwrapped here or forwarded towards their target.
    /// This is the only place a `Message` turns into a `BrokerOp`.
    pub fn classify(
        &mut self,
        ctx: &mut Ctx<'_, Message>,
        from: NodeId,
        msg: Message,
        out: &mut Outcome,
    ) -> Option<BrokerOp> {
        match msg {
            // hot-path: begin — the per-notification read path: match,
            // route, fan out. Never a mutation, so it never reaches a
            // replica, an op log or a lock; its zero-allocation property is
            // asserted end to end by crates/bench/tests/alloc_regression.rs.
            Message::Publish { notification } | Message::Forward { notification } => {
                self.route_notification_into(ctx, from, notification, out);
                None
            }
            // hot-path: end
            Message::Routed { to, inner } => {
                if to == self.id {
                    return self.classify(ctx, from, *inner, out);
                }
                match self.topology.next_hop(self.id, to) {
                    Some(nh) => {
                        let node = self.broker_nodes[nh.raw() as usize];
                        ctx.send(node, Message::Routed { to, inner });
                    }
                    None => debug_assert!(false, "routed message to self not unwrapped"),
                }
                None
            }
            Message::ClientAttach { client } => Some(BrokerOp::ClientAttach { client, node: from }),
            Message::ClientDetach { client } => Some(BrokerOp::ClientDetach { client }),
            Message::Subscribe { subscription } => {
                Some(BrokerOp::Subscribe { node: from, subscription })
            }
            Message::Unsubscribe { client, id } => Some(BrokerOp::Unsubscribe { client, id }),
            Message::SubForward { filter } => {
                Some(BrokerOp::NeighborSubscribe { node: from, filter })
            }
            Message::UnsubForward { filter } => {
                Some(BrokerOp::NeighborUnsubscribe { node: from, filter })
            }
            // Application-level, client-bound and mobility messages are not
            // broker business; they are silently ignored if misdelivered
            // (mobility traffic belongs to the replicators in front of the
            // brokers). Replica traffic is only meaningful to a replicated
            // wrapper ([`crate::replication::ReplicatedBrokerNode`]), which
            // intercepts it before this dispatch.
            Message::AppPublish { .. }
            | Message::AppSubscribe { .. }
            | Message::AppUnsubscribe { .. }
            | Message::Deliver { .. }
            | Message::Mobility(_)
            | Message::Replica(_) => None,
        }
    }

    /// Applies one mutation to the routing state and incrementally updates
    /// the affected announcements — the only place a [`BrokerOp`] touches
    /// the router. Deterministic, and idempotent at the table level (see
    /// the `oplog` module docs), so a recovery replay of a whole op log
    /// converges.
    pub fn apply(&mut self, ctx: &mut Ctx<'_, Message>, op: BrokerOp) {
        let delta = match op {
            BrokerOp::ClientAttach { client, node } => {
                self.router.attach_client(client, node);
                TableDelta::default()
            }
            BrokerOp::ClientDetach { client } => match self.router.detach_client(client) {
                // Drop the client's subscriptions and retract whatever
                // they alone were responsible for announcing.
                Some(entry) => {
                    // Digest order, not HashMap order: the announcer
                    // processes removals deterministically.
                    let mut removed: Vec<(FilterOrigin, Filter)> =
                        entry.subs.into_values().map(|f| (FilterOrigin::Client, f)).collect();
                    removed.sort_unstable_by_key(|(_, f)| f.digest());
                    TableDelta { added: Vec::new(), removed }
                }
                None => TableDelta::default(),
            },
            BrokerOp::Subscribe { node, subscription } => {
                // Subscribing implies attachment (first contact may race
                // the attach).
                let (client, id) = (subscription.client(), subscription.id());
                self.router.attach_client(client, node);
                self.router.subscribe_client(client, id, subscription.into_filter())
            }
            BrokerOp::Unsubscribe { client, id } => self.router.unsubscribe_client(client, id),
            BrokerOp::NeighborSubscribe { node, filter } => {
                self.router.neighbor_subscribe(node, filter)
            }
            BrokerOp::NeighborUnsubscribe { node, filter } => {
                self.router.neighbor_unsubscribe(node, filter.digest())
            }
            // Lifecycle markers of a replicated log: the routing table is
            // link-state independent (send-time gating lives in the
            // runtime).
            BrokerOp::LinkUp { node: _ } | BrokerOp::LinkDown { node: _ } => TableDelta::default(),
        };
        self.apply_delta(ctx, &delta);
    }

    /// Forwards a notification per routing table / strategy, appending the
    /// local deliveries to `out`. `from` is the link the notification
    /// arrived on and is excluded from forwarding.
    ///
    /// This is the per-notification hot path: the routing decision is
    /// computed into the broker's reusable [`RouteScratch`], the
    /// notification is shared by `Arc` across every forward and delivery
    /// (refcount bumps, no copies), and with warm buffers the whole call
    /// performs **zero** heap allocation.
    pub fn route_notification_into(
        &mut self,
        ctx: &mut Ctx<'_, Message>,
        from: NodeId,
        n: Arc<Notification>,
        out: &mut Outcome,
    ) {
        self.stats.notifications_routed += 1;
        self.router.route_into(&n, &mut self.scratch);
        self.stats.candidates_verified += self.scratch.verified;
        let mut forwards = 0u64;
        let forward_to: &[NodeId] =
            if self.strategy.is_flooding() { &self.neighbors } else { &self.scratch.neighbors };
        for nb in forward_to {
            if *nb != from {
                ctx.send(*nb, Message::Forward { notification: Arc::clone(&n) });
                forwards += 1;
            }
        }
        self.stats.forwards_sent += forwards;
        self.stats.local_deliveries += self.scratch.clients.len() as u64;
        for (client, node) in &self.scratch.clients {
            out.deliveries.push(LocalDelivery {
                client: *client,
                node: *node,
                notification: Arc::clone(&n),
            });
        }
    }

    /// The filters currently announced to `neighbor`, sorted by digest
    /// (equivalence testing and diagnostics). Read straight from the
    /// link's incremental announcer — the single source of truth. Empty
    /// under flooding, whose announcers are never fed.
    pub fn announced_filters(&self, neighbor: NodeId) -> Vec<Filter> {
        match self.neighbors.iter().position(|n| *n == neighbor) {
            Some(i) => self.announcers[i].announced(),
            None => Vec::new(),
        }
    }

    /// Applies one routing-table delta to the announcement state of every
    /// *affected* neighbour link and sends the announcer's net transitions
    /// as the wire diff (SubForward before UnsubForward, so coverage never
    /// has a gap — make-before-break over FIFO links).
    ///
    /// This is the churn hot path: a client filter touches every link, a
    /// neighbour's filter every link but its own, and per link the cost is
    /// the covering checks of one announcer mutation (none under simple
    /// routing) — never a recompute of the whole table.
    fn apply_delta(&mut self, ctx: &mut Ctx<'_, Message>, delta: &TableDelta) {
        if self.strategy.is_flooding() || delta.is_empty() {
            return;
        }
        for (i, announcer) in self.announcers.iter_mut().enumerate() {
            let nb = self.neighbors[i];
            let mut changes = CoverChanges::default();
            for (origin, f) in &delta.added {
                if origin.serves(nb) {
                    announcer.add(f, &mut changes);
                }
            }
            for (origin, f) in &delta.removed {
                if origin.serves(nb) {
                    announcer.remove(f, &mut changes);
                }
            }
            if changes.is_empty() {
                continue;
            }
            // The announcer's transitions *are* the wire diff — after
            // cancelling filters that both entered and left within this
            // delta (e.g. a multi-filter detach uncovers a filter with one
            // removal and removes it with the next). The net effect is the
            // symmetric difference of the before/after announced sets,
            // which is independent of the order removals were processed
            // in. A lone subscribe or unsubscribe has one side empty and
            // nothing to cancel.
            if !changes.entered.is_empty() && !changes.left.is_empty() {
                let entered_digests: HashSet<Digest> =
                    changes.entered.iter().map(Filter::digest).collect();
                let left_digests: HashSet<Digest> =
                    changes.left.iter().map(Filter::digest).collect();
                changes.entered.retain(|f| !left_digests.contains(&f.digest()));
                changes.left.retain(|f| !entered_digests.contains(&f.digest()));
            }
            // Sort for determinism, announce before retract.
            changes.entered.sort_unstable_by_key(Filter::digest);
            changes.left.sort_unstable_by_key(Filter::digest);
            self.stats.control_sent += (changes.entered.len() + changes.left.len()) as u64;
            for f in changes.entered {
                ctx.send(nb, Message::SubForward { filter: f });
            }
            for f in changes.left {
                ctx.send(nb, Message::UnsubForward { filter: f });
            }
        }
    }
}

/// A plain broker node: executes the core and sends local deliveries
/// straight to the client nodes — the pre-mobility REBECA broker, which is
/// also what the replicators of a mobile deployment sit in front of.
pub struct BrokerNode {
    core: BrokerCore,
    /// Reused across messages so dispatch allocates nothing steady-state.
    outcome: Outcome,
}

impl fmt::Debug for BrokerNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokerNode").field("core", &self.core).finish()
    }
}

impl BrokerNode {
    /// Wraps a routing core.
    pub fn new(core: BrokerCore) -> Self {
        BrokerNode { core, outcome: Outcome::default() }
    }

    /// Access to the routing core.
    pub fn core(&self) -> &BrokerCore {
        &self.core
    }
}

impl Node<Message> for BrokerNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Message>, from: NodeId, msg: Message) {
        self.outcome.clear();
        self.core.handle_into(ctx, from, msg, &mut self.outcome);
        for d in self.outcome.deliveries.drain(..) {
            ctx.send(d.node, Message::Deliver { client: d.client, notification: d.notification });
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
