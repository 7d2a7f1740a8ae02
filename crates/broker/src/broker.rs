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
//! [`BrokerCore::classify`] re-expresses a mutating message as
//! [`BrokerOp`]s, [`BrokerCore::apply`] applies an op. What happens in
//! between is the wrapper's business — nothing ([`BrokerNode`], via
//! [`BrokerCore::handle_into`]) or a replica-group commit
//! ([`ReplicatedBrokerNode`](crate::ReplicatedBrokerNode)).
//!
//! Announcements travel as sets. Applying an op stages the transitions of
//! each link's announced set; one flush then sends each link's *net*
//! change as one [`SubForward`](Message::SubForward) list followed by one
//! [`UnsubForward`](Message::UnsubForward) list. [`BrokerCore::apply`]
//! flushes after its single op; the replicated wrapper stages a whole
//! committed batch and flushes once, so a batch of re-subscriptions costs
//! two messages per link, not two per filter.

use crate::message::{Filters, Message};
use crate::replication::{BrokerOp, MAX_BATCH_OPS};
use crate::routing::{CoverChanges, LinkAnnouncer, RoutingStrategy};
use crate::shard::ShardedRouter;
use crate::table::{FilterOrigin, RouteScratch, TableDelta};
use rebeca_core::{BrokerId, ClientId, Digest, Filter, Notification, SharedInterner};
use rebeca_net::{Ctx, Node, NodeId, Topology};
use std::collections::HashMap;
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
    /// Filters announced or retracted to neighbour brokers: the length of
    /// every `SubForward`/`UnsubForward` list sent, summed — filters, not
    /// messages.
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
    /// The mutations [`BrokerCore::classify`] found in the message, in
    /// message order (one per filter of an announcement list), for the
    /// wrapper to apply or submit. [`BrokerCore::handle_into`] applies and
    /// empties it.
    pub ops: Vec<BrokerOp>,
}

impl Outcome {
    /// Empties the buffers, keeping their capacity for reuse.
    pub fn clear(&mut self) {
        self.deliveries.clear();
        self.ops.clear();
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
    /// The announcers' transitions since the last flush, one accumulator
    /// per neighbour (same order), kept across flushes for their capacity.
    staged: Vec<CoverChanges>,
    /// Reused per-digest net count of one link's staged transitions.
    net: HashMap<Digest, i32>,
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
        let staged = neighbors.iter().map(|_| CoverChanges::default()).collect();
        BrokerCore {
            id,
            strategy,
            topology,
            broker_nodes,
            neighbors,
            router: ShardedRouter::with_interner(shards, interner),
            announcers,
            staged,
            net: HashMap::new(),
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
    /// the dispatch loop allocation-free). The message's mutations are
    /// applied on the spot, as one batch; a wrapper that must do something
    /// else with them first (submit them to a replicated log) calls
    /// [`BrokerCore::classify`] itself.
    pub fn handle_into(
        &mut self,
        ctx: &mut Ctx<'_, Message>,
        from: NodeId,
        msg: Message,
        out: &mut Outcome,
    ) {
        self.classify(ctx, from, msg, out);
        if !out.ops.is_empty() {
            for op in out.ops.drain(..) {
                self.stage(op);
            }
            self.flush(ctx);
        }
    }

    /// Does everything a message asks for *except* mutating the routing
    /// state, and appends the mutations to `out.ops` — the message
    /// re-expressed as [`BrokerOp`]s, with `from` as each op's `node`, one
    /// per filter of an announcement list — for the caller to
    /// [`apply`](BrokerCore::apply) now or once a replica group has
    /// committed them. Notifications are routed (the read path), `Routed`
    /// envelopes are unwrapped here or forwarded towards their target.
    /// This is the only place a `Message` turns into a `BrokerOp`.
    pub fn classify(
        &mut self,
        ctx: &mut Ctx<'_, Message>,
        from: NodeId,
        msg: Message,
        out: &mut Outcome,
    ) {
        let op = match msg {
            // hot-path: begin — the per-notification read path: match,
            // route, fan out. Never a mutation, so it never reaches a
            // replica, an op log or a lock; its zero-allocation property is
            // asserted end to end by crates/bench/tests/alloc_regression.rs.
            Message::Publish { notification } | Message::Forward { notification } => {
                self.route_notification_into(ctx, from, notification, out);
                return;
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
                return;
            }
            Message::ClientAttach { client } => BrokerOp::ClientAttach { client, node: from },
            Message::ClientDetach { client } => BrokerOp::ClientDetach { client },
            Message::Subscribe { subscription } => BrokerOp::Subscribe { node: from, subscription },
            Message::Unsubscribe { client, id } => BrokerOp::Unsubscribe { client, id },
            Message::SubForward { filters } => {
                let ops = filters
                    .into_iter()
                    .map(|filter| BrokerOp::NeighborSubscribe { node: from, filter });
                out.ops.extend(ops);
                return;
            }
            Message::UnsubForward { filters } => {
                let ops = filters
                    .into_iter()
                    .map(|filter| BrokerOp::NeighborUnsubscribe { node: from, filter });
                out.ops.extend(ops);
                return;
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
            | Message::Replica(_) => return,
        };
        out.ops.push(op);
    }

    /// Applies one mutation to the routing state and sends the change it
    /// made to each link's announced set: the batch path (stage every op,
    /// then flush once) with a batch of one. Deterministic, and idempotent
    /// at the table level (see the `oplog` module docs), so a recovery
    /// replay of a whole op log converges.
    pub fn apply(&mut self, ctx: &mut Ctx<'_, Message>, op: BrokerOp) {
        self.stage(op);
        self.flush(ctx);
    }

    /// Applies one mutation to the routing state and stages the
    /// transitions it causes in each affected link's announced set, to be
    /// sent by the next [`BrokerCore::flush`] — the only place a
    /// [`BrokerOp`] touches the router.
    pub(crate) fn stage(&mut self, op: BrokerOp) {
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
        self.stage_delta(&delta);
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

    /// Feeds one routing-table delta to the announcer of every *affected*
    /// neighbour link, appending the announced-set transitions to that
    /// link's staged changes — one op's worth sorted by digest, after
    /// whatever earlier ops of the batch staged.
    ///
    /// This is the churn hot path: a client filter touches every link, a
    /// neighbour's filter every link but its own, and per link the cost is
    /// the covering checks of one announcer mutation (none under simple
    /// routing) — never a recompute of the whole table.
    fn stage_delta(&mut self, delta: &TableDelta) {
        if self.strategy.is_flooding() || delta.is_empty() {
            return;
        }
        let links = self.announcers.iter_mut().zip(&mut self.staged).zip(&self.neighbors);
        for ((announcer, staged), &nb) in links {
            let (entered, left) = (staged.entered.len(), staged.left.len());
            for (origin, f) in &delta.added {
                if origin.serves(nb) {
                    announcer.add(f, staged);
                }
            }
            for (origin, f) in &delta.removed {
                if origin.serves(nb) {
                    announcer.remove(f, staged);
                }
            }
            staged.entered[entered..].sort_unstable_by_key(Filter::digest);
            staged.left[left..].sort_unstable_by_key(Filter::digest);
        }
    }

    /// Sends every link's staged net change and empties the accumulators:
    /// one `SubForward` list, then one `UnsubForward` list (so coverage
    /// never has a gap — make-before-break over FIFO links), each chunked
    /// at [`MAX_BATCH_OPS`] filters so a receiver logs one message as at
    /// most one `Prepare`. The net change is the symmetric difference of
    /// the link's announced set before the first staged op and after the
    /// last, in the order of the ops that caused it.
    pub(crate) fn flush(&mut self, ctx: &mut Ctx<'_, Message>) {
        for (staged, &nb) in self.staged.iter_mut().zip(&self.neighbors) {
            if staged.is_empty() {
                continue;
            }
            net_change(staged, &mut self.net);
            self.stats.control_sent += (staged.entered.len() + staged.left.len()) as u64;
            send_lists(ctx, nb, &mut staged.entered, |filters| Message::SubForward { filters });
            send_lists(ctx, nb, &mut staged.left, |filters| Message::UnsubForward { filters });
        }
    }
}

/// Reduces one link's staged transitions to its net change. An announcer
/// reports each filter's transitions alternately (it can only leave the
/// announced set after entering it, and vice versa), so a filter's count
/// — +1 per entry, −1 per exit — nets to +1 (announce it), −1 (retract it)
/// or 0 (the neighbour's view is unchanged: nothing to send). A filter
/// that nets to ±1 goes out at its *last* transition, so each list keeps
/// the order of the ops that caused it. With one side empty no filter can
/// repeat, and there is nothing to cancel.
fn net_change(staged: &mut CoverChanges, net: &mut HashMap<Digest, i32>) {
    if staged.entered.is_empty() || staged.left.is_empty() {
        return;
    }
    net.clear();
    for f in &staged.entered {
        *net.entry(f.digest()).or_default() += 1;
    }
    for f in &staged.left {
        *net.entry(f.digest()).or_default() -= 1;
    }
    keep_last_with(&mut staged.entered, net, 1);
    keep_last_with(&mut staged.left, net, -1);
}

/// Keeps, in order, the last occurrence of every filter whose net count is
/// `count`. Walking from the back, a filter is kept at its first visit and
/// its count zeroed, so earlier occurrences drop.
fn keep_last_with(filters: &mut Vec<Filter>, net: &mut HashMap<Digest, i32>, count: i32) {
    filters.reverse();
    filters.retain(|f| {
        let n = net.get_mut(&f.digest()).expect("every staged filter is counted");
        debug_assert!((-1..=1).contains(n), "announcer transitions alternate per filter");
        let keep = *n == count;
        if keep {
            *n = 0;
        }
        keep
    });
    filters.reverse();
}

/// Sends `filters` to `nb` as lists of at most [`MAX_BATCH_OPS`], leaving
/// the (now empty) buffer's capacity for the next batch.
fn send_lists(
    ctx: &mut Ctx<'_, Message>,
    nb: NodeId,
    filters: &mut Vec<Filter>,
    list: fn(Filters) -> Message,
) {
    while !filters.is_empty() {
        let n = filters.len().min(MAX_BATCH_OPS);
        ctx.send(nb, list(filters.drain(..n).collect()));
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

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_core::{SimTime, Subscription, SubscriptionId};

    const CLIENT: ClientId = ClientId::new(1);
    /// The neighbour the middle broker of a 3-line announces to on node 2.
    const NB: NodeId = NodeId::new(2);

    /// The middle broker of a 3-line (neighbours at nodes 0 and 2).
    fn middle() -> BrokerCore {
        let topology = Arc::new(Topology::line(3).expect("valid line"));
        let nodes = Arc::new((0..3).map(NodeId::new).collect());
        BrokerCore::new(BrokerId::new(1), topology, nodes, RoutingStrategy::Simple)
    }

    fn filter(v: i64) -> Filter {
        Filter::builder().eq("k", v).build()
    }

    fn sub(id: u32, f: &Filter) -> BrokerOp {
        let subscription = Subscription::new(SubscriptionId::new(id), CLIENT, f.clone());
        BrokerOp::Subscribe { node: NodeId::new(10), subscription }
    }

    fn unsub(id: u32) -> BrokerOp {
        BrokerOp::Unsubscribe { client: CLIENT, id: SubscriptionId::new(id) }
    }

    /// Stages `ops` as one batch and flushes it; returns what went to
    /// [`NB`], each list as `(announced?, digests)`.
    fn batch(core: &mut BrokerCore, ops: Vec<BrokerOp>) -> Vec<(bool, Vec<Digest>)> {
        let mut next_timer = 0;
        let link_up = |_: NodeId, _: NodeId| true;
        let mut ctx = Ctx::standalone(SimTime::ZERO, NodeId::new(1), &mut next_timer, &link_up);
        for op in ops {
            core.stage(op);
        }
        core.flush(&mut ctx);
        let digests = |fs: &[Filter]| fs.iter().map(Filter::digest).collect();
        ctx.sent()
            .filter(|(to, _)| *to == NB)
            .map(|(_, m)| match m {
                Message::SubForward { filters } => (true, digests(filters)),
                Message::UnsubForward { filters } => (false, digests(filters)),
                other => panic!("a flush sends announcements only: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn enter_leave_enter_in_one_batch_is_announced_once_at_its_last_entry() {
        let (x, y) = (filter(1), filter(2));
        let mut core = middle();
        let sent = batch(&mut core, vec![sub(1, &x), sub(3, &y), unsub(1), sub(2, &x)]);
        assert_eq!(sent, [(true, vec![y.digest(), x.digest()])]);
        assert_eq!(core.announced_filters(NB).len(), 2);
        assert_eq!(core.stats().control_sent, 4, "two filters to each of two links");
    }

    #[test]
    fn leave_enter_in_one_batch_sends_nothing() {
        let x = filter(1);
        let mut core = middle();
        assert_eq!(batch(&mut core, vec![sub(1, &x)]), [(true, vec![x.digest()])]);
        assert_eq!(batch(&mut core, vec![unsub(1), sub(2, &x)]), []);
        assert_eq!(core.announced_filters(NB), [x]);
    }

    #[test]
    fn enter_leave_in_one_batch_sends_nothing() {
        let x = filter(1);
        let mut core = middle();
        assert_eq!(batch(&mut core, vec![sub(1, &x), unsub(1)]), []);
        assert!(core.announced_filters(NB).is_empty());
    }

    #[test]
    fn net_changes_keep_op_order_and_digest_order_within_an_op() {
        let fs: Vec<Filter> = (0..6).map(filter).collect();
        let mut core = middle();
        batch(&mut core, fs[..3].iter().enumerate().map(|(i, f)| sub(i as u32, f)).collect());
        // A detach retracts three filters in one op, then three subscribes
        // by another client follow as three ops.
        let mut ops = vec![BrokerOp::ClientDetach { client: CLIENT }];
        for (i, f) in fs[3..].iter().enumerate() {
            let subscription =
                Subscription::new(SubscriptionId::new(i as u32), ClientId::new(2), f.clone());
            ops.push(BrokerOp::Subscribe { node: NodeId::new(11), subscription });
        }
        let mut retracted: Vec<Digest> = fs[..3].iter().map(Filter::digest).collect();
        retracted.sort_unstable();
        let announced: Vec<Digest> = fs[3..].iter().map(Filter::digest).collect();
        assert_eq!(batch(&mut core, ops), [(true, announced), (false, retracted)]);
    }
}
