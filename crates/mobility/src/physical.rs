//! Physical mobility: the relocation protocol (location transparency).
//!
//! "When implementing physical mobility, a complex reconfiguration
//! algorithm combined with a certain amount of buffering ensures that a
//! relocated client receives a transparent, uninterrupted flow of
//! notifications matching his subscriptions" (paper §1, referring to
//! Zeidler/Fiege \[8\]). [`MobileBrokerNode`] implements the border-broker
//! side:
//!
//! * deliveries to a client whose wireless link is down are **buffered**
//!   (the broker is connection-aware — it never silently drops);
//! * when the client re-attaches elsewhere and its `MoveIn` arrives, the
//!   new border broker re-installs the subscriptions, **holds back** live
//!   matches, and fetches the old broker's buffer through the tree
//!   ([`MobilityMsg::FetchBuffered`] / [`MobilityMsg::BufferedBatch`]);
//! * replay is delivered first, then the hold-back queue, then live flow —
//!   preserving per-publisher FIFO without loss; the client library
//!   suppresses the (rare) duplicates;
//! * relocation buffers expire after a TTL ("it will probably be
//!   acceptable for users to expect some form of degraded service after
//!   long periods of disconnection", §4).
//!
//! Logical mobility (reactive flavour, \[5\]) is folded in: when
//! `resolve_myloc` is enabled, location-dependent filters arriving at this
//! broker are resolved against its [`LocationMap`] scope — adaptation
//! happens at arrival time, which is exactly the baseline that
//! pre-subscriptions improve on.

use crate::location::LocationMap;
use rebeca_broker::{BrokerCore, BrokerOp, Message, MobilityMsg, Outcome};
use rebeca_core::{BrokerId, ClientId, Notification, SimDuration, SimTime, Subscription};
use rebeca_net::{Ctx, Node, NodeId};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Relocation state shared by broker-side and replicator-side mobility:
/// per-client buffers for the disconnected, hold-back queues for the
/// arriving.
#[derive(Debug, Default)]
pub struct RelocationBuffers {
    buffering: HashMap<ClientId, (SimTime, Vec<Arc<Notification>>)>,
    holdback: HashMap<ClientId, Vec<Arc<Notification>>>,
    /// Clients whose hand-off is draining: stragglers still in flight are
    /// forwarded to the new border until the grace period ends
    /// (make-before-break).
    draining: HashMap<ClientId, BrokerId>,
    /// Total notifications ever buffered (metric).
    pub total_buffered: u64,
    /// Total notifications replayed to arriving clients (metric).
    pub total_replayed: u64,
    /// Buffers dropped by TTL expiry (metric).
    pub expired: u64,
}

impl RelocationBuffers {
    /// Creates empty relocation state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers a notification for a disconnected client (shared, not
    /// copied).
    pub fn buffer(&mut self, now: SimTime, client: ClientId, n: Arc<Notification>) {
        self.buffering.entry(client).or_insert_with(|| (now, Vec::new())).1.push(n);
        self.total_buffered += 1;
    }

    /// Takes (and removes) the buffer of a client.
    pub fn take_buffer(&mut self, client: ClientId) -> Vec<Arc<Notification>> {
        self.buffering.remove(&client).map(|(_, v)| v).unwrap_or_default()
    }

    /// Returns `true` while `client` has an active hold-back queue (i.e.
    /// its relocation replay has not completed yet).
    pub fn is_arriving(&self, client: ClientId) -> bool {
        self.holdback.contains_key(&client)
    }

    /// Opens a hold-back queue for an arriving client.
    pub fn begin_arrival(&mut self, client: ClientId) {
        self.holdback.entry(client).or_default();
    }

    /// Appends a live notification to an arriving client's hold-back queue.
    pub fn hold_back(&mut self, client: ClientId, n: Arc<Notification>) {
        self.holdback.entry(client).or_default().push(n);
    }

    /// Closes the hold-back queue, returning its contents for delivery.
    pub fn finish_arrival(&mut self, client: ClientId) -> Vec<Arc<Notification>> {
        self.holdback.remove(&client).unwrap_or_default()
    }

    /// Marks a client as draining towards its new border broker.
    pub fn begin_drain(&mut self, client: ClientId, new_border: BrokerId) {
        self.draining.insert(client, new_border);
    }

    /// The drain target of a client, if it is draining.
    pub fn drain_target(&self, client: ClientId) -> Option<BrokerId> {
        self.draining.get(&client).copied()
    }

    /// Ends the drain of a client. Returns its target if it was draining.
    pub fn finish_drain(&mut self, client: ClientId) -> Option<BrokerId> {
        self.draining.remove(&client)
    }

    /// Drops buffers older than `ttl`; returns the expired clients.
    pub fn expire(&mut self, now: SimTime, ttl: SimDuration) -> Vec<ClientId> {
        let cutoff = now - ttl;
        let expired: Vec<ClientId> = self
            .buffering
            .iter()
            .filter(|(_, (since, _))| *since < cutoff)
            .map(|(c, _)| *c)
            .collect();
        for c in &expired {
            self.buffering.remove(c);
            self.expired += 1;
        }
        expired
    }

    /// Number of clients currently being buffered for.
    pub fn buffering_count(&self) -> usize {
        self.buffering.len()
    }

    /// Total notifications currently sitting in relocation buffers.
    pub fn buffered_notifications(&self) -> usize {
        self.buffering.values().map(|(_, v)| v.len()).sum()
    }
}

/// Configuration of a mobility-aware border broker.
#[derive(Debug, Clone)]
pub struct MobileBrokerConfig {
    /// Resolve `myloc` markers against this broker's location scope when
    /// subscriptions arrive (reactive logical mobility). When `false`,
    /// location-dependent filters stay unresolved and match nothing — the
    /// pure physical-mobility deployment.
    pub resolve_myloc: bool,
    /// How long to buffer for a disconnected client before giving up.
    pub relocation_ttl: SimDuration,
    /// Sweep interval for TTL enforcement.
    pub sweep_interval: SimDuration,
    /// Grace period after `FetchBuffered` during which the old border
    /// keeps the relocated client's subscriptions and forwards in-flight
    /// stragglers to the new border — the make-before-break window that
    /// makes relocation lossless.
    pub handover_grace: SimDuration,
    /// Byte budget of one `BufferedBatch` chunk: a relocation buffer
    /// larger than this is paged into several messages (see
    /// [`crate::paging`]) so it cannot head-of-line-block a link.
    pub max_batch_bytes: usize,
}

impl Default for MobileBrokerConfig {
    fn default() -> Self {
        MobileBrokerConfig {
            resolve_myloc: true,
            relocation_ttl: SimDuration::from_secs(300),
            sweep_interval: SimDuration::from_secs(5),
            handover_grace: SimDuration::from_millis(100),
            max_batch_bytes: crate::paging::DEFAULT_MAX_BATCH_BYTES,
        }
    }
}

/// Timer tags: the periodic sweep vs. per-client drain expiry.
const SWEEP_TAG: u64 = 0;
const DRAIN_TAG_BASE: u64 = 1 << 32;

/// A border broker with physical-mobility support (and optional reactive
/// logical mobility), wrapping the plain routing core.
pub struct MobileBrokerNode {
    core: BrokerCore,
    locations: Arc<LocationMap>,
    config: MobileBrokerConfig,
    reloc: RelocationBuffers,
    /// Clients attached here (client → device node), tracked for
    /// connection-awareness.
    devices: HashMap<ClientId, NodeId>,
    /// Reused across messages so dispatch allocates nothing steady-state.
    outcome: Outcome,
}

impl fmt::Debug for MobileBrokerNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MobileBrokerNode")
            .field("broker", &self.core.id())
            .field("buffering", &self.reloc.buffering_count())
            .finish()
    }
}

impl MobileBrokerNode {
    /// Wraps a routing core with mobility behaviour.
    pub fn new(core: BrokerCore, locations: Arc<LocationMap>, config: MobileBrokerConfig) -> Self {
        MobileBrokerNode {
            core,
            locations,
            config,
            reloc: RelocationBuffers::new(),
            devices: HashMap::new(),
            outcome: Outcome::default(),
        }
    }

    /// The routing core (tables, stats).
    pub fn core(&self) -> &BrokerCore {
        &self.core
    }

    /// The relocation state (metrics).
    pub fn relocation(&self) -> &RelocationBuffers {
        &self.reloc
    }

    fn my_id(&self) -> BrokerId {
        self.core.id()
    }

    /// Resolves a subscription for installation at *this* broker.
    fn localize(&self, sub: Subscription) -> Subscription {
        if self.config.resolve_myloc {
            self.locations.resolve_subscription(&sub, self.my_id())
        } else {
            sub
        }
    }

    /// The mobility layer's share of a mutation — track the client's
    /// device for connection-awareness, localize a subscription — and then
    /// the routing core's one [`BrokerCore::apply`].
    fn apply(&mut self, ctx: &mut Ctx<'_, Message>, op: BrokerOp) {
        let op = match op {
            BrokerOp::ClientAttach { client, node } => {
                self.devices.insert(client, node);
                op
            }
            BrokerOp::ClientDetach { client } => {
                self.devices.remove(&client);
                op
            }
            BrokerOp::Subscribe { node, subscription } => {
                self.devices.insert(subscription.client(), node);
                BrokerOp::Subscribe { node, subscription: self.localize(subscription) }
            }
            BrokerOp::Unsubscribe { .. }
            | BrokerOp::NeighborSubscribe { .. }
            | BrokerOp::NeighborUnsubscribe { .. }
            | BrokerOp::LinkUp { .. }
            | BrokerOp::LinkDown { .. } => op,
        };
        self.core.apply(ctx, op);
    }

    fn deliver_or_buffer(
        &mut self,
        ctx: &mut Ctx<'_, Message>,
        client: ClientId,
        node: NodeId,
        n: Arc<Notification>,
    ) {
        if let Some(new_border) = self.reloc.drain_target(client) {
            // Straggler that was already in flight towards us when the
            // hand-off began: forward it to the new border.
            let msg = Message::Mobility(MobilityMsg::BufferedBatch {
                client,
                notifications: vec![n],
                complete: false,
            });
            self.send_routed(ctx, new_border, msg);
        } else if self.reloc.is_arriving(client) {
            self.reloc.hold_back(client, n);
        } else if ctx.link_up(node) {
            ctx.send(node, Message::Deliver { client, notification: n });
        } else {
            self.reloc.buffer(ctx.now(), client, n);
        }
    }

    fn handle_mobility(&mut self, ctx: &mut Ctx<'_, Message>, from: NodeId, msg: MobilityMsg) {
        match msg {
            MobilityMsg::MoveIn { client, old_border, subscriptions, epoch: _ } => {
                self.apply(ctx, BrokerOp::ClientAttach { client, node: from });
                for subscription in subscriptions {
                    self.apply(ctx, BrokerOp::Subscribe { node: from, subscription });
                }
                match old_border {
                    Some(old) if old == self.my_id() => {
                        // Reconnected at the same broker: replay our own
                        // buffer directly (shared allocations, no copies).
                        for n in self.reloc.take_buffer(client) {
                            ctx.send(from, Message::Deliver { client, notification: n });
                        }
                    }
                    Some(old) => {
                        self.reloc.begin_arrival(client);
                        let fetch = Message::Mobility(MobilityMsg::FetchBuffered {
                            client,
                            new_border: self.my_id(),
                        });
                        self.send_routed(ctx, old, fetch);
                    }
                    None => {}
                }
            }
            MobilityMsg::FetchBuffered { client, new_border } => {
                let batch = self.reloc.take_buffer(client);
                // Ship the buffer, but keep the subscriptions alive for a
                // grace period so in-flight notifications still headed our
                // way are forwarded instead of lost (make-before-break).
                self.devices.remove(&client);
                self.reloc.begin_drain(client, new_border);
                // Page the buffer: all chunks `complete: false` — the
                // drain-expiry timer sends the terminating chunk after the
                // make-before-break grace period.
                for page in crate::paging::pages(batch, self.config.max_batch_bytes) {
                    let reply = Message::Mobility(MobilityMsg::BufferedBatch {
                        client,
                        notifications: page,
                        complete: false,
                    });
                    self.send_routed(ctx, new_border, reply);
                }
                ctx.set_timer(self.config.handover_grace, DRAIN_TAG_BASE + u64::from(client.raw()));
            }
            MobilityMsg::BufferedBatch { client, notifications, complete } => {
                if let Some(&node) = self.devices.get(&client) {
                    for n in notifications {
                        self.reloc.total_replayed += 1;
                        ctx.send(node, Message::Deliver { client, notification: n });
                    }
                    if complete {
                        for n in self.reloc.finish_arrival(client) {
                            ctx.send(node, Message::Deliver { client, notification: n });
                        }
                    }
                } else if complete {
                    // Client vanished again mid-relocation; the hold-back
                    // queue becomes a fresh relocation buffer.
                    let now = ctx.now();
                    for n in self.reloc.finish_arrival(client) {
                        self.reloc.buffer(now, client, n);
                    }
                }
            }
            // Replicator traffic is not for the broker layer.
            _ => {}
        }
    }

    /// Ships a control message hop-by-hop through the broker tree by
    /// letting the routing core process a `Routed` envelope (it forwards
    /// towards the next hop).
    fn send_routed(&mut self, ctx: &mut Ctx<'_, Message>, target: BrokerId, inner: Message) {
        debug_assert_ne!(target, self.my_id(), "same-broker case handled locally");
        let out = self.core.handle(ctx, NodeId::EXTERNAL, Message::routed(target, inner));
        debug_assert!(out.deliveries.is_empty() && out.unhandled.is_empty());
    }
}

impl Node<Message> for MobileBrokerNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Message>) {
        ctx.set_timer(self.config.sweep_interval, 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Message>, from: NodeId, msg: Message) {
        // Reusable buffer: capacity survives across messages, so the
        // steady-state dispatch loop allocates nothing.
        let mut outcome = std::mem::take(&mut self.outcome);
        outcome.clear();
        if let Some(op) = self.core.classify(ctx, from, msg, &mut outcome) {
            self.apply(ctx, op);
        }
        for d in outcome.deliveries.drain(..) {
            self.deliver_or_buffer(ctx, d.client, d.node, d.notification);
        }
        for (peer, m) in outcome.unhandled.drain(..) {
            self.handle_mobility(ctx, peer, m);
        }
        self.outcome = outcome;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Message>, _timer: rebeca_net::TimerId, tag: u64) {
        if tag >= DRAIN_TAG_BASE {
            // Drain grace expired: retire the relocated client for good and
            // signal completion to the new border.
            let client = ClientId::new((tag - DRAIN_TAG_BASE) as u32);
            if let Some(new_border) = self.reloc.finish_drain(client) {
                self.core.apply(ctx, BrokerOp::ClientDetach { client });
                let done = Message::Mobility(MobilityMsg::BufferedBatch {
                    client,
                    notifications: Vec::new(),
                    complete: true,
                });
                self.send_routed(ctx, new_border, done);
            }
            return;
        }
        debug_assert_eq!(tag, SWEEP_TAG);
        let expired = self.reloc.expire(ctx.now(), self.config.relocation_ttl);
        for client in expired {
            // Degraded service after long disconnection: drop state.
            self.apply(ctx, BrokerOp::ClientDetach { client });
        }
        ctx.set_timer(self.config.sweep_interval, SWEEP_TAG);
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
    use rebeca_core::{ClientId, Notification};

    fn note(i: u64) -> Arc<Notification> {
        Arc::new(Notification::builder().attr("i", i as i64).publish(
            ClientId::new(9),
            i,
            SimTime::from_secs(i),
        ))
    }

    #[test]
    fn buffer_take_cycle() {
        let mut r = RelocationBuffers::new();
        let c = ClientId::new(1);
        r.buffer(SimTime::ZERO, c, note(0));
        r.buffer(SimTime::ZERO, c, note(1));
        assert_eq!(r.buffering_count(), 1);
        assert_eq!(r.buffered_notifications(), 2);
        let batch = r.take_buffer(c);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].seq(), 0, "FIFO order");
        assert!(r.take_buffer(c).is_empty());
        assert_eq!(r.total_buffered, 2);
    }

    #[test]
    fn holdback_cycle() {
        let mut r = RelocationBuffers::new();
        let c = ClientId::new(1);
        assert!(!r.is_arriving(c));
        r.begin_arrival(c);
        assert!(r.is_arriving(c));
        r.hold_back(c, note(5));
        let flushed = r.finish_arrival(c);
        assert_eq!(flushed.len(), 1);
        assert!(!r.is_arriving(c));
        assert!(r.finish_arrival(c).is_empty());
    }

    #[test]
    fn ttl_expiry() {
        let mut r = RelocationBuffers::new();
        let (c1, c2) = (ClientId::new(1), ClientId::new(2));
        r.buffer(SimTime::from_secs(0), c1, note(0));
        r.buffer(SimTime::from_secs(50), c2, note(1));
        let expired = r.expire(SimTime::from_secs(60), SimDuration::from_secs(30));
        assert_eq!(expired, vec![c1]);
        assert_eq!(r.buffering_count(), 1);
        assert_eq!(r.expired, 1);
        assert!(r.take_buffer(c1).is_empty());
        assert_eq!(r.take_buffer(c2).len(), 1);
    }
}
