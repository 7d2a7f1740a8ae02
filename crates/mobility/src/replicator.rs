//! The replicator layer: pre-subscriptions and virtual clients (paper §3).
//!
//! One [`ReplicatorNode`] sits in front of every border broker, offering
//! the same interface as the broker ("the replicator process is transparent
//! to virtual clients"). It maintains, per mobile application, a
//! [`VirtualClient`] — and, using the movement graph's `nlb` neighbourhood,
//! keeps identical *buffering* virtual clients alive on every broker the
//! client may reach next:
//!
//! * **Client setup** (§3.2.1) — on first attachment, replicas of the
//!   virtual client (with the same location-dependent subscriptions,
//!   resolved per target location) are created on all brokers in `nlb(b)`.
//! * **Client operation** (§3.2.2) — `publish`/`notify` pass through;
//!   location-dependent `subscribe`/`unsubscribe` are mirrored to the
//!   neighbourhood.
//! * **Client handover** (§3.2.3) — the replicator at the new broker
//!   replays its virtual client's buffer ("for the client this is
//!   equivalent to a subscription in the past"), then reconciles the
//!   replica set: create on `newset \ oldset`, delete on `oldset \ newset`.
//! * **Client removal** (§3.2.4) — the virtual client and all its replicas
//!   are garbage-collected.
//!
//! The §4 research items are implemented as configuration: k-hop
//! neighbourhoods ([`ReplicatorConfig::k_hops`]), pluggable buffering
//! policies ([`BufferSpec`]), the shared digest buffer
//! ([`ReplicatorConfig::shared_buffer`]), and the *exception mode*: a
//! client popping up at an uncovered broker gets a virtual client created
//! on the fly plus a buffer fetched from its previous replicator.
//!
//! Physical mobility of the client's non-location-dependent subscriptions
//! is handled at this layer too (the replicator is the connection-aware
//! edge), via [`RelocationBuffers`] — the brokers below stay completely
//! mobility-unaware. With `k_hops: 0` that is all this layer does: the
//! reactive baseline.

use crate::buffer::{BufferSpec, ReplayBuffer, SharedBuffer};
use crate::location::LocationMap;
use crate::movement::MovementGraph;
use crate::physical::RelocationBuffers;
use rebeca_broker::{Message, MobilityMsg};
use rebeca_core::{
    ApplicationId, BrokerId, ClientId, Digest, Filter, Notification, SimDuration, SimTime,
    Subscription, SubscriptionId,
};
use rebeca_net::{Ctx, Node, NodeId};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Derives the application identity from its device client (one
/// application per mobile client).
pub fn app_of(client: ClientId) -> ApplicationId {
    ApplicationId::new(client.raw())
}

/// The synthetic client id a virtual client uses at its local broker.
///
/// Virtual clients live in a separate id namespace (high bit set) so they
/// can never collide with real clients.
///
/// # Panics
///
/// Panics if `app.raw() >= 2^19` or `broker.raw() >= 2^12`.
pub fn virtual_client_id(app: ApplicationId, broker: BrokerId) -> ClientId {
    assert!(app.raw() < (1 << 19), "application id too large for vc namespace");
    assert!(broker.raw() < (1 << 12), "broker id too large for vc namespace");
    ClientId::new(0x8000_0000 | (app.raw() << 12) | broker.raw())
}

/// Buffer of one virtual client: private per-VC storage or digests into
/// the broker-wide [`SharedBuffer`].
#[derive(Debug)]
enum VcBuffer {
    Private(ReplayBuffer),
    Shared(VecDeque<(SimTime, Digest)>),
}

/// A virtual client: the "information shadow" of a mobile application at
/// one border broker.
#[derive(Debug)]
pub struct VirtualClient {
    app: ApplicationId,
    device: ClientId,
    vc_id: ClientId,
    /// Location-dependent subscriptions, markers unresolved (each replica
    /// resolves them for its own broker's scope).
    subs: HashMap<SubscriptionId, Filter>,
    /// The device node while this virtual client is the *active* one.
    active_node: Option<NodeId>,
    buffer: VcBuffer,
    replays: u64,
}

impl VirtualClient {
    /// The application this virtual client shadows.
    pub fn app(&self) -> ApplicationId {
        self.app
    }

    /// The synthetic client id used at the local broker.
    pub fn vc_id(&self) -> ClientId {
        self.vc_id
    }

    /// Returns `true` while the mobile device is attached through this
    /// virtual client.
    pub fn is_active(&self) -> bool {
        self.active_node.is_some()
    }

    /// Number of currently buffered notifications.
    pub fn buffered(&self) -> usize {
        match &self.buffer {
            VcBuffer::Private(b) => b.len(),
            VcBuffer::Shared(d) => d.len(),
        }
    }

    /// Notifications replayed to the device by this virtual client.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// The mirrored location-dependent subscription ids.
    pub fn subscription_ids(&self) -> Vec<SubscriptionId> {
        let mut v: Vec<_> = self.subs.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

/// Configuration of the replicator layer.
#[derive(Debug, Clone)]
pub struct ReplicatorConfig {
    /// Radius of the pre-subscription neighbourhood (`nlb^k`); `1` is the
    /// paper's `nlb`, `0` disables replication (pure reactive behaviour),
    /// larger values trade bandwidth for coverage (§4).
    pub k_hops: u32,
    /// Buffering policy of virtual clients.
    pub buffer: BufferSpec,
    /// Use the shared digest buffer instead of private per-VC buffers.
    /// (Semantic policies fall back to unbounded in shared mode.)
    pub shared_buffer: bool,
    /// TTL for relocation buffers of disconnected clients.
    pub relocation_ttl: SimDuration,
    /// Housekeeping interval (buffer GC, TTL sweeps).
    pub sweep_interval: SimDuration,
    /// Make-before-break window of the relocation hand-off: after
    /// `FetchBuffered` the old replicator keeps forwarding in-flight
    /// stragglers to the new one this long before it retires the client.
    pub handover_grace: SimDuration,
    /// Byte budget of one `BufferedBatch`/`ReplicaBatch` chunk: a handover
    /// buffer larger than this is paged into several messages (see
    /// [`crate::paging`]) so it cannot head-of-line-block a link.
    pub max_batch_bytes: usize,
}

impl Default for ReplicatorConfig {
    fn default() -> Self {
        ReplicatorConfig {
            k_hops: 1,
            buffer: BufferSpec::Unbounded,
            shared_buffer: false,
            relocation_ttl: SimDuration::from_secs(300),
            sweep_interval: SimDuration::from_secs(5),
            handover_grace: SimDuration::from_millis(100),
            max_batch_bytes: crate::paging::DEFAULT_MAX_BATCH_BYTES,
        }
    }
}

const SWEEP_TAG: u64 = 0;
const DRAIN_TAG_BASE: u64 = 1 << 32;

/// Counters exposed by a replicator (summed per run by the scenario runner).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicatorStats {
    /// Virtual clients created here (setup, mirroring, exception mode).
    pub vcs_created: u64,
    /// Virtual clients garbage-collected here.
    pub vcs_deleted: u64,
    /// Handovers in which this replicator was the arrival side.
    pub handovers: u64,
    /// Arrivals with no pre-created virtual client (exception mode).
    pub exceptions: u64,
    /// Notifications replayed from buffers to arriving devices.
    pub replayed: u64,
    /// Notifications buffered on behalf of absent devices.
    pub buffered: u64,
    /// Replica control messages dropped as stale (older epoch than the
    /// newest handover seen for the application).
    pub stale_dropped: u64,
}

/// The replicator process of one border broker.
pub struct ReplicatorNode {
    broker: BrokerId,
    broker_node: NodeId,
    replicator_nodes: Arc<Vec<NodeId>>,
    movement: Arc<MovementGraph>,
    locations: Arc<LocationMap>,
    config: ReplicatorConfig,
    vcs: HashMap<ApplicationId, VirtualClient>,
    /// vc_id → app, for O(1) lookup on `Deliver`.
    vc_ids: HashMap<ClientId, ApplicationId>,
    /// Newest handover epoch seen per application (from `MoveIn` locally or
    /// from replica control messages). Control traffic older than this is
    /// stale — a late `ReplicaSubscribe` overtaken by the next handover's
    /// `ReplicaDelete` must not resurrect the virtual client.
    epochs: HashMap<ApplicationId, u64>,
    /// Real device clients attached through this replicator.
    device_nodes: HashMap<ClientId, NodeId>,
    shared: SharedBuffer,
    reloc: RelocationBuffers,
    stats: ReplicatorStats,
}

impl fmt::Debug for ReplicatorNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicatorNode")
            .field("broker", &self.broker)
            .field("vcs", &self.vcs.len())
            .field("devices", &self.device_nodes.len())
            .finish()
    }
}

impl ReplicatorNode {
    /// Creates the replicator for `broker`, whose broker process runs at
    /// `broker_node`. `replicator_nodes` maps broker ids to replicator
    /// nodes (the "direct TCP connections" of Fig. 4).
    pub fn new(
        broker: BrokerId,
        broker_node: NodeId,
        replicator_nodes: Arc<Vec<NodeId>>,
        movement: Arc<MovementGraph>,
        locations: Arc<LocationMap>,
        config: ReplicatorConfig,
    ) -> Self {
        ReplicatorNode {
            broker,
            broker_node,
            replicator_nodes,
            movement,
            locations,
            config,
            vcs: HashMap::new(),
            vc_ids: HashMap::new(),
            epochs: HashMap::new(),
            device_nodes: HashMap::new(),
            shared: SharedBuffer::new(),
            reloc: RelocationBuffers::new(),
            stats: ReplicatorStats::default(),
        }
    }

    /// This replicator's broker.
    pub fn broker(&self) -> BrokerId {
        self.broker
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ReplicatorStats {
        self.stats
    }

    /// Number of virtual clients currently hosted.
    pub fn vc_count(&self) -> usize {
        self.vcs.len()
    }

    /// The hosted virtual client of `app`, if any.
    pub fn virtual_client(&self, app: ApplicationId) -> Option<&VirtualClient> {
        self.vcs.get(&app)
    }

    /// Bytes currently held in buffers (private buffers summed, or the
    /// shared store plus 16 bytes per digest reference).
    pub fn buffer_bytes(&self) -> usize {
        let private: usize = self
            .vcs
            .values()
            .map(|vc| match &vc.buffer {
                VcBuffer::Private(b) => b.bytes(),
                VcBuffer::Shared(d) => d.len() * 16,
            })
            .sum();
        private + self.shared.bytes()
    }

    /// The relocation state (physical-mobility metrics).
    pub fn relocation(&self) -> &RelocationBuffers {
        &self.reloc
    }

    /// The broker-wide shared digest buffer (refcount-balance inspection).
    pub fn shared_buffer(&self) -> &SharedBuffer {
        &self.shared
    }

    /// The newest handover epoch seen for `app`.
    fn epoch_of(&self, app: ApplicationId) -> u64 {
        self.epochs.get(&app).copied().unwrap_or(0)
    }

    /// Records `epoch` as seen for `app`; returns `false` (and counts the
    /// drop) if it is older than the newest epoch already seen.
    fn admit_epoch(&mut self, app: ApplicationId, epoch: u64) -> bool {
        let newest = self.epochs.entry(app).or_insert(0);
        if epoch < *newest {
            self.stats.stale_dropped += 1;
            return false;
        }
        *newest = epoch;
        true
    }

    fn neighborhood(&self) -> BTreeSet<BrokerId> {
        self.movement.k_hop(self.broker, self.config.k_hops)
    }

    fn peer(&self, broker: BrokerId) -> NodeId {
        self.replicator_nodes[broker.raw() as usize]
    }

    fn new_vc_buffer(&self) -> VcBuffer {
        if self.config.shared_buffer {
            VcBuffer::Shared(VecDeque::new())
        } else {
            VcBuffer::Private(self.config.buffer.build())
        }
    }

    /// Creates (or reuses) the virtual client of `app`, installing its
    /// resolved subscriptions at the local broker.
    fn ensure_vc(
        &mut self,
        ctx: &mut Ctx<'_, Message>,
        app: ApplicationId,
        device: ClientId,
        subs: &[Subscription],
    ) {
        if self.vcs.contains_key(&app) {
            self.reconcile_subs(ctx, app, subs);
            return;
        }
        let vc_id = virtual_client_id(app, self.broker);
        ctx.send(self.broker_node, Message::ClientAttach { client: vc_id });
        let mut map = HashMap::new();
        for sub in subs {
            map.insert(sub.id(), sub.filter().clone());
            let resolved = self.locations.resolve_subscription(sub, self.broker);
            ctx.send(
                self.broker_node,
                Message::Subscribe {
                    subscription: Subscription::new(resolved.id(), vc_id, resolved.into_filter()),
                },
            );
        }
        let buffer = self.new_vc_buffer();
        self.vcs.insert(
            app,
            VirtualClient { app, device, vc_id, subs: map, active_node: None, buffer, replays: 0 },
        );
        self.vc_ids.insert(vc_id, app);
        self.stats.vcs_created += 1;
    }

    /// Brings an existing virtual client's subscription set in line with
    /// the (unresolved) target set.
    fn reconcile_subs(
        &mut self,
        ctx: &mut Ctx<'_, Message>,
        app: ApplicationId,
        subs: &[Subscription],
    ) {
        let Some(vc) = self.vcs.get_mut(&app) else {
            return;
        };
        let vc_id = vc.vc_id;
        let target: HashMap<SubscriptionId, Filter> =
            subs.iter().map(|s| (s.id(), s.filter().clone())).collect();
        let stale: Vec<SubscriptionId> =
            vc.subs.keys().filter(|id| !target.contains_key(id)).copied().collect();
        for id in stale {
            vc.subs.remove(&id);
            ctx.send(self.broker_node, Message::Unsubscribe { client: vc_id, id });
        }
        for (id, filter) in target {
            let fresh = match vc.subs.get(&id) {
                Some(existing) => existing != &filter,
                None => true,
            };
            if fresh {
                vc.subs.insert(id, filter.clone());
                let resolved = self.locations.resolve(&filter, self.broker);
                ctx.send(
                    self.broker_node,
                    Message::Subscribe { subscription: Subscription::new(id, vc_id, resolved) },
                );
            }
        }
    }

    /// Deletes the virtual client of `app` (unsubscribes and detaches it at
    /// the broker, releases shared references).
    fn delete_vc(&mut self, ctx: &mut Ctx<'_, Message>, app: ApplicationId) {
        let Some(vc) = self.vcs.remove(&app) else {
            return;
        };
        self.vc_ids.remove(&vc.vc_id);
        ctx.send(self.broker_node, Message::ClientDetach { client: vc.vc_id });
        if let VcBuffer::Shared(digests) = vc.buffer {
            for (_, d) in digests {
                self.shared.release(d);
            }
        }
        self.stats.vcs_deleted += 1;
    }

    /// Replays and drains the virtual client's buffer to the device.
    fn replay_vc(&mut self, ctx: &mut Ctx<'_, Message>, app: ApplicationId, device_node: NodeId) {
        let now = ctx.now();
        let Some(vc) = self.vcs.get_mut(&app) else {
            return;
        };
        let items: Vec<Arc<Notification>> = match &mut vc.buffer {
            VcBuffer::Private(b) => b.drain(now),
            VcBuffer::Shared(digests) => {
                let mut items = Vec::with_capacity(digests.len());
                for (_, d) in digests.drain(..) {
                    if let Some(n) = self.shared.get(d) {
                        items.push(Arc::clone(n));
                    }
                    self.shared.release(d);
                }
                items
            }
        };
        vc.replays += items.len() as u64;
        self.stats.replayed += items.len() as u64;
        let device = vc.device;
        for n in items {
            ctx.send(device_node, Message::Deliver { client: device, notification: n });
        }
    }

    fn buffer_vc(&mut self, now: SimTime, app: ApplicationId, n: Arc<Notification>) {
        let Some(vc) = self.vcs.get_mut(&app) else {
            return;
        };
        self.stats.buffered += 1;
        match &mut vc.buffer {
            VcBuffer::Private(b) => b.offer(now, n),
            VcBuffer::Shared(digests) => {
                let d = self.shared.insert(&n);
                digests.push_back((now, d));
                // Apply the ttl/capacity aspects of the policy on the
                // digest list (semantic nullification is private-only).
                let (ttl, capacity) = match &self.config.buffer {
                    BufferSpec::None => (None, Some(0)),
                    BufferSpec::TimeBased { ttl } => (Some(*ttl), None),
                    BufferSpec::HistoryBased { capacity } => (None, Some(*capacity)),
                    BufferSpec::Combined { ttl, capacity } => (Some(*ttl), Some(*capacity)),
                    BufferSpec::Unbounded | BufferSpec::Semantic { .. } => (None, None),
                };
                if let Some(ttl) = ttl {
                    let cutoff = now - ttl;
                    while digests.front().is_some_and(|(at, _)| *at < cutoff) {
                        let (_, d) = digests.pop_front().expect("front exists");
                        self.shared.release(d);
                    }
                }
                if let Some(cap) = capacity {
                    while digests.len() > cap {
                        let (_, d) = digests.pop_front().expect("len > cap");
                        self.shared.release(d);
                    }
                }
            }
        }
    }

    /// The handover of §3.2.3 (and client setup of §3.2.1 when
    /// `old_border` is `None`).
    fn handle_move_in(
        &mut self,
        ctx: &mut Ctx<'_, Message>,
        device_node: NodeId,
        client: ClientId,
        old_border: Option<BrokerId>,
        subscriptions: Vec<Subscription>,
        epoch: u64,
    ) {
        let app = app_of(client);
        // The arriving device defines the newest handover epoch; every
        // replica control message below is stamped with it.
        self.admit_epoch(app, epoch);
        let epoch = self.epoch_of(app);
        self.device_nodes.insert(client, device_node);
        self.stats.handovers += 1;

        let (ld, nld): (Vec<Subscription>, Vec<Subscription>) =
            subscriptions.into_iter().partition(Subscription::is_location_dependent);

        // --- physical mobility of the non-location-dependent set ---
        ctx.send(self.broker_node, Message::ClientAttach { client });
        for sub in &nld {
            ctx.send(self.broker_node, Message::Subscribe { subscription: sub.clone() });
        }
        match old_border {
            Some(old) if old == self.broker => {
                for n in self.reloc.take_buffer(client) {
                    ctx.send(device_node, Message::Deliver { client, notification: n });
                }
            }
            Some(old) => {
                self.reloc.begin_arrival(client);
                ctx.send(
                    self.peer(old),
                    Message::Mobility(MobilityMsg::FetchBuffered {
                        client,
                        new_border: self.broker,
                    }),
                );
            }
            None => {}
        }

        // --- extended logical mobility of the location-dependent set ---
        let had_vc = self.vcs.contains_key(&app);
        if !had_vc {
            self.stats.exceptions += u64::from(old_border.is_some());
            self.ensure_vc(ctx, app, client, &ld);
            if let Some(old) = old_border {
                if old != self.broker {
                    // Exception mode: fetch whatever the previous virtual
                    // client buffered.
                    ctx.send(
                        self.peer(old),
                        Message::Mobility(MobilityMsg::ReplicaFetch { app, reply_to: self.broker }),
                    );
                }
            }
        } else {
            self.reconcile_subs(ctx, app, &ld);
            self.replay_vc(ctx, app, device_node);
        }
        if let Some(vc) = self.vcs.get_mut(&app) {
            vc.active_node = Some(device_node);
            vc.device = client;
        }

        // --- replica set reconciliation ---
        let newset = self.neighborhood();
        let oldset: BTreeSet<BrokerId> = old_border
            .map(|old| {
                let mut s = self.movement.k_hop(old, self.config.k_hops);
                s.insert(old);
                s
            })
            .unwrap_or_default();
        let mut keep = newset.clone();
        keep.insert(self.broker);
        for target in keep.difference(&oldset) {
            if *target == self.broker {
                continue;
            }
            ctx.send(
                self.peer(*target),
                Message::Mobility(MobilityMsg::ReplicaCreate {
                    app,
                    subscriptions: ld.clone(),
                    epoch,
                }),
            );
        }
        for target in oldset.difference(&keep) {
            ctx.send(
                self.peer(*target),
                Message::Mobility(MobilityMsg::ReplicaDelete { app, epoch }),
            );
        }
    }

    fn handle_mobility(&mut self, ctx: &mut Ctx<'_, Message>, from: NodeId, msg: MobilityMsg) {
        match msg {
            MobilityMsg::MoveIn { client, old_border, subscriptions, epoch } => {
                self.handle_move_in(ctx, from, client, old_border, subscriptions, epoch);
            }
            MobilityMsg::FetchBuffered { client, new_border } => {
                // The device moved away: our virtual client (if any) keeps
                // buffering; the real-client attachment drains for a grace
                // period before being retired (make-before-break).
                let app = app_of(client);
                if let Some(vc) = self.vcs.get_mut(&app) {
                    vc.active_node = None;
                }
                self.device_nodes.remove(&client);
                let batch = self.reloc.take_buffer(client);
                self.reloc.begin_drain(client, new_border);
                // Page the buffer: all chunks `complete: false` — the
                // drain-expiry timer sends the terminating chunk after the
                // make-before-break grace period.
                let peer = self.peer(new_border);
                for page in crate::paging::pages(batch, self.config.max_batch_bytes) {
                    ctx.send(
                        peer,
                        Message::Mobility(MobilityMsg::BufferedBatch {
                            client,
                            notifications: page,
                            complete: false,
                        }),
                    );
                }
                ctx.set_timer(self.config.handover_grace, DRAIN_TAG_BASE + u64::from(client.raw()));
            }
            MobilityMsg::BufferedBatch { client, notifications, complete } => {
                if let Some(&node) = self.device_nodes.get(&client) {
                    for n in notifications {
                        self.stats.replayed += 1;
                        ctx.send(node, Message::Deliver { client, notification: n });
                    }
                    if complete {
                        for n in self.reloc.finish_arrival(client) {
                            ctx.send(node, Message::Deliver { client, notification: n });
                        }
                    }
                } else if complete {
                    let now = ctx.now();
                    for n in self.reloc.finish_arrival(client) {
                        self.reloc.buffer(now, client, n);
                    }
                }
            }
            MobilityMsg::ReplicaCreate { app, subscriptions, epoch } => {
                if !self.admit_epoch(app, epoch) {
                    return;
                }
                // The device client id is recoverable from the app id.
                let device = ClientId::new(app.raw());
                self.ensure_vc(ctx, app, device, &subscriptions);
            }
            MobilityMsg::ReplicaDelete { app, epoch } => {
                if !self.admit_epoch(app, epoch) {
                    return;
                }
                // Never delete the active virtual client: the device is
                // attached here (delete raced with our own MoveIn).
                if self.vcs.get(&app).is_some_and(|vc| vc.is_active()) {
                    return;
                }
                self.delete_vc(ctx, app);
            }
            MobilityMsg::ReplicaSubscribe { app, subscription, epoch } => {
                if !self.admit_epoch(app, epoch) {
                    // The VC resurrection race: this subscribe belongs to a
                    // handover that a newer `ReplicaDelete` (or create set)
                    // has already superseded — recreating the virtual
                    // client here would leak it until the next
                    // reconciliation.
                    return;
                }
                if !self.vcs.contains_key(&app) {
                    // Mirrored subscription for an app we have no shadow
                    // of yet (the Create may still be in flight, or the
                    // subscribing client attached without MoveIn): set the
                    // virtual client up on the fly.
                    let device = ClientId::new(app.raw());
                    self.ensure_vc(ctx, app, device, std::slice::from_ref(&subscription));
                    return;
                }
                if let Some(vc) = self.vcs.get_mut(&app) {
                    vc.subs.insert(subscription.id(), subscription.filter().clone());
                    let vc_id = vc.vc_id;
                    let resolved = self.locations.resolve_subscription(&subscription, self.broker);
                    ctx.send(
                        self.broker_node,
                        Message::Subscribe {
                            subscription: Subscription::new(
                                resolved.id(),
                                vc_id,
                                resolved.into_filter(),
                            ),
                        },
                    );
                }
            }
            MobilityMsg::ReplicaUnsubscribe { app, id, epoch } => {
                if !self.admit_epoch(app, epoch) {
                    return;
                }
                if let Some(vc) = self.vcs.get_mut(&app) {
                    vc.subs.remove(&id);
                    let vc_id = vc.vc_id;
                    ctx.send(self.broker_node, Message::Unsubscribe { client: vc_id, id });
                }
            }
            MobilityMsg::ReplicaFetch { app, reply_to } => {
                let now = ctx.now();
                let items: Vec<Arc<Notification>> = match self.vcs.get_mut(&app) {
                    Some(vc) => match &mut vc.buffer {
                        VcBuffer::Private(b) => b.snapshot(now),
                        VcBuffer::Shared(digests) => digests
                            .iter()
                            .filter_map(|(_, d)| self.shared.get(*d).map(Arc::clone))
                            .collect(),
                    },
                    None => Vec::new(),
                };
                // Page the replica buffer; only the last chunk carries the
                // `complete` marker that ends the handover.
                let peer = self.peer(reply_to);
                let pages = crate::paging::pages(items, self.config.max_batch_bytes);
                let last = pages.len() - 1;
                for (i, page) in pages.into_iter().enumerate() {
                    ctx.send(
                        peer,
                        Message::Mobility(MobilityMsg::ReplicaBatch {
                            app,
                            notifications: page,
                            complete: i == last,
                        }),
                    );
                }
            }
            MobilityMsg::ReplicaBatch { app, notifications, complete: _ } => {
                if let Some(vc) = self.vcs.get(&app) {
                    if let Some(node) = vc.active_node {
                        let device = vc.device;
                        self.stats.replayed += notifications.len() as u64;
                        for n in notifications {
                            ctx.send(node, Message::Deliver { client: device, notification: n });
                        }
                    }
                }
            }
            // Application-side messages never reach a replicator. Spelled
            // out (the lint forbids `_ =>` in handlers) so a new protocol
            // variant forces this match to decide instead of silently
            // swallowing it.
            MobilityMsg::AppPrepareMove
            | MobilityMsg::AppMoveTo { .. }
            | MobilityMsg::AppDisconnect
            | MobilityMsg::AppSetContext { .. } => {}
        }
    }

    fn handle_deliver(
        &mut self,
        ctx: &mut Ctx<'_, Message>,
        client: ClientId,
        n: Arc<Notification>,
    ) {
        if let Some(&app) = self.vc_ids.get(&client) {
            // Delivery for a virtual client.
            let (active_node, device) = match self.vcs.get(&app) {
                Some(vc) => (vc.active_node, vc.device),
                None => return,
            };
            match active_node {
                Some(node) if ctx.link_up(node) => {
                    ctx.send(node, Message::Deliver { client: device, notification: n });
                }
                Some(node) => {
                    // Device gone silently: switch to buffering.
                    let _ = node;
                    if let Some(vc) = self.vcs.get_mut(&app) {
                        vc.active_node = None;
                    }
                    self.buffer_vc(ctx.now(), app, n);
                }
                None => self.buffer_vc(ctx.now(), app, n),
            }
        } else {
            // Delivery for a real (device) client: physical mobility path.
            if let Some(new_border) = self.reloc.drain_target(client) {
                ctx.send(
                    self.peer(new_border),
                    Message::Mobility(MobilityMsg::BufferedBatch {
                        client,
                        notifications: vec![n],
                        complete: false,
                    }),
                );
            } else if self.reloc.is_arriving(client) {
                self.reloc.hold_back(client, n);
            } else if let Some(&node) = self.device_nodes.get(&client) {
                if ctx.link_up(node) {
                    ctx.send(node, Message::Deliver { client, notification: n });
                } else {
                    self.reloc.buffer(ctx.now(), client, n);
                }
            } else {
                self.reloc.buffer(ctx.now(), client, n);
            }
        }
    }

    fn handle_client_message(&mut self, ctx: &mut Ctx<'_, Message>, from: NodeId, msg: Message) {
        match msg {
            Message::ClientAttach { client } => {
                // Plain attachment (immobile clients, producers): no
                // virtual client is set up — shadows exist only for
                // applications with location-dependent interests (created
                // on `MoveIn` or on the first `myloc` subscription).
                self.device_nodes.insert(client, from);
                ctx.send(self.broker_node, Message::ClientAttach { client });
            }
            Message::ClientDetach { client } => {
                // Client removal (§3.2.4): delete the virtual client here
                // and on all neighbours. The orderly removal supersedes the
                // current attachment, so it bumps the epoch — any mirrored
                // subscription still in flight from the deleted attachment
                // arrives stale and is dropped.
                let app = app_of(client);
                let epoch = self.epoch_of(app) + 1;
                self.admit_epoch(app, epoch);
                self.device_nodes.remove(&client);
                self.delete_vc(ctx, app);
                for target in self.neighborhood() {
                    ctx.send(
                        self.peer(target),
                        Message::Mobility(MobilityMsg::ReplicaDelete { app, epoch }),
                    );
                }
                ctx.send(self.broker_node, Message::ClientDetach { client });
            }
            Message::Publish { notification } => {
                // Only the connected (real) client publishes; buffering
                // virtual clients never do.
                ctx.send(self.broker_node, Message::Publish { notification });
            }
            Message::Subscribe { subscription } => {
                if subscription.is_location_dependent() {
                    let app = app_of(subscription.client());
                    self.ensure_vc(ctx, app, subscription.client(), &[]);
                    if let Some(vc) = self.vcs.get_mut(&app) {
                        vc.active_node = Some(from);
                        vc.subs.insert(subscription.id(), subscription.filter().clone());
                        let vc_id = vc.vc_id;
                        let resolved =
                            self.locations.resolve_subscription(&subscription, self.broker);
                        ctx.send(
                            self.broker_node,
                            Message::Subscribe {
                                subscription: Subscription::new(
                                    resolved.id(),
                                    vc_id,
                                    resolved.into_filter(),
                                ),
                            },
                        );
                    }
                    // Client operation (§3.2.2): mirror to the
                    // neighbourhood, stamped with the current attachment's
                    // epoch so it cannot outlive the next handover.
                    let epoch = self.epoch_of(app);
                    for target in self.neighborhood() {
                        ctx.send(
                            self.peer(target),
                            Message::Mobility(MobilityMsg::ReplicaSubscribe {
                                app,
                                subscription: subscription.clone(),
                                epoch,
                            }),
                        );
                    }
                } else {
                    self.device_nodes.insert(subscription.client(), from);
                    ctx.send(self.broker_node, Message::Subscribe { subscription });
                }
            }
            Message::Unsubscribe { client, id } => {
                let app = app_of(client);
                let is_ld = self.vcs.get(&app).is_some_and(|vc| vc.subs.contains_key(&id));
                if is_ld {
                    if let Some(vc) = self.vcs.get_mut(&app) {
                        vc.subs.remove(&id);
                        let vc_id = vc.vc_id;
                        ctx.send(self.broker_node, Message::Unsubscribe { client: vc_id, id });
                    }
                    let epoch = self.epoch_of(app);
                    for target in self.neighborhood() {
                        ctx.send(
                            self.peer(target),
                            Message::Mobility(MobilityMsg::ReplicaUnsubscribe { app, id, epoch }),
                        );
                    }
                } else {
                    ctx.send(self.broker_node, Message::Unsubscribe { client, id });
                }
            }
            other => {
                // Anything else passes through unchanged (transparency).
                ctx.send(self.broker_node, other);
            }
        }
    }
}

impl Node<Message> for ReplicatorNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Message>) {
        ctx.set_timer(self.config.sweep_interval, 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Message>, from: NodeId, msg: Message) {
        match msg {
            Message::Deliver { client, notification } => {
                self.handle_deliver(ctx, client, notification)
            }
            Message::Mobility(m) => self.handle_mobility(ctx, from, m),
            other if from == self.broker_node => {
                // Broker → client traffic other than Deliver: pass upwards
                // is meaningless; drop.
                let _ = other;
            }
            other => self.handle_client_message(ctx, from, other),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Message>, _timer: rebeca_net::TimerId, tag: u64) {
        if tag >= DRAIN_TAG_BASE {
            let client = ClientId::new((tag - DRAIN_TAG_BASE) as u32);
            if let Some(new_border) = self.reloc.finish_drain(client) {
                ctx.send(self.broker_node, Message::ClientDetach { client });
                ctx.send(
                    self.peer(new_border),
                    Message::Mobility(MobilityMsg::BufferedBatch {
                        client,
                        notifications: Vec::new(),
                        complete: true,
                    }),
                );
            }
            return;
        }
        debug_assert_eq!(tag, SWEEP_TAG);
        let now = ctx.now();
        // Buffer housekeeping.
        let mut released = Vec::new();
        for vc in self.vcs.values_mut() {
            match &mut vc.buffer {
                VcBuffer::Private(b) => b.gc(now),
                VcBuffer::Shared(digests) => {
                    if let BufferSpec::TimeBased { ttl } | BufferSpec::Combined { ttl, .. } =
                        &self.config.buffer
                    {
                        let cutoff = now - *ttl;
                        while digests.front().is_some_and(|(at, _)| *at < cutoff) {
                            let (_, d) = digests.pop_front().expect("front exists");
                            released.push(d);
                        }
                    }
                }
            }
        }
        for d in released {
            self.shared.release(d);
        }
        // Relocation TTL.
        for client in self.reloc.expire(now, self.config.relocation_ttl) {
            ctx.send(self.broker_node, Message::ClientDetach { client });
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

    #[test]
    fn vc_id_namespace_is_disjoint_and_injective() {
        let a = virtual_client_id(ApplicationId::new(1), BrokerId::new(2));
        let b = virtual_client_id(ApplicationId::new(1), BrokerId::new(3));
        let c = virtual_client_id(ApplicationId::new(2), BrokerId::new(2));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(a.raw() & 0x8000_0000 != 0);
        // Distinct from small "real" client ids.
        assert_ne!(a, ClientId::new(1));
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn vc_id_rejects_out_of_range() {
        virtual_client_id(ApplicationId::new(1 << 20), BrokerId::new(0));
    }

    #[test]
    fn app_of_round_trips() {
        assert_eq!(app_of(ClientId::new(7)), ApplicationId::new(7));
    }
}
