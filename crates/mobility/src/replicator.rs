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
//! policies ([`BufferSpec`]), and the *exception mode*: a client popping
//! up at an uncovered broker gets a virtual client created on the fly plus
//! a buffer fetched from its previous replicator.
//!
//! Physical mobility of the client's non-location-dependent subscriptions
//! is handled at this layer too (the replicator is the connection-aware
//! edge), via [`RelocationBuffers`] — the brokers below stay completely
//! mobility-unaware. With `k_hops: 0` that is all this layer does: the
//! reactive baseline.
//!
//! Every holder of buffered notifications, each virtual client and each
//! disconnected device, has one [`ReplayBuffer`], and all of them report to
//! the replicator's one [`ByteLedger`]. They hold the same `Arc`s, so a
//! notification buffered for k virtual clients and a device is stored and
//! counted once: that is §4's shared buffer at the border broker.
//!
//! The shared buffer comes with a shared subscription (subscription
//! subgrouping). Virtual clients are not broker clients: the replicator
//! keeps one broker-level subscriber, a *group*, per distinct resolved
//! filter, and records the virtual clients behind it. The first virtual
//! client to join a group attaches and subscribes it at the broker; later
//! ones send nothing; the last to leave detaches it. So the broker holds a
//! filter once and delivers a matching notification once per group, and a
//! group `Deliver` fans out here, to each member's device or buffer.
//! Handover state (epochs, replica create/delete, exception mode,
//! buffers) stays per virtual client.

use crate::buffer::{BufferSpec, ByteLedger, ReplayBuffer};
use crate::location::LocationMap;
use crate::movement::MovementGraph;
use crate::paging::{pages, DEFAULT_MAX_BATCH_BYTES};
use crate::physical::RelocationBuffers;
use rebeca_broker::{Message, MobilityMsg};
use rebeca_core::{
    ApplicationId, BrokerId, ClientId, Digest, Filter, Notification, NotificationId, SimDuration,
    Subscription, SubscriptionId,
};
use rebeca_net::{Ctx, Node, NodeId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Derives the application identity from its device client (one
/// application per mobile client).
pub fn app_of(client: ClientId) -> ApplicationId {
    ApplicationId::new(client.raw())
}

/// Set in the broker client id of every group; device ids never set it.
/// Group ids only need to be unique within one broker's client table.
const GROUP_BIT: u32 = 0x8000_0000;

/// The one subscription a group holds at its broker.
const GROUP_SUB: SubscriptionId = SubscriptionId::new(0);

/// One broker-level subscriber standing in for every virtual client here
/// with a subscription that resolves to the same filter.
#[derive(Debug)]
struct Group {
    client: ClientId,
    /// Member applications, each with the number of its subscriptions in
    /// the group. Ordered, so a fan-out sends in the same order every run.
    members: BTreeMap<ApplicationId, u32>,
}

/// A virtual client: the "information shadow" of a mobile application at
/// one border broker.
#[derive(Debug)]
pub struct VirtualClient {
    app: ApplicationId,
    device: ClientId,
    /// Location-dependent subscriptions, markers unresolved (each replica
    /// resolves them for its own broker's scope), with the digest of the
    /// resolved filter: the group the subscription is in.
    subs: HashMap<SubscriptionId, (Filter, Digest)>,
    /// The device node while this virtual client is the *active* one.
    active_node: Option<NodeId>,
    buffer: ReplayBuffer,
    replays: u64,
    /// The last notification fanned out to this client. Two of its groups
    /// matching one notification get two `Deliver`s of it, back to back
    /// on the broker link; the second is skipped.
    last_fanned: Option<NotificationId>,
}

impl VirtualClient {
    /// The application this virtual client shadows.
    pub fn app(&self) -> ApplicationId {
        self.app
    }

    /// Returns `true` while the mobile device is attached through this
    /// virtual client.
    pub fn is_active(&self) -> bool {
        self.active_node.is_some()
    }

    /// Number of currently buffered notifications.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
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
    /// Buffering policy of virtual clients (default: the last 1 024
    /// notifications of the last 300 s).
    pub buffer: BufferSpec,
}

impl Default for ReplicatorConfig {
    fn default() -> Self {
        ReplicatorConfig {
            k_hops: 1,
            buffer: BufferSpec::Combined { ttl: SimDuration::from_secs(300), capacity: 1024 },
        }
    }
}

/// TTL of the notifications buffered for a disconnected client, and how
/// long it stays disconnected before it is retired.
const RELOCATION_TTL: SimDuration = SimDuration::from_secs(300);
/// Housekeeping interval (buffer GC, TTL sweeps).
const SWEEP_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// Make-before-break window of the relocation hand-off: after
/// `FetchBuffered` the old replicator keeps forwarding in-flight
/// stragglers to the new one this long before it retires the client.
const HANDOVER_GRACE: SimDuration = SimDuration::from_millis(100);

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
    /// `Deliver`s received for groups: one per notification per matching
    /// group, however many virtual clients are behind it.
    pub group_deliveries: u64,
}

impl std::ops::AddAssign for ReplicatorStats {
    fn add_assign(&mut self, other: ReplicatorStats) {
        // Destructured, so a new counter cannot be left out of the sum.
        let ReplicatorStats {
            vcs_created,
            vcs_deleted,
            handovers,
            exceptions,
            replayed,
            buffered,
            stale_dropped,
            group_deliveries,
        } = other;
        self.vcs_created += vcs_created;
        self.vcs_deleted += vcs_deleted;
        self.handovers += handovers;
        self.exceptions += exceptions;
        self.replayed += replayed;
        self.buffered += buffered;
        self.stale_dropped += stale_dropped;
        self.group_deliveries += group_deliveries;
    }
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
    /// The groups, keyed by the digest of their resolved filter.
    groups: HashMap<Digest, Group>,
    /// Group client id → digest, for O(1) lookup on `Deliver`.
    group_ids: HashMap<ClientId, Digest>,
    /// Counter behind fresh group client ids.
    next_group: u32,
    /// Newest handover epoch seen per application (from `MoveIn` locally or
    /// from replica control messages). Control traffic older than this is
    /// stale — a late `ReplicaSubscribe` overtaken by the next handover's
    /// `ReplicaDelete` must not resurrect the virtual client.
    epochs: HashMap<ApplicationId, u64>,
    /// Real device clients attached through this replicator.
    device_nodes: HashMap<ClientId, NodeId>,
    /// What every buffer below holds, each notification counted once.
    ledger: ByteLedger,
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
            reloc: RelocationBuffers::new(RELOCATION_TTL),
            config,
            vcs: HashMap::new(),
            groups: HashMap::new(),
            group_ids: HashMap::new(),
            next_group: 0,
            epochs: HashMap::new(),
            device_nodes: HashMap::new(),
            ledger: ByteLedger::default(),
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

    /// Bytes currently held in buffers, virtual clients' and disconnected
    /// devices' alike, each notification counted once however many of
    /// them hold it.
    pub fn buffer_bytes(&self) -> usize {
        self.ledger.bytes()
    }

    /// The account of everything this replicator's buffers hold.
    pub fn ledger(&self) -> &ByteLedger {
        &self.ledger
    }

    /// The relocation state: buffers of disconnected clients and hold-back
    /// queues of arriving ones.
    pub fn relocation(&self) -> &RelocationBuffers {
        &self.reloc
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

    /// Creates (or reuses) the virtual client of `app`, putting its
    /// resolved subscriptions into their groups at the local broker.
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
        let buffer = self.config.buffer.build();
        self.vcs.insert(
            app,
            VirtualClient {
                app,
                device,
                subs: HashMap::new(),
                active_node: None,
                buffer,
                replays: 0,
                last_fanned: None,
            },
        );
        self.stats.vcs_created += 1;
        for sub in subs {
            self.set_sub(ctx, app, sub.id(), sub.filter().clone());
        }
    }

    /// Brings an existing virtual client's subscription set in line with
    /// the (unresolved) target set. New and changed subscriptions join
    /// their groups before stale ones leave theirs, so a filter that only
    /// moves between subscription ids keeps its broker subscription.
    fn reconcile_subs(
        &mut self,
        ctx: &mut Ctx<'_, Message>,
        app: ApplicationId,
        subs: &[Subscription],
    ) {
        let Some(vc) = self.vcs.get(&app) else {
            return;
        };
        let fresh: Vec<&Subscription> = subs
            .iter()
            .filter(|s| vc.subs.get(&s.id()).is_none_or(|(old, _)| old != s.filter()))
            .collect();
        let mut stale: Vec<SubscriptionId> =
            vc.subs.keys().filter(|id| subs.iter().all(|s| s.id() != **id)).copied().collect();
        stale.sort_unstable();
        for sub in fresh {
            self.set_sub(ctx, app, sub.id(), sub.filter().clone());
        }
        for id in stale {
            self.remove_sub(ctx, app, id);
        }
    }

    /// Sets `app`'s subscription `id` to `filter` (unresolved): joins the
    /// group of the filter resolved here, then leaves the group of the
    /// filter `id` had before, if any.
    fn set_sub(
        &mut self,
        ctx: &mut Ctx<'_, Message>,
        app: ApplicationId,
        id: SubscriptionId,
        filter: Filter,
    ) {
        if !self.vcs.contains_key(&app) {
            return;
        }
        let resolved = self.locations.resolve(&filter, self.broker);
        let digest = resolved.digest();
        self.join(ctx, app, digest, resolved);
        let old = self.vcs.get_mut(&app).and_then(|vc| vc.subs.insert(id, (filter, digest)));
        if let Some((_, old)) = old {
            self.leave(ctx, app, old);
        }
    }

    /// Drops `app`'s subscription `id` and leaves its group.
    fn remove_sub(&mut self, ctx: &mut Ctx<'_, Message>, app: ApplicationId, id: SubscriptionId) {
        let old = self.vcs.get_mut(&app).and_then(|vc| vc.subs.remove(&id));
        if let Some((_, digest)) = old {
            self.leave(ctx, app, digest);
        }
    }

    /// Adds `app` to the group of `resolved`; the group's first member
    /// attaches and subscribes it at the broker.
    fn join(
        &mut self,
        ctx: &mut Ctx<'_, Message>,
        app: ApplicationId,
        digest: Digest,
        resolved: Filter,
    ) {
        if !self.groups.contains_key(&digest) {
            let client = self.fresh_group_id();
            ctx.send(self.broker_node, Message::ClientAttach { client });
            ctx.send(
                self.broker_node,
                Message::Subscribe { subscription: Subscription::new(GROUP_SUB, client, resolved) },
            );
            self.group_ids.insert(client, digest);
            self.groups.insert(digest, Group { client, members: BTreeMap::new() });
        }
        if let Some(group) = self.groups.get_mut(&digest) {
            *group.members.entry(app).or_insert(0) += 1;
        }
    }

    /// Takes one of `app`'s subscriptions out of the group `digest`; the
    /// group's last member detaches it at the broker.
    fn leave(&mut self, ctx: &mut Ctx<'_, Message>, app: ApplicationId, digest: Digest) {
        let Some(group) = self.groups.get_mut(&digest) else {
            return;
        };
        if let Some(count) = group.members.get_mut(&app) {
            *count -= 1;
            if *count == 0 {
                group.members.remove(&app);
            }
        }
        if group.members.is_empty() {
            let client = group.client;
            self.groups.remove(&digest);
            self.group_ids.remove(&client);
            ctx.send(self.broker_node, Message::ClientDetach { client });
        }
    }

    /// A group client id no live group uses.
    fn fresh_group_id(&mut self) -> ClientId {
        loop {
            let id = ClientId::new(GROUP_BIT | (self.next_group & !GROUP_BIT));
            self.next_group = self.next_group.wrapping_add(1);
            if !self.group_ids.contains_key(&id) {
                return id;
            }
        }
    }

    /// Deletes the virtual client of `app` (leaves its groups, releases
    /// its buffer from the ledger).
    fn delete_vc(&mut self, ctx: &mut Ctx<'_, Message>, app: ApplicationId) {
        let Some(mut vc) = self.vcs.remove(&app) else {
            return;
        };
        let mut digests: Vec<Digest> = vc.subs.values().map(|(_, d)| *d).collect();
        digests.sort_unstable();
        for digest in digests {
            self.leave(ctx, app, digest);
        }
        vc.buffer.drain_to(&mut self.ledger, ctx.now());
        self.stats.vcs_deleted += 1;
    }

    /// Replays and drains the virtual client's buffer to the device.
    fn replay_vc(&mut self, ctx: &mut Ctx<'_, Message>, app: ApplicationId, device_node: NodeId) {
        let now = ctx.now();
        let Some(vc) = self.vcs.get_mut(&app) else {
            return;
        };
        let items = vc.buffer.drain_to(&mut self.ledger, now);
        vc.replays += items.len() as u64;
        self.stats.replayed += items.len() as u64;
        let device = vc.device;
        for n in items {
            ctx.send(device_node, Message::Deliver { client: device, notification: n });
        }
    }

    /// Fans a group `Deliver` out to the group's members: to the device of
    /// an active member whose link is up, into the buffer of every other
    /// one. A member already given `n` by another of its groups is skipped.
    fn fan_out(&mut self, ctx: &mut Ctx<'_, Message>, client: ClientId, n: Arc<Notification>) {
        self.stats.group_deliveries += 1;
        // A `Deliver` still in flight when its group was detached.
        let Some(group) = self.group_ids.get(&client).and_then(|d| self.groups.get(d)) else {
            return;
        };
        let now = ctx.now();
        for app in group.members.keys() {
            let Some(vc) = self.vcs.get_mut(app) else {
                continue;
            };
            if vc.last_fanned == Some(n.id()) {
                continue;
            }
            vc.last_fanned = Some(n.id());
            match vc.active_node {
                Some(node) if ctx.link_up(node) => {
                    let notification = Arc::clone(&n);
                    ctx.send(node, Message::Deliver { client: vc.device, notification });
                }
                // No device attached, or it went silently: buffer.
                Some(_) | None => {
                    vc.active_node = None;
                    self.stats.buffered += 1;
                    vc.buffer.offer_to(&mut self.ledger, now, Arc::clone(&n));
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
                for n in self.reloc.take_buffer(&mut self.ledger, ctx.now(), client) {
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
                let batch = self.reloc.take_buffer(&mut self.ledger, ctx.now(), client);
                self.reloc.begin_drain(client, new_border);
                // Page the buffer: all chunks `complete: false` — the
                // drain-expiry timer sends the terminating chunk after the
                // make-before-break grace period.
                let peer = self.peer(new_border);
                for page in pages(batch, DEFAULT_MAX_BATCH_BYTES) {
                    ctx.send(
                        peer,
                        Message::Mobility(MobilityMsg::BufferedBatch {
                            client,
                            notifications: page,
                            complete: false,
                        }),
                    );
                }
                ctx.set_timer(HANDOVER_GRACE, DRAIN_TAG_BASE + u64::from(client.raw()));
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
                        self.reloc.buffer(&mut self.ledger, now, client, n);
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
                self.set_sub(ctx, app, subscription.id(), subscription.filter().clone());
            }
            MobilityMsg::ReplicaUnsubscribe { app, id, epoch } => {
                if !self.admit_epoch(app, epoch) {
                    return;
                }
                self.remove_sub(ctx, app, id);
            }
            MobilityMsg::ReplicaFetch { app, reply_to } => {
                let now = ctx.now();
                let items = match self.vcs.get_mut(&app) {
                    Some(vc) => vc.buffer.snapshot(&mut self.ledger, now),
                    None => Vec::new(),
                };
                // Page the replica buffer; only the last chunk carries the
                // `complete` marker that ends the handover.
                let peer = self.peer(reply_to);
                let pages = pages(items, DEFAULT_MAX_BATCH_BYTES);
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
        if client.raw() & GROUP_BIT != 0 {
            // Delivery for a group of virtual clients.
            self.fan_out(ctx, client, n);
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
                    self.reloc.buffer(&mut self.ledger, ctx.now(), client, n);
                }
            } else {
                self.reloc.buffer(&mut self.ledger, ctx.now(), client, n);
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
                    }
                    self.set_sub(ctx, app, subscription.id(), subscription.filter().clone());
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
                    self.remove_sub(ctx, app, id);
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
        ctx.set_timer(SWEEP_INTERVAL, 0);
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
        // Buffer housekeeping and the relocation TTL.
        for vc in self.vcs.values_mut() {
            vc.buffer.gc(&mut self.ledger, now);
        }
        for client in self.reloc.expire(&mut self.ledger, now) {
            ctx.send(self.broker_node, Message::ClientDetach { client });
        }
        ctx.set_timer(SWEEP_INTERVAL, SWEEP_TAG);
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

    use rebeca_core::LocationId;
    use rebeca_net::{LinkConfig, World};

    /// Forwards what is injected from outside to `to`, and records
    /// everything else it receives. Stands in for the broker (to inject a
    /// group `Deliver` as if the broker sent it) and for a device.
    struct Relay {
        to: NodeId,
        got: Vec<Message>,
    }

    impl Node<Message> for Relay {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Message>, from: NodeId, msg: Message) {
            if from == NodeId::EXTERNAL {
                ctx.send(self.to, msg);
            } else {
                self.got.push(msg);
            }
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    const BROKER: NodeId = NodeId::new(0);
    const REPLICATOR: NodeId = NodeId::new(1);
    const DEVICE: NodeId = NodeId::new(2);

    /// A replicator for `broker`, which serves location 0, with no
    /// neighbourhood, between a broker relay and a device relay.
    struct Rig {
        world: World<Message>,
    }

    impl Rig {
        fn new(broker: BrokerId) -> Rig {
            let mut locations = LocationMap::new();
            locations.assign(broker, [LocationId::new(0)]);
            let mut world = World::new();
            world.add_node(Box::new(Relay { to: REPLICATOR, got: Vec::new() }));
            world.add_node(Box::new(ReplicatorNode::new(
                broker,
                BROKER,
                Arc::new(vec![REPLICATOR]),
                Arc::new(MovementGraph::new()),
                Arc::new(locations),
                ReplicatorConfig { k_hops: 0, ..Default::default() },
            )));
            world.add_node(Box::new(Relay { to: REPLICATOR, got: Vec::new() }));
            world.connect(BROKER, REPLICATOR, LinkConfig::default());
            world.connect(DEVICE, REPLICATOR, LinkConfig::default());
            Rig { world }
        }

        /// Injects `msg` at `node` and runs until everything settled.
        fn send(&mut self, node: NodeId, msg: Message) {
            self.world.send_external(node, msg);
            let until = self.world.now() + SimDuration::from_secs(1);
            self.world.run_until(until);
        }

        fn mobility(&mut self, msg: MobilityMsg) {
            self.send(REPLICATOR, Message::Mobility(msg));
        }

        /// Takes what `node`'s relay has received so far.
        fn take(&mut self, node: NodeId) -> Vec<Message> {
            std::mem::take(&mut self.world.node_as_mut::<Relay>(node).expect("a relay").got)
        }

        fn resolved(&self, filter: Filter) -> Filter {
            let r = self.replicator();
            r.locations.resolve(&filter, r.broker)
        }

        fn replicator(&self) -> &ReplicatorNode {
            self.world.node_as::<ReplicatorNode>(REPLICATOR).expect("the replicator")
        }
    }

    fn sub(id: u32, client: u32, filter: Filter) -> Subscription {
        Subscription::new(SubscriptionId::new(id), ClientId::new(client), filter)
    }

    /// A location-dependent filter: `attr = value` here.
    fn here(attr: &str, value: &str) -> Filter {
        Filter::builder().eq(attr, value).myloc("location").build()
    }

    fn service(name: &str) -> Filter {
        here("service", name)
    }

    fn create(app: u32, subscriptions: Vec<Subscription>) -> MobilityMsg {
        MobilityMsg::ReplicaCreate { app: ApplicationId::new(app), subscriptions, epoch: 0 }
    }

    /// The broker client ids of `ClientAttach`es in `msgs`.
    fn attached(msgs: &[Message]) -> Vec<ClientId> {
        msgs.iter()
            .filter_map(
                |m| if let Message::ClientAttach { client } = m { Some(*client) } else { None },
            )
            .collect()
    }

    #[test]
    fn equal_filters_share_one_broker_subscription() {
        let mut rig = Rig::new(BrokerId::new(0));
        rig.mobility(create(1, vec![sub(1, 1, service("s"))]));
        rig.mobility(create(2, vec![sub(7, 2, service("s"))]));
        let got = rig.take(BROKER);
        let [Message::ClientAttach { client }, Message::Subscribe { subscription }] = &got[..]
        else {
            panic!("one attach and one subscribe, got {got:?}");
        };
        assert_eq!(subscription.client(), *client);
        assert_eq!(subscription.filter(), &rig.resolved(service("s")));
        assert_eq!(rig.replicator().vc_count(), 2);

        rig.mobility(MobilityMsg::ReplicaDelete { app: ApplicationId::new(1), epoch: 0 });
        assert_eq!(rig.take(BROKER), vec![]);
        rig.mobility(MobilityMsg::ReplicaDelete { app: ApplicationId::new(2), epoch: 0 });
        assert_eq!(rig.take(BROKER), vec![Message::ClientDetach { client: *client }]);
        assert_eq!(rig.replicator().vc_count(), 0);
    }

    #[test]
    fn a_replaced_subscription_joins_before_it_leaves() {
        let mut rig = Rig::new(BrokerId::new(0));
        rig.mobility(create(1, vec![sub(1, 1, service("old"))]));
        let old = attached(&rig.take(BROKER))[0];
        rig.mobility(MobilityMsg::ReplicaSubscribe {
            app: ApplicationId::new(1),
            subscription: sub(1, 1, service("new")),
            epoch: 0,
        });
        let got = rig.take(BROKER);
        let new = attached(&got)[0];
        assert_ne!(new, old);
        assert_eq!(
            got,
            vec![
                Message::ClientAttach { client: new },
                Message::Subscribe {
                    subscription: Subscription::new(GROUP_SUB, new, rig.resolved(service("new")))
                },
                Message::ClientDetach { client: old },
            ]
        );
        let vc = rig.replicator().virtual_client(ApplicationId::new(1)).expect("kept");
        assert_eq!(vc.subscription_ids(), vec![SubscriptionId::new(1)]);
    }

    #[test]
    fn two_matching_groups_reach_a_client_once() {
        let mut rig = Rig::new(BrokerId::new(0));
        let two = vec![sub(1, 1, service("s")), sub(2, 1, here("floor", "3"))];
        rig.mobility(create(1, two.clone()));
        let groups = attached(&rig.take(BROKER));
        assert_eq!(groups.len(), 2);
        let publish = |seq| {
            Arc::new(
                Notification::builder()
                    .attr("service", "s")
                    .attr("floor", "3")
                    .attr("location", LocationId::new(0))
                    .publish(ClientId::new(9), seq, rebeca_core::SimTime::ZERO),
            )
        };
        // The broker matches both groups in one route call: two `Deliver`s,
        // back to back.
        for client in &groups {
            rig.send(BROKER, Message::Deliver { client: *client, notification: publish(0) });
        }
        let vc = rig.replicator().virtual_client(ApplicationId::new(1)).expect("created");
        assert_eq!(vc.buffered(), 1);
        assert_eq!(rig.replicator().stats().buffered, 1);
        assert_eq!(rig.replicator().stats().group_deliveries, 2);

        // The device arrives: the one buffered copy is replayed, and a
        // notification both groups match is forwarded once.
        rig.send(
            DEVICE,
            Message::Mobility(MobilityMsg::MoveIn {
                client: ClientId::new(1),
                old_border: None,
                subscriptions: two,
                epoch: 1,
            }),
        );
        for client in &groups {
            rig.send(BROKER, Message::Deliver { client: *client, notification: publish(1) });
        }
        let seqs: Vec<u64> = rig
            .take(DEVICE)
            .iter()
            .filter_map(|m| {
                if let Message::Deliver { notification, .. } = m {
                    Some(notification.seq())
                } else {
                    None
                }
            })
            .collect();
        assert_eq!(seqs, vec![0, 1]);
        // The arrival moved the subscriptions without touching the groups.
        assert_eq!(attached(&rig.take(BROKER)), vec![ClientId::new(1)]);
    }

    #[test]
    fn group_ids_never_equal_device_ids_at_any_scale() {
        // Application and broker ids far past the old packed id's range.
        let mut rig = Rig::new(BrokerId::new(1 << 12));
        let (small, large) = (1u32, 1 << 20);
        rig.mobility(create(small, vec![sub(1, small, service("a"))]));
        rig.mobility(create(large, vec![sub(1, large, service("b"))]));
        rig.send(
            DEVICE,
            Message::Mobility(MobilityMsg::MoveIn {
                client: ClientId::new(large),
                old_border: None,
                subscriptions: vec![sub(1, large, service("b"))],
                epoch: 1,
            }),
        );
        let ids = attached(&rig.take(BROKER));
        let (groups, devices): (Vec<ClientId>, Vec<ClientId>) =
            ids.iter().partition(|c| c.raw() & GROUP_BIT != 0);
        assert_eq!(groups.len(), 2);
        assert_eq!(devices, vec![ClientId::new(large)]);
        for g in &groups {
            assert_ne!(*g, ClientId::new(small));
            assert_ne!(*g, ClientId::new(large));
        }
        assert_ne!(groups[0], groups[1]);
    }

    #[test]
    fn stats_add_every_counter() {
        let one = ReplicatorStats {
            vcs_created: 1,
            vcs_deleted: 2,
            handovers: 3,
            exceptions: 4,
            replayed: 5,
            buffered: 6,
            stale_dropped: 7,
            group_deliveries: 8,
        };
        let mut sum = one;
        sum += one;
        assert_eq!(
            sum,
            ReplicatorStats {
                vcs_created: 2,
                vcs_deleted: 4,
                handovers: 6,
                exceptions: 8,
                replayed: 10,
                buffered: 12,
                stale_dropped: 14,
                group_deliveries: 16,
            }
        );
    }

    #[test]
    fn app_of_round_trips() {
        assert_eq!(app_of(ClientId::new(7)), ApplicationId::new(7));
    }
}
