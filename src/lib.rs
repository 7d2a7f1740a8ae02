//! # rebeca — uncertainty-aware mobile publish/subscribe middleware
//!
//! A Rust reproduction of the system described in *Dealing with Uncertainty
//! in Mobile Publish/Subscribe Middleware* (Fiege, Zeidler, Gärtner,
//! Handurukande; Middleware 2003): the REBECA content-based
//! publish/subscribe middleware with physical mobility (transparent
//! relocation), logical mobility (location-dependent `myloc`
//! subscriptions), and the paper's contribution — **extended logical
//! mobility** through *pre-subscriptions and virtual clients* replicated
//! along a movement graph.
//!
//! The component crates are re-exported ([`core`], [`net`], [`broker`],
//! [`mobility`]); this crate adds the [`System`] facade that wires a
//! complete deployment into the deterministic simulator and drives it from
//! plain Rust code. The facade deals in **errors as values**: deployments
//! are validated when built, clients are addressed through typed handles
//! ([`FixedClient`] / [`MobileClient`]), and every operation that can fail
//! returns a [`RebecaError`]:
//!
//! ```
//! use rebeca::{Deployment, Filter, RebecaError, SimDuration, SystemBuilder};
//! use rebeca_net::Topology;
//!
//! # fn main() -> Result<(), RebecaError> {
//! // Three brokers in a line, mobile REBECA with the replicator layer.
//! let mut sys = SystemBuilder::new(Topology::line(3)?)
//!     .deployment(Deployment::replicated_defaults())
//!     .build()?;
//!
//! let walker = sys.add_mobile_client();
//! let sensor = sys.add_client(rebeca::BrokerId::new(1))?;
//!
//! sys.arrive(walker, rebeca::BrokerId::new(0))?;
//! sys.run_for(SimDuration::from_secs(1));
//! sys.subscribe(
//!     walker,
//!     Filter::builder().eq("service", "temperature").myloc("location").build(),
//! )?;
//! sys.run_for(SimDuration::from_secs(1));
//!
//! sys.publish(
//!     sensor,
//!     rebeca::Notification::builder()
//!         .attr("service", "temperature")
//!         .attr("location", rebeca::LocationId::new(1))
//!         .attr("celsius", 21.5),
//! )?;
//! sys.run_for(SimDuration::from_secs(1));
//!
//! // The walker is at B0 — the reading for L1 is buffered by the virtual
//! // client at B1, not delivered yet.
//! assert!(sys.delivered(walker)?.is_empty());
//!
//! // Walk next door: the buffered reading is replayed on arrival.
//! sys.depart(walker)?;
//! sys.run_for(SimDuration::from_secs(1));
//! sys.arrive(walker, rebeca::BrokerId::new(1))?;
//! sys.run_for(SimDuration::from_secs(1));
//! assert_eq!(sys.delivered(walker)?.len(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! ## Notification lifecycle
//!
//! One notification makes the whole journey **publish → match → route →
//! buffer → replay** behind a single allocation; the pipeline's sharing
//! and ownership rules are:
//!
//! 1. **Publish.** The client library stamps identity/sequence/time and
//!    wraps the notification in its one and only `Arc<Notification>`
//!    ([`Message::Publish`]). This is the sole per-notification heap
//!    allocation of the pipeline.
//! 2. **Match.** Each broker's routing table answers "who wants this?"
//!    with the value-keyed [`MatchIndex`](core::MatchIndex): every filter
//!    is filed under one `(attribute, value)` bucket, so the candidates of
//!    a notification are the filters sharing a value with it, and each is
//!    verified against all of its constraints. Attribute names resolve to dense symbols through the **per-world
//!    [`SharedInterner`]** — one symbol table, owned by the [`System`]
//!    (accessible via [`System::interner`]) and shared by every routing
//!    table and local-delivery index, so no stage ever re-interns. The
//!    interner publishes **RCU snapshots**: writers (first sight of a new
//!    attribute name) install a new immutable table; each index keeps a
//!    cached snapshot ([`core::InternerCache`]) revalidated with a single
//!    atomic generation load per matching call, so the match path holds
//!    no lock and bumps no shared refcount at any shard count. A filter
//!    is filed once, so it is a candidate at most once and matching
//!    keeps no state per filter; what the routing table asks for is
//!    matching *destinations* (a client, a link), and there the index
//!    keeps one mark per destination so that a client's or a link's
//!    remaining candidates are skipped once one of them matched.
//! 3. **Route.** [`broker::BrokerCore`] threads a reusable
//!    [`broker::RouteScratch`] through the decision and fans out by
//!    cloning the `Arc` ([`Message::Forward`] per matching neighbour,
//!    [`Message::Deliver`] per matching local client): refcount bumps, no
//!    copies, and — with warm buffers — zero heap allocation per routed
//!    notification (asserted by an allocation-regression test).
//! 4. **Buffer.** Disconnection and replication buffers
//!    ([`mobility::ReplayBuffer`], the shared digest store, relocation and
//!    hold-back queues) store the *same* `Arc`. The wire batches that ship
//!    buffers between replicators ([`MobilityMsg::BufferedBatch`] /
//!    `ReplicaBatch`) carry `Vec<Arc<Notification>>` — handing a buffer
//!    over never deep-copies its contents.
//! 5. **Replay.** Arriving clients receive the buffered `Arc`s as ordinary
//!    [`Message::Deliver`]s; the client library's delivery log
//!    ([`DeliveryRecord`]) keeps the shared allocation, performing
//!    duplicate suppression by notification id. The notification is freed
//!    when the last buffer, log or in-flight message drops its reference.
//!
//! ## Sharded matching
//!
//! Every broker's match/route state can be partitioned into N **shards
//! keyed by filter digest range** ([`core::Digest::shard`]): each routing
//! entry lives in exactly one shard, a mutation touches only its owning
//! shard, and a routing decision is the merge of the per-shard decisions.
//! Configure it with [`SystemBuilder::shards`] (default 1, or the
//! `REBECA_SHARDS` environment variable — CI runs the integration suites
//! under both 1 and 4):
//!
//! ```
//! use rebeca::{SystemBuilder, Topology};
//! let sys = SystemBuilder::new(Topology::line(3)?).shards(4).build()?;
//! assert_eq!(sys.shard_count(), 4);
//! # Ok::<(), rebeca::RebecaError>(())
//! ```
//!
//! **The equivalence guarantee.** Sharding is an execution detail, not a
//! semantic one: for every shard count, routing decisions, announcement
//! deltas and deliveries are *identical* to the unsharded broker's. This
//! holds by construction — all shards resolve attribute names through the
//! same [`SharedInterner`], each filter is owned by exactly one shard, and
//! the merged decision is normalised exactly like the unsharded one — and
//! it is enforced by machinery that ships with the shards: a
//! shard-equivalence proptest (`crates/broker/tests/shard_equivalence.rs`)
//! drives identical random churn into a 1-shard and a 4-shard broker and
//! compares decisions and announcement wire traffic after every step, and
//! a seed-replayable scenario soak (`tests/scenario_soak.rs`) replays
//! randomized mobility scenarios under both shard counts against the
//! simulator's delivery oracle. The zero-allocation steady state of the
//! route path is preserved for every shard count (asserted by the
//! allocation-regression test at shards = 4).
//!
//! The shards are fanned over in-line, in shard order
//! ([`broker::ShardedRouter`]), in every runtime: one broker is one node
//! thread, and the decision is deterministic whatever the shard count.
//!
//! ## Subscription churn at 10⁵ filters
//!
//! The announcement engine (the covering state each broker maintains per
//! neighbour link) is indexed by filter *shape*: a mutation probes only
//! candidate dominators — filters whose distinct attribute set is a
//! subset or superset of the churning filter's, pure-equality filters
//! additionally pre-filtered by a canonical value digest
//! ([`core::filter::Filter::cover_key`]). Links below 64 distinct filters
//! keep the plain scan (faster at that size); larger links build the
//! index once and from then on pay O(candidates) per mutation instead of
//! O(distinct served filters), so a 10⁵-filter preload is built in linear
//! time.
//!
//! ## Wire protocol & multi-process runtime
//!
//! Everything the brokers say has a canonical binary encoding: the full
//! [`broker::Message`] / [`broker::MobilityMsg`] surface (notifications,
//! filters, subscriptions, table deltas, replication control) round-trips
//! through `broker::codec`, with truncation and unknown-tag errors
//! surfaced as values, never panics. The receive side is **zero-copy**:
//! [`core::codec::ArchivedNotification`] validates received bytes once
//! and then serves ids, attributes and by-name lookups by reference,
//! resolving attribute names to process-local symbols through a warm
//! [`core::InternerCache`] with zero allocations (asserted by the
//! allocation-regression suite).
//!
//! On top of the codec sits length-prefixed framing ([`net::wire`]:
//! version byte, frame tags, 16 MiB cap, a [`net::FrameReassembler`] that
//! tolerates arbitrary read chunking) and the [`net::ProcessRuntime`]: the
//! [`net::ThreadRuntime`]'s peer that hosts a *partition* of the global
//! node table per OS process and carries inter-process traffic over Unix
//! domain sockets — per-peer writer threads coalesce frames out of a
//! bounded [`net::SendBuffer`] (blocking producers = backpressure), reader
//! threads reassemble, decode via the [`net::Wire`] seam and route into
//! local inboxes. Large mobility batches ([`mobility::pages`]) cross the
//! wire as size-bounded chunks with a `complete` marker on the last one.
//! [`SystemBuilder::build_process_partition`] deploys one process's share
//! of a static broker tier; `examples/live_processes.rs` runs two broker
//! processes end to end, and `tests/process_soak.rs` proves the
//! two-process deployment delivery-identical to the threaded runtime —
//! including a link drop + reconnect across the real socket.
//!
//! ## Replication: surviving broker crashes
//!
//! A supervised link heals the wires after a broker process is killed,
//! but the reborn process would come back with an empty routing table.
//! [`SystemBuilder::replication`] arms the broker-state replication layer
//! ([`broker::replication`]). A broker has **one mutation seam**:
//! [`broker::BrokerCore::classify`] turns a message into a
//! [`broker::BrokerOp`] and [`broker::BrokerCore::apply`] is the only
//! place an op touches the routing table. A plain or mobile broker applies
//! the op on the spot; a replicated one submits the same op to a log
//! replicated across a group of `group_size` members with
//! viewstamped-replication-style primary/backup semantics and applies it
//! on commit. The per-notification route path never touches the log (the
//! allocation-regression suite asserts zero steady-state allocations with
//! replication enabled); only churn pays the quorum round trips — one per
//! batch of ops, not one per op: a busy group ships the ops that piled up
//! behind a round trip in a single `Prepare`. Under
//! [`SystemBuilder::build_process_partition`] each broker's
//! backups are placed in *different* processes than the broker, so a
//! SIGKILLed process recovers its state by probing its group across the
//! healed link — no client ever re-subscribes. Group health is observable
//! via [`System::replication_stats`] (`ops_logged / prepares_sent` is the
//! mean batch size); `examples/replicated_group.rs` is
//! the two-process walkthrough and `tests/process_soak.rs` the
//! seed-replayable kill/recover proof. Default `group_size` 1 = off.
//!
//! ## Migrating from the panicking API
//!
//! Earlier revisions of this facade modelled uncertain operations as
//! infallible calls that panicked on misuse. The current API surfaces
//! those outcomes as values instead:
//!
//! * [`SystemBuilder::build`] returns `Result<System, RebecaError>` and
//!   validates the topology, location map and movement graph up front —
//!   nothing is silently patched at run time. A replicated deployment now
//!   takes `Option<MovementGraph>` (`None` ⇒ use the broker tree).
//! * [`System::add_client`] returns a [`FixedClient`] handle and
//!   [`System::add_mobile_client`] a [`MobileClient`] handle; mobility
//!   calls ([`System::arrive`], [`System::depart`],
//!   [`System::set_context`]) accept only [`MobileClient`], so "arrive
//!   with an immobile client" no longer compiles. Where an old call site
//!   passed a raw [`ClientId`], pass the handle; the id is still available
//!   via `handle.id()` for logging.
//! * Every facade mutation and per-client/per-broker accessor returns
//!   `Result<_, RebecaError>` — `publish`, `subscribe`, `unsubscribe`,
//!   `set_context`, `arrive`, `depart`, `shutdown_client`, `delivered`,
//!   `client_stats`, `broker_stats`, … Replace `sys.publish(c, n);` with
//!   `sys.publish(c, n)?;` (or `.expect(..)` in test code).
//! * Double `arrive` (without an intervening `depart`) reports
//!   [`RebecaError::AlreadyConnected`]; double `depart` reports
//!   [`RebecaError::NotConnected`]; scheduling a publication in the past
//!   reports [`RebecaError::TimeInPast`]. None of these panic any more.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rebeca_broker as broker;
pub use rebeca_core as core;
pub use rebeca_mobility as mobility;
pub use rebeca_net as net;

mod error;
mod handle;

pub use error::RebecaError;
pub use handle::{ClientHandle, FixedClient, MobileClient};

pub use rebeca_broker::{BrokerStats, DeliveryRecord, Message, MobilityMsg, RoutingStrategy};
pub use rebeca_core::{
    ApplicationId, BrokerId, ClientId, Filter, LocationId, Notification, NotificationBuilder,
    Predicate, SharedInterner, SimDuration, SimTime, Subscription, SubscriptionId, Value,
};
pub use rebeca_mobility::{
    BufferSpec, ClientMobilityMode, ContextMap, LocationMap, MovementGraph, ReplicatorConfig,
    ReplicatorStats,
};
pub use rebeca_net::{NetMetrics, Topology};

use rebeca_broker::replication::{
    ReplicaNode, ReplicatedBrokerNode, ReplicationMetrics, ReplicationStats,
};
use rebeca_broker::{BrokerCore, BrokerNode, ClientNode, LocalBroker};
use rebeca_mobility::{MobileClientNode, ReplicatorNode};
use rebeca_net::{LinkConfig, Node, NodeId, World};
use std::sync::Arc;

/// Which mobility layers are deployed.
#[derive(Debug, Clone)]
pub enum Deployment {
    /// Plain REBECA: immobile brokers and clients, no mobility support.
    Static,
    /// The full paper: plain brokers + a replicator per border broker
    /// implementing pre-subscriptions and virtual clients over a movement
    /// graph.
    Replicated {
        /// The movement graph constraining client movement; `None` means
        /// "use the broker tree itself" (validated against the topology by
        /// [`SystemBuilder::build`]).
        movement: Option<MovementGraph>,
        /// Replicator-layer configuration (nlb radius, buffering policy).
        config: ReplicatorConfig,
    },
}

impl Deployment {
    /// Replicated deployment with the movement graph equal to the broker
    /// tree and default replicator configuration — the common case.
    pub fn replicated_defaults() -> Deployment {
        Deployment::Replicated { movement: None, config: ReplicatorConfig::default() }
    }

    /// The reactive baseline: the replicator layer with no
    /// pre-subscriptions (`k_hops: 0`). Clients relocate losslessly and
    /// `myloc` subscriptions are resolved when the client arrives.
    pub fn reactive() -> Deployment {
        Deployment::Replicated {
            movement: None,
            config: ReplicatorConfig { k_hops: 0, ..Default::default() },
        }
    }
}

/// The build-time default shard count: the `REBECA_SHARDS` environment
/// variable when set (CI exercises the integration suites under both 1 and
/// 4), otherwise 1 — the unsharded behaviour. A *set but invalid* value
/// panics rather than silently falling back to 1: a CI matrix leg that
/// thinks it is testing `shards=4` must never green-light an unsharded
/// run.
fn default_shard_count() -> usize {
    match std::env::var("REBECA_SHARDS") {
        Err(_) => 1,
        Ok(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("REBECA_SHARDS must be a positive integer (1 = unsharded), got {v:?}"),
        },
    }
}

/// Node ids of broker `b`'s replica group in a tier of `n` brokers with
/// groups of `g`: the broker itself, then its `g - 1` log backups. Backup
/// `j` lives at node `n + b*(g-1) + j` — the backups are appended directly
/// after the broker tier, so client numbering is the same whether or not
/// replication is on, and every build path (and every process of a
/// partitioned build) derives the same ids.
fn replica_group(n: usize, g: usize, b: usize) -> Vec<NodeId> {
    let mut group = vec![NodeId::new(b as u32)];
    group.extend((0..g - 1).map(|j| NodeId::new((n + b * (g - 1) + j) as u32)));
    group
}

/// The immobile broker node around `core`. This is where a deployment
/// chooses what happens to a broker's mutations: with replication on they
/// are submitted to the broker's replica group and applied on commit,
/// otherwise applied at once.
fn static_broker_node(
    core: BrokerCore,
    n: usize,
    g: usize,
    metrics: Option<&Arc<ReplicationMetrics>>,
) -> Box<dyn Node<Message>> {
    match metrics {
        Some(metrics) => {
            let group = replica_group(n, g, core.id().raw() as usize);
            Box::new(ReplicatedBrokerNode::new(core, group, Arc::clone(metrics)))
        }
        None => Box::new(BrokerNode::new(core)),
    }
}

/// Builder for a complete simulated deployment.
#[derive(Debug)]
pub struct SystemBuilder {
    topology: Topology,
    strategy: RoutingStrategy,
    deployment: Deployment,
    locations: Option<LocationMap>,
    link_latency: SimDuration,
    seed: u64,
    shards: usize,
    reconnect: Option<rebeca_net::ReconnectPolicy>,
    replication: usize,
}

impl SystemBuilder {
    /// Starts a builder over the given broker topology.
    ///
    /// # Panics
    ///
    /// Panics if the `REBECA_SHARDS` environment variable is set to
    /// anything other than a positive integer (see
    /// [`SystemBuilder::shards`]).
    pub fn new(topology: Topology) -> Self {
        SystemBuilder {
            topology,
            strategy: RoutingStrategy::Simple,
            deployment: Deployment::Static,
            locations: None,
            link_latency: SimDuration::from_millis(1),
            seed: 42,
            shards: default_shard_count(),
            reconnect: None,
            replication: 1,
        }
    }

    /// Selects the routing strategy (default: simple routing, as the
    /// paper assumes).
    #[must_use]
    pub fn strategy(mut self, strategy: RoutingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Selects the mobility deployment (default: static).
    #[must_use]
    pub fn deployment(mut self, deployment: Deployment) -> Self {
        self.deployment = deployment;
        self
    }

    /// Overrides the broker↔location mapping (default: one location per
    /// broker).
    #[must_use]
    pub fn locations(mut self, locations: LocationMap) -> Self {
        self.locations = Some(locations);
        self
    }

    /// Sets the constant link latency (default 1 ms).
    #[must_use]
    pub fn link_latency(mut self, latency: SimDuration) -> Self {
        self.link_latency = latency;
        self
    }

    /// Sets the determinism seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Partitions every broker's match/route state into `shards` shards
    /// keyed by filter digest range (see the "Sharded matching" section of
    /// the crate docs). Default: the `REBECA_SHARDS` environment variable,
    /// or 1 — the unsharded behaviour. Sharding is an execution detail:
    /// routing decisions, announcements and deliveries are identical for
    /// every shard count. Passing `0` is rejected by
    /// [`SystemBuilder::build`].
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Replicates every broker's mutation state (routing-table churn and
    /// mobility-buffer operations) across a replica group of `group_size`
    /// members: the broker itself plus `group_size - 1` log backups, kept
    /// consistent through a Viewstamped-Replication-style op log (see
    /// [`broker::replication`]). A broker whose process dies is either
    /// succeeded by a backup (view change) or — once respawned — recovers
    /// its full routing table and relocation buffers from its group
    /// *without any client re-subscribing*. Replication sits on the
    /// mutation path only; the zero-allocation notification route path is
    /// untouched.
    ///
    /// Default 1 — replication off, brokers run bare exactly as before.
    /// `group_size` must be between 2 and the broker count, and currently
    /// requires the static deployment (validated by
    /// [`SystemBuilder::build`]).
    #[must_use]
    pub fn replication(mut self, group_size: usize) -> Self {
        self.replication = group_size;
        self
    }

    /// Arms link supervision with automatic reconnection for
    /// [`build_process_partition`](SystemBuilder::build_process_partition)
    /// deployments: a peer process that dies is re-dialed (or re-accepted)
    /// under `policy`'s jittered exponential backoff, the Hello handshake
    /// is replayed, and link state is re-broadcast. Off by default — a
    /// dead peer's links then stay down (traffic towards it is counted
    /// and dropped) while everything else keeps running. Ignored by the
    /// simulator and threaded-runtime builds, which have no sockets.
    #[must_use]
    pub fn reconnect_policy(mut self, policy: rebeca_net::ReconnectPolicy) -> Self {
        self.reconnect = Some(policy);
        self
    }

    /// Validates the configuration without building the world.
    ///
    /// Returns the movement graph to deploy for replicated deployments.
    fn validate(&self) -> Result<Option<MovementGraph>, RebecaError> {
        let n = self.topology.broker_count();
        if n == 0 {
            // Unreachable through `Topology`'s constructors, which reject
            // empty graphs; kept so the facade never trusts its inputs.
            return Err(RebecaError::InvalidTopology("topology has no brokers".into()));
        }
        if self.shards == 0 {
            return Err(RebecaError::InvalidDeployment(
                "shard count must be at least 1 (1 = unsharded)".into(),
            ));
        }
        if self.replication == 0 {
            return Err(RebecaError::InvalidDeployment(
                "replication group size must be at least 1 (1 = off)".into(),
            ));
        }
        if self.replication > 1 {
            if !matches!(self.deployment, Deployment::Static) {
                return Err(RebecaError::InvalidDeployment(
                    "broker-state replication currently requires the static \
                     deployment; mobility tiers ride on unreplicated brokers"
                        .into(),
                ));
            }
            if self.replication > n {
                return Err(RebecaError::InvalidDeployment(format!(
                    "replication group size {} exceeds the broker count {n}: \
                     each backup is co-hosted with a *different* broker so a \
                     process death never takes a whole group down",
                    self.replication
                )));
            }
        }
        if let Some(locations) = &self.locations {
            for (broker, _) in locations.iter() {
                if broker.raw() as usize >= n {
                    return Err(RebecaError::InvalidDeployment(format!(
                        "location map assigns a scope to {broker}, but the topology \
                         has only {n} brokers"
                    )));
                }
            }
        }
        match &self.deployment {
            Deployment::Replicated { movement: Some(movement), .. } => {
                if movement.broker_count() == 0 {
                    return Err(RebecaError::InvalidDeployment(
                        "replicated deployment with an empty movement graph: \
                         no client could ever move; pass `movement: None` to \
                         use the broker tree"
                            .into(),
                    ));
                }
                if !movement.is_consistent_with(&self.topology) {
                    return Err(RebecaError::InvalidTopology(format!(
                        "movement graph references brokers outside the \
                         {n}-broker topology"
                    )));
                }
                Ok(Some(movement.clone()))
            }
            Deployment::Replicated { movement: None, .. } => {
                Ok(Some(MovementGraph::from_topology(&self.topology)))
            }
            _ => Ok(None),
        }
    }

    /// Builds the world: brokers, links, replicators.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::InvalidDeployment`] if the location map
    /// assigns scopes to brokers outside the topology, or a replicated
    /// deployment carries an explicitly empty movement graph; and
    /// [`RebecaError::InvalidTopology`] if the movement graph references
    /// brokers the topology does not have.
    pub fn build(self) -> Result<System, RebecaError> {
        let movement = self.validate()?;
        let topology = Arc::new(self.topology);
        let n = topology.broker_count();
        let locations =
            Arc::new(self.locations.unwrap_or_else(|| LocationMap::one_per_broker(&topology)));
        let broker_nodes: Arc<Vec<NodeId>> = Arc::new((0..n as u32).map(NodeId::new).collect());
        let link = LinkConfig::constant(self.link_latency);
        let mut world = World::new(self.seed);

        // Brokers — all sharing one world-wide interner, so every routing
        // table and local-delivery index resolves identical symbols (see
        // the "Notification lifecycle" section of the crate docs).
        let interner = Arc::new(SharedInterner::new());
        let g = self.replication;
        let replication_metrics = (g > 1).then(|| Arc::new(ReplicationMetrics::default()));
        for b in topology.brokers() {
            let core = BrokerCore::with_shards(
                b,
                Arc::clone(&topology),
                Arc::clone(&broker_nodes),
                self.strategy,
                Arc::clone(&interner),
                self.shards,
            );
            world.add_node(static_broker_node(core, n, g, replication_metrics.as_ref()));
        }
        for (a, b) in topology.edges() {
            world.connect(
                broker_nodes[a.raw() as usize],
                broker_nodes[b.raw() as usize],
                link.clone(),
            );
        }

        // Replica-group backups with a full link mesh per group.
        if let Some(metrics) = &replication_metrics {
            for b in 0..n {
                let group = replica_group(n, g, b);
                for j in 1..g {
                    let id = world.add_node(Box::new(ReplicaNode::new(
                        group.clone(),
                        j,
                        Arc::clone(metrics),
                    )));
                    debug_assert_eq!(id, group[j], "backup placement formula");
                }
                for i in 0..g {
                    for k in (i + 1)..g {
                        world.connect(group[i], group[k], link.clone());
                    }
                }
            }
        }

        // Replicators.
        let (replicator_nodes, access_nodes) = match (&self.deployment, movement) {
            (Deployment::Replicated { config, .. }, Some(movement)) => {
                let movement = Arc::new(movement);
                let replicator_nodes: Arc<Vec<NodeId>> =
                    Arc::new((n as u32..2 * n as u32).map(NodeId::new).collect());
                for b in topology.brokers() {
                    let node = world.add_node(Box::new(ReplicatorNode::new(
                        b,
                        broker_nodes[b.raw() as usize],
                        Arc::clone(&replicator_nodes),
                        Arc::clone(&movement),
                        Arc::clone(&locations),
                        config.clone(),
                    )));
                    world.connect(node, broker_nodes[b.raw() as usize], link.clone());
                }
                // Replicator ↔ replicator mesh ("direct TCP connections").
                for i in 0..n {
                    for j in (i + 1)..n {
                        world.connect(replicator_nodes[i], replicator_nodes[j], link.clone());
                    }
                }
                (Some(Arc::clone(&replicator_nodes)), replicator_nodes)
            }
            _ => (None, Arc::clone(&broker_nodes)),
        };

        Ok(System {
            world,
            topology,
            locations,
            broker_nodes,
            access_nodes,
            replicator_nodes,
            interner,
            link,
            shards: self.shards,
            replication: self.replication,
            replication_metrics,
            clients: Vec::new(),
            next_client: 0,
            next_sub: 0,
        })
    }

    /// Deploys the broker tier of this configuration into one process of a
    /// multi-process deployment (see
    /// [`ProcessRuntime`](rebeca_net::ProcessRuntime)).
    ///
    /// Brokers listed in `hosted` become local nodes of `rt`; every other
    /// broker is declared remote behind the peer connection `peer_of`
    /// returns for it. Every participating process must call this with the
    /// *same* topology (so the global node table lines up) but its own
    /// `hosted` set; topology edges are connected on all of them. Client
    /// nodes are added by the caller afterwards — again in the same order
    /// in every process, using
    /// [`add_local`](rebeca_net::ProcessRuntime::add_local) here and
    /// [`add_remote`](rebeca_net::ProcessRuntime::add_remote) elsewhere.
    ///
    /// Each process builds its own [`SharedInterner`]: attribute-name
    /// symbols are process-local, resolved on decode — nothing interned
    /// ever crosses the wire. Returns the broker node ids, indexed by
    /// [`BrokerId`]. The simulation-only settings of the builder (seed,
    /// link latency) are ignored, exactly as in the threaded runtime. A
    /// [`reconnect_policy`](SystemBuilder::reconnect_policy), if set, is
    /// installed on `rt` so killed peer processes are survivable (see
    /// [`rebeca_net::supervisor`]).
    ///
    /// # Errors
    ///
    /// [`RebecaError::InvalidDeployment`] for a non-static deployment (the
    /// mobility tiers currently ride on the simulator), a `hosted` broker
    /// outside the topology, or a remote broker for which `peer_of`
    /// returns `None`; plus anything [`SystemBuilder::build`] would reject.
    pub fn build_process_partition(
        self,
        rt: &mut rebeca_net::ProcessRuntime<Message>,
        hosted: &[BrokerId],
        mut peer_of: impl FnMut(BrokerId) -> Option<rebeca_net::PeerId>,
    ) -> Result<Vec<NodeId>, RebecaError> {
        self.validate()?;
        if !matches!(self.deployment, Deployment::Static) {
            return Err(RebecaError::InvalidDeployment(
                "process partitions deploy the static broker tier; mobility \
                 deployments run on the simulator or the threaded runtime"
                    .into(),
            ));
        }
        let n = self.topology.broker_count();
        for b in hosted {
            if b.raw() as usize >= n {
                return Err(RebecaError::InvalidDeployment(format!(
                    "hosted broker {b} is outside the {n}-broker topology"
                )));
            }
        }
        if let Some(policy) = self.reconnect {
            rt.set_reconnect_policy(policy);
        }
        let topology = Arc::new(self.topology);
        let broker_nodes: Arc<Vec<NodeId>> = Arc::new((0..n as u32).map(NodeId::new).collect());
        let interner = Arc::new(SharedInterner::new());
        let g = self.replication;
        let replication_metrics = (g > 1).then(|| Arc::new(ReplicationMetrics::default()));
        // Same group node ids as the simulator build; the member at group
        // position p ∈ 1..g is hosted by the process of broker (b+p) mod n —
        // each group member lives in a *different* process, so one process
        // death never takes a quorum down.
        let mut ids = Vec::with_capacity(n);
        for b in topology.brokers() {
            if hosted.contains(&b) {
                let core = BrokerCore::with_shards(
                    b,
                    Arc::clone(&topology),
                    Arc::clone(&broker_nodes),
                    self.strategy,
                    Arc::clone(&interner),
                    self.shards,
                );
                let node = static_broker_node(core, n, g, replication_metrics.as_ref());
                ids.push(rt.add_local(node));
            } else {
                let peer = peer_of(b).ok_or_else(|| {
                    RebecaError::InvalidDeployment(format!(
                        "broker {b} is not hosted here and has no peer connection"
                    ))
                })?;
                ids.push(rt.add_remote(peer));
            }
        }
        if let Some(metrics) = &replication_metrics {
            for b in 0..n {
                let group = replica_group(n, g, b);
                for p in 1..g {
                    let host = BrokerId::new(((b + p) % n) as u32);
                    let id = if hosted.contains(&host) {
                        rt.add_local(Box::new(ReplicaNode::new(
                            group.clone(),
                            p,
                            Arc::clone(metrics),
                        )))
                    } else {
                        let peer = peer_of(host).ok_or_else(|| {
                            RebecaError::InvalidDeployment(format!(
                                "backup {p} of broker B{b} lives with broker {host}, \
                                 which is not hosted here and has no peer connection"
                            ))
                        })?;
                        rt.add_remote(peer)
                    };
                    debug_assert_eq!(id, group[p], "backup placement formula");
                }
            }
        }
        for (a, b) in topology.edges() {
            rt.connect(ids[a.raw() as usize], ids[b.raw() as usize]);
        }
        // Full link mesh inside each replica group.
        if replication_metrics.is_some() {
            for b in 0..n {
                let group = replica_group(n, g, b);
                for i in 0..g {
                    for k in (i + 1)..g {
                        rt.connect(group[i], group[k]);
                    }
                }
            }
        }
        Ok(ids)
    }
}

#[derive(Debug, Clone, Copy)]
struct ClientInfo {
    id: ClientId,
    node: NodeId,
    mobile: bool,
    /// The broker a mobile client is currently attached to (always `None`
    /// for immobile clients, whose attachment is fixed at creation).
    attached: Option<BrokerId>,
}

/// Per-client delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Notifications delivered (after duplicate suppression).
    pub delivered: u64,
    /// Duplicate deliveries suppressed by the client library.
    pub duplicates: u64,
    /// Per-publisher FIFO violations observed.
    pub fifo_violations: u64,
}

/// A complete simulated REBECA deployment.
///
/// Owns the [`World`] and offers an application-level API: add clients,
/// publish, subscribe, move devices between brokers, advance time, inspect
/// deliveries and metrics. Clients are addressed through the typed handles
/// returned by [`System::add_client`] / [`System::add_mobile_client`];
/// every fallible operation returns [`RebecaError`] instead of panicking.
/// See the crate-level example.
#[derive(Debug)]
pub struct System {
    world: World<Message>,
    topology: Arc<Topology>,
    locations: Arc<LocationMap>,
    broker_nodes: Arc<Vec<NodeId>>,
    access_nodes: Arc<Vec<NodeId>>,
    replicator_nodes: Option<Arc<Vec<NodeId>>>,
    interner: Arc<SharedInterner>,
    link: LinkConfig,
    shards: usize,
    replication: usize,
    replication_metrics: Option<Arc<ReplicationMetrics>>,
    clients: Vec<ClientInfo>,
    next_client: u32,
    next_sub: u32,
}

impl System {
    /// The broker topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The world-wide attribute-name symbol table shared by every broker's
    /// routing table and local-delivery index (see the "Notification
    /// lifecycle" section of the crate docs).
    pub fn interner(&self) -> &Arc<SharedInterner> {
        &self.interner
    }

    /// The broker↔location mapping.
    pub fn locations(&self) -> &LocationMap {
        &self.locations
    }

    /// Number of match/route shards each broker's routing state is
    /// partitioned into (1 = unsharded).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Replica-group size each broker's mutation state is replicated
    /// across (1 = replication off; see [`SystemBuilder::replication`]).
    pub fn replication_factor(&self) -> usize {
        self.replication
    }

    /// Aggregate replication counters across every broker's replica group;
    /// `None` when replication is off.
    pub fn replication_stats(&self) -> Option<ReplicationStats> {
        self.replication_metrics.as_ref().map(|m| m.snapshot())
    }

    fn check_broker(&self, broker: BrokerId) -> Result<usize, RebecaError> {
        let idx = broker.raw() as usize;
        if idx < self.topology.broker_count() {
            Ok(idx)
        } else {
            Err(RebecaError::UnknownBroker(broker))
        }
    }

    /// Adds an immobile client attached to `broker` (always connected),
    /// returning its [`FixedClient`] handle.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownBroker`] if `broker` is outside the
    /// topology.
    pub fn add_client(&mut self, broker: BrokerId) -> Result<FixedClient, RebecaError> {
        let access = self.access_nodes[self.check_broker(broker)?];
        let id = ClientId::new(self.next_client);
        self.next_client += 1;
        let node = self.world.add_node(Box::new(ClientNode::new(id, Some(access))));
        self.world.connect(node, access, self.link.clone());
        self.clients.push(ClientInfo { id, node, mobile: false, attached: None });
        Ok(FixedClient::new(id))
    }

    /// Adds a mobile client (initially out of coverage; call
    /// [`System::arrive`] to attach it somewhere), returning its
    /// [`MobileClient`] handle. Uses the relocation hand-off protocol.
    pub fn add_mobile_client(&mut self) -> MobileClient {
        self.add_mobile_client_with_mode(ClientMobilityMode::Relocation)
    }

    /// Adds a mobile client with an explicit mobility mode (the naive
    /// JEDI-style baseline or the relocation protocol).
    pub fn add_mobile_client_with_mode(&mut self, mode: ClientMobilityMode) -> MobileClient {
        let id = ClientId::new(self.next_client);
        self.next_client += 1;
        let node = self.world.add_node(Box::new(MobileClientNode::new(
            id,
            mode,
            Arc::clone(&self.access_nodes),
        )));
        for access in self.access_nodes.iter() {
            self.world.connect(node, *access, self.link.clone());
            self.world.set_link_up(node, *access, false);
        }
        self.clients.push(ClientInfo { id, node, mobile: true, attached: None });
        MobileClient::new(id)
    }

    fn info(&self, client: ClientId) -> Result<ClientInfo, RebecaError> {
        self.clients
            .iter()
            .find(|c| c.id == client)
            .copied()
            .ok_or(RebecaError::UnknownClient(client))
    }

    /// Looks up a mobile client, verifying the handle belongs to this
    /// system *and* refers to a mobile client here (a handle from another
    /// system may alias an immobile client's id).
    fn mobile_info(&self, client: MobileClient) -> Result<ClientInfo, RebecaError> {
        let info = self.info(client.id())?;
        if !info.mobile {
            return Err(RebecaError::NotMobile(info.id));
        }
        Ok(info)
    }

    /// Publishes a notification from `client` (sequence number and
    /// timestamp are stamped by the client library).
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] if the handle does not
    /// belong to this system.
    pub fn publish(
        &mut self,
        client: impl ClientHandle,
        attrs: NotificationBuilder,
    ) -> Result<(), RebecaError> {
        let node = self.info(client.client_id())?.node;
        self.world.send_external(node, Message::AppPublish { attrs });
        Ok(())
    }

    /// Schedules a publication from `client` at a future simulated time —
    /// used by workload generators to pre-load a whole run.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] if the handle does not
    /// belong to this system, and [`RebecaError::TimeInPast`] if `at` lies
    /// before the current simulated time.
    pub fn publish_at(
        &mut self,
        client: impl ClientHandle,
        attrs: NotificationBuilder,
        at: SimTime,
    ) -> Result<(), RebecaError> {
        let node = self.info(client.client_id())?.node;
        let now = self.world.now();
        if at < now {
            return Err(RebecaError::TimeInPast { at, now });
        }
        self.world.send_external_at(node, Message::AppPublish { attrs }, at);
        Ok(())
    }

    /// Registers a subscription for `client`, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] if the handle does not
    /// belong to this system.
    pub fn subscribe(
        &mut self,
        client: impl ClientHandle,
        filter: Filter,
    ) -> Result<SubscriptionId, RebecaError> {
        let node = self.info(client.client_id())?.node;
        let id = SubscriptionId::new(self.next_sub);
        self.next_sub += 1;
        self.world.send_external(node, Message::AppSubscribe { id, filter });
        Ok(id)
    }

    /// Revokes a subscription.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] if the handle does not
    /// belong to this system.
    pub fn unsubscribe(
        &mut self,
        client: impl ClientHandle,
        id: SubscriptionId,
    ) -> Result<(), RebecaError> {
        let node = self.info(client.client_id())?.node;
        self.world.send_external(node, Message::AppUnsubscribe { id });
        Ok(())
    }

    /// Updates one entry of a mobile client's context (`myctx` markers are
    /// re-resolved and affected subscriptions re-issued).
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] or [`RebecaError::NotMobile`]
    /// if the handle does not refer to a mobile client of this system.
    pub fn set_context(
        &mut self,
        client: MobileClient,
        key: impl Into<String>,
        predicate: Predicate,
    ) -> Result<(), RebecaError> {
        let node = self.mobile_info(client)?.node;
        self.world.send_external(
            node,
            Message::Mobility(MobilityMsg::AppSetContext { key: key.into(), predicate }),
        );
        Ok(())
    }

    /// Brings a mobile client into the range of `broker` and attaches it
    /// (flips the wireless links, then injects `AppMoveTo`).
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] / [`RebecaError::NotMobile`]
    /// for a handle from another system, [`RebecaError::UnknownBroker`]
    /// for a broker outside the topology, and
    /// [`RebecaError::AlreadyConnected`] if the client has not departed
    /// from its previous broker.
    pub fn arrive(&mut self, client: MobileClient, broker: BrokerId) -> Result<(), RebecaError> {
        let info = self.mobile_info(client)?;
        self.check_broker(broker)?;
        if let Some(at) = info.attached {
            return Err(RebecaError::AlreadyConnected { client: info.id, at });
        }
        for (i, access) in self.access_nodes.clone().iter().enumerate() {
            self.world.set_link_up(info.node, *access, i == broker.raw() as usize);
        }
        self.world
            .send_external(info.node, Message::Mobility(MobilityMsg::AppMoveTo { border: broker }));
        self.set_attached(info.id, Some(broker));
        Ok(())
    }

    /// Takes a mobile client out of coverage: announces the move (for the
    /// naive baseline's explicit moveOut), downs all wireless links, and
    /// powers the device off.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] / [`RebecaError::NotMobile`]
    /// for a handle from another system, and [`RebecaError::NotConnected`]
    /// if the client is already out of coverage.
    pub fn depart(&mut self, client: MobileClient) -> Result<(), RebecaError> {
        let info = self.mobile_info(client)?;
        if info.attached.is_none() {
            return Err(RebecaError::NotConnected(info.id));
        }
        self.world.send_external(info.node, Message::Mobility(MobilityMsg::AppPrepareMove));
        // Give the (naive) moveOut a moment on the still-up link.
        let t = self.world.now() + SimDuration::from_millis(50);
        self.world.run_until(t);
        for access in self.access_nodes.clone().iter() {
            self.world.set_link_up(info.node, *access, false);
        }
        self.world.send_external(info.node, Message::Mobility(MobilityMsg::AppDisconnect));
        self.set_attached(info.id, None);
        Ok(())
    }

    fn set_attached(&mut self, client: ClientId, attached: Option<BrokerId>) {
        if let Some(info) = self.clients.iter_mut().find(|c| c.id == client) {
            info.attached = attached;
        }
    }

    /// The broker a mobile client is currently attached to, if any.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] / [`RebecaError::NotMobile`]
    /// for a handle from another system.
    pub fn attached_broker(&self, client: MobileClient) -> Result<Option<BrokerId>, RebecaError> {
        Ok(self.mobile_info(client)?.attached)
    }

    /// Orderly client shutdown: detaches at the current access point so the
    /// middleware garbage-collects all state (including virtual clients).
    /// A mobile client is marked as departed (its wireless links go down),
    /// so the handle can [`System::arrive`] again later.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] if the handle does not
    /// belong to this system and [`RebecaError::UnknownBroker`] if `at` is
    /// outside the topology.
    pub fn shutdown_client(
        &mut self,
        client: impl ClientHandle,
        at: BrokerId,
    ) -> Result<(), RebecaError> {
        let info = self.info(client.client_id())?;
        let access = self.access_nodes[self.check_broker(at)?];
        self.world.send_external(access, Message::ClientDetach { client: info.id });
        if info.mobile && info.attached.is_some() {
            for node in self.access_nodes.clone().iter() {
                self.world.set_link_up(info.node, *node, false);
            }
            self.set_attached(info.id, None);
        }
        Ok(())
    }

    /// Advances simulated time by `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.world.now() + d;
        self.world.run_until(t);
    }

    /// Advances simulated time to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.world.run_until(t);
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    fn with_local<R>(
        &self,
        client: ClientId,
        f: impl FnOnce(&LocalBroker) -> R,
    ) -> Result<R, RebecaError> {
        let info = self.info(client)?;
        // The downcasts cannot fail for a validated client id: the node was
        // created by add_client / add_mobile_client with matching mobility.
        if info.mobile {
            Ok(f(self
                .world
                .node_as::<MobileClientNode>(info.node)
                .expect("mobile client node")
                .local()))
        } else {
            Ok(f(self.world.node_as::<ClientNode>(info.node).expect("client node").local()))
        }
    }

    fn with_local_mut<R>(
        &mut self,
        client: ClientId,
        f: impl FnOnce(&mut LocalBroker) -> R,
    ) -> Result<R, RebecaError> {
        let info = self.info(client)?;
        if info.mobile {
            Ok(f(self
                .world
                .node_as_mut::<MobileClientNode>(info.node)
                .expect("mobile client node")
                .local_mut()))
        } else {
            Ok(f(self.world.node_as_mut::<ClientNode>(info.node).expect("client node").local_mut()))
        }
    }

    /// The notifications delivered to `client` (and not yet drained).
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] if the handle does not
    /// belong to this system.
    pub fn delivered(&self, client: impl ClientHandle) -> Result<Vec<DeliveryRecord>, RebecaError> {
        self.with_local(client.client_id(), |l| l.delivered().to_vec())
    }

    /// Drains and returns the delivery log of `client`.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] if the handle does not
    /// belong to this system.
    pub fn take_delivered(
        &mut self,
        client: impl ClientHandle,
    ) -> Result<Vec<DeliveryRecord>, RebecaError> {
        self.with_local_mut(client.client_id(), LocalBroker::take_delivered)
    }

    /// Delivery statistics of `client`.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] if the handle does not
    /// belong to this system.
    pub fn client_stats(&self, client: impl ClientHandle) -> Result<ClientStats, RebecaError> {
        self.with_local(client.client_id(), |l| ClientStats {
            delivered: l.delivered().len() as u64,
            duplicates: l.duplicates(),
            fifo_violations: l.fifo_violations(),
        })
    }

    /// Link-level traffic metrics of the whole run.
    pub fn metrics(&self) -> &NetMetrics {
        self.world.metrics()
    }

    /// Routing statistics of one broker.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownBroker`] if `broker` is outside the
    /// topology.
    pub fn broker_stats(&self, broker: BrokerId) -> Result<BrokerStats, RebecaError> {
        Ok(self.broker_core(broker)?.stats())
    }

    /// The routing core of one broker, whichever node type hosts it.
    fn broker_core(&self, broker: BrokerId) -> Result<&BrokerCore, RebecaError> {
        let node = self.broker_nodes[self.check_broker(broker)?];
        let w = &self.world;
        let core = w
            .node_as::<BrokerNode>(node)
            .map(BrokerNode::core)
            .or_else(|| w.node_as::<ReplicatedBrokerNode>(node).map(ReplicatedBrokerNode::core));
        Ok(core.expect("build() hosts every broker's core in one of these two node types"))
    }

    /// Routing-table size (entries) of one broker.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownBroker`] if `broker` is outside the
    /// topology.
    pub fn table_size(&self, broker: BrokerId) -> Result<usize, RebecaError> {
        Ok(self.broker_core(broker)?.router().entry_count())
    }

    /// Replicator statistics of one broker; `Ok(None)` for deployments
    /// without a replicator layer.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownBroker`] if `broker` is outside the
    /// topology.
    pub fn replicator_stats(
        &self,
        broker: BrokerId,
    ) -> Result<Option<ReplicatorStats>, RebecaError> {
        let idx = self.check_broker(broker)?;
        let Some(nodes) = self.replicator_nodes.as_ref() else {
            return Ok(None);
        };
        Ok(self.world.node_as::<ReplicatorNode>(nodes[idx]).map(|r| r.stats()))
    }

    /// Virtual clients hosted at one broker's replicator (0 for
    /// deployments without a replicator layer).
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownBroker`] if `broker` is outside the
    /// topology.
    pub fn vc_count(&self, broker: BrokerId) -> Result<usize, RebecaError> {
        let idx = self.check_broker(broker)?;
        Ok(self
            .replicator_nodes
            .as_ref()
            .and_then(|nodes| {
                self.world.node_as::<ReplicatorNode>(nodes[idx]).map(|r| r.vc_count())
            })
            .unwrap_or(0))
    }

    /// Total virtual clients across all replicators.
    pub fn total_vc_count(&self) -> usize {
        self.topology.brokers().map(|b| self.vc_count(b).unwrap_or(0)).sum()
    }

    /// Bytes held in replication buffers at one broker (0 for deployments
    /// without a replicator layer).
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownBroker`] if `broker` is outside the
    /// topology.
    pub fn buffer_bytes(&self, broker: BrokerId) -> Result<usize, RebecaError> {
        let idx = self.check_broker(broker)?;
        Ok(self
            .replicator_nodes
            .as_ref()
            .and_then(|nodes| {
                self.world.node_as::<ReplicatorNode>(nodes[idx]).map(|r| r.buffer_bytes())
            })
            .unwrap_or(0))
    }

    /// Total buffered bytes across all replicators.
    pub fn total_buffer_bytes(&self) -> usize {
        self.topology.brokers().map(|b| self.buffer_bytes(b).unwrap_or(0)).sum()
    }

    /// The replicator process of one broker, for state inspection;
    /// `Ok(None)` for deployments without a replicator layer.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownBroker`] if `broker` is outside the
    /// topology.
    pub fn replicator(&self, broker: BrokerId) -> Result<Option<&ReplicatorNode>, RebecaError> {
        let idx = self.check_broker(broker)?;
        Ok(self
            .replicator_nodes
            .as_ref()
            .and_then(|nodes| self.world.node_as::<ReplicatorNode>(nodes[idx])))
    }

    /// Direct access to the underlying world (advanced inspection).
    pub fn world(&self) -> &World<Message> {
        &self.world
    }

    /// Mutable access to the underlying world (fault injection).
    pub fn world_mut(&mut self) -> &mut World<Message> {
        &mut self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_deployment_delivers() -> Result<(), RebecaError> {
        let mut sys = SystemBuilder::new(Topology::line(3)?).build()?;
        let publisher = sys.add_client(BrokerId::new(0))?;
        let consumer = sys.add_client(BrokerId::new(2))?;
        sys.run_for(SimDuration::from_secs(1));
        sys.subscribe(consumer, Filter::builder().eq("service", "t").build())?;
        sys.run_for(SimDuration::from_secs(1));
        sys.publish(publisher, Notification::builder().attr("service", "t"))?;
        sys.run_for(SimDuration::from_secs(1));
        assert_eq!(sys.delivered(consumer)?.len(), 1);
        assert_eq!(sys.client_stats(consumer)?.fifo_violations, 0);
        assert!(sys.metrics().total_msgs() > 0);
        Ok(())
    }

    #[test]
    fn broker_mobility_deployment_relocates() -> Result<(), RebecaError> {
        let mut sys =
            SystemBuilder::new(Topology::line(3)?).deployment(Deployment::reactive()).build()?;
        let publisher = sys.add_client(BrokerId::new(1))?;
        let roamer = sys.add_mobile_client();
        sys.arrive(roamer, BrokerId::new(0))?;
        sys.run_for(SimDuration::from_secs(1));
        sys.subscribe(roamer, Filter::builder().eq("service", "s").build())?;
        sys.run_for(SimDuration::from_secs(1));
        sys.depart(roamer)?;
        sys.run_for(SimDuration::from_secs(1));
        sys.publish(publisher, Notification::builder().attr("service", "s").attr("i", 1i64))?;
        sys.run_for(SimDuration::from_secs(1));
        sys.arrive(roamer, BrokerId::new(2))?;
        sys.run_for(SimDuration::from_secs(2));
        assert_eq!(sys.delivered(roamer)?.len(), 1, "buffered notification replayed");
        Ok(())
    }

    #[test]
    fn replicated_deployment_counts_vcs() -> Result<(), RebecaError> {
        let mut sys = SystemBuilder::new(Topology::line(3)?)
            .deployment(Deployment::Replicated {
                movement: Some(MovementGraph::line(3)),
                config: ReplicatorConfig::default(),
            })
            .build()?;
        let c = sys.add_mobile_client();
        sys.arrive(c, BrokerId::new(1))?;
        sys.run_for(SimDuration::from_secs(1));
        sys.subscribe(c, Filter::builder().myloc("location").build())?;
        sys.run_for(SimDuration::from_secs(1));
        assert_eq!(sys.total_vc_count(), 3, "self + both movement neighbours");
        assert!(sys.replicator_stats(BrokerId::new(1))?.unwrap().handovers >= 1);
        // Orderly shutdown garbage-collects everything.
        sys.shutdown_client(c, BrokerId::new(1))?;
        sys.run_for(SimDuration::from_secs(1));
        assert_eq!(sys.total_vc_count(), 0);
        Ok(())
    }

    #[test]
    fn replicated_brokers_deliver_and_log_mutations() -> Result<(), RebecaError> {
        let mut sys = SystemBuilder::new(Topology::line(3)?).replication(3).build()?;
        assert_eq!(sys.replication_factor(), 3);
        let publisher = sys.add_client(BrokerId::new(0))?;
        let consumer = sys.add_client(BrokerId::new(2))?;
        sys.run_for(SimDuration::from_secs(1));
        sys.subscribe(consumer, Filter::builder().eq("service", "t").build())?;
        sys.run_for(SimDuration::from_secs(1));
        sys.publish(publisher, Notification::builder().attr("service", "t"))?;
        sys.run_for(SimDuration::from_secs(1));
        assert_eq!(sys.delivered(consumer)?.len(), 1, "delivery through replicated brokers");
        assert!(sys.table_size(BrokerId::new(2))? >= 1);
        let stats = sys.replication_stats().expect("replication is on");
        assert!(stats.ops_logged >= 2, "attach + subscribe were logged, got {stats:?}");
        // The counter aggregates over every group member: each of the 3
        // replicas commits each op.
        assert_eq!(stats.ops_committed, 3 * stats.ops_logged, "all members commit everything");
        assert_eq!(stats.ops_applied, stats.ops_logged, "the broker applies each op once");
        assert_eq!(stats.view_changes, 0, "nobody died");
        Ok(())
    }

    #[test]
    fn replication_validation_rejects_bad_configs() {
        // Group larger than the broker tier.
        let err = SystemBuilder::new(Topology::line(2).unwrap()).replication(3).build();
        assert!(matches!(err, Err(RebecaError::InvalidDeployment(_))), "{err:?}");
        // Zero is not a group.
        let err = SystemBuilder::new(Topology::line(2).unwrap()).replication(0).build();
        assert!(matches!(err, Err(RebecaError::InvalidDeployment(_))), "{err:?}");
        // Mobility deployments are not replicable yet.
        let err = SystemBuilder::new(Topology::line(3).unwrap())
            .replication(2)
            .deployment(Deployment::replicated_defaults())
            .build();
        assert!(matches!(err, Err(RebecaError::InvalidDeployment(_))), "{err:?}");
        // replication(1) is the default no-op.
        assert!(SystemBuilder::new(Topology::line(2).unwrap()).replication(1).build().is_ok());
    }

    #[test]
    fn attachment_state_is_tracked() -> Result<(), RebecaError> {
        let mut sys = SystemBuilder::new(Topology::line(2)?).build()?;
        let m = sys.add_mobile_client();
        assert_eq!(sys.attached_broker(m)?, None);
        sys.arrive(m, BrokerId::new(1))?;
        assert_eq!(sys.attached_broker(m)?, Some(BrokerId::new(1)));
        sys.depart(m)?;
        assert_eq!(sys.attached_broker(m)?, None);
        Ok(())
    }

    #[test]
    fn foreign_handles_are_rejected_not_panicked() {
        let sys = SystemBuilder::new(Topology::line(1).unwrap()).build().unwrap();
        let mut other = SystemBuilder::new(Topology::line(1).unwrap()).build().unwrap();
        let foreign = other.add_mobile_client();
        // `sys` has no client 0 at all.
        assert!(matches!(sys.delivered(foreign), Err(RebecaError::UnknownClient(_))));
        // `other` has client 0, but as a mobile client: a *fixed* handle
        // minted by a third system for the same id is caught as well.
        let mut third = SystemBuilder::new(Topology::line(1).unwrap()).build().unwrap();
        let fixed = third.add_client(BrokerId::new(0)).unwrap();
        assert!(other.delivered(fixed).is_ok(), "ids alias, lookup succeeds");
        let mobile_alias = third.add_mobile_client();
        assert!(matches!(
            other.set_context(mobile_alias, "k", Predicate::Any),
            Err(RebecaError::UnknownClient(_) | RebecaError::NotMobile(_))
        ));
    }
}
