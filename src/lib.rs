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
//!    verified against all of its constraints. Attribute names resolve to
//!    dense symbols through a **per-broker** symbol table
//!    ([`core::Interner`]) that the match index owns: it interns a name
//!    when a filter naming it is inserted, on the broker's own node
//!    thread, so the match path shares nothing and holds no lock. A filter
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
//!    notification (asserted by an allocation-regression test). Each
//!    broker holds one routing table, read on its own event loop: the
//!    broker tree spreads the matching work, one broker's table is never
//!    split.
//! 4. **Buffer.** Virtual clients and disconnected devices buffer in one
//!    type ([`mobility::ReplayBuffer`]), and hold-back queues likewise store
//!    the *same* `Arc`; each replicator's [`mobility::ByteLedger`] counts a
//!    notification held by several buffers once. The wire batches that ship
//!    buffers between replicators ([`MobilityMsg::BufferedBatch`] /
//!    `ReplicaBatch`) carry `Vec<Arc<Notification>>` — handing a buffer
//!    over never deep-copies its contents.
//! 5. **Replay.** Arriving clients receive the buffered `Arc`s as ordinary
//!    [`Message::Deliver`]s; the client library's delivery log
//!    ([`DeliveryRecord`]) keeps the shared allocation, performing
//!    duplicate suppression by notification id. The notification is freed
//!    when the last buffer, log or in-flight message drops its reference.
//!
//! ## Subscription churn at 10⁵ filters
//!
//! The announcement engine (the covering state each broker maintains per
//! neighbour link) is indexed by filter *shape*: a mutation probes only
//! candidate dominators — filters whose distinct attribute set is a
//! subset or superset of the churning filter's, pure-equality filters
//! additionally pre-filtered by a canonical value digest
//! ([`core::filter::Filter::cover_key`]). Every covering link keeps the
//! index from its first filter and pays O(candidates) per mutation
//! instead of O(distinct served filters), so a 10⁵-filter preload is
//! built in linear time.
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
//! resolving attribute names to symbols through the receiving broker's
//! own [`core::Interner`] with zero allocations (asserted by the
//! allocation-regression suite).
//!
//! On top of the codec sits length-prefixed framing ([`net::wire`]:
//! version byte, frame tags, 16 MiB cap, a [`net::FrameReassembler`] that
//! tolerates arbitrary read chunking) and the [`net::ProcessRuntime`]: the
//! simulator's live counterpart, which hosts a *partition* of the global
//! node table per OS process and carries inter-process traffic over Unix
//! domain sockets — per-peer writer threads coalesce frames out of a
//! bounded [`net::SendBuffer`] (blocking producers = backpressure), reader
//! threads reassemble, decode via the [`net::Wire`] seam and route into
//! local inboxes. Large mobility batches ([`mobility::pages`]) cross the
//! wire as size-bounded chunks with a `complete` marker on the last one.
//! [`SystemBuilder::build_process_partition`] deploys one process's share
//! of a static broker tier; `examples/live_processes.rs` runs two broker
//! processes end to end, and `tests/process_soak.rs` proves the
//! two-process deployment delivery-identical to the simulator —
//! including a link drop + reconnect across the real socket.
//!
//! ## Replication: surviving broker crashes
//!
//! A supervised link heals the wires after a broker process is killed,
//! but the reborn process would come back with an empty routing table.
//! [`SystemBuilder::replication`] arms the broker-state replication layer
//! ([`broker::replication`]). A broker has **one mutation seam**:
//! [`broker::BrokerCore::classify`] turns a message into
//! [`broker::BrokerOp`]s (one per filter of an announcement list), and
//! applying an op is the only place it touches the routing table. A plain
//! broker applies the ops on the spot; a replicated one submits the same
//! ops to a log replicated across a group of `group_size` members with
//! viewstamped-replication-style primary/backup semantics and applies each
//! committed batch at once, sending each neighbour one announcement list
//! pair for it. The per-notification route path never touches the log (the
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
//! Replication composes with every [`Deployment`]: the replicators of
//! [`Deployment::Replicated`] front replicated brokers exactly as they
//! front plain ones.
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

mod builder;
mod error;
mod handle;
mod plan;
mod system;

pub use builder::{Deployment, SystemBuilder};
pub use error::RebecaError;
pub use handle::{ClientHandle, FixedClient, MobileClient};

pub use rebeca_broker::{BrokerStats, DeliveryRecord, Message, MobilityMsg, RoutingStrategy};
pub use rebeca_core::{
    ApplicationId, BrokerId, ClientId, Filter, LocationId, Notification, NotificationBuilder,
    Predicate, SimDuration, SimTime, Subscription, SubscriptionId, Value,
};
pub use rebeca_mobility::{
    BufferSpec, ClientMobilityMode, ContextMap, LocationMap, MovementGraph, ReplicatorConfig,
    ReplicatorStats,
};
pub use rebeca_net::{NetMetrics, Topology};
pub use system::{ClientStats, System};

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
    fn reactive_deployment_relocates() -> Result<(), RebecaError> {
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
        // Replicators front replicated brokers like plain ones.
        let sys = SystemBuilder::new(Topology::line(3).unwrap())
            .replication(2)
            .deployment(Deployment::replicated_defaults())
            .build();
        assert!(sys.is_ok(), "{sys:?}");
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
