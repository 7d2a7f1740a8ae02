//! The wire protocol of the REBECA network.
//!
//! Every message that crosses a link — client ↔ border broker, broker ↔
//! broker, replicator ↔ replicator — is a [`Message`]. The enum is the
//! single home of the protocol: the broker interprets the routing subset
//! and ignores the mobility sub-protocol ([`MobilityMsg`]), which only the
//! replicators and mobile clients understand. This
//! mirrors the paper's layering: the replicator offers "the same interface
//! as the actual broker" and extensions never require changing the routing
//! framework (§3).

use crate::replication::ReplicaMsg;
use rebeca_core::codec::wire_len;
use rebeca_core::{
    BrokerId, ClientId, Filter, Notification, NotificationBuilder, Subscription, SubscriptionId,
};
use rebeca_net::Payload;
use std::sync::Arc;

/// A message on some link of the REBECA network.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    // ----- application → its local broker (injected externally) -----
    /// The application publishes a notification; the local broker stamps
    /// publisher identity, sequence number and time.
    AppPublish {
        /// The notification content (attributes only).
        attrs: NotificationBuilder,
    },
    /// The application registers a subscription.
    AppSubscribe {
        /// Caller-allocated subscription identifier.
        id: SubscriptionId,
        /// The (possibly location-dependent) filter.
        filter: Filter,
    },
    /// The application revokes a subscription.
    AppUnsubscribe {
        /// The subscription to revoke.
        id: SubscriptionId,
    },

    // ----- client ↔ border broker -----
    /// A client's local broker announces itself to a border broker.
    ClientAttach {
        /// The attaching client.
        client: ClientId,
    },
    /// Orderly detach (power-off is a *silent* detach — no message at all).
    ClientDetach {
        /// The detaching client.
        client: ClientId,
    },
    /// A freshly published notification entering the broker network.
    ///
    /// Routed notifications travel behind an [`Arc`]: forwarding the same
    /// notification to N neighbours is N refcount bumps, not N copies.
    Publish {
        /// The published notification.
        notification: Arc<Notification>,
    },
    /// A client registers a subscription at its border broker.
    Subscribe {
        /// The subscription (filter + owner).
        subscription: Subscription,
    },
    /// A client revokes a subscription.
    Unsubscribe {
        /// The owning client.
        client: ClientId,
        /// The subscription to revoke.
        id: SubscriptionId,
    },
    /// A matching notification delivered to a consumer client. Carries the
    /// client id because one node (a replicator) may host several (virtual)
    /// clients.
    Deliver {
        /// The receiving client.
        client: ClientId,
        /// The matching notification (shared, not copied, across the fan-out).
        notification: Arc<Notification>,
    },

    // ----- broker ↔ broker -----
    /// A notification forwarded between brokers (shared, not copied).
    Forward {
        /// The routed notification.
        notification: Arc<Notification>,
    },
    /// Subscription propagation: the sender wants all notifications
    /// matching any of `filters`, each identified by its digest. A broker
    /// sends one list per link for each batch of mutations it applies (at
    /// most [`MAX_BATCH_OPS`](crate::replication::MAX_BATCH_OPS) filters
    /// per message), in the order the mutations were applied.
    SubForward {
        /// The announced filters.
        filters: Filters,
    },
    /// Retraction of previously announced filters (by digest), sent after
    /// the same batch's `SubForward` list so coverage never has a gap.
    UnsubForward {
        /// The retracted filters.
        filters: Filters,
    },
    /// Point-to-point control message routed hop-by-hop through the broker
    /// tree towards `to`. No product node sends one (relocation travels
    /// over the replicator mesh); brokers still unwrap or forward it.
    Routed {
        /// Destination broker.
        to: BrokerId,
        /// The payload to deliver at `to`.
        inner: Box<Message>,
    },

    // ----- mobility sub-protocol -----
    /// Mobility control traffic (physical relocation, replicator layer).
    Mobility(MobilityMsg),

    // ----- replication sub-protocol -----
    /// Replica-group traffic (op-log prepare/commit, view changes, crash
    /// recovery) between a broker and its log backups. Only the members of
    /// one replica group exchange these; plain brokers never see them.
    Replica(ReplicaMsg),
}

/// The filter list of a [`Message::SubForward`] / [`Message::UnsubForward`]
/// — on the wire a `u16` count and the filters, and in memory a slice
/// (through `Deref`).
///
/// A list of one is held inline. An unreplicated broker applies one
/// message's mutations at a time, so nearly all of its announcements are
/// lists of one, and a list buffer is allocated on the thread that builds
/// or decodes the message and freed on the one that consumes it: one
/// cross-thread free per announcement left the allocator in a state that
/// cost the `relay` benchmark workload — which announces only while it
/// sets up — about a tenth of its throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct Filters(Repr);

/// Normalised on construction: `Many` never holds exactly one filter, so
/// the derived equality is list equality.
#[derive(Debug, Clone, PartialEq)]
enum Repr {
    One(Filter),
    Many(Vec<Filter>),
}

impl std::ops::Deref for Filters {
    type Target = [Filter];

    fn deref(&self) -> &[Filter] {
        match &self.0 {
            Repr::One(f) => std::slice::from_ref(f),
            Repr::Many(v) => v,
        }
    }
}

impl FromIterator<Filter> for Filters {
    fn from_iter<I: IntoIterator<Item = Filter>>(iter: I) -> Filters {
        let mut iter = iter.into_iter();
        Filters(match (iter.next(), iter.next()) {
            (None, _) => Repr::Many(Vec::new()),
            (Some(f), None) => Repr::One(f),
            (Some(a), Some(b)) => Repr::Many([a, b].into_iter().chain(iter).collect()),
        })
    }
}

impl From<Vec<Filter>> for Filters {
    fn from(filters: Vec<Filter>) -> Filters {
        filters.into_iter().collect()
    }
}

impl IntoIterator for Filters {
    type Item = Filter;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Filter>, std::vec::IntoIter<Filter>>;

    fn into_iter(self) -> Self::IntoIter {
        match self.0 {
            Repr::One(f) => Some(f).into_iter().chain(Vec::new()),
            Repr::Many(v) => None.into_iter().chain(v),
        }
    }
}

/// The mobility sub-protocol (physical relocation per Zeidler/Fiege \[8\] and
/// the extended-logical-mobility replicator layer of §3).
#[derive(Debug, Clone, PartialEq)]
pub enum MobilityMsg {
    // ----- application → mobile client node (injected externally) -----
    /// The device is about to leave its current broker's range, while the
    /// old link is still up. Mobility-aware clients ignore this (movement
    /// is *uncertain* — nobody announces it); the naive JEDI-style baseline
    /// uses it as its explicit `moveOut`.
    AppPrepareMove,
    /// The device has come into range of a (new) border broker: attach
    /// there, re-issuing subscriptions and triggering relocation. The
    /// harness flips the wireless links before injecting this.
    AppMoveTo {
        /// The border broker now in range.
        border: BrokerId,
    },
    /// The device powers off / leaves all coverage (silent from the
    /// network's point of view — brokers only notice the dead link).
    AppDisconnect,
    /// The application updates one entry of its context; context-dependent
    /// (`myctx`) subscriptions are re-resolved and re-issued automatically.
    AppSetContext {
        /// Context key.
        key: String,
        /// Concrete predicate the key now stands for.
        predicate: rebeca_core::Predicate,
    },

    // ----- physical mobility (relocation) -----
    /// Sent by a client's local broker to its **new** border broker after
    /// reconnecting: re-issues all subscriptions and triggers the buffered
    /// handoff from the old border broker.
    MoveIn {
        /// The relocating client.
        client: ClientId,
        /// Where the client was last attached, if anywhere.
        old_border: Option<BrokerId>,
        /// The client's full subscription set (unresolved filters).
        subscriptions: Vec<Subscription>,
        /// The device's handover counter — the epoch stamped onto every
        /// replica control message this attachment causes, so stale
        /// control traffic from an earlier attachment is recognisable
        /// under adversarial link delay.
        epoch: u64,
    },
    /// New border → old border, over the replicator mesh: send everything
    /// you buffered for `client` and retire its old attachment.
    FetchBuffered {
        /// The relocated client.
        client: ClientId,
        /// Destination of the buffered batch.
        new_border: BrokerId,
    },
    /// Old border → new border: the relocation buffer contents, in
    /// publication order. `complete` marks the final batch; the new border
    /// then flushes its hold-back queue and switches the client to live
    /// delivery.
    ///
    /// Batches share the buffered notifications by `Arc`: shipping a
    /// buffer is refcount bumps, never a deep copy of its contents.
    BufferedBatch {
        /// The relocated client.
        client: ClientId,
        /// Buffered notifications in FIFO order (shared, not copied).
        notifications: Vec<Arc<Notification>>,
        /// Whether this is the last batch.
        complete: bool,
    },

    // ----- extended logical mobility (replicator ↔ replicator) -----
    //
    // Every replica control message carries the `epoch` of the handover it
    // belongs to (the device's monotonically increasing move counter,
    // propagated by `MoveIn`). Replicators drop control messages whose
    // epoch is older than the newest one they have seen for the
    // application, which prevents a late `ReplicaSubscribe` from
    // resurrecting a virtual client after the `ReplicaDelete` of a newer
    // handover already garbage-collected it.
    /// Create a buffering virtual client for `app` with the given
    /// location-dependent subscriptions (unresolved; the receiving
    /// replicator resolves `myloc` for its own broker's location scope).
    ReplicaCreate {
        /// The mobile application.
        app: rebeca_core::ApplicationId,
        /// Location-dependent subscriptions to mirror.
        subscriptions: Vec<Subscription>,
        /// Handover epoch of the issuing attachment.
        epoch: u64,
    },
    /// Garbage-collect the virtual client of `app`.
    ReplicaDelete {
        /// The mobile application.
        app: rebeca_core::ApplicationId,
        /// Handover epoch of the issuing attachment.
        epoch: u64,
    },
    /// Mirror a new location-dependent subscription into the virtual
    /// client.
    ReplicaSubscribe {
        /// The mobile application.
        app: rebeca_core::ApplicationId,
        /// The subscription to mirror.
        subscription: Subscription,
        /// Handover epoch of the issuing attachment.
        epoch: u64,
    },
    /// Mirror an unsubscription into the virtual client.
    ReplicaUnsubscribe {
        /// The mobile application.
        app: rebeca_core::ApplicationId,
        /// The subscription to remove.
        id: SubscriptionId,
        /// Handover epoch of the issuing attachment.
        epoch: u64,
    },
    /// Exception mode: ask a (possibly distant) replicator for the buffer
    /// of `app`'s virtual client — used when a client "pops up" at a broker
    /// not covered by `nlb`.
    ReplicaFetch {
        /// The mobile application.
        app: rebeca_core::ApplicationId,
        /// Replicator that should receive the buffer.
        reply_to: BrokerId,
    },
    /// Reply to [`MobilityMsg::ReplicaFetch`]: the buffered notifications
    /// (shared, not copied). Large buffers are paged into size-bounded
    /// chunks; `complete` marks the final one so a huge handover cannot
    /// head-of-line-block the link it travels on.
    ReplicaBatch {
        /// The mobile application.
        app: rebeca_core::ApplicationId,
        /// Buffered notifications in order.
        notifications: Vec<Arc<Notification>>,
        /// Whether this is the last chunk of the buffer.
        complete: bool,
    },
}

impl Message {
    /// Convenience constructor for routed control messages.
    pub fn routed(to: BrokerId, inner: Message) -> Message {
        Message::Routed { to, inner: Box::new(inner) }
    }
}

impl Payload for Message {
    fn wire_size(&self) -> usize {
        wire_len::<Message>(self)
    }

    fn kind(&self) -> &'static str {
        match self {
            Message::AppPublish { .. }
            | Message::AppSubscribe { .. }
            | Message::AppUnsubscribe { .. } => "app",
            Message::Publish { .. } | Message::Forward { .. } => "pub",
            Message::Deliver { .. } => "dlv",
            Message::Subscribe { .. }
            | Message::Unsubscribe { .. }
            | Message::SubForward { .. }
            | Message::UnsubForward { .. }
            | Message::ClientAttach { .. }
            | Message::ClientDetach { .. } => "sub",
            Message::Routed { .. } => "ctl",
            Message::Mobility(_) => "mob",
            Message::Replica(_) => "rep",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_core::{SimTime, Value};

    #[test]
    fn kinds_classify_the_protocol() {
        let n = Notification::builder().attr("a", Value::from(1i64)).publish(
            ClientId::new(0),
            0,
            SimTime::ZERO,
        );
        let n = Arc::new(n);
        assert_eq!(Message::Publish { notification: Arc::clone(&n) }.kind(), "pub");
        assert_eq!(
            Message::Deliver { client: ClientId::new(1), notification: Arc::clone(&n) }.kind(),
            "dlv"
        );
        assert_eq!(Message::SubForward { filters: vec![Filter::all()].into() }.kind(), "sub");
        assert_eq!(
            Message::Mobility(MobilityMsg::ReplicaDelete {
                app: rebeca_core::ApplicationId::new(0),
                epoch: 0,
            })
            .kind(),
            "mob"
        );
        assert_eq!(
            Message::routed(BrokerId::new(2), Message::Forward { notification: n }).kind(),
            "ctl"
        );
    }

    #[test]
    fn routed_nests_inner_size() {
        let inner = Message::SubForward { filters: vec![Filter::all()].into() };
        let routed = Message::routed(BrokerId::new(1), inner.clone());
        assert!(routed.wire_size() > inner.wire_size());
    }

    /// However a list is built, equal filters make equal lists: a list of
    /// one is always the inline form.
    #[test]
    fn filter_lists_compare_as_lists() {
        let (a, b) = (Filter::all(), Filter::builder().eq("k", 1i64).build());
        let one: Filters = vec![a.clone()].into();
        assert_eq!(one, std::iter::once(a.clone()).collect());
        assert_eq!(one[..], *std::slice::from_ref(&a));
        let two: Filters = vec![a.clone(), b.clone()].into();
        assert_ne!(two, one);
        assert_eq!(two.into_iter().collect::<Vec<_>>(), [a, b]);
        assert!(Filters::from(Vec::new()).is_empty());
    }
}
