//! The client-side library: the *local broker*.
//!
//! "Local brokers constitute the clients' access point to the middleware
//! and are part of the communication library loaded into the clients"
//! (paper, §2). [`LocalBroker`] implements that library as a sans-io core:
//! it stamps publisher identity and sequence numbers, remembers active
//! subscriptions (so they can be re-issued after reconnecting), queues
//! publications while disconnected, and performs duplicate suppression and
//! FIFO accounting on the delivery path. [`ClientNode`] wraps it for
//! immobile deployments; the mobility crate wraps the same core with
//! movement behaviour.

use crate::message::Message;
use rebeca_core::{
    ClientId, Filter, Notification, NotificationBuilder, NotificationId, SimTime, Subscription,
    SubscriptionId,
};
use rebeca_net::{Ctx, Node, NodeId};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// One delivered notification plus its delivery time.
///
/// The notification is the same shared allocation that travelled the whole
/// pipeline — the delivery log never deep-copies.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryRecord {
    /// When the local broker received the notification.
    pub at: SimTime,
    /// The notification (shared with every other holder).
    pub notification: Arc<Notification>,
}

/// The notification ids a client has seen: per publisher, the sequence
/// numbers as maximal runs (start → end, both inclusive). Exact, like the
/// set of ids it stands for, but as small as the gaps: a client that sees
/// a publisher's stream in order holds one run for it.
#[derive(Debug, Default)]
struct SeenIds {
    runs: HashMap<ClientId, BTreeMap<u64, u64>>,
}

impl SeenIds {
    /// Records `id`; returns `false` if it was seen before.
    fn insert(&mut self, id: NotificationId) -> bool {
        let runs = self.runs.entry(id.publisher()).or_default();
        let seq = id.seq();
        let below = runs.range(..=seq).next_back().map(|(&start, &end)| (start, end));
        let start = match below {
            Some((_, end)) if seq <= end => return false,
            Some((start, end)) if end + 1 == seq => start,
            Some(_) | None => seq,
        };
        let end = seq.checked_add(1).and_then(|next| runs.remove(&next)).unwrap_or(seq);
        runs.insert(start, end);
        true
    }
}

/// The client communication library (sans-io core).
pub struct LocalBroker {
    client: ClientId,
    border: Option<NodeId>,
    seq: u64,
    subs: HashMap<SubscriptionId, Filter>,
    delivered: Vec<DeliveryRecord>,
    /// Deliveries ever accepted; unlike `delivered`, never drained.
    delivered_total: u64,
    seen: SeenIds,
    duplicates: u64,
    fifo_violations: u64,
    last_seq: HashMap<ClientId, u64>,
    pending_pubs: VecDeque<(u64, NotificationBuilder)>,
}

impl fmt::Debug for LocalBroker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalBroker")
            .field("client", &self.client)
            .field("border", &self.border)
            .field("subs", &self.subs.len())
            .field("delivered", &self.delivered.len())
            .finish()
    }
}

impl LocalBroker {
    /// Creates the library for a client.
    pub fn new(client: ClientId) -> Self {
        LocalBroker {
            client,
            border: None,
            seq: 0,
            subs: HashMap::new(),
            delivered: Vec::new(),
            delivered_total: 0,
            seen: SeenIds::default(),
            duplicates: 0,
            fifo_violations: 0,
            last_seq: HashMap::new(),
            pending_pubs: VecDeque::new(),
        }
    }

    /// The owning client.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// The border-broker node currently attached to, if any.
    pub fn border(&self) -> Option<NodeId> {
        self.border
    }

    /// Returns `true` while attached to a border broker with a live link.
    pub fn is_connected(&self, ctx: &Ctx<'_, Message>) -> bool {
        self.border.is_some_and(|b| ctx.link_up(b))
    }

    /// The active subscriptions (original filters, markers unresolved).
    pub fn subscriptions(&self) -> impl Iterator<Item = (&SubscriptionId, &Filter)> {
        self.subs.iter()
    }

    /// The active subscriptions as [`Subscription`] values (for re-issuing
    /// during relocation).
    pub fn subscription_set(&self) -> Vec<Subscription> {
        let mut v: Vec<Subscription> = self
            .subs
            .iter()
            .map(|(id, f)| Subscription::new(*id, self.client, f.clone()))
            .collect();
        v.sort_by_key(|s| s.id());
        v
    }

    /// Attaches to a border broker: announces the client, re-issues every
    /// subscription, and flushes publications queued while disconnected.
    pub fn attach(&mut self, ctx: &mut Ctx<'_, Message>, border: NodeId) {
        self.border = Some(border);
        ctx.send(border, Message::ClientAttach { client: self.client });
        for sub in self.subscription_set() {
            ctx.send(border, Message::Subscribe { subscription: sub });
        }
        self.flush_pending(ctx);
    }

    /// Orderly detach: tells the border broker to forget the client.
    pub fn detach(&mut self, ctx: &mut Ctx<'_, Message>) {
        if let Some(b) = self.border.take() {
            ctx.send(b, Message::ClientDetach { client: self.client });
        }
    }

    /// Silent disconnect (power-off / leaving coverage): the network is not
    /// told anything; it notices the dead link.
    pub fn disconnect_silently(&mut self) {
        self.border = None;
    }

    /// Sets the border without sending anything — used by relocation, where
    /// the `MoveIn` message (not `ClientAttach`) announces the client.
    pub fn attach_silent(&mut self, border: NodeId) {
        self.border = Some(border);
    }

    /// Publishes a notification. While disconnected the publication is
    /// queued (with its sequence number already assigned, preserving
    /// publisher FIFO) and flushed on the next attach.
    pub fn publish(
        &mut self,
        ctx: &mut Ctx<'_, Message>,
        attrs: NotificationBuilder,
    ) -> NotificationId {
        let seq = self.seq;
        self.seq += 1;
        let id = NotificationId::new(self.client, seq);
        if self.is_connected(ctx) {
            let n = attrs.publish(self.client, seq, ctx.now());
            let border = self.border.expect("connected implies border");
            ctx.send(border, Message::Publish { notification: std::sync::Arc::new(n) });
        } else {
            self.pending_pubs.push_back((seq, attrs));
        }
        id
    }

    /// Registers a subscription (forwarded immediately when connected;
    /// re-issued on every attach either way).
    pub fn subscribe(&mut self, ctx: &mut Ctx<'_, Message>, id: SubscriptionId, filter: Filter) {
        self.subs.insert(id, filter.clone());
        if self.is_connected(ctx) {
            let border = self.border.expect("connected implies border");
            ctx.send(
                border,
                Message::Subscribe { subscription: Subscription::new(id, self.client, filter) },
            );
        }
    }

    /// Revokes a subscription.
    pub fn unsubscribe(&mut self, ctx: &mut Ctx<'_, Message>, id: SubscriptionId) {
        if self.subs.remove(&id).is_some() && self.is_connected(ctx) {
            let border = self.border.expect("connected implies border");
            ctx.send(border, Message::Unsubscribe { client: self.client, id });
        }
    }

    /// Handles a delivered notification: suppresses duplicates (replays
    /// from relocation/replication) and counts per-publisher FIFO
    /// violations. Takes the shared notification as-is — no clone.
    pub fn on_deliver(&mut self, now: SimTime, n: Arc<Notification>) {
        if !self.seen.insert(n.id()) {
            self.duplicates += 1;
            return;
        }
        let last = self.last_seq.entry(n.publisher()).or_insert(0);
        if n.seq() < *last {
            self.fifo_violations += 1;
        } else {
            *last = n.seq();
        }
        self.delivered_total += 1;
        self.delivered.push(DeliveryRecord { at: now, notification: n });
    }

    /// Drains and returns everything delivered so far.
    pub fn take_delivered(&mut self) -> Vec<DeliveryRecord> {
        std::mem::take(&mut self.delivered)
    }

    /// Everything delivered and not yet taken.
    pub fn delivered(&self) -> &[DeliveryRecord] {
        &self.delivered
    }

    /// Number of notifications delivered so far (after duplicate
    /// suppression), including those already taken from the log.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_total
    }

    /// Number of duplicate deliveries suppressed.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Number of per-publisher FIFO violations observed.
    pub fn fifo_violations(&self) -> u64 {
        self.fifo_violations
    }

    /// Publications still queued while disconnected.
    pub fn pending_publications(&self) -> usize {
        self.pending_pubs.len()
    }

    /// Sends publications queued while disconnected (no-op unless
    /// connected). Called automatically by [`LocalBroker::attach`];
    /// relocation-style attachment calls it explicitly after `MoveIn`.
    pub fn flush_pending(&mut self, ctx: &mut Ctx<'_, Message>) {
        if !self.is_connected(ctx) {
            return;
        }
        let border = self.border.expect("connected implies border");
        while let Some((seq, attrs)) = self.pending_pubs.pop_front() {
            let n = attrs.publish(self.client, seq, ctx.now());
            ctx.send(border, Message::Publish { notification: std::sync::Arc::new(n) });
        }
    }
}

/// An immobile client node: attaches to one border broker at start and
/// translates application messages (injected externally) into the client
/// library.
pub struct ClientNode {
    local: LocalBroker,
    home: Option<NodeId>,
}

impl fmt::Debug for ClientNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientNode").field("local", &self.local).finish()
    }
}

impl ClientNode {
    /// Creates a client that will attach to `home` on start.
    pub fn new(client: ClientId, home: Option<NodeId>) -> Self {
        ClientNode { local: LocalBroker::new(client), home }
    }

    /// The client library (delivery log, stats).
    pub fn local(&self) -> &LocalBroker {
        &self.local
    }

    /// Mutable access (drain the delivery log).
    pub fn local_mut(&mut self) -> &mut LocalBroker {
        &mut self.local
    }
}

impl Node<Message> for ClientNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Message>) {
        if let Some(home) = self.home {
            self.local.attach(ctx, home);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Message>, _from: NodeId, msg: Message) {
        match msg {
            Message::AppPublish { attrs } => {
                self.local.publish(ctx, attrs);
            }
            Message::AppSubscribe { id, filter } => self.local.subscribe(ctx, id, filter),
            Message::AppUnsubscribe { id } => self.local.unsubscribe(ctx, id),
            Message::Deliver { notification, .. } => self.local.on_deliver(ctx.now(), notification),
            // Broker-to-broker and mobility traffic never addresses a
            // plain client node. Spelled out (the lint forbids `_ =>` in
            // handlers) so a new protocol variant forces this match to
            // decide instead of silently swallowing it.
            Message::ClientAttach { .. }
            | Message::ClientDetach { .. }
            | Message::Publish { .. }
            | Message::Subscribe { .. }
            | Message::Unsubscribe { .. }
            | Message::Forward { .. }
            | Message::SubForward { .. }
            | Message::UnsubForward { .. }
            | Message::Routed { .. }
            | Message::Mobility(_)
            | Message::Replica(_) => {}
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
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn runs_merge_and_stay_exact() {
        let mut seen = SeenIds::default();
        let id = |seq| NotificationId::new(ClientId::new(1), seq);
        for seq in [0, 2, 4, 1, 3] {
            assert!(seen.insert(id(seq)));
        }
        assert_eq!(seen.runs[&ClientId::new(1)], BTreeMap::from([(0, 4)]));
        assert!(!seen.insert(id(2)));
        assert!(seen.insert(id(u64::MAX)));
        assert!(seen.insert(id(u64::MAX - 1)));
        assert!(!seen.insert(id(u64::MAX)));
        assert_eq!(seen.runs[&ClientId::new(1)].len(), 2);
        // Another publisher's stream is its own.
        assert!(seen.insert(NotificationId::new(ClientId::new(2), 2)));
    }

    proptest! {
        /// The runs answer every insert exactly as the set of ids does,
        /// for streams with repeats, reordering and sequence numbers at
        /// both ends of the range.
        #[test]
        fn runs_answer_as_the_set_does(
            stream in proptest::collection::vec((0u32..3, 0u64..48, any::<bool>()), 0..200),
        ) {
            let mut runs = SeenIds::default();
            let mut set = HashSet::new();
            for (publisher, seq, high) in stream {
                let seq = if high { u64::MAX - seq } else { seq };
                let id = NotificationId::new(ClientId::new(publisher), seq);
                prop_assert_eq!(runs.insert(id), set.insert(id), "{}", id);
            }
            // Maximal runs: none touches or overlaps the next.
            for publisher_runs in runs.runs.values() {
                let mut prev: Option<u64> = None;
                for (&start, &end) in publisher_runs {
                    prop_assert!(start <= end);
                    prop_assert!(prev.is_none_or(|p| p + 1 < start));
                    prev = Some(end);
                }
            }
        }
    }
}
