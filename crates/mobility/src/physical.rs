//! Physical mobility: the relocation buffers (location transparency).
//!
//! "When implementing physical mobility, a complex reconfiguration
//! algorithm combined with a certain amount of buffering ensures that a
//! relocated client receives a transparent, uninterrupted flow of
//! notifications matching his subscriptions" (paper §1, referring to
//! Zeidler/Fiege \[8\]). The protocol runs in the replicator layer
//! ([`ReplicatorNode`](crate::ReplicatorNode)), in front of
//! mobility-unaware brokers; [`RelocationBuffers`] is its state:
//!
//! * deliveries to a client whose wireless link is down are **buffered**
//!   (the replicator is connection-aware — it never silently drops);
//! * when the client re-attaches elsewhere and its `MoveIn` arrives, the
//!   new replicator re-installs the subscriptions, **holds back** live
//!   matches, and fetches the old replicator's buffer over the replicator
//!   mesh ([`MobilityMsg::FetchBuffered`] /
//!   [`MobilityMsg::BufferedBatch`]);
//! * replay is delivered first, then the hold-back queue, then live flow —
//!   preserving per-publisher FIFO without loss; the client library
//!   suppresses the (rare) duplicates;
//! * relocation buffers expire after a TTL ("it will probably be
//!   acceptable for users to expect some form of degraded service after
//!   long periods of disconnection", §4).
//!
//! The reactive baseline (\[5\]: `myloc` resolved only on arrival) is
//! the same layer with no pre-subscriptions, `k_hops: 0`. Only
//! location-independent subscriptions drain through the make-before-break
//! grace: a `myloc` subscription follows the client's current location,
//! so the old border must not forward matches for the location the
//! client left (`scenario_soak` checks this).
//!
//! [`MobilityMsg::FetchBuffered`]: rebeca_broker::MobilityMsg::FetchBuffered
//! [`MobilityMsg::BufferedBatch`]: rebeca_broker::MobilityMsg::BufferedBatch

use rebeca_core::{BrokerId, ClientId, Notification, SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Relocation state of the replicator layer: per-client buffers for the
/// disconnected, hold-back queues for the arriving.
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
