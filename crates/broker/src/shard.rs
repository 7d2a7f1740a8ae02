//! Digest-range sharding of a broker's routing state.
//!
//! Content-based matching scales across cores by partitioning the filter
//! space: every routing-table entry is owned by exactly one shard, chosen
//! by the **range** its filter digest falls into ([`Digest::shard`]), so a
//! mutation touches one shard and a routing decision is the merge of the
//! per-shard decisions. Because each filter lives in exactly one shard and
//! all shards resolve attribute names through the **same**
//! [`SharedInterner`], the merged decision is — provably, see
//! `tests/shard_equivalence.rs` — identical to the unsharded one: sharding
//! changes *where* matching happens, never *what* matches.
//!
//! [`ShardedRouter`] fans the shards over **in-line**, in shard order. This
//! is what [`BrokerCore`](crate::BrokerCore) embeds: it keeps the
//! deterministic simulator replayable and the steady-state route path
//! allocation-free (each shard appends its decided destinations to one
//! scratch; one normalise pass at the end).

use crate::table::{ClientEntry, RouteDecision, RouteScratch, RoutingTable, TableDelta};
use rebeca_core::{ClientId, Digest, Filter, Notification, SharedInterner, SubscriptionId};
use rebeca_net::NodeId;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A broker's routing state partitioned into N digest-range shards.
///
/// The mutation API mirrors [`RoutingTable`]'s and returns the same
/// [`TableDelta`]s, so the incremental announcement engine
/// ([`LinkAnnouncer`](crate::LinkAnnouncer)) upstream is untouched: a delta
/// describes filters entering/leaving the *whole* table, regardless of
/// which shard they live in.
pub struct ShardedRouter {
    shards: Vec<RoutingTable>,
    /// Owning shard of every live client subscription. A subscription
    /// *replacement* may change the filter digest and therefore the owning
    /// shard, so the router must remember where the previous filter lives
    /// to retract it from there.
    sub_home: HashMap<(ClientId, SubscriptionId), u32>,
}

impl fmt::Debug for ShardedRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedRouter")
            .field("shards", &self.shards.len())
            .field("entries", &self.entry_count())
            .finish()
    }
}

impl ShardedRouter {
    /// Creates an empty router with `shards` shards (at least 1) over a
    /// private interner.
    pub fn new(shards: usize) -> Self {
        Self::with_interner(shards, Arc::new(SharedInterner::new()))
    }

    /// Creates an empty router whose shards all resolve attribute names
    /// through `interner` — mandatory sharing: a notification's attributes
    /// must map to the same symbols in every shard.
    pub fn with_interner(shards: usize, interner: Arc<SharedInterner>) -> Self {
        let shards = shards.max(1);
        ShardedRouter {
            shards: (0..shards)
                .map(|_| RoutingTable::with_interner(Arc::clone(&interner)))
                .collect(),
            sub_home: HashMap::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to the shards (inspection, tests).
    pub fn shards(&self) -> &[RoutingTable] {
        &self.shards
    }

    /// The shared symbol table all shards resolve attribute names with.
    pub fn interner(&self) -> &Arc<SharedInterner> {
        self.shards[0].interner()
    }

    /// The shard owning `digest`.
    pub fn home(&self, digest: Digest) -> usize {
        digest.shard(self.shards.len())
    }

    // ----- clients -----

    /// Registers a client behind the given node. Attachment is replicated
    /// into every shard (it is a handful of bytes, and each shard needs the
    /// delivery node for the subscriptions it owns).
    pub fn attach_client(&mut self, client: ClientId, node: NodeId) {
        for shard in &mut self.shards {
            shard.attach_client(client, node);
        }
    }

    /// Removes a client and all its subscriptions across all shards,
    /// returning the merged entry (node + union of the per-shard
    /// subscription maps) if the client was attached.
    pub fn detach_client(&mut self, client: ClientId) -> Option<ClientEntry> {
        let mut merged: Option<ClientEntry> = None;
        for shard in &mut self.shards {
            if let Some(entry) = shard.detach_client(client) {
                match &mut merged {
                    Some(m) => m.subs.extend(entry.subs),
                    None => merged = Some(entry),
                }
            }
        }
        if self.shards.len() > 1 {
            // Forget exactly this client's subscriptions (the merged entry
            // names them all) — not a scan of every live subscription.
            if let Some(entry) = &merged {
                for sub in entry.subs.keys() {
                    self.sub_home.remove(&(client, *sub));
                }
            }
        }
        merged
    }

    /// The node a client is attached behind, if any.
    pub fn client_node(&self, client: ClientId) -> Option<NodeId> {
        // Attachment is replicated; any shard can answer.
        self.shards[0].client(client).map(|e| e.node)
    }

    /// Adds (or replaces) a client subscription in the shard owning the
    /// filter's digest, reporting the whole-table filter delta. The client
    /// must be attached; unattached subscriptions are ignored (empty
    /// delta). A replacement whose digest moved ranges is retracted from
    /// the old shard and installed in the new one — one removed plus one
    /// added entry, exactly like an unsharded replacement.
    pub fn subscribe_client(
        &mut self,
        client: ClientId,
        sub: SubscriptionId,
        filter: Filter,
    ) -> TableDelta {
        // Single shard (the default deployment): the one table resolves
        // everything itself — no ownership bookkeeping, the exact PR 3
        // churn cost.
        if self.shards.len() == 1 {
            return self.shards[0].subscribe_client(client, sub, filter);
        }
        if self.shards[0].client(client).is_none() {
            return TableDelta::default();
        }
        let home = self.home(filter.digest());
        let mut delta = TableDelta::default();
        if let Some(&old) = self.sub_home.get(&(client, sub)) {
            if old as usize != home {
                delta = self.shards[old as usize].unsubscribe_client(client, sub);
            }
        }
        let mut installed = self.shards[home].subscribe_client(client, sub, filter);
        delta.added.append(&mut installed.added);
        delta.removed.append(&mut installed.removed);
        self.sub_home.insert((client, sub), home as u32);
        delta
    }

    /// Removes a client subscription from its owning shard, reporting the
    /// filter delta (empty if the subscription did not exist).
    pub fn unsubscribe_client(&mut self, client: ClientId, sub: SubscriptionId) -> TableDelta {
        if self.shards.len() == 1 {
            return self.shards[0].unsubscribe_client(client, sub);
        }
        let Some(home) = self.sub_home.remove(&(client, sub)) else {
            return TableDelta::default();
        };
        self.shards[home as usize].unsubscribe_client(client, sub)
    }

    // ----- neighbour brokers -----

    /// Records a filter announced by a neighbour broker in the shard owning
    /// its digest, reporting the filter delta.
    pub fn neighbor_subscribe(&mut self, node: NodeId, filter: Filter) -> TableDelta {
        let home = self.home(filter.digest());
        self.shards[home].neighbor_subscribe(node, filter)
    }

    /// Removes a neighbour's filter (by digest) from its owning shard —
    /// the digest alone determines the shard, so retraction never searches.
    pub fn neighbor_unsubscribe(&mut self, node: NodeId, digest: Digest) -> TableDelta {
        let home = self.home(digest);
        self.shards[home].neighbor_unsubscribe(node, digest)
    }

    /// Filters currently announced by one neighbour, across all shards.
    pub fn neighbor_filters(&self, node: NodeId) -> impl Iterator<Item = &Filter> {
        self.shards.iter().flat_map(move |s| s.neighbor_filters(node))
    }

    // ----- queries -----

    /// All distinct filters that must be served through links other than
    /// `exclude`, across all shards (input of the from-scratch announcement
    /// computation used by equivalence tests).
    pub fn filters_excluding(&self, exclude: NodeId) -> Vec<Filter> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.filters_excluding(exclude));
        }
        out
    }

    /// Total routing entries across all shards.
    pub fn entry_count(&self) -> usize {
        self.shards.iter().map(RoutingTable::entry_count).sum()
    }

    /// Entries contributed by neighbour announcements, across all shards.
    pub fn neighbor_entry_count(&self) -> usize {
        self.shards.iter().map(RoutingTable::neighbor_entry_count).sum()
    }

    /// The routing decision for a notification. Allocating convenience
    /// form of [`ShardedRouter::route_into`].
    pub fn route(&self, n: &Notification) -> RouteDecision {
        let mut scratch = RouteScratch::new();
        self.route_into(n, &mut scratch);
        RouteDecision { clients: scratch.clients, neighbors: scratch.neighbors }
    }

    /// Fans the routing decision across all shards into a reusable scratch:
    /// each shard appends the destinations it decided (every shard numbers
    /// its own, so what crosses the seam is the client or link itself),
    /// then the merged buffers are normalised once — sorted and
    /// deduplicated, so a client whose subscriptions landed in different
    /// shards still receives exactly one delivery. With a warm scratch the
    /// whole fan-out performs **zero** heap allocation, whatever the shard
    /// count.
    // hot-path: begin (in-line shard fan-out — no allocation with a warm
    // scratch, no locks; enforced by `cargo run -p xtask -- lint`)
    pub fn route_into(&self, n: &Notification, scratch: &mut RouteScratch) {
        scratch.clients.clear();
        scratch.neighbors.clear();
        scratch.verified = 0;
        for shard in &self.shards {
            scratch.verified += shard.route_append(n, &mut scratch.clients, &mut scratch.neighbors);
        }
        scratch.finish();
    }
    // hot-path: end
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_core::SimTime;

    fn f(attr: &str, v: i64) -> Filter {
        Filter::builder().eq(attr, v).build()
    }

    fn note(pairs: &[(&str, i64)]) -> Notification {
        let mut b = Notification::builder();
        for (k, v) in pairs {
            b = b.attr(*k, *v);
        }
        b.publish(ClientId::new(0), 0, SimTime::ZERO)
    }

    /// Mirrors an op sequence into an unsharded and a 4-shard router and
    /// checks decisions + deltas stay identical.
    #[test]
    fn sharded_router_mirrors_unsharded_table() {
        let interner = Arc::new(SharedInterner::new());
        let mut single = ShardedRouter::with_interner(1, Arc::clone(&interner));
        let mut sharded = ShardedRouter::with_interner(4, interner);
        assert_eq!(single.shard_count(), 1);
        assert_eq!(sharded.shard_count(), 4);

        let c = ClientId::new(1);
        let nb = NodeId::new(7);
        for r in [&mut single, &mut sharded] {
            r.attach_client(c, NodeId::new(10));
        }
        // Spread subscriptions over many digests so several shards own some.
        for i in 0..32i64 {
            let filter = f("room", i);
            let a = single.subscribe_client(c, SubscriptionId::new(i as u32), filter.clone());
            let b = sharded.subscribe_client(c, SubscriptionId::new(i as u32), filter);
            assert_eq!(a.added.len(), b.added.len());
            assert_eq!(a.removed.len(), b.removed.len());
        }
        let occupied = sharded.shards().iter().filter(|s| s.entry_count() > 0).count();
        assert!(occupied > 1, "32 digests must spread over more than one shard");
        for r in [&single, &sharded] {
            assert_eq!(r.entry_count(), 32);
        }
        // Neighbour filters shard by digest too.
        for r in [&mut single, &mut sharded] {
            assert_eq!(r.neighbor_subscribe(nb, f("room", 3)).added.len(), 1);
            assert!(r.neighbor_subscribe(nb, f("room", 3)).is_empty(), "idempotent");
        }
        for i in 0..32i64 {
            let n = note(&[("room", i)]);
            assert_eq!(single.route(&n), sharded.route(&n), "room {i}");
        }
        // Cross-shard subscription replacement: one removed, one added.
        // Pick a replacement value whose digest provably lives in a
        // different shard than room 0's (one must exist: 32 digests occupy
        // more than one shard).
        let old = f("room", 0);
        let new = (1..32i64)
            .map(|i| f("room", i))
            .find(|g| sharded.home(g.digest()) != sharded.home(old.digest()))
            .expect("some digest lands in another shard");
        let delta = sharded.subscribe_client(c, SubscriptionId::new(0), new.clone());
        assert_eq!(delta.added, vec![(crate::table::FilterOrigin::Client, new.clone())]);
        assert_eq!(delta.removed, vec![(crate::table::FilterOrigin::Client, old)]);
        let delta = single.subscribe_client(c, SubscriptionId::new(0), new);
        assert_eq!(delta.added.len(), 1);
        assert_eq!(delta.removed.len(), 1);
        for i in 0..32i64 {
            let n = note(&[("room", i)]);
            assert_eq!(single.route(&n), sharded.route(&n), "room {i} after replacement");
        }
        // Detach drops everything everywhere.
        let entry = sharded.detach_client(c).expect("was attached");
        assert_eq!(entry.subs.len(), 32);
        assert_eq!(sharded.entry_count(), 1, "only the neighbour filter remains");
        assert!(sharded.unsubscribe_client(c, SubscriptionId::new(1)).is_empty());
        assert_eq!(sharded.neighbor_unsubscribe(nb, f("room", 3).digest()).removed.len(), 1);
        assert_eq!(sharded.entry_count(), 0);
    }

    #[test]
    fn unattached_subscription_is_ignored() {
        let mut r = ShardedRouter::new(4);
        assert!(r.subscribe_client(ClientId::new(9), SubscriptionId::new(1), f("a", 1)).is_empty());
        assert_eq!(r.entry_count(), 0);
        assert!(r.client_node(ClientId::new(9)).is_none());
    }

    #[test]
    fn route_into_is_warm_after_first_call() {
        let mut r = ShardedRouter::new(4);
        let c = ClientId::new(2);
        r.attach_client(c, NodeId::new(11));
        for i in 0..8i64 {
            r.subscribe_client(c, SubscriptionId::new(i as u32), f("room", i));
        }
        let mut scratch = RouteScratch::new();
        let n = note(&[("room", 5)]);
        r.route_into(&n, &mut scratch);
        assert_eq!(scratch.clients, vec![(c, NodeId::new(11))]);
        // Stale state clears; decisions agree with the allocating form.
        r.route_into(&note(&[("room", 99)]), &mut scratch);
        assert!(scratch.clients.is_empty());
        r.route_into(&n, &mut scratch);
        let d = r.route(&n);
        assert_eq!(d.clients, scratch.clients);
        assert_eq!(d.neighbors, scratch.neighbors);
    }
}
