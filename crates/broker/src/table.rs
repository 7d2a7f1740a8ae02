//! The broker routing table.
//!
//! "Each broker maintains a routing table that determines in which
//! directions a notification is forwarded. Each table entry is a pair
//! (F, L) containing a filter and the link from which it was received"
//! (paper, §2). Entries come from two kinds of links: *client* links
//! (local subscriptions, keyed by subscription id) and *broker* links
//! (filters announced by neighbours, keyed by filter digest). A
//! [`MatchIndex`] over both answers the per-notification routing decision.

use rebeca_core::{
    ClientId, Digest, Filter, MatchIndex, Notification, SharedInterner, SubscriptionId,
};
use rebeca_net::NodeId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Key of one routing-table entry in the match index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteKey {
    /// A filter announced by a neighbouring broker.
    Neighbor {
        /// The neighbour's node id.
        node: NodeId,
        /// Digest of the announced filter.
        digest: Digest,
    },
    /// A subscription of a locally attached client.
    Client {
        /// The subscribing client.
        client: ClientId,
        /// The subscription id.
        sub: SubscriptionId,
    },
}

/// Where a routing-table filter came from — which determines the set of
/// neighbour links it must be served through (a client filter is served on
/// every link; a neighbour's filter on every link *except* the one it was
/// announced on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterOrigin {
    /// A subscription of a locally attached client.
    Client,
    /// A filter announced by the neighbour behind this node.
    Neighbor(NodeId),
}

impl FilterOrigin {
    /// Returns `true` if a filter of this origin must be served through the
    /// link towards `link` (i.e. announced over it).
    pub fn serves(self, link: NodeId) -> bool {
        match self {
            FilterOrigin::Client => true,
            FilterOrigin::Neighbor(n) => n != link,
        }
    }
}

/// The filter-multiset change produced by one routing-table mutation — the
/// input of the incremental announcement engine. A single
/// subscribe/unsubscribe yields one added or removed entry; a subscription
/// *replacement* yields one of each; a client detach yields one removed
/// entry per subscription.
#[derive(Debug, Clone, Default)]
pub struct TableDelta {
    /// Filters that entered the table, with their origin.
    pub added: Vec<(FilterOrigin, Filter)>,
    /// Filters that left the table, with their origin.
    pub removed: Vec<(FilterOrigin, Filter)>,
}

impl TableDelta {
    /// Returns `true` if the mutation changed nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// State of one locally attached client.
#[derive(Debug, Clone)]
pub struct ClientEntry {
    /// Node to which deliveries are sent.
    pub node: NodeId,
    /// Active subscriptions (concrete filters; markers must be resolved by
    /// the mobility layer before they reach the table).
    pub subs: HashMap<SubscriptionId, Filter>,
    /// The client's destination number in its table while attached there.
    pub(crate) dest: u32,
}

/// State of one neighbour link.
#[derive(Debug, Clone)]
struct NeighborLink {
    /// The link's destination number; kept for as long as the table lives.
    dest: u32,
    /// Filters the neighbour has announced, by digest.
    filters: HashMap<Digest, Filter>,
}

/// What a routing decision names: the meaning of one destination number.
#[derive(Debug, Clone, Copy)]
enum Destination {
    /// A recycled number no entry carries.
    Free,
    /// An attached client and the node its deliveries go to.
    Client(ClientId, NodeId),
    /// The link to a neighbour broker.
    Neighbor(NodeId),
}

/// The table's destination numbers: dense, recycled youngest first.
#[derive(Debug, Default)]
struct Destinations {
    by_number: Vec<Destination>,
    free: Vec<u32>,
}

impl Destinations {
    fn assign(&mut self, to: Destination) -> u32 {
        match self.free.pop() {
            Some(dest) => {
                self.by_number[dest as usize] = to;
                dest
            }
            None => {
                self.by_number.push(to);
                (self.by_number.len() - 1) as u32
            }
        }
    }

    fn release(&mut self, dest: u32) {
        self.by_number[dest as usize] = Destination::Free;
        self.free.push(dest);
    }
}

/// The result of a routing decision for one notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteDecision {
    /// Locally attached clients that must receive the notification.
    pub clients: Vec<(ClientId, NodeId)>,
    /// Neighbour broker nodes the notification must be forwarded to.
    pub neighbors: Vec<NodeId>,
}

/// Reusable per-notification routing scratch: the decision buffers,
/// threaded through [`RoutingTable::route_into`] so the steady-state
/// routing path builds no fresh vectors per notification — the caller (one
/// per broker) owns the scratch and its capacity survives across
/// notifications.
#[derive(Debug, Default)]
pub struct RouteScratch {
    /// Matching local clients, deduplicated, sorted by client id.
    pub clients: Vec<(ClientId, NodeId)>,
    /// Matching neighbour links, deduplicated, sorted.
    pub neighbors: Vec<NodeId>,
    /// How many candidate entries were verified in full to reach this
    /// decision — the work bound of the read path, as a count.
    pub verified: u64,
}

impl RouteScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Normalises the accumulated decision buffers into their canonical
    /// form: clients sorted by id, neighbours sorted, both deduplicated. One
    /// table reports a destination once, so what is left to fold is a
    /// client or link whose matching entries live in several shards.
    /// In-place, no allocation.
    pub(crate) fn finish(&mut self) {
        self.clients.sort_unstable_by_key(|(c, _)| *c);
        self.clients.dedup_by_key(|(c, _)| *c);
        self.neighbors.sort_unstable();
        self.neighbors.dedup();
    }
}

/// A broker's routing state: neighbour announcements plus local clients.
#[derive(Default)]
pub struct RoutingTable {
    index: MatchIndex<RouteKey>,
    neighbor_filters: HashMap<NodeId, NeighborLink>,
    clients: HashMap<ClientId, ClientEntry>,
    destinations: Destinations,
}

impl fmt::Debug for RoutingTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoutingTable")
            .field("clients", &self.clients.len())
            .field("neighbor_links", &self.neighbor_filters.len())
            .field("entries", &self.entry_count())
            .finish()
    }
}

impl RoutingTable {
    /// Creates an empty table (with a private interner).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table whose match index resolves attribute names
    /// through `interner` — the per-broker (or per-world) shared symbol
    /// table.
    pub fn with_interner(interner: Arc<SharedInterner>) -> Self {
        RoutingTable {
            index: MatchIndex::with_interner(interner),
            neighbor_filters: HashMap::new(),
            clients: HashMap::new(),
            destinations: Destinations::default(),
        }
    }

    /// The shared symbol table of this table's match index.
    pub fn interner(&self) -> &Arc<SharedInterner> {
        self.index.interner()
    }

    // ----- clients -----

    /// Registers a client behind the given node. Re-attaching updates the
    /// node and keeps existing subscriptions (used by relocation).
    pub fn attach_client(&mut self, client: ClientId, node: NodeId) {
        let to = Destination::Client(client, node);
        match self.clients.entry(client) {
            Entry::Occupied(mut e) => {
                let entry = e.get_mut();
                entry.node = node;
                self.destinations.by_number[entry.dest as usize] = to;
            }
            Entry::Vacant(e) => {
                let dest = self.destinations.assign(to);
                e.insert(ClientEntry { node, subs: HashMap::new(), dest });
            }
        }
    }

    /// Removes a client and all its subscriptions (orderly detach or
    /// relocation retirement). Returns its entry if it existed.
    pub fn detach_client(&mut self, client: ClientId) -> Option<ClientEntry> {
        let entry = self.clients.remove(&client)?;
        for sub in entry.subs.keys() {
            self.index.remove(&RouteKey::Client { client, sub: *sub });
        }
        self.destinations.release(entry.dest);
        Some(entry)
    }

    /// Returns the entry of an attached client.
    pub fn client(&self, client: ClientId) -> Option<&ClientEntry> {
        self.clients.get(&client)
    }

    /// Iterates over attached clients.
    pub fn clients(&self) -> impl Iterator<Item = (&ClientId, &ClientEntry)> {
        self.clients.iter()
    }

    /// Adds (or replaces) a client subscription, reporting the filter delta.
    /// The client must be attached; unattached subscriptions are ignored
    /// (empty delta).
    pub fn subscribe_client(
        &mut self,
        client: ClientId,
        sub: SubscriptionId,
        filter: Filter,
    ) -> TableDelta {
        let mut delta = TableDelta::default();
        let Some(entry) = self.clients.get_mut(&client) else {
            return delta;
        };
        if let Some(old) = entry.subs.insert(sub, filter.clone()) {
            if old.digest() == filter.digest() {
                // Identical replacement: the table is unchanged.
                return delta;
            }
            delta.removed.push((FilterOrigin::Client, old));
        }
        self.index.insert_to(RouteKey::Client { client, sub }, filter.clone(), entry.dest);
        delta.added.push((FilterOrigin::Client, filter));
        delta
    }

    /// Removes a client subscription, reporting the filter delta (empty if
    /// the subscription did not exist).
    pub fn unsubscribe_client(&mut self, client: ClientId, sub: SubscriptionId) -> TableDelta {
        let mut delta = TableDelta::default();
        let Some(entry) = self.clients.get_mut(&client) else {
            return delta;
        };
        let Some(f) = entry.subs.remove(&sub) else {
            return delta;
        };
        self.index.remove(&RouteKey::Client { client, sub });
        delta.removed.push((FilterOrigin::Client, f));
        delta
    }

    // ----- neighbour brokers -----

    /// Records a filter announced by a neighbour broker, reporting the
    /// filter delta (empty if the same filter was already announced).
    pub fn neighbor_subscribe(&mut self, node: NodeId, filter: Filter) -> TableDelta {
        let mut delta = TableDelta::default();
        let digest = filter.digest();
        let link = self.neighbor_filters.entry(node).or_insert_with(|| NeighborLink {
            dest: self.destinations.assign(Destination::Neighbor(node)),
            filters: HashMap::new(),
        });
        if link.filters.insert(digest, filter.clone()).is_some() {
            // Digest collision means "same filter": nothing changed.
            return delta;
        }
        self.index.insert_to(RouteKey::Neighbor { node, digest }, filter.clone(), link.dest);
        delta.added.push((FilterOrigin::Neighbor(node), filter));
        delta
    }

    /// Removes a filter retraction from a neighbour broker (by digest),
    /// reporting the filter delta.
    pub fn neighbor_unsubscribe(&mut self, node: NodeId, digest: Digest) -> TableDelta {
        let mut delta = TableDelta::default();
        let Some(f) =
            self.neighbor_filters.get_mut(&node).and_then(|link| link.filters.remove(&digest))
        else {
            return delta;
        };
        self.index.remove(&RouteKey::Neighbor { node, digest });
        delta.removed.push((FilterOrigin::Neighbor(node), f));
        delta
    }

    /// Filters currently announced by one neighbour.
    pub fn neighbor_filters(&self, node: NodeId) -> impl Iterator<Item = &Filter> {
        self.neighbor_filters.get(&node).into_iter().flat_map(|link| link.filters.values())
    }

    // ----- queries -----

    /// The routing decision for a notification: matching local clients and
    /// matching neighbour links (deduplicated, deterministic order).
    ///
    /// Convenience form that allocates fresh vectors; the hot path is
    /// [`RoutingTable::route_into`].
    pub fn route(&self, n: &Notification) -> RouteDecision {
        let mut scratch = RouteScratch::new();
        self.route_into(n, &mut scratch);
        RouteDecision { clients: scratch.clients, neighbors: scratch.neighbors }
    }

    // hot-path: begin (per-notification route decision — no allocation
    // with a warm scratch, no locks; enforced by `cargo run -p xtask -- lint`)
    /// Computes the routing decision into a reusable scratch (cleared
    /// first). With a warm scratch this performs **zero** heap allocation
    /// per notification: the index keeps its per-destination marks sized on
    /// the mutation path, and the decision buffers retain their capacity
    /// across calls.
    pub fn route_into(&self, n: &Notification, scratch: &mut RouteScratch) {
        scratch.clients.clear();
        scratch.neighbors.clear();
        scratch.verified = self.route_append(n, &mut scratch.clients, &mut scratch.neighbors);
        scratch.finish();
    }

    /// Appends this table's contribution for `n` — every matching
    /// destination once, unsorted — to the decision buffers and returns
    /// how many candidates it verified. This is the building block
    /// [`RoutingTable::route_into`] and the sharded router's fan-out
    /// share: one table appends, the merge normalises once at the end
    /// ([`RouteScratch::finish`]).
    pub(crate) fn route_append(
        &self,
        n: &Notification,
        clients: &mut Vec<(ClientId, NodeId)>,
        neighbors: &mut Vec<NodeId>,
    ) -> u64 {
        let verified = self.index.matching_destinations(n, |dest| {
            match self.destinations.by_number[dest as usize] {
                Destination::Client(client, node) => clients.push((client, node)),
                Destination::Neighbor(node) => neighbors.push(node),
                Destination::Free => debug_assert!(false, "entry filed under a free destination"),
            }
        });
        verified as u64
    }
    // hot-path: end

    /// All distinct filters that must be served through links *other than*
    /// `exclude`: every local client filter plus every filter announced by
    /// the other neighbours. This is the input to
    /// [`RoutingStrategy::announcements`](crate::RoutingStrategy::announcements)
    /// for the link towards `exclude`.
    pub fn filters_excluding(&self, exclude: NodeId) -> Vec<Filter> {
        let mut out = Vec::new();
        for entry in self.clients.values() {
            out.extend(entry.subs.values().cloned());
        }
        for (node, link) in &self.neighbor_filters {
            if *node != exclude {
                out.extend(link.filters.values().cloned());
            }
        }
        out
    }

    /// Total number of routing entries (client subscriptions + neighbour
    /// announcements) — the table-size metric of the routing strategies.
    pub fn entry_count(&self) -> usize {
        self.clients.values().map(|e| e.subs.len()).sum::<usize>() + self.neighbor_entry_count()
    }

    /// Number of entries contributed by neighbour announcements only.
    pub fn neighbor_entry_count(&self) -> usize {
        self.neighbor_filters.values().map(|link| link.filters.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_core::SimTime;

    fn note(service: &str) -> Notification {
        Notification::builder().attr("service", service).publish(ClientId::new(9), 0, SimTime::ZERO)
    }

    fn f(service: &str) -> Filter {
        Filter::builder().eq("service", service).build()
    }

    #[test]
    fn client_lifecycle() {
        let mut t = RoutingTable::new();
        let c = ClientId::new(1);
        let n = NodeId::new(10);
        assert!(
            t.subscribe_client(c, SubscriptionId::new(1), f("t")).is_empty(),
            "not attached yet"
        );
        t.attach_client(c, n);
        let delta = t.subscribe_client(c, SubscriptionId::new(1), f("t"));
        assert_eq!(delta.added.len(), 1);
        assert!(delta.removed.is_empty());
        assert_eq!(t.entry_count(), 1);
        let d = t.route(&note("t"));
        assert_eq!(d.clients, vec![(c, n)]);
        assert!(d.neighbors.is_empty());
        // Re-attach at a new node keeps the subscription (relocation).
        t.attach_client(c, NodeId::new(11));
        let d = t.route(&note("t"));
        assert_eq!(d.clients, vec![(c, NodeId::new(11))]);
        // Unsubscribe then detach.
        assert_eq!(t.unsubscribe_client(c, SubscriptionId::new(1)).removed.len(), 1);
        assert!(t.unsubscribe_client(c, SubscriptionId::new(1)).is_empty());
        assert!(t.detach_client(c).is_some());
        assert!(t.detach_client(c).is_none());
        assert_eq!(t.entry_count(), 0);
    }

    #[test]
    fn detach_removes_index_entries() {
        let mut t = RoutingTable::new();
        let c = ClientId::new(1);
        t.attach_client(c, NodeId::new(10));
        t.subscribe_client(c, SubscriptionId::new(1), f("t"));
        t.detach_client(c);
        assert!(t.route(&note("t")).clients.is_empty());
    }

    #[test]
    fn neighbor_announcements() {
        let mut t = RoutingTable::new();
        let nb = NodeId::new(5);
        assert_eq!(t.neighbor_subscribe(nb, f("t")).added.len(), 1);
        assert!(t.neighbor_subscribe(nb, f("t")).is_empty(), "idempotent by digest");
        assert_eq!(t.neighbor_entry_count(), 1);
        assert_eq!(t.route(&note("t")).neighbors, vec![nb]);
        assert_eq!(t.neighbor_unsubscribe(nb, f("t").digest()).removed.len(), 1);
        assert!(t.neighbor_unsubscribe(nb, f("t").digest()).is_empty());
        assert!(t.route(&note("t")).neighbors.is_empty());
    }

    #[test]
    fn route_dedups_client_with_overlapping_subs() {
        let mut t = RoutingTable::new();
        let c = ClientId::new(1);
        t.attach_client(c, NodeId::new(10));
        t.subscribe_client(c, SubscriptionId::new(1), f("t"));
        t.subscribe_client(c, SubscriptionId::new(2), Filter::all());
        let d = t.route(&note("t"));
        assert_eq!(d.clients.len(), 1, "one delivery per client, not per subscription");
    }

    /// A client's entries cost one verification between them, its number
    /// outlives a move to another node, and after a detach the number
    /// names whoever attaches next — never the client that left.
    #[test]
    fn destinations_are_decided_once_moved_and_recycled() {
        let mut t = RoutingTable::new();
        let (a, b) = (ClientId::new(1), ClientId::new(2));
        t.attach_client(a, NodeId::new(10));
        for sub in 0..8 {
            let filter = Filter::builder().eq("service", "t").ge("n", sub as i64).build();
            t.subscribe_client(a, SubscriptionId::new(sub), filter);
        }
        let n = Notification::builder().attr("service", "t").attr("n", 9i64).publish(
            ClientId::new(9),
            0,
            SimTime::ZERO,
        );
        let mut scratch = RouteScratch::new();
        t.route_into(&n, &mut scratch);
        assert_eq!(
            (scratch.clients.as_slice(), scratch.verified),
            (&[(a, NodeId::new(10))][..], 1)
        );
        t.attach_client(a, NodeId::new(11));
        t.route_into(&n, &mut scratch);
        assert_eq!(scratch.clients, vec![(a, NodeId::new(11))]);
        let number = t.client(a).expect("attached").dest;
        t.detach_client(a);
        t.attach_client(b, NodeId::new(12));
        assert_eq!(t.client(b).expect("attached").dest, number, "recycled");
        t.route_into(&n, &mut scratch);
        assert!(scratch.clients.is_empty(), "the number's old entries left with the old client");
        t.subscribe_client(b, SubscriptionId::new(0), f("t"));
        t.route_into(&n, &mut scratch);
        assert_eq!(scratch.clients, vec![(b, NodeId::new(12))]);
    }

    #[test]
    fn route_into_reuses_scratch() {
        let mut t = RoutingTable::new();
        let c = ClientId::new(1);
        let nb = NodeId::new(5);
        t.attach_client(c, NodeId::new(10));
        t.subscribe_client(c, SubscriptionId::new(1), f("t"));
        t.neighbor_subscribe(nb, f("t"));
        let mut scratch = RouteScratch::new();
        t.route_into(&note("t"), &mut scratch);
        assert_eq!(scratch.clients, vec![(c, NodeId::new(10))]);
        assert_eq!(scratch.neighbors, vec![nb]);
        // A non-matching notification clears stale decisions.
        t.route_into(&note("other"), &mut scratch);
        assert!(scratch.clients.is_empty() && scratch.neighbors.is_empty());
        // And the scratch agrees with the allocating form.
        t.route_into(&note("t"), &mut scratch);
        let d = t.route(&note("t"));
        assert_eq!(d.clients, scratch.clients);
        assert_eq!(d.neighbors, scratch.neighbors);
    }

    #[test]
    fn tables_share_interner() {
        use std::sync::Arc;
        let interner = Arc::new(SharedInterner::new());
        let t1 = RoutingTable::with_interner(Arc::clone(&interner));
        let t2 = RoutingTable::with_interner(Arc::clone(&interner));
        assert!(Arc::ptr_eq(t1.interner(), t2.interner()));
    }

    #[test]
    fn filters_excluding_splits_horizon() {
        let mut t = RoutingTable::new();
        let (nb1, nb2) = (NodeId::new(5), NodeId::new(6));
        let c = ClientId::new(1);
        t.attach_client(c, NodeId::new(10));
        t.subscribe_client(c, SubscriptionId::new(1), f("local"));
        t.neighbor_subscribe(nb1, f("from1"));
        t.neighbor_subscribe(nb2, f("from2"));
        let towards_nb1 = t.filters_excluding(nb1);
        assert!(towards_nb1.contains(&f("local")));
        assert!(towards_nb1.contains(&f("from2")));
        assert!(!towards_nb1.contains(&f("from1")), "never announce back what nb1 sent");
    }
}
