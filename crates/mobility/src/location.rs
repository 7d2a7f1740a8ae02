//! The location model.
//!
//! Locations are application-level concepts (an office, a GSM cell, a city
//! district); brokers are system-level. The [`LocationMap`] links the two:
//! every border broker serves a *scope* — the set of [`LocationId`]s a
//! client attached there is considered to be "at". Resolving a
//! location-dependent filter means replacing its `myloc` marker with the
//! scope of the broker the (virtual) client sits at, which is precisely the
//! paper's mapping from the marker to "a specific set of locations that
//! depends on the current location of the client".

use rebeca_core::{BrokerId, Filter, LocationId};
use rebeca_net::Topology;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Maps border brokers to the location scopes they serve.
///
/// ```
/// use rebeca_core::{BrokerId, Filter, LocationId};
/// use rebeca_mobility::LocationMap;
/// let mut map = LocationMap::new();
/// map.assign(BrokerId::new(0), [LocationId::new(10), LocationId::new(11)]);
/// let f = Filter::builder().eq("service", "temperature").myloc("location").build();
/// let resolved = map.resolve(&f, BrokerId::new(0));
/// assert!(!resolved.is_location_dependent());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocationMap {
    scopes: BTreeMap<BrokerId, BTreeSet<LocationId>>,
}

impl LocationMap {
    /// Creates an empty map (every scope empty).
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical simple mapping: broker `Bi` serves exactly location
    /// `Li` (one room / cell per access point).
    pub fn one_per_broker(topology: &Topology) -> Self {
        let mut map = LocationMap::new();
        for b in topology.brokers() {
            map.assign(b, [LocationId::new(b.raw())]);
        }
        map
    }

    /// Assigns (replaces) the scope of a broker.
    pub fn assign(&mut self, broker: BrokerId, locations: impl IntoIterator<Item = LocationId>) {
        self.scopes.insert(broker, locations.into_iter().collect());
    }

    /// Extends the scope of a broker (keeps existing locations).
    pub fn extend(&mut self, broker: BrokerId, locations: impl IntoIterator<Item = LocationId>) {
        self.scopes.entry(broker).or_default().extend(locations);
    }

    /// The scope of a broker (empty set if unassigned).
    pub fn scope(&self, broker: BrokerId) -> BTreeSet<LocationId> {
        self.scopes.get(&broker).cloned().unwrap_or_default()
    }

    /// Returns `true` if `broker`'s scope contains `location`.
    pub fn serves(&self, broker: BrokerId, location: LocationId) -> bool {
        self.scopes.get(&broker).is_some_and(|s| s.contains(&location))
    }

    /// Resolves every `myloc` marker of `filter` for a client at `broker`.
    #[must_use]
    pub fn resolve(&self, filter: &Filter, broker: BrokerId) -> Filter {
        filter.resolve_locations(self.scope(broker))
    }

    /// Iterates over `(broker, scope)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&BrokerId, &BTreeSet<LocationId>)> {
        self.scopes.iter()
    }

    /// Number of brokers with an assigned scope.
    pub fn len(&self) -> usize {
        self.scopes.len()
    }

    /// Returns `true` if no broker has a scope.
    pub fn is_empty(&self) -> bool {
        self.scopes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_core::{ClientId, Notification, SimTime};

    #[test]
    fn one_per_broker_mapping() {
        let topo = Topology::line(3).unwrap();
        let map = LocationMap::one_per_broker(&topo);
        assert_eq!(map.len(), 3);
        assert!(map.serves(BrokerId::new(1), LocationId::new(1)));
        assert!(!map.serves(BrokerId::new(1), LocationId::new(2)));
    }

    #[test]
    fn resolution_tracks_broker() {
        let topo = Topology::line(3).unwrap();
        let map = LocationMap::one_per_broker(&topo);
        let f = Filter::builder().eq("service", "t").myloc("location").build();
        let at0 = map.resolve(&f, BrokerId::new(0));
        let at1 = map.resolve(&f, BrokerId::new(1));
        assert_ne!(at0, at1);
        let n = |loc: u32| {
            Notification::builder()
                .attr("service", "t")
                .attr("location", LocationId::new(loc))
                .publish(ClientId::new(0), 0, SimTime::ZERO)
        };
        assert!(at0.matches(&n(0)) && !at0.matches(&n(1)));
        assert!(at1.matches(&n(1)) && !at1.matches(&n(0)));
    }

    #[test]
    fn unassigned_brokers_resolve_to_empty_scope() {
        let map = LocationMap::new();
        let f = Filter::builder().myloc("location").build();
        let r = map.resolve(&f, BrokerId::new(9));
        assert!(!r.is_location_dependent());
        // Empty location set matches nothing.
        let n = Notification::builder().attr("location", LocationId::new(0)).publish(
            ClientId::new(0),
            0,
            SimTime::ZERO,
        );
        assert!(!r.matches(&n));
    }

    #[test]
    fn multi_location_scopes() {
        let mut map = LocationMap::new();
        map.assign(BrokerId::new(0), [LocationId::new(1)]);
        map.extend(BrokerId::new(0), [LocationId::new(2)]);
        assert_eq!(map.scope(BrokerId::new(0)).len(), 2);
    }
}
