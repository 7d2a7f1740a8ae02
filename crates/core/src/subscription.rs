//! Subscriptions: registered consumer interests.

use crate::filter::Filter;
use crate::id::{ClientId, SubscriptionId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A registered subscription: a [`Filter`] owned by a consumer client.
///
/// A subscription whose filter uses the `myloc` marker is
/// *location-dependent*: the mobility layer adapts it whenever the client's
/// location changes, and — under extended logical mobility — replicates it
/// to the virtual clients in the movement-graph neighbourhood.
///
/// ```
/// use rebeca_core::{ClientId, Filter, Subscription, SubscriptionId};
/// let sub = Subscription::new(
///     SubscriptionId::new(1),
///     ClientId::new(7),
///     Filter::builder().eq("service", "temperature").myloc("location").build(),
/// );
/// assert!(sub.is_location_dependent());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Subscription {
    pub(crate) id: SubscriptionId,
    pub(crate) client: ClientId,
    pub(crate) filter: Filter,
}

impl Subscription {
    /// Creates a subscription.
    pub fn new(id: SubscriptionId, client: ClientId, filter: Filter) -> Self {
        Subscription { id, client, filter }
    }

    /// The subscription identifier.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// The owning client.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// The content filter.
    pub fn filter(&self) -> &Filter {
        &self.filter
    }

    /// Consumes the subscription, returning its filter.
    pub fn into_filter(self) -> Filter {
        self.filter
    }

    /// Wire size (id + owner + filter) in bytes.
    pub fn wire_size(&self) -> usize {
        crate::codec::wire_len::<Subscription>(self)
    }

    /// `true` if the filter uses `myloc` (see type-level docs).
    pub fn is_location_dependent(&self) -> bool {
        self.filter.is_location_dependent()
    }

    /// `true` if the filter uses a `myctx` marker.
    pub fn is_context_dependent(&self) -> bool {
        self.filter.is_context_dependent()
    }

    /// Returns a copy of this subscription with its filter's `myloc`
    /// markers resolved to the given location set.
    #[must_use]
    pub fn resolved_for(
        &self,
        locations: impl IntoIterator<Item = crate::id::LocationId>,
    ) -> Subscription {
        Subscription {
            id: self.id,
            client: self.client,
            filter: self.filter.resolve_locations(locations),
        }
    }
}

impl fmt::Display for Subscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}: {}", self.id, self.client, self.filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::LocationId;

    #[test]
    fn accessors_and_flags() {
        let f = Filter::builder().eq("service", "t").myloc("location").build();
        let s = Subscription::new(SubscriptionId::new(3), ClientId::new(1), f.clone());
        assert_eq!(s.id(), SubscriptionId::new(3));
        assert_eq!(s.client(), ClientId::new(1));
        assert_eq!(s.filter(), &f);
        assert!(s.is_location_dependent());
        assert!(!s.is_context_dependent());
    }

    #[test]
    fn resolved_for_replaces_marker_but_keeps_identity() {
        let f = Filter::builder().myloc("location").build();
        let s = Subscription::new(SubscriptionId::new(1), ClientId::new(2), f);
        let r = s.resolved_for([LocationId::new(9)]);
        assert_eq!(r.id(), s.id());
        assert_eq!(r.client(), s.client());
        assert!(!r.is_location_dependent());
    }

    #[test]
    fn display_includes_owner() {
        let s = Subscription::new(
            SubscriptionId::new(1),
            ClientId::new(2),
            Filter::builder().eq("a", 1i64).build(),
        );
        assert_eq!(s.to_string(), "S1@C2: a == 1");
    }
}
