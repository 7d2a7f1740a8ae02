//! Newtype identifiers shared across the REBECA crates.
//!
//! Every entity of the system — brokers, clients, subscriptions, locations,
//! applications — gets its own identifier type so they can never be mixed up
//! (the classic newtype discipline: a [`BrokerId`] is not a [`ClientId`]
//! even though both are backed by a `u32`).

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(u32);

        crate::wire_table! { struct $name { 0: u32 } }

        impl $name {
            /// Creates the identifier from its raw index.
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw index backing this identifier.
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

id_type!(
    /// Identifier of a broker process (border or inner) in the router network.
    BrokerId,
    "B"
);
id_type!(
    /// Identifier of a client process (producer and/or consumer).
    ///
    /// A client is a user of the notification service; it accesses the
    /// middleware through its local broker.
    ClientId,
    "C"
);
id_type!(
    /// Identifier of a registered subscription.
    SubscriptionId,
    "S"
);
id_type!(
    /// Identifier of a *location* — a first-class concept in mobile REBECA.
    ///
    /// Locations are application-level (a room, a cell, a region); the
    /// mobility layer maps brokers to the location scopes they serve.
    LocationId,
    "L"
);
id_type!(
    /// Identifier of a mobile application instance.
    ///
    /// One application (running on a mobile device) is represented in the
    /// broker network by one *active* virtual client plus a set of
    /// *buffering* virtual clients (its "information shadows").
    ApplicationId,
    "A"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(BrokerId::new(3).to_string(), "B3");
        assert_eq!(ClientId::new(0).to_string(), "C0");
        assert_eq!(SubscriptionId::new(17).to_string(), "S17");
        assert_eq!(LocationId::new(5).to_string(), "L5");
        assert_eq!(ApplicationId::new(9).to_string(), "A9");
    }

    #[test]
    fn raw_round_trip() {
        let id = BrokerId::new(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(BrokerId::from(42u32), id);
        assert_eq!(u32::from(id), 42);
    }

    #[test]
    fn ids_are_ordered_by_raw_index() {
        assert!(BrokerId::new(1) < BrokerId::new(2));
        let mut v = vec![ClientId::new(3), ClientId::new(1), ClientId::new(2)];
        v.sort();
        assert_eq!(v, vec![ClientId::new(1), ClientId::new(2), ClientId::new(3)]);
    }
}
