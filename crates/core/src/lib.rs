//! # rebeca-core — content-based publish/subscribe data model
//!
//! This crate implements the data model of the REBECA content-based
//! publish/subscribe middleware as described in *Dealing with Uncertainty in
//! Mobile Publish/Subscribe Middleware* (Fiege, Zeidler, Gärtner,
//! Handurukande; Middleware 2003) and the underlying REBECA literature:
//!
//! * [`Notification`] — an attribute/value message reifying an occurred
//!   event, published by a producer client.
//! * [`Filter`] — a boolean-valued function over notifications: a
//!   conjunction of [`Constraint`]s, each applying a [`Predicate`] to one
//!   attribute. Filters implement the *covering* relation (`F1 ⊒ F2`), on
//!   which covering-based routing rests.
//! * [`Subscription`] — a filter registered by a consumer client. Filters
//!   may contain the `myloc` marker ([`Predicate::MyLoc`]) which makes the
//!   subscription *location-dependent*; the mobility layer resolves the
//!   marker to a concrete location set for the client's current position.
//! * [`MatchIndex`] — the value-keyed matching index used by broker routing
//!   tables and local delivery: each filter is filed under one of its
//!   constraints (by value when it has a `==`/`∈` one), and a
//!   notification's candidates are verified in full.
//!
//! The crate is deliberately free of any I/O or runtime concern so the same
//! types drive the deterministic simulator and the live multi-process runtime.
//!
//! ## Example
//!
//! ```
//! use rebeca_core::{ClientId, Filter, LocationId, Notification, SimTime};
//!
//! // A consumer interested in temperature readings at its current location
//! // (the paper's running example): (service = "temperature"), (location ∈ myloc).
//! let filter = Filter::builder()
//!     .eq("service", "temperature")
//!     .myloc("location")
//!     .build();
//! assert!(filter.is_location_dependent());
//!
//! // The mobility layer resolves `myloc` for the office the client is in.
//! let office = LocationId::new(4);
//! let resolved = filter.resolve_locations([office]);
//!
//! let n = Notification::builder()
//!     .attr("service", "temperature")
//!     .attr("location", office)
//!     .attr("celsius", 21.5)
//!     .publish(ClientId::new(1), 0, SimTime::ZERO);
//! assert!(resolved.matches(&n));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod digest;
pub mod error;
pub mod filter;
pub mod id;
pub mod intern;
pub mod matching;
pub mod notification;
pub mod subscription;
mod sync;
pub mod time;
pub mod value;

pub use codec::{ArchivedAttrs, ArchivedNotification, ValueRef};
pub use digest::Digest;
pub use error::CoreError;
pub use filter::{Constraint, CoverKey, Filter, FilterBuilder, Predicate};
pub use id::{ApplicationId, BrokerId, ClientId, LocationId, SubscriptionId};
pub use intern::{Interner, InternerCache, SharedInterner, Symbol};
pub use matching::MatchIndex;
pub use notification::{Notification, NotificationBuilder, NotificationId};
pub use subscription::Subscription;
pub use time::{SimDuration, SimTime};
pub use value::Value;

/// Commonly used items, importable with a single `use rebeca_core::prelude::*`.
pub mod prelude {
    pub use crate::digest::Digest;
    pub use crate::error::CoreError;
    pub use crate::filter::{Constraint, Filter, FilterBuilder, Predicate};
    pub use crate::id::{ApplicationId, BrokerId, ClientId, LocationId, SubscriptionId};
    pub use crate::matching::MatchIndex;
    pub use crate::notification::{Notification, NotificationBuilder, NotificationId};
    pub use crate::subscription::Subscription;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::value::Value;
}
