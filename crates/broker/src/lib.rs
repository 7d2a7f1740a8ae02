//! # rebeca-broker — the REBECA router network
//!
//! Broker state machines implementing content-based routing over an acyclic
//! broker graph, per the paper's §2:
//!
//! * [`Message`] — the complete wire protocol (client ↔ broker, broker ↔
//!   broker, and the mobility sub-protocol interpreted by the mobility
//!   crate's wrappers);
//! * [`RoutingStrategy`] — flooding / simple / covering;
//! * [`RoutingTable`] — a broker's one table of `(Filter, Link)` entries,
//!   backed by the value-keyed match index;
//! * [`BrokerCore`] / [`BrokerNode`] — the routing engine and its plain
//!   node wrapper; neither knows about mobility. The engine has one
//!   mutation seam: [`BrokerCore::classify`] handles everything about a
//!   message except mutating the routing state and returns the mutations
//!   as [`BrokerOp`]s; applying an op is the only place it touches the
//!   table, and each applied batch ends in one flush that sends every
//!   neighbour its net announcement change as filter lists. The two hosts
//!   differ in what happens in between — nothing ([`BrokerNode`]) or a
//!   replica-group commit ([`ReplicatedBrokerNode`]);
//! * [`LocalBroker`] / [`ClientNode`] — the client-side library ("local
//!   broker") and its immobile node wrapper;
//! * [`replication`] — VR-style op-log replica groups: a broker's whole
//!   mutation surface as a replicated, recoverable operation log
//!   ([`ReplicatedBrokerNode`] + [`ReplicaNode`]), so a SIGKILLed broker
//!   process recovers its routing table from its group instead of
//!   depending on clients re-subscribing.
//!
//! The mobility crate composes [`BrokerCore`] and [`LocalBroker`] into
//! mobility-aware nodes without touching the routing framework — the
//! layering the paper advertises ("without having to change the internals
//! of the underlying routing framework", §3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod broker;
mod client;
pub mod codec;
pub mod message;
pub mod replication;
pub mod routing;
pub mod table;

pub use broker::{BrokerCore, BrokerNode, BrokerStats, LocalDelivery, Outcome};
pub use client::{ClientNode, DeliveryRecord, LocalBroker};
pub use codec::{decode_message, decode_mobility, encode_message, encode_mobility};
pub use message::{Filters, Message, MobilityMsg};
pub use replication::{
    BrokerOp, LiveState, LogState, OpLog, Replica, ReplicaMsg, ReplicaNode, ReplicaStatus,
    ReplicatedBrokerNode, ReplicationMetrics, ReplicationStats, StateReject,
};
pub use routing::{minimal_cover, CoverChanges, LinkAnnouncer, RoutingStrategy};
pub use table::{ClientEntry, RouteDecision, RouteKey, RouteScratch, RoutingTable, TableDelta};
