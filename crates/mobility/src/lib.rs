//! # rebeca-mobility — uncertainty-aware mobility for REBECA
//!
//! This crate implements everything the paper adds on top of the routing
//! framework, in three layers, all hosted by the replicator in front of
//! each border broker:
//!
//! 1. **Physical mobility** (location *transparency*): the relocation
//!    protocol of Zeidler/Fiege \[8\]. The [`ReplicatorNode`] in front of
//!    each border broker buffers notifications for silently disconnected
//!    clients ([`RelocationBuffers`]) and replays them — gap-free,
//!    duplicate-free, FIFO-preserving — when the client's
//!    [`MobileClientNode`] re-attaches at a (possibly different) border
//!    broker. The brokers themselves stay mobility-unaware. The
//!    JEDI-style explicit `moveOut`/`moveIn` baseline is available as
//!    [`ClientMobilityMode::Naive`].
//! 2. **Logical mobility** (location *awareness*): location-dependent
//!    subscriptions via the `myloc` marker, resolved against the
//!    [`LocationMap`] of the broker the client is currently attached to
//!    (reactive adaptation, \[5\]: the replicator layer with
//!    `k_hops: 0`).
//! 3. **Extended logical mobility** — the paper's contribution:
//!    *pre-subscriptions and virtual clients*. A [`ReplicatorNode`] per
//!    border broker replicates each client's location-dependent
//!    subscriptions as buffering [`VirtualClient`]s ("information
//!    shadows") on every broker in the movement-graph neighbourhood
//!    [`MovementGraph::nlb`], so that a moving client finds an already
//!    initialised, buffered notification stream the instant it arrives.
//!
//! The research-agenda items of §4 are implemented too: k-hop `nlb`
//! sizing, the *exception mode* for clients popping up outside their
//! neighbourhood, pluggable buffering policies ([`BufferSpec`]: time-based,
//! history-based, combined, semantic), and context-dependent subscriptions
//! ([`ContextMap`], `myctx`). Virtual clients and disconnected devices
//! buffer in one type, [`ReplayBuffer`], and every buffer of a replicator
//! reports to its one [`ByteLedger`], so a notification held by several
//! buffers is counted once (§4's shared buffer at the border broker).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod client;
pub mod context;
pub mod location;
pub mod movement;
pub mod paging;
pub mod physical;
pub mod replicator;

pub use buffer::{BufferSpec, ByteLedger, Ledger, ReplayBuffer};
pub use client::{ClientMobilityMode, MobileClientNode};
pub use context::ContextMap;
pub use location::LocationMap;
pub use movement::MovementGraph;
pub use paging::{pages, DEFAULT_MAX_BATCH_BYTES};
pub use physical::RelocationBuffers;
pub use replicator::{
    app_of, virtual_client_id, ReplicatorConfig, ReplicatorNode, ReplicatorStats, VirtualClient,
};
