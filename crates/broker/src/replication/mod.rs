//! Broker-state replication: VR-style op-log replica groups.
//!
//! A crashed broker process was the one uncertainty this system did not
//! survive: PR 8's supervisor heals the *links* of a SIGKILLed broker with
//! zero loss, but the reborn process came back with an empty routing
//! table, silently depending on every client re-subscribing. This module closes that gap by treating each broker's
//! mutations as a deterministic operation log ([`oplog`]) replicated
//! across a small group with viewstamped-replication-style primary/backup
//! semantics ([`replica`]), and by wrapping the broker so every table
//! mutation rides through that log while the per-notification read path
//! bypasses it entirely ([`replicated`]).
//!
//! The layering:
//!
//! * [`oplog`] — [`BrokerOp`], the broker's one mutation vocabulary
//!   (deterministic, idempotent; what
//!   [`BrokerCore::classify`](crate::BrokerCore::classify) produces and
//!   [`BrokerCore::apply`](crate::BrokerCore::apply) consumes, replicated
//!   or not), and the 1-based [`OpLog`], kept as **checkpoint + tail**:
//!   the [`LiveState`] the committed prefix folds to (clients,
//!   subscriptions and neighbour filters by key) plus the ops above it. A
//!   location change is a re-subscription, so a log of every op would grow
//!   with distance travelled; this one holds the live table and the
//!   uncommitted window. [`LogState`] is its shipped form, [`StateReject`]
//!   names every malformed one.
//! * [`replica`] — the sans-io [`Replica`] state machine (view number, op
//!   number, commit number; prepare/prepare-ok/commit, view changes,
//!   probe-based crash recovery) and its wire messages ([`ReplicaMsg`],
//!   carried as `Message::Replica`, codec tag 14). Draining a committed op
//!   folds it, at every member alike and at each member's own pace; the
//!   three whole-state messages carry a [`LogState`], and a member that
//!   adopts one past its own checkpoint hands its broker the difference
//!   between the two live states instead of ops that no longer exist.
//! * [`replicated`] — [`ReplicatedBrokerNode`] (a broker whose mutation
//!   surface is logged) and [`ReplicaNode`] (a log-only backup), plus the
//!   [`ReplicationMetrics`] counters the facade surfaces — `ops_folded`
//!   and the `log_resident` gauge make the bound visible.
//!
//! Deployment wiring (group placement across processes, supervisor-driven
//! view changes) lives in the `rebeca` facade: `SystemBuilder::replication`.

pub mod oplog;
pub mod replica;
pub mod replicated;

pub use oplog::{BrokerOp, LiveState, LogState, OpLog, StateReject};
pub use replica::{
    Outbox, Replica, ReplicaConfig, ReplicaMsg, ReplicaStatus, MAX_BATCH_OPS, PREPARE_WINDOW,
};
pub use replicated::{ReplicaNode, ReplicatedBrokerNode, ReplicationMetrics, ReplicationStats};
