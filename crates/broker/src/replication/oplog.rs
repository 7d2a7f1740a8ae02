//! The deterministic operation log a broker replica group agrees on.
//!
//! Every mutation of a broker's state — routing-table churn (client
//! attach/detach, subscriptions, neighbour announcements) and the link
//! lifecycle markers — is a [`BrokerOp`].
//! The read path (match + route + fan-out) never appears here: replication
//! sits on the mutation path only, and applying the same op sequence to a
//! fresh [`BrokerCore`](crate::BrokerCore) rebuilds the identical routing
//! table, which is what lets a respawned broker process recover from its
//! replica group instead of waiting for every client to re-subscribe.
//!
//! Ops are **idempotent at the table level**: re-applying a `Subscribe`
//! with the same id/filter, or a `NeighborSubscribe` already announced,
//! yields an empty [`TableDelta`](crate::TableDelta). Recovery therefore
//! never needs exactly-once delivery — at-least-once replay converges.

use rebeca_core::{ClientId, Filter, Subscription, SubscriptionId};
use rebeca_net::NodeId;

/// One replicated broker mutation.
///
/// Ops carry the *origin node* of the mutation where the routing table
/// needs it (deliveries are addressed to the attaching node; neighbour
/// announcements are keyed by link), so replaying the log is independent
/// of who delivers it.
#[derive(Debug, Clone, PartialEq)]
pub enum BrokerOp {
    /// A client announced itself at this border broker.
    ClientAttach {
        /// The attaching client.
        client: ClientId,
        /// The node deliveries for this client are sent to.
        node: NodeId,
    },
    /// Orderly client detach: drop the client's entry and subscriptions.
    ClientDetach {
        /// The detaching client.
        client: ClientId,
    },
    /// A client subscription entered the routing table.
    Subscribe {
        /// The node the subscription arrived from (delivery address).
        node: NodeId,
        /// The subscription (filter + owner + id).
        subscription: Subscription,
    },
    /// A client subscription was revoked.
    Unsubscribe {
        /// The owning client.
        client: ClientId,
        /// The revoked subscription.
        id: SubscriptionId,
    },
    /// A neighbouring broker announced a filter on a link.
    NeighborSubscribe {
        /// The announcing neighbour's node.
        node: NodeId,
        /// The announced filter.
        filter: Filter,
    },
    /// A neighbouring broker retracted a filter.
    NeighborUnsubscribe {
        /// The retracting neighbour's node.
        node: NodeId,
        /// The retracted filter (matched by digest).
        filter: Filter,
    },
    /// A peer link came (back) up. Logged as a lifecycle marker — the
    /// routing table itself is link-state independent (send-time gating
    /// lives in the runtime), so applying this is a no-op.
    LinkUp {
        /// A node behind the affected peer link.
        node: NodeId,
    },
    /// A peer link went down (lifecycle marker, no-op on apply).
    LinkDown {
        /// A node behind the affected peer link.
        node: NodeId,
    },
}

impl BrokerOp {
    /// Approximate encoded size (the [`Payload`](rebeca_net::Payload)
    /// accounting model).
    pub(crate) fn wire_size(&self) -> usize {
        match self {
            BrokerOp::ClientAttach { .. } => 8,
            BrokerOp::ClientDetach { .. } => 4,
            BrokerOp::Subscribe { subscription, .. } => 4 + subscription.wire_size(),
            BrokerOp::Unsubscribe { .. } => 8,
            BrokerOp::NeighborSubscribe { filter, .. }
            | BrokerOp::NeighborUnsubscribe { filter, .. } => 4 + filter.wire_size(),
            BrokerOp::LinkUp { .. } | BrokerOp::LinkDown { .. } => 4,
        }
    }
}

/// The replicated operation log: ops in commit order, 1-based op numbers
/// (op number `n` is the `n`-th entry, matching the VR literature).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpLog {
    ops: Vec<BrokerOp>,
}

impl OpLog {
    /// An empty log.
    pub fn new() -> OpLog {
        OpLog::default()
    }

    /// Number of ops in the log — also the highest op number.
    pub fn op_number(&self) -> u64 {
        self.ops.len() as u64
    }

    /// The op with 1-based number `n`, if present.
    pub fn get(&self, n: u64) -> Option<&BrokerOp> {
        if n == 0 {
            return None;
        }
        self.ops.get((n - 1) as usize)
    }

    /// Appends one op, returning its op number.
    pub fn append(&mut self, op: BrokerOp) -> u64 {
        self.ops.push(op);
        self.ops.len() as u64
    }

    /// Appends `ops` in order.
    pub fn extend(&mut self, ops: impl IntoIterator<Item = BrokerOp>) {
        self.ops.extend(ops);
    }

    /// The ops numbered `first..=last` (1-based, clamped to the log) — what
    /// one batched `Prepare` carries.
    pub fn range(&self, first: u64, last: u64) -> &[BrokerOp] {
        let end = (last.min(self.op_number())) as usize;
        let start = (first.max(1) - 1) as usize;
        self.ops.get(start..end).unwrap_or(&[])
    }

    /// Replaces the whole log (view change / recovery adoption).
    pub fn replace(&mut self, ops: Vec<BrokerOp>) {
        self.ops = ops;
    }

    /// Clones the log's ops (shipped in view-change and recovery
    /// messages).
    pub fn to_vec(&self) -> Vec<BrokerOp> {
        self.ops.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(i: u32) -> BrokerOp {
        BrokerOp::ClientAttach { client: ClientId::new(i), node: NodeId::new(i) }
    }

    #[test]
    fn op_numbers_are_one_based() {
        let mut log = OpLog::new();
        assert_eq!(log.op_number(), 0);
        assert_eq!(log.get(0), None);
        assert_eq!(log.get(1), None);
        assert_eq!(log.append(op(0)), 1);
        assert_eq!(log.append(op(1)), 2);
        assert_eq!(log.op_number(), 2);
        assert_eq!(log.get(1), Some(&op(0)));
        assert_eq!(log.get(2), Some(&op(1)));
        assert_eq!(log.get(3), None);
    }

    #[test]
    fn range_is_inclusive_one_based_and_clamped() {
        let mut log = OpLog::new();
        log.extend((0..5).map(op));
        assert_eq!(log.op_number(), 5);
        assert_eq!(log.range(2, 4), &[op(1), op(2), op(3)]);
        assert_eq!(log.range(0, 1), &[op(0)], "op number 0 does not exist");
        assert_eq!(log.range(4, 99), &[op(3), op(4)], "clamped to the log end");
        assert!(log.range(6, 9).is_empty());
        assert!(log.range(3, 2).is_empty());
    }

    #[test]
    fn replace_adopts_a_foreign_log() {
        let mut log = OpLog::new();
        log.append(op(9));
        log.replace(vec![op(0), op(1), op(2)]);
        assert_eq!(log.op_number(), 3);
        assert_eq!(log.get(1), Some(&op(0)));
        assert_eq!(log.to_vec().len(), 3);
    }
}
