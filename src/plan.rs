//! The deployment plan: every node of a deployment, what it is, which
//! broker's process hosts it, and every link between them — laid out once
//! and instantiated by both build paths.
//!
//! Ids are allocated in order, never computed: the brokers `0..n`, then
//! the log backups of broker 0, of broker 1, … (each group in position
//! order), then one replicator per broker. Clients take the ids after the
//! plan. The simulator build and every process of a partitioned build
//! derive the same table from the same configuration.

use crate::Deployment;
use rebeca_core::BrokerId;
use rebeca_net::{NodeId, Topology};
use std::sync::Arc;

/// What a planned node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeKind {
    /// A broker: position 0 of its own replica group.
    Broker(BrokerId),
    /// Log backup `position` (1-based) of `broker`'s replica group.
    Backup { broker: BrokerId, position: usize },
    /// The replicator in front of a broker.
    Replicator(BrokerId),
}

/// One node of the plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlannedNode {
    pub(crate) kind: NodeKind,
    /// The broker whose process runs the node: its own broker for a broker
    /// or a replicator, broker `(b + p) mod n` for backup `p` of broker `b`
    /// — so no two members of a group share a process.
    pub(crate) host: BrokerId,
}

/// Every node of a deployment, indexed by id, and the links between them.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Every node, indexed by id.
    pub(crate) nodes: Vec<PlannedNode>,
    /// The broker node ids, indexed by [`BrokerId`].
    pub(crate) brokers: Arc<Vec<NodeId>>,
    /// Per broker, its replica group: the broker, then its backups.
    groups: Vec<Vec<NodeId>>,
    /// The replicator node ids, indexed by [`BrokerId`]; `None` without a
    /// replicator layer.
    pub(crate) replicators: Option<Arc<Vec<NodeId>>>,
    /// Every link, each once, in installation order.
    pub(crate) edges: Vec<(NodeId, NodeId)>,
}

impl Plan {
    /// Lays out `deployment` over `topology` with replica groups of
    /// `group_size` members (1 = no backups).
    pub(crate) fn new(topology: &Topology, deployment: &Deployment, group_size: usize) -> Plan {
        let n = topology.broker_count();
        let mut nodes = Vec::new();
        let mut alloc = |kind, host| {
            nodes.push(PlannedNode { kind, host });
            NodeId::new(nodes.len() as u32 - 1)
        };
        let brokers: Vec<NodeId> =
            topology.brokers().map(|b| alloc(NodeKind::Broker(b), b)).collect();
        let mut groups: Vec<Vec<NodeId>> = brokers.iter().map(|&id| vec![id]).collect();
        for (b, group) in topology.brokers().zip(&mut groups) {
            for position in 1..group_size {
                let host = BrokerId::new(((b.raw() as usize + position) % n) as u32);
                group.push(alloc(NodeKind::Backup { broker: b, position }, host));
            }
        }
        let replicators = matches!(deployment, Deployment::Replicated { .. }).then(|| {
            topology.brokers().map(|b| alloc(NodeKind::Replicator(b), b)).collect::<Vec<_>>()
        });

        let mut edges: Vec<(NodeId, NodeId)> = topology
            .edges()
            .iter()
            .map(|&(a, b)| (brokers[a.raw() as usize], brokers[b.raw() as usize]))
            .collect();
        for group in &groups {
            mesh(&mut edges, group);
        }
        if let Some(replicators) = &replicators {
            edges.extend(replicators.iter().copied().zip(brokers.iter().copied()));
            // Replicator ↔ replicator mesh ("direct TCP connections").
            mesh(&mut edges, replicators);
        }
        Plan {
            nodes,
            brokers: Arc::new(brokers),
            groups,
            replicators: replicators.map(Arc::new),
            edges,
        }
    }

    /// `broker`'s replica group: the broker, then its backups by position.
    pub(crate) fn group(&self, broker: BrokerId) -> &[NodeId] {
        &self.groups[broker.raw() as usize]
    }

    /// Where clients attach: the replicators if there are any, otherwise
    /// the brokers.
    pub(crate) fn access(&self) -> &Arc<Vec<NodeId>> {
        self.replicators.as_ref().unwrap_or(&self.brokers)
    }
}

/// Appends a full mesh over `members`.
fn mesh(edges: &mut Vec<(NodeId, NodeId)>, members: &[NodeId]) {
    for (i, &a) in members.iter().enumerate() {
        edges.extend(members[i + 1..].iter().map(|&b| (a, b)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_brokers_then_backups_then_replicators() {
        let topology = Topology::line(3).unwrap();
        let plan = Plan::new(&topology, &Deployment::replicated_defaults(), 3);
        let kinds: Vec<(NodeKind, u32)> =
            plan.nodes.iter().map(|node| (node.kind, node.host.raw())).collect();
        let b = BrokerId::new;
        let backup = |broker, position| NodeKind::Backup { broker: b(broker), position };
        assert_eq!(
            kinds,
            [
                (NodeKind::Broker(b(0)), 0),
                (NodeKind::Broker(b(1)), 1),
                (NodeKind::Broker(b(2)), 2),
                (backup(0, 1), 1),
                (backup(0, 2), 2),
                (backup(1, 1), 2),
                (backup(1, 2), 0),
                (backup(2, 1), 0),
                (backup(2, 2), 1),
                (NodeKind::Replicator(b(0)), 0),
                (NodeKind::Replicator(b(1)), 1),
                (NodeKind::Replicator(b(2)), 2),
            ]
        );
        let ids = |raw: &[u32]| raw.iter().copied().map(NodeId::new).collect::<Vec<_>>();
        assert_eq!(plan.group(b(1)), ids(&[1, 5, 6]));
        assert_eq!(**plan.access(), ids(&[9, 10, 11]));
        // 2 topology edges, 3 per group mesh, 3 broker ↔ replicator links,
        // 3 in the replicator mesh.
        assert_eq!(plan.edges.len(), 2 + 3 * 3 + 3 + 3);
    }
}
