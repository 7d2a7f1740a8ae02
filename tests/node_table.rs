//! One node table for every build path.
//!
//! `SystemBuilder::build` and `SystemBuilder::build_process_partition`
//! instantiate the same deployment plan: a simulator world and the
//! processes of a partitioned deployment must agree on every node id —
//! which node it is, which replica group it belongs to, and where the
//! clients' ids begin. Callers (the process soaks, the replicated-group
//! example) number their client nodes from that first free id.

use rebeca::broker::replication::{ReplicaNode, ReplicatedBrokerNode};
use rebeca::broker::{BrokerNode, Message};
use rebeca::net::{NodeId, ProcessRuntime};
use rebeca::{BrokerId, Deployment, RebecaError, SystemBuilder, Topology};
use std::os::unix::net::UnixStream;

const BROKERS: usize = 3;

type Error = Box<dyn std::error::Error>;

/// A process's view of the global node table: `None` for remote ids.
type Table = Vec<Option<String>>;

/// A node as its concrete type and its replica-group membership.
fn describe(
    broker: Option<&BrokerNode>,
    replicated: Option<&ReplicatedBrokerNode>,
    backup: Option<&ReplicaNode>,
) -> String {
    match (broker, replicated, backup) {
        (Some(b), None, None) => format!("BrokerNode {}", b.core().id()),
        (None, Some(b), None) => {
            format!("ReplicatedBrokerNode {} {:?}", b.core().id(), b.replica().config())
        }
        (None, None, Some(r)) => format!("ReplicaNode {:?}", r.replica().config()),
        _ => "not a broker-tier node".into(),
    }
}

fn builder(g: usize) -> Result<SystemBuilder, RebecaError> {
    Ok(SystemBuilder::new(Topology::line(BROKERS)?).replication(g))
}

/// Builds one never-started process partition hosting `hosted`; returns
/// its node table and its first free id.
fn partition(g: usize, hosted: &[BrokerId]) -> Result<(Table, NodeId), Error> {
    let mut rt = ProcessRuntime::<Message>::new();
    let peer = rt.add_peer(UnixStream::pair()?.0);
    builder(g)?.build_process_partition(&mut rt, hosted, |_| Some(peer))?;
    let first_free = rt.add_remote(peer);
    let table = rt
        .stop()
        .iter()
        .map(|node| {
            node.as_deref().map(|node| {
                let any = node.as_any();
                describe(any.downcast_ref(), any.downcast_ref(), any.downcast_ref())
            })
        })
        .collect();
    Ok((table, first_free))
}

#[test]
fn process_partitions_split_the_simulator_node_table() -> Result<(), Error> {
    for g in [1, 3] {
        let sys = builder(g)?.build()?;
        let world = sys.world();
        let expected: Vec<String> = (0..world.node_count() as u32)
            .map(NodeId::new)
            .map(|id| describe(world.node_as(id), world.node_as(id), world.node_as(id)))
            .collect();
        assert_eq!(expected.len(), BROKERS * g, "replication {g}: brokers, then backups");

        let (b0, b1, b2) = (BrokerId::new(0), BrokerId::new(1), BrokerId::new(2));
        let halves = [partition(g, &[b0])?, partition(g, &[b1, b2])?];
        for (table, first_free) in &halves {
            assert_eq!(*first_free, NodeId::new((BROKERS * g) as u32), "replication {g}");
            // The table plus the one remote slot taken for `first_free`.
            assert_eq!(table.len(), expected.len() + 1, "replication {g}");
        }
        for (id, want) in expected.iter().enumerate() {
            let local: Vec<&String> =
                halves.iter().filter_map(|(table, _)| table[id].as_ref()).collect();
            assert_eq!(local, [want], "replication {g}: node {id} is local exactly once");
        }
    }
    Ok(())
}

#[test]
fn process_partitions_still_reject_mobility() -> Result<(), Error> {
    for deployment in [Deployment::reactive(), Deployment::replicated_defaults()] {
        let mut rt = ProcessRuntime::<Message>::new();
        let peer = rt.add_peer(UnixStream::pair()?.0);
        let err = builder(1)?.deployment(deployment).build_process_partition(
            &mut rt,
            &[BrokerId::new(0)],
            |_| Some(peer),
        );
        assert!(matches!(err, Err(RebecaError::InvalidDeployment(_))), "{err:?}");
        rt.stop();
    }
    Ok(())
}
