//! Equivalence of the incremental announcement engine with the
//! from-scratch strategy computation.
//!
//! A star of brokers is driven through a randomized churn sequence
//! (subscribe / unsubscribe / replace / detach, across several clients per
//! broker). After *every* step settles, every broker's incrementally
//! maintained announced set for every neighbour link must equal
//! `RoutingStrategy::announcements(filters_excluding(link))` computed from
//! scratch — and must equal what the peer actually recorded in its routing
//! table. Runs for every routing strategy; under flooding both sides are
//! empty, because a flooding broker announces nothing.

use proptest::prelude::*;
use rebeca_broker::{BrokerCore, BrokerNode, Message, RoutingStrategy};
use rebeca_core::{ClientId, Filter, SimDuration, Subscription, SubscriptionId};
use rebeca_net::{LinkConfig, NodeId, Topology, World};
use std::sync::Arc;

const BROKERS: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    Subscribe { broker: usize, client: u32, sub: u32, filter: Filter },
    Unsubscribe { broker: usize, client: u32, sub: u32 },
    Detach { broker: usize, client: u32 },
}

fn build_world(strategy: RoutingStrategy) -> World<Message> {
    let topology = Arc::new(Topology::star(BROKERS).expect("valid star"));
    let broker_nodes: Arc<Vec<NodeId>> = Arc::new((0..BROKERS as u32).map(NodeId::new).collect());
    let mut world = World::new();
    for b in topology.brokers() {
        let core = BrokerCore::new(b, Arc::clone(&topology), Arc::clone(&broker_nodes), strategy);
        world.add_node(Box::new(BrokerNode::new(core)));
    }
    for (a, b) in topology.edges() {
        world.connect(
            NodeId::new(a.raw()),
            NodeId::new(b.raw()),
            LinkConfig::constant(SimDuration::from_millis(1)),
        );
    }
    world
}

/// Checks, for every broker and every neighbour link, that the
/// incrementally maintained announced set equals the from-scratch oracle
/// and the peer's recorded filter set.
fn assert_equivalence(world: &World<Message>, strategy: RoutingStrategy) -> Result<(), String> {
    for b in 0..BROKERS {
        let node = NodeId::new(b as u32);
        let core = world.node_as::<BrokerNode>(node).expect("broker node").core();
        for &nb in core.neighbor_nodes() {
            let incremental = core.announced_filters(nb);
            let mut from_scratch = strategy.announcements(&core.router().filters_excluding(nb));
            from_scratch.sort_by_key(Filter::digest);
            if incremental != from_scratch {
                return Err(format!(
                    "broker {b} link {nb}: incremental {incremental:?} != \
                     from-scratch {from_scratch:?}"
                ));
            }
            // The peer must have recorded exactly this set for our link.
            let peer = world.node_as::<BrokerNode>(nb).expect("broker node").core();
            let mut recorded: Vec<Filter> = peer.router().neighbor_filters(node).cloned().collect();
            recorded.sort_by_key(Filter::digest);
            if incremental != recorded {
                return Err(format!(
                    "broker {b} link {nb}: peer recorded {recorded:?}, \
                     we announced {incremental:?}"
                ));
            }
        }
    }
    Ok(())
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    (proptest::option::of(0i64..3), proptest::option::of(0i64..3), proptest::option::of(0i64..2))
        .prop_map(|(a, b, c)| {
            let mut f = Filter::builder();
            if let Some(v) = a {
                f = f.eq("a", v);
            }
            if let Some(v) = b {
                f = f.ge("b", v);
            }
            if let Some(v) = c {
                f = f.one_of("c", [v, v + 1]);
            }
            f.build()
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..BROKERS, 0u32..3, 0u32..4, arb_filter()).prop_map(|(broker, client, sub, filter)| {
            Op::Subscribe { broker, client, sub, filter }
        }),
        (0..BROKERS, 0u32..3, 0u32..4, arb_filter()).prop_map(|(broker, client, sub, filter)| {
            Op::Subscribe { broker, client, sub, filter }
        }),
        (0..BROKERS, 0u32..3, 0u32..4).prop_map(|(broker, client, sub)| Op::Unsubscribe {
            broker,
            client,
            sub
        }),
        (0..BROKERS, 0u32..3).prop_map(|(broker, client)| Op::Detach { broker, client }),
    ]
}

fn run_churn(strategy: RoutingStrategy, ops: &[Op]) -> Result<(), String> {
    let mut world = build_world(strategy);
    for op in ops {
        let (broker, msg) = match op {
            Op::Subscribe { broker, client, sub, filter } => (
                *broker,
                Message::Subscribe {
                    subscription: Subscription::new(
                        // Distinct subscription id space per client.
                        SubscriptionId::new(client * 16 + sub),
                        ClientId::new(broker_client(*broker, *client)),
                        filter.clone(),
                    ),
                },
            ),
            Op::Unsubscribe { broker, client, sub } => (
                *broker,
                Message::Unsubscribe {
                    client: ClientId::new(broker_client(*broker, *client)),
                    id: SubscriptionId::new(client * 16 + sub),
                },
            ),
            Op::Detach { broker, client } => (
                *broker,
                Message::ClientDetach { client: ClientId::new(broker_client(*broker, *client)) },
            ),
        };
        world.send_external(NodeId::new(broker as u32), msg);
        let deadline = world.now() + SimDuration::from_secs(1);
        world.run_until(deadline);
        assert_equivalence(&world, strategy)?;
    }
    Ok(())
}

/// Client ids are partitioned per broker so a client never appears attached
/// at two brokers at once.
fn broker_client(broker: usize, client: u32) -> u32 {
    broker as u32 * 100 + client
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn incremental_equals_from_scratch(ops in proptest::collection::vec(arb_op(), 1..16)) {
        for strategy in RoutingStrategy::ALL {
            if let Err(e) = run_churn(strategy, &ops) {
                prop_assert!(false, "{strategy}: {e}");
            }
        }
    }
}

/// A deterministic worst-case shape: a broad filter arriving after many
/// narrow ones must retract them all in one delta (covering), and removing
/// it must re-announce them.
#[test]
fn broad_filter_collapses_and_restores() {
    let strategy = RoutingStrategy::Covering;
    let mut ops = Vec::new();
    for i in 0..6 {
        ops.push(Op::Subscribe {
            broker: 1,
            client: 0,
            sub: i,
            filter: Filter::builder().eq("a", 1i64).ge("b", i as i64).build(),
        });
    }
    // The broad filter covers all of the above.
    ops.push(Op::Subscribe {
        broker: 1,
        client: 1,
        sub: 0,
        filter: Filter::builder().eq("a", 1i64).build(),
    });
    // Removing the broad filter must restore the narrow announcements.
    ops.push(Op::Unsubscribe { broker: 1, client: 1, sub: 0 });
    // Detaching the narrow client must clear everything.
    ops.push(Op::Detach { broker: 1, client: 0 });
    run_churn(strategy, &ops).expect("equivalence holds");
}

/// In-place subscription replacement (same id, new filter) produces a
/// remove+add delta and stays equivalent.
#[test]
fn replacement_delta_stays_equivalent() {
    for strategy in RoutingStrategy::ALL {
        let ops = vec![
            Op::Subscribe {
                broker: 0,
                client: 0,
                sub: 0,
                filter: Filter::builder().eq("a", 1i64).build(),
            },
            Op::Subscribe {
                broker: 0,
                client: 0,
                sub: 0,
                filter: Filter::builder().eq("a", 2i64).build(),
            },
            Op::Subscribe {
                broker: 2,
                client: 0,
                sub: 1,
                filter: Filter::builder().eq("a", 2i64).build(),
            },
            Op::Unsubscribe { broker: 0, client: 0, sub: 0 },
        ];
        run_churn(strategy, &ops).expect("equivalence holds");
    }
}
