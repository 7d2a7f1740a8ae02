//! Routing by destination decides what routing by filter decided.
//!
//! The table asks its index for matching *destinations* and stops looking
//! at a client's or a link's entries once one of them matched. This suite
//! drives the shape that shortcut exists for — **few destinations, many
//! filters each** — through every way a destination number is born, moved,
//! shared and recycled (attach, re-attach behind another node, subscribe,
//! replace with a different filter, unsubscribe, detach and a different
//! client taking the number over, neighbour announce and retract), and
//! after **every step** compares `route_into` with the decision worked
//! out from `clients()` / `neighbor_filters()` by plain [`Filter::matches`]
//! — no index, no destination numbers, no marks. One scratch and one
//! table live through the whole script.

use proptest::prelude::*;
use rebeca_broker::{RouteScratch, RoutingTable};
use rebeca_core::{ClientId, Filter, Notification, SimTime, SubscriptionId};
use rebeca_net::NodeId;

const LINKS: [NodeId; 3] = [NodeId::new(0), NodeId::new(1), NodeId::new(2)];

#[derive(Debug, Clone)]
enum Op {
    /// Attach (or re-attach) a client behind node `20 + node`.
    Attach {
        client: u32,
        node: u32,
    },
    Subscribe {
        client: u32,
        sub: u32,
        filter: Filter,
    },
    /// Subscriptions `0..filters.len()` at once: the many-filters shape.
    SubscribeAll {
        client: u32,
        filters: Vec<Filter>,
    },
    Unsubscribe {
        client: u32,
        sub: u32,
    },
    Detach {
        client: u32,
    },
    Announce {
        link: usize,
        filters: Vec<Filter>,
    },
    Retract {
        link: usize,
        filter: Filter,
    },
}

/// One to three constraints over three attributes and four values, so
/// filters repeat (retractions hit, replacements sometimes keep their
/// digest); one filter in twelve is the universal one, and some can never
/// match because their marker was not resolved.
fn arb_filter() -> impl Strategy<Value = Filter> {
    let constraint = (0usize..3, 0u32..5, 0i64..4);
    (proptest::collection::vec(constraint, 1..4), 0u32..12).prop_map(|(constraints, roll)| {
        let mut f = Filter::builder();
        if roll == 0 {
            return f.build();
        }
        for (attr, kind, v) in constraints {
            let attr = ["a", "b", "c"][attr];
            f = match kind {
                0 => f.eq(attr, v),
                1 => f.ge(attr, v),
                2 => f.one_of(attr, [v, v + 1]),
                3 => f.lt(attr, v),
                _ => f.myloc(attr),
            };
        }
        f.build()
    })
}

fn arb_note() -> impl Strategy<Value = Notification> {
    (proptest::option::of(0i64..5), proptest::option::of(0i64..5), proptest::option::of(0i64..5))
        .prop_map(|(a, b, c)| {
            let mut n = Notification::builder();
            for (attr, v) in [("a", a), ("b", b), ("c", c)] {
                if let Some(v) = v {
                    n = n.attr(attr, v);
                }
            }
            n.publish(ClientId::new(77), 0, SimTime::ZERO)
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    let many = || proptest::collection::vec(arb_filter(), 1..64);
    prop_oneof![
        (0u32..4, 0u32..3).prop_map(|(client, node)| Op::Attach { client, node }),
        (0u32..4, 0u32..64, arb_filter()).prop_map(|(client, sub, filter)| Op::Subscribe {
            client,
            sub,
            filter
        }),
        (0u32..4, 0u32..8, arb_filter()).prop_map(|(client, sub, filter)| Op::Subscribe {
            client,
            sub,
            filter
        }),
        (0u32..4, many()).prop_map(|(client, filters)| Op::SubscribeAll { client, filters }),
        (0u32..4, 0u32..8).prop_map(|(client, sub)| Op::Unsubscribe { client, sub }),
        (0u32..4).prop_map(|client| Op::Detach { client }),
        (0usize..3, many()).prop_map(|(link, filters)| Op::Announce { link, filters }),
        (0usize..3, arb_filter()).prop_map(|(link, filter)| Op::Retract { link, filter }),
        (0usize..3, arb_filter()).prop_map(|(link, filter)| Op::Retract { link, filter }),
    ]
}

fn apply(table: &mut RoutingTable, op: &Op) {
    match op {
        Op::Attach { client, node } => {
            table.attach_client(ClientId::new(*client), NodeId::new(20 + node))
        }
        Op::Subscribe { client, sub, filter } => {
            table.subscribe_client(
                ClientId::new(*client),
                SubscriptionId::new(*sub),
                filter.clone(),
            );
        }
        Op::SubscribeAll { client, filters } => {
            for (sub, filter) in filters.iter().enumerate() {
                table.subscribe_client(
                    ClientId::new(*client),
                    SubscriptionId::new(sub as u32),
                    filter.clone(),
                );
            }
        }
        Op::Unsubscribe { client, sub } => {
            table.unsubscribe_client(ClientId::new(*client), SubscriptionId::new(*sub));
        }
        Op::Detach { client } => {
            table.detach_client(ClientId::new(*client));
        }
        Op::Announce { link, filters } => {
            for filter in filters {
                table.neighbor_subscribe(LINKS[*link], filter.clone());
            }
        }
        Op::Retract { link, filter } => {
            table.neighbor_unsubscribe(LINKS[*link], filter.digest());
        }
    }
}

/// The decision, from the table's own filter lists and nothing else:
/// each matching client and link once, sorted.
fn reference(table: &RoutingTable, n: &Notification) -> (Vec<(ClientId, NodeId)>, Vec<NodeId>) {
    let mut clients: Vec<(ClientId, NodeId)> = table
        .clients()
        .filter(|(_, entry)| entry.subs.values().any(|f| f.matches(n)))
        .map(|(client, entry)| (*client, entry.node))
        .collect();
    clients.sort_unstable();
    let neighbors = LINKS
        .into_iter()
        .filter(|link| table.neighbor_filters(*link).any(|f| f.matches(n)))
        .collect();
    (clients, neighbors)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, .. ProptestConfig::default() })]

    #[test]
    fn decision_equals_reference_after_every_step(
        ops in proptest::collection::vec(arb_op(), 1..48),
        probes in proptest::collection::vec(arb_note(), 1..5),
    ) {
        let mut table = RoutingTable::new();
        let mut scratch = RouteScratch::new();
        for (step, op) in ops.iter().enumerate() {
            apply(&mut table, op);
            for probe in &probes {
                table.route_into(probe, &mut scratch);
                let (clients, neighbors) = reference(&table, probe);
                prop_assert_eq!(&scratch.clients, &clients, "clients, step {}, {}", step, probe);
                prop_assert_eq!(&scratch.neighbors, &neighbors, "links, step {}, {}", step, probe);
                prop_assert!(scratch.verified <= table.entry_count() as u64);
            }
        }
    }
}
