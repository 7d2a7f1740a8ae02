//! The checkpoint's soundness argument, as a test.
//!
//! An [`OpLog`](rebeca_broker::OpLog) replaces a committed op prefix by its
//! fold, a [`LiveState`], and ships the fold as a checkpoint: adds only, in
//! key order. That is sound only if a broker cannot tell the difference —
//! so, for random histories that exercise every way ops interact
//! (duplicate `Subscribe` ids, `ClientDetach` with live subscriptions,
//! `Subscribe` before `ClientAttach`, retractions of unknown keys,
//! interleaved link markers) and under every routing strategy:
//!
//! * for **every cut point** `c`, a fresh core fed `checkpoint(log[..c])`
//!   and then `log[c..]` ends with the same routing-table entries and the
//!   same announcements towards each neighbour as one fed `log`;
//! * two different histories with the same final state have `==`
//!   checkpoints;
//! * `diff(a, b)`, applied to a core in state `a`, leaves it in state `b`
//!   — which is what a broker does when it adopts a checkpoint past its
//!   own.

use proptest::prelude::*;
use rebeca_broker::{BrokerCore, BrokerOp, LiveState, Message, RoutingStrategy};
use rebeca_core::{BrokerId, ClientId, Digest, Filter, SimTime, Subscription, SubscriptionId};
use rebeca_net::{Ctx, NodeId, Topology};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The middle broker of a 3-line announces towards nodes 0 and 2; node 5
/// is a link it knows nothing about.
const NEIGHBORS: [NodeId; 2] = [NodeId::new(0), NodeId::new(2)];
const LINKS: [u32; 3] = [0, 2, 5];

/// Few values and two shapes, so filters repeat and cover each other.
fn arb_filter() -> impl Strategy<Value = Filter> {
    (proptest::option::of(0i64..3), proptest::option::of(0i64..3)).prop_map(|(a, b)| {
        let mut f = Filter::builder();
        if let Some(v) = a {
            f = f.eq("a", v);
        }
        if let Some(v) = b {
            f = f.ge("b", v);
        }
        f.build()
    })
}

/// Three clients that move between two nodes, four subscription ids.
fn arb_op() -> impl Strategy<Value = BrokerOp> {
    let link = || (0usize..LINKS.len()).prop_map(|i| NodeId::new(LINKS[i]));
    prop_oneof![
        (0u32..3, 10u32..12).prop_map(|(c, n)| BrokerOp::ClientAttach {
            client: ClientId::new(c),
            node: NodeId::new(n),
        }),
        (0u32..3).prop_map(|c| BrokerOp::ClientDetach { client: ClientId::new(c) }),
        (0u32..3, 0u32..4, 10u32..12, arb_filter()).prop_map(|(c, id, n, filter)| {
            let subscription = Subscription::new(SubscriptionId::new(id), ClientId::new(c), filter);
            BrokerOp::Subscribe { node: NodeId::new(n), subscription }
        }),
        (0u32..3, 0u32..4).prop_map(|(c, id)| BrokerOp::Unsubscribe {
            client: ClientId::new(c),
            id: SubscriptionId::new(id),
        }),
        (link(), arb_filter())
            .prop_map(|(node, filter)| BrokerOp::NeighborSubscribe { node, filter }),
        (link(), arb_filter())
            .prop_map(|(node, filter)| BrokerOp::NeighborUnsubscribe { node, filter }),
        link().prop_map(|node| BrokerOp::LinkUp { node }),
        link().prop_map(|node| BrokerOp::LinkDown { node }),
    ]
}

fn arb_history() -> impl Strategy<Value = Vec<BrokerOp>> {
    proptest::collection::vec(arb_op(), 0..28)
}

fn fold(ops: &[BrokerOp]) -> LiveState {
    let mut live = LiveState::default();
    ops.iter().for_each(|op| live.fold(op));
    live
}

/// A fresh middle broker with `ops` applied.
fn core_after<'a>(
    strategy: RoutingStrategy,
    ops: impl IntoIterator<Item = &'a BrokerOp>,
) -> BrokerCore {
    let topology = Arc::new(Topology::line(3).expect("valid line"));
    let broker_nodes: Arc<Vec<NodeId>> = Arc::new((0..3).map(NodeId::new).collect());
    let mut core = BrokerCore::new(BrokerId::new(1), topology, broker_nodes, strategy);
    let mut next_timer = 0u64;
    let link_up = |_: NodeId, _: NodeId| true;
    let mut ctx: Ctx<'_, Message> =
        Ctx::standalone(SimTime::ZERO, NodeId::new(1), &mut next_timer, &link_up);
    for op in ops {
        core.apply(&mut ctx, op.clone());
    }
    core
}

/// Everything the routing state holds, entry for entry, plus what is
/// announced towards each neighbour.
#[derive(Debug, PartialEq)]
struct Observed {
    clients: BTreeMap<ClientId, (NodeId, BTreeMap<SubscriptionId, Filter>)>,
    neighbor_filters: BTreeMap<(NodeId, Digest), Filter>,
    announced: Vec<Vec<Filter>>,
}

fn observe(core: &BrokerCore) -> Observed {
    let table = &core.router().shards()[0];
    let clients = table
        .clients()
        .map(|(c, e)| (*c, (e.node, e.subs.iter().map(|(id, f)| (*id, f.clone())).collect())))
        .collect();
    let neighbor_filters = LINKS
        .iter()
        .flat_map(|&n| {
            let node = NodeId::new(n);
            table.neighbor_filters(node).map(move |f| ((node, f.digest()), f.clone()))
        })
        .collect();
    let announced = NEIGHBORS.iter().map(|&nb| core.announced_filters(nb)).collect();
    Observed { clients, neighbor_filters, announced }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn checkpointed_replay_is_equivalent(log in arb_history()) {
        for strategy in RoutingStrategy::ALL {
            let want = observe(&core_after(strategy, &log));
            for cut in 0..=log.len() {
                let checkpoint = fold(&log[..cut]).checkpoint();
                let got = observe(&core_after(strategy, checkpoint.iter().chain(&log[cut..])));
                prop_assert_eq!(&got, &want, "{:?}, cut at {} of {:?}", strategy, cut, log);
            }
        }
    }

    #[test]
    fn equal_final_states_yield_equal_checkpoints(a in arb_history(), b in arb_history()) {
        // Two histories that end in b's state: b itself, and a followed by
        // whatever takes a's state there.
        let (state_a, state_b) = (fold(&a), fold(&b));
        let mut detour = a.clone();
        detour.extend(state_a.diff(&state_b));
        let arrived = fold(&detour);
        prop_assert_eq!(&arrived, &state_b);
        prop_assert_eq!(arrived.checkpoint(), state_b.checkpoint());
        // Adds only, and folding them back is the identity.
        let checkpoint = state_b.checkpoint();
        prop_assert!(checkpoint.iter().all(|op| matches!(
            op,
            BrokerOp::ClientAttach { .. }
                | BrokerOp::Subscribe { .. }
                | BrokerOp::NeighborSubscribe { .. }
        )));
        prop_assert_eq!(checkpoint.len(), state_b.len());
        prop_assert_eq!(fold(&checkpoint), state_b);
    }

    #[test]
    fn diff_takes_a_core_from_one_state_to_the_other(a in arb_history(), b in arb_history()) {
        let repair = fold(&a).diff(&fold(&b));
        for strategy in RoutingStrategy::ALL {
            let repaired = observe(&core_after(strategy, a.iter().chain(&repair)));
            let want = observe(&core_after(strategy, &b));
            prop_assert_eq!(&repaired, &want, "{:?}: {:?} then {:?}", strategy, a, repair);
        }
    }
}
