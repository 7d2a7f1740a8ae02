//! Shard-equivalence: a sharded broker is **bit-for-bit** the unsharded
//! broker.
//!
//! The property that makes digest-range sharding safe to deploy: for any
//! churn sequence (subscribe / unsubscribe / advertise / retract / detach /
//! publish), a 1-shard [`BrokerCore`] and an N-shard one produce
//!
//! * identical wire traffic after every mutation — the same `SubForward` /
//!   `UnsubForward` announcement deltas (lists flattened to one entry per
//!   filter) to the same neighbours, in the same order, and the same
//!   `Forward` fan-out for every publication;
//! * identical routing decisions for arbitrary probe notifications;
//! * identical local deliveries;
//! * identical maintained announced sets and table sizes.
//!
//! Checked after **every step**, under every routing strategy, over
//! proptest-generated churn.

use proptest::prelude::*;
use rebeca_broker::{BrokerCore, BrokerOp, Message, Outcome, RoutingStrategy};
use rebeca_core::{
    BrokerId, ClientId, Digest, Filter, Notification, SharedInterner, SimTime, Subscription,
    SubscriptionId,
};
use rebeca_net::{Ctx, NodeId, Topology};
use std::sync::Arc;

/// One churn step of the random schedule.
#[derive(Debug, Clone)]
enum Op {
    Attach(u32),
    Subscribe(u32, u32, Filter),
    Unsubscribe(u32, u32),
    Detach(u32),
    NeighborSub(bool, Filter),
    NeighborUnsub(bool, Filter),
    Publish(Notification),
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    (proptest::option::of(0i64..3), proptest::option::of(0i64..3), proptest::option::of(0i64..3))
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

fn arb_note() -> impl Strategy<Value = Notification> {
    (0i64..4, 0i64..4, 0i64..4).prop_map(|(a, b, c)| {
        Notification::builder().attr("a", a).attr("b", b).attr("c", c).publish(
            ClientId::new(77),
            0,
            SimTime::ZERO,
        )
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..4).prop_map(Op::Attach),
        (0u32..4, 0u32..6, arb_filter()).prop_map(|(c, s, f)| Op::Subscribe(c, s, f)),
        (0u32..4, 0u32..6).prop_map(|(c, s)| Op::Unsubscribe(c, s)),
        (0u32..4).prop_map(Op::Detach),
        (any::<bool>(), arb_filter()).prop_map(|(n, f)| Op::NeighborSub(n, f)),
        (any::<bool>(), arb_filter()).prop_map(|(n, f)| Op::NeighborUnsub(n, f)),
        arb_note().prop_map(Op::Publish),
    ]
}

/// The middle broker of a 3-broker line: neighbours at nodes 0 and 2,
/// clients behind nodes 10+.
fn core(strategy: RoutingStrategy, interner: Arc<SharedInterner>, shards: usize) -> BrokerCore {
    let topology = Arc::new(Topology::line(3).expect("valid line"));
    let broker_nodes: Arc<Vec<NodeId>> = Arc::new((0..3).map(NodeId::new).collect());
    BrokerCore::with_shards(BrokerId::new(1), topology, broker_nodes, strategy, interner, shards)
}

/// A comparable rendering of one emitted wire message. Unexpected variants
/// keep their discriminant, so two *different* unexpected messages never
/// compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Wire {
    Sub(NodeId, Digest),
    Unsub(NodeId, Digest),
    Forward(NodeId, u64),
    Deliver(NodeId, ClientId, u64),
    Other(NodeId, std::mem::Discriminant<Message>),
}

/// The wire log with announcement lists flattened, one entry per filter.
fn wire_log(ctx: &Ctx<'_, Message>) -> Vec<Wire> {
    let mut log = Vec::new();
    for (to, msg) in ctx.sent() {
        match msg {
            Message::SubForward { filters } => {
                log.extend(filters.iter().map(|f| Wire::Sub(to, f.digest())));
            }
            Message::UnsubForward { filters } => {
                log.extend(filters.iter().map(|f| Wire::Unsub(to, f.digest())));
            }
            Message::Forward { notification } => log.push(Wire::Forward(to, notification.seq())),
            Message::Deliver { client, notification } => {
                log.push(Wire::Deliver(to, *client, notification.seq()));
            }
            other => log.push(Wire::Other(to, std::mem::discriminant(other))),
        }
    }
    log
}

/// Applies one op to a core through a fresh standalone context, returning
/// the emitted wire messages and the local deliveries.
fn apply(c: &mut BrokerCore, op: &Op) -> (Vec<Wire>, Vec<(ClientId, NodeId)>) {
    let mut next_timer = 0u64;
    let link_up = |_: NodeId, _: NodeId| true;
    let mut ctx: Ctx<'_, Message> =
        Ctx::standalone(SimTime::ZERO, NodeId::new(1), &mut next_timer, &link_up);
    let mut out = Outcome::default();
    let client_node = |c: u32| NodeId::new(10 + c);
    let nb_node = |second: bool| if second { NodeId::new(2) } else { NodeId::new(0) };
    match op {
        Op::Attach(cl) => {
            let op = BrokerOp::ClientAttach { client: ClientId::new(*cl), node: client_node(*cl) };
            c.apply(&mut ctx, op);
        }
        Op::Subscribe(cl, s, f) => {
            let subscription =
                Subscription::new(SubscriptionId::new(*s), ClientId::new(*cl), f.clone());
            c.apply(&mut ctx, BrokerOp::Subscribe { node: client_node(*cl), subscription });
        }
        Op::Unsubscribe(cl, s) => {
            let op =
                BrokerOp::Unsubscribe { client: ClientId::new(*cl), id: SubscriptionId::new(*s) };
            c.apply(&mut ctx, op);
        }
        Op::Detach(cl) => c.apply(&mut ctx, BrokerOp::ClientDetach { client: ClientId::new(*cl) }),
        Op::NeighborSub(nb, f) => {
            let msg = Message::SubForward { filters: vec![f.clone()].into() };
            c.handle_into(&mut ctx, nb_node(*nb), msg, &mut out);
        }
        Op::NeighborUnsub(nb, f) => {
            let msg = Message::UnsubForward { filters: vec![f.clone()].into() };
            c.handle_into(&mut ctx, nb_node(*nb), msg, &mut out);
        }
        Op::Publish(n) => {
            // Arrives from neighbour node 0 (excluded from forwarding).
            c.route_notification_into(&mut ctx, NodeId::new(0), Arc::new(n.clone()), &mut out);
        }
    }
    let wires = wire_log(&ctx);
    let deliveries = out.deliveries.iter().map(|d| (d.client, d.node)).collect();
    (wires, deliveries)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Identical churn into a 1-shard and a 4-shard core produces identical
    /// wire traffic, deliveries, decisions and announced sets after every
    /// step, under every routing strategy.
    #[test]
    fn sharded_core_is_bit_for_bit_equivalent(
        ops in proptest::collection::vec(arb_op(), 1..40),
        probes in proptest::collection::vec(arb_note(), 1..4),
        strategy_pick in 0usize..RoutingStrategy::ALL.len(),
    ) {
        let strategy = RoutingStrategy::ALL[strategy_pick];
        let interner = Arc::new(SharedInterner::new());
        let mut single = core(strategy, Arc::clone(&interner), 1);
        let mut sharded = core(strategy, interner, 4);
        prop_assert_eq!(single.shard_count(), 1);
        prop_assert_eq!(sharded.shard_count(), 4);

        for (step, op) in ops.iter().enumerate() {
            let (wire_1, del_1) = apply(&mut single, op);
            let (wire_n, del_n) = apply(&mut sharded, op);
            // The announcement deltas (and forwards) must match message for
            // message, in emission order.
            prop_assert_eq!(&wire_1, &wire_n, "wire divergence at step {} ({:?})", step, op);
            prop_assert_eq!(&del_1, &del_n, "delivery divergence at step {} ({:?})", step, op);
            // Maintained announcement state agrees on both links.
            for nb in [NodeId::new(0), NodeId::new(2)] {
                prop_assert_eq!(
                    single.announced_filters(nb),
                    sharded.announced_filters(nb),
                    "announced set divergence at step {} towards {}", step, nb
                );
            }
            // Table sizes agree; the routing decision agrees on every probe.
            prop_assert_eq!(single.router().entry_count(), sharded.router().entry_count());
            for probe in &probes {
                prop_assert_eq!(
                    single.router().route(probe),
                    sharded.router().route(probe),
                    "decision divergence at step {} for {}", step, probe
                );
            }
        }
    }
}
