//! Seam equivalence: a replicated broker is the plain broker, one commit
//! round later.
//!
//! [`BrokerNode`] and [`ReplicatedBrokerNode`] run the same
//! [`BrokerCore::classify`](rebeca_broker::BrokerCore::classify) and the
//! same [`BrokerCore::apply`](rebeca_broker::BrokerCore::apply); the only
//! difference is *when* a mutation is applied — on the spot, or once the
//! replica group has committed it. So for any script of client and
//! neighbour traffic (mutations optionally wrapped in a `Routed` envelope
//! addressed to this broker), with the group pumped to quiescence after
//! every message, both nodes must emit
//!
//! * identical announcements (`SubForward` / `UnsubForward`, same
//!   neighbours, same order),
//! * identical forwards and deliveries,
//! * identical table sizes,
//!
//! after **every step**, under every routing strategy — and the group's
//! `ops_logged` must count exactly the mutating messages.

use proptest::prelude::*;
use rebeca_broker::{
    BrokerCore, BrokerNode, Message, ReplicaNode, ReplicatedBrokerNode, ReplicationMetrics,
    RoutingStrategy,
};
use rebeca_core::{
    BrokerId, ClientId, Filter, Notification, SimTime, Subscription, SubscriptionId,
};
use rebeca_net::{Ctx, Node, NodeId, Topology};
use std::sync::Arc;

/// One step of the random script.
#[derive(Debug, Clone)]
enum Step {
    Attach(u32),
    Subscribe(u32, u32, Filter),
    Unsubscribe(u32, u32),
    Detach(u32),
    NeighborSub(bool, Filter),
    NeighborUnsub(bool, Filter),
    Publish(Notification),
}

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

fn arb_note() -> impl Strategy<Value = Notification> {
    (0i64..4, 0i64..4, 0u64..1000).prop_map(|(a, b, seq)| {
        Notification::builder().attr("a", a).attr("b", b).publish(
            ClientId::new(77),
            seq,
            SimTime::ZERO,
        )
    })
}

/// A step plus whether a mutation travels inside `Routed { to: me }`.
fn arb_step() -> impl Strategy<Value = (Step, bool)> {
    let step = prop_oneof![
        (0u32..4).prop_map(Step::Attach),
        (0u32..4, 0u32..6, arb_filter()).prop_map(|(c, s, f)| Step::Subscribe(c, s, f)),
        (0u32..4, 0u32..6).prop_map(|(c, s)| Step::Unsubscribe(c, s)),
        (0u32..4).prop_map(Step::Detach),
        (any::<bool>(), arb_filter()).prop_map(|(n, f)| Step::NeighborSub(n, f)),
        (any::<bool>(), arb_filter()).prop_map(|(n, f)| Step::NeighborUnsub(n, f)),
        arb_note().prop_map(Step::Publish),
    ];
    (step, any::<bool>())
}

const ME: NodeId = NodeId::new(1);
const BACKUPS: [NodeId; 2] = [NodeId::new(20), NodeId::new(21)];

/// The `(from, message, is_mutation)` a step puts on the wire towards the
/// middle broker of a 3-broker line (neighbours at nodes 0 and 2, clients
/// behind nodes 10+).
fn message_of(step: &Step, wrapped: bool) -> (NodeId, Message, bool) {
    let client_node = |c: u32| NodeId::new(10 + c);
    let nb_node = |second: bool| NodeId::new(if second { 2 } else { 0 });
    let (from, msg) = match step {
        Step::Attach(c) => (client_node(*c), Message::ClientAttach { client: ClientId::new(*c) }),
        Step::Subscribe(c, s, f) => {
            let subscription =
                Subscription::new(SubscriptionId::new(*s), ClientId::new(*c), f.clone());
            (client_node(*c), Message::Subscribe { subscription })
        }
        Step::Unsubscribe(c, s) => (
            client_node(*c),
            Message::Unsubscribe { client: ClientId::new(*c), id: SubscriptionId::new(*s) },
        ),
        Step::Detach(c) => (client_node(*c), Message::ClientDetach { client: ClientId::new(*c) }),
        Step::NeighborSub(nb, f) => (nb_node(*nb), Message::SubForward { filter: f.clone() }),
        Step::NeighborUnsub(nb, f) => (nb_node(*nb), Message::UnsubForward { filter: f.clone() }),
        Step::Publish(n) => {
            // Arrives from neighbour node 0 (excluded from forwarding).
            return (nb_node(false), Message::Publish { notification: Arc::new(n.clone()) }, false);
        }
    };
    let msg = if wrapped { Message::routed(BrokerId::new(1), msg) } else { msg };
    (from, msg, true)
}

fn core(strategy: RoutingStrategy) -> BrokerCore {
    let topology = Arc::new(Topology::line(3).expect("valid line"));
    let broker_nodes: Arc<Vec<NodeId>> = Arc::new((0..3).map(NodeId::new).collect());
    BrokerCore::new(BrokerId::new(1), topology, broker_nodes, strategy)
}

/// What a node sent, in emission order.
type Sent = Vec<(NodeId, Message)>;

/// Runs one handler of `node` (living at `me`) in a standalone context and
/// returns what it sent.
fn invoke(
    node: &mut dyn Node<Message>,
    me: NodeId,
    f: impl FnOnce(&mut dyn Node<Message>, &mut Ctx<'_, Message>),
) -> Sent {
    let mut next_timer = 0u64;
    let link_up = |_: NodeId, _: NodeId| true;
    let mut ctx = Ctx::standalone(SimTime::ZERO, me, &mut next_timer, &link_up);
    f(node, &mut ctx);
    ctx.sent().map(|(to, m)| (to, m.clone())).collect()
}

/// One replicated broker and its two log backups, pumped by hand.
struct Group {
    broker: ReplicatedBrokerNode,
    backups: [ReplicaNode; 2],
    metrics: Arc<ReplicationMetrics>,
}

impl Group {
    fn boot(strategy: RoutingStrategy) -> Group {
        let metrics = Arc::new(ReplicationMetrics::default());
        let members = vec![ME, BACKUPS[0], BACKUPS[1]];
        let mut g = Group {
            broker: ReplicatedBrokerNode::new(
                core(strategy),
                members.clone(),
                Arc::clone(&metrics),
            ),
            backups: [
                ReplicaNode::new(members.clone(), 1, Arc::clone(&metrics)),
                ReplicaNode::new(members, 2, Arc::clone(&metrics)),
            ],
            metrics,
        };
        let mut inflight: Vec<(NodeId, NodeId, Message)> = Vec::new();
        for me in [ME, BACKUPS[0], BACKUPS[1]] {
            let sent = invoke(g.member(me), me, |n, ctx| n.on_start(ctx));
            inflight.extend(sent.into_iter().map(|(to, m)| (me, to, m)));
        }
        let outside = g.pump(inflight);
        assert!(outside.is_empty(), "booting a group announces nothing: {outside:?}");
        g
    }

    fn member(&mut self, node: NodeId) -> &mut dyn Node<Message> {
        match BACKUPS.iter().position(|b| *b == node) {
            Some(i) => &mut self.backups[i],
            None => &mut self.broker,
        }
    }

    /// Delivers group-internal traffic (FIFO) until the group is quiet;
    /// returns, in emission order, everything addressed outside it.
    fn pump(&mut self, inflight: Vec<(NodeId, NodeId, Message)>) -> Sent {
        let mut queue: std::collections::VecDeque<_> = inflight.into();
        let mut outside = Vec::new();
        while let Some((from, to, msg)) = queue.pop_front() {
            if to != ME && !BACKUPS.contains(&to) {
                outside.push((to, msg));
                continue;
            }
            let sent = invoke(self.member(to), to, |n, ctx| n.on_message(ctx, from, msg));
            queue.extend(sent.into_iter().map(|(next, m)| (to, next, m)));
        }
        outside
    }

    /// One message into the broker, then the commit round it may start.
    fn step(&mut self, from: NodeId, msg: Message) -> Sent {
        self.pump(vec![(from, ME, msg)])
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn replicated_broker_matches_the_plain_broker_step_for_step(
        script in proptest::collection::vec(arb_step(), 1..40),
    ) {
        for strategy in RoutingStrategy::ALL {
            let mut plain = BrokerNode::new(core(strategy));
            let mut group = Group::boot(strategy);
            let mut mutations = 0u64;

            for (i, (step, wrapped)) in script.iter().enumerate() {
                let (from, msg, is_mutation) = message_of(step, *wrapped);
                mutations += u64::from(is_mutation);

                let plain_wire =
                    invoke(&mut plain, ME, |n, ctx| n.on_message(ctx, from, msg.clone()));
                let group_wire = group.step(from, msg);

                prop_assert_eq!(
                    &plain_wire, &group_wire,
                    "{:?}: wire divergence at step {} ({:?}, wrapped: {})",
                    strategy, i, step, wrapped
                );
                prop_assert_eq!(
                    plain.core().router().entry_count(),
                    group.broker.core().router().entry_count(),
                    "{:?}: table divergence at step {} ({:?})", strategy, i, step
                );
            }

            let stats = group.metrics.snapshot();
            prop_assert_eq!(stats.ops_logged, mutations, "one logged op per mutating message");
            prop_assert_eq!(stats.ops_applied, mutations, "each applied exactly once");
        }
    }
}
