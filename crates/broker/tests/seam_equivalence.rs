//! Seam equivalence: a replicated broker is the plain broker, one commit
//! round later.
//!
//! [`BrokerNode`] and [`ReplicatedBrokerNode`] run the same
//! [`BrokerCore::classify`](rebeca_broker::BrokerCore::classify) and the
//! same staging and flushing of announcements; the only difference is
//! *when* a mutation is applied — on the spot, or once the replica group
//! has committed it. So for any script of client and neighbour traffic
//! (mutations optionally wrapped in a `Routed` envelope addressed to this
//! broker, neighbour announcements as lists of several filters), with the
//! group pumped to quiescence after every message, both nodes must emit
//!
//! * identical announcements (`SubForward` / `UnsubForward`, same
//!   neighbours, same lists, same order),
//! * identical forwards and deliveries,
//! * identical table sizes,
//!
//! after **every step**, under every routing strategy — and the group's
//! `ops_logged` must count exactly the ops the mutating messages carry.
//!
//! A script may also hold a *burst*: several mutations delivered before the
//! group is pumped, so they commit together. The plain broker applies them
//! one message at a time; the group applies them as one batch and sends
//! each link its net change. Both must end with the same announced sets,
//! and the group's flattened announcements must be exactly the symmetric
//! difference of the announced sets before and after the burst.

use proptest::prelude::*;
use rebeca_broker::replication::{MAX_BATCH_OPS, PREPARE_WINDOW};
use rebeca_broker::{
    BrokerCore, BrokerNode, Filters, Message, ReplicaMsg, ReplicaNode, ReplicatedBrokerNode,
    ReplicationMetrics, RoutingStrategy,
};
use rebeca_core::{
    BrokerId, ClientId, Digest, Filter, Notification, SimTime, Subscription, SubscriptionId,
};
use rebeca_net::{Ctx, Node, NodeId, Topology};
use std::collections::VecDeque;
use std::sync::Arc;

/// One step of the random script.
#[derive(Debug, Clone)]
enum Step {
    Attach(u32),
    Subscribe(u32, u32, Filter),
    Unsubscribe(u32, u32),
    Detach(u32),
    NeighborSub(bool, Vec<Filter>),
    NeighborUnsub(bool, Vec<Filter>),
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

fn arb_filters() -> impl Strategy<Value = Vec<Filter>> {
    proptest::collection::vec(arb_filter(), 1..4)
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

/// A mutating step plus whether it travels inside `Routed { to: me }`.
fn arb_mutation() -> impl Strategy<Value = (Step, bool)> {
    let step = prop_oneof![
        (0u32..4).prop_map(Step::Attach),
        (0u32..4, 0u32..6, arb_filter()).prop_map(|(c, s, f)| Step::Subscribe(c, s, f)),
        (0u32..4, 0u32..6).prop_map(|(c, s)| Step::Unsubscribe(c, s)),
        (0u32..4).prop_map(Step::Detach),
        (any::<bool>(), arb_filters()).prop_map(|(n, f)| Step::NeighborSub(n, f)),
        (any::<bool>(), arb_filters()).prop_map(|(n, f)| Step::NeighborUnsub(n, f)),
    ];
    (step, any::<bool>())
}

/// One script entry: a single step (a mutation or a publication), or, one
/// time in five, a burst of up to [`PREPARE_WINDOW`] mutations.
fn arb_entry() -> impl Strategy<Value = Vec<(Step, bool)>> {
    let single = prop_oneof![arb_mutation(), arb_note().prop_map(|n| (Step::Publish(n), false))];
    let burst = proptest::collection::vec(arb_mutation(), 2..PREPARE_WINDOW + 1);
    (single, burst, 0u32..5).prop_map(|(single, burst, pick)| match pick {
        0 => burst,
        _ => vec![single],
    })
}

const ME: NodeId = NodeId::new(1);
const BACKUPS: [NodeId; 2] = [NodeId::new(20), NodeId::new(21)];
const NEIGHBORS: [NodeId; 2] = [NodeId::new(0), NodeId::new(2)];

/// The `(from, message, ops)` a step puts on the wire towards the middle
/// broker of a 3-broker line (neighbours at nodes 0 and 2, clients behind
/// nodes 10+): `ops` is how many broker ops the message carries.
fn message_of(step: &Step, wrapped: bool) -> (NodeId, Message, u64) {
    let client_node = |c: u32| NodeId::new(10 + c);
    let nb_node = |second: bool| NEIGHBORS[usize::from(second)];
    let (from, msg, ops) = match step {
        Step::Attach(c) => {
            (client_node(*c), Message::ClientAttach { client: ClientId::new(*c) }, 1)
        }
        Step::Subscribe(c, s, f) => {
            let subscription =
                Subscription::new(SubscriptionId::new(*s), ClientId::new(*c), f.clone());
            (client_node(*c), Message::Subscribe { subscription }, 1)
        }
        Step::Unsubscribe(c, s) => (
            client_node(*c),
            Message::Unsubscribe { client: ClientId::new(*c), id: SubscriptionId::new(*s) },
            1,
        ),
        Step::Detach(c) => {
            (client_node(*c), Message::ClientDetach { client: ClientId::new(*c) }, 1)
        }
        Step::NeighborSub(nb, fs) => {
            (nb_node(*nb), Message::SubForward { filters: fs.clone().into() }, fs.len() as u64)
        }
        Step::NeighborUnsub(nb, fs) => {
            (nb_node(*nb), Message::UnsubForward { filters: fs.clone().into() }, fs.len() as u64)
        }
        Step::Publish(n) => {
            // Arrives from neighbour node 0 (excluded from forwarding).
            return (nb_node(false), Message::Publish { notification: Arc::new(n.clone()) }, 0);
        }
    };
    let msg = if wrapped { Message::routed(BrokerId::new(1), msg) } else { msg };
    (from, msg, ops)
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

/// The announcements in `sent`, flattened to one `(neighbour, digest,
/// announced?)` entry per filter, in emission order.
fn flat_announcements(sent: &Sent) -> Vec<(NodeId, Digest, bool)> {
    let mut flat = Vec::new();
    for (to, msg) in sent {
        let (filters, announce) = match msg {
            Message::SubForward { filters } => (filters, true),
            Message::UnsubForward { filters } => (filters, false),
            other => panic!("a burst of mutations sent {other:?} to {to}"),
        };
        flat.extend(filters.iter().map(|f| (*to, f.digest(), announce)));
    }
    flat
}

/// One replicated broker and its two log backups, pumped by hand.
struct Group {
    broker: ReplicatedBrokerNode,
    backups: [ReplicaNode; 2],
    metrics: Arc<ReplicationMetrics>,
}

impl Group {
    /// The group's members, not started yet.
    fn new(strategy: RoutingStrategy) -> Group {
        let metrics = Arc::new(ReplicationMetrics::default());
        let members = vec![ME, BACKUPS[0], BACKUPS[1]];
        Group {
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
        }
    }

    /// Starts every member and pumps the boot to quiescence; returns what
    /// left the group meanwhile.
    fn start(&mut self) -> Sent {
        let mut inflight: Vec<(NodeId, NodeId, Message)> = Vec::new();
        for me in [ME, BACKUPS[0], BACKUPS[1]] {
            let sent = invoke(self.member(me), me, |n, ctx| n.on_start(ctx));
            inflight.extend(sent.into_iter().map(|(to, m)| (me, to, m)));
        }
        self.pump(inflight)
    }

    fn boot(strategy: RoutingStrategy) -> Group {
        let mut g = Group::new(strategy);
        let outside = g.start();
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
        let mut queue: VecDeque<_> = inflight.into();
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

    /// Like [`Group::pump`], but the backups catch up first and the broker
    /// then hears only each backup's newest (cumulative) `PrepareOk` — so
    /// everything in flight commits in one step, as it does when acks
    /// queue behind a busy primary.
    fn pump_coalescing_acks(&mut self, inflight: Vec<(NodeId, NodeId, Message)>) -> Sent {
        let (mut to_backups, mut to_broker): (VecDeque<_>, Vec<_>) = (VecDeque::new(), Vec::new());
        for (from, to, msg) in inflight {
            if to == ME {
                to_broker.push((from, msg));
            } else {
                assert!(BACKUPS.contains(&to), "only replica traffic is in flight");
                to_backups.push_back((from, to, msg));
            }
        }
        while let Some((from, to, msg)) = to_backups.pop_front() {
            let sent = invoke(self.member(to), to, |n, ctx| n.on_message(ctx, from, msg));
            for (next, m) in sent {
                assert_eq!(next, ME, "backups answer the primary only");
                to_broker.push((to, m));
            }
        }
        let newest = |b: NodeId| {
            to_broker
                .iter()
                .rev()
                .find(|(from, m)| {
                    *from == b && matches!(m, Message::Replica(ReplicaMsg::PrepareOk { .. }))
                })
                .cloned()
        };
        let acks: Vec<_> = BACKUPS.iter().filter_map(|&b| newest(b)).collect();
        assert_eq!(acks.len(), 2, "both backups acknowledged: {to_broker:?}");
        self.pump(acks.into_iter().map(|(from, m)| (from, ME, m)).collect())
    }

    /// One message into the broker, then the commit round it may start.
    fn step(&mut self, from: NodeId, msg: Message) -> Sent {
        self.pump(vec![(from, ME, msg)])
    }

    /// Several messages into the broker before any commit round runs, then
    /// one commit round for all of them.
    fn burst(&mut self, msgs: Vec<(NodeId, Message)>) -> Sent {
        let mut inflight = Vec::new();
        for (from, msg) in msgs {
            let sent = invoke(&mut self.broker, ME, |n, ctx| n.on_message(ctx, from, msg));
            inflight.extend(sent.into_iter().map(|(to, m)| (ME, to, m)));
        }
        self.pump_coalescing_acks(inflight)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn replicated_broker_matches_the_plain_broker_step_for_step(
        script in proptest::collection::vec(arb_entry(), 1..40),
    ) {
        for strategy in RoutingStrategy::ALL {
            let mut plain = BrokerNode::new(core(strategy));
            let mut group = Group::boot(strategy);
            let mut ops = 0u64;

            for (i, entry) in script.iter().enumerate() {
                let msgs: Vec<(NodeId, Message, u64)> =
                    entry.iter().map(|(step, wrapped)| message_of(step, *wrapped)).collect();
                ops += msgs.iter().map(|(_, _, n)| n).sum::<u64>();

                if let [(from, msg, _)] = &msgs[..] {
                    let plain_wire =
                        invoke(&mut plain, ME, |n, ctx| n.on_message(ctx, *from, msg.clone()));
                    let group_wire = group.step(*from, msg.clone());
                    prop_assert_eq!(
                        &plain_wire, &group_wire,
                        "{:?}: wire divergence at step {} ({:?})", strategy, i, entry
                    );
                } else {
                    let before = NEIGHBORS.map(|nb| group.broker.core().announced_filters(nb));
                    for (from, msg, _) in &msgs {
                        invoke(&mut plain, ME, |n, ctx| n.on_message(ctx, *from, msg.clone()));
                    }
                    let burst = msgs.into_iter().map(|(from, msg, _)| (from, msg)).collect();
                    let mut got = flat_announcements(&group.burst(burst));
                    let mut want = Vec::new();
                    for (nb, before) in NEIGHBORS.into_iter().zip(before) {
                        let after = group.broker.core().announced_filters(nb);
                        prop_assert_eq!(
                            &after, &plain.core().announced_filters(nb),
                            "{:?}: announced sets diverge at burst {} ({:?})", strategy, i, entry
                        );
                        let entered = after.iter().filter(|f| !before.contains(f));
                        let left = before.iter().filter(|f| !after.contains(f));
                        want.extend(entered.map(|f| (nb, f.digest(), true)));
                        want.extend(left.map(|f| (nb, f.digest(), false)));
                    }
                    got.sort();
                    want.sort();
                    prop_assert_eq!(
                        got, want,
                        "{:?}: burst {} ({:?}) did not send the net change", strategy, i, entry
                    );
                }
                prop_assert_eq!(
                    plain.core().router().entry_count(),
                    group.broker.core().router().entry_count(),
                    "{:?}: table divergence at step {} ({:?})", strategy, i, entry
                );
            }

            let stats = group.metrics.snapshot();
            prop_assert_eq!(stats.ops_logged, ops, "one logged op per op a message carries");
            prop_assert_eq!(stats.ops_applied, ops, "each applied exactly once");
        }
    }
}

/// 300 subscriptions that reach a group before it has booted queue as one
/// backlog, commit together and reach each neighbour as at most
/// ⌈300 / 256⌉ `SubForward` lists, carrying every digest in commit order.
#[test]
fn a_committed_batch_reaches_each_neighbour_as_few_lists() {
    const N: u32 = 300;
    let mut group = Group::new(RoutingStrategy::Covering);
    let filters: Vec<Filter> =
        (0..N).map(|i| Filter::builder().eq("k", i64::from(i)).build()).collect();
    let client = ClientId::new(3);
    for (i, filter) in filters.iter().enumerate() {
        let subscription = Subscription::new(SubscriptionId::new(i as u32), client, filter.clone());
        let sent = group.step(NodeId::new(13), Message::Subscribe { subscription });
        assert!(sent.is_empty(), "nothing commits before the group has booted: {sent:?}");
    }
    assert_eq!(group.broker.replica().pending_len(), N as usize);

    let sent = group.start();
    let want: Vec<Digest> = filters.iter().map(Filter::digest).collect();
    for nb in NEIGHBORS {
        let lists: Vec<&Filters> = sent
            .iter()
            .filter(|(to, _)| *to == nb)
            .map(|(_, m)| match m {
                Message::SubForward { filters } => filters,
                other => panic!("only announcements leave the group: {other:?}"),
            })
            .collect();
        assert!(lists.len() <= (N as usize).div_ceil(MAX_BATCH_OPS), "{} lists", lists.len());
        let got: Vec<Digest> = lists.iter().flat_map(|l| l.iter()).map(Filter::digest).collect();
        assert_eq!(got, want, "every digest, in commit order, towards {nb}");
    }
    assert_eq!(group.broker.core().stats().control_sent, 2 * u64::from(N), "filters, not lists");
}
