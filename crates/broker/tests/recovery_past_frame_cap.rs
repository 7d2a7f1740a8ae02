//! Crash recovery after more history than one frame can hold.
//!
//! While a replica group shipped its whole op history in `DoViewChange` /
//! `StartView` / `RecoveryResponse`, a long-lived group's recovery message
//! eventually outgrew the wire's 16 MiB [`MAX_FRAME`] — and crash recovery,
//! the layer's purpose, stopped working. With checkpoint + tail the state
//! messages follow the *live table*. This test churns a hand-pumped group
//! of three (a [`ReplicatedBrokerNode`] and two [`ReplicaNode`]s, fat
//! filters so a debug build gets there in seconds) until the history would
//! have encoded to more than `MAX_FRAME`, then
//!
//! * **(a)** downs the primary: the backups' view change completes, and
//!   the `StartView` it ships is far below the frame cap;
//! * **(b)** boots a fresh broker in its place: it recovers, and its
//!   routing table equals the pre-crash table entry for entry,
//!   announcements included. The repair re-announces more than
//!   [`MAX_BATCH_OPS`] filters at once (the client also holds [`THIN`]
//!   small subscriptions), and they leave as lists of at most
//!   [`MAX_BATCH_OPS`] filters, every frame far below the cap;
//!
//! and the encoded state messages are a function of the live filter count:
//! byte for byte the same size when the churn runs twice as long.
//!
//! Replay a failure with `REBECA_RECOVERY_SEED=<seed>`.

use rebeca_broker::codec::{encode_broker_op, encode_message};
use rebeca_broker::replication::MAX_BATCH_OPS;
use rebeca_broker::{
    BrokerCore, BrokerOp, Message, ReplicaMsg, ReplicaNode, ReplicaStatus, ReplicatedBrokerNode,
    ReplicationMetrics, RoutingStrategy,
};
use rebeca_core::{BrokerId, ClientId, Digest, Filter, SimTime, Subscription, SubscriptionId};
use rebeca_net::{Ctx, Node, NodeId, Topology, MAX_FRAME};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The middle broker of a 3-line (neighbours at nodes 0 and 2).
const ME: NodeId = NodeId::new(1);
const BACKUPS: [NodeId; 2] = [NodeId::new(20), NodeId::new(21)];
const CLIENT: ClientId = ClientId::new(7);
const CLIENT_NODE: NodeId = NodeId::new(10);
const UPSTREAM: NodeId = NodeId::new(0);
/// Live client subscriptions, and as many live upstream announcements.
const SLOTS: u32 = 6;
/// Small client subscriptions held beside the churned ones, so a repair
/// re-announces more filters than one list carries.
const THIN: u32 = 300;
/// Subscription ids of the thin filters start here, above every churn id.
const THIN_IDS: u32 = 1 << 30;

/// SplitMix64: the seed is the whole input.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Eight constraints on kilobyte strings: about 8.5 KiB on the wire, the
/// same for every draw — only the content differs.
fn fat_filter(rng: &mut Rng) -> Filter {
    let mut f = Filter::builder();
    for c in 0..8 {
        let word = format!("{:016x}", rng.next());
        f = f.eq(format!("attribute-{c:02}-of-a-fat-filter"), word.repeat(64));
    }
    f.build()
}

fn core() -> BrokerCore {
    let topology = Arc::new(Topology::line(3).expect("valid line"));
    let broker_nodes: Arc<Vec<NodeId>> = Arc::new((0..3).map(NodeId::new).collect());
    BrokerCore::new(BrokerId::new(1), topology, broker_nodes, RoutingStrategy::Covering)
}

type Sent = Vec<(NodeId, Message)>;

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

/// The group; `broker` is `None` while its process is down.
struct Group {
    broker: Option<ReplicatedBrokerNode>,
    backups: [ReplicaNode; 2],
    metrics: Arc<ReplicationMetrics>,
    /// Encoded size of every state message delivered, by kind.
    start_views: Vec<usize>,
    recovery_responses: Vec<usize>,
    /// `(filters, encoded bytes)` of every announcement list sent to a
    /// neighbour.
    announcements: Vec<(usize, usize)>,
}

impl Group {
    fn members() -> Vec<NodeId> {
        vec![ME, BACKUPS[0], BACKUPS[1]]
    }

    fn new_broker(&self) -> ReplicatedBrokerNode {
        ReplicatedBrokerNode::new(core(), Group::members(), Arc::clone(&self.metrics))
    }

    fn boot() -> Group {
        let metrics = Arc::new(ReplicationMetrics::default());
        let mut g = Group {
            broker: None,
            backups: [
                ReplicaNode::new(Group::members(), 1, Arc::clone(&metrics)),
                ReplicaNode::new(Group::members(), 2, Arc::clone(&metrics)),
            ],
            metrics,
            start_views: Vec::new(),
            recovery_responses: Vec::new(),
            announcements: Vec::new(),
        };
        g.broker = Some(g.new_broker());
        g.start(&Group::members());
        g
    }

    fn member(&mut self, node: NodeId) -> Option<&mut dyn Node<Message>> {
        match BACKUPS.iter().position(|b| *b == node) {
            Some(i) => Some(&mut self.backups[i]),
            None if node == ME => self.broker.as_mut().map(|b| b as &mut dyn Node<Message>),
            None => None,
        }
    }

    fn start(&mut self, nodes: &[NodeId]) {
        let mut inflight = Vec::new();
        for &me in nodes {
            let sent = invoke(self.member(me).expect("member is up"), me, |n, ctx| n.on_start(ctx));
            inflight.extend(sent.into_iter().map(|(to, m)| (me, to, m)));
        }
        self.pump(inflight);
    }

    /// Delivers group-internal traffic (FIFO) until the group is quiet.
    /// What leaves the group (announcements to the neighbours) is measured
    /// and dropped; what is addressed to a downed member is dropped.
    fn pump(&mut self, inflight: Vec<(NodeId, NodeId, Message)>) {
        let mut queue: VecDeque<_> = inflight.into();
        let mut scratch = Vec::new();
        while let Some((from, to, msg)) = queue.pop_front() {
            let sizes = match &msg {
                Message::Replica(ReplicaMsg::StartView { .. }) => Some(&mut self.start_views),
                Message::Replica(ReplicaMsg::RecoveryResponse { normal: true, .. }) => {
                    Some(&mut self.recovery_responses)
                }
                _ => None,
            };
            if let Some(sizes) = sizes {
                scratch.clear();
                encode_message(&msg, &mut scratch);
                sizes.push(scratch.len());
            }
            if let Message::SubForward { filters } | Message::UnsubForward { filters } = &msg {
                scratch.clear();
                encode_message(&msg, &mut scratch);
                self.announcements.push((filters.len(), scratch.len()));
            }
            let Some(node) = self.member(to) else { continue };
            let sent = invoke(node, to, |n, ctx| n.on_message(ctx, from, msg));
            queue.extend(sent.into_iter().map(|(next, m)| (to, next, m)));
        }
    }

    fn mutate(&mut self, from: NodeId, msg: Message) {
        self.pump(vec![(from, ME, msg)]);
    }
}

/// Everything the routing state holds, entry for entry, plus what it
/// announces to each neighbour.
#[derive(Debug, PartialEq)]
struct Table {
    client_node: Option<NodeId>,
    subs: BTreeMap<SubscriptionId, Filter>,
    upstream: BTreeMap<Digest, Filter>,
    announced: [Vec<Filter>; 2],
    entries: usize,
}

fn table_of(core: &BrokerCore) -> Table {
    let shard = &core.router().shards()[0];
    let client = shard.client(CLIENT);
    Table {
        client_node: client.map(|e| e.node),
        subs: client.map(|e| e.subs.clone().into_iter().collect()).unwrap_or_default(),
        upstream: shard.neighbor_filters(UPSTREAM).map(|f| (f.digest(), f.clone())).collect(),
        announced: [core.announced_filters(NodeId::new(0)), core.announced_filters(NodeId::new(2))],
        entries: core.router().entry_count(),
    }
}

#[derive(Debug, PartialEq)]
struct Sizes {
    start_view: usize,
    recovery_response: usize,
}

/// Churns for `cycles` re-subscriptions, kills the primary, boots a fresh
/// one. Returns the history's encoded size and the state messages' sizes.
fn churn_crash_recover(seed: u64, cycles: u32) -> (usize, Sizes) {
    let mut rng = Rng(seed);
    let mut g = Group::boot();
    let mut history_bytes = 0usize;
    let mut scratch = Vec::new();
    let mut log = |op: BrokerOp| {
        scratch.clear();
        encode_broker_op(&op, &mut scratch);
        history_bytes += scratch.len();
    };

    g.mutate(CLIENT_NODE, Message::ClientAttach { client: CLIENT });
    log(BrokerOp::ClientAttach { client: CLIENT, node: CLIENT_NODE });
    // Each cycle moves one client subscription (new id, new filter, the
    // slot's old one revoked) and one upstream announcement.
    let mut announced: Vec<Option<Filter>> = vec![None; SLOTS as usize];
    for cycle in 0..cycles {
        let slot = (cycle % SLOTS) as usize;
        let subscription =
            Subscription::new(SubscriptionId::new(cycle), CLIENT, fat_filter(&mut rng));
        log(BrokerOp::Subscribe { node: CLIENT_NODE, subscription: subscription.clone() });
        g.mutate(CLIENT_NODE, Message::Subscribe { subscription });
        if let Some(old) = cycle.checked_sub(SLOTS) {
            let id = SubscriptionId::new(old);
            log(BrokerOp::Unsubscribe { client: CLIENT, id });
            g.mutate(CLIENT_NODE, Message::Unsubscribe { client: CLIENT, id });
        }
        let filter = fat_filter(&mut rng);
        log(BrokerOp::NeighborSubscribe { node: UPSTREAM, filter: filter.clone() });
        g.mutate(UPSTREAM, Message::SubForward { filters: vec![filter.clone()].into() });
        if let Some(old) = announced[slot].replace(filter) {
            log(BrokerOp::NeighborUnsubscribe { node: UPSTREAM, filter: old.clone() });
            g.mutate(UPSTREAM, Message::UnsubForward { filters: vec![old].into() });
        }
    }

    for i in 0..THIN {
        let filter = Filter::builder().eq("thin", i64::from(i)).build();
        let subscription = Subscription::new(SubscriptionId::new(THIN_IDS + i), CLIENT, filter);
        log(BrokerOp::Subscribe { node: CLIENT_NODE, subscription: subscription.clone() });
        g.mutate(CLIENT_NODE, Message::Subscribe { subscription });
    }

    let before = table_of(g.broker.as_ref().expect("still up").core());
    assert_eq!(before.subs.len(), (SLOTS + THIN) as usize);
    assert_eq!(before.upstream.len(), SLOTS as usize);
    let logged = g.metrics.snapshot().ops_logged;
    for b in &g.backups {
        let r = b.replica();
        assert_eq!((r.op_number(), r.commit_number(), r.log().base()), (logged, logged, logged));
        let live = 1 + (2 * SLOTS + THIN) as usize;
        assert_eq!(r.log().resident(), live, "a client and the live filters");
    }

    // (a) The primary's process dies; the supervisor tells the backups.
    g.broker = None;
    let mut inflight = Vec::new();
    for me in BACKUPS {
        let sent = invoke(g.member(me).expect("backup"), me, |n, ctx| {
            n.on_peer_change(ctx, ME, false);
        });
        inflight.extend(sent.into_iter().map(|(to, m)| (me, to, m)));
    }
    g.pump(inflight);
    for b in &g.backups {
        assert_eq!(b.replica().status(), ReplicaStatus::Normal, "the view change completes");
        assert_eq!(b.replica().view(), 1);
        assert_eq!(b.replica().commit_number(), logged);
    }
    assert!(g.backups[0].replica().is_primary());

    // (b) A fresh broker process takes its place and recovers.
    g.broker = Some(g.new_broker());
    g.announcements.clear();
    g.start(&[ME]);
    // Its repair re-announces the whole table: every client filter to
    // both neighbours, the upstream ones downstream.
    let repaired: usize = g.announcements.iter().map(|(n, _)| n).sum();
    assert_eq!(repaired, 2 * (SLOTS + THIN) as usize + SLOTS as usize);
    for &(filters, bytes) in &g.announcements {
        assert!(filters <= MAX_BATCH_OPS, "a list of {filters} filters");
        assert!(bytes < MAX_FRAME / 8, "an announcement frame of {bytes} B");
    }
    let reborn = g.broker.as_ref().expect("rebooted");
    assert_eq!(reborn.replica().status(), ReplicaStatus::Normal);
    assert_eq!(reborn.replica().view(), 1);
    assert_eq!(reborn.replica().commit_number(), logged);
    assert_eq!(table_of(reborn.core()), before, "the recovered table, entry for entry");
    assert_eq!(g.metrics.snapshot().recoveries, 1);

    // It works on: one more mutation commits through the new view.
    let id = SubscriptionId::new(cycles);
    let subscription = Subscription::new(id, CLIENT, fat_filter(&mut rng));
    g.mutate(CLIENT_NODE, Message::Subscribe { subscription });
    let reborn = g.broker.as_ref().expect("rebooted");
    assert_eq!(reborn.core().router().entry_count(), before.entries + 1);

    let all_equal = |v: &[usize]| v.windows(2).all(|w| w[0] == w[1]);
    assert!(!g.start_views.is_empty() && all_equal(&g.start_views), "{:?}", g.start_views);
    assert!(!g.recovery_responses.is_empty() && all_equal(&g.recovery_responses));
    let sizes = Sizes { start_view: g.start_views[0], recovery_response: g.recovery_responses[0] };
    (history_bytes, sizes)
}

#[test]
fn group_recovers_after_more_history_than_one_frame_holds() {
    let seed = std::env::var("REBECA_RECOVERY_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5eed_2003);
    println!("REBECA_RECOVERY_SEED={seed}");
    // ~25 KiB of history per cycle: past the 16 MiB cap after about 660.
    const CYCLES: u32 = 700;
    let (history, sizes) = churn_crash_recover(seed, CYCLES);
    println!("history {history} B, {sizes:?}");
    assert!(history > MAX_FRAME, "history is {history} B, the frame cap {MAX_FRAME} B");
    assert!(sizes.start_view < MAX_FRAME / 8, "{sizes:?}");
    assert!(sizes.recovery_response < MAX_FRAME / 8, "{sizes:?}");

    let (longer_history, longer_sizes) = churn_crash_recover(seed, 2 * CYCLES);
    assert!(longer_history > 2 * MAX_FRAME);
    assert_eq!(longer_sizes, sizes, "state messages follow the live table, not the history");
}
