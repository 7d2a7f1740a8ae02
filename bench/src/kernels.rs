//! Per-layer kernels: single layers timed around their public calls, on
//! the running workload's own filters and notifications, with the
//! bench binary's counting allocator for the `allocs_per_*` metrics.
//!
//! These are the numbers an optimisation of one layer moves first; the
//! README says which end-to-end metric each should move, on which
//! workload.

use crate::alloc_count::allocations;
use crate::gen::{self, ChurnInputs, PublishInputs};
use crate::report::Values;
use crate::stats;
use rebeca_broker::replication::{
    Outbox, Replica, ReplicaConfig, ReplicaMsg, ReplicatedBrokerNode,
};
use rebeca_broker::{
    decode_message, encode_message, BrokerCore, Message, Outcome, RoutingStrategy,
};
use rebeca_core::codec::ArchivedNotification;
use rebeca_core::{
    BrokerId, ClientId, Filter, InternerCache, MatchIndex, Notification, SharedInterner, SimTime,
    Subscription, SubscriptionId,
};
use rebeca_mobility::BufferSpec;
use rebeca_net::{
    encode_frame, Ctx, Frame, FrameReassembler, Node, NodeId, ProcessRuntime, SendBuffer,
    ThreadRuntime, Topology, PEER_SEND_CAPACITY,
};
use std::collections::VecDeque;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median nanoseconds per call of `f`, over batches run for about
/// `budget`: at least four, the first a discarded warm-up, each sized from
/// a first call to take about a tenth of the budget (at most 1024 calls).
fn time_ns(budget: Duration, mut f: impl FnMut(usize)) -> f64 {
    let c0 = Instant::now();
    f(0);
    let one = c0.elapsed().max(Duration::from_nanos(20));
    let batch = ((budget / 10).as_nanos() / one.as_nanos()).clamp(1, 1024) as usize;
    let mut per_call = Vec::new();
    let mut i = 1;
    let t0 = Instant::now();
    while per_call.len() < 4 || t0.elapsed() < budget {
        let b0 = Instant::now();
        for _ in 0..batch {
            f(i);
            i += 1;
        }
        per_call.push(b0.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&per_call[1..]).expect("at least three timed batches")
}

/// Allocations per call of `f`, over `calls` calls after one warm-up.
fn allocs_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    f(0);
    let before = allocations();
    for i in 0..calls {
        f(i);
    }
    (allocations() - before) as f64 / calls as f64
}

fn published(attrs: &rebeca_core::NotificationBuilder, op: u64) -> Arc<Notification> {
    let attrs = attrs.clone().attr(gen::T, 1_234_567_890i64).attr(gen::OP, op as i64);
    Arc::new(attrs.publish(ClientId::new(1), op, SimTime::from_micros(op)))
}

/// Codec, framing and send-buffer costs of carrying `samples` across one
/// process boundary.
fn wire_path(v: &mut Values, samples: &[Arc<Notification>], budget: Duration) {
    let pick = |i: usize| &samples[i % samples.len()];
    let mut buf = Vec::with_capacity(512);

    v.insert(
        "core.codec.encode_ns",
        time_ns(budget, |i| {
            buf.clear();
            pick(i).encode(&mut buf);
            std::hint::black_box(&buf);
        }),
    );
    let encoded: Vec<Vec<u8>> = samples
        .iter()
        .map(|n| {
            let mut b = Vec::new();
            n.encode(&mut b);
            b
        })
        .collect();
    let mean_len =
        |bufs: &[Vec<u8>]| bufs.iter().map(Vec::len).sum::<usize>() as f64 / bufs.len() as f64;
    v.insert("core.codec.notification_bytes", mean_len(&encoded));

    // The zero-copy receive path: validate a view, resolve names through
    // a warm interner snapshot, read one attribute.
    let shared = SharedInterner::new();
    for n in samples {
        for (name, _) in n.attrs() {
            shared.intern(name);
        }
    }
    let mut cache = InternerCache::default();
    let mut symbols = Vec::with_capacity(16);
    v.insert(
        "core.codec.archived_parse_ns",
        time_ns(budget, |i| {
            let bytes = &encoded[i % encoded.len()];
            let (view, _) = ArchivedNotification::parse(bytes).expect("own encoding");
            view.resolve_symbols(cache.get(&shared), &mut symbols);
            std::hint::black_box(view.get(gen::T));
        }),
    );
    v.insert(
        "core.codec.owned_decode_ns",
        time_ns(budget, |i| {
            let mut cur = encoded[i % encoded.len()].as_slice();
            std::hint::black_box(Notification::decode(&mut cur).expect("own encoding"));
        }),
    );

    // The unit a broker link carries per routed notification.
    let forwards: Vec<Message> =
        samples.iter().map(|n| Message::Forward { notification: Arc::clone(n) }).collect();
    v.insert(
        "broker.codec.encode_message_ns",
        time_ns(budget, |i| {
            buf.clear();
            encode_message(&forwards[i % forwards.len()], &mut buf);
            std::hint::black_box(&buf);
        }),
    );
    let payloads: Vec<Vec<u8>> = forwards
        .iter()
        .map(|m| {
            let mut b = Vec::new();
            encode_message(m, &mut b);
            b
        })
        .collect();
    v.insert("broker.codec.forward_bytes", mean_len(&payloads));
    let decode = |i: usize| {
        let mut cur = payloads[i % payloads.len()].as_slice();
        std::hint::black_box(decode_message(&mut cur).expect("own encoding"));
    };
    v.insert("broker.codec.decode_message_ns", time_ns(budget, decode));
    v.insert("broker.codec.allocs_per_decode", allocs_per_call(256, decode));

    let frames: Vec<Frame> = payloads
        .iter()
        .map(|p| Frame::Msg { from: NodeId::new(0), to: NodeId::new(1), payload: p.clone() })
        .collect();
    let mut stream = Vec::with_capacity(1024);
    v.insert(
        "net.wire.encode_frame_ns",
        time_ns(budget, |i| {
            stream.clear();
            encode_frame(&frames[i % frames.len()], &mut stream);
            std::hint::black_box(&stream);
        }),
    );
    let framed: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| {
            let mut b = Vec::new();
            encode_frame(f, &mut b);
            b
        })
        .collect();
    v.insert("net.wire.frame_overhead_bytes", mean_len(&framed) - mean_len(&payloads));
    let mut re = FrameReassembler::new();
    v.insert(
        "net.wire.reassemble_ns",
        time_ns(budget, |i| {
            re.push(&framed[i % framed.len()]);
            std::hint::black_box(re.next_frame().expect("own framing"));
        }),
    );

    // One producer, one drainer, as a node thread and a link writer use
    // it — but on one thread, so neither ever waits.
    let sb = SendBuffer::new(PEER_SEND_CAPACITY);
    let mut out = Vec::new();
    const BURST: usize = 256;
    let mut push_ns = Vec::new();
    let mut drain_ns = Vec::new();
    let t0 = Instant::now();
    while push_ns.len() < 4 || t0.elapsed() < budget {
        let p0 = Instant::now();
        for i in 0..BURST {
            let _ = sb.push(&framed[i % framed.len()]);
        }
        push_ns.push(p0.elapsed().as_nanos() as f64 / BURST as f64);
        let d0 = Instant::now();
        sb.drain_into(&mut out);
        drain_ns.push(d0.elapsed().as_nanos() as f64);
        std::hint::black_box(&out);
    }
    v.insert("net.send_buffer.push_ns", stats::median(&push_ns[1..]).expect("four bursts"));
    v.insert("net.send_buffer.drain_ns", stats::median(&drain_ns[1..]).expect("four bursts"));
}

/// `MatchIndex` over the workload's filters, on its notifications.
fn matching(v: &mut Values, filters: &[Filter], samples: &[Arc<Notification>], budget: Duration) {
    let mut index: MatchIndex<u32> = MatchIndex::new();
    for (i, f) in filters.iter().enumerate() {
        index.insert(i as u32, f.clone());
    }
    let mut hits = Vec::with_capacity(64);
    let mut matched = 0u64;
    let mut calls = 0u64;
    v.insert(
        "core.matching.match_ns",
        time_ns(budget, |i| {
            hits.clear();
            index.matching_into(&samples[i % samples.len()], &mut hits);
            matched += hits.len() as u64;
            calls += 1;
        }),
    );
    v.insert("core.matching.matched_per_call", matched as f64 / calls as f64);
    v.insert(
        "core.matching.allocs_per_call",
        allocs_per_call(32, |i| {
            hits.clear();
            index.matching_into(&samples[i % samples.len()], &mut hits);
        }),
    );
}

const CLIENT_NODE: NodeId = NodeId::new(10);
const PUBLISHER_NODE: NodeId = NodeId::new(11);
const CLIENT: ClientId = ClientId::new(2);

/// What pumping one message through the line cost and caused.
#[derive(Debug, Default, Clone, Copy)]
struct Pumped {
    handler_ns: u64,
    allocations: u64,
    forwards: u64,
    announcements: u64,
    deliveries: u64,
}

/// The three brokers of the process tier as bare `BrokerCore`s, pumped by
/// hand: a message is handled, whatever it sends is queued and handled in
/// turn. Only the time (and allocations) inside the handlers count.
struct Line {
    cores: Vec<BrokerCore>,
    queue: VecDeque<(NodeId, NodeId, Message)>,
    outcome: Outcome,
}

impl Line {
    fn new(strategy: RoutingStrategy) -> Line {
        let topology = Arc::new(Topology::line(3).expect("three brokers"));
        let nodes: Arc<Vec<NodeId>> = Arc::new((0..3).map(NodeId::new).collect());
        let cores = topology
            .brokers()
            .map(|b| BrokerCore::new(b, Arc::clone(&topology), Arc::clone(&nodes), strategy))
            .collect();
        Line { cores, queue: VecDeque::new(), outcome: Outcome::default() }
    }

    fn pump(&mut self, from: NodeId, to: BrokerId, msg: Message) -> Pumped {
        let mut p = Pumped::default();
        self.queue.push_back((from, NodeId::new(to.raw()), msg));
        let link_up = |_: NodeId, _: NodeId| true;
        let mut next_timer = 0u64;
        while let Some((from, to, msg)) = self.queue.pop_front() {
            let Some(core) = self.cores.get_mut(to.raw() as usize) else { continue };
            let mut ctx = Ctx::standalone(SimTime::ZERO, to, &mut next_timer, &link_up);
            self.outcome.clear();
            let (a0, t0) = (allocations(), Instant::now());
            core.handle_into(&mut ctx, from, msg, &mut self.outcome);
            p.handler_ns += t0.elapsed().as_nanos() as u64;
            p.allocations += allocations() - a0;
            p.deliveries += self.outcome.deliveries.len() as u64;
            for (next, m) in ctx.sent() {
                match m {
                    Message::Forward { .. } => p.forwards += 1,
                    Message::SubForward { .. } | Message::UnsubForward { .. } => {
                        p.announcements += 1
                    }
                    _ => {}
                }
                self.queue.push_back((to, next, m.clone()));
            }
        }
        p
    }

    fn subscribe(&mut self, id: u32, filter: Filter) -> Pumped {
        let subscription = Subscription::new(SubscriptionId::new(id), CLIENT, filter);
        self.pump(CLIENT_NODE, BrokerId::new(2), Message::Subscribe { subscription })
    }

    fn unsubscribe(&mut self, id: u32) -> Pumped {
        let msg = Message::Unsubscribe { client: CLIENT, id: SubscriptionId::new(id) };
        self.pump(CLIENT_NODE, BrokerId::new(2), msg)
    }
}

/// Match + route at the three brokers, and the cost of one more
/// subscription on top of the workload's table.
fn routing(
    v: &mut Values,
    strategy: RoutingStrategy,
    filters: &[Filter],
    samples: &[Arc<Notification>],
    budget: Duration,
) {
    let mut line = Line::new(strategy);
    for (i, f) in filters.iter().enumerate() {
        line.subscribe(i as u32, f.clone());
    }

    // Warm the scratch buffers, then route for `budget`.
    for n in samples.iter().take(8) {
        line.pump(
            PUBLISHER_NODE,
            BrokerId::new(0),
            Message::Publish { notification: Arc::clone(n) },
        );
    }
    let mut sum = Pumped::default();
    let mut routed = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < budget || routed < 32 {
        let n = Arc::clone(&samples[routed as usize % samples.len()]);
        let p = line.pump(PUBLISHER_NODE, BrokerId::new(0), Message::Publish { notification: n });
        sum.handler_ns += p.handler_ns;
        sum.allocations += p.allocations;
        sum.forwards += p.forwards;
        sum.deliveries += p.deliveries;
        routed += 1;
    }
    let per = |x: u64| x as f64 / routed as f64;
    // Three brokers handle each notification: the mean cost at one.
    v.insert("broker.route.route_ns", per(sum.handler_ns) / 3.0);
    v.insert("broker.route.forwards_per_notification", per(sum.forwards));
    v.insert("broker.route.deliveries_per_notification", per(sum.deliveries));
    v.insert("broker.route.allocs_per_notification", per(sum.allocations));

    // One more subscription and its removal, summed over the brokers it
    // reaches: what a re-subscription cycle costs without replication.
    let (mut sub_ns, mut unsub_ns, mut announcements, mut ops) = (0u64, 0u64, 0u64, 0u64);
    let base = filters.len() as u32;
    let t0 = Instant::now();
    while t0.elapsed() < budget || ops < 64 {
        let f = Filter::builder().eq("churn", 1_000_000 + ops as i64).build();
        let s = line.subscribe(base, f);
        let u = line.unsubscribe(base);
        sub_ns += s.handler_ns;
        unsub_ns += u.handler_ns;
        announcements += s.announcements + u.announcements;
        ops += 1;
    }
    v.insert("broker.routing.subscribe_ns", sub_ns as f64 / ops as f64);
    v.insert("broker.routing.unsubscribe_ns", unsub_ns as f64 / ops as f64);
    // Per mutation: a cycle is two.
    v.insert("broker.routing.announce_msgs_per_op", announcements as f64 / (2 * ops) as f64);
}

/// A replicated broker and two log backups pumped by hand (as
/// `alloc_regression` does): one replica group without runtime, threads
/// or wire.
struct Group {
    me: NodeId,
    node: ReplicatedBrokerNode,
    backups: Vec<Replica>,
    /// Replica messages exchanged, and their encoded size while `sizing`.
    msgs: u64,
    bytes: u64,
    sizing: bool,
    scratch: Vec<u8>,
}

impl Group {
    /// Shuttles replica traffic between the node and its backups until
    /// the group is quiet.
    fn pump(&mut self, ctx: &mut Ctx<'_, Message>, seed: Vec<(NodeId, NodeId, ReplicaMsg)>) {
        let mut queue: VecDeque<(NodeId, NodeId, ReplicaMsg)> = seed.into();
        loop {
            for (to, m) in ctx.sent() {
                if let Message::Replica(rm) = m {
                    queue.push_back((self.me, to, rm.clone()));
                }
            }
            ctx.clear_actions();
            let Some((from, to, rm)) = queue.pop_front() else { break };
            self.msgs += 1;
            let msg = Message::Replica(rm);
            if self.sizing {
                self.scratch.clear();
                encode_message(&msg, &mut self.scratch);
                self.bytes += self.scratch.len() as u64;
            }
            let Message::Replica(rm) = msg else { unreachable!("built above") };
            if to == self.me {
                self.node.on_message(ctx, from, Message::Replica(rm));
            } else if let Some(b) = self.backups.iter_mut().find(|b| b.me_node() == to) {
                let mut out = Outbox::new();
                b.on_msg(from, rm, &mut out);
                let from = b.me_node();
                queue.extend(out.into_iter().map(|(t, m)| (from, t, m)));
            }
        }
    }

    fn mutate(&mut self, ctx: &mut Ctx<'_, Message>, msg: Message) {
        self.node.on_message(ctx, CLIENT_NODE, msg);
        self.pump(ctx, Vec::new());
    }
}

/// The cost of one mutation through a group of three, on top of the
/// workload's preloaded table.
fn replication(v: &mut Values, preload: &[Filter], budget: Duration) {
    let topology = Arc::new(Topology::line(3).expect("three brokers"));
    let me = NodeId::new(2);
    let members = vec![me, NodeId::new(20), NodeId::new(21)];
    let core = BrokerCore::new(
        BrokerId::new(2),
        topology,
        Arc::new((0..3).map(NodeId::new).collect()),
        RoutingStrategy::Covering,
    );
    let mut group = Group {
        me,
        node: ReplicatedBrokerNode::new(core, members.clone(), Arc::default()),
        backups: (1..3)
            .map(|i| Replica::new(ReplicaConfig { group: members.clone(), me: i }))
            .collect(),
        msgs: 0,
        bytes: 0,
        sizing: false,
        scratch: Vec::new(),
    };
    let link_up = |_: NodeId, _: NodeId| true;
    let mut next_timer = 0u64;
    let mut ctx: Ctx<'_, Message> = Ctx::standalone(SimTime::ZERO, me, &mut next_timer, &link_up);

    // Boot: the node becomes primary of view 0, the backups recover their
    // (empty) logs from it.
    group.node.on_start(&mut ctx);
    group.pump(&mut ctx, Vec::new());
    for i in 0..group.backups.len() {
        let mut boot = Outbox::new();
        group.backups[i].start(&mut boot);
        let from = group.backups[i].me_node();
        group.pump(&mut ctx, boot.into_iter().map(|(t, m)| (from, t, m)).collect());
    }
    let mut next_id = 0u32;
    for f in preload {
        let subscription = Subscription::new(SubscriptionId::new(next_id), CLIENT, f.clone());
        next_id += 1;
        group.mutate(&mut ctx, Message::Subscribe { subscription });
    }

    // Re-subscription cycles: the first 256 have their replica traffic
    // encoded and sized, the rest are timed.
    const SIZED: u64 = 256;
    (group.msgs, group.bytes) = (0, 0);
    let (mut ops, mut timed_ns) = (0u64, 0u64);
    let t0 = Instant::now();
    while t0.elapsed() < budget || ops < 2 * SIZED {
        group.sizing = ops < SIZED;
        let filter = Filter::builder().eq("churn", 2_000_000 + ops as i64).build();
        let subscription = Subscription::new(SubscriptionId::new(next_id), CLIENT, filter);
        let o0 = Instant::now();
        group.mutate(&mut ctx, Message::Subscribe { subscription });
        let id = SubscriptionId::new(next_id);
        group.mutate(&mut ctx, Message::Unsubscribe { client: CLIENT, id });
        if !group.sizing {
            timed_ns += o0.elapsed().as_nanos() as u64;
        }
        ops += 1;
    }
    // Per mutation (a cycle is two), at one broker of the three.
    v.insert("broker.replication.op_ns", timed_ns as f64 / (2 * (ops - SIZED)) as f64);
    v.insert("broker.replication.msgs_per_op", group.msgs as f64 / (2 * ops) as f64);
    v.insert("broker.replication.bytes_per_op", group.bytes as f64 / (2 * SIZED) as f64);
}

/// Virtual-client buffering: offering to a warm replay buffer and
/// draining it on arrival.
fn buffers(v: &mut Values, samples: &[Arc<Notification>], budget: Duration) {
    const HELD: usize = 256;
    let mut buf = BufferSpec::TimeBased { ttl: rebeca_core::SimDuration::from_secs(120) }.build();
    let mut offer_ns = Vec::new();
    let mut replay_ns = Vec::new();
    let t0 = Instant::now();
    while offer_ns.len() < 4 || t0.elapsed() < budget {
        let o0 = Instant::now();
        for i in 0..HELD {
            buf.offer(SimTime::from_secs(1), Arc::clone(&samples[i % samples.len()]));
        }
        offer_ns.push(o0.elapsed().as_nanos() as f64 / HELD as f64);
        let r0 = Instant::now();
        let replayed = buf.drain(SimTime::from_secs(2));
        replay_ns.push(r0.elapsed().as_nanos() as f64 / HELD as f64);
        assert_eq!(replayed.len(), HELD);
    }
    v.insert("mobility.buffer.offer_ns", stats::median(&offer_ns[1..]).expect("four rounds"));
    v.insert("mobility.buffer.replay_ns", stats::median(&replay_ns[1..]).expect("four rounds"));
}

fn samples_of(inputs: &PublishInputs) -> Vec<Arc<Notification>> {
    inputs.pool.iter().take(256).enumerate().map(|(i, a)| published(a, i as u64)).collect()
}

/// Every layer a `relay` or `match-heavy` op passes through.
pub fn publish_path(v: &mut Values, inputs: &PublishInputs, budget: Duration) {
    let samples = samples_of(inputs);
    wire_path(v, &samples, budget);
    matching(v, &inputs.filters, &samples, budget);
    routing(v, RoutingStrategy::Simple, &inputs.filters, &samples, budget);
    transport(v, &samples[0], budget);
}

/// Every layer a `churn-repl3` cycle passes through; the notifications
/// are its beacons.
pub fn churn_path(v: &mut Values, inputs: &ChurnInputs, budget: Duration) {
    let samples: Vec<Arc<Notification>> = (0..8)
        .map(|j| {
            Arc::new(gen::beacon(j, 1_234_567_890).publish(ClientId::new(1), j, SimTime::ZERO))
        })
        .collect();
    let mut filters = inputs.preload.clone();
    filters.extend((0..gen::CHURN_LIVE).map(|k| gen::churn_filter(inputs, k)));
    wire_path(v, &samples, budget);
    matching(v, &filters, &samples, budget);
    routing(v, RoutingStrategy::Covering, &filters, &samples, budget);
    replication(v, &filters, budget);
    transport(v, &samples[0], budget);
}

/// The layers a handover touches outside the simulator's own loop: the
/// notification shape `roam` publishes, a resolved location filter per
/// office, and the virtual clients' buffers.
pub fn roam_path(v: &mut Values, seed: u64, budget: Duration) {
    let samples: Vec<Arc<Notification>> = (0..9u32)
        .map(|b| {
            let attrs = Notification::builder()
                .attr("service", "service")
                .attr("location", rebeca_core::LocationId::new(b))
                .attr("mark", (seed % 1000) as i64 + i64::from(b));
            Arc::new(attrs.publish(ClientId::new(b), 0, SimTime::ZERO))
        })
        .collect();
    let filters: Vec<Filter> = (0..9u32)
        .map(|b| {
            Filter::builder()
                .eq("service", "service")
                .myloc("location")
                .build()
                .resolve_locations([rebeca_core::LocationId::new(b)])
        })
        .collect();
    wire_path(v, &samples, budget);
    matching(v, &filters, &samples, budget);
    routing(v, RoutingStrategy::Simple, &filters, &samples, budget);
    buffers(v, &samples, budget);
    transport(v, &samples[0], budget);
}

/// A node that sends everything it gets to its peer and counts.
struct Echo {
    peer: NodeId,
    hops: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
}

impl Node<Message> for Echo {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Message>, _from: NodeId, msg: Message) {
        // Relaxed: a statistic and an advisory flag; the runtimes' stop
        // joins order everything that matters.
        self.hops.fetch_add(1, Ordering::Relaxed);
        if !self.stop.load(Ordering::Relaxed) {
            ctx.send(self.peer, msg);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Hops per second while `in_flight` messages bounce between two echo
/// nodes for `budget`.
fn bounce(
    in_flight: usize,
    budget: Duration,
    hops: &AtomicU64,
    stop: &AtomicBool,
    inject: impl Fn(Message),
    sample: &Arc<Notification>,
) -> f64 {
    stop.store(false, Ordering::Relaxed);
    for _ in 0..in_flight {
        inject(Message::Forward { notification: Arc::clone(sample) });
    }
    std::thread::sleep(budget / 4); // warm-up, unmeasured
    let (h0, t0) = (hops.load(Ordering::Relaxed), Instant::now());
    std::thread::sleep(budget);
    let rate = (hops.load(Ordering::Relaxed) - h0) as f64 / t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    // Let the bouncing messages die before the next round.
    std::thread::sleep(Duration::from_millis(20));
    rate
}

/// The bare runtimes: two echo nodes over a socketpair (two process
/// runtimes in this one process — the full frame path without fork), and
/// over the threaded runtime's channels.
pub fn transport(v: &mut Values, sample: &Arc<Notification>, budget: Duration) {
    let hops = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let echo = |peer: u32| -> Box<dyn Node<Message>> {
        Box::new(Echo { peer: NodeId::new(peer), hops: Arc::clone(&hops), stop: Arc::clone(&stop) })
    };

    let (sa, sb) = UnixStream::pair().expect("socketpair");
    let mut ra: ProcessRuntime<Message> = ProcessRuntime::new();
    let pa = ra.add_peer(sa);
    let a0 = ra.add_local(echo(1));
    let a1 = ra.add_remote(pa);
    ra.connect(a0, a1);
    let mut rb: ProcessRuntime<Message> = ProcessRuntime::new();
    let pb = rb.add_peer(sb);
    let b0 = rb.add_remote(pb);
    let b1 = rb.add_local(echo(0));
    rb.connect(b0, b1);
    ra.start();
    rb.start();
    let alone = bounce(1, budget, &hops, &stop, |m| ra.send_external(a0, m), sample);
    let many = bounce(256, budget, &hops, &stop, |m| ra.send_external(a0, m), sample);
    ra.stop();
    rb.stop();
    v.insert("net.process_rt.hop_ns", 1e9 / alone);
    v.insert("net.process_rt.hop_throughput", many);

    let mut rt: ThreadRuntime<Message> = ThreadRuntime::new();
    let t0 = rt.add_node(echo(1));
    let t1 = rt.add_node(echo(0));
    rt.connect(t0, t1);
    rt.start();
    let alone = bounce(1, budget, &hops, &stop, |m| rt.send_external(t0, m), sample);
    rt.stop();
    v.insert("net.thread_rt.hop_ns", 1e9 / alone);
}
