//! Allocation regression: the steady-state notification pipeline must not
//! touch the heap.
//!
//! A counting global allocator measures exact allocation counts around the
//! hot paths the zero-copy refactor promises are allocation-free once warm:
//!
//! * [`BrokerCore::route_notification_into`] — match + route + fan-out of
//!   one `Arc<Notification>` through a broker with local subscribers and
//!   neighbour announcements;
//! * [`ReplayBuffer::offer`] — buffering on behalf of an absent device,
//!   and `offer_to` with a [`ByteLedger`], as a replicator buffers.
//! * [`ReplicatedBrokerNode`] dispatch — the same route path behind PR 10's
//!   op-log replication wrapper, table populated through a live group of 3.
//! * [`World::step`] — the simulator's event loop: pop, dispatch, apply,
//!   with a delivery and a timer set and cancelled per hop.
//! * [`ProcessRuntime`]'s event loop — a rally between two locally linked
//!   nodes, which one loop thread drives: each hop a push onto the loop's
//!   lane and a pop off it.
//!
//! The counter is per thread: the test harness's own thread allocates
//! while the test runs (about one run in thirty saw it inside a measured
//! loop when the counter was global).

use rebeca_broker::replication::{
    Outbox, Replica, ReplicaConfig, ReplicaMsg, ReplicatedBrokerNode, ReplicationMetrics,
};
use rebeca_broker::{BrokerCore, BrokerOp, Message, Outcome, RoutingStrategy};
use rebeca_core::CoreError;
use rebeca_core::SimDuration;
use rebeca_core::{
    BrokerId, ClientId, Filter, Interner, LocationId, Notification, SimTime, Subscription,
    SubscriptionId,
};
use rebeca_mobility::{BufferSpec, ByteLedger};
use rebeca_net::{
    Ctx, LinkConfig, Node, NodeId, Payload, ProcessRuntime, TimerId, Topology, Wire, World,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts every allocation (alloc + realloc) the calling thread passes
/// through the global allocator.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor outlives its thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down may allocate after its locals are gone;
    // nothing measures that thread any more.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates directly to the system allocator; the counter is a
// thread-local cell with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` unchanged to the system allocator, which
    // upholds the GlobalAlloc contract for it.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from our `alloc`, which returned a
    // system allocation of exactly that layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same delegation as `alloc`/`dealloc`; the system allocator
    // upholds the realloc contract for a pointer it handed out.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Shuttles replica traffic between a [`ReplicatedBrokerNode`] and a set
/// of hand-pumped sans-io backup [`Replica`]s until the group quiesces,
/// discarding every non-replica action the node emits along the way (the
/// measured loops call `clear_actions` the same way).
fn pump_group(
    ctx: &mut Ctx<'_, Message>,
    rb: &mut ReplicatedBrokerNode,
    backups: &mut [Replica],
    me: NodeId,
    seed: Vec<(NodeId, NodeId, ReplicaMsg)>,
) {
    let mut queue: VecDeque<(NodeId, NodeId, ReplicaMsg)> = seed.into();
    loop {
        for (to, msg) in ctx.sent() {
            if let Message::Replica(rm) = msg {
                queue.push_back((me, to, rm.clone()));
            }
        }
        ctx.clear_actions();
        let Some((from, to, rm)) = queue.pop_front() else { break };
        if to == me {
            rb.on_message(ctx, from, Message::Replica(rm));
        } else if let Some(b) = backups.iter_mut().find(|b| b.me_node() == to) {
            let mut out = Outbox::new();
            b.on_msg(from, rm, &mut out);
            let bfrom = b.me_node();
            queue.extend(out.into_iter().map(|(t, m)| (bfrom, t, m)));
        }
    }
}

#[test]
fn steady_state_pipeline_allocates_nothing() {
    // --- a middle broker of a 3-broker line, covering strategy ---
    let topology = Arc::new(Topology::line(3).expect("valid line"));
    let broker_nodes: Arc<Vec<NodeId>> = Arc::new((0..3).map(NodeId::new).collect());
    let mut core = BrokerCore::new(
        BrokerId::new(1),
        Arc::clone(&topology),
        broker_nodes,
        RoutingStrategy::Covering,
    );

    let mut next_timer = 0u64;
    let link_up = |_: NodeId, _: NodeId| true;
    let mut ctx: Ctx<'_, Message> =
        Ctx::standalone(SimTime::ZERO, NodeId::new(1), &mut next_timer, &link_up);

    // Local subscribers plus neighbour announcements, spread over a few
    // attributes so every candidate is verified against a second
    // constraint, plus one set and one location-set filter: the
    // value-keyed lookup (`Eq`, `In`, `InLocations`) is the path held to
    // zero — an index that built a key buffer per lookup would fail here.
    let subscriptions = || {
        let rooms = (0..48u32)
            .map(|i| Filter::builder().eq("service", "t").eq("room", (i % 12) as i64).build());
        let sets = [
            Filter::builder().one_of("room", [3i64, 7]).build(),
            Filter::builder().in_locations("location", [4, 5].map(LocationId::new)).build(),
        ];
        rooms.chain(sets).enumerate().map(|(i, filter)| {
            let i = i as u32;
            let subscription =
                Subscription::new(SubscriptionId::new(i), ClientId::new(i % 6), filter);
            BrokerOp::Subscribe { node: NodeId::new(10 + (i % 6)), subscription }
        })
    };
    for op in subscriptions() {
        core.apply(&mut ctx, op);
    }
    // Both neighbours announce interest; the arrival link (node 0) is
    // excluded from forwarding, so every routed notification goes to
    // node 2 exactly once.
    let announced = Filter::builder().eq("service", "t").build();
    core.handle(
        &mut ctx,
        NodeId::new(0),
        Message::SubForward { filters: vec![announced.clone()].into() },
    );
    core.handle(&mut ctx, NodeId::new(2), Message::SubForward { filters: vec![announced].into() });

    let n = Arc::new(
        Notification::builder()
            .attr("service", "t")
            .attr("room", 3i64)
            .attr("location", LocationId::new(4))
            .attr("celsius", 21i64)
            .publish(ClientId::new(99), 0, SimTime::ZERO),
    );
    let mut out = Outcome::default();

    // Warm-up: let every scratch buffer, the outcome and the context's
    // action buffer reach their steady-state capacity.
    for _ in 0..32 {
        ctx.clear_actions();
        out.clear();
        core.route_notification_into(&mut ctx, NodeId::new(0), Arc::clone(&n), &mut out);
    }
    assert_eq!(
        out.deliveries.len(),
        3,
        "the room subscribers' client, the set filter's and the location-set filter's"
    );
    assert!(ctx.action_count() > 0, "the notification is forwarded onwards");

    // Measured: zero heap allocations across many routed notifications.
    let before = allocations();
    for _ in 0..256 {
        ctx.clear_actions();
        out.clear();
        core.route_notification_into(&mut ctx, NodeId::new(0), Arc::clone(&n), &mut out);
    }
    let routed = allocations() - before;
    assert_eq!(routed, 0, "route_notification allocated {routed} times in 256 steady-state calls");

    // --- many filters, few destinations, on a recycled number: a first
    //     client takes a destination number and leaves, a second one
    //     inherits it with 256 subscriptions, one link announces 256
    //     filters. The index sized its per-destination marks when those
    //     filters went in, so deciding "this client, that link" per
    //     notification grows nothing ---
    {
        let mut few = BrokerCore::new(
            BrokerId::new(1),
            Arc::clone(&topology),
            Arc::new((0..3).map(NodeId::new).collect()),
            RoutingStrategy::Simple,
        );
        let wide = |attr: &str, i: u32| {
            let (group, tag) = (i64::from(i % 16), -i64::from(i));
            Filter::builder().eq("service", "t").eq(attr, group).ge("celsius", tag).build()
        };
        let subscribe = |client: u32, id: u32, filter: Filter| BrokerOp::Subscribe {
            node: NodeId::new(10 + client),
            subscription: Subscription::new(SubscriptionId::new(id), ClientId::new(client), filter),
        };
        few.apply(&mut ctx, subscribe(7, 0, wide("room", 3)));
        few.apply(&mut ctx, BrokerOp::ClientDetach { client: ClientId::new(7) });
        for i in 0..256 {
            few.apply(&mut ctx, subscribe(8, i, wide("room", i)));
            few.handle(
                &mut ctx,
                NodeId::new(2),
                Message::SubForward { filters: vec![wide("row", i)].into() },
            );
        }
        let n = Arc::new(
            Notification::builder()
                .attr("service", "t")
                .attr("room", 3i64)
                .attr("row", 5i64)
                .attr("celsius", 21i64)
                .publish(ClientId::new(99), 0, SimTime::ZERO),
        );
        let mut few_out = Outcome::default();
        let mut route = |few: &mut BrokerCore| {
            ctx.clear_actions();
            few_out.clear();
            few.route_notification_into(&mut ctx, NodeId::new(0), Arc::clone(&n), &mut few_out);
            assert_eq!((few_out.deliveries.len(), ctx.action_count()), (1, 1));
        };
        for _ in 0..32 {
            route(&mut few);
        }
        let before = allocations();
        for _ in 0..256 {
            route(&mut few);
        }
        let routed = allocations() - before;
        assert_eq!(routed, 0, "{routed} allocations in 256 two-destination routes");
        let stats = few.stats();
        assert!(
            stats.candidates_verified <= 2 * stats.notifications_routed,
            "32 candidates share a value with the notification; {} were verified in {} routes",
            stats.candidates_verified,
            stats.notifications_routed
        );
    }

    // --- replicator-style buffering: offering to a warm replay buffer ---
    let mut buf = BufferSpec::Unbounded.build();
    for _ in 0..256 {
        buf.offer(SimTime::ZERO, Arc::clone(&n));
    }
    let drained = buf.drain(SimTime::ZERO);
    assert_eq!(drained.len(), 256);
    drop(drained);
    let before = allocations();
    for _ in 0..256 {
        buf.offer(SimTime::ZERO, Arc::clone(&n));
    }
    let buffered = allocations() - before;
    assert_eq!(
        buffered, 0,
        "warm replay-buffer offers allocated {buffered} times for 256 notifications"
    );

    // --- the replicator's own path: distinct notifications offered to two
    //     bounded buffers (two virtual clients with the same interest)
    //     through `offer_to`, each admission and eviction reported to the
    //     replicator's byte ledger ---
    let notes: Vec<Arc<Notification>> = (0..1280)
        .map(|seq| {
            Arc::new(Notification::builder().attr("service", "t").attr("room", 3i64).publish(
                ClientId::new(98),
                seq,
                SimTime::ZERO,
            ))
        })
        .collect();
    let (warm, measured) = notes.split_at(1024);
    let mut ledger = ByteLedger::default();
    let mut vcs = [
        BufferSpec::HistoryBased { capacity: 64 }.build(),
        BufferSpec::HistoryBased { capacity: 32 }.build(),
    ];
    let mut offer = |ledger: &mut ByteLedger, n: &Arc<Notification>| {
        for vc in &mut vcs {
            vc.offer_to(ledger, SimTime::ZERO, Arc::clone(n));
        }
    };
    for n in warm {
        offer(&mut ledger, n);
    }
    let before = allocations();
    for n in measured {
        offer(&mut ledger, n);
    }
    let ledgered = allocations() - before;
    assert_eq!(
        ledgered, 0,
        "ledgered offers allocated {ledgered} times for 256 distinct notifications"
    );
    assert_eq!(ledger.len(), 64, "the 32 both buffers hold are counted once");

    // --- wire codec: the encode side into a reused buffer, and the
    //     zero-copy archived read path (parse + warm symbol resolution +
    //     by-name access), as run per received notification on a
    //     cross-process link ---
    let mut wire = Vec::with_capacity(n.wire_size());
    n.encode(&mut wire);
    let mut interner = Interner::new();
    for (name, _) in n.attrs() {
        interner.intern(name);
    }
    let mut symbols = Vec::with_capacity(n.attr_count());
    // Warm-up: capacity for the encode buffer and symbol vector.
    for _ in 0..8 {
        wire.clear();
        n.encode(&mut wire);
        let (view, _) = rebeca_core::codec::ArchivedNotification::parse(&wire).expect("own bytes");
        view.resolve_symbols(&interner, &mut symbols);
    }
    let before = allocations();
    for _ in 0..256 {
        wire.clear();
        n.encode(&mut wire);
        let (view, rest) =
            rebeca_core::codec::ArchivedNotification::parse(&wire).expect("own bytes");
        assert!(rest.is_empty());
        view.resolve_symbols(&interner, &mut symbols);
        assert!(view.get("room").is_some());
        assert_eq!(symbols.len(), n.attr_count());
    }
    let coded = allocations() - before;
    assert_eq!(
        coded, 0,
        "warm encode + archived decode allocated {coded} times for 256 notifications"
    );

    // --- the same routing core behind PR 10's replication wrapper: the
    //     table below is populated through a *real* group-of-3 op log
    //     (two sans-io backups pumped by hand), and once warm the
    //     per-notification dispatch path must stay exactly as
    //     allocation-free as the bare core's — the hot-path arm never
    //     touches the replica ---
    let me = NodeId::new(1);
    let group = vec![me, NodeId::new(20), NodeId::new(21)];
    let mut rb = ReplicatedBrokerNode::new(
        BrokerCore::new(
            BrokerId::new(1),
            Arc::clone(&topology),
            Arc::new((0..3).map(NodeId::new).collect()),
            RoutingStrategy::Covering,
        ),
        group.clone(),
        Arc::new(ReplicationMetrics::default()),
    );
    let mut backups: Vec<Replica> = (1..group.len())
        .map(|i| Replica::new(ReplicaConfig { group: group.clone(), me: i }))
        .collect();

    // Boot: the node probes an all-fresh group and becomes primary of
    // view 0; each backup then recovers its (empty) log from the node.
    rb.on_start(&mut ctx);
    pump_group(&mut ctx, &mut rb, &mut backups, me, Vec::new());
    for i in 0..backups.len() {
        let mut boot = Outbox::new();
        backups[i].start(&mut boot);
        let from = backups[i].me_node();
        let seed = boot.into_iter().map(|(t, m)| (from, t, m)).collect();
        pump_group(&mut ctx, &mut rb, &mut backups, me, seed);
    }

    // The same subscription load as the bare core, but every mutation now
    // rides a Prepare/PrepareOk/Commit round trip through the group.
    for i in 0..48u32 {
        let client = ClientId::new(i % 6);
        let from = NodeId::new(10 + (i % 6));
        rb.on_message(&mut ctx, from, Message::ClientAttach { client });
        pump_group(&mut ctx, &mut rb, &mut backups, me, Vec::new());
        let filter = Filter::builder().eq("service", "t").eq("room", (i % 12) as i64).build();
        let subscription = Subscription::new(SubscriptionId::new(i), client, filter);
        rb.on_message(&mut ctx, from, Message::Subscribe { subscription });
        pump_group(&mut ctx, &mut rb, &mut backups, me, Vec::new());
    }
    let announced = Filter::builder().eq("service", "t").build();
    rb.on_message(
        &mut ctx,
        NodeId::new(0),
        Message::SubForward { filters: vec![announced.clone()].into() },
    );
    pump_group(&mut ctx, &mut rb, &mut backups, me, Vec::new());
    rb.on_message(
        &mut ctx,
        NodeId::new(2),
        Message::SubForward { filters: vec![announced].into() },
    );
    pump_group(&mut ctx, &mut rb, &mut backups, me, Vec::new());
    assert!(
        rb.replica().commit_number() >= 98,
        "every mutation must have committed through the group (commit = {})",
        rb.replica().commit_number()
    );
    assert!(rb.core().router().entry_count() > 0, "the logged subscriptions reached the table");

    for _ in 0..32 {
        ctx.clear_actions();
        rb.on_message(&mut ctx, NodeId::new(0), Message::Publish { notification: Arc::clone(&n) });
    }
    assert!(ctx.action_count() > 0, "the replicated broker delivers and forwards");

    let before = allocations();
    for _ in 0..256 {
        ctx.clear_actions();
        rb.on_message(&mut ctx, NodeId::new(0), Message::Publish { notification: Arc::clone(&n) });
    }
    let routed = allocations() - before;
    assert_eq!(
        routed, 0,
        "replicated dispatch allocated {routed} times in 256 steady-state publishes"
    );
}

/// A heap-free message: the world case measures the event loop, not the
/// payload.
#[derive(Debug)]
struct Ball(u64);

impl Payload for Ball {
    fn wire_size(&self) -> usize {
        8
    }
}

impl Wire for Ball {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }
    fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        let raw: [u8; 8] =
            bytes.try_into().map_err(|_| CoreError::Truncated { need: 8, have: bytes.len() })?;
        Ok(Ball(u64::from_le_bytes(raw)))
    }
}

/// Returns every ball to its peer and re-arms a watchdog per hop: the
/// previous timer is cancelled, a fresh one set. The watchdog is longer
/// than a round trip, so it never fires.
struct Paddle {
    peer: NodeId,
    watchdog: Option<TimerId>,
    hits: u64,
}

impl Node<Ball> for Paddle {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Ball>, _from: NodeId, ball: Ball) {
        self.hits += 1;
        if let Some(t) = self.watchdog.take() {
            ctx.cancel_timer(t);
        }
        self.watchdog = Some(ctx.set_timer(SimDuration::from_millis(10), 0));
        ctx.send(self.peer, Ball(ball.0 + 1));
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Ball>, _timer: TimerId, _tag: u64) {
        panic!("the watchdog is always cancelled first");
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn world_event_loop_allocates_nothing() {
    let mut world: World<Ball> = World::new();
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    world.add_node(Box::new(Paddle { peer: b, watchdog: None, hits: 0 }));
    world.add_node(Box::new(Paddle { peer: a, watchdog: None, hits: 0 }));
    world.connect(a, b, LinkConfig::constant(SimDuration::from_millis(1)));
    world.send_external(a, Ball(0));

    // Warm-up: the lane, the heap of cancelled watchdogs, the timer sets,
    // the action buffer and the traffic counters reach their steady size.
    for _ in 0..1024 {
        assert!(world.step(), "the rally never stops");
    }

    // Measured: deliveries and cancelled-timer pops, zero allocations.
    let hits = |w: &World<Ball>| {
        [a, b].iter().map(|&n| w.node_as::<Paddle>(n).expect("paddle").hits).sum::<u64>()
    };
    let hits_before = hits(&world);
    let before = allocations();
    for _ in 0..256 {
        assert!(world.step(), "the rally never stops");
    }
    let stepped = allocations() - before;
    assert!(hits(&world) - hits_before >= 128, "most steps are deliveries");
    assert_eq!(stepped, 0, "World::step allocated {stepped} times in 256 steady-state steps");
}

/// Hops of the live rally before the measured ones, and measured hops.
const LIVE_WARM: u64 = 1024;
const LIVE_MEASURED: u64 = 256;

/// Returns every ball to its loop-mate until the rally is measured. The
/// loop thread's allocation count is read at the first and the last
/// measured hop, from inside the handlers: both nodes run on that thread.
struct LiveRally {
    peer: NodeId,
    hits: Arc<AtomicU64>,
    start: Arc<AtomicU64>,
    end: Arc<AtomicU64>,
}

impl Node<Ball> for LiveRally {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Ball>, _from: NodeId, ball: Ball) {
        // ordering: Relaxed — one thread counts; the test thread polls it
        // for progress only.
        let hit = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        if hit == LIVE_WARM {
            // ordering: Relaxed — read after the runtime's stop joined
            // this thread.
            self.start.store(allocations(), Ordering::Relaxed);
        }
        if hit == LIVE_WARM + LIVE_MEASURED {
            // ordering: Relaxed — as `start`.
            self.end.store(allocations(), Ordering::Relaxed);
            return;
        }
        ctx.send(self.peer, Ball(ball.0 + 1));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn live_event_loop_allocates_nothing() {
    let hits = Arc::new(AtomicU64::new(0));
    let start = Arc::new(AtomicU64::new(u64::MAX));
    let end = Arc::new(AtomicU64::new(u64::MAX));
    let mut rt: ProcessRuntime<Ball> = ProcessRuntime::new();
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    for peer in [b, a] {
        rt.add_local(Box::new(LiveRally {
            peer,
            hits: Arc::clone(&hits),
            start: Arc::clone(&start),
            end: Arc::clone(&end),
        }));
    }
    rt.connect(a, b);
    rt.start();
    rt.send_external(a, Ball(0));
    let deadline = Instant::now() + Duration::from_secs(10);
    // ordering: Relaxed — a progress poll; the values are read after stop.
    while hits.load(Ordering::Relaxed) < LIVE_WARM + LIVE_MEASURED && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    rt.stop();
    // ordering: Relaxed — the stop joined the loop thread that stored them.
    let (start, end) = (start.load(Ordering::Relaxed), end.load(Ordering::Relaxed));
    assert!(end != u64::MAX, "the rally ran its {} hops", LIVE_WARM + LIVE_MEASURED);
    let rallied = end - start;
    assert_eq!(
        rallied, 0,
        "the event loop allocated {rallied} times in {LIVE_MEASURED} steady-state hops"
    );
}
