//! The process tier under test: three brokers in a line over two OS
//! processes, a publisher and the probe in the parent, and the driver
//! side of set-up, fences and tear-down.
//!
//! Node table, identical in both processes: brokers 0–2, the replica
//! groups' backups (when replicated), the publisher client, the probe
//! client, the child's agent. Broker 1 — the middle of the line — lives in
//! the child, so a notification from the publisher (at broker 0) to the
//! probe (at broker 2) crosses the socket twice.

use crate::json::Json;
use crate::nodes::{Agent, Control, Observed, Probe, Shared};
use crate::procfs;
use crate::trace::{Clock, Collected, TraceSink, TracedNode};
use crate::{gen, Workload};
use rebeca::SystemBuilder;
use rebeca_broker::replication::{ReplicaNode, ReplicatedBrokerNode, ReplicationMetrics};
use rebeca_broker::{BrokerCore, BrokerNode, ClientNode, Message, RoutingStrategy};
use rebeca_core::{
    BrokerId, ClientId, Filter, NotificationBuilder, SharedInterner, SubscriptionId,
};
use rebeca_net::{LinkMetrics, Node, NodeId, PeerId, ProcessRuntime, Topology};
use std::io::Read;
use std::os::fd::{AsFd, OwnedFd};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const BROKERS: usize = 3;
/// The broker hosted by the child process.
const CHILD_BROKER: u32 = 1;
const PUBLISHER: ClientId = ClientId::new(1);
const PROBE: ClientId = ClientId::new(2);

/// How long the child waits for the parent before giving up, and the
/// parent for the child's report. A run is over in well under a minute.
const CHILD_PATIENCE: Duration = Duration::from_secs(170);
const REPORT_PATIENCE: Duration = Duration::from_secs(20);

/// Routing strategy and replica group size of a process-tier workload.
fn shape(w: Workload) -> (RoutingStrategy, usize) {
    match w {
        Workload::Relay | Workload::MatchHeavy => (RoutingStrategy::Simple, 1),
        Workload::ChurnRepl3 => (RoutingStrategy::Covering, 3),
        Workload::Roam => unreachable!("roam runs in the simulator, not on the process tier"),
    }
}

#[derive(Debug, Clone, Copy)]
struct Ids {
    publisher: NodeId,
    probe: NodeId,
    agent: NodeId,
}

fn ids(group: usize) -> Ids {
    let first = (BROKERS + BROKERS * (group - 1)) as u32;
    Ids {
        publisher: NodeId::new(first),
        probe: NodeId::new(first + 1),
        agent: NodeId::new(first + 2),
    }
}

/// Whether node `n` of the table lives in the child process.
pub fn in_child(w: Workload, n: u32) -> bool {
    let (_, g) = shape(w);
    let n = n as usize;
    if n < BROKERS {
        return n == CHILD_BROKER as usize;
    }
    let backups = BROKERS * (g - 1);
    if n < BROKERS + backups {
        // Backup p of broker b is node 3 + b(g-1) + (p-1), hosted with
        // broker (b+p) mod 3 — the facade's placement.
        let (b, p) = ((n - BROKERS) / (g - 1), (n - BROKERS) % (g - 1) + 1);
        return (b + p) % BROKERS == CHILD_BROKER as usize;
    }
    n == ids(g).agent.raw() as usize
}

/// Per node of the table: whether it lives in the *other* process, seen
/// from the child (`from_child`) or from the parent.
fn hosted_elsewhere(w: Workload, from_child: bool) -> Vec<bool> {
    let (_, g) = shape(w);
    (0..=ids(g).agent.raw()).map(|n| in_child(w, n) != from_child).collect()
}

/// Declares the broker tier in `rt`. Untraced, this is the shipped path,
/// `SystemBuilder::build_process_partition`; traced, the same table built
/// by hand so every hosted node can be wrapped in a [`TracedNode`].
fn build_brokers(
    rt: &mut ProcessRuntime<Message>,
    w: Workload,
    hosted: &[BrokerId],
    peer: PeerId,
    sink: Option<&Arc<TraceSink>>,
) -> Result<(), String> {
    let (strategy, g) = shape(w);
    let topology = Topology::line(BROKERS).expect("three brokers");
    let Some(sink) = sink else {
        return SystemBuilder::new(topology)
            .strategy(strategy)
            .replication(g)
            .shards(1)
            .build_process_partition(rt, hosted, |_| Some(peer))
            .map(|_| ())
            .map_err(|e| format!("deploying the broker partition: {e}"));
    };
    let topology = Arc::new(topology);
    let broker_nodes: Arc<Vec<NodeId>> = Arc::new((0..BROKERS as u32).map(NodeId::new).collect());
    let interner = Arc::new(SharedInterner::new());
    let metrics = Arc::new(ReplicationMetrics::default());
    let group_of = |b: usize| -> Vec<NodeId> {
        let mut group = vec![NodeId::new(b as u32)];
        group.extend((0..g - 1).map(|j| NodeId::new((BROKERS + b * (g - 1) + j) as u32)));
        group
    };
    let mut next = 0u32;
    let mut declare = |rt: &mut ProcessRuntime<Message>, node: Option<Box<dyn Node<Message>>>| {
        let id = match node {
            Some(node) => rt.add_local(TracedNode::wrap(node, next, sink)),
            None => rt.add_remote(peer),
        };
        debug_assert_eq!(id.raw(), next);
        next += 1;
    };
    for b in topology.brokers() {
        let node = hosted.contains(&b).then(|| -> Box<dyn Node<Message>> {
            let core = BrokerCore::with_shards(
                b,
                Arc::clone(&topology),
                Arc::clone(&broker_nodes),
                strategy,
                Arc::clone(&interner),
                1,
            );
            if g > 1 {
                let group = group_of(b.raw() as usize);
                Box::new(ReplicatedBrokerNode::new(core, group, Arc::clone(&metrics)))
            } else {
                Box::new(BrokerNode::new(core))
            }
        });
        declare(rt, node);
    }
    for b in 0..BROKERS {
        for p in 1..g {
            let host = BrokerId::new(((b + p) % BROKERS) as u32);
            let node = hosted.contains(&host).then(|| -> Box<dyn Node<Message>> {
                Box::new(ReplicaNode::new(group_of(b), p, Arc::clone(&metrics)))
            });
            declare(rt, node);
        }
    }
    for (a, b) in topology.edges() {
        rt.connect(broker_nodes[a.raw() as usize], broker_nodes[b.raw() as usize]);
    }
    for b in 0..BROKERS {
        let group = group_of(b);
        for i in 0..g {
            for k in (i + 1)..g {
                rt.connect(group[i], group[k]);
            }
        }
    }
    Ok(())
}

/// Routing entries of the brokers a process hosted, read off the nodes
/// its runtime returned.
///
/// Replica views are not inspected: whichever process stops second sees
/// the other's orderly shutdown as a dead peer and may start a view
/// change on its way out. A view change *during* the run needs a link
/// failure first, and those are counted before tear-down begins.
fn inspect(nodes: &[Option<Box<dyn Node<Message>>>]) -> Vec<(u32, usize)> {
    let mut tables = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        let Some(any) = node.as_ref().map(|n| n.as_any()) else { continue };
        let core =
            match (any.downcast_ref::<BrokerNode>(), any.downcast_ref::<ReplicatedBrokerNode>()) {
                (Some(b), _) => b.core(),
                (_, Some(b)) => b.core(),
                _ => continue,
            };
        tables.push((i as u32, core.router().entry_count()));
    }
    tables
}

fn link_json(m: &LinkMetrics, panics: u64) -> Json {
    Json::obj([
        ("link_downs", Json::Num(m.link_downs as f64)),
        ("frames_dropped", Json::Num(m.frames_dropped as f64)),
        ("reconnect_attempts", Json::Num(m.reconnect_attempts as f64)),
        ("thread_panics", Json::Num(panics as f64)),
    ])
}

/// The broker process: hosts broker 1 (and its share of backups) over
/// the socket it was handed as standard input, until the parent says stop;
/// then prints one line of JSON about what it saw. Returns the exit code.
pub fn child_main(w: Workload, traced: bool, clock_zero_unix_ns: u128) -> i32 {
    let clock = Clock::aligned_to(clock_zero_unix_ns);
    let sink = traced.then(|| TraceSink::new(clock, hosted_elsewhere(w, true)));
    let socket = match std::io::stdin().as_fd().try_clone_to_owned() {
        Ok(fd) => UnixStream::from(fd),
        Err(e) => {
            eprintln!("bench child: standard input is not a socket: {e}");
            return 2;
        }
    };
    let (_, g) = shape(w);
    let ids = ids(g);
    let mut rt: ProcessRuntime<Message> = ProcessRuntime::new();
    let peer = rt.add_peer(socket);
    if let Err(e) = build_brokers(&mut rt, w, &[BrokerId::new(CHILD_BROKER)], peer, sink.as_ref()) {
        eprintln!("bench child: {e}");
        return 2;
    }
    let publisher = rt.add_remote(peer);
    let probe = rt.add_remote(peer);
    let (tx, rx) = mpsc::channel();
    let agent = rt.add_local(Box::new(Agent::new(tx)));
    assert_eq!((publisher, probe, agent), (ids.publisher, ids.probe, ids.agent));
    rt.connect(publisher, NodeId::new(0));
    rt.connect(probe, NodeId::new(2));
    rt.start();

    let deadline = Instant::now() + CHILD_PATIENCE;
    loop {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(Some(Control::Phase(p))) => {
                if let Some(sink) = &sink {
                    sink.set_phase(p);
                }
            }
            Ok(Some(Control::Stop)) => break,
            Ok(None) | Err(_) => {
                eprintln!("bench child: parent gone or silent; exiting");
                return 3;
            }
        }
    }
    // Our own orderly shutdown makes the peer's reader report the link
    // down: failures are those counted before tear-down starts.
    let link = rt.metrics();
    let handle = rt.metrics_handle();
    let nodes = rt.stop();
    let tables = inspect(&nodes);
    drop(nodes);
    let report = Json::obj([
        (
            "tables",
            Json::Arr(
                tables
                    .iter()
                    .map(|(n, e)| Json::Arr(vec![Json::Num(*n as f64), Json::Num(*e as f64)]))
                    .collect(),
            ),
        ),
        ("link", link_json(&link, handle.snapshot().thread_panics)),
        ("hwm_mib", Json::Num(procfs::hwm_mib(None))),
        ("trace", sink.map_or(Json::Null, |s| s.take().to_json())),
    ]);
    println!("{}", report.render());
    0
}

/// Kills and reaps the child if it is still around when dropped, so a
/// failed run leaves no broker process behind.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None) | Err(_)) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// Failure counters of both processes' link supervisors, summed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkFailures {
    pub link_downs: u64,
    pub frames_dropped: u64,
    pub reconnect_attempts: u64,
    pub thread_panics: u64,
}

impl LinkFailures {
    pub fn total(&self) -> u64 {
        self.link_downs + self.frames_dropped + self.reconnect_attempts + self.thread_panics
    }
}

/// Everything known about a deployment once it has been taken down.
pub struct TierReport {
    pub probe: Observed,
    /// `(broker node, routing entries)`, all three brokers.
    pub tables: Vec<(u32, usize)>,
    pub link: LinkFailures,
    pub child_exit_ok: bool,
    pub child_hwm_mib: f64,
    pub trace: Collected,
}

/// A running deployment, driven from the thread that created it.
pub struct Tier {
    rt: ProcessRuntime<Message>,
    child: ChildGuard,
    ids: Ids,
    pub shared: Arc<Shared>,
    sink: Option<Arc<TraceSink>>,
    next_sub: u32,
    fences: u64,
    fence_subs: Vec<SubscriptionId>,
}

impl Tier {
    /// Spawns the child, connects, declares the node table and starts
    /// both runtimes. Inputs are not installed yet.
    pub fn launch(w: Workload, seed: u64, traced: bool) -> Result<Tier, String> {
        let (clock, zero_unix_ns) = Clock::start();
        let (ours, theirs) = UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .arg("--child")
            .args(["--workload", w.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .args(["--clock-zero", &zero_unix_ns.to_string()])
            .stdin(Stdio::from(OwnedFd::from(theirs)))
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the broker process: {e}"))?;
        let child = ChildGuard(child);

        let sink = traced.then(|| TraceSink::new(clock, hosted_elsewhere(w, false)));
        let (_, g) = shape(w);
        let ids = ids(g);
        let shared = Shared::new(clock, child.0.id());
        shared.generator.set(std::thread::current()).expect("fresh state");
        let mut rt: ProcessRuntime<Message> = ProcessRuntime::new();
        let peer = rt.add_peer(ours);
        let hosted = [BrokerId::new(0), BrokerId::new(2)];
        build_brokers(&mut rt, w, &hosted, peer, sink.as_ref())?;
        let wrap = |node: Box<dyn Node<Message>>, id: NodeId| -> Box<dyn Node<Message>> {
            match &sink {
                Some(sink) => TracedNode::wrap(node, id.raw(), sink),
                None => node,
            }
        };
        let publisher = rt.add_local(wrap(
            Box::new(ClientNode::new(PUBLISHER, Some(NodeId::new(0)))),
            ids.publisher,
        ));
        let probe = rt.add_local(wrap(
            Box::new(Probe::new(PROBE, NodeId::new(2), Arc::clone(&shared))),
            ids.probe,
        ));
        let agent = rt.add_remote(peer);
        assert_eq!((publisher, probe, agent), (ids.publisher, ids.probe, ids.agent));
        rt.connect(publisher, NodeId::new(0));
        rt.connect(probe, NodeId::new(2));
        rt.start();
        Ok(Tier { rt, child, ids, shared, sink, next_sub: 0, fences: 0, fence_subs: Vec::new() })
    }

    /// Fences issued so far.
    pub fn fences(&self) -> u64 {
        self.fences
    }

    pub fn child_pid(&self) -> u32 {
        self.shared.child_pid
    }

    pub fn subscribe(&mut self, filter: Filter) -> SubscriptionId {
        let id = SubscriptionId::new(self.next_sub);
        self.next_sub += 1;
        self.rt.send_external(self.ids.probe, Message::AppSubscribe { id, filter });
        id
    }

    pub fn unsubscribe(&mut self, id: SubscriptionId) {
        self.rt.send_external(self.ids.probe, Message::AppUnsubscribe { id });
    }

    pub fn publish(&self, attrs: NotificationBuilder) {
        self.rt.send_external(self.ids.publisher, Message::AppPublish { attrs });
    }

    /// Tells both processes' tracers which phase handler time belongs to.
    pub fn set_phase(&self, phase: u8) {
        if let Some(sink) = &self.sink {
            sink.set_phase(phase);
            self.rt.send_external(self.ids.agent, Control::Phase(phase).encode());
        }
    }

    /// Subscribes the next fence filter (retiring the one three back, so
    /// the table does not grow) and declares that its confirmation
    /// completes `ops` ops issued at `issued_ns`. Returns its number.
    ///
    /// Mutations travel FIFO through links and op logs, so once a beacon
    /// for this fence comes back, every mutation sent before it is active
    /// at all three brokers.
    pub fn fence(&mut self, ops: u64, issued_ns: u64) -> u64 {
        self.fences += 1;
        if self.fence_subs.len() == 3 {
            let oldest = self.fence_subs.remove(0);
            self.unsubscribe(oldest);
        }
        self.shared.announce_fence(self.fences, ops, issued_ns);
        let id = self.subscribe(gen::fence_filter(self.fences));
        self.fence_subs.push(id);
        self.fences
    }

    pub fn beacon(&self, fence: u64) {
        self.publish(gen::beacon(fence, self.shared.clock.now_ns()));
    }

    /// Readiness: fence, then beacon every 200 µs until it is confirmed.
    ///
    /// Every 50 ms without confirmation another fence is issued. That is
    /// not impatience: a replica group whose two backups were both still
    /// recovering when the primary sent its first `Prepare`s never
    /// acknowledges them, and nothing retransmits a `Prepare` — the group
    /// sits there until the *next* op makes the backups see a gap and
    /// fetch the log. A fresh fence is that next op, for every group on
    /// the path in turn. (Seen in about one set-up in twenty-five of
    /// `churn-repl3`; unreplicated workloads never need it.)
    pub fn settle(&mut self, patience: Duration) -> Result<(), String> {
        const NUDGE: Duration = Duration::from_millis(50);
        let deadline = Instant::now() + patience;
        let mut newest = self.fence(0, self.shared.clock.now_ns());
        let mut nudge_at = Instant::now() + NUDGE;
        loop {
            let confirmed = self.shared.fence_confirmed.load(Ordering::SeqCst);
            if confirmed >= newest {
                return Ok(());
            }
            let now = Instant::now();
            if now > deadline {
                return Err(format!("fence {newest} not confirmed within {patience:?}"));
            }
            if now > nudge_at {
                newest = self.fence(0, self.shared.clock.now_ns());
                nudge_at = now + NUDGE;
            }
            self.beacon(newest);
            let moved = |s: &Shared| s.fence_confirmed.load(Ordering::SeqCst) > confirmed;
            self.shared.park_unless(moved, Duration::from_micros(200));
        }
    }

    /// Stops both processes and collects what they know.
    pub fn finish(mut self) -> Result<TierReport, String> {
        let ours = self.rt.metrics();
        self.rt.send_external(self.ids.agent, Control::Stop.encode());

        // Read the child's report on a helper thread so a wedged child
        // costs REPORT_PATIENCE, not the run.
        let mut stdout = self.child.0.stdout.take().ok_or("child stdout already taken")?;
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = stdout.read_to_string(&mut text);
            let _ = tx.send(text);
        });
        let text = rx.recv_timeout(REPORT_PATIENCE);
        if text.is_err() {
            let _ = self.child.0.kill();
        }
        let status = self.child.0.wait().map_err(|e| format!("reaping the child: {e}"))?;
        reader.join().map_err(|_| "report reader panicked")?;
        let text = text.map_err(|_| "the broker process did not report in time")?;

        let handle = self.rt.metrics_handle();
        let mut nodes = self.rt.stop();
        let our_panics = handle.snapshot().thread_panics;
        let mut tables = inspect(&nodes);
        let probe = nodes[self.ids.probe.raw() as usize]
            .as_mut()
            .and_then(|n| n.as_any_mut().downcast_mut::<Probe>())
            .ok_or("the probe is not where the node table says")?
            .finish();
        drop(nodes);

        let report =
            Json::parse(text.trim()).map_err(|e| format!("child report: {e}: {text:?}"))?;
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        for pair in report.get("tables").and_then(Json::as_arr).unwrap_or(&[]) {
            if let Some([n, e]) = pair.as_arr().map(|p| [p[0].as_f64(), p[1].as_f64()]) {
                tables.push((n.unwrap_or(-1.0) as u32, e.unwrap_or(-1.0) as usize));
            }
        }
        tables.sort_unstable();
        let theirs = report.get("link").ok_or("child report lacks link counters")?;
        let link = LinkFailures {
            link_downs: ours.link_downs + num(theirs, "link_downs") as u64,
            frames_dropped: ours.frames_dropped + num(theirs, "frames_dropped") as u64,
            reconnect_attempts: ours.reconnect_attempts + num(theirs, "reconnect_attempts") as u64,
            thread_panics: our_panics + num(theirs, "thread_panics") as u64,
        };
        let mut trace = self.sink.map(|s| s.take()).unwrap_or_default();
        if let Some(theirs) = report.get("trace").and_then(Collected::from_json) {
            trace.merge(theirs);
        }
        Ok(TierReport {
            probe,
            tables,
            link,
            child_exit_ok: status.success(),
            child_hwm_mib: num(&report, "hwm_mib"),
            trace,
        })
    }
}

/// A deployment that is up, populated and confirmed ready.
pub struct Ready {
    pub tier: Tier,
    /// Spawn to readiness.
    pub took: Duration,
    /// Subscription id of the first of the installed filters; the rest
    /// follow consecutively.
    pub first_filter: u32,
}

/// Launches a deployment and installs `filters`, timed from before the
/// spawn until the readiness fence is confirmed.
///
/// Two fences go round *before* the filters. A replica that is still
/// recovering its (empty) log when ops start to flow drops their
/// `Prepare`s, and later asks for a full state transfer on every gapped
/// `Prepare` it sees until the first answer arrives — with 21 000 ops
/// streaming in, that storm ships the whole log thousands of times and
/// wedges set-up for a minute (seen about once in ten set-ups before
/// this). The first fence proves both processes up and every primary
/// normal; the second makes any straggling backup notice its gap and catch
/// up while the log is three ops long.
pub fn set_up(w: Workload, seed: u64, traced: bool, filters: &[Filter]) -> Result<Ready, String> {
    const PATIENCE: Duration = Duration::from_secs(60);
    let t0 = Instant::now();
    let mut tier = Tier::launch(w, seed, traced)?;
    tier.settle(PATIENCE)?;
    tier.settle(PATIENCE)?;
    let first_filter = tier.next_sub;
    for f in filters {
        tier.subscribe(f.clone());
    }
    tier.settle(PATIENCE)?;
    Ok(Ready { tier, took: t0.elapsed(), first_filter })
}
