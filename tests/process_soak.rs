//! Two-OS-process soak: the same seed-derived publish/subscribe script is
//! driven through the deterministic simulator ([`World`]) and through a
//! [`ProcessRuntime`] split across **two real OS processes** joined by a
//! Unix domain socket, and the delivered mark sets must come out
//! *identical*. Mid-scenario one inter-broker link is dropped and
//! re-established, with a blackout batch published while it is down: those
//! marks must be lost in **both** runtimes (proving the wire path honours
//! the same "unplugged cable" semantics as the simulated link) while every
//! other mark arrives in both, FIFO-clean and duplicate-free. One script
//! driver serves both legs: it waits by sleeping on the process leg and by
//! advancing the simulated clock on the reference leg.
//!
//! A second scenario goes further: the child process is **SIGKILLed**
//! mid-run — no goodbye frame, just a dead socket. The parent's supervised
//! link must notice, drain-and-drop the traffic queued towards the corpse,
//! and (with a [`ReconnectPolicy`] armed) re-accept a respawned
//! generation-2 child on the *same* retained listener. The reborn consumer
//! must then see exactly the post-recovery batch — nothing from the outage
//! replayed, nothing from the recovery lost — with zero FIFO violations,
//! zero duplicates, and zero thread panics on either side.
//!
//! A third scenario arms **replication** (`SystemBuilder::replication(3)`):
//! the SIGKILLed process takes the *primary* of broker 2's replica group
//! with it, and the respawned generation never re-subscribes. The reborn
//! broker must refetch its op log from the group's surviving backups (both
//! parked in the parent process by the placement formula), replay it into a
//! fresh routing table, and deliver the post-recovery batch with zero
//! misses — crash recovery without client re-subscription.
//!
//! The child processes are this very test binary re-executed with
//! `--exact <child test>` and role/seed/socket environment variables — the
//! same trick `examples/live_processes.rs` uses. On any failure the master
//! seed is printed so the run reproduces with:
//!
//! ```text
//! REBECA_SOAK_SEED=<seed> cargo test --release --test process_soak
//! ```

use rebeca::broker::{BrokerCore, BrokerNode, ClientNode, Message, RoutingStrategy};
use rebeca::net::{
    LinkConfig, LinkMetrics, NodeId, ProcessRuntime, ReconnectPolicy, SplitMix64, Topology, World,
};
use rebeca::{
    BrokerId, ClientId, Filter, Notification, SimDuration, SubscriptionId, SystemBuilder,
};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const ROLE_ENV: &str = "REBECA_PROCESS_SOAK_ROLE";
const SOCK_ENV: &str = "REBECA_PROCESS_SOAK_SOCK";
const SEED_ENV: &str = "REBECA_PROCESS_SOAK_SEED";

/// Global node table, identical in every runtime and every process:
/// 0..=2 = brokers on a line, 3 = publisher (at broker 0),
/// 4 = consumer A (at broker 2, threshold filter),
/// 5 = consumer B (at broker 1, service filter).
const BROKERS: usize = 3;
const PUBLISHER: NodeId = NodeId::new(3);
const CONSUMER_A: NodeId = NodeId::new(4);
const CONSUMER_B: NodeId = NodeId::new(5);

/// The seed-derived script both runtimes replay. Batch 1 and batch 2 flow
/// while all links are up; the blackout batch is published while the
/// broker 1 – broker 2 link is down, so consumer A (behind that link) must
/// never see it — in either runtime.
struct Script {
    /// Consumer A subscribes to `mark > threshold`.
    threshold: i64,
    batch1: Vec<i64>,
    blackout: Vec<i64>,
    batch2: Vec<i64>,
}

impl Script {
    fn derive(seed: u64) -> Script {
        let mut rng = SplitMix64::new(seed);
        let threshold = (rng.next_u64() % 8) as i64; // 0..=7
        let n1 = 10 + (rng.next_u64() % 8) as i64; // 10..=17
        let n2 = 10 + (rng.next_u64() % 8) as i64;
        Script {
            threshold,
            batch1: (0..n1).collect(),
            blackout: (1000..1003).collect(),
            batch2: (100..100 + n2).collect(),
        }
    }

    /// Marks consumer A must end up with: both live batches above the
    /// threshold, and nothing from the blackout.
    fn expected_a(&self) -> BTreeSet<i64> {
        self.batch1.iter().chain(&self.batch2).copied().filter(|m| *m > self.threshold).collect()
    }

    /// Marks consumer B must end up with: everything, including the
    /// blackout batch (its broker sits on the live side of the cut).
    fn expected_b(&self) -> BTreeSet<i64> {
        self.batch1.iter().chain(&self.blackout).chain(&self.batch2).copied().collect()
    }

    fn filter_a(&self) -> Filter {
        Filter::builder().eq("service", "soak").gt("mark", self.threshold).build()
    }

    fn filter_b(&self) -> Filter {
        Filter::builder().eq("service", "soak").build()
    }
}

/// Publishes `marks` from `publisher`, waiting 5 ms after each: `wait` is
/// `std::thread::sleep` on a live runtime and a clock advance on the
/// simulator.
fn publish_at(
    send: &impl Fn(NodeId, Message),
    wait: &impl Fn(Duration),
    publisher: NodeId,
    marks: &[i64],
) {
    for &m in marks {
        send(
            publisher,
            Message::AppPublish {
                attrs: Notification::builder().attr("service", "soak").attr("mark", m),
            },
        );
        wait(Duration::from_millis(5));
    }
}

fn publish(send: &impl Fn(NodeId, Message), wait: &impl Fn(Duration), marks: &[i64]) {
    publish_at(send, wait, PUBLISHER, marks);
}

/// What one consumer saw, comparable across runtimes.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    marks: BTreeSet<i64>,
    fifo_violations: u64,
    duplicates: u64,
}

fn observe(client: &ClientNode) -> Observed {
    Observed {
        marks: client
            .local()
            .delivered()
            .iter()
            .filter_map(|r| r.notification.get("mark").and_then(|v| v.as_int()))
            .collect(),
        fifo_violations: client.local().fifo_violations(),
        duplicates: client.local().duplicates(),
    }
}

/// Polls `cond` every few milliseconds until it holds or `timeout`
/// elapses; returns whether it ever held.
fn wait_until(timeout: Duration, cond: impl Fn() -> bool) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    while std::time::Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// Extracts the value after `key` from a child process's stdout report.
/// libtest prints `test <name> ... ` without a trailing newline, so the
/// first report key lands mid-line.
fn child_field(stdout: &str, key: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.split_once(key).map(|(_, rest)| rest))
        .unwrap_or_else(|| panic!("child printed no `{key}` line; stdout:\n{stdout}"))
        .trim()
        .to_string()
}

/// Parses the `SOAK-A-*` report lines a child prints before exiting.
fn child_observed(stdout: &str) -> Observed {
    Observed {
        marks: child_field(stdout, "SOAK-A-MARKS:")
            .split_whitespace()
            .map(|m| m.parse().expect("mark"))
            .collect(),
        fifo_violations: child_field(stdout, "SOAK-A-FIFO:").parse().expect("fifo count"),
        duplicates: child_field(stdout, "SOAK-A-DUP:").parse().expect("duplicate count"),
    }
}

/// Builds the child half of the deployment: broker 2 and consumer A,
/// dialling the parent's socket; the publisher and consumer B are remote
/// stubs behind the link. Shared by every child role in this file.
fn child_runtime(sock: &std::path::Path, dial_timeout: Duration) -> ProcessRuntime<Message> {
    let mut rt: ProcessRuntime<Message> = ProcessRuntime::new();
    let peer = rt.dial_uds(sock, dial_timeout).expect("dial parent process");
    let builder = SystemBuilder::new(Topology::line(BROKERS).expect("non-empty"))
        .strategy(RoutingStrategy::Simple);
    builder
        .build_process_partition(&mut rt, &[BrokerId::new(2)], |_| Some(peer))
        .expect("deploy child partition");
    rt.add_remote(peer); // publisher lives in the parent
    rt.add_local(Box::new(ClientNode::new(ClientId::new(2), Some(NodeId::new(2)))));
    rt.add_remote(peer); // consumer B lives in the parent
    rt.connect(PUBLISHER, NodeId::new(0));
    rt.connect(CONSUMER_A, NodeId::new(2));
    rt.connect(CONSUMER_B, NodeId::new(1));
    rt
}

/// Drives the script's publish/link timeline. `set_link` flips the
/// broker 1 – broker 2 link in whichever runtime is hosting the scenario,
/// and `wait` lets that runtime's time pass.
fn drive(
    script: &Script,
    send: impl Fn(NodeId, Message),
    set_link: impl Fn(bool),
    wait: impl Fn(Duration),
) {
    // Subscriptions (consumer A's is issued by whichever process hosts it)
    // get a beat to flood every routing table before the first publish.
    wait(Duration::from_millis(800));
    publish(&send, &wait, &script.batch1);
    wait(Duration::from_millis(400));

    // Link drop: broker 1 stops being able to reach broker 2, so the
    // blackout batch dead-ends at broker 1 and consumer A never sees it.
    set_link(false);
    wait(Duration::from_millis(300));
    publish(&send, &wait, &script.blackout);
    wait(Duration::from_millis(300));

    // Reconnect — for the process runtime this is the "one more link
    // re-establishment" path — and finish with a second live batch.
    set_link(true);
    wait(Duration::from_millis(300));
    publish(&send, &wait, &script.batch2);
    wait(Duration::from_millis(600));
}

/// The whole scenario on the deterministic simulator: the same six nodes
/// and script in one [`World`] with 1 ms constant links. Waiting advances
/// the simulated clock, so this leg never sleeps.
fn run_simulated(script: &Script) -> (Observed, Observed) {
    let topology = Arc::new(Topology::line(BROKERS).expect("non-empty"));
    let broker_nodes: Arc<Vec<NodeId>> = Arc::new((0..BROKERS as u32).map(NodeId::new).collect());

    let mut world: World<Message> = World::new(0);
    for b in topology.brokers() {
        let core = BrokerCore::new(
            b,
            Arc::clone(&topology),
            Arc::clone(&broker_nodes),
            RoutingStrategy::Simple,
        );
        world.add_node(Box::new(BrokerNode::new(core)));
    }
    world.add_node(Box::new(ClientNode::new(ClientId::new(1), Some(NodeId::new(0)))));
    world.add_node(Box::new(ClientNode::new(ClientId::new(2), Some(NodeId::new(2)))));
    world.add_node(Box::new(ClientNode::new(ClientId::new(3), Some(NodeId::new(1)))));

    let link = LinkConfig::constant(SimDuration::from_millis(1));
    for (a, b) in topology.edges() {
        world.connect(NodeId::new(a.raw()), NodeId::new(b.raw()), link.clone());
    }
    world.connect(PUBLISHER, NodeId::new(0), link.clone());
    world.connect(CONSUMER_A, NodeId::new(2), link.clone());
    world.connect(CONSUMER_B, NodeId::new(1), link);

    let world = RefCell::new(world);
    let wait = |d: Duration| {
        let mut w = world.borrow_mut();
        let until = w.now() + SimDuration::from_micros(d.as_micros() as u64);
        w.run_until(until);
    };
    wait(Duration::from_millis(100));
    world.borrow_mut().send_external(
        CONSUMER_A,
        Message::AppSubscribe { id: SubscriptionId::new(1), filter: script.filter_a() },
    );
    world.borrow_mut().send_external(
        CONSUMER_B,
        Message::AppSubscribe { id: SubscriptionId::new(2), filter: script.filter_b() },
    );
    drive(
        script,
        |to, msg| world.borrow_mut().send_external(to, msg),
        |up| {
            world.borrow_mut().set_link_up(NodeId::new(1), NodeId::new(2), up);
        },
        wait,
    );

    let world = world.into_inner();
    let client = |id: NodeId| world.node_as::<ClientNode>(id).expect("client node");
    (observe(client(CONSUMER_A)), observe(client(CONSUMER_B)))
}

/// The same scenario split across two OS processes: the parent hosts
/// brokers 0–1, the publisher, and consumer B; the re-executed child hosts
/// broker 2 and consumer A on the far side of a Unix domain socket. The
/// dropped-and-restored link is exactly the one whose traffic crosses the
/// socket.
fn run_two_processes(script: &Script, seed: u64) -> (Observed, Observed) {
    let sock =
        std::env::temp_dir().join(format!("rebeca-process-soak-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);

    let exe = std::env::current_exe().expect("current_exe");
    let child = std::process::Command::new(exe)
        .args(["process_soak_child", "--exact", "--nocapture"])
        .env(ROLE_ENV, "child")
        .env(SOCK_ENV, &sock)
        .env(SEED_ENV, seed.to_string())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn child process");

    let mut rt: ProcessRuntime<Message> = ProcessRuntime::new();
    let peer = rt.listen_uds(&sock).expect("accept child process");
    let builder = SystemBuilder::new(Topology::line(BROKERS).expect("non-empty"))
        .strategy(RoutingStrategy::Simple);
    builder
        .build_process_partition(&mut rt, &[BrokerId::new(0), BrokerId::new(1)], |_| Some(peer))
        .expect("deploy parent partition");
    rt.add_local(Box::new(ClientNode::new(ClientId::new(1), Some(NodeId::new(0)))));
    rt.add_remote(peer); // consumer A lives in the child
    rt.add_local(Box::new(ClientNode::new(ClientId::new(3), Some(NodeId::new(1)))));
    rt.connect(PUBLISHER, NodeId::new(0));
    rt.connect(CONSUMER_A, NodeId::new(2));
    rt.connect(CONSUMER_B, NodeId::new(1));
    let metrics = rt.metrics_handle();
    rt.start();

    std::thread::sleep(Duration::from_millis(100));
    rt.send_external(
        CONSUMER_B,
        Message::AppSubscribe { id: SubscriptionId::new(2), filter: script.filter_b() },
    );

    drive(
        script,
        |to, msg| rt.send_external(to, msg),
        |up| rt.set_link_up(NodeId::new(1), NodeId::new(2), up),
        std::thread::sleep,
    );

    // The child sleeps out its fixed schedule, prints what consumer A saw,
    // and exits; its stdout is the cross-process report channel.
    let out = child.wait_with_output().expect("wait for child process");
    let nodes = rt.stop();
    let _ = std::fs::remove_file(&sock);
    assert!(out.status.success(), "child process failed");
    assert_eq!(metrics.snapshot().thread_panics, 0, "parent link threads must never panic");

    let stdout = String::from_utf8_lossy(&out.stdout);
    let a = child_observed(&stdout);

    let b_node = nodes[CONSUMER_B.raw() as usize]
        .as_ref()
        .expect("consumer B is local to the parent")
        .as_any()
        .downcast_ref::<ClientNode>()
        .expect("client node");
    (a, observe(b_node))
}

/// Child-process half of [`run_two_processes`]: a no-op under a normal
/// test run (the role variable is absent), the broker-2 host when
/// re-executed by the parent.
#[test]
fn process_soak_child() {
    if std::env::var(ROLE_ENV).as_deref() != Ok("child") {
        return;
    }
    let sock = PathBuf::from(std::env::var(SOCK_ENV).expect("socket path env"));
    let seed: u64 = std::env::var(SEED_ENV).expect("seed env").parse().expect("seed");
    let script = Script::derive(seed);

    let mut rt = child_runtime(&sock, Duration::from_secs(10));
    let metrics = rt.metrics_handle();
    rt.start();

    std::thread::sleep(Duration::from_millis(100));
    rt.send_external(
        CONSUMER_A,
        Message::AppSubscribe { id: SubscriptionId::new(1), filter: script.filter_a() },
    );

    // Sleep past the parent's whole publish/link timeline (about 3.2 s of
    // driving plus margin), then report.
    std::thread::sleep(Duration::from_millis(4500));
    let nodes = rt.stop();
    assert_eq!(metrics.snapshot().thread_panics, 0, "child link threads must never panic");
    let client = nodes[CONSUMER_A.raw() as usize]
        .as_ref()
        .expect("consumer A is local to the child")
        .as_any()
        .downcast_ref::<ClientNode>()
        .expect("client node");
    let seen = observe(client);
    let marks: Vec<String> = seen.marks.iter().map(|m| m.to_string()).collect();
    println!("SOAK-A-MARKS: {}", marks.join(" "));
    println!("SOAK-A-FIFO: {}", seen.fifo_violations);
    println!("SOAK-A-DUP: {}", seen.duplicates);
}

#[test]
fn process_runtime_is_delivery_identical_to_the_simulator() {
    if std::env::var(ROLE_ENV).is_ok() {
        return; // never recurse inside a child re-execution
    }
    let seed: u64 = match std::env::var("REBECA_SOAK_SEED") {
        Ok(s) => s.parse().expect("REBECA_SOAK_SEED must be a u64"),
        Err(_) => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos() as u64,
    };
    println!("process soak master seed: {seed}");

    let result = std::panic::catch_unwind(|| {
        let script = Script::derive(seed);
        let (sim_a, sim_b) = run_simulated(&script);
        let (proc_a, proc_b) = run_two_processes(&script, seed);

        // Non-vacuous: the blackout batch matched consumer A's filter, so
        // only the link drop explains its absence.
        assert!(script.blackout.iter().all(|m| *m > script.threshold));
        assert!(!sim_a.marks.is_empty(), "consumer A saw nothing at all");

        for (label, seen) in [
            ("simulated A", &sim_a),
            ("simulated B", &sim_b),
            ("process A", &proc_a),
            ("process B", &proc_b),
        ] {
            assert_eq!(seen.fifo_violations, 0, "{label}: FIFO violated");
            assert_eq!(seen.duplicates, 0, "{label}: duplicate deliveries");
        }
        assert_eq!(sim_a.marks, script.expected_a(), "simulated A vs oracle");
        assert_eq!(sim_b.marks, script.expected_b(), "simulated B vs oracle");
        assert_eq!(proc_a, sim_a, "consumer A: two processes vs the simulator");
        assert_eq!(proc_b, sim_b, "consumer B: two processes vs the simulator");
    });
    if let Err(panic) = result {
        eprintln!("\nprocess soak FAILED under master seed {seed}");
        eprintln!(
            "reproduce with: REBECA_SOAK_SEED={seed} cargo test --release --test process_soak\n"
        );
        std::panic::resume_unwind(panic);
    }
}

// ---------------------------------------------------------------------------
// Kill/recover soak: SIGKILL one broker process mid-scenario, respawn it,
// and prove the supervised link heals with zero loss, zero replay.
// ---------------------------------------------------------------------------

/// The seed-derived script for the kill/recover soak. Batch 1 flows while
/// generation 1 of the child is alive; the kill window is published after
/// it has been SIGKILLed (those marks match consumer A's filter, so only
/// the supervisor's drain-and-drop explains their absence from the reborn
/// consumer); batch 2 flows once generation 2 has been re-accepted.
struct KillScript {
    /// Consumer A subscribes to `mark > threshold` in every generation.
    threshold: i64,
    batch1: Vec<i64>,
    kill_window: Vec<i64>,
    batch2: Vec<i64>,
}

impl KillScript {
    fn derive(seed: u64) -> KillScript {
        let mut rng = SplitMix64::new(seed ^ 0x6b69_6c6c); // "kill"
        let threshold = (rng.next_u64() % 8) as i64; // 0..=7
        let n1 = 10 + (rng.next_u64() % 8) as i64; // 10..=17
        let n2 = 10 + (rng.next_u64() % 8) as i64;
        KillScript {
            threshold,
            batch1: (0..n1).collect(),
            kill_window: (1000..1004).collect(),
            batch2: (2000..2000 + n2).collect(),
        }
    }

    /// Marks the *reborn* consumer A must end up with: exactly batch 2.
    /// Batch 1 died with generation 1; the kill-window marks must have
    /// been drained-and-dropped, never replayed onto the fresh connection.
    fn expected_a_reborn(&self) -> BTreeSet<i64> {
        self.batch2.iter().copied().filter(|m| *m > self.threshold).collect()
    }

    /// Consumer B sits in the surviving parent and must see everything —
    /// the kill only ever severs the road to broker 2.
    fn expected_b(&self) -> BTreeSet<i64> {
        self.batch1.iter().chain(&self.kill_window).chain(&self.batch2).copied().collect()
    }

    fn filter_a(&self) -> Filter {
        Filter::builder().eq("service", "soak").gt("mark", self.threshold).build()
    }

    fn filter_b(&self) -> Filter {
        Filter::builder().eq("service", "soak").build()
    }
}

/// Parent half of the kill/recover soak. Hosts brokers 0–1, the publisher
/// and consumer B behind a retained listener with a [`ReconnectPolicy`]
/// armed; SIGKILLs the generation-1 child mid-scenario, respawns it, and
/// returns what the reborn consumer A saw, its thread-panic count, the
/// parent's link metrics, and what consumer B saw.
fn run_kill_recover(script: &KillScript, seed: u64) -> (Observed, u64, LinkMetrics, Observed) {
    let sock = std::env::temp_dir().join(format!("rebeca-kill-soak-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);

    let exe = std::env::current_exe().expect("current_exe");
    let spawn_child = |generation: &str| {
        std::process::Command::new(&exe)
            .args(["kill_recover_child", "--exact", "--nocapture"])
            .env(ROLE_ENV, generation)
            .env(SOCK_ENV, &sock)
            .env(SEED_ENV, seed.to_string())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn child process")
    };
    let mut gen1 = spawn_child("kill-gen1");

    let mut rt: ProcessRuntime<Message> = ProcessRuntime::new();
    let peer = rt.listen_uds(&sock).expect("accept generation-1 child");
    let builder = SystemBuilder::new(Topology::line(BROKERS).expect("non-empty"))
        .strategy(RoutingStrategy::Simple)
        .reconnect_policy(ReconnectPolicy {
            initial: Duration::from_millis(10),
            max: Duration::from_millis(100),
            jitter: 0.2,
            max_attempts: 600,
        });
    builder
        .build_process_partition(&mut rt, &[BrokerId::new(0), BrokerId::new(1)], |_| Some(peer))
        .expect("deploy parent partition");
    rt.add_local(Box::new(ClientNode::new(ClientId::new(1), Some(NodeId::new(0)))));
    rt.add_remote(peer); // consumer A lives in the child
    rt.add_local(Box::new(ClientNode::new(ClientId::new(3), Some(NodeId::new(1)))));
    rt.connect(PUBLISHER, NodeId::new(0));
    rt.connect(CONSUMER_A, NodeId::new(2));
    rt.connect(CONSUMER_B, NodeId::new(1));
    let metrics = rt.metrics_handle();
    rt.start();

    std::thread::sleep(Duration::from_millis(100));
    rt.send_external(
        CONSUMER_B,
        Message::AppSubscribe { id: SubscriptionId::new(2), filter: script.filter_b() },
    );
    let send = |to, msg| rt.send_external(to, msg);

    // Generation 1 subscribes right after dialling; give the routing
    // tables a beat to flood, then publish the first live batch.
    std::thread::sleep(Duration::from_millis(800));
    publish(&send, &std::thread::sleep, &script.batch1);
    std::thread::sleep(Duration::from_millis(300));

    // SIGKILL broker 2's process mid-scenario: no goodbye frame, no flush
    // — the parent's reader sees a raw EOF on the next read.
    gen1.kill().expect("SIGKILL generation-1 child");
    let _ = gen1.wait(); // reap; it died by signal, so no status assert
    assert!(
        wait_until(Duration::from_secs(10), || !rt.peer_status(peer).up),
        "parent never noticed the SIGKILL"
    );

    // Published into the outage: drained-and-dropped towards the corpse,
    // still delivered to the parent-local consumer B.
    publish(&send, &std::thread::sleep, &script.kill_window);

    // Rebirth: generation 2 dials the same path; the supervisor re-accepts
    // on the retained listener and replays the handshake.
    let gen2 = spawn_child("kill-gen2");
    assert!(
        wait_until(Duration::from_secs(20), || {
            let st = rt.peer_status(peer);
            st.up && st.restarts >= 1
        }),
        "link never healed after the respawn"
    );

    // Generation 2's re-subscription floods the routing tables again, then
    // the post-recovery batch rides the fresh connection.
    std::thread::sleep(Duration::from_millis(800));
    publish(&send, &std::thread::sleep, &script.batch2);
    std::thread::sleep(Duration::from_millis(600));

    let out = gen2.wait_with_output().expect("wait for generation-2 child");
    let nodes = rt.stop();
    let _ = std::fs::remove_file(&sock);
    assert!(out.status.success(), "generation-2 child failed");

    let stdout = String::from_utf8_lossy(&out.stdout);
    let a = child_observed(&stdout);
    let a_panics: u64 = child_field(&stdout, "SOAK-A-PANICS:").parse().expect("panic count");

    let b_node = nodes[CONSUMER_B.raw() as usize]
        .as_ref()
        .expect("consumer B is local to the parent")
        .as_any()
        .downcast_ref::<ClientNode>()
        .expect("client node");
    (a, a_panics, metrics.snapshot(), observe(b_node))
}

/// Child-process half of the kill/recover soak: a no-op under a normal
/// test run. Generation 1 subscribes and then idles until the parent
/// SIGKILLs it; generation 2 dials the same socket, re-subscribes, and
/// reports what the reborn consumer A saw.
#[test]
fn kill_recover_child() {
    let role = std::env::var(ROLE_ENV).unwrap_or_default();
    if role != "kill-gen1" && role != "kill-gen2" {
        return;
    }
    let sock = PathBuf::from(std::env::var(SOCK_ENV).expect("socket path env"));
    let seed: u64 = std::env::var(SEED_ENV).expect("seed env").parse().expect("seed");
    let script = KillScript::derive(seed);

    let mut rt = child_runtime(&sock, Duration::from_secs(15));
    let metrics = rt.metrics_handle();
    rt.start();
    std::thread::sleep(Duration::from_millis(100));
    rt.send_external(
        CONSUMER_A,
        Message::AppSubscribe { id: SubscriptionId::new(1), filter: script.filter_a() },
    );

    if role == "kill-gen1" {
        // Nothing to report: this generation exists to be SIGKILLed. Idle
        // far past the scenario; the parent reaps us long before this.
        std::thread::sleep(Duration::from_secs(600));
        rt.stop();
        return;
    }

    // Generation 2: the parent publishes the post-recovery batch only
    // after it has watched the link heal, so a generous fixed sleep is
    // race-free. Then report, including our own thread hygiene.
    std::thread::sleep(Duration::from_millis(5000));
    let nodes = rt.stop();
    let client = nodes[CONSUMER_A.raw() as usize]
        .as_ref()
        .expect("consumer A is local to the child")
        .as_any()
        .downcast_ref::<ClientNode>()
        .expect("client node");
    let seen = observe(client);
    let marks: Vec<String> = seen.marks.iter().map(|m| m.to_string()).collect();
    println!("SOAK-A-MARKS: {}", marks.join(" "));
    println!("SOAK-A-FIFO: {}", seen.fifo_violations);
    println!("SOAK-A-DUP: {}", seen.duplicates);
    println!("SOAK-A-PANICS: {}", metrics.snapshot().thread_panics);
}

#[test]
fn killed_broker_process_recovers_with_zero_loss() {
    if std::env::var(ROLE_ENV).is_ok() {
        return; // never recurse inside a child re-execution
    }
    let seed: u64 = match std::env::var("REBECA_SOAK_SEED") {
        Ok(s) => s.parse().expect("REBECA_SOAK_SEED must be a u64"),
        Err(_) => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos() as u64,
    };
    println!("kill/recover soak master seed: {seed}");

    let result = std::panic::catch_unwind(|| {
        let script = KillScript::derive(seed);
        let (a, a_panics, metrics, b) = run_kill_recover(&script, seed);

        // Non-vacuous: every kill-window mark matched consumer A's filter,
        // so only the drain-and-drop explains its absence below.
        assert!(script.kill_window.iter().all(|m| *m > script.threshold));
        assert!(!a.marks.is_empty(), "the reborn consumer A saw nothing at all");

        assert_eq!(a.marks, script.expected_a_reborn(), "reborn consumer A vs oracle");
        assert_eq!(a.fifo_violations, 0, "reborn consumer A: FIFO violated");
        assert_eq!(a.duplicates, 0, "reborn consumer A: duplicate deliveries");
        assert_eq!(b.marks, script.expected_b(), "consumer B vs oracle");
        assert_eq!(b.fifo_violations, 0, "consumer B: FIFO violated");
        assert_eq!(b.duplicates, 0, "consumer B: duplicate deliveries");

        assert!(metrics.link_downs >= 1, "the SIGKILL must register as a link down");
        assert!(metrics.link_restarts >= 1, "the respawn must register as a link restart");
        assert_eq!(metrics.thread_panics, 0, "parent link threads must never panic");
        assert_eq!(a_panics, 0, "generation-2 link threads must never panic");
    });
    if let Err(panic) = result {
        eprintln!("\nkill/recover soak FAILED under master seed {seed}");
        eprintln!(
            "reproduce with: REBECA_SOAK_SEED={seed} cargo test --release --test process_soak\n"
        );
        std::panic::resume_unwind(panic);
    }
}

// ---------------------------------------------------------------------------
// Replicated kill/recover soak: SIGKILL the *primary* of a 3-replica group
// mid-scenario, respawn it, and prove the reborn process rebuilds its
// routing table from its replica group — zero miss rate without any client
// re-subscribing.
// ---------------------------------------------------------------------------

use rebeca::broker::replication::ReplicatedBrokerNode;

/// Replica-group size for the replicated soak: every broker's op log lives
/// on the broker plus two backups, each placed in the *other* process.
const R_GROUP: usize = 3;

/// Global node table with `.replication(3)` on 3 brokers: 0..=2 brokers,
/// 3..=8 log backups (two per broker, allocated by the facade right after
/// the brokers), then the clients.
const R_PUBLISHER: NodeId = NodeId::new(9);
const R_CONSUMER_A: NodeId = NodeId::new(10);
const R_CONSUMER_B: NodeId = NodeId::new(11);

/// Pre-kill churn at consumer A: this many re-subscription cycles, of which
/// the last few filters stay live. None of them matches a soak mark; they
/// exist so that broker 2's group has *folded* hundreds of ops into its
/// checkpoint by the time its primary is killed.
const R_CHURN_CYCLES: u32 = 400;
const R_CHURN_KEEP: u32 = 5;

/// Broker 2's routing table just before the kill: consumer A's filter,
/// consumer B's (simple routing announces it down the whole line) and the
/// churn's survivors.
const R_PRE_KILL_TABLE: usize = 2 + R_CHURN_KEEP as usize;

fn churn_filter(step: u32) -> Filter {
    Filter::builder().eq("service", "churn").eq("step", i64::from(step)).build()
}

/// Builds the child half of the replicated deployment: broker 2 (primary
/// of its group), the backups the placement formula co-hosts with it
/// (one each for brokers 0 and 1), and consumer A.
fn replicated_child_runtime(
    sock: &std::path::Path,
    dial_timeout: Duration,
) -> ProcessRuntime<Message> {
    let mut rt: ProcessRuntime<Message> = ProcessRuntime::new();
    let peer = rt.dial_uds(sock, dial_timeout).expect("dial parent process");
    let builder = SystemBuilder::new(Topology::line(BROKERS).expect("non-empty"))
        .strategy(RoutingStrategy::Simple)
        .replication(R_GROUP);
    builder
        .build_process_partition(&mut rt, &[BrokerId::new(2)], |_| Some(peer))
        .expect("deploy child partition");
    rt.add_remote(peer); // publisher lives in the parent
    rt.add_local(Box::new(ClientNode::new(ClientId::new(2), Some(NodeId::new(2)))));
    rt.add_remote(peer); // consumer B lives in the parent
    rt.connect(R_PUBLISHER, NodeId::new(0));
    rt.connect(R_CONSUMER_A, NodeId::new(2));
    rt.connect(R_CONSUMER_B, NodeId::new(1));
    rt
}

/// Builds the parent half of the replicated deployment once the child is
/// spawned: accepts it on `sock`, hosts brokers 0–1 (primaries of their
/// groups), the backups co-hosted with them (both of broker 2's among
/// them), the publisher and consumer B.
fn replicated_parent_runtime(
    sock: &std::path::Path,
    reconnect: Option<ReconnectPolicy>,
) -> (ProcessRuntime<Message>, rebeca::net::PeerId) {
    let mut rt: ProcessRuntime<Message> = ProcessRuntime::new();
    let peer = rt.listen_uds(sock).expect("accept child process");
    let mut builder = SystemBuilder::new(Topology::line(BROKERS).expect("non-empty"))
        .strategy(RoutingStrategy::Simple)
        .replication(R_GROUP);
    if let Some(policy) = reconnect {
        builder = builder.reconnect_policy(policy);
    }
    builder
        .build_process_partition(&mut rt, &[BrokerId::new(0), BrokerId::new(1)], |_| Some(peer))
        .expect("deploy parent partition");
    rt.add_local(Box::new(ClientNode::new(ClientId::new(1), Some(NodeId::new(0)))));
    rt.add_remote(peer); // consumer A lives in the child
    rt.add_local(Box::new(ClientNode::new(ClientId::new(3), Some(NodeId::new(1)))));
    rt.connect(R_PUBLISHER, NodeId::new(0));
    rt.connect(R_CONSUMER_A, NodeId::new(2));
    rt.connect(R_CONSUMER_B, NodeId::new(1));
    (rt, peer)
}

/// Parent half of the replicated kill/recover soak. Hosts brokers 0–1 and
/// broker 2's two log backups; SIGKILLs the generation-1 child (taking
/// broker 2's group primary with it), publishes into the outage, respawns,
/// and returns what the reborn consumer A saw, its panic count, broker 2's
/// recovered routing-table size, the parent's link metrics, consumer B, and
/// `(checkpoint base, resident ops)` of each of broker 2's log backups.
fn run_replicated_kill_recover(
    script: &KillScript,
    seed: u64,
) -> (Observed, u64, usize, LinkMetrics, Observed, Vec<(u64, usize)>) {
    let sock = std::env::temp_dir().join(format!("rebeca-repl-soak-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);

    let exe = std::env::current_exe().expect("current_exe");
    let spawn_child = |generation: &str| {
        std::process::Command::new(&exe)
            .args(["replicated_kill_recover_child", "--exact", "--nocapture"])
            .env(ROLE_ENV, generation)
            .env(SOCK_ENV, &sock)
            .env(SEED_ENV, seed.to_string())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn child process")
    };
    let mut gen1 = spawn_child("repl-gen1");

    let (mut rt, peer) = replicated_parent_runtime(
        &sock,
        Some(ReconnectPolicy {
            initial: Duration::from_millis(10),
            max: Duration::from_millis(100),
            jitter: 0.2,
            max_attempts: 600,
        }),
    );
    let metrics = rt.metrics_handle();
    rt.start();

    std::thread::sleep(Duration::from_millis(100));
    rt.send_external(
        R_CONSUMER_B,
        Message::AppSubscribe { id: SubscriptionId::new(2), filter: script.filter_b() },
    );
    let send = |to, msg| rt.send_external(to, msg);

    // Generation 1's subscription and its churn flood the routing tables
    // *and* commit into broker 2's replica group (its two backups live
    // right here in the parent, folding as they go). Then the first live
    // batch flows.
    std::thread::sleep(Duration::from_millis(800));
    publish_at(&send, &std::thread::sleep, R_PUBLISHER, &script.batch1);
    std::thread::sleep(Duration::from_millis(300));

    // SIGKILL the group primary: broker 2's process dies with no goodbye
    // frame. Its backups keep the committed log; the parent's supervisor
    // sees the dead socket.
    gen1.kill().expect("SIGKILL generation-1 child");
    let _ = gen1.wait(); // reap; it died by signal, so no status assert
    assert!(
        wait_until(Duration::from_secs(10), || !rt.peer_status(peer).up),
        "parent never noticed the SIGKILL"
    );

    // Published into the outage: dead-ends at broker 1, still delivered to
    // the parent-local consumer B.
    publish_at(&send, &std::thread::sleep, R_PUBLISHER, &script.kill_window);

    // Rebirth. Generation 2 dials the same path and — crucially — never
    // re-subscribes: broker 2 must refetch its state from the group.
    let gen2 = spawn_child("repl-gen2");
    assert!(
        wait_until(Duration::from_secs(20), || {
            let st = rt.peer_status(peer);
            st.up && st.restarts >= 1
        }),
        "link never healed after the respawn"
    );

    // Broker 2's recovery probe round and log replay ride the healed link
    // (retransmitted every replica tick, so one lost probe cannot wedge
    // it); no client traffic is needed. Then the post-recovery batch.
    std::thread::sleep(Duration::from_millis(800));
    publish_at(&send, &std::thread::sleep, R_PUBLISHER, &script.batch2);
    std::thread::sleep(Duration::from_millis(600));

    let out = gen2.wait_with_output().expect("wait for generation-2 child");
    let nodes = rt.stop();
    let _ = std::fs::remove_file(&sock);
    assert!(out.status.success(), "generation-2 child failed");

    let stdout = String::from_utf8_lossy(&out.stdout);
    let a = child_observed(&stdout);
    let a_panics: u64 = child_field(&stdout, "SOAK-A-PANICS:").parse().expect("panic count");
    let table: usize = child_field(&stdout, "SOAK-TABLE:").parse().expect("table size");

    let b_node = nodes[R_CONSUMER_B.raw() as usize]
        .as_ref()
        .expect("consumer B is local to the parent")
        .as_any()
        .downcast_ref::<ClientNode>()
        .expect("client node");
    let backups_of_2 = nodes
        .iter()
        .flatten()
        .filter_map(|n| n.as_any().downcast_ref::<rebeca::broker::replication::ReplicaNode>())
        .filter(|b| b.replica().config().group[0] == NodeId::new(2))
        .map(|b| (b.replica().log().base(), b.replica().log().resident()))
        .collect();
    (a, a_panics, table, metrics.snapshot(), observe(b_node), backups_of_2)
}

/// Child-process half of the replicated soak: a no-op under a normal test
/// run. Generation 1 subscribes and idles until SIGKILLed; generation 2
/// dials the same socket and **does not subscribe** — if the reborn
/// broker 2 fails to recover consumer A's subscription from its replica
/// group, the post-recovery batch simply never arrives.
#[test]
fn replicated_kill_recover_child() {
    let role = std::env::var(ROLE_ENV).unwrap_or_default();
    if role != "repl-gen1" && role != "repl-gen2" {
        return;
    }
    let sock = PathBuf::from(std::env::var(SOCK_ENV).expect("socket path env"));
    let seed: u64 = std::env::var(SEED_ENV).expect("seed env").parse().expect("seed");
    let script = KillScript::derive(seed);

    let mut rt = replicated_child_runtime(&sock, Duration::from_secs(15));
    let metrics = rt.metrics_handle();
    rt.start();
    std::thread::sleep(Duration::from_millis(100));

    if role == "repl-gen1" {
        rt.send_external(
            R_CONSUMER_A,
            Message::AppSubscribe { id: SubscriptionId::new(1), filter: script.filter_a() },
        );
        // The churn: a window of R_CHURN_KEEP filters slides over
        // R_CHURN_CYCLES re-subscriptions.
        let id = |step: u32| SubscriptionId::new(1_000 + step);
        for step in 0..R_CHURN_CYCLES {
            let filter = churn_filter(step);
            rt.send_external(R_CONSUMER_A, Message::AppSubscribe { id: id(step), filter });
            if let Some(old) = step.checked_sub(R_CHURN_KEEP) {
                rt.send_external(R_CONSUMER_A, Message::AppUnsubscribe { id: id(old) });
            }
        }
        // Nothing to report: this generation exists to be SIGKILLed.
        std::thread::sleep(Duration::from_secs(600));
        rt.stop();
        return;
    }

    // Generation 2: no re-subscription — recovery is the broker's job.
    // The parent publishes the post-recovery batch only after watching the
    // link heal, so a generous fixed sleep is race-free.
    std::thread::sleep(Duration::from_millis(5000));
    let nodes = rt.stop();
    let client = nodes[R_CONSUMER_A.raw() as usize]
        .as_ref()
        .expect("consumer A is local to the child")
        .as_any()
        .downcast_ref::<ClientNode>()
        .expect("client node");
    let seen = observe(client);
    let broker = nodes[2]
        .as_ref()
        .expect("broker 2 is local to the child")
        .as_any()
        .downcast_ref::<ReplicatedBrokerNode>()
        .expect("replicated broker node");
    let marks: Vec<String> = seen.marks.iter().map(|m| m.to_string()).collect();
    println!("SOAK-A-MARKS: {}", marks.join(" "));
    println!("SOAK-A-FIFO: {}", seen.fifo_violations);
    println!("SOAK-A-DUP: {}", seen.duplicates);
    println!("SOAK-A-PANICS: {}", metrics.snapshot().thread_panics);
    println!("SOAK-TABLE: {}", broker.core().router().entry_count());
}

#[test]
fn replicated_primary_kill_recovers_without_resubscription() {
    if std::env::var(ROLE_ENV).is_ok() {
        return; // never recurse inside a child re-execution
    }
    let seed: u64 = match std::env::var("REBECA_SOAK_SEED") {
        Ok(s) => s.parse().expect("REBECA_SOAK_SEED must be a u64"),
        Err(_) => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos() as u64,
    };
    println!("replicated kill/recover soak master seed: {seed}");

    let result = std::panic::catch_unwind(|| {
        let script = KillScript::derive(seed);
        let (a, a_panics, table, metrics, b, backups) = run_replicated_kill_recover(&script, seed);

        // Non-vacuous: every post-recovery mark matches consumer A's
        // filter only above the threshold, and the reborn consumer saw
        // *something* — which it could only do through the recovered table.
        assert!(!a.marks.is_empty(), "the reborn consumer A saw nothing at all");
        assert_eq!(
            a.marks,
            script.expected_a_reborn(),
            "reborn consumer A missed post-recovery marks without ever re-subscribing"
        );
        assert_eq!(a.fifo_violations, 0, "reborn consumer A: FIFO violated");
        assert_eq!(a.duplicates, 0, "reborn consumer A: duplicate deliveries");
        assert_eq!(
            table, R_PRE_KILL_TABLE,
            "broker 2's recovered routing table is not the one it had before the kill"
        );
        // What it recovered from had folded: the backups held a checkpoint
        // past the whole churn and about a table's worth of entries — not
        // the 800 ops that built it.
        assert_eq!(backups.len(), 2, "both of broker 2's backups live in the parent");
        for (base, resident) in backups {
            assert!(base >= u64::from(2 * R_CHURN_CYCLES - R_CHURN_KEEP), "folded to {base}");
            assert!(resident <= R_PRE_KILL_TABLE + 8, "{resident} entries resident");
        }

        assert_eq!(b.marks, script.expected_b(), "consumer B vs oracle");
        assert_eq!(b.fifo_violations, 0, "consumer B: FIFO violated");
        assert_eq!(b.duplicates, 0, "consumer B: duplicate deliveries");

        assert!(metrics.link_downs >= 1, "the SIGKILL must register as a link down");
        assert!(metrics.link_restarts >= 1, "the respawn must register as a link restart");
        assert_eq!(metrics.thread_panics, 0, "parent link threads must never panic");
        assert_eq!(a_panics, 0, "generation-2 link threads must never panic");
    });
    if let Err(panic) = result {
        eprintln!("\nreplicated kill/recover soak FAILED under master seed {seed}");
        eprintln!(
            "reproduce with: REBECA_SOAK_SEED={seed} cargo test --release --test process_soak\n"
        );
        std::panic::resume_unwind(panic);
    }
}

// ---------------------------------------------------------------------------
// Replicated burst: a few hundred subscriptions issued back to back through
// replica groups of 3 that span the socket. Every op must commit at every
// member, the routing tables must come out as without replication, and the
// burst must have travelled in batched `Prepare`s.
// ---------------------------------------------------------------------------

/// The burst's filters, seed-derived: `mark > k` for distinct `k`, so under
/// simple routing every broker ends up holding every one of them.
fn burst_filters(seed: u64) -> Vec<Filter> {
    let mut rng = SplitMix64::new(seed ^ 0x6275_7273); // "burs"
    let n = 300 + rng.next_u64() % 200;
    let base = (rng.next_u64() % 1000) as i64;
    (0..n as i64)
        .map(|k| Filter::builder().eq("service", "soak").gt("mark", base + k).build())
        .collect()
}

/// What one replica-group member holds when its process stops.
fn member_line(tag: &str, r: &rebeca::broker::replication::Replica) -> String {
    format!("{tag} ops={} committed={}", r.op_number(), r.commit_number())
}

/// `(member_line of every local group member, stats, broker table sizes)`
/// of one stopped process partition.
fn replicated_report(
    nodes: &[Option<Box<dyn rebeca::net::Node<Message>>>],
) -> (Vec<String>, rebeca::broker::replication::ReplicationStats, Vec<(usize, usize)>) {
    use rebeca::broker::replication::ReplicaNode;
    let mut members = Vec::new();
    let mut stats = None;
    let mut tables = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        let Some(node) = node else { continue };
        if let Some(b) = node.as_any().downcast_ref::<ReplicatedBrokerNode>() {
            members.push(member_line(&format!("broker {i}"), b.replica()));
            stats = Some(b.replication_stats());
            tables.push((i, b.core().router().entry_count()));
        } else if let Some(r) = node.as_any().downcast_ref::<ReplicaNode>() {
            members.push(member_line(&format!("backup {i}"), r.replica()));
        }
    }
    (members, stats.expect("every partition hosts a broker"), tables)
}

/// Child half of the burst: broker 2 and the backups co-hosted with it.
/// Lives long enough for the parent's burst to settle, then reports.
#[test]
fn replicated_burst_child() {
    if std::env::var(ROLE_ENV).as_deref() != Ok("repl-burst") {
        return;
    }
    let sock = PathBuf::from(std::env::var(SOCK_ENV).expect("socket path env"));
    let mut rt = replicated_child_runtime(&sock, Duration::from_secs(15));
    rt.start();
    std::thread::sleep(Duration::from_millis(4000));
    let nodes = rt.stop();
    let (members, stats, tables) = replicated_report(&nodes);
    println!("BURST-MEMBERS: {}", members.join("; "));
    println!("BURST-LOGGED: {}", stats.ops_logged);
    println!("BURST-PREPARES: {}", stats.prepares_sent);
    println!("BURST-TABLE: {}", tables[0].1);
}

#[test]
fn replicated_burst_commits_in_batches_across_the_socket() {
    if std::env::var(ROLE_ENV).is_ok() {
        return; // never recurse inside a child re-execution
    }
    let seed: u64 = match std::env::var("REBECA_SOAK_SEED") {
        Ok(s) => s.parse().expect("REBECA_SOAK_SEED must be a u64"),
        Err(_) => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos() as u64,
    };
    println!("replicated burst master seed: {seed}");

    let result = std::panic::catch_unwind(|| {
        let filters = burst_filters(seed);
        let n = filters.len() as u64;

        // The unreplicated reference: same topology, strategy and filters.
        let mut reference = SystemBuilder::new(Topology::line(BROKERS).expect("non-empty"))
            .strategy(RoutingStrategy::Simple)
            .build()
            .expect("reference system");
        let client = reference.add_client(BrokerId::new(0)).expect("reference client");
        for f in &filters {
            reference.subscribe(client, f.clone()).expect("reference subscribe");
        }
        reference.run_for(rebeca::SimDuration::from_secs(5));
        let want: Vec<usize> = (0..BROKERS as u32)
            .map(|b| reference.table_size(BrokerId::new(b)).expect("reference table"))
            .collect();
        assert_eq!(want, vec![filters.len(); BROKERS], "simple routing floods every filter");

        let sock =
            std::env::temp_dir().join(format!("rebeca-burst-soak-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let child = std::process::Command::new(std::env::current_exe().expect("current_exe"))
            .args(["replicated_burst_child", "--exact", "--nocapture"])
            .env(ROLE_ENV, "repl-burst")
            .env(SOCK_ENV, &sock)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn child process");

        let (mut rt, _peer) = replicated_parent_runtime(&sock, None);
        let metrics = rt.metrics_handle();
        rt.start();

        // Let every group boot, then issue the whole burst back to back: the
        // ops pile up behind broker 0's first round trips, broker 1 and (over
        // the socket) broker 2 receive the announcements in bulk, and broker
        // 2's quorum needs the socket for every commit — both its backups
        // live here.
        std::thread::sleep(Duration::from_millis(600));
        for (i, f) in filters.iter().enumerate() {
            rt.send_external(
                R_PUBLISHER,
                Message::AppSubscribe { id: SubscriptionId::new(i as u32), filter: f.clone() },
            );
        }

        // The child's exit is itself replicated work here: brokers 0 and 1
        // log a `LinkDown` marker per vanished node and broker 2's orphaned
        // backups elect a new view. Three replica ticks settle that too.
        let out = child.wait_with_output().expect("wait for child");
        std::thread::sleep(Duration::from_millis(600));
        let nodes = rt.stop();
        let _ = std::fs::remove_file(&sock);
        assert!(out.status.success(), "burst child failed");
        let stdout = String::from_utf8_lossy(&out.stdout);

        let (members, stats, tables) = replicated_report(&nodes);
        let child_members = child_field(&stdout, "BURST-MEMBERS:");
        let all: Vec<&str> =
            members.iter().map(String::as_str).chain(child_members.split("; ")).collect();
        assert_eq!(all.len(), BROKERS * R_GROUP, "nine group members report: {all:?}");
        for m in &all {
            let (ops, committed) =
                m.split_once("ops=").expect("ops").1.split_once(" committed=").expect("committed");
            assert_eq!(ops, committed, "an op never committed at {m}");
            assert!(ops.parse::<u64>().expect("count") >= n, "{m} holds less than the burst");
        }

        for (b, size) in tables {
            assert_eq!(size, want[b], "broker {b}'s table differs from the unreplicated reference");
        }
        let child_table: usize = child_field(&stdout, "BURST-TABLE:").parse().expect("table");
        assert_eq!(child_table, want[2], "broker 2's table differs from the reference");

        let child_logged: u64 = child_field(&stdout, "BURST-LOGGED:").parse().expect("logged");
        let child_prepares: u64 =
            child_field(&stdout, "BURST-PREPARES:").parse().expect("prepares");
        assert!(stats.ops_logged >= 2 * n, "brokers 0 and 1 log the burst: {stats:?}");
        assert!(child_logged >= n, "broker 2 logs the burst");
        assert!(
            stats.prepares_sent < stats.ops_logged,
            "the burst never batched in the parent: {stats:?}"
        );
        assert!(
            child_prepares < child_logged,
            "the burst never batched in the child: {child_prepares} Prepares for {child_logged} ops"
        );
        assert_eq!(metrics.snapshot().thread_panics, 0, "link threads must never panic");
    });
    if let Err(panic) = result {
        eprintln!("\nreplicated burst soak FAILED under master seed {seed}");
        eprintln!(
            "reproduce with: REBECA_SOAK_SEED={seed} cargo test --release --test process_soak\n"
        );
        std::panic::resume_unwind(panic);
    }
}
