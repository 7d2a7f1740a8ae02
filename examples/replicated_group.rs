//! A broker process dies and comes back — **nobody re-subscribes**.
//!
//! `live_processes` shows two broker processes on a supervised socket;
//! this example adds PR 10's replication layer on top. Three brokers in a
//! line, `.replication(3)`: every broker's routing-table mutations ride a
//! VR-style op log mirrored on two backups, and the facade places each
//! backup in a *different* process than its broker. The parent hosts
//! brokers 0–1 (plus broker 2's two backups), a publisher and a consumer;
//! a child process hosts broker 2 (plus one backup each for brokers 0–1).
//!
//! The consumer subscribes **once**, through broker 2. Then the parent
//! SIGKILLs the child — taking broker 2 and its uncommitted state with it
//! — respawns it, and publishes again. The reborn broker 2 comes up
//! empty, probes its replica group, replays the committed log it fetches
//! from the backups across the healed link, and the post-outage batch
//! arrives at the consumer with no client having lifted a finger.
//!
//! Two ingredients make this work and both are **off by default**:
//!
//! * [`ReconnectPolicy`] — arms link supervision, so the parent re-dials
//!   the dead socket with backoff instead of panicking (PR 8);
//! * [`SystemBuilder::replication`] — arms the op log, so the reborn
//!   process has somewhere to refetch its state from (PR 10).
//!
//! Run with: `cargo run --example replicated_group`

use rebeca::broker::replication::ReplicatedBrokerNode;
use rebeca::broker::{ClientNode, Message, RoutingStrategy};
use rebeca::{BrokerId, ClientId, Filter, Notification, SubscriptionId, SystemBuilder};
use rebeca_net::{NodeId, ProcessRuntime, ReconnectPolicy, Topology};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const ROLE_ENV: &str = "REBECA_REPL_GROUP_ROLE";
const SOCK_ENV: &str = "REBECA_REPL_GROUP_SOCK";

/// Replica-group size: each broker plus two log backups.
const GROUP: usize = 3;

/// Global node table, identical in both processes: 0..=2 brokers,
/// 3..=8 log backups (two per broker, allocated by the facade right after
/// the brokers), 9 publisher, 10 consumer.
const PUBLISHER: NodeId = NodeId::new(9);
const CONSUMER: NodeId = NodeId::new(10);

fn builder() -> SystemBuilder {
    SystemBuilder::new(Topology::line(3).expect("non-empty"))
        .strategy(RoutingStrategy::Simple)
        .replication(GROUP)
}

fn main() {
    match std::env::var(ROLE_ENV).as_deref() {
        Ok(_) => {
            let sock = PathBuf::from(std::env::var(SOCK_ENV).expect("socket path env"));
            broker_process(&sock);
        }
        _ => parent_process(),
    }
}

/// Spins until `cond` holds or `limit` passes.
fn wait_until(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < limit {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    cond()
}

/// Parent: brokers 0–1, broker 2's backups, both clients, and the axe.
fn parent_process() {
    let sock = std::env::temp_dir().join(format!("rebeca-repl-group-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);

    let exe = std::env::current_exe().expect("current_exe");
    let spawn_child = |generation: &str| {
        std::process::Command::new(&exe)
            .env(ROLE_ENV, generation)
            .env(SOCK_ENV, &sock)
            .spawn()
            .expect("spawn broker process")
    };
    let mut gen1 = spawn_child("gen1");

    let mut rt: ProcessRuntime<Message> = ProcessRuntime::new();
    let peer = rt.listen_uds(&sock).expect("accept broker process");
    builder()
        .reconnect_policy(ReconnectPolicy::default())
        .build_process_partition(&mut rt, &[BrokerId::new(0), BrokerId::new(1)], |_| Some(peer))
        .expect("deploy parent partition");
    rt.add_local(Box::new(ClientNode::new(ClientId::new(1), Some(NodeId::new(0)))));
    rt.add_local(Box::new(ClientNode::new(ClientId::new(2), Some(NodeId::new(2)))));
    rt.connect(PUBLISHER, NodeId::new(0));
    rt.connect(CONSUMER, NodeId::new(2));
    rt.start();

    // One subscription, ever. It travels to broker 2 in the child and
    // commits into its replica group — whose backups live right here.
    std::thread::sleep(Duration::from_millis(300));
    rt.send_external(
        CONSUMER,
        Message::AppSubscribe {
            id: SubscriptionId::new(1),
            filter: Filter::builder().eq("service", "repl").build(),
        },
    );
    std::thread::sleep(Duration::from_millis(800));
    for i in 0..5 {
        rt.send_external(
            PUBLISHER,
            Message::AppPublish {
                attrs: Notification::builder().attr("service", "repl").attr("i", i as i64),
            },
        );
    }
    std::thread::sleep(Duration::from_millis(300));

    // SIGKILL broker 2's process: no goodbye frame, no state handover.
    // The supervisor marks the link down; the backups keep the log.
    gen1.kill().expect("SIGKILL generation-1 broker process");
    let _ = gen1.wait();
    assert!(
        wait_until(Duration::from_secs(10), || !rt.peer_status(peer).up),
        "parent never noticed the SIGKILL"
    );
    println!("parent: broker 2's process is dead; its op log survives on the local backups.");

    // Rebirth. The new process dials the same socket; the supervisor
    // heals the link, broker 2's recovery probes fetch the committed log
    // from the backups, and the routing table is whole again.
    let mut gen2 = spawn_child("gen2");
    assert!(
        wait_until(Duration::from_secs(20), || {
            let st = rt.peer_status(peer);
            st.up && st.restarts >= 1
        }),
        "link never healed after the respawn"
    );
    std::thread::sleep(Duration::from_millis(800)); // recovery + log replay

    for i in 5..10 {
        rt.send_external(
            PUBLISHER,
            Message::AppPublish {
                attrs: Notification::builder().attr("service", "repl").attr("i", i as i64),
            },
        );
    }
    std::thread::sleep(Duration::from_millis(500));

    gen2.kill().expect("stop generation-2 broker process"); // demo over
    let _ = gen2.wait();
    let metrics = rt.metrics_handle();
    let nodes = rt.stop();
    let _ = std::fs::remove_file(&sock);

    let consumer = nodes[CONSUMER.raw() as usize]
        .as_ref()
        .expect("consumer is local here")
        .as_any()
        .downcast_ref::<ClientNode>()
        .expect("consumer node");
    let got: Vec<i64> = consumer
        .local()
        .delivered()
        .iter()
        .filter_map(|r| r.notification.get("i").and_then(|v| v.as_int()))
        .collect();
    let post_outage: Vec<i64> = got.iter().copied().filter(|i| *i >= 5).collect();
    assert_eq!(
        post_outage,
        (5..10).collect::<Vec<_>>(),
        "the reborn broker must route the post-outage batch without a re-subscription"
    );
    let m = metrics.snapshot();
    println!("consumer received {} notifications across the crash: {got:?}", got.len());
    println!(
        "link supervision: {} downs, {} restarts, {} thread panics.",
        m.link_downs, m.link_restarts, m.thread_panics
    );
    let repl = nodes[0]
        .as_ref()
        .expect("broker 0 is local here")
        .as_any()
        .downcast_ref::<ReplicatedBrokerNode>()
        .expect("replicated broker node")
        .replication_stats();
    println!(
        "replication (this process): {} ops logged in {} Prepares (mean batch {:.1}), \
         {} view changes; {} ops folded into checkpoints, {} entries resident in the logs.",
        repl.ops_logged,
        repl.prepares_sent,
        repl.ops_logged as f64 / repl.prepares_sent.max(1) as f64,
        repl.view_changes,
        repl.ops_folded,
        repl.log_resident
    );
    println!("one subscription, one SIGKILL, zero re-subscriptions — the log remembers.");
}

/// Child: broker 2 plus the backups co-hosted with it, no clients. Both
/// generations are identical — the second one never re-learns anything
/// from clients; everything it knows comes from its replica group.
fn broker_process(sock: &std::path::Path) {
    let mut rt: ProcessRuntime<Message> = ProcessRuntime::new();
    let peer = rt.dial_uds(sock, Duration::from_secs(10)).expect("dial parent process");
    builder()
        .build_process_partition(&mut rt, &[BrokerId::new(2)], |_| Some(peer))
        .expect("deploy broker partition");
    rt.add_remote(peer); // publisher lives in the parent
    rt.add_remote(peer); // consumer lives in the parent
    rt.connect(PUBLISHER, NodeId::new(0));
    rt.connect(CONSUMER, NodeId::new(2));
    rt.start();

    // Idle until the parent kills this process — generation 1 mid-demo,
    // generation 2 once the post-outage batch has been verified.
    std::thread::sleep(Duration::from_secs(600));
    rt.stop();
}
