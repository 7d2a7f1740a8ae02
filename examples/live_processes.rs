//! Two broker **processes** over a Unix domain socket.
//!
//! The sans-io broker state machines, run live instead of in the
//! simulator, and split across two OS processes. The
//! parent hosts broker 0 and a publisher, re-executes itself as a child
//! hosting broker 1 and a consumer, and the two halves talk through the
//! framed wire protocol (`rebeca-net::wire`) over a UDS link: every
//! notification crossing the process boundary is encoded with the binary
//! codec, framed, reassembled and decoded on the far side — symbols are
//! re-resolved against the receiving process's own interner.
//!
//! Both halves arm a [`ReconnectPolicy`]: the links are *supervised*, so
//! if either process died mid-run the survivor would mark the routes
//! down, drop (and count) traffic towards the corpse, and re-dial with
//! backoff instead of panicking — see `tests/process_soak.rs` for the
//! kill/recover proof.
//!
//! Run with: `cargo run --example live_processes`

use rebeca::broker::{ClientNode, Message, RoutingStrategy};
use rebeca::{BrokerId, ClientId, Filter, Notification, SubscriptionId, SystemBuilder};
use rebeca_net::{ProcessRuntime, ReconnectPolicy, Topology};
use std::path::PathBuf;
use std::time::Duration;

const ROLE_ENV: &str = "REBECA_LIVE_PROCESS_ROLE";
const SOCK_ENV: &str = "REBECA_LIVE_PROCESS_SOCK";

/// Global node table, identical in both processes:
/// 0 = broker 0, 1 = broker 1, 2 = publisher client, 3 = consumer client.
fn builder() -> SystemBuilder {
    SystemBuilder::new(Topology::line(2).expect("non-empty"))
        .strategy(RoutingStrategy::Simple)
        .reconnect_policy(ReconnectPolicy::default())
}

fn main() {
    match std::env::var(ROLE_ENV).as_deref() {
        Ok("consumer") => {
            let sock = PathBuf::from(std::env::var(SOCK_ENV).expect("socket path env"));
            consumer_process(&sock);
        }
        _ => publisher_process(),
    }
}

/// Parent: broker 0 + publisher. Accepts the child's connection, then
/// publishes ten notifications whose only road to the consumer is the
/// socket.
fn publisher_process() {
    let sock = std::env::temp_dir().join(format!("rebeca-live-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);

    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .env(ROLE_ENV, "consumer")
        .env(SOCK_ENV, &sock)
        .spawn()
        .expect("spawn consumer process");

    let mut rt: ProcessRuntime<Message> = ProcessRuntime::new();
    let peer = rt.listen_uds(&sock).expect("accept consumer process");
    let brokers = builder()
        .build_process_partition(&mut rt, &[BrokerId::new(0)], |_| Some(peer))
        .expect("deploy local broker partition");
    let publisher = rt.add_local(Box::new(ClientNode::new(ClientId::new(1), Some(brokers[0]))));
    let consumer = rt.add_remote(peer);
    rt.connect(publisher, brokers[0]);
    rt.connect(consumer, brokers[1]);
    rt.start();

    // Give the child time to attach and subscribe (it does so right after
    // connecting), then publish.
    std::thread::sleep(Duration::from_millis(1000));
    for i in 0..10 {
        rt.send_external(
            publisher,
            Message::AppPublish {
                attrs: Notification::builder().attr("service", "live").attr("i", i as i64),
            },
        );
    }

    let status = child.wait().expect("wait for consumer process");
    let metrics = rt.metrics_handle();
    rt.stop();
    let _ = std::fs::remove_file(&sock);
    assert!(status.success(), "consumer process failed");
    let m = metrics.snapshot();
    assert_eq!(m.thread_panics, 0, "supervised links never die by panic");
    println!("publisher process: 10 notifications shipped across the socket.");
    println!(
        "link supervision: {} downs, {} restarts, {} thread panics.",
        m.link_downs, m.link_restarts, m.thread_panics
    );
    println!("same state machines, two OS processes — the wire codec pays off.");
}

/// Child: broker 1 + consumer. Subscribes, waits for the publications to
/// arrive over the socket, and verifies lossless in-order delivery.
fn consumer_process(sock: &std::path::Path) {
    let mut rt: ProcessRuntime<Message> = ProcessRuntime::new();
    let peer = rt.dial_uds(sock, Duration::from_secs(10)).expect("dial publisher process");
    let brokers = builder()
        .build_process_partition(&mut rt, &[BrokerId::new(1)], |_| Some(peer))
        .expect("deploy local broker partition");
    let publisher = rt.add_remote(peer);
    let consumer = rt.add_local(Box::new(ClientNode::new(ClientId::new(2), Some(brokers[1]))));
    rt.connect(publisher, brokers[0]);
    rt.connect(consumer, brokers[1]);
    rt.start();

    std::thread::sleep(Duration::from_millis(100)); // attachment settles
    rt.send_external(
        consumer,
        Message::AppSubscribe {
            id: SubscriptionId::new(1),
            filter: Filter::builder().eq("service", "live").build(),
        },
    );

    // The subscription forwards to the remote broker; publications flow
    // back. Poll-free example: sleep past the publisher's schedule.
    std::thread::sleep(Duration::from_millis(2500));

    let nodes = rt.stop();
    let client = nodes[consumer.raw() as usize]
        .as_ref()
        .expect("consumer is local here")
        .as_any()
        .downcast_ref::<ClientNode>()
        .expect("consumer node");
    let got: Vec<i64> = client
        .local()
        .delivered()
        .iter()
        .filter_map(|r| r.notification.get("i").and_then(|v| v.as_int()))
        .collect();
    println!("consumer process received {} notifications over the socket: {got:?}", got.len());
    assert_eq!(got, (0..10).collect::<Vec<_>>(), "in order, nothing lost");
}
