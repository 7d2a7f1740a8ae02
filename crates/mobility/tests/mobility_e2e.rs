//! End-to-end mobility tests: full deployments inside the deterministic
//! simulator.
//!
//! Every deployment is the replicator layer: plain `BrokerNode`s + one
//! `ReplicatorNode` per broker + `MobileClientNode`s. With `k_hops: 0` it
//! is the reactive baseline (physical relocation, `myloc` resolved on
//! arrival); with `k_hops > 0` it adds pre-subscriptions (extended logical
//! mobility).

use rebeca_broker::{BrokerCore, BrokerNode, Message, MobilityMsg, RoutingStrategy};
use rebeca_core::{
    BrokerId, ClientId, Filter, LocationId, Notification, SimDuration, SubscriptionId,
};
use rebeca_mobility::{
    app_of, BufferSpec, ClientMobilityMode, LocationMap, MobileClientNode, MovementGraph,
    ReplicatorConfig, ReplicatorNode, DEFAULT_MAX_BATCH_BYTES,
};
use rebeca_net::{LinkConfig, NodeId, Topology, World};
use std::ops::Range;
use std::sync::Arc;

/// A full deployment under test.
struct Deployment {
    world: World<Message>,
    /// The replicator in front of each broker: where clients attach.
    replicator_nodes: Arc<Vec<NodeId>>,
    client_nodes: Vec<NodeId>,
}

fn replicated(topology: Topology, movement: MovementGraph, config: ReplicatorConfig) -> Deployment {
    let topology = Arc::new(topology);
    let n = topology.broker_count();
    let broker_nodes: Arc<Vec<NodeId>> = Arc::new((0..n as u32).map(NodeId::new).collect());
    let replicator_nodes: Arc<Vec<NodeId>> =
        Arc::new((n as u32..2 * n as u32).map(NodeId::new).collect());
    let locations = Arc::new(LocationMap::one_per_broker(&topology));
    let movement = Arc::new(movement);
    let mut world = World::new(7);
    for b in topology.brokers() {
        let core = BrokerCore::new(
            b,
            Arc::clone(&topology),
            Arc::clone(&broker_nodes),
            RoutingStrategy::Simple,
        );
        world.add_node(Box::new(BrokerNode::new(core)));
    }
    for b in topology.brokers() {
        let node = world.add_node(Box::new(ReplicatorNode::new(
            b,
            broker_nodes[b.raw() as usize],
            Arc::clone(&replicator_nodes),
            Arc::clone(&movement),
            Arc::clone(&locations),
            config.clone(),
        )));
        assert_eq!(node, replicator_nodes[b.raw() as usize]);
        world.connect(node, broker_nodes[b.raw() as usize], LinkConfig::default());
    }
    for (a, b) in topology.edges() {
        world.connect(
            broker_nodes[a.raw() as usize],
            broker_nodes[b.raw() as usize],
            LinkConfig::default(),
        );
    }
    // Direct replicator ↔ replicator mesh (the "direct TCP connections").
    for i in 0..n {
        for j in (i + 1)..n {
            world.connect(replicator_nodes[i], replicator_nodes[j], LinkConfig::default());
        }
    }
    Deployment { world, replicator_nodes, client_nodes: vec![] }
}

impl Deployment {
    /// Adds a mobile client with down links to every access point.
    fn add_mobile_client(&mut self, client: ClientId, mode: ClientMobilityMode) -> NodeId {
        let node = self.world.add_node(Box::new(MobileClientNode::new(
            client,
            mode,
            Arc::clone(&self.replicator_nodes),
        )));
        for access in self.replicator_nodes.iter() {
            self.world.connect(node, *access, LinkConfig::default());
            self.world.set_link_up(node, *access, false);
        }
        self.client_nodes.push(node);
        node
    }

    /// Adds an immobile publisher at a broker (direct, always-up link).
    fn add_publisher(&mut self, client: ClientId, broker_idx: usize) -> NodeId {
        let node = self.world.add_node(Box::new(rebeca_broker::ClientNode::new(
            client,
            Some(self.replicator_nodes[broker_idx]),
        )));
        self.world.connect(node, self.replicator_nodes[broker_idx], LinkConfig::default());
        node
    }

    /// Simulates arrival of `client_node` at broker `idx`: flips the
    /// wireless links, then injects `AppMoveTo`.
    fn arrive(&mut self, client_node: NodeId, idx: usize) {
        for (i, access) in self.replicator_nodes.clone().iter().enumerate() {
            self.world.set_link_up(client_node, *access, i == idx);
        }
        self.world.send_external(
            client_node,
            Message::Mobility(MobilityMsg::AppMoveTo { border: BrokerId::new(idx as u32) }),
        );
    }

    /// Simulates departure from coverage (silent for Relocation mode,
    /// explicit moveOut for Naive mode via AppPrepareMove first).
    fn depart(&mut self, client_node: NodeId) {
        self.world.send_external(client_node, Message::Mobility(MobilityMsg::AppPrepareMove));
        self.settle();
        for access in self.replicator_nodes.clone().iter() {
            self.world.set_link_up(client_node, *access, false);
        }
        self.world.send_external(client_node, Message::Mobility(MobilityMsg::AppDisconnect));
    }

    fn subscribe(&mut self, client_node: NodeId, id: u32, filter: Filter) {
        self.world.send_external(
            client_node,
            Message::AppSubscribe { id: SubscriptionId::new(id), filter },
        );
    }

    fn publish_at(&mut self, publisher_node: NodeId, service: &str, loc: u32, seq_mark: i64) {
        self.world.send_external(
            publisher_node,
            Message::AppPublish {
                attrs: Notification::builder()
                    .attr("service", service)
                    .attr("location", LocationId::new(loc))
                    .attr("mark", seq_mark),
            },
        );
    }

    /// Publishes `marks` at `loc`, each padded to about 1 KiB of wire
    /// size, so 64 of them fill a handover page.
    fn publish_padded(
        &mut self,
        publisher_node: NodeId,
        service: &str,
        loc: u32,
        marks: Range<i64>,
    ) {
        for mark in marks {
            self.world.send_external(
                publisher_node,
                Message::AppPublish {
                    attrs: Notification::builder()
                        .attr("service", service)
                        .attr("location", LocationId::new(loc))
                        .attr("mark", mark)
                        .attr("pad", "x".repeat(1024)),
                },
            );
        }
    }

    fn replicator(&self, idx: usize) -> &ReplicatorNode {
        self.world.node_as::<ReplicatorNode>(self.replicator_nodes[idx]).unwrap()
    }

    fn settle(&mut self) {
        let t = self.world.now() + SimDuration::from_secs(3);
        self.world.run_until(t);
    }

    fn delivered_marks(&self, client_node: NodeId) -> Vec<i64> {
        self.world
            .node_as::<MobileClientNode>(client_node)
            .unwrap()
            .local()
            .delivered()
            .iter()
            .map(|r| r.notification.get("mark").unwrap().as_int().unwrap())
            .collect()
    }
}

#[test]
fn physical_relocation_is_lossless_and_fifo() {
    // Stock-quote scenario: non-location-dependent subscription, client
    // disconnects at B0, reconnects at B3; nothing may be lost.
    let mut d = replicated(
        Topology::line(4).unwrap(),
        MovementGraph::line(4),
        ReplicatorConfig { k_hops: 0, ..Default::default() },
    );
    let pub_node = d.add_publisher(ClientId::new(100), 1);
    let c = d.add_mobile_client(ClientId::new(1), ClientMobilityMode::Relocation);
    d.arrive(c, 0);
    d.settle();
    d.subscribe(c, 1, Filter::builder().eq("service", "stock").build());
    d.settle();
    for i in 0..5 {
        d.publish_at(pub_node, "stock", 0, i);
    }
    d.settle();
    d.depart(c);
    d.settle();
    // Published while disconnected — must be buffered at B0.
    for i in 5..10 {
        d.publish_at(pub_node, "stock", 0, i);
    }
    d.settle();
    d.arrive(c, 3);
    d.settle();
    for i in 10..15 {
        d.publish_at(pub_node, "stock", 0, i);
    }
    d.settle();
    assert_eq!(d.delivered_marks(c), (0..15).collect::<Vec<_>>());
    let lb = d.world.node_as::<MobileClientNode>(c).unwrap().local();
    assert_eq!(lb.fifo_violations(), 0);
}

#[test]
fn naive_reconnect_loses_the_gap() {
    let mut d = replicated(
        Topology::line(4).unwrap(),
        MovementGraph::line(4),
        ReplicatorConfig { k_hops: 0, ..Default::default() },
    );
    let pub_node = d.add_publisher(ClientId::new(100), 1);
    let c = d.add_mobile_client(ClientId::new(1), ClientMobilityMode::Naive);
    d.arrive(c, 0);
    d.settle();
    d.subscribe(c, 1, Filter::builder().eq("service", "stock").build());
    d.settle();
    for i in 0..3 {
        d.publish_at(pub_node, "stock", 0, i);
    }
    d.settle();
    d.depart(c);
    d.settle();
    for i in 3..6 {
        d.publish_at(pub_node, "stock", 0, i);
    }
    d.settle();
    d.arrive(c, 3);
    d.settle();
    for i in 6..9 {
        d.publish_at(pub_node, "stock", 0, i);
    }
    d.settle();
    assert_eq!(
        d.delivered_marks(c),
        vec![0, 1, 2, 6, 7, 8],
        "the gap published during the hand-off must be lost for the naive baseline"
    );
}

#[test]
fn reactive_logical_mobility_adapts_myloc() {
    // Temperature scenario: location-dependent subscription; readings for
    // the *current* office only.
    let mut d = replicated(
        Topology::line(3).unwrap(),
        MovementGraph::line(3),
        ReplicatorConfig { k_hops: 0, ..Default::default() },
    );
    let p0 = d.add_publisher(ClientId::new(100), 0);
    let p2 = d.add_publisher(ClientId::new(101), 2);
    let c = d.add_mobile_client(ClientId::new(1), ClientMobilityMode::Relocation);
    d.arrive(c, 0);
    d.settle();
    d.subscribe(c, 1, Filter::builder().eq("service", "temperature").myloc("location").build());
    d.settle();
    d.publish_at(p0, "temperature", 0, 1); // at L0 — matches
    d.publish_at(p2, "temperature", 2, 2); // at L2 — not my location
    d.settle();
    d.depart(c);
    d.settle();
    d.arrive(c, 2);
    // Old location, published inside the hand-off's make-before-break
    // grace: the client has left L0, so this must not reach it either.
    let t = d.world.now() + SimDuration::from_millis(20);
    d.world.run_until(t);
    d.publish_at(p0, "temperature", 0, 5);
    d.settle();
    d.publish_at(p0, "temperature", 0, 3); // old location — no longer matches
    d.publish_at(p2, "temperature", 2, 4); // new location — matches
    d.settle();
    let marks = d.delivered_marks(c);
    assert!(marks.contains(&1) && marks.contains(&4), "got {marks:?}");
    assert!(!marks.contains(&2) && !marks.contains(&3), "got {marks:?}");
    assert!(!marks.contains(&5), "old-location reading leaked through the grace: {marks:?}");
}

#[test]
fn replicator_presubscription_replays_the_past() {
    // The "listen for a while" semantics: the client arrives at B1 and
    // receives what was published there *before* it arrived.
    let mut d = replicated(
        Topology::line(3).unwrap(),
        MovementGraph::line(3),
        ReplicatorConfig { buffer: BufferSpec::Unbounded, ..Default::default() },
    );
    let p1 = d.add_publisher(ClientId::new(100), 1);
    let c = d.add_mobile_client(ClientId::new(1), ClientMobilityMode::Relocation);
    d.arrive(c, 0);
    d.settle();
    d.subscribe(c, 1, Filter::builder().eq("service", "menu").myloc("location").build());
    d.settle();
    // Published at L1 while the client is still at B0: the buffering
    // virtual client at B1 captures it.
    d.publish_at(p1, "menu", 1, 42);
    d.settle();
    d.depart(c);
    d.settle();
    d.arrive(c, 1);
    d.settle();
    let marks = d.delivered_marks(c);
    assert!(
        marks.contains(&42),
        "pre-subscription must replay the notification published before arrival; got {marks:?}"
    );
    // Live flow continues after arrival.
    d.publish_at(p1, "menu", 1, 43);
    d.settle();
    assert!(d.delivered_marks(c).contains(&43));
}

#[test]
fn replicator_reconciles_vc_set_on_handover() {
    // Movement line B0-B1-B2-B3; k=1. After arriving at B1, VCs must exist
    // at {B0,B1,B2} and nowhere else; after moving to B2: {B1,B2,B3} and
    // the VC at B0 must be garbage collected.
    let mut d =
        replicated(Topology::line(4).unwrap(), MovementGraph::line(4), ReplicatorConfig::default());
    let c = d.add_mobile_client(ClientId::new(1), ClientMobilityMode::Relocation);
    d.arrive(c, 1);
    d.settle();
    d.subscribe(c, 1, Filter::builder().eq("service", "x").myloc("location").build());
    d.settle();
    let vc_count = |d: &Deployment, idx: usize| {
        d.world.node_as::<ReplicatorNode>(d.replicator_nodes[idx]).unwrap().vc_count()
    };
    assert_eq!(vc_count(&d, 0), 1, "B0 in nlb(B1)");
    assert_eq!(vc_count(&d, 1), 1, "active at B1");
    assert_eq!(vc_count(&d, 2), 1, "B2 in nlb(B1)");
    assert_eq!(vc_count(&d, 3), 0, "B3 outside nlb(B1)");

    d.depart(c);
    d.settle();
    d.arrive(c, 2);
    d.settle();
    assert_eq!(vc_count(&d, 0), 0, "B0 left the neighbourhood — GC");
    assert_eq!(vc_count(&d, 1), 1);
    assert_eq!(vc_count(&d, 2), 1);
    assert_eq!(vc_count(&d, 3), 1, "B3 entered the neighbourhood");

    let app = app_of(ClientId::new(1));
    let rep2 = d.world.node_as::<ReplicatorNode>(d.replicator_nodes[2]).unwrap();
    assert!(rep2.virtual_client(app).unwrap().is_active());
    let rep3 = d.world.node_as::<ReplicatorNode>(d.replicator_nodes[3]).unwrap();
    assert!(!rep3.virtual_client(app).unwrap().is_active());
}

#[test]
fn replicator_client_removal_deletes_neighbourhood() {
    let mut d =
        replicated(Topology::line(3).unwrap(), MovementGraph::line(3), ReplicatorConfig::default());
    let c = d.add_mobile_client(ClientId::new(1), ClientMobilityMode::Relocation);
    d.arrive(c, 1);
    d.settle();
    d.subscribe(c, 1, Filter::builder().myloc("location").build());
    d.settle();
    let total_vcs = |d: &Deployment| -> usize {
        d.replicator_nodes
            .iter()
            .map(|r| d.world.node_as::<ReplicatorNode>(*r).unwrap().vc_count())
            .sum()
    };
    assert_eq!(total_vcs(&d), 3);
    // A silent disconnect keeps the virtual clients alive — uncertainty is
    // the whole point of the shadows.
    d.world.send_external(c, Message::Mobility(MobilityMsg::AppDisconnect));
    d.settle();
    assert_eq!(total_vcs(&d), 3, "silent disconnect must NOT delete virtual clients");
    // Orderly client removal (§3.2.4): the application is turned off and
    // the middleware garbage-collects the virtual client at b and nlb(b).
    d.world
        .send_external(d.replicator_nodes[1], Message::ClientDetach { client: ClientId::new(1) });
    d.settle();
    assert_eq!(total_vcs(&d), 0, "client removal must delete the whole neighbourhood");
}

#[test]
fn exception_mode_recovers_popup_clients() {
    // Client pops up at B3, far outside nlb(B0) — degraded but functional:
    // VC created on the fly, buffer fetched from the old replicator.
    let mut d = replicated(
        Topology::line(4).unwrap(),
        MovementGraph::line(4),
        ReplicatorConfig { buffer: BufferSpec::Unbounded, ..Default::default() },
    );
    let p3 = d.add_publisher(ClientId::new(100), 3);
    let p0 = d.add_publisher(ClientId::new(101), 0);
    let c = d.add_mobile_client(ClientId::new(1), ClientMobilityMode::Relocation);
    d.arrive(c, 0);
    d.settle();
    d.subscribe(c, 1, Filter::builder().eq("service", "s").myloc("location").build());
    d.settle();
    d.publish_at(p0, "s", 0, 1);
    d.settle();
    d.depart(c);
    d.settle();
    // While away: publication at L0 buffered by the (now buffering) VC at B0.
    d.publish_at(p0, "s", 0, 2);
    d.settle();
    // Pop up at B3 (not in nlb(B0) = {B1}).
    d.arrive(c, 3);
    d.settle();
    let rep3 = d.world.node_as::<ReplicatorNode>(d.replicator_nodes[3]).unwrap();
    assert!(rep3.stats().exceptions >= 1, "pop-up must be counted as exception");
    // Live flow at the new location works immediately.
    d.publish_at(p3, "s", 3, 3);
    d.settle();
    let marks = d.delivered_marks(c);
    assert!(marks.contains(&1), "got {marks:?}");
    assert!(marks.contains(&3), "live flow after pop-up; got {marks:?}");
    // Exception-mode fetch recovers the buffered notification for the OLD
    // location (degraded service: it is L0 information, which the client
    // subscribed to while there).
    assert!(marks.contains(&2), "exception fetch must recover the gap; got {marks:?}");
}

/// Asserts that `client_node` got exactly `marks`, each once and in
/// publication order (the tests that use it have a single publisher).
fn assert_every_mark_once_in_order(d: &Deployment, client_node: NodeId, marks: Range<i64>) {
    assert_eq!(d.delivered_marks(client_node), marks.collect::<Vec<_>>());
    let lb = d.world.node_as::<MobileClientNode>(client_node).unwrap().local();
    assert_eq!(lb.duplicates(), 0, "a mark arrived twice");
    assert_eq!(lb.fifo_violations(), 0);
}

#[test]
fn paged_relocation_drain_delivers_every_mark_once_in_order() {
    // The buffer a disconnected client leaves at B0 outgrows one page, so
    // the drain to B3 travels as several `BufferedBatch` chunks.
    let mut d = replicated(
        Topology::line(4).unwrap(),
        MovementGraph::line(4),
        ReplicatorConfig { k_hops: 0, ..Default::default() },
    );
    let p = d.add_publisher(ClientId::new(100), 1);
    let c = d.add_mobile_client(ClientId::new(1), ClientMobilityMode::Relocation);
    d.arrive(c, 0);
    d.settle();
    d.subscribe(c, 1, Filter::builder().eq("service", "stock").build());
    d.settle();
    d.publish_padded(p, "stock", 0, 0..5);
    d.settle();
    d.depart(c);
    d.settle();
    d.publish_padded(p, "stock", 0, 5..165);
    d.settle();
    let held = d.replicator(0).buffer_bytes();
    assert!(held > DEFAULT_MAX_BATCH_BYTES, "B0 holds {held} B, one page or less");
    d.arrive(c, 3);
    d.settle();
    assert!(d.replicator(3).stats().replayed >= 160, "the drain must come through B3");
    d.publish_padded(p, "stock", 0, 165..170);
    d.settle();
    assert_every_mark_once_in_order(&d, c, 0..170);
}

#[test]
fn paged_virtual_client_replay_delivers_every_mark_once_in_order() {
    // The client pops up at B3, outside nlb(B0): the buffer of its
    // virtual client at B0 outgrows one page, so the exception-mode fetch
    // answers with several `ReplicaBatch` chunks.
    let mut d =
        replicated(Topology::line(4).unwrap(), MovementGraph::line(4), ReplicatorConfig::default());
    let p0 = d.add_publisher(ClientId::new(100), 0);
    let c = d.add_mobile_client(ClientId::new(1), ClientMobilityMode::Relocation);
    d.arrive(c, 0);
    d.settle();
    d.subscribe(c, 1, Filter::builder().eq("service", "s").myloc("location").build());
    d.settle();
    d.publish_padded(p0, "s", 0, 0..5);
    d.settle();
    d.depart(c);
    d.settle();
    d.publish_padded(p0, "s", 0, 5..165);
    d.settle();
    let held = d.replicator(0).buffer_bytes();
    assert!(held > DEFAULT_MAX_BATCH_BYTES, "B0 holds {held} B, one page or less");
    d.arrive(c, 3);
    d.settle();
    let stats = d.replicator(3).stats();
    assert!(stats.exceptions >= 1, "the pop-up must take the exception-mode fetch");
    assert!(stats.replayed >= 160, "the replay must come through B3");
    assert_every_mark_once_in_order(&d, c, 0..165);
}
