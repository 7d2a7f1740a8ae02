//! End-to-end routing tests: full broker networks inside the deterministic
//! simulator, exercised under every routing strategy.

use rebeca_broker::{BrokerCore, BrokerNode, ClientNode, Message, RoutingStrategy};
use rebeca_core::{ClientId, Filter, Notification, SubscriptionId};
use rebeca_net::{LinkConfig, NodeId, Topology, World};
use std::sync::Arc;

struct Net {
    world: World<Message>,
    broker_nodes: Vec<NodeId>,
}

/// Builds a world with one BrokerNode per topology broker (node ids equal
/// broker ids) and tree links of 1 ms.
fn build(topology: Topology, strategy: RoutingStrategy) -> Net {
    let topology = Arc::new(topology);
    let n = topology.broker_count();
    let broker_nodes: Arc<Vec<NodeId>> = Arc::new((0..n as u32).map(NodeId::new).collect());
    let mut world = World::new(1234);
    for b in topology.brokers() {
        let core = BrokerCore::new(b, Arc::clone(&topology), Arc::clone(&broker_nodes), strategy);
        let id = world.add_node(Box::new(BrokerNode::new(core)));
        assert_eq!(id, broker_nodes[b.raw() as usize]);
    }
    for (a, b) in topology.edges() {
        world.connect(
            broker_nodes[a.raw() as usize],
            broker_nodes[b.raw() as usize],
            LinkConfig::default(),
        );
    }
    Net { world, broker_nodes: broker_nodes.to_vec() }
}

impl Net {
    fn add_client(&mut self, client: ClientId, broker_idx: usize) -> NodeId {
        let node = self
            .world
            .add_node(Box::new(ClientNode::new(client, Some(self.broker_nodes[broker_idx]))));
        self.world.connect(node, self.broker_nodes[broker_idx], LinkConfig::default());
        node
    }

    fn subscribe(&mut self, client_node: NodeId, id: u32, filter: Filter) {
        self.world.send_external(
            client_node,
            Message::AppSubscribe { id: SubscriptionId::new(id), filter },
        );
    }

    fn publish(&mut self, client_node: NodeId, service: &str, room: i64) {
        self.world.send_external(
            client_node,
            Message::AppPublish {
                attrs: Notification::builder().attr("service", service).attr("room", room),
            },
        );
    }

    fn settle(&mut self) {
        let t = self.world.now() + rebeca_core::SimDuration::from_secs(5);
        self.world.run_until(t);
    }

    fn delivered(&self, client_node: NodeId) -> Vec<(String, i64)> {
        self.world
            .node_as::<ClientNode>(client_node)
            .unwrap()
            .local()
            .delivered()
            .iter()
            .map(|r| {
                (
                    r.notification.get("service").unwrap().as_str().unwrap().to_owned(),
                    r.notification.get("room").unwrap().as_int().unwrap(),
                )
            })
            .collect()
    }
}

#[test]
fn multi_hop_delivery_under_every_strategy() {
    for strategy in RoutingStrategy::ALL {
        let mut net = build(Topology::line(5).unwrap(), strategy);
        let pub_node = net.add_client(ClientId::new(100), 0);
        let sub_node = net.add_client(ClientId::new(200), 4);
        net.settle();
        net.subscribe(sub_node, 1, Filter::builder().eq("service", "temp").build());
        net.settle();
        net.publish(pub_node, "temp", 1);
        net.publish(pub_node, "news", 2);
        net.publish(pub_node, "temp", 3);
        net.settle();
        assert_eq!(
            net.delivered(sub_node),
            vec![("temp".into(), 1), ("temp".into(), 3)],
            "strategy {strategy}"
        );
        // FIFO, no duplicates.
        let lb = net.world.node_as::<ClientNode>(sub_node).unwrap().local();
        assert_eq!(lb.duplicates(), 0, "strategy {strategy}");
        assert_eq!(lb.fifo_violations(), 0, "strategy {strategy}");
    }
}

#[test]
fn unsubscribe_stops_flow_under_every_strategy() {
    for strategy in RoutingStrategy::ALL {
        let mut net = build(Topology::line(3).unwrap(), strategy);
        let pub_node = net.add_client(ClientId::new(100), 0);
        let sub_node = net.add_client(ClientId::new(200), 2);
        net.settle();
        net.subscribe(sub_node, 1, Filter::builder().eq("service", "t").build());
        net.settle();
        net.publish(pub_node, "t", 1);
        net.settle();
        net.world.send_external(sub_node, Message::AppUnsubscribe { id: SubscriptionId::new(1) });
        net.settle();
        net.publish(pub_node, "t", 2);
        net.settle();
        assert_eq!(net.delivered(sub_node), vec![("t".into(), 1)], "strategy {strategy}");
    }
}

#[test]
fn multiple_subscribers_on_star() {
    for strategy in RoutingStrategy::ALL {
        let mut net = build(Topology::star(5).unwrap(), strategy);
        let pub_node = net.add_client(ClientId::new(100), 1);
        let subs: Vec<NodeId> =
            (0..3).map(|i| net.add_client(ClientId::new(200 + i), 2 + i as usize)).collect();
        net.settle();
        for (i, s) in subs.iter().enumerate() {
            net.subscribe(*s, i as u32 + 1, Filter::builder().eq("service", "t").build());
        }
        net.settle();
        net.publish(pub_node, "t", 7);
        net.settle();
        for s in &subs {
            assert_eq!(net.delivered(*s), vec![("t".into(), 7)], "strategy {strategy}");
        }
    }
}

#[test]
fn publisher_receives_own_matching_notification() {
    let mut net = build(Topology::line(1).unwrap(), RoutingStrategy::Simple);
    let node = net.add_client(ClientId::new(1), 0);
    net.settle();
    net.subscribe(node, 1, Filter::all());
    net.settle();
    net.publish(node, "t", 5);
    net.settle();
    assert_eq!(net.delivered(node), vec![("t".into(), 5)]);
}

#[test]
fn strategies_agree_on_deliveries() {
    // A richer scenario: overlapping filters from several subscribers; all
    // strategies must produce identical delivery logs.
    let mut logs = Vec::new();
    for strategy in RoutingStrategy::ALL {
        let mut net = build(Topology::balanced(2, 3).unwrap(), strategy);
        let p1 = net.add_client(ClientId::new(100), 3);
        let p2 = net.add_client(ClientId::new(101), 6);
        let s1 = net.add_client(ClientId::new(200), 4);
        let s2 = net.add_client(ClientId::new(201), 5);
        let s3 = net.add_client(ClientId::new(202), 0);
        net.settle();
        net.subscribe(s1, 1, Filter::builder().eq("service", "t").build());
        net.subscribe(s1, 2, Filter::builder().eq("service", "t").ge("room", 5i64).build());
        net.subscribe(s2, 3, Filter::builder().ge("room", 3i64).build());
        net.subscribe(s3, 4, Filter::all());
        net.settle();
        for i in 0..6 {
            net.publish(p1, "t", i);
            net.publish(p2, "news", i);
        }
        net.settle();
        let log: Vec<_> = [s1, s2, s3].iter().map(|s| net.delivered(*s)).collect();
        logs.push((strategy, log));
    }
    let reference = logs[0].1.clone();
    for (strategy, log) in &logs {
        assert_eq!(log, &reference, "strategy {strategy} diverged");
    }
}

#[test]
fn covering_shrinks_control_state() {
    // Many similar subscriptions at one edge; measure announcements on the
    // far side of a line.
    fn announced_total(strategy: RoutingStrategy) -> (usize, u64) {
        let mut net = build(Topology::line(4).unwrap(), strategy);
        let sub_node = net.add_client(ClientId::new(200), 3);
        net.settle();
        // A broad subscription plus narrower ones it covers.
        net.subscribe(sub_node, 1, Filter::builder().eq("service", "t").build());
        for i in 0..8 {
            net.subscribe(
                sub_node,
                2 + i,
                Filter::builder().eq("service", "t").eq("room", i as i64).build(),
            );
        }
        net.settle();
        let table_entries: usize = (0..4)
            .map(|i| {
                net.world
                    .node_as::<BrokerNode>(net.broker_nodes[i])
                    .unwrap()
                    .core()
                    .router()
                    .entry_count()
            })
            .sum();
        let control: u64 = net.world.metrics().kind("sub").msgs;
        (table_entries, control)
    }
    let (simple_entries, simple_ctl) = announced_total(RoutingStrategy::Simple);
    let (covering_entries, covering_ctl) = announced_total(RoutingStrategy::Covering);
    let (flooding_entries, _) = announced_total(RoutingStrategy::Flooding);
    assert!(
        covering_entries < simple_entries,
        "covering ({covering_entries}) must beat simple ({simple_entries})"
    );
    assert!(
        covering_ctl < simple_ctl,
        "covering ({covering_ctl} sub messages) must beat simple ({simple_ctl})"
    );
    // Flooding keeps only the client-link entries (9 subs at one broker).
    assert_eq!(flooding_entries, 9);
}

#[test]
fn flooding_reaches_everywhere_but_costs_messages() {
    let (flood_msgs, simple_msgs) = {
        let mut msgs = Vec::new();
        for strategy in [RoutingStrategy::Flooding, RoutingStrategy::Simple] {
            let mut net = build(Topology::balanced(2, 4).unwrap(), strategy);
            let pub_node = net.add_client(ClientId::new(100), 7);
            let sub_node = net.add_client(ClientId::new(200), 8);
            net.settle();
            net.subscribe(sub_node, 1, Filter::builder().eq("service", "t").build());
            net.settle();
            let before = net.world.metrics().kind("pub").msgs;
            for i in 0..10 {
                net.publish(pub_node, "t", i);
            }
            net.settle();
            assert_eq!(net.delivered(sub_node).len(), 10, "strategy {strategy}");
            msgs.push(net.world.metrics().kind("pub").msgs - before);
        }
        (msgs[0], msgs[1])
    };
    assert!(
        flood_msgs > simple_msgs,
        "flooding ({flood_msgs}) must send more pub messages than simple ({simple_msgs})"
    );
}
