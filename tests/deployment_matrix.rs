//! Cross-crate integration: the deployment × strategy matrix.
//!
//! Every mobility deployment must deliver correctly under every routing
//! strategy — the paper's layering claim is precisely that mobility
//! support composes with the routing framework without touching it.
//! Exercises the handle-based `Result` facade throughout: builders are
//! `?`-ed, clients are typed handles, and mobility steps are fallible.

use rebeca::{
    BrokerId, Deployment, Filter, MovementGraph, Notification, RebecaError, ReplicatorConfig,
    RoutingStrategy, SimDuration, SystemBuilder, Topology,
};

fn deployments() -> Vec<(&'static str, Deployment)> {
    vec![
        ("static", Deployment::Static),
        ("reactive", Deployment::reactive()),
        (
            "replicated",
            Deployment::Replicated {
                movement: Some(MovementGraph::line(4)),
                config: ReplicatorConfig::default(),
            },
        ),
    ]
}

#[test]
fn immobile_delivery_across_the_matrix() -> Result<(), RebecaError> {
    for strategy in RoutingStrategy::ALL {
        for (name, deployment) in deployments() {
            let mut sys = SystemBuilder::new(Topology::line(4)?)
                .strategy(strategy)
                .deployment(deployment)
                .build()?;
            let p = sys.add_client(BrokerId::new(0))?;
            let s = sys.add_client(BrokerId::new(3))?;
            sys.run_for(SimDuration::from_millis(500));
            sys.subscribe(s, Filter::builder().eq("service", "t").build())?;
            sys.run_for(SimDuration::from_millis(500));
            for i in 0..5 {
                sys.publish(p, Notification::builder().attr("service", "t").attr("i", i as i64))?;
            }
            sys.run_for(SimDuration::from_secs(2));
            let stats = sys.client_stats(s)?;
            assert_eq!(stats.delivered, 5, "{name}/{strategy}");
            assert_eq!(stats.duplicates, 0, "{name}/{strategy}");
            assert_eq!(stats.fifo_violations, 0, "{name}/{strategy}");
        }
    }
    Ok(())
}

#[test]
fn mobile_relocation_across_strategies() -> Result<(), RebecaError> {
    for strategy in RoutingStrategy::ALL {
        let mut sys = SystemBuilder::new(Topology::line(4)?)
            .strategy(strategy)
            .deployment(Deployment::reactive())
            .build()?;
        let p = sys.add_client(BrokerId::new(1))?;
        let m = sys.add_mobile_client();
        sys.arrive(m, BrokerId::new(0))?;
        sys.run_for(SimDuration::from_millis(500));
        sys.subscribe(m, Filter::builder().eq("service", "s").build())?;
        sys.run_for(SimDuration::from_millis(500));
        for i in 0..3 {
            sys.publish(p, Notification::builder().attr("service", "s").attr("i", i as i64))?;
        }
        sys.run_for(SimDuration::from_secs(1));
        sys.depart(m)?;
        sys.run_for(SimDuration::from_millis(500));
        for i in 3..6 {
            sys.publish(p, Notification::builder().attr("service", "s").attr("i", i as i64))?;
        }
        sys.run_for(SimDuration::from_secs(1));
        sys.arrive(m, BrokerId::new(3))?;
        sys.run_for(SimDuration::from_secs(2));
        let stats = sys.client_stats(m)?;
        assert_eq!(stats.delivered, 6, "strategy {strategy}: relocation must be lossless");
        assert_eq!(stats.fifo_violations, 0, "strategy {strategy}");
    }
    Ok(())
}

#[test]
fn replicated_handover_across_strategies() -> Result<(), RebecaError> {
    for strategy in RoutingStrategy::ALL {
        let mut sys = SystemBuilder::new(Topology::line(3)?)
            .strategy(strategy)
            .deployment(Deployment::Replicated {
                movement: Some(MovementGraph::line(3)),
                config: ReplicatorConfig::default(),
            })
            .build()?;
        let p1 = sys.add_client(BrokerId::new(1))?;
        let m = sys.add_mobile_client();
        sys.arrive(m, BrokerId::new(0))?;
        sys.run_for(SimDuration::from_millis(500));
        sys.subscribe(m, Filter::builder().eq("service", "x").myloc("location").build())?;
        sys.run_for(SimDuration::from_millis(500));
        // Published at L1 before the client gets there.
        sys.publish(
            p1,
            Notification::builder()
                .attr("service", "x")
                .attr("location", rebeca::LocationId::new(1))
                .attr("i", 1i64),
        )?;
        sys.run_for(SimDuration::from_secs(1));
        sys.depart(m)?;
        sys.run_for(SimDuration::from_millis(500));
        sys.arrive(m, BrokerId::new(1))?;
        sys.run_for(SimDuration::from_secs(2));
        let stats = sys.client_stats(m)?;
        assert_eq!(stats.delivered, 1, "strategy {strategy}: replay must happen");
        assert_eq!(stats.duplicates, 0, "strategy {strategy}");
    }
    Ok(())
}

#[test]
fn covering_routing_still_serves_vc_filters() -> Result<(), RebecaError> {
    // Virtual-client subscriptions are per-location resolved and thus
    // similar across neighbouring brokers — exactly the covering-friendly
    // pattern; ensure covering does not eat them.
    let mut sys = SystemBuilder::new(Topology::star(5)?)
        .strategy(RoutingStrategy::Covering)
        .deployment(Deployment::Replicated {
            movement: Some(MovementGraph::complete(5)),
            config: ReplicatorConfig::default(),
        })
        .build()?;
    let hub_pub = sys.add_client(BrokerId::new(0))?;
    let m = sys.add_mobile_client();
    sys.arrive(m, BrokerId::new(1))?;
    sys.run_for(SimDuration::from_millis(500));
    sys.subscribe(m, Filter::builder().myloc("location").build())?;
    sys.run_for(SimDuration::from_millis(500));
    assert_eq!(sys.total_vc_count(), 5, "complete movement graph covers all brokers");
    // Publish for every location; only L1 must arrive (the client is at B1).
    for l in 0..5 {
        sys.publish(
            hub_pub,
            Notification::builder()
                .attr("location", rebeca::LocationId::new(l))
                .attr("l", l as i64),
        )?;
    }
    sys.run_for(SimDuration::from_secs(2));
    let delivered = sys.delivered(m)?;
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].notification.get("l").and_then(|v| v.as_int()), Some(1));
    Ok(())
}
