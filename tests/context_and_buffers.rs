//! Integration tests for the §4 extensions: context-dependent
//! subscriptions, buffering policies at system level, and the shared
//! digest buffer — driven through the handle-based `Result` facade.

use rebeca::{
    BrokerId, BufferSpec, Deployment, Filter, MovementGraph, Notification, Predicate, RebecaError,
    ReplicatorConfig, SimDuration, SystemBuilder, Topology, Value,
};

#[test]
fn context_dependent_subscription_adapts_on_context_change() -> Result<(), RebecaError> {
    let mut sys =
        SystemBuilder::new(Topology::line(2)?).deployment(Deployment::reactive()).build()?;
    let p = sys.add_client(BrokerId::new(1))?;
    let m = sys.add_mobile_client();
    sys.arrive(m, BrokerId::new(0))?;
    sys.run_for(SimDuration::from_millis(300));

    // "Traffic alerts for my current speed class" — a state-dependent
    // subscription. `set_context` only accepts mobile handles.
    sys.set_context(m, "speed-class", Predicate::Eq(Value::from("slow")))?;
    sys.subscribe(
        m,
        Filter::builder().eq("service", "traffic").myctx("class", "speed-class").build(),
    )?;
    sys.run_for(SimDuration::from_millis(300));

    let publish = |sys: &mut rebeca::System, class: &str, i: i64| -> Result<(), RebecaError> {
        sys.publish(
            p,
            Notification::builder().attr("service", "traffic").attr("class", class).attr("i", i),
        )
    };
    publish(&mut sys, "slow", 1)?;
    publish(&mut sys, "fast", 2)?;
    sys.run_for(SimDuration::from_secs(1));

    // Context changes (the car speeds up): the subscription adapts
    // automatically.
    sys.set_context(m, "speed-class", Predicate::Eq(Value::from("fast")))?;
    sys.run_for(SimDuration::from_millis(300));
    publish(&mut sys, "slow", 3)?;
    publish(&mut sys, "fast", 4)?;
    sys.run_for(SimDuration::from_secs(1));

    let got: Vec<i64> = sys
        .delivered(m)?
        .iter()
        .filter_map(|r| r.notification.get("i").and_then(|v| v.as_int()))
        .collect();
    assert_eq!(got, vec![1, 4], "subscription must follow the context");
    Ok(())
}

#[test]
fn history_buffer_limits_replay_length() -> Result<(), RebecaError> {
    for (capacity, expected) in [(2usize, 2usize), (10, 5)] {
        let mut sys = SystemBuilder::new(Topology::line(2)?)
            .deployment(Deployment::Replicated {
                movement: Some(MovementGraph::line(2)),
                config: ReplicatorConfig {
                    buffer: BufferSpec::HistoryBased { capacity },
                    ..Default::default()
                },
            })
            .build()?;
        let p = sys.add_client(BrokerId::new(1))?;
        let m = sys.add_mobile_client();
        sys.arrive(m, BrokerId::new(0))?;
        sys.run_for(SimDuration::from_millis(300));
        sys.subscribe(m, Filter::builder().myloc("location").build())?;
        sys.run_for(SimDuration::from_millis(300));
        for i in 0..5 {
            sys.publish(
                p,
                Notification::builder()
                    .attr("location", rebeca::LocationId::new(1))
                    .attr("i", i as i64),
            )?;
        }
        sys.run_for(SimDuration::from_secs(1));
        sys.depart(m)?;
        sys.run_for(SimDuration::from_millis(300));
        sys.arrive(m, BrokerId::new(1))?;
        sys.run_for(SimDuration::from_secs(1));
        assert_eq!(
            sys.delivered(m)?.len(),
            expected,
            "history({capacity}) must replay the last {expected}"
        );
    }
    Ok(())
}

#[test]
fn time_buffer_expires_stale_notifications() -> Result<(), RebecaError> {
    let mut sys = SystemBuilder::new(Topology::line(2)?)
        .deployment(Deployment::Replicated {
            movement: Some(MovementGraph::line(2)),
            config: ReplicatorConfig {
                buffer: BufferSpec::TimeBased { ttl: SimDuration::from_secs(5) },
                ..Default::default()
            },
        })
        .build()?;
    let p = sys.add_client(BrokerId::new(1))?;
    let m = sys.add_mobile_client();
    sys.arrive(m, BrokerId::new(0))?;
    sys.run_for(SimDuration::from_millis(300));
    sys.subscribe(m, Filter::builder().myloc("location").build())?;
    sys.run_for(SimDuration::from_millis(300));
    // One stale publication, then 8 s pass, then one fresh publication.
    sys.publish(
        p,
        Notification::builder().attr("location", rebeca::LocationId::new(1)).attr("i", 1i64),
    )?;
    sys.run_for(SimDuration::from_secs(8));
    sys.publish(
        p,
        Notification::builder().attr("location", rebeca::LocationId::new(1)).attr("i", 2i64),
    )?;
    sys.run_for(SimDuration::from_secs(1));
    sys.depart(m)?;
    sys.run_for(SimDuration::from_millis(300));
    sys.arrive(m, BrokerId::new(1))?;
    sys.run_for(SimDuration::from_secs(1));
    let got: Vec<i64> = sys
        .delivered(m)?
        .iter()
        .filter_map(|r| r.notification.get("i").and_then(|v| v.as_int()))
        .collect();
    assert_eq!(got, vec![2], "the stale notification must have expired");
    Ok(())
}

#[test]
fn shared_buffer_deduplicates_across_virtual_clients() -> Result<(), RebecaError> {
    // Two mobile clients with identical interests hosted at the same
    // replicator: the shared store keeps one copy, private mode keeps two.
    let build = |shared: bool| -> Result<usize, RebecaError> {
        let mut sys = SystemBuilder::new(Topology::line(3)?)
            .deployment(Deployment::Replicated {
                movement: Some(MovementGraph::line(3)),
                config: ReplicatorConfig {
                    buffer: BufferSpec::Unbounded,
                    shared_buffer: shared,
                    ..Default::default()
                },
            })
            .build()?;
        let p = sys.add_client(BrokerId::new(1))?;
        let a = sys.add_mobile_client();
        let b = sys.add_mobile_client();
        for m in [a, b] {
            sys.arrive(m, BrokerId::new(0))?;
            sys.run_for(SimDuration::from_millis(300));
            sys.subscribe(m, Filter::builder().myloc("location").build())?;
            sys.run_for(SimDuration::from_millis(300));
        }
        for i in 0..20 {
            sys.publish(
                p,
                Notification::builder()
                    .attr("location", rebeca::LocationId::new(1))
                    .attr("i", i as i64)
                    .attr("pad", "x".repeat(64)),
            )?;
        }
        sys.run_for(SimDuration::from_secs(2));
        sys.buffer_bytes(BrokerId::new(1))
    };
    let private_bytes = build(false)?;
    let shared_bytes = build(true)?;
    assert!(private_bytes > 0 && shared_bytes > 0);
    assert!(
        shared_bytes < private_bytes,
        "shared store ({shared_bytes}) must undercut private buffers ({private_bytes})"
    );
    Ok(())
}

/// Publishes 3 notifications for L1 `lead` before the client leaves B0 for
/// B1, and returns how many of them are replayed to it on arrival.
fn replay_after_lead(policy: BufferSpec, lead: SimDuration) -> Result<usize, RebecaError> {
    let mut sys = SystemBuilder::new(Topology::line(2)?)
        .deployment(Deployment::Replicated {
            movement: Some(MovementGraph::line(2)),
            config: ReplicatorConfig { buffer: policy, ..Default::default() },
        })
        .build()?;
    let p = sys.add_client(BrokerId::new(1))?;
    let m = sys.add_mobile_client();
    sys.arrive(m, BrokerId::new(0))?;
    sys.run_for(SimDuration::from_millis(300));
    sys.subscribe(m, Filter::builder().myloc("location").build())?;
    sys.run_for(SimDuration::from_millis(300));
    for i in 0..3 {
        sys.publish(
            p,
            Notification::builder()
                .attr("location", rebeca::LocationId::new(1))
                .attr("i", i as i64),
        )?;
    }
    sys.run_for(lead);
    sys.depart(m)?;
    sys.run_for(SimDuration::from_millis(300));
    sys.arrive(m, BrokerId::new(1))?;
    sys.run_for(SimDuration::from_secs(1));
    Ok(sys.delivered(m)?.len())
}

#[test]
fn pre_arrival_replay_follows_the_buffer_policy() -> Result<(), RebecaError> {
    // The paper's "subscription in the past": a notification published
    // `lead` before arrival is replayed iff the virtual client's buffer
    // still holds it. Rows are policies, columns leads of 1, 5, 15, 45 s.
    let leads = [1u64, 5, 15, 45];
    let table = [
        ("unbounded", BufferSpec::Unbounded, [3, 3, 3, 3]),
        ("time(10s)", BufferSpec::TimeBased { ttl: SimDuration::from_secs(10) }, [3, 3, 0, 0]),
        ("history(2)", BufferSpec::HistoryBased { capacity: 2 }, [2, 2, 2, 2]),
        ("none", BufferSpec::None, [0, 0, 0, 0]),
    ];
    for (name, policy, expected) in table {
        for (lead_s, want) in leads.into_iter().zip(expected) {
            let got = replay_after_lead(policy.clone(), SimDuration::from_secs(lead_s))?;
            assert_eq!(got, want, "{name} at lead {lead_s} s replays {got}/3, not {want}/3");
        }
    }
    Ok(())
}

#[test]
fn replay_is_equivalent_to_a_subscription_in_the_past() -> Result<(), RebecaError> {
    // The paper's framing: after arrival the client's log looks as if it
    // had been subscribed at the new location all along.
    let mut sys = SystemBuilder::new(Topology::line(2)?)
        .deployment(Deployment::Replicated {
            movement: Some(MovementGraph::line(2)),
            config: ReplicatorConfig::default(),
        })
        .build()?;
    let p = sys.add_client(BrokerId::new(1))?;
    let mover = sys.add_mobile_client();
    let resident = sys.add_mobile_client(); // lives at B1 the whole time
    sys.arrive(resident, BrokerId::new(1))?;
    sys.arrive(mover, BrokerId::new(0))?;
    sys.run_for(SimDuration::from_millis(300));
    for c in [mover, resident] {
        sys.subscribe(c, Filter::builder().myloc("location").build())?;
    }
    sys.run_for(SimDuration::from_millis(300));
    for i in 0..6 {
        sys.publish(
            p,
            Notification::builder()
                .attr("location", rebeca::LocationId::new(1))
                .attr("i", i as i64),
        )?;
        sys.run_for(SimDuration::from_millis(500));
    }
    sys.depart(mover)?;
    sys.run_for(SimDuration::from_millis(300));
    sys.arrive(mover, BrokerId::new(1))?;
    sys.run_for(SimDuration::from_secs(2));

    let marks = |c| -> Vec<i64> {
        sys.delivered(c)
            .expect("own client")
            .iter()
            .filter_map(|r| r.notification.get("i").and_then(|v| v.as_int()))
            .collect()
    };
    assert_eq!(
        marks(mover),
        marks(resident),
        "the mover's log must equal the resident's — a subscription in the past"
    );
    Ok(())
}
