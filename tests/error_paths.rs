//! Error-path coverage for the fallible, handle-typed facade.
//!
//! The paper's theme is uncertainty; the facade's contract is that every
//! uncertain operation reports a [`RebecaError`] instead of panicking.
//! These tests pin down each variant: foreign handles, invalid
//! deployments and topologies at build time, hand-off protocol misuse
//! (double arrive / double depart), and scheduling into the past.

use rebeca::broker::Message;
use rebeca::net::ProcessRuntime;
use rebeca::{
    BrokerId, ClientMobilityMode, Deployment, Filter, LocationId, LocationMap, MovementGraph,
    Notification, RebecaError, ReplicatorConfig, SimDuration, SimTime, System, SystemBuilder,
    Topology,
};

fn line(n: usize) -> Topology {
    Topology::line(n).expect("non-empty line")
}

fn static_system(n: usize) -> System {
    SystemBuilder::new(line(n)).build().expect("valid static deployment")
}

// ---------------------------------------------------------- build time ----

#[test]
fn build_rejects_location_map_outside_topology() {
    let mut locations = LocationMap::new();
    locations.assign(BrokerId::new(7), [LocationId::new(0)]);
    let err = SystemBuilder::new(line(3)).locations(locations).build().unwrap_err();
    assert!(matches!(err, RebecaError::InvalidDeployment(_)), "{err}");
    assert!(err.to_string().contains("B7"), "{err}");
}

#[test]
fn shards_other_than_one_are_rejected() -> Result<(), RebecaError> {
    for shards in [0, 4] {
        let err = SystemBuilder::new(line(3)).shards(shards).build().unwrap_err();
        assert!(matches!(err, RebecaError::InvalidDeployment(_)), "{shards}: {err}");
        let mut rt = ProcessRuntime::<Message>::new();
        let err = SystemBuilder::new(line(3))
            .shards(shards)
            .build_process_partition(&mut rt, &[BrokerId::new(0)], |_| None)
            .unwrap_err();
        assert!(matches!(err, RebecaError::InvalidDeployment(_)), "{shards}: {err}");
    }
    SystemBuilder::new(line(3)).shards(1).build()?;
    Ok(())
}

#[test]
fn build_rejects_explicitly_empty_movement_graph() {
    let err = SystemBuilder::new(line(3))
        .deployment(Deployment::Replicated {
            movement: Some(MovementGraph::new()),
            config: ReplicatorConfig::default(),
        })
        .build()
        .unwrap_err();
    assert!(matches!(err, RebecaError::InvalidDeployment(_)), "{err}");
}

#[test]
fn build_rejects_movement_graph_outside_topology() {
    // A 5-broker corridor over a 2-broker network: the graph promises
    // movement to brokers that do not exist.
    let err = SystemBuilder::new(line(2))
        .deployment(Deployment::Replicated {
            movement: Some(MovementGraph::line(5)),
            config: ReplicatorConfig::default(),
        })
        .build()
        .unwrap_err();
    assert!(matches!(err, RebecaError::InvalidTopology(_)), "{err}");
}

#[test]
fn defaulted_movement_graph_still_builds() -> Result<(), RebecaError> {
    // `movement: None` means "use the broker tree" — explicitly, not as a
    // silently-patched empty graph.
    let mut sys =
        SystemBuilder::new(line(3)).deployment(Deployment::replicated_defaults()).build()?;
    let m = sys.add_mobile_client();
    sys.arrive(m, BrokerId::new(1))?;
    sys.run_for(SimDuration::from_secs(1));
    sys.subscribe(m, Filter::builder().myloc("location").build())?;
    sys.run_for(SimDuration::from_secs(1));
    assert_eq!(sys.total_vc_count(), 3, "line tree: self + both neighbours");
    Ok(())
}

#[test]
fn topology_errors_convert_into_rebeca_errors() {
    fn build_empty() -> Result<System, RebecaError> {
        SystemBuilder::new(Topology::line(0)?).build()
    }
    let err = build_empty().unwrap_err();
    assert!(matches!(err, RebecaError::InvalidTopology(_)), "{err}");
}

// ------------------------------------------------------ unknown handles ----

#[test]
fn foreign_handles_report_unknown_client() {
    let mut donor = static_system(1);
    let foreign_fixed = donor.add_client(BrokerId::new(0)).unwrap();
    let foreign_mobile = donor.add_mobile_client();

    let mut sys = static_system(1); // no clients at all
    assert!(matches!(sys.delivered(foreign_fixed), Err(RebecaError::UnknownClient(_))));
    assert!(matches!(sys.client_stats(foreign_mobile), Err(RebecaError::UnknownClient(_))));
    assert!(matches!(
        sys.publish(foreign_fixed, Notification::builder().attr("k", 1i64)),
        Err(RebecaError::UnknownClient(_))
    ));
    assert!(matches!(
        sys.subscribe(foreign_mobile, Filter::builder().build()),
        Err(RebecaError::UnknownClient(_))
    ));
    assert!(matches!(
        sys.arrive(foreign_mobile, BrokerId::new(0)),
        Err(RebecaError::UnknownClient(_))
    ));
    assert!(matches!(sys.take_delivered(foreign_fixed), Err(RebecaError::UnknownClient(_))));
    assert!(matches!(
        sys.shutdown_client(foreign_fixed, BrokerId::new(0)),
        Err(RebecaError::UnknownClient(_))
    ));
}

#[test]
fn aliased_mobile_handle_reports_not_mobile() {
    // System A's first client is mobile; system B's first client is fixed.
    // A's MobileClient handle aliases B's fixed client id — the runtime
    // check behind the type system catches the cross-system confusion.
    let mut a = static_system(2);
    let mobile_from_a = a.add_mobile_client();
    let mut b = static_system(2);
    let _fixed_in_b = b.add_client(BrokerId::new(0)).unwrap();
    assert!(matches!(b.arrive(mobile_from_a, BrokerId::new(1)), Err(RebecaError::NotMobile(_))));
    assert!(matches!(b.depart(mobile_from_a), Err(RebecaError::NotMobile(_))));
    assert!(matches!(
        b.set_context(mobile_from_a, "k", rebeca::Predicate::Any),
        Err(RebecaError::NotMobile(_))
    ));
}

// ------------------------------------------------------- unknown broker ----

#[test]
fn out_of_range_brokers_are_rejected_everywhere() {
    let mut sys = static_system(2);
    let m = sys.add_mobile_client();
    let beyond = BrokerId::new(2);
    assert!(matches!(sys.add_client(beyond), Err(RebecaError::UnknownBroker(_))));
    assert!(matches!(sys.arrive(m, beyond), Err(RebecaError::UnknownBroker(_))));
    assert!(matches!(sys.broker_stats(beyond), Err(RebecaError::UnknownBroker(_))));
    assert!(matches!(sys.table_size(beyond), Err(RebecaError::UnknownBroker(_))));
    assert!(matches!(sys.replicator_stats(beyond), Err(RebecaError::UnknownBroker(_))));
    assert!(matches!(sys.vc_count(beyond), Err(RebecaError::UnknownBroker(_))));
    assert!(matches!(sys.buffer_bytes(beyond), Err(RebecaError::UnknownBroker(_))));
    assert!(matches!(sys.shutdown_client(m, beyond), Err(RebecaError::UnknownBroker(_))));
    // A failed arrive leaves the client detached.
    assert_eq!(sys.attached_broker(m).unwrap(), None);
}

// ----------------------------------------------- hand-off state machine ----

#[test]
fn double_arrive_reports_already_connected() -> Result<(), RebecaError> {
    let mut sys = static_system(3);
    let m = sys.add_mobile_client();
    sys.arrive(m, BrokerId::new(0))?;
    let err = sys.arrive(m, BrokerId::new(1)).unwrap_err();
    assert_eq!(err, RebecaError::AlreadyConnected { client: m.id(), at: BrokerId::new(0) });
    // The failed arrive is a no-op: still attached at B0, and a proper
    // depart → arrive sequence still works.
    assert_eq!(sys.attached_broker(m)?, Some(BrokerId::new(0)));
    sys.depart(m)?;
    sys.arrive(m, BrokerId::new(1))?;
    assert_eq!(sys.attached_broker(m)?, Some(BrokerId::new(1)));
    Ok(())
}

#[test]
fn double_depart_reports_not_connected() -> Result<(), RebecaError> {
    let mut sys = static_system(2);
    let m = sys.add_mobile_client();
    // Depart before any arrive: the client was never attached.
    assert_eq!(sys.depart(m).unwrap_err(), RebecaError::NotConnected(m.id()));
    sys.arrive(m, BrokerId::new(0))?;
    sys.depart(m)?;
    assert_eq!(sys.depart(m).unwrap_err(), RebecaError::NotConnected(m.id()));
    Ok(())
}

#[test]
fn naive_depart_keeps_the_clock_and_still_moves_out() -> Result<(), RebecaError> {
    // Departing delivers what is due now and leaves simulated time alone;
    // the naive client's moveOut, sent before its links go down, still
    // reaches the border and empties the client's routing entries there.
    let mut sys = static_system(2);
    let m = sys.add_mobile_client_with_mode(ClientMobilityMode::Naive);
    sys.arrive(m, BrokerId::new(0))?;
    sys.subscribe(m, Filter::builder().eq("service", "t").build())?;
    sys.run_for(SimDuration::from_millis(500));
    let subscribed = sys.table_size(BrokerId::new(0))?;
    let before = sys.now();
    sys.depart(m)?;
    assert_eq!(sys.now(), before, "depart moved the clock");
    sys.run_for(SimDuration::from_millis(10));
    assert!(sys.table_size(BrokerId::new(0))? < subscribed, "the moveOut did not reach the border");
    Ok(())
}

#[test]
fn handoff_errors_do_not_disturb_delivery() -> Result<(), RebecaError> {
    // Misuse of the hand-off API is reported *and* harmless: after the
    // errors, the flow delivers exactly as in a clean run.
    let mut sys = static_system(2);
    let p = sys.add_client(BrokerId::new(1))?;
    let m = sys.add_mobile_client();
    assert!(sys.depart(m).is_err());
    sys.arrive(m, BrokerId::new(0))?;
    assert!(sys.arrive(m, BrokerId::new(1)).is_err());
    sys.run_for(SimDuration::from_millis(500));
    sys.subscribe(m, Filter::builder().eq("service", "t").build())?;
    sys.run_for(SimDuration::from_millis(500));
    sys.publish(p, Notification::builder().attr("service", "t"))?;
    sys.run_for(SimDuration::from_secs(1));
    assert_eq!(sys.client_stats(m)?.delivered, 1);
    Ok(())
}

#[test]
fn delivered_count_survives_draining_the_log() -> Result<(), RebecaError> {
    // The statistics count deliveries, not what is left in the log.
    let mut sys = static_system(2);
    let p = sys.add_client(BrokerId::new(1))?;
    let s = sys.add_client(BrokerId::new(0))?;
    sys.subscribe(s, Filter::builder().eq("service", "t").build())?;
    sys.run_for(SimDuration::from_millis(500));
    sys.publish(p, Notification::builder().attr("service", "t"))?;
    sys.run_for(SimDuration::from_secs(1));
    assert_eq!(sys.client_stats(s)?.delivered, 1);
    assert_eq!(sys.take_delivered(s)?.len(), 1);
    assert_eq!(sys.client_stats(s)?.delivered, 1, "draining the log reset the count");
    Ok(())
}

#[test]
fn shutdown_detaches_the_mobile_client() -> Result<(), RebecaError> {
    // An orderly shutdown must not leave the facade believing the client
    // is still attached: the handle stays usable for a later arrive.
    let mut sys = SystemBuilder::new(line(2)).build()?;
    let m = sys.add_mobile_client();
    sys.arrive(m, BrokerId::new(0))?;
    sys.run_for(SimDuration::from_millis(300));
    sys.shutdown_client(m, BrokerId::new(0))?;
    sys.run_for(SimDuration::from_millis(300));
    assert_eq!(sys.attached_broker(m)?, None, "shutdown must clear attachment");
    sys.arrive(m, BrokerId::new(1))?;
    assert_eq!(sys.attached_broker(m)?, Some(BrokerId::new(1)));
    Ok(())
}

// ------------------------------------------------------------ scheduling ----

#[test]
fn publishing_into_the_past_is_an_error() -> Result<(), RebecaError> {
    let mut sys = static_system(1);
    let c = sys.add_client(BrokerId::new(0))?;
    sys.run_for(SimDuration::from_secs(10));
    let err = sys
        .publish_at(c, Notification::builder().attr("k", 1i64), SimTime::from_secs(5))
        .unwrap_err();
    assert_eq!(
        err,
        RebecaError::TimeInPast { at: SimTime::from_secs(5), now: SimTime::from_secs(10) }
    );
    // Scheduling at exactly `now` or later is fine.
    sys.publish_at(c, Notification::builder().attr("k", 2i64), sys.now())?;
    sys.publish_at(c, Notification::builder().attr("k", 3i64), SimTime::from_secs(20))?;
    Ok(())
}
