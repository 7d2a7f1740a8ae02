//! Balance of the replicator's byte ledger (paper §4's shared buffer).
//!
//! Every buffer of a replicator reports what it admits and lets go to the
//! replicator's one [`rebeca::mobility::ByteLedger`], which counts holders
//! per notification; an entry must vanish when its last holder lets go.
//! This property test drives a replicated deployment through random
//! handover / exception-mode / publish / removal sequences and asserts that
//! once every mobile client has been shut down (all virtual clients
//! garbage-collected), every replicator's ledger is empty with
//! `bytes() == 0` — guarding all release paths: handover replay, policy
//! eviction, sweep GC and virtual client deletion.

use proptest::prelude::*;
use rebeca::{
    BrokerId, BufferSpec, Deployment, Filter, LocationId, MovementGraph, Notification,
    ReplicatorConfig, SimDuration, SystemBuilder, Topology,
};

const BROKERS: u32 = 4;

#[derive(Debug, Clone)]
enum Op {
    /// Move a mobile client to a broker (may be a non-neighbour in the
    /// movement graph — the exception-mode path).
    Move { client: usize, to: u32 },
    /// Publish a location-tagged notification from the fixed publisher.
    Publish { location: u32, value: i64 },
    /// Let simulated time pass (sweeps, TTL expiry).
    Wait { millis: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..2, 0..BROKERS).prop_map(|(client, to)| Op::Move { client, to }),
        (0..BROKERS, 0i64..100).prop_map(|(location, value)| Op::Publish { location, value }),
        (1u64..4000).prop_map(|millis| Op::Wait { millis }),
    ]
}

fn arb_spec() -> impl Strategy<Value = BufferSpec> {
    prop_oneof![
        Just(BufferSpec::Unbounded),
        (1usize..4).prop_map(|capacity| BufferSpec::HistoryBased { capacity }),
        (1u64..8).prop_map(|s| BufferSpec::TimeBased { ttl: SimDuration::from_secs(s) }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn shared_buffer_drains_once_all_vcs_are_gone(
        ops in proptest::collection::vec(arb_op(), 1..20),
        spec in arb_spec(),
        k_hops in 1u32..3,
    ) {
        let config = ReplicatorConfig { buffer: spec, k_hops };
        let mut sys = SystemBuilder::new(Topology::line(BROKERS as usize).expect("valid line"))
            .deployment(Deployment::Replicated {
                movement: Some(MovementGraph::line(BROKERS as usize)),
                config,
            })
            .build()
            .expect("valid deployment");

        let publisher = sys.add_client(BrokerId::new(1)).expect("broker in topology");
        let mobiles = [sys.add_mobile_client(), sys.add_mobile_client()];
        for (i, m) in mobiles.iter().enumerate() {
            sys.arrive(*m, BrokerId::new(i as u32)).expect("fresh client arrives");
        }
        sys.run_for(SimDuration::from_millis(500));
        for m in &mobiles {
            sys.subscribe(*m, Filter::builder().eq("service", "t").myloc("location").build())
                .expect("own client");
        }
        sys.run_for(SimDuration::from_secs(1));

        for op in &ops {
            match op {
                Op::Move { client, to } => {
                    let m = mobiles[*client];
                    if sys.attached_broker(m).expect("own client").is_some() {
                        sys.depart(m).expect("attached client departs");
                        sys.run_for(SimDuration::from_millis(200));
                    }
                    sys.arrive(m, BrokerId::new(*to)).expect("departed client arrives");
                }
                Op::Publish { location, value } => {
                    sys.publish(
                        publisher,
                        Notification::builder()
                            .attr("service", "t")
                            .attr("location", LocationId::new(*location))
                            .attr("v", *value),
                    )
                    .expect("own client");
                }
                Op::Wait { millis } => sys.run_for(SimDuration::from_millis(*millis)),
            }
            sys.run_for(SimDuration::from_millis(300));
        }

        // Orderly removal of every mobile client, wherever it is.
        for m in mobiles {
            let at = match sys.attached_broker(m).expect("own client") {
                Some(b) => b,
                None => {
                    // Shut down while out of coverage: re-appear first so
                    // the removal reaches the infrastructure.
                    sys.arrive(m, BrokerId::new(0)).expect("departed client arrives");
                    sys.run_for(SimDuration::from_secs(1));
                    BrokerId::new(0)
                }
            };
            sys.shutdown_client(m, at).expect("own client");
            sys.run_for(SimDuration::from_secs(2));
        }
        // Let sweeps and grace periods drain.
        sys.run_for(SimDuration::from_secs(30));

        prop_assert_eq!(sys.total_vc_count(), 0, "virtual clients survived orderly removal");
        for b in 0..BROKERS {
            let rep = sys
                .replicator(BrokerId::new(b))
                .expect("broker in topology")
                .expect("replicated deployment");
            let ledger = rep.ledger();
            prop_assert_eq!(
                ledger.len(),
                0,
                "broker {}: {} ledger entries leaked (holder imbalance)",
                b,
                ledger.len()
            );
            prop_assert_eq!(ledger.bytes(), 0, "broker {}: leaked bytes", b);
        }
    }
}
