//! Criterion macro-benchmark: the cost of a full hand-over cycle
//! (simulated events processed per depart→arrive→settle round-trip), for
//! the reactive baseline (`k_hops: 0`) and the replicator deployment with
//! pre-subscriptions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rebeca::{
    BrokerId, Deployment, Filter, FixedClient, MobileClient, MovementGraph, Notification,
    ReplicatorConfig, SimDuration, System, SystemBuilder, Topology,
};
use std::hint::black_box;

fn build(deployment: Deployment) -> (System, FixedClient, MobileClient) {
    let mut sys = SystemBuilder::new(Topology::line(4).expect("valid line"))
        .deployment(deployment)
        .build()
        .expect("valid deployment");
    let p = sys.add_client(BrokerId::new(1)).expect("broker in topology");
    let m = sys.add_mobile_client();
    sys.arrive(m, BrokerId::new(0)).expect("fresh client arrives");
    sys.run_for(SimDuration::from_millis(300));
    sys.subscribe(m, Filter::builder().eq("service", "t").myloc("location").build())
        .expect("own client");
    sys.subscribe(m, Filter::builder().eq("service", "global").build()).expect("own client");
    sys.run_for(SimDuration::from_millis(300));
    (sys, p, m)
}

fn cycle(sys: &mut System, p: FixedClient, m: MobileClient, round: &mut u32) {
    let to = BrokerId::new(*round % 2 + 1); // bounce between B1 and B2
    *round += 1;
    for i in 0..5 {
        sys.publish(
            p,
            Notification::builder()
                .attr("service", "t")
                .attr("location", rebeca::LocationId::new(to.raw()))
                .attr("i", i as i64),
        )
        .expect("own client");
    }
    sys.run_for(SimDuration::from_millis(200));
    sys.depart(m).expect("attached client departs");
    sys.run_for(SimDuration::from_millis(200));
    sys.arrive(m, to).expect("departed client arrives");
    sys.run_for(SimDuration::from_secs(1));
}

type DeploymentFactory = fn() -> Deployment;

fn bench_handover(c: &mut Criterion) {
    let mut group = c.benchmark_group("handover-cycle");
    group.sample_size(20);
    let deployments: Vec<(&str, DeploymentFactory)> = vec![
        ("reactive", Deployment::reactive),
        ("replicator", || Deployment::Replicated {
            movement: Some(MovementGraph::line(4)),
            config: ReplicatorConfig::default(),
        }),
    ];
    for (name, make) in deployments {
        group.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, _| {
            let (mut sys, p, m) = build(make());
            let mut round = 0u32;
            b.iter(|| {
                cycle(&mut sys, p, m, &mut round);
                black_box(sys.now())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_handover);
criterion_main!(benches);
