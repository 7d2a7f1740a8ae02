//! The experiment suite (E1–E8). See DESIGN.md §5 for the index mapping
//! each experiment to the paper claim it validates.

use rebeca::{
    BrokerId, BufferSpec, Deployment, Filter, LocationId, MovementGraph, Notification,
    ReplicatorConfig, RoutingStrategy, SimDuration, SystemBuilder, Topology,
};
use rebeca_sim::scenario::{self, MovementKind, ScenarioConfig, SystemVariant, TopologyKind};
use rebeca_sim::workload::{Arrivals, WorkloadConfig};
use rebeca_sim::{MovementModel, Summary, Table};

/// Experiment scale: quick for CI / `cargo bench`, full for the numbers in
/// EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Short runs (seconds).
    Quick,
    /// Longer runs (minutes) with more seeds.
    Full,
}

impl Scale {
    /// Reads `FIGURES_SCALE=full` from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("FIGURES_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    fn duration(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_secs(120),
            Scale::Full => SimDuration::from_secs(600),
        }
    }

    fn seeds(self) -> u64 {
        match self {
            Scale::Quick => 2,
            Scale::Full => 5,
        }
    }
}

/// Runs one experiment by id (`"E1"`…`"E8"`), returning its rendered
/// tables.
pub fn run_experiment(id: &str, scale: Scale) -> String {
    match id.to_ascii_uppercase().as_str() {
        "E1" => e1_reactivity(scale),
        "E2" => e2_subscription_in_the_past(scale),
        "E3" => e3_coverage_vs_overhead(scale),
        "E4" => e4_buffer_policies(scale),
        "E5" => e5_shared_buffer(scale),
        "E6" => e6_physical_mobility(scale),
        "E7" => e7_routing_strategies(scale),
        "E8" => e8_scalability(scale),
        other => format!("unknown experiment `{other}` (valid: E1..E8)\n"),
    }
}

/// Runs the whole suite.
pub fn run_all(scale: Scale) -> String {
    let mut out = String::new();
    for id in ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"] {
        out.push_str(&run_experiment(id, scale));
        out.push('\n');
    }
    out
}

fn base_workload(scale: Scale, period: SimDuration, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        services: vec!["service".into()],
        arrivals: Arrivals::Periodic { period },
        duration: scale.duration(),
        seed,
        ..Default::default()
    }
}

// ---------------------------------------------------------------- E1 ----

/// E1 — Handover reactivity: "the adaptation of location-dependent
/// subscriptions should take place instantaneously" (§1/§3). Time from
/// arrival to the first notification for the new location, reactive vs
/// extended, across publication periods.
pub fn e1_reactivity(scale: Scale) -> String {
    let mut table = Table::new([
        "pub period (s)",
        "variant",
        "T1 mean (s)",
        "T1 p95 (s)",
        "live misses",
        "replayed",
    ])
    .titled("E1 — reactivity after hand-over (grid 3×3, random walk)");
    for period_s in [2u64, 5, 10] {
        for variant in [SystemVariant::ReactiveLogical, SystemVariant::extended_default()] {
            let mut t1 = Vec::new();
            let mut misses = 0usize;
            let mut replayed = 0u64;
            for seed in 0..scale.seeds() {
                let cfg = ScenarioConfig {
                    brokers: 9,
                    topology: TopologyKind::Random(3),
                    movement_graph: MovementKind::Grid(3, 3),
                    variant: variant.clone(),
                    mobile_clients: 2,
                    movement_model: MovementModel::RandomWalk,
                    dwell: SimDuration::from_secs(25),
                    gap: SimDuration::from_millis(500),
                    workload: base_workload(scale, SimDuration::from_secs(period_s), seed ^ 0xE1),
                    location_dependent: true,
                    seed: 1000 + seed,
                    ..Default::default()
                };
                let out = scenario::run(&cfg);
                t1.extend(out.arrival_latencies());
                misses +=
                    out.location_reports(SimDuration::ZERO).iter().map(|r| r.misses).sum::<usize>();
                replayed += out.replicator_totals.replayed;
            }
            let s = Summary::of(t1);
            table.row([
                period_s.to_string(),
                variant.name(),
                format!("{:.3}", s.mean),
                format!("{:.3}", s.p95),
                misses.to_string(),
                replayed.to_string(),
            ]);
        }
    }
    table.render()
}

// ---------------------------------------------------------------- E2 ----

/// E2 — "Subscription in the past": a notification published `lead`
/// seconds before arrival at its location must be replayed iff the buffer
/// policy still holds it.
pub fn e2_subscription_in_the_past(_scale: Scale) -> String {
    let mut table = Table::new(["policy", "lead 1s", "lead 5s", "lead 15s", "lead 45s"])
        .titled("E2 — pre-arrival replay (\"listen for a while\" semantics)");
    let policies: Vec<(String, BufferSpec)> = vec![
        ("unbounded".into(), BufferSpec::Unbounded),
        ("time(10s)".into(), BufferSpec::TimeBased { ttl: SimDuration::from_secs(10) }),
        ("history(2)".into(), BufferSpec::HistoryBased { capacity: 2 }),
        ("none".into(), BufferSpec::None),
    ];
    for (name, policy) in policies {
        let mut cells = vec![name];
        for lead_s in [1u64, 5, 15, 45] {
            let recovered = replay_after_lead(policy.clone(), SimDuration::from_secs(lead_s));
            cells.push(format!("{recovered}/3"));
        }
        table.row(cells);
    }
    table.render()
}

/// Publishes 3 notifications at L1 `lead` before the client moves there;
/// returns how many were replayed on arrival.
fn replay_after_lead(policy: BufferSpec, lead: SimDuration) -> usize {
    let mut sys = SystemBuilder::new(Topology::line(2).expect("valid line"))
        .deployment(Deployment::Replicated {
            movement: Some(MovementGraph::line(2)),
            config: ReplicatorConfig { buffer: policy, ..Default::default() },
        })
        .build()
        .expect("valid deployment");
    let p = sys.add_client(BrokerId::new(1)).expect("broker in topology");
    let m = sys.add_mobile_client();
    sys.arrive(m, BrokerId::new(0)).expect("fresh client arrives");
    sys.run_for(SimDuration::from_millis(300));
    sys.subscribe(m, Filter::builder().myloc("location").build()).expect("own client");
    sys.run_for(SimDuration::from_millis(300));
    for i in 0..3 {
        sys.publish(
            p,
            Notification::builder().attr("location", LocationId::new(1)).attr("i", i as i64),
        )
        .expect("own client");
    }
    sys.run_for(lead);
    sys.depart(m).expect("attached client departs");
    sys.run_for(SimDuration::from_millis(300));
    sys.arrive(m, BrokerId::new(1)).expect("departed client arrives");
    sys.run_for(SimDuration::from_secs(1));
    sys.delivered(m).expect("own client").len()
}

// ---------------------------------------------------------------- E3 ----

/// E3 — Coverage vs overhead: the §4 trade-off ("as large as necessary …
/// as small as possible"). k-hop sweep × pop-up probability; miss rate
/// against the *idealised demand* oracle, replication traffic, peak VCs.
pub fn e3_coverage_vs_overhead(scale: Scale) -> String {
    let brokers = 6usize;
    let mut table = Table::new([
        "k",
        "popup p",
        "miss % (ideal demand)",
        "mob+sub bytes",
        "total bytes",
        "peak VCs",
        "exceptions",
    ])
    .titled("E3 — nlb radius vs coverage (line of 6 brokers; k=5 ≈ flooding)");
    for k in [0u32, 1, 2, 5] {
        for popup in [0.0f64, 0.3, 0.7] {
            let mut hits = 0usize;
            let mut misses = 0usize;
            let mut overhead = 0u64;
            let mut total_bytes = 0u64;
            let mut peak_vcs = 0usize;
            let mut exceptions = 0u64;
            for seed in 0..scale.seeds() {
                let cfg = ScenarioConfig {
                    brokers,
                    topology: TopologyKind::Line,
                    movement_graph: MovementKind::Line,
                    variant: SystemVariant::ExtendedLogical {
                        k,
                        buffer: BufferSpec::Unbounded,
                        shared: false,
                    },
                    mobile_clients: 2,
                    movement_model: if popup == 0.0 {
                        MovementModel::RandomWalk
                    } else {
                        MovementModel::PopUp { teleport_prob: popup }
                    },
                    dwell: SimDuration::from_secs(15),
                    gap: SimDuration::from_millis(500),
                    workload: base_workload(scale, SimDuration::from_secs(3), seed ^ 0xE3),
                    location_dependent: true,
                    seed: 2000 + seed,
                    ..Default::default()
                };
                let out = scenario::run(&cfg);
                for r in out.location_reports(cfg.dwell) {
                    hits += r.hits;
                    misses += r.misses;
                }
                overhead += out.bytes("mob") + out.bytes("sub");
                total_bytes += out.total_bytes();
                peak_vcs = peak_vcs.max(out.peak_vcs);
                exceptions += out.replicator_totals.exceptions;
            }
            let miss_pct = 100.0 * misses as f64 / (hits + misses).max(1) as f64;
            table.row([
                k.to_string(),
                format!("{popup:.1}"),
                format!("{miss_pct:.1}"),
                overhead.to_string(),
                total_bytes.to_string(),
                peak_vcs.to_string(),
                exceptions.to_string(),
            ]);
        }
    }
    table.render()
}

// ---------------------------------------------------------------- E4 ----

/// E4 — Buffering policies (§4 event histories): replay volume, staleness
/// and memory per policy.
pub fn e4_buffer_policies(scale: Scale) -> String {
    let mut table = Table::new([
        "policy",
        "replayed",
        "staleness mean (s)",
        "staleness p95 (s)",
        "peak buffer B",
        "miss % vs unbounded",
    ])
    .titled("E4 — buffering policies (commuter between two offices)");
    let policies: Vec<(String, BufferSpec)> = vec![
        ("unbounded".into(), BufferSpec::Unbounded),
        ("time(10s)".into(), BufferSpec::TimeBased { ttl: SimDuration::from_secs(10) }),
        ("history(5)".into(), BufferSpec::HistoryBased { capacity: 5 }),
        (
            "combined(10s,5)".into(),
            BufferSpec::Combined { ttl: SimDuration::from_secs(10), capacity: 5 },
        ),
        ("semantic(service)".into(), BufferSpec::Semantic { key_attrs: vec!["service".into()] }),
    ];
    let run_policy = |buffer: BufferSpec| {
        let cfg = ScenarioConfig {
            brokers: 3,
            topology: TopologyKind::Line,
            movement_graph: MovementKind::Line,
            variant: SystemVariant::ExtendedLogical { k: 1, buffer, shared: false },
            mobile_clients: 1,
            movement_model: MovementModel::Commuter { other: BrokerId::new(1) },
            dwell: SimDuration::from_secs(20),
            gap: SimDuration::from_millis(500),
            workload: base_workload(scale, SimDuration::from_secs(2), 0xE4),
            location_dependent: true,
            seed: 3000,
            ..Default::default()
        };
        scenario::run(&cfg)
    };
    let unbounded_hits: usize = run_policy(BufferSpec::Unbounded)
        .location_reports(SimDuration::from_secs(3600))
        .iter()
        .map(|r| r.hits)
        .sum();
    for (name, policy) in policies {
        let out = run_policy(policy);
        // Staleness of replayed notifications: delivery delay beyond 1 s is
        // replay (live delivery is a few ms).
        let staleness: Vec<f64> = out
            .delivered
            .iter()
            .flatten()
            .filter_map(|(mark, at)| {
                let p = out.pubs.iter().find(|e| e.mark == *mark)?;
                let delay = (*at - p.at).as_secs_f64();
                (delay > 1.0).then_some(delay)
            })
            .collect();
        let replayed = out.replicator_totals.replayed;
        let hits: usize =
            out.location_reports(SimDuration::from_secs(3600)).iter().map(|r| r.hits).sum();
        let miss_vs_unbounded =
            100.0 * (unbounded_hits.saturating_sub(hits)) as f64 / unbounded_hits.max(1) as f64;
        let s = Summary::of(staleness);
        table.row([
            name,
            replayed.to_string(),
            format!("{:.2}", s.mean),
            format!("{:.2}", s.p95),
            out.peak_buffer_bytes.to_string(),
            format!("{miss_vs_unbounded:.1}"),
        ]);
    }
    table.render()
}

// ---------------------------------------------------------------- E5 ----

/// E5 — Shared digest buffer (§4): memory vs clients per broker, private
/// vs shared.
pub fn e5_shared_buffer(_scale: Scale) -> String {
    let mut table = Table::new(["clients", "private B", "shared B", "saving %"])
        .titled("E5 — shared buffer with digests (identical interests per broker)");
    for clients in [1usize, 2, 4, 8] {
        let measure = |shared: bool| -> usize {
            let mut sys = SystemBuilder::new(Topology::line(3).expect("valid line"))
                .deployment(Deployment::Replicated {
                    movement: Some(MovementGraph::line(3)),
                    config: ReplicatorConfig {
                        buffer: BufferSpec::Unbounded,
                        shared_buffer: shared,
                        ..Default::default()
                    },
                })
                .build()
                .expect("valid deployment");
            let p = sys.add_client(BrokerId::new(1)).expect("broker in topology");
            let ms: Vec<_> = (0..clients).map(|_| sys.add_mobile_client()).collect();
            for &m in &ms {
                sys.arrive(m, BrokerId::new(0)).expect("fresh client arrives");
                sys.run_for(SimDuration::from_millis(200));
                sys.subscribe(m, Filter::builder().myloc("location").build()).expect("own client");
            }
            sys.run_for(SimDuration::from_millis(500));
            for i in 0..50 {
                sys.publish(
                    p,
                    Notification::builder()
                        .attr("location", LocationId::new(1))
                        .attr("i", i as i64)
                        .attr("pad", "x".repeat(96)),
                )
                .expect("own client");
            }
            sys.run_for(SimDuration::from_secs(2));
            sys.buffer_bytes(BrokerId::new(1)).expect("broker in topology")
        };
        let private = measure(false);
        let shared = measure(true);
        let saving = 100.0 * (private.saturating_sub(shared)) as f64 / private.max(1) as f64;
        table.row([
            clients.to_string(),
            private.to_string(),
            shared.to_string(),
            format!("{saving:.0}"),
        ]);
    }
    table.render()
}

// ---------------------------------------------------------------- E6 ----

/// E6 — Physical mobility: "transparent, uninterrupted flow" vs the naive
/// baseline, and relocation cost vs distance.
pub fn e6_physical_mobility(scale: Scale) -> String {
    let mut out = String::new();
    let mut table = Table::new(["variant", "gap (s)", "lost", "dup", "fifo viol", "delivered"])
        .titled("E6a — loss across hand-offs (location-independent subscription)");
    for gap_s in [1u64, 3, 6] {
        for variant in [SystemVariant::NaiveReconnect, SystemVariant::ReactiveLogical] {
            let mut lost = 0usize;
            let mut dup = 0u64;
            let mut fifo = 0u64;
            let mut delivered = 0usize;
            for seed in 0..scale.seeds() {
                let cfg = ScenarioConfig {
                    brokers: 5,
                    variant: variant.clone(),
                    mobile_clients: 2,
                    dwell: SimDuration::from_secs(12),
                    gap: SimDuration::from_secs(gap_s),
                    workload: base_workload(scale, SimDuration::from_secs(1), seed ^ 0xE6),
                    location_dependent: false,
                    seed: 4000 + seed,
                    ..Default::default()
                };
                let o = scenario::run(&cfg);
                lost += o.global_reports().iter().map(|r| r.misses).sum::<usize>();
                dup += o.duplicates.iter().sum::<u64>();
                fifo += o.fifo_violations.iter().sum::<u64>();
                delivered += o.delivered.iter().map(Vec::len).sum::<usize>();
            }
            table.row([
                variant.name(),
                gap_s.to_string(),
                lost.to_string(),
                dup.to_string(),
                fifo.to_string(),
                delivered.to_string(),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push('\n');

    // E6b: relocation cost vs distance between old and new broker.
    let mut t2 = Table::new(["distance (hops)", "ctl+mob msgs", "ctl+mob bytes", "replayed"])
        .titled("E6b — relocation cost vs broker distance (line of 6)");
    for dist in 1usize..=5 {
        let mut sys = SystemBuilder::new(Topology::line(6).expect("valid line"))
            .deployment(Deployment::reactive())
            .build()
            .expect("valid deployment");
        let p = sys.add_client(BrokerId::new(0)).expect("broker in topology");
        let m = sys.add_mobile_client();
        sys.arrive(m, BrokerId::new(0)).expect("fresh client arrives");
        sys.run_for(SimDuration::from_millis(300));
        sys.subscribe(m, Filter::builder().eq("service", "s").build()).expect("own client");
        sys.run_for(SimDuration::from_millis(300));
        sys.depart(m).expect("attached client departs");
        sys.run_for(SimDuration::from_millis(300));
        for i in 0..10 {
            sys.publish(p, Notification::builder().attr("service", "s").attr("i", i as i64))
                .expect("own client");
        }
        sys.run_for(SimDuration::from_secs(1));
        let before_msgs = sys.metrics().kind("mob").msgs + sys.metrics().kind("ctl").msgs;
        let before_bytes = sys.metrics().kind("mob").bytes + sys.metrics().kind("ctl").bytes;
        sys.arrive(m, BrokerId::new(dist as u32)).expect("departed client arrives");
        sys.run_for(SimDuration::from_secs(2));
        let msgs = sys.metrics().kind("mob").msgs + sys.metrics().kind("ctl").msgs - before_msgs;
        let bytes =
            sys.metrics().kind("mob").bytes + sys.metrics().kind("ctl").bytes - before_bytes;
        t2.row([
            dist.to_string(),
            msgs.to_string(),
            bytes.to_string(),
            sys.delivered(m).expect("own client").len().to_string(),
        ]);
    }
    out.push_str(&t2.render());
    out
}

// ---------------------------------------------------------------- E7 ----

/// E7 — Routing strategies (§2; the scalability agenda of §4): table
/// sizes, control and notification traffic for flooding / simple /
/// covering / merging.
pub fn e7_routing_strategies(_scale: Scale) -> String {
    let mut table = Table::new([
        "subscribers",
        "strategy",
        "table entries",
        "sub msgs",
        "pub msgs",
        "deliveries",
    ])
    .titled("E7 — routing strategies (balanced binary tree of 15 brokers)");
    for subscribers in [4usize, 16, 48] {
        for strategy in RoutingStrategy::ALL {
            let mut sys = SystemBuilder::new(Topology::balanced(2, 4).expect("valid tree"))
                .strategy(strategy)
                .build()
                .expect("valid deployment");
            let publisher = sys.add_client(BrokerId::new(0)).expect("broker in topology");
            // Subscribers spread over the leaves with overlapping filters:
            // a third subscribe to the whole service, the rest to single
            // rooms (coverable / mergeable patterns).
            let mut subs = Vec::new();
            for i in 0..subscribers {
                let broker = BrokerId::new(7 + (i % 8) as u32); // leaves of the 15-tree
                let c = sys.add_client(broker).expect("leaf broker in topology");
                subs.push((c, i));
            }
            sys.run_for(SimDuration::from_millis(500));
            for (c, i) in &subs {
                // Service "a": one broad filter plus room-level filters it
                // covers (covering shines). Service "b": room-level
                // filters only (perfect merging shines).
                let filter = if i % 2 == 0 {
                    if i % 8 == 0 {
                        Filter::builder().eq("service", "a").build()
                    } else {
                        Filter::builder().eq("service", "a").eq("room", (*i % 4) as i64).build()
                    }
                } else {
                    Filter::builder().eq("service", "b").eq("room", (*i % 8) as i64).build()
                };
                sys.subscribe(*c, filter).expect("own client");
            }
            sys.run_for(SimDuration::from_secs(1));
            let table_entries = sys.total_table_entries();
            let sub_msgs = sys.metrics().kind("sub").msgs;
            let before_pub = sys.metrics().kind("pub").msgs;
            for i in 0..20 {
                let service = if i % 2 == 0 { "a" } else { "b" };
                sys.publish(
                    publisher,
                    Notification::builder().attr("service", service).attr("room", (i % 8) as i64),
                )
                .expect("own client");
            }
            sys.run_for(SimDuration::from_secs(2));
            let pub_msgs = sys.metrics().kind("pub").msgs - before_pub;
            let deliveries = sys.metrics().kind("dlv").msgs;
            table.row([
                subscribers.to_string(),
                strategy.to_string(),
                table_entries.to_string(),
                sub_msgs.to_string(),
                pub_msgs.to_string(),
                deliveries.to_string(),
            ]);
        }
    }
    table.render()
}

// ---------------------------------------------------------------- E8 ----

/// E8 — Scalability (§4): broker-count sweep under the full extended
/// deployment with roaming clients.
pub fn e8_scalability(scale: Scale) -> String {
    let mut table = Table::new([
        "brokers",
        "clients",
        "deliv latency p50 (s)",
        "deliv latency p95 (s)",
        "msgs/pub",
        "handovers",
        "table entries",
    ])
    .titled("E8 — scalability of the extended deployment (random trees)");
    let sizes: &[(usize, usize)] = match scale {
        Scale::Quick => &[(7, 2), (15, 4), (31, 8)],
        Scale::Full => &[(7, 2), (15, 4), (31, 8), (63, 16)],
    };
    for &(brokers, clients) in sizes {
        let cfg = ScenarioConfig {
            brokers,
            topology: TopologyKind::Random(7),
            movement_graph: MovementKind::FromTopology,
            variant: SystemVariant::extended_default(),
            mobile_clients: clients,
            movement_model: MovementModel::RandomWalk,
            dwell: SimDuration::from_secs(20),
            gap: SimDuration::from_millis(500),
            workload: base_workload(scale, SimDuration::from_secs(4), 0xE8),
            location_dependent: true,
            seed: 5000,
            ..Default::default()
        };
        let out = scenario::run(&cfg);
        let lat: Vec<f64> = out
            .covered_location_reports(1, SimDuration::from_secs(3600))
            .iter()
            .flat_map(|r| r.latencies.clone())
            .collect();
        let s = Summary::of(lat);
        let total_msgs: u64 = out.traffic.values().map(|(m, _)| *m).sum();
        let msgs_per_pub = total_msgs as f64 / out.pubs.len().max(1) as f64;
        table.row([
            brokers.to_string(),
            clients.to_string(),
            format!("{:.3}", s.p50),
            format!("{:.3}", s.p95),
            format!("{msgs_per_pub:.1}"),
            out.replicator_totals.handovers.to_string(),
            out.final_table_entries.to_string(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_reports_cleanly() {
        assert!(run_experiment("E99", Scale::Quick).contains("unknown experiment"));
    }

    #[test]
    fn e2_table_shape() {
        let s = e2_subscription_in_the_past(Scale::Quick);
        assert!(s.contains("unbounded"));
        assert!(s.contains("3/3"));
        assert!(s.contains("0/3"), "the none-policy must replay nothing:\n{s}");
    }

    #[test]
    fn e5_shared_buffer_saves_memory() {
        let s = e5_shared_buffer(Scale::Quick);
        assert!(s.lines().count() >= 6, "{s}");
    }
}
