//! The scenario runner: a full deployment driven by generated workload and
//! movement, with measurements collected for the tests, examples and the
//! `roam` benchmark workload.

use crate::movement::{MoveSchedule, MovementModel};
use crate::oracle::{self, ClientTimeline, OracleReport};
use crate::workload::{PubEvent, WorkloadConfig};
use rebeca::{
    BrokerId, BufferSpec, ClientMobilityMode, Deployment, Filter, FixedClient, LocationMap,
    MovementGraph, Notification, ReplicatorConfig, RoutingStrategy, SimDuration, SimTime,
    SystemBuilder, Topology,
};
use std::collections::BTreeMap;

/// Broker-tree shapes available to scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// A line of brokers.
    Line,
    /// A star (hub broker 0).
    Star,
    /// A balanced binary tree.
    BalancedBinary,
    /// A seeded random recursive tree.
    Random(u64),
}

impl TopologyKind {
    /// Builds the topology over `n` brokers.
    pub fn build(self, n: usize) -> Topology {
        match self {
            TopologyKind::Line => Topology::line(n).expect("n > 0"),
            TopologyKind::Star => Topology::star(n).expect("n > 0"),
            TopologyKind::BalancedBinary => {
                // Smallest binary tree with at least n nodes, then trim via
                // line fallback when n is not of the 2^l - 1 form.
                let mut levels = 1;
                while (1 << levels) - 1 < n {
                    levels += 1;
                }
                if (1 << levels) - 1 == n {
                    Topology::balanced(2, levels).expect("valid")
                } else {
                    Topology::random(n, 17).expect("n > 0")
                }
            }
            TopologyKind::Random(seed) => Topology::random(n, seed).expect("n > 0"),
        }
    }
}

/// Movement-graph shapes available to scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MovementKind {
    /// Corridor.
    Line,
    /// Circular corridor.
    Ring,
    /// `w × h` office grid (requires `n == w * h`).
    Grid(usize, usize),
    /// Unconstrained movement.
    Complete,
    /// The broker tree itself.
    FromTopology,
}

impl MovementKind {
    /// Builds the movement graph for `n` brokers over `topology`.
    pub fn build(self, n: usize, topology: &Topology) -> MovementGraph {
        match self {
            MovementKind::Line => MovementGraph::line(n),
            MovementKind::Ring => MovementGraph::ring(n),
            MovementKind::Grid(w, h) => {
                assert_eq!(w * h, n, "grid must cover all brokers");
                MovementGraph::grid(w, h)
            }
            MovementKind::Complete => MovementGraph::complete(n),
            MovementKind::FromTopology => MovementGraph::from_topology(topology),
        }
    }
}

/// Which middleware variant handles mobility — the experiment axis.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemVariant {
    /// No mobility support; clients stay put (control group).
    Static,
    /// JEDI-style explicit moveOut/moveIn, no buffering.
    NaiveReconnect,
    /// Relocation + reactive logical mobility (resolve `myloc` on
    /// arrival) — the pre-paper state of the art.
    ReactiveLogical,
    /// The paper: replicator layer with pre-subscriptions and virtual
    /// clients.
    ExtendedLogical {
        /// `nlb` radius (k-hop neighbourhood).
        k: u32,
        /// Virtual-client buffering policy.
        buffer: BufferSpec,
        /// Ignored: every replicator counts a notification held by several
        /// virtual clients once. Kept until the benchmark stops setting it.
        shared: bool,
    },
}

impl SystemVariant {
    /// Short display name for tables.
    pub fn name(&self) -> String {
        match self {
            SystemVariant::Static => "static".into(),
            SystemVariant::NaiveReconnect => "naive".into(),
            SystemVariant::ReactiveLogical => "reactive".into(),
            SystemVariant::ExtendedLogical { k, .. } => format!("extended(k={k})"),
        }
    }

    /// The paper's default configuration (`nlb` = 1 hop, unbounded
    /// buffers).
    pub fn extended_default() -> SystemVariant {
        SystemVariant::ExtendedLogical { k: 1, buffer: BufferSpec::Unbounded, shared: false }
    }
}

/// Full scenario description.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Number of border brokers.
    pub brokers: usize,
    /// Broker-tree shape.
    pub topology: TopologyKind,
    /// Movement-graph shape.
    pub movement_graph: MovementKind,
    /// Middleware variant under test.
    pub variant: SystemVariant,
    /// Routing strategy of the broker network.
    pub strategy: RoutingStrategy,
    /// Number of roaming consumer clients.
    pub mobile_clients: usize,
    /// Movement model of the roaming clients.
    pub movement_model: MovementModel,
    /// Time spent attached per stint.
    pub dwell: SimDuration,
    /// Disconnection window between stints (must exceed 100 ms so the
    /// hand-off phases do not overlap).
    pub gap: SimDuration,
    /// Publication workload (one publisher per broker).
    pub workload: WorkloadConfig,
    /// Subscribe with `myloc` (location-dependent) or to the service
    /// globally.
    pub location_dependent: bool,
    /// Master seed (client start positions, movement seeds).
    pub seed: u64,
    /// Ignored if `None` or `Some(1)`, refused otherwise: a broker has one
    /// routing table. Kept until the benchmark stops setting it.
    pub shards: Option<usize>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            brokers: 5,
            topology: TopologyKind::Line,
            movement_graph: MovementKind::Line,
            variant: SystemVariant::extended_default(),
            strategy: RoutingStrategy::Simple,
            mobile_clients: 2,
            movement_model: MovementModel::RandomWalk,
            dwell: SimDuration::from_secs(20),
            gap: SimDuration::from_millis(500),
            workload: WorkloadConfig::default(),
            location_dependent: true,
            seed: 99,
            shards: None,
        }
    }
}

/// Everything measured in one scenario run.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The publication schedule that was executed.
    pub pubs: Vec<PubEvent>,
    /// Attachment timeline per mobile client.
    pub timelines: Vec<ClientTimeline>,
    /// `(mark, delivered_at)` log per mobile client.
    pub delivered: Vec<Vec<(i64, SimTime)>>,
    /// Duplicates suppressed per mobile client.
    pub duplicates: Vec<u64>,
    /// FIFO violations per mobile client.
    pub fifo_violations: Vec<u64>,
    /// `kind → (messages, bytes)` link traffic.
    pub traffic: BTreeMap<String, (u64, u64)>,
    /// Peak total virtual-client count observed at sample points.
    pub peak_vcs: usize,
    /// Peak buffered bytes observed at sample points: the virtual clients'
    /// buffers and the relocation buffers of disconnected devices, a
    /// notification held by several of one replicator's buffers counted
    /// once.
    pub peak_buffer_bytes: usize,
    /// Handovers / exceptions / replays summed over replicators.
    pub replicator_totals: rebeca::ReplicatorStats,
    /// The broker↔location mapping used.
    pub locations: LocationMap,
    /// The movement graph the scenario ran over.
    pub movement: MovementGraph,
}

impl ScenarioOutcome {
    /// Oracle comparison for location-dependent interests with the given
    /// replay window, per mobile client — against the *idealised demand*
    /// (everything the user would ideally want, coverage or not).
    pub fn location_reports(&self, window: SimDuration) -> Vec<OracleReport> {
        let times = oracle::publication_times(&self.pubs);
        self.timelines
            .iter()
            .zip(&self.delivered)
            .map(|(tl, del)| {
                let due = oracle::location_due(&self.pubs, tl, &self.locations, window).all();
                OracleReport::compare(&due, del, &times)
            })
            .collect()
    }

    /// Oracle comparison against the *coverage-aware* promise of extended
    /// logical mobility with a k-hop neighbourhood (see
    /// [`oracle::location_due_covered`]).
    pub fn covered_location_reports(&self, k: u32, window: SimDuration) -> Vec<OracleReport> {
        let times = oracle::publication_times(&self.pubs);
        self.timelines
            .iter()
            .zip(&self.delivered)
            .map(|(tl, del)| {
                let due = oracle::location_due_covered(
                    &self.pubs,
                    tl,
                    &self.locations,
                    &self.movement,
                    k,
                    window,
                )
                .all();
                OracleReport::compare(&due, del, &times)
            })
            .collect()
    }

    /// Oracle comparison for location-independent interests.
    pub fn global_reports(&self) -> Vec<OracleReport> {
        let times = oracle::publication_times(&self.pubs);
        self.timelines
            .iter()
            .zip(&self.delivered)
            .map(|(tl, del)| {
                let due = oracle::global_due(&self.pubs, tl);
                OracleReport::compare(&due, del, &times)
            })
            .collect()
    }

    /// Time from each arrival to the first delivery of a notification for
    /// the arrival broker's location (seconds) — the reactivity metric.
    /// Arrivals with no relevant delivery during the stint are reported as
    /// the stint length (censored).
    pub fn arrival_latencies(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for (tl, del) in self.timelines.iter().zip(&self.delivered) {
            for stint in &tl.stints {
                // Location-relevant marks for this stint's broker.
                let relevant = |mark: i64| -> bool {
                    self.pubs
                        .iter()
                        .find(|e| e.mark == mark)
                        .is_some_and(|e| self.locations.serves(stint.broker, e.location))
                };
                let first = del
                    .iter()
                    .filter(|(m, at)| *at >= stint.from && *at < stint.to && relevant(*m))
                    .map(|(_, at)| *at)
                    .min();
                match first {
                    Some(at) => out.push((at - stint.from).as_secs_f64()),
                    None => out.push((stint.to - stint.from).as_secs_f64()),
                }
            }
        }
        out
    }

    /// Total messages of a traffic kind.
    pub fn msgs(&self, kind: &str) -> u64 {
        self.traffic.get(kind).map_or(0, |(m, _)| *m)
    }
}

enum Ev {
    Depart(usize),
    Arrive(usize, BrokerId),
}

/// Runs a scenario to completion and collects the outcome.
///
/// # Panics
///
/// Panics if the configuration is inconsistent (no brokers, a too-short
/// hand-off gap, a shard count other than 1, or a movement graph that
/// does not cover the brokers).
/// Scenario configurations are test fixtures, not user input; the
/// underlying [`SystemBuilder`] API reports the same conditions as
/// [`rebeca::RebecaError`] values.
pub fn run(cfg: &ScenarioConfig) -> ScenarioOutcome {
    assert!(cfg.brokers > 0, "need at least one broker");
    assert!(matches!(cfg.shards, None | Some(1)), "a broker has one routing table");
    assert!(
        cfg.gap >= SimDuration::from_millis(100),
        "gap must leave room for the hand-off phases"
    );
    let topology = cfg.topology.build(cfg.brokers);
    let movement = cfg.movement_graph.build(cfg.brokers, &topology);

    let deployment = match &cfg.variant {
        SystemVariant::Static => Deployment::Static,
        SystemVariant::NaiveReconnect | SystemVariant::ReactiveLogical => Deployment::reactive(),
        SystemVariant::ExtendedLogical { k, buffer, shared: _ } => Deployment::Replicated {
            movement: Some(movement.clone()),
            config: ReplicatorConfig { k_hops: *k, buffer: buffer.clone() },
        },
    };

    let mut sys = SystemBuilder::new(topology)
        .strategy(cfg.strategy)
        .deployment(deployment)
        .seed(cfg.seed)
        .build()
        .expect("scenario produced a deployment its own topology rejects");

    // One immobile publisher per broker.
    let publishers: Vec<FixedClient> = (0..cfg.brokers)
        .map(|b| sys.add_client(BrokerId::new(b as u32)).expect("publisher broker within topology"))
        .collect();

    // Roaming clients + their schedules.
    let horizon = cfg.workload.start + cfg.workload.duration;
    let client_mode = match cfg.variant {
        SystemVariant::NaiveReconnect => ClientMobilityMode::Naive,
        _ => ClientMobilityMode::Relocation,
    };
    let mut mobiles = Vec::new();
    let mut schedules = Vec::new();
    for i in 0..cfg.mobile_clients {
        let c = sys.add_mobile_client_with_mode(client_mode);
        let start = BrokerId::new(((cfg.seed as usize + i * 7) % cfg.brokers) as u32);
        let model = if matches!(cfg.variant, SystemVariant::Static) {
            MovementModel::Stationary
        } else {
            cfg.movement_model.clone()
        };
        let sched = MoveSchedule::generate(
            &model,
            &movement,
            cfg.brokers,
            start,
            SimTime::from_millis(500),
            cfg.dwell,
            cfg.gap,
            horizon,
            cfg.seed.wrapping_add(i as u64 * 131),
        );
        mobiles.push(c);
        schedules.push(sched);
    }

    // Subscriptions (queued client-side until the first attachment).
    for &c in &mobiles {
        let filter = if cfg.location_dependent {
            Filter::builder()
                .eq("service", cfg.workload.services[0].clone())
                .myloc("location")
                .build()
        } else {
            Filter::builder().eq("service", cfg.workload.services[0].clone()).build()
        };
        sys.subscribe(c, filter).expect("subscribing a client this run created");
    }

    // Pre-schedule every publication.
    let pubs = cfg.workload.generate(cfg.brokers);
    for e in &pubs {
        let publisher = publishers[e.broker.raw() as usize];
        let attrs = Notification::builder()
            .attr("service", e.service.clone())
            .attr("location", e.location)
            .attr("mark", e.mark);
        sys.publish_at(publisher, attrs, e.at).expect("workload schedules lie in the future");
    }

    // Movement event list.
    let mut events: Vec<(SimTime, Ev)> = Vec::new();
    for (i, sched) in schedules.iter().enumerate() {
        for (j, stint) in sched.stints.iter().enumerate() {
            events.push((stint.from, Ev::Arrive(i, stint.broker)));
            if j + 1 < sched.stints.len() {
                events.push((stint.to, Ev::Depart(i)));
            }
        }
    }
    events.sort_by_key(|(t, e)| (*t, matches!(e, Ev::Arrive(..)) as u8));

    // Drive the run, sampling resource gauges at every movement event.
    let mut peak_vcs = 0usize;
    let mut peak_buffer = 0usize;
    for (t, ev) in events {
        if t > sys.now() {
            sys.run_until(t);
        }
        match ev {
            Ev::Depart(i) => {
                sys.depart(mobiles[i]).expect("schedule departs only attached clients")
            }
            Ev::Arrive(i, b) => {
                sys.arrive(mobiles[i], b).expect("schedule arrives only departed clients")
            }
        }
        peak_vcs = peak_vcs.max(sys.total_vc_count());
        peak_buffer = peak_buffer.max(sys.total_buffer_bytes());
    }
    // Let everything drain past the horizon.
    sys.run_until(horizon + SimDuration::from_secs(10));
    peak_vcs = peak_vcs.max(sys.total_vc_count());
    peak_buffer = peak_buffer.max(sys.total_buffer_bytes());

    // Collect.
    let mut delivered = Vec::new();
    let mut duplicates = Vec::new();
    let mut fifo_violations = Vec::new();
    for &c in &mobiles {
        let log: Vec<(i64, SimTime)> = sys
            .delivered(c)
            .expect("collecting a client this run created")
            .iter()
            .filter_map(|r| r.notification.get("mark").and_then(|v| v.as_int()).map(|m| (m, r.at)))
            .collect();
        let stats = sys.client_stats(c).expect("stats of a client this run created");
        delivered.push(log);
        duplicates.push(stats.duplicates);
        fifo_violations.push(stats.fifo_violations);
    }
    let mut traffic = BTreeMap::new();
    for kind in sys.metrics().kinds() {
        let c = sys.metrics().kind(kind);
        traffic.insert(kind.to_owned(), (c.msgs, c.bytes));
    }
    let mut replicator_totals = rebeca::ReplicatorStats::default();
    for b in 0..cfg.brokers {
        let stats =
            sys.replicator_stats(BrokerId::new(b as u32)).expect("broker index within topology");
        if let Some(s) = stats {
            replicator_totals += s;
        }
    }

    ScenarioOutcome {
        pubs,
        timelines: schedules,
        delivered,
        duplicates,
        fifo_violations,
        traffic,
        peak_vcs,
        peak_buffer_bytes: peak_buffer,
        replicator_totals,
        locations: sys.locations().clone(),
        movement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Arrivals;

    fn quick_cfg(variant: SystemVariant) -> ScenarioConfig {
        ScenarioConfig {
            brokers: 4,
            variant,
            mobile_clients: 1,
            dwell: SimDuration::from_secs(10),
            gap: SimDuration::from_millis(500),
            workload: WorkloadConfig {
                arrivals: Arrivals::Periodic { period: SimDuration::from_secs(2) },
                duration: SimDuration::from_secs(40),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn extended_scenario_runs_and_measures() {
        let out = run(&quick_cfg(SystemVariant::extended_default()));
        assert!(!out.pubs.is_empty());
        assert_eq!(out.timelines.len(), 1);
        assert!(out.timelines[0].moves() >= 1, "client must move");
        assert!(out.msgs("pub") > 0);
        assert!(out.peak_vcs >= 2, "replication must create shadows");
        assert!(out.replicator_totals.handovers >= 1);
        // With unbounded buffers and k=1 walks, nothing due is missed.
        let reports = out.location_reports(SimDuration::from_secs(3600));
        assert!(reports[0].hits > 0);
    }

    #[test]
    fn reactive_vs_extended_reactivity() {
        let reactive = run(&quick_cfg(SystemVariant::ReactiveLogical));
        let extended = run(&quick_cfg(SystemVariant::extended_default()));
        let lat_reactive = crate::stats::Summary::of(reactive.arrival_latencies());
        let lat_extended = crate::stats::Summary::of(extended.arrival_latencies());
        assert!(
            lat_extended.mean <= lat_reactive.mean,
            "pre-subscriptions must not be slower: {} vs {}",
            lat_extended.mean,
            lat_reactive.mean
        );
    }

    /// Two clients on a line of 6 with `k`-hop pre-subscriptions and
    /// unbounded buffers: misses against the *idealised demand* (everything
    /// published for a location within a dwell before arriving there), and
    /// the peak virtual-client count.
    fn coverage_run(k: u32, movement_model: MovementModel, seed: u64) -> (usize, usize) {
        let cfg = ScenarioConfig {
            brokers: 6,
            variant: SystemVariant::ExtendedLogical {
                k,
                buffer: BufferSpec::Unbounded,
                shared: false,
            },
            mobile_clients: 2,
            movement_model,
            dwell: SimDuration::from_secs(15),
            gap: SimDuration::from_millis(500),
            workload: WorkloadConfig {
                arrivals: Arrivals::Periodic { period: SimDuration::from_secs(3) },
                duration: SimDuration::from_secs(120),
                seed: seed ^ 0xE3,
                ..Default::default()
            },
            seed: 2000 + seed,
            ..Default::default()
        };
        let out = run(&cfg);
        let misses = out.location_reports(cfg.dwell).iter().map(|r| r.misses).sum();
        (misses, out.peak_vcs)
    }

    #[test]
    fn misses_fall_as_the_neighbourhood_grows() {
        // The §4 trade-off: a wider `nlb` covers more of a pop-up mover's
        // jumps and costs more virtual clients. k = 5 spans the whole line.
        let ks = [0u32, 1, 2, 5];
        let mut total = [0usize; 4];
        for seed in 0..4 {
            let popup: Vec<(usize, usize)> = ks
                .iter()
                .map(|&k| coverage_run(k, MovementModel::PopUp { teleport_prob: 0.3 }, seed))
                .collect();
            for (i, w) in popup.windows(2).enumerate() {
                let (k, next) = (ks[i], ks[i + 1]);
                assert!(w[1].0 <= w[0].0, "seed {seed}: misses rise from k={k} to k={next}");
                assert!(w[1].1 >= w[0].1, "seed {seed}: peak VCs fall from k={k} to k={next}");
            }
            assert!(popup[0].0 > 0, "seed {seed}: k=0 pre-subscribes nothing, so it must miss");
            assert_eq!(popup[3].0, 0, "seed {seed}: k=5 covers every jump");
            for (t, (misses, _)) in total.iter_mut().zip(&popup) {
                *t += misses;
            }
            // A graph-respecting walk never leaves a 1-hop neighbourhood.
            for k in [1, 2, 5] {
                let (misses, _) = coverage_run(k, MovementModel::RandomWalk, seed);
                assert_eq!(misses, 0, "seed {seed}: a random walk missed {misses} at k={k}");
            }
        }
        // Over the seeds, every step up in k strictly helps.
        assert!(total.windows(2).all(|w| w[1] < w[0]), "misses per k: {total:?}");
    }

    #[test]
    fn naive_loses_global_notifications() {
        let mut cfg = quick_cfg(SystemVariant::NaiveReconnect);
        cfg.location_dependent = false;
        cfg.gap = SimDuration::from_secs(2); // long gaps → visible loss
        let naive = run(&cfg);
        let mut cfg2 = quick_cfg(SystemVariant::ReactiveLogical);
        cfg2.location_dependent = false;
        cfg2.gap = SimDuration::from_secs(2);
        let reloc = run(&cfg2);
        let naive_miss: usize = naive.global_reports().iter().map(|r| r.misses).sum();
        let reloc_miss: usize = reloc.global_reports().iter().map(|r| r.misses).sum();
        assert_eq!(reloc_miss, 0, "relocation must be lossless");
        assert!(naive_miss > 0, "naive reconnect must lose the gaps");
        // And relocation must not produce FIFO violations.
        assert!(reloc.fifo_violations.iter().all(|v| *v == 0));
    }

    #[test]
    fn static_variant_keeps_clients_put() {
        let out = run(&quick_cfg(SystemVariant::Static));
        assert_eq!(out.timelines[0].moves(), 0);
    }

    #[test]
    #[should_panic(expected = "one routing table")]
    fn shard_counts_other_than_one_are_refused() {
        run(&ScenarioConfig { shards: Some(4), ..quick_cfg(SystemVariant::Static) });
    }
}
