//! `roam`: the paper's own scheme — extended logical mobility with
//! pre-subscriptions and virtual clients — on the tier it runs on today,
//! the deterministic simulator. No process boundary, no wire, no codec:
//! the workload every wire-tier change must leave alone.
//!
//! Saturation: back-to-back `rebeca_sim::scenario::run` iterations (nine
//! brokers, a 3×3 office grid, eight random-walking clients with
//! location-dependent subscriptions, one publisher per office), each
//! judged by the coverage-aware oracle. Op = one handover. Unloaded: one
//! client of a standing deployment is walked broker to broker, each
//! depart → arrive → settle cycle timed on its own.
//!
//! Two choices keep every op a success, as a benchmark workload must:
//!
//! * Eight mobile clients, not more. From eleven on, the same scenario
//!   shows covered-oracle misses (2.7 % of what is due at 16 clients, 8 %
//!   at 32, on 2 100 seeds) — a finding for a correctness issue of its
//!   own, not something a benchmark may average over.
//! * Publishers fire once a second, 25 ms off the 50 ms grid all movement
//!   instants lie on. With Poisson instants, one seed in 200 has a
//!   notification in flight at the moment its subscriber departs, which
//!   the oracle (which knows no propagation delay) books as a miss.

use crate::procfs;
use crate::stats::Segment;
use rebeca::{
    BrokerId, BufferSpec, Deployment, Filter, FixedClient, MobileClient, MovementGraph,
    Notification, ReplicatorConfig, RoutingStrategy, SimDuration, SimTime, System, SystemBuilder,
};
use rebeca_net::SplitMix64;
use rebeca_sim::scenario::{self, MovementKind, ScenarioConfig, SystemVariant, TopologyKind};
use rebeca_sim::workload::{Arrivals, WorkloadConfig};
use rebeca_sim::MovementModel;
use std::time::{Duration, Instant};

const BROKERS: usize = 9;
const GRID: (usize, usize) = (3, 3);
const MOBILE_CLIENTS: usize = 8;
const SERVICE: &str = "service";

/// Virtual clients keep two minutes of history; the oracle demands
/// everything published up to 100 s before an arrival, safely inside.
const BUFFER_TTL: SimDuration = SimDuration::from_secs(120);
const ORACLE_WINDOW: SimDuration = SimDuration::from_secs(100);

fn buffer() -> BufferSpec {
    BufferSpec::TimeBased { ttl: BUFFER_TTL }
}

fn scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        brokers: BROKERS,
        // Nine brokers are no full binary tree: this is the fixed
        // recursive tree `Topology::random(9, 17)`.
        topology: TopologyKind::BalancedBinary,
        movement_graph: MovementKind::Grid(GRID.0, GRID.1),
        variant: SystemVariant::ExtendedLogical { k: 1, buffer: buffer(), shared: false },
        strategy: RoutingStrategy::Simple,
        mobile_clients: MOBILE_CLIENTS,
        movement_model: MovementModel::RandomWalk,
        dwell: SimDuration::from_secs(5),
        gap: SimDuration::from_millis(500),
        workload: WorkloadConfig {
            services: vec![SERVICE.to_owned()],
            arrivals: Arrivals::Periodic { period: SimDuration::from_secs(1) },
            duration: SimDuration::from_secs(60),
            start: SimTime::from_millis(1025),
            seed,
            ..Default::default()
        },
        location_dependent: true,
        seed,
        shards: Some(1),
    }
}

/// What the oracle and the client libraries found wrong, summed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub due: u64,
    pub misses: u64,
    pub duplicates: u64,
    pub fifo_violations: u64,
}

impl Verdict {
    pub fn clean(&self) -> bool {
        self.misses == 0 && self.duplicates == 0 && self.fifo_violations == 0
    }
}

/// Exact counts of the iterations run, for the per-layer report.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub iterations: u64,
    pub handovers: u64,
    pub replayed: u64,
    pub messages: u64,
    pub peak_vcs: usize,
    pub peak_buffer_bytes: usize,
    /// Arrival → first relevant delivery, simulated seconds.
    pub arrival_latencies_s: Vec<f64>,
}

/// One scenario iteration: runs it (timed), then judges it (untimed).
fn iterate(seed: u64, verdict: &mut Verdict, counts: &mut Counts) -> (Duration, u64) {
    let cfg = scenario(seed);
    let t0 = Instant::now();
    let out = scenario::run(&cfg);
    let wall = t0.elapsed();
    for r in out.covered_location_reports(1, ORACLE_WINDOW) {
        verdict.due += (r.hits + r.misses) as u64;
        verdict.misses += r.misses as u64;
    }
    verdict.duplicates += out.duplicates.iter().sum::<u64>();
    verdict.fifo_violations += out.fifo_violations.iter().sum::<u64>();
    let handovers = out.replicator_totals.handovers;
    counts.iterations += 1;
    counts.handovers += handovers;
    counts.replayed += out.replicator_totals.replayed;
    counts.messages += out.traffic.values().map(|(m, _)| *m).sum::<u64>();
    counts.peak_vcs = counts.peak_vcs.max(out.peak_vcs);
    counts.peak_buffer_bytes = counts.peak_buffer_bytes.max(out.peak_buffer_bytes);
    // A sample is plenty for a median; the log must not grow with the run.
    if counts.arrival_latencies_s.len() < 100_000 {
        counts.arrival_latencies_s.extend(out.arrival_latencies());
    }
    (wall, handovers)
}

/// What the saturation phase measured.
#[derive(Debug, Default, Clone)]
pub struct Saturation {
    /// One per second of the phase, in run order: handovers per second
    /// inside `scenario::run`, and the CPU spent there per handover.
    pub segments: Vec<Segment>,
    pub handovers: u64,
    /// Wall time inside `scenario::run`; the phase also judges every
    /// outcome, untimed.
    pub run_wall: Duration,
}

/// The iterations of one second of the saturation phase.
#[derive(Default)]
struct Second {
    handovers: u64,
    run_wall: Duration,
}

impl Second {
    /// Single-threaded, so of the CPU the second used (judging included)
    /// the share spent inside `scenario::run` is `run_wall / wall`.
    fn segment(&self, wall: Duration, cpu_s: f64) -> Segment {
        let run_share = self.run_wall.as_secs_f64() / wall.as_secs_f64().max(1e-9);
        Segment {
            rate: self.handovers as f64 / self.run_wall.as_secs_f64().max(1e-9),
            cpu_us_per_op: cpu_s * run_share * 1e6 / self.handovers.max(1) as f64,
        }
    }
}

/// Iterations with seeds `seed, seed+1, …` until `secs` have passed.
pub fn saturate(
    seed: u64,
    secs: Duration,
    verdict: &mut Verdict,
    counts: &mut Counts,
) -> Saturation {
    const SEGMENT: Duration = Duration::from_secs(1);
    let mut s = Saturation::default();
    let t0 = Instant::now();
    let (mut second, mut since, mut cpu0) = (Second::default(), t0, procfs::cpu_s(None));
    let mut i = 0;
    while t0.elapsed() < secs {
        let (wall, handovers) = iterate(seed.wrapping_add(i), verdict, counts);
        second.handovers += handovers;
        second.run_wall += wall;
        s.handovers += handovers;
        s.run_wall += wall;
        i += 1;
        if since.elapsed() >= SEGMENT {
            let cpu = procfs::cpu_s(None);
            s.segments.push(second.segment(since.elapsed(), cpu - cpu0));
            (second, since, cpu0) = (Second::default(), Instant::now(), cpu);
        }
    }
    // A phase shorter than a segment (smoke runs) is one segment.
    if s.segments.is_empty() && second.handovers > 0 {
        s.segments.push(second.segment(since.elapsed(), procfs::cpu_s(None) - cpu0));
    }
    s
}

/// The standing deployment of the unloaded phase.
pub struct Standing {
    sys: System,
    movement: MovementGraph,
    publishers: Vec<FixedClient>,
    mobiles: Vec<MobileClient>,
    /// Where the walked client (`mobiles[0]`) is.
    at: BrokerId,
    rng: SplitMix64,
    mark: i64,
    pub cycles: u64,
    /// Notifications the walked client received.
    pub walker_deliveries: u64,
}

/// Scenario iterations judged during set-up.
const VERIFY_ITERATIONS: u64 = 16;

/// Set-up, timed by the caller: builds the standing deployment, attaches
/// everyone, lets the pre-subscriptions settle — and puts sixteen
/// scenario iterations through the oracle, so a broken build fails
/// before anything is measured (and set-up is tens of milliseconds of
/// fixed work, not a few noisy ones).
pub fn set_up(seed: u64, verdict: &mut Verdict) -> Result<Standing, String> {
    let cfg = scenario(seed);
    let topology = cfg.topology.build(BROKERS);
    let movement = cfg.movement_graph.build(BROKERS, &topology);
    let deployment = Deployment::Replicated {
        movement: Some(movement.clone()),
        config: ReplicatorConfig { k_hops: 1, buffer: buffer(), ..Default::default() },
    };
    let mut sys = SystemBuilder::new(topology)
        .strategy(RoutingStrategy::Simple)
        .deployment(deployment)
        .seed(seed)
        .shards(1)
        .build()
        .map_err(|e| format!("roam deployment: {e}"))?;
    let publishers = (0..BROKERS as u32)
        .map(|b| sys.add_client(BrokerId::new(b)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut rng = SplitMix64::new(seed);
    let mut mobiles = Vec::with_capacity(MOBILE_CLIENTS);
    let mut at = BrokerId::new(0);
    for i in 0..MOBILE_CLIENTS {
        let c = sys.add_mobile_client();
        let filter = Filter::builder().eq(SERVICE, SERVICE).myloc("location").build();
        sys.subscribe(c, filter).map_err(|e| e.to_string())?;
        let start = BrokerId::new(rng.next_below(BROKERS as u64) as u32);
        sys.arrive(c, start).map_err(|e| e.to_string())?;
        if i == 0 {
            at = start;
        }
        mobiles.push(c);
    }
    sys.run_for(SimDuration::from_secs(2));

    let mut throwaway = Counts::default();
    for i in 0..VERIFY_ITERATIONS {
        iterate(seed.wrapping_add(i), verdict, &mut throwaway);
    }
    Ok(Standing {
        sys,
        movement,
        publishers,
        mobiles,
        at,
        rng,
        mark: 0,
        cycles: 0,
        walker_deliveries: 0,
    })
}

/// The client library remembers every notification id it has seen, so a
/// standing deployment's memory grows with the cycles walked: without a
/// cap a faster host (or program) would read as a larger `rss_mb`. About
/// two thirds of what an 8 s phase walks on the machine the noise study
/// was recorded on.
const MAX_CYCLES: usize = 150_000;

impl Standing {
    /// One publication per office, then the walked client moves to a
    /// random neighbouring office: depart, half a second out of coverage,
    /// arrive, half a second to replay and settle.
    fn cycle(&mut self) -> Result<(), String> {
        for (b, p) in self.publishers.iter().enumerate() {
            let attrs = Notification::builder()
                .attr(SERVICE, SERVICE)
                .attr("location", rebeca::LocationId::new(b as u32))
                .attr("mark", self.mark);
            self.mark += 1;
            self.sys.publish(*p, attrs).map_err(|e| e.to_string())?;
        }
        let walker = self.mobiles[0];
        let next: Vec<BrokerId> = self.movement.nlb(self.at).into_iter().collect();
        self.at = next[self.rng.next_below(next.len() as u64) as usize];
        self.sys.depart(walker).map_err(|e| e.to_string())?;
        self.sys.run_for(SimDuration::from_millis(500));
        self.sys.arrive(walker, self.at).map_err(|e| e.to_string())?;
        self.sys.run_for(SimDuration::from_millis(500));
        self.cycles += 1;
        Ok(())
    }

    /// Times handover cycles one by one for `secs` or [`MAX_CYCLES`],
    /// whichever ends first; returns when each cycle ended and its wall
    /// time, in nanoseconds.
    pub fn walk(&mut self, secs: Duration) -> Result<Vec<(u64, u64)>, String> {
        let mut cycle_ns = Vec::with_capacity(1 << 16);
        let t0 = Instant::now();
        while t0.elapsed() < secs && cycle_ns.len() < MAX_CYCLES {
            let c0 = Instant::now();
            self.cycle()?;
            cycle_ns.push((t0.elapsed().as_nanos() as u64, c0.elapsed().as_nanos() as u64));
            // Untimed housekeeping: delivery logs would otherwise grow
            // with the run.
            if self.cycles.is_multiple_of(256) {
                self.drain_logs()?;
            }
        }
        self.drain_logs()?;
        Ok(cycle_ns)
    }

    fn drain_logs(&mut self) -> Result<(), String> {
        for (i, c) in self.mobiles.iter().enumerate() {
            let got = self.sys.take_delivered(*c).map_err(|e| e.to_string())?.len();
            if i == 0 {
                self.walker_deliveries += got as u64;
            }
        }
        Ok(())
    }

    /// Folds the standing clients' duplicate and FIFO counts into
    /// `verdict`; an arrival that replayed nothing at all counts as a miss
    /// (every cycle publishes for the office arrived at, beforehand).
    pub fn judge(&self, verdict: &mut Verdict) -> Result<(), String> {
        for c in &self.mobiles {
            let s = self.sys.client_stats(*c).map_err(|e| e.to_string())?;
            verdict.duplicates += s.duplicates;
            verdict.fifo_violations += s.fifo_violations;
        }
        verdict.due += self.cycles;
        verdict.misses += self.cycles.saturating_sub(self.walker_deliveries);
        Ok(())
    }

    pub fn buffer_bytes(&self) -> usize {
        self.sys.total_buffer_bytes()
    }
}
