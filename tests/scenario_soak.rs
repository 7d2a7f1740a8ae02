//! Seed-replayable scenario soak: randomized mobility scenarios checked
//! against the simulator's delivery oracle.
//!
//! Every run draws a fresh master seed (or takes one from the
//! `REBECA_SOAK_SEED` environment variable), derives a handful of random
//! scenarios from it, and asserts that under lossless links nothing the
//! oracle says is due is ever missed (`miss_rate() == 0.0`) and that FIFO
//! is never violated. On any failure the seed is printed so the exact run
//! reproduces with one environment variable:
//!
//! ```text
//! REBECA_SOAK_SEED=<seed> cargo test --release --test scenario_soak
//! ```

use rebeca::net::SplitMix64;
use rebeca::{SimDuration, SimTime};
use rebeca_sim::scenario::{self, MovementKind, ScenarioConfig, SystemVariant, TopologyKind};
use rebeca_sim::workload::{Arrivals, WorkloadConfig};
use rebeca_sim::MovementModel;

/// One random scenario shape derived from the seed stream (the simulator's
/// own deterministic [`SplitMix64`] — a single `u64` reproduces the entire
/// run). The movement graph is always the line the random walk respects,
/// so the coverage-aware oracle's promise applies exactly.
fn random_cfg(rng: &mut SplitMix64) -> ScenarioConfig {
    let brokers = 3 + (rng.next_u64() % 4) as usize; // 3..=6
    ScenarioConfig {
        brokers,
        topology: TopologyKind::Line,
        movement_graph: MovementKind::Line,
        mobile_clients: 1 + (rng.next_u64() % 2) as usize, // 1..=2
        movement_model: MovementModel::RandomWalk,
        dwell: SimDuration::from_secs(6 + rng.next_u64() % 8),
        gap: SimDuration::from_millis(300 + rng.next_u64() % 500),
        workload: WorkloadConfig {
            arrivals: Arrivals::Periodic {
                period: SimDuration::from_millis(1500 + rng.next_u64() % 3000),
            },
            duration: SimDuration::from_secs(40),
            seed: rng.next_u64(),
            ..Default::default()
        },
        seed: rng.next_u64(),
        ..Default::default()
    }
}

/// The paper's scale in one fixed shape: 32 clients roaming a 3 × 3 office
/// grid over a balanced broker tree, all of them departing and arriving at
/// the same instants (every stint and gap is a multiple of 500 ms). The
/// publishers start at 1 025 ms, off those instants, so no notification is
/// still in flight at a departure.
fn grid_cfg(rng: &mut SplitMix64) -> ScenarioConfig {
    ScenarioConfig {
        brokers: 9,
        topology: TopologyKind::BalancedBinary,
        movement_graph: MovementKind::Grid(3, 3),
        mobile_clients: 32,
        movement_model: MovementModel::RandomWalk,
        dwell: SimDuration::from_secs(5),
        gap: SimDuration::from_millis(500),
        workload: WorkloadConfig {
            arrivals: Arrivals::Periodic { period: SimDuration::from_secs(1) },
            duration: SimDuration::from_secs(40),
            start: SimTime::from_millis(1025),
            seed: rng.next_u64(),
            ..Default::default()
        },
        seed: rng.next_u64(),
        ..Default::default()
    }
}

/// Runs one scenario and asserts the oracle promises.
fn run_checked(cfg: &ScenarioConfig, label: &str) {
    let out = scenario::run(cfg);
    assert!(!out.pubs.is_empty(), "{label}: workload generated no publications");
    let reports = if cfg.location_dependent {
        // Graph-respecting walks: everything a continuously existing shadow
        // within the variant's k hops buffered must be replayed (k = 0 for
        // the reactive baseline, which keeps no shadows).
        let k = match cfg.variant {
            SystemVariant::ExtendedLogical { k, .. } => k,
            _ => 0,
        };
        out.covered_location_reports(k, SimDuration::from_secs(3600))
    } else {
        // Relocation is lossless for location-independent interests.
        out.global_reports()
    };
    for (i, report) in reports.iter().enumerate() {
        assert_eq!(
            report.miss_rate(),
            0.0,
            "{label}: client {i} missed {} of {} due notifications",
            report.misses,
            report.hits + report.misses,
        );
    }
    if !cfg.location_dependent {
        // Location-independent interests are due from first attachment
        // onwards — a 40 s workload must make the check non-vacuous.
        let due: usize = reports.iter().map(|r| r.hits + r.misses).sum();
        assert!(due > 0, "{label}: oracle found nothing due — vacuous soak");
    }
    if cfg.location_dependent {
        // A `myloc` subscription follows the client's current location: a
        // mark published during a stint for a location the stint's broker
        // does not serve is never delivered during that stint.
        for (i, (tl, log)) in out.timelines.iter().zip(&out.delivered).enumerate() {
            for &(mark, at) in log {
                let e = out.pubs.iter().find(|e| e.mark == mark).expect("delivered mark published");
                let stale = tl.stints.iter().any(|s| {
                    (s.from..s.to).contains(&at)
                        && (s.from..s.to).contains(&e.at)
                        && !out.locations.serves(s.broker, e.location)
                });
                assert!(
                    !stale,
                    "{label}: client {i} got mark {mark} for {:?}, published at \
                     {:?} while it was elsewhere",
                    e.location, e.at,
                );
            }
        }
    }
    for (i, v) in out.fifo_violations.iter().enumerate() {
        assert_eq!(*v, 0, "{label}: client {i} observed FIFO violations");
    }
    // Subscription subgrouping: every client has the same interest, so a
    // replicator holds one broker subscription per resolved filter, and
    // only the broker serving a publication's location has one for it.
    // Each publication reaches the replicators once at most, however many
    // virtual clients buffer it.
    let group_deliveries = out.replicator_totals.group_deliveries;
    assert!(
        group_deliveries <= out.pubs.len() as u64,
        "{label}: {group_deliveries} group deliveries for {} publications",
        out.pubs.len(),
    );
}

/// The soak body: two random scenario shapes and the fixed grid shape ×
/// three variant/interest pairs.
fn soak(master_seed: u64) {
    let mut rng = SplitMix64::new(master_seed);
    let mut shapes: Vec<(String, ScenarioConfig)> =
        (0..2).map(|round| (format!("round {round}"), random_cfg(&mut rng))).collect();
    shapes.push(("3x3 grid, 32 clients".to_owned(), grid_cfg(&mut rng)));
    for (shape, base) in shapes {
        for (variant, location_dependent) in [
            (SystemVariant::ReactiveLogical, false),
            (SystemVariant::ReactiveLogical, true),
            (SystemVariant::extended_default(), true),
        ] {
            let cfg =
                ScenarioConfig { variant: variant.clone(), location_dependent, ..base.clone() };
            let label = format!("{shape}, variant {}", variant.name());
            run_checked(&cfg, &label);
        }
    }
}

#[test]
fn randomized_scenarios_lose_nothing() {
    // Fresh entropy per run unless pinned — every CI run soaks a new seed,
    // and any failure names the exact one to replay.
    let seed = match std::env::var("REBECA_SOAK_SEED") {
        Ok(v) => v.parse::<u64>().unwrap_or_else(|_| {
            panic!("REBECA_SOAK_SEED must be a u64, got {v:?}");
        }),
        Err(_) => {
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after the epoch");
            now.as_secs() ^ u64::from(now.subsec_nanos()).rotate_left(32)
        }
    };
    println!("scenario_soak: running with REBECA_SOAK_SEED={seed}");
    let outcome = std::panic::catch_unwind(|| soak(seed));
    if let Err(panic) = outcome {
        eprintln!();
        eprintln!("scenario_soak: FAILED — reproduce this exact run with:");
        eprintln!("    REBECA_SOAK_SEED={seed} cargo test --release --test scenario_soak");
        eprintln!();
        std::panic::resume_unwind(panic);
    }
}
