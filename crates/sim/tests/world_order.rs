//! Pins the simulator's event order: a fixed grid of scenarios, every
//! outcome folded into one FNV-1a digest. Any change to the order in which
//! `World` runs deliveries and timers — or to what a handler's actions do —
//! moves some delivery instant, traffic count or buffer peak and so the
//! digest. A refactor of the dispatch must leave it byte for byte.

use rebeca::{BufferSpec, SimDuration};
use rebeca_core::digest::Fnv1a;
use rebeca_sim::scenario::{self, ScenarioConfig, ScenarioOutcome, SystemVariant, TopologyKind};
use rebeca_sim::workload::WorkloadConfig;

/// Every field of `out` that the event order decides.
fn fold(h: &mut Fnv1a, out: &ScenarioOutcome) {
    for log in &out.delivered {
        h.write_u64(log.len() as u64);
        for &(mark, at) in log {
            h.write_u64(mark as u64);
            h.write_u64(at.as_micros());
        }
    }
    for tl in &out.timelines {
        h.write_u64(tl.stints.len() as u64);
        for s in &tl.stints {
            h.write_u64(s.from.as_micros());
            h.write_u64(s.to.as_micros());
            h.write_u32(s.broker.raw());
        }
    }
    for (kind, &(msgs, bytes)) in &out.traffic {
        h.write(kind.as_bytes());
        h.write_u64(msgs);
        h.write_u64(bytes);
    }
    for &n in out.duplicates.iter().chain(&out.fifo_violations) {
        h.write_u64(n);
    }
    h.write_u64(out.peak_vcs as u64);
    h.write_u64(out.peak_buffer_bytes as u64);
    let r = out.replicator_totals;
    for n in [
        r.vcs_created,
        r.vcs_deleted,
        r.handovers,
        r.exceptions,
        r.replayed,
        r.buffered,
        r.stale_dropped,
        r.group_deliveries,
    ] {
        h.write_u64(n);
    }
}

/// The five variants × three broker trees × location-dependent or not ×
/// four seeds: 120 short scenarios.
#[test]
fn scenario_grid_digest_is_pinned() {
    let extended =
        |k| SystemVariant::ExtendedLogical { k, buffer: BufferSpec::Unbounded, shared: false };
    let variants = [
        SystemVariant::Static,
        SystemVariant::NaiveReconnect,
        SystemVariant::ReactiveLogical,
        extended(0),
        extended(1),
    ];
    let mut h = Fnv1a::new();
    let mut runs = 0;
    for variant in &variants {
        for topology in [TopologyKind::Line, TopologyKind::Star, TopologyKind::BalancedBinary] {
            for location_dependent in [true, false] {
                for seed in 0..4 {
                    let cfg = ScenarioConfig {
                        topology,
                        variant: variant.clone(),
                        dwell: SimDuration::from_secs(4),
                        workload: WorkloadConfig {
                            duration: SimDuration::from_secs(20),
                            seed: 7 + seed,
                            ..Default::default()
                        },
                        location_dependent,
                        seed,
                        ..Default::default()
                    };
                    fold(&mut h, &scenario::run(&cfg));
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 120);
    assert_eq!(h.finish().raw(), 0x53c3_d594_207b_d04d, "the simulator's event order moved");
}
