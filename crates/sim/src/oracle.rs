//! Ground truth: what *should* each client have received?
//!
//! The oracle knows the full publication schedule and every client's
//! attachment timeline, and classifies each publication per client:
//!
//! * for **location-independent** interests, a publication is due unless
//!   it was published before the client's first attachment — physical
//!   mobility promises "a transparent, uninterrupted flow";
//! * for **location-dependent** (`myloc`) interests, a publication at
//!   location `l` is *live-due* if the client was attached to a broker
//!   serving `l` at publication time, and *replay-due* if the client
//!   arrived at such a broker within the buffering window afterwards (the
//!   paper's "listen for a while" / "subscription in the past" semantics).
//!
//! Comparing due sets against actual delivery logs yields miss rates,
//! spurious deliveries and staleness.

use crate::movement::MoveSchedule;
use crate::workload::PubEvent;
use rebeca_core::{BrokerId, LocationId, SimDuration, SimTime};
use rebeca_mobility::LocationMap;
use std::collections::{BTreeMap, BTreeSet};

/// A client's attachment timeline (re-export of the movement schedule
/// shape, possibly recorded rather than planned).
pub type ClientTimeline = MoveSchedule;

/// Classification of the due set for one client.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DueSet {
    /// Marks due from live attachment at publication time.
    pub live: BTreeSet<i64>,
    /// Marks due via buffering/replay (arrival within the window).
    pub replay: BTreeSet<i64>,
}

impl DueSet {
    /// Union of live and replay marks.
    pub fn all(&self) -> BTreeSet<i64> {
        self.live.union(&self.replay).copied().collect()
    }
}

/// Computes the due set for a **location-dependent** interest: the client
/// wants service notifications for its *current* location.
///
/// `window` is the buffering horizon: a publication at location `l` is
/// replay-due if the client arrives at a broker serving `l` within
/// `window` after publication (and was not live-attached already).
pub fn location_due(
    pubs: &[PubEvent],
    timeline: &ClientTimeline,
    locations: &LocationMap,
    window: SimDuration,
) -> DueSet {
    let mut due = DueSet::default();
    for e in pubs {
        if is_live(e.at, e.location, timeline, locations) {
            due.live.insert(e.mark);
            continue;
        }
        // Replay-due: some stint at a broker serving the location starts
        // within [e.at, e.at + window].
        let deadline = e.at + window;
        let replay = timeline.stints.iter().any(|s| {
            s.from >= e.at && s.from <= deadline && locations.serves(s.broker, e.location)
        });
        if replay {
            due.replay.insert(e.mark);
        }
    }
    due
}

fn is_live(
    at: SimTime,
    location: LocationId,
    timeline: &ClientTimeline,
    locations: &LocationMap,
) -> bool {
    timeline.broker_at(at).is_some_and(|b| locations.serves(b, location))
}

/// The *coverage-aware* due set: what extended logical mobility with a
/// k-hop neighbourhood actually promises.
///
/// A publication at location `l` is replay-due only if a virtual client
/// covering `l` existed **continuously** from publication until the
/// client's arrival at a broker serving `l`: the client's position (last
/// attachment, surviving disconnections) must keep `l`'s broker inside its
/// k-hop neighbourhood at publication time and across every intermediate
/// handover. [`location_due`] is the *idealised demand* upper bound; the
/// difference between the two is the coverage gap that
/// `misses_fall_as_the_neighbourhood_grows` pins as k grows.
pub fn location_due_covered(
    pubs: &[PubEvent],
    timeline: &ClientTimeline,
    locations: &LocationMap,
    movement: &rebeca_mobility::MovementGraph,
    k: u32,
    window: SimDuration,
) -> DueSet {
    let covered = |position: BrokerId, target: BrokerId| -> bool {
        position == target || movement.k_hop(position, k).contains(&target)
    };
    // Position at time t = the last stint that started at or before t
    // (shadows persist through disconnection gaps).
    let position_at = |t: SimTime| -> Option<BrokerId> {
        timeline.stints.iter().take_while(|s| s.from <= t).last().map(|s| s.broker)
    };
    let mut due = DueSet::default();
    for e in pubs {
        if is_live(e.at, e.location, timeline, locations) {
            due.live.insert(e.mark);
            continue;
        }
        let deadline = e.at + window;
        // First arrival serving the location within the window.
        let arrival = timeline.stints.iter().find(|s| {
            s.from >= e.at && s.from <= deadline && locations.serves(s.broker, e.location)
        });
        let Some(arrival) = arrival else {
            continue;
        };
        // Coverage at publication time and across every intermediate
        // handover.
        let Some(p0) = position_at(e.at) else {
            continue;
        };
        let mut ok = covered(p0, arrival.broker);
        if ok {
            for s in &timeline.stints {
                if s.from > e.at && s.from < arrival.from && !covered(s.broker, arrival.broker) {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            due.replay.insert(e.mark);
        }
    }
    due
}

/// Computes the due set for a **location-independent** interest: every
/// publication from the client's first attachment onwards is due
/// (relocation must not lose anything, connected or not).
pub fn global_due(pubs: &[PubEvent], timeline: &ClientTimeline) -> BTreeSet<i64> {
    let Some(first) = timeline.stints.first() else {
        return BTreeSet::new();
    };
    pubs.iter().filter(|e| e.at >= first.from).map(|e| e.mark).collect()
}

/// Comparison of a due set against an actual delivery log.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleReport {
    /// Marks that were due and delivered.
    pub hits: usize,
    /// Marks that were due but never delivered.
    pub misses: usize,
    /// Marks delivered although not due (spurious — e.g. information for a
    /// location the client never visited in time).
    pub spurious: usize,
    /// Delivery latency (publication → delivery) of hits, in seconds.
    pub latencies: Vec<f64>,
}

impl OracleReport {
    /// Fraction of due notifications that were missed (0 when nothing was
    /// due).
    pub fn miss_rate(&self) -> f64 {
        let due = self.hits + self.misses;
        if due == 0 {
            0.0
        } else {
            self.misses as f64 / due as f64
        }
    }

    /// Compares `due` marks against the delivered `(mark, delivered_at)`
    /// log, using `published_at` for latency bookkeeping.
    pub fn compare(
        due: &BTreeSet<i64>,
        delivered: &[(i64, SimTime)],
        published_at: &BTreeMap<i64, SimTime>,
    ) -> OracleReport {
        let delivered_marks: BTreeSet<i64> = delivered.iter().map(|(m, _)| *m).collect();
        let hits = due.intersection(&delivered_marks).count();
        let misses = due.difference(&delivered_marks).count();
        let spurious = delivered_marks.difference(due).count();
        let mut latencies = Vec::new();
        for (mark, at) in delivered {
            if due.contains(mark) {
                if let Some(p) = published_at.get(mark) {
                    latencies.push((*at - *p).as_secs_f64());
                }
            }
        }
        OracleReport { hits, misses, spurious, latencies }
    }
}

/// Convenience: builds the `mark → published_at` map from a schedule.
pub fn publication_times(pubs: &[PubEvent]) -> BTreeMap<i64, SimTime> {
    pubs.iter().map(|e| (e.mark, e.at)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movement::Stint;
    use rebeca_core::BrokerId;

    fn timeline(stints: &[(u64, u64, u32)]) -> ClientTimeline {
        MoveSchedule {
            stints: stints
                .iter()
                .map(|(f, t, b)| Stint {
                    from: SimTime::from_secs(*f),
                    to: SimTime::from_secs(*t),
                    broker: BrokerId::new(*b),
                })
                .collect(),
        }
    }

    fn pubs(events: &[(u64, u32)]) -> Vec<PubEvent> {
        events
            .iter()
            .enumerate()
            .map(|(i, (at, loc))| PubEvent {
                at: SimTime::from_secs(*at),
                broker: BrokerId::new(*loc),
                service: "s".into(),
                location: LocationId::new(*loc),
                mark: i as i64,
            })
            .collect()
    }

    fn one_loc_per_broker(n: usize) -> LocationMap {
        let topo = rebeca_net::Topology::line(n).unwrap();
        LocationMap::one_per_broker(&topo)
    }

    #[test]
    fn live_due_requires_presence() {
        let tl = timeline(&[(0, 10, 0), (12, 20, 1)]);
        let ps = pubs(&[(5, 0), (5, 1), (15, 1), (15, 0)]);
        let due = location_due(&ps, &tl, &one_loc_per_broker(2), SimDuration::ZERO);
        assert!(due.live.contains(&0), "at L0 while published at L0");
        assert!(!due.live.contains(&1), "not at L1 at t=5");
        assert!(due.live.contains(&2), "at L1 at t=15");
        assert!(!due.live.contains(&3));
        assert!(due.replay.is_empty(), "zero window");
    }

    #[test]
    fn replay_due_within_window() {
        let tl = timeline(&[(0, 10, 0), (12, 20, 1)]);
        // Published at L1 at t=5; client arrives at B1 at t=12 — within a
        // 10 s window.
        let ps = pubs(&[(5, 1)]);
        let due = location_due(&ps, &tl, &one_loc_per_broker(2), SimDuration::from_secs(10));
        assert!(due.replay.contains(&0));
        // With a 5 s window the arrival at t=12 is too late.
        let due = location_due(&ps, &tl, &one_loc_per_broker(2), SimDuration::from_secs(5));
        assert!(due.replay.is_empty());
    }

    #[test]
    fn global_due_from_first_attachment() {
        let tl = timeline(&[(10, 20, 0)]);
        let ps = pubs(&[(5, 0), (15, 0), (25, 0)]);
        let due = global_due(&ps, &tl);
        assert!(!due.contains(&0), "published before the client existed");
        assert!(due.contains(&1) && due.contains(&2));
        assert!(global_due(&ps, &timeline(&[])).is_empty());
    }

    #[test]
    fn covered_oracle_requires_continuous_coverage() {
        use rebeca_mobility::MovementGraph;
        let map = one_loc_per_broker(5);
        let g = MovementGraph::line(5);
        let window = SimDuration::from_secs(3600);
        // Walk 0 → 1 → 2; publication at L2.
        let tl = timeline(&[(0, 10, 0), (11, 20, 1), (21, 30, 2)]);

        // Published at t=5 while the client sits at B0: B2 is 2 hops away,
        // no shadow exists there under k=1 → not due.
        let early = pubs(&[(5, 2)]);
        let due = location_due_covered(&early, &tl, &map, &g, 1, window);
        assert!(due.all().is_empty());
        // ... but with k=2 the shadow exists from the start → due.
        let due = location_due_covered(&early, &tl, &map, &g, 2, window);
        assert!(due.replay.contains(&0));

        // Published at t=15 while the client is at B1 (B2 adjacent):
        // covered continuously until the arrival at t=21 → due at k=1.
        let late = pubs(&[(15, 2)]);
        let due = location_due_covered(&late, &tl, &map, &g, 1, window);
        assert!(due.replay.contains(&0));

        // Live publications are classified live, not replay.
        let live = pubs(&[(25, 2)]);
        let due = location_due_covered(&live, &tl, &map, &g, 1, window);
        assert!(due.live.contains(&0));
        assert!(due.replay.is_empty());
    }

    #[test]
    fn covered_oracle_detects_coverage_interruption() {
        use rebeca_mobility::MovementGraph;
        let map = one_loc_per_broker(5);
        let g = MovementGraph::line(5);
        let window = SimDuration::from_secs(3600);
        // Walk 1 → 0 → 1 → 2: publication at L2 while at B1 (covered),
        // but the detour to B0 destroys the shadow at B2 (B2 ∉ nlb(B0)),
        // so by arrival at B2 the buffer is gone.
        let tl = timeline(&[(0, 10, 1), (11, 20, 0), (21, 30, 1), (31, 40, 2)]);
        let ps = pubs(&[(5, 2)]);
        let due = location_due_covered(&ps, &tl, &map, &g, 1, window);
        assert!(due.all().is_empty(), "the B0 detour interrupts coverage");
        // The idealised-demand oracle still counts it — the coverage gap.
        let ideal = location_due(&ps, &tl, &map, window);
        assert!(ideal.replay.contains(&0));
    }

    #[test]
    fn covered_oracle_is_subset_of_ideal_demand() {
        use rebeca_mobility::MovementGraph;
        let map = one_loc_per_broker(4);
        let g = MovementGraph::line(4);
        let tl = timeline(&[(0, 10, 0), (12, 20, 1), (22, 30, 3)]);
        let ps = pubs(&[(1, 0), (5, 1), (15, 3), (18, 2), (25, 1)]);
        for k in 0..4 {
            for window_s in [0u64, 10, 100] {
                let w = SimDuration::from_secs(window_s);
                let covered = location_due_covered(&ps, &tl, &map, &g, k, w).all();
                let ideal = location_due(&ps, &tl, &map, w).all();
                assert!(
                    covered.is_subset(&ideal),
                    "k={k} w={window_s}: coverage-aware oracle must never demand more"
                );
            }
        }
    }

    #[test]
    fn report_classifies_hits_misses_spurious() {
        let due: BTreeSet<i64> = [1, 2, 3].into();
        let delivered = vec![(2i64, SimTime::from_secs(8)), (9, SimTime::from_secs(9))];
        let published: BTreeMap<i64, SimTime> =
            [(1, SimTime::from_secs(1)), (2, SimTime::from_secs(2)), (3, SimTime::from_secs(3))]
                .into();
        let r = OracleReport::compare(&due, &delivered, &published);
        assert_eq!(r.hits, 1);
        assert_eq!(r.misses, 2);
        assert_eq!(r.spurious, 1);
        assert_eq!(r.latencies, vec![6.0]);
        assert!((r.miss_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_due_has_zero_miss_rate() {
        let r = OracleReport::compare(&BTreeSet::new(), &[], &BTreeMap::new());
        assert_eq!(r.miss_rate(), 0.0);
    }
}
