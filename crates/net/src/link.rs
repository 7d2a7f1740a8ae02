//! Point-to-point FIFO links.
//!
//! "The edges are communication links that are point-to-point. Furthermore,
//! messages are required to be delivered in FIFO order on each link."
//! (paper, §2). Links carry a latency model; the simulator enforces FIFO by
//! never scheduling a delivery earlier than the previously scheduled one on
//! the same directed link, even under latency jitter.

use crate::node::NodeId;
use crate::rng::SplitMix64;
use rebeca_core::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An Fx-style hasher for keys the world mints itself — [`NodeId`] pairs
/// and timer ids — which no outside party chooses, so they need no
/// SipHash protection against flooding. Keys derived from wire data
/// (names, digests, client and notification ids) keep the default hasher.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`IdHasher`]s for the world's id-keyed maps and sets.
pub(crate) type IdHash = BuildHasherDefault<IdHasher>;

/// A directed link key (`from → to`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkKey {
    /// Sending endpoint.
    pub from: NodeId,
    /// Receiving endpoint.
    pub to: NodeId,
}

/// Latency model of a link.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(SimDuration),
    /// Uniform jitter in `[min, max]` (FIFO still enforced).
    Uniform {
        /// Minimum latency.
        min: SimDuration,
        /// Maximum latency.
        max: SimDuration,
    },
}

impl LatencyModel {
    /// Samples one message latency.
    pub fn sample(&self, rng: &mut SplitMix64) -> SimDuration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Uniform { min, max } => {
                debug_assert!(
                    min <= max,
                    "Uniform latency with min {min} > max {max}: normalise at \
                     construction (LinkConfig::jittered does)"
                );
                let lo = min.as_micros();
                let hi = max.as_micros().max(lo);
                SimDuration::from_micros(lo + rng.next_below(hi - lo + 1))
            }
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Constant(SimDuration::from_millis(1))
    }
}

/// Configuration of a (bidirectional) link.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Latency model applied per direction.
    pub latency: LatencyModel,
    /// Whether the link starts in the *up* state.
    pub up: bool,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig { latency: LatencyModel::default(), up: true }
    }
}

impl LinkConfig {
    /// Convenience: a link with constant latency, initially up.
    pub fn constant(latency: SimDuration) -> Self {
        LinkConfig { latency: LatencyModel::Constant(latency), up: true }
    }

    /// Convenience: a link with uniform jitter, initially up. Reversed
    /// bounds are normalised (`jittered(hi, lo)` ≡ `jittered(lo, hi)`)
    /// rather than silently degrading to constant-`min`.
    pub fn jittered(min: SimDuration, max: SimDuration) -> Self {
        let (min, max) = if min <= max { (min, max) } else { (max, min) };
        LinkConfig { latency: LatencyModel::Uniform { min, max }, up: true }
    }
}

/// State of one direction of a link.
#[derive(Debug)]
pub(crate) struct LinkState {
    pub(crate) latency: LatencyModel,
    pub(crate) up: bool,
    pub(crate) rng: SplitMix64,
    /// Earliest time the next delivery may be scheduled (FIFO floor).
    pub(crate) fifo_floor: SimTime,
}

/// All links of a world, keyed by direction.
#[derive(Debug, Default)]
pub struct LinkTable {
    links: HashMap<LinkKey, LinkState, IdHash>,
    /// FIFO floors of removed link incarnations, so a re-created link never
    /// schedules deliveries before messages still in flight from its
    /// predecessor (handover tears links down and re-creates them with
    /// traffic in the air). Entries move back into `links` on re-insert,
    /// keeping the map bounded by currently-removed pairs.
    retired_floors: HashMap<LinkKey, SimTime, IdHash>,
}

impl LinkTable {
    /// Installs a bidirectional link with independent per-direction RNGs.
    /// `now` is the current world time: the FIFO floor starts at `now`, or
    /// at the retired floor of a previous incarnation of the same directed
    /// link if that lies later — messages in flight across a remove +
    /// re-insert are never overtaken.
    ///
    /// Public so the model checker can drive the handover protocol
    /// directly (`crates/verify/tests/link_floor.rs`); the simulator calls
    /// it through [`World`](crate::World).
    pub fn insert(
        &mut self,
        a: NodeId,
        b: NodeId,
        cfg: &LinkConfig,
        rng: &mut SplitMix64,
        now: SimTime,
    ) {
        self.prune_retired(now);
        for key in [LinkKey { from: a, to: b }, LinkKey { from: b, to: a }] {
            // The floor survives re-insertion whether the previous
            // incarnation was removed (retired) or is being overwritten
            // in place (reconfiguration without remove).
            let live = self.links.get(&key).map(|l| l.fifo_floor);
            let retired = self.retired_floors.remove(&key);
            let floor = live.into_iter().chain(retired).fold(now, SimTime::max);
            self.links.insert(
                key,
                LinkState {
                    latency: cfg.latency.clone(),
                    up: cfg.up,
                    rng: rng.fork(u64::from(key.from.raw()) << 32 | u64::from(key.to.raw())),
                    fifo_floor: floor,
                },
            );
        }
    }

    /// Removes a bidirectional link entirely, remembering its FIFO floors
    /// for a possible re-insert. Floors are only worth remembering while
    /// they lie in the future, so floors already at or before `now` are not
    /// retired at all.
    pub fn remove(&mut self, a: NodeId, b: NodeId, now: SimTime) {
        for key in [LinkKey { from: a, to: b }, LinkKey { from: b, to: a }] {
            if let Some(state) = self.links.remove(&key) {
                if state.fifo_floor > now {
                    self.retired_floors.insert(key, state.fifo_floor);
                }
            }
        }
    }

    /// Drops retired floors whose time has passed: once `now` has reached a
    /// floor, a re-created link would start at `max(now, floor) == now`
    /// anyway, so the entry can never influence scheduling again. Called by
    /// the world on every link mutation, which keeps the map bounded by
    /// *currently in-flight* removed links instead of every node pair ever
    /// torn down.
    pub fn prune_retired(&mut self, now: SimTime) {
        self.retired_floors.retain(|_, floor| *floor > now);
    }

    /// Returns the FIFO floor of a directed link — the earliest time its
    /// next delivery may be scheduled — or `None` if the link does not
    /// exist.
    pub fn fifo_floor(&self, from: NodeId, to: NodeId) -> Option<SimTime> {
        self.links.get(&LinkKey { from, to }).map(|l| l.fifo_floor)
    }

    /// Raises the FIFO floor of a directed link to at least `at`, as
    /// scheduling a delivery at `at` does; a floor never moves backwards.
    /// No-op if the link does not exist.
    pub fn raise_fifo_floor(&mut self, from: NodeId, to: NodeId, at: SimTime) {
        if let Some(l) = self.links.get_mut(&LinkKey { from, to }) {
            l.fifo_floor = l.fifo_floor.max(at);
        }
    }

    /// Number of remembered floors of removed links (diagnostics).
    pub fn retired_count(&self) -> usize {
        self.retired_floors.len()
    }

    /// Sets the up/down state of both directions.
    pub(crate) fn set_up(&mut self, a: NodeId, b: NodeId, up: bool) -> bool {
        let mut found = false;
        for key in [LinkKey { from: a, to: b }, LinkKey { from: b, to: a }] {
            if let Some(l) = self.links.get_mut(&key) {
                l.up = up;
                found = true;
            }
        }
        found
    }

    /// Returns `true` if a live (existing and up) directed link exists.
    pub fn is_up(&self, from: NodeId, to: NodeId) -> bool {
        self.links.get(&LinkKey { from, to }).is_some_and(|l| l.up)
    }

    /// Returns `true` if the directed link exists at all (up or down).
    pub fn exists(&self, from: NodeId, to: NodeId) -> bool {
        self.links.contains_key(&LinkKey { from, to })
    }

    pub(crate) fn get_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut LinkState> {
        self.links.get_mut(&LinkKey { from, to })
    }

    /// Number of directed links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` if no links are installed.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_latency_sampling() {
        let m = LatencyModel::Constant(SimDuration::from_millis(3));
        let mut rng = SplitMix64::new(0);
        assert_eq!(m.sample(&mut rng), SimDuration::from_millis(3));
    }

    #[test]
    fn uniform_latency_within_bounds() {
        let m = LatencyModel::Uniform {
            min: SimDuration::from_micros(100),
            max: SimDuration::from_micros(200),
        };
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d >= SimDuration::from_micros(100) && d <= SimDuration::from_micros(200));
        }
    }

    #[test]
    fn table_insert_query_toggle_remove() {
        let mut t = LinkTable::default();
        let mut rng = SplitMix64::new(1);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert!(!t.exists(a, b));
        t.insert(a, b, &LinkConfig::default(), &mut rng, SimTime::ZERO);
        assert!(t.exists(a, b) && t.exists(b, a));
        assert!(t.is_up(a, b) && t.is_up(b, a));
        assert!(t.set_up(a, b, false));
        assert!(!t.is_up(a, b) && !t.is_up(b, a));
        assert!(t.exists(a, b));
        t.remove(a, b, SimTime::ZERO);
        assert!(!t.exists(a, b));
        assert!(!t.set_up(a, b, true));
        assert!(t.is_empty());
    }

    #[test]
    fn jittered_normalises_reversed_bounds() {
        let cfg =
            LinkConfig::jittered(SimDuration::from_micros(200), SimDuration::from_micros(100));
        let LatencyModel::Uniform { min, max } = &cfg.latency else {
            panic!("jittered builds a Uniform model");
        };
        assert_eq!(*min, SimDuration::from_micros(100));
        assert_eq!(*max, SimDuration::from_micros(200));
        let mut rng = SplitMix64::new(3);
        for _ in 0..200 {
            let d = cfg.latency.sample(&mut rng);
            assert!(d >= SimDuration::from_micros(100) && d <= SimDuration::from_micros(200));
        }
    }

    #[test]
    fn reinserted_link_inherits_fifo_floor() {
        let mut t = LinkTable::default();
        let mut rng = SplitMix64::new(1);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        t.insert(a, b, &LinkConfig::default(), &mut rng, SimTime::ZERO);
        // A message in flight pushed the floor to t=50ms.
        t.get_mut(a, b).expect("link exists").fifo_floor = SimTime::from_millis(50);
        t.remove(a, b, SimTime::from_millis(1));
        // Re-created at t=2ms: the floor must carry over, not reset.
        t.insert(a, b, &LinkConfig::default(), &mut rng, SimTime::from_millis(2));
        assert_eq!(
            t.get_mut(a, b).expect("link exists").fifo_floor,
            SimTime::from_millis(50),
            "floor of the old incarnation survives re-establishment"
        );
        // The reverse direction had no traffic: its floor is just `now`.
        assert_eq!(t.get_mut(b, a).expect("link exists").fifo_floor, SimTime::from_millis(2));
        // A *fresh* pair starts at the insertion time.
        let (c, d) = (NodeId::new(2), NodeId::new(3));
        t.insert(c, d, &LinkConfig::default(), &mut rng, SimTime::from_millis(7));
        assert_eq!(t.get_mut(c, d).expect("link exists").fifo_floor, SimTime::from_millis(7));
    }

    #[test]
    fn retired_floors_are_pruned_once_passed() {
        let mut t = LinkTable::default();
        let mut rng = SplitMix64::new(1);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let (c, d) = (NodeId::new(2), NodeId::new(3));
        t.insert(a, b, &LinkConfig::default(), &mut rng, SimTime::ZERO);
        t.insert(c, d, &LinkConfig::default(), &mut rng, SimTime::ZERO);
        t.get_mut(a, b).expect("link exists").fifo_floor = SimTime::from_millis(50);
        t.get_mut(c, d).expect("link exists").fifo_floor = SimTime::from_millis(500);
        t.remove(a, b, SimTime::from_millis(1));
        t.remove(c, d, SimTime::from_millis(1));
        // a→b's floor (50 ms) is retired; b→a's floor (0) is already in
        // the past and never retired at all.
        assert_eq!(t.retired_count(), 2, "one future floor per pair");
        // Pruning before the floors pass keeps both.
        t.prune_retired(SimTime::from_millis(40));
        assert_eq!(t.retired_count(), 2);
        // Once t=50ms passes, only the 500 ms floor is worth keeping —
        // and re-inserting a↔b afterwards starts from `now` as if the
        // entry had been kept: max(now, floor<=now) == now either way.
        t.prune_retired(SimTime::from_millis(60));
        assert_eq!(t.retired_count(), 1);
        t.insert(a, b, &LinkConfig::default(), &mut rng, SimTime::from_millis(60));
        assert_eq!(t.get_mut(a, b).expect("link exists").fifo_floor, SimTime::from_millis(60));
        // The still-future floor keeps protecting in-flight traffic.
        t.insert(c, d, &LinkConfig::default(), &mut rng, SimTime::from_millis(60));
        assert_eq!(t.get_mut(c, d).expect("link exists").fifo_floor, SimTime::from_millis(500));
        assert_eq!(t.retired_count(), 0, "re-insert consumes the retired floor");
    }

    #[test]
    fn in_place_reconfigure_inherits_fifo_floor() {
        let mut t = LinkTable::default();
        let mut rng = SplitMix64::new(1);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        t.insert(a, b, &LinkConfig::default(), &mut rng, SimTime::ZERO);
        t.get_mut(a, b).expect("link exists").fifo_floor = SimTime::from_millis(50);
        // Reconfigure (no remove in between): the live floor must survive.
        t.insert(
            a,
            b,
            &LinkConfig::constant(SimDuration::from_micros(1)),
            &mut rng,
            SimTime::from_millis(2),
        );
        assert_eq!(
            t.get_mut(a, b).expect("link exists").fifo_floor,
            SimTime::from_millis(50),
            "in-place reconfiguration must not reset the FIFO floor"
        );
    }
}
