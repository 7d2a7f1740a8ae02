//! Point-to-point FIFO links.
//!
//! "The edges are communication links that are point-to-point. Furthermore,
//! messages are required to be delivered in FIFO order on each link."
//! (paper, §2). Each direction of a link has one constant latency, so its
//! deliveries arrive in send order. A link reconfigured in place to a
//! shorter latency keeps its FIFO floor: no delivery is scheduled before
//! one already in flight on the same directed link.

use crate::node::NodeId;
use rebeca_core::{SimDuration, SimTime};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct LinkKey {
    from: NodeId,
    to: NodeId,
}

/// Configuration of a (bidirectional) link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkConfig {
    /// Latency of every message, per direction.
    pub latency: SimDuration,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::constant(SimDuration::from_millis(1))
    }
}

impl LinkConfig {
    /// A link whose messages each take `latency`.
    pub fn constant(latency: SimDuration) -> Self {
        LinkConfig { latency }
    }
}

/// State of one direction of a link.
#[derive(Debug)]
pub(crate) struct LinkState {
    pub(crate) latency: SimDuration,
    pub(crate) up: bool,
    /// Earliest time the next delivery may be scheduled (FIFO floor).
    pub(crate) fifo_floor: SimTime,
}

/// All links of a world, keyed by direction.
#[derive(Debug, Default)]
pub(crate) struct LinkTable {
    links: HashMap<LinkKey, LinkState, IdHash>,
}

impl LinkTable {
    /// Installs a bidirectional link, up. `now` is the current world time:
    /// the FIFO floor starts at `now`, or keeps the floor of the link being
    /// reconfigured in place if that lies later, so messages in flight are
    /// never overtaken.
    pub(crate) fn insert(&mut self, a: NodeId, b: NodeId, cfg: &LinkConfig, now: SimTime) {
        for key in [LinkKey { from: a, to: b }, LinkKey { from: b, to: a }] {
            let floor = self.links.get(&key).map_or(now, |l| l.fifo_floor.max(now));
            self.links.insert(key, LinkState { latency: cfg.latency, up: true, fifo_floor: floor });
        }
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
    pub(crate) fn is_up(&self, from: NodeId, to: NodeId) -> bool {
        self.links.get(&LinkKey { from, to }).is_some_and(|l| l.up)
    }

    pub(crate) fn get_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut LinkState> {
        self.links.get_mut(&LinkKey { from, to })
    }

    /// Number of directed links.
    pub(crate) fn len(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_insert_query_toggle() {
        let mut t = LinkTable::default();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert!(!t.is_up(a, b));
        t.insert(a, b, &LinkConfig::default(), SimTime::ZERO);
        assert_eq!(t.len(), 2);
        assert!(t.is_up(a, b) && t.is_up(b, a));
        assert!(t.set_up(a, b, false));
        assert!(!t.is_up(a, b) && !t.is_up(b, a));
        assert!(!t.set_up(a, NodeId::new(2), true), "no such link");
    }

    #[test]
    fn in_place_reconfigure_inherits_fifo_floor() {
        let mut t = LinkTable::default();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        t.insert(a, b, &LinkConfig::default(), SimTime::ZERO);
        t.get_mut(a, b).expect("link exists").fifo_floor = SimTime::from_millis(50);
        // Reconfigure (no remove in between): the live floor must survive.
        t.insert(a, b, &LinkConfig::constant(SimDuration::from_micros(1)), SimTime::from_millis(2));
        assert_eq!(
            t.get_mut(a, b).expect("link exists").fifo_floor,
            SimTime::from_millis(50),
            "in-place reconfiguration must not reset the FIFO floor"
        );
        // The reverse direction had no traffic: its floor is just `now`.
        assert_eq!(t.get_mut(b, a).expect("link exists").fifo_floor, SimTime::from_millis(2));
    }
}
