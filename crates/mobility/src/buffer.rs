//! Buffering policies for virtual clients and disconnected devices.
//!
//! The paper's research agenda (§4, *Embedding event histories*) names the
//! policy space: "Garbage collection can be time-based, history-based or
//! semantic-based. In a time-based scheme, all notifications published more
//! than t seconds ago are deleted from the buffer. In a history-based
//! scheme, the buffer always keeps the last n notifications. Both schemes
//! can be combined. In semantic-based scheme new events can nullify old
//! events." All four are implemented by [`ReplayBuffer`], configured
//! through [`BufferSpec`].
//!
//! The same section's shared buffer at the border broker ("virtual clients
//! can keep only the digest") is what sharing the `Arc` already gives: every
//! buffer of a replicator holds the allocation that flowed through routing,
//! and reports what it admits and lets go to the replicator's one
//! [`ByteLedger`], which counts a notification held by several buffers once.

use rebeca_core::{Notification, NotificationId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Configuration of a replay buffer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BufferSpec {
    /// No buffering at all (arrivals replay nothing).
    None,
    /// Keep everything (unbounded; useful as oracle in tests).
    Unbounded,
    /// Drop notifications older than `ttl`.
    TimeBased {
        /// Maximum age.
        ttl: SimDuration,
    },
    /// Keep only the most recent `capacity` notifications.
    HistoryBased {
        /// Maximum buffer length.
        capacity: usize,
    },
    /// Time- and history-based combined (both limits enforced).
    Combined {
        /// Maximum age.
        ttl: SimDuration,
        /// Maximum buffer length.
        capacity: usize,
    },
    /// New events nullify old events with equal values on `key_attrs`
    /// (e.g. only the latest menu per restaurant is kept).
    Semantic {
        /// Attributes forming the nullification key.
        key_attrs: Vec<String>,
    },
}

impl BufferSpec {
    /// Builds an empty buffer with this policy.
    pub fn build(&self) -> ReplayBuffer {
        ReplayBuffer::new(self.clone())
    }

    /// The policy's `(max age, max length)`: the one place a policy turns
    /// into bounds. `Semantic` is bounded by its keys alone.
    fn bounds(&self) -> (Option<SimDuration>, Option<usize>) {
        match self {
            BufferSpec::None => (None, Some(0)),
            BufferSpec::Unbounded | BufferSpec::Semantic { .. } => (None, None),
            BufferSpec::TimeBased { ttl } => (Some(*ttl), None),
            BufferSpec::HistoryBased { capacity } => (None, Some(*capacity)),
            BufferSpec::Combined { ttl, capacity } => (Some(*ttl), Some(*capacity)),
        }
    }
}

impl fmt::Display for BufferSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferSpec::None => write!(f, "none"),
            BufferSpec::Unbounded => write!(f, "unbounded"),
            BufferSpec::TimeBased { ttl } => write!(f, "time({ttl})"),
            BufferSpec::HistoryBased { capacity } => write!(f, "history({capacity})"),
            BufferSpec::Combined { ttl, capacity } => write!(f, "combined({ttl},{capacity})"),
            BufferSpec::Semantic { key_attrs } => write!(f, "semantic({})", key_attrs.join(",")),
        }
    }
}

/// Where a buffer reports the notifications it admits and lets go, with
/// their wire size: a replicator's [`ByteLedger`], or `()` for a buffer
/// nobody accounts for.
pub trait Ledger {
    /// Notification `id` of `bytes` bytes entered a buffer.
    fn admit(&mut self, id: NotificationId, bytes: usize);
    /// Notification `id` of `bytes` bytes left a buffer: evicted, expired
    /// or drained.
    fn release(&mut self, id: NotificationId, bytes: usize);
}

impl Ledger for () {
    fn admit(&mut self, _: NotificationId, _: usize) {}
    fn release(&mut self, _: NotificationId, _: usize) {}
}

/// One replicator's account of its buffers: how many buffers hold each
/// notification, and the wire-size bytes of every notification held at
/// least once. A notification held by k virtual clients and a disconnected
/// device shares one allocation and counts once.
#[derive(Debug, Default)]
pub struct ByteLedger {
    holders: HashMap<NotificationId, usize>,
    bytes: usize,
}

impl ByteLedger {
    /// Number of distinct notifications held by some buffer.
    pub fn len(&self) -> usize {
        self.holders.len()
    }

    /// Returns `true` if no buffer holds anything.
    pub fn is_empty(&self) -> bool {
        self.holders.is_empty()
    }

    /// Bytes held, each notification counted once.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Ledger for ByteLedger {
    fn admit(&mut self, id: NotificationId, bytes: usize) {
        let holders = self.holders.entry(id).or_insert(0);
        *holders += 1;
        if *holders == 1 {
            self.bytes += bytes;
        }
    }

    fn release(&mut self, id: NotificationId, bytes: usize) {
        let holders =
            self.holders.get_mut(&id).expect("a buffer released a notification it never admitted");
        *holders -= 1;
        if *holders == 0 {
            self.holders.remove(&id);
            self.bytes -= bytes;
        }
    }
}

/// One buffered notification: when it was offered, its nullification key
/// (0 unless `Semantic`) and its wire size, both computed once on offer.
#[derive(Debug, Clone)]
struct Held {
    at: SimTime,
    key: u64,
    bytes: usize,
    n: Arc<Notification>,
}

/// An ordered notification buffer with pluggable garbage collection.
///
/// Buffered notifications are held behind `Arc`: offering is a refcount
/// bump on the notification that already flowed through routing, and
/// replaying shares the same allocation with the delivery path. The `_to`
/// forms report every admission and eviction to a [`Ledger`]; `offer` and
/// `drain` report to nobody.
///
/// ```
/// use rebeca_core::{ClientId, Notification, SimDuration, SimTime};
/// use rebeca_mobility::BufferSpec;
/// use std::sync::Arc;
/// let mut buf = BufferSpec::HistoryBased { capacity: 2 }.build();
/// for i in 0..3 {
///     let n = Notification::builder().attr("i", i as i64)
///         .publish(ClientId::new(0), i, SimTime::from_secs(i));
///     buf.offer(SimTime::from_secs(i), Arc::new(n));
/// }
/// assert_eq!(buf.len(), 2, "history-based keeps the last n");
/// ```
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    spec: BufferSpec,
    items: VecDeque<Held>,
    bytes: usize,
    peak_len: usize,
    peak_bytes: usize,
    total_offered: u64,
    total_evicted: u64,
}

impl ReplayBuffer {
    /// Creates an empty buffer with the given policy.
    pub fn new(spec: BufferSpec) -> Self {
        ReplayBuffer {
            spec,
            items: VecDeque::new(),
            bytes: 0,
            peak_len: 0,
            peak_bytes: 0,
            total_offered: 0,
            total_evicted: 0,
        }
    }

    /// The configured policy.
    pub fn spec(&self) -> &BufferSpec {
        &self.spec
    }

    /// [`offer_to`](Self::offer_to) with no ledger.
    pub fn offer(&mut self, now: SimTime, n: Arc<Notification>) {
        self.offer_to(&mut (), now, n);
    }

    /// Offers a notification at time `now`, applying the policy. The
    /// shared notification is referenced, never copied.
    pub fn offer_to(&mut self, ledger: &mut impl Ledger, now: SimTime, n: Arc<Notification>) {
        self.total_offered += 1;
        let key = match &self.spec {
            BufferSpec::None => return,
            BufferSpec::Semantic { key_attrs } => {
                let key = semantic_key(&n, key_attrs);
                if let Some(pos) = self.items.iter().position(|held| held.key == key) {
                    let old = self.items.remove(pos).expect("position valid");
                    self.evict(ledger, &old);
                }
                key
            }
            BufferSpec::Unbounded
            | BufferSpec::TimeBased { .. }
            | BufferSpec::HistoryBased { .. }
            | BufferSpec::Combined { .. } => 0,
        };
        let bytes = n.wire_size();
        self.bytes += bytes;
        ledger.admit(n.id(), bytes);
        self.items.push_back(Held { at: now, key, bytes, n });
        self.gc(ledger, now);
        self.peak_len = self.peak_len.max(self.items.len());
        self.peak_bytes = self.peak_bytes.max(self.bytes);
    }

    /// Applies garbage collection at time `now` (also called by `offer`).
    pub fn gc(&mut self, ledger: &mut impl Ledger, now: SimTime) {
        let (ttl, capacity) = self.spec.bounds();
        let cutoff = ttl.map(|ttl| now - ttl);
        while let Some(front) = self.items.front() {
            let expired = cutoff.is_some_and(|cutoff| front.at < cutoff);
            let over = capacity.is_some_and(|cap| self.items.len() > cap);
            if !(expired || over) {
                break;
            }
            let old = self.items.pop_front().expect("front exists");
            self.evict(ledger, &old);
        }
    }

    /// Accounts for a notification the policy pushed out.
    fn evict(&mut self, ledger: &mut impl Ledger, old: &Held) {
        self.bytes -= old.bytes;
        self.total_evicted += 1;
        ledger.release(old.n.id(), old.bytes);
    }

    /// [`drain_to`](Self::drain_to) with no ledger.
    pub fn drain(&mut self, now: SimTime) -> Vec<Arc<Notification>> {
        self.drain_to(&mut (), now)
    }

    /// Drains the buffer in insertion order (the handover replay), after a
    /// final garbage collection at `now`. The returned notifications share
    /// their allocations with whoever else still holds them.
    pub fn drain_to(&mut self, ledger: &mut impl Ledger, now: SimTime) -> Vec<Arc<Notification>> {
        self.gc(ledger, now);
        self.bytes = 0;
        self.items
            .drain(..)
            .map(|held| {
                ledger.release(held.n.id(), held.bytes);
                held.n
            })
            .collect()
    }

    /// Returns the buffered notifications after garbage collection at
    /// `now`, without draining (exception-mode fetch keeps the buffer).
    /// Cloning is per-`Arc`, not per-notification.
    pub fn snapshot(&mut self, ledger: &mut impl Ledger, now: SimTime) -> Vec<Arc<Notification>> {
        self.gc(ledger, now);
        self.items.iter().map(|held| Arc::clone(&held.n)).collect()
    }

    /// Current number of buffered notifications.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Current buffered bytes (wire-size estimate).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Largest length ever reached.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Largest byte footprint ever reached.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Notifications offered over the buffer's lifetime.
    pub fn total_offered(&self) -> u64 {
        self.total_offered
    }

    /// Notifications evicted by the policy.
    pub fn total_evicted(&self) -> u64 {
        self.total_evicted
    }
}

fn semantic_key(n: &Notification, key_attrs: &[String]) -> u64 {
    use rebeca_core::digest::Fnv1a;
    let mut h = Fnv1a::new();
    for attr in key_attrs {
        match n.get(attr) {
            Some(v) => {
                h.write_u8(1);
                // Reuse the value encoding through a tiny detour: hash the
                // display form (stable for our value types).
                h.write(v.to_string().as_bytes());
            }
            None => h.write_u8(0),
        }
    }
    h.finish().raw()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_core::ClientId;

    fn note(i: u64, at: SimTime) -> Arc<Notification> {
        Arc::new(
            Notification::builder()
                .attr("service", "menu")
                .attr("restaurant", (i % 3) as i64)
                .attr("seq", i as i64)
                .publish(ClientId::new(1), i, at),
        )
    }

    #[test]
    fn none_buffers_nothing() {
        let mut ledger = ByteLedger::default();
        let mut b = BufferSpec::None.build();
        b.offer_to(&mut ledger, SimTime::ZERO, note(0, SimTime::ZERO));
        assert!(b.is_empty());
        assert_eq!(b.bytes(), 0);
        assert!(ledger.is_empty());
    }

    #[test]
    fn unbounded_keeps_everything_in_order() {
        let mut ledger = ByteLedger::default();
        let mut b = BufferSpec::Unbounded.build();
        for i in 0..10 {
            b.offer_to(&mut ledger, SimTime::from_secs(i), note(i, SimTime::from_secs(i)));
        }
        assert_eq!(b.len(), 10);
        assert_eq!(ledger.len(), 10);
        let drained = b.drain_to(&mut ledger, SimTime::from_secs(10));
        let seqs: Vec<u64> = drained.iter().map(|n| n.seq()).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        assert!(b.is_empty());
        assert_eq!(b.bytes(), 0);
        assert!(ledger.is_empty());
        assert_eq!(ledger.bytes(), 0);
    }

    #[test]
    fn time_based_evicts_old() {
        let mut b = BufferSpec::TimeBased { ttl: SimDuration::from_secs(5) }.build();
        for i in 0..10 {
            b.offer(SimTime::from_secs(i), note(i, SimTime::from_secs(i)));
        }
        // At t=9, cutoff is t=4: items from t in [4..9] remain.
        assert_eq!(b.len(), 6);
        b.gc(&mut (), SimTime::from_secs(20));
        assert!(b.is_empty(), "everything expires eventually");
        assert_eq!(b.total_evicted(), 10);
    }

    #[test]
    fn history_based_keeps_last_n() {
        let mut b = BufferSpec::HistoryBased { capacity: 3 }.build();
        for i in 0..10 {
            b.offer(SimTime::from_secs(i), note(i, SimTime::from_secs(i)));
        }
        let seqs: Vec<u64> = b.drain(SimTime::from_secs(10)).iter().map(|n| n.seq()).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn combined_applies_both_limits() {
        let mut b = BufferSpec::Combined { ttl: SimDuration::from_secs(5), capacity: 3 }.build();
        for i in 0..10 {
            b.offer(SimTime::from_secs(i), note(i, SimTime::from_secs(i)));
        }
        assert_eq!(b.len(), 3, "capacity binds first here");
        b.gc(&mut (), SimTime::from_secs(13));
        assert_eq!(b.len(), 2, "cutoff 13-5=8 evicts the t=7 item");
        b.gc(&mut (), SimTime::from_secs(20));
        assert!(b.is_empty(), "everything expires eventually");
    }

    #[test]
    fn semantic_nullifies_by_key() {
        let mut b = BufferSpec::Semantic { key_attrs: vec!["restaurant".into()] }.build();
        for i in 0..9 {
            b.offer(SimTime::from_secs(i), note(i, SimTime::from_secs(i)));
        }
        // 3 restaurants → only the latest menu per restaurant survives.
        assert_eq!(b.len(), 3);
        let seqs: Vec<u64> = b.drain(SimTime::from_secs(9)).iter().map(|n| n.seq()).collect();
        assert_eq!(seqs, vec![6, 7, 8]);
    }

    #[test]
    fn semantic_distinguishes_missing_attr() {
        let mut b = BufferSpec::Semantic { key_attrs: vec!["room".into()] }.build();
        let with = Arc::new(Notification::builder().attr("room", 1i64).publish(
            ClientId::new(0),
            0,
            SimTime::ZERO,
        ));
        let without = Arc::new(Notification::builder().attr("other", 1i64).publish(
            ClientId::new(0),
            1,
            SimTime::ZERO,
        ));
        b.offer(SimTime::ZERO, with);
        b.offer(SimTime::ZERO, without);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn snapshot_keeps_items() {
        let mut b = BufferSpec::Unbounded.build();
        b.offer(SimTime::ZERO, note(0, SimTime::ZERO));
        let snap = b.snapshot(&mut (), SimTime::ZERO);
        assert_eq!(snap.len(), 1);
        assert_eq!(b.len(), 1, "snapshot must not drain");
    }

    #[test]
    fn peaks_and_counters() {
        let mut b = BufferSpec::HistoryBased { capacity: 2 }.build();
        for i in 0..5 {
            b.offer(SimTime::from_secs(i), note(i, SimTime::from_secs(i)));
        }
        assert_eq!(b.peak_len(), 2);
        assert!(b.peak_bytes() > 0);
        assert_eq!(b.total_offered(), 5);
        assert_eq!(b.total_evicted(), 3);
    }

    #[test]
    fn ledger_counts_a_shared_body_once() {
        let mut ledger = ByteLedger::default();
        let mut a = BufferSpec::HistoryBased { capacity: 2 }.build();
        let mut b = BufferSpec::Unbounded.build();
        let n = note(0, SimTime::ZERO);
        a.offer_to(&mut ledger, SimTime::ZERO, Arc::clone(&n));
        b.offer_to(&mut ledger, SimTime::ZERO, Arc::clone(&n));
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger.bytes(), n.wire_size(), "two holders, one body");
        // Two newer offers push `n` out of `a`; `b` still holds it.
        for i in 1..3 {
            a.offer_to(&mut ledger, SimTime::ZERO, note(i, SimTime::ZERO));
        }
        assert_eq!(ledger.len(), 3);
        b.drain_to(&mut ledger, SimTime::ZERO);
        assert_eq!(ledger.len(), 2, "`n` left its last holder");
        a.drain_to(&mut ledger, SimTime::ZERO);
        assert!(ledger.is_empty());
        assert_eq!(ledger.bytes(), 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use rebeca_core::ClientId;
    use std::sync::Arc;

    fn arb_spec() -> impl Strategy<Value = BufferSpec> {
        prop_oneof![
            Just(BufferSpec::None),
            Just(BufferSpec::Unbounded),
            (1u64..20).prop_map(|s| BufferSpec::TimeBased { ttl: SimDuration::from_secs(s) }),
            (0usize..10).prop_map(|c| BufferSpec::HistoryBased { capacity: c }),
            ((1u64..20), (0usize..10)).prop_map(|(s, c)| BufferSpec::Combined {
                ttl: SimDuration::from_secs(s),
                capacity: c
            }),
            Just(BufferSpec::Semantic { key_attrs: vec!["k".into()] }),
        ]
    }

    proptest! {
        /// Invariants that hold for every policy: drain yields items in
        /// insertion order (a subsequence of offers), byte accounting is
        /// exact, the ledger holds exactly what the buffer holds, and the
        /// length respects the policy's capacity.
        #[test]
        fn buffer_invariants(spec in arb_spec(), offers in proptest::collection::vec((0u64..30, 0i64..5), 0..40)) {
            let mut ledger = ByteLedger::default();
            let mut buf = spec.build();
            let mut now = SimTime::ZERO;
            for (i, (t, k)) in offers.iter().enumerate() {
                now = now.max(SimTime::from_secs(*t));
                let n = Notification::builder()
                    .attr("k", *k)
                    .publish(ClientId::new(0), i as u64, now);
                buf.offer_to(&mut ledger, now, Arc::new(n));
                if let BufferSpec::HistoryBased { capacity } = buf.spec() {
                    prop_assert!(buf.len() <= *capacity);
                }
                let held = buf.snapshot(&mut ledger, now);
                let expect_bytes: usize = held.iter().map(|n| n.wire_size()).sum();
                prop_assert_eq!(buf.bytes(), expect_bytes);
                prop_assert_eq!(ledger.len(), held.len());
                prop_assert_eq!(ledger.bytes(), expect_bytes);
            }
            let drained = buf.drain_to(&mut ledger, now);
            let seqs: Vec<u64> = drained.iter().map(|n| n.seq()).collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            prop_assert_eq!(seqs, sorted, "replay must preserve insertion order");
            prop_assert_eq!(buf.bytes(), 0);
            prop_assert!(ledger.is_empty());
            prop_assert_eq!(ledger.bytes(), 0);
        }
    }
}
