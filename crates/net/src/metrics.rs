//! Link-level traffic accounting.
//!
//! Two consumers live here:
//!
//! * [`NetMetrics`] — the simulator's per-link / per-kind traffic charge
//!   sheet. The simulator charges every sent message against its directed
//!   link and its coarse message class (`kind`), which is how the
//!   bandwidth overhead of pre-subscription replication and the control
//!   traffic of routing strategies are measured.
//! * [`LinkCounters`] / [`LinkMetrics`] — the
//!   [`ProcessRuntime`](crate::ProcessRuntime)'s supervision counters:
//!   how often peer links died, how many frames were dropped into dead
//!   links, how hard reconnection worked, and whether any service thread
//!   ever died by panic. Shared atomics, written by supervisor and
//!   service threads, snapshot via
//!   [`ProcessRuntime::metrics`](crate::ProcessRuntime::metrics).

use crate::link::LinkKey;
use crate::node::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for one directed link or one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Messages sent.
    pub msgs: u64,
    /// Bytes sent (encoded wire size).
    pub bytes: u64,
}

impl Counters {
    fn add(&mut self, bytes: usize) {
        self.msgs += 1;
        self.bytes += bytes as u64;
    }
}

/// Traffic metrics of one [`World`](crate::World) run.
#[derive(Debug, Default)]
pub struct NetMetrics {
    per_link: HashMap<LinkKey, Counters>,
    per_kind: HashMap<&'static str, Counters>,
    dropped: u64,
    delivered: u64,
}

impl NetMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_send(
        &mut self,
        from: NodeId,
        to: NodeId,
        kind: &'static str,
        bytes: usize,
    ) {
        self.per_link.entry(LinkKey { from, to }).or_default().add(bytes);
        self.per_kind.entry(kind).or_default().add(bytes);
    }

    pub(crate) fn record_drop(&mut self) {
        self.dropped += 1;
    }

    pub(crate) fn record_delivery(&mut self) {
        self.delivered += 1;
    }

    /// Counters of one directed link.
    pub fn link(&self, from: NodeId, to: NodeId) -> Counters {
        self.per_link.get(&LinkKey { from, to }).copied().unwrap_or_default()
    }

    /// Counters aggregated for a message kind.
    pub fn kind(&self, kind: &str) -> Counters {
        self.per_kind.get(kind).copied().unwrap_or_default()
    }

    /// All kinds seen so far, sorted.
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut v: Vec<_> = self.per_kind.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Total messages sent on any link.
    pub fn total_msgs(&self) -> u64 {
        self.per_kind.values().map(|c| c.msgs).sum()
    }

    /// Total bytes sent on any link.
    pub fn total_bytes(&self) -> u64 {
        self.per_kind.values().map(|c| c.bytes).sum()
    }

    /// Messages dropped because no live link existed (down wireless link,
    /// disconnected client).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages actually handed to a node handler.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

/// Shared atomic counters behind the process runtime's link supervision.
///
/// All loads and stores are `Relaxed`: these are statistics, read after
/// the fact — no other memory is published through them.
#[derive(Debug, Default)]
pub struct LinkCounters {
    /// Peer links that went down (any [`LinkDownCause`](crate::LinkDownCause)).
    pub link_downs: AtomicU64,
    /// Reconnection attempts made under a `ReconnectPolicy` (successful
    /// or not).
    pub reconnect_attempts: AtomicU64,
    /// Peer links successfully re-established (fresh reader/writer
    /// threads spawned, Hello replayed).
    pub link_restarts: AtomicU64,
    /// Reader/writer/supervisor threads that terminated by panic. The
    /// supervision contract is that this stays 0 — malformed input is an
    /// error, never a panic.
    pub thread_panics: AtomicU64,
}

impl LinkCounters {
    /// ordering: Relaxed — pure statistics counter, no memory published
    /// through it.
    pub(crate) fn bump(counter: &AtomicU64) {
        // ordering: Relaxed — pure statistics counter, no memory published.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// ordering: Relaxed — see [`LinkCounters::bump`].
    pub(crate) fn get(counter: &AtomicU64) -> u64 {
        // ordering: Relaxed — pure statistics counter, no memory published.
        counter.load(Ordering::Relaxed)
    }
}

/// One consistent-enough snapshot of a [`ProcessRuntime`]'s supervision
/// counters (the atomic counters plus the per-peer send-buffer drop
/// accounting).
///
/// [`ProcessRuntime`]: crate::ProcessRuntime
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkMetrics {
    /// Whole frames dropped by pushes into down links.
    pub frames_dropped: u64,
    /// Bytes discarded by link death: queued bytes drained-and-dropped
    /// plus every dropped frame's bytes.
    pub bytes_dropped: u64,
    /// Peer links that went down.
    pub link_downs: u64,
    /// Reconnection attempts made.
    pub reconnect_attempts: u64,
    /// Peer links successfully re-established.
    pub link_restarts: u64,
    /// Service threads that died by panic (contract: 0).
    pub thread_panics: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_link_and_kind() {
        let mut m = NetMetrics::new();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        m.record_send(a, b, "pub", 100);
        m.record_send(a, b, "pub", 50);
        m.record_send(b, a, "sub", 10);
        assert_eq!(m.link(a, b), Counters { msgs: 2, bytes: 150 });
        assert_eq!(m.link(b, a), Counters { msgs: 1, bytes: 10 });
        assert_eq!(m.kind("pub"), Counters { msgs: 2, bytes: 150 });
        assert_eq!(m.kind("sub").msgs, 1);
        assert_eq!(m.kind("none"), Counters::default());
        assert_eq!(m.total_msgs(), 3);
        assert_eq!(m.total_bytes(), 160);
        assert_eq!(m.kinds(), vec!["pub", "sub"]);
    }

    #[test]
    fn drop_and_delivery_counters() {
        let mut m = NetMetrics::new();
        m.record_drop();
        m.record_delivery();
        m.record_delivery();
        assert_eq!(m.dropped(), 1);
        assert_eq!(m.delivered(), 2);
    }
}
