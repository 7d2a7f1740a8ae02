//! Link-level traffic accounting.
//!
//! Two consumers live here:
//!
//! * [`NetMetrics`] — the simulator's per-kind traffic charge sheet. The
//!   simulator charges every sent message against its coarse message
//!   class (`kind`), which is how the bandwidth overhead of
//!   pre-subscription replication and the control traffic of routing
//!   strategies are measured.
//! * [`LinkCounters`] / [`LinkMetrics`] — the
//!   [`ProcessRuntime`](crate::ProcessRuntime)'s supervision counters:
//!   how often peer links died, how many frames were dropped into dead
//!   links, how hard reconnection worked, and whether any service thread
//!   ever died by panic; and how traffic crossed: direct or writer-thread
//!   writes, deliveries run on a borrowing reader or posted to a loop. Shared atomics, written by supervisor and
//!   service threads, snapshot via
//!   [`ProcessRuntime::metrics`](crate::ProcessRuntime::metrics).

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for one message kind.
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
    /// One entry per kind seen, in order of first use. A run knows a
    /// handful of kinds, so a scan beats hashing the name.
    per_kind: Vec<(&'static str, Counters)>,
    dropped: u64,
    delivered: u64,
}

impl NetMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_send(&mut self, kind: &'static str, bytes: usize) {
        // Kinds are string literals, so the pointer almost always matches;
        // the same name at another address still lands on its entry.
        let at = self
            .per_kind
            .iter()
            .position(|(k, _)| std::ptr::eq(*k, kind))
            .or_else(|| self.per_kind.iter().position(|(k, _)| *k == kind));
        match at {
            Some(i) => self.per_kind[i].1.add(bytes),
            None => {
                let mut c = Counters::default();
                c.add(bytes);
                self.per_kind.push((kind, c));
            }
        }
    }

    pub(crate) fn record_drop(&mut self) {
        self.dropped += 1;
    }

    pub(crate) fn record_delivery(&mut self) {
        self.delivered += 1;
    }

    /// Counters aggregated for a message kind.
    pub fn kind(&self, kind: &str) -> Counters {
        self.per_kind.iter().find(|(k, _)| *k == kind).map(|(_, c)| *c).unwrap_or_default()
    }

    /// All kinds seen so far, sorted.
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut v: Vec<_> = self.per_kind.iter().map(|(k, _)| *k).collect();
        v.sort_unstable();
        v
    }

    /// Total messages sent on any link.
    pub fn total_msgs(&self) -> u64 {
        self.per_kind.iter().map(|(_, c)| c.msgs).sum()
    }

    /// Total bytes sent on any link.
    pub fn total_bytes(&self) -> u64 {
        self.per_kind.iter().map(|(_, c)| c.bytes).sum()
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
    /// Frames an event loop's round wrote to a peer socket itself.
    pub direct_writes: AtomicU64,
    /// Coalesced batches a link's writer thread wrote.
    pub writer_writes: AtomicU64,
    /// Direct writes the socket's send timeout cut short; their tails went
    /// to the link's writer thread.
    pub direct_write_timeouts: AtomicU64,
    /// Deliveries handled by a reader that borrowed their event loop.
    pub borrowed_deliveries: AtomicU64,
    /// Deliveries posted because their loop's token was held.
    pub borrow_refused_busy: AtomicU64,
    /// Deliveries posted because earlier posts to their loop waited.
    pub borrow_refused_pending: AtomicU64,
    /// Deliveries posted because their read held more than their frame.
    pub borrow_refused_not_quiet: AtomicU64,
}

impl LinkCounters {
    /// ordering: Relaxed — pure statistics counter, no memory published
    /// through it.
    pub(crate) fn bump(counter: &AtomicU64) {
        // ordering: Relaxed — pure statistics counter, no memory published.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`. ordering: Relaxed — see [`LinkCounters::bump`].
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        // ordering: Relaxed — pure statistics counter, no memory published.
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// ordering: Relaxed — see [`LinkCounters::bump`].
    pub(crate) fn get(counter: &AtomicU64) -> u64 {
        // ordering: Relaxed — pure statistics counter, no memory published.
        counter.load(Ordering::Relaxed)
    }
}

/// One consistent-enough snapshot of a [`ProcessRuntime`]'s supervision
/// counters (the atomic counters plus the per-peer send-buffer drop
/// accounting). The send-path and borrow counters after `thread_panics`
/// describe how traffic was carried, not failures.
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
    /// Frames an event loop's round wrote to a peer socket itself.
    pub direct_writes: u64,
    /// Coalesced batches the links' writer threads wrote.
    pub writer_writes: u64,
    /// Direct writes the socket's send timeout cut short.
    pub direct_write_timeouts: u64,
    /// Deliveries handled by a reader that borrowed their event loop.
    pub borrowed_deliveries: u64,
    /// Deliveries posted because their loop's token was held.
    pub borrow_refused_busy: u64,
    /// Deliveries posted because earlier posts to their loop waited.
    pub borrow_refused_pending: u64,
    /// Deliveries posted because their read held more than their frame.
    pub borrow_refused_not_quiet: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_kind() {
        let mut m = NetMetrics::new();
        m.record_send("sub", 10);
        m.record_send("pub", 100);
        m.record_send("pub", 50);
        // The same name at another address counts against the same kind.
        let pub_copy: &'static str = String::from("pub").leak();
        m.record_send(pub_copy, 0);
        assert_eq!(m.kind("pub"), Counters { msgs: 3, bytes: 150 });
        assert_eq!(m.kind("sub").msgs, 1);
        assert_eq!(m.kind("none"), Counters::default());
        assert_eq!(m.total_msgs(), 4);
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
