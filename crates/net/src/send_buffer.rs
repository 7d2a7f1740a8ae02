//! Bounded per-link send buffer with blocking backpressure.
//!
//! Every inter-process link owns one [`SendBuffer`]. Node threads push
//! encoded frames into it; the link's writer thread drains **everything
//! queued** in one call and issues a single stream write — coalescing many
//! small frames into few syscalls. The buffer is bounded by a byte
//! capacity: a producer that would overflow it blocks until the writer
//! drains (backpressure), so one slow link cannot balloon process memory.
//! One deliberate exception keeps the system live: a frame larger than the
//! whole capacity is admitted alone into an *empty* buffer rather than
//! deadlocking its producer forever.
//!
//! The buffer also arbitrates who may touch the link's socket, through a
//! **write token** with three states:
//!
//! * `Idle` — nobody is writing.
//! * `Drainer` — the writer thread holds the batch it took in
//!   [`drain_into`](SendBuffer::drain_into) until its *next* call, i.e.
//!   until that batch is on the wire.
//! * `Direct` — a producer was granted [`try_direct`](SendBuffer::try_direct)
//!   and writes one frame to the socket itself, skipping the writer thread
//!   and its wake-up; [`end_direct`](SendBuffer::end_direct) hands the
//!   token back, with the frame's unwritten tail if the socket's send
//!   timeout cut the write short. The tail goes ahead of everything
//!   queued meanwhile, so the frame stays whole on the wire.
//!
//! `try_direct` grants only when the link is open and up, nothing is
//! queued and the token is `Idle`, and `drain_into` waits while a `Direct`
//! write is in flight. So two writers never touch the socket at once, and
//! every frame reaches the wire in the order it was pushed or granted: the
//! per-link FIFO holds across both paths. On one thread (push, drain, push,
//! drain …) the token never blocks anything: each `drain_into` releases
//! what the previous one took.
//!
//! Link supervision adds a third state between open and closed: **down**
//! ([`SendBuffer::mark_down`] / [`SendBuffer::mark_up`]). While down,
//! queued bytes are discarded, blocked producers are released, and every
//! push is a counted drop instead of a write into a dead link's queue —
//! the "drain" step of the supervisor's down → drain → redial lifecycle
//! (see [`supervisor`](crate::supervisor)).
//!
//! Concurrency comes from the crate's `sync` facade: real
//! `parking_lot`-style primitives in normal builds, model-checked shims
//! under `--cfg rebeca_verify`. The exact code below — including its
//! wait-loop structure — is what `crates/verify/tests/send_buffer.rs`
//! exhaustively interleaves, and the `sendbuf_skip_recheck` injection twin
//! demonstrates the checker catches the classic condvar bug (treating a
//! wakeup as a grant without re-checking occupancy); the
//! `sendbuf_direct_ignores_queue` twin grants `Direct` past queued bytes
//! and the checker catches the reordered frames; the `tail_behind_queue`
//! twin queues a torn write's tail behind later pushes, and the checker
//! catches the torn frame.
//!
//! A caller that may not wait (a reader running an event loop's round)
//! queues with [`try_push`](SendBuffer::try_push), which refuses where
//! [`push`](SendBuffer::push) would block.

use crate::sync::lock::{Condvar, Mutex};
use std::fmt;
use std::sync::Arc;

/// Error returned by [`SendBuffer::push`] after [`SendBuffer::close`]: the
/// link is gone, the frame will never be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkClosed;

impl fmt::Display for LinkClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "send buffer closed: the link is being torn down")
    }
}

impl std::error::Error for LinkClosed {}

/// Who may write to the link's socket (see the module doc).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Token {
    #[default]
    Idle,
    Drainer,
    Direct,
}

#[derive(Default)]
struct State {
    queue: Vec<u8>,
    token: Token,
    closed: bool,
    /// Link supervision: while down, pushes are counted drops (never
    /// blocking, never queued) and the drainer is told to exit.
    down: bool,
    /// Whole frames dropped by pushes that found the link down.
    dropped_frames: u64,
    /// Bytes discarded: queued bytes cleared by [`SendBuffer::mark_down`]
    /// plus the bytes of every dropped frame.
    dropped_bytes: u64,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled by the drainer; waited on by producers blocked on space.
    space: Condvar,
    /// Signalled by producers and by the end of a `Direct` write; waited on
    /// by the drainer while the queue is empty or a `Direct` write is in
    /// flight.
    ready: Condvar,
    capacity: usize,
}

/// Bounded byte buffer between event loops (producers) and one link
/// writer thread (consumer). Cheap to clone; clones share the buffer.
#[derive(Clone)]
pub struct SendBuffer {
    shared: Arc<Shared>,
}

impl fmt::Debug for SendBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SendBuffer")
            .field("capacity", &self.shared.capacity)
            .field("occupancy", &self.occupancy())
            .finish()
    }
}

impl SendBuffer {
    /// Creates a buffer bounded at `capacity` bytes.
    pub fn new(capacity: usize) -> SendBuffer {
        SendBuffer {
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                space: Condvar::new(),
                ready: Condvar::new(),
                capacity,
            }),
        }
    }

    /// Byte capacity the buffer admits before pushes block.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Bytes currently queued.
    pub fn occupancy(&self) -> usize {
        self.shared.state.lock().queue.len()
    }

    /// Appends one encoded frame, blocking while the buffer is full
    /// (backpressure). An oversized frame (larger than the whole capacity)
    /// is admitted once the buffer is empty, so it still makes progress.
    ///
    /// # Errors
    ///
    /// [`LinkClosed`] once [`close`](SendBuffer::close) was called.
    pub fn push(&self, frame: &[u8]) -> Result<(), LinkClosed> {
        self.push_or(frame, true).map(|_| ())
    }

    /// [`push`](SendBuffer::push) for a caller that may not wait: `false`,
    /// with nothing queued, where `push` would block on a full buffer.
    ///
    /// # Errors
    ///
    /// [`LinkClosed`] once [`close`](SendBuffer::close) was called.
    pub fn try_push(&self, frame: &[u8]) -> Result<bool, LinkClosed> {
        self.push_or(frame, false)
    }

    /// Queues `frame`, waiting for space if `wait`; false if it would have
    /// had to wait and may not.
    fn push_or(&self, frame: &[u8], wait: bool) -> Result<bool, LinkClosed> {
        let mut st = self.shared.state.lock();
        loop {
            if st.closed {
                return Err(LinkClosed);
            }
            if st.down {
                // Supervised link death: producers never block on (or
                // queue into) a dead link — the frame is a counted drop.
                st.dropped_frames += 1;
                st.dropped_bytes += frame.len() as u64;
                return Ok(true);
            }
            if st.queue.is_empty() || st.queue.len() + frame.len() <= self.shared.capacity {
                break;
            }
            if !wait {
                return Ok(false);
            }
            self.shared.space.wait(&mut st);
            // Model-checker fault injection: treat the wakeup itself as a
            // space grant and skip the occupancy re-check. Two producers
            // woken by one drain can then both append, overshooting the
            // byte bound; `crates/verify/tests/send_buffer.rs` proves the
            // checker catches it.
            #[cfg(rebeca_verify)]
            if rebeca_verify::inject::enabled("sendbuf_skip_recheck") {
                if st.closed {
                    return Err(LinkClosed);
                }
                break;
            }
        }
        st.queue.extend_from_slice(frame);
        self.shared.ready.notify_one();
        Ok(true)
    }

    /// Swaps all queued bytes into `out` (cleared first), blocking until
    /// data arrives and no `Direct` write is in flight. Returns `false`
    /// once the buffer is closed *and* drained, or marked down — the writer
    /// thread's signal to exit after a final flush. `out`'s storage is
    /// recycled as the next queue, so a steady-state writer loop allocates
    /// nothing.
    ///
    /// The caller holds the write token for the returned batch until its
    /// next call, which releases it first: producers cannot write around a
    /// batch that is not yet on the wire.
    pub fn drain_into(&self, out: &mut Vec<u8>) -> bool {
        out.clear();
        let mut st = self.shared.state.lock();
        if st.token == Token::Drainer {
            st.token = Token::Idle;
        }
        while st.queue.is_empty() || st.token == Token::Direct {
            if st.queue.is_empty() && (st.closed || st.down) {
                return false;
            }
            self.shared.ready.wait(&mut st);
        }
        st.token = Token::Drainer;
        std::mem::swap(&mut st.queue, out);
        // Every producer blocked on space may fit now; wake them all, they
        // re-check under the lock.
        self.shared.space.notify_all();
        true
    }

    /// Asks for the write token so the caller can write one frame to the
    /// link's socket itself. Granted (`true`) only while the link is open
    /// and up, nothing is queued and nobody else holds the token; the
    /// caller must then call [`end_direct`](SendBuffer::end_direct) once
    /// its write returned, successful or not. On `false` the caller
    /// [`push`](SendBuffer::push)es instead.
    pub fn try_direct(&self) -> bool {
        let mut st = self.shared.state.lock();
        // Model-checker fault injection: grant past queued bytes, so a
        // direct frame can overtake frames pushed before it.
        // `crates/verify/tests/send_buffer.rs` proves the checker sees the
        // reordering.
        let queue_empty = st.queue.is_empty();
        #[cfg(rebeca_verify)]
        let queue_empty =
            queue_empty || rebeca_verify::inject::enabled("sendbuf_direct_ignores_queue");
        let granted = !st.closed && !st.down && queue_empty && st.token == Token::Idle;
        if granted {
            st.token = Token::Direct;
        }
        granted
    }

    /// Returns the token a [`try_direct`](SendBuffer::try_direct) granted,
    /// with the `unwritten` tail of a write the socket's send timeout cut
    /// short (empty if it finished or failed), and wakes the drainer if
    /// anything is queued. The tail goes ahead of every frame queued
    /// during the write, since those were pushed after the granted frame;
    /// like an oversized frame it is admitted past the capacity. A link
    /// marked down meanwhile counts the tail as dropped bytes.
    pub fn end_direct(&self, unwritten: &[u8]) {
        let mut st = self.shared.state.lock();
        debug_assert_eq!(st.token, Token::Direct, "end_direct without a granted try_direct");
        st.token = Token::Idle;
        if st.down {
            st.dropped_bytes += unwritten.len() as u64;
        } else {
            // Model-checker fault injection: queue the tail behind the
            // frames pushed during the write, tearing the granted frame.
            // `crates/verify/tests/send_buffer.rs` proves the checker
            // sees the torn frame.
            #[cfg(rebeca_verify)]
            let tail_first = !rebeca_verify::inject::enabled("tail_behind_queue");
            #[cfg(not(rebeca_verify))]
            let tail_first = true;
            if tail_first {
                st.queue.splice(..0, unwritten.iter().copied());
            } else {
                st.queue.extend_from_slice(unwritten);
            }
        }
        let wake = !st.queue.is_empty();
        drop(st);
        if wake {
            self.shared.ready.notify_one();
        }
    }

    /// Closes the buffer: pending bytes stay drainable, further pushes
    /// fail, blocked producers and the drainer wake immediately.
    pub fn close(&self) {
        let mut st = self.shared.state.lock();
        st.closed = true;
        drop(st);
        self.shared.space.notify_all();
        self.shared.ready.notify_all();
    }

    /// Link supervision, step "drain": the peer died, so everything
    /// queued is discarded (counted into
    /// [`dropped_bytes`](SendBuffer::dropped_bytes)), blocked producers
    /// are released (their frames become counted drops), further pushes
    /// are counted drops, and the writer thread's `drain_into` returns
    /// `false` so it exits. The buffer is re-armed by
    /// [`mark_up`](SendBuffer::mark_up) once the link is re-established.
    pub fn mark_down(&self) {
        let mut st = self.shared.state.lock();
        st.down = true;
        // Model-checker fault injection: skip the drain, leaving the dead
        // epoch's bytes queued — after `mark_up` the new writer would ship
        // stale frames onto the fresh connection.
        // `crates/verify/tests/supervisor.rs` proves the checker sees the
        // stale bytes survive.
        #[cfg(rebeca_verify)]
        if rebeca_verify::inject::enabled("linkdown_skip_drain") {
            drop(st);
            self.shared.space.notify_all();
            self.shared.ready.notify_all();
            return;
        }
        st.dropped_bytes += st.queue.len() as u64;
        st.queue.clear();
        drop(st);
        self.shared.space.notify_all();
        self.shared.ready.notify_all();
    }

    /// Link supervision, re-arm: the link was re-established; pushes
    /// queue (and block on capacity) again. The caller spawns a fresh
    /// writer thread to drain.
    pub fn mark_up(&self) {
        let mut st = self.shared.state.lock();
        st.down = false;
    }

    /// [`mark_up`](SendBuffer::mark_up) plus queueing `first` in the same
    /// critical section, so no concurrent producer can slip a frame in
    /// ahead of it — the supervisor uses this to guarantee the replayed
    /// `Hello` is the first frame of a re-established connection.
    pub fn mark_up_with(&self, first: &[u8]) {
        let mut st = self.shared.state.lock();
        st.down = false;
        st.queue.extend_from_slice(first);
        drop(st);
        self.shared.ready.notify_one();
    }

    /// True while [`mark_down`](SendBuffer::mark_down) is in effect.
    pub fn is_down(&self) -> bool {
        self.shared.state.lock().down
    }

    /// Whole frames dropped by pushes that found the link down.
    pub fn dropped_frames(&self) -> u64 {
        self.shared.state.lock().dropped_frames
    }

    /// Bytes discarded by link death: the queue cleared at
    /// [`mark_down`](SendBuffer::mark_down) plus every dropped frame's
    /// bytes.
    pub fn dropped_bytes(&self) -> u64 {
        self.shared.state.lock().dropped_bytes
    }
}

#[cfg(all(test, not(rebeca_verify)))]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn pushes_then_drains_coalesced() {
        let sb = SendBuffer::new(64);
        sb.push(&[1, 2, 3]).unwrap();
        sb.push(&[4, 5]).unwrap();
        let mut out = Vec::new();
        assert!(sb.drain_into(&mut out));
        assert_eq!(out, vec![1, 2, 3, 4, 5], "one drain returns all queued frames");
        assert_eq!(sb.occupancy(), 0);
    }

    #[test]
    fn full_buffer_blocks_until_drained() {
        let sb = SendBuffer::new(8);
        sb.push(&[0u8; 8]).unwrap();
        let sb2 = sb.clone();
        let t = thread::spawn(move || {
            sb2.push(&[1u8; 4]).unwrap(); // must block until the drain below
            sb2.occupancy()
        });
        thread::sleep(Duration::from_millis(50));
        let mut out = Vec::new();
        assert!(sb.drain_into(&mut out));
        assert_eq!(out.len(), 8);
        let occupancy_after_push = t.join().unwrap();
        assert_eq!(occupancy_after_push, 4, "blocked push completed after drain");
    }

    #[test]
    fn oversized_frame_is_admitted_alone() {
        let sb = SendBuffer::new(4);
        sb.push(&[7u8; 10]).unwrap(); // larger than capacity, buffer empty
        let mut out = Vec::new();
        assert!(sb.drain_into(&mut out));
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn mark_down_drains_drops_and_releases_producers() {
        let sb = SendBuffer::new(4);
        sb.push(&[1u8; 4]).unwrap();
        let sb2 = sb.clone();
        let blocked = thread::spawn(move || sb2.push(&[2u8; 3]));
        thread::sleep(Duration::from_millis(30));
        sb.mark_down();
        // The blocked producer is released with its frame dropped, not an
        // error — the link is down, not torn down.
        assert_eq!(blocked.join().unwrap(), Ok(()));
        assert!(sb.is_down());
        // Queued bytes were discarded, further pushes are counted drops.
        sb.push(&[3u8; 2]).unwrap();
        assert_eq!(sb.occupancy(), 0);
        assert_eq!(sb.dropped_frames(), 2, "the blocked push and the down push");
        assert_eq!(sb.dropped_bytes(), 4 + 3 + 2);
        // The writer loop is told to exit.
        let mut out = Vec::new();
        assert!(!sb.drain_into(&mut out), "down and empty ends the writer loop");
        // mark_up re-arms the buffer for the fresh connection.
        sb.mark_up();
        sb.push(&[9u8; 2]).unwrap();
        assert!(sb.drain_into(&mut out));
        assert_eq!(out, vec![9u8; 2], "nothing from the dead epoch survives");
    }

    #[test]
    fn mark_down_wakes_a_blocked_drainer() {
        let sb = SendBuffer::new(8);
        let sb2 = sb.clone();
        let writer = thread::spawn(move || {
            let mut out = Vec::new();
            sb2.drain_into(&mut out) // blocks: nothing queued
        });
        thread::sleep(Duration::from_millis(30));
        sb.mark_down();
        assert!(!writer.join().unwrap(), "down wakes the drainer and tells it to exit");
    }

    #[test]
    fn direct_is_granted_only_to_an_idle_empty_live_link() {
        let sb = SendBuffer::new(8);
        assert!(sb.try_direct(), "idle, empty and up");
        assert!(!sb.try_direct(), "one direct writer at a time");
        sb.end_direct(&[]);
        sb.push(&[1]).unwrap();
        assert!(!sb.try_direct(), "queued bytes go first");
        let mut out = Vec::new();
        assert!(sb.drain_into(&mut out));
        assert!(!sb.try_direct(), "the drained batch is not on the wire yet");
        sb.push(&[2]).unwrap();
        assert!(sb.drain_into(&mut out), "the next drain releases the last batch's token");
        assert_eq!(out, vec![2]);
        sb.mark_down();
        assert!(!sb.try_direct(), "never onto a down link");
        assert!(!sb.drain_into(&mut out), "down ends the writer loop");
        sb.mark_up();
        assert!(sb.try_direct(), "a drain that exits releases its token");
        sb.end_direct(&[]);
        sb.close();
        assert!(!sb.try_direct(), "never onto a closed link");
    }

    #[test]
    fn drainer_waits_out_a_direct_write() {
        let sb = SendBuffer::new(8);
        assert!(sb.try_direct());
        sb.push(&[5, 6]).unwrap();
        let sb2 = sb.clone();
        let writer = thread::spawn(move || {
            let mut out = Vec::new();
            let more = sb2.drain_into(&mut out);
            (more, out)
        });
        thread::sleep(Duration::from_millis(30));
        assert!(!writer.is_finished(), "the drainer must not write beside a direct write");
        sb.end_direct(&[]);
        assert_eq!(writer.join().unwrap(), (true, vec![5, 6]));
    }

    #[test]
    fn mark_down_ends_a_drainer_waiting_on_a_direct_write() {
        let sb = SendBuffer::new(8);
        assert!(sb.try_direct());
        sb.push(&[7]).unwrap();
        let sb2 = sb.clone();
        let writer = thread::spawn(move || sb2.drain_into(&mut Vec::new()));
        thread::sleep(Duration::from_millis(30));
        sb.mark_down();
        assert!(!writer.join().unwrap(), "down ends the writer loop mid-direct-write");
        sb.end_direct(&[]);
        sb.mark_up();
        assert!(sb.try_direct(), "the token came back");
    }

    #[test]
    fn try_push_refuses_where_push_would_wait() {
        let sb = SendBuffer::new(4);
        assert_eq!(sb.try_push(&[1u8; 3]), Ok(true));
        assert_eq!(sb.try_push(&[2u8; 2]), Ok(false), "the buffer is full");
        assert_eq!(sb.occupancy(), 3, "a refused frame is not queued");
        sb.mark_down();
        assert_eq!(sb.try_push(&[3u8; 9]), Ok(true), "a down link drops, never refuses");
        assert_eq!(sb.dropped_frames(), 1);
        sb.close();
        assert_eq!(sb.try_push(&[4]), Err(LinkClosed));
    }

    #[test]
    fn a_torn_direct_writes_tail_goes_ahead_of_later_pushes() {
        let sb = SendBuffer::new(4);
        assert!(sb.try_direct());
        sb.push(&[7, 8, 9, 10]).unwrap();
        sb.end_direct(&[5, 6]);
        let mut out = Vec::new();
        assert!(sb.drain_into(&mut out));
        assert_eq!(out, vec![5, 6, 7, 8, 9, 10], "the tail first, then the push");
    }

    #[test]
    fn a_torn_tail_into_a_down_link_is_dropped_bytes() {
        let sb = SendBuffer::new(4);
        assert!(sb.try_direct());
        sb.mark_down();
        sb.end_direct(&[1, 2, 3]);
        assert_eq!(sb.occupancy(), 0);
        assert_eq!(sb.dropped_bytes(), 3);
    }

    #[test]
    fn close_wakes_everyone() {
        let sb = SendBuffer::new(4);
        sb.push(&[0u8; 4]).unwrap();
        let sb2 = sb.clone();
        let blocked_push = thread::spawn(move || sb2.push(&[1u8; 2]));
        let sb3 = sb.clone();
        thread::sleep(Duration::from_millis(20));
        sb3.close();
        assert_eq!(blocked_push.join().unwrap(), Err(LinkClosed));
        // Pending bytes still drain, then the writer is told to exit.
        let mut out = Vec::new();
        assert!(sb.drain_into(&mut out));
        assert_eq!(out.len(), 4);
        assert!(!sb.drain_into(&mut out), "closed and empty ends the writer loop");
        assert!(sb.push(&[9]).is_err());
    }
}
