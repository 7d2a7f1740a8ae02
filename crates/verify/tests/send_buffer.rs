//! Model-checks the bounded [`SendBuffer`] backpressure protocol from
//! `rebeca-net` — the real production code, compiled against the shims
//! through the `rebeca_net::sync` facade.
//!
//! Run with: `RUSTFLAGS="--cfg rebeca_verify" cargo test -p rebeca-verify --release`
//!
//! The properties checked are the ones the process runtime's writer
//! threads stake their memory bound on: no interleaving of producers and
//! the drainer ever lets the queue exceed its byte capacity, every pushed
//! byte is drained exactly once, and `close` wakes a blocked producer
//! instead of stranding it. The `sendbuf_skip_recheck` injection
//! re-introduces the classic condvar bug (treating a wakeup as a space
//! grant without re-checking occupancy) and proves the checker catches it
//! with a deterministically replayable schedule.
//!
//! The write token is checked against a shim "socket" (a byte log plus a
//! count of writes in flight): a producer that writes its own frames when
//! `try_direct` grants, a producer that only pushes and the drainer never
//! write at once, each producer's frames reach the socket in push order,
//! every byte arrives exactly once and the byte bound holds. `mark_down`
//! during a direct write ends the drainer and the token comes back. The
//! `sendbuf_direct_ignores_queue` injection grants `Direct` past queued
//! bytes, and the checker catches the reordered frames.
#![cfg(rebeca_verify)]

use rebeca_net::{LinkClosed, SendBuffer};
use rebeca_verify::shim::{thread, AtomicUsize, Mutex, Ordering};
use rebeca_verify::Checker;
use std::sync::Arc;

/// Two producers racing a drainer: the byte bound holds under every
/// interleaving, and all pushed bytes come out.
///
/// The shape is chosen to tempt the condvar bug: the buffer starts full,
/// both producers block on space, and one drain wakes them both — only the
/// under-lock re-check keeps the second one from overshooting.
fn contended_body() {
    let sb = SendBuffer::new(4);
    sb.push(&[0u8; 4]).expect("fits an empty buffer exactly");
    let p1 = {
        let sb = sb.clone();
        thread::spawn(move || sb.push(&[1u8; 3]).expect("drains make room"))
    };
    let p2 = {
        let sb = sb.clone();
        thread::spawn(move || sb.push(&[2u8; 3]).expect("drains make room"))
    };
    let mut total = 0;
    let mut out = Vec::new();
    while total < 10 {
        assert!(sb.drain_into(&mut out), "buffer was not closed");
        assert!(
            out.len() <= sb.capacity(),
            "drained {} bytes at once: the {}-byte bound was overshot",
            out.len(),
            sb.capacity()
        );
        total += out.len();
    }
    assert_eq!(total, 10, "every pushed byte drains exactly once");
    p1.join().expect("producer 1");
    p2.join().expect("producer 2");
}

#[test]
fn byte_bound_holds_under_contention() {
    Checker::new("byte_bound_holds_under_contention").check(contended_body).assert_ok();
}

/// `close` reaches a producer blocked on space: it returns [`LinkClosed`]
/// instead of waiting forever, and the bytes already queued stay drainable
/// for the writer's final flush.
#[test]
fn close_unblocks_a_full_buffer_producer() {
    Checker::new("close_unblocks_a_full_buffer_producer")
        .check(|| {
            let sb = SendBuffer::new(2);
            sb.push(&[9u8; 2]).expect("fits an empty buffer exactly");
            let blocked = {
                let sb = sb.clone();
                thread::spawn(move || sb.push(&[8u8; 2]))
            };
            sb.close();
            assert_eq!(blocked.join().expect("producer"), Err(LinkClosed));
            let mut out = Vec::new();
            assert!(sb.drain_into(&mut out), "pending bytes survive close");
            assert_eq!(out, vec![9u8; 2]);
            assert!(!sb.drain_into(&mut out), "closed and empty ends the writer loop");
        })
        .assert_ok();
}

/// Injected bug: a producer woken from the space wait appends without
/// re-checking occupancy, so two producers woken by one drain both append
/// and overshoot the byte bound. The checker must find that interleaving —
/// and the printed schedule must replay it deterministically.
#[test]
fn injected_skip_recheck_is_caught_and_replays() {
    let report = Checker::new("injected_skip_recheck_is_caught_and_replays")
        .inject("sendbuf_skip_recheck")
        .check(contended_body);
    let failure = report.assert_fails();
    assert!(
        failure.message.contains("bound was overshot"),
        "unexpected failure: {}",
        failure.message
    );
    let replay = Checker::new("injected_skip_recheck_is_caught_and_replays")
        .inject("sendbuf_skip_recheck")
        .schedule(&failure.schedule)
        .check(contended_body);
    assert_eq!(replay.explored, 1, "a replay explores exactly one schedule");
    assert_eq!(replay.assert_fails().message, failure.message);
}

/// A link's socket: the bytes written to it, and how many writes are in
/// flight. Each byte is its own step, so an overlapping write shows.
#[derive(Default)]
struct Socket {
    log: Mutex<Vec<u8>>,
    writers: AtomicUsize,
}

impl Socket {
    fn write(&self, bytes: &[u8]) {
        assert!(
            self.writers.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst).is_ok(),
            "two writers on the socket at once"
        );
        for &b in bytes {
            self.log.lock().push(b);
        }
        self.writers.store(0, Ordering::SeqCst);
    }

    fn bytes(&self) -> Vec<u8> {
        self.log.lock().clone()
    }
}

/// A node thread's send step: the frame goes to the socket from this
/// thread when the buffer grants the token, into the queue otherwise.
fn send(sb: &SendBuffer, socket: &Socket, frame: &[u8]) {
    if sb.try_direct() {
        socket.write(frame);
        sb.end_direct();
    } else {
        sb.push(frame).expect("the link is open");
    }
}

/// The link's writer thread.
fn drain_to(sb: &SendBuffer, socket: &Socket) {
    let mut out = Vec::new();
    while sb.drain_into(&mut out) {
        assert!(
            out.len() <= sb.capacity(),
            "drained {} bytes at once: the {}-byte bound was overshot",
            out.len(),
            sb.capacity()
        );
        socket.write(&out);
    }
}

fn position(log: &[u8], byte: u8) -> usize {
    log.iter().position(|&b| b == byte).expect("every byte was written")
}

/// Producer A switches paths as a node thread does: a frame through the
/// direct-or-queued step, a pushed one (a send made with messages waiting
/// in its inbox), another through the step. Producer B pushes two, the
/// drainer drains. The two-byte capacity makes pushes wait for the
/// drainer, too.
fn direct_body() {
    let sb = SendBuffer::new(2);
    let socket = Arc::new(Socket::default());
    let drainer = {
        let (sb, socket) = (sb.clone(), Arc::clone(&socket));
        thread::spawn(move || drain_to(&sb, &socket))
    };
    let a = {
        let (sb, socket) = (sb.clone(), Arc::clone(&socket));
        thread::spawn(move || {
            send(&sb, &socket, &[0xA1]);
            sb.push(&[0xA2]).expect("the link is open");
            send(&sb, &socket, &[0xA3]);
        })
    };
    let b = {
        let sb = sb.clone();
        thread::spawn(move || {
            sb.push(&[0xB1]).expect("the link is open");
            sb.push(&[0xB2]).expect("the link is open");
        })
    };
    a.join().expect("producer A");
    b.join().expect("producer B");
    sb.close();
    drainer.join().expect("drainer");
    let log = socket.bytes();
    let mut sorted = log.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0xA1, 0xA2, 0xA3, 0xB1, 0xB2], "every byte exactly once: {log:x?}");
    let a = [0xA1, 0xA2, 0xA3].map(|b| position(&log, b));
    assert!(a[0] < a[1] && a[1] < a[2], "A's frames out of push order: {log:x?}");
    assert!(position(&log, 0xB1) < position(&log, 0xB2), "B's frames out of push order: {log:x?}");
}

#[test]
fn direct_writes_keep_one_writer_and_fifo() {
    Checker::new("direct_writes_keep_one_writer_and_fifo").check(direct_body).assert_ok();
}

/// The supervisor marks the link down while a direct write is in flight
/// and a pushed frame waits behind it: the drainer exits, the pushed frame
/// is written after the direct one or counted as dropped, and the token
/// comes back once the direct writer ends.
#[test]
fn mark_down_during_a_direct_write_returns_the_token() {
    Checker::new("mark_down_during_a_direct_write_returns_the_token")
        .check(|| {
            let sb = SendBuffer::new(8);
            let socket = Arc::new(Socket::default());
            assert!(sb.try_direct(), "an idle, empty link grants");
            let direct = {
                let (sb, socket) = (sb.clone(), Arc::clone(&socket));
                thread::spawn(move || {
                    socket.write(&[0xD1]);
                    sb.end_direct();
                })
            };
            let drainer = {
                let (sb, socket) = (sb.clone(), Arc::clone(&socket));
                thread::spawn(move || drain_to(&sb, &socket))
            };
            let producer = {
                let sb = sb.clone();
                thread::spawn(move || sb.push(&[0xB1]).expect("a down link drops, never errors"))
            };
            sb.mark_down();
            drainer.join().expect("the drainer exits");
            producer.join().expect("producer");
            direct.join().expect("direct writer");
            let log = socket.bytes();
            let written = log.contains(&0xB1);
            assert_eq!(
                u64::from(written) + sb.dropped_bytes(),
                1,
                "the pushed byte is written or dropped, once: {log:x?}"
            );
            if written {
                assert!(position(&log, 0xD1) < position(&log, 0xB1), "overtook: {log:x?}");
            }
            sb.mark_up();
            assert!(sb.try_direct(), "the token came back");
            sb.end_direct();
        })
        .assert_ok();
}

/// Injected bug: `try_direct` grants while bytes are queued, so A's third
/// frame can be written before its second, which still waits in the queue.
/// The checker must find that interleaving and replay it from the printed
/// schedule.
#[test]
fn injected_direct_ignores_queue_is_caught_and_replays() {
    let report = Checker::new("injected_direct_ignores_queue_is_caught_and_replays")
        .inject("sendbuf_direct_ignores_queue")
        .check(direct_body);
    let failure = report.assert_fails();
    assert!(
        failure.message.contains("A's frames out of push order"),
        "unexpected failure: {}",
        failure.message
    );
    let replay = Checker::new("injected_direct_ignores_queue_is_caught_and_replays")
        .inject("sendbuf_direct_ignores_queue")
        .schedule(&failure.schedule)
        .check(direct_body);
    assert_eq!(replay.explored, 1, "a replay explores exactly one schedule");
    assert_eq!(replay.assert_fails().message, failure.message);
}
