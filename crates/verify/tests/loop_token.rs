//! Model-checks the loop token from `rebeca-net` — the real production
//! code, compiled against the shims through the `rebeca_net::sync` facade.
//!
//! Run with: `RUSTFLAGS="--cfg rebeca_verify" cargo test -p rebeca-verify --release`
//!
//! An event loop's thread holds its token except while it waits on its
//! inbox; a peer link's reader may borrow the token and put a delivery on
//! the loop's lane itself instead of posting it. Two properties are
//! interleaved exhaustively, each against a model loop thread that takes
//! envelopes the way the live one does (count down under the token, then
//! onto the lane):
//!
//! * **FIFO per sender.** A reader whose frames are borrowed or posted,
//!   whichever the token allows, and another loop posting beside it: each
//!   sender's messages reach the lane in the order sent. The
//!   `borrow_ignores_pending` injection borrows past a posted envelope,
//!   and the checker catches the overtaking.
//! * **No lost wake-up.** A borrower that sets a deadline earlier than the
//!   one the loop thread sleeps until wakes it. The `borrow_skips_wake`
//!   injection never wakes it, and the checker finds the loop asleep with
//!   nobody left to wake it.
#![cfg(rebeca_verify)]

use rebeca_net::{LoopToken, Pending};
use rebeca_verify::shim::channel::{unbounded, Sender};
use rebeca_verify::shim::thread;
use rebeca_verify::Checker;
use std::sync::Arc;

/// What a model inbox carries.
enum Env {
    /// A delivery: sender and sequence number.
    Msg(u8, u8),
    /// A delivery whose handler sets a timer due at the given deadline.
    SetTimer(u64),
    Wake,
    Stop,
}

const READER: u8 = 1;
const OTHER: u8 = 2;

fn post(pending: &Pending, tx: &Sender<Env>, env: Env) {
    pending.post(|| tx.send(env)).unwrap_or_else(|_| panic!("the loop outlives its senders"));
}

/// A reader delivers three frames — borrowed when the token allows,
/// posted otherwise — while another loop posts one message; then the loop
/// is stopped. The lane must hold each sender's messages in order.
fn fifo_body() {
    let pending = Arc::new(Pending::default());
    let token = Arc::new(LoopToken::new(Vec::<(u8, u8)>::new(), Arc::clone(&pending)));
    let (tx, rx) = unbounded::<Env>();
    let lp = {
        let (token, pending) = (Arc::clone(&token), Arc::clone(&pending));
        thread::spawn(move || {
            let mut held = token.hold();
            loop {
                held.park(u64::MAX);
                let env = rx.recv().expect("senders outlive the loop");
                held = token.hold();
                pending.taken();
                match env {
                    Env::Msg(from, seq) => held.push((from, seq)),
                    Env::Stop => return held.clone(),
                    Env::SetTimer(_) | Env::Wake => {}
                }
            }
        })
    };
    let reader = {
        let (token, pending, tx) = (Arc::clone(&token), Arc::clone(&pending), tx.clone());
        thread::spawn(move || {
            for seq in 0..3 {
                match token.try_borrow() {
                    Ok(mut held) => {
                        held.push((READER, seq));
                        if held.release(u64::MAX, false) {
                            post(&pending, &tx, Env::Wake);
                        }
                    }
                    Err(_) => post(&pending, &tx, Env::Msg(READER, seq)),
                }
            }
        })
    };
    let other = {
        let (pending, tx) = (Arc::clone(&pending), tx.clone());
        thread::spawn(move || post(&pending, &tx, Env::Msg(OTHER, 0)))
    };
    reader.join().expect("reader");
    other.join().expect("other loop");
    post(&pending, &tx, Env::Stop);
    let lane = lp.join().expect("loop thread");
    let from = |who: u8| -> Vec<u8> {
        lane.iter().filter(|(f, _)| *f == who).map(|&(_, seq)| seq).collect()
    };
    assert_eq!(from(READER), [0, 1, 2], "the reader's frames out of order on the lane: {lane:?}");
    assert_eq!(from(OTHER), [0], "the other loop's message, once: {lane:?}");
}

#[test]
fn fifo_holds_across_borrowed_and_posted_deliveries() {
    Checker::new("fifo_holds_across_borrowed_and_posted_deliveries").check(fifo_body).assert_ok();
}

/// Injected bug: a borrow ignores envelopes posted and not yet taken, so
/// a borrowed frame can overtake an earlier frame of the same reader that
/// was posted. The checker must find that interleaving and replay it.
#[test]
fn injected_borrow_ignores_pending_is_caught_and_replays() {
    let name = "injected_borrow_ignores_pending_is_caught_and_replays";
    let report = Checker::new(name).inject("borrow_ignores_pending").check(fifo_body);
    let failure = report.assert_fails();
    assert!(failure.message.contains("out of order"), "unexpected failure: {}", failure.message);
    let replay = Checker::new(name)
        .inject("borrow_ignores_pending")
        .schedule(&failure.schedule)
        .check(fifo_body);
    assert_eq!(replay.explored, 1, "a replay explores exactly one schedule");
    assert_eq!(replay.assert_fails().message, failure.message);
}

/// The deadline the model loop starts with, and the earlier one a
/// delivery sets.
const LATE: u64 = 10;
const EARLY: u64 = 5;

/// The loop thread sleeps until its timer at `LATE`; a reader's delivery
/// sets one at `EARLY`, borrowed or posted. A model inbox has no timeout,
/// so the loop thread must be woken to see the earlier deadline: once
/// awake with `EARLY` queued it would sleep until `EARLY` and fire it on
/// time, and the model ends there.
fn wake_body() {
    let pending = Arc::new(Pending::default());
    let token = Arc::new(LoopToken::new(vec![LATE], Arc::clone(&pending)));
    let (tx, rx) = unbounded::<Env>();
    let lp = {
        let (token, pending) = (Arc::clone(&token), Arc::clone(&pending));
        thread::spawn(move || {
            let mut held = token.hold();
            loop {
                let next = held.iter().copied().min().unwrap_or(u64::MAX);
                if next == EARLY {
                    return;
                }
                held.park(next);
                let env = rx.recv().expect("senders outlive the loop");
                held = token.hold();
                pending.taken();
                match env {
                    Env::SetTimer(at) => held.push(at),
                    Env::Msg(..) | Env::Wake | Env::Stop => {}
                }
            }
        })
    };
    let reader = {
        let (token, pending, tx) = (Arc::clone(&token), Arc::clone(&pending), tx.clone());
        thread::spawn(move || match token.try_borrow() {
            Ok(mut held) => {
                held.push(EARLY);
                let next = held.iter().copied().min().unwrap_or(u64::MAX);
                if held.release(next, false) {
                    post(&pending, &tx, Env::Wake);
                }
            }
            Err(_) => post(&pending, &tx, Env::SetTimer(EARLY)),
        })
    };
    reader.join().expect("reader");
    lp.join().expect("the loop thread saw the early deadline");
    drop(tx);
}

#[test]
fn an_earlier_deadline_set_by_a_borrower_wakes_the_loop() {
    Checker::new("an_earlier_deadline_set_by_a_borrower_wakes_the_loop")
        .check(wake_body)
        .assert_ok();
}

/// Injected bug: a borrower never wakes the parked loop thread, which
/// sleeps on towards its old deadline. The checker finds the loop blocked
/// with nobody left to wake it, and replays the schedule.
#[test]
fn injected_borrow_skips_wake_is_caught_and_replays() {
    let name = "injected_borrow_skips_wake_is_caught_and_replays";
    let report = Checker::new(name).inject("borrow_skips_wake").check(wake_body);
    let failure = report.assert_fails();
    assert!(failure.message.contains("deadlock"), "unexpected failure: {}", failure.message);
    let replay =
        Checker::new(name).inject("borrow_skips_wake").schedule(&failure.schedule).check(wake_body);
    assert_eq!(replay.explored, 1, "a replay explores exactly one schedule");
    assert_eq!(replay.assert_fails().message, failure.message);
}
