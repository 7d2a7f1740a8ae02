//! Self-tests for the model checker: classic litmus shapes that prove the
//! scheduler explores real interleavings, the weak-memory model
//! distinguishes `Relaxed` from `Release`/`Acquire`, deadlocks and lost
//! wakeups are detected, and a printed schedule replays deterministically.
//!
//! These run in the ordinary test pass (no `--cfg rebeca_verify` needed):
//! they exercise the shims directly rather than through the production
//! facades.

use rebeca_verify::shim::channel::unbounded;
use rebeca_verify::shim::{thread, Arc, AtomicBool, AtomicU64, Condvar, Mutex, Ordering};
use rebeca_verify::Checker;

#[test]
fn atomic_rmw_increments_never_lose_updates() {
    let report = Checker::new("litmus_rmw").check(|| {
        let n = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                thread::spawn(move || {
                    n.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::Relaxed), 2, "fetch_add lost an update");
    });
    report.assert_ok();
    assert!(report.complete, "small space must be fully explored");
    assert!(report.explored > 1, "must explore more than one interleaving");
}

#[test]
fn load_store_increment_race_is_found() {
    // The classic lost update: non-atomic read-modify-write sequences.
    let report = Checker::new("litmus_lost_update").check(|| {
        let n = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                thread::spawn(move || {
                    let v = n.load(Ordering::SeqCst);
                    n.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::SeqCst), 2, "increment raced");
    });
    let failure = report.assert_fails();
    assert!(failure.message.contains("increment raced"), "failure: {}", failure.message);
}

#[test]
fn race_needing_a_preemption_is_invisible_at_bound_zero() {
    // The same lost-update race as above needs one preemption (switching
    // away from a runnable thread mid-increment); with the bound at zero
    // the checker must complete without finding it — evidence the bound
    // actually prunes.
    let report = Checker::new("litmus_bound_zero").preemption_bound(0).check(|| {
        let n = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                thread::spawn(move || {
                    let v = n.load(Ordering::SeqCst);
                    n.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::SeqCst), 2);
    });
    report.assert_ok();
    assert!(report.complete);
}

#[test]
fn release_acquire_message_passing_holds() {
    // mp litmus: data published with Release must be visible to an
    // Acquire observer of the flag.
    let report = Checker::new("litmus_mp_rel_acq").check(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let writer = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(
                data.load(Ordering::Relaxed),
                42,
                "acquire observer saw the flag but stale data"
            );
        }
        writer.join().unwrap();
    });
    report.assert_ok();
    assert!(report.complete);
}

#[test]
fn relaxed_flag_store_is_caught_as_stale_read() {
    // Weakening the flag publish to Relaxed drops the synchronizing edge:
    // the observer may read the flag as 1 yet still read stale data. This
    // is the checker's teeth for "audit every Ordering choice".
    let report = Checker::new("litmus_mp_relaxed").check(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let writer = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Relaxed); // BUG: needs Release
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(
                data.load(Ordering::Relaxed),
                42,
                "acquire observer saw the flag but stale data"
            );
        }
        writer.join().unwrap();
    });
    let failure = report.assert_fails();
    assert!(failure.message.contains("stale data"), "failure: {}", failure.message);
}

#[test]
fn failing_schedule_replays_deterministically() {
    let body = || {
        let n = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                thread::spawn(move || {
                    let v = n.load(Ordering::SeqCst);
                    n.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::SeqCst), 2, "increment raced");
    };
    let first = Checker::new("litmus_replay").check(body);
    let failure = first.assert_fails().clone();

    // Replaying the printed schedule must hit the same violation in
    // exactly one execution, and do so repeatedly.
    for _ in 0..3 {
        let replay = Checker::new("litmus_replay").schedule(&failure.schedule).check(body);
        assert_eq!(replay.explored, 1, "replay must run exactly one schedule");
        let again = replay.assert_fails();
        assert!(
            again.message.contains("increment raced"),
            "replayed schedule hit a different failure: {}",
            again.message
        );
        assert_eq!(again.schedule, failure.schedule, "replay must retrace the same trail");
    }

    // A schedule for a *different* checker name must be ignored (the env
    // var carries a name prefix so one variable targets one property).
    let other = Checker::new("litmus_replay_other").schedule(&failure.schedule).check(|| {
        let n = AtomicU64::new(1);
        assert_eq!(n.load(Ordering::SeqCst), 1);
    });
    other.assert_ok();
}

#[test]
fn env_var_replay_path_works() {
    // The end-to-end route: REBECA_VERIFY_SCHEDULE in the environment.
    // Env mutation is process-global, so keep this the only test touching
    // it and restore afterwards.
    let body = || {
        let n = Arc::new(AtomicU64::new(0));
        let h = {
            let n = Arc::clone(&n);
            thread::spawn(move || {
                let v = n.load(Ordering::SeqCst);
                n.store(v + 1, Ordering::SeqCst);
            })
        };
        let v = n.load(Ordering::SeqCst);
        n.store(v + 1, Ordering::SeqCst);
        h.join().unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 2, "increment raced");
    };
    let first = Checker::new("litmus_env_replay").check(body);
    let failure = first.assert_fails().clone();
    std::env::set_var("REBECA_VERIFY_SCHEDULE", &failure.schedule);
    let replay = Checker::new("litmus_env_replay").check(body);
    std::env::remove_var("REBECA_VERIFY_SCHEDULE");
    assert_eq!(replay.explored, 1);
    replay.assert_fails();
}

#[test]
fn mutex_serializes_critical_sections() {
    let report = Checker::new("litmus_mutex").check(|| {
        let n = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                thread::spawn(move || {
                    let mut g = n.lock();
                    *g += 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*n.lock(), 2);
    });
    report.assert_ok();
    assert!(report.complete);
}

#[test]
fn lock_order_inversion_deadlocks_are_detected() {
    let report = Checker::new("litmus_deadlock").check(|| {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = thread::spawn(move || {
            let _ga = a2.lock();
            let _gb = b2.lock();
        });
        let _gb = b.lock();
        let _ga = a.lock();
        drop((_ga, _gb));
        t.join().unwrap();
    });
    let failure = report.assert_fails();
    assert!(failure.message.contains("deadlock"), "failure: {}", failure.message);
}

#[test]
fn unguarded_flag_check_loses_the_wakeup() {
    // The classic lost-wakeup: the waiter tests an atomic flag outside the
    // mutex/condvar protocol. If the signaler fires notify before the
    // waiter parks, the notification is lost and the waiter sleeps
    // forever — surfacing as a deadlock in the model.
    let report = Checker::new("litmus_lost_wakeup").check(|| {
        let flag = Arc::new(AtomicBool::new(false));
        let mutex = Arc::new(Mutex::new(()));
        let cv = Arc::new(Condvar::new());
        let (f2, _m2, c2) = (Arc::clone(&flag), Arc::clone(&mutex), Arc::clone(&cv));
        let signaler = thread::spawn(move || {
            f2.store(true, Ordering::SeqCst);
            c2.notify_one();
        });
        if !flag.load(Ordering::SeqCst) {
            let mut g = mutex.lock();
            // BUG: flag may flip between the check and the park; the
            // correct protocol re-checks under the mutex in a loop.
            cv.wait(&mut g);
        }
        signaler.join().unwrap();
    });
    let failure = report.assert_fails();
    assert!(failure.message.contains("deadlock"), "failure: {}", failure.message);
}

#[test]
fn condvar_protocol_with_mutex_guarded_state_is_clean() {
    let report = Checker::new("litmus_condvar_ok").check(|| {
        let state = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let (s2, c2) = (Arc::clone(&state), Arc::clone(&cv));
        let signaler = thread::spawn(move || {
            let mut g = s2.lock();
            *g = true;
            c2.notify_one();
        });
        {
            let mut g = state.lock();
            while !*g {
                cv.wait(&mut g);
            }
        }
        signaler.join().unwrap();
    });
    report.assert_ok();
    assert!(report.complete);
}

#[test]
fn channels_deliver_in_order_and_disconnect() {
    let report = Checker::new("litmus_channel").check(|| {
        let (tx, rx) = unbounded();
        let t = thread::spawn(move || {
            tx.send(1u32).unwrap();
            tx.send(2u32).unwrap();
            // tx drops here: receiver observes disconnect after draining.
        });
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert!(rx.recv().is_err(), "disconnected empty channel must error");
        t.join().unwrap();
    });
    report.assert_ok();
    assert!(report.complete);
}

#[test]
fn channel_send_synchronizes_with_recv() {
    // Sending is a release edge, receiving an acquire edge: data written
    // before a send (even Relaxed) is visible after the recv.
    let report = Checker::new("litmus_channel_sync").check(|| {
        let data = Arc::new(AtomicU64::new(0));
        let (tx, rx) = unbounded();
        let d2 = Arc::clone(&data);
        let t = thread::spawn(move || {
            d2.store(7, Ordering::Relaxed);
            tx.send(()).unwrap();
        });
        rx.recv().unwrap();
        assert_eq!(data.load(Ordering::Relaxed), 7, "channel recv must acquire");
        t.join().unwrap();
    });
    report.assert_ok();
    assert!(report.complete);
}

#[test]
fn step_budget_flags_livelocks() {
    let report = Checker::new("litmus_livelock").max_steps(200).check(|| {
        let flag = AtomicBool::new(false);
        // Nobody ever sets the flag: spins until the step budget trips.
        while !flag.load(Ordering::SeqCst) {}
    });
    let failure = report.assert_fails();
    assert!(failure.message.contains("step budget"), "failure: {}", failure.message);
}
