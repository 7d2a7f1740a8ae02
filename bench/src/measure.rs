//! The load generators of the process-tier workloads and the phases one
//! run is made of: warm-up, saturation (closed loop, large window), drain,
//! unloaded (one op at a time), drain.
//!
//! There is exactly one generator thread — the thread that owns the
//! runtime handle — and it never spins: with its window full it parks and
//! the probe unparks it.

use crate::gen::{self, ChurnInputs, PublishInputs};
use crate::nodes::{Shared, RECORD_LOADED, RECORD_NONE, RECORD_UNLOADED};
use crate::procfs;
use crate::tier::Tier;
use crate::trace::{PHASE_OTHER, PHASE_SATURATION, PHASE_UNLOADED};
use rebeca_core::SubscriptionId;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Re-subscription cycles per fence, and fences in flight, when churn
/// saturates; beacons then go out every 500 µs, and every 100 µs when one
/// cycle at a time is timed.
const CHUNK: u64 = 2000;
const CHUNKS_IN_FLIGHT: u64 = 2;

/// Cycles churn issues at most while saturating (warm-up included); the
/// phase ends early once they are done. The replicated op log only ever
/// grows, so memory at the end of a run is a function of the cycles
/// completed: without a cap a faster host (or program) would read as a
/// larger `rss_mb`. About two thirds of what a 16 s phase completes on the
/// machine the noise study was recorded on.
const SATURATION_CYCLES: u64 = 200_000;
const BEACON_LOADED: Duration = Duration::from_micros(500);
const BEACON_UNLOADED: Duration = Duration::from_micros(100);

/// The longest the generator sleeps without looking at the clock.
const NAP: Duration = Duration::from_millis(50);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Saturate,
    Unloaded,
}

/// Issues ops against a [`Tier`] until a deadline, blocking when full.
pub trait Generator {
    /// Issues ops until `until_ns` on the bench clock; returns the time
    /// spent parked.
    fn pump(&mut self, tier: &mut Tier, mode: Mode, until_ns: u64) -> Duration;

    /// Waits until every issued op has completed.
    fn drain(&mut self, tier: &mut Tier, patience: Duration) -> Result<(), String>;
}

/// `relay` and `match-heavy`: op = publish → deliver.
pub struct Publisher<'a> {
    inputs: &'a PublishInputs,
    next_op: u64,
}

impl<'a> Publisher<'a> {
    pub fn new(inputs: &'a PublishInputs) -> Self {
        Publisher { inputs, next_op: 0 }
    }
}

impl Generator for Publisher<'_> {
    fn pump(&mut self, tier: &mut Tier, mode: Mode, until_ns: u64) -> Duration {
        let shared = std::sync::Arc::clone(&tier.shared);
        let window = if mode == Mode::Saturate { self.inputs.window } else { 1 };
        shared.low_water.store(window / 2, Ordering::SeqCst);
        let mut parked = Duration::ZERO;
        loop {
            let now = shared.clock.now_ns();
            if now >= until_ns {
                return parked;
            }
            if shared.in_flight() >= window {
                let left = Duration::from_nanos(until_ns - now);
                parked += shared.park_unless(Shared::has_room, left.min(NAP));
                continue;
            }
            let attrs = self.inputs.pool[self.next_op as usize % self.inputs.pool.len()]
                .clone()
                .attr(gen::T, now as i64)
                .attr(gen::OP, self.next_op as i64);
            self.next_op += 1;
            shared.sent.store(self.next_op, Ordering::SeqCst);
            tier.publish(attrs);
        }
    }

    fn drain(&mut self, tier: &mut Tier, patience: Duration) -> Result<(), String> {
        let shared = std::sync::Arc::clone(&tier.shared);
        shared.low_water.store(0, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + patience;
        while shared.in_flight() > 0 {
            if std::time::Instant::now() > deadline {
                return Err(format!("{} ops never completed", shared.in_flight()));
            }
            shared.park_unless(Shared::has_room, NAP);
        }
        Ok(())
    }
}

/// `churn-repl3`: op = one re-subscription cycle (unsubscribe the oldest
/// live filter, subscribe a new one), completion observed chunk-wise
/// through fences and a steady beacon stream.
pub struct Churner<'a> {
    inputs: &'a ChurnInputs,
    live: VecDeque<SubscriptionId>,
    next_cycle: u64,
    fences_issued: u64,
    next_beacon_ns: u64,
    saturation_budget: u64,
}

impl<'a> Churner<'a> {
    /// `live` are the subscriptions of the cycles before the first, as
    /// installed during set-up.
    pub fn new(
        inputs: &'a ChurnInputs,
        live: VecDeque<SubscriptionId>,
        fences_issued: u64,
    ) -> Self {
        Churner {
            inputs,
            live,
            next_cycle: gen::CHURN_LIVE,
            fences_issued,
            next_beacon_ns: 0,
            saturation_budget: SATURATION_CYCLES,
        }
    }

    fn beacon_if_due(&mut self, tier: &Tier, every: Duration) {
        let now = tier.shared.clock.now_ns();
        let oldest = tier.shared.fence_confirmed.load(Ordering::SeqCst) + 1;
        if now >= self.next_beacon_ns && oldest <= self.fences_issued {
            tier.beacon(oldest);
            self.next_beacon_ns = now + every.as_nanos() as u64;
        }
    }
}

impl Generator for Churner<'_> {
    fn pump(&mut self, tier: &mut Tier, mode: Mode, until_ns: u64) -> Duration {
        let shared = std::sync::Arc::clone(&tier.shared);
        let (chunk, in_flight, every) = match mode {
            Mode::Saturate => (CHUNK, CHUNKS_IN_FLIGHT, BEACON_LOADED),
            Mode::Unloaded => (1, 1, BEACON_UNLOADED),
        };
        let mut parked = Duration::ZERO;
        loop {
            let now = shared.clock.now_ns();
            if now >= until_ns {
                return parked;
            }
            let confirmed = shared.fence_confirmed.load(Ordering::SeqCst);
            let spent = mode == Mode::Saturate && self.saturation_budget < chunk;
            if spent && self.fences_issued == confirmed {
                return parked;
            }
            if !spent && self.fences_issued - confirmed < in_flight {
                if mode == Mode::Saturate {
                    self.saturation_budget -= chunk;
                }
                for c in 0..chunk {
                    let old = self.live.pop_front().expect("the live set is never empty");
                    tier.unsubscribe(old);
                    let id = tier.subscribe(gen::churn_filter(self.inputs, self.next_cycle));
                    self.live.push_back(id);
                    self.next_cycle += 1;
                    if c % 64 == 63 {
                        self.beacon_if_due(tier, every);
                    }
                }
                shared.sent.fetch_add(chunk, Ordering::SeqCst);
                self.fences_issued = tier.fence(chunk, now);
            } else {
                let next = Duration::from_nanos(self.next_beacon_ns.saturating_sub(now));
                let left = Duration::from_nanos(until_ns - now);
                let moved = |s: &Shared| s.fence_confirmed.load(Ordering::SeqCst) > confirmed;
                parked += shared.park_unless(moved, next.min(left));
            }
            self.beacon_if_due(tier, every);
        }
    }

    fn drain(&mut self, tier: &mut Tier, patience: Duration) -> Result<(), String> {
        let shared = std::sync::Arc::clone(&tier.shared);
        let deadline = std::time::Instant::now() + patience;
        let all = self.fences_issued;
        let done = move |s: &Shared| s.fence_confirmed.load(Ordering::SeqCst) >= all;
        while !done(&shared) {
            if std::time::Instant::now() > deadline {
                return Err(format!("fence {all} never confirmed"));
            }
            self.beacon_if_due(tier, BEACON_LOADED);
            shared.park_unless(done, BEACON_LOADED);
        }
        Ok(())
    }
}

/// Counters read at a phase boundary.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    at_ns: u64,
    completed: u64,
    parent_cpu_s: f64,
    child_cpu_s: f64,
}

fn snapshot(tier: &Tier) -> Snapshot {
    Snapshot {
        at_ns: tier.shared.clock.now_ns(),
        completed: tier.shared.completed.load(Ordering::SeqCst),
        parent_cpu_s: procfs::cpu_s(None),
        child_cpu_s: procfs::cpu_s(Some(tier.child_pid())),
    }
}

/// What one phase measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: u64,
    /// User + system CPU of parent and child.
    pub cpu_s: f64,
    /// The child's part of it: above zero, or nothing crossed a process
    /// boundary.
    pub child_cpu_s: f64,
    pub parked: Duration,
}

impl Phase {
    pub fn wall_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

fn phase_between(a: Snapshot, b: Snapshot, parked: Duration) -> Phase {
    Phase {
        start_ns: a.at_ns,
        end_ns: b.at_ns,
        ops: b.completed - a.completed,
        cpu_s: (b.parent_cpu_s - a.parent_cpu_s) + (b.child_cpu_s - a.child_cpu_s),
        child_cpu_s: b.child_cpu_s - a.child_cpu_s,
        parked,
    }
}

const DRAIN_PATIENCE: Duration = Duration::from_secs(30);

/// Warm-up, then saturation for `secs`, then drain.
pub fn saturate(
    tier: &mut Tier,
    generator: &mut dyn Generator,
    warm_up: Duration,
    secs: Duration,
) -> Result<Phase, String> {
    let shared = std::sync::Arc::clone(&tier.shared);
    shared.record.store(RECORD_NONE, Ordering::SeqCst);
    let t0 = shared.clock.now_ns();
    generator.pump(tier, Mode::Saturate, t0 + warm_up.as_nanos() as u64);
    // No drain between warm-up and measurement: the window stays full.
    tier.set_phase(PHASE_SATURATION);
    shared.record.store(RECORD_LOADED, Ordering::SeqCst);
    let a = snapshot(tier);
    let parked = generator.pump(tier, Mode::Saturate, a.at_ns + secs.as_nanos() as u64);
    let b = snapshot(tier);
    shared.record.store(RECORD_NONE, Ordering::SeqCst);
    tier.set_phase(PHASE_OTHER);
    generator.drain(tier, DRAIN_PATIENCE)?;
    Ok(phase_between(a, b, parked))
}

/// One op at a time for `secs`, then drain.
pub fn unloaded(
    tier: &mut Tier,
    generator: &mut dyn Generator,
    secs: Duration,
) -> Result<Phase, String> {
    let shared = std::sync::Arc::clone(&tier.shared);
    tier.set_phase(PHASE_UNLOADED);
    shared.record.store(RECORD_UNLOADED, Ordering::SeqCst);
    let a = snapshot(tier);
    let parked = generator.pump(tier, Mode::Unloaded, a.at_ns + secs.as_nanos() as u64);
    generator.drain(tier, DRAIN_PATIENCE)?;
    let b = snapshot(tier);
    shared.record.store(RECORD_NONE, Ordering::SeqCst);
    tier.set_phase(PHASE_OTHER);
    Ok(phase_between(a, b, parked))
}
