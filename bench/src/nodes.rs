//! The bench-owned nodes: the probe client that observes every completion,
//! and the child's agent that takes the parent's control messages.

use crate::gen;
use crate::procfs;
use crate::trace::Clock;
use rebeca_broker::{LocalBroker, Message};
use rebeca_core::{ClientId, SubscriptionId};
use rebeca_net::{Ctx, Node, NodeId};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Which latency log the probe writes to.
pub const RECORD_NONE: u8 = 0;
/// Saturation phase: every sixteenth op, a diagnostic.
pub const RECORD_LOADED: u8 = 1;
/// Unloaded phase: every op.
pub const RECORD_UNLOADED: u8 = 2;

/// In-flight fences whose issue time the probe can look up.
const FENCE_RING: usize = 8;

/// State shared by the generator thread, the probe node and the driver.
///
/// The generator blocks in `park` when its window is full; the probe
/// unparks it once in-flight ops fall to the low-water mark. Both sides
/// use `SeqCst` on `waiting`/`completed` (store-then-load on each side),
/// so either the generator sees the completion or the probe sees it
/// waiting — a wake-up is never lost, and the generator never spins.
#[derive(Debug)]
pub struct Shared {
    pub clock: Clock,
    /// The broker process, whose CPU time the probe's marks include.
    pub child_pid: u32,
    /// Ops issued by the generator.
    pub sent: AtomicU64,
    /// Ops whose completion the probe has observed.
    pub completed: AtomicU64,
    /// Highest fence whose beacon was delivered.
    pub fence_confirmed: AtomicU64,
    /// The generator resumes once `sent - completed` is at most this.
    pub low_water: AtomicU64,
    pub waiting: AtomicBool,
    pub generator: OnceLock<Thread>,
    pub record: AtomicU8,
    /// `(ops, issue time ns)` of fence `j`, at `j % FENCE_RING`.
    fence_ops: [AtomicU64; FENCE_RING],
    fence_issued_ns: [AtomicU64; FENCE_RING],
}

impl Shared {
    pub fn new(clock: Clock, child_pid: u32) -> Arc<Shared> {
        Arc::new(Shared {
            clock,
            child_pid,
            sent: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            fence_confirmed: AtomicU64::new(0),
            low_water: AtomicU64::new(0),
            waiting: AtomicBool::new(false),
            generator: OnceLock::new(),
            record: AtomicU8::new(RECORD_NONE),
            fence_ops: Default::default(),
            fence_issued_ns: Default::default(),
        })
    }

    /// Declares that fence `j` closes a chunk of `ops` ops issued at
    /// `issued_ns`. At most [`FENCE_RING`] fences may be unconfirmed.
    pub fn announce_fence(&self, j: u64, ops: u64, issued_ns: u64) {
        let slot = j as usize % FENCE_RING;
        self.fence_ops[slot].store(ops, Ordering::SeqCst);
        self.fence_issued_ns[slot].store(issued_ns, Ordering::SeqCst);
    }

    pub fn in_flight(&self) -> u64 {
        self.sent.load(Ordering::SeqCst).saturating_sub(self.completed.load(Ordering::SeqCst))
    }

    pub fn has_room(&self) -> bool {
        self.in_flight() <= self.low_water.load(Ordering::SeqCst)
    }

    /// Generator side: blocks until the probe wakes it or `timeout`
    /// passes, unless `ready` already holds. Returns the time spent
    /// parked. Callers loop: a wake-up is a hint to look again.
    pub fn park_unless(&self, ready: impl Fn(&Shared) -> bool, timeout: Duration) -> Duration {
        self.waiting.store(true, Ordering::SeqCst);
        let mut parked = Duration::ZERO;
        if !ready(self) {
            let t0 = Instant::now();
            std::thread::park_timeout(timeout);
            parked = t0.elapsed();
        }
        self.waiting.store(false, Ordering::SeqCst);
        parked
    }

    /// Probe side, after a completion: a confirmed fence always wakes the
    /// generator; a completed op only once there is room for half a
    /// window again, so a full window is refilled in one burst instead of
    /// one wake-up per op.
    fn wake(&self, fence: bool) {
        if self.waiting.load(Ordering::SeqCst) && (fence || self.has_room()) {
            if let Some(t) = self.generator.get() {
                t.unpark();
            }
        }
    }
}

/// The client library's delivery bookkeeping keeps every notification id
/// it has seen; a fresh one every this many deliveries keeps that set —
/// and the run's memory — bounded. Exactly-once across the swap is the
/// probe's own op-index check.
const ROTATE_EVERY: u64 = 1 << 16;

/// The probe marks the first completion of every half second: long enough
/// that the 10 ms ticks `/proc/<pid>/stat` counts CPU in are a percent or
/// two of a segment, short enough that a saturation phase has some thirty
/// of them to take the best decile of.
const MARK_EVERY_NS: u64 = 500_000_000;

/// What the probe saw, handed over once the run is done.
#[derive(Debug, Default)]
pub struct Observed {
    pub duplicates: u64,
    pub fifo_violations: u64,
    /// Op indices that arrived out of sequence (lost, repeated, reordered).
    pub out_of_sequence: u64,
    /// Latency of every sixteenth saturated op, and `(completion time,
    /// latency)` of every unloaded one.
    pub loaded_ns: Vec<u64>,
    pub unloaded_ns: Vec<(u64, u64)>,
    /// `(time, completed, CPU seconds of both processes so far)` at the
    /// first completion of every half second.
    pub marks: Vec<(u64, u64, f64)>,
    /// Subscriptions held at the end: what every broker's table must
    /// hold, one entry each.
    pub subscriptions: usize,
}

/// The consumer. Holds the workload's subscriptions through a real
/// [`LocalBroker`], passes every delivery through a second one (duplicate
/// and FIFO accounting as an application would get it), and checks on top
/// that op indices arrive as 0, 1, 2, … with nothing missing or repeated.
pub struct Probe {
    shared: Arc<Shared>,
    home: NodeId,
    /// Subscriptions live here; never rotated.
    control: LocalBroker,
    /// Deliveries go here; rotated.
    sink: LocalBroker,
    in_sink: u64,
    next_op: u64,
    next_mark_ns: u64,
    seen: Observed,
}

impl Probe {
    pub fn new(client: ClientId, home: NodeId, shared: Arc<Shared>) -> Probe {
        Probe {
            shared,
            home,
            control: LocalBroker::new(client),
            sink: LocalBroker::new(client),
            in_sink: 0,
            next_op: 0,
            next_mark_ns: 0,
            seen: Observed::default(),
        }
    }

    fn harvest_sink(&mut self) {
        self.seen.duplicates += self.sink.duplicates();
        self.seen.fifo_violations += self.sink.fifo_violations();
        self.sink = LocalBroker::new(self.sink.client());
        self.in_sink = 0;
    }

    /// Takes everything observed; call once, after the run.
    pub fn finish(&mut self) -> Observed {
        self.harvest_sink();
        self.seen.subscriptions = self.control.subscriptions().count();
        std::mem::take(&mut self.seen)
    }

    fn complete(&mut self, ops: u64, fence: bool, now_ns: u64, issued_ns: u64) {
        let done = self.shared.completed.fetch_add(ops, Ordering::SeqCst) + ops;
        let latency = now_ns.saturating_sub(issued_ns);
        match self.shared.record.load(Ordering::Relaxed) {
            RECORD_UNLOADED => self.seen.unloaded_ns.push((now_ns, latency)),
            RECORD_LOADED if done % 16 < ops => self.seen.loaded_ns.push(latency),
            _ => {}
        }
        if now_ns >= self.next_mark_ns {
            let cpu_s = procfs::cpu_s(None) + procfs::cpu_s(Some(self.shared.child_pid));
            self.seen.marks.push((now_ns, done, cpu_s));
            self.next_mark_ns = now_ns + MARK_EVERY_NS;
        }
        self.shared.wake(fence);
    }
}

impl Node<Message> for Probe {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Message>) {
        self.control.attach(ctx, self.home);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Message>, _from: NodeId, msg: Message) {
        match msg {
            Message::AppSubscribe { id, filter } => self.control.subscribe(ctx, id, filter),
            Message::AppUnsubscribe { id } => self.control.unsubscribe(ctx, id),
            Message::Deliver { notification, .. } => {
                let now_ns = self.shared.clock.now_ns();
                let int = |name: &str| notification.get(name).and_then(|v| v.as_int());
                let (t, op, fence) = (int(gen::T), int(gen::OP), int(gen::FENCE));
                self.sink.on_deliver(ctx.now(), notification);
                self.sink.take_delivered();
                self.in_sink += 1;
                if self.in_sink == ROTATE_EVERY {
                    self.harvest_sink();
                }
                if let Some(j) = fence {
                    // Beacons repeat until confirmed: only the first one
                    // for a new fence completes anything. Mutations are
                    // FIFO, so a confirmed fence confirms every earlier
                    // one with it.
                    let j = j as u64;
                    let confirmed = self.shared.fence_confirmed.load(Ordering::SeqCst);
                    if j > confirmed {
                        self.shared.fence_confirmed.store(j, Ordering::SeqCst);
                        let ops = (confirmed + 1..=j)
                            .map(|k| {
                                self.shared.fence_ops[k as usize % FENCE_RING]
                                    .load(Ordering::SeqCst)
                            })
                            .sum();
                        let issued = self.shared.fence_issued_ns[j as usize % FENCE_RING]
                            .load(Ordering::SeqCst);
                        self.complete(ops, true, now_ns, issued);
                    }
                } else if let (Some(t), Some(op)) = (t, op) {
                    if op as u64 != self.next_op {
                        self.seen.out_of_sequence += 1;
                    }
                    self.next_op = op as u64 + 1;
                    self.complete(1, false, now_ns, t as u64);
                }
            }
            // Nothing else addresses a client; spelled out so a new
            // protocol variant has to be placed.
            Message::AppPublish { .. }
            | Message::ClientAttach { .. }
            | Message::ClientDetach { .. }
            | Message::Publish { .. }
            | Message::Subscribe { .. }
            | Message::Unsubscribe { .. }
            | Message::Forward { .. }
            | Message::SubForward { .. }
            | Message::UnsubForward { .. }
            | Message::Routed { .. }
            | Message::Mobility(_)
            | Message::Replica(_) => {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// What the parent can ask of the child, carried as the id of an
/// `AppUnsubscribe` sent to the agent node (the one application message
/// with nothing but an integer in it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Report and exit.
    Stop,
    /// The trace phase changed.
    Phase(u8),
}

impl Control {
    pub fn encode(self) -> Message {
        let id = match self {
            Control::Stop => 0,
            Control::Phase(p) => 1 + u32::from(p),
        };
        Message::AppUnsubscribe { id: SubscriptionId::new(id) }
    }
}

/// The child-side endpoint of [`Control`]: passes each request to the
/// child's main thread, and `None` when the link to the parent goes down.
pub struct Agent {
    tx: mpsc::Sender<Option<Control>>,
}

impl Agent {
    pub fn new(tx: mpsc::Sender<Option<Control>>) -> Agent {
        Agent { tx }
    }
}

impl Node<Message> for Agent {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Message>, _from: NodeId, msg: Message) {
        if let Message::AppUnsubscribe { id } = msg {
            let control = match id.raw() {
                0 => Control::Stop,
                p => Control::Phase((p - 1) as u8),
            };
            // The receiver is the child's main thread; if it is gone the
            // process is exiting anyway.
            let _ = self.tx.send(Some(control));
        }
    }

    fn on_peer_change(&mut self, _ctx: &mut Ctx<'_, Message>, _peer: NodeId, up: bool) {
        if !up {
            let _ = self.tx.send(None);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
