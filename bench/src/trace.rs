//! Bench-side tracing: a decorator around every hosted node that stamps
//! handler start and end, and the arithmetic that turns those stamps into
//! per-layer self times and gaps. Nothing inside the program is touched;
//! spans inside the program are a later change.

use crate::gen;
use crate::json::Json;
use rebeca_broker::{encode_message, Message};
use rebeca_net::{encode_frame, Ctx, Frame, Node, NodeId, TimerId};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Nanoseconds on one clock shared by the parent and the child process.
///
/// `Instant` is monotonic but has no readable origin, so the two processes
/// agree on one through the wall clock: the parent publishes the UNIX time
/// of its zero, the child pairs its own `Instant` with the wall clock once
/// at start-up. Any error in that pairing moves time between the two wire
/// gaps of a chain and cancels in their sum.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    base: Instant,
    offset_ns: u64,
}

/// An `Instant` and the wall-clock reading taken closest to it.
fn paired() -> (Instant, u128) {
    (0..5)
        .map(|_| {
            let before = Instant::now();
            let unix = SystemTime::now().duration_since(UNIX_EPOCH).expect("clock after 1970");
            (before.elapsed(), before, unix.as_nanos())
        })
        .min_by_key(|(width, _, _)| *width)
        .map(|(_, at, unix)| (at, unix))
        .expect("five readings")
}

impl Clock {
    /// The parent's clock, zero now; returns the UNIX time of that zero
    /// for the child to align to.
    pub fn start() -> (Clock, u128) {
        let (base, unix) = paired();
        (Clock { base, offset_ns: 0 }, unix)
    }

    /// The child's view of the clock whose zero was at `unix_ns_at_zero`.
    pub fn aligned_to(unix_ns_at_zero: u128) -> Clock {
        let (base, unix) = paired();
        Clock { base, offset_ns: unix.saturating_sub(unix_ns_at_zero) as u64 }
    }

    pub fn now_ns(&self) -> u64 {
        self.offset_ns + self.base.elapsed().as_nanos() as u64
    }
}

/// What a handler invocation was doing, by the message it handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A client turning an application publish into `Publish`.
    AppPublish = 0,
    /// A broker matching and routing `Publish`/`Forward`.
    Publish = 1,
    /// A broker handling (un)subscriptions and announcements.
    Mutation = 2,
    /// Replica-group traffic.
    Replica = 3,
    /// The client library taking a delivery.
    Deliver = 4,
    /// Timers, attach, application (un)subscribe, everything else.
    Other = 5,
}

pub const KINDS: usize = 6;

impl Kind {
    fn of(msg: &Message) -> Kind {
        match msg {
            Message::AppPublish { .. } => Kind::AppPublish,
            Message::Publish { .. } | Message::Forward { .. } => Kind::Publish,
            Message::Subscribe { .. }
            | Message::Unsubscribe { .. }
            | Message::SubForward { .. }
            | Message::UnsubForward { .. } => Kind::Mutation,
            Message::Replica(_) => Kind::Replica,
            Message::Deliver { .. } => Kind::Deliver,
            Message::AppSubscribe { .. }
            | Message::AppUnsubscribe { .. }
            | Message::ClientAttach { .. }
            | Message::ClientDetach { .. }
            | Message::Routed { .. }
            | Message::Mobility(_) => Kind::Other,
        }
    }

    fn from_index(i: u64) -> Option<Kind> {
        [Kind::AppPublish, Kind::Publish, Kind::Mutation, Kind::Replica, Kind::Deliver, Kind::Other]
            .get(i as usize)
            .copied()
    }
}

/// The send-time attribute of the notification a message carries — the
/// identifier every span of one op shares.
fn op_key(msg: &Message) -> Option<i64> {
    match msg {
        Message::AppPublish { attrs } => {
            attrs.attrs().find(|(k, _)| *k == gen::T).and_then(|(_, v)| v.as_int())
        }
        Message::Publish { notification }
        | Message::Forward { notification }
        | Message::Deliver { notification, .. } => {
            notification.get(gen::T).and_then(|v| v.as_int())
        }
        _ => None,
    }
}

/// One handler invocation on behalf of one op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub node: u32,
    pub kind: Kind,
    pub key: i64,
    pub start: u64,
    pub end: u64,
}

/// Phases the trace tells apart. Handler busy time is summed per phase;
/// spans are kept in the unloaded phase only, where every op is its own
/// chain.
pub const PHASE_OTHER: u8 = 0;
pub const PHASE_SATURATION: u8 = 1;
pub const PHASE_UNLOADED: u8 = 2;
const PHASES: usize = 3;

#[derive(Debug, Default, Clone, PartialEq)]
pub struct Collected {
    pub spans: Vec<Span>,
    /// `busy_ns[phase][kind]`: time inside handlers, every invocation.
    pub busy_ns: [[u64; KINDS]; PHASES],
    pub calls: [[u64; KINDS]; PHASES],
    /// `wire[phase]`: messages sent to a node of the other process, and
    /// their size as frames.
    pub wire: [(u64, u64); PHASES],
}

impl Collected {
    pub fn merge(&mut self, other: Collected) {
        self.spans.extend(other.spans);
        for p in 0..PHASES {
            for k in 0..KINDS {
                self.busy_ns[p][k] += other.busy_ns[p][k];
                self.calls[p][k] += other.calls[p][k];
            }
            self.wire[p].0 += other.wire[p].0;
            self.wire[p].1 += other.wire[p].1;
        }
    }

    pub fn to_json(&self) -> Json {
        let grid = |g: &[[u64; KINDS]; PHASES]| {
            Json::Arr(
                g.iter()
                    .map(|r| Json::Arr(r.iter().map(|v| Json::Num(*v as f64)).collect()))
                    .collect(),
            )
        };
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(
                    [
                        s.node as f64,
                        s.kind as u8 as f64,
                        s.key as f64,
                        s.start as f64,
                        s.end as f64,
                    ]
                    .into_iter()
                    .map(Json::Num)
                    .collect(),
                )
            })
            .collect();
        let wire = self
            .wire
            .iter()
            .map(|(m, b)| Json::Arr(vec![Json::Num(*m as f64), Json::Num(*b as f64)]))
            .collect();
        Json::obj([
            ("busy_ns", grid(&self.busy_ns)),
            ("calls", grid(&self.calls)),
            ("wire", Json::Arr(wire)),
            ("spans", Json::Arr(spans)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Collected> {
        let grid = |name: &str| -> Option<[[u64; KINDS]; PHASES]> {
            let mut out = [[0u64; KINDS]; PHASES];
            for (p, row) in j.get(name)?.as_arr()?.iter().enumerate().take(PHASES) {
                for (k, v) in row.as_arr()?.iter().enumerate().take(KINDS) {
                    out[p][k] = v.as_f64()? as u64;
                }
            }
            Some(out)
        };
        let spans = j
            .get("spans")?
            .as_arr()?
            .iter()
            .map(|s| {
                let f = s.as_arr()?;
                let num = |i: usize| f.get(i)?.as_f64();
                Some(Span {
                    node: num(0)? as u32,
                    kind: Kind::from_index(num(1)? as u64)?,
                    key: num(2)? as i64,
                    start: num(3)? as u64,
                    end: num(4)? as u64,
                })
            })
            .collect::<Option<Vec<Span>>>()?;
        let mut wire = [(0, 0); PHASES];
        for (p, pair) in j.get("wire")?.as_arr()?.iter().enumerate().take(PHASES) {
            let pair = pair.as_arr()?;
            wire[p] = (pair.first()?.as_f64()? as u64, pair.get(1)?.as_f64()? as u64);
        }
        Some(Collected { spans, busy_ns: grid("busy_ns")?, calls: grid("calls")?, wire })
    }
}

/// Where the decorators of one process put what they recorded.
#[derive(Debug)]
pub struct TraceSink {
    pub clock: Clock,
    phase: AtomicU8,
    /// Per node of the table: whether the other process hosts it.
    remote: Vec<bool>,
    /// Bytes a `Msg` frame adds around its payload.
    frame_overhead: usize,
    collected: Mutex<Collected>,
}

impl TraceSink {
    pub fn new(clock: Clock, remote: Vec<bool>) -> Arc<TraceSink> {
        let mut empty = Vec::new();
        let frame = Frame::Msg { from: NodeId::new(0), to: NodeId::new(0), payload: Vec::new() };
        encode_frame(&frame, &mut empty);
        Arc::new(TraceSink {
            clock,
            phase: AtomicU8::new(PHASE_OTHER),
            remote,
            frame_overhead: empty.len(),
            collected: Mutex::default(),
        })
    }

    pub fn set_phase(&self, phase: u8) {
        // Relaxed: the phase only labels statistics; phases are separated
        // by a drained system, not by this store.
        self.phase.store(phase, Ordering::Relaxed);
    }

    /// Everything recorded by decorators that have been dropped — call
    /// after the runtime has stopped and its nodes are gone.
    pub fn take(&self) -> Collected {
        std::mem::take(&mut *self.collected.lock().expect("no decorator panics holding the sink"))
    }
}

/// The decorator. Transparent to harness inspection: `as_any` is the
/// wrapped node's.
pub struct TracedNode {
    inner: Box<dyn Node<Message>>,
    id: u32,
    sink: Arc<TraceSink>,
    local: Collected,
    scratch: Vec<u8>,
}

impl TracedNode {
    pub fn wrap(inner: Box<dyn Node<Message>>, id: u32, sink: &Arc<TraceSink>) -> Box<Self> {
        Box::new(TracedNode {
            inner,
            id,
            sink: Arc::clone(sink),
            local: Collected::default(),
            scratch: Vec::new(),
        })
    }

    /// Runs one handler of the wrapped node between two clock readings,
    /// then sizes what it sent across the process boundary (the runtime
    /// encodes the same messages again once the handler has returned:
    /// that second encoding is part of the tracing overhead the traced
    /// run reports).
    fn timed(
        &mut self,
        ctx: &mut Ctx<'_, Message>,
        kind: Kind,
        key: Option<i64>,
        f: impl FnOnce(&mut dyn Node<Message>, &mut Ctx<'_, Message>),
    ) {
        let phase = self.sink.phase.load(Ordering::Relaxed);
        let start = self.sink.clock.now_ns();
        f(self.inner.as_mut(), ctx);
        let end = self.sink.clock.now_ns();
        let p = (phase as usize).min(PHASES - 1);
        self.local.busy_ns[p][kind as usize] += end - start;
        self.local.calls[p][kind as usize] += 1;
        if let (PHASE_UNLOADED, Some(key)) = (phase, key) {
            self.local.spans.push(Span { node: self.id, kind, key, start, end });
        }
        for (to, msg) in ctx.sent() {
            if self.sink.remote.get(to.raw() as usize).copied().unwrap_or(false) {
                self.scratch.clear();
                encode_message(msg, &mut self.scratch);
                self.local.wire[p].0 += 1;
                self.local.wire[p].1 += (self.scratch.len() + self.sink.frame_overhead) as u64;
            }
        }
    }
}

impl Drop for TracedNode {
    fn drop(&mut self) {
        // A poisoned sink means another decorator panicked; there is no
        // report to add to then.
        if let Ok(mut c) = self.sink.collected.lock() {
            c.merge(std::mem::take(&mut self.local));
        }
    }
}

impl Node<Message> for TracedNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Message>) {
        self.timed(ctx, Kind::Other, None, |n, ctx| n.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Message>, from: NodeId, msg: Message) {
        let (kind, key) = (Kind::of(&msg), op_key(&msg));
        self.timed(ctx, kind, key, |n, ctx| n.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Message>, timer: TimerId, tag: u64) {
        self.timed(ctx, Kind::Other, None, |n, ctx| n.on_timer(ctx, timer, tag));
    }

    fn on_peer_change(&mut self, ctx: &mut Ctx<'_, Message>, peer: NodeId, up: bool) {
        self.timed(ctx, Kind::Other, None, |n, ctx| n.on_peer_change(ctx, peer, up));
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// A span's self time: its duration minus the part of it that `children`
/// cover. Children may overlap each other and stick out of the parent.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|(s, e)| ((*s).max(start), (*e).min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (end - start) - covered
}

/// Where one op's end-to-end time went, in nanoseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Breakdown {
    /// Handler self time by [`Kind`].
    pub handler: [f64; KINDS],
    /// Between two handlers of one process: channel send, wake-up.
    pub local_gap: f64,
    /// Between handlers of two processes: encode, frame, send buffer,
    /// writer, socket, reader, reassembly, decode, channel.
    pub wire_gap: f64,
    /// Send to end of the probe's delivery handler.
    pub e2e: f64,
}

/// Mean breakdown over the ops whose chain is complete, and the share of
/// all sampled end-to-end time those chains account for.
///
/// An op's chain is its spans ordered by start. The op itself is the root
/// span `[key, last end]`; handlers are its children, so the root's
/// [`self_time`] is the sum of the gaps, which are then classified by
/// whether the handlers on either side share a process (`in_child`).
/// `expected` is the number of handlers on the path; an op with another
/// count attributes nothing.
pub fn attribute(
    spans: &[Span],
    expected: usize,
    in_child: impl Fn(u32) -> bool,
) -> (Breakdown, f64, usize) {
    let mut by_key: std::collections::BTreeMap<i64, Vec<Span>> = Default::default();
    for s in spans {
        by_key.entry(s.key).or_default().push(*s);
    }
    // The slowest 1 % are scheduler hiccups that would own the mean.
    let mut e2es: Vec<u64> = by_key
        .iter()
        .filter_map(|(k, c)| c.iter().map(|s| s.end).max()?.checked_sub(*k as u64))
        .collect();
    e2es.sort_unstable();
    let cutoff = crate::stats::percentile(&e2es, 0.99).unwrap_or(u64::MAX);

    let mut sum = Breakdown::default();
    let (mut complete, mut all_e2e) = (0usize, 0.0);
    for (key, mut chain) in by_key {
        chain.sort_by_key(|s| s.start);
        let t0 = key as u64;
        let Some(last) = chain.iter().map(|s| s.end).max() else { continue };
        if last < t0 || last - t0 > cutoff {
            continue;
        }
        all_e2e += (last - t0) as f64;
        let ordered = chain.windows(2).all(|w| w[0].end <= w[1].start) && chain[0].start >= t0;
        if chain.len() != expected || !ordered {
            continue;
        }
        complete += 1;
        sum.e2e += (last - t0) as f64;
        for s in &chain {
            sum.handler[s.kind as usize] += (s.end - s.start) as f64;
        }
        // The generator lives in the parent, like the first handler.
        sum.local_gap += (chain[0].start - t0) as f64;
        let mut gaps = chain[0].start - t0;
        for w in chain.windows(2) {
            let gap = (w[1].start - w[0].end) as f64;
            gaps += w[1].start - w[0].end;
            if in_child(w[0].node) == in_child(w[1].node) {
                sum.local_gap += gap;
            } else {
                sum.wire_gap += gap;
            }
        }
        let children: Vec<(u64, u64)> = chain.iter().map(|s| (s.start, s.end)).collect();
        debug_assert_eq!(self_time((t0, last), &children), gaps);
    }
    let share = if all_e2e > 0.0 { sum.e2e / all_e2e } else { 0.0 };
    if complete > 0 {
        let n = complete as f64;
        for h in &mut sum.handler {
            *h /= n;
        }
        sum.local_gap /= n;
        sum.wire_gap /= n;
        sum.e2e /= n;
    }
    (sum, share, complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        assert_eq!(self_time((100, 200), &[]), 100);
        assert_eq!(self_time((100, 200), &[(110, 120), (150, 180)]), 60);
        // Overlapping children are not subtracted twice.
        assert_eq!(self_time((100, 200), &[(110, 150), (140, 160), (150, 155)]), 50);
        // Children sticking out are clipped; disjoint ones ignored.
        assert_eq!(self_time((100, 200), &[(50, 120), (190, 400), (300, 310)]), 70);
        assert_eq!(self_time((100, 200), &[(0, 1000)]), 0);
    }

    fn span(node: u32, kind: Kind, key: i64, start: u64, end: u64) -> Span {
        Span { node, kind, key, start, end }
    }

    #[test]
    fn chain_parts_sum_to_the_whole() {
        // publisher(3) → broker0 → [wire] → broker1 (child) → [wire] → broker2 → probe(4)
        let key = 1_000;
        let spans = vec![
            span(3, Kind::AppPublish, key, 1_010, 1_020),
            span(0, Kind::Publish, key, 1_030, 1_050),
            span(1, Kind::Publish, key, 1_100, 1_115),
            span(2, Kind::Publish, key, 1_175, 1_195),
            span(4, Kind::Deliver, key, 1_200, 1_204),
            // An op that lost its child-side span attributes nothing.
            span(3, Kind::AppPublish, 5_000, 5_010, 5_020),
            span(4, Kind::Deliver, 5_000, 5_100, 5_104),
        ];
        let (b, share, complete) = attribute(&spans, 5, |n| n == 1);
        assert_eq!(complete, 1);
        assert_eq!(b.e2e, 204.0);
        assert_eq!(b.handler[Kind::AppPublish as usize], 10.0);
        assert_eq!(b.handler[Kind::Publish as usize], 55.0);
        assert_eq!(b.handler[Kind::Deliver as usize], 4.0);
        assert_eq!(b.local_gap, 10.0 + 10.0 + 5.0);
        assert_eq!(b.wire_gap, 50.0 + 60.0);
        let parts: f64 = b.handler.iter().sum::<f64>() + b.local_gap + b.wire_gap;
        assert_eq!(parts, b.e2e);
        assert!((share - 204.0 / 308.0).abs() < 1e-12);
    }

    #[test]
    fn collected_round_trips_through_json() {
        let mut c = Collected::default();
        c.spans.push(span(1, Kind::Replica, 123_456_789_012, 5, 9));
        c.busy_ns[PHASE_SATURATION as usize][Kind::Mutation as usize] = 77;
        c.calls[PHASE_UNLOADED as usize][Kind::Deliver as usize] = 3;
        c.wire[PHASE_SATURATION as usize] = (12, 3456);
        let text = c.to_json().render();
        assert_eq!(Collected::from_json(&Json::parse(&text).unwrap()), Some(c));
    }

    #[test]
    fn child_clock_aligns_with_parent_clock() {
        let (parent, zero) = Clock::start();
        let child = Clock::aligned_to(zero);
        let (a, b) = (parent.now_ns(), child.now_ns());
        assert!(a.abs_diff(b) < 2_000_000, "same process, same clock: {a} vs {b}");
    }
}
