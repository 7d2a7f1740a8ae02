//! Model-checks the replica group from `rebeca-broker` — the real
//! production state machine ([`rebeca_broker::replication::Replica`]),
//! sans-io, driven under the checker's scheduler: the view-change
//! arbitration, and the batch boundaries of the normal case.
//!
//! Run with: `RUSTFLAGS="--cfg rebeca_verify" cargo test -p rebeca-verify --release`
//!
//! The view-change scenario: a 3-member group boots fresh and commits two ops, then
//! the primary dies with a third op in flight. The two survivors race —
//! the supervisor's peer-down notices and the dead primary's last
//! `Prepare`s are interleaved exhaustively — and whatever the order, the
//! view change must elect exactly one new primary, never lose an op any
//! member committed, and keep the survivors' committed prefixes
//! identical.
//!
//! The batch-boundary scenario: the primary has two multi-op `Prepare`s
//! in flight to both backups, each carrying a different piggybacked commit
//! number, with more acknowledgements still to come. The four deliveries
//! and the primary's next two inputs are interleaved exhaustively — a later
//! batch can overtake an earlier one — and whatever the order, no replica's
//! commit number regresses, every log stays a prefix of the primary's (no
//! hole), and the group settles with every op committed everywhere.
//!
//! The checkpoint scenario: members fold committed ops into their logs'
//! checkpoints at their own pace while the rest of the protocol runs. The
//! primary has died with one op in a single backup's log; both survivors
//! have heard, voted, and folded different amounts. The votes' delivery,
//! the `DoViewChange` they release, the `StartView` that follows, one fold
//! step per survivor and the reboot of a fresh member 0 (whose recovery
//! probes the survivors answer mid view change or after it) are
//! interleaved exhaustively — so every log state is built before or after
//! its sender folded, and adopted by a receiver whose own checkpoint is
//! behind it or past it. Whatever the order: no member folds past its
//! commit number; any two members' committed prefixes agree, ops above the
//! later checkpoint one by one and the folded states below it as states; a
//! table fed only what `drain_committed` hands out (repairs included)
//! equals its log's checkpoint; and the group settles in one view with
//! every member — the recovered one too — holding the fold of the whole
//! history.
//!
//! Four injected twins prove the checker would catch the classic bugs:
//!
//! * `batch_skip_gap_check` — `on_prepare` appends a batch that starts
//!   beyond the log end, so an overtaking batch lands under the wrong op
//!   numbers.
//! * `viewchange_stale_view` — `on_prepare` accepts a Prepare from a
//!   stale view, so the deposed primary's dying gasp splits the
//!   survivors' logs at one op number.
//! * `commit_before_quorum` — the primary commits on its own append
//!   without waiting for a backup majority, so the view change loses a
//!   "committed" op.
//! * `checkpoint_past_commit` — `drain_committed` folds whatever the log
//!   holds, committed or not: an op a view change may still discard ends
//!   up in a checkpoint, where nothing can take it out again.
#![cfg(rebeca_verify)]

use rebeca_broker::replication::{
    BrokerOp, LiveState, Outbox, Replica, ReplicaConfig, ReplicaMsg, ReplicaStatus, PREPARE_WINDOW,
};
use rebeca_core::{ClientId, Filter, Subscription, SubscriptionId};
use rebeca_net::NodeId;
use rebeca_verify::shim::{thread, Mutex};
use rebeca_verify::Checker;
use std::collections::VecDeque;
use std::sync::Arc;

fn op(i: u32) -> BrokerOp {
    BrokerOp::ClientAttach { client: ClientId::new(i), node: NodeId::new(100 + i) }
}

/// Delivers every queued message until the full (pre-crash) group
/// quiesces — the deterministic prologue, before any scheduling points.
fn pump_full(replicas: &mut [Replica], outboxes: &mut [Outbox]) {
    loop {
        let mut moved = false;
        for i in 0..replicas.len() {
            let msgs = std::mem::take(&mut outboxes[i]);
            let from = replicas[i].me_node();
            for (to, msg) in msgs {
                moved = true;
                let Some(dest) = replicas.iter().position(|r| r.me_node() == to) else {
                    continue;
                };
                let mut out = std::mem::take(&mut outboxes[dest]);
                replicas[dest].on_msg(from, msg, &mut out);
                outboxes[dest] = out;
            }
        }
        if !moved {
            return;
        }
    }
}

/// `r`'s state at op `n` (`base ≤ n ≤ op_number`): its checkpoint with the
/// tail up to `n` folded in.
fn state_at(r: &Replica, n: u64) -> LiveState {
    let mut log = r.log().clone();
    while log.base() < n {
        log.fold_next().expect("n is within the log");
    }
    log.live().clone()
}

/// Two members' committed prefixes are identical: below the later of the
/// two checkpoints as folded states, above it op by op.
fn assert_committed_prefixes_agree(a: &Replica, b: &Replica) {
    let common = a.commit_number().min(b.commit_number());
    let from = a.log().base().max(b.log().base());
    if from <= common {
        assert_eq!(
            state_at(a, from),
            state_at(b, from),
            "committed prefixes diverged below op {from}"
        );
    }
    for n in from + 1..=common {
        assert_eq!(a.log().get(n), b.log().get(n), "committed prefixes diverged at op {n}");
    }
}

/// `r` holds every op of `committed` (ops `1..`): folded into its state
/// below its checkpoint, one by one above it.
fn assert_holds_committed(r: &Replica, committed: &[BrokerOp]) {
    assert!(
        r.commit_number() >= committed.len() as u64,
        "commit number regressed across the view change: {} < {}",
        r.commit_number(),
        committed.len()
    );
    let folded = (r.log().base() as usize).min(committed.len());
    let mut want = LiveState::default();
    committed[..folded].iter().for_each(|op| want.fold(op));
    // Past the committed list the checkpoint holds ops this check knows
    // nothing about; up to it, it must be exactly their fold.
    if r.log().base() as usize <= committed.len() {
        assert_eq!(r.log().live(), &want, "a committed op was lost by the view change (folded)");
    }
    for (i, want) in committed.iter().enumerate().skip(folded) {
        let n = i as u64 + 1;
        assert_eq!(
            r.log().get(n),
            Some(want),
            "a committed op was lost by the view change (op {n})"
        );
    }
}

/// The live members plus the network between them. Sends addressed to a
/// dead primary are dropped, exactly as the process runtime drops writes
/// on a downed link.
struct Net {
    dead: Option<NodeId>,
    live: Vec<Replica>,
    queue: VecDeque<(NodeId, NodeId, ReplicaMsg)>,
    /// Per-member commit high-water, for the monotonicity invariant.
    last_commit: Vec<u64>,
    /// Per member, what a broker there would hold: the fold of exactly the
    /// ops `drain_committed` handed out.
    tables: Vec<LiveState>,
}

impl Net {
    fn new(dead: Option<NodeId>, live: Vec<Replica>) -> Net {
        let last_commit = live.iter().map(|r| r.commit_number()).collect();
        let tables = vec![LiveState::default(); live.len()];
        Net { dead, live, queue: VecDeque::new(), last_commit, tables }
    }

    /// One fold step at member `i`: drains what is committed into its
    /// table, which is what moves the log's checkpoint.
    fn fold(&mut self, i: usize) {
        let table = &mut self.tables[i];
        self.live[i].drain_committed(|op| table.fold(&op));
        let r = &self.live[i];
        assert!(
            r.log().base() <= r.commit_number(),
            "{:?} folded an op it never saw committed: checkpoint at {}, commit number {}",
            r.me_node(),
            r.log().base(),
            r.commit_number()
        );
        assert_eq!(
            &self.tables[i],
            r.log().live(),
            "the table at {:?} is not its log's checkpoint",
            r.me_node()
        );
    }

    /// Member 0 comes back empty and starts its recovery probe round.
    fn reboot(&mut self, cfg: ReplicaConfig) {
        let node = cfg.group[cfg.me];
        assert_eq!(self.dead.take(), Some(node), "the dead member reboots");
        let mut fresh = Replica::new(cfg);
        let mut out = Outbox::new();
        fresh.start(&mut out);
        self.live.push(fresh);
        self.last_commit.push(0);
        self.tables.push(LiveState::default());
        self.feed(node, out);
    }

    fn tick_all(&mut self) {
        for i in 0..self.live.len() {
            let mut out = Outbox::new();
            self.live[i].tick(&mut out);
            let from = self.live[i].me_node();
            self.feed(from, out);
        }
    }

    fn assert_prefixes_agree(&self) {
        for (i, a) in self.live.iter().enumerate() {
            for b in &self.live[i + 1..] {
                assert_committed_prefixes_agree(a, b);
            }
        }
    }

    fn feed(&mut self, from: NodeId, out: Outbox) {
        for (to, msg) in out {
            self.queue.push_back((from, to, msg));
        }
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, msg: ReplicaMsg) {
        if Some(to) == self.dead {
            return;
        }
        let i = self
            .live
            .iter()
            .position(|r| r.me_node() == to)
            .expect("messages go to a group member");
        let mut out = Outbox::new();
        self.live[i].on_msg(from, msg, &mut out);
        assert!(
            self.live[i].commit_number() >= self.last_commit[i],
            "a replica's commit number never regresses"
        );
        self.last_commit[i] = self.live[i].commit_number();
        self.feed(to, out);
    }

    /// One racing step: the next queued message addressed to member `i`.
    /// Returns whether there was one.
    fn deliver_next_to(&mut self, i: usize) -> bool {
        let node = self.live[i].me_node();
        self.deliver_first(|(_, to, _)| *to == node)
    }

    fn deliver_first(&mut self, pick: impl Fn(&(NodeId, NodeId, ReplicaMsg)) -> bool) -> bool {
        let Some(pos) = self.queue.iter().position(pick) else {
            return false;
        };
        let (from, to, msg) = self.queue.remove(pos).expect("position just found");
        self.deliver(from, to, msg);
        true
    }

    fn submit(&mut self, i: usize, op: BrokerOp) {
        let mut out = Outbox::new();
        self.live[i].submit([op], &mut out);
        let from = self.live[i].me_node();
        self.feed(from, out);
    }

    /// The supervisor's down event for the dead primary at survivor `i`.
    fn peer_down(&mut self, i: usize) {
        let mut out = Outbox::new();
        let node = self.live[i].me_node();
        let dead = self.dead.expect("a crash scenario");
        self.live[i].on_peer_change(dead, false, &mut out);
        self.feed(node, out);
    }

    fn pump(&mut self) {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            self.deliver(from, to, msg);
        }
    }
}

/// Boots a fresh 3-group, commits two ops, then kills the primary with a
/// third op prepared but unacknowledged, and interleaves the survivors'
/// peer-down notices against the dead primary's in-flight `Prepare`s.
fn primary_crash_body() {
    // Deterministic prologue: fresh boot, two committed ops.
    let nodes: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    let mut rs: Vec<Replica> =
        (0..3).map(|me| Replica::new(ReplicaConfig { group: nodes.clone(), me })).collect();
    let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
    for (r, out) in rs.iter_mut().zip(outs.iter_mut()) {
        r.start(out);
    }
    pump_full(&mut rs, &mut outs);
    rs[0].submit([op(1)], &mut outs[0]);
    rs[0].submit([op(2)], &mut outs[0]);
    pump_full(&mut rs, &mut outs);

    // The dying gasp: op 3 is prepared, then the primary is gone before
    // any acknowledgement returns. Whatever any member considered
    // committed at this instant must survive the view change.
    rs[0].submit([op(3)], &mut outs[0]);
    let committed: Vec<BrokerOp> = {
        let high = rs.iter().max_by_key(|r| r.commit_number()).expect("three members");
        (1..=high.commit_number())
            .map(|n| high.log().get(n).expect("nobody has folded: ops are in the tail").clone())
            .collect()
    };
    let dead = nodes[0];
    let in_flight: Outbox = std::mem::take(&mut outs[0]);
    rs.remove(0);
    let mut sv = Net::new(Some(dead), rs);
    sv.feed(dead, in_flight);
    let st = Arc::new(Mutex::new(sv));

    // Racing phase: each survivor's peer-down notice and the delivery of
    // its in-flight Prepare are four schedulable events — a Prepare can
    // land before or after its receiver heard the primary died.
    let handles: Vec<_> = [0usize, 1]
        .into_iter()
        .flat_map(|i| {
            let down = {
                let st = Arc::clone(&st);
                thread::spawn(move || st.lock().peer_down(i))
            };
            let net = {
                let st = Arc::clone(&st);
                thread::spawn(move || {
                    st.lock().deliver_next_to(i);
                })
            };
            [down, net]
        })
        .collect();
    for h in handles {
        h.join().expect("racing survivor step");
    }

    // Deterministic epilogue: drain the view change to quiescence.
    let mut sv = st.lock();
    sv.pump();

    // Invariant: the survivors agree on a view past the crash, and
    // exactly one of them leads it.
    let views: Vec<u64> = sv.live.iter().map(|r| r.view()).collect();
    assert_eq!(views[0], views[1], "survivors converge on one view");
    assert!(views[0] >= 1, "the crash forces a view change");
    for r in &sv.live {
        assert_eq!(r.status(), ReplicaStatus::Normal, "survivors settle back to Normal");
    }
    let primaries = sv.live.iter().filter(|r| r.is_primary()).count();
    assert_eq!(primaries, 1, "exactly one primary per view");

    // The deposed primary gasps once more: a Prepare from the old view
    // arriving after the new view started must be rejected.
    let victim = sv.live.iter().position(|r| !r.is_primary()).expect("one backup");
    let gasp_to = sv.live[victim].me_node();
    let gasp = ReplicaMsg::Prepare {
        view: 0,
        op_number: sv.live[victim].op_number() + 1,
        commit_number: committed.len() as u64,
        ops: vec![op(66)],
    };
    sv.deliver(dead, gasp_to, gasp);

    // New-view traffic commits over whatever the logs now hold.
    let leader = sv.live.iter().position(|r| r.is_primary()).expect("one primary");
    sv.submit(leader, op(4));
    sv.pump();

    // Invariant: nothing that was committed before the crash vanished.
    assert_holds_committed(&sv.live[leader], &committed);

    // Invariant: the survivors' committed prefixes are identical.
    sv.assert_prefixes_agree();
}

#[test]
fn crash_view_change_keeps_committed_ops() {
    Checker::new("crash_view_change_keeps_committed_ops").check(primary_crash_body).assert_ok();
}

/// Injected bug: `on_prepare` skips the view comparison, so the deposed
/// primary's post-view-change gasp is appended by one survivor but not
/// the other — the log split the stale-view rejection exists to prevent.
/// The checker must find it, and the printed schedule must replay
/// deterministically.
#[test]
fn injected_stale_view_is_caught_and_replays() {
    let report = Checker::new("injected_stale_view_is_caught_and_replays")
        .inject("viewchange_stale_view")
        .check(primary_crash_body);
    let failure = report.assert_fails();
    assert!(
        failure.message.contains("committed prefixes diverged"),
        "unexpected failure: {}",
        failure.message
    );
    let replay = Checker::new("injected_stale_view_is_caught_and_replays")
        .inject("viewchange_stale_view")
        .schedule(&failure.schedule)
        .check(primary_crash_body);
    assert_eq!(replay.explored, 1, "a replay explores exactly one schedule");
    assert_eq!(replay.assert_fails().message, failure.message);
}

/// Injected bug: the primary commits on its own append without a backup
/// majority. In the schedule where both survivors hear of the crash
/// before either in-flight Prepare lands, the "committed" op 3 exists in
/// no surviving log — the lost-commit the quorum rule exists to prevent.
#[test]
fn injected_commit_before_quorum_is_caught_and_replays() {
    let report = Checker::new("injected_commit_before_quorum_is_caught_and_replays")
        .inject("commit_before_quorum")
        .check(primary_crash_body);
    let failure = report.assert_fails();
    assert!(
        failure.message.contains("a committed op was lost"),
        "unexpected failure: {}",
        failure.message
    );
    let replay = Checker::new("injected_commit_before_quorum_is_caught_and_replays")
        .inject("commit_before_quorum")
        .schedule(&failure.schedule)
        .check(primary_crash_body);
    assert_eq!(replay.explored, 1, "a replay explores exactly one schedule");
    assert_eq!(replay.assert_fails().message, failure.message);
}

/// Every backup log is a prefix of the primary's: an op filed under the
/// wrong number (a hole papered over) shows as a mismatch. Nobody folds in
/// this model, so every op is still in a tail.
fn assert_no_hole(net: &Net) {
    let primary = &net.live[0];
    for backup in &net.live[1..] {
        assert_eq!(backup.log().base(), 0);
        for n in 1..=backup.op_number() {
            assert_eq!(
                backup.log().get(n),
                primary.log().get(n),
                "a log has a hole: op {n} at {:?} is not the primary's",
                backup.me_node()
            );
        }
    }
}

/// Two multi-op batches, each with its own piggybacked commit number, in
/// flight to both backups while acknowledgements keep arriving at the
/// primary — delivered in every order, overtaking included.
fn batch_boundary_body() {
    // Deterministic prologue. A burst fills the window with single-op
    // batches and leaves ops 5 and 6 behind; the backups take the window in
    // order, and the first acknowledgement that commits op 1 releases
    // batch A = [5, 6] carrying commit 1. Ops 7 and 8 pile up behind it
    // and leave as batch B = [7, 8] carrying commit 2.
    let nodes: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    let mut rs: Vec<Replica> =
        (0..3).map(|me| Replica::new(ReplicaConfig { group: nodes.clone(), me })).collect();
    let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
    for (r, out) in rs.iter_mut().zip(outs.iter_mut()) {
        r.start(out);
    }
    pump_full(&mut rs, &mut outs);
    let mut net = Net::new(None, rs);
    let window = PREPARE_WINDOW as u32;
    for i in 1..=window + 2 {
        net.submit(0, op(i));
    }
    for _ in 0..window {
        net.deliver_next_to(1);
        net.deliver_next_to(2);
    }
    let acks_until_commit = |net: &mut Net, commit: u64| {
        while net.live[0].commit_number() < commit {
            assert!(net.deliver_next_to(0), "an acknowledgement is queued");
        }
    };
    acks_until_commit(&mut net, 1);
    net.submit(0, op(window + 3));
    net.submit(0, op(window + 4));
    acks_until_commit(&mut net, 2);
    let (a, b) = (u64::from(window) + 1, u64::from(window) + 3);
    let in_flight: Vec<(u32, u64, usize, u64)> = net
        .queue
        .iter()
        .filter_map(|(_, to, m)| match m {
            ReplicaMsg::Prepare { op_number, commit_number, ops, .. } => {
                Some((to.raw(), *op_number, ops.len(), *commit_number))
            }
            _ => None,
        })
        .collect();
    assert_eq!(in_flight, [(1, a, 2, 1), (2, a, 2, 1), (1, b, 2, 2), (2, b, 2, 2)]);
    let total = u64::from(window) + 4;
    let st = Arc::new(Mutex::new(net));

    // Racing phase: each batch at each backup is its own event, and so are
    // the primary's next two inputs (acknowledgements of the window, of a
    // batch, or a gapped backup's state-transfer probe).
    let mut handles = Vec::new();
    for backup in [1u32, 2] {
        for first in [a, b] {
            let st = Arc::clone(&st);
            handles.push(thread::spawn(move || {
                let mut net = st.lock();
                let hit = net.deliver_first(|(_, to, m)| {
                    to.raw() == backup
                        && matches!(m, ReplicaMsg::Prepare { op_number, .. } if *op_number == first)
                });
                assert!(hit, "the batch is still queued");
                assert_no_hole(&net);
            }));
        }
    }
    for _ in 0..2 {
        let st = Arc::clone(&st);
        handles.push(thread::spawn(move || {
            st.lock().deliver_next_to(0);
        }));
    }
    for h in handles {
        h.join().expect("racing delivery step");
    }

    // Deterministic epilogue: drain to quiescence.
    let mut net = st.lock();
    net.pump();
    assert_no_hole(&net);
    for r in &net.live {
        assert_eq!(r.status(), ReplicaStatus::Normal);
        assert_eq!(r.view(), 0, "nobody died");
        assert_eq!(r.op_number(), total, "every op reached {:?}", r.me_node());
        assert_eq!(r.commit_number(), total, "and is committed there");
        assert_eq!(r.log(), net.live[0].log(), "committed prefixes agree");
    }
}

/// Every racing step of the batch model runs start to finish under the
/// one network lock, so the order in which the six steps take it is the
/// whole schedule: all 6! orders are explored without preemptions, which
/// would only re-order lock *attempts*.
fn batch_checker(name: &str) -> Checker {
    Checker::new(name).preemption_bound(0)
}

#[test]
fn batches_commit_in_every_delivery_order() {
    let report = batch_checker("batches_commit_in_every_delivery_order").check(batch_boundary_body);
    report.assert_ok();
    assert!(report.complete && report.explored >= 720, "explored {}", report.explored);
}

/// Injected bug: `on_prepare` skips the gap check, so when batch B
/// overtakes batch A its ops are appended under A's op numbers. The
/// checker must find it, and the printed schedule must replay
/// deterministically.
#[test]
fn injected_batch_skip_gap_check_is_caught_and_replays() {
    let report = batch_checker("injected_batch_skip_gap_check_is_caught_and_replays")
        .inject("batch_skip_gap_check")
        .check(batch_boundary_body);
    let failure = report.assert_fails();
    assert!(
        failure.message.contains("a log has a hole"),
        "unexpected failure: {}",
        failure.message
    );
    let replay = batch_checker("injected_batch_skip_gap_check_is_caught_and_replays")
        .inject("batch_skip_gap_check")
        .schedule(&failure.schedule)
        .check(batch_boundary_body);
    assert_eq!(replay.explored, 1, "a replay explores exactly one schedule");
    assert_eq!(replay.assert_fails().message, failure.message);
}

fn sub(id: u32) -> BrokerOp {
    let filter = Filter::builder().eq("k", i64::from(id)).build();
    let subscription = Subscription::new(SubscriptionId::new(id), ClientId::new(7), filter);
    BrokerOp::Subscribe { node: NodeId::new(107), subscription }
}

fn unsub(id: u32) -> BrokerOp {
    BrokerOp::Unsubscribe { client: ClientId::new(7), id: SubscriptionId::new(id) }
}

/// The history of the checkpoint model: re-subscriptions, so folding
/// shrinks it — six ops, a client and two subscriptions live at the end.
fn history() -> [BrokerOp; 6] {
    [sub(1), sub(2), unsub(1), sub(3), unsub(2), sub(4)]
}

/// Members folding at their own pace through a primary crash, the view
/// change it triggers and the recovery of a fresh member (see the module
/// docs).
fn fold_crash_recover_body() {
    // Deterministic prologue. Ops 1..=4 commit everywhere; member 2 folds
    // the first two as soon as they commit, member 1 never folds. Op 5
    // reaches member 2 only, then the primary is gone; both survivors hear
    // of it and vote.
    let nodes: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    let cfg = |me| ReplicaConfig { group: nodes.clone(), me };
    let mut rs: Vec<Replica> = (0..3).map(|me| Replica::new(cfg(me))).collect();
    let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
    for (r, out) in rs.iter_mut().zip(outs.iter_mut()) {
        r.start(out);
    }
    pump_full(&mut rs, &mut outs);
    let ops = history();
    let mut table_2 = LiveState::default();
    for (i, op) in ops[..4].iter().enumerate() {
        rs[0].submit([op.clone()], &mut outs[0]);
        pump_full(&mut rs, &mut outs);
        if i == 1 {
            rs[2].drain_committed(|op| table_2.fold(&op));
        }
    }
    rs[0].submit([ops[4].clone()], &mut outs[0]);
    let (dead, lucky) = (nodes[0], nodes[2]);
    let in_flight: Outbox = std::mem::take(&mut outs[0]);
    rs.remove(0);
    assert_eq!(rs.iter().map(|r| r.commit_number()).collect::<Vec<_>>(), [4, 4]);
    assert_eq!(rs.iter().map(|r| r.log().base()).collect::<Vec<_>>(), [0, 2]);
    let mut net = Net::new(Some(dead), rs);
    net.tables[1] = table_2;
    net.feed(dead, in_flight);
    assert!(net.deliver_first(|(_, to, _)| *to == lucky), "op 5 reaches member 2");
    net.queue.clear();
    assert_eq!(net.live[1].op_number(), 5);
    net.peer_down(0);
    net.peer_down(1);
    let st = Arc::new(Mutex::new(net));

    // Racing phase, seven events: the delivery of each vote (member 2's
    // releases its `DoViewChange`), two more deliveries (the `DoViewChange`
    // at member 1, then whatever reached member 2: the `StartView` or a
    // recovery probe), one fold step per survivor, and the reboot of
    // member 0. A delivery with nothing queued yet is a no-op; the epilogue
    // delivers the rest.
    let step = |f: Box<dyn FnOnce(&mut Net) + Send>| {
        let st = Arc::clone(&st);
        thread::spawn(move || {
            let mut net = st.lock();
            f(&mut net);
            net.assert_prefixes_agree();
        })
    };
    let fresh = cfg(0);
    let handles = vec![
        step(Box::new(|net| {
            net.deliver_next_to(0);
        })),
        step(Box::new(|net| {
            net.deliver_next_to(0);
        })),
        step(Box::new(|net| {
            net.deliver_next_to(1);
        })),
        step(Box::new(|net| {
            net.deliver_next_to(1);
        })),
        step(Box::new(|net| net.fold(0))),
        step(Box::new(|net| net.fold(1))),
        step(Box::new(move |net| net.reboot(fresh))),
    ];
    for h in handles {
        h.join().expect("racing step");
    }

    // Deterministic epilogue: drain to quiescence; two ticks heal what a
    // reboot in mid view change left behind (a member that woke up while
    // nobody was Normal starts over at view 0 and learns of view 1 from
    // the heartbeat); then new-view traffic, and everybody folds.
    let mut net = st.lock();
    net.pump();
    for _ in 0..2 {
        net.tick_all();
        net.pump();
        net.assert_prefixes_agree();
    }
    let leader = net.live.iter().position(|r| r.is_primary()).expect("one primary");
    net.submit(leader, ops[5].clone());
    net.pump();
    for i in 0..net.live.len() {
        net.fold(i);
    }
    net.assert_prefixes_agree();

    // Invariant: one view past the crash, one primary, everybody Normal —
    // the recovered member too.
    assert_eq!(net.live.len(), 3);
    for r in &net.live {
        assert_eq!(r.status(), ReplicaStatus::Normal, "{:?} settles back to Normal", r.me_node());
        assert_eq!(r.view(), 1, "{:?} converges on the view after the crash", r.me_node());
    }
    assert_eq!(net.live.iter().filter(|r| r.is_primary()).count(), 1, "one primary per view");

    // Invariant: nothing committed was lost (op 5 too — its only holder was
    // in the quorum), and the new view's state is the same everywhere: the
    // fold of the whole history, in every log and in every table.
    let mut want = LiveState::default();
    ops.iter().for_each(|op| want.fold(op));
    for (r, table) in net.live.iter().zip(&net.tables) {
        assert_holds_committed(r, &ops[..4]);
        assert_eq!((r.log().base(), r.commit_number(), r.op_number()), (6, 6, 6));
        assert_eq!(r.log().live(), &want, "{:?} holds another state", r.me_node());
        assert_eq!(table, &want, "the table at {:?} missed a repair", r.me_node());
    }
}

/// Each racing step runs start to finish under the one network lock, so
/// (as in the batch model) the order in which the seven steps take it is
/// the whole schedule.
fn fold_checker(name: &str) -> Checker {
    Checker::new(name).preemption_bound(0)
}

#[test]
fn members_fold_at_their_own_pace_through_crash_and_recovery() {
    let report = fold_checker("members_fold_at_their_own_pace_through_crash_and_recovery")
        .check(fold_crash_recover_body);
    report.assert_ok();
    assert!(report.complete && report.explored >= 5040, "explored {}", report.explored);
}

/// Injected bug: `drain_committed` folds to the log end instead of the
/// commit number. Member 2's fold step then puts op 5 — held by nobody
/// else, acknowledged to nobody — into its checkpoint. The view change is
/// free to discard such an op (in a larger group, or had member 2 been the
/// one cut off), and a checkpoint cannot give it back: every later
/// adoption keeps "the checkpoint that is further along". The checker must
/// find the fold, and the printed schedule must replay deterministically.
#[test]
fn injected_checkpoint_past_commit_is_caught_and_replays() {
    let report = fold_checker("injected_checkpoint_past_commit_is_caught_and_replays")
        .inject("checkpoint_past_commit")
        .check(fold_crash_recover_body);
    let failure = report.assert_fails();
    assert!(
        failure.message.contains("folded an op it never saw committed"),
        "unexpected failure: {}",
        failure.message
    );
    let replay = fold_checker("injected_checkpoint_past_commit_is_caught_and_replays")
        .inject("checkpoint_past_commit")
        .schedule(&failure.schedule)
        .check(fold_crash_recover_body);
    assert_eq!(replay.explored, 1, "a replay explores exactly one schedule");
    assert_eq!(replay.assert_fails().message, failure.message);
}
