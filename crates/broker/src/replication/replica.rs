//! The sans-io VR-style replica state machine.
//!
//! One [`Replica`] per group member, driven entirely by explicit inputs —
//! [`Replica::submit`], [`Replica::on_msg`], [`Replica::on_peer_change`],
//! [`Replica::tick`] — and emitting `(NodeId, ReplicaMsg)` pairs into a
//! caller-supplied [`Outbox`]. No I/O, no clock, no locks: the same code
//! runs under the deterministic simulator, the multi-process runtime and
//! the `crates/verify` model checker (which exhaustively interleaves the
//! view-change arbitration — see `crates/verify/tests/replication.rs`).
//!
//! The protocol is viewstamped replication in its modern form:
//!
//! * **Normal case** — the primary of view `v` (group member `v % n`)
//!   only *appends* a submitted batch of ops (one message's mutations, or
//!   the backlog queued while it was not serving); one send step ships the
//!   log suffix no `Prepare` has carried yet as a single batched `Prepare`
//!   (consecutive ops from `op_number`, at most [`MAX_BATCH_OPS`]) while
//!   fewer than [`PREPARE_WINDOW`] batches are uncommitted. The step runs
//!   once per submit and again whenever a `PrepareOk` advances the commit
//!   number, so an idle group sends each submitted batch at once, and a busy
//!   group ships whatever piled up behind the round trip in one message —
//!   self-clocked by acknowledgements, no timer. Backups append the part
//!   of a batch that extends their log and answer one cumulative
//!   `PrepareOk` per batch; a batch starting beyond the log end is a gap
//!   (one state-transfer probe). The primary's commit number is the
//!   quorum-th highest acknowledgement. It rides on the next `Prepare`;
//!   an explicit `Commit` leaves only when the commit number advanced, no
//!   `Prepare` left in the same step to carry it and the log is committed
//!   to its end (the pipeline drained), plus the tick heartbeat.
//! * **View change** — a downed primary (reported by the process runtime's
//!   link supervisor via [`Replica::on_peer_change`]) triggers
//!   `StartViewChange(v+1)`; at a majority of votes each member sends
//!   `DoViewChange` with its log to the new primary, which adopts the log
//!   with the highest `(last_normal, op_number)`, goes Normal and
//!   broadcasts `StartView`. Committed ops survive by quorum
//!   intersection: every committed op lives in a majority of logs, and
//!   every view change hears from a majority.
//! * **Recovery** — a (re)booting replica probes the whole group with a
//!   `Recovery` nonce and waits; any normal response carries the full
//!   state to adopt. A *fresh* group (nobody has state) is recognised by
//!   all peers answering non-normal, so initial boot and crash-reboot need
//!   no out-of-band flag. Ops submitted meanwhile queue in `pending`.
//!
//! **Checkpoint + tail.** A member's [`OpLog`] holds the live state at
//! `base` plus the ops above it (see [`oplog`](super::oplog)), and
//! [`Replica::drain_committed`] is the one place `base` advances: handing a
//! committed op to the caller folds it. Each member folds at its own pace
//! and asks nobody. That is safe because nothing the normal case sends
//! ever needs an op at or below the commit number — `Prepare`s carry what
//! is *not* committed, re-sends start at `max(ack_high, commit_number) +
//! 1`, acknowledgements and `Commit`s carry numbers only — so `Prepare` /
//! `PrepareOk` / `Commit` are byte for byte what they were, and a dead
//! backup pins nothing. A member that needs more than the uncommitted
//! window needs everything, and gets it: `DoViewChange` / `StartView` /
//! `RecoveryResponse` carry a [`LogState`] — `base`, the checkpoint (the
//! live state as adds in key order) and the tail — whose size follows the
//! live table, not the history. Log lengths are only ever compared through
//! `op_number() = base + tail.len()`. A receiver whose own `base` is past
//! the sender's keeps its checkpoint (committed prefixes agree, and its is
//! further along) and takes the tail above it; one whose `base` is behind
//! replaces both, and the ops in between — which no longer exist one by
//! one — reach its broker as the *repair*: the diff of the two live
//! states, retractions first, handed out by the next drain ahead of the
//! tail. Every malformed state has a [`StateReject`] name and is dropped
//! whole instead of panicking. Paging a state whose
//! live table alone outgrows `MAX_FRAME` (several 10⁵ filters) is open
//! under ROADMAP item 2.

use super::oplog::{BrokerOp, LogState, OpLog, StateReject};
use rebeca_net::NodeId;
use std::collections::VecDeque;

/// Messages exchanged inside one replica group. Carried on the ordinary
/// broker links as [`Message::Replica`](crate::Message::Replica), encoded
/// through `broker::codec` like every other protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicaMsg {
    /// Backup → primary: please log this op (client traffic arrived at a
    /// backup, e.g. after a view change moved primaryship).
    Forward {
        /// The op to log.
        op: BrokerOp,
    },
    /// Primary → backups: append `ops` as the consecutive op numbers
    /// `op_number..op_number + ops.len()`.
    Prepare {
        /// The primary's view.
        view: u64,
        /// 1-based op number assigned to `ops[0]`.
        op_number: u64,
        /// The primary's commit number (piggybacked).
        commit_number: u64,
        /// The batch: between 1 and [`MAX_BATCH_OPS`] ops.
        ops: Vec<BrokerOp>,
    },
    /// Backup → primary: my log holds everything up to `op_number`
    /// (cumulative acknowledgement).
    PrepareOk {
        /// The backup's view.
        view: u64,
        /// Highest contiguous op number held.
        op_number: u64,
        /// Group index of the acknowledging replica.
        replica: u32,
    },
    /// Primary → backups: ops up to `commit_number` are committed.
    Commit {
        /// The primary's view.
        view: u64,
        /// The commit number.
        commit_number: u64,
    },
    /// Any member → all: I suspect the primary of the previous view; vote
    /// for view `view`.
    StartViewChange {
        /// The proposed view.
        view: u64,
        /// Group index of the voter.
        replica: u32,
    },
    /// Member → new primary (after a majority of `StartViewChange`s): my
    /// log, for the new view to adopt from.
    DoViewChange {
        /// The new view.
        view: u64,
        /// The last view in which this member was Normal.
        last_normal: u64,
        /// This member's commit number.
        commit_number: u64,
        /// This member's log: checkpoint + tail. Boxed, like the other two
        /// whole-state messages: they are rare, and unboxed they would grow
        /// every `Message` that crosses a channel past a cache line.
        log: Box<LogState>,
        /// Group index of the sender.
        replica: u32,
    },
    /// New primary → backups: view `view` starts with this log.
    StartView {
        /// The new view.
        view: u64,
        /// The new primary's commit number.
        commit_number: u64,
        /// The adopted log: checkpoint + tail.
        log: Box<LogState>,
    },
    /// (Re)booting replica → all: send me your state (nonce matches the
    /// response to the probe round that asked for it).
    Recovery {
        /// Group index of the recovering replica.
        replica: u32,
        /// Probe-round nonce.
        nonce: u64,
    },
    /// Response to [`ReplicaMsg::Recovery`]. `normal` is `false` when the
    /// responder holds no trustworthy state itself (it is recovering too)
    /// — such responses only count towards fresh-boot detection.
    RecoveryResponse {
        /// The responder's view.
        view: u64,
        /// Echo of the probe nonce.
        nonce: u64,
        /// The responder's commit number.
        commit_number: u64,
        /// The responder's log: checkpoint + tail (empty when `normal` is
        /// false).
        log: Box<LogState>,
        /// Whether the responder's state is authoritative.
        normal: bool,
        /// Group index of the responder.
        replica: u32,
    },
}

/// Where a replica is in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaStatus {
    /// Probing the group for state; not serving, ops queue in `pending`.
    Recovering,
    /// Serving the current view.
    Normal,
    /// Between views: voted, waiting for the new primary's `StartView`.
    ViewChange,
}

/// Static description of one replica group member.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Node ids of every group member; index = group index. Member 0 is
    /// the broker itself, the rest are its log backups.
    pub group: Vec<NodeId>,
    /// This replica's index in `group`.
    pub me: usize,
}

impl ReplicaConfig {
    /// Majority quorum of the group.
    pub fn quorum(&self) -> usize {
        self.group.len() / 2 + 1
    }

    /// Group index of the primary of `view`.
    pub fn primary_of(&self, view: u64) -> usize {
        (view % self.group.len() as u64) as usize
    }
}

/// Messages to send, accumulated by every state-machine input.
pub type Outbox = Vec<(NodeId, ReplicaMsg)>;

/// How many `Prepare` batches a primary keeps uncommitted before it stops
/// sending and lets submitted ops accumulate for the next batch. One would
/// serialise round trips (and cost unloaded latency when a cycle's ops
/// overlap); many would send each op on its own again.
pub const PREPARE_WINDOW: usize = 4;

/// Most ops one `Prepare` carries; a longer batch is rejected on receipt.
pub const MAX_BATCH_OPS: usize = 256;

/// What a backup did with one `Prepare` — every hostile or edge input has
/// a name here instead of a panic or a hole in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PrepareOutcome {
    /// Not serving (recovering or mid view change): dropped, the tick
    /// re-sends.
    NotServing,
    /// From a view older than ours: dropped.
    StaleView,
    /// From a view newer than ours, or starting beyond our log end: a
    /// state-transfer probe was sent (at most one in flight), nothing
    /// appended or acknowledged.
    Behind,
    /// No op number 0, no empty batch, none longer than the cap, none
    /// whose last op number overflows: dropped.
    Malformed,
    /// This many ops extended the log (0 for a pure duplicate); the
    /// cumulative `PrepareOk` was sent.
    Acked(usize),
}

/// What a member did with one whole-state message (`DoViewChange`,
/// `StartView`, `RecoveryResponse`) — the [`PrepareOutcome`] pattern for
/// the three messages that carry a [`LogState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StateOutcome {
    /// Wrong status, view, nonce or sender: dropped.
    Ignored,
    /// The state inside is malformed, or ends below our own checkpoint:
    /// dropped whole, nothing moved.
    Rejected(StateReject),
    /// Kept (a vote towards a view-change or recovery quorum, or a state
    /// not ahead of ours); nothing adopted yet.
    Recorded,
    /// A state was adopted — not necessarily this message's: the one its
    /// arrival completed a quorum for.
    Adopted,
}

/// The per-member replica state (view number, op number via the log,
/// commit number) plus the transient vote/ack bookkeeping of the three
/// sub-protocols.
#[derive(Debug)]
pub struct Replica {
    cfg: ReplicaConfig,
    status: ReplicaStatus,
    view: u64,
    last_normal: u64,
    log: OpLog,
    commit_number: u64,
    /// Ops an adoption skipped past, as the diff of the two live states;
    /// the next drain hands them out ahead of the tail.
    repair: VecDeque<BrokerOp>,
    /// Primary bookkeeping: cumulative PrepareOk high-water per member.
    ack_high: Vec<u64>,
    /// Primary bookkeeping: highest op number a `Prepare` already carried.
    sent: u64,
    /// Primary bookkeeping: last op number of each uncommitted batch.
    in_flight: VecDeque<u64>,
    /// `Prepare` batches built so far (a broadcast counts once).
    prepares_sent: u64,
    /// Ops folded out of the tail by [`Replica::drain_committed`].
    ops_folded: u64,
    /// Primary bookkeeping: the commit number at the previous tick.
    commit_at_tick: u64,
    /// View-change bookkeeping: StartViewChange votes for `view`.
    svc_votes: Vec<bool>,
    /// Whether we already sent our DoViewChange for `view`.
    dvc_sent: bool,
    /// New-primary bookkeeping: DoViewChange payloads for `view`.
    dvc: Vec<Option<DvcPayload>>,
    /// Recovery bookkeeping.
    nonce: u64,
    rec_responded: Vec<bool>,
    rec_best: Option<DvcPayload>,
    /// A Normal-status state transfer was requested and neither answered
    /// nor a tick old yet.
    catching_up: bool,
    /// Ops submitted while not Normal; drained on the next transition.
    pending: Vec<BrokerOp>,
}

/// One member's offer of state: a `DoViewChange`, or a normal
/// `RecoveryResponse`.
#[derive(Debug, Clone)]
struct DvcPayload {
    view: u64,
    last_normal: u64,
    commit_number: u64,
    /// `log`'s highest op number, validated on receipt.
    op_number: u64,
    /// `None` for our own offer: the log is already here.
    log: Option<LogState>,
}

impl Replica {
    /// Creates a replica. A group of one is trivially Normal (replication
    /// off — submit commits immediately); larger groups boot Recovering
    /// and must [`Replica::start`] their probe round.
    pub fn new(cfg: ReplicaConfig) -> Replica {
        assert!(!cfg.group.is_empty(), "a replica group has at least one member");
        assert!(cfg.me < cfg.group.len(), "member index inside the group");
        let n = cfg.group.len();
        let status = if n == 1 { ReplicaStatus::Normal } else { ReplicaStatus::Recovering };
        Replica {
            cfg,
            status,
            view: 0,
            last_normal: 0,
            log: OpLog::new(),
            commit_number: 0,
            repair: VecDeque::new(),
            ack_high: vec![0; n],
            sent: 0,
            in_flight: VecDeque::new(),
            prepares_sent: 0,
            ops_folded: 0,
            commit_at_tick: 0,
            svc_votes: vec![false; n],
            dvc_sent: false,
            dvc: vec![None; n],
            nonce: 0,
            rec_responded: vec![false; n],
            rec_best: None,
            catching_up: false,
            pending: Vec::new(),
        }
    }

    /// The group configuration.
    pub fn config(&self) -> &ReplicaConfig {
        &self.cfg
    }

    /// Current protocol status.
    pub fn status(&self) -> ReplicaStatus {
        self.status
    }

    /// Current view number.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Highest op number in the log.
    pub fn op_number(&self) -> u64 {
        self.log.op_number()
    }

    /// Highest committed op number.
    pub fn commit_number(&self) -> u64 {
        self.commit_number
    }

    /// The log: the live state at `base` plus the ops above it.
    pub fn log(&self) -> &OpLog {
        &self.log
    }

    /// Ops queued while the replica was not Normal.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// `Prepare` batches this member built as primary: a broadcast counts
    /// once, a tick re-send once per lagging backup.
    pub fn prepares_sent(&self) -> u64 {
        self.prepares_sent
    }

    /// Ops this member folded into its checkpoint, one per op drained.
    pub fn ops_folded(&self) -> u64 {
        self.ops_folded
    }

    /// `true` when this member is the acting primary of its current view.
    pub fn is_primary(&self) -> bool {
        self.status == ReplicaStatus::Normal && self.cfg.primary_of(self.view) == self.cfg.me
    }

    /// The node id this member sends and receives replica traffic on.
    pub fn me_node(&self) -> NodeId {
        self.cfg.group[self.cfg.me]
    }

    fn primary_node(&self) -> NodeId {
        self.cfg.group[self.cfg.primary_of(self.view)]
    }

    /// Queues `msg` for every other member; the last one gets the original,
    /// so a batch or a log state is cloned once per backup and no more.
    fn broadcast(&self, msg: ReplicaMsg, out: &mut Outbox) {
        let me = self.cfg.me;
        let mut peers =
            self.cfg.group.iter().enumerate().filter(|(i, _)| *i != me).map(|(_, &n)| n).peekable();
        while let Some(node) = peers.next() {
            if peers.peek().is_none() {
                out.push((node, msg));
                return;
            }
            out.push((node, msg.clone()));
        }
    }

    /// Starts the recovery probe round (no-op for a Normal group-of-one).
    /// Call once on node start, and re-call from [`Replica::tick`] — the
    /// probe is idempotent per nonce.
    pub fn start(&mut self, out: &mut Outbox) {
        if self.status == ReplicaStatus::Recovering && self.nonce == 0 {
            self.begin_recovery(out);
        }
    }

    fn begin_recovery(&mut self, out: &mut Outbox) {
        self.status = ReplicaStatus::Recovering;
        self.nonce += 1;
        self.rec_responded = vec![false; self.cfg.group.len()];
        self.rec_best = None;
        self.broadcast(
            ReplicaMsg::Recovery { replica: self.cfg.me as u32, nonce: self.nonce },
            out,
        );
    }

    /// Periodic retransmission driver: recovery probes, view-change votes,
    /// the primary's unacknowledged `Prepare`s and its commit heartbeat are
    /// all re-sent here, so a message lost to a link outage delays the
    /// protocol by one tick instead of wedging it.
    pub fn tick(&mut self, out: &mut Outbox) {
        match self.status {
            ReplicaStatus::Recovering => {
                if self.nonce == 0 {
                    self.begin_recovery(out);
                } else {
                    // Re-probe only whoever has not answered this round.
                    let msg =
                        ReplicaMsg::Recovery { replica: self.cfg.me as u32, nonce: self.nonce };
                    for (i, &node) in self.cfg.group.iter().enumerate() {
                        if i != self.cfg.me && !self.rec_responded[i] {
                            out.push((node, msg.clone()));
                        }
                    }
                }
            }
            ReplicaStatus::ViewChange => {
                let msg =
                    ReplicaMsg::StartViewChange { view: self.view, replica: self.cfg.me as u32 };
                self.broadcast(msg, out);
                if self.dvc_sent && self.cfg.primary_of(self.view) != self.cfg.me {
                    out.push((self.primary_node(), self.do_view_change_msg()));
                }
            }
            ReplicaStatus::Normal => {
                // A catch-up probe that went unanswered for a whole tick is
                // presumed lost; the next gap may ask again.
                self.catching_up = false;
                if self.is_primary() && self.cfg.group.len() > 1 {
                    // Only a stalled pipeline needs healing: while commits
                    // advance, the ops in flight are merely younger than
                    // their acks, and re-sending them would double the
                    // traffic of a busy group on every tick.
                    if self.commit_number == self.commit_at_tick {
                        self.resend_unacked_prepares(out);
                    }
                    self.commit_at_tick = self.commit_number;
                    self.broadcast(
                        ReplicaMsg::Commit { view: self.view, commit_number: self.commit_number },
                        out,
                    );
                }
            }
        }
    }

    /// Re-sends what was sent but not committed to every backup that has
    /// not acknowledged it, as one batched `Prepare` each (one per
    /// [`MAX_BATCH_OPS`] when a whole window was lost) — called when a whole
    /// tick passed without commit progress. A `Prepare` a backup dropped
    /// (it was still Recovering, or the link was down) is otherwise never
    /// seen again: the commit heartbeat alone tells a backup nothing it
    /// lacks while `commit_number` trails the lost op. Duplicates fall
    /// through to the backup's cumulative ack.
    fn resend_unacked_prepares(&mut self, out: &mut Outbox) {
        for i in 0..self.cfg.group.len() {
            if i == self.cfg.me {
                continue;
            }
            let mut first = self.ack_high[i].max(self.commit_number) + 1;
            while first <= self.sent {
                let last = self.sent.min(first + (MAX_BATCH_OPS as u64 - 1));
                let msg = self.prepare_msg(first, last);
                out.push((self.cfg.group[i], msg));
                first = last + 1;
            }
        }
    }

    /// The one place a `Prepare` is built: ops `first..=last` of the log.
    fn prepare_msg(&mut self, first: u64, last: u64) -> ReplicaMsg {
        self.prepares_sent += 1;
        ReplicaMsg::Prepare {
            view: self.view,
            op_number: first,
            commit_number: self.commit_number,
            ops: self.log.range(first, last),
        }
    }

    /// The primary's one send step: while fewer than [`PREPARE_WINDOW`]
    /// batches are uncommitted, broadcasts the log suffix no `Prepare` has
    /// carried yet as one batch (several only when it exceeds
    /// [`MAX_BATCH_OPS`]). Returns whether a `Prepare` left — it carries
    /// the commit number, so the caller need not announce it.
    fn send_prepares(&mut self, out: &mut Outbox) -> bool {
        while self.in_flight.front().is_some_and(|&last| last <= self.commit_number) {
            self.in_flight.pop_front();
        }
        let mut left = false;
        while self.sent < self.log.op_number() && self.in_flight.len() < PREPARE_WINDOW {
            let last = self.log.op_number().min(self.sent + MAX_BATCH_OPS as u64);
            let msg = self.prepare_msg(self.sent + 1, last);
            self.broadcast(msg, out);
            self.sent = last;
            self.in_flight.push_back(last);
            left = true;
        }
        left
    }

    /// Resets the primary-side bookkeeping when this member starts leading
    /// a view whose log state it just shipped (`StartView`): everything is
    /// sent, nothing acknowledged yet.
    fn lead_from_log_end(&mut self) {
        self.ack_high = vec![0; self.cfg.group.len()];
        self.ack_high[self.cfg.me] = self.log.op_number();
        self.sent = self.log.op_number();
        self.in_flight.clear();
    }

    /// Submits a batch of mutations to the group. On the primary this only
    /// appends all of them and then runs the send step once (an idle
    /// group's batch leaves at once, as one `Prepare` per
    /// [`MAX_BATCH_OPS`]); on a backup it forwards each op to the primary;
    /// while Recovering or in a view change it queues them.
    pub fn submit(&mut self, ops: impl IntoIterator<Item = BrokerOp>, out: &mut Outbox) {
        match self.status {
            ReplicaStatus::Recovering | ReplicaStatus::ViewChange => self.pending.extend(ops),
            ReplicaStatus::Normal => {
                if self.is_primary() {
                    for op in ops {
                        self.ack_high[self.cfg.me] = self.log.append(op);
                    }
                    self.send_prepares(out);
                    self.maybe_commit(out);
                } else {
                    let primary = self.primary_node();
                    out.extend(ops.into_iter().map(|op| (primary, ReplicaMsg::Forward { op })));
                }
            }
        }
    }

    /// Submits `pending` as one batch after a transition to Normal.
    fn flush_pending(&mut self, out: &mut Outbox) {
        if !self.pending.is_empty() {
            let pending = std::mem::take(&mut self.pending);
            self.submit(pending, out);
        }
    }

    /// A supervised peer link changed state. A downed node that is the
    /// current view's primary triggers the view change; everything else is
    /// recorded by the caller (as a [`BrokerOp::LinkDown`] marker op), not
    /// here.
    pub fn on_peer_change(&mut self, node: NodeId, up: bool, out: &mut Outbox) {
        if up || self.cfg.group.len() == 1 {
            return;
        }
        let primary_down =
            self.primary_node() == node && self.cfg.primary_of(self.view) != self.cfg.me;
        let relevant = matches!(self.status, ReplicaStatus::Normal | ReplicaStatus::ViewChange);
        if primary_down && relevant {
            self.begin_view_change(self.view + 1, out);
        }
    }

    fn begin_view_change(&mut self, view: u64, out: &mut Outbox) {
        debug_assert!(view > self.view || self.status != ReplicaStatus::Normal);
        self.view = view;
        self.status = ReplicaStatus::ViewChange;
        self.svc_votes = vec![false; self.cfg.group.len()];
        self.svc_votes[self.cfg.me] = true;
        self.dvc_sent = false;
        self.dvc = vec![None; self.cfg.group.len()];
        self.broadcast(ReplicaMsg::StartViewChange { view, replica: self.cfg.me as u32 }, out);
        self.maybe_do_view_change(out);
    }

    fn do_view_change_msg(&self) -> ReplicaMsg {
        ReplicaMsg::DoViewChange {
            view: self.view,
            last_normal: self.last_normal,
            commit_number: self.commit_number,
            log: Box::new(self.log.state()),
            replica: self.cfg.me as u32,
        }
    }

    /// With a majority of StartViewChange votes, send our log to the new
    /// primary (or record it, if that is us).
    fn maybe_do_view_change(&mut self, out: &mut Outbox) {
        if self.dvc_sent || self.status != ReplicaStatus::ViewChange {
            return;
        }
        let votes = self.svc_votes.iter().filter(|v| **v).count();
        if votes < self.cfg.quorum() {
            return;
        }
        self.dvc_sent = true;
        let primary = self.cfg.primary_of(self.view);
        if primary == self.cfg.me {
            self.dvc[self.cfg.me] = Some(DvcPayload {
                view: self.view,
                last_normal: self.last_normal,
                commit_number: self.commit_number,
                op_number: self.log.op_number(),
                log: None,
            });
            self.maybe_start_view(out);
        } else {
            out.push((self.cfg.group[primary], self.do_view_change_msg()));
        }
    }

    /// With a majority of DoViewChange payloads (own included), the new
    /// primary adopts the best log and starts the view.
    fn maybe_start_view(&mut self, out: &mut Outbox) -> StateOutcome {
        if self.status != ReplicaStatus::ViewChange || self.cfg.primary_of(self.view) != self.cfg.me
        {
            return StateOutcome::Ignored;
        }
        let have = self.dvc.iter().filter(|d| d.is_some()).count();
        if have < self.cfg.quorum() {
            return StateOutcome::Recorded;
        }
        let best = (0..self.dvc.len())
            .filter(|&i| self.dvc[i].is_some())
            .max_by_key(|&i| self.dvc[i].as_ref().map(|p| (p.last_normal, p.op_number)))
            .expect("quorum implies at least one payload");
        let commit = self.dvc.iter().flatten().map(|p| p.commit_number).max().unwrap_or(0);
        debug_assert!(commit >= self.commit_number, "commit number never regresses");
        if let Some(state) = self.dvc[best].take().and_then(|p| p.log) {
            // A quorum's best log holds every committed op, so it cannot
            // end below our checkpoint; an offer that does is dropped and
            // the quorum has to form again without it.
            if let Err(reject) = self.install(state) {
                return StateOutcome::Rejected(reject);
            }
        }
        self.commit_number = commit.max(self.commit_number).min(self.log.op_number());
        self.status = ReplicaStatus::Normal;
        self.last_normal = self.view;
        self.start_view(out);
        self.flush_pending(out);
        StateOutcome::Adopted
    }

    /// Adopts a foreign log state, queueing the repair for the next drain.
    fn install(&mut self, state: LogState) -> Result<(), StateReject> {
        let repair = self.log.adopt(state)?;
        self.repair.extend(repair);
        Ok(())
    }

    /// Takes the lead of the current view from the log end and tells the
    /// backups so.
    fn start_view(&mut self, out: &mut Outbox) {
        self.lead_from_log_end();
        self.broadcast(
            ReplicaMsg::StartView {
                view: self.view,
                commit_number: self.commit_number,
                log: Box::new(self.log.state()),
            },
            out,
        );
    }

    /// Raises the commit number, never lowering it and never past the log.
    fn commit_to(&mut self, c: u64) {
        let c = c.min(self.log.op_number());
        if c > self.commit_number {
            self.commit_number = c;
        }
    }

    /// Primary-side commit rule: the commit number is the quorum-th highest
    /// acknowledgement (own log end included). An advance re-runs the send
    /// step — the window just opened — and is announced by the `Prepare`
    /// that leaves there; an explicit `Commit` goes out only when none did
    /// and the whole log is committed, so a busy pipeline never pays for
    /// one and a draining one pays exactly once.
    fn maybe_commit(&mut self, out: &mut Outbox) {
        if !self.is_primary() {
            return;
        }
        // Model-checker fault injection: commit on the primary's own
        // append alone, without waiting for a backup majority — the
        // classic "committed" op that a view change then loses. The
        // checker proves this is caught (`commit_before_quorum` twin in
        // crates/verify/tests/replication.rs).
        let quorum = if rebeca_verify::inject::enabled("commit_before_quorum") {
            1
        } else {
            self.cfg.quorum()
        };
        let acks = &self.ack_high;
        let held_by_quorum = acks
            .iter()
            .copied()
            .filter(|&h| acks.iter().filter(|&&a| a >= h).count() >= quorum)
            .max()
            .unwrap_or(0);
        if held_by_quorum > self.commit_number {
            self.commit_number = held_by_quorum;
            if !self.send_prepares(out) && self.commit_number == self.log.op_number() {
                self.broadcast(
                    ReplicaMsg::Commit { view: self.view, commit_number: self.commit_number },
                    out,
                );
            }
        }
    }

    /// Handles one replica-group message from the node `from`.
    pub fn on_msg(&mut self, from: NodeId, msg: ReplicaMsg, out: &mut Outbox) {
        match msg {
            ReplicaMsg::Forward { op } => self.on_forward(from, op, out),
            ReplicaMsg::Prepare { view, op_number, commit_number, ops } => {
                self.on_prepare(from, view, op_number, commit_number, ops, out);
            }
            ReplicaMsg::PrepareOk { view, op_number, replica } => {
                self.on_prepare_ok(view, op_number, replica as usize, out);
            }
            ReplicaMsg::Commit { view, commit_number } => {
                self.on_commit(from, view, commit_number, out);
            }
            ReplicaMsg::StartViewChange { view, replica } => {
                self.on_start_view_change(view, replica as usize, out);
            }
            ReplicaMsg::DoViewChange { view, last_normal, commit_number, log, replica } => {
                self.on_do_view_change(
                    view,
                    last_normal,
                    commit_number,
                    *log,
                    replica as usize,
                    out,
                );
            }
            ReplicaMsg::StartView { view, commit_number, log } => {
                self.on_start_view(view, commit_number, *log, out);
            }
            ReplicaMsg::Recovery { replica, nonce } => {
                self.on_recovery(replica as usize, nonce, out);
            }
            ReplicaMsg::RecoveryResponse { view, nonce, commit_number, log, normal, replica } => {
                self.on_recovery_response(
                    view,
                    nonce,
                    commit_number,
                    *log,
                    normal,
                    replica as usize,
                    out,
                );
            }
        }
    }

    fn on_forward(&mut self, from: NodeId, op: BrokerOp, out: &mut Outbox) {
        match self.status {
            ReplicaStatus::Recovering | ReplicaStatus::ViewChange => self.pending.push(op),
            ReplicaStatus::Normal => {
                if self.is_primary() {
                    self.submit([op], out);
                } else if self.primary_node() != from {
                    // Stale-view sender: hand the op to our primary. If the
                    // sender *is* our primary we are both confused — drop
                    // rather than ping-pong; idempotent ops make the
                    // client's retry safe.
                    out.push((self.primary_node(), ReplicaMsg::Forward { op }));
                }
            }
        }
    }

    fn on_prepare(
        &mut self,
        from: NodeId,
        view: u64,
        op_number: u64,
        commit_number: u64,
        ops: Vec<BrokerOp>,
        out: &mut Outbox,
    ) -> PrepareOutcome {
        if self.status == ReplicaStatus::Recovering {
            return PrepareOutcome::NotServing;
        }
        // Model-checker fault injection: accept a Prepare from a stale
        // view as if it were current. A primary deposed by a view change
        // can then split the group's logs at one op number — the
        // divergence the view comparison exists to prevent
        // (`viewchange_stale_view` twin in
        // crates/verify/tests/replication.rs).
        let stale_ok = rebeca_verify::inject::enabled("viewchange_stale_view");
        if view < self.view && !stale_ok {
            return PrepareOutcome::StaleView;
        }
        if view > self.view {
            // We missed a view change: fetch state from the new primary.
            self.state_transfer(from, out);
            return PrepareOutcome::Behind;
        }
        if self.status != ReplicaStatus::Normal {
            return PrepareOutcome::NotServing;
        }
        if op_number == 0
            || ops.is_empty()
            || ops.len() > MAX_BATCH_OPS
            || op_number.checked_add(ops.len() as u64 - 1).is_none()
        {
            return PrepareOutcome::Malformed;
        }
        let log_end = self.log.op_number();
        // Model-checker fault injection: append a batch that starts beyond
        // the log end as if it were contiguous. Its ops land under the
        // wrong op numbers — the hole the gap check exists to prevent
        // (`batch_skip_gap_check` twin in crates/verify/tests/replication.rs).
        let gap_ok = rebeca_verify::inject::enabled("batch_skip_gap_check");
        if op_number > log_end + 1 && !gap_ok {
            // Gap: we lost an earlier batch — full state transfer.
            self.state_transfer(from, out);
            return PrepareOutcome::Behind;
        }
        // Only the part of the batch past our log end is new; the overlap
        // (a re-sent or duplicated prefix) falls through to the cumulative
        // ack.
        let known = (log_end + 1).saturating_sub(op_number).min(ops.len() as u64) as usize;
        let appended = ops.len() - known;
        self.log.extend(ops.into_iter().skip(known));
        self.commit_to(commit_number);
        out.push((
            from,
            ReplicaMsg::PrepareOk {
                view: self.view,
                op_number: self.log.op_number(),
                replica: self.cfg.me as u32,
            },
        ));
        PrepareOutcome::Acked(appended)
    }

    fn on_prepare_ok(&mut self, view: u64, op_number: u64, replica: usize, out: &mut Outbox) {
        if view != self.view || !self.is_primary() || replica >= self.ack_high.len() {
            return;
        }
        // Nobody holds what the primary does not: an acknowledgement beyond
        // the log (hostile or confused) counts as one of the log end.
        let held = op_number.min(self.log.op_number());
        if held > self.ack_high[replica] {
            self.ack_high[replica] = held;
        }
        self.maybe_commit(out);
    }

    fn on_commit(&mut self, from: NodeId, view: u64, commit_number: u64, out: &mut Outbox) {
        if self.status != ReplicaStatus::Normal || view < self.view {
            return;
        }
        if view > self.view || commit_number > self.log.op_number() {
            // Behind (missed a view change or lost Prepares): catch up.
            self.state_transfer(from, out);
            return;
        }
        self.commit_to(commit_number);
    }

    /// Asks `from` for its full state via a fresh recovery probe round,
    /// *without* leaving Normal status: a lagging replica keeps serving
    /// its committed prefix while it catches up. At most one round is in
    /// flight: every further gapped `Prepare` of a burst would otherwise
    /// bump the nonce and disown the answer already on its way.
    fn state_transfer(&mut self, from: NodeId, out: &mut Outbox) {
        if self.catching_up {
            return;
        }
        self.catching_up = true;
        self.nonce += 1;
        self.rec_responded = vec![false; self.cfg.group.len()];
        self.rec_best = None;
        out.push((from, ReplicaMsg::Recovery { replica: self.cfg.me as u32, nonce: self.nonce }));
    }

    fn on_start_view_change(&mut self, view: u64, replica: usize, out: &mut Outbox) {
        if replica >= self.svc_votes.len() || self.status == ReplicaStatus::Recovering {
            return;
        }
        if view < self.view {
            return;
        }
        if view > self.view {
            self.begin_view_change(view, out);
        }
        if view == self.view && self.status == ReplicaStatus::ViewChange {
            self.svc_votes[replica] = true;
            self.maybe_do_view_change(out);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_do_view_change(
        &mut self,
        view: u64,
        last_normal: u64,
        commit_number: u64,
        log: LogState,
        replica: usize,
        out: &mut Outbox,
    ) -> StateOutcome {
        if replica >= self.dvc.len() || self.status == ReplicaStatus::Recovering {
            return StateOutcome::Ignored;
        }
        if view < self.view {
            return StateOutcome::Ignored;
        }
        let op_number = match log.check(commit_number) {
            Ok(n) => n,
            Err(reject) => return StateOutcome::Rejected(reject),
        };
        if view > self.view {
            self.begin_view_change(view, out);
        }
        if self.status != ReplicaStatus::ViewChange || self.cfg.primary_of(view) != self.cfg.me {
            return StateOutcome::Ignored;
        }
        self.dvc[replica] =
            Some(DvcPayload { view, last_normal, commit_number, op_number, log: Some(log) });
        self.maybe_start_view(out)
    }

    fn on_start_view(
        &mut self,
        view: u64,
        commit_number: u64,
        log: LogState,
        out: &mut Outbox,
    ) -> StateOutcome {
        if view < self.view || self.status == ReplicaStatus::Recovering {
            return StateOutcome::Ignored;
        }
        if let Err(reject) = log.check(commit_number).and_then(|_| self.install(log)) {
            return StateOutcome::Rejected(reject);
        }
        self.view = view;
        self.commit_to(commit_number);
        self.status = ReplicaStatus::Normal;
        self.last_normal = view;
        self.dvc_sent = false;
        if self.cfg.primary_of(view) != self.cfg.me {
            out.push((
                self.primary_node(),
                ReplicaMsg::PrepareOk {
                    view: self.view,
                    op_number: self.log.op_number(),
                    replica: self.cfg.me as u32,
                },
            ));
        }
        self.flush_pending(out);
        StateOutcome::Adopted
    }

    fn on_recovery(&mut self, replica: usize, nonce: u64, out: &mut Outbox) {
        if replica >= self.cfg.group.len() || replica == self.cfg.me {
            return;
        }
        let normal = self.status == ReplicaStatus::Normal;
        out.push((
            self.cfg.group[replica],
            ReplicaMsg::RecoveryResponse {
                view: self.view,
                nonce,
                commit_number: self.commit_number,
                log: Box::new(if normal { self.log.state() } else { LogState::default() }),
                normal,
                replica: self.cfg.me as u32,
            },
        ));
    }

    #[allow(clippy::too_many_arguments)]
    fn on_recovery_response(
        &mut self,
        view: u64,
        nonce: u64,
        commit_number: u64,
        log: LogState,
        normal: bool,
        replica: usize,
        out: &mut Outbox,
    ) -> StateOutcome {
        if nonce != self.nonce || replica >= self.rec_responded.len() || replica == self.cfg.me {
            return StateOutcome::Ignored;
        }
        // Only a normal responder's state is ever looked at, so only that
        // can be malformed; a rejected answer does not count as one.
        let op_number = match log.check(commit_number) {
            Ok(n) => n,
            Err(reject) if normal => return StateOutcome::Rejected(reject),
            Err(_) => 0,
        };
        self.rec_responded[replica] = true;
        self.catching_up = false;
        if normal
            && self.rec_best.as_ref().is_none_or(|b| (view, op_number) > (b.view, b.op_number))
        {
            self.rec_best = Some(DvcPayload {
                view,
                last_normal: view,
                commit_number,
                op_number,
                log: Some(log),
            });
        }
        let responded = self.rec_responded.iter().filter(|r| **r).count();
        let others = self.cfg.group.len() - 1;
        let recovering = self.status == ReplicaStatus::Recovering;
        let adopt = match &self.rec_best {
            // A normal member answered and, with us, a majority has spoken:
            // adopt its state (its log contains every committed op of any
            // view ≤ its own).
            Some(_) if recovering => responded + 1 >= self.cfg.quorum(),
            // Normal-status state transfer (we fell behind in our own view,
            // or missed a view change): adopt anything strictly ahead of us.
            Some(b) => {
                self.status == ReplicaStatus::Normal
                    && (b.view, b.op_number) > (self.view, self.log.op_number())
                    && b.commit_number >= self.commit_number
            }
            None => false,
        };
        if adopt {
            return self.adopt(out);
        }
        if recovering && self.rec_best.is_none() && responded == others {
            // Everybody answered and nobody holds state: this is a fresh
            // group boot. Start view 0 empty.
            self.status = ReplicaStatus::Normal;
            self.view = 0;
            self.last_normal = 0;
            self.flush_pending(out);
        }
        StateOutcome::Recorded
    }

    /// Adopts the best foreign normal state heard this probe round
    /// (recovery completion or normal-status state transfer).
    fn adopt(&mut self, out: &mut Outbox) -> StateOutcome {
        let Some(best) = self.rec_best.take() else {
            return StateOutcome::Ignored;
        };
        debug_assert!(best.commit_number >= self.commit_number);
        if let Err(reject) = self.install(best.log.expect("a foreign offer carries its log")) {
            return StateOutcome::Rejected(reject);
        }
        self.view = best.view;
        self.last_normal = best.view;
        self.commit_number = best.commit_number.min(self.log.op_number()).max(self.commit_number);
        self.status = ReplicaStatus::Normal;
        if self.cfg.primary_of(self.view) == self.cfg.me {
            // We recovered as the acting primary (e.g. a rebooted broker
            // whose group never elected past it): re-assert the view so
            // backups realign and re-ack.
            self.start_view(out);
        } else {
            out.push((
                self.primary_node(),
                ReplicaMsg::PrepareOk {
                    view: self.view,
                    op_number: self.log.op_number(),
                    replica: self.cfg.me as u32,
                },
            ));
        }
        self.flush_pending(out);
        StateOutcome::Adopted
    }

    /// Hands every committed-but-undrained op to `apply` **by value** and
    /// folds it into the log's live state — this is the one place `base`
    /// advances, so "drained" and "folded" are the same cursor and it never
    /// passes the commit number. A repair left by an adoption (the ops it
    /// skipped, as a state diff) goes first. The caller owns what "apply"
    /// means: the broker replica rebuilds its routing table, a log backup
    /// discards. Returns how many ops were handed out.
    pub fn drain_committed(&mut self, mut apply: impl FnMut(BrokerOp)) -> u64 {
        let mut drained = self.repair.len() as u64;
        self.repair.drain(..).for_each(&mut apply);
        // Model-checker fault injection: fold whatever the log holds,
        // committed or not. A view change may still discard an uncommitted
        // op; once it sits in the checkpoint, nothing can take it out again
        // (`checkpoint_past_commit` twin in crates/verify/tests/replication.rs).
        let limit = if rebeca_verify::inject::enabled("checkpoint_past_commit") {
            self.log.op_number()
        } else {
            self.commit_number
        };
        while self.log.base() < limit {
            apply(self.log.fold_next().expect("the commit number is bounded by the log"));
            self.ops_folded += 1;
            drained += 1;
        }
        drained
    }
}

#[cfg(all(test, not(rebeca_verify)))]
mod tests {
    use super::*;
    use rebeca_core::{ClientId, Filter, Subscription, SubscriptionId};

    fn group3() -> Vec<Replica> {
        let nodes: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        (0..3).map(|me| Replica::new(ReplicaConfig { group: nodes.clone(), me })).collect()
    }

    fn op(i: u32) -> BrokerOp {
        BrokerOp::ClientAttach { client: ClientId::new(i), node: NodeId::new(10 + i) }
    }

    /// Delivers every queued message until the group quiesces; returns
    /// what was delivered, in order.
    fn pump(replicas: &mut [Replica], outboxes: &mut [Outbox]) -> Vec<ReplicaMsg> {
        let mut delivered = Vec::new();
        loop {
            let mut moved = false;
            for i in 0..replicas.len() {
                let msgs = std::mem::take(&mut outboxes[i]);
                let from = replicas[i].me_node();
                for (to, msg) in msgs {
                    moved = true;
                    // Addresses outside the slice model dead peers: the
                    // runtime drops sends on downed links the same way.
                    let Some(dest) = replicas.iter().position(|r| r.me_node() == to) else {
                        continue;
                    };
                    delivered.push(msg.clone());
                    let mut out = std::mem::take(&mut outboxes[dest]);
                    replicas[dest].on_msg(from, msg, &mut out);
                    outboxes[dest] = out;
                }
            }
            if !moved {
                return delivered;
            }
        }
    }

    /// Removes and returns the messages queued for `to`, in order.
    fn take_to(out: &mut Outbox, to: NodeId) -> Vec<ReplicaMsg> {
        let (hit, rest) = std::mem::take(out).into_iter().partition(|(t, _)| *t == to);
        *out = rest;
        hit.into_iter().map(|(_, m)| m).collect()
    }

    /// `(first op number, batch length, piggybacked commit)` of a `Prepare`.
    fn batch(m: &ReplicaMsg) -> (u64, usize, u64) {
        match m {
            ReplicaMsg::Prepare { op_number, commit_number, ops, .. } => {
                (*op_number, ops.len(), *commit_number)
            }
            other => panic!("not a Prepare: {other:?}"),
        }
    }

    fn prepare(view: u64, first: u32, len: u32) -> ReplicaMsg {
        ReplicaMsg::Prepare {
            view,
            op_number: u64::from(first),
            commit_number: 0,
            ops: (first..first + len).map(op).collect(),
        }
    }

    fn boot(replicas: &mut [Replica], outboxes: &mut [Outbox]) {
        for (r, out) in replicas.iter_mut().zip(outboxes.iter_mut()) {
            r.start(out);
        }
        pump(replicas, outboxes);
    }

    #[test]
    fn group_of_one_commits_immediately() {
        let mut r = Replica::new(ReplicaConfig { group: vec![NodeId::new(0)], me: 0 });
        let mut out = Outbox::new();
        assert_eq!(r.status(), ReplicaStatus::Normal);
        r.submit([op(1)], &mut out);
        assert!(out.is_empty(), "nobody to talk to");
        assert_eq!(r.commit_number(), 1);
        let mut applied = Vec::new();
        r.drain_committed(|o| applied.push(o));
        assert_eq!(applied, vec![op(1)]);
    }

    #[test]
    fn fresh_group_boots_normal_and_replicates() {
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        boot(&mut rs, &mut outs);
        for r in &rs {
            assert_eq!(r.status(), ReplicaStatus::Normal, "fresh boot goes normal at view 0");
            assert_eq!(r.view(), 0);
        }
        assert!(rs[0].is_primary());

        rs[0].submit([op(1)], &mut outs[0]);
        rs[0].submit([op(2)], &mut outs[0]);
        pump(&mut rs, &mut outs);
        for r in &rs {
            assert_eq!(r.op_number(), 2);
            assert_eq!(r.commit_number(), 2, "quorum of PrepareOks commits");
        }
    }

    #[test]
    fn backup_forwards_to_primary() {
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        boot(&mut rs, &mut outs);
        rs[1].submit([op(7)], &mut outs[1]);
        pump(&mut rs, &mut outs);
        assert_eq!(rs[0].commit_number(), 1);
        assert_eq!(rs[0].log().get(1), Some(&op(7)));
    }

    #[test]
    fn primary_death_elects_the_next_view_and_keeps_committed_ops() {
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        boot(&mut rs, &mut outs);
        rs[0].submit([op(1)], &mut outs[0]);
        pump(&mut rs, &mut outs);
        assert_eq!(rs[2].commit_number(), 1);

        // The primary's process dies; 1 and 2 are told by the supervisor.
        rs[1].on_peer_change(NodeId::new(0), false, &mut outs[1]);
        rs[2].on_peer_change(NodeId::new(0), false, &mut outs[2]);
        // Its links are down: deliveries to node 0 would be dropped. Keep
        // them queued (pump only targets live members) by draining 0's
        // inbox messages nowhere: simplest is to delete them.
        let mut rs_live = rs.split_off(1);
        for out in &mut outs {
            out.retain(|(to, _)| to.raw() != 0);
        }
        pump(&mut rs_live, &mut outs[1..]);
        assert_eq!(rs_live[0].view(), 1);
        assert!(rs_live[0].is_primary(), "member 1 is the primary of view 1");
        assert_eq!(rs_live[1].view(), 1);
        assert!(!rs_live[1].is_primary());
        assert_eq!(rs_live[0].commit_number(), 1, "committed op survives the view change");
        assert_eq!(rs_live[0].log().get(1), Some(&op(1)));

        // The new primary keeps serving.
        rs_live[0].submit([op(2)], &mut outs[1]);
        for out in &mut outs {
            out.retain(|(to, _)| to.raw() != 0);
        }
        pump(&mut rs_live, &mut outs[1..]);
        assert_eq!(rs_live[0].commit_number(), 2);
        assert_eq!(rs_live[1].commit_number(), 2);
    }

    #[test]
    fn reboot_recovers_state_without_resubscription() {
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        boot(&mut rs, &mut outs);
        rs[0].submit([op(1)], &mut outs[0]);
        rs[0].submit([op(2)], &mut outs[0]);
        pump(&mut rs, &mut outs);

        // Member 0 (the primary) is SIGKILLed and respawns empty.
        let cfg = rs[0].config().clone();
        rs[0] = Replica::new(cfg);
        outs[0].clear();
        assert_eq!(rs[0].status(), ReplicaStatus::Recovering);
        rs[0].start(&mut outs[0]);
        pump(&mut rs, &mut outs);

        assert_eq!(rs[0].status(), ReplicaStatus::Normal);
        assert_eq!(rs[0].op_number(), 2, "log recovered from the group");
        assert_eq!(rs[0].commit_number(), 2);
        let mut applied = Vec::new();
        rs[0].drain_committed(|o| applied.push(o));
        assert_eq!(applied, vec![op(1), op(2)], "nobody had folded: the tail is the whole log");
        assert!(rs[0].is_primary(), "nobody elected past it, so it resumes as primary");
    }

    #[test]
    fn ops_submitted_while_recovering_queue_and_flush() {
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        // Submit before the probe round completes: must queue.
        rs[0].submit([op(5)], &mut outs[0]);
        assert_eq!(rs[0].pending_len(), 1);
        boot(&mut rs, &mut outs);
        pump(&mut rs, &mut outs);
        assert_eq!(rs[0].pending_len(), 0);
        assert_eq!(rs[1].commit_number(), 1, "queued op commits after boot");
        assert_eq!(rs[1].log().get(1), Some(&op(5)));
    }

    /// A backlog queued while recovering is submitted as one batch: n ops
    /// leave as ⌈n / MAX_BATCH_OPS⌉ `Prepare`s, not one per op.
    #[test]
    fn pending_ops_leave_in_full_batches() {
        let n = 2 * MAX_BATCH_OPS + 88;
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        for i in 0..n as u32 {
            rs[0].submit([op(i)], &mut outs[0]);
        }
        assert_eq!(rs[0].pending_len(), n);
        boot(&mut rs, &mut outs);
        assert_eq!(rs[0].pending_len(), 0);
        assert_eq!(rs[0].prepares_sent(), n.div_ceil(MAX_BATCH_OPS) as u64);
        for r in &rs {
            assert_eq!(r.commit_number(), n as u64, "the whole backlog commits");
        }
    }

    #[test]
    fn stale_prepare_is_rejected_after_a_view_change() {
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        boot(&mut rs, &mut outs);
        // Move 1 and 2 to view 1 behind 0's back.
        rs[1].on_peer_change(NodeId::new(0), false, &mut outs[1]);
        rs[2].on_peer_change(NodeId::new(0), false, &mut outs[2]);
        let mut live = rs.split_off(1);
        for out in &mut outs {
            out.retain(|(to, _)| to.raw() != 0);
        }
        pump(&mut live, &mut outs[1..]);
        assert_eq!(live[1].view(), 1);

        // The deposed primary of view 0 gasps a Prepare.
        let before = live[1].op_number();
        live[1].on_msg(
            NodeId::new(0),
            ReplicaMsg::Prepare {
                view: 0,
                op_number: before + 1,
                commit_number: 0,
                ops: vec![op(9)],
            },
            &mut outs[2],
        );
        assert_eq!(live[1].op_number(), before, "stale-view Prepare must not append");
    }

    /// PR 12 finding 1: backups still Recovering drop the primary's first
    /// `Prepare`s; the tick must re-send them or the group wedges until the
    /// next submit.
    #[test]
    fn tick_resends_prepares_the_backups_dropped() {
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        boot(&mut rs, &mut outs);
        rs[0].submit([op(1)], &mut outs[0]);
        rs[0].submit([op(2)], &mut outs[0]);
        assert_eq!(outs[0].len(), 4, "an idle group's ops leave at once: two batches of one");
        outs[0].clear(); // lost on the way
        pump(&mut rs, &mut outs);
        assert_eq!(rs[0].commit_number(), 0, "nothing acknowledged, nothing committed");

        rs[0].tick(&mut outs[0]);
        for backup in [1, 2] {
            let resent: Vec<_> = outs[0]
                .iter()
                .filter(|(to, m)| {
                    *to == NodeId::new(backup) && matches!(m, ReplicaMsg::Prepare { .. })
                })
                .map(|(_, m)| batch(m))
                .collect();
            assert_eq!(resent, [(1, 2, 0)], "the uncommitted suffix, one message per backup");
        }
        pump(&mut rs, &mut outs);
        assert_eq!(rs[0].commit_number(), 2, "one tick, no further submit");
        for r in &rs[1..] {
            assert_eq!(r.op_number(), 2);
        }
        // While commits advance, a tick only heartbeats: ops in flight are
        // not re-sent until a whole tick passes without progress.
        rs[0].submit([op(3)], &mut outs[0]);
        outs[0].clear(); // lost again
        rs[0].tick(&mut outs[0]);
        assert!(outs[0].iter().all(|(_, m)| matches!(m, ReplicaMsg::Commit { .. })));
        pump(&mut rs, &mut outs);
        for r in &rs {
            assert_eq!(r.commit_number(), 2, "the heartbeat carries the commit number");
        }
        rs[0].tick(&mut outs[0]);
        pump(&mut rs, &mut outs);
        assert_eq!(rs[0].commit_number(), 3, "stalled for a tick: re-sent and committed");
    }

    /// PR 12 finding 2: a burst of gapped batches starts one catch-up
    /// round, not one per message — each new round used to disown the
    /// answer to the previous one.
    #[test]
    fn gapped_batches_start_one_state_transfer() {
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        boot(&mut rs, &mut outs);
        for i in 1..=11 {
            rs[0].submit([op(i)], &mut outs[0]);
        }
        // Backup 1 loses everything the primary sent it so far, then sees
        // ten batches that all start beyond its (empty) log.
        take_to(&mut outs[0], NodeId::new(1));
        for first in 2..=11 {
            rs[1].on_msg(NodeId::new(0), prepare(0, first, 1), &mut outs[1]);
        }
        let probes =
            outs[1].iter().filter(|(_, m)| matches!(m, ReplicaMsg::Recovery { .. })).count();
        assert_eq!(probes, 1, "ten gapped batches, one probe: {:?}", outs[1]);
        assert_eq!(outs[1].len(), 1, "and nothing acknowledged meanwhile");
        assert_eq!(rs[1].op_number(), 0, "and nothing appended: no hole in the log");

        pump(&mut rs, &mut outs);
        assert_eq!(rs[1].op_number(), 11, "the answer is adopted");
        assert_eq!(rs[0].commit_number(), 11);

        // A later gap may ask again.
        rs[0].submit([op(12)], &mut outs[0]);
        rs[0].submit([op(13)], &mut outs[0]);
        let late = take_to(&mut outs[0], NodeId::new(1));
        assert_eq!(late.len(), 2, "the window is open: two batches of one");
        rs[1].on_msg(NodeId::new(0), late[1].clone(), &mut outs[1]);
        assert!(matches!(outs[1][..], [(_, ReplicaMsg::Recovery { .. })]));
    }

    /// The window: a burst leaves as `PREPARE_WINDOW` batches at once, the
    /// rest waits for an acknowledgement and then travels as one message;
    /// the commit number rides on it, and the one explicit `Commit` leaves
    /// when the pipeline drains.
    #[test]
    fn burst_ships_a_window_then_the_rest_in_one_batch() {
        const N: u32 = 60;
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        boot(&mut rs, &mut outs);
        for i in 1..=N {
            rs[0].submit([op(i)], &mut outs[0]);
        }
        let w = PREPARE_WINDOW as u64;
        for backup in [1, 2] {
            let sent: Vec<_> = outs[0]
                .iter()
                .filter(|(to, _)| *to == NodeId::new(backup))
                .map(|(_, m)| batch(m))
                .collect();
            let want: Vec<_> = (1..=w).map(|n| (n, 1, 0)).collect();
            assert_eq!(sent, want, "a window of single-op batches, then silence");
        }
        assert_eq!(rs[0].prepares_sent(), w);

        // One acknowledgement of the first batch opens one slot.
        let first = take_to(&mut outs[0], NodeId::new(1)).remove(0);
        rs[1].on_msg(NodeId::new(0), first, &mut outs[1]);
        let ack = take_to(&mut outs[1], NodeId::new(0)).remove(0);
        let before = outs[0].len();
        rs[0].on_msg(NodeId::new(1), ack, &mut outs[0]);
        let step: Vec<_> = outs[0][before..].iter().map(|(_, m)| batch(m)).collect();
        let rest = (w + 1, (u64::from(N) - w) as usize, 1);
        assert_eq!(step, [rest, rest], "the rest in one batch per backup, carrying the commit");
        assert_eq!(rs[0].prepares_sent(), w + 1);

        // Backup 1 lost batches 2..=w above; backup 2 carries the quorum.
        let delivered = pump(&mut rs, &mut outs);
        let commits: Vec<_> =
            delivered.iter().filter(|m| matches!(m, ReplicaMsg::Commit { .. })).collect();
        let drained = ReplicaMsg::Commit { view: 0, commit_number: u64::from(N) };
        assert_eq!(commits, [&drained, &drained], "one broadcast, when the pipeline drains");
        assert_eq!(rs[0].commit_number(), u64::from(N));
        assert_eq!(rs[2].commit_number(), u64::from(N));
        assert_eq!(rs[2].log(), rs[0].log());
    }

    #[test]
    fn a_batch_never_exceeds_the_cap() {
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        boot(&mut rs, &mut outs);
        let n = (PREPARE_WINDOW + MAX_BATCH_OPS + 10) as u32;
        for i in 1..=n {
            rs[0].submit([op(i)], &mut outs[0]);
        }
        let delivered = pump(&mut rs, &mut outs);
        let longest = delivered
            .iter()
            .filter(|m| matches!(m, ReplicaMsg::Prepare { .. }))
            .map(|m| batch(m).1)
            .max();
        assert_eq!(longest, Some(MAX_BATCH_OPS));
        for r in &rs {
            assert_eq!(r.commit_number(), u64::from(n), "every op commits all the same");
        }
    }

    /// A backup holding ops 1..=3 of view 0, ready for hand-made batches.
    fn backup_with_three() -> (Replica, Outbox) {
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        boot(&mut rs, &mut outs);
        for i in 1..=3 {
            rs[0].submit([op(i)], &mut outs[0]);
        }
        pump(&mut rs, &mut outs);
        (rs.remove(1), Outbox::new())
    }

    fn offer(r: &mut Replica, out: &mut Outbox, m: ReplicaMsg) -> PrepareOutcome {
        let ReplicaMsg::Prepare { view, op_number, commit_number, ops } = m else {
            panic!("not a Prepare");
        };
        r.on_prepare(NodeId::new(0), view, op_number, commit_number, ops, out)
    }

    #[test]
    fn malformed_batches_are_dropped_whole() {
        let (mut r, mut out) = backup_with_three();
        let hostile = [
            ReplicaMsg::Prepare { view: 0, op_number: 0, commit_number: 0, ops: vec![op(9)] },
            ReplicaMsg::Prepare { view: 0, op_number: 4, commit_number: 0, ops: Vec::new() },
            ReplicaMsg::Prepare {
                view: 0,
                op_number: u64::MAX,
                commit_number: 0,
                ops: vec![op(9), op(10)],
            },
            prepare(0, 4, MAX_BATCH_OPS as u32 + 1),
        ];
        for m in hostile {
            assert_eq!(offer(&mut r, &mut out, m.clone()), PrepareOutcome::Malformed, "{m:?}");
        }
        assert_eq!(r.op_number(), 3, "nothing appended");
        assert!(out.is_empty(), "nothing acknowledged, no probe");
        // The cap itself is fine.
        let full = prepare(0, 4, MAX_BATCH_OPS as u32);
        assert_eq!(offer(&mut r, &mut out, full), PrepareOutcome::Acked(MAX_BATCH_OPS));
    }

    #[test]
    fn an_overlapping_batch_appends_only_its_new_suffix() {
        let (mut r, mut out) = backup_with_three();
        assert_eq!(offer(&mut r, &mut out, prepare(0, 2, 4)), PrepareOutcome::Acked(2));
        assert_eq!(r.op_number(), 5);
        let want: Vec<_> = (1..=5).map(op).collect();
        assert_eq!(r.log().range(1, 5), &want[..], "each op under its own number");
        // A pure duplicate appends nothing; both are acknowledged cumulatively.
        assert_eq!(offer(&mut r, &mut out, prepare(0, 1, 3)), PrepareOutcome::Acked(0));
        let ack = ReplicaMsg::PrepareOk { view: 0, op_number: 5, replica: 1 };
        assert_eq!(out, [(NodeId::new(0), ack.clone()), (NodeId::new(0), ack)]);
    }

    #[test]
    fn stale_gapped_and_unserved_batches_have_their_own_outcomes() {
        let (mut r, mut out) = backup_with_three();
        assert_eq!(offer(&mut r, &mut out, prepare(0, 5, 2)), PrepareOutcome::Behind);
        assert!(matches!(out[..], [(_, ReplicaMsg::Recovery { .. })]), "a gap probes: {out:?}");
        assert_eq!(offer(&mut r, &mut out, prepare(1, 4, 1)), PrepareOutcome::Behind);
        assert_eq!(out.len(), 1, "a newer view too, but one probe is in flight already");
        r.on_peer_change(NodeId::new(0), false, &mut out);
        assert_eq!(r.view(), 1);
        assert_eq!(offer(&mut r, &mut out, prepare(0, 4, 1)), PrepareOutcome::StaleView);
        assert_eq!(offer(&mut r, &mut out, prepare(1, 4, 1)), PrepareOutcome::NotServing);
        assert_eq!(r.op_number(), 3);

        let mut fresh = Replica::new(r.config().clone());
        assert_eq!(offer(&mut fresh, &mut out, prepare(0, 1, 1)), PrepareOutcome::NotServing);
    }

    /// An acknowledgement beyond the primary's log (hostile or confused)
    /// commits nothing that is not there.
    #[test]
    fn commit_is_the_quorum_th_highest_ack_bounded_by_the_log() {
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        boot(&mut rs, &mut outs);
        for i in 1..=3 {
            rs[0].submit([op(i)], &mut outs[0]);
        }
        outs[0].clear();
        let ok = |op_number, replica| ReplicaMsg::PrepareOk { view: 0, op_number, replica };
        rs[0].on_msg(NodeId::new(1), ok(2, 1), &mut outs[0]);
        assert_eq!(rs[0].commit_number(), 2, "primary and backup 1 hold 1..=2");
        rs[0].on_msg(NodeId::new(2), ok(1, 2), &mut outs[0]);
        assert_eq!(rs[0].commit_number(), 2, "a lower ack changes nothing");
        rs[0].on_msg(NodeId::new(2), ok(u64::MAX, 2), &mut outs[0]);
        assert_eq!(rs[0].commit_number(), 3, "never past the log");
        rs[0].tick(&mut outs[0]);
        rs[0].tick(&mut outs[0]); // a stalled tick walks the acks: no overflow
    }

    /// The primary dies with a window in flight: some batches reached both
    /// backups, one reached a single backup, the rest nobody. The new
    /// primary adopts the longest log, re-commits what was uncommitted, and
    /// sends on from the adopted log end.
    #[test]
    fn view_change_mid_window_keeps_committed_ops() {
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        boot(&mut rs, &mut outs);
        for i in 1..=10 {
            rs[0].submit([op(i)], &mut outs[0]);
        }
        let to_1 = take_to(&mut outs[0], NodeId::new(1));
        let to_2 = take_to(&mut outs[0], NodeId::new(2));
        for m in &to_1[..2] {
            rs[1].on_msg(NodeId::new(0), m.clone(), &mut outs[1]);
        }
        for m in &to_2[..3] {
            rs[2].on_msg(NodeId::new(0), m.clone(), &mut outs[2]);
        }
        for ack in take_to(&mut outs[1], NodeId::new(0)) {
            rs[0].on_msg(NodeId::new(1), ack, &mut outs[0]);
        }
        assert_eq!(rs[0].commit_number(), 2, "ops 1 and 2 are committed at the primary");
        assert_eq!(rs[0].op_number(), 10);

        // The primary dies; what it still had queued (the batch 5..=10
        // among it) and backup 2's acknowledgements go nowhere.
        let mut live = rs.split_off(1);
        outs[2].clear();
        live[0].on_peer_change(NodeId::new(0), false, &mut outs[1]);
        live[1].on_peer_change(NodeId::new(0), false, &mut outs[2]);
        pump(&mut live, &mut outs[1..]);
        assert!(live[0].is_primary());
        for r in &live {
            assert_eq!(r.view(), 1);
            assert_eq!(r.commit_number(), 3, "the adopted suffix is re-committed");
            assert_eq!(r.log().range(1, 3), &[op(1), op(2), op(3)]);
        }

        live[0].submit([op(11)], &mut outs[1]);
        let sent = take_to(&mut outs[1], NodeId::new(2));
        assert_eq!(sent.iter().map(batch).collect::<Vec<_>>(), [(4, 1, 3)], "no re-send of 1..=3");
        live[1].on_msg(NodeId::new(1), sent[0].clone(), &mut outs[2]);
        pump(&mut live, &mut outs[1..]);
        assert_eq!(live[0].commit_number(), 4);
        assert_eq!(live[1].log(), live[0].log());
    }

    fn sub(id: u32, v: i64) -> BrokerOp {
        let filter = Filter::builder().eq("k", v).build();
        let subscription = Subscription::new(SubscriptionId::new(id), ClientId::new(7), filter);
        BrokerOp::Subscribe { node: NodeId::new(70), subscription }
    }

    fn unsub(id: u32) -> BrokerOp {
        BrokerOp::Unsubscribe { client: ClientId::new(7), id: SubscriptionId::new(id) }
    }

    fn drain(r: &mut Replica) -> Vec<BrokerOp> {
        let mut ops = Vec::new();
        r.drain_committed(|o| ops.push(o));
        ops
    }

    /// Re-subscription cycles over two live subscriptions: the history
    /// grows, the live state does not.
    fn churn(rs: &mut [Replica], outs: &mut [Outbox], cycles: std::ops::Range<u32>) {
        for i in cycles {
            rs[0].submit([sub(i + 2, i64::from(i))], &mut outs[0]);
            rs[0].submit([unsub(i)], &mut outs[0]);
            pump(rs, outs);
        }
    }

    /// Draining is folding: resident ops follow the live table, op numbers
    /// keep counting, and `Prepare`s never need what was folded.
    #[test]
    fn draining_folds_and_the_log_stops_growing() {
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        boot(&mut rs, &mut outs);
        rs[0].submit([sub(0, -2)], &mut outs[0]);
        rs[0].submit([sub(1, -1)], &mut outs[0]);
        for round in 1..=3u32 {
            churn(&mut rs, &mut outs, (round - 1) * 50..round * 50);
            for r in &mut rs {
                r.drain_committed(drop);
                assert_eq!(r.op_number(), 2 + 100 * u64::from(round));
                assert_eq!(r.log().base(), r.commit_number(), "drained is folded");
                assert_eq!(r.log().live().len(), 3, "one client, two subscriptions");
                assert_eq!(r.log().resident(), 3, "the live entries, an empty tail");
            }
        }
        assert_eq!(rs[1].ops_folded(), rs[1].commit_number());
        assert_eq!(rs[0].log().live(), rs[2].log().live());
    }

    /// Members at three different bases go through a view change: the new
    /// primary adopts the furthest log, a member that had folded less gets
    /// the difference as a repair, one that had folded more keeps its
    /// checkpoint — and all three end in the same state.
    #[test]
    fn view_change_across_different_bases_converges() {
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        boot(&mut rs, &mut outs);
        rs[0].submit([sub(0, -2)], &mut outs[0]);
        rs[0].submit([sub(1, -1)], &mut outs[0]);
        churn(&mut rs, &mut outs, 0..10);
        // Member 2 folds now, member 1 never did; ten more cycles, which
        // only member 2 then folds half of.
        drain(&mut rs[2]);
        churn(&mut rs, &mut outs, 10..20);
        let commit = rs[1].commit_number();
        assert_eq!(commit, 42);
        let mut seen_by_2 = Vec::new();
        rs[2].commit_number = 32;
        seen_by_2.extend(drain(&mut rs[2]));
        rs[2].commit_number = commit;
        assert_eq!((rs[1].log().base(), rs[2].log().base()), (0, 32));

        let mut live = rs.split_off(1);
        live[0].on_peer_change(NodeId::new(0), false, &mut outs[1]);
        live[1].on_peer_change(NodeId::new(0), false, &mut outs[2]);
        let delivered = pump(&mut live, &mut outs[1..]);
        assert!(live[0].is_primary());
        // Equal (last_normal, op_number): the later offer wins, so the new
        // primary adopted member 2's state and was handed the repair.
        let start_view = delivered
            .iter()
            .find_map(|m| {
                if let ReplicaMsg::StartView { log, .. } = m {
                    return Some(log.clone());
                }
                None
            })
            .expect("a StartView went out");
        assert_eq!(start_view.base, 32);
        assert_eq!(start_view.tail.len(), 10);
        assert_eq!(start_view.checkpoint.len(), 3, "the live table, not 32 ops");
        let repaired = drain(&mut live[0]);
        assert_eq!(repaired.len(), 3 + 10, "the checkpoint as adds, then the tail");
        drain(&mut live[1]);
        assert_eq!(live[0].log(), live[1].log());
        assert_eq!(live[0].log().base(), commit);

        // The old primary comes back with a base of its own and adopts the
        // new view's state without losing or repeating anything.
        let mut old = rs.remove(0);
        old.commit_number = 20;
        drain(&mut old);
        old.commit_number = commit;
        live[0].submit([sub(99, 99)], &mut outs[1]);
        live.insert(0, old);
        outs[0].clear();
        pump(&mut live, &mut outs);
        for r in &mut live {
            drain(r);
        }
        assert_eq!(live[0].view(), 1, "the Prepare of view 1 triggered a state transfer");
        assert_eq!(live[0].log(), live[1].log());
        assert_eq!(live[2].log(), live[1].log());
        assert_eq!(live[0].log().live().len(), 4);
    }

    /// A respawned member recovers from a group that has folded: what its
    /// broker is handed is the live table as adds plus the tail, not every
    /// op that ever ran.
    #[test]
    fn fresh_member_recovers_from_a_folded_group() {
        let mut rs = group3();
        let mut outs = vec![Outbox::new(), Outbox::new(), Outbox::new()];
        boot(&mut rs, &mut outs);
        rs[0].submit([sub(0, -2)], &mut outs[0]);
        rs[0].submit([sub(1, -1)], &mut outs[0]);
        churn(&mut rs, &mut outs, 0..200);
        rs.iter_mut().for_each(|r| {
            drain(r);
        });
        let want = rs[1].log().clone();
        assert_eq!(want.base(), 402);

        rs[0] = Replica::new(rs[0].config().clone());
        outs[0].clear();
        rs[0].start(&mut outs[0]);
        let delivered = pump(&mut rs, &mut outs);
        let shipped: Vec<usize> = delivered
            .iter()
            .filter_map(|m| {
                if let ReplicaMsg::RecoveryResponse { log, .. }
                | ReplicaMsg::StartView { log, .. } = m
                {
                    return Some(log.checkpoint.len() + log.tail.len());
                }
                None
            })
            .collect();
        assert!(!shipped.is_empty() && shipped.iter().all(|&n| n == 3), "{shipped:?}");
        assert_eq!(rs[0].status(), ReplicaStatus::Normal);
        assert_eq!((rs[0].op_number(), rs[0].commit_number()), (402, 402));
        assert_eq!(drain(&mut rs[0]), want.live().checkpoint(), "the table, as three adds");
        assert_eq!(rs[0].log(), &want);
        assert!(rs[0].is_primary());
        rs[0].submit([sub(500, 5)], &mut outs[0]);
        pump(&mut rs, &mut outs);
        assert_eq!(rs[2].commit_number(), 403);
    }

    /// The four malformed shapes of a state, one `LogState` each, as seen
    /// by a member whose own checkpoint is at op 3.
    fn hostile_states() -> [(LogState, u64, StateReject); 4] {
        let adds = vec![op(1), op(2), op(3)];
        [
            (
                LogState { base: u64::MAX, checkpoint: adds.clone(), tail: vec![op(4)] },
                u64::MAX,
                StateReject::Overflow,
            ),
            (
                LogState { base: 4, checkpoint: vec![op(1), unsub(1)], tail: Vec::new() },
                4,
                StateReject::NotAnAdd,
            ),
            (
                LogState { base: 4, checkpoint: adds, tail: Vec::new() },
                3,
                StateReject::CommitBelowBase,
            ),
            (
                LogState { base: 1, checkpoint: vec![op(1)], tail: vec![op(2)] },
                3,
                StateReject::BehindCheckpoint,
            ),
        ]
    }

    #[test]
    fn hostile_start_views_are_rejected_by_name() {
        let (mut r, mut out) = backup_with_three();
        drain(&mut r);
        let before = r.log().clone();
        for (log, commit, reject) in hostile_states() {
            let got = r.on_start_view(1, commit, log.clone(), &mut out);
            assert_eq!(got, StateOutcome::Rejected(reject), "{log:?}");
            assert_eq!((r.view(), r.commit_number(), r.log()), (0, 3, &before), "nothing moved");
        }
        assert!(out.is_empty(), "nothing acknowledged");
        let honest = LogState { base: 0, checkpoint: Vec::new(), tail: vec![op(1), op(2), op(3)] };
        assert_eq!(
            r.on_start_view(0, 3, honest, &mut Outbox::new()),
            StateOutcome::Adopted,
            "an earlier base that reaches ours is fine: the checkpoint stays"
        );
        assert_eq!(r.log(), &before);
    }

    #[test]
    fn hostile_do_view_changes_are_rejected_by_name() {
        for (log, commit, reject) in hostile_states() {
            let (mut r, mut out) = backup_with_three();
            drain(&mut r);
            // Member 1 leads view 1; with member 2's vote its own offer is in.
            r.on_peer_change(NodeId::new(0), false, &mut out);
            r.on_msg(NodeId::new(2), ReplicaMsg::StartViewChange { view: 1, replica: 2 }, &mut out);
            let got = r.on_do_view_change(1, 5, commit, log.clone(), 2, &mut out);
            assert_eq!(got, StateOutcome::Rejected(reject), "{log:?}");
            assert_eq!(r.status(), ReplicaStatus::ViewChange, "no quorum formed from it");
            assert_eq!((r.log().base(), r.op_number()), (3, 3));
            // An honest offer from the same member completes the view change.
            let honest =
                LogState { base: 0, checkpoint: Vec::new(), tail: vec![op(1), op(2), op(3)] };
            assert_eq!(r.on_do_view_change(1, 0, 3, honest, 2, &mut out), StateOutcome::Adopted);
            assert!(r.is_primary());
        }
    }

    #[test]
    fn hostile_recovery_responses_are_rejected_by_name() {
        for (log, commit, reject) in hostile_states() {
            let (mut r, mut out) = backup_with_three();
            drain(&mut r);
            // A Prepare from a view we missed starts a state transfer.
            assert_eq!(offer(&mut r, &mut out, prepare(1, 4, 1)), PrepareOutcome::Behind);
            let nonce = r.nonce;
            let got = r.on_recovery_response(1, nonce, commit, log.clone(), true, 2, &mut out);
            assert_eq!(got, StateOutcome::Rejected(reject), "{log:?}");
            assert_eq!((r.view(), r.log().base(), r.op_number()), (0, 3, 3), "nothing moved");
            // The same numbers from a responder that claims no state are
            // never looked at.
            let got = r.on_recovery_response(1, nonce, commit, log, false, 0, &mut out);
            assert_eq!(got, StateOutcome::Recorded);
        }
    }

    /// Every message of every protocol crosses channels and action buffers
    /// by value; the rare whole-state messages box their log so that none
    /// of them outgrows a cache line for it.
    #[test]
    fn a_message_fits_a_cache_line() {
        assert!(std::mem::size_of::<crate::Message>() <= 64);
    }

    #[test]
    fn tick_retransmits_until_the_probe_answers() {
        let nodes: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let mut r = Replica::new(ReplicaConfig { group: nodes, me: 0 });
        let mut out = Outbox::new();
        r.start(&mut out);
        assert_eq!(out.len(), 2, "probes both peers");
        out.clear();
        r.tick(&mut out);
        assert_eq!(out.len(), 2, "unanswered probes retransmit");
        // One peer answers (not normal): only the other is re-probed.
        r.on_msg(
            NodeId::new(1),
            ReplicaMsg::RecoveryResponse {
                view: 0,
                nonce: 1,
                commit_number: 0,
                log: Box::default(),
                normal: false,
                replica: 1,
            },
            &mut out,
        );
        out.clear();
        r.tick(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, NodeId::new(2));
    }
}
