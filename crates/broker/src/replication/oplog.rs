//! The deterministic operation log a broker replica group agrees on, kept
//! as **checkpoint + tail**.
//!
//! Every mutation of a broker's state — routing-table churn (client
//! attach/detach, subscriptions, neighbour announcements) and the link
//! lifecycle markers — is a [`BrokerOp`].
//! The read path (match + route + fan-out) never appears here: replication
//! sits on the mutation path only, and applying the same op sequence to a
//! fresh [`BrokerCore`](crate::BrokerCore) rebuilds the identical routing
//! table, which is what lets a respawned broker process recover from its
//! replica group instead of waiting for every client to re-subscribe.
//!
//! Ops are **idempotent at the table level**: re-applying a `Subscribe`
//! with the same id/filter, or a `NeighborSubscribe` already announced,
//! yields an empty [`TableDelta`](crate::TableDelta). Recovery therefore
//! never needs exactly-once delivery — at-least-once replay converges.
//!
//! # Checkpoint + tail
//!
//! In the paper a location change *is* a re-subscription, so a log that
//! kept every op would grow with the distance its clients travelled. An
//! [`OpLog`] instead holds
//!
//! * `base` — the number of ops it no longer holds one by one,
//! * the [`LiveState`] at `base` — the *fold* of ops `1..=base`: clients by
//!   [`ClientId`], their subscriptions by `(ClientId, SubscriptionId)`,
//!   neighbour filters by `(NodeId, Filter::digest())`; retractions and
//!   `ClientDetach` delete keys, the link markers fold to nothing,
//! * the tail — ops `base + 1 ..= op_number`, as submitted.
//!
//! What is resident is bounded by the live table plus the uncommitted
//! window, however many ops ever ran.
//!
//! **Why the fold is sound.** The routing table a [`BrokerOp`] sequence
//! builds depends only on the last write per key: a `Subscribe` replaces
//! the filter under its id and re-points its client's node, a neighbour
//! filter is present or absent under its digest, a detach removes a client
//! with everything under it. The fold keeps exactly that, so applying
//! [`LiveState::checkpoint`] to a fresh core yields the table (and, the
//! announcers being functions of the filter multiset, the announcements)
//! the whole prefix would have — `checkpointed_replay_is_equivalent` in
//! `crates/broker/tests/oplog_checkpoint.rs` checks it for every cut point
//! of random histories under every strategy.
//!
//! **Why key order is a valid replay order.** The checkpoint lists every
//! `ClientAttach` (by client), then every `Subscribe` (by client, id), then
//! every `NeighborSubscribe` (by node, digest). It holds only adds with
//! distinct keys, and adds under distinct keys commute; the one dependency
//! — a subscription needs its client — is met by attaches going first (and
//! by `Subscribe` implying the attach anyway). Two histories that end in
//! the same state therefore yield `==` checkpoints.
//!
//! **Why folding needs no group-wide floor.** A member folds an op only
//! once it is committed *and* drained ([`Replica::drain_committed`] is the
//! one place `base` advances, and it stops at the commit number). A committed op is in the log of every
//! later view under the same number, so nobody ever needs it re-sent as a
//! `Prepare` (re-sends start above the commit number), and a member that
//! needs *everything* gets the checkpoint. No member waits for another
//! before it folds; a dead backup pins nothing.

use rebeca_core::{ClientId, Digest, Filter, Subscription, SubscriptionId};
use rebeca_net::NodeId;
use std::collections::{HashMap, VecDeque};

#[cfg(doc)]
use super::Replica;

/// One replicated broker mutation.
///
/// Ops carry the *origin node* of the mutation where the routing table
/// needs it (deliveries are addressed to the attaching node; neighbour
/// announcements are keyed by link), so replaying the log is independent
/// of who delivers it.
#[derive(Debug, Clone, PartialEq)]
pub enum BrokerOp {
    /// A client announced itself at this border broker.
    ClientAttach {
        /// The attaching client.
        client: ClientId,
        /// The node deliveries for this client are sent to.
        node: NodeId,
    },
    /// Orderly client detach: drop the client's entry and subscriptions.
    ClientDetach {
        /// The detaching client.
        client: ClientId,
    },
    /// A client subscription entered the routing table.
    Subscribe {
        /// The node the subscription arrived from (delivery address).
        node: NodeId,
        /// The subscription (filter + owner + id).
        subscription: Subscription,
    },
    /// A client subscription was revoked.
    Unsubscribe {
        /// The owning client.
        client: ClientId,
        /// The revoked subscription.
        id: SubscriptionId,
    },
    /// A neighbouring broker announced a filter on a link.
    NeighborSubscribe {
        /// The announcing neighbour's node.
        node: NodeId,
        /// The announced filter.
        filter: Filter,
    },
    /// A neighbouring broker retracted a filter.
    NeighborUnsubscribe {
        /// The retracting neighbour's node.
        node: NodeId,
        /// The retracted filter (matched by digest).
        filter: Filter,
    },
    /// A peer link came (back) up. Logged as a lifecycle marker — the
    /// routing table itself is link-state independent (send-time gating
    /// lives in the runtime), so applying this is a no-op.
    LinkUp {
        /// A node behind the affected peer link.
        node: NodeId,
    },
    /// A peer link went down (lifecycle marker, no-op on apply).
    LinkDown {
        /// A node behind the affected peer link.
        node: NodeId,
    },
}

/// The fold of a committed op prefix: what the ops built, keyed the way
/// the routing table keys it (see the module docs). Two prefixes that end
/// in the same table fold to `==` states.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LiveState {
    clients: HashMap<ClientId, LiveClient>,
    neighbors: HashMap<(NodeId, Digest), Filter>,
    /// Subscriptions summed over `clients`, so [`LiveState::len`] is O(1).
    subs: usize,
}

#[derive(Debug, Clone, PartialEq)]
struct LiveClient {
    node: NodeId,
    subs: HashMap<SubscriptionId, Filter>,
}

impl LiveState {
    /// Live entries: attached clients, their subscriptions and the
    /// neighbour filters.
    pub fn len(&self) -> usize {
        self.clients.len() + self.subs + self.neighbors.len()
    }

    /// `true` when nothing is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds one op in — by reference: a retraction costs no clone, an add
    /// clones its filter once (the state owns one, the routing table the
    /// other). Mirrors [`BrokerCore::apply`](crate::BrokerCore::apply) key
    /// for key.
    pub fn fold(&mut self, op: &BrokerOp) {
        match op {
            BrokerOp::ClientAttach { client, node } => {
                self.attach(*client, *node);
            }
            BrokerOp::ClientDetach { client } => {
                if let Some(gone) = self.clients.remove(client) {
                    self.subs -= gone.subs.len();
                }
            }
            BrokerOp::Subscribe { node, subscription } => {
                let filter = subscription.filter().clone();
                let fresh = self
                    .attach(subscription.client(), *node)
                    .subs
                    .insert(subscription.id(), filter);
                self.subs += usize::from(fresh.is_none());
            }
            BrokerOp::Unsubscribe { client, id } => {
                let gone = self.clients.get_mut(client).and_then(|c| c.subs.remove(id));
                self.subs -= usize::from(gone.is_some());
            }
            BrokerOp::NeighborSubscribe { node, filter } => {
                // As in the table, the first filter under a digest stays.
                self.neighbors.entry((*node, filter.digest())).or_insert_with(|| filter.clone());
            }
            BrokerOp::NeighborUnsubscribe { node, filter } => {
                self.neighbors.remove(&(*node, filter.digest()));
            }
            BrokerOp::LinkUp { .. } | BrokerOp::LinkDown { .. } => {}
        }
    }

    fn attach(&mut self, client: ClientId, node: NodeId) -> &mut LiveClient {
        let entry =
            self.clients.entry(client).or_insert_with(|| LiveClient { node, subs: HashMap::new() });
        entry.node = node;
        entry
    }

    /// The state as a minimal op sequence, in key order: applied to a
    /// fresh core it rebuilds the table this state describes.
    pub fn checkpoint(&self) -> Vec<BrokerOp> {
        LiveState::default().diff(self)
    }

    /// The ops that take a core from this state to `to`: retractions for
    /// the keys that vanished (detaches, unsubscribes, neighbour
    /// retractions), then the adds for the keys that are new or changed
    /// (attaches, subscribes, neighbour announcements), each group in key
    /// order.
    pub fn diff(&self, to: &LiveState) -> Vec<BrokerOp> {
        fn sorted<K: Ord + Copy, V>(m: &HashMap<K, V>) -> Vec<(K, &V)> {
            let mut v: Vec<(K, &V)> = m.iter().map(|(k, v)| (*k, v)).collect();
            v.sort_unstable_by_key(|(k, _)| *k);
            v
        }
        let (from_clients, to_clients) = (sorted(&self.clients), sorted(&to.clients));
        let (from_nbs, to_nbs) = (sorted(&self.neighbors), sorted(&to.neighbors));
        let mut ops = Vec::new();

        for &(client, _) in &from_clients {
            if !to.clients.contains_key(&client) {
                ops.push(BrokerOp::ClientDetach { client });
            }
        }
        for &(client, old) in &from_clients {
            let Some(new) = to.clients.get(&client) else { continue };
            for (id, _) in sorted(&old.subs) {
                if !new.subs.contains_key(&id) {
                    ops.push(BrokerOp::Unsubscribe { client, id });
                }
            }
        }
        for &((node, digest), filter) in &from_nbs {
            if !to.neighbors.contains_key(&(node, digest)) {
                ops.push(BrokerOp::NeighborUnsubscribe { node, filter: filter.clone() });
            }
        }

        for &(client, new) in &to_clients {
            if self.clients.get(&client).is_none_or(|old| old.node != new.node) {
                ops.push(BrokerOp::ClientAttach { client, node: new.node });
            }
        }
        for &(client, new) in &to_clients {
            let old = self.clients.get(&client);
            for (id, filter) in sorted(&new.subs) {
                if old.and_then(|o| o.subs.get(&id)) != Some(filter) {
                    let subscription = Subscription::new(id, client, filter.clone());
                    ops.push(BrokerOp::Subscribe { node: new.node, subscription });
                }
            }
        }
        for &((node, digest), filter) in &to_nbs {
            if !self.neighbors.contains_key(&(node, digest)) {
                ops.push(BrokerOp::NeighborSubscribe { node, filter: filter.clone() });
            }
        }
        ops
    }
}

/// Why a whole-state message, or the state inside it, was refused — every
/// hostile or edge shape has a name here instead of a panic or a hole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateReject {
    /// `base + tail.len()` does not fit a `u64`.
    Overflow,
    /// The checkpoint holds a retraction or a link marker: a checkpoint is
    /// adds only.
    NotAnAdd,
    /// The sender's commit number is below its own `base` — it claims to
    /// have folded what it never saw committed.
    CommitBelowBase,
    /// The state ends below the receiver's own checkpoint: adopting it
    /// would un-fold committed ops.
    BehindCheckpoint,
}

/// An [`OpLog`] as the whole-state messages (`DoViewChange`, `StartView`,
/// `RecoveryResponse`) carry it: proportional to the live table, not to
/// the history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogState {
    /// Ops folded into `checkpoint`.
    pub base: u64,
    /// [`LiveState::checkpoint`] at `base`: adds only, in key order.
    pub checkpoint: Vec<BrokerOp>,
    /// Ops `base + 1 ..`, as submitted.
    pub tail: Vec<BrokerOp>,
}

impl LogState {
    /// The highest op number the state holds, if it fits a `u64`.
    fn op_number(&self) -> Result<u64, StateReject> {
        self.base.checked_add(self.tail.len() as u64).ok_or(StateReject::Overflow)
    }

    /// The highest op number the state holds, or why the state cannot be
    /// trusted: the receiving side of every whole-state message calls this
    /// before anything else looks at the state.
    pub fn check(&self, commit_number: u64) -> Result<u64, StateReject> {
        let end = self.op_number()?;
        let adds_only = self.checkpoint.iter().all(|op| {
            matches!(
                op,
                BrokerOp::ClientAttach { .. }
                    | BrokerOp::Subscribe { .. }
                    | BrokerOp::NeighborSubscribe { .. }
            )
        });
        if !adds_only {
            return Err(StateReject::NotAnAdd);
        }
        if commit_number < self.base {
            return Err(StateReject::CommitBelowBase);
        }
        Ok(end)
    }
}

/// The replicated operation log as checkpoint + tail (see the module
/// docs). Op numbers are 1-based, matching the VR literature: op `n` is
/// the `n`-th op ever logged, and only ops above `base` can still be read
/// one by one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpLog {
    base: u64,
    live: LiveState,
    tail: VecDeque<BrokerOp>,
}

impl OpLog {
    /// An empty log.
    pub fn new() -> OpLog {
        OpLog::default()
    }

    /// The highest op number in the log — the one number every comparison
    /// of log lengths goes through.
    pub fn op_number(&self) -> u64 {
        self.base + self.tail.len() as u64
    }

    /// How many ops are folded into the live state.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The fold of ops `1..=base`.
    pub fn live(&self) -> &LiveState {
        &self.live
    }

    /// What the log keeps resident: live entries plus tail ops.
    pub fn resident(&self) -> usize {
        self.live.len() + self.tail.len()
    }

    /// The op with 1-based number `n`, if it is still in the tail.
    pub fn get(&self, n: u64) -> Option<&BrokerOp> {
        self.tail.get(n.checked_sub(self.base + 1)? as usize)
    }

    /// Appends one op, returning its op number.
    pub fn append(&mut self, op: BrokerOp) -> u64 {
        self.tail.push_back(op);
        self.op_number()
    }

    /// Appends `ops` in order.
    pub fn extend(&mut self, ops: impl IntoIterator<Item = BrokerOp>) {
        self.tail.extend(ops);
    }

    /// Clones of the ops numbered `first..=last` (clamped to the log end) —
    /// what one batched `Prepare` carries. Empty when `first` is at or
    /// below `base`: those ops no longer exist one by one, and a shorter
    /// answer would put the rest under the wrong numbers.
    pub fn range(&self, first: u64, last: u64) -> Vec<BrokerOp> {
        let last = last.min(self.op_number());
        if first <= self.base || first > last {
            return Vec::new();
        }
        let (start, end) = ((first - self.base - 1) as usize, (last - self.base) as usize);
        self.tail.range(start..end).cloned().collect()
    }

    /// Folds the oldest tail op into the live state and hands it out by
    /// value. The caller ([`Replica::drain_committed`]) only does so for
    /// committed ops.
    pub fn fold_next(&mut self) -> Option<BrokerOp> {
        let op = self.tail.pop_front()?;
        self.live.fold(&op);
        self.base += 1;
        Some(op)
    }

    /// The log in its shipped form.
    pub fn state(&self) -> LogState {
        LogState {
            base: self.base,
            checkpoint: self.live.checkpoint(),
            tail: self.tail.iter().cloned().collect(),
        }
    }

    /// Adopts a foreign log (view change, recovery, state transfer) and
    /// returns the **repair** ops: what a broker whose table reflects this
    /// log's old live state must apply so that it reflects the new one.
    ///
    /// A foreign `base` at or past ours replaces checkpoint and tail; the
    /// ops between the two bases no longer exist one by one, so the repair
    /// is the [`LiveState::diff`] of the two states. A foreign `base`
    /// below ours keeps our checkpoint — committed prefixes agree, and ours
    /// is further along — and takes the foreign tail above it; the repair
    /// is empty.
    pub fn adopt(&mut self, state: LogState) -> Result<Vec<BrokerOp>, StateReject> {
        let end = state.op_number()?;
        if state.base < self.base {
            if end < self.base {
                return Err(StateReject::BehindCheckpoint);
            }
            let known = (self.base - state.base) as usize;
            self.tail = state.tail.into_iter().skip(known).collect();
            return Ok(Vec::new());
        }
        let mut live = LiveState::default();
        for op in &state.checkpoint {
            live.fold(op);
        }
        let repair = self.live.diff(&live);
        self.live = live;
        self.base = state.base;
        self.tail = state.tail.into();
        Ok(repair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(i: u32) -> BrokerOp {
        BrokerOp::ClientAttach { client: ClientId::new(i), node: NodeId::new(i) }
    }

    fn filter(v: i64) -> Filter {
        Filter::builder().eq("k", v).build()
    }

    fn sub(client: u32, id: u32, v: i64) -> BrokerOp {
        let subscription =
            Subscription::new(SubscriptionId::new(id), ClientId::new(client), filter(v));
        BrokerOp::Subscribe { node: NodeId::new(client), subscription }
    }

    fn unsub(client: u32, id: u32) -> BrokerOp {
        BrokerOp::Unsubscribe { client: ClientId::new(client), id: SubscriptionId::new(id) }
    }

    fn nb(node: u32, v: i64) -> BrokerOp {
        BrokerOp::NeighborSubscribe { node: NodeId::new(node), filter: filter(v) }
    }

    fn nb_gone(node: u32, v: i64) -> BrokerOp {
        BrokerOp::NeighborUnsubscribe { node: NodeId::new(node), filter: filter(v) }
    }

    fn fold_all(ops: &[BrokerOp]) -> LiveState {
        let mut live = LiveState::default();
        ops.iter().for_each(|op| live.fold(op));
        live
    }

    #[test]
    fn op_numbers_are_one_based() {
        let mut log = OpLog::new();
        assert_eq!(log.op_number(), 0);
        assert_eq!(log.get(0), None);
        assert_eq!(log.get(1), None);
        assert_eq!(log.append(op(0)), 1);
        assert_eq!(log.append(op(1)), 2);
        assert_eq!(log.op_number(), 2);
        assert_eq!(log.get(1), Some(&op(0)));
        assert_eq!(log.get(2), Some(&op(1)));
        assert_eq!(log.get(3), None);
    }

    #[test]
    fn range_is_inclusive_one_based_and_clamped() {
        let mut log = OpLog::new();
        log.extend((0..5).map(op));
        assert_eq!(log.op_number(), 5);
        assert_eq!(log.range(2, 4), [op(1), op(2), op(3)]);
        assert_eq!(log.range(4, 99), [op(3), op(4)], "clamped to the log end");
        assert!(log.range(0, 1).is_empty(), "op number 0 does not exist");
        assert!(log.range(6, 9).is_empty());
        assert!(log.range(3, 2).is_empty());
    }

    #[test]
    fn folding_keeps_op_numbers_and_drops_the_ops() {
        let mut log = OpLog::new();
        log.extend([sub(1, 1, 10), sub(1, 2, 20), unsub(1, 1), op(7), nb(5, 30)]);
        for _ in 0..3 {
            log.fold_next();
        }
        assert_eq!((log.base(), log.op_number()), (3, 5));
        assert_eq!(log.get(3), None, "folded ops are gone one by one");
        assert_eq!(log.get(4), Some(&op(7)));
        assert_eq!(log.range(4, 5), [op(7), nb(5, 30)]);
        assert!(log.range(3, 5).is_empty(), "never a shorter answer under the wrong numbers");
        // One client, one surviving subscription; two ops still in the tail.
        assert_eq!(log.live().len(), 2);
        assert_eq!(log.resident(), 4);
        assert_eq!(log.append(op(8)), 6);
    }

    #[test]
    fn the_fold_is_the_last_write_per_key() {
        let live = fold_all(&[
            sub(1, 1, 10), // attaches client 1 at node 1
            sub(1, 1, 11), // same id: replaced
            BrokerOp::ClientAttach { client: ClientId::new(1), node: NodeId::new(9) },
            sub(2, 1, 20),
            BrokerOp::ClientDetach { client: ClientId::new(2) }, // with a live subscription
            unsub(3, 1),                                         // unknown client
            nb(5, 30),
            nb(5, 30), // already announced
            nb(6, 30),
            nb_gone(6, 30),
            nb_gone(6, 31), // unknown key
            BrokerOp::LinkDown { node: NodeId::new(5) },
        ]);
        let moved = Subscription::new(SubscriptionId::new(1), ClientId::new(1), filter(11));
        assert_eq!(
            live.checkpoint(),
            [
                BrokerOp::ClientAttach { client: ClientId::new(1), node: NodeId::new(9) },
                BrokerOp::Subscribe { node: NodeId::new(9), subscription: moved },
                nb(5, 30),
            ]
        );
        assert_eq!(live.len(), 3);
    }

    #[test]
    fn equal_states_have_equal_checkpoints_whatever_the_history() {
        let a = fold_all(&[sub(2, 1, 20), sub(1, 1, 10), nb(6, 1), nb(5, 1)]);
        let b = fold_all(&[
            nb(5, 1),
            sub(1, 1, 99),
            nb(7, 7),
            sub(1, 1, 10),
            nb(6, 1),
            nb_gone(7, 7),
            sub(2, 1, 20),
        ]);
        assert_eq!(a, b);
        assert_eq!(a.checkpoint(), b.checkpoint());
        assert_eq!(fold_all(&a.checkpoint()), a, "a checkpoint folds back to its state");
    }

    #[test]
    fn diff_retracts_first_then_adds() {
        let a = fold_all(&[sub(1, 1, 10), sub(1, 2, 20), sub(2, 1, 30), nb(5, 1), nb(5, 2)]);
        let b = fold_all(&[sub(1, 2, 21), sub(1, 3, 40), nb(5, 2), nb(6, 3)]);
        let d = a.diff(&b);
        assert_eq!(
            d,
            [
                BrokerOp::ClientDetach { client: ClientId::new(2) },
                unsub(1, 1),
                nb_gone(5, 1),
                sub(1, 2, 21),
                sub(1, 3, 40),
                nb(6, 3),
            ]
        );
        let mut moved = a.clone();
        d.iter().for_each(|op| moved.fold(op));
        assert_eq!(moved, b);
        assert!(a.diff(&a).is_empty());
    }

    #[test]
    fn hostile_states_are_named() {
        let ok = LogState { base: 2, checkpoint: vec![op(1), sub(1, 1, 1)], tail: vec![op(3)] };
        assert_eq!(ok.check(2), Ok(3));
        let overflow = LogState { base: u64::MAX, ..ok.clone() };
        assert_eq!(overflow.check(u64::MAX), Err(StateReject::Overflow));
        for bad in [unsub(1, 1), nb_gone(5, 1), BrokerOp::LinkUp { node: NodeId::new(1) }] {
            let holed = LogState { checkpoint: vec![op(1), bad], ..ok.clone() };
            assert_eq!(holed.check(2), Err(StateReject::NotAnAdd));
        }
        assert_eq!(ok.check(1), Err(StateReject::CommitBelowBase));
    }

    #[test]
    fn adopting_a_later_checkpoint_returns_the_repair() {
        let mut log = OpLog::new();
        log.extend([sub(1, 1, 10), sub(1, 2, 20), unsub(1, 1)]);
        log.fold_next();
        let before = log.live().clone();

        let mut ahead = OpLog::new();
        ahead.extend([sub(1, 1, 10), sub(1, 2, 20), unsub(1, 1), sub(1, 3, 30), op(9)]);
        (0..4).for_each(|_| {
            ahead.fold_next();
        });
        let repair = log.adopt(ahead.state()).expect("ahead of us");
        assert_eq!(repair, [unsub(1, 1), sub(1, 2, 20), sub(1, 3, 30)]);
        assert_eq!(log, ahead);
        let mut core_view = before;
        repair.iter().for_each(|op| core_view.fold(op));
        assert_eq!(&core_view, log.live());
    }

    #[test]
    fn adopting_an_earlier_checkpoint_keeps_ours_and_takes_the_tail_above_it() {
        let history = [sub(1, 1, 10), sub(1, 2, 20), unsub(1, 1), sub(1, 3, 30), op(9)];
        let mut ours = OpLog::new();
        ours.extend(history[..3].iter().cloned());
        (0..3).for_each(|_| {
            ours.fold_next();
        });
        let mut theirs = OpLog::new();
        theirs.extend(history.iter().cloned());
        theirs.fold_next();
        let live = ours.live().clone();
        assert_eq!(ours.adopt(theirs.state()), Ok(Vec::new()));
        assert_eq!((ours.base(), ours.op_number()), (3, 5));
        assert_eq!(ours.live(), &live);
        assert_eq!(ours.range(4, 5), history[3..]);

        // A foreign state that ends below our checkpoint would un-fold
        // committed ops.
        let short = LogState { base: 1, checkpoint: Vec::new(), tail: vec![op(2)] };
        assert_eq!(ours.adopt(short), Err(StateReject::BehindCheckpoint));
        assert_eq!((ours.base(), ours.op_number()), (3, 5), "and nothing moved");
        let overflow = LogState { base: u64::MAX, checkpoint: Vec::new(), tail: vec![op(2)] };
        assert_eq!(ours.adopt(overflow), Err(StateReject::Overflow));
    }
}
