//! Wire codec for the full broker protocol.
//!
//! Every [`Message`], [`MobilityMsg`], [`BrokerOp`] and [`ReplicaMsg`]
//! variant is one row of a [`wire_table!`] below — `tag => Variant { field:
//! kind, … }`, fields in wire order — and that row is the variant's whole
//! layout: encoder, decoder and the exact size
//! ([`Payload::wire_size`](rebeca_net::Payload::wire_size), what the
//! simulator charges a link) all come from it. The kinds and the decoding
//! contract — [`CoreError::Truncated`] / [`CoreError::BadTag`] /
//! [`CoreError::Decode`], never a panic, no allocation sized by a foreign
//! prefix — are those of [`rebeca_core::codec`]. Adding a protocol message
//! is one row here plus one sample in the test lists (this module's and
//! `tests/wire_golden.rs`).
//!
//! Notifications travel in their canonical [`Notification::encode`] form,
//! so a receiver may either decode them into owned values (this module) or
//! view them zero-copy via
//! [`ArchivedNotification`](rebeca_core::codec::ArchivedNotification)
//! before promoting.
//!
//! Two rules are not rows:
//!
//! * [`Message::Routed`] nests a message in a message. Its `inner` is the
//!   kind [`Nested`]`<Message, MAX_ROUTED_DEPTH>`, which refuses to decode
//!   deeper, so adversarial bytes cannot recurse the stack away.
//! * `impl Wire for Message` is the frame boundary: it alone knows where a
//!   message's bytes end, so it alone rejects trailing bytes.

use crate::message::{Filters, Message, MobilityMsg};
use crate::replication::{BrokerOp, LogState, ReplicaMsg};
use rebeca_core::codec::{decode, Buf, BufMut, Count, Field, List, Nested, Reader, Str};
use rebeca_core::{
    wire_table, ApplicationId, BrokerId, ClientId, CoreError, Filter, Notification,
    NotificationBuilder, Predicate, Subscription, SubscriptionId,
};
use rebeca_net::NodeId;
use std::sync::Arc;

/// Maximum [`Message::Routed`] nesting depth the decoder accepts. The
/// protocol itself nests at most once (a routed mobility control message);
/// the cap keeps adversarial input from recursing unboundedly.
pub const MAX_ROUTED_DEPTH: usize = 16;

wire_table! { enum Message, "message" {
    0 => AppPublish { attrs: NotificationBuilder },
    1 => AppSubscribe { id: SubscriptionId, filter: Filter },
    2 => AppUnsubscribe { id: SubscriptionId },
    3 => ClientAttach { client: ClientId },
    4 => ClientDetach { client: ClientId },
    5 => Publish { notification: Arc<Notification> },
    6 => Subscribe { subscription: Subscription },
    7 => Unsubscribe { client: ClientId, id: SubscriptionId },
    8 => Deliver { client: ClientId, notification: Arc<Notification> },
    9 => Forward { notification: Arc<Notification> },
    10 => SubForward { filters: Filters },
    11 => UnsubForward { filters: Filters },
    12 => Routed { to: BrokerId, inner: Nested<Message, MAX_ROUTED_DEPTH> },
    13 => Mobility(m: MobilityMsg),
    14 => Replica(r: ReplicaMsg),
}}

/// An announcement list travels as `List<u16, Filter>` does, and decodes
/// without a list buffer when it holds one filter. No reservation is made
/// from the count, so a hostile prefix buys no allocation.
impl Field for Filters {
    type T = Filters;
    fn put(v: &Filters, buf: &mut impl BufMut) {
        u16::put(&u16::narrow(v.len()), buf);
        v.iter().for_each(|f| Filter::put(f, buf));
    }
    fn get(r: &mut Reader<'_, impl Buf>) -> Result<Filters, CoreError> {
        let n = u16::get(r)?;
        (0..n).map(|_| Filter::get(r)).collect()
    }
}

type Subscriptions = List<u16, Subscription>;
type Notifications = List<u32, Arc<Notification>>;
type Ops = List<u32, BrokerOp>;

wire_table! { enum MobilityMsg, "mobility" {
    0 => AppPrepareMove,
    1 => AppMoveTo { border: BrokerId },
    2 => AppDisconnect,
    3 => AppSetContext { key: Str<u16>, predicate: Predicate },
    4 => MoveIn {
        client: ClientId, old_border: Option<BrokerId>, subscriptions: Subscriptions, epoch: u64,
    },
    5 => FetchBuffered { client: ClientId, new_border: BrokerId },
    6 => BufferedBatch { client: ClientId, complete: bool, notifications: Notifications },
    7 => ReplicaCreate { app: ApplicationId, subscriptions: Subscriptions, epoch: u64 },
    8 => ReplicaDelete { app: ApplicationId, epoch: u64 },
    9 => ReplicaSubscribe { app: ApplicationId, subscription: Subscription, epoch: u64 },
    10 => ReplicaUnsubscribe { app: ApplicationId, id: SubscriptionId, epoch: u64 },
    11 => ReplicaFetch { app: ApplicationId, reply_to: BrokerId },
    12 => ReplicaBatch { app: ApplicationId, complete: bool, notifications: Notifications },
}}

// One entry of a replication op log. Tag 8 was the retired mobility-buffer
// op; it stays unassigned.
wire_table! { enum BrokerOp, "broker op" {
    0 => ClientAttach { client: ClientId, node: NodeId },
    1 => ClientDetach { client: ClientId },
    2 => Subscribe { node: NodeId, subscription: Subscription },
    3 => Unsubscribe { client: ClientId, id: SubscriptionId },
    4 => NeighborSubscribe { node: NodeId, filter: Filter },
    5 => NeighborUnsubscribe { node: NodeId, filter: Filter },
    6 => LinkUp { node: NodeId },
    7 => LinkDown { node: NodeId },
}}

// A log as the whole-state messages carry it.
wire_table! { struct LogState { base: u64, checkpoint: Ops, tail: Ops } }

wire_table! { enum ReplicaMsg, "replica" {
    0 => Forward { op: BrokerOp },
    1 => Prepare { view: u64, op_number: u64, commit_number: u64, ops: Ops },
    2 => PrepareOk { view: u64, op_number: u64, replica: u32 },
    3 => Commit { view: u64, commit_number: u64 },
    4 => StartViewChange { view: u64, replica: u32 },
    5 => DoViewChange {
        view: u64, last_normal: u64, commit_number: u64, log: Box<LogState>, replica: u32,
    },
    6 => StartView { view: u64, commit_number: u64, log: Box<LogState> },
    7 => Recovery { replica: u32, nonce: u64 },
    8 => RecoveryResponse {
        view: u64, nonce: u64, commit_number: u64, log: Box<LogState>, normal: bool, replica: u32,
    },
}}

/// Encodes a [`Message`] (tag byte + payload).
pub fn encode_message(m: &Message, buf: &mut impl BufMut) {
    Message::put(m, buf);
}

/// Decodes a [`Message`].
///
/// # Errors
///
/// [`CoreError::Truncated`], [`CoreError::BadTag`] or [`CoreError::Decode`]
/// (invalid UTF-8, or [`Message::Routed`] nested deeper than
/// [`MAX_ROUTED_DEPTH`]).
pub fn decode_message(buf: &mut impl Buf) -> Result<Message, CoreError> {
    decode::<Message>(buf)
}

/// [`Message`] over a framed inter-process link: the transport seam.
/// `rebeca-net` moves opaque payload bytes; this impl is what turns them
/// back into protocol messages on the far side.
impl rebeca_net::Wire for Message {
    fn encode_into(&self, out: &mut Vec<u8>) {
        encode_message(self, out);
    }

    fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut cursor = bytes;
        let msg = decode_message(&mut cursor)?;
        match cursor.len() {
            0 => Ok(msg),
            n => Err(CoreError::Decode(format!("{n} trailing bytes after a complete message"))),
        }
    }
}

/// Encodes a [`MobilityMsg`] (tag byte + payload).
pub fn encode_mobility(m: &MobilityMsg, buf: &mut impl BufMut) {
    MobilityMsg::put(m, buf);
}

/// Decodes a [`MobilityMsg`].
///
/// # Errors
///
/// [`CoreError::Truncated`], [`CoreError::BadTag`] or [`CoreError::Decode`].
pub fn decode_mobility(buf: &mut impl Buf) -> Result<MobilityMsg, CoreError> {
    decode::<MobilityMsg>(buf)
}

/// Encodes a [`BrokerOp`] (tag byte + payload) — one entry of a
/// replication op log.
pub fn encode_broker_op(op: &BrokerOp, buf: &mut impl BufMut) {
    BrokerOp::put(op, buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_core::{SimTime, Value};
    use rebeca_net::Payload;

    fn sample_notification(seq: u64) -> Arc<Notification> {
        Arc::new(
            Notification::builder()
                .attr("service", "temperature")
                .attr("celsius", 21.5)
                .attr("room", 104i64)
                .publish(ClientId::new(2), seq, SimTime::from_millis(42)),
        )
    }

    fn sample_filter() -> Filter {
        Filter::builder().eq("service", "temperature").gt("celsius", 20.0).build()
    }

    fn sample_subscription(id: u32) -> Subscription {
        Subscription::new(SubscriptionId::new(id), ClientId::new(9), sample_filter())
    }

    /// One instance of every `Message` and `MobilityMsg` variant.
    pub(super) fn all_messages() -> Vec<Message> {
        use MobilityMsg::*;
        let mobility = vec![
            AppPrepareMove,
            AppMoveTo { border: BrokerId::new(3) },
            AppDisconnect,
            AppSetContext {
                key: "speed".into(),
                predicate: rebeca_core::Predicate::Gt(Value::from(30i64)),
            },
            MoveIn {
                client: ClientId::new(7),
                old_border: Some(BrokerId::new(1)),
                subscriptions: vec![sample_subscription(1), sample_subscription(2)],
                epoch: 9,
            },
            MoveIn {
                client: ClientId::new(7),
                old_border: None,
                subscriptions: Vec::new(),
                epoch: 10,
            },
            FetchBuffered { client: ClientId::new(7), new_border: BrokerId::new(2) },
            BufferedBatch {
                client: ClientId::new(7),
                notifications: vec![sample_notification(0), sample_notification(1)],
                complete: true,
            },
            ReplicaCreate {
                app: ApplicationId::new(7),
                subscriptions: vec![sample_subscription(3)],
                epoch: 2,
            },
            ReplicaDelete { app: ApplicationId::new(7), epoch: 3 },
            ReplicaSubscribe {
                app: ApplicationId::new(7),
                subscription: sample_subscription(4),
                epoch: 4,
            },
            ReplicaUnsubscribe { app: ApplicationId::new(7), id: SubscriptionId::new(4), epoch: 5 },
            ReplicaFetch { app: ApplicationId::new(7), reply_to: BrokerId::new(0) },
            ReplicaBatch {
                app: ApplicationId::new(7),
                notifications: vec![sample_notification(2)],
                complete: false,
            },
        ];
        let mut all = vec![
            Message::AppPublish {
                attrs: Notification::builder().attr("service", "temperature").attr("room", 1i64),
            },
            Message::AppSubscribe { id: SubscriptionId::new(5), filter: sample_filter() },
            Message::AppUnsubscribe { id: SubscriptionId::new(5) },
            Message::ClientAttach { client: ClientId::new(4) },
            Message::ClientDetach { client: ClientId::new(4) },
            Message::Publish { notification: sample_notification(3) },
            Message::Subscribe { subscription: sample_subscription(6) },
            Message::Unsubscribe { client: ClientId::new(4), id: SubscriptionId::new(6) },
            Message::Deliver { client: ClientId::new(4), notification: sample_notification(4) },
            Message::Forward { notification: sample_notification(5) },
            Message::SubForward { filters: vec![sample_filter(), Filter::all()].into() },
            Message::SubForward { filters: Vec::new().into() },
            Message::UnsubForward { filters: vec![Filter::all()].into() },
            Message::UnsubForward {
                filters: (1..=4i64).map(|r| Filter::builder().eq("room", r).build()).collect(),
            },
            Message::routed(
                BrokerId::new(2),
                Message::Mobility(MobilityMsg::FetchBuffered {
                    client: ClientId::new(7),
                    new_border: BrokerId::new(2),
                }),
            ),
        ];
        all.extend(mobility.into_iter().map(Message::Mobility));
        all.extend(all_replica_msgs().into_iter().map(Message::Replica));
        all
    }

    /// One instance of every `BrokerOp` variant.
    fn all_broker_ops() -> Vec<BrokerOp> {
        vec![
            BrokerOp::ClientAttach { client: ClientId::new(4), node: NodeId::new(1) },
            BrokerOp::ClientDetach { client: ClientId::new(4) },
            BrokerOp::Subscribe { node: NodeId::new(1), subscription: sample_subscription(8) },
            BrokerOp::Unsubscribe { client: ClientId::new(9), id: SubscriptionId::new(8) },
            BrokerOp::NeighborSubscribe { node: NodeId::new(2), filter: sample_filter() },
            BrokerOp::NeighborUnsubscribe { node: NodeId::new(2), filter: Filter::all() },
            BrokerOp::LinkUp { node: NodeId::new(3) },
            BrokerOp::LinkDown { node: NodeId::new(3) },
        ]
    }

    /// One instance of every `ReplicaMsg` variant, with empty and non-empty
    /// logs, exercising every `BrokerOp` shape across the set. What the
    /// wire carries need not be what a replica accepts: the checkpoint here
    /// holds retractions and markers too.
    fn all_replica_msgs() -> Vec<ReplicaMsg> {
        let ops = all_broker_ops();
        let log =
            Box::new(LogState { base: 9, checkpoint: ops[..5].to_vec(), tail: ops[3..].to_vec() });
        let mut msgs: Vec<ReplicaMsg> =
            ops.iter().map(|op| ReplicaMsg::Forward { op: op.clone() }).collect();
        msgs.extend([
            ReplicaMsg::Prepare {
                view: 3,
                op_number: 12,
                commit_number: 11,
                ops: vec![ops[2].clone()],
            },
            ReplicaMsg::Prepare { view: 3, op_number: 13, commit_number: 11, ops: ops.clone() },
            ReplicaMsg::Prepare { view: 0, op_number: 0, commit_number: 0, ops: Vec::new() },
            ReplicaMsg::PrepareOk { view: 3, op_number: 12, replica: 1 },
            ReplicaMsg::Commit { view: 3, commit_number: 12 },
            ReplicaMsg::StartViewChange { view: 4, replica: 2 },
            ReplicaMsg::DoViewChange {
                view: 4,
                last_normal: 3,
                commit_number: 12,
                log: log.clone(),
                replica: 2,
            },
            ReplicaMsg::DoViewChange {
                view: 4,
                last_normal: 0,
                commit_number: 0,
                log: Box::default(),
                replica: 0,
            },
            ReplicaMsg::StartView { view: 4, commit_number: 12, log: log.clone() },
            ReplicaMsg::StartView { view: 0, commit_number: 0, log: Box::default() },
            ReplicaMsg::Recovery { replica: 1, nonce: 77 },
            ReplicaMsg::RecoveryResponse {
                view: 4,
                nonce: 77,
                commit_number: 12,
                log: Box::new(LogState { tail: Vec::new(), ..*log }),
                normal: true,
                replica: 0,
            },
            ReplicaMsg::RecoveryResponse {
                view: 0,
                nonce: 78,
                commit_number: 0,
                log: Box::default(),
                normal: false,
                replica: 2,
            },
        ]);
        msgs
    }

    #[test]
    fn every_variant_round_trips() {
        for m in all_messages() {
            let mut buf = Vec::new();
            encode_message(&m, &mut buf);
            let mut cur: &[u8] = &buf;
            let back = decode_message(&mut cur).expect("decode");
            assert_eq!(back, m, "round trip for {m:?}");
            assert_eq!(cur.remaining(), 0, "fully consumed for {m:?}");
            assert_eq!(m.wire_size(), buf.len(), "size is the encoding for {m:?}");
        }
    }

    #[test]
    fn every_variant_rejects_truncation_at_every_byte() {
        for m in all_messages() {
            let mut buf = Vec::new();
            encode_message(&m, &mut buf);
            for cut in 0..buf.len() {
                let mut cur = &buf[..cut];
                assert!(decode_message(&mut cur).is_err(), "cut {cut} of {m:?}");
            }
        }
    }

    #[test]
    fn bad_tags_error_cleanly() {
        let mut cur: &[u8] = &[200u8];
        assert!(matches!(
            decode_message(&mut cur),
            Err(CoreError::BadTag { what: "message", tag: 200 })
        ));
        let mut cur: &[u8] = &[13u8, 99];
        assert!(matches!(
            decode_message(&mut cur),
            Err(CoreError::BadTag { what: "mobility", tag: 99 })
        ));
        let mut cur: &[u8] = &[14u8, 99];
        assert!(matches!(
            decode_message(&mut cur),
            Err(CoreError::BadTag { what: "replica", tag: 99 })
        ));
        // Replica → Forward → bad op tag; the retired buffer-op tag (8) is
        // one of them, whatever follows it.
        let mut cur: &[u8] = &[14u8, 0, 99];
        assert!(matches!(
            decode_message(&mut cur),
            Err(CoreError::BadTag { what: "broker op", tag: 99 })
        ));
        let mut cur: &[u8] = &[14u8, 0, 8, 1, 7, 0, 0, 0];
        assert!(matches!(
            decode_message(&mut cur),
            Err(CoreError::BadTag { what: "broker op", tag: 8 })
        ));
    }

    /// A hostile length prefix buys no allocation: the reservation is
    /// capped and the missing body is a `Truncated` error.
    #[test]
    fn op_log_length_prefix_is_not_trusted() {
        for tail in [&[][..], &[0u8, 1, 0, 0, 0, 2, 0, 0, 0][..]] {
            let mut bytes = vec![14u8, 1];
            bytes.extend_from_slice(&[0u8; 24]);
            bytes.extend_from_slice(&u32::MAX.to_le_bytes());
            bytes.extend_from_slice(tail);
            let mut cur: &[u8] = &bytes;
            assert!(matches!(decode_message(&mut cur), Err(CoreError::Truncated { .. })));
        }
    }

    /// The same for every counted field the tables declare: each row is a
    /// valid message up to and including a count, which then claims the
    /// maximum its prefix can say over an empty or a three-byte body.
    #[test]
    fn every_counted_prefix_is_untrusted() {
        let state = |lists: &[u8]| [&[14u8, 6][..], &[0; 24], lists].concat();
        let rows: [(&str, Vec<u8>, usize); 12] = [
            ("SubForward.filters", vec![10], 2),
            ("UnsubForward.filters", vec![11], 2),
            ("MoveIn.subscriptions", vec![13, 4, 0, 0, 0, 0, 0], 2),
            ("ReplicaCreate.subscriptions", vec![13, 7, 0, 0, 0, 0], 2),
            ("BufferedBatch.notifications", vec![13, 6, 0, 0, 0, 0, 1], 4),
            ("ReplicaBatch.notifications", vec![13, 12, 0, 0, 0, 0, 1], 4),
            ("Predicate::In", vec![13, 3, 0, 0, 7], 2),
            ("Predicate::InLocations", vec![13, 3, 0, 0, 11], 2),
            ("Filter constraints", vec![10, 1, 0], 2),
            ("AppPublish.attrs", vec![0], 2),
            ("LogState.checkpoint", state(&[]), 4),
            ("LogState.tail", state(&[0; 4]), 4),
        ];
        for (what, head, count_width) in rows {
            for body in [&[][..], &[0u8; 3][..]] {
                let bytes = [&head[..], &[0xFF; 4][..count_width], body].concat();
                let mut cur: &[u8] = &bytes;
                let got = decode_message(&mut cur);
                assert!(matches!(got, Err(CoreError::Truncated { .. })), "{what}: {got:?}");
            }
        }
    }

    #[test]
    fn routed_depth_is_capped() {
        let mut m = Message::SubForward { filters: vec![Filter::all()].into() };
        for _ in 0..(MAX_ROUTED_DEPTH + 2) {
            m = Message::routed(BrokerId::new(0), m);
        }
        let mut buf = Vec::new();
        encode_message(&m, &mut buf);
        let mut cur: &[u8] = &buf;
        assert!(matches!(decode_message(&mut cur), Err(CoreError::Decode(_))));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use rebeca_core::{SimTime, Value};
    use rebeca_net::Payload;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-1e12f64..1e12).prop_map(Value::Float),
            "[a-z]{0,12}".prop_map(Value::Str),
            any::<u32>().prop_map(|i| Value::Loc(rebeca_core::LocationId::new(i))),
        ]
    }

    fn arb_predicate() -> impl Strategy<Value = Predicate> {
        prop_oneof![
            Just(Predicate::Any),
            arb_value().prop_map(Predicate::Eq),
            arb_value().prop_map(Predicate::Gt),
            proptest::collection::vec(arb_value(), 0..3).prop_map(Predicate::In),
            "[a-z]{0,6}".prop_map(Predicate::Prefix),
            Just(Predicate::MyLoc),
            "[a-z]{0,6}".prop_map(Predicate::MyCtx),
        ]
    }

    fn arb_filter() -> impl Strategy<Value = Filter> {
        proptest::collection::btree_map("[a-z]{1,8}", arb_predicate(), 0..4).prop_map(|m| {
            Filter::from_constraints(m.into_iter().map(|(a, p)| rebeca_core::Constraint::new(a, p)))
        })
    }

    /// An announcement list: empty, one filter or several.
    fn arb_filters() -> impl Strategy<Value = Vec<Filter>> {
        proptest::collection::vec(arb_filter(), 0..5)
    }

    fn arb_notification() -> impl Strategy<Value = Arc<Notification>> {
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::btree_map("[a-z]{1,8}", arb_value(), 0..5),
        )
            .prop_map(|(publisher, seq, at, attrs)| {
                let mut b = Notification::builder();
                for (k, v) in attrs {
                    b = b.attr(k, v);
                }
                Arc::new(b.publish(ClientId::new(publisher), seq, SimTime::from_micros(at)))
            })
    }

    fn arb_subscription() -> impl Strategy<Value = Subscription> {
        (any::<u32>(), any::<u32>(), arb_filter()).prop_map(|(id, client, f)| {
            Subscription::new(SubscriptionId::new(id), ClientId::new(client), f)
        })
    }

    fn arb_subs() -> impl Strategy<Value = Vec<Subscription>> {
        proptest::collection::vec(arb_subscription(), 0..3)
    }

    fn arb_notifs() -> impl Strategy<Value = Vec<Arc<Notification>>> {
        proptest::collection::vec(arb_notification(), 0..3)
    }

    fn arb_mobility() -> impl Strategy<Value = MobilityMsg> {
        prop_oneof![
            Just(MobilityMsg::AppPrepareMove),
            any::<u32>().prop_map(|b| MobilityMsg::AppMoveTo { border: BrokerId::new(b) }),
            Just(MobilityMsg::AppDisconnect),
            ("[a-z]{1,6}", arb_predicate())
                .prop_map(|(key, predicate)| MobilityMsg::AppSetContext { key, predicate }),
            (any::<u32>(), proptest::option::of(any::<u32>()), arb_subs(), any::<u64>()).prop_map(
                |(c, ob, subscriptions, epoch)| MobilityMsg::MoveIn {
                    client: ClientId::new(c),
                    old_border: ob.map(BrokerId::new),
                    subscriptions,
                    epoch,
                }
            ),
            (any::<u32>(), any::<u32>()).prop_map(|(c, b)| MobilityMsg::FetchBuffered {
                client: ClientId::new(c),
                new_border: BrokerId::new(b),
            }),
            (any::<u32>(), arb_notifs(), any::<bool>()).prop_map(|(c, notifications, complete)| {
                MobilityMsg::BufferedBatch { client: ClientId::new(c), notifications, complete }
            }),
            (any::<u32>(), arb_subs(), any::<u64>()).prop_map(|(a, subscriptions, epoch)| {
                MobilityMsg::ReplicaCreate { app: ApplicationId::new(a), subscriptions, epoch }
            }),
            (any::<u32>(), any::<u64>()).prop_map(|(a, epoch)| MobilityMsg::ReplicaDelete {
                app: ApplicationId::new(a),
                epoch,
            }),
            (any::<u32>(), arb_subscription(), any::<u64>()).prop_map(
                |(a, subscription, epoch)| MobilityMsg::ReplicaSubscribe {
                    app: ApplicationId::new(a),
                    subscription,
                    epoch,
                }
            ),
            (any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(a, id, epoch)| {
                MobilityMsg::ReplicaUnsubscribe {
                    app: ApplicationId::new(a),
                    id: SubscriptionId::new(id),
                    epoch,
                }
            }),
            (any::<u32>(), any::<u32>()).prop_map(|(a, r)| MobilityMsg::ReplicaFetch {
                app: ApplicationId::new(a),
                reply_to: BrokerId::new(r),
            }),
            (any::<u32>(), arb_notifs(), any::<bool>()).prop_map(|(a, notifications, complete)| {
                MobilityMsg::ReplicaBatch { app: ApplicationId::new(a), notifications, complete }
            }),
        ]
    }

    fn arb_broker_op() -> impl Strategy<Value = BrokerOp> {
        prop_oneof![
            (any::<u32>(), any::<u32>()).prop_map(|(c, n)| BrokerOp::ClientAttach {
                client: ClientId::new(c),
                node: NodeId::new(n),
            }),
            (any::<u32>(), arb_subscription()).prop_map(|(n, subscription)| {
                BrokerOp::Subscribe { node: NodeId::new(n), subscription }
            }),
            (any::<u32>(), any::<u32>()).prop_map(|(c, id)| BrokerOp::Unsubscribe {
                client: ClientId::new(c),
                id: SubscriptionId::new(id),
            }),
            (any::<u32>(), arb_filter()).prop_map(|(n, filter)| BrokerOp::NeighborSubscribe {
                node: NodeId::new(n),
                filter,
            }),
            any::<u32>().prop_map(|n| BrokerOp::LinkDown { node: NodeId::new(n) }),
        ]
    }

    /// A `Prepare` of any shape the wire can carry — empty, one op, many —
    /// with any numbers: what the replica rejects must still decode.
    fn arb_prepare() -> impl Strategy<Value = ReplicaMsg> {
        (any::<u64>(), any::<u64>(), any::<u64>(), proptest::collection::vec(arb_broker_op(), 0..6))
            .prop_map(|(view, op_number, commit_number, ops)| ReplicaMsg::Prepare {
                view,
                op_number,
                commit_number,
                ops,
            })
    }

    /// The three whole-state messages with any numbers and any ops in
    /// checkpoint and tail — hostile shapes included.
    fn arb_state_msg() -> impl Strategy<Value = ReplicaMsg> {
        let ops = || proptest::collection::vec(arb_broker_op(), 0..4);
        let log = (any::<u64>(), ops(), ops())
            .prop_map(|(base, checkpoint, tail)| Box::new(LogState { base, checkpoint, tail }));
        (log, any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>(), 0..4u32).prop_map(
            |(log, view, commit_number, x, replica, shape)| match shape {
                0 => ReplicaMsg::DoViewChange { view, last_normal: x, commit_number, log, replica },
                1 => ReplicaMsg::StartView { view, commit_number, log },
                _ => ReplicaMsg::RecoveryResponse {
                    view,
                    nonce: x,
                    commit_number,
                    log,
                    normal: shape == 2,
                    replica,
                },
            },
        )
    }

    fn arb_message() -> impl Strategy<Value = Message> {
        let leaf = prop_oneof![
            proptest::collection::btree_map("[a-z]{1,8}", arb_value(), 0..4).prop_map(|m| {
                let mut b = Notification::builder();
                for (k, v) in m {
                    b = b.attr(k, v);
                }
                Message::AppPublish { attrs: b }
            }),
            (any::<u32>(), arb_filter()).prop_map(|(id, filter)| Message::AppSubscribe {
                id: SubscriptionId::new(id),
                filter,
            }),
            any::<u32>().prop_map(|id| Message::AppUnsubscribe { id: SubscriptionId::new(id) }),
            any::<u32>().prop_map(|c| Message::ClientAttach { client: ClientId::new(c) }),
            any::<u32>().prop_map(|c| Message::ClientDetach { client: ClientId::new(c) }),
            arb_notification().prop_map(|notification| Message::Publish { notification }),
            arb_subscription().prop_map(|subscription| Message::Subscribe { subscription }),
            (any::<u32>(), any::<u32>()).prop_map(|(c, id)| Message::Unsubscribe {
                client: ClientId::new(c),
                id: SubscriptionId::new(id),
            }),
            (any::<u32>(), arb_notification()).prop_map(|(c, notification)| Message::Deliver {
                client: ClientId::new(c),
                notification,
            }),
            arb_notification().prop_map(|notification| Message::Forward { notification }),
            arb_filters().prop_map(|filters| Message::SubForward { filters: filters.into() }),
            arb_filters().prop_map(|filters| Message::UnsubForward { filters: filters.into() }),
            arb_mobility().prop_map(Message::Mobility),
            arb_prepare().prop_map(Message::Replica),
            arb_state_msg().prop_map(Message::Replica),
        ];
        // One optional level of routing on top of any leaf (the protocol
        // itself routes exactly one level deep).
        (leaf, proptest::option::of(any::<u32>())).prop_map(|(inner, routed)| match routed {
            Some(to) => Message::routed(BrokerId::new(to), inner),
            None => inner,
        })
    }

    proptest! {
        /// Any protocol message round-trips and consumes exactly its bytes.
        #[test]
        fn message_codec_round_trips(m in arb_message()) {
            let mut buf = Vec::new();
            encode_message(&m, &mut buf);
            let mut cur: &[u8] = &buf;
            prop_assert_eq!(m.wire_size(), buf.len());
            prop_assert_eq!(decode_message(&mut cur).expect("decode"), m);
            prop_assert_eq!(cur.remaining(), 0);
        }

        /// Truncating any encoded message at every byte fails cleanly —
        /// never panics.
        #[test]
        fn message_codec_rejects_truncation(m in arb_message()) {
            let mut buf = Vec::new();
            encode_message(&m, &mut buf);
            for cut in 0..buf.len() {
                let mut cur = &buf[..cut];
                prop_assert!(decode_message(&mut cur).is_err(), "cut at {}", cut);
            }
        }
    }
}
