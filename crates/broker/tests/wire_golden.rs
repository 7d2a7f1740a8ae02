//! The wire format, pinned byte for byte.
//!
//! Two pins, both recorded by running this file against the encoder of the
//! commit *before* the codec became table-driven. Since then one layout
//! moved on purpose: `SubForward`/`UnsubForward` (tags 10 and 11) carry a
//! `u16`-counted filter list instead of one filter, so their rows and the
//! corpus (which now draws 0–4-filter lists) were re-recorded; every other
//! row is unchanged.
//!
//! * [`GOLDEN`] — the hex encoding of one instance of every `Value`,
//!   `Predicate`, `BrokerOp`, `ReplicaMsg`, `MobilityMsg` and `Message`
//!   variant (plus a notification, a filter and a subscription);
//! * [`CORPUS_DIGEST`] — a 64-bit FNV-1a digest over the concatenated
//!   encodings of [`CORPUS_MESSAGES`] messages drawn from a
//!   `SplitMix64`-seeded generator.
//!
//! A codec change that moves one byte of one layout fails here, naming the
//! row. Adding a protocol message is one new sample row (the failure prints
//! the literal to paste) and one generator arm; no existing row may change.

use rebeca_broker::codec::encode_broker_op;
use rebeca_broker::{
    encode_message, encode_mobility, BrokerOp, LogState, Message, MobilityMsg, ReplicaMsg,
};
use rebeca_core::codec::{
    encode_filter, encode_predicate, encode_subscription, encode_value, ArchivedNotification,
};
use rebeca_core::{
    ApplicationId, BrokerId, ClientId, Constraint, Filter, LocationId, Notification, Predicate,
    SimTime, Subscription, SubscriptionId, Value,
};
use rebeca_net::{NodeId, Payload, SplitMix64, Wire};
use std::sync::Arc;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn enc<T>(value: &T, encode: impl Fn(&T, &mut Vec<u8>)) -> Vec<u8> {
    let mut buf = Vec::new();
    encode(value, &mut buf);
    buf
}

fn sample_notification(seq: u64) -> Arc<Notification> {
    Arc::new(
        Notification::builder()
            .attr("service", "temperature")
            .attr("celsius", 21.5)
            .attr("room", 104i64)
            .attr("location", LocationId::new(3))
            .attr("stable", true)
            .publish(ClientId::new(2), seq, SimTime::from_millis(42)),
    )
}

fn sample_filter() -> Filter {
    Filter::builder().eq("service", "temperature").gt("celsius", 20.0).myloc("location").build()
}

fn sample_subscription(id: u32) -> Subscription {
    Subscription::new(SubscriptionId::new(id), ClientId::new(9), sample_filter())
}

fn all_values() -> Vec<(&'static str, Value)> {
    vec![
        ("value/bool", Value::from(true)),
        ("value/int", Value::from(-7i64)),
        ("value/float", Value::from(2.5)),
        ("value/str", Value::from("héllo")),
        ("value/loc", Value::from(LocationId::new(0x0102_0304))),
    ]
}

fn all_predicates() -> Vec<(&'static str, Predicate)> {
    use Predicate::*;
    vec![
        ("predicate/any", Any),
        ("predicate/eq", Eq(Value::from(3i64))),
        ("predicate/ne", Ne(Value::from("x"))),
        ("predicate/lt", Lt(Value::from(2.5))),
        ("predicate/le", Le(Value::from(true))),
        ("predicate/gt", Gt(Value::from(LocationId::new(7)))),
        ("predicate/ge", Ge(Value::from(-1i64))),
        ("predicate/in", In(vec![Value::from(1i64), Value::from("two"), Value::from(3.0)])),
        ("predicate/prefix", Prefix("tem".into())),
        ("predicate/suffix", Suffix("ure".into())),
        ("predicate/contains", Contains("per".into())),
        ("predicate/in_locations", InLocations([LocationId::new(1), LocationId::new(9)].into())),
        ("predicate/myloc", MyLoc),
        ("predicate/myctx", MyCtx("speed".into())),
    ]
}

fn all_broker_ops() -> Vec<(&'static str, BrokerOp)> {
    vec![
        (
            "op/client_attach",
            BrokerOp::ClientAttach { client: ClientId::new(4), node: NodeId::new(1) },
        ),
        ("op/client_detach", BrokerOp::ClientDetach { client: ClientId::new(4) }),
        (
            "op/subscribe",
            BrokerOp::Subscribe { node: NodeId::new(1), subscription: sample_subscription(8) },
        ),
        (
            "op/unsubscribe",
            BrokerOp::Unsubscribe { client: ClientId::new(9), id: SubscriptionId::new(8) },
        ),
        (
            "op/neighbor_subscribe",
            BrokerOp::NeighborSubscribe { node: NodeId::new(2), filter: sample_filter() },
        ),
        (
            "op/neighbor_unsubscribe",
            BrokerOp::NeighborUnsubscribe { node: NodeId::new(2), filter: Filter::all() },
        ),
        ("op/link_up", BrokerOp::LinkUp { node: NodeId::new(3) }),
        ("op/link_down", BrokerOp::LinkDown { node: NodeId::new(3) }),
    ]
}

fn all_replica_msgs() -> Vec<(&'static str, ReplicaMsg)> {
    let ops: Vec<BrokerOp> = all_broker_ops().into_iter().map(|(_, op)| op).collect();
    let log =
        Box::new(LogState { base: 9, checkpoint: ops[..5].to_vec(), tail: ops[3..].to_vec() });
    vec![
        ("replica/forward", ReplicaMsg::Forward { op: ops[2].clone() }),
        (
            "replica/prepare",
            ReplicaMsg::Prepare { view: 3, op_number: 13, commit_number: 11, ops: ops.clone() },
        ),
        (
            "replica/prepare_empty",
            ReplicaMsg::Prepare { view: 0, op_number: 0, commit_number: 0, ops: Vec::new() },
        ),
        ("replica/prepare_ok", ReplicaMsg::PrepareOk { view: 3, op_number: 12, replica: 1 }),
        ("replica/commit", ReplicaMsg::Commit { view: 3, commit_number: 12 }),
        ("replica/start_view_change", ReplicaMsg::StartViewChange { view: 4, replica: 2 }),
        (
            "replica/do_view_change",
            ReplicaMsg::DoViewChange {
                view: 4,
                last_normal: 3,
                commit_number: 12,
                log: log.clone(),
                replica: 2,
            },
        ),
        (
            "replica/start_view",
            ReplicaMsg::StartView { view: 4, commit_number: 12, log: log.clone() },
        ),
        (
            "replica/start_view_empty",
            ReplicaMsg::StartView { view: 0, commit_number: 0, log: Box::default() },
        ),
        ("replica/recovery", ReplicaMsg::Recovery { replica: 1, nonce: 77 }),
        (
            "replica/recovery_response",
            ReplicaMsg::RecoveryResponse {
                view: 4,
                nonce: 77,
                commit_number: 12,
                log: Box::new(LogState { tail: Vec::new(), ..*log }),
                normal: true,
                replica: 0,
            },
        ),
    ]
}

fn all_mobility_msgs() -> Vec<(&'static str, MobilityMsg)> {
    use MobilityMsg::*;
    vec![
        ("mobility/app_prepare_move", AppPrepareMove),
        ("mobility/app_move_to", AppMoveTo { border: BrokerId::new(3) }),
        ("mobility/app_disconnect", AppDisconnect),
        (
            "mobility/app_set_context",
            AppSetContext { key: "speed".into(), predicate: Predicate::Gt(Value::from(30i64)) },
        ),
        (
            "mobility/move_in",
            MoveIn {
                client: ClientId::new(7),
                old_border: Some(BrokerId::new(1)),
                subscriptions: vec![sample_subscription(1), sample_subscription(2)],
                epoch: 9,
            },
        ),
        (
            "mobility/move_in_fresh",
            MoveIn {
                client: ClientId::new(7),
                old_border: None,
                subscriptions: Vec::new(),
                epoch: 10,
            },
        ),
        (
            "mobility/fetch_buffered",
            FetchBuffered { client: ClientId::new(7), new_border: BrokerId::new(2) },
        ),
        (
            "mobility/buffered_batch",
            BufferedBatch {
                client: ClientId::new(7),
                notifications: vec![sample_notification(0), sample_notification(1)],
                complete: true,
            },
        ),
        (
            "mobility/replica_create",
            ReplicaCreate {
                app: ApplicationId::new(7),
                subscriptions: vec![sample_subscription(3)],
                epoch: 2,
            },
        ),
        ("mobility/replica_delete", ReplicaDelete { app: ApplicationId::new(7), epoch: 3 }),
        (
            "mobility/replica_subscribe",
            ReplicaSubscribe {
                app: ApplicationId::new(7),
                subscription: sample_subscription(4),
                epoch: 4,
            },
        ),
        (
            "mobility/replica_unsubscribe",
            ReplicaUnsubscribe { app: ApplicationId::new(7), id: SubscriptionId::new(4), epoch: 5 },
        ),
        (
            "mobility/replica_fetch",
            ReplicaFetch { app: ApplicationId::new(7), reply_to: BrokerId::new(0) },
        ),
        (
            "mobility/replica_batch",
            ReplicaBatch {
                app: ApplicationId::new(7),
                notifications: vec![sample_notification(2)],
                complete: false,
            },
        ),
    ]
}

fn all_messages() -> Vec<(&'static str, Message)> {
    vec![
        (
            "message/app_publish",
            Message::AppPublish {
                attrs: Notification::builder().attr("service", "temperature").attr("room", 1i64),
            },
        ),
        (
            "message/app_subscribe",
            Message::AppSubscribe { id: SubscriptionId::new(5), filter: sample_filter() },
        ),
        ("message/app_unsubscribe", Message::AppUnsubscribe { id: SubscriptionId::new(5) }),
        ("message/client_attach", Message::ClientAttach { client: ClientId::new(4) }),
        ("message/client_detach", Message::ClientDetach { client: ClientId::new(4) }),
        ("message/publish", Message::Publish { notification: sample_notification(3) }),
        ("message/subscribe", Message::Subscribe { subscription: sample_subscription(6) }),
        (
            "message/unsubscribe",
            Message::Unsubscribe { client: ClientId::new(4), id: SubscriptionId::new(6) },
        ),
        (
            "message/deliver",
            Message::Deliver { client: ClientId::new(4), notification: sample_notification(4) },
        ),
        ("message/forward", Message::Forward { notification: sample_notification(5) }),
        (
            "message/sub_forward",
            Message::SubForward { filters: vec![sample_filter(), Filter::all()].into() },
        ),
        ("message/sub_forward_empty", Message::SubForward { filters: Vec::new().into() }),
        ("message/unsub_forward", Message::UnsubForward { filters: vec![Filter::all()].into() }),
        (
            "message/routed",
            Message::routed(
                BrokerId::new(2),
                Message::Mobility(MobilityMsg::FetchBuffered {
                    client: ClientId::new(7),
                    new_border: BrokerId::new(2),
                }),
            ),
        ),
        (
            "message/mobility",
            Message::Mobility(MobilityMsg::AppMoveTo { border: BrokerId::new(3) }),
        ),
        (
            "message/replica",
            Message::Replica(ReplicaMsg::PrepareOk { view: 3, op_number: 12, replica: 1 }),
        ),
    ]
}

/// Every sample row: name and encoded bytes.
fn sample_rows() -> Vec<(&'static str, Vec<u8>)> {
    let mut rows = Vec::new();
    rows.extend(all_values().iter().map(|(n, v)| (*n, enc(v, encode_value))));
    rows.extend(all_predicates().iter().map(|(n, p)| (*n, enc(p, encode_predicate))));
    rows.push(("notification", enc(&*sample_notification(9), |n, b| n.encode(b))));
    rows.push(("filter", enc(&sample_filter(), encode_filter)));
    rows.push(("subscription", enc(&sample_subscription(4), encode_subscription)));
    rows.extend(all_broker_ops().iter().map(|(n, o)| (*n, enc(o, encode_broker_op))));
    // Replica messages have no entry point of their own: behind their
    // `Message::Replica` tag byte (`0e`).
    let replica = all_replica_msgs().into_iter().map(|(n, r)| (n, Message::Replica(r)));
    rows.extend(replica.map(|(n, m)| (n, enc(&m, encode_message))));
    rows.extend(all_mobility_msgs().iter().map(|(n, m)| (*n, enc(m, encode_mobility))));
    rows.extend(all_messages().iter().map(|(n, m)| (*n, enc(m, encode_message))));
    rows
}

/// Recorded from the hand-written encoder; the tag 10/11 rows from the
/// list layout.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("value/bool", "0001"),
    ("value/int", "01f9ffffffffffffff"),
    ("value/float", "020000000000000440"),
    ("value/str", "030600000068c3a96c6c6f"),
    ("value/loc", "0404030201"),
    ("predicate/any", "00"),
    ("predicate/eq", "01010300000000000000"),
    ("predicate/ne", "02030100000078"),
    ("predicate/lt", "03020000000000000440"),
    ("predicate/le", "040001"),
    ("predicate/gt", "050407000000"),
    ("predicate/ge", "0601ffffffffffffffff"),
    ("predicate/in", "070300010100000000000000030300000074776f020000000000000840"),
    ("predicate/prefix", "08030074656d"),
    ("predicate/suffix", "090300757265"),
    ("predicate/contains", "0a0300706572"),
    ("predicate/in_locations", "0b02000100000009000000"),
    ("predicate/myloc", "0c"),
    ("predicate/myctx", "0d05007370656564"),
    ("notification", "02000000090000000000000010a40000000000000500070063656c7369757302000000000080354008006c6f636174696f6e04030000000400726f6f6d016800000000000000070073657276696365030b00000074656d70657261747572650600737461626c650001"),
    ("filter", "0300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d7065726174757265"),
    ("subscription", "04000000090000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d7065726174757265"),
    ("op/client_attach", "000400000001000000"),
    ("op/client_detach", "0104000000"),
    ("op/subscribe", "020100000008000000090000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d7065726174757265"),
    ("op/unsubscribe", "030900000008000000"),
    ("op/neighbor_subscribe", "04020000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d7065726174757265"),
    ("op/neighbor_unsubscribe", "05020000000000"),
    ("op/link_up", "0603000000"),
    ("op/link_down", "0703000000"),
    ("replica/forward", "0e00020100000008000000090000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d7065726174757265"),
    ("replica/prepare", "0e0103000000000000000d000000000000000b00000000000000080000000004000000010000000104000000020100000008000000090000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d706572617475726503090000000800000004020000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d70657261747572650502000000000006030000000703000000"),
    ("replica/prepare_empty", "0e0100000000000000000000000000000000000000000000000000000000"),
    ("replica/prepare_ok", "0e0203000000000000000c0000000000000001000000"),
    ("replica/commit", "0e0303000000000000000c00000000000000"),
    ("replica/start_view_change", "0e04040000000000000002000000"),
    ("replica/do_view_change", "0e05040000000000000003000000000000000c000000000000000900000000000000050000000004000000010000000104000000020100000008000000090000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d706572617475726503090000000800000004020000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d70657261747572650500000003090000000800000004020000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d7065726174757265050200000000000603000000070300000002000000"),
    ("replica/start_view", "0e0604000000000000000c000000000000000900000000000000050000000004000000010000000104000000020100000008000000090000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d706572617475726503090000000800000004020000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d70657261747572650500000003090000000800000004020000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d70657261747572650502000000000006030000000703000000"),
    ("replica/start_view_empty", "0e060000000000000000000000000000000000000000000000000000000000000000"),
    ("replica/recovery", "0e07010000004d00000000000000"),
    ("replica/recovery_response", "0e0804000000000000004d000000000000000c000000000000000900000000000000050000000004000000010000000104000000020100000008000000090000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d706572617475726503090000000800000004020000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d7065726174757265000000000100000000"),
    ("mobility/app_prepare_move", "00"),
    ("mobility/app_move_to", "0103000000"),
    ("mobility/app_disconnect", "02"),
    ("mobility/app_set_context", "030500737065656405011e00000000000000"),
    ("mobility/move_in", "04070000000101000000020001000000090000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d706572617475726502000000090000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d70657261747572650900000000000000"),
    ("mobility/move_in_fresh", "04070000000000000a00000000000000"),
    ("mobility/fetch_buffered", "050700000002000000"),
    ("mobility/buffered_batch", "0607000000010200000002000000000000000000000010a40000000000000500070063656c7369757302000000000080354008006c6f636174696f6e04030000000400726f6f6d016800000000000000070073657276696365030b00000074656d70657261747572650600737461626c65000102000000010000000000000010a40000000000000500070063656c7369757302000000000080354008006c6f636174696f6e04030000000400726f6f6d016800000000000000070073657276696365030b00000074656d70657261747572650600737461626c650001"),
    ("mobility/replica_create", "0707000000010003000000090000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d70657261747572650200000000000000"),
    ("mobility/replica_delete", "08070000000300000000000000"),
    ("mobility/replica_subscribe", "090700000004000000090000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d70657261747572650400000000000000"),
    ("mobility/replica_unsubscribe", "0a07000000040000000500000000000000"),
    ("mobility/replica_fetch", "0b0700000000000000"),
    ("mobility/replica_batch", "0c07000000000100000002000000020000000000000010a40000000000000500070063656c7369757302000000000080354008006c6f636174696f6e04030000000400726f6f6d016800000000000000070073657276696365030b00000074656d70657261747572650600737461626c650001"),
    ("message/app_publish", "0002000400726f6f6d010100000000000000070073657276696365030b00000074656d7065726174757265"),
    ("message/app_subscribe", "01050000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d7065726174757265"),
    ("message/app_unsubscribe", "0205000000"),
    ("message/client_attach", "0304000000"),
    ("message/client_detach", "0404000000"),
    ("message/publish", "0502000000030000000000000010a40000000000000500070063656c7369757302000000000080354008006c6f636174696f6e04030000000400726f6f6d016800000000000000070073657276696365030b00000074656d70657261747572650600737461626c650001"),
    ("message/subscribe", "0606000000090000000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d7065726174757265"),
    ("message/unsubscribe", "070400000006000000"),
    ("message/deliver", "080400000002000000040000000000000010a40000000000000500070063656c7369757302000000000080354008006c6f636174696f6e04030000000400726f6f6d016800000000000000070073657276696365030b00000074656d70657261747572650600737461626c650001"),
    ("message/forward", "0902000000050000000000000010a40000000000000500070063656c7369757302000000000080354008006c6f636174696f6e04030000000400726f6f6d016800000000000000070073657276696365030b00000074656d70657261747572650600737461626c650001"),
    ("message/sub_forward", "0a02000300070063656c736975730502000000000000344008006c6f636174696f6e0c07007365727669636501030b00000074656d70657261747572650000"),
    ("message/sub_forward_empty", "0a0000"),
    ("message/unsub_forward", "0b01000000"),
    ("message/routed", "0c020000000d050700000002000000"),
    ("message/mobility", "0d0103000000"),
    ("message/replica", "0e0203000000000000000c0000000000000001000000"),
];

#[test]
fn every_variant_encodes_to_its_golden_bytes() {
    let rows = sample_rows();
    let mut wrong = Vec::new();
    for (i, (name, bytes)) in rows.iter().enumerate() {
        let actual = hex(bytes);
        if GOLDEN.get(i).map(|(n, h)| (*n, *h)) != Some((*name, actual.as_str())) {
            wrong.push(format!("    (\"{name}\", \"{actual}\"),"));
        }
    }
    assert!(
        wrong.is_empty() && GOLDEN.len() == rows.len(),
        "{} golden rows, {} samples; rows that differ (as literals):\n{}",
        GOLDEN.len(),
        rows.len(),
        wrong.join("\n")
    );
}

// ----- the seeded corpus ------------------------------------------------

/// Draws protocol values from a `SplitMix64`. The draw order is part of
/// the pinned digest: a new variant here means re-recording it, with the
/// per-variant rows above proving the old layouts did not move.
struct Gen(SplitMix64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_below(n)
    }

    fn u32(&mut self) -> u32 {
        self.0.next_u64() as u32
    }

    fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn bool(&mut self) -> bool {
        self.below(2) == 1
    }

    /// 0–11 characters; one in eight is a two-byte code point so prefixes
    /// count bytes, not characters.
    fn string(&mut self) -> String {
        let len = self.below(12);
        (0..len)
            .map(|_| match self.below(8) {
                0 => 'é',
                _ => (b'a' + self.below(26) as u8) as char,
            })
            .collect()
    }

    fn value(&mut self) -> Value {
        match self.below(5) {
            0 => Value::Bool(self.bool()),
            1 => Value::Int(self.u64() as i64),
            2 => Value::from(self.0.next_f64() * 2e6 - 1e6),
            3 => Value::Str(self.string()),
            _ => Value::Loc(LocationId::new(self.u32())),
        }
    }

    fn predicate(&mut self) -> Predicate {
        use Predicate::*;
        match self.below(14) {
            0 => Any,
            1 => Eq(self.value()),
            2 => Ne(self.value()),
            3 => Lt(self.value()),
            4 => Le(self.value()),
            5 => Gt(self.value()),
            6 => Ge(self.value()),
            7 => {
                let n = self.below(4);
                In((0..n).map(|_| self.value()).collect())
            }
            8 => Prefix(self.string()),
            9 => Suffix(self.string()),
            10 => Contains(self.string()),
            11 => {
                let n = self.below(5);
                InLocations((0..n).map(|_| LocationId::new(self.u32())).collect())
            }
            12 => MyLoc,
            _ => MyCtx(self.string()),
        }
    }

    fn filter(&mut self) -> Filter {
        let n = self.below(4);
        Filter::from_constraints((0..n).map(|_| {
            let attr = self.string();
            Constraint::new(attr, self.predicate())
        }))
    }

    /// An announcement list of 0–4 filters.
    fn filters(&mut self) -> Vec<Filter> {
        let n = self.below(5);
        (0..n).map(|_| self.filter()).collect()
    }

    fn subscription(&mut self) -> Subscription {
        let (id, client) = (self.u32(), self.u32());
        Subscription::new(SubscriptionId::new(id), ClientId::new(client), self.filter())
    }

    fn subscriptions(&mut self) -> Vec<Subscription> {
        let n = self.below(3);
        (0..n).map(|_| self.subscription()).collect()
    }

    fn attrs(&mut self) -> rebeca_core::NotificationBuilder {
        let mut b = Notification::builder();
        for _ in 0..self.below(5) {
            let name = self.string();
            b = b.attr(name, self.value());
        }
        b
    }

    fn notification(&mut self) -> Arc<Notification> {
        let attrs = self.attrs();
        let (publisher, seq, at) = (self.u32(), self.u64(), self.u64());
        Arc::new(attrs.publish(ClientId::new(publisher), seq, SimTime::from_micros(at)))
    }

    fn notifications(&mut self) -> Vec<Arc<Notification>> {
        let n = self.below(3);
        (0..n).map(|_| self.notification()).collect()
    }

    fn op(&mut self) -> BrokerOp {
        let node = NodeId::new(self.u32());
        let client = ClientId::new(self.u32());
        match self.below(8) {
            0 => BrokerOp::ClientAttach { client, node },
            1 => BrokerOp::ClientDetach { client },
            2 => BrokerOp::Subscribe { node, subscription: self.subscription() },
            3 => BrokerOp::Unsubscribe { client, id: SubscriptionId::new(self.u32()) },
            4 => BrokerOp::NeighborSubscribe { node, filter: self.filter() },
            5 => BrokerOp::NeighborUnsubscribe { node, filter: self.filter() },
            6 => BrokerOp::LinkUp { node },
            _ => BrokerOp::LinkDown { node },
        }
    }

    fn ops(&mut self) -> Vec<BrokerOp> {
        let n = self.below(4);
        (0..n).map(|_| self.op()).collect()
    }

    fn log(&mut self) -> Box<LogState> {
        Box::new(LogState { base: self.u64(), checkpoint: self.ops(), tail: self.ops() })
    }

    fn replica(&mut self) -> ReplicaMsg {
        let (view, a, b, replica) = (self.u64(), self.u64(), self.u64(), self.u32());
        match self.below(9) {
            0 => ReplicaMsg::Forward { op: self.op() },
            1 => ReplicaMsg::Prepare { view, op_number: a, commit_number: b, ops: self.ops() },
            2 => ReplicaMsg::PrepareOk { view, op_number: a, replica },
            3 => ReplicaMsg::Commit { view, commit_number: a },
            4 => ReplicaMsg::StartViewChange { view, replica },
            5 => ReplicaMsg::DoViewChange {
                view,
                last_normal: a,
                commit_number: b,
                log: self.log(),
                replica,
            },
            6 => ReplicaMsg::StartView { view, commit_number: a, log: self.log() },
            7 => ReplicaMsg::Recovery { replica, nonce: a },
            _ => ReplicaMsg::RecoveryResponse {
                view,
                nonce: a,
                commit_number: b,
                log: self.log(),
                normal: self.bool(),
                replica,
            },
        }
    }

    fn mobility(&mut self) -> MobilityMsg {
        use MobilityMsg::*;
        let client = ClientId::new(self.u32());
        let app = ApplicationId::new(self.u32());
        let broker = BrokerId::new(self.u32());
        let epoch = self.u64();
        match self.below(13) {
            0 => AppPrepareMove,
            1 => AppMoveTo { border: broker },
            2 => AppDisconnect,
            3 => AppSetContext { key: self.string(), predicate: self.predicate() },
            4 => MoveIn {
                client,
                old_border: self.bool().then_some(broker),
                subscriptions: self.subscriptions(),
                epoch,
            },
            5 => FetchBuffered { client, new_border: broker },
            6 => {
                BufferedBatch { client, notifications: self.notifications(), complete: self.bool() }
            }
            7 => ReplicaCreate { app, subscriptions: self.subscriptions(), epoch },
            8 => ReplicaDelete { app, epoch },
            9 => ReplicaSubscribe { app, subscription: self.subscription(), epoch },
            10 => ReplicaUnsubscribe { app, id: SubscriptionId::new(self.u32()), epoch },
            11 => ReplicaFetch { app, reply_to: broker },
            _ => ReplicaBatch { app, notifications: self.notifications(), complete: self.bool() },
        }
    }

    fn message(&mut self, depth: u32) -> Message {
        let client = ClientId::new(self.u32());
        let id = SubscriptionId::new(self.u32());
        match self.below(if depth < 2 { 15 } else { 14 }) {
            0 => Message::AppPublish { attrs: self.attrs() },
            1 => Message::AppSubscribe { id, filter: self.filter() },
            2 => Message::AppUnsubscribe { id },
            3 => Message::ClientAttach { client },
            4 => Message::ClientDetach { client },
            5 => Message::Publish { notification: self.notification() },
            6 => Message::Subscribe { subscription: self.subscription() },
            7 => Message::Unsubscribe { client, id },
            8 => Message::Deliver { client, notification: self.notification() },
            9 => Message::Forward { notification: self.notification() },
            10 => Message::SubForward { filters: self.filters().into() },
            11 => Message::UnsubForward { filters: self.filters().into() },
            12 => Message::Mobility(self.mobility()),
            13 => Message::Replica(self.replica()),
            _ => Message::routed(BrokerId::new(self.u32()), self.message(depth + 1)),
        }
    }
}

const CORPUS_SEED: u64 = 0x5EED_C0DE_C0FF_EE23;
const CORPUS_MESSAGES: usize = 12_000;
/// Re-recorded when announcements became filter lists.
const CORPUS_BYTES: usize = 417_225;
const CORPUS_DIGEST: u64 = 0xb353_36eb_72c5_166e;

#[test]
fn seeded_corpus_encodes_to_its_golden_digest() {
    let mut gen = Gen(SplitMix64::new(CORPUS_SEED));
    let mut stream = Vec::new();
    let mut seen = [false; 15];
    for i in 0..CORPUS_MESSAGES {
        let m = gen.message(0);
        let start = stream.len();
        encode_message(&m, &mut stream);
        seen[stream[start] as usize] = true;
        // Spot-check the decode side on a slice of the corpus: the digest
        // alone would not notice a decoder that drifted from the encoder.
        if i % 16 == 0 {
            assert_eq!(Message::decode(&stream[start..]).expect("own encoding"), m);
        }
    }
    assert!(seen.iter().all(|s| *s), "the corpus reaches every message tag: {seen:?}");
    let digest = stream.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        (stream.len(), digest),
        (CORPUS_BYTES, CORPUS_DIGEST),
        "corpus is {} bytes, digest {digest:#018x}",
        stream.len()
    );
}

/// The simulator is charged exactly the bytes the socket carries: every
/// derived size equals the encoded length, for every sample variant and for
/// a slice of the seeded corpus, and each round-trips through the
/// transport seam.
#[test]
fn size_is_the_encoding() {
    let mobility = all_mobility_msgs().into_iter().map(|(n, m)| (n, Message::Mobility(m)));
    let replica = all_replica_msgs().into_iter().map(|(n, r)| (n, Message::Replica(r)));
    let mut gen = Gen(SplitMix64::new(CORPUS_SEED));
    let drawn = (0..2_000).map(|_| ("corpus", gen.message(0))).collect::<Vec<_>>();
    for (name, m) in all_messages().into_iter().chain(mobility).chain(replica).chain(drawn) {
        let mut bytes = Vec::new();
        m.encode_into(&mut bytes);
        assert_eq!(Message::decode(&bytes).expect(name), m, "{name}");
        assert_eq!(m.wire_size(), bytes.len(), "{name}: {m:?}");
    }
    for (name, p) in all_predicates() {
        assert_eq!(p.wire_size(), enc(&p, encode_predicate).len(), "{name}");
    }
    let (n, f, s) = (sample_notification(9), sample_filter(), sample_subscription(4));
    assert_eq!(n.wire_size(), enc(&*n, |n, b| n.encode(b)).len());
    assert_eq!(f.wire_size(), enc(&f, encode_filter).len());
    assert_eq!(s.wire_size(), enc(&s, encode_subscription).len());
}

// ----- the notification body ---------------------------------------------

const DIGEST_SEED: u64 = 0xD16E_57A7_7E55_0001;
const DIGEST_NOTIFICATIONS: usize = 4_000;
/// Recorded from the `BTreeMap` attribute set, before the set became flat.
const DIGESTS: [u64; 4] =
    [0x6663_534e_eca8_a439, 0x8d3f_a707_791f_b3c1, 0xb2fd_45e9_9831_991d, 0x5a8e_11f8_276e_dac1];
const DIGEST_FOLD: u64 = 0xdabc_b1cf_38c6_0045;

/// Shared buffers key notifications by [`Notification::digest`], so the
/// attribute set's layout may not move it: the first digests of a seeded
/// draw, and a fold over all of them, are pinned.
#[test]
fn seeded_notification_digests_are_pinned() {
    let mut gen = Gen(SplitMix64::new(DIGEST_SEED));
    let digests: Vec<u64> =
        (0..DIGEST_NOTIFICATIONS).map(|_| gen.notification().digest().raw()).collect();
    let fold = digests.iter().fold(0u64, |h, d| h.rotate_left(7) ^ d);
    assert_eq!((&digests[..4], fold), (&DIGESTS[..], DIGEST_FOLD));
}

/// The two readers of a notification body agree: the owned decode equals
/// the archived view's promotion, for the sample and for every
/// notification the seeded generator draws.
#[test]
fn owned_decode_equals_the_archived_promotion() {
    let mut gen = Gen(SplitMix64::new(CORPUS_SEED));
    let drawn = (0..2_000).map(|_| gen.notification());
    for n in std::iter::once(sample_notification(9)).chain(drawn) {
        let bytes = enc(&*n, |n, b| n.encode(b));
        let owned = Notification::decode(&mut bytes.as_slice()).expect("own encoding");
        let (view, rest) = ArchivedNotification::parse(&bytes).expect("own encoding");
        assert!(rest.is_empty());
        assert_eq!(owned, view.to_notification(), "{n}");
        assert_eq!(owned, *n);
    }
}
