//! Wire codec for the full broker protocol.
//!
//! Extends the `rebeca-core` codec ([`rebeca_core::codec`]) to every
//! [`Message`] / [`MobilityMsg`] variant and to [`TableDelta`], so the
//! framed transport can carry the complete protocol between OS processes.
//! Conventions match the core codec: little-endian fixed-width integers,
//! length-prefixed payloads, a leading tag byte per enum, and decoders
//! that fail with [`CoreError::Truncated`] / [`CoreError::BadTag`] /
//! [`CoreError::Decode`] — never a panic — on foreign bytes.
//!
//! Notifications travel in their canonical [`Notification::encode`] form,
//! so a receiver may either decode them into owned values (this module) or
//! view them zero-copy via
//! [`ArchivedNotification`](rebeca_core::codec::ArchivedNotification)
//! before promoting. [`Message::Routed`] nests recursively; decode caps
//! the nesting depth so adversarial bytes cannot recurse the stack away.

use crate::message::{Message, MobilityMsg};
use crate::replication::{BrokerOp, LogState, ReplicaMsg};
use crate::table::{FilterOrigin, TableDelta};
use bytes::{Buf, BufMut};
use rebeca_core::codec::{
    decode_filter, decode_predicate, decode_subscription, decode_value, encode_filter,
    encode_predicate, encode_subscription, encode_value, need,
};
use rebeca_core::{
    ApplicationId, BrokerId, ClientId, CoreError, Notification, NotificationBuilder, SubscriptionId,
};
use rebeca_net::NodeId;
use std::sync::Arc;

/// Maximum [`Message::Routed`] nesting depth the decoder accepts. The
/// protocol itself nests at most once (a routed mobility control message);
/// the cap keeps adversarial input from recursing unboundedly.
pub const MAX_ROUTED_DEPTH: usize = 16;

fn put_short_str(s: &str, buf: &mut impl BufMut) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_short_string(buf: &mut impl Buf) -> Result<String, CoreError> {
    need(buf, 2)?;
    let len = buf.get_u16_le() as usize;
    rebeca_core::codec::get_string(buf, len)
}

fn encode_notifications(ns: &[Arc<Notification>], buf: &mut impl BufMut) {
    buf.put_u32_le(ns.len() as u32);
    for n in ns {
        n.encode(buf);
    }
}

fn decode_notifications(buf: &mut impl Buf) -> Result<Vec<Arc<Notification>>, CoreError> {
    need(buf, 4)?;
    let n = buf.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(Arc::new(Notification::decode(buf)?));
    }
    Ok(out)
}

fn encode_subscriptions(subs: &[rebeca_core::Subscription], buf: &mut impl BufMut) {
    buf.put_u16_le(subs.len() as u16);
    for s in subs {
        encode_subscription(s, buf);
    }
}

fn decode_subscriptions(buf: &mut impl Buf) -> Result<Vec<rebeca_core::Subscription>, CoreError> {
    need(buf, 2)?;
    let n = buf.get_u16_le() as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(decode_subscription(buf)?);
    }
    Ok(out)
}

/// Encodes a [`Message`] (tag byte + payload).
pub fn encode_message(m: &Message, buf: &mut impl BufMut) {
    match m {
        Message::AppPublish { attrs } => {
            buf.put_u8(0);
            buf.put_u16_le(attrs.len() as u16);
            for (name, v) in attrs.attrs() {
                put_short_str(name, buf);
                encode_value(v, buf);
            }
        }
        Message::AppSubscribe { id, filter } => {
            buf.put_u8(1);
            buf.put_u32_le(id.raw());
            encode_filter(filter, buf);
        }
        Message::AppUnsubscribe { id } => {
            buf.put_u8(2);
            buf.put_u32_le(id.raw());
        }
        Message::ClientAttach { client } => {
            buf.put_u8(3);
            buf.put_u32_le(client.raw());
        }
        Message::ClientDetach { client } => {
            buf.put_u8(4);
            buf.put_u32_le(client.raw());
        }
        Message::Publish { notification } => {
            buf.put_u8(5);
            notification.encode(buf);
        }
        Message::Subscribe { subscription } => {
            buf.put_u8(6);
            encode_subscription(subscription, buf);
        }
        Message::Unsubscribe { client, id } => {
            buf.put_u8(7);
            buf.put_u32_le(client.raw());
            buf.put_u32_le(id.raw());
        }
        Message::Deliver { client, notification } => {
            buf.put_u8(8);
            buf.put_u32_le(client.raw());
            notification.encode(buf);
        }
        Message::Forward { notification } => {
            buf.put_u8(9);
            notification.encode(buf);
        }
        Message::SubForward { filter } => {
            buf.put_u8(10);
            encode_filter(filter, buf);
        }
        Message::UnsubForward { filter } => {
            buf.put_u8(11);
            encode_filter(filter, buf);
        }
        Message::Routed { to, inner } => {
            buf.put_u8(12);
            buf.put_u32_le(to.raw());
            encode_message(inner, buf);
        }
        Message::Mobility(m) => {
            buf.put_u8(13);
            encode_mobility(m, buf);
        }
        Message::Replica(r) => {
            buf.put_u8(14);
            encode_replica(r, buf);
        }
    }
}

/// Decodes a [`Message`].
///
/// # Errors
///
/// [`CoreError::Truncated`], [`CoreError::BadTag`] or [`CoreError::Decode`]
/// (invalid UTF-8, or [`Message::Routed`] nested deeper than
/// [`MAX_ROUTED_DEPTH`]).
pub fn decode_message(buf: &mut impl Buf) -> Result<Message, CoreError> {
    decode_message_at(buf, 0)
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
        if !cursor.is_empty() {
            return Err(CoreError::Decode(format!(
                "{} trailing bytes after a complete message",
                cursor.len()
            )));
        }
        Ok(msg)
    }
}

fn decode_message_at(buf: &mut impl Buf, depth: usize) -> Result<Message, CoreError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => {
            need(buf, 2)?;
            let n = buf.get_u16_le() as usize;
            let mut attrs = NotificationBuilder::new();
            for _ in 0..n {
                let name = get_short_string(buf)?;
                attrs = attrs.attr(name, decode_value(buf)?);
            }
            Ok(Message::AppPublish { attrs })
        }
        1 => {
            need(buf, 4)?;
            let id = SubscriptionId::new(buf.get_u32_le());
            Ok(Message::AppSubscribe { id, filter: decode_filter(buf)? })
        }
        2 => {
            need(buf, 4)?;
            Ok(Message::AppUnsubscribe { id: SubscriptionId::new(buf.get_u32_le()) })
        }
        3 => {
            need(buf, 4)?;
            Ok(Message::ClientAttach { client: ClientId::new(buf.get_u32_le()) })
        }
        4 => {
            need(buf, 4)?;
            Ok(Message::ClientDetach { client: ClientId::new(buf.get_u32_le()) })
        }
        5 => Ok(Message::Publish { notification: Arc::new(Notification::decode(buf)?) }),
        6 => Ok(Message::Subscribe { subscription: decode_subscription(buf)? }),
        7 => {
            need(buf, 8)?;
            let client = ClientId::new(buf.get_u32_le());
            let id = SubscriptionId::new(buf.get_u32_le());
            Ok(Message::Unsubscribe { client, id })
        }
        8 => {
            need(buf, 4)?;
            let client = ClientId::new(buf.get_u32_le());
            Ok(Message::Deliver { client, notification: Arc::new(Notification::decode(buf)?) })
        }
        9 => Ok(Message::Forward { notification: Arc::new(Notification::decode(buf)?) }),
        10 => Ok(Message::SubForward { filter: decode_filter(buf)? }),
        11 => Ok(Message::UnsubForward { filter: decode_filter(buf)? }),
        12 => {
            if depth >= MAX_ROUTED_DEPTH {
                return Err(CoreError::Decode(format!(
                    "routed message nested deeper than {MAX_ROUTED_DEPTH}"
                )));
            }
            need(buf, 4)?;
            let to = BrokerId::new(buf.get_u32_le());
            let inner = Box::new(decode_message_at(buf, depth + 1)?);
            Ok(Message::Routed { to, inner })
        }
        13 => Ok(Message::Mobility(decode_mobility(buf)?)),
        14 => Ok(Message::Replica(decode_replica(buf)?)),
        tag => Err(CoreError::BadTag { what: "message", tag }),
    }
}

/// Encodes a [`MobilityMsg`] (tag byte + payload).
pub fn encode_mobility(m: &MobilityMsg, buf: &mut impl BufMut) {
    match m {
        MobilityMsg::AppPrepareMove => buf.put_u8(0),
        MobilityMsg::AppMoveTo { border } => {
            buf.put_u8(1);
            buf.put_u32_le(border.raw());
        }
        MobilityMsg::AppDisconnect => buf.put_u8(2),
        MobilityMsg::AppSetContext { key, predicate } => {
            buf.put_u8(3);
            put_short_str(key, buf);
            encode_predicate(predicate, buf);
        }
        MobilityMsg::MoveIn { client, old_border, subscriptions, epoch } => {
            buf.put_u8(4);
            buf.put_u32_le(client.raw());
            match old_border {
                Some(b) => {
                    buf.put_u8(1);
                    buf.put_u32_le(b.raw());
                }
                None => buf.put_u8(0),
            }
            encode_subscriptions(subscriptions, buf);
            buf.put_u64_le(*epoch);
        }
        MobilityMsg::FetchBuffered { client, new_border } => {
            buf.put_u8(5);
            buf.put_u32_le(client.raw());
            buf.put_u32_le(new_border.raw());
        }
        MobilityMsg::BufferedBatch { client, notifications, complete } => {
            buf.put_u8(6);
            buf.put_u32_le(client.raw());
            buf.put_u8(u8::from(*complete));
            encode_notifications(notifications, buf);
        }
        MobilityMsg::ReplicaCreate { app, subscriptions, epoch } => {
            buf.put_u8(7);
            buf.put_u32_le(app.raw());
            encode_subscriptions(subscriptions, buf);
            buf.put_u64_le(*epoch);
        }
        MobilityMsg::ReplicaDelete { app, epoch } => {
            buf.put_u8(8);
            buf.put_u32_le(app.raw());
            buf.put_u64_le(*epoch);
        }
        MobilityMsg::ReplicaSubscribe { app, subscription, epoch } => {
            buf.put_u8(9);
            buf.put_u32_le(app.raw());
            encode_subscription(subscription, buf);
            buf.put_u64_le(*epoch);
        }
        MobilityMsg::ReplicaUnsubscribe { app, id, epoch } => {
            buf.put_u8(10);
            buf.put_u32_le(app.raw());
            buf.put_u32_le(id.raw());
            buf.put_u64_le(*epoch);
        }
        MobilityMsg::ReplicaFetch { app, reply_to } => {
            buf.put_u8(11);
            buf.put_u32_le(app.raw());
            buf.put_u32_le(reply_to.raw());
        }
        MobilityMsg::ReplicaBatch { app, notifications, complete } => {
            buf.put_u8(12);
            buf.put_u32_le(app.raw());
            buf.put_u8(u8::from(*complete));
            encode_notifications(notifications, buf);
        }
    }
}

/// Decodes a [`MobilityMsg`].
///
/// # Errors
///
/// [`CoreError::Truncated`], [`CoreError::BadTag`] or [`CoreError::Decode`].
pub fn decode_mobility(buf: &mut impl Buf) -> Result<MobilityMsg, CoreError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => Ok(MobilityMsg::AppPrepareMove),
        1 => {
            need(buf, 4)?;
            Ok(MobilityMsg::AppMoveTo { border: BrokerId::new(buf.get_u32_le()) })
        }
        2 => Ok(MobilityMsg::AppDisconnect),
        3 => {
            let key = get_short_string(buf)?;
            Ok(MobilityMsg::AppSetContext { key, predicate: decode_predicate(buf)? })
        }
        4 => {
            need(buf, 5)?;
            let client = ClientId::new(buf.get_u32_le());
            let old_border = match buf.get_u8() {
                0 => None,
                1 => {
                    need(buf, 4)?;
                    Some(BrokerId::new(buf.get_u32_le()))
                }
                tag => return Err(CoreError::BadTag { what: "option", tag }),
            };
            let subscriptions = decode_subscriptions(buf)?;
            need(buf, 8)?;
            let epoch = buf.get_u64_le();
            Ok(MobilityMsg::MoveIn { client, old_border, subscriptions, epoch })
        }
        5 => {
            need(buf, 8)?;
            let client = ClientId::new(buf.get_u32_le());
            let new_border = BrokerId::new(buf.get_u32_le());
            Ok(MobilityMsg::FetchBuffered { client, new_border })
        }
        6 => {
            need(buf, 5)?;
            let client = ClientId::new(buf.get_u32_le());
            let complete = buf.get_u8() != 0;
            let notifications = decode_notifications(buf)?;
            Ok(MobilityMsg::BufferedBatch { client, notifications, complete })
        }
        7 => {
            need(buf, 4)?;
            let app = ApplicationId::new(buf.get_u32_le());
            let subscriptions = decode_subscriptions(buf)?;
            need(buf, 8)?;
            let epoch = buf.get_u64_le();
            Ok(MobilityMsg::ReplicaCreate { app, subscriptions, epoch })
        }
        8 => {
            need(buf, 12)?;
            let app = ApplicationId::new(buf.get_u32_le());
            let epoch = buf.get_u64_le();
            Ok(MobilityMsg::ReplicaDelete { app, epoch })
        }
        9 => {
            need(buf, 4)?;
            let app = ApplicationId::new(buf.get_u32_le());
            let subscription = decode_subscription(buf)?;
            need(buf, 8)?;
            let epoch = buf.get_u64_le();
            Ok(MobilityMsg::ReplicaSubscribe { app, subscription, epoch })
        }
        10 => {
            need(buf, 16)?;
            let app = ApplicationId::new(buf.get_u32_le());
            let id = SubscriptionId::new(buf.get_u32_le());
            let epoch = buf.get_u64_le();
            Ok(MobilityMsg::ReplicaUnsubscribe { app, id, epoch })
        }
        11 => {
            need(buf, 8)?;
            let app = ApplicationId::new(buf.get_u32_le());
            let reply_to = BrokerId::new(buf.get_u32_le());
            Ok(MobilityMsg::ReplicaFetch { app, reply_to })
        }
        12 => {
            need(buf, 5)?;
            let app = ApplicationId::new(buf.get_u32_le());
            let complete = buf.get_u8() != 0;
            let notifications = decode_notifications(buf)?;
            Ok(MobilityMsg::ReplicaBatch { app, notifications, complete })
        }
        tag => Err(CoreError::BadTag { what: "mobility", tag }),
    }
}

fn encode_origin(o: FilterOrigin, buf: &mut impl BufMut) {
    match o {
        FilterOrigin::Client => buf.put_u8(0),
        FilterOrigin::Neighbor(n) => {
            buf.put_u8(1);
            buf.put_u32_le(n.raw());
        }
    }
}

fn decode_origin(buf: &mut impl Buf) -> Result<FilterOrigin, CoreError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => Ok(FilterOrigin::Client),
        1 => {
            need(buf, 4)?;
            Ok(FilterOrigin::Neighbor(NodeId::new(buf.get_u32_le())))
        }
        tag => Err(CoreError::BadTag { what: "origin", tag }),
    }
}

/// Encodes a [`TableDelta`] (two origin+filter lists, added then removed).
pub fn encode_table_delta(d: &TableDelta, buf: &mut impl BufMut) {
    for list in [&d.added, &d.removed] {
        buf.put_u16_le(list.len() as u16);
        for (origin, filter) in list {
            encode_origin(*origin, buf);
            encode_filter(filter, buf);
        }
    }
}

/// Decodes a [`TableDelta`].
///
/// # Errors
///
/// [`CoreError::Truncated`], [`CoreError::BadTag`] or [`CoreError::Decode`].
pub fn decode_table_delta(buf: &mut impl Buf) -> Result<TableDelta, CoreError> {
    let mut delta = TableDelta::default();
    for list in [&mut delta.added, &mut delta.removed] {
        need(buf, 2)?;
        let n = buf.get_u16_le() as usize;
        for _ in 0..n {
            let origin = decode_origin(buf)?;
            let filter = decode_filter(buf)?;
            list.push((origin, filter));
        }
    }
    Ok(delta)
}

/// Encodes a [`BrokerOp`] (tag byte + payload) — one entry of a
/// replication op log.
pub fn encode_broker_op(op: &BrokerOp, buf: &mut impl BufMut) {
    match op {
        BrokerOp::ClientAttach { client, node } => {
            buf.put_u8(0);
            buf.put_u32_le(client.raw());
            buf.put_u32_le(node.raw());
        }
        BrokerOp::ClientDetach { client } => {
            buf.put_u8(1);
            buf.put_u32_le(client.raw());
        }
        BrokerOp::Subscribe { node, subscription } => {
            buf.put_u8(2);
            buf.put_u32_le(node.raw());
            encode_subscription(subscription, buf);
        }
        BrokerOp::Unsubscribe { client, id } => {
            buf.put_u8(3);
            buf.put_u32_le(client.raw());
            buf.put_u32_le(id.raw());
        }
        BrokerOp::NeighborSubscribe { node, filter } => {
            buf.put_u8(4);
            buf.put_u32_le(node.raw());
            encode_filter(filter, buf);
        }
        BrokerOp::NeighborUnsubscribe { node, filter } => {
            buf.put_u8(5);
            buf.put_u32_le(node.raw());
            encode_filter(filter, buf);
        }
        BrokerOp::LinkUp { node } => {
            buf.put_u8(6);
            buf.put_u32_le(node.raw());
        }
        BrokerOp::LinkDown { node } => {
            buf.put_u8(7);
            buf.put_u32_le(node.raw());
        }
    }
}

/// Decodes a [`BrokerOp`].
///
/// # Errors
///
/// [`CoreError::Truncated`], [`CoreError::BadTag`] or [`CoreError::Decode`].
pub fn decode_broker_op(buf: &mut impl Buf) -> Result<BrokerOp, CoreError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => {
            need(buf, 8)?;
            let client = ClientId::new(buf.get_u32_le());
            let node = NodeId::new(buf.get_u32_le());
            Ok(BrokerOp::ClientAttach { client, node })
        }
        1 => {
            need(buf, 4)?;
            Ok(BrokerOp::ClientDetach { client: ClientId::new(buf.get_u32_le()) })
        }
        2 => {
            need(buf, 4)?;
            let node = NodeId::new(buf.get_u32_le());
            Ok(BrokerOp::Subscribe { node, subscription: decode_subscription(buf)? })
        }
        3 => {
            need(buf, 8)?;
            let client = ClientId::new(buf.get_u32_le());
            let id = SubscriptionId::new(buf.get_u32_le());
            Ok(BrokerOp::Unsubscribe { client, id })
        }
        4 => {
            need(buf, 4)?;
            let node = NodeId::new(buf.get_u32_le());
            Ok(BrokerOp::NeighborSubscribe { node, filter: decode_filter(buf)? })
        }
        5 => {
            need(buf, 4)?;
            let node = NodeId::new(buf.get_u32_le());
            Ok(BrokerOp::NeighborUnsubscribe { node, filter: decode_filter(buf)? })
        }
        6 => {
            need(buf, 4)?;
            Ok(BrokerOp::LinkUp { node: NodeId::new(buf.get_u32_le()) })
        }
        7 => {
            need(buf, 4)?;
            Ok(BrokerOp::LinkDown { node: NodeId::new(buf.get_u32_le()) })
        }
        // Tag 8 was the retired mobility-buffer op; it stays unassigned.
        tag => Err(CoreError::BadTag { what: "broker op", tag }),
    }
}

fn encode_op_log(ops: &[BrokerOp], buf: &mut impl BufMut) {
    buf.put_u32_le(ops.len() as u32);
    for op in ops {
        encode_broker_op(op, buf);
    }
}

fn decode_op_log(buf: &mut impl Buf) -> Result<Vec<BrokerOp>, CoreError> {
    need(buf, 4)?;
    let n = buf.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(decode_broker_op(buf)?);
    }
    Ok(out)
}

/// A log as the whole-state messages carry it: `base`, then checkpoint and
/// tail as two op lists.
fn encode_log_state(log: &LogState, buf: &mut impl BufMut) {
    buf.put_u64_le(log.base);
    encode_op_log(&log.checkpoint, buf);
    encode_op_log(&log.tail, buf);
}

fn decode_log_state(buf: &mut impl Buf) -> Result<LogState, CoreError> {
    need(buf, 8)?;
    let base = buf.get_u64_le();
    let checkpoint = decode_op_log(buf)?;
    let tail = decode_op_log(buf)?;
    Ok(LogState { base, checkpoint, tail })
}

/// Encodes a [`ReplicaMsg`] (tag byte + payload).
pub fn encode_replica(r: &ReplicaMsg, buf: &mut impl BufMut) {
    match r {
        ReplicaMsg::Forward { op } => {
            buf.put_u8(0);
            encode_broker_op(op, buf);
        }
        ReplicaMsg::Prepare { view, op_number, commit_number, ops } => {
            buf.put_u8(1);
            buf.put_u64_le(*view);
            buf.put_u64_le(*op_number);
            buf.put_u64_le(*commit_number);
            encode_op_log(ops, buf);
        }
        ReplicaMsg::PrepareOk { view, op_number, replica } => {
            buf.put_u8(2);
            buf.put_u64_le(*view);
            buf.put_u64_le(*op_number);
            buf.put_u32_le(*replica);
        }
        ReplicaMsg::Commit { view, commit_number } => {
            buf.put_u8(3);
            buf.put_u64_le(*view);
            buf.put_u64_le(*commit_number);
        }
        ReplicaMsg::StartViewChange { view, replica } => {
            buf.put_u8(4);
            buf.put_u64_le(*view);
            buf.put_u32_le(*replica);
        }
        ReplicaMsg::DoViewChange { view, last_normal, commit_number, log, replica } => {
            buf.put_u8(5);
            buf.put_u64_le(*view);
            buf.put_u64_le(*last_normal);
            buf.put_u64_le(*commit_number);
            encode_log_state(log, buf);
            buf.put_u32_le(*replica);
        }
        ReplicaMsg::StartView { view, commit_number, log } => {
            buf.put_u8(6);
            buf.put_u64_le(*view);
            buf.put_u64_le(*commit_number);
            encode_log_state(log, buf);
        }
        ReplicaMsg::Recovery { replica, nonce } => {
            buf.put_u8(7);
            buf.put_u32_le(*replica);
            buf.put_u64_le(*nonce);
        }
        ReplicaMsg::RecoveryResponse { view, nonce, commit_number, log, normal, replica } => {
            buf.put_u8(8);
            buf.put_u64_le(*view);
            buf.put_u64_le(*nonce);
            buf.put_u64_le(*commit_number);
            encode_log_state(log, buf);
            buf.put_u8(u8::from(*normal));
            buf.put_u32_le(*replica);
        }
    }
}

/// Decodes a [`ReplicaMsg`].
///
/// # Errors
///
/// [`CoreError::Truncated`], [`CoreError::BadTag`] or [`CoreError::Decode`].
pub fn decode_replica(buf: &mut impl Buf) -> Result<ReplicaMsg, CoreError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => Ok(ReplicaMsg::Forward { op: decode_broker_op(buf)? }),
        1 => {
            need(buf, 24)?;
            let view = buf.get_u64_le();
            let op_number = buf.get_u64_le();
            let commit_number = buf.get_u64_le();
            let ops = decode_op_log(buf)?;
            Ok(ReplicaMsg::Prepare { view, op_number, commit_number, ops })
        }
        2 => {
            need(buf, 20)?;
            let view = buf.get_u64_le();
            let op_number = buf.get_u64_le();
            let replica = buf.get_u32_le();
            Ok(ReplicaMsg::PrepareOk { view, op_number, replica })
        }
        3 => {
            need(buf, 16)?;
            let view = buf.get_u64_le();
            let commit_number = buf.get_u64_le();
            Ok(ReplicaMsg::Commit { view, commit_number })
        }
        4 => {
            need(buf, 12)?;
            let view = buf.get_u64_le();
            let replica = buf.get_u32_le();
            Ok(ReplicaMsg::StartViewChange { view, replica })
        }
        5 => {
            need(buf, 24)?;
            let view = buf.get_u64_le();
            let last_normal = buf.get_u64_le();
            let commit_number = buf.get_u64_le();
            let log = Box::new(decode_log_state(buf)?);
            need(buf, 4)?;
            let replica = buf.get_u32_le();
            Ok(ReplicaMsg::DoViewChange { view, last_normal, commit_number, log, replica })
        }
        6 => {
            need(buf, 16)?;
            let view = buf.get_u64_le();
            let commit_number = buf.get_u64_le();
            let log = Box::new(decode_log_state(buf)?);
            Ok(ReplicaMsg::StartView { view, commit_number, log })
        }
        7 => {
            need(buf, 12)?;
            let replica = buf.get_u32_le();
            let nonce = buf.get_u64_le();
            Ok(ReplicaMsg::Recovery { replica, nonce })
        }
        8 => {
            need(buf, 24)?;
            let view = buf.get_u64_le();
            let nonce = buf.get_u64_le();
            let commit_number = buf.get_u64_le();
            let log = Box::new(decode_log_state(buf)?);
            need(buf, 5)?;
            let normal = buf.get_u8() != 0;
            let replica = buf.get_u32_le();
            Ok(ReplicaMsg::RecoveryResponse { view, nonce, commit_number, log, normal, replica })
        }
        tag => Err(CoreError::BadTag { what: "replica", tag }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_core::{Filter, SimTime, Subscription, Value};

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
            Message::SubForward { filter: sample_filter() },
            Message::UnsubForward { filter: Filter::all() },
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

    #[test]
    fn routed_depth_is_capped() {
        let mut m = Message::SubForward { filter: Filter::all() };
        for _ in 0..(MAX_ROUTED_DEPTH + 2) {
            m = Message::routed(BrokerId::new(0), m);
        }
        let mut buf = Vec::new();
        encode_message(&m, &mut buf);
        let mut cur: &[u8] = &buf;
        assert!(matches!(decode_message(&mut cur), Err(CoreError::Decode(_))));
    }

    #[test]
    fn table_delta_round_trips() {
        let mut d = TableDelta::default();
        d.added.push((FilterOrigin::Client, sample_filter()));
        d.added.push((FilterOrigin::Neighbor(NodeId::new(3)), Filter::all()));
        d.removed.push((FilterOrigin::Client, Filter::all()));
        let mut buf = Vec::new();
        encode_table_delta(&d, &mut buf);
        let mut cur: &[u8] = &buf;
        let back = decode_table_delta(&mut cur).expect("decode");
        assert_eq!(back.added, d.added);
        assert_eq!(back.removed, d.removed);
        assert_eq!(cur.remaining(), 0);
        for cut in 0..buf.len() {
            let mut cur = &buf[..cut];
            assert!(decode_table_delta(&mut cur).is_err(), "cut {cut}");
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use rebeca_core::{Filter, Predicate, SimTime, Subscription, Value};

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
            arb_filter().prop_map(|filter| Message::SubForward { filter }),
            arb_filter().prop_map(|filter| Message::UnsubForward { filter }),
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
