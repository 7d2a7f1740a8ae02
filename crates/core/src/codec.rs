//! The wire format, written once: a small field codec, a table form, and a
//! **zero-copy archived view** of notifications.
//!
//! Every type the protocol ships over a link has one description of its
//! byte layout — a [`Field`] impl — which yields the encoder, the decoder
//! and the exact encoded size ([`wire_len`] runs the encoder into a byte
//! counter), so the three cannot drift apart.
//!
//! ## Field kinds and the table form
//!
//! A *kind* is a type implementing [`Field`]; `Field::T` is the Rust value
//! it carries. A type with one layout is its own kind: `u8`…`u64`, `i64`,
//! `f64` (little-endian, fixed width), `bool` (one byte, non-zero is
//! `true`), the id newtypes and [`SimTime`] (their raw integer),
//! `Option<K>` (a `0`/`1` byte, then `K`), `Box<K>` and `Arc<K>` (just
//! `K`). Where one Rust type has several layouts the kind is a marker:
//! [`Str<N>`] is a `String` behind an `N` byte count (`u16` for names and
//! short operands, `u32` for string values), [`List<N, K>`] a `Vec` behind
//! an `N` item count, [`Nested`] a `Box<K>` that may recurse only so deep.
//!
//! [`wire_table!`](crate::wire_table) turns `tag => Variant { field: kind }`
//! rows, or the `field: kind` list of a struct, into a [`Field`] impl; the
//! tables of the data model follow below and beside the types whose fields
//! are private. Enums carry a leading tag byte (predicate tags equal the
//! canonical digest tags of `Predicate::hash_into`). Adding a variant is
//! one row.
//!
//! Decoders never panic on foreign bytes and trust no prefix: each field is
//! bounds-checked where it is read (a short buffer is
//! [`CoreError::Truncated`]), an unknown tag byte is [`CoreError::BadTag`],
//! invalid UTF-8 is [`CoreError::Decode`], and the readers that reserve —
//! [`List`] and the attribute set — cap their reservations whatever the
//! count claims.
//!
//! ## Written by hand, and why
//!
//! * [`Filter`]: decoded constraints are re-normalised through
//!   [`Filter::from_constraints`], so bytes in any order decode to the
//!   filter every other construction path would have built.
//! * Location sets: counted like a [`List`], but read into their ordered
//!   collection.
//! * Attribute sets (in `notification.rs`): counted like a [`List`] of
//!   `Str<u16>` names and values, but read into one flat set — every name
//!   appended to one `String`, the set sized by the bytes at hand rather
//!   than by the count, sorted once after the read.
//! * [`ArchivedNotification`]: the borrowing second reader of the
//!   notification body, which a table of owned values cannot express.
//!
//! ## The archived read path
//!
//! [`ArchivedNotification`] is the rkyv-style view used on the receive hot
//! path: [`ArchivedNotification::parse`] validates an encoded notification
//! **once** (bounds, tags, UTF-8) against the borrowed input and from then
//! on every access — attribute iteration ([`ArchivedNotification::attrs`]),
//! lookup ([`ArchivedNotification::get`]), symbol resolution
//! ([`ArchivedNotification::resolve_symbols`]) — reads straight out of the
//! received buffer: **no per-attribute allocation, no copies**. Attribute
//! names resolve to [`Symbol`]s through the receiving broker's own
//! [`Interner`], never by shipping symbol indices across the wire —
//! symbols are meaningful only within the table that minted them, one
//! per broker. Promotion to an owned [`Notification`]
//! ([`ArchivedNotification::to_notification`]) is the one deliberately
//! allocating exit.

use crate::error::CoreError;
use crate::filter::{Constraint, Filter, Predicate};
use crate::id::{ClientId, LocationId, SubscriptionId};
use crate::intern::{Interner, Symbol};
use crate::notification::{Attrs, Notification, NotificationId};
use crate::subscription::Subscription;
use crate::time::SimTime;
use crate::value::Value;
pub use bytes::{Buf, BufMut};
use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::sync::Arc;

/// Fails with [`CoreError::Truncated`] unless `n` more bytes remain.
pub fn need(buf: &impl Buf, n: usize) -> Result<(), CoreError> {
    if buf.remaining() < n {
        Err(CoreError::Truncated { need: n, have: buf.remaining() })
    } else {
        Ok(())
    }
}

/// Reads a length-delimited UTF-8 string (allocating exit; the archived
/// path borrows instead).
pub fn get_string(buf: &mut impl Buf, len: usize) -> Result<String, CoreError> {
    need(buf, len)?;
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|e| CoreError::Decode(e.to_string()))
}

#[cold]
fn bad_utf8() -> CoreError {
    CoreError::Decode("invalid utf-8 in wire string".into())
}

/// One wire layout: how a `T` is written and read. The size is not a third
/// method — [`wire_len`] counts what `put` writes.
pub trait Field {
    /// The Rust value this kind carries.
    type T;

    /// Appends the encoding of `v`.
    fn put(v: &Self::T, buf: &mut impl BufMut);

    /// Reads one value. Fails with [`CoreError::Truncated`],
    /// [`CoreError::BadTag`] or [`CoreError::Decode`] — never a panic,
    /// whatever the bytes.
    fn get(r: &mut Reader<'_, impl Buf>) -> Result<Self::T, CoreError>;
}

/// The decoding cursor: the caller's buffer plus how deep [`Nested`] values
/// have recursed. Made by [`decode`].
#[derive(Debug)]
pub struct Reader<'a, B> {
    pub(crate) buf: &'a mut B,
    depth: usize,
}

/// Decodes one `K` from the front of `buf`, leaving the rest unconsumed;
/// fails as [`Field::get`] does.
pub fn decode<K: Field>(buf: &mut impl Buf) -> Result<K::T, CoreError> {
    K::get(&mut Reader { buf, depth: 0 })
}

/// The exact number of bytes `K::put` writes for `v`: the encoder, run into
/// a sink that keeps only the length of what it is given.
pub fn wire_len<K: Field>(v: &K::T) -> usize {
    struct ByteCount(usize);
    impl BufMut for ByteCount {
        fn put_slice(&mut self, src: &[u8]) {
            self.0 += src.len();
        }
    }
    let mut count = ByteCount(0);
    K::put(v, &mut count);
    count.0
}

macro_rules! fixed_width {
    ($($t:ty),*) => {$(
        impl Field for $t {
            type T = $t;
            fn put(v: &$t, buf: &mut impl BufMut) {
                buf.put_slice(&v.to_le_bytes());
            }
            fn get(r: &mut Reader<'_, impl Buf>) -> Result<$t, CoreError> {
                let mut bytes = [0u8; size_of::<$t>()];
                need(r.buf, bytes.len())?;
                r.buf.copy_to_slice(&mut bytes);
                Ok(<$t>::from_le_bytes(bytes))
            }
        }
    )*};
}
fixed_width!(u8, u16, u32, u64, i64, f64);

impl Field for bool {
    type T = bool;
    fn put(v: &bool, buf: &mut impl BufMut) {
        u8::put(&u8::from(*v), buf);
    }
    fn get(r: &mut Reader<'_, impl Buf>) -> Result<bool, CoreError> {
        Ok(u8::get(r)? != 0)
    }
}

/// The width of a length prefix, `u16` or `u32`. `narrow` is the one place
/// a length is cut to fit, and past the prefix's range it wraps (ROADMAP
/// item 2: refuse those where application strings and lists enter).
pub trait Count: Field<T = Self> {
    /// The prefix that stands for `len`.
    fn narrow(len: usize) -> Self;
    /// The length a prefix stands for.
    fn widen(self) -> usize;
}

macro_rules! count {
    ($($t:ty),*) => {$(
        impl Count for $t {
            fn narrow(len: usize) -> $t {
                len as $t
            }
            fn widen(self) -> usize {
                self as usize
            }
        }
    )*};
}
count!(u16, u32);

/// Kind: a `String` behind an `N` byte count.
#[derive(Debug)]
pub struct Str<N>(PhantomData<N>);

impl<N: Count> Field for Str<N> {
    type T = String;
    fn put(s: &String, buf: &mut impl BufMut) {
        N::put(&N::narrow(s.len()), buf);
        buf.put_slice(s.as_bytes());
    }
    fn get(r: &mut Reader<'_, impl Buf>) -> Result<String, CoreError> {
        let len = N::get(r)?.widen();
        get_string(r.buf, len)
    }
}

/// Writes `items` as `List<N, K>` lays them out: the count, then each item.
fn put_seq<'a, N: Count, K: Field<T: 'a>>(
    items: impl ExactSizeIterator<Item = &'a K::T>,
    buf: &mut impl BufMut,
) {
    N::put(&N::narrow(items.len()), buf);
    items.for_each(|item| K::put(item, buf));
}

/// Kind: a `Vec` of `K` behind an `N` item count.
#[derive(Debug)]
pub struct List<N, K>(PhantomData<(N, K)>);

impl<N: Count, K: Field> Field for List<N, K> {
    type T = Vec<K::T>;
    fn put(v: &Vec<K::T>, buf: &mut impl BufMut) {
        put_seq::<N, K>(v.iter(), buf);
    }
    fn get(r: &mut Reader<'_, impl Buf>) -> Result<Vec<K::T>, CoreError> {
        let n = N::get(r)?.widen();
        // A hostile count buys no allocation: the reservation is capped and
        // the missing items are a `Truncated` error.
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(K::get(r)?);
        }
        Ok(out)
    }
}

/// Location sets travel as the `u16`-counted list of their members.
impl Field for BTreeSet<LocationId> {
    type T = Self;
    fn put(v: &Self, buf: &mut impl BufMut) {
        put_seq::<u16, LocationId>(v.iter(), buf);
    }
    fn get(r: &mut Reader<'_, impl Buf>) -> Result<Self, CoreError> {
        List::<u16, LocationId>::get(r).map(BTreeSet::from_iter)
    }
}

impl<K: Field> Field for Option<K> {
    type T = Option<K::T>;
    fn put(v: &Option<K::T>, buf: &mut impl BufMut) {
        u8::put(&u8::from(v.is_some()), buf);
        v.iter().for_each(|v| K::put(v, buf));
    }
    fn get(r: &mut Reader<'_, impl Buf>) -> Result<Option<K::T>, CoreError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => K::get(r).map(Some),
            tag => Err(CoreError::BadTag { what: "option", tag }),
        }
    }
}

macro_rules! pointer {
    ($($p:ident),*) => {$(
        impl<K: Field> Field for $p<K> {
            type T = $p<K::T>;
            fn put(v: &$p<K::T>, buf: &mut impl BufMut) {
                K::put(v, buf);
            }
            fn get(r: &mut Reader<'_, impl Buf>) -> Result<$p<K::T>, CoreError> {
                K::get(r).map($p::new)
            }
        }
    )*};
}
pointer!(Box, Arc);

/// Kind: a `Box<K>` through which `K` contains itself. Decoding refuses
/// more than `MAX` levels, so adversarial bytes cannot recurse the stack
/// away; encoding is bounded by the value in hand.
#[derive(Debug)]
pub struct Nested<K, const MAX: usize>(PhantomData<K>);

impl<K: Field, const MAX: usize> Field for Nested<K, MAX> {
    type T = Box<K::T>;
    fn put(v: &Box<K::T>, buf: &mut impl BufMut) {
        K::put(v, buf);
    }
    fn get(r: &mut Reader<'_, impl Buf>) -> Result<Box<K::T>, CoreError> {
        if r.depth >= MAX {
            return Err(CoreError::Decode(format!("message nested deeper than {MAX}")));
        }
        r.depth += 1;
        let inner = K::get(r)?;
        r.depth -= 1;
        Ok(Box::new(inner))
    }
}

/// Implements [`Field`] for a type from a table of its layout — the one
/// place that layout is written down.
///
/// * `enum Type, "what" { tag => Variant { field: kind, … }, … }`: a tag
///   byte, then the fields in row order (which need not be declaration
///   order). Tuple variants are `Variant(name: kind)`, unit variants
///   `Variant`; an unknown tag is [`CoreError::BadTag`]`{ what, tag }`.
/// * `struct Type { field: kind, … }`: the fields in order, no tag. Tuple
///   structs name their fields `0`, `1`, ….
/// * The generated methods are `#[inline]`: a table is a thin layer over
///   its kinds, and left as calls it costs ≈ 15 % of a notification encode.
#[macro_export]
macro_rules! wire_table {
    (enum $ty:ident, $what:literal { $(
        $tag:literal => $variant:ident
            $( ( $($tf:ident : $tk:ty),* ) )?
            $( { $($sf:ident : $sk:ty),* $(,)? } )?
    ),* $(,)? }) => {
        impl $crate::codec::Field for $ty {
            type T = $ty;
            #[inline]
            fn put(v: &$ty, buf: &mut impl $crate::codec::BufMut) {
                match v {$(
                    $ty::$variant $( ( $($tf),* ) )? $( { $($sf),* } )? => {
                        <u8 as $crate::codec::Field>::put(&$tag, buf);
                        $($( <$tk as $crate::codec::Field>::put($tf, buf); )*)?
                        $($( <$sk as $crate::codec::Field>::put($sf, buf); )*)?
                    }
                )*}
            }
            #[inline]
            fn get(r: &mut $crate::codec::Reader<'_, impl $crate::codec::Buf>)
                -> Result<$ty, $crate::CoreError> {
                match <u8 as $crate::codec::Field>::get(r)? {
                    $( $tag => Ok($ty::$variant
                        $( ( $( <$tk as $crate::codec::Field>::get(r)? ),* ) )?
                        $( { $( $sf: <$sk as $crate::codec::Field>::get(r)? ),* } )?
                    ), )*
                    tag => Err($crate::CoreError::BadTag { what: $what, tag }),
                }
            }
        }
    };
    (struct $ty:ident { $($f:tt : $k:ty),* $(,)? }) => {
        impl $crate::codec::Field for $ty {
            type T = $ty;
            #[inline]
            fn put(v: &$ty, buf: &mut impl $crate::codec::BufMut) {
                $( <$k as $crate::codec::Field>::put(&v.$f, buf); )*
            }
            #[inline]
            fn get(r: &mut $crate::codec::Reader<'_, impl $crate::codec::Buf>)
                -> Result<$ty, $crate::CoreError> {
                Ok($ty { $( $f: <$k as $crate::codec::Field>::get(r)? ),* })
            }
        }
    };
}

wire_table! { enum Value, "value" {
    0 => Bool(b: bool),
    1 => Int(i: i64),
    2 => Float(f: f64),
    3 => Str(s: Str<u32>),
    4 => Loc(l: LocationId),
}}

wire_table! { enum Predicate, "predicate" {
    0 => Any,
    1 => Eq(v: Value),
    2 => Ne(v: Value),
    3 => Lt(v: Value),
    4 => Le(v: Value),
    5 => Gt(v: Value),
    6 => Ge(v: Value),
    7 => In(vs: List<u16, Value>),
    8 => Prefix(s: Str<u16>),
    9 => Suffix(s: Str<u16>),
    10 => Contains(s: Str<u16>),
    11 => InLocations(set: BTreeSet<LocationId>),
    12 => MyLoc,
    13 => MyCtx(key: Str<u16>),
}}

wire_table! { struct Subscription { id: SubscriptionId, client: ClientId, filter: Filter } }

impl Field for Filter {
    type T = Filter;
    fn put(f: &Filter, buf: &mut impl BufMut) {
        put_seq::<u16, Constraint>(f.constraints(), buf);
    }
    fn get(r: &mut Reader<'_, impl Buf>) -> Result<Filter, CoreError> {
        Ok(Filter::from_constraints(List::<u16, Constraint>::get(r)?))
    }
}

/// Encodes one attribute value (tag byte + payload).
pub fn encode_value(v: &Value, buf: &mut impl BufMut) {
    Value::put(v, buf);
}

/// Decodes one attribute value.
///
/// # Errors
///
/// [`CoreError::Truncated`], [`CoreError::BadTag`] or [`CoreError::Decode`]
/// (invalid UTF-8).
pub fn decode_value(buf: &mut impl Buf) -> Result<Value, CoreError> {
    decode::<Value>(buf)
}

/// Encodes a predicate (tag byte + operands). Writes exactly
/// [`Predicate::wire_size`] bytes.
pub fn encode_predicate(p: &Predicate, buf: &mut impl BufMut) {
    Predicate::put(p, buf);
}

/// Decodes a predicate.
///
/// # Errors
///
/// [`CoreError::Truncated`], [`CoreError::BadTag`] or [`CoreError::Decode`].
pub fn decode_predicate(buf: &mut impl Buf) -> Result<Predicate, CoreError> {
    decode::<Predicate>(buf)
}

/// Encodes a filter: `u16` constraint count, then per constraint the
/// `u16`-prefixed attribute name and the predicate. Writes exactly
/// [`Filter::wire_size`] bytes.
pub fn encode_filter(f: &Filter, buf: &mut impl BufMut) {
    Filter::put(f, buf);
}

/// Decodes a filter. Constraints are re-normalised through
/// [`Filter::from_constraints`], so a decoded filter compares equal to the
/// encoded original (all construction paths keep constraints sorted).
///
/// # Errors
///
/// [`CoreError::Truncated`], [`CoreError::BadTag`] or [`CoreError::Decode`].
pub fn decode_filter(buf: &mut impl Buf) -> Result<Filter, CoreError> {
    decode::<Filter>(buf)
}

/// Encodes a subscription: `u32` subscription id, `u32` client id, filter.
/// Writes exactly [`Subscription::wire_size`] bytes.
pub fn encode_subscription(s: &Subscription, buf: &mut impl BufMut) {
    Subscription::put(s, buf);
}

/// Decodes a subscription.
///
/// # Errors
///
/// [`CoreError::Truncated`], [`CoreError::BadTag`] or [`CoreError::Decode`].
pub fn decode_subscription(buf: &mut impl Buf) -> Result<Subscription, CoreError> {
    decode::<Subscription>(buf)
}

/// A borrowed attribute value inside an [`ArchivedNotification`]: numeric
/// variants are copied out of the wire bytes (they are `Copy`), strings
/// stay borrowed from the received buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// A boolean value.
    Bool(bool),
    /// A 64-bit integer value.
    Int(i64),
    /// A 64-bit float value.
    Float(f64),
    /// A string value, borrowed from the encoded buffer.
    Str(&'a str),
    /// A location value.
    Loc(LocationId),
}

impl ValueRef<'_> {
    /// Promotes to an owned [`Value`] (allocates for strings).
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Str(s) => Value::Str(s.into()),
            ValueRef::Loc(l) => Value::Loc(l),
        }
    }

    /// Structural equality against an owned [`Value`] without allocating.
    pub fn matches_value(self, v: &Value) -> bool {
        match (self, v) {
            (ValueRef::Bool(a), Value::Bool(b)) => a == *b,
            (ValueRef::Int(a), Value::Int(b)) => a == *b,
            (ValueRef::Float(a), Value::Float(b)) => a == *b,
            (ValueRef::Str(a), Value::Str(b)) => a == b.as_str(),
            (ValueRef::Loc(a), Value::Loc(b)) => a == *b,
            _ => false,
        }
    }
}

/// The fixed notification header: publisher (4) + seq (8) + published_at
/// (8) + attribute count (2).
const NOTIFICATION_HEADER: usize = 4 + 8 + 8 + 2;

/// A zero-copy view of one encoded notification (see the [module
/// docs](self) for the validation contract).
#[derive(Debug, Clone, Copy)]
pub struct ArchivedNotification<'a> {
    publisher: ClientId,
    seq: u64,
    published_at: SimTime,
    attr_count: u16,
    /// The validated attribute region, borrowed from the input buffer.
    attrs: &'a [u8],
}

impl<'a> ArchivedNotification<'a> {
    /// Validates one encoded notification at the front of `bytes` and
    /// returns the archived view plus the unconsumed tail. This is the
    /// **only** fallible step of the archived read path: every later
    /// access reads the pre-validated region infallibly.
    ///
    /// # Errors
    ///
    /// [`CoreError::Truncated`], [`CoreError::BadTag`] or
    /// [`CoreError::Decode`] (invalid UTF-8) — never a panic, whatever the
    /// input bytes.
    pub fn parse(bytes: &'a [u8]) -> Result<(ArchivedNotification<'a>, &'a [u8]), CoreError> {
        let mut cur = bytes;
        need(&cur, NOTIFICATION_HEADER)?;
        // hot-path: begin archived notification validation — one pass over
        // the received bytes: bounds, value tags and UTF-8 checked here so
        // iteration below is infallible; no allocation, no copies.
        let publisher = ClientId::new(cur.get_u32_le());
        let seq = cur.get_u64_le();
        let published_at = SimTime::from_micros(cur.get_u64_le());
        let attr_count = cur.get_u16_le();
        let body = cur;
        let mut walk = body;
        for _ in 0..attr_count {
            need(&walk, 2)?;
            let name_len = walk.get_u16_le() as usize;
            need(&walk, name_len)?;
            let (name, rest) = walk.split_at(name_len);
            if std::str::from_utf8(name).is_err() {
                return Err(bad_utf8());
            }
            walk = rest;
            need(&walk, 1)?;
            let skip = match walk.get_u8() {
                0 => 1,
                1 | 2 => 8,
                3 => {
                    need(&walk, 4)?;
                    let len = walk.get_u32_le() as usize;
                    need(&walk, len)?;
                    let (s, rest) = walk.split_at(len);
                    if std::str::from_utf8(s).is_err() {
                        return Err(bad_utf8());
                    }
                    walk = rest;
                    0
                }
                4 => 4,
                tag => return Err(CoreError::BadTag { what: "value", tag }),
            };
            need(&walk, skip)?;
            let (_, rest) = walk.split_at(skip);
            walk = rest;
        }
        let consumed = body.len() - walk.len();
        let (attrs, rest) = body.split_at(consumed);
        // hot-path: end
        Ok((ArchivedNotification { publisher, seq, published_at, attr_count, attrs }, rest))
    }

    /// The globally unique identifier (publisher + sequence number).
    pub fn id(&self) -> NotificationId {
        NotificationId::new(self.publisher, self.seq)
    }

    /// The publishing client.
    pub fn publisher(&self) -> ClientId {
        self.publisher
    }

    /// The per-publisher sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// When the notification was published.
    pub fn published_at(&self) -> SimTime {
        self.published_at
    }

    /// Number of attributes.
    pub fn attr_count(&self) -> usize {
        self.attr_count as usize
    }

    /// Total encoded length of this notification on the wire.
    pub fn wire_len(&self) -> usize {
        NOTIFICATION_HEADER + self.attrs.len()
    }

    /// Iterates the attributes in encoded (name) order, borrowing names
    /// and string values from the received buffer — no allocation.
    pub fn attrs(&self) -> ArchivedAttrs<'a> {
        ArchivedAttrs { rest: self.attrs, left: self.attr_count }
    }

    /// Looks up one attribute by name (linear scan; the attribute counts
    /// of real notifications are single-digit).
    pub fn get(&self, name: &str) -> Option<ValueRef<'a>> {
        self.attrs().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Resolves every attribute name to a [`Symbol`] of `interner`, the
    /// receiving broker's own table. Reuses `out`; with sufficient capacity
    /// this performs **zero** allocations (asserted by the
    /// `alloc_regression` codec case). `None` entries mark names
    /// `interner` has never interned.
    pub fn resolve_symbols(&self, interner: &Interner, out: &mut Vec<Option<Symbol>>) {
        out.clear();
        // hot-path: begin archived symbol resolution — borrowed names
        // resolve through the interner's lookup; the reused output vector
        // is the only storage touched.
        for (name, _) in self.attrs() {
            out.push(interner.lookup(name));
        }
        // hot-path: end
    }

    /// Promotes the view to an owned [`Notification`] — the deliberately
    /// allocating exit of the archived path (used when a notification
    /// leaves the transport layer and enters buffers / delivery logs).
    pub fn to_notification(&self) -> Notification {
        let names = self.attrs().map(|(name, _)| name.len()).sum();
        let mut attrs = Attrs::with_capacity(self.attr_count(), names);
        for (name, v) in self.attrs() {
            attrs.push(name, v.to_value());
        }
        attrs.canonicalise();
        Notification::from_attrs(self.id(), self.published_at, attrs)
    }
}

/// Iterator over the attributes of an [`ArchivedNotification`].
///
/// Infallible: the region was validated by
/// [`ArchivedNotification::parse`].
#[derive(Debug, Clone)]
pub struct ArchivedAttrs<'a> {
    rest: &'a [u8],
    left: u16,
}

impl<'a> Iterator for ArchivedAttrs<'a> {
    type Item = (&'a str, ValueRef<'a>);

    fn next(&mut self) -> Option<(&'a str, ValueRef<'a>)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        // hot-path: begin archived attribute iteration — straight reads
        // out of the pre-validated buffer; no bounds rechecks beyond the
        // slice ops, no allocation.
        let mut cur = self.rest;
        let name_len = cur.get_u16_le() as usize;
        let (name, rest) = cur.split_at(name_len);
        let name = std::str::from_utf8(name).expect("validated at parse");
        cur = rest;
        let value = match cur.get_u8() {
            0 => ValueRef::Bool(cur.get_u8() != 0),
            1 => ValueRef::Int(cur.get_i64_le()),
            2 => ValueRef::Float(cur.get_f64_le()),
            3 => {
                let len = cur.get_u32_le() as usize;
                let (s, rest) = cur.split_at(len);
                cur = rest;
                ValueRef::Str(std::str::from_utf8(s).expect("validated at parse"))
            }
            4 => ValueRef::Loc(LocationId::new(cur.get_u32_le())),
            _ => unreachable!("tag validated at parse"),
        };
        self.rest = cur;
        // hot-path: end
        Some((name, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for ArchivedAttrs<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_filter() -> Filter {
        Filter::builder().eq("service", "temperature").gt("celsius", 20.0).myloc("location").build()
    }

    fn all_predicates() -> Vec<Predicate> {
        use Predicate::*;
        vec![
            Any,
            Eq(Value::from(3i64)),
            Ne(Value::from("x")),
            Lt(Value::from(2.5)),
            Le(Value::from(true)),
            Gt(Value::from(LocationId::new(7))),
            Ge(Value::from(-1i64)),
            In(vec![Value::from(1i64), Value::from("two"), Value::from(3.0)]),
            Prefix("tem".into()),
            Suffix("ure".into()),
            Contains("per".into()),
            InLocations([LocationId::new(1), LocationId::new(9)].into()),
            MyLoc,
            MyCtx("speed".into()),
        ]
    }

    #[test]
    fn predicate_codec_round_trips_every_variant_at_exact_size() {
        for p in all_predicates() {
            let mut buf = Vec::new();
            encode_predicate(&p, &mut buf);
            assert_eq!(buf.len(), p.wire_size(), "wire_size exact for {p:?}");
            let mut cur: &[u8] = &buf;
            let back = decode_predicate(&mut cur).expect("decode");
            assert_eq!(back, p);
            assert_eq!(cur.remaining(), 0);
        }
    }

    #[test]
    fn predicate_decode_rejects_truncation_at_every_byte() {
        for p in all_predicates() {
            let mut buf = Vec::new();
            encode_predicate(&p, &mut buf);
            for cut in 0..buf.len() {
                let mut cur = &buf[..cut];
                assert!(decode_predicate(&mut cur).is_err(), "cut {cut} of {p:?}");
            }
        }
    }

    #[test]
    fn filter_and_subscription_round_trip() {
        let f = sample_filter();
        let mut buf = Vec::new();
        encode_filter(&f, &mut buf);
        assert_eq!(buf.len(), f.wire_size());
        let mut cur: &[u8] = &buf;
        assert_eq!(decode_filter(&mut cur).expect("decode"), f);
        assert_eq!(cur.remaining(), 0);

        let s = Subscription::new(SubscriptionId::new(4), ClientId::new(9), f);
        let mut buf = Vec::new();
        encode_subscription(&s, &mut buf);
        assert_eq!(buf.len(), s.wire_size());
        let mut cur: &[u8] = &buf;
        assert_eq!(decode_subscription(&mut cur).expect("decode"), s);
    }

    #[test]
    fn bad_tags_error_cleanly() {
        let mut cur: &[u8] = &[99u8, 0, 0];
        assert!(matches!(
            decode_predicate(&mut cur),
            Err(CoreError::BadTag { what: "predicate", tag: 99 })
        ));
        let mut cur: &[u8] = &[250u8];
        assert!(matches!(
            decode_value(&mut cur),
            Err(CoreError::BadTag { what: "value", tag: 250 })
        ));
    }

    fn sample_notification() -> Notification {
        Notification::builder()
            .attr("service", "temperature")
            .attr("celsius", 21.5)
            .attr("room", 104i64)
            .attr("location", LocationId::new(3))
            .attr("stable", true)
            .publish(ClientId::new(2), 9, SimTime::from_millis(42))
    }

    #[test]
    fn archived_view_agrees_with_owned_decode() {
        let n = sample_notification();
        let mut buf = Vec::new();
        n.encode(&mut buf);
        let (a, rest) = ArchivedNotification::parse(&buf).expect("parse");
        assert!(rest.is_empty());
        assert_eq!(a.id(), n.id());
        assert_eq!(a.published_at(), n.published_at());
        assert_eq!(a.attr_count(), n.attr_count());
        assert_eq!(a.wire_len(), n.wire_size());
        for ((an, av), (on, ov)) in a.attrs().zip(n.attrs()) {
            assert_eq!(an, on);
            assert!(av.matches_value(ov), "{av:?} vs {ov:?}");
            assert_eq!(&av.to_value(), ov);
        }
        assert_eq!(a.get("room").map(ValueRef::to_value), Some(Value::Int(104)));
        assert_eq!(a.get("missing"), None);
        assert_eq!(a.to_notification(), n);
    }

    #[test]
    fn archived_parse_returns_unconsumed_tail() {
        let n = sample_notification();
        let mut buf = Vec::new();
        n.encode(&mut buf);
        buf.extend_from_slice(b"tail");
        let (a, rest) = ArchivedNotification::parse(&buf).expect("parse");
        assert_eq!(rest, b"tail");
        assert_eq!(a.to_notification(), n);
    }

    /// One error vocabulary for the two readers of a notification body:
    /// every cut is `Truncated`, an unknown value tag is `BadTag`, invalid
    /// UTF-8 is `Decode` — for the owned decode and the archived parse
    /// alike.
    #[test]
    fn archived_parse_rejects_truncation_at_every_byte() {
        let n = sample_notification();
        let mut buf = Vec::new();
        n.encode(&mut buf);
        for cut in 0..buf.len() {
            let archived = ArchivedNotification::parse(&buf[..cut]).expect_err("cut");
            let owned = Notification::decode(&mut &buf[..cut]).expect_err("cut");
            assert!(matches!(archived, CoreError::Truncated { .. }), "cut {cut}: {archived:?}");
            assert!(matches!(owned, CoreError::Truncated { .. }), "cut {cut}: {owned:?}");
        }
        // The first attribute's tag byte, then the first byte of its name.
        let name_len = u16::from_le_bytes([buf[22], buf[23]]) as usize;
        for (at, byte) in [(24 + name_len, 9u8), (24, 0xFF)] {
            let mut corrupt = buf.clone();
            corrupt[at] = byte;
            let archived = ArchivedNotification::parse(&corrupt).expect_err("corrupt");
            let owned = Notification::decode(&mut corrupt.as_slice()).expect_err("corrupt");
            assert_eq!(std::mem::discriminant(&archived), std::mem::discriminant(&owned));
            match byte {
                9 => assert_eq!(owned, CoreError::BadTag { what: "value", tag: 9 }),
                _ => assert!(matches!(owned, CoreError::Decode(_)), "{owned:?}"),
            }
        }
    }

    #[test]
    fn archived_parse_rejects_bad_value_tag_and_utf8() {
        let n = sample_notification();
        let mut buf = Vec::new();
        n.encode(&mut buf);
        // First attribute's tag byte.
        let name_len = u16::from_le_bytes([buf[22], buf[23]]) as usize;
        let tag_at = 24 + name_len;
        let mut corrupt = buf.clone();
        corrupt[tag_at] = 250;
        assert!(matches!(
            ArchivedNotification::parse(&corrupt),
            Err(CoreError::BadTag { what: "value", tag: 250 })
        ));
        // Invalid UTF-8 in the first attribute name.
        let mut corrupt = buf.clone();
        corrupt[24] = 0xFF;
        assert!(ArchivedNotification::parse(&corrupt).is_err());
    }

    #[test]
    fn symbols_resolve_through_the_receivers_interner() {
        let mut interner = Interner::new();
        let service = interner.intern("service");
        let celsius = interner.intern("celsius");
        let n = sample_notification();
        let mut buf = Vec::new();
        n.encode(&mut buf);
        let (a, _) = ArchivedNotification::parse(&buf).expect("parse");
        let mut syms = Vec::new();
        a.resolve_symbols(&interner, &mut syms);
        assert_eq!(syms.len(), a.attr_count());
        // Names iterate in BTreeMap order: celsius, location, room,
        // service, stable. Only the interned two resolve.
        assert_eq!(syms[0], Some(celsius));
        assert_eq!(syms[1], None);
        assert_eq!(syms[2], None);
        assert_eq!(syms[3], Some(service));
        assert_eq!(syms[4], None);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-1e12f64..1e12).prop_map(Value::Float),
            ".{0,16}".prop_map(Value::Str),
            any::<u32>().prop_map(|i| Value::Loc(LocationId::new(i))),
        ]
    }

    fn arb_predicate() -> impl Strategy<Value = Predicate> {
        let locset = proptest::collection::btree_set(any::<u32>().prop_map(LocationId::new), 0..5);
        prop_oneof![
            Just(Predicate::Any),
            arb_value().prop_map(Predicate::Eq),
            arb_value().prop_map(Predicate::Ne),
            arb_value().prop_map(Predicate::Lt),
            arb_value().prop_map(Predicate::Le),
            arb_value().prop_map(Predicate::Gt),
            arb_value().prop_map(Predicate::Ge),
            proptest::collection::vec(arb_value(), 0..4).prop_map(Predicate::In),
            "[a-z]{0,6}".prop_map(Predicate::Prefix),
            "[a-z]{0,6}".prop_map(Predicate::Suffix),
            "[a-z]{0,6}".prop_map(Predicate::Contains),
            locset.prop_map(Predicate::InLocations),
            Just(Predicate::MyLoc),
            "[a-z]{0,6}".prop_map(Predicate::MyCtx),
        ]
    }

    pub(crate) fn arb_filter() -> impl Strategy<Value = Filter> {
        proptest::collection::btree_map("[a-z]{1,8}", arb_predicate(), 0..5).prop_map(|m| {
            Filter::from_constraints(m.into_iter().map(|(a, p)| Constraint::new(a, p)))
        })
    }

    fn arb_notification() -> impl Strategy<Value = Notification> {
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::btree_map("[a-z]{1,8}", arb_value(), 0..6),
        )
            .prop_map(|(publisher, seq, at, attrs)| {
                let mut b = Notification::builder();
                for (k, v) in attrs {
                    b = b.attr(k, v);
                }
                b.publish(ClientId::new(publisher), seq, SimTime::from_micros(at))
            })
    }

    proptest! {
        /// Predicate/filter/subscription codecs round-trip at the exact
        /// estimated size and consume exactly their bytes.
        #[test]
        fn structured_codecs_round_trip(
            v in arb_value(),
            p in arb_predicate(),
            f in arb_filter(),
            id in any::<u32>(),
            client in any::<u32>(),
        ) {
            let mut buf = Vec::new();
            encode_value(&v, &mut buf);
            encode_filter(&f, &mut buf);
            prop_assert_eq!(buf.len(), wire_len::<Value>(&v) + f.wire_size());

            let mut buf = Vec::new();
            encode_predicate(&p, &mut buf);
            prop_assert_eq!(buf.len(), p.wire_size());
            let mut cur: &[u8] = &buf;
            prop_assert_eq!(decode_predicate(&mut cur).expect("predicate"), p);
            prop_assert_eq!(cur.remaining(), 0);

            let s = Subscription::new(SubscriptionId::new(id), ClientId::new(client), f.clone());
            let mut buf = Vec::new();
            encode_subscription(&s, &mut buf);
            prop_assert_eq!(buf.len(), s.wire_size());
            let mut cur: &[u8] = &buf;
            prop_assert_eq!(decode_subscription(&mut cur).expect("subscription"), s);
            prop_assert_eq!(cur.remaining(), 0);
        }

        /// Truncating an encoded filter at every byte fails cleanly.
        #[test]
        fn filter_codec_rejects_truncation(f in arb_filter()) {
            let mut buf = Vec::new();
            encode_filter(&f, &mut buf);
            for cut in 0..buf.len() {
                let mut cur = &buf[..cut];
                prop_assert!(decode_filter(&mut cur).is_err(), "cut at {}", cut);
            }
        }

        /// The archived view is observationally equal to the owned decode
        /// for every notification, and parsing any truncation fails
        /// cleanly.
        #[test]
        fn archived_view_is_faithful(n in arb_notification()) {
            let mut buf = Vec::new();
            n.encode(&mut buf);
            let (a, rest) = ArchivedNotification::parse(&buf).expect("parse");
            prop_assert!(rest.is_empty());
            prop_assert_eq!(a.wire_len(), n.wire_size());
            prop_assert_eq!(a.to_notification(), n.clone());
            for cut in 0..buf.len() {
                if cut == 22 && n.attr_count() == 0 {
                    continue; // header-only encoding: 22 bytes are complete
                }
                prop_assert!(ArchivedNotification::parse(&buf[..cut]).is_err(), "cut {}", cut);
            }
        }
    }
}
