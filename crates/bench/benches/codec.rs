//! Codec benchmark: the wire paths every cross-process hop pays.
//!
//! PR 7 made the broker wire-native: notifications and messages cross
//! process boundaries through the binary codec, and every received byte
//! funnels through the frame reassembler. This bench measures those paths
//! in events per second:
//!
//! * `notification/encode` — appending one notification's canonical
//!   encoding into a reused buffer (the send side of every remote hop).
//! * `notification/archived-parse` — the zero-copy receive path: validate
//!   an [`ArchivedNotification`] view over received bytes, resolve its
//!   attribute names through a warm [`InternerCache`] snapshot, and read
//!   one attribute by reference. Allocation-free once warm (asserted by
//!   `alloc_regression`); this bench tracks its speed.
//! * `notification/owned-decode` — the allocating [`Notification::decode`]
//!   exit, for contrast with the archived path.
//! * `message/publish-roundtrip` — a full [`Message::Publish`]
//!   encode + decode, the unit of work a broker link performs per routed
//!   notification.
//! * `frame/msg-reassemble` — frame a message payload, feed it through the
//!   [`FrameReassembler`], and pull the whole frame back out: the
//!   transport-layer overhead on top of the codec.
//!
//! Results print in the criterion-stub format and, when `CODEC_JSON` names
//! a file, are additionally written as JSON (see `BENCH_codec_pr7.json` at
//! the repo root, which also holds two `table-delta/*` rows for a codec no
//! message used and that has since been removed) so CI can track the
//! trajectory.

use rebeca_bench::harness::{results_json, workspace_path, Measurement};
use rebeca_broker::{decode_message, encode_message, Message};
use rebeca_core::codec::ArchivedNotification;
use rebeca_core::intern::{InternerCache, SharedInterner};
use rebeca_core::{ClientId, Notification, SimTime};
use rebeca_net::{encode_frame, Frame, FrameReassembler, NodeId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A representative notification: a handful of mixed-type attributes, the
/// shape the paper's examples use.
fn sample_notification() -> Notification {
    Notification::builder()
        .attr("service", "temperature")
        .attr("room", 17i64)
        .attr("celsius", 21.5f64)
        .attr("rising", true)
        .publish(ClientId::new(99), 7, SimTime::from_micros(123_456))
}

fn bench_encode(budget: Duration) -> Measurement {
    let n = sample_notification();
    let mut buf = Vec::with_capacity(n.wire_size());
    let mut events = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget {
        for _ in 0..1024 {
            buf.clear();
            n.encode(&mut buf);
            events += 1;
        }
        std::hint::black_box(&buf);
    }
    Measurement { name: "notification/encode".into(), events, elapsed: start.elapsed() }
}

fn bench_archived_parse(budget: Duration) -> Measurement {
    let n = sample_notification();
    let mut bytes = Vec::new();
    n.encode(&mut bytes);
    // Warm process-local interner: every attribute name already has a
    // symbol, as it would on a long-lived link.
    let shared = SharedInterner::new();
    for (name, _) in n.attrs() {
        shared.intern(name);
    }
    let mut cache = InternerCache::default();
    let mut symbols = Vec::with_capacity(n.attr_count());
    let mut events = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget {
        for _ in 0..1024 {
            let (view, rest) = ArchivedNotification::parse(&bytes).expect("well-formed bytes");
            assert!(rest.is_empty());
            view.resolve_symbols(cache.get(&shared), &mut symbols);
            std::hint::black_box(view.get("room"));
            events += 1;
        }
        std::hint::black_box(&symbols);
    }
    Measurement { name: "notification/archived-parse".into(), events, elapsed: start.elapsed() }
}

fn bench_owned_decode(budget: Duration) -> Measurement {
    let n = sample_notification();
    let mut bytes = Vec::new();
    n.encode(&mut bytes);
    let mut events = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget {
        for _ in 0..1024 {
            let mut cur = bytes.as_slice();
            let decoded = Notification::decode(&mut cur).expect("well-formed bytes");
            std::hint::black_box(&decoded);
            events += 1;
        }
    }
    Measurement { name: "notification/owned-decode".into(), events, elapsed: start.elapsed() }
}

fn bench_message_roundtrip(budget: Duration) -> Measurement {
    let msg = Message::Publish { notification: Arc::new(sample_notification()) };
    let mut buf = Vec::new();
    let mut events = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget {
        for _ in 0..512 {
            buf.clear();
            encode_message(&msg, &mut buf);
            let mut cur = buf.as_slice();
            let back = decode_message(&mut cur).expect("well-formed bytes");
            std::hint::black_box(&back);
            events += 1;
        }
    }
    Measurement { name: "message/publish-roundtrip".into(), events, elapsed: start.elapsed() }
}

fn bench_frame_reassemble(budget: Duration) -> Measurement {
    let msg = Message::Publish { notification: Arc::new(sample_notification()) };
    let mut payload = Vec::new();
    encode_message(&msg, &mut payload);
    let frame = Frame::Msg { from: NodeId::new(1), to: NodeId::new(2), payload };
    let mut stream = Vec::new();
    let mut re = FrameReassembler::new();
    let mut events = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget {
        for _ in 0..512 {
            stream.clear();
            encode_frame(&frame, &mut stream);
            re.push(&stream);
            let out = re.next_frame().expect("well-framed stream");
            std::hint::black_box(&out);
            events += 1;
        }
    }
    Measurement { name: "frame/msg-reassemble".into(), events, elapsed: start.elapsed() }
}

fn main() {
    let quick = std::env::var("CODEC_QUICK").is_ok();
    let budget = if quick { Duration::from_millis(200) } else { Duration::from_millis(1500) };

    let measurements = vec![
        bench_encode(budget),
        bench_archived_parse(budget),
        bench_owned_decode(budget),
        bench_message_roundtrip(budget),
        bench_frame_reassemble(budget),
    ];

    for m in &measurements {
        println!(
            "bench codec/{:<32} {:>14.0} events/s ({} events in {:.2?})",
            m.name,
            m.events_per_sec(),
            m.events,
            m.elapsed
        );
    }

    if let Ok(path) = std::env::var("CODEC_JSON") {
        let label =
            std::env::var("CODEC_LABEL").unwrap_or_else(|_| "unlabelled codec run".to_string());
        let json = results_json("codec", &label, "", &measurements);
        std::fs::write(workspace_path(env!("CARGO_MANIFEST_DIR"), &path), json)
            .expect("write CODEC_JSON output");
        println!("bench codec: wrote {path}");
    }
}
