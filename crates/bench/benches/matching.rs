//! Criterion micro-benchmarks: content-based matching (the per-hop hot
//! path of every broker).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rebeca_broker::{RouteScratch, RoutingTable};
use rebeca_core::{ClientId, Filter, MatchIndex, Notification, SimTime, SubscriptionId};
use rebeca_net::NodeId;
use std::hint::black_box;

fn build_filters(n: usize) -> Vec<Filter> {
    (0..n)
        .map(|i| match i % 4 {
            0 => Filter::builder().eq("service", format!("svc-{}", i % 17)).build(),
            1 => Filter::builder()
                .eq("service", format!("svc-{}", i % 17))
                .eq("room", (i % 29) as i64)
                .build(),
            2 => Filter::builder().between("level", (i % 5) as i64, (i % 5 + 10) as i64).build(),
            _ => Filter::builder()
                .eq("service", format!("svc-{}", i % 17))
                .prefix("topic", "sport")
                .build(),
        })
        .collect()
}

fn notification(i: u64) -> Notification {
    Notification::builder()
        .attr("service", format!("svc-{}", i % 17))
        .attr("room", (i % 29) as i64)
        .attr("level", (i % 13) as i64)
        .attr("topic", if i.is_multiple_of(2) { "sports-news" } else { "finance" })
        .publish(ClientId::new(0), i, SimTime::ZERO)
}

const ATTRS: [&str; 6] = ["a0", "a1", "a2", "a3", "a4", "a5"];

/// The `match-heavy` shape of the end-to-end benchmark (`bench/`): eq ∧
/// range ∧ in-set over three of six attributes, every value in `0..16`.
fn match_heavy_filters(n: usize) -> Vec<Filter> {
    (0..n as i64)
        .map(|i| {
            let lo = (i / 7) % 11;
            Filter::builder()
                .eq(ATTRS[(i % 6) as usize], (i / 6) % 16)
                .between(ATTRS[((i + 1 + i / 96 % 2) % 6) as usize], lo, lo + 5)
                .one_of(
                    ATTRS[((i + 3 + i / 192 % 3) % 6) as usize],
                    (0..4).map(|k| (i + 3 * k) % 16),
                )
                .build()
        })
        .collect()
}

fn match_heavy_notification(i: u64) -> Notification {
    let mut b = Notification::builder();
    for (a, name) in ATTRS.into_iter().enumerate() {
        b = b.attr(name, ((i * 7 + a as u64 * 5 + i / 16) % 16) as i64);
    }
    b.publish(ClientId::new(0), i, SimTime::ZERO)
}

fn index_of(filters: &[Filter]) -> MatchIndex<SubscriptionId> {
    let mut index = MatchIndex::new();
    for (i, f) in filters.iter().enumerate() {
        index.insert(SubscriptionId::new(i as u32), f.clone());
    }
    index
}

/// Times the index the way a broker uses it: notifications built
/// beforehand, keys into a buffer that keeps its capacity.
fn bench_index(
    group: &mut criterion::BenchmarkGroup<'_>,
    n: usize,
    index: &MatchIndex<SubscriptionId>,
    notes: &[Notification],
) {
    let mut hits = Vec::new();
    group.bench_with_input(BenchmarkId::new("value-index", n), &n, |b, _| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            index.matching_into(&notes[i % notes.len()], &mut hits);
            black_box(hits.len())
        });
    });
}

fn bench_match_index(c: &mut Criterion) {
    let notes: Vec<_> = (0..256).map(notification).collect();
    let mut group = c.benchmark_group("matching");
    for n in [100usize, 1000, 5000] {
        let index = index_of(&build_filters(n));
        group.throughput(Throughput::Elements(1));
        bench_index(&mut group, n, &index, &notes);
        group.bench_with_input(BenchmarkId::new("linear-scan", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                black_box(index.scan_matching(&notes[i % notes.len()]))
            });
        });
    }
    group.finish();
}

/// Ten times the table, ten times the matches — and the time per call
/// follows the matches, because the candidates are the filters that share
/// a value with the notification.
fn bench_match_heavy(c: &mut Criterion) {
    let notes: Vec<_> = (0..256).map(match_heavy_notification).collect();
    let mut group = c.benchmark_group("matching/match-heavy");
    for n in [5_000usize, 50_000] {
        let index = index_of(&match_heavy_filters(n));
        let matched: usize = notes.iter().map(|n| index.matching(n).len()).sum();
        println!("matching/match-heavy/{n}: {:.1} matches per call", matched as f64 / 256.0);
        group.throughput(Throughput::Elements(1));
        bench_index(&mut group, n, &index, &notes);
    }
    group.finish();
}

/// The routing decision over the same 5 000 filters, spread over fewer
/// and fewer subscriptions per client: behind one client a decision costs
/// the verifications up to the first match, behind 5 000 clients it costs
/// every candidate — the end where deciding by destination can save
/// nothing and must cost nothing.
fn bench_route_match_heavy(c: &mut Criterion) {
    let notes: Vec<_> = (0..256).map(match_heavy_notification).collect();
    let filters = match_heavy_filters(5_000);
    let mut group = c.benchmark_group("route/match-heavy");
    for clients in [1usize, 50, 5_000] {
        let mut table = RoutingTable::new();
        for (i, f) in filters.iter().enumerate() {
            let client = ClientId::new((i % clients) as u32);
            table.attach_client(client, NodeId::new(100 + client.raw()));
            table.subscribe_client(client, SubscriptionId::new(i as u32), f.clone());
        }
        let mut scratch = RouteScratch::new();
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("clients", clients), &clients, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                table.route_into(&notes[i % notes.len()], &mut scratch);
                black_box(scratch.clients.len())
            });
        });
    }
    group.finish();
}

fn bench_insert_remove(c: &mut Criterion) {
    let filters = build_filters(1000);
    c.bench_function("matching/insert+remove-1000", |b| {
        b.iter(|| {
            let mut index = MatchIndex::new();
            for (i, f) in filters.iter().enumerate() {
                index.insert(SubscriptionId::new(i as u32), f.clone());
            }
            for i in 0..filters.len() {
                index.remove(&SubscriptionId::new(i as u32));
            }
            black_box(index.len())
        });
    });
}

fn bench_covering_checks(c: &mut Criterion) {
    let filters = build_filters(200);
    c.bench_function("matching/covers-200x200", |b| {
        b.iter(|| {
            let mut count = 0usize;
            for f in &filters {
                for g in &filters {
                    if f.covers(g) {
                        count += 1;
                    }
                }
            }
            black_box(count)
        });
    });
}

criterion_group!(
    benches,
    bench_match_index,
    bench_match_heavy,
    bench_route_match_heavy,
    bench_insert_remove,
    bench_covering_checks
);
criterion_main!(benches);
