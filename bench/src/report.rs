//! Metric names and units (mirroring `BENCHMARK.json`), the result line,
//! and `--compare`.

use crate::json::{self, Json};
use crate::stats;
use std::collections::BTreeMap;

/// End-to-end metrics, the same five on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("op_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A metric that does not apply to
/// a workload (wire gaps on `roam`, say) reads 0 there.
pub const PER_LAYER: [(&str, &str); 65] = [
    // Spans: where one unloaded op's time goes; they sum to the whole.
    ("broker.client.app_publish_ns", "ns"),
    ("broker.node.publish_handler_ns", "ns"),
    ("broker.node.mutation_handler_ns", "ns"),
    ("broker.node.replica_handler_ns", "ns"),
    ("broker.client.on_deliver_ns", "ns"),
    ("net.process_rt.local_gap_ns", "ns"),
    ("net.process_rt.wire_gap_ns", "ns"),
    ("driver.attributed_share", "ratio"),
    ("driver.handler_busy_share", "ratio"),
    // Kernels on the workload's own data.
    ("core.codec.encode_ns", "ns"),
    ("core.codec.archived_parse_ns", "ns"),
    ("core.codec.owned_decode_ns", "ns"),
    ("core.codec.notification_bytes", "B"),
    ("broker.codec.encode_message_ns", "ns"),
    ("broker.codec.decode_message_ns", "ns"),
    ("broker.codec.allocs_per_decode", "count"),
    ("broker.codec.forward_bytes", "B"),
    ("net.wire.encode_frame_ns", "ns"),
    ("net.wire.reassemble_ns", "ns"),
    ("net.wire.frame_overhead_bytes", "B"),
    ("net.send_buffer.push_ns", "ns"),
    ("net.send_buffer.drain_ns", "ns"),
    ("net.process_rt.hop_ns", "ns"),
    ("net.process_rt.hop_throughput", "1/s"),
    ("net.process_rt.wire_msgs_per_op", "count"),
    ("net.process_rt.wire_bytes_per_op", "B"),
    ("net.thread_rt.hop_ns", "ns"),
    ("core.matching.match_ns", "ns"),
    ("core.matching.matched_per_call", "count"),
    ("core.matching.allocs_per_call", "count"),
    ("broker.route.route_ns", "ns"),
    ("broker.route.forwards_per_notification", "count"),
    ("broker.route.deliveries_per_notification", "count"),
    ("broker.route.allocs_per_notification", "count"),
    ("broker.routing.subscribe_ns", "ns"),
    ("broker.routing.unsubscribe_ns", "ns"),
    ("broker.routing.announce_msgs_per_op", "count"),
    ("broker.replication.op_ns", "ns"),
    ("broker.replication.msgs_per_op", "count"),
    ("broker.replication.bytes_per_op", "B"),
    ("mobility.handover.msgs_per_handover", "count"),
    ("mobility.handover.replayed_per_handover", "count"),
    ("mobility.handover.arrival_latency_p50_sim_ms", "ms"),
    ("mobility.replicator.peak_vcs", "count"),
    ("mobility.buffer.peak_bytes", "B"),
    ("mobility.buffer.offer_ns", "ns"),
    ("mobility.buffer.replay_ns", "ns"),
    ("net.world.events_per_s", "1/s"),
    // Failures and waste: all must read 0.
    ("net.process_rt.link_downs", "count"),
    ("net.process_rt.frames_dropped", "count"),
    ("net.process_rt.reconnect_attempts", "count"),
    ("net.process_rt.thread_panics", "count"),
    ("sim.oracle.miss_share", "ratio"),
    ("sim.oracle.duplicates", "count"),
    ("sim.oracle.fifo_violations", "count"),
    // Driver diagnostics: never gated.
    ("driver.op_p99_us", "us"),
    ("driver.op_p999_us", "us"),
    ("driver.loaded_p50_us", "us"),
    ("driver.samples", "count"),
    ("driver.segment_cv", "ratio"),
    ("driver.gen_parked_share", "ratio"),
    ("driver.trace_overhead_share", "ratio"),
    ("driver.calib_ns", "ns"),
    ("driver.calib_mem_ns", "ns"),
    ("driver.degraded", "count"),
];

/// Metric values by name, as a run produces them.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Failed correctness checks; empty means `correct`.
    pub violations: Vec<String>,
    /// Why the host, not the program, may have moved the numbers.
    pub degraded: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics` — every per-layer metric for a traced run, every
    /// end-to-end metric otherwise, in the tables' order.
    pub fn result_line(&self, traced: bool) -> Result<Json, String> {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = match self.values.get(name).copied() {
                Some(v) if v.is_finite() => v,
                // A layer the workload does not touch.
                None if traced => 0.0,
                other => return Err(format!("metric {name} has no finite value: {other:?}")),
            };
            metrics.push(((*name).to_owned(), json::metric(value, unit)));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }
}

/// Direction and bound of the gated metrics, from `BENCHMARK.json`.
pub fn bounds(benchmark: &Json) -> BTreeMap<String, (bool, f64)> {
    let mut out = BTreeMap::new();
    for m in benchmark.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
        let (Some(name), Some(better), Some(bound)) = (
            m.get("name").and_then(Json::as_str),
            m.get("better").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
        ) else {
            continue;
        };
        out.insert(name.to_owned(), (better == "lower", bound));
    }
    out
}

/// Values of every metric per workload from a `--all --out` file: only
/// correct, untraced runs count.
fn collect(file: &Json) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in file.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        let (Some(w), Some(result)) =
            (run.get("workload").and_then(Json::as_str), run.get("result"))
        else {
            continue;
        };
        let traced = run.get("trace").and_then(Json::as_f64).unwrap_or(0.0) != 0.0;
        if traced || result.get("correct").and_then(Json::as_bool) != Some(true) {
            continue;
        }
        for (name, v) in json::metric_values(result) {
            out.entry(w.to_owned()).or_default().entry(name).or_default().push(v);
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Either side's own spread exceeds the bound: the comparison cannot
    /// tell a change from noise.
    Unresolved,
}

/// One row of `--compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// `b / a`: above 1 means B is larger.
    pub ratio: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Compares file B against file A (the base of every ratio).
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Vec<Row> {
    let bounds = bounds(benchmark);
    let (a, b) = (collect(a), collect(b));
    let mut rows = Vec::new();
    for (workload, metrics) in &a {
        for (metric, va) in metrics {
            let (Some(vb), Some((lower_better, bound))) =
                (b.get(workload).and_then(|m| m.get(metric)), bounds.get(metric))
            else {
                continue;
            };
            let (Some(ma), Some(mb)) = (stats::median(va), stats::median(vb)) else { continue };
            let ratio = mb / ma;
            let worsening = if *lower_better { ratio - 1.0 } else { 1.0 - ratio };
            let spread_a = stats::spread(va).unwrap_or(0.0);
            let spread_b = stats::spread(vb).unwrap_or(0.0);
            let verdict = if spread_a.max(spread_b) > *bound {
                Verdict::Unresolved
            } else if worsening > *bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                a: ma,
                b: mb,
                ratio,
                spread_a,
                spread_b,
                bound: *bound,
                verdict,
            });
        }
    }
    rows
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "spread A", "spread B", "bound"
    );
    for r in rows {
        println!(
            "{:<12} {:<14} {:>14.4} {:>14.4} {:>9.4} {:>8.2}% {:>8.2}% {:>6.2}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.ratio,
            r.spread_a * 100.0,
            r.spread_b * 100.0,
            r.bound,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_agree_with_benchmark_json() {
        let b = benchmark_json();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
        };
        assert_eq!(names(b.get("end_to_end").unwrap()), own(&END_TO_END));
        assert_eq!(names(b.get("per_layer").unwrap()), own(&PER_LAYER));
        let workloads: Vec<String> = names_only(b.get("workloads").unwrap());
        let ours: Vec<String> = crate::Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, ours);
    }

    fn names_only(list: &Json) -> Vec<String> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome { attempted: 10, ..Default::default() };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            o.values.insert(name, 1.5 + i as f64);
        }
        let line = o.result_line(false).unwrap();
        let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json::metric_values(&line).len(), END_TO_END.len());
        // A missing end-to-end metric is an error, a missing layer is 0.
        o.values.remove("rss_mb");
        assert!(o.result_line(false).is_err());
        let layers = o.result_line(true).unwrap();
        assert_eq!(json::metric_values(&layers)["net.world.events_per_s"], 0.0);
        o.violations.push("x".into());
        assert_eq!(o.result_line(true).unwrap().get("correct"), Some(&Json::Bool(false)));
    }

    fn file(runs: &[(&str, &[(&str, f64)])]) -> Json {
        Json::obj([(
            "runs",
            Json::Arr(
                runs.iter()
                    .map(|(w, ms)| {
                        let metrics = Json::Obj(
                            ms.iter()
                                .map(|(n, v)| ((*n).to_owned(), json::metric(*v, "x")))
                                .collect(),
                        );
                        Json::obj([
                            ("workload", Json::Str((*w).to_owned())),
                            ("trace", Json::Num(0.0)),
                            (
                                "result",
                                Json::obj([("correct", Json::Bool(true)), ("metrics", metrics)]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn compare_verdicts() {
        let benchmark = Json::parse(
            r#"{"end_to_end": [
                {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let a = file(&[
            ("relay", &[("throughput", 100.0), ("op_p50_us", 50.0)]),
            ("relay", &[("throughput", 102.0), ("op_p50_us", 51.0)]),
            ("relay", &[("throughput", 101.0), ("op_p50_us", 52.0)]),
        ]);
        let b = file(&[
            ("relay", &[("throughput", 85.0), ("op_p50_us", 52.0)]),
            ("relay", &[("throughput", 86.0), ("op_p50_us", 51.0)]),
            ("relay", &[("throughput", 84.0), ("op_p50_us", 90.0)]),
        ]);
        let rows = compare(&a, &b, &benchmark);
        let verdict = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(verdict("throughput"), Verdict::Worse, "85 vs 101 is 16 % lower");
        assert_eq!(verdict("op_p50_us"), Verdict::Unresolved, "B's own spread exceeds the bound");
        let same = compare(&a, &a, &benchmark);
        assert!(same.iter().all(|r| r.verdict == Verdict::Ok && r.ratio == 1.0));
    }
}
