//! One run of one workload: set-up (timed, several times), warm-up,
//! saturation, unloaded phase, tear-down, correctness checks — untraced
//! for the end-to-end metrics, traced for the per-layer ones.

use crate::calib::Sentinel;
use crate::gen::{self, ChurnInputs, PublishInputs};
use crate::kernels;
use crate::measure::{self, Churner, Generator, Phase, Publisher};
use crate::procfs;
use crate::report::Outcome;
use crate::roam;
use crate::stats::{self, Best, Segment};
use crate::tier::{self, Ready, TierReport};
use crate::trace::{self, Kind, PHASE_SATURATION};
use crate::Workload;
use rebeca_core::{Filter, SubscriptionId};
use std::time::{Duration, Instant};

/// How a run's `--seconds` are spent. The end-to-end run measures for all
/// of them (two thirds saturated, one third unloaded) after a warm-up of
/// its own; the traced run fits an untraced reference, both traced phases
/// and the kernels in.
#[derive(Debug, Clone, Copy)]
struct Plan {
    warm_up: Duration,
    saturation: Duration,
    unloaded: Duration,
    /// Traced run only: saturation of the undecorated deployment, the
    /// base of `driver.trace_overhead_share`.
    reference: Duration,
    /// Traced run only: time per kernel.
    kernel: Duration,
}

impl Plan {
    fn end_to_end(secs: f64) -> Plan {
        Plan {
            warm_up: Duration::from_secs_f64((secs / 6.0).min(2.0)),
            saturation: Duration::from_secs_f64(secs * 2.0 / 3.0),
            unloaded: Duration::from_secs_f64(secs / 3.0),
            reference: Duration::ZERO,
            kernel: Duration::ZERO,
        }
    }

    fn traced(secs: f64) -> Plan {
        Plan {
            warm_up: Duration::from_secs_f64((secs / 24.0).min(1.0)),
            reference: Duration::from_secs_f64(secs / 6.0),
            saturation: Duration::from_secs_f64(secs / 4.0),
            unloaded: Duration::from_secs_f64(secs / 6.0),
            kernel: Duration::from_secs_f64(secs / 96.0),
        }
    }
}

/// Deployments set up per end-to-end run; `setup_s` is the quickest of
/// their set-up times (the best decile of five).
const SETUPS: usize = 5;

enum Inputs {
    Publish(PublishInputs),
    Churn(ChurnInputs),
}

impl Inputs {
    fn generate(w: Workload, seed: u64) -> Inputs {
        match w {
            Workload::Relay => Inputs::Publish(gen::relay(seed)),
            Workload::MatchHeavy => Inputs::Publish(gen::match_heavy(seed)),
            Workload::ChurnRepl3 => Inputs::Churn(gen::churn(seed)),
            Workload::Roam => unreachable!("roam has no process-tier inputs"),
        }
    }

    /// Everything subscribed during set-up, in subscription-id order.
    fn filters(&self) -> Vec<Filter> {
        match self {
            Inputs::Publish(p) => p.filters.clone(),
            Inputs::Churn(c) => {
                let live = (0..gen::CHURN_LIVE).map(|k| gen::churn_filter(c, k));
                c.preload.iter().cloned().chain(live).collect()
            }
        }
    }

    /// The generator for a deployment whose filters were installed from
    /// subscription id `first_filter` on, after `fences` fences.
    fn generator(&self, first_filter: u32, fences: u64) -> Box<dyn Generator + '_> {
        match self {
            Inputs::Publish(p) => Box::new(Publisher::new(p)),
            Inputs::Churn(c) => {
                let first = first_filter + c.preload.len() as u32;
                let live = (first..first + gen::CHURN_LIVE as u32).map(SubscriptionId::new);
                Box::new(Churner::new(c, live.collect(), fences))
            }
        }
    }
}

/// Folds a torn-down deployment's checks into `outcome`.
fn check_tier(outcome: &mut Outcome, what: &str, r: &TierReport) {
    let p = &r.probe;
    outcome.check(p.out_of_sequence == 0, || {
        format!("{what}: {} ops arrived out of sequence", p.out_of_sequence)
    });
    outcome.check(p.duplicates == 0, || format!("{what}: {} duplicate deliveries", p.duplicates));
    outcome
        .check(p.fifo_violations == 0, || format!("{what}: {} FIFO violations", p.fifo_violations));
    outcome.check(r.tables.len() == 3, || format!("{what}: tables of {:?} only", r.tables));
    for (node, entries) in &r.tables {
        outcome.check(*entries == p.subscriptions, || {
            format!("{what}: broker {node} holds {entries} entries, expected {}", p.subscriptions)
        });
    }
    outcome.check(r.link.total() == 0, || format!("{what}: link failures {:?}", r.link));
    outcome.check(r.child_exit_ok, || format!("{what}: the broker process exited with an error"));
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// The timings of `(when, how long)` samples, ascending.
fn sorted_timings(timed: &[(u64, u64)]) -> Vec<u64> {
    sorted(timed.iter().map(|(_, took)| *took).collect())
}

/// The measurement part of a deployment's life, after set-up.
struct Measured {
    saturation: Phase,
    unloaded: Phase,
    sent: u64,
    completed: u64,
}

fn measure_tier(ready: &mut Ready, inputs: &Inputs, plan: &Plan) -> Result<Measured, String> {
    let mut generator = inputs.generator(ready.first_filter, ready.tier.fences());
    let tier = &mut ready.tier;
    let saturation = measure::saturate(tier, generator.as_mut(), plan.warm_up, plan.saturation)?;
    let unloaded = if plan.unloaded.is_zero() {
        Phase::default()
    } else {
        measure::unloaded(tier, generator.as_mut(), plan.unloaded)?
    };
    use std::sync::atomic::Ordering::SeqCst;
    Ok(Measured {
        saturation,
        unloaded,
        sent: tier.shared.sent.load(SeqCst),
        completed: tier.shared.completed.load(SeqCst),
    })
}

/// The stretches between the probe's half-second marks inside the phase.
fn segments(marks: &[(u64, u64, f64)], phase: &Phase) -> Vec<Segment> {
    let inside: Vec<_> = marks
        .iter()
        .copied()
        .filter(|(t, ..)| *t >= phase.start_ns && *t <= phase.end_ns)
        .collect();
    stats::segments(&inside)
}

fn rates(segments: &[Segment]) -> Vec<f64> {
    segments.iter().map(|s| s.rate).collect()
}

/// The saturation throughput: the best decile of the segment rates.
fn throughput(segments: &[Segment]) -> Option<f64> {
    stats::best_decile(&rates(segments), Best::High)
}

/// CPU per op while saturated: the best decile over the same segments.
fn cpu_us_per_op(segments: &[Segment]) -> Option<f64> {
    let per_op: Vec<f64> = segments.iter().map(|s| s.cpu_us_per_op).collect();
    stats::best_decile(&per_op, Best::Low)
}

/// The same two over a whole process-tier phase: what a phase too short
/// to hold two marks (smoke runs) falls back to.
fn overall(phase: &Phase) -> Segment {
    Segment {
        rate: phase.ops as f64 / phase.wall_s().max(1e-9),
        cpu_us_per_op: phase.cpu_s * 1e6 / phase.ops.max(1) as f64,
    }
}

/// The unloaded op time: the phase cut into equal stretches of time, the
/// median timing of each, and of those the best decile.
fn op_p50_us(timed: &[(u64, u64)]) -> f64 {
    stats::best_decile(&stats::slice_medians(timed), Best::Low).map_or(f64::NAN, |ns| ns / 1e3)
}

/// The quickest of a run's set-ups.
fn setup_s(setups: &[f64]) -> f64 {
    stats::best_decile(setups, Best::Low).unwrap_or(f64::NAN)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn run_tier(w: Workload, seed: u64, secs: f64) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let plan = Plan::end_to_end(secs);
    let inputs = Inputs::generate(w, seed);
    let filters = inputs.filters();

    // The first deployment is the one measured, on this process's still
    // clean heap (`rss_mb` read 75 to 90 MiB on `relay` when two torn-down
    // deployments had been through the allocator first); the other
    // set-ups, of which the quickest is reported, follow.
    let mut ready = tier::set_up(w, seed, false, &filters)?;
    let mut setups = vec![ready.took.as_secs_f64()];
    let m = measure_tier(&mut ready, &inputs, &plan)?;
    let parent_hwm = procfs::hwm_mib(None);
    let report = ready.tier.finish()?;
    check_tier(&mut outcome, "run", &report);
    for i in 1..SETUPS {
        let ready = tier::set_up(w, seed, false, &filters)?;
        setups.push(ready.took.as_secs_f64());
        check_tier(&mut outcome, &format!("set-up {}", i + 1), &ready.tier.finish()?);
    }

    outcome.attempted = m.sent;
    outcome.failed =
        (m.sent - m.completed) + report.probe.out_of_sequence + report.probe.duplicates;
    let segments = segments(&report.probe.marks, &m.saturation);
    let op_p50_us = op_p50_us(&report.probe.unloaded_ns);
    let unloaded = sorted_timings(&report.probe.unloaded_ns);
    outcome
        .check(!unloaded.is_empty() && m.saturation.ops > 0, || "a phase completed no op".into());
    outcome.check(m.saturation.child_cpu_s > 0.0, || {
        "the broker process used no CPU: nothing crossed the process boundary".into()
    });

    let v = &mut outcome.values;
    v.insert("setup_s", setup_s(&setups));
    let whole = overall(&m.saturation);
    v.insert("throughput", throughput(&segments).unwrap_or(whole.rate));
    v.insert("op_p50_us", op_p50_us);
    v.insert("cpu_us_per_op", cpu_us_per_op(&segments).unwrap_or(whole.cpu_us_per_op));
    v.insert("rss_mb", parent_hwm + report.child_hwm_mib);

    let loaded = sorted(report.probe.loaded_ns);
    eprintln!(
        "{}: {} ops ({} unloaded, n={}); over the whole phases: {:.1} ops/s, {:.2} us CPU/op, \
         p50 {:.1} us, p99 {:.1} us, p999 {:.1} us, loaded p50 {:.1} us; \
         segment cv {:.4}; generator parked {:.1} % / {:.1} %; set-ups {:?}",
        w.name(),
        m.completed,
        m.unloaded.ops,
        unloaded.len(),
        whole.rate,
        whole.cpu_us_per_op,
        stats::percentile(&unloaded, 0.5).map_or(f64::NAN, us),
        stats::tail_percentile(&unloaded, 0.99).map_or(f64::NAN, us),
        stats::tail_percentile(&unloaded, 0.999).map_or(f64::NAN, us),
        stats::percentile(&loaded, 0.5).map_or(f64::NAN, us),
        stats::cv(&rates(&segments)),
        100.0 * m.saturation.parked.as_secs_f64() / m.saturation.wall_s(),
        100.0 * m.unloaded.parked.as_secs_f64() / m.unloaded.wall_s().max(1e-9),
        setups,
    );
    Ok(outcome)
}

fn trace_tier(w: Workload, seed: u64, secs: f64) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let plan = Plan::traced(secs);
    let inputs = Inputs::generate(w, seed);
    let filters = inputs.filters();

    // The shipped deployment, undecorated: the base the tracing overhead
    // is measured against.
    let reference = {
        let mut ready = tier::set_up(w, seed, false, &filters)?;
        let plan = Plan { saturation: plan.reference, unloaded: Duration::ZERO, ..plan };
        let m = measure_tier(&mut ready, &inputs, &plan)?;
        let report = ready.tier.finish()?;
        check_tier(&mut outcome, "reference", &report);
        throughput(&segments(&report.probe.marks, &m.saturation))
            .unwrap_or(overall(&m.saturation).rate)
    };

    let mut ready = tier::set_up(w, seed, true, &filters)?;
    let m = measure_tier(&mut ready, &inputs, &plan)?;
    let report = ready.tier.finish()?;
    check_tier(&mut outcome, "traced run", &report);
    outcome.attempted = m.sent;
    outcome.failed =
        (m.sent - m.completed) + report.probe.out_of_sequence + report.probe.duplicates;

    let segments = segments(&report.probe.marks, &m.saturation);
    let traced_rate = throughput(&segments).unwrap_or(overall(&m.saturation).rate);
    let unloaded = sorted_timings(&report.probe.unloaded_ns);
    let loaded = sorted(report.probe.loaded_ns);
    let v = &mut outcome.values;

    // Spans. On the publish workloads every unloaded op is a chain of five
    // handlers (publisher, three brokers, probe) whose parts sum to its
    // end-to-end time. Churn has no such chain — a cycle fans out into
    // replica traffic — so its handler times are busy time per op over
    // the saturation phase, and nothing is attributed.
    let busy = |kind: Kind| report.trace.busy_ns[PHASE_SATURATION as usize][kind as usize] as f64;
    if w == Workload::ChurnRepl3 {
        let per_op = |kind: Kind| busy(kind) / m.saturation.ops.max(1) as f64;
        v.insert("broker.client.app_publish_ns", per_op(Kind::AppPublish));
        v.insert("broker.node.publish_handler_ns", per_op(Kind::Publish));
        v.insert("broker.node.mutation_handler_ns", per_op(Kind::Mutation));
        v.insert("broker.node.replica_handler_ns", per_op(Kind::Replica));
        v.insert("broker.client.on_deliver_ns", per_op(Kind::Deliver));
    } else {
        let (b, share, chains) =
            trace::attribute(&report.trace.spans, 5, |node| tier::in_child(w, node));
        v.insert("broker.client.app_publish_ns", b.handler[Kind::AppPublish as usize]);
        v.insert("broker.node.publish_handler_ns", b.handler[Kind::Publish as usize]);
        v.insert("broker.client.on_deliver_ns", b.handler[Kind::Deliver as usize]);
        v.insert("net.process_rt.local_gap_ns", b.local_gap);
        v.insert("net.process_rt.wire_gap_ns", b.wire_gap);
        v.insert("driver.attributed_share", share);
        eprintln!(
            "{}: {chains} complete chains, mean end-to-end {:.1} us",
            w.name(),
            b.e2e / 1000.0
        );
    }
    let all_busy: f64 = report.trace.busy_ns[PHASE_SATURATION as usize].iter().sum::<u64>() as f64;
    v.insert("driver.handler_busy_share", all_busy / 1e9 / m.saturation.cpu_s.max(1e-9));

    let sat_ops = m.saturation.ops.max(1) as f64;
    let wire = report.trace.wire[PHASE_SATURATION as usize];
    v.insert("net.process_rt.wire_msgs_per_op", wire.0 as f64 / sat_ops);
    v.insert("net.process_rt.wire_bytes_per_op", wire.1 as f64 / sat_ops);
    v.insert("net.process_rt.link_downs", report.link.link_downs as f64);
    v.insert("net.process_rt.frames_dropped", report.link.frames_dropped as f64);
    v.insert("net.process_rt.reconnect_attempts", report.link.reconnect_attempts as f64);
    v.insert("net.process_rt.thread_panics", report.link.thread_panics as f64);
    v.insert("sim.oracle.duplicates", report.probe.duplicates as f64);
    v.insert("sim.oracle.fifo_violations", report.probe.fifo_violations as f64);

    v.insert("driver.op_p99_us", stats::tail_percentile(&unloaded, 0.99).map_or(0.0, us));
    v.insert("driver.op_p999_us", stats::tail_percentile(&unloaded, 0.999).map_or(0.0, us));
    v.insert("driver.loaded_p50_us", stats::percentile(&loaded, 0.5).map_or(0.0, us));
    v.insert("driver.samples", unloaded.len() as f64);
    v.insert("driver.segment_cv", stats::cv(&rates(&segments)));
    v.insert(
        "driver.gen_parked_share",
        m.saturation.parked.as_secs_f64() / m.saturation.wall_s().max(1e-9),
    );
    // A reference phase too short to complete anything (smoke runs of
    // churn, whose unit is a chunk of 2 000 cycles) says nothing.
    let overhead = if reference > 0.0 { 1.0 - traced_rate / reference } else { 0.0 };
    v.insert("driver.trace_overhead_share", overhead);

    match &inputs {
        Inputs::Publish(p) => kernels::publish_path(v, p, plan.kernel),
        Inputs::Churn(c) => kernels::churn_path(v, c, plan.kernel),
    }
    Ok(outcome)
}

fn roam_checks(outcome: &mut Outcome, verdict: &roam::Verdict) {
    outcome.check(verdict.due > 0, || "the oracle found nothing due: a vacuous run".into());
    outcome.check(verdict.clean(), || format!("oracle: {verdict:?}"));
}

fn run_roam(seed: u64, secs: f64) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let plan = Plan::end_to_end(secs);
    let mut verdict = roam::Verdict::default();
    let mut counts = roam::Counts::default();

    // As on the process tier: measure on the first set-up's clean heap,
    // time the other set-ups afterwards.
    let t0 = Instant::now();
    let mut standing = roam::set_up(seed, &mut verdict)?;
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    roam::saturate(seed, plan.warm_up, &mut verdict, &mut roam::Counts::default());
    let sat = roam::saturate(seed, plan.saturation, &mut verdict, &mut counts);
    let timed = standing.walk(plan.unloaded)?;
    let op_p50_us = op_p50_us(&timed);
    let cycles = sorted_timings(&timed);
    standing.judge(&mut verdict)?;
    let hwm = procfs::hwm_mib(None);
    let walked = standing.cycles;
    drop(standing);
    for _ in 1..SETUPS {
        let t0 = Instant::now();
        roam::set_up(seed, &mut verdict)?;
        setups.push(t0.elapsed().as_secs_f64());
    }
    roam_checks(&mut outcome, &verdict);

    outcome.attempted = sat.handovers + walked;
    outcome.failed = verdict.misses + verdict.duplicates + verdict.fifo_violations;
    let v = &mut outcome.values;
    v.insert("setup_s", setup_s(&setups));
    v.insert("throughput", throughput(&sat.segments).unwrap_or(f64::NAN));
    v.insert("op_p50_us", op_p50_us);
    v.insert("cpu_us_per_op", cpu_us_per_op(&sat.segments).unwrap_or(f64::NAN));
    v.insert("rss_mb", hwm);
    eprintln!(
        "roam: {} iterations, {} handovers, {} timed cycles; over the whole phases: \
         {:.1} handovers/s, p50 {:.1} us, p99 {:.1} us; segment cv {:.4}; \
         oracle judged {} due; set-ups {:?}",
        counts.iterations,
        sat.handovers,
        cycles.len(),
        sat.handovers as f64 / sat.run_wall.as_secs_f64().max(1e-9),
        stats::percentile(&cycles, 0.5).map_or(f64::NAN, us),
        stats::tail_percentile(&cycles, 0.99).map_or(f64::NAN, us),
        stats::cv(&rates(&sat.segments)),
        verdict.due,
        setups,
    );
    Ok(outcome)
}

fn trace_roam(seed: u64, secs: f64) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let plan = Plan::traced(secs);
    let mut verdict = roam::Verdict::default();
    let mut counts = roam::Counts::default();
    let mut standing = roam::set_up(seed, &mut verdict)?;
    let sat = roam::saturate(seed, plan.saturation + plan.reference, &mut verdict, &mut counts);
    let cycles = sorted_timings(&standing.walk(plan.unloaded)?);
    standing.judge(&mut verdict)?;
    roam_checks(&mut outcome, &verdict);
    outcome.attempted = sat.handovers + standing.cycles;
    outcome.failed = verdict.misses + verdict.duplicates + verdict.fifo_violations;

    let handovers = counts.handovers.max(1) as f64;
    let v = &mut outcome.values;
    v.insert("mobility.handover.msgs_per_handover", counts.messages as f64 / handovers);
    v.insert("mobility.handover.replayed_per_handover", counts.replayed as f64 / handovers);
    v.insert(
        "mobility.handover.arrival_latency_p50_sim_ms",
        stats::median(&counts.arrival_latencies_s).unwrap_or(0.0) * 1000.0,
    );
    v.insert("mobility.replicator.peak_vcs", counts.peak_vcs as f64);
    v.insert(
        "mobility.buffer.peak_bytes",
        counts.peak_buffer_bytes.max(standing.buffer_bytes()) as f64,
    );
    v.insert(
        "net.world.events_per_s",
        counts.messages as f64 / sat.run_wall.as_secs_f64().max(1e-9),
    );
    v.insert("sim.oracle.miss_share", verdict.misses as f64 / verdict.due.max(1) as f64);
    v.insert("sim.oracle.duplicates", verdict.duplicates as f64);
    v.insert("sim.oracle.fifo_violations", verdict.fifo_violations as f64);
    v.insert("driver.op_p99_us", stats::tail_percentile(&cycles, 0.99).map_or(0.0, us));
    v.insert("driver.op_p999_us", stats::tail_percentile(&cycles, 0.999).map_or(0.0, us));
    v.insert("driver.samples", cycles.len() as f64);
    v.insert("driver.segment_cv", stats::cv(&rates(&sat.segments)));
    kernels::roam_path(v, seed, plan.kernel);
    Ok(outcome)
}

/// Runs `w` once, bracketed by the host-drift sentinel.
pub fn run(w: Workload, seed: u64, secs: f64, traced: bool) -> Result<Outcome, String> {
    let sentinel = Sentinel::start();
    let mut outcome = match (w, traced) {
        (Workload::Roam, false) => run_roam(seed, secs),
        (Workload::Roam, true) => trace_roam(seed, secs),
        (_, false) => run_tier(w, seed, secs),
        (_, true) => trace_tier(w, seed, secs),
    }?;
    let verdict = sentinel.finish();
    outcome.values.insert("driver.calib_ns", verdict.calib_ns);
    outcome.values.insert("driver.calib_mem_ns", verdict.calib_mem_ns);
    outcome.values.insert("driver.degraded", f64::from(u8::from(verdict.degraded.is_some())));
    outcome.degraded = verdict.degraded;
    Ok(outcome)
}
