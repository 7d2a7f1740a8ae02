//! Command line: one run (what the driver calls), `--all`, `--smoke`,
//! `--compare`, and the hidden `--child` the binary re-executes itself
//! with.

use crate::json::Json;
use crate::report;
use crate::{run, tier, Workload};

const USAGE: &str = "usage:
  rebeca-e2e --workload <relay|match-heavy|churn-repl3|roam> --seed N [--seconds S] [--trace 0|1]
  rebeca-e2e --all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  rebeca-e2e --smoke
  rebeca-e2e --compare A.json B.json [--benchmark BENCHMARK.json]";

/// Seconds measured per run unless `--seconds` says otherwise; the value
/// `BENCHMARK.json` fixes for the driver.
const DEFAULT_SECONDS: f64 = 24.0;

#[derive(Debug, Default)]
struct Args {
    child: bool,
    all: bool,
    smoke: bool,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
    benchmark: String,
    clock_zero: u128,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args { benchmark: "BENCHMARK.json".into(), ..Default::default() };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--child" => a.child = true,
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            "--workload" => a.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                a.seed = value(&mut it, flag)?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 =
                    value(&mut it, flag)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--out" => a.out = Some(value(&mut it, flag)?),
            "--benchmark" => a.benchmark = value(&mut it, flag)?,
            "--clock-zero" => {
                a.clock_zero =
                    value(&mut it, flag)?.parse().map_err(|e| format!("--clock-zero: {e}"))?;
            }
            "--compare" => a.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn workload(name: &Option<String>) -> Result<Workload, String> {
    let name = name.as_deref().ok_or("--workload is required")?;
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))
}

/// Runs once in this process; reports on standard error what the result
/// line cannot carry.
fn run_reported(w: Workload, seed: u64, secs: f64, traced: bool) -> Result<Json, String> {
    let outcome = run::run(w, seed, secs, traced)?;
    for v in &outcome.violations {
        eprintln!("{}: FAILED CHECK: {v}", w.name());
    }
    let calib = |name: &str| outcome.values.get(name).copied().unwrap_or(f64::NAN) / 1e6;
    eprintln!(
        "{}: host sentinels: register {:.2} ms, memory {:.2} ms",
        w.name(),
        calib("driver.calib_ns"),
        calib("driver.calib_mem_ns")
    );
    if let Some(why) = &outcome.degraded {
        eprintln!("{}: {DEGRADED}{why}", w.name());
    }
    outcome.result_line(traced)
}

const DEGRADED: &str = "degraded: ";

/// One finished run as `--all` and `--smoke` see it.
struct Finished {
    line: Json,
    degraded: Option<String>,
}

impl Finished {
    fn correct(&self) -> bool {
        self.line.get("correct").and_then(Json::as_bool) == Some(true)
    }

    fn summary(&self) -> String {
        let count = |k: &str| self.line.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        format!(
            "correct={} attempted={} failed={}{}",
            self.correct(),
            count("attempted"),
            count("failed"),
            if self.degraded.is_some() { " (degraded host)" } else { "" }
        )
    }
}

/// Runs once in a process of its own, as the driver does: peak memory is a
/// per-process high-water mark, and a heap another workload has been
/// through is not the heap a run starts with.
fn run_apart(w: Workload, seed: u64, secs: f64, traced: bool) -> Result<Finished, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &secs.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("running {}: {e}", w.name()))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    eprint!("{stderr}");
    if !out.status.success() {
        return Err(format!("the {} run exited with {}", w.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("the run printed no result")?;
    Ok(Finished {
        line: Json::parse(line).map_err(|e| format!("result line: {e}"))?,
        degraded: stderr.lines().find_map(|l| Some(l.split_once(DEGRADED)?.1.to_owned())),
    })
}

fn machine() -> Json {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|r| r.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_default();
    Json::obj([
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64)),
        ("cpu", Json::Str(cpu)),
        ("kernel", Json::Str(read("/proc/sys/kernel/osrelease").trim().to_owned())),
    ])
}

fn print_metrics(line: &Json) {
    for (name, m) in line.get("metrics").map(Json::entries).unwrap_or(&[]) {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<46} {value:>16.4} {unit}");
    }
}

/// One pass over all four workloads; appends to `--out` if given.
fn all(a: &Args) -> Result<i32, String> {
    let secs = a.seconds.unwrap_or(DEFAULT_SECONDS);
    let mut runs = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let run = run_apart(w, a.seed, secs, a.trace)?;
        println!("{}: {}", w.name(), run.summary());
        print_metrics(&run.line);
        ok &= run.correct();
        runs.push(Json::obj([
            ("workload", Json::Str(w.name().to_owned())),
            ("seed", Json::Num(a.seed as f64)),
            ("seconds", Json::Num(secs)),
            ("trace", Json::Num(f64::from(u8::from(a.trace)))),
            ("degraded", run.degraded.map_or(Json::Null, Json::Str)),
            ("result", run.line),
        ]));
    }
    if let Some(path) = &a.out {
        let mut file = match std::fs::read_to_string(path) {
            Ok(text) => Json::parse(&text).map_err(|e| format!("{path}: {e}"))?,
            Err(_) => Json::obj([("machine", machine()), ("runs", Json::Arr(Vec::new()))]),
        };
        match &mut file {
            Json::Obj(pairs) => match pairs.iter_mut().find(|(k, _)| k == "runs") {
                Some((_, Json::Arr(existing))) => existing.extend(runs),
                _ => return Err(format!("{path}: no \"runs\" array")),
            },
            _ => return Err(format!("{path}: not an object")),
        }
        // One run per line: the file is diffable and greppable.
        let text = file.render().replace("{\"workload\"", "\n{\"workload\"");
        std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(if ok { 0 } else { 1 })
}

/// Correctness only: every workload, both modes, one-second phases.
fn smoke() -> Result<i32, String> {
    let mut ok = true;
    for w in Workload::ALL {
        for traced in [false, true] {
            let run = run_apart(w, 1, 1.0, traced)?;
            println!("smoke {} trace={}: {}", w.name(), u8::from(traced), run.summary());
            ok &= run.correct();
        }
    }
    Ok(if ok { 0 } else { 1 })
}

fn compare(a: &str, b: &str, benchmark: &str) -> Result<i32, String> {
    let load = |p: &str| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let rows = report::compare(&load(a)?, &load(b)?, &load(benchmark)?);
    if rows.is_empty() {
        return Err("nothing to compare: no workload × gated metric in both files".into());
    }
    report::print_rows(&rows);
    let worse = rows.iter().filter(|r| r.verdict == report::Verdict::Worse).count();
    Ok(if worse == 0 { 0 } else { 1 })
}

fn dispatch(a: &Args) -> Result<i32, String> {
    if a.child {
        return Ok(tier::child_main(workload(&a.workload)?, a.trace, a.clock_zero));
    }
    if let Some((x, y)) = &a.compare {
        return compare(x, y, &a.benchmark);
    }
    if a.smoke {
        return smoke();
    }
    if a.all {
        return all(a);
    }
    let w = workload(&a.workload)?;
    let line = run_reported(w, a.seed, a.seconds.unwrap_or(DEFAULT_SECONDS), a.trace)?;
    println!("{}", line.render());
    Ok(0)
}

/// Returns the process exit code. A run that could not be completed
/// prints no result line and exits non-zero; a completed run that failed
/// its checks prints `"correct": false` and exits 0, as the driver's
/// contract has it.
pub fn main(args: &[String]) -> i32 {
    match parse(args).and_then(|a| dispatch(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rebeca-e2e: {e}\n{USAGE}");
            2
        }
    }
}
