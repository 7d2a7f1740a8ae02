//! Host-drift sentinel: two fixed single-thread kernels timed before and
//! after every run. This sandbox's speed wanders by tens of percent
//! between minutes; a run whose sentinels are off the recorded reference,
//! or during which the hypervisor stole a noticeable share of CPU, is
//! marked `degraded` so a reader can tell host drift from a regression.
//!
//! Two kernels because the host drifts in two ways, independently. The
//! register kernel moves with the core's effective clock only: 18.3 ms
//! when the physical core is ours alone, half again as much while a
//! neighbour keeps its other hardware thread busy (for seconds or for
//! minutes; the two virtual cores flip separately, so a two-thread
//! workload has three speeds). The memory kernel chases pointers through
//! 16 MiB, past the private L2 into the L3 the host's other tenants share
//! (`match-heavy` with a 17 MB index measured 72 to 141 ops/s while the
//! register kernel did not move; `churn-repl3` 12 400 to 20 300 cycles/s).
//!
//! The readings mark a run, they do not correct it: dividing a workload's
//! figures by a concurrent kernel reading was tried and left more spread
//! than it removed (neither kernel tracks what a workload loses). What
//! keeps the gated figures steady is `stats::best_decile`.

use crate::procfs;
use std::time::Instant;

/// Sentinel times on the machine `NOISE.md` was recorded on (medians of
/// its runs). Machine-specific constants: re-record them with the noise
/// study. (`BENCHMARK.json` has no key to keep them in.)
pub const REFERENCE_NS: f64 = 18_800_000.0;
pub const REFERENCE_MEM_NS: f64 = 52_000_000.0;

/// Tolerated deviation from a reference before a run is `degraded`. The
/// memory kernel reads 50 to 60 ms on a quiet host and 90 to 160 ms on a
/// busy one; the register kernel 18 to 19 ms and 25 to 50 ms.
pub const TOLERANCE: f64 = 0.10;
pub const TOLERANCE_MEM: f64 = 0.25;
/// Tolerated steal time, as a share of the run's wall time on one core.
pub const STEAL_TOLERANCE: f64 = 0.01;

const STEPS: u32 = 1 << 24;

/// One SplitMix64 step, written out here instead of calling the repo's
/// generator, so no change to the program under test can move a sentinel.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times 2²⁴ SplitMix64 steps folded into a rotating digest: pure
/// register arithmetic.
pub fn kernel_ns() -> f64 {
    let start = Instant::now();
    let mut state = 0x5eed_u64;
    let mut digest = 0u64;
    for _ in 0..STEPS {
        digest = digest.rotate_left(5) ^ splitmix(&mut state);
    }
    std::hint::black_box(digest);
    start.elapsed().as_nanos() as f64
}

/// A 16 MiB cyclic permutation to chase pointers through.
pub struct Maze(Vec<u32>);

const MAZE_SLOTS: usize = 1 << 22;
const MAZE_STEPS: u32 = 1 << 20;

impl Maze {
    /// Sattolo's shuffle: one cycle through every slot, so the chase
    /// cannot settle into a short, cache-resident loop.
    pub fn build() -> Maze {
        let mut next: Vec<u32> = (0..MAZE_SLOTS as u32).collect();
        let mut state = 0xa11ce_u64;
        for i in (1..MAZE_SLOTS).rev() {
            let j = (splitmix(&mut state) % i as u64) as usize;
            next.swap(i, j);
        }
        Maze(next)
    }

    /// Times 2²⁰ dependent loads: each one a cache miss past L2.
    pub fn chase_ns(&self) -> f64 {
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..MAZE_STEPS {
            at = self.0[at as usize];
        }
        std::hint::black_box(at);
        start.elapsed().as_nanos() as f64
    }
}

/// Sentinel readings around one run. The maze is built anew for each
/// reading rather than kept: 16 MiB held through the run would sit in
/// every workload's `rss_mb`.
pub struct Sentinel {
    before_ns: f64,
    before_mem_ns: f64,
    steal_before: u64,
    started: Instant,
}

/// What the sentinel saw: the mean kernel times and why, if at all, the
/// run counts as degraded.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub calib_ns: f64,
    pub calib_mem_ns: f64,
    pub degraded: Option<String>,
}

impl Sentinel {
    pub fn start() -> Sentinel {
        Sentinel {
            before_ns: kernel_ns(),
            before_mem_ns: Maze::build().chase_ns(),
            steal_before: procfs::steal_ticks(),
            started: Instant::now(),
        }
    }

    pub fn finish(self) -> Verdict {
        let wall_ticks = self.started.elapsed().as_secs_f64() * 100.0;
        let stolen = procfs::steal_ticks().saturating_sub(self.steal_before);
        let register = (self.before_ns, kernel_ns());
        let memory = (self.before_mem_ns, Maze::build().chase_ns());
        judge(register, memory, stolen as f64 / wall_ticks.max(1.0))
    }
}

fn judge(register: (f64, f64), memory: (f64, f64), stolen_share: f64) -> Verdict {
    let mut reasons = Vec::new();
    let readings = [
        ("register", "before", register.0, REFERENCE_NS, TOLERANCE),
        ("register", "after", register.1, REFERENCE_NS, TOLERANCE),
        ("memory", "before", memory.0, REFERENCE_MEM_NS, TOLERANCE_MEM),
        ("memory", "after", memory.1, REFERENCE_MEM_NS, TOLERANCE_MEM),
    ];
    for (which, when, ns, reference, tolerance) in readings {
        let off = ns / reference - 1.0;
        if off.abs() > tolerance {
            reasons.push(format!(
                "{which} sentinel {when} the run {:+.0} % off reference",
                off * 100.0
            ));
        }
    }
    if stolen_share > STEAL_TOLERANCE {
        reasons.push(format!("{:.1} % of a core stolen during the run", stolen_share * 100.0));
    }
    Verdict {
        calib_ns: (register.0 + register.1) / 2.0,
        calib_mem_ns: (memory.0 + memory.1) / 2.0,
        degraded: (!reasons.is_empty()).then(|| reasons.join("; ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let (r, m) = (REFERENCE_NS, REFERENCE_MEM_NS);
        let ok = judge((r * 1.05, r * 0.95), (m * 0.8, m * 1.2), 0.005);
        assert_eq!(ok.degraded, None);
        assert_eq!((ok.calib_ns, ok.calib_mem_ns), (r, m));
        let slow = judge((r, r * 1.15), (m, m * 1.4), 0.0);
        let why = slow.degraded.unwrap();
        assert!(why.contains("register sentinel after the run +15 %"), "{why}");
        assert!(why.contains("memory sentinel after the run +40 %"), "{why}");
        let stolen = judge((r, r), (m, m), 0.031);
        assert!(stolen.degraded.as_deref().unwrap().contains("3.1 % of a core stolen"));
    }

    #[test]
    fn kernels_take_measurable_time_and_the_maze_is_one_cycle() {
        assert!(kernel_ns() > 1e6);
        let maze = Maze::build();
        assert!(maze.chase_ns() > 1e6);
        let mut at = 0u32;
        let mut steps = 0usize;
        loop {
            at = maze.0[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, MAZE_SLOTS);
    }
}
