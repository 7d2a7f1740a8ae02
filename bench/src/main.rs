//! The repo's benchmark: notification, churn and handover cost end to end
//! over the real process tier, attributed layer by layer. See `README.md`
//! in this directory and `BENCHMARK.json` at the repo root.
//!
//! One invocation = one workload, one process tree. The last line of
//! standard output is the result object; everything else a reader may
//! want (diagnostics, the host-drift verdict, failed checks) goes to
//! standard error.

mod alloc_count;
mod calib;
mod cli;
mod gen;
mod json;
mod kernels;
mod measure;
mod nodes;
mod procfs;
mod report;
mod roam;
mod run;
mod stats;
mod tier;
mod trace;

#[global_allocator]
static GLOBAL: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// The four workloads. Each stresses different layers; see the README
/// for why each exists and which optimisation it is the bypass for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Relay,
    MatchHeavy,
    ChurnRepl3,
    Roam,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Relay, Workload::MatchHeavy, Workload::ChurnRepl3, Workload::Roam];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Relay => "relay",
            Workload::MatchHeavy => "match-heavy",
            Workload::ChurnRepl3 => "churn-repl3",
            Workload::Roam => "roam",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(cli::main(&args));
}
