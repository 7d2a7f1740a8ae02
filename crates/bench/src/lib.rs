//! # rebeca-bench — the allocation-regression test
//!
//! This crate holds one test, `tests/alloc_regression.rs`: a counting
//! global allocator that proves the steady-state notification pipeline
//! (match, route, buffer, archived decode, the replicated route path)
//! performs zero heap allocations once warm.
//!
//! ```text
//! cargo test --release -p rebeca-bench
//! ```
//!
//! Nothing here is timed. The benchmark is the stand-alone `bench/`
//! package described by `BENCHMARK.json` at the repository root
//! (`bash bench/run.sh`).

#![forbid(unsafe_code)]
