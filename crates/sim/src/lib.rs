//! # rebeca-sim — scenario harness for the mobility reproduction
//!
//! Everything needed to turn the [`rebeca`] middleware into quantitative
//! experiments:
//!
//! * [`workload`] — seeded publication workloads (per-location services,
//!   Poisson or periodic arrivals, Zipf location popularity);
//! * [`movement`] — client movement schedules over a movement graph
//!   (random walk, waypoint routes, commuters, pop-up movers);
//! * [`oracle`] — ground truth: which notifications *should* have reached
//!   each client given its attachment timeline (miss rates, staleness);
//! * [`stats`] — summary statistics (mean/percentiles);
//! * [`scenario`] — the runner: builds a full deployment
//!   ([`SystemVariant`]), drives workload + movement, and collects
//!   [`ScenarioOutcome`] measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod movement;
pub mod oracle;
pub mod scenario;
pub mod stats;
pub mod workload;

pub use movement::{MoveSchedule, MovementModel, Stint};
pub use oracle::{ClientTimeline, OracleReport};
pub use scenario::{ScenarioConfig, ScenarioOutcome, SystemVariant};
pub use stats::Summary;
pub use workload::{PubEvent, WorkloadConfig};
