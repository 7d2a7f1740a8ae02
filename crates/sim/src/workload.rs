//! Publication workload generation.
//!
//! Publishers sit at border brokers (one per broker by default) and publish
//! location-stamped service notifications — weather per region, menus per
//! restaurant, temperature per office. Arrival processes are Poisson
//! (seeded, reproducible) or periodic, at the same rate at every broker.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rebeca_core::{BrokerId, LocationId, SimDuration, SimTime};

/// One scheduled publication.
#[derive(Debug, Clone, PartialEq)]
pub struct PubEvent {
    /// When the publisher fires.
    pub at: SimTime,
    /// The broker whose publisher fires.
    pub broker: BrokerId,
    /// Service name attribute.
    pub service: String,
    /// Location attribute (the publisher's broker location).
    pub location: LocationId,
    /// Unique mark for oracle bookkeeping.
    pub mark: i64,
}

/// Arrival process of each publisher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Poisson arrivals with the given mean rate (events/second).
    Poisson {
        /// Mean events per second.
        rate: f64,
    },
    /// Fixed-period arrivals.
    Periodic {
        /// Interval between events.
        period: SimDuration,
    },
}

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Services published at every broker.
    pub services: Vec<String>,
    /// Arrival process per (broker, service) publisher.
    pub arrivals: Arrivals,
    /// Workload horizon.
    pub duration: SimDuration,
    /// Warm-up offset before the first publication.
    pub start: SimTime,
    /// Seed for reproducibility.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            services: vec!["service".to_owned()],
            arrivals: Arrivals::Poisson { rate: 1.0 },
            duration: SimDuration::from_secs(60),
            start: SimTime::from_secs(1),
            seed: 1,
        }
    }
}

impl WorkloadConfig {
    /// Generates the publication schedule for `brokers` brokers (broker
    /// `i` publishes with location `Li`), sorted by time, with unique
    /// marks.
    pub fn generate(&self, brokers: usize) -> Vec<PubEvent> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut events = Vec::new();
        let mut mark: i64 = 0;
        let horizon = self.start + self.duration;
        for b in 0..brokers {
            for service in &self.services {
                let mut t = self.start;
                loop {
                    let step = match self.arrivals {
                        Arrivals::Poisson { rate } => {
                            let lambda = rate.max(1e-9);
                            let u: f64 = rng.random::<f64>().max(1e-12);
                            SimDuration::from_micros((-u.ln() / lambda * 1e6) as u64 + 1)
                        }
                        Arrivals::Periodic { period } => period,
                    };
                    t += step;
                    if t > horizon {
                        break;
                    }
                    events.push(PubEvent {
                        at: t,
                        broker: BrokerId::new(b as u32),
                        service: service.clone(),
                        location: LocationId::new(b as u32),
                        mark,
                    });
                    mark += 1;
                }
            }
        }
        events.sort_by_key(|e| (e.at, e.mark));
        // Re-mark in chronological order so marks are monotone in time.
        for (i, e) in events.iter_mut().enumerate() {
            e.mark = i as i64;
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_schedule_is_regular() {
        let cfg = WorkloadConfig {
            arrivals: Arrivals::Periodic { period: SimDuration::from_secs(10) },
            duration: SimDuration::from_secs(60),
            ..Default::default()
        };
        let events = cfg.generate(1);
        assert_eq!(events.len(), 6);
        assert_eq!(events[0].at, SimTime::from_secs(11));
        assert_eq!(events[1].at, SimTime::from_secs(21));
    }

    #[test]
    fn poisson_rate_approximately_respected() {
        let cfg = WorkloadConfig {
            arrivals: Arrivals::Poisson { rate: 10.0 },
            duration: SimDuration::from_secs(100),
            ..Default::default()
        };
        let events = cfg.generate(1);
        // ~1000 events expected; allow wide tolerance.
        assert!((600..1400).contains(&events.len()), "got {}", events.len());
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = WorkloadConfig::default();
        assert_eq!(cfg.generate(3), cfg.generate(3));
        let other = WorkloadConfig { seed: 2, ..Default::default() };
        assert_ne!(cfg.generate(3), other.generate(3));
    }

    #[test]
    fn marks_are_unique_and_chronological() {
        let cfg = WorkloadConfig {
            services: vec!["a".into(), "b".into()],
            duration: SimDuration::from_secs(30),
            ..Default::default()
        };
        let events = cfg.generate(4);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.mark, i as i64);
            if i > 0 {
                assert!(events[i - 1].at <= e.at);
            }
        }
    }

    #[test]
    fn locations_follow_brokers() {
        let events = WorkloadConfig::default().generate(3);
        for e in &events {
            assert_eq!(e.broker.raw(), e.location.raw());
        }
    }
}
