//! Seed → inputs. Every filter and notification a workload feeds the
//! program comes from here, derived from `--seed` with SplitMix64; the
//! program under test only ever sees the generated values.

use rebeca_core::{Filter, NotificationBuilder};
use rebeca_net::SplitMix64;

/// Attribute carrying the send time (ns on the bench clock).
pub const T: &str = "t";
/// Attribute carrying the op index (exactly-once and FIFO accounting).
pub const OP: &str = "op";
/// Attribute fences and beacons match on.
pub const FENCE: &str = "fence";

/// What a publish workload (`relay`, `match-heavy`) feeds the system.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishInputs {
    /// Subscriptions the probe client holds; the table population.
    pub filters: Vec<Filter>,
    /// Attribute sets cycled through by the publisher; `t` and `op` are
    /// added per op. Every one matches at least one of `filters`.
    pub pool: Vec<NotificationBuilder>,
    /// Smallest and largest number of `filters` a pool entry matches.
    pub matches: (usize, usize),
    /// Ops in flight when the workload saturates: enough that no broker
    /// thread ever runs dry (a small window falls into a bistable
    /// sleep/wake regime — 32 in flight measured a third of 1024's
    /// throughput on `relay`), yet at most about half a second of work
    /// at the workload's rate, so a phase drains quickly.
    pub window: u64,
}

/// Filters of distinct `room == v` values the notifications never carry:
/// table population that makes set-up real without touching match cost.
pub fn room_filters(rng: &mut SplitMix64, count: usize) -> Vec<Filter> {
    let base = rng.next_below(1 << 40) as i64;
    (0..count as i64).map(|i| Filter::builder().eq("room", base + i).build()).collect()
}

pub const RELAY_PRELOAD: usize = 20_000;

/// `relay`: 20 000 non-matching filters plus one live topic filter; one
/// 3-attribute notification shape (`topic`, `t`, `op`).
pub fn relay(seed: u64) -> PublishInputs {
    let mut rng = SplitMix64::new(seed);
    let mut filters = room_filters(&mut rng, RELAY_PRELOAD);
    let topic = format!("relay-{:012x}", rng.next_below(1 << 48));
    filters.push(Filter::builder().eq("topic", topic.clone()).build());
    let pool = vec![NotificationBuilder::new().attr("topic", topic)];
    PublishInputs { filters, pool, matches: (1, 1), window: 1024 }
}

pub const MATCH_FILTERS: usize = 5_000;
pub const MATCH_POOL: usize = 4096;
const MATCH_ATTRS: [&str; 6] = ["a0", "a1", "a2", "a3", "a4", "a5"];
const MATCH_DOMAIN: i64 = 16;

/// One `match-heavy` filter before it becomes a [`Filter`]:
/// `attrs[0] == eq ∧ lo <= attrs[1] <= lo + 5 ∧ attrs[2] ∈ set`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MatchSpec {
    attrs: [usize; 3],
    eq: i64,
    lo: i64,
    set: [i64; 4],
}

impl MatchSpec {
    fn draw(rng: &mut SplitMix64) -> MatchSpec {
        let first = rng.next_below(6) as usize;
        let second = (first + 1 + rng.next_below(5) as usize) % 6;
        let third = (0..6)
            .filter(|a| *a != first && *a != second)
            .nth(rng.next_below(4) as usize)
            .expect("four attributes remain");
        let eq = rng.next_below(MATCH_DOMAIN as u64) as i64;
        // A range of 6 values: three eighths of the domain.
        let lo = rng.next_below(MATCH_DOMAIN as u64 - 5) as i64;
        // A set of 4 distinct values (step·3 < 16): a quarter of it.
        let start = rng.next_below(MATCH_DOMAIN as u64) as i64;
        let step = 1 + rng.next_below(5) as i64;
        let set = [0, 1, 2, 3].map(|k| (start + k * step) % MATCH_DOMAIN);
        MatchSpec { attrs: [first, second, third], eq, lo, set }
    }

    fn matches(&self, values: &[i64; 6]) -> bool {
        values[self.attrs[0]] == self.eq
            && (self.lo..=self.lo + 5).contains(&values[self.attrs[1]])
            && self.set.contains(&values[self.attrs[2]])
    }

    fn filter(&self) -> Filter {
        Filter::builder()
            .eq(MATCH_ATTRS[self.attrs[0]], self.eq)
            .between(MATCH_ATTRS[self.attrs[1]], self.lo, self.lo + 5)
            .one_of(MATCH_ATTRS[self.attrs[2]], self.set)
            .build()
    }
}

/// `match-heavy`: 5 000 distinct three-predicate filters (eq ∧ range ∧
/// in-set over three distinct attributes out of six, each attribute
/// uniform in `0..16`), so a uniform notification matches one filter in
/// 171 — 29 of them on average. Five thousand, not more, so that each
/// broker's index (about 2 MB) stays inside a core's 4 MiB L2: at 50 000
/// the matcher streams 17 MB per notification from the shared L3, and
/// identical code measured 72 to 141 ops/s depending on what the host's
/// other tenants were doing. Pool entries are redrawn until they
/// match 10 to 50 filters, counted by a reference matcher of the bench's
/// own (the specs bucketed by their equality predicate), not by the
/// program under test.
pub fn match_heavy(seed: u64) -> PublishInputs {
    let mut rng = SplitMix64::new(seed);
    // Brokers key announced filters by digest: no spec is used twice, so
    // every table holds exactly one entry per subscription.
    let mut specs = Vec::with_capacity(MATCH_FILTERS);
    let mut seen = std::collections::HashSet::new();
    while specs.len() < MATCH_FILTERS {
        let spec = MatchSpec::draw(&mut rng);
        if seen.insert(spec) {
            specs.push(spec);
        }
    }
    let mut by_eq: Vec<Vec<u32>> = vec![Vec::new(); 6 * MATCH_DOMAIN as usize];
    for (i, spec) in specs.iter().enumerate() {
        by_eq[spec.attrs[0] * MATCH_DOMAIN as usize + spec.eq as usize].push(i as u32);
    }
    let count = |values: &[i64; 6]| -> usize {
        (0..6)
            .flat_map(|a| &by_eq[a * MATCH_DOMAIN as usize + values[a] as usize])
            .filter(|i| specs[**i as usize].matches(values))
            .count()
    };

    let mut pool = Vec::with_capacity(MATCH_POOL);
    let (mut least, mut most) = (usize::MAX, 0);
    while pool.len() < MATCH_POOL {
        let values = [0; 6].map(|_| rng.next_below(MATCH_DOMAIN as u64) as i64);
        let hits = count(&values);
        if (10..=50).contains(&hits) {
            least = least.min(hits);
            most = most.max(hits);
            let attrs = MATCH_ATTRS
                .iter()
                .zip(values)
                .fold(NotificationBuilder::new(), |attrs, (name, value)| attrs.attr(*name, value));
            pool.push(attrs);
        }
    }
    let filters = specs.iter().map(MatchSpec::filter).collect();
    PublishInputs { filters, pool, matches: (least, most), window: 64 }
}

pub const CHURN_PRELOAD: usize = 20_000;
pub const CHURN_LIVE: u64 = 1_000;

/// `churn-repl3`: the preloaded population and the value the live
/// `churn == base + k` filters count up from.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnInputs {
    pub preload: Vec<Filter>,
    pub churn_base: i64,
}

pub fn churn(seed: u64) -> ChurnInputs {
    let mut rng = SplitMix64::new(seed);
    let preload = room_filters(&mut rng, CHURN_PRELOAD);
    ChurnInputs { preload, churn_base: rng.next_below(1 << 40) as i64 }
}

/// The filter re-subscription cycle `k` installs.
pub fn churn_filter(inputs: &ChurnInputs, k: u64) -> Filter {
    Filter::builder().eq("churn", inputs.churn_base + k as i64).build()
}

pub fn fence_filter(j: u64) -> Filter {
    Filter::builder().eq(FENCE, j as i64).build()
}

/// A beacon for fence `j`: delivered once the fence subscription is
/// active at every broker on the path, dropped at the first broker before.
pub fn beacon(j: u64, now_ns: u64) -> NotificationBuilder {
    NotificationBuilder::new().attr(FENCE, j as i64).attr(T, now_ns as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_core::{ClientId, SimTime};

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(relay(7), relay(7));
        assert_ne!(relay(7), relay(8));
        assert_eq!(churn(7), churn(7));
        assert_ne!(churn(7).churn_base, churn(8).churn_base);
        let a = match_heavy(3);
        assert_eq!(a, match_heavy(3));
        assert_ne!(a.filters[..8], match_heavy(4).filters[..8]);
    }

    #[test]
    fn relay_notifications_match_only_the_live_filter() {
        let inputs = relay(1);
        assert_eq!(inputs.filters.len(), RELAY_PRELOAD + 1);
        let n = inputs.pool[0].clone().attr(T, 1i64).attr(OP, 0i64).publish(
            ClientId::new(1),
            0,
            SimTime::ZERO,
        );
        assert_eq!(n.attr_count(), 3);
        assert_eq!(inputs.filters.iter().filter(|f| f.matches(&n)).count(), 1);
    }

    #[test]
    fn match_heavy_pool_matches_ten_to_fifty_three_predicate_filters() {
        let inputs = match_heavy(11);
        assert_eq!(inputs.filters.len(), MATCH_FILTERS);
        assert!(inputs.filters.iter().all(|f| f.len() >= 3 && f.distinct_attrs().count() == 3));
        assert_eq!(inputs.pool.len(), MATCH_POOL);
        assert!(inputs.matches.0 >= 10 && inputs.matches.1 <= 50, "{:?}", inputs.matches);
        // The index agrees with a plain scan on a sample of the pool.
        for attrs in inputs.pool.iter().step_by(512) {
            let n = attrs.clone().publish(ClientId::new(0), 0, SimTime::ZERO);
            let scanned = inputs.filters.iter().filter(|f| f.matches(&n)).count();
            assert!((10..=50).contains(&scanned), "scan found {scanned}");
        }
    }

    #[test]
    fn beacons_match_their_fence_only() {
        let b = beacon(5, 1000).publish(ClientId::new(1), 0, SimTime::ZERO);
        assert!(fence_filter(5).matches(&b));
        assert!(!fence_filter(6).matches(&b));
    }
}
