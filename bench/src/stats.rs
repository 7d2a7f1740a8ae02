//! Order statistics the reported numbers are made of.

/// Median of `values` (mean of the two middle ones for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A percentile is reported only when at least ten samples lie beyond it.
pub fn tail_percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let beyond = sorted.len() as f64 * (1.0 - q);
    if beyond < 10.0 {
        return None;
    }
    percentile(sorted, q)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses for
/// its spread check. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - 4j.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the driver's spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m)
}

/// One stretch of the saturation phase between two of the probe's marks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Ops completed per second.
    pub rate: f64,
    /// CPU microseconds of the process tree per op.
    pub cpu_us_per_op: f64,
}

/// Per-segment figures from `(time_ns, completed_total, cpu_s_total)` marks
/// taken at completion events roughly one segment apart: each is exact for
/// its own interval, so a burst that straddles a boundary is not split.
pub fn segments(marks: &[(u64, u64, f64)]) -> Vec<Segment> {
    marks
        .windows(2)
        .filter(|w| w[1].0 > w[0].0 && w[1].1 > w[0].1)
        .map(|w| {
            let ops = (w[1].1 - w[0].1) as f64;
            Segment {
                rate: ops * 1e9 / (w[1].0 - w[0].0) as f64,
                cpu_us_per_op: (w[1].2 - w[0].2) * 1e6 / ops,
            }
        })
        .collect()
}

/// Which end of a run's segment figures is the good one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Best {
    Low,
    High,
}

/// The figure at the best decile of `values`: the value a tenth of them
/// are at least as good as (nearest rank; the best one for ten or fewer).
///
/// What a neighbour on a shared host does to a run is one-sided and comes
/// in bursts of seconds — identical code flips between a quiet mode and
/// one half again as slow — so the median of a run's segments follows the
/// share of the run the neighbour was busy for, and the best decile
/// follows the program (see `NOISE.md`).
pub fn best_decile(values: &[f64], best: Best) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * 0.1).ceil() as usize).clamp(1, v.len());
    Some(match best {
        Best::Low => v[rank - 1],
        Best::High => v[v.len() - rank],
    })
}

/// Slices a phase of one-by-one timings is cut into at most, and the
/// samples a slice holds on average at least.
const SLICES: u64 = 40;
const MIN_SLICE: usize = 50;

/// Medians of the timings in each of up to forty equal stretches of time:
/// each is a p50 under whatever the host was doing for that stretch of the
/// phase. `timed` holds `(when, how long)` in the order taken.
///
/// Equal in time, not in count: a stretch in which ops run four times as
/// fast (seen on `relay` when the virtual cores poll instead of halting:
/// 41 µs per op for 0.2 s, 165 µs otherwise) holds four times the
/// samples, and would fill four slices of equal count.
pub fn slice_medians(timed: &[(u64, u64)]) -> Vec<f64> {
    let (Some(first), Some(last)) = (timed.first(), timed.last()) else { return Vec::new() };
    let slices = ((timed.len() / MIN_SLICE) as u64).clamp(1, SLICES);
    let span = (last.0 - first.0).max(1);
    let slice_of = |at: u64| ((at - first.0) * slices / span).min(slices - 1);
    timed
        .chunk_by(|a, b| slice_of(a.0) == slice_of(b.0))
        .filter_map(|c| {
            let mut c: Vec<u64> = c.iter().map(|(_, took)| *took).collect();
            c.sort_unstable();
            percentile(&c, 0.5).map(|m| m as f64)
        })
        .collect()
}

/// Coefficient of variation (population standard deviation over mean).
pub fn cv(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.999), Some(7));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990));
        assert_eq!(tail_percentile(&v, 0.999), None, "only one sample beyond p999 of 1000");
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail_percentile(&v, 0.999), Some(9990));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn segments_are_exact_per_interval() {
        // 1000 ops and 0.1 CPU-s in 0.5 s, then 3000 ops and 0.6 CPU-s in
        // 1.5 s, then a mark with nothing new.
        let marks = [
            (0, 0, 1.0),
            (500_000_000, 1000, 1.1),
            (2_000_000_000, 4000, 1.7),
            (2_000_000_000, 4000, 1.7),
        ];
        let s = segments(&marks);
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].rate, s[1].rate), (2000.0, 2000.0));
        assert!((s[0].cpu_us_per_op - 100.0).abs() < 1e-6);
        assert!((s[1].cpu_us_per_op - 200.0).abs() < 1e-6);
        assert!(segments(&marks[..1]).is_empty());
    }

    #[test]
    fn best_decile_by_nearest_rank() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(best_decile(&v, Best::Low), Some(4.0));
        assert_eq!(best_decile(&v, Best::High), Some(37.0));
        let few = [3.0, 9.0, 1.0, 5.0];
        assert_eq!(best_decile(&few, Best::Low), Some(1.0));
        assert_eq!(best_decile(&few, Best::High), Some(9.0));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(best_decile(&eleven, Best::High), Some(10.0));
        assert_eq!(best_decile(&[], Best::Low), None);
    }

    #[test]
    fn best_decile_ignores_a_busy_majority() {
        // Sixteen segments, ten of them slowed by half: the median
        // follows the neighbour, the best decile the program.
        let mut rates = vec![100.0, 101.0, 99.0, 100.5, 99.5, 100.2];
        rates.extend([66.0; 10]);
        assert_eq!(median(&rates), Some(66.0));
        assert_eq!(best_decile(&rates, Best::High), Some(100.5));
    }

    #[test]
    fn slices_are_equal_in_time_not_in_count() {
        // Back-to-back ops for 800 000 time units: 30 units each, except
        // for 20 000 units (a fortieth of the phase) in which they take 5
        // — an eighth of all samples, in one slice.
        let mut timed = Vec::new();
        let mut now = 0;
        while now < 800_000 {
            let took = if (400_000..420_000).contains(&now) { 5 } else { 30 };
            now += took;
            timed.push((now, took));
        }
        let m = slice_medians(&timed);
        assert_eq!(m.len(), 40);
        assert_eq!(m.iter().filter(|x| **x == 5.0).count(), 1);
        assert_eq!(best_decile(&m, Best::Low), Some(30.0));
        // Too few samples for forty slices of fifty: fewer slices.
        let few: Vec<(u64, u64)> = (0..120).map(|i| (i, 5)).collect();
        assert_eq!(slice_medians(&few).len(), 2);
        assert_eq!(slice_medians(&[(1, 7), (2, 9), (3, 8)]), vec![8.0]);
        assert_eq!(slice_medians(&[(4, 6)]), vec![6.0]);
        assert!(slice_medians(&[]).is_empty());
    }

    #[test]
    fn cv_of_constant_and_spread_series() {
        assert_eq!(cv(&[5.0, 5.0, 5.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
        assert_eq!(cv(&[]), 0.0);
    }
}
