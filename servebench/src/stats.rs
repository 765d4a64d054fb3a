//! Sample statistics the benchmark reports: nearest-rank percentiles
//! under a support rule, per-second rates that a burst of host noise
//! cannot swing, and open-loop lateness growth.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of an ascending slice: the element at
/// 1-based rank `ceil(q·n)` (rank 1 for `q = 0`).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// A percentile as reported: the quantile actually used may be lower
/// than the one asked for when the sample cannot support it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at `q_used`.
    pub value: f64,
    /// The quantile asked for.
    pub q_asked: f64,
    /// The highest quantile at or below `q_asked` with at least
    /// [`MIN_BEYOND`] samples beyond it.
    pub q_used: f64,
    /// Sample count.
    pub n: usize,
}

impl Percentile {
    /// True when the asked-for quantile was reported as such.
    pub fn supported(&self) -> bool {
        self.q_used == self.q_asked
    }

    /// Human-readable label, naming the substitution when there was one.
    pub fn describe(&self) -> String {
        if self.supported() {
            format!("p{} of {}", fmt_q(self.q_asked), self.n)
        } else {
            format!(
                "p{} of {} (p{} unsupported: fewer than {MIN_BEYOND} samples beyond it)",
                fmt_q(self.q_used),
                self.n,
                fmt_q(self.q_asked)
            )
        }
    }
}

fn fmt_q(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("{pct:.0}")
    } else {
        format!("{pct:.1}")
    }
}

/// The `q`-quantile of an ascending sample when at least [`MIN_BEYOND`]
/// samples lie beyond it; otherwise the highest quantile that has that
/// support. `None` when no quantile of the sample has it.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let q_used = if samples_beyond(n, q) >= MIN_BEYOND {
        q
    } else {
        // rank n - MIN_BEYOND leaves exactly MIN_BEYOND samples beyond.
        (n - MIN_BEYOND) as f64 / n as f64
    };
    Some(Percentile {
        value: nearest_rank(sorted, q_used),
        q_asked: q,
        q_used,
        n,
    })
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5)
}

/// Mean of a sample (0 for an empty one).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Open-loop lateness growth above which the generator counts as
/// falling behind its schedule, making the phase's latencies suspect.
pub const LATENESS_GROWTH_LIMIT_MS: f64 = 1.0;

/// Growth of generator lateness across a phase: the median lateness of
/// the last quarter of sends minus that of the first quarter, in send
/// order. A generator that keeps up stays near zero; one whose backlog
/// grows shows the backlog here.
pub fn lateness_growth_ms(lateness_in_send_order: &[f64]) -> f64 {
    let n = lateness_in_send_order.len();
    if n < 4 {
        return 0.0;
    }
    let quarter = n / 4;
    median(&lateness_in_send_order[n - quarter..]) - median(&lateness_in_send_order[..quarter])
}

/// Work completed in each whole second of a phase: `done` holds
/// `(completion time in seconds since the phase start, work units)`.
/// Seconds after the last whole one are dropped.
pub fn per_second(done: &[(f64, f64)], elapsed_s: f64) -> Vec<f64> {
    let bins = elapsed_s.floor() as usize;
    let mut out = vec![0.0; bins];
    for &(t, units) in done {
        let b = t.floor() as usize;
        if b < bins {
            out[b] += units;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v = ascending(10);
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.51), 6.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&v, 1.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let p = tail_percentile(&ascending(1000), 0.99).unwrap();
        assert!(p.supported());
        assert_eq!(p.value, 990.0);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        // 999 samples: rank 990 leaves only 9 beyond, so p99 falls back
        // to the highest quantile with 10 beyond (rank 989).
        let p = tail_percentile(&ascending(999), 0.99).unwrap();
        assert!(!p.supported());
        assert_eq!(p.value, 989.0);
        assert_eq!(samples_beyond(999, p.q_used), 10);
        assert!(p.describe().contains("unsupported"));
    }

    #[test]
    fn tiny_samples_support_no_tail() {
        assert!(tail_percentile(&ascending(10), 0.5).is_none());
        let p = tail_percentile(&ascending(11), 0.99).unwrap();
        assert_eq!(p.value, 1.0);
        assert_eq!(samples_beyond(11, p.q_used), 10);
    }

    #[test]
    fn lateness_growth_separates_keeping_up_from_falling_behind() {
        // Jitter around a constant: no growth.
        let steady: Vec<f64> = (0..400).map(|k| 0.1 + 0.05 * (k % 3) as f64).collect();
        assert!(lateness_growth_ms(&steady).abs() < 1e-9);
        // A backlog growing 0.1 ms per send.
        let behind: Vec<f64> = (0..400).map(|k| 0.1 * k as f64).collect();
        let g = lateness_growth_ms(&behind);
        assert!((g - 30.0).abs() < 0.2, "growth {g}");
        assert!(g > LATENESS_GROWTH_LIMIT_MS);
        assert_eq!(lateness_growth_ms(&[5.0, 1.0]), 0.0);
    }

    #[test]
    fn per_second_bins_whole_seconds_only() {
        let done = [(0.1, 1.0), (0.9, 2.0), (1.5, 4.0), (2.2, 8.0), (2.9, 16.0)];
        assert_eq!(per_second(&done, 2.95), vec![3.0, 4.0]);
        assert!(per_second(&done, 0.5).is_empty());
    }
}
