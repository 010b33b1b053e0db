//! The benchmark's own statistics: percentiles with the tail-support
//! rule, speedup, span self time and stage coverage.

/// The `p`-quantile (`p` in `[0, 1]`) of `samples` by linear
/// interpolation between closest ranks; `None` when `samples` is empty.
pub fn quantile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `samples`, or 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Samples that lie strictly beyond the `p`-quantile rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).min(n)
}

/// Minimum samples beyond a reported percentile.
pub const TAIL_SUPPORT: usize = 10;

/// The `p`-quantile, but only when at least [`TAIL_SUPPORT`] samples lie
/// beyond it; a tail percentile resting on fewer samples is not reported.
pub fn supported_quantile(samples: &[f64], p: f64) -> Option<f64> {
    if samples_beyond(samples.len(), p) < TAIL_SUPPORT {
        return None;
    }
    quantile(samples, p)
}

/// The highest of `candidates` (ascending) that [`supported_quantile`]
/// accepts, with its value.
pub fn highest_supported(samples: &[f64], candidates: &[f64]) -> Option<(f64, f64)> {
    candidates
        .iter()
        .rev()
        .find_map(|&p| supported_quantile(samples, p).map(|v| (p, v)))
}

/// Speedup of `measured` over the ideal one-site time `ideal` (same
/// unit); 0 when nothing was measured.
pub fn speedup(ideal: f64, measured: f64) -> f64 {
    if measured > 0.0 {
        ideal / measured
    } else {
        0.0
    }
}

/// The ideal one-site time of tasks that sleep `total_sleep` in all on a
/// site with `slots` processing slots.
pub fn ideal_one_site(total_sleep: f64, slots: usize) -> f64 {
    total_sleep / slots.max(1) as f64
}

/// Total length covered by the union of `intervals` clipped to
/// `[lo, hi)`; overlapping intervals count once.
pub fn union_within(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    covered + cur.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of it that its
/// children cover (children may overlap each other).
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    (span.1 - span.0) - union_within(span.0, span.1, children)
}

/// Largest share of the total that stages may leave uncovered (or
/// over-cover) before the coverage check fails.
pub const COVERAGE_TOLERANCE: f64 = 0.10;

/// Stage coverage of one or more timed operations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Coverage {
    /// Summed stage time over summed operation time.
    pub ratio: f64,
    /// Operation time no stage covers, per operation (same unit as the
    /// input).
    pub uncovered: f64,
    /// Whether the check passes.
    pub passes: bool,
}

/// Stage coverage of `(total, stage_sum)` pairs, one per operation: it
/// passes when the stages add up to the totals within
/// [`COVERAGE_TOLERANCE`].
pub fn coverage(pairs: &[(f64, f64)]) -> Coverage {
    let total: f64 = pairs.iter().map(|p| p.0).sum();
    let staged: f64 = pairs.iter().map(|p| p.1).sum();
    let ratio = if total > 0.0 { staged / total } else { 0.0 };
    Coverage {
        ratio,
        uncovered: (total - staged).max(0.0) / pairs.len().max(1) as f64,
        passes: total > 0.0 && (1.0 - ratio).abs() <= COVERAGE_TOLERANCE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: 10 lie beyond p99, so p99 is reported.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supported_quantile(&v, 0.99).is_some());
        // 999 samples: only 9 beyond p99 — refused.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(supported_quantile(&v[..999], 0.99).is_none());
        // 40 samples support p75 (10 beyond) but not p90 (4 beyond).
        let small: Vec<f64> = (0..40).map(f64::from).collect();
        let (p, _) = highest_supported(&small, &[0.5, 0.75, 0.9, 0.99]).unwrap();
        assert_eq!(p, 0.75);
        assert!(highest_supported(&small[..5], &[0.5, 0.9]).is_none());
    }

    #[test]
    fn speedup_is_ideal_over_measured() {
        // 1200 tasks of 2 ms on 5 slots: 480 ms ideal on one site.
        let ideal = ideal_one_site(1200.0 * 2.0, 5);
        assert_eq!(ideal, 480.0);
        assert_eq!(speedup(ideal, 240.0), 2.0);
        assert_eq!(speedup(ideal, 0.0), 0.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap on
        // [30, 40), and [90, 120) sticks out past the parent's end.
        let kids = [(10, 40), (30, 60), (90, 120)];
        assert_eq!(union_within(0, 100, &kids), 60);
        assert_eq!(self_time((0, 100), &kids), 40);
        // Nested and identical children.
        assert_eq!(self_time((0, 10), &[(2, 8), (3, 4), (2, 8)]), 4);
        assert_eq!(self_time((0, 10), &[]), 10);
        assert_eq!(self_time((5, 10), &[(0, 20)]), 0);
    }

    #[test]
    fn coverage_reports_uncovered_time() {
        let ok = coverage(&[(100.0, 95.0), (100.0, 97.0)]);
        assert!(ok.passes);
        assert_eq!(ok.uncovered, 4.0);
        let gap = coverage(&[(100.0, 80.0)]);
        assert!(!gap.passes);
        assert_eq!(gap.uncovered, 20.0);
        assert!(!coverage(&[(100.0, 120.0)]).passes);
        assert!(!coverage(&[]).passes);
    }
}
