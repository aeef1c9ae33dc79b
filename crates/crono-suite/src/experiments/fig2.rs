//! Fig. 2: active vertices over normalized execution time at the best
//! thread count. Each benchmark's trace is bucketed into deciles of its
//! completion time and normalized to its own maximum, exactly how the
//! paper plots it (both axes normalized).

use crate::report::{f2, Table};
use crate::runner::Sweep;

/// Number of normalized-time buckets reported.
pub const BUCKETS: usize = 10;

/// One row per benchmark; columns are normalized active-vertex counts at
/// each decile of execution time.
pub fn generate(sweep: &Sweep) -> Table {
    let mut headers = vec!["Benchmark".to_string(), "Threads".to_string()];
    for b in 0..BUCKETS {
        headers.push(format!("t{}%", (b + 1) * 100 / BUCKETS));
    }
    let mut t = Table::new(
        "Fig. 2: Active vertices over normalized execution time",
        headers,
    );
    for bench in sweep.benchmarks() {
        let Some((threads, _)) = sweep.best(bench) else {
            continue;
        };
        let Some(report) = sweep.parallel.get(&(bench, threads)) else {
            continue;
        };
        let buckets = bucketize(&report.active_vertex_trace(), report.completion);
        let mut row = vec![bench.label().to_string(), threads.to_string()];
        row.extend(buckets.iter().map(|&v| f2(v)));
        t.push_row(row);
    }
    t
}

/// Buckets `(time, active)` samples into [`BUCKETS`] deciles of
/// `completion`, averaging within each bucket and normalizing to the
/// trace maximum.
pub fn bucketize(samples: &[(u64, u64)], completion: u64) -> [f64; BUCKETS] {
    let mut sums = [0f64; BUCKETS];
    let mut counts = [0u64; BUCKETS];
    let completion = completion.max(1);
    for &(time, active) in samples {
        // Widen before multiplying: `time * BUCKETS` overflows u64 for
        // completion times above u64::MAX / BUCKETS.
        let b = ((time as u128 * BUCKETS as u128) / completion as u128).min(BUCKETS as u128 - 1)
            as usize;
        sums[b] += active as f64;
        counts[b] += 1;
    }
    let mut avg = [0f64; BUCKETS];
    for b in 0..BUCKETS {
        if counts[b] > 0 {
            avg[b] = sums[b] / counts[b] as f64;
        }
    }
    let max = avg.iter().copied().fold(0.0f64, f64::max);
    if max > 0.0 {
        for v in &mut avg {
            *v /= max;
        }
    }
    avg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketize_normalizes_to_unit_max() {
        let samples = vec![(0, 10), (50, 40), (99, 20)];
        let b = bucketize(&samples, 100);
        assert!((b.iter().copied().fold(0.0f64, f64::max) - 1.0).abs() < 1e-12);
        assert!((b[0] - 0.25).abs() < 1e-12);
        assert!((b[5] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let b = bucketize(&[], 100);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn late_samples_clamp_into_last_bucket() {
        let b = bucketize(&[(1_000, 5)], 100);
        assert!(b[BUCKETS - 1] > 0.0);
    }

    #[test]
    fn boundary_sample_at_completion_lands_in_last_bucket() {
        // time == completion sits exactly on the upper edge; it must
        // clamp into the last decile, not wrap or scramble.
        let b = bucketize(&[(100, 7)], 100);
        assert!((b[BUCKETS - 1] - 1.0).abs() < 1e-12);
        assert!(b[..BUCKETS - 1].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn huge_completion_times_do_not_overflow() {
        // Pre-fix, `time * BUCKETS` wrapped for time > u64::MAX / 10 and
        // scrambled the bucket index. Early and late samples near
        // u64::MAX must land in the first and last deciles.
        let completion = u64::MAX;
        let b = bucketize(&[(1, 3), (completion - 1, 9), (completion, 9)], completion);
        assert!(b[0] > 0.0, "early sample in first bucket: {b:?}");
        assert!(b[BUCKETS - 1] > 0.0, "late samples in last bucket: {b:?}");
        assert!(b[1..BUCKETS - 1].iter().all(|&v| v == 0.0), "{b:?}");
    }
}
