//! Summaries the metrics are computed with.

use std::time::Duration;

/// Nearest-rank percentile (`q` in `(0, 1]`) of an unsorted sample;
/// `NaN` for an empty one, which the output check refuses.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (the lower middle for even counts, as nearest rank gives it).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The fast decile of per-window times: the boundary of the fastest tenth.
/// The host's other tenants slow it in phases of a fraction of a second to
/// minutes, and the same work lands in a fast or a slow mode whose shares
/// vary from run to run; the fastest windows of a run fall in its quiet
/// phases and fast mode, whose speed holds from run to run while the median
/// drifts with how busy the host was.
pub fn fast_time(samples: &[f64]) -> f64 {
    percentile(samples, 0.1)
}

/// The fast decile of per-window rates (see [`fast_time`]).
pub fn fast_rate(samples: &[f64]) -> f64 {
    percentile(samples, 0.9)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `part / whole`, or 0 when nothing was attempted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `NaN` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
