//! Order statistics the benchmark reports: percentiles of latency
//! samples and the median over fixed-width rate windows.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q` of all samples at or below it.
/// Returns `None` for an empty sample. Sorts `samples` in place.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.saturating_sub(1)])
}

/// The median of `samples` (the nearest-rank 0.5-quantile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&mut samples.to_vec(), 0.5)
}

/// Events per second in consecutive windows of `window` seconds that lie
/// wholly between `start` and `end` (seconds since a common origin); the
/// median of those rates. `events` holds each event's completion time in
/// the same clock. A trailing partial window is dropped, so every rate is
/// computed over the same width. Returns `None` when no whole window fits.
pub fn window_median_rate(events: &[f64], start: f64, end: f64, window: f64) -> Option<f64> {
    if window <= 0.0 || end - start < window {
        return None;
    }
    let windows = ((end - start) / window).floor() as usize;
    let mut counts = vec![0usize; windows];
    for &t in events {
        if t < start {
            continue;
        }
        let w = ((t - start) / window) as usize;
        if w < windows {
            counts[w] += 1;
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / window).collect();
    median(&rates)
}

/// The median over consecutive whole windows of `window` seconds in
/// `[0, end)` of each window's `q`-quantile: `times[i]` (seconds) places
/// `values[i]` in its window. A short disturbance moves the quantile of
/// the few windows it falls in, not the median across windows. Windows
/// with no samples are skipped.
pub fn windowed_quantile(
    times: &[f64],
    values: &[f64],
    end: f64,
    window: f64,
    q: f64,
) -> Option<f64> {
    if window <= 0.0 || end < window {
        return None;
    }
    let windows = (end / window).floor() as usize;
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for (&t, &v) in times.iter().zip(values) {
        let w = (t / window) as usize;
        if t >= 0.0 && w < windows {
            per_window[w].push(v);
        }
    }
    let quantiles: Vec<f64> = per_window
        .iter_mut()
        .filter_map(|w| percentile(w, q))
        .collect();
    median(&quantiles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        s.reverse();
        assert_eq!(percentile(&mut s, 0.5), Some(50.0));
        assert_eq!(percentile(&mut s, 0.99), Some(99.0));
        assert_eq!(percentile(&mut s, 1.0), Some(100.0));
        assert_eq!(percentile(&mut s, 0.0), Some(1.0));
        assert_eq!(percentile(&mut [], 0.5), None);
        assert_eq!(percentile(&mut [7.0], 0.99), Some(7.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn window_median_drops_the_partial_window() {
        // 10 events/s for 3 whole windows, then a burst in a partial one
        let mut events: Vec<f64> = (0..30).map(|i| f64::from(i) * 0.1 + 0.05).collect();
        events.extend((0..50).map(|i| 3.0 + f64::from(i) * 0.001));
        assert_eq!(window_median_rate(&events, 0.0, 3.5, 1.0), Some(10.0));
    }

    #[test]
    fn window_median_ignores_an_outlier_window() {
        let mut events: Vec<f64> = Vec::new();
        for w in 0..5 {
            let n = if w == 2 { 100 } else { 20 + w };
            events.extend((0..n).map(|i| f64::from(w) + f64::from(i) / f64::from(n + 1)));
        }
        assert_eq!(window_median_rate(&events, 0.0, 5.0, 1.0), Some(23.0));
        assert_eq!(window_median_rate(&events, 0.0, 0.5, 1.0), None);
    }

    #[test]
    fn windowed_quantile_ignores_one_disturbed_window() {
        let mut times = Vec::new();
        let mut values = Vec::new();
        for w in 0..5 {
            for i in 0..100 {
                times.push(f64::from(w) + f64::from(i) / 100.0);
                // window 3 is disturbed: every value is ten times larger
                let v = f64::from(i + 1) * if w == 3 { 10.0 } else { 1.0 };
                values.push(v);
            }
        }
        assert_eq!(
            windowed_quantile(&times, &values, 5.0, 1.0, 0.99),
            Some(99.0)
        );
        assert_eq!(windowed_quantile(&times, &values, 0.5, 1.0, 0.99), None);
    }
}
