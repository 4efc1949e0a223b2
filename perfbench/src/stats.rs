//! Small measurement helpers shared by the workloads.

use std::time::{Duration, Instant};

/// How many times each workload builds its set-up; the median is reported.
const SETUP_REPEATS: usize = 5;

/// The `q`-quantile (0..=1) of `values`, interpolating linearly between the
/// two nearest ranks. `values` need not be sorted; empty input gives NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    #[allow(clippy::cast_precision_loss)]
    let frac = pos - lo as f64;
    v[lo] + (v[hi] - v[lo]) * frac
}

/// Whether one more pass, as long as the mean of the `done` passes since
/// `start`, still ends within `seconds`. Runs of whole passes then measure
/// the same number of passes whenever passes take about the same time.
pub fn another_pass_fits(start: Instant, done: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    #[allow(clippy::cast_precision_loss)]
    let mean = elapsed / done.max(1) as f64;
    elapsed + mean <= seconds
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `build` [`SETUP_REPEATS`] times, dropping all but the last result, and
/// return it with the median build time in seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        let built = build()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    let built = last.ok_or("set-up never ran")?;
    Ok((built, quantile(&times, 0.5)))
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in the process status")?;
    Ok(kb / 1024.0)
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut impl sia_rand::RngCore) {
    for i in (1..items.len()).rev() {
        #[allow(clippy::cast_possible_truncation)]
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&v, 1.0) - 4.0).abs() < 1e-12);
    }
}
