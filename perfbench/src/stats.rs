//! Sample statistics, digests, timing and the per-run result record.

use std::time::Instant;

/// Nearest-rank quantile of `xs` (`q` in `[0, 1]`); `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (nearest-rank).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Mean; `NaN` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Time `f` once, returning its result and the wall time in ms.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, ms_since(t))
}

/// Run `f` `reps` times and return the median wall time in ms — the
/// set-up measurement every workload reports as `setup_s`.
pub fn median_ms_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (r, ms) = timed(&mut f);
        times.push(ms);
        last = Some(r);
    }
    (last.expect("at least one repetition"), median(&times))
}

/// FNV-1a, 64-bit: the digest used for every output check.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold raw bytes in.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold a `u64` in (little-endian bytes).
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    /// Fold the exact bit patterns of `f32`s in.
    pub fn f32s(&mut self, xs: &[f32]) -> &mut Self {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
        self
    }

    /// The digest so far.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// One metric: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, batches, steps, fleet runs).
    pub attempted: u64,
    /// Operations not served, skipped, or with a wrong output.
    pub failed: u64,
    /// Metrics reported in the final JSON line.
    pub metrics: Vec<Metric>,
    /// Human-readable `name = value unit` lines printed before it
    /// (every end-to-end figure under its workload-specific name, sample
    /// counts, open-loop honesty, calibration flags).
    pub info: Vec<String>,
    /// Output-check failures, one line each.
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// Record a metric for the final JSON line (also echoed to `info`).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info(name, value, unit);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Whether metric `name` has been recorded.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.name == name)
    }

    /// Record a human-readable figure only.
    pub fn info(&mut self, name: &str, value: f64, unit: &str) {
        self.info.push(format!("{name} = {value} {unit}"));
    }

    /// Record a free-form note.
    pub fn note(&mut self, line: String) {
        self.info.push(line);
    }

    /// Check `ok`; on failure count one failed operation and log why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.mismatches.push(what());
        }
    }
}

/// Exponentially distributed sample with mean `1 / rate` (inverse CDF;
/// the vendored `rand` has no distributions module).
pub fn exp_sample(rng: &mut impl rand::Rng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
