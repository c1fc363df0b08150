//! Summary statistics, the host block, and the result lines.

use std::hint::black_box;
use std::thread;
use std::time::{Duration, Instant};

use serde::{Serialize, Value};

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The info block of a tail percentile `q` of `values`: the percentile,
/// the sample count, and how many samples lie beyond it.
pub fn tail(values: &[f64], q: f64) -> Value {
    let at = quantile(values, q);
    object([
        ("percentile", (q * 100.0).to_value()),
        ("samples", values.len().to_value()),
        ("beyond", values.iter().filter(|&&v| v > at).count().to_value()),
    ])
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a stream of words — the output digests.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    /// The digest of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut d = Digest::new();
        d.bytes(bytes);
        d.finish()
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The calibration kernel: a dependent multiply-xorshift chain, one
/// iteration per step, nothing the compiler can fold away.
fn spin(iters: u64) -> u64 {
    let mut x = black_box(0x2545_F491_4F6C_DD1D_u64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    black_box(x)
}

/// What the host gives this run: reported cores, cores that actually
/// scale (two spinning threads against one), and the calibration
/// kernel's speed.
#[derive(Serialize)]
pub struct Host {
    pub reported_cores: usize,
    pub effective_cores: f64,
    pub calib_ns_per_iter: f64,
}

impl Host {
    pub fn probe() -> Host {
        const ITERS: u64 = 4_000_000;
        let (mut one, mut two) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let t = Instant::now();
            spin(ITERS);
            one.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let pair: Vec<_> = (0..2).map(|_| thread::spawn(|| spin(ITERS))).collect();
            for h in pair {
                h.join().expect("spin thread");
            }
            two.push(t.elapsed().as_secs_f64());
        }
        let (one, two) = (median(&one), median(&two));
        Host {
            reported_cores: thread::available_parallelism().map_or(1, usize::from),
            effective_cores: 2.0 * one / two,
            calib_ns_per_iter: one * 1e9 / ITERS as f64,
        }
    }
}

/// A JSON object of `fields`, in order.
pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A workload run's result: the graded counts, the metrics, and the
/// informational blocks printed ahead of the result line.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Mismatches found by output checks (also counted in `failed`).
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
    /// `(key, value)` pairs for the info line.
    pub info: Vec<(String, Value)>,
    /// Work counters that must repeat exactly on every run.
    pub exact: Vec<(String, Value)>,
}

impl RunResult {
    /// Records a metric; counts are also exact work counters.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if unit == "count" {
            self.exact(name, value);
        }
        self.metrics.push(Metric { name: name.to_owned(), value, unit });
    }

    pub fn exact(&mut self, key: &str, value: impl Serialize) {
        self.exact.push((key.to_owned(), value.to_value()));
    }

    pub fn info(&mut self, key: &str, value: impl Serialize) {
        self.info.push((key.to_owned(), value.to_value()));
    }

    /// Records a failed output check.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Prints the info line (`header` first), then the result line
    /// (always last).
    pub fn print(mut self, header: Vec<(String, Value)>) {
        let tail = [
            ("error_rate".to_owned(), self.error_rate().to_value()),
            ("exact".to_owned(), Value::Object(std::mem::take(&mut self.exact))),
            ("mismatches".to_owned(), self.mismatches[..self.mismatches.len().min(8)].to_value()),
        ];
        let info: Vec<_> = header.into_iter().chain(self.info.drain(..)).chain(tail).collect();
        println!("{}", to_json(&object([("perfbench", Value::Object(info))])));

        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (m.name.clone(), object([("value", value.to_value()), ("unit", m.unit.to_value())]))
            })
            .collect();
        let result = object([
            ("correct", (self.failed == 0 && self.attempted > 0).to_value()),
            ("attempted", self.attempted.to_value()),
            ("failed", self.failed.to_value()),
            ("metrics", Value::Object(metrics)),
        ]);
        println!("{}", to_json(&result));
    }
}

/// Compact JSON text of `value`.
pub fn to_json(value: &impl Serialize) -> String {
    serde_json::to_string(value).expect("values serialize")
}
