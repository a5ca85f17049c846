//! Small helpers: order statistics, a seeded RNG, peak RSS, and the
//! result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Median of `v` (0 for an empty slice). Sorts a copy.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile `q` in `[0, 1]` of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), q)]
}

/// Sub-buckets per power of two in [`LatHist`]: values are kept to within
/// 1/512 (0.2%) of what was measured.
const SUB: u64 = 512;
const SUB_BITS: u32 = SUB.trailing_zeros();

/// Largest value a [`LatHist`] tells apart (≈69 s); larger ones count here.
const MAX_NS: u64 = (1 << 36) - 1;

/// Latency histogram in nanoseconds with constant memory, so the
/// harness's own footprint does not grow with the number of reads: exact
/// below 1024 ns, log-linear with [`SUB`] sub-buckets per octave above.
#[derive(Clone)]
pub struct LatHist {
    counts: Vec<u32>,
    n: u64,
    sum: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        Self {
            counts: vec![0; Self::bucket(MAX_NS) + 1],
            n: 0,
            sum: 0,
        }
    }
}

impl LatHist {
    fn bucket(v: u64) -> usize {
        let v = v.min(MAX_NS);
        if v < 2 * SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (u64::from(shift) * SUB + (v >> shift)) as usize
    }

    /// `(lowest value, width)` of bucket `b`.
    fn range(b: usize) -> (f64, f64) {
        let b = b as u64;
        if b < 2 * SUB {
            return (b as f64, 1.0);
        }
        let shift = b / SUB - 1;
        (((b - shift * SUB) << shift) as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
        self.sum = self.sum.saturating_add(ns);
    }

    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum = self.sum.saturating_add(other.sum);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// Nearest-rank quantile `q`, ns (0 when empty), placed within its
    /// bucket by rank as if the bucket's samples were evenly spread.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let want = rank(self.n as usize, q) as u64 + 1;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if seen + c >= want {
                let (low, width) = Self::range(b);
                if width == 1.0 {
                    return low;
                }
                return low + width * ((want - seen) as f64 - 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("counts sum to n")
    }
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Duration as whole nanoseconds (saturating).
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// SplitMix64: a tiny seeded generator for shuffles and random offsets.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Peak resident set size of this process so far, MiB: `VmHWM` of
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` is not usable here: it
/// keeps the peak of the image that exec'd the benchmark, e.g. `cargo run`.)
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Ordered metric set for the result line.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Add a metric; a non-finite value (an empty ratio) is reported as 0.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The final stdout line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut o = String::with_capacity(64 * metrics.0.len() + 64);
    let _ = write!(
        o,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        let _ = write!(
            o,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    o.push_str("}}");
    o
}

/// A finite f64 in JSON syntax (Rust's shortest round-trip form).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket() {
        let mut h = LatHist::default();
        for v in 1..=100_000u64 {
            h.record(v * 7);
        }
        for (q, exact) in [(0.5, 350_000.0), (0.99, 693_000.0)] {
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 2.0 / SUB as f64,
                "{q}: {got} vs {exact}"
            );
        }
        let mut small = LatHist::default();
        small.record(3);
        assert_eq!(small.quantile(0.5), 3.0);
        small.record(u64::MAX);
        assert_eq!(small.count(), 2);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.put("a", 1.0, "s");
        m.put("b", 0.25, "ms");
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.0, \"unit\": \"s\"}, \"b\": {\"value\": 0.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }
}
