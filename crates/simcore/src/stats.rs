//! Measurement instruments for simulations and benchmarks.
//!
//! All instruments are plain data — no interior mutability, no time source
//! of their own. Simulated actors pass in the virtual clock; the real
//! runtime passes wall-clock readings.

use std::fmt;

use crate::time::{Duration, SimTime};

/// Bytes in one mebibyte; the paper reports all throughput in MiB/s
/// ("1 MiB = 1024*1024 bytes. In our evaluations MB refers to MiB.").
pub const MIB: f64 = 1024.0 * 1024.0;

/// Convert a byte count over a duration to MiB/s.
pub fn mib_per_sec(bytes: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        return 0.0;
    }
    bytes as f64 / MIB / secs
}

// ---------------------------------------------------------------------------
// Tally
// ---------------------------------------------------------------------------

/// Streaming summary of observations: count, mean, min, max, variance
/// (Welford's algorithm, numerically stable).
#[derive(Debug, Clone, Default)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Tally {
    pub fn new() -> Self {
        Tally {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another tally into this one (parallel reduction).
    pub fn merge(&mut self, other: &Tally) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

// ---------------------------------------------------------------------------
// Time-weighted value
// ---------------------------------------------------------------------------

/// Tracks the time-weighted average of a piecewise-constant quantity
/// (queue depth, active threads, staged bytes).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    start: SimTime,
    last_t: SimTime,
    last_v: f64,
    integral: f64,
    peak: f64,
}

impl TimeWeighted {
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            start,
            last_t: start,
            last_v: initial,
            integral: 0.0,
            peak: initial,
        }
    }

    /// Record that the value changed to `v` at time `t`.
    pub fn set(&mut self, t: SimTime, v: f64) {
        debug_assert!(t >= self.last_t);
        self.integral += self.last_v * t.duration_since(self.last_t).as_secs_f64();
        self.last_t = t;
        self.last_v = v;
        self.peak = self.peak.max(v);
    }

    pub fn add(&mut self, t: SimTime, delta: f64) {
        let v = self.last_v + delta;
        self.set(t, v);
    }

    pub fn current(&self) -> f64 {
        self.last_v
    }

    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted mean over `[start, t]`.
    pub fn mean(&self, t: SimTime) -> f64 {
        let total = t.duration_since(self.start).as_secs_f64();
        if total <= 0.0 {
            return self.last_v;
        }
        let integral = self.integral + self.last_v * t.duration_since(self.last_t).as_secs_f64();
        integral / total
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Log-scaled latency/size histogram: bucket `i` holds values in
/// `[2^i, 2^(i+1))` of the base unit. Good enough for order-of-magnitude
/// latency breakdowns without storing samples.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; 64],
            count: 0,
            sum: 0.0,
        }
    }

    pub fn record(&mut self, value: u64) {
        let idx = 63 - value.max(1).leading_zeros() as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as f64;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile: returns the upper bound of the bucket
    /// containing the q-th sample.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q));
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }
}

// ---------------------------------------------------------------------------
// Throughput meter
// ---------------------------------------------------------------------------

/// Accumulates transferred bytes between an explicit start and stop, then
/// reports MiB/s — the measurement the paper's benchmarks print.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    started: Option<SimTime>,
    stopped: Option<SimTime>,
    bytes: u64,
    ops: u64,
}

impl Default for ThroughputMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl ThroughputMeter {
    pub fn new() -> Self {
        ThroughputMeter {
            started: None,
            stopped: None,
            bytes: 0,
            ops: 0,
        }
    }

    pub fn start(&mut self, t: SimTime) {
        self.started = Some(t);
    }

    pub fn record(&mut self, bytes: u64) {
        self.bytes += bytes;
        self.ops += 1;
    }

    pub fn stop(&mut self, t: SimTime) {
        self.stopped = Some(t);
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    pub fn ops(&self) -> u64 {
        self.ops
    }

    pub fn elapsed(&self) -> Duration {
        match (self.started, self.stopped) {
            (Some(a), Some(b)) => b.duration_since(a),
            _ => Duration::ZERO,
        }
    }

    pub fn mib_per_sec(&self) -> f64 {
        mib_per_sec(self.bytes, self.elapsed())
    }
}

// ---------------------------------------------------------------------------
// Series
// ---------------------------------------------------------------------------

/// One plotted line: (x, y) points with a label. The figure harness
/// collects one `Series` per forwarding mechanism per figure.
#[derive(Debug, Clone)]
pub struct Series {
    pub label: String,
    pub points: Vec<(f64, f64)>,
}

impl Series {
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (*px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }
}

/// A labelled group of series sharing an x-axis — i.e. one figure.
#[derive(Debug, Clone, Default)]
pub struct Figure {
    pub title: String,
    pub x_label: String,
    pub y_label: String,
    pub series: Vec<Series>,
}

impl Figure {
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    pub fn push_series(&mut self, s: Series) {
        self.series.push(s);
    }
}

impl fmt::Display for Figure {
    /// Render as an aligned text table: x column then one column per series.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {}", self.title)?;
        write!(f, "{:>14}", self.x_label)?;
        for s in &self.series {
            write!(f, "  {:>22}", s.label)?;
        }
        writeln!(f)?;
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.0).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            write!(f, "{:>14}", format_x(*x))?;
            for s in &self.series {
                match s.points.get(i) {
                    Some(&(_, y)) => write!(f, "  {:>22.1}", y)?,
                    None => write!(f, "  {:>22}", "-")?,
                }
            }
            writeln!(f)?;
        }
        writeln!(f, "# ({} = series values)", self.y_label)
    }
}

fn format_x(x: f64) -> String {
    if (x.fract()).abs() < 1e-9 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mib_per_sec_basic() {
        let d = Duration::from_secs(2);
        assert!((mib_per_sec(4 * 1024 * 1024, d) - 2.0).abs() < 1e-12);
        assert_eq!(mib_per_sec(100, Duration::ZERO), 0.0);
    }

    #[test]
    fn tally_mean_and_variance() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert_eq!(t.count(), 8);
        assert!((t.mean() - 5.0).abs() < 1e-12);
        assert!((t.variance() - 4.571428571428571).abs() < 1e-9);
        assert_eq!(t.min(), 2.0);
        assert_eq!(t.max(), 9.0);
    }

    #[test]
    fn tally_merge_equals_combined() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.7 - 3.0).collect();
        let mut whole = Tally::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Tally::new();
        let mut b = Tally::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 3 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mean() {
        let t0 = SimTime::ZERO;
        let mut tw = TimeWeighted::new(t0, 0.0);
        tw.set(SimTime::from_nanos(1_000_000_000), 10.0); // 0 for 1 s
        tw.set(SimTime::from_nanos(3_000_000_000), 0.0); // 10 for 2 s
        let mean = tw.mean(SimTime::from_nanos(4_000_000_000)); // 0 for 1 s
        assert!((mean - 5.0).abs() < 1e-9, "mean {mean}");
        assert_eq!(tw.peak(), 10.0);
    }

    #[test]
    fn log_histogram_quantiles() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert!(h.quantile(0.5) <= 256);
        assert!(h.quantile(1.0) >= 100_000);
    }

    #[test]
    fn throughput_meter() {
        let mut m = ThroughputMeter::new();
        m.start(SimTime::ZERO);
        m.record(1024 * 1024);
        m.record(1024 * 1024);
        m.stop(SimTime::from_nanos(1_000_000_000));
        assert_eq!(m.ops(), 2);
        assert!((m.mib_per_sec() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn figure_rendering_and_lookup() {
        let mut fig = Figure::new("Fig X", "nodes", "MiB/s");
        let mut s = Series::new("ciod");
        s.push(1.0, 100.0);
        s.push(2.0, 200.0);
        fig.push_series(s);
        assert_eq!(fig.series("ciod").unwrap().y_at(2.0), Some(200.0));
        let text = format!("{fig}");
        assert!(text.contains("Fig X"));
        assert!(text.contains("ciod"));
        assert!(text.contains("200.0"));
    }
}
