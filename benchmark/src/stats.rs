//! Window and percentile maths. Every end-to-end metric is computed once
//! per window of the measured interval and reported as the median of the
//! windows, with `(max - min) / median` alongside as its spread.

/// What a client call was, for latency classes and byte accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// `pwrite` carrying payload.
    Write,
    /// `pread` returning payload.
    Read,
    /// `close` (and nothing else): where staged work and deferred
    /// errors surface.
    Barrier,
    /// `open`, counted apart because the layer replays price it.
    Open,
    /// `stat`, `unlink`, and `close` of a descriptor with nothing staged.
    Meta,
}

/// One completed client call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, ns since the pass's origin.
    pub end_ns: u64,
    pub lat_ns: u64,
    pub class: Class,
    /// Payload bytes moved (0 for barrier/meta calls).
    pub bytes: u32,
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max - min) / median`; 0 for a zero median (an all-zero metric has
/// no spread).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m.abs()
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A metric over the windows of one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    pub median: f64,
    pub spread: f64,
    pub windows: Vec<f64>,
}

impl Windowed {
    pub fn of(windows: Vec<f64>) -> Windowed {
        Windowed {
            median: median(&windows),
            spread: spread(&windows),
            windows,
        }
    }
}

/// Everything measured in one window from the client samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    pub ops: u64,
    pub bytes: u64,
    /// p50/p99 per data class present in the window, ns.
    pub write: Option<(u64, u64)>,
    pub read: Option<(u64, u64)>,
    pub barriers: u64,
}

impl Window {
    /// Mean over the data classes present of the class's p50, µs.
    /// Averaging class medians (rather than pooling the samples) keeps a
    /// two-class workload from reporting whichever class the pooled median
    /// happens to fall in.
    pub fn data_p50_us(&self) -> Option<f64> {
        let p50s: Vec<f64> = [self.write, self.read]
            .into_iter()
            .flatten()
            .map(|(p50, _)| p50 as f64 / 1e3)
            .collect();
        (!p50s.is_empty()).then(|| p50s.iter().sum::<f64>() / p50s.len() as f64)
    }
}

/// Bucket every client's samples into `n` windows of `window_ns` starting
/// at `start_ns`. Samples completing outside the measured interval
/// (warm-up, the op in flight at the end) are dropped.
pub fn windows(clients: &[Vec<Sample>], start_ns: u64, window_ns: u64, n: usize) -> Vec<Window> {
    let mut lat: Vec<[Vec<u64>; 3]> = (0..n).map(|_| Default::default()).collect();
    let mut out = vec![Window::default(); n];
    for s in clients.iter().flatten() {
        if s.end_ns < start_ns {
            continue;
        }
        let w = ((s.end_ns - start_ns) / window_ns) as usize;
        if w >= n {
            continue;
        }
        out[w].ops += 1;
        out[w].bytes += u64::from(s.bytes);
        match s.class {
            Class::Write => lat[w][0].push(s.lat_ns),
            Class::Read => lat[w][1].push(s.lat_ns),
            Class::Barrier => lat[w][2].push(s.lat_ns),
            Class::Open | Class::Meta => {}
        }
    }
    for (w, mut l) in out.iter_mut().zip(lat) {
        let pct = |v: &mut Vec<u64>| {
            v.sort_unstable();
            (!v.is_empty()).then(|| (percentile(v, 0.50), percentile(v, 0.99)))
        };
        w.write = pct(&mut l[0]);
        w.read = pct(&mut l[1]);
        w.barriers = l[2].len() as u64;
    }
    out
}

/// Median latency, µs, of the barrier calls completing in
/// `[start_ns, start_ns + len_ns)`; `None` when there was none.
pub fn barrier_p50_us(clients: &[Vec<Sample>], start_ns: u64, len_ns: u64) -> Option<f64> {
    let mut lat: Vec<u64> = clients
        .iter()
        .flatten()
        .filter(|s| s.class == Class::Barrier)
        .filter(|s| s.end_ns >= start_ns && s.end_ns < start_ns + len_ns)
        .map(|s| s.lat_ns)
        .collect();
    lat.sort_unstable();
    (!lat.is_empty()).then(|| percentile(&lat, 0.50) as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
        let w = Windowed::of(vec![5.0, 1.0, 3.0]);
        assert_eq!((w.median, w.spread), (3.0, 4.0 / 3.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    fn sample(end_ns: u64, lat_ns: u64, class: Class, bytes: u32) -> Sample {
        Sample {
            end_ns,
            lat_ns,
            class,
            bytes,
        }
    }

    #[test]
    fn windows_bucket_by_completion_and_drop_outside() {
        let a = vec![
            sample(50, 1, Class::Write, 10),   // warm-up: dropped
            sample(100, 10, Class::Write, 10), // window 0
            sample(199, 30, Class::Write, 10), // window 0
            sample(200, 7, Class::Read, 5),    // window 1
            sample(300, 9, Class::Write, 10),  // past the end: dropped
        ];
        let b = vec![
            sample(150, 20, Class::Write, 10),
            sample(250, 4, Class::Barrier, 0),
        ];
        let w = windows(&[a, b], 100, 100, 2);
        assert_eq!((w[0].ops, w[0].bytes), (3, 30));
        assert_eq!(w[0].write, Some((20, 30)));
        assert_eq!(w[0].read, None);
        assert_eq!(w[0].barriers, 0);
        assert_eq!((w[1].ops, w[1].bytes), (2, 5));
        assert_eq!(w[1].read, Some((7, 7)));
        assert_eq!(w[1].barriers, 1);
    }

    #[test]
    fn barrier_median_over_an_interval() {
        let a = vec![
            sample(90, 1_000, Class::Barrier, 0), // before
            sample(100, 3_000, Class::Barrier, 0),
            sample(150, 9_000, Class::Write, 10), // not a barrier
            sample(300, 7_000, Class::Barrier, 0), // after
        ];
        let b = vec![
            sample(199, 5_000, Class::Barrier, 0),
            sample(120, 4_000, Class::Barrier, 0),
        ];
        assert_eq!(barrier_p50_us(&[a, b], 100, 100), Some(4.0));
        assert_eq!(barrier_p50_us(&[vec![]], 100, 100), None);
    }

    #[test]
    fn data_latency_averages_class_medians() {
        let w = Window {
            write: Some((100_000, 300_000)),
            read: Some((300_000, 500_000)),
            ..Window::default()
        };
        assert_eq!(w.data_p50_us(), Some(200.0));
        let w = Window {
            read: Some((300_000, 500_000)),
            ..Window::default()
        };
        assert_eq!(w.data_p50_us(), Some(300.0));
        assert_eq!(Window::default().data_p50_us(), None);
    }
}
