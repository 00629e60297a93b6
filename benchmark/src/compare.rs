//! `iofwd-bench compare A.json B.json`: per workload and end-to-end
//! metric, B over A with its base, the metric's bound, and a verdict that
//! refuses to call a difference inside the noise a difference.

use std::fmt::Write as _;

use crate::json::Value;
use crate::metrics::{Better, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    /// The difference is inside either run's window spread.
    Indistinct,
}

/// `a` and `b` are the two runs' medians, `spread_*` their window spreads
/// as shares of the median.
pub fn verdict(better: Better, a: f64, b: f64, spread_a: f64, spread_b: f64) -> Verdict {
    let change = (b - a) / a.abs();
    if change.abs() <= spread_a.max(spread_b) {
        return Verdict::Indistinct;
    }
    if (change > 0.0) == (better == Better::Higher) {
        Verdict::Better
    } else {
        Verdict::Worse
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub bound: f64,
    pub verdict: Verdict,
    /// A distinct change larger than the metric's bound, either way: two
    /// runs of one commit must show none.
    pub outside_bound: bool,
}

fn metric_of(run: &Value, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = run
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let spread = m.get("spread").and_then(Value::as_f64).unwrap_or(0.0);
    Some((m.get("value")?.as_f64()?, spread))
}

/// Every workload × end-to-end metric present in both results files.
pub fn compare(a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    let Some(workloads) = a.get("workloads") else {
        return rows;
    };
    for (workload, _) in workloads.fields() {
        for m in &END_TO_END {
            let (Some((va, sa)), Some((vb, sb))) = (
                metric_of(a, workload, m.name),
                metric_of(b, workload, m.name),
            ) else {
                continue;
            };
            let v = verdict(m.better, va, vb, sa, sb);
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                a: va,
                b: vb,
                bound: m.bound,
                verdict: v,
                outside_bound: v != Verdict::Indistinct && ((vb - va) / va.abs()).abs() > m.bound,
            });
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<13} {:<22} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<13} {:<22} {:>12.4} {:>12.4} {:>8.4} {:>5.0}%  {}{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.b / r.a,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Better => "better",
                Verdict::Worse => "worse",
                Verdict::Indistinct => "indistinct",
            },
            if r.outside_bound {
                " (outside bound)"
            } else {
                ""
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_direction_and_noise() {
        use Better::{Higher, Lower};
        // 5 % up on a higher-is-better metric with 2 % noise: better.
        assert_eq!(verdict(Higher, 100.0, 105.0, 0.02, 0.01), Verdict::Better);
        assert_eq!(verdict(Higher, 100.0, 95.0, 0.02, 0.01), Verdict::Worse);
        assert_eq!(verdict(Lower, 100.0, 105.0, 0.02, 0.01), Verdict::Worse);
        assert_eq!(verdict(Lower, 100.0, 95.0, 0.02, 0.01), Verdict::Better);
        // Inside either run's spread: no difference, whichever way.
        assert_eq!(
            verdict(Higher, 100.0, 105.0, 0.01, 0.06),
            Verdict::Indistinct
        );
        assert_eq!(verdict(Lower, 100.0, 95.0, 0.06, 0.0), Verdict::Indistinct);
        assert_eq!(verdict(Lower, 100.0, 100.0, 0.0, 0.0), Verdict::Indistinct);
    }

    fn results(throughput: f64, spread: f64, efficiency: f64) -> Value {
        let m = |v: f64, s: f64| Value::obj().with("value", v).with("spread", s);
        Value::obj().with(
            "workloads",
            Value::obj().with(
                "stream_write",
                Value::obj().with(
                    "end_to_end",
                    Value::obj()
                        .with("throughput_mib_s", m(throughput, spread))
                        .with("efficiency", m(efficiency, 0.01)),
                ),
            ),
        )
    }

    #[test]
    fn compare_flags_only_distinct_changes_beyond_the_bound() {
        let rows = compare(&results(1000.0, 0.02, 0.80), &results(700.0, 0.02, 0.70));
        assert_eq!(rows.len(), 2, "metrics absent from the files are skipped");
        let thr = &rows[0];
        assert_eq!(
            (thr.metric, thr.verdict),
            ("throughput_mib_s", Verdict::Worse)
        );
        assert!(thr.outside_bound, "30 % down against a 25 % bound");
        let eff = &rows[1];
        assert_eq!((eff.metric, eff.verdict), ("efficiency", Verdict::Worse));
        assert!(!eff.outside_bound, "12.5 % down is inside the 20 % bound");
        assert!(render(&rows).contains("worse (outside bound)"));

        let rows = compare(&results(1000.0, 0.4, 0.80), &results(700.0, 0.02, 0.80));
        assert_eq!(rows[0].verdict, Verdict::Indistinct);
        assert!(!rows[0].outside_bound);
    }
}
