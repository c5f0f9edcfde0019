//! `compare <a.json> <b.json>`: one row per workload × end-to-end metric,
//! with a verdict that refuses to call a difference it cannot resolve.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartile_spread};

/// What the two files say about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is better than `a` by more than the bound.
    Improved,
    /// Within the bound.
    Unchanged,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// The files' own run-to-run spread exceeds the bound and their
    /// samples overlap: the benchmark cannot tell.
    Unresolved,
}

impl Verdict {
    /// The word the table prints.
    pub fn name(self) -> &'static str {
        match self {
            Self::Improved => "improved",
            Self::Unchanged => "unchanged",
            Self::Regressed => "regressed",
            Self::Unresolved => "unresolved",
        }
    }
}

/// Decides between the samples of one metric in file `a` (the base) and
/// file `b`.
///
/// With a spread wider than `bound` in either file the answer is
/// [`Verdict::Unresolved`], unless every run of one file reads better than
/// every run of the other. Otherwise the medians decide, against `bound`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    // Orient so that larger is worse.
    let worse = |v: f64| match better {
        Better::Lower => v,
        Better::Higher => -v,
    };
    let (a_med, b_med) = (median(a), median(b));
    let spread = |v: &[f64]| {
        if v.len() >= 2 {
            quartile_spread(v)
        } else {
            0.0
        }
    };
    if spread(a).max(spread(b)) > bound {
        let max = |v: &[f64]| {
            v.iter()
                .map(|&x| worse(x))
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let min = |v: &[f64]| v.iter().map(|&x| worse(x)).fold(f64::INFINITY, f64::min);
        return if max(b) < min(a) {
            Verdict::Improved
        } else if min(b) > max(a) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    let base = a_med.abs().max(f64::MIN_POSITIVE);
    let worse_by = (worse(b_med) - worse(a_med)) / base;
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The samples a result file holds for `metric` of `workload`.
fn samples(file: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    file.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("samples")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Median in the base file.
    pub a: f64,
    /// Median in the other file.
    pub b: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The decision.
    pub verdict: Verdict,
}

/// Compares two result files written by `all`.
///
/// # Errors
///
/// A message naming the first workload × metric either file lacks.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first file has no `workloads` object")?;
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        for m in END_TO_END {
            let missing = |which: &str| format!("{which} file lacks {workload} × {}", m.name);
            let sa = samples(a, workload, m.name).ok_or_else(|| missing("first"))?;
            let sb = samples(b, workload, m.name).ok_or_else(|| missing("second"))?;
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                a: median(&sa),
                b: median(&sb),
                bound: m.bound,
                verdict: verdict(&sa, &sb, m.better, m.bound),
            });
        }
    }
    Ok(rows)
}

/// The comparison as a table: both values, the ratio with its base, the
/// bound and the verdict.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<16} {:>14} {:>14} {:>16} {:>6}  {}\n",
        "workload", "metric", "a", "b", "b/a (base a)", "bound", "verdict"
    );
    for r in rows {
        let ratio = if r.a != 0.0 { r.b / r.a } else { f64::NAN };
        out.push_str(&format!(
            "{:<18} {:<16} {:>14.6} {:>14.6} {:>16.4} {:>6.2}  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            r.bound,
            r.verdict.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_decide_when_the_spread_is_inside_the_bound() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(&a, &[105.0, 104.0, 106.0], Better::Lower, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&a, &[115.0, 114.0, 116.0], Better::Lower, 0.25),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&a, &[115.0, 114.0, 116.0], Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &[85.0, 84.0, 86.0], Better::Lower, 0.1),
            Verdict::Improved
        );
        // The same numbers read the other way for a higher-is-better metric.
        assert_eq!(
            verdict(&a, &[115.0, 114.0, 116.0], Better::Higher, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&a, &[85.0, 84.0, 86.0], Better::Higher, 0.1),
            Verdict::Regressed
        );
        // Single samples have no spread of their own: the bound alone decides.
        assert_eq!(
            verdict(&[1.0], &[1.2], Better::Lower, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_runs_separate() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            verdict(
                &noisy,
                &[95.0, 130.0, 85.0, 105.0, 115.0],
                Better::Lower,
                0.1
            ),
            Verdict::Unresolved
        );
        // Every run of `b` beats every run of `a`: resolved despite the noise.
        assert_eq!(
            verdict(&noisy, &[50.0, 70.0, 60.0, 75.0, 55.0], Better::Lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&noisy, &[50.0, 70.0, 60.0, 75.0, 55.0], Better::Higher, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn compare_reads_result_files() {
        let file = |rps: f64| {
            Json::obj([(
                "workloads",
                Json::obj([(
                    "w",
                    Json::obj([(
                        "end_to_end",
                        Json::obj(END_TO_END.iter().map(|m| {
                            let v = if m.name == "rounds_per_s" { rps } else { 1.0 };
                            (m.name, Json::obj([("samples", Json::nums(&[v]))]))
                        })),
                    )]),
                )]),
            )])
        };
        let rows = compare(&file(10.0), &file(7.0)).expect("well-formed files");
        assert_eq!(rows.len(), END_TO_END.len());
        for row in &rows {
            let expected = if row.metric == "rounds_per_s" {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            };
            assert_eq!(row.verdict, expected, "{}", row.metric);
        }
        assert!(render(&rows).contains("regressed"));
        assert!(compare(&file(1.0), &Json::obj([("workloads", Json::Obj(vec![]))])).is_err());
    }
}
