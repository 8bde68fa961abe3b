//! Result files of `perf --all`, and `perf compare A.json B.json`.
//!
//! `compare` applies the bounds of `BENCHMARK.json` to every pairing of
//! end-to-end metric and workload, `A` being the parent and `B` the
//! change (or two sets of runs of one commit, to check the benchmark
//! repeats):
//!
//! * `same` — B is within the bound of A, and not better by more than
//!   the runs' own spread;
//! * `better` — B beats A by more than the spread;
//! * `worse` — B is worse than A by more than the bound;
//! * `unresolved` — the runs of A or B spread wider than the bound, so
//!   neither of the above can be said.
//!
//! Counts (`pages_per_query`, `space_bytes_per_tuple`) repeat exactly for
//! a seed, so any difference is reported and fails the comparison: a
//! change that moves one must say so on purpose.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::report::{Outcome, END_TO_END, EXACT, PER_LAYER};
use crate::stats::{median, quartile_spread};

/// One workload's section of a result file: the median of each
/// end-to-end metric over the untraced runs (with every run's value, so
/// a reader can see the spread), and the traced run's layer metrics.
pub fn workload_json(runs: &[Outcome], traced: &Outcome) -> Json {
    let end_to_end = END_TO_END.iter().map(|d| {
        let values: Vec<f64> = runs.iter().map(|o| o.metrics[d.name]).collect();
        (
            d.name,
            Json::obj([
                ("value", Json::Num(median(&values))),
                ("unit", Json::str(d.unit)),
                (
                    "runs",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]),
        )
    });
    let counts = |o: &Outcome| Json::obj(o.counts.iter().map(|(k, v)| (*k, Json::Num(*v as f64))));
    let notes: std::collections::BTreeSet<&String> =
        runs.iter().chain([traced]).flat_map(|o| &o.notes).collect();
    let notes = notes.into_iter().cloned().map(Json::Str).collect();
    let total = |f: fn(&Outcome) -> u64| runs.iter().chain([traced]).map(f).sum::<u64>() as f64;
    Json::obj([
        ("end_to_end", Json::obj(end_to_end)),
        ("per_layer", traced.metrics_json(PER_LAYER, true)),
        ("attempted", Json::Num(total(|o| o.attempted))),
        ("failed", Json::Num(total(|o| o.failed))),
        (
            "ops_failed_ratio",
            Json::Num(total(|o| o.failed) / total(|o| o.attempted).max(1.0)),
        ),
        ("counts", runs.last().map_or(Json::Null, counts)),
        ("traced_counts", counts(traced)),
        ("notes", Json::Arr(notes)),
    ])
}

/// The four verdicts, plus the one for counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
    /// A count that should repeat exactly differs.
    CountChanged,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::CountChanged => "count changed",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::CountChanged)
    }
}

/// One side of a comparison: the reported value and its runs' spread —
/// the distance between their quartiles over their median, as the
/// benchmark's acceptance rule takes it (0 for a single run; with two or
/// three runs the quartiles are extrapolated and the figure is coarse).
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

/// Decides one row. `bound` is the share of A by which B may be worse.
pub fn verdict(a: Side, b: Side, lower_is_better: bool, bound: f64, exact: bool) -> Verdict {
    if exact {
        return if a.value == b.value {
            Verdict::Same
        } else {
            Verdict::CountChanged
        };
    }
    let spread = a.spread.max(b.spread);
    if spread > bound {
        return Verdict::Unresolved;
    }
    let change = (b.value - a.value) / a.value;
    let worse_by = if lower_is_better { change } else { -change };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn side(metric: &Json) -> Option<Side> {
    let value = metric.get("value")?.as_f64()?;
    let runs: Vec<f64> = metric
        .get("runs")
        .and_then(Json::as_arr)
        .map(|r| r.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    let spread = if runs.len() >= 2 {
        quartile_spread(&runs)
    } else {
        0.0
    };
    Some(Side { value, spread })
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `perf compare A.json B.json`.
pub fn main(a_path: &Path, b_path: &Path) -> ExitCode {
    match run(a_path, b_path) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Prints the table; `Ok(false)` when a row fails the comparison.
fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let bench = load(&crate::benchmark_json())?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in ["seed", "quick", "seconds"] {
        if a.get(key) != b.get(key) {
            return Err(format!("the two files differ in `{key}`: not comparable"));
        }
    }
    let bounds = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    println!(
        "{:<24}{:<22}{:>14}{:>14}{:>9}{:>8}{:>8}  verdict",
        "metric", "workload", "A", "B", "change", "spread", "bound"
    );
    let mut ok = true;
    for def in END_TO_END {
        let bound = bounds
            .iter()
            .find(|b| b.get("name").and_then(Json::as_str) == Some(def.name))
            .and_then(|b| b.get("bound")?.as_f64())
            .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))?;
        for w in crate::Workload::ALL {
            let find = |doc: &Json| {
                doc.get("workloads")?
                    .get(w.name())?
                    .get("end_to_end")?
                    .get(def.name)
                    .and_then(side)
            };
            let (Some(sa), Some(sb)) = (find(&a), find(&b)) else {
                return Err(format!(
                    "{} @ {} is missing from a file",
                    def.name,
                    w.name()
                ));
            };
            let lower = def.better == "lower";
            let v = verdict(sa, sb, lower, bound, EXACT.contains(&def.name));
            ok &= !v.fails();
            println!(
                "{:<24}{:<22}{:>14.4}{:>14.4}{:>+8.1}%{:>7.1}%{:>7.1}%  {}",
                def.name,
                w.name(),
                sa.value,
                sb.value,
                (sb.value - sa.value) / sa.value * 100.0,
                sa.spread.max(sb.spread) * 100.0,
                bound * 100.0,
                v.label()
            );
        }
    }
    for (doc, label) in [(&a, "A"), (&b, "B")] {
        let failed = doc.get("ops_failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed > 0.0 {
            println!("{label}: {failed} operations failed");
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, spread: f64) -> Side {
        Side { value, spread }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(s(100.0, 0.02), s(105.0, 0.02), true, 0.10, false),
            Verdict::Same
        );
        assert_eq!(
            verdict(s(100.0, 0.02), s(111.0, 0.02), true, 0.10, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(s(100.0, 0.02), s(95.0, 0.02), true, 0.10, false),
            Verdict::Better
        );
        // Better by less than the spread is not a finding.
        assert_eq!(
            verdict(s(100.0, 0.06), s(95.0, 0.02), true, 0.10, false),
            Verdict::Same
        );
        // Spread wider than the bound: nothing can be said, even of +30 %.
        assert_eq!(
            verdict(s(100.0, 0.12), s(130.0, 0.02), true, 0.10, false),
            Verdict::Unresolved
        );
        // Higher is better flips the direction.
        assert_eq!(
            verdict(s(100.0, 0.0), s(85.0, 0.0), false, 0.10, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(s(100.0, 0.0), s(120.0, 0.0), false, 0.10, false),
            Verdict::Better
        );
        assert_eq!(
            verdict(s(100.0, 0.0), s(100.0, 0.0), false, 0.10, false),
            Verdict::Same
        );
    }

    #[test]
    fn counts_must_repeat_exactly() {
        assert_eq!(
            verdict(s(15.25, 0.0), s(15.25, 0.0), true, 0.1, true),
            Verdict::Same
        );
        let v = verdict(s(15.25, 0.0), s(15.24, 0.0), true, 0.1, true);
        assert_eq!(v, Verdict::CountChanged);
        assert!(v.fails() && Verdict::Worse.fails());
        assert!(!Verdict::Unresolved.fails() && !Verdict::Better.fails());
    }

    #[test]
    fn result_files_round_trip_into_sides() {
        let mut runs = Vec::new();
        for q in [90.0, 100.0, 110.0] {
            let mut o = Outcome {
                attempted: 5,
                ..Outcome::default()
            };
            for d in END_TO_END {
                o.set(d.name, q);
            }
            runs.push(o);
        }
        let doc = workload_json(&runs, &Outcome::default());
        let doc = Json::parse(&doc.pretty()).unwrap();
        let side = side(doc.get("end_to_end").unwrap().get("query_qps").unwrap()).unwrap();
        assert_eq!(side.value, 100.0);
        assert!(
            (side.spread - 0.2).abs() < 1e-12,
            "quartiles of 3 runs are its ends"
        );
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(15.0));
        assert_eq!(
            doc.get("per_layer").unwrap().as_obj().unwrap().len(),
            PER_LAYER.len()
        );
    }
}
