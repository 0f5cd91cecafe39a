//! `compare <dirA> <dirB>`: medians, quartiles and a verdict per
//! `(workload, metric)` for two sets of result files, judged by the
//! bounds in `BENCHMARK.json`.

use crate::stats::{median, quartiles};
use ale_lab::json::{parse, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Over at least ten pairs, B wins nine in ten and its median beats
    /// A's by more than A's interquartile range.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// A's or B's own spread exceeds the bound and the two sets overlap,
    /// so no call can be made.
    Unresolved,
}

/// One end-to-end metric's bound and direction from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Share of A's median B may worsen by.
    pub bound: f64,
    /// Whether lower values are better.
    pub lower_is_better: bool,
}

/// Interquartile range over the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Judges B against A. Samples carry their seed; pairs are the seeds
/// both sides ran.
pub fn verdict(a: &[(u64, f64)], b: &[(u64, f64)], bound: &Bound) -> Verdict {
    let values = |s: &[(u64, f64)]| s.iter().map(|&(_, v)| v).collect::<Vec<_>>();
    let (va, vb) = (values(a), values(b));
    // Orient so that a positive difference is a worsening.
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let (ma, mb) = (median(&va), median(&vb));
    let (q1, q3) = quartiles(&va);
    let (mut pairs, mut wins) = (0usize, 0usize);
    for &(seed, x) in a {
        if let Some(&(_, y)) = b.iter().find(|&&(s, _)| s == seed) {
            pairs += 1;
            if sign * (y - x) < 0.0 {
                wins += 1;
            }
        }
    }
    let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MIN, f64::max);
    let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MAX, f64::min);
    let every_b_better = worst(&vb) < best(&va);
    let every_b_worse = best(&vb) > worst(&va);
    let noisy = spread(&va).max(spread(&vb)) > bound.bound;
    let gap = sign * (mb - ma) / ma.abs();
    if pairs >= 10 && wins * 10 >= pairs * 9 && gap < 0.0 && (mb - ma).abs() > q3 - q1 {
        Verdict::Better
    } else if noisy && !every_b_better && !every_b_worse {
        Verdict::Unresolved
    } else if gap > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// One result file: a run's metrics with its workload, seed and mode.
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn load_runs(dir: &Path) -> Result<Vec<Run>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("{}: no '{k}'", path.display()))
        };
        let mut metrics = BTreeMap::new();
        if let Value::Obj(pairs) = field("metrics")? {
            for (name, m) in pairs {
                if let Some(x) = m.get("value").and_then(Value::as_f64) {
                    metrics.insert(name.clone(), x);
                }
            }
        }
        runs.push(Run {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: field("seed")?.as_u64().unwrap_or_default(),
            trace: field("trace")?.as_u64() == Some(1),
            attempted: field("attempted")?.as_u64().unwrap_or_default(),
            failed: field("failed")?.as_u64().unwrap_or_default(),
            metrics,
        });
    }
    Ok(runs)
}

/// The metric lists of a `BENCHMARK.json`.
pub struct Listed {
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<(String, Bound)>,
    /// Per-layer metric names.
    pub per_layer: Vec<String>,
}

/// Reads the metric lists of a `BENCHMARK.json`.
pub fn load_benchmark(path: &Path) -> Result<Listed, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |k: &str| match v.get(k) {
        Some(Value::Arr(items)) => Ok(items.clone()),
        _ => Err(format!("{}: no '{k}' list", path.display())),
    };
    let name = |m: &Value| {
        m.get("name")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|m| {
            let bound = Bound {
                bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
            };
            (name(m), bound)
        })
        .collect();
    let per_layer = list("per_layer")?.iter().map(name).collect();
    Ok(Listed {
        end_to_end,
        per_layer,
    })
}

/// Renders the comparison; the flag is true when any pair was judged
/// worse, or when B failed more operations than A on some workload. A
/// workload whose B runs failed more operations gets no `Better`.
pub fn compare(a: &Path, b: &Path, benchmark: &Path) -> Result<(String, bool), String> {
    let listed = load_benchmark(benchmark)?;
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    let mut workloads: Vec<&str> = runs_a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let samples = |runs: &[Run], w: &str, m: &str, trace: bool| -> Vec<(u64, f64)> {
        runs.iter()
            .filter(|r| r.workload == w && r.trace == trace)
            .filter_map(|r| Some((r.seed, *r.metrics.get(m)?)))
            .collect()
    };
    let failures = |runs: &[Run], w: &str| {
        runs.iter()
            .filter(|r| r.workload == w)
            .fold((0, 0), |(f, n), r| (f + r.failed, n + r.attempted))
    };
    let summary = |s: &[(u64, f64)]| {
        let v: Vec<f64> = s.iter().map(|&(_, x)| x).collect();
        let (q1, q3) = quartiles(&v);
        format!("{:.6} [{q1:.6}, {q3:.6}] n={}", median(&v), v.len())
    };
    let mut out =
        String::from("workload metric | A median [q1, q3] | B median [q1, q3] | verdict\n");
    let mut any_worse = false;
    for w in workloads {
        let ((fa, na), (fb, nb)) = (failures(&runs_a, w), failures(&runs_b, w));
        let more_failures = fb > fa;
        any_worse |= more_failures;
        let _ = writeln!(
            out,
            "{w} failed | {fa} of {na} | {fb} of {nb} | {}",
            if more_failures { "Worse" } else { "Unchanged" }
        );
        for (m, bound) in &listed.end_to_end {
            let (sa, sb) = (samples(&runs_a, w, m, false), samples(&runs_b, w, m, false));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let v = match verdict(&sa, &sb, bound) {
                Verdict::Better if more_failures => Verdict::Unresolved,
                v => v,
            };
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(out, "{w} {m} | {} | {} | {v:?}", summary(&sa), summary(&sb));
        }
        for m in &listed.per_layer {
            let (sa, sb) = (samples(&runs_a, w, m, true), samples(&runs_b, w, m, true));
            if !sa.is_empty() && !sb.is_empty() {
                let _ = writeln!(
                    out,
                    "{w} {m} | {} | {} | per-layer",
                    summary(&sa),
                    summary(&sb)
                );
            }
        }
    }
    Ok((out, any_worse))
}
