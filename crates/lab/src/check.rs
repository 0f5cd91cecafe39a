//! Regression gating: compare a run's `summary.csv` against a stored
//! baseline and fail when mean costs regress beyond a tolerance.
//!
//! `ale-lab check <summary.csv> --baseline <baseline.csv>` is the CI gate:
//! it reads the per-(point, metric) streaming statistics both files carry,
//! compares the means of the cost metrics (`rounds`, `congest_rounds`,
//! `messages`, `bits` by default), and returns
//! [`LabError::Regression`] — a distinct non-zero exit — when any current
//! mean exceeds `baseline · (1 + tolerance)`. Points present in only one
//! file are skipped (filtered/sharded runs legitimately cover subsets),
//! but the report counts them so a silently shrunken run is visible.
//!
//! Either side may also be a **run directory**: directories are served
//! from the durable keyed store (`trials.db` summary rows via
//! [`crate::store::load_summary_rows`]) instead of re-parsing CSV, so a
//! directory must be a store. Incomplete (crashed) or torn stores are
//! refused with a `run --resume` hint.
//!
//! The same subcommand also gates memory benchmarks: when both inputs
//! are `BENCH_memory.json` files (the `ale-lab bench` memory suite),
//! the per-case `bytes_per_node` figures are compared under the tighter
//! [`DEFAULT_MEMORY_TOLERANCE`] instead of the summary-CSV path.

use crate::json::Value;
use crate::scenario::LabError;
use crate::table::Table;
use std::collections::BTreeMap;
use std::path::Path;

/// Default relative tolerance: a mean may grow by 25% before failing.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Default relative tolerance for memory-suite `bytes_per_node`: RSS per
/// node may grow by 10% before failing.
pub const DEFAULT_MEMORY_TOLERANCE: f64 = 0.10;

/// Absolute slack added on top of the relative band, so near-zero
/// baselines don't fail on floating-point noise.
const ABS_SLACK: f64 = 1e-9;

/// The cost metrics gated by default.
pub const DEFAULT_METRICS: [&str; 4] = ["rounds", "congest_rounds", "messages", "bits"];

/// Options for [`check_files`].
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Relative tolerance on mean growth.
    pub tolerance: f64,
    /// Relative tolerance on memory-suite `bytes_per_node` growth.
    pub memory_tolerance: f64,
    /// Metrics to gate (empty → [`DEFAULT_METRICS`]).
    pub metrics: Vec<String>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            tolerance: DEFAULT_TOLERANCE,
            memory_tolerance: DEFAULT_MEMORY_TOLERANCE,
            metrics: Vec::new(),
        }
    }
}

/// A gate's input: each compared key's label cells (`[point, metric]` of
/// a summary row, `[case id]` of a memory case) and its value.
type Values = BTreeMap<Vec<String>, f64>;

/// Splits one CSV line produced by [`Table::to_csv`] (double-quote
/// escaping, no embedded newlines).
fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' if cur.is_empty() => quoted = true,
            ',' if !quoted => fields.push(std::mem::take(&mut cur)),
            c => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// Parses a `summary.csv` into `[point, metric] → mean`.
fn parse_summary(text: &str, source: &str) -> Result<Values, LabError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| LabError::BadRecord(format!("{source}: empty summary")))?;
    let cols = split_csv_line(header);
    let col = |name: &str| -> Result<usize, LabError> {
        cols.iter().position(|c| c == name).ok_or_else(|| {
            LabError::BadRecord(format!("{source}: summary lacks a '{name}' column"))
        })
    };
    let (pi, mi, meani, counti) = (col("point")?, col("metric")?, col("mean")?, col("count")?);
    let mut rows = BTreeMap::new();
    for (lineno, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_csv_line(line);
        let need = pi.max(mi).max(meani).max(counti);
        if fields.len() <= need {
            return Err(LabError::BadRecord(format!(
                "{source}: line {}: expected at least {} columns, got {}",
                lineno + 2,
                need + 1,
                fields.len()
            )));
        }
        let mean: f64 = fields[meani].parse().map_err(|_| {
            LabError::BadRecord(format!(
                "{source}: line {}: non-numeric mean '{}'",
                lineno + 2,
                fields[meani]
            ))
        })?;
        rows.insert(vec![fields[pi].clone(), fields[mi].clone()], mean);
    }
    Ok(rows)
}

/// How one gate lays out its report.
struct Gate {
    /// The report's title line, without the leading `# `.
    title: String,
    /// Headers of the key cells, then of the baseline and current values.
    columns: &'static [&'static str],
    /// Decimal places of the printed values.
    precision: usize,
    /// What the footer calls the compared keys, in full and short.
    noun: (&'static str, &'static str),
    /// Relative tolerance on growth.
    tolerance: f64,
}

/// The one comparison behind both gates: every baseline key present in
/// `cur` is compared, and regresses when its current value exceeds the
/// baseline's by more than the tolerance (the band scales with |value|,
/// so negative baselines widen upward instead of tightening). Returns the
/// rendered report, or [`LabError::Regression`] carrying it when any key
/// regressed. Baseline keys absent from `cur` are counted, not failed
/// (filtered and sharded runs legitimately cover subsets).
fn compare(cur: &Values, base: &Values, gate: &Gate) -> Result<String, LabError> {
    let mut tbl = Table::new(gate.columns.iter().copied().chain(["ratio", "verdict"]));
    let mut compared = 0usize;
    let mut regressions = 0usize;
    let mut missing = 0usize;
    for (key, &b) in base {
        let Some(&c) = cur.get(key) else {
            missing += 1;
            continue;
        };
        compared += 1;
        let limit = b + b.abs() * gate.tolerance + ABS_SLACK;
        let regressed = c > limit;
        if regressed {
            regressions += 1;
        }
        let ratio = if b.abs() > 0.0 {
            c / b
        } else if c.abs() > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        let p = gate.precision;
        tbl.push_row(key.iter().cloned().chain([
            format!("{b:.p$}"),
            format!("{c:.p$}"),
            format!("{ratio:.3}"),
            if regressed { "REGRESSED" } else { "ok" }.to_string(),
        ]));
    }
    let (noun, short) = gate.noun;
    let report = format!(
        "# {}\n\n{}\n\
         {compared} {noun} compared, {regressions} regressed, \
         {missing} baseline {short} absent from the current run.\n",
        gate.title,
        tbl.to_markdown()
    );
    if compared == 0 {
        return Err(LabError::BadRecord(format!(
            "no comparable {noun} between current and baseline"
        )));
    }
    if regressions > 0 {
        return Err(LabError::Regression(report));
    }
    Ok(report)
}

/// The cost gate over summary rows — summary CSV files and the
/// store-backed run-directory inputs of [`check_files`] alike: compares
/// the means of the gated metrics.
fn check_rows(cur: &Values, base: &Values, opts: &CheckOptions) -> Result<String, LabError> {
    let metrics: Vec<&str> = if opts.metrics.is_empty() {
        DEFAULT_METRICS.to_vec()
    } else {
        opts.metrics.iter().map(String::as_str).collect()
    };
    let gated: Values = base
        .iter()
        .filter(|(key, _)| metrics.contains(&key[1].as_str()))
        .map(|(key, &mean)| (key.clone(), mean))
        .collect();
    let gate = Gate {
        title: format!(
            "cost regression check (tolerance +{:.0}%)",
            opts.tolerance * 100.0
        ),
        columns: &["point", "metric", "baseline mean", "current mean"],
        precision: 2,
        noun: ("(point, metric) pairs", "pairs"),
        tolerance: opts.tolerance,
    };
    compare(cur, &gated, &gate)
}

/// Parses a memory-suite bench JSON into `[case id] → bytes_per_node`.
fn parse_memory(text: &str, source: &str) -> Result<Values, LabError> {
    let v = crate::json::parse(text).map_err(|e| LabError::BadRecord(format!("{source}: {e}")))?;
    if v.get("suite").and_then(Value::as_str) != Some("memory") {
        return Err(LabError::BadRecord(format!(
            "{source}: not a memory bench file (suite != \"memory\")"
        )));
    }
    let Some(Value::Arr(cases)) = v.get("cases") else {
        return Err(LabError::BadRecord(format!(
            "{source}: memory bench lacks a 'cases' array"
        )));
    };
    let mut rows = BTreeMap::new();
    for c in cases {
        let id = c
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| LabError::BadRecord(format!("{source}: memory case without an 'id'")))?;
        let bpn = c
            .get("bytes_per_node")
            .and_then(Value::as_f64)
            .ok_or_else(|| {
                LabError::BadRecord(format!(
                    "{source}: case '{id}' lacks a numeric 'bytes_per_node'"
                ))
            })?;
        rows.insert(vec![id.to_string()], bpn);
    }
    Ok(rows)
}

/// Compares two memory-suite bench JSON **texts** per case id; returns
/// the rendered report, or [`LabError::Regression`] carrying it when any
/// `bytes_per_node` grew beyond the memory tolerance.
///
/// # Errors
///
/// * [`LabError::BadRecord`] on malformed JSON or disjoint case sets.
/// * [`LabError::Regression`] when regressions were found.
pub fn check_memory_text(
    current: &str,
    baseline: &str,
    opts: &CheckOptions,
) -> Result<String, LabError> {
    let gate = Gate {
        title: format!(
            "memory regression check (bytes/node, tolerance +{:.0}%)",
            opts.memory_tolerance * 100.0
        ),
        columns: &["case", "baseline bytes/node", "current bytes/node"],
        precision: 1,
        noun: ("cases", "cases"),
        tolerance: opts.memory_tolerance,
    };
    compare(
        &parse_memory(current, "current")?,
        &parse_memory(baseline, "baseline")?,
        &gate,
    )
}

/// One side of a `check` comparison, loaded from disk.
enum CheckInput {
    /// A memory-suite bench JSON (raw text; parsed by the memory gate).
    Memory(String),
    /// Summary rows — from a parsed `summary.csv` or a run directory's
    /// durable store.
    Summary(Values),
}

/// Loads one `check` input. Run **directories** are served from the
/// durable store ([`crate::store::load_summary_rows`] over the `s/` rows
/// of `trials.db`); **files** route by content (a JSON object is a
/// memory bench, anything else a summary CSV).
fn load_input(path: &Path, side: &str) -> Result<CheckInput, LabError> {
    if path.is_dir() {
        let rows = crate::store::load_summary_rows(path)?;
        return Ok(CheckInput::Summary(
            rows.into_iter()
                .map(|r| (vec![r.point, r.metric], r.mean))
                .collect(),
        ));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| LabError::Io(format!("{}: {e}", path.display())))?;
    if text.trim_start().starts_with('{') {
        Ok(CheckInput::Memory(text))
    } else {
        Ok(CheckInput::Summary(parse_summary(&text, side)?))
    }
}

/// File-path front end of the summary-row comparison and of
/// [`check_memory_text`] (the `ale-lab check` subcommand). Either side
/// may be a summary CSV file, a memory-bench JSON file, or a **run
/// directory** — directories are served from the durable store, so
/// gating never re-parses CSV for stored runs. Incomplete (crashed)
/// stores are rejected with a hint to `run --resume` rather than
/// silently gating partial data.
///
/// # Errors
///
/// IO failures (including a directory without `manifest.json` or
/// `trials.db`) as [`LabError::Io`]; a JSON/CSV input mix or an
/// incomplete/truncated store as [`LabError::BadRecord`]; otherwise as
/// the routed checker.
pub fn check_files(
    current: &Path,
    baseline: &Path,
    opts: &CheckOptions,
) -> Result<String, LabError> {
    let cur = load_input(current, "current")?;
    let base = load_input(baseline, "baseline")?;
    match (cur, base) {
        (CheckInput::Memory(c), CheckInput::Memory(b)) => check_memory_text(&c, &b, opts),
        (CheckInput::Summary(c), CheckInput::Summary(b)) => check_rows(&c, &b, opts),
        _ => Err(LabError::BadRecord(
            "cannot compare a memory-bench JSON against a summary CSV".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "point,family,algorithm,n,metric,count,mean,ci95,median,min,max,spilled";

    /// Compares two summary CSV **texts**, as [`check_files`] does two
    /// summary CSV files.
    fn check_text(current: &str, baseline: &str, opts: &CheckOptions) -> Result<String, LabError> {
        let cur = parse_summary(current, "current")?;
        let base = parse_summary(baseline, "baseline")?;
        check_rows(&cur, &base, opts)
    }

    fn summary(rows: &[(&str, &str, f64)]) -> String {
        let mut s = String::from(HEADER);
        s.push('\n');
        for (point, metric, mean) in rows {
            s.push_str(&format!(
                "{point},fam,-,8,{metric},4,{mean},0,{mean},{mean},{mean},false\n"
            ));
        }
        s
    }

    #[test]
    fn identical_summaries_pass() {
        let text = summary(&[("a", "messages", 100.0), ("a", "rounds", 10.0)]);
        let report = check_text(&text, &text, &CheckOptions::default()).unwrap();
        assert!(report.contains("2 (point, metric) pairs compared, 0 regressed"));
    }

    #[test]
    fn within_tolerance_passes_beyond_fails() {
        let base = summary(&[("a", "messages", 100.0)]);
        let ok = summary(&[("a", "messages", 120.0)]);
        assert!(check_text(&ok, &base, &CheckOptions::default()).is_ok());
        let bad = summary(&[("a", "messages", 130.0)]);
        let err = check_text(&bad, &base, &CheckOptions::default()).unwrap_err();
        assert!(matches!(err, LabError::Regression(_)));
        assert!(err.to_string().contains("REGRESSED"));
        // A looser tolerance admits it.
        let loose = CheckOptions {
            tolerance: 0.5,
            ..CheckOptions::default()
        };
        assert!(check_text(&bad, &base, &loose).is_ok());
    }

    #[test]
    fn improvements_and_ungated_metrics_pass() {
        let base = summary(&[("a", "messages", 100.0), ("a", "ratio", 1.0)]);
        // messages improved; 'ratio' is not a gated metric and may grow.
        let cur = summary(&[("a", "messages", 50.0), ("a", "ratio", 99.0)]);
        let report = check_text(&cur, &base, &CheckOptions::default()).unwrap();
        assert!(report.contains("1 (point, metric) pairs compared"));
    }

    #[test]
    fn custom_metric_list_is_honored() {
        let base = summary(&[("a", "ratio", 1.0)]);
        let cur = summary(&[("a", "ratio", 2.0)]);
        let opts = CheckOptions {
            metrics: vec!["ratio".into()],
            ..CheckOptions::default()
        };
        assert!(matches!(
            check_text(&cur, &base, &opts),
            Err(LabError::Regression(_))
        ));
    }

    #[test]
    fn missing_points_are_counted_not_failed() {
        let base = summary(&[("a", "messages", 100.0), ("b", "messages", 100.0)]);
        let cur = summary(&[("a", "messages", 100.0)]);
        let report = check_text(&cur, &base, &CheckOptions::default()).unwrap();
        assert!(report.contains("1 baseline pairs absent"));
    }

    #[test]
    fn negative_baselines_compare_sanely() {
        let base = summary(&[("a", "slope", -5.0)]);
        let opts = CheckOptions {
            metrics: vec!["slope".into()],
            ..CheckOptions::default()
        };
        // Identical negative means must pass...
        assert!(check_text(&base, &base, &opts).is_ok());
        // ...growth within the |mean|-scaled band passes...
        let ok = summary(&[("a", "slope", -4.0)]);
        assert!(check_text(&ok, &base, &opts).is_ok());
        // ...and growth beyond it fails.
        let bad = summary(&[("a", "slope", -3.0)]);
        assert!(matches!(
            check_text(&bad, &base, &opts),
            Err(LabError::Regression(_))
        ));
    }

    #[test]
    fn zero_baseline_tolerates_zero_but_not_growth() {
        let base = summary(&[("a", "messages", 0.0)]);
        assert!(check_text(&base, &base, &CheckOptions::default()).is_ok());
        let cur = summary(&[("a", "messages", 5.0)]);
        assert!(matches!(
            check_text(&cur, &base, &CheckOptions::default()),
            Err(LabError::Regression(_))
        ));
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(check_text("", "", &CheckOptions::default()).is_err());
        let noheader = "a,b,c\n1,2,3\n";
        assert!(matches!(
            check_text(noheader, noheader, &CheckOptions::default()),
            Err(LabError::BadRecord(_))
        ));
        let base = summary(&[("a", "messages", 1.0)]);
        let bad_mean = format!("{HEADER}\na,fam,-,8,messages,4,not-a-number,0,0,0,0,false\n");
        assert!(matches!(
            check_text(&bad_mean, &base, &CheckOptions::default()),
            Err(LabError::BadRecord(_))
        ));
        // Disjoint summaries: nothing comparable.
        let other = summary(&[("z", "messages", 1.0)]);
        assert!(matches!(
            check_text(&other, &base, &CheckOptions::default()),
            Err(LabError::BadRecord(_))
        ));
    }

    fn memory_json(rows: &[(&str, f64)]) -> String {
        let cases = rows
            .iter()
            .map(|(id, bpn)| {
                format!(
                    r#"{{"id": "{id}", "n": 1000, "graph_kb": 1, "engine_kb": 1, "bytes_per_node": {bpn}}}"#
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(r#"{{"suite": "memory", "git": "abc", "quick": false, "cases": [{cases}]}}"#)
    }

    #[test]
    fn memory_gate_uses_the_tighter_tolerance() {
        let base = memory_json(&[("rss/implicit/torus:1000x1000", 1000.0)]);
        // +9% passes under the 10% memory tolerance...
        let ok = memory_json(&[("rss/implicit/torus:1000x1000", 1090.0)]);
        let report = check_memory_text(&ok, &base, &CheckOptions::default()).unwrap();
        assert!(report.contains("1 cases compared, 0 regressed"));
        // ...+12% fails, even though the CSV tolerance (25%) would admit it.
        let bad = memory_json(&[("rss/implicit/torus:1000x1000", 1120.0)]);
        let err = check_memory_text(&bad, &base, &CheckOptions::default()).unwrap_err();
        assert!(matches!(err, LabError::Regression(_)));
        assert!(err.to_string().contains("REGRESSED"));
        // Improvements and missing cases pass (missing is counted).
        let better = memory_json(&[("rss/implicit/torus:1000x1000", 500.0), ("rss/new", 1.0)]);
        assert!(check_memory_text(&better, &base, &CheckOptions::default()).is_ok());
        let other = memory_json(&[("rss/other", 1.0)]);
        assert!(matches!(
            check_memory_text(&other, &base, &CheckOptions::default()),
            Err(LabError::BadRecord(_))
        ));
        // Malformed inputs are rejected.
        assert!(check_memory_text("{}", &base, &CheckOptions::default()).is_err());
        assert!(check_memory_text(
            r#"{"suite": "simulator", "cases": []}"#,
            &base,
            &CheckOptions::default()
        )
        .is_err());
    }

    #[test]
    fn both_gates_read_a_zero_baseline_alike() {
        let summary = summary(&[("a", "messages", 0.0)]);
        let memory = memory_json(&[("rss/x", 0.0)]);
        let opts = CheckOptions::default();
        for report in [
            check_text(&summary, &summary, &opts).unwrap(),
            check_memory_text(&memory, &memory, &opts).unwrap(),
        ] {
            assert!(report.contains("| 1.000 | ok |"), "{report}");
        }
    }

    #[test]
    fn check_files_routes_json_to_the_memory_gate() {
        let dir = std::env::temp_dir().join(format!("ale-lab-memcheck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base_p = dir.join("base.json");
        let cur_p = dir.join("cur.json");
        std::fs::write(&base_p, memory_json(&[("rss/x", 100.0)])).unwrap();
        std::fs::write(&cur_p, memory_json(&[("rss/x", 150.0)])).unwrap();
        let err = check_files(&cur_p, &base_p, &CheckOptions::default()).unwrap_err();
        assert!(matches!(err, LabError::Regression(_)));
        assert!(check_files(&base_p, &base_p, &CheckOptions::default()).is_ok());
        // A JSON/CSV mix is a usage error, not a silent pass.
        let csv_p = dir.join("summary.csv");
        std::fs::write(&csv_p, summary(&[("a", "messages", 1.0)])).unwrap();
        assert!(matches!(
            check_files(&cur_p, &csv_p, &CheckOptions::default()),
            Err(LabError::BadRecord(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_directories_are_served_from_the_store() {
        use crate::scenario::{GridPoint, TrialRecord};
        use crate::store;
        use ale_graph::Topology;

        let dir = std::env::temp_dir().join(format!("ale-lab-checkdir-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let grid = vec![GridPoint::new("cell-a").on(Topology::Cycle { n: 8 })];
        let mut r = TrialRecord::new("demo", &grid[0], 11);
        r.messages = 40;
        r.ok = true;
        let records = vec![r];
        let mut summary = crate::agg::RunSummary::new("demo", &grid, 1, 1, 1);
        summary.record(0, &records[0]);
        let manifest = store::RunManifest::for_run(
            "demo",
            1,
            1,
            1,
            vec!["cell-a".into()],
            false,
            "0/1",
            vec!["topo=cycle(n=8)".into()],
        );
        let writer = store::RunWriter::create(&dir, &manifest).unwrap();
        let key = store::TrialKey {
            scenario: "demo".into(),
            space_hash: manifest.space_hash,
            position: 0,
            seed_index: 0,
        };
        writer.put(&key, &records[0]).unwrap();
        writer.finish(&records, &summary).unwrap();

        // The directory gates against itself, and against its own CSV
        // view — the store rows carry the same statistics the CSV does.
        assert!(check_files(&dir, &dir, &CheckOptions::default()).is_ok());
        assert!(check_files(&dir, &dir.join("summary.csv"), &CheckOptions::default()).is_ok());

        // A directory must be a store: its summary.csv alone is refused.
        let no_db =
            std::env::temp_dir().join(format!("ale-lab-checkdir-nodb-{}", std::process::id()));
        std::fs::create_dir_all(&no_db).unwrap();
        std::fs::copy(dir.join("summary.csv"), no_db.join("summary.csv")).unwrap();
        assert!(matches!(
            check_files(&no_db, &dir, &CheckOptions::default()),
            Err(LabError::Io(_))
        ));

        // An incomplete (crashed) store is refused, not silently gated.
        let mut crashed = manifest.clone();
        crashed.complete = false;
        std::fs::write(
            dir.join("manifest.json"),
            crate::json::ToJson::to_json(&crashed).render_pretty() + "\n",
        )
        .unwrap();
        let err =
            check_files(&dir, &dir.join("summary.csv"), &CheckOptions::default()).unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&no_db).ok();
    }

    #[test]
    fn quoted_points_roundtrip() {
        let base = format!("{HEADER}\n\"p,with,commas\",fam,-,8,messages,4,10,0,10,10,10,false\n");
        let cur =
            format!("{HEADER}\n\"p,with,commas\",fam,-,8,messages,4,100,0,100,100,100,false\n");
        assert!(matches!(
            check_text(&cur, &base, &CheckOptions::default()),
            Err(LabError::Regression(_))
        ));
    }
}
