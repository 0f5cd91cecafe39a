//! The `ale-lab report` subcommand: per-phase wall-clock breakdown of a
//! telemetry stream.
//!
//! Input is a `telemetry.jsonl` file written by `run --telemetry` (see
//! [`crate::telemetry`] for the event schema). Unparseable lines are
//! counted and skipped, never fatal — the stream is a best-effort
//! side-channel, and a merge may have unioned files from different
//! versions.
//!
//! The report has three parts:
//!
//! 1. **Spans** — per span name: count, total/mean/max wall-clock, and
//!    the share of the sweep's wall-clock (when a `sweep` span exists);
//! 2. **Per-point throughput** — from `point` spans: trials, messages,
//!    rounds, messages/s and rounds/s;
//! 3. **Histograms and counters** — the final snapshot of each, with
//!    log-2 bucket bars for the histograms. Per-run counters (those
//!    tagged with a `trial`) are summed over the runs instead.

use crate::json::Value;
use crate::scenario::LabError;
use crate::table::Table;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Wall-clock aggregate of one span name.
#[derive(Debug, Clone, Copy, Default)]
struct SpanAgg {
    count: u64,
    total_us: u64,
    max_us: u64,
}

/// One `point` span's throughput row.
#[derive(Debug, Clone)]
struct PointRow {
    label: String,
    trials: u64,
    messages: u64,
    rounds: u64,
    msgs_per_sec: Option<f64>,
    rounds_per_sec: Option<f64>,
}

fn pretty_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.1}s", us as f64 / 1e6)
    } else if us >= 10_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

fn pretty_rate(r: Option<f64>) -> String {
    match r {
        Some(r) if r >= 1e6 => format!("{:.2}M", r / 1e6),
        Some(r) if r >= 1e3 => format!("{:.1}k", r / 1e3),
        Some(r) => format!("{r:.1}"),
        None => "-".to_string(),
    }
}

/// Renders the per-phase breakdown of the telemetry stream at `path`.
///
/// # Errors
///
/// [`LabError::Io`] when the file cannot be read, [`LabError::BadRecord`]
/// when it contains no parseable telemetry event at all.
pub fn report_file(path: &Path) -> Result<String, LabError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| LabError::Io(format!("read {}: {e}", path.display())))?;

    let mut spans: BTreeMap<String, SpanAgg> = BTreeMap::new();
    let mut points: Vec<PointRow> = Vec::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut hists: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    let mut sweep_total_us: u64 = 0;
    let mut events = 0usize;
    let mut skipped = 0usize;

    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = crate::json::parse(line) else {
            skipped += 1;
            continue;
        };
        let (Some(ev), Some(name)) = (
            v.get("ev").and_then(Value::as_str),
            v.get("name").and_then(Value::as_str),
        ) else {
            skipped += 1;
            continue;
        };
        events += 1;
        let attrs = v.get("attrs");
        let attr_u64 = |key: &str| attrs.and_then(|a| a.get(key)).and_then(Value::as_u64);
        let attr_f64 = |key: &str| attrs.and_then(|a| a.get(key)).and_then(Value::as_f64);
        match ev {
            "span" => {
                let wall = v.get("wall_us").and_then(Value::as_u64).unwrap_or(0);
                let agg = spans.entry(name.to_string()).or_default();
                agg.count += 1;
                agg.total_us += wall;
                agg.max_us = agg.max_us.max(wall);
                if name == "sweep" {
                    sweep_total_us += wall;
                }
                if name == "point" {
                    points.push(PointRow {
                        label: attrs
                            .and_then(|a| a.get("point"))
                            .and_then(Value::as_str)
                            .unwrap_or("?")
                            .to_string(),
                        trials: attr_u64("trials").unwrap_or(0),
                        messages: attr_u64("messages").unwrap_or(0),
                        rounds: attr_u64("rounds").unwrap_or(0),
                        msgs_per_sec: attr_f64("msgs_per_sec"),
                        rounds_per_sec: attr_f64("rounds_per_sec"),
                    });
                }
            }
            "counter" => {
                // A counter tagged with a `trial` holds one network run's
                // total (`engine-rounds`), so those add up; an untagged
                // one is cumulative and its last sample wins.
                if let Some(value) = v.get("value").and_then(Value::as_u64) {
                    if attr_u64("trial").is_some() {
                        *counters.entry(name.to_string()).or_default() += value;
                    } else {
                        counters.insert(name.to_string(), value);
                    }
                }
            }
            "hist" => {
                if let Some(Value::Arr(buckets)) = v.get("buckets") {
                    let parsed: Vec<(u64, u64)> = buckets
                        .iter()
                        .filter_map(|b| match b {
                            Value::Arr(pair) if pair.len() == 2 => {
                                Some((pair[0].as_u64()?, pair[1].as_u64()?))
                            }
                            _ => None,
                        })
                        .collect();
                    hists.insert(name.to_string(), parsed);
                }
            }
            _ => skipped += 1,
        }
    }

    if events == 0 {
        return Err(LabError::BadRecord(format!(
            "{}: no parseable telemetry events ({skipped} lines skipped)",
            path.display()
        )));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "telemetry report: {} ({events} events{})",
        path.display(),
        if skipped > 0 {
            format!(", {skipped} unrecognized lines skipped")
        } else {
            String::new()
        }
    );
    let _ = writeln!(out);

    // 1. Span breakdown, heaviest first.
    let mut rows: Vec<(&String, &SpanAgg)> = spans.iter().collect();
    rows.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(b.0)));
    let mut table = Table::new(["span", "count", "total", "mean", "max", "% sweep"]);
    for (name, agg) in rows {
        let share = if sweep_total_us > 0 {
            format!(
                "{:.1}%",
                agg.total_us as f64 * 100.0 / sweep_total_us as f64
            )
        } else {
            "-".to_string()
        };
        table.push_row([
            name.clone(),
            agg.count.to_string(),
            pretty_us(agg.total_us),
            pretty_us(agg.total_us / agg.count.max(1)),
            pretty_us(agg.max_us),
            share,
        ]);
    }
    out.push_str("spans (wall-clock, heaviest first):\n");
    out.push_str(&table.to_markdown());

    // 2. Per-point throughput.
    if !points.is_empty() {
        let mut table = Table::new([
            "point", "trials", "messages", "rounds", "msgs/s", "rounds/s",
        ]);
        for p in &points {
            table.push_row([
                p.label.clone(),
                p.trials.to_string(),
                p.messages.to_string(),
                p.rounds.to_string(),
                pretty_rate(p.msgs_per_sec),
                pretty_rate(p.rounds_per_sec),
            ]);
        }
        let _ = writeln!(out);
        out.push_str("per-point throughput:\n");
        out.push_str(&table.to_markdown());
    }

    // 3. Counters and histograms (final snapshots).
    if !counters.is_empty() {
        let _ = writeln!(out);
        out.push_str("counters (final; per-run totals summed):\n");
        for (name, value) in &counters {
            let _ = writeln!(out, "  {name} = {value}");
        }
    }
    for (name, buckets) in &hists {
        let _ = writeln!(out);
        let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
        let _ = writeln!(out, "histogram {name} ({total} samples, ≤bound → count):");
        let peak = buckets.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
        for &(bound, count) in buckets {
            let bar = "#".repeat(((count * 40).div_ceil(peak)) as usize);
            let _ = writeln!(out, "  {bound:>12}  {count:>8}  {bar}");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ale-lab-report-{}-{name}", std::process::id()))
    }

    #[test]
    fn report_breaks_down_a_stream() {
        let path = tmp("basic.jsonl");
        let lines = [
            r#"{"ev":"span","name":"sweep","ts_us":90,"id":1,"parent":null,"wall_us":1000,"attrs":{"scenario":"x"}}"#,
            r#"{"ev":"span","name":"trial","ts_us":10,"id":2,"parent":1,"wall_us":400,"attrs":{"seed":1}}"#,
            r#"{"ev":"span","name":"trial","ts_us":20,"id":3,"parent":1,"wall_us":600,"attrs":{"seed":2}}"#,
            r#"{"ev":"span","name":"point","ts_us":30,"id":4,"parent":1,"wall_us":1000,"attrs":{"point":"p8","trials":2,"messages":100,"rounds":10,"msgs_per_sec":250000.0,"rounds_per_sec":25.0}}"#,
            r#"{"ev":"counter","name":"trials_completed","ts_us":40,"value":2,"attrs":{}}"#,
            r#"{"ev":"hist","name":"trial_wall_us","ts_us":50,"buckets":[[511,1],[1023,1]],"attrs":{}}"#,
            "not json at all",
        ];
        std::fs::write(&path, lines.join("\n")).unwrap();
        let report = report_file(&path).unwrap();
        assert!(report.contains("6 events"), "{report}");
        assert!(report.contains("1 unrecognized lines skipped"), "{report}");
        // Span table: trial total 1000µs = 100% of the sweep.
        assert!(
            report.contains("| trial | 2 | 1000µs | 500µs | 600µs | 100.0% |"),
            "{report}"
        );
        // Throughput table row.
        assert!(
            report.contains("| p8 | 2 | 100 | 10 | 250.0k | 25.0 |"),
            "{report}"
        );
        assert!(report.contains("trials_completed = 2"), "{report}");
        assert!(
            report.contains("histogram trial_wall_us (2 samples"),
            "{report}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn per_run_counters_sum_and_cumulative_counters_keep_the_last_sample() {
        let path = tmp("counters.jsonl");
        let lines = [
            r#"{"ev":"counter","name":"engine-rounds","ts_us":10,"value":601,"attrs":{"trial":0,"messages":5}}"#,
            r#"{"ev":"counter","name":"trials_completed","ts_us":11,"value":1,"attrs":{}}"#,
            r#"{"ev":"counter","name":"engine-rounds","ts_us":20,"value":399,"attrs":{"trial":1,"messages":7}}"#,
            r#"{"ev":"counter","name":"trials_completed","ts_us":21,"value":2,"attrs":{}}"#,
        ];
        std::fs::write(&path, lines.join("\n")).unwrap();
        let report = report_file(&path).unwrap();
        assert!(report.contains("engine-rounds = 1000"), "{report}");
        assert!(report.contains("trials_completed = 2"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_or_garbage_streams_are_bad_records() {
        let path = tmp("garbage.jsonl");
        std::fs::write(&path, "nope\n{\"half\":1}\n").unwrap();
        assert!(matches!(report_file(&path), Err(LabError::BadRecord(_))));
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            report_file(&tmp("does-not-exist.jsonl")),
            Err(LabError::Io(_))
        ));
    }
}
