//! Bounded-memory streaming aggregation of trial records.
//!
//! Every metric (core cost counters plus scenario extras) is folded into a
//! Welford accumulator (mean/CI95/min/max — O(1) memory) plus a capped
//! sample buffer for exact medians. Below the cap (default 4096 samples
//! per metric per grid point — far above any realistic seed fleet) medians
//! are exact; beyond it the buffer stops growing, the median degrades to
//! the retained prefix, and [`MetricAgg::spilled`] flags it.

use crate::scenario::{GridPoint, TrialRecord};
use crate::stats::Welford;
use crate::table::Table;
use std::collections::BTreeMap;

/// Default per-metric sample cap.
pub const DEFAULT_SAMPLE_CAP: usize = 4096;

/// Streaming aggregate of one metric at one grid point.
#[derive(Debug, Clone)]
pub struct MetricAgg {
    /// Streaming moments.
    pub welford: Welford,
    samples: Vec<f64>,
    cap: usize,
    /// True when the sample buffer hit its cap (median is approximate).
    pub spilled: bool,
}

impl MetricAgg {
    fn new(cap: usize) -> Self {
        MetricAgg {
            welford: Welford::new(),
            samples: Vec::new(),
            cap,
            spilled: false,
        }
    }

    fn push(&mut self, x: f64) {
        self.welford.push(x);
        if self.samples.len() < self.cap {
            self.samples.push(x);
        } else {
            self.spilled = true;
        }
    }

    /// Samples seen.
    pub fn count(&self) -> u64 {
        self.welford.count
    }

    /// Streaming mean.
    pub fn mean(&self) -> f64 {
        self.welford.mean
    }

    /// 95% CI half-width on the mean.
    pub fn ci95(&self) -> f64 {
        self.welford.ci95()
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.welford.max
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.welford.min
    }

    /// Median of the retained samples (exact unless [`MetricAgg::spilled`]).
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.samples)
    }
}

/// All aggregates for one grid point.
#[derive(Debug, Clone)]
pub struct PointStats {
    /// Grid-point label.
    pub label: String,
    /// Topology family.
    pub family: String,
    /// Algorithm display name.
    pub algorithm: String,
    /// Network size.
    pub n: u64,
    /// The point's knobs (copied from the grid).
    pub params: Vec<(String, f64)>,
    /// Trials recorded.
    pub trials: u64,
    /// Trials with `ok = true`.
    pub ok: u64,
    metrics: BTreeMap<String, MetricAgg>,
    sample_cap: usize,
}

impl PointStats {
    /// Aggregation shell reconstructed from a stored record's header —
    /// the merge path, where the original `GridPoint` (and its parameter
    /// knobs) no longer exists. `params` stays empty; everything the
    /// summary CSV emits is present.
    fn from_record_header(r: &TrialRecord, sample_cap: usize) -> Self {
        PointStats {
            label: r.point.clone(),
            family: r.family.clone(),
            algorithm: r.algorithm.clone(),
            n: r.n,
            params: Vec::new(),
            trials: 0,
            ok: 0,
            metrics: BTreeMap::new(),
            sample_cap,
        }
    }

    fn new(point: &GridPoint, sample_cap: usize) -> Self {
        PointStats {
            label: point.label.clone(),
            family: point.family(),
            algorithm: point
                .algorithm
                .map_or_else(|| "-".to_string(), |a| a.to_string()),
            n: point.n as u64,
            params: point.params.clone(),
            trials: 0,
            ok: 0,
            metrics: BTreeMap::new(),
            sample_cap,
        }
    }

    fn record(&mut self, r: &TrialRecord) {
        self.trials += 1;
        if r.ok {
            self.ok += 1;
        }
        let cap = self.sample_cap;
        let mut push = |name: &str, value: f64| {
            self.metrics
                .entry(name.to_string())
                .or_insert_with(|| MetricAgg::new(cap))
                .push(value);
        };
        push("rounds", r.rounds as f64);
        push("congest_rounds", r.congest_rounds as f64);
        push("messages", r.messages as f64);
        push("bits", r.bits as f64);
        push("leaders", r.leaders as f64);
        for (k, v) in &r.extra {
            if v.is_finite() {
                push(k, *v);
            }
        }
    }

    /// The aggregate for a metric, if any trial reported it.
    pub fn metric(&self, name: &str) -> Option<&MetricAgg> {
        self.metrics.get(name)
    }

    /// Median shorthand (0 when the metric never appeared).
    pub fn median(&self, name: &str) -> f64 {
        self.metric(name).map_or(0.0, MetricAgg::median)
    }

    /// Mean shorthand (0 when the metric never appeared).
    pub fn mean(&self, name: &str) -> f64 {
        self.metric(name).map_or(0.0, MetricAgg::mean)
    }

    /// A point knob (copied from the grid at aggregation time).
    pub fn param(&self, key: &str) -> Option<f64> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// The aggregated view of a whole run, point by point in grid order.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Scenario name.
    pub scenario: String,
    /// Master seed the trial seeds were derived from.
    pub master_seed: u64,
    /// Global seeds-per-point (points may override).
    pub seeds: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Per-point aggregates, in grid order.
    pub points: Vec<PointStats>,
}

impl RunSummary {
    /// Prepares empty aggregates for a grid.
    pub fn new(
        scenario: &str,
        grid: &[GridPoint],
        master_seed: u64,
        seeds: u64,
        workers: usize,
    ) -> Self {
        RunSummary {
            scenario: scenario.to_string(),
            master_seed,
            seeds,
            workers,
            points: grid
                .iter()
                .map(|p| PointStats::new(p, DEFAULT_SAMPLE_CAP))
                .collect(),
        }
    }

    /// Streams one record into its point's aggregates.
    ///
    /// # Panics
    ///
    /// Panics if `point_index` is out of range (an engine bug).
    pub fn record(&mut self, point_index: usize, r: &TrialRecord) {
        self.points[point_index].record(r);
    }

    /// Rebuilds a summary from stored records alone (points in first-seen
    /// order) — the `merge` path, where grids survive only as manifest
    /// labels. Point parameter knobs are not stored in records, so
    /// [`PointStats::param`] returns `None` on the result; every column of
    /// [`RunSummary::summary_csv`] is reconstructed exactly.
    pub fn from_records(
        scenario: &str,
        master_seed: u64,
        seeds: u64,
        workers: usize,
        records: &[TrialRecord],
    ) -> Self {
        let mut summary = RunSummary {
            scenario: scenario.to_string(),
            master_seed,
            seeds,
            workers,
            points: Vec::new(),
        };
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        for r in records {
            let pi = *index.entry(r.point.clone()).or_insert_with(|| {
                summary
                    .points
                    .push(PointStats::from_record_header(r, DEFAULT_SAMPLE_CAP));
                summary.points.len() - 1
            });
            summary.record(pi, r);
        }
        summary
    }

    /// Total trials across all points.
    pub fn total_trials(&self) -> u64 {
        self.points.iter().map(|p| p.trials).sum()
    }

    /// The generic cost table every scenario gets for free.
    pub fn generic_report(&self) -> String {
        let mut table = Table::new([
            "point",
            "n",
            "trials",
            "ok",
            "med msgs",
            "mean msgs ±95%",
            "med bits",
            "med congest rounds",
            "max rounds",
        ]);
        for p in &self.points {
            table.push_row([
                p.label.clone(),
                p.n.to_string(),
                p.trials.to_string(),
                format!("{}/{}", p.ok, p.trials),
                format!("{:.0}", p.median("messages")),
                format!(
                    "{:.0} ±{:.0}",
                    p.mean("messages"),
                    p.metric("messages").map_or(0.0, MetricAgg::ci95)
                ),
                format!("{:.0}", p.median("bits")),
                format!("{:.0}", p.median("congest_rounds")),
                format!("{:.0}", p.metric("rounds").map_or(0.0, MetricAgg::max)),
            ]);
        }
        format!(
            "# {} — {} trials, master seed {}\n\n{}",
            self.scenario,
            self.total_trials(),
            self.master_seed,
            table.to_markdown()
        )
    }

    /// Summary CSV: one row per (point, metric) with the streaming stats.
    pub fn summary_csv(&self) -> String {
        let mut table = Table::new([
            "point",
            "family",
            "algorithm",
            "n",
            "metric",
            "count",
            "mean",
            "ci95",
            "median",
            "min",
            "max",
            "spilled",
        ]);
        for p in &self.points {
            for (name, agg) in &p.metrics {
                table.push_row([
                    p.label.clone(),
                    p.family.clone(),
                    p.algorithm.clone(),
                    p.n.to_string(),
                    name.clone(),
                    agg.count().to_string(),
                    format!("{}", agg.mean()),
                    format!("{}", agg.ci95()),
                    format!("{}", agg.median()),
                    format!("{}", agg.min()),
                    format!("{}", agg.max()),
                    agg.spilled.to_string(),
                ]);
            }
        }
        table.to_csv()
    }

    /// The summary as keyed rows for the durable store: one `(point
    /// label, metric, row object)` triple per [`RunSummary::summary_csv`]
    /// line, in the same order, carrying the same fields.
    pub fn summary_rows(&self) -> Vec<(String, String, crate::json::Value)> {
        use crate::json::Value;
        let mut rows = Vec::new();
        for p in &self.points {
            for (name, agg) in &p.metrics {
                let row = Value::obj([
                    ("point".to_string(), Value::Str(p.label.clone())),
                    ("family".to_string(), Value::Str(p.family.clone())),
                    ("algorithm".to_string(), Value::Str(p.algorithm.clone())),
                    ("n".to_string(), Value::UInt(p.n)),
                    ("metric".to_string(), Value::Str(name.clone())),
                    ("count".to_string(), Value::UInt(agg.count())),
                    ("mean".to_string(), Value::Num(agg.mean())),
                    ("ci95".to_string(), Value::Num(agg.ci95())),
                    ("median".to_string(), Value::Num(agg.median())),
                    ("min".to_string(), Value::Num(agg.min())),
                    ("max".to_string(), Value::Num(agg.max())),
                    ("spilled".to_string(), Value::Bool(agg.spilled)),
                ]);
                rows.push((p.label.clone(), name.clone(), row));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GridPoint;
    use ale_graph::Topology;

    fn record_with(point: &GridPoint, seed: u64, messages: u64, ok: bool) -> TrialRecord {
        let mut r = TrialRecord::new("t", point, seed);
        r.messages = messages;
        r.ok = ok;
        r.push_extra("territory", messages as f64 / 2.0);
        r
    }

    #[test]
    fn aggregates_stream_correctly() {
        let grid = vec![
            GridPoint::new("a").on(Topology::Cycle { n: 8 }),
            GridPoint::new("b").on(Topology::Complete { n: 4 }),
        ];
        let mut run = RunSummary::new("t", &grid, 1, 3, 2);
        for (i, msgs) in [10u64, 20, 30].iter().enumerate() {
            run.record(0, &record_with(&grid[0], i as u64, *msgs, true));
        }
        run.record(1, &record_with(&grid[1], 0, 100, false));
        assert_eq!(run.total_trials(), 4);
        let a = &run.points[0];
        assert_eq!(a.trials, 3);
        assert_eq!(a.ok, 3);
        assert_eq!(a.median("messages"), 20.0);
        assert_eq!(a.mean("messages"), 20.0);
        assert_eq!(a.median("territory"), 10.0);
        assert_eq!(a.metric("messages").unwrap().max(), 30.0);
        assert_eq!(run.points[1].ok, 0);
        let report = run.generic_report();
        assert!(report.contains("| a |"));
        let csv = run.summary_csv();
        assert!(csv.contains("a,cycle,-,8,messages,3"));
    }

    #[test]
    fn sample_cap_spills_but_keeps_moments() {
        let mut agg = MetricAgg::new(4);
        for i in 0..100 {
            agg.push(i as f64);
        }
        assert!(agg.spilled);
        assert_eq!(agg.count(), 100);
        assert!((agg.mean() - 49.5).abs() < 1e-9);
        assert_eq!(agg.max(), 99.0);
        // Median falls back to the retained prefix.
        assert_eq!(agg.median(), 1.5);
    }
}
