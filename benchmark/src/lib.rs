//! End-to-end and per-layer benchmark of the `ale-lab` CLI.
//!
//! Untraced runs ([`e2e`]) drive the real `ale-lab` binary and measure
//! what a user sees. Traced runs ([`trace`]) run the same job in process
//! under the program's own telemetry spans, and time the layers those
//! spans do not isolate by calling them directly. See
//! `benchmark/README.md` for the workloads and metrics.

pub mod calib;
pub mod checks;
pub mod compare;
pub mod e2e;
pub mod http;
pub mod proc;
pub mod stats;
pub mod trace;
pub mod workloads;

use ale_lab::json::Value;

/// End-to-end metrics, in report order (`BENCHMARK.json` `end_to_end`).
pub const END_TO_END: &[&str] = &[
    "latency_p50_ms",
    "throughput_per_s",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics, in report order (`BENCHMARK.json` `per_layer`).
pub const PER_LAYER: &[&str] = &[
    "params.expand_ms",
    "bind.total_ms",
    "graph.build_ms",
    "bind.props_ms",
    "trial.count",
    "trial.total_s",
    "trial.p50_ms",
    "trial.tail_ms",
    "engine.rounds",
    "engine.messages",
    "engine.bits",
    "engine.ns_per_round",
    "engine.ns_per_msg",
    "async.delivered",
    "async.dropped",
    "async.duplicated",
    "mem.graph_kb",
    "mem.trial_hwm_mb",
    "mem.bytes_per_node",
    "agg.record_us_total",
    "store.put_us_p50",
    "store.put_us_tail",
    "store.put_ms_total",
    "store.finish_ms",
    "store.journal_bytes",
    "serve.summary.handle_us_p50",
    "serve.runs.handle_us_p50",
    "serve.trials_point.handle_us_p50",
    "serve.tail.handle_us_p50",
    "serve.manifest.handle_us_p50",
    "serve.trials_all.handle_us_p50",
    "serve.handle_us_tail",
    "serve.bytes_per_req",
    "serve.transport_us_p50",
    "db.open_read_us_p50",
    "db.scan_mb_per_s",
    "trace.overhead_pct",
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for totals and exact counts).
    pub samples: usize,
}

/// Everything one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempted and failed operations.
    pub tally: checks::Tally,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::obj([
                        ("value".to_string(), Value::Num(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Value::obj([
            ("correct".to_string(), Value::Bool(self.tally.failed == 0)),
            ("attempted".to_string(), Value::UInt(self.tally.attempted)),
            ("failed".to_string(), Value::UInt(self.tally.failed)),
            ("metrics".to_string(), Value::obj(metrics)),
        ])
    }
}
