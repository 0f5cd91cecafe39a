//! Lab-side telemetry glue: the JSONL sink, the engine round-batch
//! adapter, and the guards the run engine uses to scope instrumentation.
//!
//! `ale-telemetry` itself is serialization-free; this module is where its
//! events become JSON lines, rendered with [`crate::json`] — the same
//! encoder `describe --json` and the result store use, so the workspace
//! has exactly one JSON writer.
//!
//! # Event schema (one JSON object per line)
//!
//! | `ev`      | extra keys                              |
//! |-----------|------------------------------------------|
//! | `span`    | `id`, `parent` (nullable), `wall_us`     |
//! | `counter` | `value`                                  |
//! | `hist`    | `buckets` (array of `[upper_bound, n]`)  |
//!
//! All events carry `name`, `ts_us` (microseconds since process start)
//! and an `attrs` object. The stream is a *side-channel*: wall-clock
//! values are machine-dependent, so telemetry files are excluded from the
//! store's byte-identical guarantees (`merge` unions them without
//! validation). Per-trial event subsequences are still deterministic —
//! see the `telemetry` integration tests.

use crate::json::Value;
use crate::scenario::LabError;
use ale_congest::{Metrics, RoundInfo, TraceSink};
use ale_telemetry::{AttrValue, Event, EventKind, Sink};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Renders one telemetry event as a (single-line) JSON value.
pub fn event_to_json(event: &Event) -> Value {
    let mut pairs: Vec<(String, Value)> = Vec::with_capacity(8);
    let ev = match event.kind {
        EventKind::Span { .. } => "span",
        EventKind::Counter { .. } => "counter",
        EventKind::Hist { .. } => "hist",
    };
    pairs.push(("ev".to_string(), Value::Str(ev.to_string())));
    pairs.push(("name".to_string(), Value::Str(event.name.clone())));
    pairs.push(("ts_us".to_string(), Value::UInt(event.ts_us)));
    match &event.kind {
        EventKind::Span {
            id,
            parent,
            wall_us,
        } => {
            pairs.push(("id".to_string(), Value::UInt(*id)));
            pairs.push((
                "parent".to_string(),
                parent.map_or(Value::Null, Value::UInt),
            ));
            pairs.push(("wall_us".to_string(), Value::UInt(*wall_us)));
        }
        EventKind::Counter { value } => {
            pairs.push(("value".to_string(), Value::UInt(*value)));
        }
        EventKind::Hist { buckets } => {
            pairs.push((
                "buckets".to_string(),
                Value::Arr(
                    buckets
                        .iter()
                        .map(|&(bound, count)| {
                            Value::Arr(vec![Value::UInt(bound), Value::UInt(count)])
                        })
                        .collect(),
                ),
            ));
        }
    }
    pairs.push((
        "attrs".to_string(),
        Value::obj(
            event
                .attrs
                .iter()
                .map(|(k, v)| (k.clone(), attr_to_json(v)))
                .collect::<Vec<_>>(),
        ),
    ));
    Value::obj(pairs)
}

fn attr_to_json(v: &AttrValue) -> Value {
    match v {
        AttrValue::U64(u) => Value::UInt(*u),
        AttrValue::I64(i) => Value::Int(*i),
        AttrValue::F64(f) => Value::Num(*f),
        AttrValue::Str(s) => Value::Str(s.clone()),
        AttrValue::Bool(b) => Value::Bool(*b),
    }
}

/// An [`ale_telemetry::Sink`] that writes one JSON line per event through
/// a buffered writer. Flushed on [`Sink::flush`] (which
/// [`ale_telemetry::uninstall`] calls) and on drop.
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<File>,
}

impl JsonlSink {
    /// Creates (truncates) the event file at `path`.
    ///
    /// # Errors
    ///
    /// [`LabError::Io`] when the file cannot be created.
    pub fn create(path: &Path) -> Result<JsonlSink, LabError> {
        let file = File::create(path)
            .map_err(|e| LabError::Io(format!("create {}: {e}", path.display())))?;
        Ok(JsonlSink {
            out: BufWriter::new(file),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, event: &Event) {
        // Telemetry is best-effort: a full disk must not fail the run.
        let _ = writeln!(self.out, "{}", event_to_json(event).render());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Scopes a run's telemetry: installs a [`JsonlSink`] on creation and
/// uninstalls (flushing) on drop, so the engine cannot leave the global
/// sink dangling on an error path.
#[derive(Debug)]
pub struct TelemetryGuard(());

impl TelemetryGuard {
    /// Starts streaming events to `path`.
    ///
    /// # Errors
    ///
    /// [`LabError::Io`] when the file cannot be created.
    pub fn install(path: &Path) -> Result<TelemetryGuard, LabError> {
        let sink = JsonlSink::create(path)?;
        ale_telemetry::install(Box::new(sink));
        Ok(TelemetryGuard(()))
    }
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        ale_telemetry::uninstall();
    }
}

/// How many engine rounds one `round-batch` event covers.
const ROUND_BATCH: u64 = 256;

/// An [`ale_congest::TraceSink`] that coalesces per-round engine
/// observations into `round-batch` span events (every `ROUND_BATCH` = 256
/// rounds and at run end) plus one final `engine-rounds` counter with the
/// run's total metrics. Every event is tagged with the trial's task index
/// so per-trial subsequences stay comparable across worker counts.
#[derive(Debug)]
pub struct RoundBatchSink {
    trial: u64,
    first_round: u64,
    rounds: u64,
    messages: u64,
    bits: u64,
    max_bits: usize,
    active: usize,
    buffer_cap: usize,
    batch_start: Instant,
}

impl RoundBatchSink {
    /// A sink tagging its events with `trial` (the engine task index).
    pub fn new(trial: u64) -> RoundBatchSink {
        RoundBatchSink {
            trial,
            first_round: 0,
            rounds: 0,
            messages: 0,
            bits: 0,
            max_bits: 0,
            active: 0,
            buffer_cap: 0,
            batch_start: Instant::now(),
        }
    }

    fn flush_batch(&mut self) {
        if self.rounds == 0 {
            return;
        }
        let wall_us = self.batch_start.elapsed().as_micros() as u64;
        ale_telemetry::emit_span(
            "round-batch",
            wall_us,
            vec![
                ("trial".to_string(), AttrValue::U64(self.trial)),
                ("first_round".to_string(), AttrValue::U64(self.first_round)),
                ("rounds".to_string(), AttrValue::U64(self.rounds)),
                ("messages".to_string(), AttrValue::U64(self.messages)),
                ("bits".to_string(), AttrValue::U64(self.bits)),
                ("max_bits".to_string(), AttrValue::U64(self.max_bits as u64)),
                ("active".to_string(), AttrValue::U64(self.active as u64)),
                (
                    "buffer_cap".to_string(),
                    AttrValue::U64(self.buffer_cap as u64),
                ),
            ],
        );
        self.first_round += self.rounds;
        self.rounds = 0;
        self.messages = 0;
        self.bits = 0;
        self.max_bits = 0;
        self.batch_start = Instant::now();
    }
}

impl TraceSink for RoundBatchSink {
    fn on_round(&mut self, info: &RoundInfo) {
        if self.rounds == 0 {
            self.first_round = info.round;
        }
        self.rounds += 1;
        self.messages += info.messages;
        self.bits += info.bits;
        self.max_bits = self.max_bits.max(info.max_bits);
        self.active = info.active;
        self.buffer_cap = self.buffer_cap.max(info.buffer_cap);
        if self.rounds >= ROUND_BATCH {
            self.flush_batch();
        }
    }

    fn on_run_end(&mut self, metrics: &Metrics) {
        self.flush_batch();
        ale_telemetry::emit_counter(
            "engine-rounds",
            metrics.rounds,
            vec![
                ("trial".to_string(), AttrValue::U64(self.trial)),
                (
                    "congest_rounds".to_string(),
                    AttrValue::U64(metrics.congest_rounds),
                ),
                ("messages".to_string(), AttrValue::U64(metrics.messages)),
                ("bits".to_string(), AttrValue::U64(metrics.bits)),
            ],
        );
    }
}

/// Scopes the thread-local engine trace factory to one trial: every
/// network the trial constructs (even deep inside `ale-core`) gets a
/// [`RoundBatchSink`] tagged with the trial's task index. Cleared on
/// drop, including the error path.
#[derive(Debug)]
pub struct TrialTraceGuard(());

impl TrialTraceGuard {
    /// Installs the factory for `trial` on this thread.
    pub fn install(trial: u64) -> TrialTraceGuard {
        ale_congest::install_trace_factory(move || Box::new(RoundBatchSink::new(trial)));
        TrialTraceGuard(())
    }
}

impl Drop for TrialTraceGuard {
    fn drop(&mut self) {
        ale_congest::clear_trace_factory();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_shapes() {
        let span = Event {
            name: "trial".to_string(),
            ts_us: 12,
            kind: EventKind::Span {
                id: 3,
                parent: None,
                wall_us: 450,
            },
            attrs: vec![
                ("seed".to_string(), AttrValue::U64(9)),
                ("ok".to_string(), AttrValue::Bool(true)),
            ],
        };
        assert_eq!(
            event_to_json(&span).render(),
            r#"{"ev":"span","name":"trial","ts_us":12,"id":3,"parent":null,"wall_us":450,"attrs":{"seed":9,"ok":true}}"#
        );
        let hist = Event {
            name: "wall".to_string(),
            ts_us: 0,
            kind: EventKind::Hist {
                buckets: vec![(1, 2), (7, 1)],
            },
            attrs: Vec::new(),
        };
        assert_eq!(
            event_to_json(&hist).render(),
            r#"{"ev":"hist","name":"wall","ts_us":0,"buckets":[[1,2],[7,1]],"attrs":{}}"#
        );
        let counter = Event {
            name: "trials".to_string(),
            ts_us: 5,
            kind: EventKind::Counter { value: 17 },
            attrs: Vec::new(),
        };
        let rendered = event_to_json(&counter).render();
        let back = crate::json::parse(&rendered).unwrap();
        assert_eq!(back.get("value").and_then(Value::as_u64), Some(17));
        assert_eq!(back.get("ev").and_then(Value::as_str), Some("counter"));
    }
}
