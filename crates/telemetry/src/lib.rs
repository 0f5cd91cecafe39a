//! Zero-dependency structured telemetry for the leader-election workspace.
//!
//! The crate is a thin event layer: code under measurement emits
//! [`Event`]s — completed [`Span`]s, monotonic [`Counter`] samples, and
//! log-bucketed [`Histogram`] snapshots — into a single process-global
//! [`Sink`] installed with [`install`]. When no sink is installed the
//! entire layer collapses to one relaxed atomic load per call site
//! ([`enabled`]), so instrumented hot paths cost nothing measurable in
//! the default configuration.
//!
//! Serialization is deliberately *not* part of this crate: a [`Sink`]
//! receives structured [`Event`] values and decides how to encode them.
//! The lab crate provides a JSONL sink that shares its hand-rolled JSON
//! encoder with the rest of the CLI; tests use [`MemorySink`].
//!
//! # Span lifecycle
//!
//! Spans are emitted on *completion* (guard drop), carrying their
//! wall-clock duration. Nesting is tracked per thread: a span begun while
//! another is open records that span's id as its `parent`, so a
//! `sweep → point → trial` hierarchy can be reconstructed offline.
//!
//! ```
//! let (sink, events) = ale_telemetry::MemorySink::new();
//! ale_telemetry::install(Box::new(sink));
//! {
//!     let _sweep = ale_telemetry::Span::begin("sweep").attr("points", 4u64);
//!     let _trial = ale_telemetry::Span::begin("trial");
//! } // inner drops first, then outer
//! ale_telemetry::uninstall();
//! let events = events.lock().unwrap();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[0].name, "trial");
//! assert_eq!(events[1].name, "sweep");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// A typed attribute value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer attribute.
    U64(u64),
    /// Signed integer attribute.
    I64(i64),
    /// Floating-point attribute.
    F64(f64),
    /// String attribute.
    Str(String),
    /// Boolean attribute.
    Bool(bool),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// What kind of measurement an [`Event`] carries.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A completed span: a named region of wall-clock time.
    Span {
        /// Process-unique span id (allocation order).
        id: u64,
        /// Id of the span that was open on this thread when this span
        /// began, if any.
        parent: Option<u64>,
        /// Wall-clock duration of the span in microseconds.
        wall_us: u64,
    },
    /// A monotonic counter sample (current cumulative value).
    Counter {
        /// The counter's value at emission time.
        value: u64,
    },
    /// A histogram snapshot with power-of-two buckets.
    Hist {
        /// `(upper_bound, count)` pairs for every non-empty bucket; a
        /// value `v` lands in the first bucket with `v <= upper_bound`.
        buckets: Vec<(u64, u64)>,
    },
}

/// One telemetry event, as handed to the installed [`Sink`].
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name (span name, counter name, histogram name).
    pub name: String,
    /// Microseconds since the first telemetry call in this process.
    pub ts_us: u64,
    /// The measurement payload.
    pub kind: EventKind,
    /// Ordered key/value attributes.
    pub attrs: Vec<(String, AttrValue)>,
}

// ---------------------------------------------------------------------------
// Global sink
// ---------------------------------------------------------------------------

/// Receives emitted events. Implementations must not call back into this
/// crate's emission API (the global sink lock is held during `record`).
pub trait Sink: Send {
    /// Handles one event.
    fn record(&mut self, event: &Event);

    /// Flushes buffered output; called by [`uninstall`].
    fn flush(&mut self) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Option<Box<dyn Sink>>> = Mutex::new(None);
static START: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Whether a sink is currently installed. One relaxed atomic load — this
/// is the disabled-path cost of every instrumentation site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `sink` as the process-global event receiver and enables
/// emission. Replaces (and flushes) any previously installed sink.
pub fn install(sink: Box<dyn Sink>) {
    let mut guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(old) = guard.as_mut() {
        old.flush();
    }
    *guard = Some(sink);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disables emission, flushes, and returns the installed sink (if any).
pub fn uninstall() -> Option<Box<dyn Sink>> {
    ENABLED.store(false, Ordering::Relaxed);
    let mut guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let mut sink = guard.take();
    if let Some(s) = sink.as_mut() {
        s.flush();
    }
    sink
}

/// Microseconds since the first telemetry call in this process.
fn ts_us() -> u64 {
    START.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Hands `event` to the installed sink; a no-op when disabled.
pub fn emit(event: Event) {
    if !enabled() {
        return;
    }
    let mut guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(sink) = guard.as_mut() {
        sink.record(&event);
    }
}

/// Emits a counter-style event with an explicit value (for one-off
/// samples that don't warrant a static [`Counter`]).
pub fn emit_counter(name: impl Into<String>, value: u64, attrs: Vec<(String, AttrValue)>) {
    if !enabled() {
        return;
    }
    emit(Event {
        name: name.into(),
        ts_us: ts_us(),
        kind: EventKind::Counter { value },
        attrs,
    });
}

/// Emits a completed span whose duration was measured externally — for
/// events reconstructed after the fact (e.g. a harness replaying trial
/// timings in deterministic order after a parallel run). Allocates a
/// fresh id and parents the span under this thread's innermost open
/// [`Span`], if any.
pub fn emit_span(name: impl Into<String>, wall_us: u64, attrs: Vec<(String, AttrValue)>) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    emit(Event {
        name: name.into(),
        ts_us: ts_us(),
        kind: EventKind::Span {
            id,
            parent,
            wall_us,
        },
        attrs,
    });
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct SpanInner {
    name: String,
    id: u64,
    parent: Option<u64>,
    start: Instant,
    attrs: Vec<(String, AttrValue)>,
}

/// RAII guard for a named region of wall-clock time. Created with
/// [`Span::begin`]; the completed-span event is emitted when the guard
/// drops (or [`Span::end`] is called). When telemetry is disabled the
/// guard is inert and costs one atomic load.
pub struct Span(Option<SpanInner>);

impl Span {
    /// Opens a span. Inert (and free) when telemetry is disabled.
    pub fn begin(name: impl Into<String>) -> Span {
        if !enabled() {
            return Span(None);
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        Span(Some(SpanInner {
            name: name.into(),
            id,
            parent,
            start: Instant::now(),
            attrs: Vec::new(),
        }))
    }

    /// Attaches an attribute (builder style).
    #[must_use]
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<AttrValue>) -> Span {
        self.set_attr(key, value);
        self
    }

    /// Attaches an attribute in place.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<AttrValue>) {
        if let Some(inner) = self.0.as_mut() {
            inner.attrs.push((key.into(), value.into()));
        }
    }

    /// Ends the span now, emitting its event.
    pub fn end(self) {
        drop(self);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else {
            return;
        };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == inner.id) {
                s.remove(pos);
            }
        });
        emit(Event {
            name: inner.name,
            ts_us: ts_us(),
            kind: EventKind::Span {
                id: inner.id,
                parent: inner.parent,
                wall_us: inner.start.elapsed().as_micros() as u64,
            },
            attrs: inner.attrs,
        });
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(inner) => write!(f, "Span({} id={})", inner.name, inner.id),
            None => write!(f, "Span(inert)"),
        }
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A monotonic counter. Incrementing is always live (one atomic add) so
/// progress/ETA machinery can read it even with telemetry disabled;
/// [`Counter::sample`] emits the current value only when enabled.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A new counter at zero. `const` so counters can be statics.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The counter's name, as given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n`, returning the new cumulative value.
    pub fn add(&self, n: u64) -> u64 {
        self.value.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Current cumulative value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Emits a counter event with the current value.
    pub fn sample(&self) {
        emit_counter(self.name, self.value(), Vec::new());
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// A power-of-two-bucketed histogram of `u64` samples: bucket `k ≥ 1`
/// counts values in `[2^(k-1), 2^k)`, bucket 0 counts zeros. Cheap to
/// record (a shift and two relaxed atomic increments, so concurrent
/// recorders need no lock) and compact to serialize. Construction is
/// `const`, so histograms can live in statics and be registered for
/// [`snapshot`] export (the serve-path latency metrics are); counts are
/// `Relaxed`, so a snapshot may lag in-flight records by a few samples.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; 65],
    count: AtomicU64,
}

impl Histogram {
    /// A new, empty histogram.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; 65],
            count: AtomicU64::new(0),
        }
    }

    /// The histogram's name, as given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs, in increasing
    /// bound order. Bucket `k`'s upper bound is `2^k - 1` (inclusive).
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(k, c)| {
                let c = c.load(Ordering::Relaxed);
                if c == 0 {
                    return None;
                }
                let bound = if k >= 64 { u64::MAX } else { (1u64 << k) - 1 };
                Some((bound, c))
            })
            .collect()
    }

    /// Emits a histogram snapshot event (no-op when disabled or empty).
    pub fn sample(&self, attrs: Vec<(String, AttrValue)>) {
        if !enabled() || self.count() == 0 {
            return;
        }
        emit(Event {
            name: self.name.to_string(),
            ts_us: ts_us(),
            kind: EventKind::Hist {
                buckets: self.buckets(),
            },
            attrs,
        });
    }
}

// ---------------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------------

static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());
static HISTOGRAMS: Mutex<Vec<&'static Histogram>> = Mutex::new(Vec::new());

/// Registers a static counter for [`snapshot`] export. Registering the
/// same counter again is a no-op, so registration can sit on any
/// startup path without guards.
pub fn register_counter(counter: &'static Counter) {
    let mut reg = COUNTERS.lock().unwrap();
    if !reg.iter().any(|c| std::ptr::eq(*c, counter)) {
        reg.push(counter);
    }
}

/// Registers a static histogram for [`snapshot`] export. Idempotent,
/// like [`register_counter`].
pub fn register_histogram(hist: &'static Histogram) {
    let mut reg = HISTOGRAMS.lock().unwrap();
    if !reg.iter().any(|h| std::ptr::eq(*h, hist)) {
        reg.push(hist);
    }
}

/// One metric's current value, as captured by [`snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricSnapshot {
    /// A registered [`Counter`]'s cumulative value.
    Counter {
        /// The counter's name.
        name: &'static str,
        /// Cumulative value at snapshot time.
        value: u64,
    },
    /// A registered [`Histogram`]'s buckets.
    Histogram {
        /// The histogram's name.
        name: &'static str,
        /// Total samples at snapshot time.
        count: u64,
        /// Non-empty `(upper_bound, count)` buckets, increasing.
        buckets: Vec<(u64, u64)>,
    },
}

/// Captures every registered counter and histogram, in registration
/// order (counters first). This is the `/metrics` export path: always
/// live, independent of whether a [`Sink`] is installed.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let mut out = Vec::new();
    for c in COUNTERS.lock().unwrap().iter() {
        out.push(MetricSnapshot::Counter {
            name: c.name(),
            value: c.value(),
        });
    }
    for h in HISTOGRAMS.lock().unwrap().iter() {
        out.push(MetricSnapshot::Histogram {
            name: h.name(),
            count: h.count(),
            buckets: h.buckets(),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Test sink
// ---------------------------------------------------------------------------

/// A sink that appends every event to a shared vector — the crate's
/// reference sink for tests.
#[derive(Debug)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// Creates the sink and a handle to its (shared) event buffer.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> (MemorySink, Arc<Mutex<Vec<Event>>>) {
        let events = Arc::new(Mutex::new(Vec::new()));
        (
            MemorySink {
                events: Arc::clone(&events),
            },
            events,
        )
    }
}

impl Sink for MemorySink {
    fn record(&mut self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sink is process-global; tests that install one must not
    /// overlap. (cargo runs tests on parallel threads by default.)
    static SERIAL: Mutex<()> = Mutex::new(());

    fn with_memory_sink(f: impl FnOnce()) -> Vec<Event> {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (sink, events) = MemorySink::new();
        install(Box::new(sink));
        f();
        uninstall();
        let events = events.lock().unwrap();
        events.clone()
    }

    #[test]
    fn disabled_emits_nothing() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        let span = Span::begin("ghost");
        assert!(span.0.is_none());
        drop(span);
        emit_counter("ghost", 1, Vec::new());
        // Nothing to observe directly — the point is no panic and no sink.
    }

    #[test]
    fn span_nesting_records_parent() {
        let events = with_memory_sink(|| {
            let outer = Span::begin("outer");
            let outer_id = outer.0.as_ref().unwrap().id;
            {
                let inner = Span::begin("inner").attr("k", 3u64);
                assert!(inner.0.as_ref().unwrap().id > outer_id);
            }
            drop(outer);
        });
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "inner");
        let EventKind::Span { parent, .. } = events[0].kind else {
            panic!("expected span");
        };
        let EventKind::Span { id: outer_id, .. } = events[1].kind else {
            panic!("expected span");
        };
        assert_eq!(parent, Some(outer_id));
        assert_eq!(events[0].attrs, vec![("k".to_string(), AttrValue::U64(3))]);
        assert_eq!(events[1].name, "outer");
    }

    #[test]
    fn counter_accumulates_and_samples() {
        static TRIALS: Counter = Counter::new("trials");
        let before = TRIALS.value();
        let events = with_memory_sink(|| {
            TRIALS.add(2);
            TRIALS.add(3);
            TRIALS.sample();
        });
        assert_eq!(TRIALS.value(), before + 5);
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].kind,
            EventKind::Counter { value } if value == before + 5
        ));
    }

    #[test]
    fn counter_counts_even_when_disabled() {
        let c = Counter::new("offline");
        c.add(7);
        assert_eq!(c.value(), 7);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::new("h");
        for v in [0, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.name(), "h");
        // 0 → bucket 0 (bound 0); 1 → bucket 1 (bound 1);
        // 2,3 → bucket 2 (bound 3); 1024 → bucket 11 (bound 2047).
        assert_eq!(h.buckets(), vec![(0, 1), (1, 1), (3, 2), (2047, 1)]);
        h.record(u64::MAX);
        assert_eq!(h.buckets().last(), Some(&(u64::MAX, 1)));
    }

    #[test]
    fn histogram_sample_emits_snapshot() {
        let events = with_memory_sink(|| {
            let h = Histogram::new("wall");
            h.record(5);
            h.sample(vec![("phase".to_string(), AttrValue::Str("x".into()))]);
            Histogram::new("empty").sample(Vec::new());
        });
        assert_eq!(events.len(), 1, "empty histogram must not emit");
        assert_eq!(events[0].name, "wall");
        assert_eq!(
            events[0].kind,
            EventKind::Hist {
                buckets: vec![(7, 1)]
            }
        );
    }

    #[test]
    fn install_replaces_and_flushes() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (a, a_events) = MemorySink::new();
        let (b, b_events) = MemorySink::new();
        install(Box::new(a));
        emit_counter("one", 1, Vec::new());
        install(Box::new(b));
        emit_counter("two", 2, Vec::new());
        uninstall();
        assert_eq!(a_events.lock().unwrap().len(), 1);
        assert_eq!(b_events.lock().unwrap().len(), 1);
        assert!(!enabled());
    }

    #[test]
    fn registry_snapshots_in_registration_order_and_dedupes() {
        static REQS: Counter = Counter::new("reg_requests");
        static LAT: Histogram = Histogram::new("reg_latency");
        register_counter(&REQS);
        register_counter(&REQS);
        register_histogram(&LAT);
        register_histogram(&LAT);
        REQS.add(3);
        LAT.record(5);
        let snap = snapshot();
        let reqs: Vec<_> = snap
            .iter()
            .filter(
                |m| matches!(m, MetricSnapshot::Counter { name, .. } if *name == "reg_requests"),
            )
            .collect();
        assert_eq!(reqs.len(), 1, "duplicate registration must dedupe");
        assert_eq!(
            reqs[0],
            &MetricSnapshot::Counter {
                name: "reg_requests",
                value: 3
            }
        );
        let lats: Vec<_> = snap
            .iter()
            .filter(
                |m| matches!(m, MetricSnapshot::Histogram { name, .. } if *name == "reg_latency"),
            )
            .collect();
        assert_eq!(lats.len(), 1);
        assert_eq!(
            lats[0],
            &MetricSnapshot::Histogram {
                name: "reg_latency",
                count: 1,
                buckets: vec![(7, 1)]
            }
        );
    }
}
