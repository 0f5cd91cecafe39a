//! Live per-round tracing hooks for the engines.
//!
//! [`RoundTrace`](crate::metrics::RoundTrace) recording
//! ([`Network::enable_trace`](crate::network::Network::enable_trace))
//! accumulates a `Vec` the caller inspects *after* the run. A
//! [`TraceSink`] is the streaming complement: the engine calls
//! [`TraceSink::on_round`] at the end of every successful round and
//! [`TraceSink::on_run_end`] when the network is dropped, so an
//! observability layer can watch a run without buffering it.
//!
//! Two attachment paths exist:
//!
//! * explicitly, via `set_trace_sink` on every engine
//!   ([`Network`](crate::network::Network),
//!   [`AsyncNetwork`](crate::async_net::AsyncNetwork) and
//!   [`ReferenceNetwork`](crate::reference::ReferenceNetwork));
//! * ambiently, via [`install_trace_factory`]: a **thread-local** factory
//!   consulted by every network constructor on this thread. This is how a
//!   harness observes networks built *inside* library code it does not
//!   control (e.g. `ale-core`'s runners construct their own `Network` or
//!   `AsyncNetwork`).
//!   The factory is thread-local on purpose — parallel workers install
//!   factories tagged with their own trial ids without racing.
//!
//! When no sink is attached the engines pay one `Option` check per round;
//! construction pays one thread-local read. Sinks never observe failed
//! rounds (they are dropped wholesale, see the engine invariants).

use crate::metrics::{Metrics, RoundInfo};
use std::cell::RefCell;
use std::fmt;

/// Streaming observer of a network run. Implementations must be cheap:
/// `on_round` runs on the engine's hot path.
pub trait TraceSink: Send {
    /// Called at the end of every successfully committed round.
    fn on_round(&mut self, info: &RoundInfo);

    /// Called once, with the final metrics, when the network is dropped
    /// (or replaced via `set_trace_sink`).
    fn on_run_end(&mut self, metrics: &Metrics) {
        let _ = metrics;
    }
}

type Factory = Box<dyn Fn() -> Box<dyn TraceSink>>;

thread_local! {
    static FACTORY: RefCell<Option<Factory>> = const { RefCell::new(None) };
}

/// Installs a thread-local sink factory: every [`Network`],
/// [`AsyncNetwork`] or [`ReferenceNetwork`] constructed on this thread
/// attaches a fresh sink from `f` until [`clear_trace_factory`] is called.
///
/// [`Network`]: crate::network::Network
/// [`AsyncNetwork`]: crate::async_net::AsyncNetwork
/// [`ReferenceNetwork`]: crate::reference::ReferenceNetwork
pub fn install_trace_factory<F>(f: F)
where
    F: Fn() -> Box<dyn TraceSink> + 'static,
{
    FACTORY.with(|c| *c.borrow_mut() = Some(Box::new(f)));
}

/// Removes this thread's sink factory (no-op if none is installed).
pub fn clear_trace_factory() {
    FACTORY.with(|c| *c.borrow_mut() = None);
}

/// A sink from this thread's factory, if one is installed.
fn make_sink() -> Option<Box<dyn TraceSink>> {
    FACTORY.with(|c| c.borrow().as_ref().map(|f| f()))
}

/// The engines' sink slot: keeps the `#[derive(Debug)]` on the network
/// structs working (`dyn TraceSink` has no `Debug` bound) and funnels
/// end-of-run notification through one place.
pub(crate) struct TraceSlot(Option<Box<dyn TraceSink>>);

impl TraceSlot {
    /// A slot holding whatever this thread's factory produces (possibly
    /// nothing).
    pub(crate) fn attach() -> TraceSlot {
        TraceSlot(make_sink())
    }

    /// Replaces the sink, notifying the previous one (if any) that its
    /// run is over.
    pub(crate) fn replace(&mut self, sink: Box<dyn TraceSink>, metrics: &Metrics) {
        self.finish(metrics);
        self.0 = Some(sink);
    }

    /// Forwards one round observation.
    #[inline]
    pub(crate) fn on_round(&mut self, info: &RoundInfo) {
        if let Some(sink) = self.0.as_mut() {
            sink.on_round(info);
        }
    }

    /// Notifies and detaches the sink (idempotent).
    pub(crate) fn finish(&mut self, metrics: &Metrics) {
        if let Some(mut sink) = self.0.take() {
            sink.on_run_end(metrics);
        }
    }
}

impl fmt::Debug for TraceSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(_) => f.write_str("TraceSlot(attached)"),
            None => f.write_str("TraceSlot(none)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::process::{Inbox, NodeCtx, OutCtx, Process};
    use crate::testkit::{AnyNetwork, EngineKind};
    use ale_graph::generators;
    use std::sync::{Arc, Mutex};

    #[derive(Debug)]
    struct Pulse(u64);
    impl Process for Pulse {
        type Msg = u64;
        type Output = u64;
        fn round(
            &mut self,
            _ctx: &mut NodeCtx<'_>,
            inbox: Inbox<'_, u64>,
            out: &mut OutCtx<'_, u64>,
        ) {
            let _ = inbox;
            if self.0 > 0 {
                self.0 -= 1;
                out.broadcast(1);
            }
        }
        fn is_halted(&self) -> bool {
            self.0 == 0
        }
        fn output(&self) -> u64 {
            self.0
        }
    }

    #[derive(Debug, Default)]
    struct Log {
        rounds: Vec<RoundInfo>,
        end: Option<Metrics>,
        ends: usize,
    }

    struct Recorder(Arc<Mutex<Log>>);
    impl TraceSink for Recorder {
        fn on_round(&mut self, info: &RoundInfo) {
            self.0.lock().unwrap().rounds.push(*info);
        }
        fn on_run_end(&mut self, metrics: &Metrics) {
            let mut log = self.0.lock().unwrap();
            log.end = Some(*metrics);
            log.ends += 1;
        }
    }

    #[test]
    fn explicit_sink_sees_every_round_and_the_end() {
        let g = generators::cycle(5).unwrap();
        let log = Arc::new(Mutex::new(Log::default()));
        {
            let mut net = Network::from_fn(&g, 1, 64, |_, _| Pulse(3));
            net.set_trace_sink(Box::new(Recorder(Arc::clone(&log))));
            net.run_to_halt(100).unwrap();
            let metrics = *net.metrics();
            drop(net);
            let log = log.lock().unwrap();
            assert_eq!(log.rounds.len() as u64, metrics.rounds);
            let msgs: u64 = log.rounds.iter().map(|r| r.messages).sum();
            assert_eq!(msgs, metrics.messages);
            assert_eq!(log.rounds[0].active, 5);
            assert_eq!(log.rounds.last().unwrap().active, 0);
            assert_eq!(log.end, Some(metrics));
        }
    }

    #[test]
    fn factory_auto_attaches_on_every_engine() {
        let g = generators::cycle(4).unwrap();
        let mut logs = Vec::new();
        for kind in EngineKind::ALL {
            let log = Arc::new(Mutex::new(Log::default()));
            let handle = Arc::clone(&log);
            install_trace_factory(move || Box::new(Recorder(Arc::clone(&handle))));
            {
                let mut net = AnyNetwork::from_fn(kind, &g, 1, 64, |_, _| Pulse(2));
                net.run_to_halt(100).unwrap();
            }
            clear_trace_factory();
            assert_eq!(log.lock().unwrap().ends, 1, "{kind}: one run end");
            logs.push(log);
        }
        // Every engine ran the same protocol (2 sending rounds): identical
        // round streams except for the engine-specific buffer high-water
        // mark.
        let streams: Vec<Vec<_>> = logs
            .iter()
            .map(|log| {
                let log = log.lock().unwrap();
                log.rounds
                    .iter()
                    .map(|r| (r.round, r.messages, r.bits, r.active))
                    .collect()
            })
            .collect();
        assert_eq!(streams[0].len(), 2);
        for (kind, stream) in EngineKind::ALL.iter().zip(&streams) {
            assert_eq!(*stream, streams[0], "{kind} vs arena");
        }
        // Cleared: new networks attach nothing.
        for kind in EngineKind::ALL {
            let mut net = AnyNetwork::from_fn(kind, &g, 1, 64, |_, _| Pulse(1));
            net.run_to_halt(100).unwrap();
        }
        for log in &logs {
            let log = log.lock().unwrap();
            assert_eq!((log.rounds.len(), log.ends), (2, 1));
        }
    }

    #[test]
    fn failed_rounds_are_not_observed() {
        #[derive(Debug)]
        struct Bad;
        impl Process for Bad {
            type Msg = u64;
            type Output = ();
            fn round(
                &mut self,
                ctx: &mut NodeCtx<'_>,
                _inbox: Inbox<'_, u64>,
                out: &mut OutCtx<'_, u64>,
            ) {
                out.send(ctx.degree + 1, 0);
            }
            fn output(&self) {}
        }
        let g = generators::cycle(3).unwrap();
        for kind in EngineKind::ALL {
            let log = Arc::new(Mutex::new(Log::default()));
            let mut net = AnyNetwork::from_fn(kind, &g, 0, 64, |_, _| Bad);
            net.set_trace_sink(Box::new(Recorder(Arc::clone(&log))));
            assert!(net.step().is_err(), "{kind}");
            drop(net);
            let log = log.lock().unwrap();
            assert!(log.rounds.is_empty(), "{kind}: failed round traced");
            assert_eq!(log.ends, 1, "{kind}: one run end");
        }
    }
}
