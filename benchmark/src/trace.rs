//! Traced runs: the workload's job through `ale_lab::execute` with an
//! in-memory telemetry sink installed, so the program's own spans
//! (`expand`, `bind`, `trial`, `store-write`, …) split it by layer. The
//! layers those spans do not isolate are timed by calling them directly
//! and recorded as spans in the same sink: `Topology::build`,
//! `RunWriter::put`, `RunSummary::record`, the journal's read path and
//! the service's routes.

use crate::checks::{self, Tally};
use crate::e2e::{self, Env, Served};
use crate::http::{self, ROUTES};
use crate::proc;
use crate::stats::{median, tail};
use crate::workloads::{Grid, Kind, Sweep, Workload};
use crate::Outcome;
use ale_lab::engine::{execute, RunOutput, RunSpec};
use ale_lab::json::Value;
use ale_lab::serve::ServeApp;
use ale_lab::store::{load_manifest, RunWriter, TrialKey};
use ale_lab::RunSummary;
use ale_serve::{Body, Request};
use ale_telemetry::{AttrValue, Event, EventKind, Sink};
use std::fs;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// What the traced runs' sink received, plus the memory readings it
/// took during the first run.
#[derive(Debug, Default)]
struct Recorded {
    /// Events not yet taken, in emission order.
    events: Vec<Event>,
    /// Whether the memory of the run in progress is probed.
    probe_memory: bool,
    /// VmRSS when the `bind` span ended, bytes.
    rss_after_setup: u64,
    /// VmHWM when the first `trial` span arrived, bytes. VmHWM was reset
    /// when `bind` ended, so this is the peak over all trials.
    trial_hwm: Option<u64>,
}

/// The sink a traced run installs before calling `execute`. The run
/// leaves `RunSpec.telemetry` unset: that would install a file sink in
/// place of this one, and this one must see `bind` end to probe memory.
#[derive(Clone, Default)]
pub struct Recorder(Arc<Mutex<Recorded>>);

impl Recorder {
    fn lock(&self) -> MutexGuard<'_, Recorded> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Installs this recorder as the process's telemetry sink.
    pub fn install(&self) {
        ale_telemetry::install(Box::new(self.clone()));
    }

    /// Takes every event recorded so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.lock().events)
    }
}

impl Sink for Recorder {
    fn record(&mut self, event: &Event) {
        let mut r = self.lock();
        if r.probe_memory && matches!(event.kind, EventKind::Span { .. }) {
            match event.name.as_str() {
                // Emitted when bind ends, before the first trial starts.
                "bind" => {
                    proc::reset_hwm();
                    r.rss_after_setup = proc::self_rss_hwm().0;
                }
                // Emitted after every trial has run.
                "trial" if r.trial_hwm.is_none() => r.trial_hwm = Some(proc::self_rss_hwm().1),
                _ => {}
            }
        }
        r.events.push(event.clone());
    }
}

/// Runs `f` and records it as a span named `name` (its exact duration in
/// the `ns` attribute); returns the result and the duration in ns.
pub fn timed<T>(name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    ale_telemetry::emit_span(name, ns / 1000, vec![("ns".into(), AttrValue::U64(ns))]);
    (out, ns as f64)
}

/// The summed duration of every span named `name`, ns.
fn span_ns(events: &[Event], name: &str) -> f64 {
    span_durations(events, name).sum()
}

fn span_durations<'a>(events: &'a [Event], name: &'a str) -> impl Iterator<Item = f64> + 'a {
    events.iter().filter_map(move |e| match e.kind {
        EventKind::Span { wall_us, .. } if e.name == name => Some(wall_us as f64 * 1e3),
        _ => None,
    })
}

/// Renders events as JSON lines, each tagged with the trace id.
pub fn to_jsonl(trace: &str, events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        let mut pairs = vec![("trace".to_string(), Value::Str(trace.to_string()))];
        if let Value::Obj(rest) = ale_lab::telemetry::event_to_json(e) {
            pairs.extend(rest);
        }
        out.push_str(&Value::obj(pairs).render());
        out.push('\n');
    }
    out
}

/// The run `ale-lab run --workers 1 --out dir` makes of one job.
pub fn spec(sweep: &Sweep, master: u64, dir: &Path) -> RunSpec {
    RunSpec {
        master_seed: master,
        seeds: sweep.seeds,
        workers: 1,
        grid: sweep.grid_config(),
        out: Some(dir.to_path_buf()),
        ..RunSpec::default()
    }
}

/// Runs the job in process into `dir` (replacing it); returns the output
/// and the call's wall time, ns.
pub fn run_execute(sweep: &Sweep, master: u64, dir: &Path) -> Result<(RunOutput, f64), String> {
    let _ = fs::remove_dir_all(dir);
    let scenario = ale_lab::registry::find(sweep.scenario).ok_or("unregistered scenario")?;
    let start = Instant::now();
    let output =
        execute(scenario.as_ref(), &spec(sweep, master, dir)).map_err(|e| e.to_string())?;
    Ok((output, start.elapsed().as_nanos() as f64))
}

/// Writes `output`'s records through a fresh `RunWriter` under the
/// manifest of `reference` (the CLI's store of the same job): one `put`
/// per record, keyed as the engine keys it, then `finish`. Returns each
/// put's duration, ns.
pub fn journal_replay(
    reference: &Path,
    dir: &Path,
    output: &RunOutput,
) -> Result<Vec<f64>, String> {
    let _ = fs::remove_dir_all(dir);
    let manifest = load_manifest(&reference.join("manifest.json")).map_err(|e| e.to_string())?;
    let writer = RunWriter::create(dir, &manifest).map_err(|e| e.to_string())?;
    let mut records = output.records.iter();
    let mut puts = Vec::with_capacity(output.records.len());
    for (&position, &count) in manifest.positions.iter().zip(&manifest.counts) {
        for seed_index in 0..count {
            let record = records
                .next()
                .ok_or("fewer records than the manifest counts")?;
            let key = TrialKey {
                scenario: manifest.scenario.clone(),
                space_hash: manifest.space_hash,
                position,
                seed_index,
            };
            let (put, ns) = timed("store.put", || writer.put(&key, record));
            put.map_err(|e| e.to_string())?;
            puts.push(ns);
        }
    }
    writer
        .finish(&output.records, &output.summary)
        .map_err(|e| e.to_string())?;
    Ok(puts)
}

/// Streams `records` into a fresh `RunSummary` for `grid`; returns it and
/// the time the `record` calls took, ns.
pub fn aggregate(grid: &Grid, master: u64, records: &[ale_lab::TrialRecord]) -> (RunSummary, f64) {
    let name = grid.scenario.name();
    let mut summary = RunSummary::new(name, &grid.points, master, grid.seeds, 1);
    let points = grid
        .counts
        .iter()
        .enumerate()
        .flat_map(|(pi, &count)| std::iter::repeat_n(pi, count as usize));
    let ((), ns) = timed("agg.record", || {
        for (pi, r) in points.zip(records) {
            summary.record(pi, r);
        }
    });
    (summary, ns)
}

/// Calls `Topology::build` for every point with the graph seed its bind
/// uses. Returns the summed build time (ns) and the largest VmRSS growth
/// across one build, KiB.
pub fn direct_builds(sweep: &Sweep, grid: &Grid) -> Result<(f64, u64), String> {
    let (mut total, mut grew) = (0.0, 0);
    for point in &grid.points {
        let Some(topo) = point.topology else { continue };
        let before = proc::self_rss_hwm().0;
        let seed = point.view().graph_seed(sweep.graph_seed);
        let (graph, ns) = timed("graph.build", || topo.build(seed));
        total += ns;
        grew = grew.max(proc::self_rss_hwm().0.saturating_sub(before) / 1024);
        graph.map_err(|e| format!("{}: {e}", point.label))?;
    }
    Ok((total, grew))
}

/// What one traced run measured, ns.
#[derive(Debug, Default)]
struct Layers {
    execute: f64,
    expand: f64,
    bind: f64,
    finish: f64,
    trials: Vec<f64>,
    builds: f64,
    graph_kb: u64,
    puts: Vec<f64>,
    record: f64,
}

/// One traced run of the job: `execute` under the recorder, then the
/// direct calls, each store checked against the CLI's.
fn traced_run(
    rec: &Recorder,
    sweep: &Sweep,
    grid: &Grid,
    master: u64,
    env: &Env,
    tally: &mut Tally,
) -> Result<(Layers, RunOutput, Vec<Event>), String> {
    let reference = env.out.join("run");
    let traced = env.out.join("traced");
    let (output, execute_ns) = run_execute(sweep, master, &traced)?;
    let mut events = rec.take();
    tally.pass(output.records.len() as u64);
    checks::same_store(&reference, &traced, tally);

    let (builds, graph_kb) = direct_builds(sweep, grid)?;
    let journal = env.out.join("journal");
    let puts = journal_replay(&reference, &journal, &output)?;
    checks::same_store(&reference, &journal, tally);
    let (summary, record) = aggregate(grid, master, &output.records);
    let stored = fs::read_to_string(reference.join("summary.csv")).unwrap_or_default();
    tally.check(
        summary.summary_csv() == stored,
        "RunSummary::record over the stored records differs from summary.csv",
    );

    let layers = Layers {
        execute: execute_ns,
        expand: span_ns(&events, "expand"),
        bind: span_ns(&events, "bind"),
        finish: span_ns(&events, "store-write"),
        trials: span_durations(&events, "trial").collect(),
        builds,
        graph_kb,
        puts,
        record,
    };
    events.extend(rec.take());
    Ok((layers, output, events))
}

/// An in-process request for a target the route mix rendered.
pub fn request(target: &str) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Request {
        method: "GET".to_string(),
        path: http::percent_decode(path),
        query: query
            .split('&')
            .filter(|p| !p.is_empty())
            .map(|p| {
                let (k, v) = p.split_once('=').unwrap_or((p, ""));
                (http::percent_decode(k), http::percent_decode(v))
            })
            .collect(),
        headers: Vec::new(),
    }
}

/// What the read path measured.
#[derive(Debug, Default)]
pub struct ReadLayers {
    /// `AofDb::open_read` times, µs.
    pub open_read_us: Vec<f64>,
    /// `scan_entries` throughput per call, MB/s.
    pub scan_mb_per_s: Vec<f64>,
    /// `ServeApp::handle` times per route (parallel to [`ROUTES`]), µs,
    /// including writing a streamed body to a sink.
    pub handle_us: [Vec<f64>; 6],
    /// Response payload bytes.
    pub bytes: u64,
}

/// Opens and scans the journal, then runs the route mix through
/// `ServeApp::handle` in process for `budget`.
pub fn read_path(
    served: &Served,
    stream: u64,
    budget: Duration,
    tally: &mut Tally,
) -> Result<ReadLayers, String> {
    let mut l = ReadLayers::default();
    let journal = served.dir.join("trials.db");
    for _ in 0..20 {
        let (db, ns) = timed("db.open_read", || ale_lab::db::AofDb::open_read(&journal));
        db.map_err(|e| e.to_string())?;
        l.open_read_us.push(ns / 1e3);
    }
    let data = fs::read(&journal).map_err(|e| e.to_string())?;
    for _ in 0..5 {
        let (_, ns) = timed("db.scan", || {
            std::hint::black_box(ale_lab::db::scan_entries(std::hint::black_box(&data)))
        });
        l.scan_mb_per_s
            .push(data.len() as f64 / 1e6 / (ns.max(1.0) / 1e9));
    }
    let app = ServeApp::new(std::slice::from_ref(&served.dir)).map_err(|e| e.to_string())?;
    for (route, want) in [("summary", &served.summary), ("manifest", &served.manifest)] {
        let resp = app.handle(&request(&format!("/runs/{}/{route}", served.id)));
        tally.check(
            matches!(&resp.body, Body::Full(body) if body == want),
            &format!("ServeApp /{route} differs from the store"),
        );
    }
    let end = Instant::now() + budget;
    let targets = http::route_mix(stream, 4096, &served.mix_inputs());
    for (i, t) in targets.iter().cycle().enumerate() {
        if i >= 300 && Instant::now() >= end {
            break;
        }
        let req = request(&t.target);
        let ((status, bytes), ns) = timed(&format!("serve.{}", ROUTES[t.route].0), || {
            let resp = app.handle(&req);
            let bytes = match resp.body {
                Body::Full(b) => b.len() as u64,
                Body::Stream(write) => write(&mut std::io::sink()).unwrap_or(0),
            };
            (resp.status, bytes)
        });
        l.handle_us[t.route].push(ns / 1e3);
        l.bytes += bytes;
        tally.check(status == 200, &format!("{} answered {status}", t.target));
    }
    Ok(l)
}

/// A traced run of `w`: the CLI store as reference, then traced runs
/// (alternating with untraced ones) for most of the window, the read
/// path, and a short real-server load for the transport share. Returns
/// the outcome and every recorded event.
pub fn run(env: &Env, w: &Workload) -> (Outcome, Vec<Event>) {
    let mut out = Outcome::default();
    let mut events = Vec::new();
    let rec = Recorder::default();
    if let Err(e) = run_into(env, w, &mut out, &rec, &mut events) {
        out.tally.fail(1, &e);
    }
    ale_telemetry::uninstall();
    events.extend(rec.take());
    (out, events)
}

fn run_into(
    env: &Env,
    w: &Workload,
    out: &mut Outcome,
    rec: &Recorder,
    events: &mut Vec<Event>,
) -> Result<(), String> {
    let sweep = match &w.kind {
        Kind::Sweep(s) => s,
        Kind::Serve { prep } => prep,
    };
    let grid = sweep.expand()?;
    let master = sweep.master(env.seed, 0);
    let reference = env.out.join("run");
    e2e::run_sweep(env.bin, sweep, master, &reference)?;
    out.tally.pass(grid.trials());
    let digest = (env.seed == 1).then_some(sweep.digest_seed1);
    checks::sweep_store(&reference, &grid, digest, &mut out.tally);

    // The first traced run goes first, on the process's fresh heap, and
    // alone probes memory; after that the order alternates.
    let traced_end = Instant::now() + env.window.mul_f64(0.6);
    let untraced_dir = env.out.join("untraced");
    let (mut runs, mut untraced) = (Vec::<Layers>::new(), Vec::new());
    let mut first: Option<RunOutput> = None;
    while runs.is_empty() || Instant::now() < traced_end {
        let traced_first = runs.len().is_multiple_of(2);
        let mut plain = |tally: &mut Tally| -> Result<(), String> {
            let (output, ns) = run_execute(sweep, master, &untraced_dir)?;
            tally.pass(output.records.len() as u64);
            checks::same_store(&reference, &untraced_dir, tally);
            untraced.push(ns);
            Ok(())
        };
        if !traced_first {
            plain(&mut out.tally)?;
        }
        rec.lock().probe_memory = runs.is_empty();
        rec.install();
        let traced = traced_run(rec, sweep, &grid, master, env, &mut out.tally);
        ale_telemetry::uninstall();
        let (layers, output, run_events) = traced?;
        events.extend(run_events);
        first.get_or_insert(output);
        runs.push(layers);
        if traced_first {
            plain(&mut out.tally)?;
        }
    }
    let first = first.ok_or("no traced run")?;
    push_sweep_metrics(out, w, &grid, &runs, &first, rec, &reference);

    rec.install();
    let served = Served::load(&reference)?;
    let read = read_path(
        &served,
        e2e::client_stream(env.seed, 0, 0),
        env.window.mul_f64(0.2),
        &mut out.tally,
    );
    ale_telemetry::uninstall();
    let read = read?;
    let streams = [
        e2e::client_stream(env.seed, 0, 0),
        e2e::client_stream(env.seed, 0, 1),
    ];
    let life = e2e::serve_lifetime(
        env.bin,
        &served,
        &streams,
        env.window.mul_f64(0.2),
        &mut out.tally,
    )?;
    out.tally.attempted += life.ok + life.failed;
    out.tally.failed += life.failed;
    push_read_metrics(out, &read, &life.latencies)?;

    let traced = median(&runs.iter().map(|l| l.execute).collect::<Vec<_>>());
    let plain = median(&untraced);
    out.push(
        "trace.overhead_pct",
        100.0 * (traced - plain) / plain,
        "%",
        runs.len(),
    );
    Ok(())
}

/// Pushes the sweep layers' metrics, `params.expand_ms` through
/// `store.journal_bytes`.
fn push_sweep_metrics(
    out: &mut Outcome,
    w: &Workload,
    grid: &Grid,
    runs: &[Layers],
    first: &RunOutput,
    rec: &Recorder,
    reference: &Path,
) {
    let n = runs.len();
    let each = |f: &dyn Fn(&Layers) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let pooled =
        |f: &dyn Fn(&Layers) -> &Vec<f64>| runs.iter().flat_map(f).copied().collect::<Vec<f64>>();
    let trial_total = each(&|l| l.trials.iter().sum());
    let trials = pooled(&|l| &l.trials);
    let puts = pooled(&|l| &l.puts);
    let bind_ms = each(&|l| l.bind) / 1e6;
    let build_ms = each(&|l| l.builds) / 1e6;
    let (trial_tail, trial_pct) = tail(&trials);
    let (put_tail, put_pct) = tail(&puts);
    eprintln!(
        "{} trial tail is p{trial_pct:.1} of {}, put tail p{put_pct:.1} of {}",
        w.name,
        trials.len(),
        puts.len()
    );
    let records = &first.records;
    let extra = |k: &str| -> f64 {
        records
            .iter()
            .flat_map(|r| &r.extra)
            .filter(|(name, _)| name == k)
            .map(|(_, v)| v)
            .sum()
    };
    let count = |f: fn(&ale_lab::TrialRecord) -> u64| records.iter().map(f).sum::<u64>();
    let (rounds, messages) = (count(|r| r.rounds), count(|r| r.messages));
    let (rss_after_setup, trial_hwm) = {
        let r = rec.lock();
        (r.rss_after_setup, r.trial_hwm.unwrap_or(0))
    };
    let max_n = grid.points.iter().map(|p| p.n).max().unwrap_or(1).max(1);

    // The expand span has 1 µs resolution and expansion takes tens of
    // µs, so its mean over the runs is reported rather than its median.
    let expand_mean = runs.iter().map(|l| l.expand).sum::<f64>() / n as f64;
    out.push("params.expand_ms", expand_mean / 1e6, "ms", n);
    out.push("bind.total_ms", bind_ms, "ms", n);
    out.push("graph.build_ms", build_ms, "ms", n);
    out.push("bind.props_ms", bind_ms - build_ms, "ms", n);
    out.push("trial.count", records.len() as f64, "count", 1);
    out.push("trial.total_s", trial_total / 1e9, "s", n);
    out.push("trial.p50_ms", median(&trials) / 1e6, "ms", trials.len());
    out.push("trial.tail_ms", trial_tail / 1e6, "ms", trials.len());
    out.push("engine.rounds", rounds as f64, "count", 1);
    out.push("engine.messages", messages as f64, "count", 1);
    out.push("engine.bits", count(|r| r.bits) as f64, "count", 1);
    out.push(
        "engine.ns_per_round",
        trial_total / rounds.max(1) as f64,
        "ns",
        n,
    );
    out.push(
        "engine.ns_per_msg",
        trial_total / messages.max(1) as f64,
        "ns",
        n,
    );
    out.push("async.delivered", extra("delivered"), "count", 1);
    out.push("async.dropped", extra("dropped"), "count", 1);
    out.push("async.duplicated", extra("duplicated"), "count", 1);
    out.push("mem.graph_kb", runs[0].graph_kb as f64, "KiB", 1);
    out.push(
        "mem.trial_hwm_mb",
        trial_hwm as f64 / (1 << 20) as f64,
        "MiB",
        1,
    );
    out.push(
        "mem.bytes_per_node",
        trial_hwm.saturating_sub(rss_after_setup) as f64 / max_n as f64,
        "B",
        1,
    );
    out.push("agg.record_us_total", each(&|l| l.record) / 1e3, "us", n);
    out.push("store.put_us_p50", median(&puts) / 1e3, "us", puts.len());
    out.push("store.put_us_tail", put_tail / 1e3, "us", puts.len());
    out.push(
        "store.put_ms_total",
        each(&|l| l.puts.iter().sum()) / 1e6,
        "ms",
        n,
    );
    out.push("store.finish_ms", each(&|l| l.finish) / 1e6, "ms", n);
    let journal = fs::metadata(reference.join("trials.db")).map_or(0, |m| m.len());
    out.push("store.journal_bytes", journal as f64, "B", 1);
}

/// Pushes the read path's and the service's metrics, `serve.*` and
/// `db.*`; `latencies` are the real server's client latencies, s.
fn push_read_metrics(
    out: &mut Outcome,
    read: &ReadLayers,
    latencies: &[f64],
) -> Result<(), String> {
    let mut weighted_handle_us = 0.0;
    let mut all_handles = Vec::new();
    for (i, samples) in read.handle_us.iter().enumerate() {
        if samples.is_empty() {
            return Err(format!("route {} was never requested", ROUTES[i].0));
        }
        weighted_handle_us += median(samples) * ROUTES[i].1 as f64 / 100.0;
        all_handles.extend_from_slice(samples);
    }
    for (i, name) in [
        "serve.summary.handle_us_p50",
        "serve.runs.handle_us_p50",
        "serve.trials_point.handle_us_p50",
        "serve.tail.handle_us_p50",
        "serve.manifest.handle_us_p50",
        "serve.trials_all.handle_us_p50",
    ]
    .into_iter()
    .enumerate()
    {
        let samples = &read.handle_us[i];
        out.push(name, median(samples), "us", samples.len());
    }
    let handles = all_handles.len();
    out.push("serve.handle_us_tail", tail(&all_handles).0, "us", handles);
    out.push(
        "serve.bytes_per_req",
        read.bytes as f64 / handles as f64,
        "B",
        handles,
    );
    let client_us = if latencies.is_empty() {
        0.0
    } else {
        median(latencies) * 1e6
    };
    out.push(
        "serve.transport_us_p50",
        client_us - weighted_handle_us,
        "us",
        latencies.len(),
    );
    out.push(
        "db.open_read_us_p50",
        median(&read.open_read_us),
        "us",
        read.open_read_us.len(),
    );
    out.push(
        "db.scan_mb_per_s",
        median(&read.scan_mb_per_s),
        "MB/s",
        read.scan_mb_per_s.len(),
    );
    Ok(())
}
