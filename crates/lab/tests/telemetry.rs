//! End-to-end telemetry contracts:
//!
//! 1. `run --telemetry` emits a parseable JSONL stream with the pinned
//!    event schema (sweep span, one trial span per record, round-batch
//!    spans from the CONGEST engine);
//! 2. per-trial event subsequences are deterministic at any worker count
//!    (after stripping wall-clock attributes);
//! 3. the store output is byte-identical with telemetry on and off —
//!    telemetry is a pure side-channel;
//! 4. a run builds each (topology, graph seed) once, in one
//!    `graph-build` span, and derives each of its facts at most once, at
//!    any worker count.
//!
//! Telemetry has process-global state (one installed sink), so every
//! test serializes on one mutex.

use ale_congest::{Inbox, Network, NodeCtx, OutCtx, Process};
use ale_graph::Topology;
use ale_lab::engine::{execute, RunSpec};
use ale_lab::json::{self, ToJson, Value};
use ale_lab::params::{Axis, Block, ParamSpace};
use ale_lab::registry;
use ale_lab::runners::GraphContexts;
use ale_lab::scenario::{GridConfig, GridPoint, LabError, Scenario, TrialFn, TrialRecord};
use std::path::PathBuf;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// A few rounds of all-ports gossip, then halt: enough to exercise the
/// engine's trace hook without slowing the suite down.
#[derive(Debug, Clone)]
struct Pulse {
    value: u64,
    rounds_left: u64,
}

impl Process for Pulse {
    type Msg = u64;
    type Output = u64;

    fn round(&mut self, _ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, u64>, out: &mut OutCtx<'_, u64>) {
        for m in inbox {
            self.value = self.value.wrapping_add(m.msg);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            out.broadcast(self.value);
        }
    }

    fn is_halted(&self) -> bool {
        self.rounds_left == 0
    }

    fn output(&self) -> u64 {
        self.value
    }
}

/// Two cycle sizes, engine-backed trials.
struct Tiny;

impl Scenario for Tiny {
    fn name(&self) -> &'static str {
        "tiny-telemetry"
    }
    fn description(&self) -> &'static str {
        "telemetry test scenario"
    }
    fn default_seeds(&self, _quick: bool) -> u64 {
        3
    }
    fn space(&self) -> ParamSpace {
        ParamSpace::new(vec![Block::new(
            "grid",
            vec![Axis::ints("n", [8, 12])],
            |ctx| {
                let n = ctx.int("n")? as usize;
                Ok(Some(
                    GridPoint::new(format!("cycle{n}")).on(Topology::Cycle { n }),
                ))
            },
        )])
    }
    fn bind(&self, point: &GridPoint, _: &GraphContexts) -> Result<TrialFn, LabError> {
        let point = point.clone();
        let n = point.n;
        Ok(Box::new(move |seed| {
            let graph = Topology::Cycle { n }.build(1)?;
            let mut net = Network::from_fn(&graph, seed, 64, |_d, _r| Pulse {
                value: seed,
                rounds_left: 4,
            });
            net.run_to_halt(64)?;
            let mut r = TrialRecord::new("tiny-telemetry", &point, seed);
            r.rounds = net.metrics().rounds;
            r.congest_rounds = net.metrics().congest_rounds;
            r.messages = net.metrics().messages;
            r.bits = net.metrics().bits;
            r.ok = true;
            Ok(r)
        }))
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ale-lab-telemetry-{}-{name}", std::process::id()))
}

fn spec(workers: usize, telemetry: Option<PathBuf>, out: Option<PathBuf>) -> RunSpec {
    RunSpec {
        workers,
        telemetry,
        out,
        ..RunSpec::default()
    }
}

fn parse_lines(path: &PathBuf) -> Vec<Value> {
    let text = std::fs::read_to_string(path).expect("telemetry file");
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("unparseable line {l:?}: {e}")))
        .collect()
}

fn str_of<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Value::as_str)
}

#[test]
fn stream_matches_the_pinned_schema() {
    let _guard = SERIAL.lock().unwrap();
    let path = tmp("schema.jsonl");
    let out = execute(&Tiny, &spec(2, Some(path.clone()), None)).unwrap();
    let events = parse_lines(&path);
    assert!(!events.is_empty());
    for ev in &events {
        let kind = str_of(ev, "ev").expect("ev key");
        assert!(str_of(ev, "name").is_some(), "name key in {ev:?}");
        assert!(ev.get("ts_us").and_then(Value::as_u64).is_some());
        assert!(ev.get("attrs").is_some());
        match kind {
            "span" => {
                assert!(ev.get("id").and_then(Value::as_u64).is_some());
                assert!(ev.get("wall_us").and_then(Value::as_u64).is_some());
            }
            "counter" => assert!(ev.get("value").and_then(Value::as_u64).is_some()),
            "hist" => assert!(matches!(ev.get("buckets"), Some(Value::Arr(_)))),
            other => panic!("unknown ev kind {other}"),
        }
    }
    let sweeps: Vec<&Value> = events
        .iter()
        .filter(|e| str_of(e, "name") == Some("sweep"))
        .collect();
    assert_eq!(sweeps.len(), 1);
    assert_eq!(
        sweeps[0]
            .get("attrs")
            .and_then(|a| a.get("scenario"))
            .and_then(Value::as_str),
        Some("tiny-telemetry")
    );
    let trials = events
        .iter()
        .filter(|e| str_of(e, "name") == Some("trial"))
        .count();
    assert_eq!(trials, out.records.len(), "one trial span per record");
    assert!(
        events
            .iter()
            .any(|e| str_of(e, "name") == Some("round-batch")),
        "engine rounds produce round-batch spans"
    );
    assert!(
        events
            .iter()
            .any(|e| str_of(e, "name") == Some("trial_wall_us")),
        "wall-clock histogram snapshot present"
    );
    // Every record carries its timing side-fields in memory...
    assert!(out.records.iter().all(|r| r.wall_ms.is_some()));
    // ...but not in its JSON (store stays byte-identical).
    assert!(!out.records[0].to_json().render().contains("wall_ms"));
    std::fs::remove_file(&path).ok();
}

/// The deterministic shadow of an event: name plus attrs, with
/// wall-clock-derived attributes stripped.
fn shadow(ev: &Value) -> String {
    let name = str_of(ev, "name").unwrap_or("?");
    let mut attrs: Vec<String> = Vec::new();
    if let Some(Value::Obj(pairs)) = ev.get("attrs") {
        for (k, v) in pairs {
            if k == "msgs_per_sec" || k == "rounds_per_sec" {
                continue;
            }
            attrs.push(format!("{k}={}", v.render()));
        }
    }
    format!("{name}({})", attrs.join(","))
}

#[test]
fn per_trial_subsequences_are_worker_count_invariant() {
    let _guard = SERIAL.lock().unwrap();
    let mut baseline: Option<(Vec<Vec<String>>, Vec<String>)> = None;
    for workers in 1..=4usize {
        let path = tmp(&format!("det-{workers}.jsonl"));
        execute(&Tiny, &spec(workers, Some(path.clone()), None)).unwrap();
        let events = parse_lines(&path);
        // Engine events, grouped by the trial task index they carry.
        let mut per_trial: Vec<Vec<String>> = Vec::new();
        for ev in &events {
            let name = str_of(ev, "name").unwrap_or("?");
            if name != "round-batch" && name != "engine-rounds" {
                continue;
            }
            let trial = ev
                .get("attrs")
                .and_then(|a| a.get("trial"))
                .and_then(Value::as_u64)
                .expect("engine events carry the trial index") as usize;
            per_trial.resize_with(per_trial.len().max(trial + 1), Vec::new);
            per_trial[trial].push(shadow(ev));
        }
        // Post-merge trial spans arrive in task order regardless of
        // scheduling, so the flat sequence must match too.
        let trial_spans: Vec<String> = events
            .iter()
            .filter(|e| str_of(e, "name") == Some("trial"))
            .map(shadow)
            .collect();
        match &baseline {
            None => baseline = Some((per_trial, trial_spans)),
            Some((base_batches, base_trials)) => {
                assert_eq!(base_batches, &per_trial, "workers = {workers}");
                assert_eq!(base_trials, &trial_spans, "workers = {workers}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn telemetry_never_perturbs_the_store() {
    let _guard = SERIAL.lock().unwrap();
    let base = tmp("store");
    let plain = base.join("plain");
    let traced = base.join("traced");
    execute(&Tiny, &spec(2, None, Some(plain.clone()))).unwrap();
    execute(
        &Tiny,
        &spec(2, Some(base.join("t.jsonl")), Some(traced.clone())),
    )
    .unwrap();
    for file in ["trials.jsonl", "trials.csv", "summary.csv"] {
        let a = std::fs::read(plain.join(file)).unwrap();
        let b = std::fs::read(traced.join(file)).unwrap();
        assert_eq!(a, b, "{file} must be byte-identical");
    }
    // The traced run also copied its stream next to the store.
    assert!(traced.join("telemetry.jsonl").exists());
    assert!(!plain.join("telemetry.jsonl").exists());
    std::fs::remove_dir_all(&base).ok();
}

/// A run that the graph-memo test replays at 1 and 4 workers.
struct MemoCase {
    scenario: &'static str,
    grid: GridConfig,
    master_seed: u64,
    /// The `topology` of every distinct graph the run binds, sorted.
    graphs: &'static [&'static str],
}

fn memo_cases() -> Vec<MemoCase> {
    let params = |pairs: &[(&str, &str)]| -> Vec<(String, Vec<String>)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.split(',').map(str::to_string).collect()))
            .collect()
    };
    vec![
        // 3 quick topologies x 5 algorithms.
        MemoCase {
            scenario: "table1",
            grid: GridConfig {
                quick: true,
                ..GridConfig::default()
            },
            master_seed: 1,
            graphs: &["complete(n=32)", "cycle(n=16)", "hypercube(d=5)"],
        },
        // Two γ points on one graph past the exact cut oracle and without
        // a closed form: one spectral estimate.
        MemoCase {
            scenario: "diffusion",
            grid: GridConfig {
                topologies: vec![Topology::RandomRegular { n: 64, d: 4 }],
                params: params(&[("gamma", "0.1,0.3")]),
                ..GridConfig::default()
            },
            master_seed: 1,
            graphs: &["rregular(n=64,d=4)"],
        },
        // Four k rungs on each of the three ladder graphs.
        MemoCase {
            scenario: "thresholds",
            grid: GridConfig {
                quick: true,
                ns: vec![64],
                ..GridConfig::default()
            },
            master_seed: 1,
            graphs: &["cycle(n=64)", "rregular(n=64,d=4)", "torus(8x8)"],
        },
        // The fault-rate x latency grid: 28 points on two graphs, under a
        // master seed whose trials never climb the size ladder.
        MemoCase {
            scenario: "revocable",
            grid: GridConfig {
                quick: true,
                params: params(&[
                    ("thm3-n", "8"),
                    ("tiny", "complete:2"),
                    ("scaled-n", "8"),
                    ("fault-rate", "0,0.04,0.08,0.12,0.16,0.2"),
                    ("latency", "1,2,4,8"),
                ]),
                ..GridConfig::default()
            },
            master_seed: 3,
            graphs: &["complete(n=2)", "complete(n=8)"],
        },
        MemoCase {
            scenario: "phases",
            grid: GridConfig {
                quick: true,
                ..GridConfig::default()
            },
            master_seed: 1,
            graphs: &["complete(n=32)"],
        },
    ]
}

#[test]
fn a_run_builds_each_graph_once() {
    let _guard = SERIAL.lock().unwrap();
    for case in memo_cases() {
        let name = case.scenario;
        let mut records: Vec<Vec<TrialRecord>> = Vec::new();
        for workers in [1, 4] {
            let path = tmp(&format!("memo-{name}-{workers}.jsonl"));
            let scenario = registry::find(name).expect("registered");
            let spec = RunSpec {
                workers,
                master_seed: case.master_seed,
                seeds: Some(1),
                telemetry: Some(path.clone()),
                grid: case.grid.clone(),
                ..RunSpec::default()
            };
            let out = execute(scenario.as_ref(), &spec).unwrap();
            let events = parse_lines(&path);
            let spans = |span: &str| -> Vec<String> {
                let mut topologies: Vec<String> = events
                    .iter()
                    .filter(|e| str_of(e, "ev") == Some("span") && str_of(e, "name") == Some(span))
                    .map(|e| {
                        let attrs = e.get("attrs").expect("attrs");
                        str_of(attrs, "topology")
                            .expect("topology attr")
                            .to_string()
                    })
                    .collect();
                topologies.sort_unstable();
                topologies
            };
            let builds = spans("graph-build");
            assert_eq!(builds, case.graphs, "{name}, workers = {workers}");
            let props = spans("graph-props");
            assert!(
                props.len() <= builds.len() && props.iter().all(|t| builds.contains(t)),
                "{name}, workers = {workers}: graph-props {props:?}"
            );
            records.push(out.records);
            std::fs::remove_file(&path).ok();
        }
        assert_eq!(
            records[0], records[1],
            "{name}: records differ across worker counts"
        );
    }
}
