//! The `ale-lab bench` subcommand: the repo's microbench ledger, the one
//! place engine and kernel costs are timed in isolation (end-to-end and
//! per-layer costs of real sweeps are the standalone `benchmark/`
//! package's job).
//!
//! Cases run in-process with plain [`Instant`] timing: warm up once,
//! estimate the per-iteration cost, then measure
//! `clamp(budget / cost, 3, 100)` iterations.
//!
//! Output is up to three JSON files in the chosen directory (default:
//! the current directory, i.e. the repo root in CI), one per [`Suite`]
//! (`--suite` picks a subset; all three by default):
//!
//! * `BENCH_memory.json` — resident-set growth (bytes/node) of the
//!   large-n revocable engine on ladder tori, sampled from
//!   `/proc/self/status` around graph and engine construction;
//! * `BENCH_simulator.json` — CONGEST round throughput: dense gossip on
//!   the lockstep arena, the reference oracle and the event-queue
//!   policy (the same sends on all three), the event queue again under
//!   uniform 1–4 latency and under geometric latency with drops and
//!   duplicates, the revocable protocol's own 40-byte message on arena
//!   vs event queue, one `table1` trial each of Gilbert et al.'s
//!   baseline and this work's protocol on a cycle, the mostly-halted
//!   beacon tail on arena vs reference, plus a few broadcasters per round
//!   on the complete graph (the push side of the arena's posting rule);
//! * `BENCH_diffusion.json` — `Avg` diffusion steps, dense matrix vs
//!   sparse CSR backend on tori, plus the sparse `λ₂` power iteration
//!   that prices bind on `diffusion --n` ladders and on a `table1` cycle
//!   (`lambda2/sparse/…`).
//!
//! Timing schema: `{"suite", "git", "quick", "cases": [{"id", "iters",
//! "wall_ms_per_iter"}]}`; engine cases add `"messages"` (metered sends
//! per iteration) and `"ns_per_msg"`, the unit that compares cases
//! sending different counts. The memory suite's cases carry `{"id",
//! "n", "graph_kb", "engine_kb", "bytes_per_node"}` instead. The `git`
//! stamp is the exact short sha of `HEAD`, `-dirty`-suffixed when the
//! work tree has uncommitted changes. Numbers are wall-clock/RSS on whatever
//! machine ran them — compare across commits on one box, not across
//! boxes.

use crate::json::Value;
use crate::runners::{Algorithm, GraphContext};
use crate::scenario::LabError;
use crate::scenarios::revocable::{ladder_params, LADDER_MAX_K};
use ale_congest::{
    congest_budget, AsyncNetwork, ExecConfig, FaultSpec, Inbox, LatencyDist, Network, NodeCtx,
    OutCtx, Process, ReferenceNetwork,
};
use ale_core::revocable::RevocableProcess;
use ale_graph::spectral_sparse::{self, POWER_ITERS, POWER_TOL};
use ale_graph::{transition, Topology};
use std::fmt::Write as _;
use std::path::Path;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// One ledger file `bench` writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// `BENCH_memory.json`.
    Memory,
    /// `BENCH_simulator.json`.
    Simulator,
    /// `BENCH_diffusion.json`.
    Diffusion,
}

impl Suite {
    /// Every suite, in run order.
    pub const ALL: [Suite; 3] = [Suite::Memory, Suite::Simulator, Suite::Diffusion];

    fn name(self) -> &'static str {
        match self {
            Suite::Memory => "memory",
            Suite::Simulator => "simulator",
            Suite::Diffusion => "diffusion",
        }
    }
}

impl FromStr for Suite {
    type Err = LabError;

    fn from_str(s: &str) -> Result<Self, LabError> {
        Suite::ALL
            .into_iter()
            .find(|suite| suite.name() == s)
            .ok_or_else(|| {
                LabError::BadArgs(format!(
                    "unknown bench suite '{s}' (memory, simulator or diffusion)"
                ))
            })
    }
}

/// One measured case.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Stable identifier (`group/engine/param`).
    pub id: String,
    /// Measured iterations (budget-derived, 3..=100).
    pub iters: u64,
    /// Mean wall-clock per iteration, in milliseconds.
    pub wall_ms_per_iter: f64,
    /// Messages one iteration sends (engine cases only).
    pub messages: Option<u64>,
}

impl Case {
    /// Times a kernel case: `f` is one iteration.
    fn kernel(id: String, budget: Duration, f: impl FnMut()) -> Self {
        let (iters, wall_ms_per_iter) = time_case(budget, f);
        Case {
            id,
            iters,
            wall_ms_per_iter,
            messages: None,
        }
    }

    /// Times an engine case: `f` is one iteration and returns the
    /// messages it sent, which every iteration repeats.
    fn engine(id: String, budget: Duration, mut f: impl FnMut() -> u64) -> Self {
        let mut messages = 0;
        let (iters, wall_ms_per_iter) = time_case(budget, || {
            messages = std::hint::black_box(f());
        });
        Case {
            id,
            iters,
            wall_ms_per_iter,
            messages: Some(messages),
        }
    }

    /// Wall-clock per sent message, for engine cases.
    fn ns_per_msg(&self) -> Option<f64> {
        self.messages
            .map(|m| self.wall_ms_per_iter * 1e6 / m.max(1) as f64)
    }
}

/// Warm up, estimate, then time `f` under `budget`.
fn time_case(budget: Duration, mut f: impl FnMut()) -> (u64, f64) {
    f(); // warm-up: touch caches, fault pages, fill allocator pools
    let once = {
        let t = Instant::now();
        f();
        t.elapsed().max(Duration::from_micros(1))
    };
    let iters = (budget.as_nanos() / once.as_nanos()).clamp(3, 100) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    (iters, start.elapsed().as_secs_f64() * 1e3 / iters as f64)
}

fn suite_json(suite: &str, quick: bool, cases: &[Case]) -> Value {
    Value::obj(vec![
        ("suite".to_string(), Value::Str(suite.to_string())),
        ("git".to_string(), Value::Str(crate::store::git_stamp())),
        ("quick".to_string(), Value::Bool(quick)),
        (
            "cases".to_string(),
            Value::Arr(
                cases
                    .iter()
                    .map(|c| {
                        let mut fields = vec![
                            ("id".to_string(), Value::Str(c.id.clone())),
                            ("iters".to_string(), Value::UInt(c.iters)),
                            (
                                "wall_ms_per_iter".to_string(),
                                Value::Num(c.wall_ms_per_iter),
                            ),
                        ];
                        if let (Some(m), Some(ns)) = (c.messages, c.ns_per_msg()) {
                            fields.push(("messages".to_string(), Value::UInt(m)));
                            fields.push(("ns_per_msg".to_string(), Value::Num(ns)));
                        }
                        Value::obj(fields)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// All-ports gossip: the simulator-overhead yardstick.
#[derive(Debug, Clone)]
struct Gossip(u64);

impl Process for Gossip {
    type Msg = u64;
    type Output = u64;

    fn round(&mut self, _ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, u64>, out: &mut OutCtx<'_, u64>) {
        for m in inbox {
            self.0 = self.0.wrapping_add(m.msg);
        }
        out.broadcast(self.0);
    }

    fn output(&self) -> u64 {
        self.0
    }
}

/// Only 1-in-`keep` nodes stay active after round 0: the long
/// mostly-halted tail of a large revocable run.
#[derive(Debug, Clone)]
struct Beacon {
    active: bool,
    value: u64,
    done: bool,
}

impl Process for Beacon {
    type Msg = u64;
    type Output = u64;

    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, u64>, out: &mut OutCtx<'_, u64>) {
        for m in inbox {
            self.value = self.value.wrapping_add(m.msg);
        }
        out.broadcast(self.value);
        if ctx.round == 0 && !self.active {
            self.done = true;
        }
    }

    fn is_halted(&self) -> bool {
        self.done
    }

    fn output(&self) -> u64 {
        self.value
    }
}

/// Every node stays active, but each round only about one in
/// [`BROADCAST_SPREAD`] broadcasts.
#[derive(Debug, Clone)]
struct Chatter(u64);

/// One node in this many broadcasts in a round of [`Chatter`].
const BROADCAST_SPREAD: u32 = 128;

impl Process for Chatter {
    type Msg = u64;
    type Output = u64;

    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, u64>, out: &mut OutCtx<'_, u64>) {
        use rand::Rng;
        for m in inbox {
            self.0 = self.0.wrapping_add(m.msg);
        }
        if ctx.rng.gen_range(0..BROADCAST_SPREAD) == 0 {
            out.broadcast(self.0);
        }
    }

    fn output(&self) -> u64 {
        self.0
    }
}

/// Token walks: a node holding tokens forwards each on a random port.
/// About one node in [`WALK_SPREAD`] starts with one, so the traffic is
/// sparse on any graph.
#[derive(Debug, Clone)]
struct Walks {
    tokens: u32,
}

/// One node in this many starts a token walk.
const WALK_SPREAD: u32 = 16;

impl Process for Walks {
    type Msg = u64;
    type Output = ();

    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, u64>, out: &mut OutCtx<'_, u64>) {
        use rand::Rng;
        self.tokens += inbox.len() as u32;
        for _ in 0..std::mem::take(&mut self.tokens) {
            out.send(ctx.rng.gen_range(0..ctx.degree), ctx.round);
        }
    }

    fn output(&self) {}
}

fn simulator_cases(quick: bool, budget: Duration) -> Result<Vec<Case>, LabError> {
    let mut cases = Vec::new();

    let n = if quick { 256 } else { 1024 };
    let graph = Topology::RandomRegular { n, d: 4 }.build(1)?;
    cases.push(Case::engine(
        format!("dense-gossip-100-rounds/arena/{n}"),
        budget,
        || {
            let mut net = Network::from_fn(&graph, 1, 64, |_d, _r| Gossip(1));
            net.run_for(100).expect("gossip run");
            net.metrics().messages
        },
    ));
    cases.push(Case::engine(
        format!("dense-gossip-100-rounds/reference/{n}"),
        budget,
        || {
            let mut net = ReferenceNetwork::from_fn(&graph, 1, 64, |_d, _r| Gossip(1));
            net.run_for(100).expect("gossip run");
            net.metrics().messages
        },
    ));
    // The same sends on the event queue. At unit latency without faults
    // it delivers exactly the arena's messages, so that pair's ratio is
    // the queue's per-message cost (one append to a ring slot and one
    // drain); the latency cases add the adversary's draws, and
    // geometric latency its loop of up to 64 of them per message.
    for (engine, config) in [
        ("events", ExecConfig::default()),
        (
            "events-uniform4",
            ExecConfig {
                latency: LatencyDist::Uniform { min: 1, max: 4 },
                ..ExecConfig::default()
            },
        ),
        (
            "events-geometric-faults",
            ExecConfig {
                latency: LatencyDist::Geometric { p: 0.5 },
                faults: FaultSpec {
                    drop: 0.05,
                    duplicate: 0.05,
                    ..FaultSpec::default()
                },
            },
        ),
    ] {
        cases.push(Case::engine(
            format!("dense-gossip-100-rounds/{engine}/{n}"),
            budget,
            || {
                let mut net = AsyncNetwork::from_fn_with(&graph, 1, 64, config, |_d, _r| Gossip(1))
                    .expect("valid config");
                net.run_for(100).expect("gossip run");
                net.metrics().messages
            },
        ));
    }

    // The revocable protocol itself on the memory suite's ladder
    // configuration: every node broadcasts a `RevMsg` every round, so
    // these cases price the real payload that the gossip cases' `u64`
    // leaves out. Unit latency and no faults: both engines send the same
    // 64 rounds of messages.
    let graph = Topology::Grid2d {
        rows: 64,
        cols: 64,
        torus: true,
    }
    .build(0)?;
    let params = ladder_params();
    let bits = congest_budget(graph.n());
    let node = |deg: usize, _rng: &mut rand::rngs::StdRng| {
        RevocableProcess::with_horizon(params, deg, Some(LADDER_MAX_K))
    };
    cases.push(Case::engine(
        "revocable-64-rounds/arena/torus:64x64".to_string(),
        budget,
        || {
            let mut net = Network::from_fn(&graph, 1, bits, node);
            net.run_for(64).expect("revocable run");
            net.metrics().messages
        },
    ));
    cases.push(Case::engine(
        "revocable-64-rounds/events/torus:64x64".to_string(),
        budget,
        || {
            let mut net = AsyncNetwork::from_fn(&graph, 1, bits, node);
            net.run_for(64).expect("revocable run");
            net.metrics().messages
        },
    ));

    // One `table1` trial of each walk-based protocol on the knowledge its
    // grid binds (graph seed 1; on cycle:64 the exact t_mix 582 and
    // Φ = 1/32): Gilbert et al.'s token walk and kill retrace, and this
    // work's cautious broadcast, walk and convergecast.
    let n = if quick { 32 } else { 64 };
    let ctx = GraphContext::build(Topology::Cycle { n }, 1)?;
    for alg in [Algorithm::Gilbert, Algorithm::ThisWork] {
        cases.push(Case::engine(
            format!("table1-trial/{alg}/cycle:{n}"),
            budget,
            || ctx.run(alg, 1).expect("table1 trial").metrics.messages,
        ));
    }

    // A few broadcasters per round among nodes that all stay active: the
    // push side of the arena's posting rule. Only the first round (which
    // counts as dense) posts; from then on each round's broadcasts are
    // pushed, and no receiver scans its ports for posts.
    let n = if quick { 256 } else { 1024 };
    let graph = Topology::Complete { n }.build(1)?;
    cases.push(Case::engine(
        format!("sparse-broadcast-100-rounds/arena/complete:{n}"),
        budget,
        || {
            let mut net = Network::from_fn(&graph, 1, 64, |_d, _r| Chatter(1));
            net.run_for(100).expect("chatter run");
            net.metrics().messages
        },
    ));

    let (n, keep, rounds) = if quick {
        (2_000usize, 100u64, 200u64)
    } else {
        (20_000, 200, 1000)
    };
    let graph = Topology::RandomRegular { n, d: 4 }.build(2)?;
    let make = |_d: usize, rng: &mut rand::rngs::StdRng| {
        use rand::Rng;
        Beacon {
            active: rng.gen_range(0..keep) == 0,
            value: 1,
            done: false,
        }
    };
    cases.push(Case::engine(
        format!("mostly-halted-{rounds}-rounds/arena/{n}"),
        budget,
        || {
            let mut net = Network::from_fn(&graph, 3, 64, make);
            net.run_for(rounds).expect("beacon run");
            net.metrics().messages
        },
    ));
    cases.push(Case::engine(
        format!("mostly-halted-{rounds}-rounds/reference/{n}"),
        budget,
        || {
            let mut net = ReferenceNetwork::from_fn(&graph, 3, 64, make);
            net.run_for(rounds).expect("beacon run");
            net.metrics().messages
        },
    ));
    Ok(cases)
}

/// One memory-suite measurement: RSS growth across graph construction
/// and across engine construction + a short protocol run, per node.
#[derive(Debug, Clone, PartialEq)]
pub struct MemCase {
    /// Stable identifier (`rss/<backend>/<graph>`).
    pub id: String,
    /// Nodes in the measured graph.
    pub n: u64,
    /// RSS growth across graph construction, in KiB.
    pub graph_kb: u64,
    /// RSS growth across engine construction plus the measured rounds,
    /// in KiB.
    pub engine_kb: u64,
    /// Total RSS growth per node: `(graph_kb + engine_kb)·1024 / n`.
    pub bytes_per_node: f64,
}

impl MemCase {
    fn new(id: String, n: usize, graph_kb: u64, engine_kb: u64) -> Self {
        MemCase {
            id,
            n: n as u64,
            graph_kb,
            engine_kb,
            bytes_per_node: (graph_kb + engine_kb) as f64 * 1024.0 / n as f64,
        }
    }
}

/// Current resident set size (`VmRSS`) in KiB from `/proc/self/status`,
/// or `None` where that interface does not exist (non-Linux).
fn vm_rss_kb() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Rounds the memory suite drives the revocable engine for: enough to
/// populate the staged/in-flight buffers to their dense steady state
/// (every node broadcasts every round), few enough that even the 10⁶
/// case stays in the seconds range.
const MEMORY_ROUNDS: u64 = 16;

/// The complete graph the memory suite walks tokens on: dense enough
/// that inbox storage sized by ports (2m = 1 047 552 slots) would be
/// four times the graph, while about 64 messages are in flight.
const SPARSE_COMPLETE_N: usize = 1024;

/// The sparse-traffic case: token walks ([`Walks`]) on the complete graph
/// for [`MEMORY_ROUNDS`] rounds. Its delivery memory follows the tokens,
/// so nearly all of its growth is the graph.
fn sparse_traffic_case() -> Result<MemCase, LabError> {
    let before = vm_rss_kb().unwrap_or(0);
    let graph = Topology::Complete {
        n: SPARSE_COMPLETE_N,
    }
    .build(0)?;
    let after_graph = vm_rss_kb().unwrap_or(0);
    let mut net = Network::from_fn(&graph, 1, congest_budget(graph.n()), |_deg, rng| {
        use rand::Rng;
        Walks {
            tokens: u32::from(rng.gen_range(0..WALK_SPREAD) == 0),
        }
    });
    net.run_for(MEMORY_ROUNDS).expect("memory-suite walk run");
    std::hint::black_box(net.metrics().messages);
    let after_run = vm_rss_kb().unwrap_or(0);
    Ok(MemCase::new(
        format!("rss/explicit/complete:{SPARSE_COMPLETE_N}"),
        graph.n(),
        after_graph.saturating_sub(before),
        after_run.saturating_sub(after_graph),
    ))
}

fn memory_cases(quick: bool) -> Result<Vec<MemCase>, LabError> {
    // The ladder tori, ascending so each case's allocations are fresh
    // growth past the previous high-water mark (per-case deltas would
    // otherwise be masked by allocator reuse). The sparse-traffic case
    // runs after the tori quick and full runs share and before the full
    // run's largest, so both measure it on the same heap.
    let mut cases = vec![torus_case(20_000)?, torus_case(200_000)?];
    cases.push(sparse_traffic_case()?);
    if !quick {
        cases.push(torus_case(1_000_000)?);
    }
    Ok(cases)
}

/// The revocable protocol for [`MEMORY_ROUNDS`] rounds on the ladder
/// torus with about `n` nodes.
fn torus_case(n: usize) -> Result<MemCase, LabError> {
    let side = (n as f64).sqrt().floor() as usize;
    let before = vm_rss_kb().unwrap_or(0);
    let graph = Topology::Grid2d {
        rows: side,
        cols: side,
        torus: true,
    }
    .build(0)?;
    let after_graph = vm_rss_kb().unwrap_or(0);
    let nodes = graph.n();
    let params = ladder_params();
    let mut net = Network::from_fn(&graph, 1, congest_budget(nodes), |deg, _rng| {
        RevocableProcess::with_horizon(params, deg, Some(LADDER_MAX_K))
    });
    net.run_for(MEMORY_ROUNDS)
        .expect("memory-suite revocable run");
    std::hint::black_box(net.metrics().messages);
    let after_run = vm_rss_kb().unwrap_or(0);
    let backend = if graph.is_implicit() {
        "implicit"
    } else {
        "explicit"
    };
    Ok(MemCase::new(
        format!("rss/{backend}/torus:{side}x{side}"),
        nodes,
        after_graph.saturating_sub(before),
        after_run.saturating_sub(after_graph),
    ))
}

fn memory_suite_json(quick: bool, cases: &[MemCase]) -> Value {
    Value::obj(vec![
        ("suite".to_string(), Value::Str("memory".to_string())),
        ("git".to_string(), Value::Str(crate::store::git_stamp())),
        ("quick".to_string(), Value::Bool(quick)),
        (
            "cases".to_string(),
            Value::Arr(
                cases
                    .iter()
                    .map(|c| {
                        Value::obj(vec![
                            ("id".to_string(), Value::Str(c.id.clone())),
                            ("n".to_string(), Value::UInt(c.n)),
                            ("graph_kb".to_string(), Value::UInt(c.graph_kb)),
                            ("engine_kb".to_string(), Value::UInt(c.engine_kb)),
                            ("bytes_per_node".to_string(), Value::Num(c.bytes_per_node)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

const ALPHA: f64 = 1.0 / 64.0;

fn diffusion_cases(quick: bool, budget: Duration) -> Result<Vec<Case>, LabError> {
    let torus = |side: usize| Topology::Grid2d {
        rows: side,
        cols: side,
        torus: true,
    };
    let potential =
        |n: usize| -> Vec<f64> { (0..n).map(|i| if i % 7 == 0 { 0.0 } else { 1.0 }).collect() };
    let mut cases = Vec::new();

    // The dense form of the same diffusion operator: the `O(n²)` step the
    // sparse cases are measured against.
    let dense_sides: &[usize] = if quick { &[8] } else { &[8, 32] };
    for &side in dense_sides {
        let graph = torus(side).build(1)?;
        let n = graph.n();
        let dense = transition::diffusion_csr(&graph, ALPHA)?.to_dense();
        let pot = potential(n);
        let mut out = vec![0.0; n];
        cases.push(Case::kernel(
            format!("step/dense/torus:{side}x{side}"),
            budget,
            || dense.vec_mul_into(&pot, &mut out).expect("dense step"),
        ));
    }

    let sparse_sides: &[usize] = if quick { &[8, 32] } else { &[8, 32, 100, 200] };
    for &side in sparse_sides {
        let graph = torus(side).build(1)?;
        let n = graph.n();
        let chain = transition::diffusion_chain(&graph, ALPHA)?;
        let pot = potential(n);
        let mut out = vec![0.0; n];
        cases.push(Case::kernel(
            format!("step/sparse/torus:{side}x{side}"),
            budget,
            || chain.step_into(&pot, &mut out).expect("sparse step"),
        ));
    }

    // One whole `λ₂` iteration under the harness budget, on the 4-regular
    // graph `diffusion --n` binds (graph seed 0, width-5 rows) and on the
    // cycle `table1` binds at graph seed 1 (width-3 rows, and the smallest
    // gap, so the most steps per node).
    let (n, ring) = if quick { (1000, 500) } else { (5000, 2000) };
    for (id, topology, graph_seed) in [
        (
            format!("rregular:{n}"),
            Topology::RandomRegular { n, d: 4 },
            0,
        ),
        (format!("cycle:{ring}"), Topology::Cycle { n: ring }, 1),
    ] {
        let graph = topology.build(graph_seed)?;
        cases.push(Case::kernel(format!("lambda2/sparse/{id}"), budget, || {
            spectral_sparse::lambda2_lazy(&graph, POWER_TOL, POWER_ITERS).expect("λ₂ converges");
        }));
    }
    Ok(cases)
}

/// Appends a timing suite's report lines to `report` and returns its
/// ledger JSON.
fn timing_json(report: &mut String, suite: Suite, quick: bool, cases: &[Case]) -> Value {
    for c in cases {
        let _ = write!(
            report,
            "  {:<52} {:>10.3} ms/iter  ({} iters)",
            c.id, c.wall_ms_per_iter, c.iters
        );
        if let Some(ns) = c.ns_per_msg() {
            let _ = write!(report, "  {ns:>8.1} ns/msg");
        }
        report.push('\n');
    }
    suite_json(suite.name(), quick, cases)
}

/// Runs the chosen suites, each once and in [`Suite::ALL`] order whatever
/// order they are listed in, and writes their `BENCH_<suite>.json` into
/// `out_dir`; returns the report text.
///
/// # Errors
///
/// [`LabError::Graph`]/[`LabError::BadArgs`] on graph/chain construction
/// failures, [`LabError::Io`] when an output file cannot be written.
pub fn run(quick: bool, out_dir: &Path, suites: &[Suite]) -> Result<String, LabError> {
    let budget = if quick {
        Duration::from_millis(300)
    } else {
        Duration::from_secs(1)
    };
    std::fs::create_dir_all(out_dir)
        .map_err(|e| LabError::Io(format!("create {}: {e}", out_dir.display())))?;
    let mut report = String::new();

    // The memory suite runs first: its RSS deltas are only meaningful on
    // a heap the timing suites have not yet grown and fragmented.
    for suite in Suite::ALL.into_iter().filter(|s| suites.contains(s)) {
        let path = out_dir.join(format!("BENCH_{}.json", suite.name()));
        let _ = writeln!(report, "suite {} -> {}", suite.name(), path.display());
        let json = match suite {
            Suite::Memory => {
                let mem = memory_cases(quick)?;
                for c in &mem {
                    let _ = writeln!(
                        report,
                        "  {:<52} {:>10.1} bytes/node  (graph {} KiB, engine {} KiB)",
                        c.id, c.bytes_per_node, c.graph_kb, c.engine_kb
                    );
                }
                memory_suite_json(quick, &mem)
            }
            Suite::Simulator => {
                timing_json(&mut report, suite, quick, &simulator_cases(quick, budget)?)
            }
            Suite::Diffusion => {
                timing_json(&mut report, suite, quick, &diffusion_cases(quick, budget)?)
            }
        };
        std::fs::write(&path, json.render_pretty() + "\n")
            .map_err(|e| LabError::Io(format!("write {}: {e}", path.display())))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_case_respects_the_iteration_clamp() {
        let mut calls = 0u64;
        let (iters, ms) = time_case(Duration::from_millis(1), || calls += 1);
        assert!((3..=100).contains(&iters));
        // warm-up + estimate + measured iterations
        assert_eq!(calls, iters + 2);
        assert!(ms >= 0.0);
    }

    #[test]
    fn vm_rss_is_readable_and_positive_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        let kb = vm_rss_kb().expect("VmRSS line present");
        assert!(kb > 0);
    }

    #[test]
    fn memory_suite_json_has_the_pinned_schema() {
        let cases = [MemCase {
            id: "rss/implicit/torus:447x447".to_string(),
            n: 199_809,
            graph_kb: 12,
            engine_kb: 34_000,
            bytes_per_node: 174.3,
        }];
        let v = memory_suite_json(true, &cases);
        assert_eq!(v.get("suite").and_then(Value::as_str), Some("memory"));
        assert_eq!(v.get("quick").and_then(Value::as_bool), Some(true));
        assert!(v.get("git").and_then(Value::as_str).is_some());
        let Some(Value::Arr(cs)) = v.get("cases") else {
            panic!("cases array");
        };
        assert_eq!(
            cs[0].get("id").and_then(Value::as_str),
            Some("rss/implicit/torus:447x447")
        );
        assert_eq!(cs[0].get("n").and_then(Value::as_u64), Some(199_809));
        assert_eq!(cs[0].get("graph_kb").and_then(Value::as_u64), Some(12));
        assert_eq!(cs[0].get("engine_kb").and_then(Value::as_u64), Some(34_000));
        assert_eq!(
            cs[0].get("bytes_per_node").and_then(Value::as_f64),
            Some(174.3)
        );
    }

    #[test]
    fn suite_json_has_the_pinned_schema() {
        let cases = [
            Case {
                id: "a/b/8".to_string(),
                iters: 5,
                wall_ms_per_iter: 1.25,
                messages: None,
            },
            Case {
                id: "a/events/8".to_string(),
                iters: 3,
                wall_ms_per_iter: 2.0,
                messages: Some(4000),
            },
        ];
        let v = suite_json("simulator", true, &cases);
        assert_eq!(v.get("suite").and_then(Value::as_str), Some("simulator"));
        assert_eq!(v.get("quick").and_then(Value::as_bool), Some(true));
        assert!(v.get("git").and_then(Value::as_str).is_some());
        let Some(Value::Arr(cs)) = v.get("cases") else {
            panic!("cases array");
        };
        assert_eq!(cs[0].get("id").and_then(Value::as_str), Some("a/b/8"));
        assert_eq!(cs[0].get("iters").and_then(Value::as_u64), Some(5));
        assert_eq!(
            cs[0].get("wall_ms_per_iter").and_then(Value::as_f64),
            Some(1.25)
        );
        // Kernel cases carry no message count; engine cases carry it and
        // the wall-clock per message.
        assert!(cs[0].get("messages").is_none());
        assert_eq!(cs[1].get("messages").and_then(Value::as_u64), Some(4000));
        assert_eq!(cs[1].get("ns_per_msg").and_then(Value::as_f64), Some(500.0));
    }

    #[test]
    fn suites_parse_by_name_and_nothing_else() {
        for suite in Suite::ALL {
            assert_eq!(suite.name().parse::<Suite>().unwrap(), suite);
        }
        for bad in ["", "Memory", "sim", "memory,simulator"] {
            assert!(matches!(bad.parse::<Suite>(), Err(LabError::BadArgs(_))));
        }
    }
}
