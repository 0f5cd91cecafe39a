//! The `ale-lab bench` subcommand: the repo's microbench ledger, the one
//! place engine and kernel costs are timed in isolation (end-to-end and
//! per-layer costs of real sweeps are the standalone `benchmark/`
//! package's job).
//!
//! Cases run in-process with plain [`Instant`] timing: warm up once,
//! estimate the per-iteration cost, then measure
//! `clamp(budget / cost, 3, 100)` iterations.
//!
//! Output is three JSON files in the chosen directory (default: the
//! current directory, i.e. the repo root in CI):
//!
//! * `BENCH_memory.json` — resident-set growth (bytes/node) of the
//!   large-n revocable engine on ladder tori, sampled from
//!   `/proc/self/status` around graph and engine construction;
//! * `BENCH_simulator.json` — CONGEST round throughput: dense gossip on
//!   the lockstep arena, the reference oracle and the event-queue
//!   policy (the same messages on all three), plus the mostly-halted
//!   beacon tail on arena vs reference;
//! * `BENCH_diffusion.json` — `Avg` diffusion steps, dense matrix vs
//!   sparse CSR backend on tori, plus the sparse `λ₂` power iteration
//!   that prices bind on `diffusion --n` ladders (`lambda2/sparse/…`).
//!
//! Timing schema: `{"suite", "git", "quick", "cases": [{"id", "iters",
//! "wall_ms_per_iter"}]}`; the memory suite's cases carry `{"id", "n",
//! "graph_kb", "engine_kb", "bytes_per_node"}` instead. The `git` stamp
//! is the exact short sha of `HEAD`, `-dirty`-suffixed when the work
//! tree has uncommitted changes. Numbers are wall-clock/RSS on whatever
//! machine ran them — compare across commits on one box, not across
//! boxes.

use crate::json::Value;
use crate::scenario::LabError;
use ale_congest::{
    congest_budget, AsyncNetwork, Incoming, Network, NodeCtx, OutCtx, Process, ReferenceNetwork,
};
use ale_core::revocable::{RevocableParams, RevocableProcess};
use ale_graph::spectral_sparse::{self, POWER_ITERS, POWER_TOL};
use ale_graph::{transition, Topology};
use ale_markov::MarkovChain;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One measured case.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Stable identifier (`group/engine/param`).
    pub id: String,
    /// Measured iterations (budget-derived, 3..=100).
    pub iters: u64,
    /// Mean wall-clock per iteration, in milliseconds.
    pub wall_ms_per_iter: f64,
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
                        Value::obj(vec![
                            ("id".to_string(), Value::Str(c.id.clone())),
                            ("iters".to_string(), Value::UInt(c.iters)),
                            (
                                "wall_ms_per_iter".to_string(),
                                Value::Num(c.wall_ms_per_iter),
                            ),
                        ])
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

    fn round(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        inbox: &[Incoming<u64>],
        out: &mut OutCtx<'_, u64>,
    ) {
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

    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Incoming<u64>], out: &mut OutCtx<'_, u64>) {
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

fn simulator_cases(quick: bool, budget: Duration) -> Result<Vec<Case>, LabError> {
    let mut cases = Vec::new();

    let n = if quick { 256 } else { 1024 };
    let graph = Topology::RandomRegular { n, d: 4 }.build(1)?;
    let (iters, ms) = time_case(budget, || {
        let mut net = Network::from_fn(&graph, 1, 64, |_d, _r| Gossip(1));
        net.run_for(100).expect("gossip run");
        std::hint::black_box(net.metrics().messages);
    });
    cases.push(Case {
        id: format!("dense-gossip-100-rounds/arena/{n}"),
        iters,
        wall_ms_per_iter: ms,
    });
    let (iters, ms) = time_case(budget, || {
        let mut net = ReferenceNetwork::from_fn(&graph, 1, 64, |_d, _r| Gossip(1));
        net.run_for(100).expect("gossip run");
        std::hint::black_box(net.metrics().messages);
    });
    cases.push(Case {
        id: format!("dense-gossip-100-rounds/reference/{n}"),
        iters,
        wall_ms_per_iter: ms,
    });
    // Unit latency, no faults: the event queue delivers exactly the
    // arena's messages, so the two cases' ratio is the per-message cost
    // of the `(time, seq)` heap.
    let (iters, ms) = time_case(budget, || {
        let mut net = AsyncNetwork::from_fn(&graph, 1, 64, |_d, _r| Gossip(1));
        net.run_for(100).expect("gossip run");
        std::hint::black_box(net.metrics().messages);
    });
    cases.push(Case {
        id: format!("dense-gossip-100-rounds/events/{n}"),
        iters,
        wall_ms_per_iter: ms,
    });

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
    let (iters, ms) = time_case(budget, || {
        let mut net = Network::from_fn(&graph, 3, 64, make);
        net.run_for(rounds).expect("beacon run");
        std::hint::black_box(net.metrics().messages);
    });
    cases.push(Case {
        id: format!("mostly-halted-{rounds}-rounds/arena/{n}"),
        iters,
        wall_ms_per_iter: ms,
    });
    let (iters, ms) = time_case(budget, || {
        let mut net = ReferenceNetwork::from_fn(&graph, 3, 64, make);
        net.run_for(rounds).expect("beacon run");
        std::hint::black_box(net.metrics().messages);
    });
    cases.push(Case {
        id: format!("mostly-halted-{rounds}-rounds/reference/{n}"),
        iters,
        wall_ms_per_iter: ms,
    });
    Ok(cases)
}

/// One memory-suite measurement: RSS growth across graph construction
/// and across engine construction + a short protocol run, per node.
#[derive(Debug, Clone, PartialEq)]
pub struct MemCase {
    /// Stable identifier (`rss/<backend>/torus:<side>x<side>`).
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

fn memory_cases(quick: bool) -> Result<Vec<MemCase>, LabError> {
    // The ladder tori, ascending so each case's allocations are fresh
    // growth past the previous high-water mark (per-case deltas would
    // otherwise be masked by allocator reuse).
    let ns: &[usize] = if quick {
        &[20_000, 200_000]
    } else {
        &[20_000, 200_000, 1_000_000]
    };
    // The mode-4 large-n ladder configuration of the revocable scenario.
    let params = RevocableParams::paper_blind(1.0, 0.2).with_scales(0.002, 0.05, 1.0);
    let mut cases = Vec::new();
    for &n in ns {
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
        let budget = congest_budget(nodes.max(2), params.congest_factor);
        let mut net = Network::from_fn(&graph, 1, budget, |deg, _rng| {
            RevocableProcess::with_horizon(params, deg, Some(4))
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
        let graph_kb = after_graph.saturating_sub(before);
        let engine_kb = after_run.saturating_sub(after_graph);
        cases.push(MemCase {
            id: format!("rss/{backend}/torus:{side}x{side}"),
            n: nodes as u64,
            graph_kb,
            engine_kb,
            bytes_per_node: (graph_kb + engine_kb) as f64 * 1024.0 / nodes as f64,
        });
    }
    Ok(cases)
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
    let markov = |e: ale_markov::MarkovError| LabError::BadArgs(format!("bench chain: {e}"));
    let mut cases = Vec::new();

    let dense_sides: &[usize] = if quick { &[8] } else { &[8, 32] };
    for &side in dense_sides {
        let graph = torus(side).build(1)?;
        let n = graph.n();
        let chain = MarkovChain::diffusion(&graph.adjacency(), ALPHA).map_err(markov)?;
        let pot = potential(n);
        let mut out = vec![0.0; n];
        let (iters, ms) = time_case(budget, || {
            chain.step_into(&pot, &mut out).expect("dense step");
        });
        cases.push(Case {
            id: format!("step/dense/torus:{side}x{side}"),
            iters,
            wall_ms_per_iter: ms,
        });
    }

    let sparse_sides: &[usize] = if quick { &[8, 32] } else { &[8, 32, 100, 200] };
    for &side in sparse_sides {
        let graph = torus(side).build(1)?;
        let n = graph.n();
        let chain = transition::diffusion_chain(&graph, ALPHA)?;
        let pot = potential(n);
        let mut out = vec![0.0; n];
        let (iters, ms) = time_case(budget, || {
            chain.step_into(&pot, &mut out).expect("sparse step");
        });
        cases.push(Case {
            id: format!("step/sparse/torus:{side}x{side}"),
            iters,
            wall_ms_per_iter: ms,
        });
    }

    // One whole `λ₂` iteration under the harness budget, on the 4-regular
    // graph `diffusion --n` binds (graph seed 0).
    let n = if quick { 1000 } else { 5000 };
    let graph = Topology::RandomRegular { n, d: 4 }.build(0)?;
    let (iters, ms) = time_case(budget, || {
        spectral_sparse::lambda2_lazy(&graph, POWER_TOL, POWER_ITERS).expect("λ₂ converges");
    });
    cases.push(Case {
        id: format!("lambda2/sparse/rregular:{n}"),
        iters,
        wall_ms_per_iter: ms,
    });
    Ok(cases)
}

/// Runs all three suites and writes `BENCH_memory.json` /
/// `BENCH_simulator.json` / `BENCH_diffusion.json` into `out_dir`;
/// returns the report text.
///
/// # Errors
///
/// [`LabError::Graph`]/[`LabError::BadArgs`] on graph/chain construction
/// failures, [`LabError::Io`] when an output file cannot be written.
pub fn run(quick: bool, out_dir: &Path) -> Result<String, LabError> {
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
    let mem = memory_cases(quick)?;
    let path = out_dir.join("BENCH_memory.json");
    std::fs::write(&path, memory_suite_json(quick, &mem).render_pretty() + "\n")
        .map_err(|e| LabError::Io(format!("write {}: {e}", path.display())))?;
    let _ = writeln!(report, "suite memory -> {}", path.display());
    for c in &mem {
        let _ = writeln!(
            report,
            "  {:<44} {:>10.1} bytes/node  (graph {} KiB, engine {} KiB)",
            c.id, c.bytes_per_node, c.graph_kb, c.engine_kb
        );
    }

    for (suite, cases) in [
        ("simulator", simulator_cases(quick, budget)?),
        ("diffusion", diffusion_cases(quick, budget)?),
    ] {
        let path = out_dir.join(format!("BENCH_{suite}.json"));
        let json = suite_json(suite, quick, &cases);
        std::fs::write(&path, json.render_pretty() + "\n")
            .map_err(|e| LabError::Io(format!("write {}: {e}", path.display())))?;
        let _ = writeln!(report, "suite {suite} -> {}", path.display());
        for c in &cases {
            let _ = writeln!(
                report,
                "  {:<44} {:>10.3} ms/iter  ({} iters)",
                c.id, c.wall_ms_per_iter, c.iters
            );
        }
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
        let cases = [Case {
            id: "a/b/8".to_string(),
            iters: 5,
            wall_ms_per_iter: 1.25,
        }];
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
    }
}
