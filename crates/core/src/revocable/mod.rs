//! Revocable Leader Election for **unknown network size**
//! (paper Section 5.2–5.3).
//!
//! No algorithm can solve irrevocable leader election without knowing `n`
//! (Theorem 2; see the `ale-impossibility` crate), so the paper defines the
//! revocable variant: the final leader must be elected within bounded time,
//! but nodes may never know their decision is final and may revoke it.
//!
//! **Blind Leader Election with Certificates via Diffusion with Thresholds**
//! probes doubling estimates `k` of the network size. Each estimate runs
//! `f(k)` certification iterations — a white/black coloring, a potential
//! diffusion with threshold alarms, and a dissemination — and nodes that
//! fail to detect `k` as low choose an ID in a range polynomial in `k`,
//! compounded with `k` as a *certificate*. The best record (largest
//! certificate, then smallest ID) is the leader.
//!
//! * [`RevocableParams`] — the paper's `p(k)`, `τ(k)`, `f(k)`, `r(k)`
//!   functions (Theorem 3 with known `i(G)` or blind Corollary 1), plus
//!   documented scale knobs for tractable shape experiments.
//! * [`RevocableProcess`] — the never-halting per-node machine.
//! * [`run_revocable`] — drives a network until the host-side oracle
//!   observes stabilization (all IDs chosen, all views equal).
//!
//! ## Example
//!
//! ```
//! use ale_core::revocable::{run_revocable, RevocableParams};
//! use ale_graph::generators;
//!
//! let g = generators::complete(4)?;
//! // Scaled parameters keep the demo fast; the `params` module docs
//! // describe the modes.
//! let params = RevocableParams::paper_blind(1.0, 0.2).with_scales(0.02, 0.05, 1.0);
//! let result = run_revocable(&g, &params, 1, 32)?;
//! assert!(result.stabilized);
//! assert_eq!(result.outcome.leader_count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod msg;
pub mod params;
pub mod process;
pub mod record;

use crate::error::CoreError;
use crate::outcome::ElectionOutcome;
use ale_congest::{
    congest_budget, AsyncNetwork, CongestError, Delivery, Driver, ExecConfig, Network, RunStatus,
};
use ale_graph::Graph;
use rand::rngs::StdRng;

pub use msg::RevMsg;
pub use params::RevocableParams;
pub use process::{RevocableProcess, RevocableVerdict};
pub use record::LeaderRecord;

/// Result of driving the revocable protocol to (attempted) stabilization.
#[derive(Debug, Clone, PartialEq)]
pub struct RevocableOutcome {
    /// Leaders / candidates / cost summary. `candidates` lists every node
    /// that chose an ID (they all "stand" in this protocol).
    pub outcome: ElectionOutcome,
    /// Whether the stabilization oracle fired: every node chose an ID and
    /// all views agree (an absorbing state — certificates only improve).
    pub stabilized: bool,
    /// The largest estimate `k` reached by any node.
    pub final_k: u64,
    /// Round at which stabilization was first observed.
    pub rounds_at_stability: Option<u64>,
    /// Full per-node verdicts for downstream analysis.
    pub verdicts: Vec<RevocableVerdict>,
}

/// Runs the revocable protocol until stabilization or until every estimate
/// up to `max_k` has been exhausted.
///
/// The protocol itself never halts (Definition 2); `max_k` is the host-side
/// simulation horizon. Theory predicts stabilization once `k^{1+ε} > 4n`,
/// so pass a `max_k` at least a constant factor above `(4n)^{1/(1+ε)}`.
///
/// # Errors
///
/// Propagates parameter-validation and simulation failures.
pub fn run_revocable(
    graph: &Graph,
    params: &RevocableParams,
    seed: u64,
    max_k: u64,
) -> Result<RevocableOutcome, CoreError> {
    drive(graph, params, max_k, |budget, spawn| {
        Ok(Network::from_fn(graph, seed, budget, spawn))
    })
}

/// [`run_revocable`] on the event-driven asynchronous engine: the same
/// protocol, horizon, and stabilization oracle, but message deliveries
/// follow `exec`'s latency distribution and its adversary may crash
/// nodes, drop sends, or inject duplicates.
///
/// With `ExecConfig::default()` (unit latency, zero faults) the run is
/// byte-identical to [`run_revocable`] — same outputs, metrics, and
/// rounds — which is what lets fault sweeps share the synchronous runs'
/// baselines. Under faults the protocol keeps its absorbing-state
/// structure (certificates only improve), so the oracle still reports
/// stabilization among the *surviving* nodes when views converge; with
/// crashes, "all nodes" means all non-crashed nodes that still execute.
///
/// # Errors
///
/// Propagates parameter-validation, execution-config, and simulation
/// failures.
pub fn run_revocable_async(
    graph: &Graph,
    params: &RevocableParams,
    seed: u64,
    max_k: u64,
    exec: &ExecConfig,
) -> Result<RevocableOutcome, CoreError> {
    drive(graph, params, max_k, |budget, spawn| {
        AsyncNetwork::from_fn_with(graph, seed, budget, *exec, spawn)
    })
}

/// The revocable driver body shared by both engines: `build` wires the
/// network from the CONGEST budget and the per-node process factory.
fn drive<'g, D, B>(
    graph: &'g Graph,
    params: &RevocableParams,
    max_k: u64,
    build: B,
) -> Result<RevocableOutcome, CoreError>
where
    D: Delivery<RevMsg>,
    B: FnOnce(usize, Spawn<'_>) -> Result<Driver<'g, RevocableProcess, D>, CongestError>,
{
    params.validate()?;
    params.check_horizon(max_k)?;
    let budget = congest_budget(graph.n());
    let p = *params;
    let mut net = build(budget, &mut |deg, _rng| {
        // The horizon freezes nodes before they execute estimates beyond
        // max_k, whose per-estimate cost grows like k^{2(2+ε)} (blind).
        RevocableProcess::with_horizon(p, deg, Some(max_k))
    })?;
    let round_budget = params.rounds_through(max_k).saturating_add(64);
    let mut rounds_at_stability = None;

    // Stops on: stabilization (checked sparsely — the recorded round is at
    // most 16 late), the horizon freeze (all nodes halt in lockstep), or
    // the round cap (defensive; unreachable given the freeze).
    let status = net.run_until(round_budget, |n| {
        n.round() % 16 == 0 && views_agree(n.processes().iter().map(RevocableProcess::settled_view))
    })?;
    let verdicts = net.outputs();
    if status == RunStatus::PredicateMet && stabilized(&verdicts) {
        rounds_at_stability = Some(net.round());
    }
    let final_k = verdicts.iter().map(|v| v.k).max().unwrap_or(2);
    let outcome = ElectionOutcome::from_flags(
        verdicts.iter().map(|v| (v.id.is_some(), v.leader)),
        *net.metrics(),
        status,
    );
    Ok(RevocableOutcome {
        stabilized: rounds_at_stability.is_some(),
        final_k,
        rounds_at_stability,
        verdicts,
        outcome,
    })
}

/// The per-node process factory [`drive`] hands to a network constructor.
type Spawn<'a> = &'a mut dyn FnMut(usize, &mut StdRng) -> RevocableProcess;

/// The stabilization oracle: all nodes chose IDs and share the same view.
///
/// This is an absorbing predicate: IDs are never re-chosen and views only
/// move toward the globally best record.
pub fn stabilized(verdicts: &[RevocableVerdict]) -> bool {
    views_agree(verdicts.iter().map(|v| v.id.and(v.view)))
}

/// The oracle's one body, over each node's view once it has chosen an ID
/// (`None` before). It stops at the first node without one, so a check
/// early in a run costs one node, not a verdict per node.
fn views_agree(mut settled: impl Iterator<Item = Option<LeaderRecord>>) -> bool {
    match settled.next() {
        Some(Some(first)) => settled.all(|v| v == Some(first)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ale_graph::generators;

    fn fast_params() -> RevocableParams {
        RevocableParams::paper_blind(1.0, 0.2).with_scales(0.02, 0.05, 1.0)
    }

    #[test]
    fn stabilizes_on_tiny_complete_graph() {
        let g = generators::complete(4).unwrap();
        let r = run_revocable(&g, &fast_params(), 1, 32).unwrap();
        assert!(r.stabilized, "did not stabilize: final_k = {}", r.final_k);
        assert_eq!(r.outcome.leader_count(), 1);
        assert_eq!(r.outcome.candidates.len(), 4, "all nodes choose IDs");
        // The leader's record must be the best one.
        let best = r
            .verdicts
            .iter()
            .filter_map(|v| v.view)
            .next()
            .expect("stabilized implies views");
        for v in &r.verdicts {
            assert_eq!(v.view, Some(best));
        }
    }

    #[test]
    fn explicit_election_all_nodes_know_leader() {
        let g = generators::cycle(5).unwrap();
        let r = run_revocable(&g, &fast_params(), 11, 32).unwrap();
        assert!(r.stabilized);
        let views: Vec<_> = r.verdicts.iter().map(|v| v.view).collect();
        assert!(views.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn leader_has_best_record() {
        let g = generators::path(4).unwrap();
        let r = run_revocable(&g, &fast_params(), 5, 32).unwrap();
        assert!(r.stabilized);
        let leader = r.outcome.unique_leader().expect("unique leader");
        let lv = &r.verdicts[leader];
        assert_eq!(
            Some(LeaderRecord::new(lv.cert.unwrap(), lv.id.unwrap())),
            lv.view
        );
    }

    #[test]
    fn unstabilized_run_reports_false() {
        let g = generators::complete(4).unwrap();
        // max_k = 2 gives the protocol no room to reach k^{1+ε} > 4n.
        let r = run_revocable(&g, &fast_params(), 3, 2).unwrap();
        assert!(!r.stabilized);
        assert_eq!(r.rounds_at_stability, None);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let g = generators::complete(4).unwrap();
        let bad = RevocableParams::paper_blind(0.0, 0.1);
        assert!(run_revocable(&g, &bad, 0, 32).is_err());
        assert!(run_revocable(&g, &fast_params(), 0, 1).is_err());
    }

    #[test]
    fn horizon_guard_refuses_before_any_round() {
        fn never_built<'g>(
            _budget: usize,
            _spawn: Spawn<'_>,
        ) -> Result<Network<'g, RevocableProcess>, CongestError> {
            unreachable!("the horizon check runs before the network is built")
        }
        let g = generators::complete(2).unwrap();
        // Paper-exact blind: r(32) ≈ 4.3·10¹⁰ overflows the u32 send index.
        let exact = RevocableParams::paper_blind(1.0, 0.2);
        let err = drive(&g, &exact, 32, never_built).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }), "{err:?}");
        assert!(matches!(
            run_revocable(&g, &exact, 1, 32),
            Err(CoreError::InvalidConfig { .. })
        ));
        // The scaled ladder's params and horizon pass and run.
        let ladder = RevocableParams::paper_blind(1.0, 0.2).with_scales(0.002, 0.05, 1.0);
        assert!(run_revocable(&g, &ladder, 1, 4).is_ok());
    }

    #[test]
    fn async_zero_fault_run_matches_the_synchronous_run_exactly() {
        let g = generators::complete(4).unwrap();
        for seed in [1, 5, 11] {
            let sync = run_revocable(&g, &fast_params(), seed, 32).unwrap();
            let evented =
                run_revocable_async(&g, &fast_params(), seed, 32, &ExecConfig::default()).unwrap();
            assert_eq!(sync, evented, "seed {seed}");
        }
    }

    #[test]
    fn async_faulty_run_reconciles_and_rejects_bad_configs() {
        let g = generators::complete(4).unwrap();
        let exec = ExecConfig {
            faults: ale_congest::FaultSpec {
                drop: 0.05,
                duplicate: 0.025,
                ..Default::default()
            },
            ..ExecConfig::default()
        };
        let r = run_revocable_async(&g, &fast_params(), 1, 16, &exec).unwrap();
        let m = r.outcome.metrics;
        assert_eq!(m.delivered, m.messages - m.dropped + m.duplicated);

        let bad = ExecConfig {
            faults: ale_congest::FaultSpec {
                drop: 2.0,
                ..Default::default()
            },
            ..ExecConfig::default()
        };
        assert!(run_revocable_async(&g, &fast_params(), 1, 16, &bad).is_err());
    }

    #[test]
    fn stabilized_predicate_logic() {
        use process::RevocableVerdict;
        let v = |id: Option<u128>, view: Option<LeaderRecord>| RevocableVerdict {
            id,
            cert: id.map(|_| 4),
            leader: false,
            view,
            k: 8,
            revocations: 0,
        };
        assert!(!stabilized(&[]));
        let rec = LeaderRecord::new(4, 9);
        assert!(!stabilized(&[v(None, Some(rec))]));
        assert!(!stabilized(&[v(Some(1), None)]));
        assert!(stabilized(&[v(Some(1), Some(rec)), v(Some(2), Some(rec))]));
        let other = LeaderRecord::new(8, 1);
        assert!(!stabilized(&[
            v(Some(1), Some(rec)),
            v(Some(2), Some(other))
        ]));
    }
}
