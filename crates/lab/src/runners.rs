//! Uniform driver layer over every election algorithm in the workspace —
//! the harness needs "same graph, same seed, different algorithm" rows.

use ale_baselines::flood_max::{run_flood_max, FloodDiscipline, FloodMaxConfig};
use ale_baselines::gilbert::{run_gilbert, GilbertConfig};
use ale_baselines::kutten::{run_kutten, KuttenConfig};
use ale_core::irrevocable::{run_irrevocable, IrrevocableConfig};
use ale_core::{CoreError, ElectionOutcome};
use ale_graph::{Graph, GraphProps, NetworkKnowledge, Topology};
use ale_telemetry::Span;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// The algorithms compared in the Table 1 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// This paper's irrevocable protocol (Theorem 1).
    ThisWork,
    /// Gilbert–Robinson–Sourav (PODC'18) style baseline.
    Gilbert,
    /// Kutten et al. (J.ACM'15) style candidate flooding.
    Kutten,
    /// All-nodes flood-max, forwarding improvements only.
    FloodOnChange,
    /// All-nodes flood-max, re-broadcasting every round.
    FloodEveryRound,
}

impl Algorithm {
    /// All algorithms, in presentation order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::ThisWork,
        Algorithm::Gilbert,
        Algorithm::Kutten,
        Algorithm::FloodOnChange,
        Algorithm::FloodEveryRound,
    ];

    /// Parses the display name back into the enum (for CLI filters and
    /// record round-trips).
    pub fn from_name(name: &str) -> Option<Algorithm> {
        Algorithm::ALL
            .iter()
            .copied()
            .find(|a| a.to_string() == name)
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Algorithm::ThisWork => "this-work",
            Algorithm::Gilbert => "gilbert18",
            Algorithm::Kutten => "kutten15",
            Algorithm::FloodOnChange => "flood-chg",
            Algorithm::FloodEveryRound => "flood-all",
        };
        write!(f, "{s}")
    }
}

/// Pre-computed per-graph context shared by all algorithms (so property
/// computation is paid once per graph, not once per trial; see
/// [`GraphContexts`] for the per-run memo).
#[derive(Debug, Clone)]
pub struct GraphContext {
    /// The topology that generated the graph.
    pub topology: Topology,
    /// The concrete graph.
    pub graph: Graph,
    /// Its computed properties.
    pub props: GraphProps,
    /// The knowledge bundle for knowledge-taking algorithms.
    pub knowledge: NetworkKnowledge,
}

impl GraphContext {
    /// Builds the graph and computes its properties.
    ///
    /// # Errors
    ///
    /// Propagates generation/property failures.
    pub fn build(topology: Topology, graph_seed: u64) -> Result<Self, CoreError> {
        let span = Span::begin("graph-build").attr("topology", topology.to_string());
        let graph = topology.build(graph_seed)?;
        drop(span.attr("n", graph.n()));
        let mut span = Span::begin("graph-props")
            .attr("topology", topology.to_string())
            .attr("n", graph.n());
        let props = GraphProps::compute_for(&graph, &topology)?;
        span.set_attr("tmix_method", props.tmix_method.to_string());
        drop(span);
        let knowledge = NetworkKnowledge::from_props(&props);
        Ok(GraphContext {
            topology,
            graph,
            props,
            knowledge,
        })
    }

    /// Runs `alg` on this graph with the given seed.
    ///
    /// # Errors
    ///
    /// Propagates the underlying runner's failures.
    pub fn run(&self, alg: Algorithm, seed: u64) -> Result<ElectionOutcome, CoreError> {
        match alg {
            Algorithm::ThisWork => {
                let cfg = IrrevocableConfig::from_knowledge(self.knowledge);
                run_irrevocable(&self.graph, &cfg, seed)
            }
            Algorithm::Gilbert => {
                let cfg = GilbertConfig::new(self.knowledge.n, self.knowledge.tmix);
                run_gilbert(&self.graph, &cfg, seed)
            }
            Algorithm::Kutten => {
                let mut cfg = KuttenConfig::for_graph(&self.graph);
                cfg.diameter = self.props.diameter as u64;
                run_kutten(&self.graph, &cfg, seed)
            }
            Algorithm::FloodOnChange => {
                let cfg = FloodMaxConfig::for_graph(&self.graph);
                run_flood_max(&self.graph, &cfg, seed)
            }
            Algorithm::FloodEveryRound => {
                let mut cfg = FloodMaxConfig::for_graph(&self.graph);
                cfg.discipline = FloodDiscipline::EveryRound;
                run_flood_max(&self.graph, &cfg, seed)
            }
        }
    }
}

/// One slot of [`GraphContexts`]: empty until its key's first build
/// succeeds.
type ContextSlot = Arc<Mutex<Option<Arc<GraphContext>>>>;

/// A run's [`GraphContext`]s, memoized by (topology, graph seed): every
/// grid point of the run that names the same graph binds one shared
/// context, so each graph is built and its properties computed once per
/// run rather than once per point.
///
/// Scenarios hold one as a field, and [`crate::registry::find`] builds a
/// fresh scenario value for every run, so the memo never outlives a run.
/// Under the engine's parallel bind each key builds at most once (later
/// callers wait on the key's slot) while distinct keys build
/// concurrently. A failed build returns its error and leaves the slot
/// empty, so nothing failed is cached.
#[derive(Debug, Default)]
pub struct GraphContexts {
    slots: Mutex<BTreeMap<(Topology, u64), ContextSlot>>,
}

impl GraphContexts {
    /// The context of `topology` built at `graph_seed`, built on first
    /// request.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphContext::build`] failures.
    pub fn get(&self, topology: Topology, graph_seed: u64) -> Result<Arc<GraphContext>, CoreError> {
        // Every update under either lock is one insert or assignment, so a
        // lock poisoned by a panicking build still guards valid data.
        let slot = {
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(slots.entry((topology, graph_seed)).or_default())
        };
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(ctx) = slot.as_ref() {
            return Ok(Arc::clone(ctx));
        }
        let ctx = Arc::new(GraphContext::build(topology, graph_seed)?);
        *slot = Some(Arc::clone(&ctx));
        Ok(ctx)
    }
}

/// Aggregated cost/success summary for one (graph, algorithm) cell.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Trials run.
    pub trials: usize,
    /// Trials with exactly one leader.
    pub unique: usize,
    /// Median messages.
    pub median_messages: f64,
    /// Median payload bits.
    pub median_bits: f64,
    /// Median CONGEST-charged rounds.
    pub median_congest_rounds: f64,
}

impl CellSummary {
    /// Summarizes a batch of outcomes.
    pub fn from_outcomes(algorithm: Algorithm, outcomes: &[ElectionOutcome]) -> Self {
        let msgs: Vec<f64> = outcomes.iter().map(|o| o.metrics.messages as f64).collect();
        let bits: Vec<f64> = outcomes.iter().map(|o| o.metrics.bits as f64).collect();
        let rounds: Vec<f64> = outcomes
            .iter()
            .map(|o| o.metrics.congest_rounds as f64)
            .collect();
        CellSummary {
            algorithm,
            trials: outcomes.len(),
            unique: outcomes.iter().filter(|o| o.is_successful()).count(),
            median_messages: crate::stats::median(&msgs),
            median_bits: crate::stats::median(&bits),
            median_congest_rounds: crate::stats::median(&rounds),
        }
    }

    /// Success rate in `[0, 1]`.
    pub fn success_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.unique as f64 / self.trials as f64
        }
    }
}

impl crate::json::ToJson for CellSummary {
    fn to_json(&self) -> crate::json::Value {
        use crate::json::Value;
        Value::obj([
            (
                "algorithm".to_string(),
                Value::Str(self.algorithm.to_string()),
            ),
            ("trials".to_string(), Value::UInt(self.trials as u64)),
            ("unique".to_string(), Value::UInt(self.unique as u64)),
            (
                "median_messages".to_string(),
                Value::Num(self.median_messages),
            ),
            ("median_bits".to_string(), Value::Num(self.median_bits)),
            (
                "median_congest_rounds".to_string(),
                Value::Num(self.median_congest_rounds),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_runs_every_algorithm() {
        let ctx = GraphContext::build(Topology::Complete { n: 16 }, 0).unwrap();
        for alg in Algorithm::ALL {
            let o = ctx.run(alg, 5).unwrap();
            assert!(
                o.leader_count() <= 2,
                "{alg}: unexpectedly many leaders ({})",
                o.leader_count()
            );
            assert!(o.metrics.rounds > 0);
        }
    }

    #[test]
    fn summary_statistics() {
        let ctx = GraphContext::build(Topology::Hypercube { dim: 3 }, 0).unwrap();
        let outcomes: Vec<_> = (0..5)
            .map(|s| ctx.run(Algorithm::Kutten, s).unwrap())
            .collect();
        let cell = CellSummary::from_outcomes(Algorithm::Kutten, &outcomes);
        assert_eq!(cell.trials, 5);
        assert!(cell.success_rate() >= 0.0 && cell.success_rate() <= 1.0);
        assert!(cell.median_messages >= 0.0);
    }

    #[test]
    fn contexts_build_once_per_key() {
        let contexts = GraphContexts::default();
        let cycle = Topology::Cycle { n: 12 };
        let a = contexts.get(cycle, 1).unwrap();
        assert!(Arc::ptr_eq(&a, &contexts.get(cycle, 1).unwrap()));
        assert!(!Arc::ptr_eq(&a, &contexts.get(cycle, 2).unwrap()));
        let again = GraphContext::build(cycle, 1).unwrap();
        assert_eq!(a.props, again.props);
        // Concurrent first requests for one key share one build.
        let barrier = std::sync::Barrier::new(4);
        let racing: Vec<Arc<GraphContext>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        contexts.get(cycle, 7).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(racing.iter().all(|c| Arc::ptr_eq(c, &racing[0])));
        // Failures are returned, not cached: the slot stays empty.
        let bad = Topology::RandomRegular { n: 5, d: 5 };
        assert!(contexts.get(bad, 0).is_err());
        assert!(contexts.get(bad, 0).is_err());
        assert!(contexts.slots.lock().unwrap()[&(bad, 0)]
            .lock()
            .unwrap()
            .is_none());
    }

    #[test]
    fn algorithm_display_names_are_stable() {
        assert_eq!(Algorithm::ThisWork.to_string(), "this-work");
        assert_eq!(Algorithm::ALL.len(), 5);
    }
}
