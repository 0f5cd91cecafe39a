//! Uniform driver layer over every election algorithm in the workspace —
//! the harness needs "same graph, same seed, different algorithm" rows.

use ale_baselines::flood_max::{run_flood_max, FloodDiscipline, FloodMaxConfig};
use ale_baselines::gilbert::{run_gilbert, GilbertConfig};
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

    /// Runs `alg` on this graph with the given seed, configured from the
    /// knowledge Table 1 grants it: `(n, t_mix, Φ)` for this work, `(n,
    /// t_mix)` for gilbert18 and `(n, D)` for the flood-max baselines.
    ///
    /// # Errors
    ///
    /// Propagates the underlying runner's failures.
    pub fn run(&self, alg: Algorithm, seed: u64) -> Result<ElectionOutcome, CoreError> {
        let (n, diameter) = (self.knowledge.n, self.props.diameter as u64);
        let flood = |cfg: FloodMaxConfig| run_flood_max(&self.graph, &cfg, seed);
        match alg {
            Algorithm::ThisWork => {
                let cfg = IrrevocableConfig::from_knowledge(self.knowledge);
                run_irrevocable(&self.graph, &cfg, seed)
            }
            Algorithm::Gilbert => {
                let cfg = GilbertConfig::new(n, self.knowledge.tmix);
                run_gilbert(&self.graph, &cfg, seed)
            }
            Algorithm::Kutten => flood(FloodMaxConfig::kutten(n, diameter)),
            Algorithm::FloodOnChange => flood(FloodMaxConfig::new(n, diameter)),
            Algorithm::FloodEveryRound => flood(FloodMaxConfig {
                discipline: FloodDiscipline::EveryRound,
                ..FloodMaxConfig::new(n, diameter)
            }),
        }
    }
}

/// One slot of [`GraphContexts`]: empty until its key's first build
/// succeeds.
type Slot<T> = Arc<Mutex<Option<Arc<T>>>>;

/// A run's per-graph values, memoized by (topology, graph seed): every
/// grid point of the run that names the same graph shares one value, so
/// each is computed once per run rather than once per point. By default
/// the value is the whole [`GraphContext`] (graph, properties and
/// knowledge, see [`GraphContexts::get`]); the diffusion family keeps
/// only its isoperimetric [`ale_graph::props::Estimate`] per graph.
///
/// Scenarios hold one as a field, and [`crate::registry::find`] builds a
/// fresh scenario value for every run, so the memo never outlives a run.
/// Under the engine's parallel bind each key builds at most once (later
/// callers wait on the key's slot) while distinct keys build
/// concurrently. A failed build returns its error and leaves the slot
/// empty, so nothing failed is cached.
#[derive(Debug)]
pub struct GraphContexts<T = GraphContext> {
    slots: Mutex<BTreeMap<(Topology, u64), Slot<T>>>,
}

impl<T> Default for GraphContexts<T> {
    fn default() -> Self {
        GraphContexts {
            slots: Mutex::default(),
        }
    }
}

impl<T> GraphContexts<T> {
    /// The value of `topology` built at `graph_seed`, from `build` on the
    /// key's first request.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns.
    pub(crate) fn get_or_build<E>(
        &self,
        topology: Topology,
        graph_seed: u64,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        // Every update under either lock is one insert or assignment, so a
        // lock poisoned by a panicking build still guards valid data.
        let slot = {
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(slots.entry((topology, graph_seed)).or_default())
        };
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(value) = slot.as_ref() {
            return Ok(Arc::clone(value));
        }
        let value = Arc::new(build()?);
        *slot = Some(Arc::clone(&value));
        Ok(value)
    }
}

impl GraphContexts {
    /// The context of `topology` built at `graph_seed`, built on first
    /// request.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphContext::build`] failures.
    pub fn get(&self, topology: Topology, graph_seed: u64) -> Result<Arc<GraphContext>, CoreError> {
        self.get_or_build(topology, graph_seed, || {
            GraphContext::build(topology, graph_seed)
        })
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
