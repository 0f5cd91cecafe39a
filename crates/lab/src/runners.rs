//! Uniform driver layer over every election algorithm in the workspace —
//! the harness needs "same graph, same seed, different algorithm" rows.

use ale_baselines::flood_max::{run_flood_max, FloodDiscipline, FloodMaxConfig};
use ale_baselines::gilbert::{run_gilbert, GilbertConfig};
use ale_core::irrevocable::{run_irrevocable, IrrevocableConfig};
use ale_core::{CoreError, ElectionOutcome};
use ale_graph::spectral_sparse::{self, POWER_ITERS, POWER_TOL};
use ale_graph::{analytic, props, Graph, GraphError, GraphProps, NetworkKnowledge, Topology};
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
    /// The concrete graph.
    pub graph: Arc<Graph>,
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
        Self::of(topology, Arc::new(build_graph(topology, graph_seed)?))
    }

    /// Computes the properties of `graph`, which `topology` generated, in
    /// a `graph-props` telemetry span.
    fn of(topology: Topology, graph: Arc<Graph>) -> Result<Self, CoreError> {
        let mut span = Span::begin("graph-props")
            .attr("topology", topology.to_string())
            .attr("n", graph.n());
        let props = GraphProps::compute_for(&graph, &topology)?;
        span.set_attr("tmix_method", props.tmix_method.to_string());
        drop(span);
        let knowledge = NetworkKnowledge::from_props(&props);
        Ok(GraphContext {
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

/// `topology` built at `graph_seed`, in a `graph-build` telemetry span.
fn build_graph(topology: Topology, graph_seed: u64) -> Result<Graph, GraphError> {
    let span = Span::begin("graph-build").attr("topology", topology.to_string());
    let graph = topology.build(graph_seed)?;
    drop(span.attr("n", graph.n()));
    Ok(graph)
}

/// The value in `cell`, from `build` on the first request that succeeds.
/// The lock is held while `build` runs, so concurrent callers wait for
/// it instead of building twice; a failure leaves the cell empty.
fn once<T: Clone, E>(
    cell: &Mutex<Option<T>>,
    build: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    // Every update is one assignment, so a lock poisoned by a panicking
    // build still guards valid data.
    let mut cell = cell.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(value) = cell.as_ref() {
        return Ok(value.clone());
    }
    let value = build()?;
    *cell = Some(value.clone());
    Ok(value)
}

/// One graph of a run and the facts derived from it, each empty until
/// its first build succeeds.
#[derive(Debug, Default)]
struct Entry {
    graph: Mutex<Option<Arc<Graph>>>,
    context: Mutex<Option<Arc<GraphContext>>>,
    isoperimetric: Mutex<Option<f64>>,
}

/// A run's graphs, memoized by (topology, graph seed): every grid point
/// of the run that names the same graph shares one build, and the facts
/// derived from it — its [`GraphContext`] and its isoperimetric number —
/// are each computed at most once.
///
/// The engine creates one per run and hands it to every
/// [`Scenario::bind`](crate::scenario::Scenario::bind); it is dropped when
/// binding ends, so only what the bound trials hold outlives it. Under
/// the engine's parallel bind each value builds at most once (later
/// callers wait on it) while distinct graphs build concurrently. A failed
/// build returns its error and caches nothing.
#[derive(Debug, Default)]
pub struct GraphContexts {
    entries: Mutex<BTreeMap<(Topology, u64), Arc<Entry>>>,
}

impl GraphContexts {
    fn entry(&self, topology: Topology, graph_seed: u64) -> Arc<Entry> {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(entries.entry((topology, graph_seed)).or_default())
    }

    fn graph_of(
        entry: &Entry,
        topology: Topology,
        graph_seed: u64,
    ) -> Result<Arc<Graph>, GraphError> {
        once(&entry.graph, || {
            build_graph(topology, graph_seed).map(Arc::new)
        })
    }

    /// `topology` built at `graph_seed`, built on first request.
    ///
    /// # Errors
    ///
    /// Propagates [`Topology::build`] failures.
    pub fn graph(&self, topology: Topology, graph_seed: u64) -> Result<Arc<Graph>, GraphError> {
        Self::graph_of(&self.entry(topology, graph_seed), topology, graph_seed)
    }

    /// The context of `topology` built at `graph_seed`, computed on first
    /// request.
    ///
    /// # Errors
    ///
    /// Propagates generation and property failures.
    pub fn get(&self, topology: Topology, graph_seed: u64) -> Result<Arc<GraphContext>, CoreError> {
        let entry = self.entry(topology, graph_seed);
        once(&entry.context, || {
            let graph = Self::graph_of(&entry, topology, graph_seed)?;
            GraphContext::of(topology, graph).map(Arc::new)
        })
    }

    /// The isoperimetric number `i(G)` of `topology` built at
    /// `graph_seed`, estimated on first request at any scale:
    /// [`props::isoperimetric_estimate`] with the family's closed form,
    /// whose spectral rung runs its power iteration in a `graph-props`
    /// telemetry span. This is what lets the diffusion-family scenarios
    /// price their Lemma 4/5 bounds on 20 000-node graphs where the exact
    /// oracle is unreachable.
    ///
    /// # Errors
    ///
    /// Generation failures, and [`GraphError::Numeric`] when the spectral
    /// rung's power iteration does not converge.
    pub fn isoperimetric(&self, topology: Topology, graph_seed: u64) -> Result<f64, GraphError> {
        let entry = self.entry(topology, graph_seed);
        once(&entry.isoperimetric, || {
            let graph = Self::graph_of(&entry, topology, graph_seed)?;
            let hint = analytic::hints(&topology).isoperimetric;
            let estimate = props::isoperimetric_estimate(&graph, hint, || {
                let _span = Span::begin("graph-props")
                    .attr("topology", topology.to_string())
                    .attr("n", graph.n())
                    .attr("isoperimetric_method", "spectral");
                spectral_sparse::lazy_spectral_gap(&graph, POWER_TOL, POWER_ITERS)
            })?;
            Ok(estimate.value)
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
        assert!(Arc::ptr_eq(&a.graph, &contexts.graph(cycle, 1).unwrap()));
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
        // Failures are returned, not cached: the entry stays empty.
        let bad = Topology::RandomRegular { n: 5, d: 5 };
        assert!(contexts.get(bad, 0).is_err());
        assert!(contexts.isoperimetric(bad, 0).is_err());
        let entry = contexts.entry(bad, 0);
        assert!(entry.graph.lock().unwrap().is_none());
        assert!(entry.context.lock().unwrap().is_none());
    }

    #[test]
    fn isoperimetric_estimates_pick_the_right_oracle() {
        let contexts = GraphContexts::default();
        // Small graph: exact.
        let exact = contexts.isoperimetric(Topology::Cycle { n: 8 }, 0).unwrap();
        assert!((exact - 0.5).abs() < 1e-12, "C8 i(G) = 2/4, got {exact}");
        // Large known family: analytic closed form.
        let hinted = contexts
            .isoperimetric(Topology::Cycle { n: 4000 }, 0)
            .unwrap();
        assert!((hinted - 2.0 / 2000.0).abs() < 1e-12, "got {hinted}");
        // Large family without a closed form: the spectral bound, computed
        // once per graph.
        let topo = Topology::RandomRegular { n: 256, d: 4 };
        let spectral = contexts.isoperimetric(topo, 3).unwrap();
        let g = topo.build(3).unwrap();
        let expected = props::isoperimetric_estimate(&g, None, || {
            spectral_sparse::lazy_spectral_gap(&g, POWER_TOL, POWER_ITERS)
        })
        .unwrap();
        assert_eq!(spectral.to_bits(), expected.value.to_bits());
        assert_eq!(
            *contexts.entry(topo, 3).isoperimetric.lock().unwrap(),
            Some(spectral)
        );
        assert!(contexts
            .entry(topo, 4)
            .isoperimetric
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
