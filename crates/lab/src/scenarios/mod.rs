//! The built-in scenario library: every table, figure, and ablation of
//! the reproduction as a data-driven spec over the lab's grid × seed-fleet
//! engine.

use crate::runners::GraphContexts;
use crate::scenario::LabError;
use ale_graph::props::{self, Estimate};
use ale_graph::spectral_sparse::{self, POWER_ITERS, POWER_TOL};
use ale_graph::{analytic, Graph, Topology, IMPLICIT_THRESHOLD};

mod ablation;
mod cautious;
mod certification;
mod diffusion;
mod impossibility;
mod phases;
pub(crate) mod revocable;
mod scaling;
mod table1;
mod thresholds;
mod walks;

pub use ablation::AblationCautious;
pub use cautious::Cautious;
pub use certification::Certification;
pub use diffusion::Diffusion;
pub use impossibility::Impossibility;
pub use phases::Phases;
pub use revocable::Revocable;
pub use scaling::Scaling;
pub use table1::Table1;
pub use thresholds::Thresholds;
pub use walks::Walks;

/// Isoperimetric-number estimate that works at any scale:
/// [`props::isoperimetric_estimate`] with the topology family's closed
/// form, whose spectral fallback runs its power iteration in a
/// `graph-props` telemetry span. This is what lets the diffusion-family
/// scenarios price their Lemma 4/5 bounds on 20 000-node graphs where the
/// exact oracle is unreachable.
///
/// `graph` is `topo` built at `graph_seed`. The run's `memo` keeps each
/// graph's estimate, so the grid points that share a graph run its power
/// iteration once.
///
/// # Errors
///
/// [`LabError::Graph`] when the spectral fallback's power iteration does
/// not converge.
pub(crate) fn isoperimetric_estimate(
    memo: &GraphContexts<Estimate>,
    graph: &Graph,
    topo: Topology,
    graph_seed: u64,
) -> Result<f64, LabError> {
    let estimate = memo.get_or_build(topo, graph_seed, || {
        let hint = analytic::hints(&topo).isoperimetric;
        props::isoperimetric_estimate(graph, hint, || {
            let _span = ale_telemetry::Span::begin("graph-props")
                .attr("topology", topo.to_string())
                .attr("n", graph.n())
                .attr("isoperimetric_method", "spectral");
            spectral_sparse::lazy_spectral_gap(graph, POWER_TOL, POWER_ITERS)
        })
    })?;
    Ok(estimate.value)
}

/// The large-n sparse-topology ladder the diffusion-family scenarios share:
/// for each requested `n`, a torus (side `⌊√n⌋`), a ring, and a
/// well-connected sparse family — the three conductance regimes
/// (`Θ(1/√n)`, `Θ(1/n)`, `Θ(1)`-ish) at the same scale.
///
/// Below [`IMPLICIT_THRESHOLD`] the well-connected rung is a 4-regular
/// random graph (expander). At and above it, the pairing-model builder's
/// `O(m)` edge lists and retry loop are the memory and time bottleneck, so
/// the rung switches to cube-connected cycles (degree-3 vertex-transitive,
/// diameter `O(log n)`) with `dim` chosen so `dim·2^dim` is closest to the
/// requested `n` — every rung of the big ladder then has an O(1)-memory
/// implicit backend.
pub(crate) fn large_n_topologies(ns: &[usize]) -> Vec<Topology> {
    let mut topos = Vec::with_capacity(ns.len() * 3);
    for &n in ns {
        let side = (n as f64).sqrt().floor() as usize;
        if side >= 3 {
            topos.push(Topology::Grid2d {
                rows: side,
                cols: side,
                torus: true,
            });
        }
        if n >= 3 {
            topos.push(Topology::Cycle { n });
        }
        if n >= IMPLICIT_THRESHOLD {
            topos.push(Topology::Ccc {
                dim: nearest_ccc_dim(n),
            });
        } else if n >= 6 {
            topos.push(Topology::RandomRegular { n, d: 4 });
        }
    }
    topos
}

/// The CCC dimension whose node count `dim·2^dim` is closest to `n`.
fn nearest_ccc_dim(n: usize) -> usize {
    (3..=24)
        .min_by_key(|&dim| ((dim << dim) as i128 - n as i128).unsigned_abs())
        .expect("non-empty dim range")
}

#[cfg(test)]
mod shared_tests {
    use super::*;

    #[test]
    fn isoperimetric_estimate_picks_the_right_oracle() {
        let memo = GraphContexts::default();
        // Small graph: exact.
        let topo = Topology::Cycle { n: 8 };
        let g = topo.build(0).unwrap();
        let exact = isoperimetric_estimate(&memo, &g, topo, 0).unwrap();
        assert!((exact - 0.5).abs() < 1e-12, "C8 i(G) = 2/4, got {exact}");
        // Large known family: analytic closed form.
        let topo = Topology::Cycle { n: 4000 };
        let g = topo.build(0).unwrap();
        let hinted = isoperimetric_estimate(&memo, &g, topo, 0).unwrap();
        assert!((hinted - 2.0 / 2000.0).abs() < 1e-12, "got {hinted}");
        // Large family without a closed form: positive spectral bound.
        let topo = Topology::RandomRegular { n: 256, d: 4 };
        let g = topo.build(3).unwrap();
        let spectral = isoperimetric_estimate(&memo, &g, topo, 3).unwrap();
        assert!(spectral > 0.0);
    }

    #[test]
    fn isoperimetric_estimates_build_once_per_graph() {
        let memo = GraphContexts::default();
        let topo = Topology::RandomRegular { n: 256, d: 4 };
        let g = topo.build(3).unwrap();
        let first = isoperimetric_estimate(&memo, &g, topo, 3).unwrap();
        let expected = props::isoperimetric_estimate(&g, None, || {
            spectral_sparse::lazy_spectral_gap(&g, POWER_TOL, POWER_ITERS)
        })
        .unwrap();
        assert_eq!(first.to_bits(), expected.value.to_bits());
        // A later point on the same graph reads the stored estimate: a
        // second build would have to return this error.
        let fail = || {
            Err(ale_graph::GraphError::Numeric {
                reason: "rebuilt".into(),
            })
        };
        let again = memo.get_or_build(topo, 3, fail).unwrap();
        assert_eq!(*again, expected);
        // Another graph seed is another graph.
        assert!(memo.get_or_build(topo, 4, fail).is_err());
    }

    #[test]
    fn large_n_ladder_covers_three_regimes() {
        let topos = large_n_topologies(&[20_000]);
        assert_eq!(topos.len(), 3);
        assert!(matches!(
            topos[0],
            Topology::Grid2d {
                rows: 141,
                cols: 141,
                torus: true
            }
        ));
        assert!(matches!(topos[1], Topology::Cycle { n: 20_000 }));
        assert!(matches!(
            topos[2],
            Topology::RandomRegular { n: 20_000, d: 4 }
        ));
        assert!(large_n_topologies(&[]).is_empty());
    }

    #[test]
    fn big_rungs_swap_the_expander_for_cube_connected_cycles() {
        // At and above the implicit threshold the well-connected rung must
        // be a CCC (O(1)-memory backend), with dim·2^dim closest to n.
        let topos = large_n_topologies(&[200_000, 1_000_000]);
        assert_eq!(topos.len(), 6);
        assert!(matches!(topos[2], Topology::Ccc { dim: 14 })); // 14·2^14 = 229 376
        assert!(matches!(topos[5], Topology::Ccc { dim: 16 })); // 16·2^16 = 1 048 576
        assert_eq!(nearest_ccc_dim(IMPLICIT_THRESHOLD), 13); // 13·2^13 = 106 496
    }
}
