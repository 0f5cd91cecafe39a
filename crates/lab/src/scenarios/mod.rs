//! The built-in scenario library: every table, figure, and ablation of
//! the reproduction as a data-driven spec over the lab's grid × seed-fleet
//! engine.

use ale_graph::{Topology, IMPLICIT_THRESHOLD};

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
