//! Aggregated graph properties and the knowledge bundle handed to
//! protocols.
//!
//! [`GraphProps::compute`] gathers everything the experiment harness needs
//! about a network: size, diameter, spectral gap, conductance `Φ`,
//! isoperimetric number `i(G)`, and mixing time `t_mix`. Each non-trivial
//! quantity records *how* it was obtained ([`Method`]) because the paper's
//! protocols only require bounds — and the harness must report which runs
//! used exact oracles versus spectral estimates.

use crate::analytic::{self, AnalyticHints};
use crate::cuts;
use crate::error::GraphError;
use crate::generators::Topology;
use crate::graph::Graph;
use crate::spectral_sparse::{self, POWER_ITERS, POWER_TOL};
use ale_markov::{mixing, MarkovChain};
use std::fmt;

/// How a property value was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Exact combinatorial/matrix computation.
    Exact,
    /// Closed form for a generated family ([`crate::analytic`]).
    Analytic,
    /// Spectral estimate (Cheeger-style band; the stored value is the
    /// conservative end appropriate for protocol inputs).
    Spectral,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::Exact => write!(f, "exact"),
            Method::Analytic => write!(f, "analytic"),
            Method::Spectral => write!(f, "spectral"),
        }
    }
}

/// A property value together with its provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The value.
    pub value: f64,
    /// How it was computed.
    pub method: Method,
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} ({})", self.value, self.method)
    }
}

/// Everything the harness knows about a network graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphProps {
    /// Number of nodes.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Exact diameter.
    pub diameter: usize,
    /// Second eigenvalue of the lazy random walk.
    pub lambda2: f64,
    /// Spectral gap `1 − λ₂`.
    pub spectral_gap: f64,
    /// Graph conductance `Φ(G)`.
    pub conductance: Estimate,
    /// Isoperimetric number `i(G)`.
    pub isoperimetric: Estimate,
    /// Upper bound on the paper's mixing time (exact when `method` is
    /// [`Method::Exact`]).
    pub tmix: u64,
    /// Provenance of `tmix`.
    pub tmix_method: Method,
}

/// Size limit for the exact `O(n³ log t)` mixing-time computation.
const EXACT_MIXING_LIMIT: usize = 128;

impl GraphProps {
    /// Computes all properties, without family hints.
    ///
    /// # Errors
    ///
    /// Propagates numeric failures from the spectral layer.
    pub fn compute(g: &Graph) -> Result<Self, GraphError> {
        Self::compute_inner(g, &AnalyticHints::default())
    }

    /// Computes all properties, preferring closed forms for the given
    /// topology family where available.
    ///
    /// # Errors
    ///
    /// Propagates numeric failures from the spectral layer.
    pub fn compute_for(g: &Graph, topology: &Topology) -> Result<Self, GraphError> {
        Self::compute_inner(g, &analytic::hints(topology))
    }

    /// The one `λ₂` power iteration behind every spectral field: the
    /// gap it yields also feeds the spectral `t_mix` bound.
    fn compute_inner(g: &Graph, hints: &AnalyticHints) -> Result<Self, GraphError> {
        let n = g.n();
        let lambda2 = spectral_sparse::lambda2_lazy(g, POWER_TOL, POWER_ITERS)?;
        let gap = 1.0 - lambda2;

        let conductance = if let Ok(v) = cuts::conductance_exact(g) {
            Estimate {
                value: v,
                method: Method::Exact,
            }
        } else if let Some(v) = hints.conductance {
            Estimate {
                value: v,
                method: Method::Analytic,
            }
        } else {
            // The lazy gap lower-bounds Φ; conservative for protocol use
            // (see `NetworkKnowledge`).
            Estimate {
                value: gap.max(f64::MIN_POSITIVE),
                method: Method::Spectral,
            }
        };

        let min_degree = (0..n).map(|v| g.degree(v)).min().unwrap_or(0);
        let isoperimetric = isoperimetric_estimate(g, hints.isoperimetric, || Ok(gap))?;

        let (tmix, tmix_method) = if n <= EXACT_MIXING_LIMIT {
            let chain = MarkovChain::lazy_random_walk(&g.adjacency())?;
            match mixing::mixing_time_exact(&chain, 1 << 34) {
                Ok(t) => (t, Method::Exact),
                Err(_) => (
                    spectral_sparse::mixing_time_upper(g, gap)?,
                    Method::Spectral,
                ),
            }
        } else if let Some(t) = hints.tmix_upper {
            // Both the hint and the spectral bound are upper bounds; take
            // the tighter one when both are cheap to get.
            let spectral = spectral_sparse::mixing_time_upper(g, gap)?;
            (t.min(spectral), Method::Analytic)
        } else {
            (
                spectral_sparse::mixing_time_upper(g, gap)?,
                Method::Spectral,
            )
        };

        Ok(GraphProps {
            n,
            m: g.m(),
            min_degree,
            max_degree: g.max_degree(),
            diameter: g.diameter(),
            lambda2,
            spectral_gap: gap,
            conductance,
            isoperimetric,
            tmix,
            tmix_method,
        })
    }
}

/// The isoperimetric number `i(G)` from the first oracle that answers: the
/// exact cut oracle up to its brute-force limit, the family's closed form
/// `hint`, then the spectral lower bound `i(G) ≥ Φ·d_min ≥ gap·d_min`.
/// `gap` yields the lazy walk's spectral gap `1 − λ₂` and is called only
/// on that last rung, so a caller without the gap in hand pays for the
/// power iteration only when it is needed.
///
/// # Errors
///
/// Whatever `gap` returns.
pub fn isoperimetric_estimate(
    g: &Graph,
    hint: Option<f64>,
    gap: impl FnOnce() -> Result<f64, GraphError>,
) -> Result<Estimate, GraphError> {
    if let Ok(value) = cuts::isoperimetric_exact(g) {
        return Ok(Estimate {
            value,
            method: Method::Exact,
        });
    }
    if let Some(value) = hint {
        return Ok(Estimate {
            value,
            method: Method::Analytic,
        });
    }
    let min_degree = (0..g.n()).map(|v| g.degree(v)).min().unwrap_or(0);
    Ok(Estimate {
        value: (gap()? * min_degree as f64).max(f64::MIN_POSITIVE),
        method: Method::Spectral,
    })
}

/// The knowledge bundle the paper's **irrevocable** protocol assumes
/// (Theorem 1: known `n`, conductance `Φ`, and mixing time `t_mix` — linear
/// upper bounds suffice).
///
/// Conservative directions: `tmix` may over-estimate (walks only get
/// longer) and `phi` may under-estimate (broadcast territories only get
/// smaller targets, compensated by more walks), so deriving from spectral
/// estimates preserves correctness at some message-cost overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkKnowledge {
    /// Number of nodes (exact in the known-`n` model).
    pub n: usize,
    /// Upper bound on the lazy-walk mixing time.
    pub tmix: u64,
    /// Conductance estimate (lower-bound flavored).
    pub phi: f64,
}

impl NetworkKnowledge {
    /// Extracts the protocol inputs from computed properties.
    pub fn from_props(p: &GraphProps) -> Self {
        NetworkKnowledge {
            n: p.n,
            tmix: p.tmix.max(1),
            phi: p.conductance.value.clamp(f64::MIN_POSITIVE, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn small_cycle_uses_exact_everything() {
        let g = generators::cycle(10).unwrap();
        let p = GraphProps::compute(&g).unwrap();
        assert_eq!(p.n, 10);
        assert_eq!(p.m, 10);
        assert_eq!(p.diameter, 5);
        assert_eq!(p.min_degree, 2);
        assert_eq!(p.max_degree, 2);
        assert_eq!(p.conductance.method, Method::Exact);
        assert_eq!(p.isoperimetric.method, Method::Exact);
        assert_eq!(p.tmix_method, Method::Exact);
        assert!((p.conductance.value - 0.2).abs() < 1e-12);
        assert!(p.spectral_gap > 0.0);
    }

    #[test]
    fn large_cycle_uses_hints() {
        let t = Topology::Cycle { n: 256 };
        let g = t.build(0).unwrap();
        let p = GraphProps::compute_for(&g, &t).unwrap();
        assert_eq!(p.conductance.method, Method::Analytic);
        assert!((p.conductance.value - 1.0 / 128.0).abs() < 1e-12);
        assert_eq!(p.tmix_method, Method::Analytic);
        assert!(p.tmix >= 256 * 4, "cycle tmix should be at least ~n^2/16");
    }

    #[test]
    fn large_random_regular_uses_spectral() {
        let t = Topology::RandomRegular { n: 200, d: 4 };
        let g = t.build(5).unwrap();
        let p = GraphProps::compute_for(&g, &t).unwrap();
        assert_eq!(p.conductance.method, Method::Spectral);
        assert!(p.conductance.value > 0.0);
        // Expanders mix fast: spectral bound should be well below n.
        assert!(p.tmix < 200, "expander tmix bound too large: {}", p.tmix);
    }

    #[test]
    fn knowledge_extraction_is_sane() {
        let t = Topology::Complete { n: 32 };
        let g = t.build(0).unwrap();
        let p = GraphProps::compute_for(&g, &t).unwrap();
        let k = NetworkKnowledge::from_props(&p);
        assert_eq!(k.n, 32);
        assert!(k.tmix >= 1);
        assert!(k.phi > 0.0 && k.phi <= 1.0);
    }

    #[test]
    fn estimates_display() {
        let e = Estimate {
            value: 0.5,
            method: Method::Spectral,
        };
        assert!(e.to_string().contains("spectral"));
        assert_eq!(Method::Exact.to_string(), "exact");
        assert_eq!(Method::Analytic.to_string(), "analytic");
    }

    #[test]
    fn props_bits_are_pinned() {
        // One graph per t_mix path past the exact limit: the analytic hint
        // (min'd with the spectral bound) and the pure spectral bound, both
        // from the gap of the single λ₂ iteration.
        let cycle = Topology::Cycle { n: 256 };
        let p = GraphProps::compute_for(&cycle.build(1).unwrap(), &cycle).unwrap();
        assert_eq!(
            p.lambda2.to_bits(),
            0x3feffec42a535362,
            "λ₂ = {}",
            p.lambda2
        );
        assert_eq!((p.tmix, p.tmix_method), (41_423, Method::Analytic));

        let rings = Topology::RingOfCliques { cliques: 32, k: 8 };
        let p = GraphProps::compute_for(&rings.build(1).unwrap(), &rings).unwrap();
        assert_eq!((p.tmix, p.tmix_method), (23_779, Method::Spectral));

        let expander = Topology::RandomRegular { n: 256, d: 4 };
        let p = GraphProps::compute_for(&expander.build(1).unwrap(), &expander).unwrap();
        assert_eq!(
            p.lambda2.to_bits(),
            0x3fedb89887924f38,
            "λ₂ = {}",
            p.lambda2
        );
        assert_eq!((p.tmix, p.tmix_method), (88, Method::Spectral));
        assert_eq!(
            p.conductance,
            Estimate {
                value: 0.07121633073031663,
                method: Method::Spectral,
            }
        );
    }

    #[test]
    fn exact_tmix_is_pinned() {
        // Table 1's n = 64 suite at graph seed 1: every family is within
        // the exact limit. The ring of cliques is irregular, so it takes
        // the stationary-distribution branch of the exact computation.
        for (topology, tmix) in [
            (Topology::Complete { n: 64 }, 7),
            (Topology::Hypercube { dim: 6 }, 15),
            (Topology::RandomRegular { n: 64, d: 4 }, 29),
            (
                Topology::Grid2d {
                    rows: 8,
                    cols: 8,
                    torus: true,
                },
                29,
            ),
            (Topology::RingOfCliques { cliques: 8, k: 8 }, 367),
            (Topology::Cycle { n: 64 }, 582),
        ] {
            let p = GraphProps::compute_for(&topology.build(1).unwrap(), &topology).unwrap();
            assert_eq!((p.tmix, p.tmix_method), (tmix, Method::Exact), "{topology}");
        }
    }

    #[test]
    fn tmix_exact_on_exactly_computable_sizes() {
        let g = generators::hypercube(4).unwrap(); // n = 16
        let p = GraphProps::compute(&g).unwrap();
        assert_eq!(p.tmix_method, Method::Exact);
        // Lazy Q4 mixes quickly but not instantly.
        assert!(p.tmix >= 2 && p.tmix <= 64, "tmix = {}", p.tmix);
    }
}
