//! # ale-baselines — comparator leader-election protocols
//!
//! The related-work baselines the paper's Table 1 compares against, built
//! on the same anonymous CONGEST simulator as the main protocols so that
//! message/round counts are directly comparable:
//!
//! * [`flood_max`] — flood-max with known `n` and `D`, on one process:
//!   the folklore all-nodes flood, and Kutten et al. (J.ACM'15, \[16\])
//!   style candidate flooding, which is flood-max among random candidates
//!   that stand with probability `min(1, c·ln n/n)`. Few candidates and
//!   on-change forwarding over `D` rounds are why the latter sits in
//!   Table 1's `O(m)`-message, `O(D)`-round row.
//! * [`gilbert`] — Gilbert–Robinson–Sourav (PODC'18, \[10\]) style random-walk
//!   token election: `O(t_mix·√n·polylog n)` messages with known `n` —
//!   the direct comparison target of Theorem 1.
//!
//! ## Example
//!
//! ```
//! use ale_baselines::flood_max::{run_flood_max, FloodMaxConfig};
//! use ale_graph::generators;
//!
//! let g = generators::hypercube(4)?;
//! let cfg = FloodMaxConfig::new(g.n(), g.diameter() as u64);
//! let outcome = run_flood_max(&g, &cfg, 3)?;
//! assert_eq!(outcome.leader_count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flood_max;
pub mod gilbert;

pub use flood_max::{run_flood_max, Candidacy, FloodMaxConfig};
pub use gilbert::{run_gilbert, GilbertConfig};
