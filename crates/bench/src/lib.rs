//! # ale-bench — experiment harness
//!
//! Regenerates every table and figure of Kowalski & Mosteiro (ICDCS 2021)
//! plus the lemma-level experiments in the table below. Since the
//! `ale-lab` subsystem landed, each experiment is a registered
//! [`ale_lab::Scenario`]; the binaries in `src/bin/` are thin wrappers
//! over `ale-lab run <scenario>`, kept for muscle memory:
//!
//! | binary | scenario | experiment |
//! |--------|----------|------------|
//! | `table1` | `table1` | Table 1 shootout: this work vs baselines |
//! | `fig_scaling` | `scaling` | message-complexity exponents (Theorem 1) |
//! | `fig_revocable` | `revocable` | revocable LE cost growth (Theorem 3 / Cor. 1) |
//! | `fig_impossibility` | `impossibility` | split-brain series (Theorem 2) |
//! | `fig_cautious` | `cautious` | cautious-broadcast cost/coverage (Lemma 1) |
//! | `fig_walks` | `walks` | walk hitting rates vs `x` (Lemma 2) |
//! | `fig_diffusion` | `diffusion` | diffusion convergence (Lemmas 3–4) |
//! | `fig_thresholds` | `thresholds` | `τ(k)` detection (Lemma 5) |
//! | `fig_certification` | `certification` | white-iteration counting (Lemmas 6–8) |
//! | `fig_phases` | `phases` | per-phase message anatomy |
//! | `ablation_cautious` | `ablation-cautious` | report-discipline ablation |
//!
//! The shared plumbing ([`runners`], [`table`], [`fit`], the fleet) moved
//! into `ale-lab`; this crate re-exports it so historical paths keep
//! working. Criterion benches (`benches/`) time the same workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod runners;
pub mod sweep;
pub mod table;

pub use fit::{exponent_close, power_fit, PowerFit};
pub use runners::{Algorithm, CellSummary, GraphContext};
pub use table::Table;
