//! # ale-impossibility — the pumping-wheel construction of Theorem 2
//!
//! Section 5.1 of Kowalski & Mosteiro (ICDCS 2021) proves that **no**
//! algorithm solves Irrevocable Leader Election in bounded time `T(n)`
//! without knowing the network size, via a probabilistic *pumping-wheel*
//! argument on long cycles. This crate reproduces both halves of that
//! argument:
//!
//! * [`witness`] — the combinatorial geometry of Figures 1–2: witnesses
//!   and their cores on `C_N`, with the layout the proof uses checked by
//!   tests.
//! * [`experiment`] — the phenomenon itself, empirically: run a stop-by-`T`
//!   algorithm (the repo's Theorem 1 protocol, configured for a believed
//!   size `n₀`) on `C_N` with `N ≫ n₀` and watch distant regions elect
//!   separate leaders; the split-brain rate grows with `N/n₀`.
//!
//! ## Example
//!
//! ```
//! use ale_impossibility::experiment::split_brain_trial;
//!
//! // Believe the cycle has 12 nodes; it actually has 96.
//! let trial = split_brain_trial(12, 96, 1)?;
//! // Usually several leaders are elected (whp as N grows — Theorem 2).
//! let leaders = &trial.outcome.leaders;
//! println!("{} leaders at positions {leaders:?}", leaders.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod witness;

pub use experiment::{
    believed_cycle_knowledge, run_with_believed_knowledge, split_brain_series, split_brain_trial,
    SplitBrainPoint, SplitBrainTrial,
};
pub use witness::{PumpingLayout, Witness};
