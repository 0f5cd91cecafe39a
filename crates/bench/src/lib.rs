//! # ale-bench — criterion microbenchmarks
//!
//! This crate holds no library code: it exists to host the criterion
//! benches in `benches/`, each timing one protocol or substrate kernel
//! in isolation. Every experiment (table or figure) runs through the
//! single `ale-lab` CLI (`ale-lab run <scenario>`), and the in-process
//! bench ledger is `ale-lab bench`.
//!
//! | bench | times |
//! |-------|-------|
//! | `simulator` | raw CONGEST round throughput, arena engine vs the reference engine |
//! | `graph_props` | graph property computation |
//! | `cautious` | single-candidate cautious broadcast (Lemma 1) |
//! | `walks` | the random-walk probing phase in isolation (Lemma 2) |
//! | `diffusion` | `Avg` diffusion steps, dense vs sparse backend (Lemmas 3–4) |
//! | `irrevocable` | full irrevocable elections (Theorem 1) |
//! | `revocable` | revocable elections to stabilization (Theorem 3) |
//!
//! Run one with `cargo bench -p ale-bench --bench simulator`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
