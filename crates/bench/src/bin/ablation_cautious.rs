//! Thin wrapper: `ablation_cautious [--quick] [options]` == `ale-lab run ablation-cautious ...`.
//!
//! **Ablation — cautious-broadcast reporting discipline.**
//! The experiment itself is the registered `ablation-cautious` scenario in
//! `ale_lab::scenarios`; every `ale-lab run` option (`--param`, `--seeds`,
//! `--workers`, `--out`, ...) passes through.

fn main() {
    std::process::exit(ale_lab::cli::legacy_main("ablation-cautious"));
}
