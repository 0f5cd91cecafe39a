//! Gilbert–Robinson–Sourav (PODC 2018) style random-walk baseline.
//!
//! The comparison target of Theorem 1: implicit leader election with known
//! `n` using `O(t_mix·√n·log^{7/2} n)` messages (\[10\] in the paper). The
//! defining structural difference from this paper's protocol is the
//! **absence of cautious-broadcast territories**: candidates must detect
//! each other purely through random-walk token meetings (birthday-paradox
//! style), which costs a `√n·polylog` *per-candidate* token budget instead
//! of `x = Θ̃(√(n/(Φ·t_mix)))` total walks probing pre-built territories.
//!
//! Faithful-shape reproduction:
//!
//! * candidates stand with probability `c·ln n/n` and draw IDs in `{1..n⁴}`;
//! * each candidate launches `b = ⌈√n·log₂ n⌉` lazy-walk tokens of length
//!   `c·t_mix·log₂ n`, so any two candidates' token clouds meet whp once
//!   mixed (`b²/n ≈ log² n` expected collisions per round);
//! * every node stores the largest token ID it has hosted; a token entering
//!   a node that has hosted a larger ID **dies**, and a kill report retraces
//!   the token's recorded path back to its origin (nodes keep per-token
//!   back-pointers), clearing the loser's flag — implicit election without
//!   any broadcast structure;
//! * messages per link per round carry one `(id, count)` batch per walking
//!   ID, as in the paper's CONGEST encoding of merged walks.

use ale_congest::message::{bits_for_u64, Payload};
use ale_congest::{congest_budget, Incoming, Network, NodeCtx, OutCtx, Process};
use ale_core::{CoreError, ElectionOutcome};
use ale_graph::{Graph, Port};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Configuration of the GRS-style baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertConfig {
    /// Known network size.
    pub n: usize,
    /// Mixing-time upper bound (drives walk length, as in \[10\]'s phases).
    pub tmix: u64,
    /// Constant in walk length and candidate probability.
    pub c: f64,
    /// CONGEST budget factor.
    pub congest_factor: usize,
}

impl GilbertConfig {
    /// Builds a config from knowledge `(n, t_mix)`.
    pub fn new(n: usize, tmix: u64) -> Self {
        GilbertConfig {
            n,
            tmix: tmix.max(1),
            c: 2.0,
            congest_factor: 8,
        }
    }

    /// `⌈log₂ n⌉`, at least 1.
    fn log2_n(&self) -> u64 {
        if self.n <= 1 {
            1
        } else {
            (usize::BITS - (self.n - 1).leading_zeros()) as u64
        }
    }

    /// Tokens per candidate: `⌈√n·log₂ n⌉`.
    pub fn tokens_per_candidate(&self) -> u64 {
        (((self.n as f64).sqrt() * self.log2_n() as f64).ceil() as u64).max(1)
    }

    /// Walk length `⌈c·t_mix·log₂ n⌉`.
    pub fn walk_length(&self) -> u64 {
        ((self.c * self.tmix as f64 * self.log2_n() as f64).ceil() as u64).max(1)
    }

    /// Candidate probability `min(1, c·ln n/n)`.
    pub fn candidate_probability(&self) -> f64 {
        let n = self.n as f64;
        (self.c * n.ln().max(1.0) / n).min(1.0)
    }

    /// Total protocol rounds: dispersal, retrace (bounded by the dispersal
    /// length along well-founded back-chains), port-conflict retry slack,
    /// and the decision round.
    pub fn total_rounds(&self) -> u64 {
        2 * self.walk_length() + 8
    }
}

/// Messages of the GRS-style baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrsMsg {
    /// `count` tokens of candidate `id` moving through this port.
    Tokens {
        /// Candidate ID the tokens carry.
        id: u64,
        /// Number of tokens in the batch.
        count: u64,
    },
    /// A kill report retracing towards the origin of candidate `id`.
    Kill {
        /// The killed candidate's ID.
        id: u64,
    },
}

impl Payload for GrsMsg {
    fn bit_size(&self) -> usize {
        match self {
            GrsMsg::Tokens { id, count } => 1 + bits_for_u64(*id) + bits_for_u64(*count),
            GrsMsg::Kill { id } => 1 + bits_for_u64(*id),
        }
    }
}

/// One node of the GRS-style baseline.
#[derive(Debug, Clone)]
pub struct GilbertProcess {
    cfg: GilbertConfig,
    candidate: bool,
    id: u64,
    /// Largest token ID this node has hosted.
    best_hosted: Option<u64>,
    /// Resident token counts per candidate ID.
    resident: BTreeMap<u64, u64>,
    /// Back-pointer: for candidate `id`, the port its tokens first arrived
    /// through. First-arrival chains are well-founded (each hop points to a
    /// strictly earlier hosting), so following them always reaches the
    /// origin.
    back: BTreeMap<u64, Port>,
    /// Kill reports to forward next round, with their next hop.
    kill_queue: Vec<(Port, u64)>,
    alive: bool,
    leader: bool,
    halted: bool,
}

impl GilbertProcess {
    /// Creates a node, drawing candidacy and ID.
    pub fn new(cfg: GilbertConfig, rng: &mut StdRng) -> Self {
        let candidate = rng.gen_bool(cfg.candidate_probability());
        let id_space = (cfg.n as u64).saturating_pow(4).max(2);
        let id = rng.gen_range(1..=id_space);
        GilbertProcess {
            cfg,
            candidate,
            id,
            best_hosted: candidate.then_some(id),
            resident: BTreeMap::new(),
            back: BTreeMap::new(),
            kill_queue: Vec::new(),
            alive: candidate,
            leader: false,
            halted: false,
        }
    }

    fn host(&mut self, id: u64, count: u64, from: Option<Port>) {
        // Kill rule: a token entering a node that hosted a bigger ID dies,
        // and a report retraces its path, starting back through the port
        // the dying token arrived on.
        if let Some(best) = self.best_hosted {
            if id < best {
                if self.candidate && self.id == id {
                    // The loser learns immediately at home.
                    self.alive = false;
                } else if let Some(p) = from {
                    self.kill_queue.push((p, id));
                }
                return;
            }
        }
        self.best_hosted = Some(self.best_hosted.map_or(id, |b| b.max(id)));
        if let Some(p) = from {
            self.back.entry(id).or_insert(p);
        }
        *self.resident.entry(id).or_insert(0) += count;
    }
}

impl Process for GilbertProcess {
    type Msg = GrsMsg;
    type Output = (bool, bool); // (candidate, leader)

    fn round(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        inbox: &[Incoming<GrsMsg>],
        out: &mut OutCtx<'_, GrsMsg>,
    ) {
        for m in inbox {
            match m.msg {
                GrsMsg::Tokens { id, count } => self.host(id, count, Some(m.port)),
                GrsMsg::Kill { id } => {
                    if self.candidate && self.id == id {
                        self.alive = false;
                    } else if let Some(&p) = self.back.get(&id) {
                        self.kill_queue.push((p, id));
                    }
                    // A kill for an ID we never hosted and do not own has
                    // lost its trail (cannot happen along well-founded
                    // back-chains); dropping is safe.
                }
            }
        }

        let walk_len = self.cfg.walk_length();
        let total = self.cfg.total_rounds();

        if ctx.round >= total {
            self.leader = self.candidate && self.alive;
            self.halted = true;
            return;
        }

        // Forward kill reports one hop toward their next stops. Duplicate
        // (port, id) pairs collapse; port conflicts retry next round to
        // respect the one-message-per-port rule.
        self.kill_queue.sort_unstable();
        self.kill_queue.dedup();
        let mut port_used: BTreeMap<Port, ()> = BTreeMap::new();
        for (p, id) in std::mem::take(&mut self.kill_queue) {
            if port_used.insert(p, ()).is_none() {
                out.send(p, GrsMsg::Kill { id });
            } else {
                self.kill_queue.push((p, id));
            }
        }

        if ctx.round == 0 && self.candidate {
            // Launch b tokens to random neighbors.
            let mut moving: BTreeMap<Port, u64> = BTreeMap::new();
            for _ in 0..self.cfg.tokens_per_candidate() {
                *moving.entry(ctx.rng.gen_range(0..ctx.degree)).or_insert(0) += 1;
            }
            for (port, count) in moving {
                if !port_used.contains_key(&port) {
                    out.send(port, GrsMsg::Tokens { id: self.id, count });
                }
            }
            return;
        }

        if ctx.round < walk_len {
            // Lazy walk step for all resident tokens. CONGEST discipline:
            // at most one ID batch per port per round; surplus IDs wait
            // (rare — merged clouds dominate quickly).
            let resident = std::mem::take(&mut self.resident);
            let mut staying: BTreeMap<u64, u64> = BTreeMap::new();
            let mut moving: BTreeMap<(Port, u64), u64> = BTreeMap::new();
            for (id, count) in resident {
                for _ in 0..count {
                    if ctx.rng.gen_bool(0.5) {
                        *staying.entry(id).or_insert(0) += 1;
                    } else {
                        let p = ctx.rng.gen_range(0..ctx.degree);
                        *moving.entry((p, id)).or_insert(0) += 1;
                    }
                }
            }
            for ((port, id), count) in moving {
                if port_used.contains_key(&port) {
                    *staying.entry(id).or_insert(0) += count;
                    continue;
                }
                port_used.insert(port, ());
                out.send(port, GrsMsg::Tokens { id, count });
            }
            self.resident = staying;
        }
    }

    fn is_halted(&self) -> bool {
        self.halted
    }

    fn output(&self) -> (bool, bool) {
        (self.candidate, self.leader)
    }
}

/// Runs the GRS-style baseline.
///
/// # Errors
///
/// Propagates simulator errors; [`CoreError::InvalidConfig`] on a size
/// mismatch.
pub fn run_gilbert(
    graph: &Graph,
    cfg: &GilbertConfig,
    seed: u64,
) -> Result<ElectionOutcome, CoreError> {
    if graph.n() != cfg.n {
        return Err(CoreError::InvalidConfig {
            reason: format!("config n = {} but graph has {}", cfg.n, graph.n()),
        });
    }
    let budget = congest_budget(cfg.n, cfg.congest_factor);
    let cfg_copy = *cfg;
    let mut net = Network::from_fn(graph, seed, budget, |_deg, rng| {
        GilbertProcess::new(cfg_copy, rng)
    });
    let status = net.run_to_halt(cfg.total_rounds() + 4)?;
    let outputs = net.outputs();
    let leaders = outputs
        .iter()
        .enumerate()
        .filter(|(_, (_, l))| *l)
        .map(|(i, _)| i)
        .collect();
    let candidates = outputs
        .iter()
        .enumerate()
        .filter(|(_, (c, _))| *c)
        .map(|(i, _)| i)
        .collect();
    Ok(ElectionOutcome::new(
        leaders,
        candidates,
        *net.metrics(),
        status,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ale_core::SuccessStats;
    use ale_graph::generators;

    #[test]
    fn config_scales() {
        let cfg = GilbertConfig::new(100, 8);
        assert_eq!(cfg.tokens_per_candidate(), 70); // ceil(10 * 7)
        assert!(cfg.walk_length() >= 8);
        assert!(cfg.total_rounds() > cfg.walk_length());
    }

    #[test]
    fn elects_at_most_one_leader_and_usually_exactly_one() {
        let g = generators::random_regular(48, 4, 3).unwrap();
        let cfg = GilbertConfig::new(48, 8);
        let mut stats = SuccessStats::default();
        for seed in 0..25 {
            let o = run_gilbert(&g, &cfg, seed).unwrap();
            stats.record(&o);
        }
        assert!(
            stats.success_rate() > 0.8,
            "success {}/{} (none: {}, multi: {})",
            stats.unique,
            stats.runs,
            stats.none,
            stats.multiple
        );
    }

    #[test]
    fn token_budget_exceeds_ours() {
        // The GRS-shape baseline needs √n·log n tokens *per candidate*;
        // the paper's protocol uses x = Θ̃(√(n/(Φ t_mix))) *total* walks on
        // a well-connected graph. This asymmetry is Table 1's message gap.
        let cfg = GilbertConfig::new(1024, 4);
        assert!(cfg.tokens_per_candidate() >= 320);
    }

    #[test]
    fn kill_reports_clear_losers() {
        // On a small dense graph every loser should be reached whp.
        let g = generators::complete(24).unwrap();
        let cfg = GilbertConfig::new(24, 2);
        let mut split = 0;
        for seed in 0..25 {
            let o = run_gilbert(&g, &cfg, seed).unwrap();
            if o.leader_count() > 1 {
                split += 1;
            }
        }
        assert!(split <= 1, "split brain in {split}/25 runs on K24");
    }

    #[test]
    fn rejects_wrong_size() {
        let g = generators::cycle(6).unwrap();
        let cfg = GilbertConfig::new(60, 4);
        assert!(run_gilbert(&g, &cfg, 0).is_err());
    }
}
