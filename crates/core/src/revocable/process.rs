//! The revocable leader-election process (paper Algorithms 6–7).
//!
//! Every node runs the same estimate-doubling schedule, so the whole
//! network is in lockstep at the same `(k, iteration, phase round)` at all
//! times — which is what makes the synchronous diffusion of `Avg` well
//! defined. One iteration at estimate `k` spans `r(k) + diss(k)` rounds:
//!
//! ```text
//! round   0 .. r(k)-1        diffusion sends (absorb previous exchange)
//! round   r(k)               threshold check τ(k), dissemination send 0
//! round   r(k)+1 .. +diss(k) dissemination sends / merges
//! round   r(k)+diss(k)       iteration tally; possibly the decision phase
//!                            (= round 0 of the next iteration)
//! ```
//!
//! The process **never halts** — revocable leader election (Definition 2)
//! allows leadership to change; the harness decides when the network has
//! stabilized (see [`run_revocable`](super::run_revocable)).
//!
//! One deviation from the listing, following the analysis instead: the
//! pseudocode places the `Φ > τ(k)` check inside the diffusion loop, but
//! black nodes start at `Φ = 1 > τ(k)`, so a per-round check would flag
//! every node low immediately and the infection would never clear —
//! contradicting Lemmas 5–8, which evaluate the threshold **at the end of
//! the diffusion phase**. We check at the end.

use super::msg::RevMsg;
use super::params::RevocableParams;
use super::record::{merge_view, LeaderRecord};
use ale_congest::{Incoming, NodeCtx, OutCtx, Process};
use rand::rngs::StdRng;
use rand::Rng;

/// Observable state of a revocable node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RevocableVerdict {
    /// The chosen ID, if the node has decided.
    pub id: Option<u128>,
    /// The certificate (estimate `k`) under which the ID was chosen.
    pub cert: Option<u64>,
    /// Whether the node currently considers itself the leader.
    pub leader: bool,
    /// The node's current view of the best leader record.
    pub view: Option<LeaderRecord>,
    /// The node's current estimate `k`.
    pub k: u64,
    /// How many times this node's leader view changed after first being
    /// set — observed **revocations**, the phenomenon Definition 2 admits.
    pub revocations: u64,
}

// Boolean state, bit-packed into one byte (the memory-diet layout: at
// n = 10⁶ nodes every `Vec<RevocableProcess>` byte is a megabyte).
const FLAG_STARTED: u8 = 1 << 0;
const FLAG_LINGERING: u8 = 1 << 1;
const FLAG_FROZEN: u8 = 1 << 2;
const FLAG_WHITE: u8 = 1 << 3;
const FLAG_LOW: u8 = 1 << 4;
const FLAG_WHITE_SEEN: u8 = 1 << 5;

/// One node's state machine for Blind Leader Election with Certificates via
/// Diffusion with Thresholds.
///
/// # Memory layout
///
/// The struct is on a diet (`size_of` is pinned by a regression test): the
/// six boolean flags pack into one byte, the degree is `u32` (node ids are
/// `u32` engine-wide), and the per-estimate derived constants
/// (`k^{1+ε}`, `τ(k)`, the potential word width) are cached at estimate
/// boundaries instead of being recomputed from `powf`/`log2` every round —
/// the single biggest CPU cost in large-n ladder runs.
#[derive(Debug, Clone)]
pub struct RevocableProcess {
    params: RevocableParams,
    degree: u32,
    /// Bit-packed booleans (`FLAG_*`).
    flags: u8,
    /// Host-side simulation horizon: the largest estimate to execute.
    /// `None` = run forever (the true protocol). When the estimate doubles
    /// past the horizon the process first **lingers** — it keeps
    /// broadcasting dissemination messages for one dissemination length of
    /// the final executed estimate, so records chosen at the horizon still
    /// spread exactly as the real protocol's next estimate would spread
    /// them — then freezes. This is **not** part of the protocol, only the
    /// harness's way of bounding a simulation whose later estimates cost
    /// `Ω(k^{2(2+ε)})` rounds each.
    horizon: Option<u64>,
    linger_left: u64,
    // Estimate-level state.
    k: u64,
    f_k: u64,
    r_k: u64,
    diss_k: u64,
    iter: u64,
    phase_round: u64,
    // Derived per-estimate constants, recomputed only when `k` changes
    // (identical values to evaluating the formulas every round — f64
    // arithmetic is deterministic).
    k_pow: f64,
    tau_k: f64,
    /// Potential word width `⌈log₂(2k^{1+ε})⌉` (≥ 1) for bit accounting.
    word: u8,
    // Iteration-level state.
    potential: f64,
    // Estimate-level tallies.
    empty_count: u64,
    probing_count: u64,
    // Global decision state.
    id: Option<u128>,
    cert: Option<u64>,
    view: Option<LeaderRecord>,
    revocations: u64,
}

/// Bit-by-bit potential word width `⌈log₂(2k^{1+ε})⌉`, at least 1. For
/// any `u64` estimate and `ε ≤ 1`, `2k^{1+ε} < 2^{129}`, so the width is
/// at most 129 and fits the `u8`.
fn word_width(k_pow: f64) -> u8 {
    (2.0 * k_pow).log2().ceil().max(1.0) as u8
}

impl RevocableProcess {
    /// Creates a node. The protocol uses **no** network knowledge — only
    /// the node's degree (its port count) and private randomness.
    pub fn new(params: RevocableParams, degree: usize) -> Self {
        Self::with_horizon(params, degree, None)
    }

    /// Creates a node that freezes once its estimate doubles past
    /// `horizon` — the harness's simulation cutoff (see the field docs).
    ///
    /// # Panics
    ///
    /// Panics if `degree` exceeds `u32::MAX`. The node's rounds panic once
    /// a diffusion send index passes `u32::MAX`; a horizon accepted by
    /// [`RevocableParams::check_horizon`] never gets there.
    pub fn with_horizon(params: RevocableParams, degree: usize, horizon: Option<u64>) -> Self {
        let k_pow = params.k_pow(2);
        RevocableProcess {
            params,
            degree: degree.try_into().expect("degree fits in u32"),
            flags: 0,
            horizon,
            linger_left: 0,
            k: 2,
            f_k: params.f(2),
            r_k: params.r(2),
            diss_k: params.dissemination(2),
            iter: 0,
            phase_round: 0,
            k_pow,
            tau_k: params.tau(2),
            word: word_width(k_pow),
            potential: 1.0,
            empty_count: 0,
            probing_count: 0,
            id: None,
            cert: None,
            view: None,
            revocations: 0,
        }
    }

    fn flag(&self, bit: u8) -> bool {
        self.flags & bit != 0
    }

    fn set_flag(&mut self, bit: u8, value: bool) {
        if value {
            self.flags |= bit;
        } else {
            self.flags &= !bit;
        }
    }

    /// The node's leader view once it has chosen an ID, `None` before:
    /// what the stabilization oracle compares across nodes.
    pub(super) fn settled_view(&self) -> Option<LeaderRecord> {
        self.id.and(self.view)
    }

    /// Merges an incoming record, counting view *changes after the first
    /// adoption* as revocations.
    fn merge_and_count(&mut self, incoming: Option<&LeaderRecord>) {
        let had = self.view.is_some();
        if merge_view(&mut self.view, incoming) && had {
            self.revocations += 1;
        }
    }

    fn start_iteration(&mut self, rng: &mut StdRng) {
        // Algorithm 6 line 10: white with probability p(k).
        let white = rng.gen_bool(self.params.p(self.k).clamp(0.0, 1.0));
        self.set_flag(FLAG_WHITE, white);
        // Algorithm 7 lines 2–4.
        self.set_flag(FLAG_WHITE_SEEN, white);
        self.set_flag(FLAG_LOW, false);
        self.potential = if white { 0.0 } else { 1.0 };
    }

    fn advance_estimate(&mut self, rng: &mut StdRng) {
        // Decision phase (Algorithm 6 lines 14–17).
        if self.id.is_none() && 2 * self.empty_count > self.f_k && self.probing_count > 0 {
            let range = self.params.id_range(self.k);
            let chosen = rng.gen_range(1..=range);
            self.id = Some(chosen);
            self.cert = Some(self.k);
            merge_view(&mut self.view, Some(&LeaderRecord::new(self.k, chosen)));
        }
        self.k *= 2;
        if self.horizon.is_some_and(|h| self.k > h) {
            // Drain phase: spread final records for one dissemination
            // length of the last executed estimate (k/2), then freeze.
            self.set_flag(FLAG_LINGERING, true);
            self.linger_left = 2 * self.params.dissemination(self.k / 2) + 2;
            return;
        }
        self.f_k = self.params.f(self.k);
        self.r_k = self.params.r(self.k);
        self.diss_k = self.params.dissemination(self.k);
        self.k_pow = self.params.k_pow(self.k);
        self.tau_k = self.params.tau(self.k);
        self.word = word_width(self.k_pow);
        self.iter = 0;
        self.empty_count = 0;
        self.probing_count = 0;
    }

    fn absorb(&mut self, inbox: &[Incoming<RevMsg>]) {
        if !self.flag(FLAG_STARTED) || self.phase_round == 0 {
            return;
        }
        if self.phase_round <= self.r_k {
            // Diffusion exchange `phase_round - 1`.
            let mut sum_in = 0.0;
            let mut any_low = false;
            let mut count = 0usize;
            for m in inbox {
                if let RevMsg::Diffuse {
                    potential,
                    low,
                    view,
                    ..
                } = &m.msg
                {
                    sum_in += potential;
                    any_low |= low;
                    count += 1;
                    self.merge_and_count(view.as_ref());
                }
            }
            // On the synchronous engines `count == degree` (lockstep
            // exchange); under the asynchronous adversary messages may be
            // dropped, duplicated, or delayed, so the averaging simply
            // folds in whatever arrived — the potential leak that drops
            // introduce is exactly what a fault sweep measures.
            let _ = count;
            // Algorithm 7 lines 7–9: averaging only while everyone probes
            // and the degree fits the estimate.
            let k_pow = self.k_pow;
            if !self.flag(FLAG_LOW) && (self.degree as f64) <= k_pow && !any_low {
                let alpha = 1.0 / (2.0 * k_pow);
                self.potential += alpha * sum_in - alpha * self.degree as f64 * self.potential;
            } else {
                self.set_flag(FLAG_LOW, true);
                self.potential = 1.0;
            }
        } else {
            // Dissemination merge (Algorithm 7 lines 16–21).
            let mut low = self.flag(FLAG_LOW);
            let mut white_seen = self.flag(FLAG_WHITE_SEEN);
            for m in inbox {
                if let RevMsg::Disseminate {
                    low: l,
                    white,
                    view,
                } = &m.msg
                {
                    low |= l;
                    white_seen |= white;
                    self.merge_and_count(view.as_ref());
                }
            }
            self.set_flag(FLAG_LOW, low);
            self.set_flag(FLAG_WHITE_SEEN, white_seen);
        }
    }

    fn diffuse_msg(&self) -> RevMsg {
        RevMsg::Diffuse {
            potential: self.potential,
            low: self.flag(FLAG_LOW),
            white: self.flag(FLAG_WHITE),
            view: self.view,
            // Bit-by-bit potential width at send index `phase_round`
            // (1-indexed in the paper's accounting) times the cached
            // per-estimate `⌈log₂(2k^{1+ε})⌉`.
            index: u32::try_from(self.phase_round + 1)
                .expect("send index fits u32: RevocableParams::check_horizon bounds the horizon"),
            word: self.word,
        }
    }

    fn disseminate_msg(&self) -> RevMsg {
        RevMsg::Disseminate {
            low: self.flag(FLAG_LOW),
            white: self.flag(FLAG_WHITE_SEEN),
            view: self.view,
        }
    }
}

impl Process for RevocableProcess {
    type Msg = RevMsg;
    type Output = RevocableVerdict;

    fn round(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        inbox: &[Incoming<RevMsg>],
        out: &mut OutCtx<'_, RevMsg>,
    ) {
        debug_assert_eq!(ctx.degree, self.degree as usize);
        if self.flag(FLAG_FROZEN) {
            return;
        }
        if self.flag(FLAG_LINGERING) {
            // Horizon drain: merge views from anything still arriving and
            // keep disseminating the final record.
            for m in inbox {
                match &m.msg {
                    RevMsg::Diffuse { view, .. } | RevMsg::Disseminate { view, .. } => {
                        self.merge_and_count(view.as_ref());
                    }
                }
            }
            if self.linger_left == 0 {
                self.set_flag(FLAG_FROZEN, true);
                return;
            }
            self.linger_left -= 1;
            out.broadcast(self.disseminate_msg());
            return;
        }
        self.absorb(inbox);

        if !self.flag(FLAG_STARTED) {
            self.set_flag(FLAG_STARTED, true);
            self.start_iteration(ctx.rng);
            out.broadcast(self.diffuse_msg());
            self.phase_round = 1;
            return;
        }

        if self.phase_round < self.r_k {
            out.broadcast(self.diffuse_msg());
            self.phase_round += 1;
            return;
        }

        if self.phase_round == self.r_k {
            // End-of-diffusion threshold detection (Lemma 5's check).
            if self.potential > self.tau_k {
                self.set_flag(FLAG_LOW, true);
                self.potential = 1.0;
            }
            out.broadcast(self.disseminate_msg());
            self.phase_round += 1;
            return;
        }

        if self.phase_round < self.r_k + self.diss_k {
            out.broadcast(self.disseminate_msg());
            self.phase_round += 1;
            return;
        }

        // phase_round == r_k + diss_k: iteration boundary.
        if !self.flag(FLAG_WHITE_SEEN) {
            self.empty_count += 1;
        }
        if !self.flag(FLAG_LOW) {
            self.probing_count += 1;
        }
        self.iter += 1;
        if self.iter >= self.f_k {
            self.advance_estimate(ctx.rng);
            if self.flag(FLAG_LINGERING) {
                self.linger_left -= 1;
                out.broadcast(self.disseminate_msg());
                return;
            }
        }
        self.start_iteration(ctx.rng);
        out.broadcast(self.diffuse_msg());
        self.phase_round = 1;
    }

    fn is_halted(&self) -> bool {
        // The protocol never halts (Definition 2); freezing is purely the
        // harness's simulation cutoff.
        self.flag(FLAG_FROZEN)
    }

    fn output(&self) -> RevocableVerdict {
        let own = match (self.cert, self.id) {
            (Some(c), Some(i)) => Some(LeaderRecord::new(c, i)),
            _ => None,
        };
        RevocableVerdict {
            id: self.id,
            cert: self.cert,
            leader: own.is_some() && own == self.view,
            view: self.view,
            k: self.k,
            revocations: self.revocations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_params() -> RevocableParams {
        RevocableParams::paper_blind(0.5, 0.2).with_scales(0.001, 0.05)
    }

    fn ctx<'a>(rng: &'a mut StdRng, degree: usize, round: u64) -> NodeCtx<'a> {
        NodeCtx { degree, round, rng }
    }

    /// Runs one round against a collector, returning the sends — the
    /// unit-test stand-in for the old `Outbox` return value.
    fn drive(
        p: &mut RevocableProcess,
        ctx: &mut NodeCtx<'_>,
        inbox: &[Incoming<RevMsg>],
    ) -> Vec<(usize, RevMsg)> {
        let mut sent = Vec::new();
        p.round(ctx, inbox, &mut OutCtx::collector(ctx.degree, &mut sent));
        sent
    }

    #[test]
    fn first_round_broadcasts_diffusion_to_all_ports() {
        let mut p = RevocableProcess::new(small_params(), 3);
        let mut rng = StdRng::seed_from_u64(0);
        let out = drive(&mut p, &mut ctx(&mut rng, 3, 0), &[]);
        assert_eq!(out.len(), 3);
        for (_, m) in &out {
            assert!(matches!(m, RevMsg::Diffuse { .. }));
        }
        assert_eq!(p.k, 2);
        assert_eq!(p.iter, 0);
    }

    #[test]
    fn potential_initialization_matches_color() {
        let mut p = RevocableProcess::new(small_params(), 2);
        let mut rng = StdRng::seed_from_u64(1);
        drive(&mut p, &mut ctx(&mut rng, 2, 0), &[]);
        if p.flag(FLAG_WHITE) {
            assert_eq!(p.potential, 0.0);
        } else {
            assert_eq!(p.potential, 1.0);
        }
    }

    #[test]
    fn diffusion_averages_neighbors() {
        let params = small_params();
        let mut p = RevocableProcess::new(params, 2);
        let mut rng = StdRng::seed_from_u64(3);
        drive(&mut p, &mut ctx(&mut rng, 2, 0), &[]); // send #0
        let before = p.potential;
        let mk = |potential| Incoming {
            port: 0,
            msg: RevMsg::Diffuse {
                potential,
                low: false,
                white: false,
                view: None,
                index: 1,
                word: 4,
            },
        };
        let inbox = [mk(0.0), mk(0.0)];
        let inbox: Vec<_> = inbox
            .into_iter()
            .enumerate()
            .map(|(i, mut m)| {
                m.port = i;
                m
            })
            .collect();
        drive(&mut p, &mut ctx(&mut rng, 2, 1), &inbox);
        let k_pow = params.k_pow(2);
        let alpha = 1.0 / (2.0 * k_pow);
        let expected = before + alpha * 0.0 - alpha * 2.0 * before;
        assert!((p.potential - expected).abs() < 1e-12);
        assert!(!p.flag(FLAG_LOW));
    }

    #[test]
    fn low_neighbor_infects() {
        let mut p = RevocableProcess::new(small_params(), 1);
        let mut rng = StdRng::seed_from_u64(3);
        drive(&mut p, &mut ctx(&mut rng, 1, 0), &[]);
        let inbox = [Incoming {
            port: 0,
            msg: RevMsg::Diffuse {
                potential: 1.0,
                low: true,
                white: false,
                view: None,
                index: 1,
                word: 4,
            },
        }];
        drive(&mut p, &mut ctx(&mut rng, 1, 1), &inbox);
        assert!(p.flag(FLAG_LOW));
        assert_eq!(p.potential, 1.0);
    }

    #[test]
    fn oversized_degree_flags_low() {
        // degree 9 > 2^{1.5} ≈ 2.83 at k = 2.
        let mut p = RevocableProcess::new(small_params(), 9);
        let mut rng = StdRng::seed_from_u64(5);
        drive(&mut p, &mut ctx(&mut rng, 9, 0), &[]);
        let inbox: Vec<_> = (0..9)
            .map(|i| Incoming {
                port: i,
                msg: RevMsg::Diffuse {
                    potential: 0.0,
                    low: false,
                    white: false,
                    view: None,
                    index: 1,
                    word: 4,
                },
            })
            .collect();
        drive(&mut p, &mut ctx(&mut rng, 9, 1), &inbox);
        assert!(p.flag(FLAG_LOW), "degree above k^{{1+eps}} must flag low");
    }

    #[test]
    fn never_halts() {
        let p = RevocableProcess::new(small_params(), 2);
        assert!(!p.is_halted(), "revocable processes must not halt");
    }

    #[test]
    fn view_merge_updates_leader_flag() {
        let mut p = RevocableProcess::new(small_params(), 1);
        let mut rng = StdRng::seed_from_u64(5);
        drive(&mut p, &mut ctx(&mut rng, 1, 0), &[]);
        // Simulate having chosen an ID.
        p.id = Some(10);
        p.cert = Some(4);
        p.view = Some(LeaderRecord::new(4, 10));
        assert!(p.output().leader);
        // A better record arrives via diffusion: leadership revoked.
        let inbox = [Incoming {
            port: 0,
            msg: RevMsg::Diffuse {
                potential: 0.5,
                low: false,
                white: false,
                view: Some(LeaderRecord::new(8, 999)),
                index: 1,
                word: 4,
            },
        }];
        drive(&mut p, &mut ctx(&mut rng, 1, 1), &inbox);
        assert!(!p.output().leader, "bigger certificate must revoke");
        assert_eq!(p.output().view, Some(LeaderRecord::new(8, 999)));
    }

    #[test]
    fn schedule_advances_through_iterations_and_estimates() {
        let params = small_params();
        let mut p = RevocableProcess::new(params, 1);
        let mut rng = StdRng::seed_from_u64(9);
        let quiet = |pot| Incoming {
            port: 0,
            msg: RevMsg::Diffuse {
                potential: pot,
                low: false,
                white: false,
                view: None,
                index: 1,
                word: 4,
            },
        };
        let diss = Incoming {
            port: 0,
            msg: RevMsg::Disseminate {
                low: false,
                white: false,
                view: None,
            },
        };
        let per_iter = params.r(2) + params.dissemination(2);
        let total = params.f(2) * per_iter + 2;
        let mut round = 0u64;
        drive(&mut p, &mut ctx(&mut rng, 1, round), &[]);
        round += 1;
        for _ in 0..total {
            let inbox: Vec<Incoming<RevMsg>> = if p.phase_round <= p.r_k && p.phase_round >= 1 {
                vec![quiet(p.potential)]
            } else {
                vec![diss.clone()]
            };
            drive(&mut p, &mut ctx(&mut rng, 1, round), &inbox);
            round += 1;
        }
        assert!(p.k >= 4, "estimate must have advanced, k = {}", p.k);
    }

    #[test]
    fn memory_diet_struct_sizes_are_pinned() {
        // At n = 10⁶ nodes, every byte of `RevocableProcess` is a megabyte
        // of RSS and every byte of `RevMsg` is ~4 MB of delivery arena on a
        // torus. These budgets are the memory-diet contract; raising them
        // is a deliberate decision, not drive-by field growth.
        use std::mem::size_of;
        assert!(
            size_of::<RevocableProcess>() <= 304,
            "RevocableProcess grew to {} bytes",
            size_of::<RevocableProcess>()
        );
        // The message copies every engine stages, sorts and delivers: the
        // certificate's niche makes `None` free, and no field needs
        // 16-byte alignment.
        assert_eq!(size_of::<Option<LeaderRecord>>(), 24);
        assert_eq!(size_of::<RevMsg>(), 40);
        assert_eq!(size_of::<Incoming<RevMsg>>(), 48);
    }

    #[test]
    fn flag_packing_roundtrips() {
        let mut p = RevocableProcess::new(small_params(), 2);
        assert!(!p.flag(FLAG_LOW) && !p.flag(FLAG_WHITE));
        p.set_flag(FLAG_LOW, true);
        p.set_flag(FLAG_WHITE, true);
        assert!(p.flag(FLAG_LOW) && p.flag(FLAG_WHITE));
        p.set_flag(FLAG_LOW, false);
        assert!(
            !p.flag(FLAG_LOW) && p.flag(FLAG_WHITE),
            "flags are independent"
        );
    }

    #[test]
    fn cached_estimate_constants_match_the_formulas() {
        let params = small_params();
        let p = RevocableProcess::new(params, 2);
        assert_eq!(p.k_pow, params.k_pow(2));
        assert_eq!(p.tau_k, params.tau(2));
        assert_eq!(
            usize::from(p.word),
            (2.0 * params.k_pow(2)).log2().ceil().max(1.0) as usize
        );
    }

    #[test]
    fn verdict_reports_current_state() {
        let p = RevocableProcess::new(small_params(), 2);
        let v = p.output();
        assert_eq!(v.k, 2);
        assert_eq!(v.id, None);
        assert!(!v.leader);
        assert_eq!(v.view, None);
    }
}
