//! The composed irrevocable leader-election process (paper Algorithm 1).
//!
//! Phase schedule (identical at every node, computed from the shared
//! knowledge `(n, t_mix, Φ, c, x)`):
//!
//! 1. **ID + candidacy** (local, during construction): ID uniform in
//!    `{1..n⁴}`; candidate with probability `c·ln n / n`.
//! 2. **Cautious broadcast**, `c·t_mix·log n` steps per execution,
//!    multiplexed into super-rounds of `4c·log n` slots (paper Section 4,
//!    "Candidate nodes span their territories") — wall-clock
//!    `O(t_mix·log² n)` rounds, the dominant term of Theorem 1's time.
//! 3. **Random-walk probing**: each candidate launches `x` lazy tokens that
//!    carry (and merge to) the largest walk ID (Algorithm 5).
//! 4. **Convergecast** of the largest walk ID along every broadcast tree.
//!    Values are forwarded on change, matching the message accounting of
//!    Theorem 1's proof (the pseudocode's retransmit-every-round variant
//!    would inflate messages past the claimed bound).
//! 5. **Decision**: a candidate raises its flag iff it never saw a walk ID
//!    above its own.

use super::cautious::{CbBody, ExecState};
use super::msg::IrrMsg;
use super::ProtocolParams;
use ale_congest::{Incoming, NodeCtx, OutCtx, Process};
use ale_graph::Port;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// Final per-node result of the irrevocable protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeVerdict {
    /// Whether the node stood as a candidate.
    pub candidate: bool,
    /// The node's random ID (drawn from `{1..n⁴}`).
    pub id: u64,
    /// Whether the node raised the leader flag.
    pub leader: bool,
    /// Largest walk ID the node observed (None if no walk reached it).
    pub observed_walk_max: Option<u64>,
}

/// Execution phase, derived from the global round number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Broadcast,
    Walk,
    Converge,
    Decide,
    Done,
}

/// One node's state machine for the whole irrevocable protocol.
#[derive(Debug, Clone)]
pub struct IrrevocableProcess {
    params: ProtocolParams,
    id: u64,
    candidate: bool,
    // Cautious broadcast (phase 2).
    exec_order: Vec<u64>,
    execs: BTreeMap<u64, ExecState>,
    buffers: BTreeMap<u64, Vec<(Port, CbBody)>>,
    // Random walks (phase 3).
    tokens: u64,
    walk_id_max: Option<u64>,
    // Convergecast (phase 4).
    parent_ports: BTreeSet<Port>,
    last_converged: Option<u64>,
    // Decision (phase 5).
    leader: bool,
    halted: bool,
}

impl IrrevocableProcess {
    /// Creates a node, drawing its ID and candidacy from `rng` exactly as
    /// Algorithm 1 lines 2–3 prescribe.
    pub fn new(params: ProtocolParams, rng: &mut StdRng) -> Self {
        let id = rng.gen_range(1..=params.id_space);
        let candidate = rng.gen_bool(params.candidate_probability);
        Self::with_candidacy(params, id, candidate)
    }

    /// Creates a node with forced ID/candidacy — used by the lemma-level
    /// experiments (e.g. a single-candidate cautious-broadcast run for
    /// Lemma 1) and by tests. Not part of the protocol itself.
    pub fn with_candidacy(params: ProtocolParams, id: u64, candidate: bool) -> Self {
        IrrevocableProcess {
            params,
            id,
            candidate,
            exec_order: Vec::new(),
            execs: BTreeMap::new(),
            buffers: BTreeMap::new(),
            tokens: 0,
            walk_id_max: if candidate { Some(id) } else { None },
            parent_ports: BTreeSet::new(),
            last_converged: None,
            leader: false,
            halted: false,
        }
    }

    /// The node's random ID.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Execution ids (candidate IDs) whose territory this node joined —
    /// the candidate's "broadcast territory" membership used by the
    /// Lemma 1/2 experiments.
    pub fn known_sources(&self) -> Vec<u64> {
        self.execs.keys().copied().collect()
    }

    /// Tree parent port for execution `src`, if this node is a member.
    pub fn tree_parent(&self, src: u64) -> Option<Port> {
        self.execs.get(&src).and_then(ExecState::parent)
    }

    fn phase(&self, round: u64) -> Phase {
        let p = &self.params;
        if self.halted {
            Phase::Done
        } else if round < p.broadcast_rounds {
            Phase::Broadcast
        } else if round < p.broadcast_rounds + p.walk_rounds {
            Phase::Walk
        } else if round < p.broadcast_rounds + p.walk_rounds + p.converge_rounds {
            Phase::Converge
        } else {
            Phase::Decide
        }
    }

    fn absorb_inbox(&mut self, inbox: &[Incoming<IrrMsg>]) {
        for m in inbox {
            match &m.msg {
                IrrMsg::Cb { src, body } => {
                    if let Some(state) = self.execs.get_mut(src) {
                        let _ = state; // buffered for slot-time processing
                        self.buffers
                            .entry(*src)
                            .or_default()
                            .push((m.port, body.clone()));
                    } else if matches!(body, CbBody::Invite) {
                        // First invitation for an unknown execution: adopt
                        // the sender as parent (paper: the first inviter
                        // wins; later invites are handled by the state).
                        let mut state = ExecState::new_member(
                            m.port,
                            self.params.degree,
                            self.params.final_threshold,
                        );
                        state.set_discipline(self.params.report_discipline);
                        self.execs.insert(*src, state);
                        self.exec_order.push(*src);
                    }
                    // Non-invite messages for unknown executions cannot
                    // occur (only tree members are addressed); ignore.
                }
                IrrMsg::Walk { id_max, count } => {
                    self.tokens += count;
                    self.observe_walk_id(*id_max);
                }
                IrrMsg::Converge { id_max } => {
                    self.observe_walk_id(*id_max);
                }
            }
        }
    }

    fn observe_walk_id(&mut self, id: u64) {
        if self.walk_id_max.is_none_or(|cur| id > cur) {
            self.walk_id_max = Some(id);
        }
    }

    fn broadcast_round(&mut self, round: u64, rng: &mut StdRng, out: &mut OutCtx<'_, IrrMsg>) {
        if round == 0 && self.candidate {
            let mut root = ExecState::new_root(self.params.degree, self.params.final_threshold);
            root.set_discipline(self.params.report_discipline);
            self.execs.insert(self.id, root);
            self.exec_order.push(self.id);
        }
        let slot = (round % self.params.slots) as usize;
        let Some(&src) = self.exec_order.get(slot) else {
            return;
        };
        let state = self.execs.get_mut(&src).expect("exec_order tracks execs");
        if let Some(pending) = self.buffers.remove(&src) {
            for (port, body) in pending {
                state.on_message(port, &body);
            }
        }
        for (port, body) in state.step(rng) {
            out.send(port, IrrMsg::Cb { src, body });
        }
    }

    /// The first broadcast round from `round` on whose slot steps an
    /// execution that would act — one with buffered messages or a
    /// non-quiescent state — or the start of the walk phase if none will.
    /// Only the first `slots` executions of `exec_order` are ever stepped.
    fn next_busy_slot(&self, round: u64) -> u64 {
        let slots = self.params.slots;
        let super_round = round - round % slots;
        self.exec_order
            .iter()
            .take(slots as usize)
            .enumerate()
            .filter(|(_, src)| self.buffers.contains_key(src) || !self.execs[src].is_quiescent())
            .map(|(slot, _)| {
                let r = super_round + slot as u64;
                if r < round {
                    r + slots
                } else {
                    r
                }
            })
            .fold(self.params.broadcast_rounds, u64::min)
    }

    fn walk_round(&mut self, first: bool, rng: &mut StdRng, out: &mut OutCtx<'_, IrrMsg>) {
        let degree = self.params.degree;
        let mut moving: Vec<u64> = vec![0; degree];
        if first {
            if !self.candidate {
                return;
            }
            // Algorithm 5 lines 4–6: the candidate launches x tokens to
            // uniformly random neighbors.
            for _ in 0..self.params.x {
                moving[rng.gen_range(0..degree)] += 1;
            }
        } else {
            // Lazy step: each resident token stays with probability 1/2.
            let resident = self.tokens;
            let mut stayed = 0u64;
            for _ in 0..resident {
                if rng.gen_bool(0.5) {
                    stayed += 1;
                } else {
                    moving[rng.gen_range(0..degree)] += 1;
                }
            }
            self.tokens = stayed;
        }
        let id_max = match self.walk_id_max {
            Some(id) => id,
            None => return, // no tokens can be here without an ID
        };
        for (port, count) in moving.into_iter().enumerate() {
            if count > 0 {
                out.send(port, IrrMsg::Walk { id_max, count });
            }
        }
    }

    fn converge_round(&mut self, first: bool, out: &mut OutCtx<'_, IrrMsg>) {
        if first {
            self.parent_ports = self.execs.values().filter_map(ExecState::parent).collect();
        }
        let Some(id_max) = self.walk_id_max else {
            return;
        };
        if self.last_converged == Some(id_max) {
            return;
        }
        self.last_converged = Some(id_max);
        for &p in &self.parent_ports {
            out.send(p, IrrMsg::Converge { id_max });
        }
    }
}

impl Process for IrrevocableProcess {
    type Msg = IrrMsg;
    type Output = NodeVerdict;

    fn round(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        inbox: &[Incoming<IrrMsg>],
        out: &mut OutCtx<'_, IrrMsg>,
    ) {
        debug_assert_eq!(ctx.degree, self.params.degree, "degree mismatch");
        self.absorb_inbox(inbox);
        let p = &self.params;
        match self.phase(ctx.round) {
            Phase::Broadcast => self.broadcast_round(ctx.round, ctx.rng, out),
            Phase::Walk => {
                let first = ctx.round == p.broadcast_rounds;
                self.walk_round(first, ctx.rng, out)
            }
            Phase::Converge => {
                let first = ctx.round == p.broadcast_rounds + p.walk_rounds;
                self.converge_round(first, out)
            }
            Phase::Decide => {
                // Algorithm 1 line 7: leader ⇔ own ID is the largest walk
                // ID observed (candidates only; walk IDs are candidate IDs).
                self.leader = self.candidate && self.walk_id_max == Some(self.id);
                self.halted = true;
            }
            Phase::Done => {}
        }
    }

    fn is_halted(&self) -> bool {
        self.halted
    }

    /// Mirrors `round`'s guards phase by phase: round 0, the first walk
    /// round at a candidate, the first convergecast round and the decision
    /// round always act; otherwise a broadcast round acts only in a busy
    /// slot, a walk round only with resident tokens, and a convergecast
    /// round only with an unforwarded walk ID.
    fn quiet_until(&self, round: u64) -> u64 {
        let p = &self.params;
        let walk = p.broadcast_rounds;
        let converge = walk + p.walk_rounds;
        match self.phase(round) {
            Phase::Broadcast if round > 0 => self.next_busy_slot(round),
            Phase::Walk if !(round == walk && self.candidate) && self.tokens == 0 => converge,
            Phase::Converge
                if round > converge
                    && (self.walk_id_max.is_none() || self.walk_id_max == self.last_converged) =>
            {
                converge + p.converge_rounds
            }
            _ => round,
        }
    }

    fn output(&self) -> NodeVerdict {
        NodeVerdict {
            candidate: self.candidate,
            id: self.id,
            leader: self.leader,
            observed_walk_max: self.walk_id_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irrevocable::IrrevocableConfig;
    use ale_graph::NetworkKnowledge;
    use rand::SeedableRng;

    fn params(degree: usize) -> ProtocolParams {
        let cfg = IrrevocableConfig::from_knowledge(NetworkKnowledge {
            n: 16,
            tmix: 4,
            phi: 0.5,
        });
        cfg.protocol_params(degree).unwrap()
    }

    /// Runs one round against a collector, returning the sends — the
    /// unit-test stand-in for the old `Outbox` return value.
    fn drive(
        proc: &mut IrrevocableProcess,
        ctx: &mut NodeCtx<'_>,
        inbox: &[Incoming<IrrMsg>],
    ) -> Vec<(usize, IrrMsg)> {
        let mut sent = Vec::new();
        proc.round(ctx, inbox, &mut OutCtx::collector(ctx.degree, &mut sent));
        sent
    }

    #[test]
    fn candidate_creates_root_execution_at_round_zero() {
        let mut proc = IrrevocableProcess::with_candidacy(params(3), 99, true);
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = NodeCtx {
            degree: 3,
            round: 0,
            rng: &mut rng,
        };
        drive(&mut proc, &mut ctx, &[]);
        assert_eq!(proc.known_sources(), vec![99]);
        assert!(!proc.is_halted());
    }

    #[test]
    fn invitation_creates_member_state() {
        let mut proc = IrrevocableProcess::with_candidacy(params(2), 5, false);
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = NodeCtx {
            degree: 2,
            round: 0,
            rng: &mut rng,
        };
        let invite = Incoming {
            port: 1,
            msg: IrrMsg::Cb {
                src: 42,
                body: CbBody::Invite,
            },
        };
        drive(&mut proc, &mut ctx, &[invite]);
        assert_eq!(proc.known_sources(), vec![42]);
        assert_eq!(proc.tree_parent(42), Some(1));
    }

    #[test]
    fn walk_tokens_merge_and_track_max() {
        let mut proc = IrrevocableProcess::with_candidacy(params(2), 5, false);
        let mut rng = StdRng::seed_from_u64(0);
        let p = params(2);
        let walk_start = p.broadcast_rounds;
        let mut ctx = NodeCtx {
            degree: 2,
            round: walk_start + 1,
            rng: &mut rng,
        };
        let inbox = [
            Incoming {
                port: 0,
                msg: IrrMsg::Walk {
                    id_max: 7,
                    count: 3,
                },
            },
            Incoming {
                port: 1,
                msg: IrrMsg::Walk {
                    id_max: 11,
                    count: 2,
                },
            },
        ];
        let out = drive(&mut proc, &mut ctx, &inbox);
        // 5 tokens arrived; some stay, some move; all carry id 11.
        let moved: u64 = out
            .iter()
            .map(|(_, m)| match m {
                IrrMsg::Walk { count, .. } => *count,
                _ => 0,
            })
            .sum();
        assert_eq!(moved + proc.tokens, 5);
        for (_, m) in &out {
            if let IrrMsg::Walk { id_max, .. } = m {
                assert_eq!(*id_max, 11);
            }
        }
    }

    #[test]
    fn candidate_launches_exactly_x_tokens() {
        let p = params(4);
        let mut proc = IrrevocableProcess::with_candidacy(p, 5, true);
        let mut rng = StdRng::seed_from_u64(3);
        let mut ctx = NodeCtx {
            degree: 4,
            round: p.broadcast_rounds,
            rng: &mut rng,
        };
        let out = drive(&mut proc, &mut ctx, &[]);
        let launched: u64 = out
            .iter()
            .map(|(_, m)| match m {
                IrrMsg::Walk { count, .. } => *count,
                _ => 0,
            })
            .sum();
        assert_eq!(launched, p.x);
    }

    #[test]
    fn converge_sends_only_on_change() {
        let p = params(2);
        let mut proc = IrrevocableProcess::with_candidacy(p, 5, false);
        // Join a tree first so there is a parent port.
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx0 = NodeCtx {
            degree: 2,
            round: 0,
            rng: &mut rng,
        };
        drive(
            &mut proc,
            &mut ctx0,
            &[Incoming {
                port: 0,
                msg: IrrMsg::Cb {
                    src: 42,
                    body: CbBody::Invite,
                },
            }],
        );
        let conv_start = p.broadcast_rounds + p.walk_rounds;
        // First converge round with a walk ID observed.
        let mut ctx1 = NodeCtx {
            degree: 2,
            round: conv_start,
            rng: &mut rng,
        };
        let out = drive(
            &mut proc,
            &mut ctx1,
            &[Incoming {
                port: 1,
                msg: IrrMsg::Walk {
                    id_max: 9,
                    count: 1,
                },
            }],
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, IrrMsg::Converge { id_max: 9 }));
        // Unchanged value: silence.
        let mut ctx2 = NodeCtx {
            degree: 2,
            round: conv_start + 1,
            rng: &mut rng,
        };
        assert!(drive(&mut proc, &mut ctx2, &[]).is_empty());
        // Larger value arrives: resend.
        let mut ctx3 = NodeCtx {
            degree: 2,
            round: conv_start + 2,
            rng: &mut rng,
        };
        let out = drive(
            &mut proc,
            &mut ctx3,
            &[Incoming {
                port: 1,
                msg: IrrMsg::Converge { id_max: 12 },
            }],
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, IrrMsg::Converge { id_max: 12 }));
    }

    #[test]
    fn decision_round_halts_and_decides() {
        let p = params(2);
        let total = p.broadcast_rounds + p.walk_rounds + p.converge_rounds;
        let mut cand = IrrevocableProcess::with_candidacy(p, 5, true);
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = NodeCtx {
            degree: 2,
            round: total,
            rng: &mut rng,
        };
        drive(&mut cand, &mut ctx, &[]);
        assert!(cand.is_halted());
        // Candidate that never saw a bigger walk ID is the leader.
        assert!(cand.output().leader);

        let p2 = params(2);
        let mut loser = IrrevocableProcess::with_candidacy(p2, 5, true);
        let mut ctx2 = NodeCtx {
            degree: 2,
            round: total,
            rng: &mut rng,
        };
        drive(
            &mut loser,
            &mut ctx2,
            &[Incoming {
                port: 0,
                msg: IrrMsg::Converge { id_max: 999 },
            }],
        );
        assert!(loser.is_halted());
        assert!(!loser.output().leader);
        assert_eq!(loser.output().observed_walk_max, Some(999));
    }

    #[test]
    fn executions_past_the_slots_are_still_joined() {
        // Every node of a complete(12) is a candidate, but c = 0.25 leaves
        // only ⌈4c·log₂ 12⌉ = 4 slots per super-round, so each node joins
        // more executions than it can ever step.
        let g = ale_graph::generators::complete(12).unwrap();
        let mut cfg = IrrevocableConfig::from_knowledge(NetworkKnowledge {
            n: 12,
            tmix: 200,
            phi: 1.0,
        });
        cfg.c = 0.25;
        assert_eq!(cfg.slots(), 4);
        let procs = (0..12)
            .map(|v| {
                IrrevocableProcess::with_candidacy(cfg.protocol_params(11).unwrap(), v + 1, true)
            })
            .collect();
        let mut net = ale_congest::Network::new(&g, procs, 1, 64).unwrap();
        net.run_for(cfg.broadcast_rounds()).unwrap();
        for p in net.processes() {
            let joined = p.known_sources().len() as u64;
            assert!(joined > 4, "joined {joined}");
            assert_eq!(p.exec_order.len() as u64, joined);
        }
    }

    #[test]
    fn non_candidate_never_leads() {
        let p = params(2);
        let total = p.broadcast_rounds + p.walk_rounds + p.converge_rounds;
        let mut proc = IrrevocableProcess::with_candidacy(p, 5, false);
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = NodeCtx {
            degree: 2,
            round: total,
            rng: &mut rng,
        };
        drive(&mut proc, &mut ctx, &[]);
        assert!(!proc.output().leader);
        assert!(!proc.output().candidate);
    }
}
