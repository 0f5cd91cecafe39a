//! The **Cautious Broadcast** per-execution state machine
//! (paper Algorithms 2–4).
//!
//! A candidate spans a bounded "territory" tree: growth is throttled by
//! doubling thresholds on *confirmed* subtree sizes, so the tree never
//! overshoots its size target `x·t_mix·Φ` by more than a factor of 2, and
//! every link carries only `O(1)` messages per threshold doubling — the two
//! facts behind Lemma 1's `Õ(x·t_mix)` message bound.
//!
//! The machine here is **per execution** (one broadcast source); a node runs
//! one instance per candidate it has heard from, multiplexed into
//! super-round slots by
//! [`IrrevocableProcess`](crate::irrevocable::process::IrrevocableProcess).
//!
//! Where the paper's pseudocode and prose diverge we follow the prose, which
//! the analysis relies on:
//!
//! * subtree sizes are reported to the parent **on change/crossing**, not
//!   every round (prose: "once its confirmed number exceeds a threshold 2^i
//!   ... sends this number to its parent"), preserving the message bound;
//! * a parent re-activates exactly the children whose new confirmed numbers
//!   did *not* push it over its threshold (prose's legitimization rule),
//!   tracked here via believed-status bookkeeping.

use ale_graph::Port;
use rand::rngs::StdRng;
use rand::seq::IteratorRandom;
use std::collections::{BTreeMap, BTreeSet};

/// Per-execution control messages of cautious broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CbBody {
    /// `⟨source⟩`: invitation to join this execution's tree.
    Invite,
    /// Confirmed subtree size reported by a child to its parent.
    Size(u64),
    /// Re-activation permit (parent → child).
    Activate,
    /// Growth pause (parent → child).
    Deactivate,
    /// Territory reached its final threshold; freeze the execution.
    Stop,
}

impl CbBody {
    /// Payload bits excluding the execution tag.
    pub fn body_bits(&self) -> usize {
        match self {
            CbBody::Size(s) => 3 + ale_congest::message::bits_for_u64(*s),
            _ => 3,
        }
    }
}

/// Searching status of a node within one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// May extend the tree through an unused port.
    Active,
    /// Paused, waiting for a re-activation permit.
    Passive,
    /// Execution frozen (final threshold reached somewhere).
    Stopped,
}

/// When a node reports its confirmed subtree size to its parent.
///
/// The paper's pseudocode (Algorithm 4 line 24) writes the size to the
/// parent every round; its message analysis ("a link is used a constant
/// number of times per each change of the thresholds") implies reporting
/// only on threshold crossings. The two readings trade message count
/// against territory-overshoot tightness — the `ablation-cautious`
/// scenario (`ale-lab run ablation-cautious`) quantifies the trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportDiscipline {
    /// Report only when the subtree crosses the current threshold — the
    /// message-optimal reading used by default (`O(log)` reports/link).
    #[default]
    OnCrossing,
    /// Report whenever the subtree size changed — closer to the pseudocode
    /// (minus idempotent repeats); tighter overshoot, more messages.
    OnChange,
}

/// What this node last signalled to a neighbor in this execution — used to
/// send `Activate`/`Deactivate`/`Stop` transitions exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Believed {
    Active,
    Passive,
    Stopped,
}

/// One node's state in one cautious-broadcast execution.
#[derive(Debug, Clone)]
pub struct ExecState {
    /// Whether this node is the execution's source.
    is_root: bool,
    /// Port towards the parent (None at the root).
    parent: Option<Port>,
    /// Confirmed children and their last reported subtree sizes.
    sizes: BTreeMap<Port, u64>,
    /// Last status this node signalled per child port.
    believed: BTreeMap<Port, Believed>,
    /// Children whose latest report has not been legitimized yet.
    pending_confirm: BTreeSet<Port>,
    /// Ports never used in this execution (no message sent or received).
    avail: BTreeSet<Port>,
    /// Current doubling threshold.
    threshold: u64,
    /// Final territory threshold `⌈x·t_mix·Φ⌉`.
    final_threshold: u64,
    /// Own searching status.
    status: Status,
    /// Last subtree size reported to the parent.
    last_reported: Option<u64>,
    /// Stop wave still to be emitted.
    pending_stop: bool,
    /// Parent-report discipline (see [`ReportDiscipline`]).
    discipline: ReportDiscipline,
}

impl ExecState {
    /// Creates the root (candidate) state of an execution.
    pub fn new_root(degree: usize, final_threshold: u64) -> Self {
        ExecState {
            is_root: true,
            parent: None,
            sizes: BTreeMap::new(),
            believed: BTreeMap::new(),
            pending_confirm: BTreeSet::new(),
            avail: (0..degree).collect(),
            threshold: 1,
            final_threshold: final_threshold.max(1),
            status: Status::Active,
            last_reported: None,
            pending_stop: false,
            discipline: ReportDiscipline::OnCrossing,
        }
    }

    /// Creates a member state after adopting the inviter on `parent` as
    /// parent (the first inviter wins, per the paper).
    pub fn new_member(parent: Port, degree: usize, final_threshold: u64) -> Self {
        let mut avail: BTreeSet<Port> = (0..degree).collect();
        avail.remove(&parent);
        ExecState {
            is_root: false,
            parent: Some(parent),
            sizes: BTreeMap::new(),
            believed: BTreeMap::new(),
            pending_confirm: BTreeSet::new(),
            avail,
            threshold: 1,
            final_threshold: final_threshold.max(1),
            status: Status::Active,
            last_reported: None,
            pending_stop: false,
            discipline: ReportDiscipline::OnCrossing,
        }
    }

    /// Sets the parent-report discipline (ablation knob; the default is
    /// the message-optimal [`ReportDiscipline::OnCrossing`]).
    pub fn set_discipline(&mut self, discipline: ReportDiscipline) {
        self.discipline = discipline;
    }

    /// Parent port, if any.
    pub fn parent(&self) -> Option<Port> {
        self.parent
    }

    /// Current confirmed subtree size (this node plus confirmed reports).
    pub fn subtree(&self) -> u64 {
        1 + self.sizes.values().sum::<u64>()
    }

    /// True when [`ExecState::step`] would send nothing, draw nothing and
    /// leave the state unchanged — the negation of every guard under which
    /// `step` acts. Quiescence lasts until the next
    /// [`ExecState::on_message`].
    pub fn is_quiescent(&self) -> bool {
        if self.status == Status::Stopped {
            return !self.pending_stop;
        }
        let subtree = self.subtree();
        let report_pending = self.discipline == ReportDiscipline::OnChange
            && !self.is_root
            && self.last_reported != Some(subtree);
        let busy = self.threshold >= self.final_threshold
            || subtree >= self.threshold
            || report_pending
            || !self.pending_confirm.is_empty()
            || (self.status == Status::Active
                && (!self.avail.is_empty() || self.sizes.keys().any(|p| self.is_paused_child(p))));
        !busy
    }

    /// Whether an active node re-activates the confirmed child on `port`:
    /// it was last told neither to grow nor to stop.
    fn is_paused_child(&self, port: &Port) -> bool {
        !matches!(
            self.believed.get(port),
            Some(Believed::Active) | Some(Believed::Stopped)
        )
    }

    /// Handles one received message for this execution.
    pub fn on_message(&mut self, port: Port, body: &CbBody) {
        match body {
            CbBody::Invite => {
                // Another branch of the same tree (or a mutual invite);
                // the port has now been used in this execution.
                self.avail.remove(&port);
            }
            CbBody::Size(s) => {
                self.avail.remove(&port);
                // A child reports after crossing its threshold, at which
                // point it goes passive and waits for legitimization.
                self.sizes.insert(port, *s);
                self.believed.insert(port, Believed::Passive);
                if self.status != Status::Stopped {
                    self.pending_confirm.insert(port);
                }
            }
            CbBody::Activate => {
                if self.status != Status::Stopped {
                    self.status = Status::Active;
                }
            }
            CbBody::Deactivate => {
                if self.status != Status::Stopped {
                    self.status = Status::Passive;
                }
            }
            CbBody::Stop => {
                self.believed.insert(port, Believed::Stopped);
                if self.status != Status::Stopped {
                    self.status = Status::Stopped;
                    self.pending_stop = true;
                }
            }
        }
    }

    /// Executes one broadcast step (the paper's per-super-round action),
    /// returning messages to send.
    pub fn step(&mut self, rng: &mut StdRng) -> Vec<(Port, CbBody)> {
        let mut out = Vec::new();

        if self.status == Status::Stopped {
            if self.pending_stop {
                self.emit_stop(&mut out);
                self.pending_stop = false;
            }
            return out;
        }

        // Paper Algorithm 4 line 2: freeze once the threshold reaches the
        // territory target.
        if self.threshold >= self.final_threshold {
            self.status = Status::Stopped;
            self.emit_stop(&mut out);
            return out;
        }

        let subtree = self.subtree();
        if subtree >= self.threshold {
            // Crossing: report up (non-root), pause, double, and pause the
            // children until the new count is legitimized from above.
            if !self.is_root {
                if self.last_reported != Some(subtree) {
                    let parent = self.parent.expect("non-root always has a parent");
                    out.push((parent, CbBody::Size(subtree)));
                    self.last_reported = Some(subtree);
                }
                self.status = Status::Passive;
            }
            while self.threshold <= subtree {
                self.threshold *= 2;
            }
            let to_pause: Vec<Port> = self
                .sizes
                .keys()
                .copied()
                .filter(|p| self.believed.get(p) == Some(&Believed::Active))
                .collect();
            for p in to_pause {
                out.push((p, CbBody::Deactivate));
                self.believed.insert(p, Believed::Passive);
            }
            self.pending_confirm.clear();
            return out;
        }

        // Below threshold. Under the OnChange ablation discipline, report
        // any growth to the parent immediately (the pseudocode's line 24
        // behavior, deduplicated); the default OnCrossing discipline stays
        // silent until the next threshold crossing.
        if self.discipline == ReportDiscipline::OnChange
            && !self.is_root
            && self.last_reported != Some(subtree)
        {
            let parent = self.parent.expect("non-root always has a parent");
            out.push((parent, CbBody::Size(subtree)));
            self.last_reported = Some(subtree);
        }

        // Legitimize growth.
        let to_activate: Vec<Port> = if self.status == Status::Active {
            // Active nodes (roots after doubling, or nodes re-activated by
            // their parent) wake all paused children — this is the prose's
            // "sends re-activate message to its children".
            self.sizes
                .keys()
                .copied()
                .filter(|p| self.is_paused_child(p))
                .collect()
        } else {
            // Passive nodes still legitimize freshly reported growth that
            // did not cross their threshold.
            self.pending_confirm
                .iter()
                .copied()
                .filter(|p| self.believed.get(p) != Some(&Believed::Stopped))
                .collect()
        };
        for p in to_activate {
            out.push((p, CbBody::Activate));
            self.believed.insert(p, Believed::Active);
        }
        self.pending_confirm.clear();

        // Active nodes extend the tree through one fresh random port.
        if self.status == Status::Active {
            if let Some(&p) = self.avail.iter().choose(rng) {
                self.avail.remove(&p);
                out.push((p, CbBody::Invite));
            }
        }
        out
    }

    fn emit_stop(&mut self, out: &mut Vec<(Port, CbBody)>) {
        let mut targets: Vec<Port> = self
            .sizes
            .keys()
            .copied()
            .filter(|p| self.believed.get(p) != Some(&Believed::Stopped))
            .collect();
        if let Some(parent) = self.parent {
            if self.believed.get(&parent) != Some(&Believed::Stopped) {
                targets.push(parent);
            }
        }
        for p in targets {
            out.push((p, CbBody::Stop));
            self.believed.insert(p, Believed::Stopped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn body_bits_reasonable() {
        assert_eq!(CbBody::Invite.body_bits(), 3);
        assert!(CbBody::Size(1000).body_bits() > CbBody::Size(1).body_bits());
    }

    #[test]
    fn root_first_steps_double_then_invite() {
        let mut r = rng();
        let mut root = ExecState::new_root(3, 100);
        // Step 1: subtree = 1 >= threshold = 1: double to 2, no children.
        let out = root.step(&mut r);
        assert!(out.is_empty());
        assert_eq!(root.threshold, 2);
        // Step 2: below threshold: invite one random port.
        let out = root.step(&mut r);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, CbBody::Invite));
        // Step 3: still below threshold, one more invite (different port).
        let out2 = root.step(&mut r);
        assert_eq!(out2.len(), 1);
        assert_ne!(out2[0].0, out[0].0, "ports must not repeat");
    }

    #[test]
    fn member_confirms_then_waits_for_permit() {
        let mut r = rng();
        let mut member = ExecState::new_member(0, 2, 100);
        assert_eq!(member.parent(), Some(0));
        // First step: subtree 1 >= threshold 1: report Size(1), passive.
        let out = member.step(&mut r);
        assert_eq!(out, vec![(0, CbBody::Size(1))]);
        assert_eq!(member.status, Status::Passive);
        assert_eq!(member.threshold, 2);
        // Without a permit the member does not invite.
        let out = member.step(&mut r);
        assert!(out.is_empty());
        // Permit arrives: becomes active, invites through its free port.
        member.on_message(0, &CbBody::Activate);
        assert_eq!(member.status, Status::Active);
        let out = member.step(&mut r);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], (1, CbBody::Invite));
    }

    #[test]
    fn parent_legitimizes_fresh_reports() {
        let mut r = rng();
        let mut root = ExecState::new_root(4, 100);
        root.step(&mut r); // threshold 1 -> 2
                           // A child on port 2 reports size 1.
        root.on_message(2, &CbBody::Size(1));
        assert_eq!(root.subtree(), 2);
        // Next step: subtree 2 >= threshold 2: crossing — double, pause.
        let out = root.step(&mut r);
        assert_eq!(root.threshold, 4);
        // The child is believed passive already (it paused after reporting),
        // so no deactivate is sent; pending confirmations are cleared.
        assert!(out.iter().all(|(_, b)| !matches!(b, CbBody::Deactivate)));
        // Following step (below threshold): the root re-activates the child
        // and invites a fresh port.
        let out = root.step(&mut r);
        let activates: Vec<_> = out
            .iter()
            .filter(|(_, b)| matches!(b, CbBody::Activate))
            .collect();
        assert_eq!(activates.len(), 1);
        assert_eq!(activates[0].0, 2);
        assert!(out.iter().any(|(_, b)| matches!(b, CbBody::Invite)));
    }

    #[test]
    fn passive_node_legitimizes_only_pending() {
        let mut r = rng();
        let mut node = ExecState::new_member(0, 3, 100);
        node.step(&mut r); // reports Size(1), passive, threshold 2
        node.on_message(1, &CbBody::Size(1)); // grandchild joined through us?
                                              // subtree = 2 >= threshold 2: crossing again — reports up.
        let out = node.step(&mut r);
        assert!(out.contains(&(0, CbBody::Size(2))));
        assert_eq!(node.threshold, 4);
        // Child reports growth that does NOT cross (threshold now 4).
        node.on_message(1, &CbBody::Size(2));
        let out = node.step(&mut r);
        // Passive, but must legitimize the fresh report.
        assert_eq!(out, vec![(1, CbBody::Activate)]);
        // And does not invite while passive.
        assert!(node.step(&mut r).is_empty());
    }

    #[test]
    fn final_threshold_triggers_stop_wave() {
        let mut r = rng();
        let mut root = ExecState::new_root(2, 4);
        root.on_message(0, &CbBody::Size(5)); // huge child report
                                              // Crossing pushes threshold past final (1 -> 8 ≥ 4).
        root.step(&mut r);
        assert!(root.threshold >= 4);
        let out = root.step(&mut r);
        assert!(
            out.contains(&(0, CbBody::Stop)),
            "root must freeze its tree: {out:?}"
        );
        assert_eq!(root.status, Status::Stopped);
        // Stop is not re-sent.
        assert!(root.step(&mut r).is_empty());
    }

    #[test]
    fn stop_reception_propagates_once() {
        let mut r = rng();
        let mut node = ExecState::new_member(0, 3, 100);
        node.step(&mut r); // join + report
        node.on_message(0, &CbBody::Activate);
        node.step(&mut r); // invite on some port
        node.on_message(1, &CbBody::Size(1)); // child on port 1
        node.on_message(0, &CbBody::Stop); // parent says stop
        assert_eq!(node.status, Status::Stopped);
        let out = node.step(&mut r);
        // Propagates to the child but NOT back to the parent.
        assert!(out.contains(&(1, CbBody::Stop)));
        assert!(!out.iter().any(|(p, _)| *p == 0));
        assert!(node.step(&mut r).is_empty());
    }

    #[test]
    fn invites_never_reuse_ports_and_exhaust() {
        let mut r = rng();
        let mut root = ExecState::new_root(3, 1000);
        let mut invited = BTreeSet::new();
        for _ in 0..50 {
            for (p, b) in root.step(&mut r) {
                if matches!(b, CbBody::Invite) {
                    assert!(invited.insert(p), "port {p} reinvited");
                }
            }
        }
        assert_eq!(invited.len(), 3, "all ports eventually tried");
    }

    #[test]
    fn invite_reception_consumes_port() {
        let mut r = rng();
        let mut root = ExecState::new_root(2, 1000);
        root.on_message(0, &CbBody::Invite); // same-tree collision
        let mut invited = BTreeSet::new();
        for _ in 0..20 {
            for (p, b) in root.step(&mut r) {
                if matches!(b, CbBody::Invite) {
                    invited.insert(p);
                }
            }
        }
        assert_eq!(invited, BTreeSet::from([1]), "port 0 must not be invited");
    }

    #[test]
    fn subtree_counts_are_monotone_under_reports() {
        let mut node = ExecState::new_member(0, 5, 1000);
        assert_eq!(node.subtree(), 1);
        node.on_message(1, &CbBody::Size(2));
        node.on_message(2, &CbBody::Size(3));
        assert_eq!(node.subtree(), 6);
        node.on_message(1, &CbBody::Size(4)); // child grew
        assert_eq!(node.subtree(), 8);
        assert_eq!(node.sizes.len(), 2);
    }

    #[test]
    fn on_change_discipline_reports_every_growth() {
        let mut r = rng();
        let mut node = ExecState::new_member(0, 4, 1000);
        node.set_discipline(ReportDiscipline::OnChange);
        node.step(&mut r); // crossing: Size(1), threshold 2, passive
        node.on_message(0, &CbBody::Activate);
        // Child reports 1 → subtree 2 ≥ threshold 2: crossing path reports.
        node.on_message(1, &CbBody::Size(1));
        let out = node.step(&mut r);
        assert!(out.contains(&(0, CbBody::Size(2))));
        // Child grows to 2 → subtree 3 < threshold 4: the OnChange
        // discipline still reports; OnCrossing would stay silent.
        node.on_message(1, &CbBody::Size(2));
        let out = node.step(&mut r);
        assert!(
            out.contains(&(0, CbBody::Size(3))),
            "OnChange must report sub-threshold growth: {out:?}"
        );
        // And a control: OnCrossing stays silent in the same situation.
        let mut quiet = ExecState::new_member(0, 4, 1000);
        quiet.step(&mut r);
        quiet.on_message(0, &CbBody::Activate);
        quiet.on_message(1, &CbBody::Size(1));
        quiet.step(&mut r); // crossing report
        quiet.on_message(1, &CbBody::Size(2));
        let out = quiet.step(&mut r);
        assert!(
            !out.iter().any(|(_, b)| matches!(b, CbBody::Size(_))),
            "OnCrossing must not report below threshold: {out:?}"
        );
    }

    /// Random `on_message`/`step` walks over fresh states: whenever the
    /// predicate holds, a step must be a no-op — nothing sent, the state's
    /// rendering unchanged, the RNG untouched.
    #[test]
    fn quiescent_states_step_to_themselves() {
        use rand::{Rng, RngCore};
        let (mut quiet, mut busy) = (0, 0);
        for seed in 0..200 {
            let mut script = StdRng::seed_from_u64(seed);
            let degree = script.gen_range(1..6);
            let final_threshold = script.gen_range(2..40);
            let mut state = if script.gen_bool(0.3) {
                ExecState::new_root(degree, final_threshold)
            } else {
                ExecState::new_member(0, degree, final_threshold)
            };
            if script.gen_bool(0.5) {
                state.set_discipline(ReportDiscipline::OnChange);
            }
            let mut r = StdRng::seed_from_u64(seed ^ 0xA5A5);
            for _ in 0..60 {
                if state.is_quiescent() {
                    quiet += 1;
                    let (mut stepped, mut r2) = (state.clone(), r.clone());
                    assert!(stepped.step(&mut r2).is_empty(), "seed {seed}: {state:?}");
                    assert_eq!(format!("{stepped:?}"), format!("{state:?}"), "seed {seed}");
                    assert_eq!(r2.next_u64(), r.clone().next_u64(), "seed {seed}");
                } else {
                    busy += 1;
                }
                if script.gen_bool(0.5) {
                    state.step(&mut r);
                } else if script.gen_bool(0.1) {
                    // Off the protocol's paths: growth whose confirmation
                    // is already done, so the OnChange report guard is
                    // the only one left to hold the state busy.
                    state.pending_confirm.clear();
                } else {
                    let port = script.gen_range(0..degree);
                    let body = match script.gen_range(0..20u32) {
                        0..=4 => CbBody::Invite,
                        5..=9 => CbBody::Size(script.gen_range(1..12)),
                        10..=14 => CbBody::Activate,
                        15..=18 => CbBody::Deactivate,
                        _ => CbBody::Stop,
                    };
                    state.on_message(port, &body);
                }
            }
        }
        assert!(quiet > 500 && busy > 500, "quiet {quiet}, busy {busy}");
    }

    #[test]
    fn stopped_state_ignores_status_flips() {
        let mut node = ExecState::new_member(0, 2, 1000);
        node.on_message(0, &CbBody::Stop);
        node.on_message(0, &CbBody::Activate);
        assert_eq!(node.status, Status::Stopped);
        node.on_message(0, &CbBody::Deactivate);
        assert_eq!(node.status, Status::Stopped);
    }
}
