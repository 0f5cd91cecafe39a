//! Declarative parameter spaces: the typed axes a scenario sweeps, and
//! their generic expansion into the cartesian grid the engine executes.
//!
//! Pre-redesign, every scenario hand-built its grid imperatively and new
//! sweeps meant new code. A scenario now *declares* its space instead:
//!
//! * an [`Axis`] is one sweep dimension — a name, a typed [`AxisKind`]
//!   (int / float / topology / algorithm), the default value list, an
//!   optional `--quick` value list, and an optional valid [`Range`];
//! * a [`Block`] is one cartesian product of axes plus a *point builder*
//!   that turns each typed combination ([`Ctx`]) into a [`GridPoint`]
//!   (or skips it — value-dependent filters like "stress points only on
//!   small graphs" live here);
//! * a [`ParamSpace`] is an ordered list of blocks, optionally sharing
//!   outer axes (so a union of regimes can interleave per topology, as
//!   the legacy grids did), plus an optional **size ladder** mapping a
//!   virtual `n` axis onto concrete topologies.
//!
//! [`ParamSpace::expand`] is the one place run parameters are checked. It
//! resolves CLI overrides (`--param key=v1,v2`, with `--n`/`--topo` as
//! sugar for `--param n=…`/`--param topo=…`), validates them against the
//! declared axes, and expands the blocks in declaration order — axis
//! order is the loop nesting order, first axis outermost. An unknown key,
//! an unparseable value, a value outside its axis's [`Range`] (whatever
//! list it came from), a topology with more than [`MAX_NODES`] nodes or
//! [`MAX_EDGES`] edges, or a grid whose point labels repeat is
//! [`LabError::BadArgs`], i.e. exit code 2, before anything is bound.
//! The expansion also reports the **resolved space** (the value lists
//! actually used), which run manifests record so `merge` can verify that
//! shards describe one sweep.
//!
//! `--param graph-seed=s1,s2` is a pseudo-axis every space accepts: it
//! multiplies each expanded point per listed random-topology build seed
//! (label suffix `/gs=s`, read back through
//! [`PointView::graph_seed`](crate::scenario::PointView::graph_seed)) and
//! adds the last resolved-space line.
//!
//! ## Value resolution, per axis
//!
//! 1. a `--param` override (or its `--n`/`--topo` sugar), if given;
//! 2. the size ladder's computed topologies, for the ladder target when
//!    `n` was overridden and `topo` was not;
//! 3. an axis [link](Axis::linked) — values computed from outer axes
//!    (e.g. the thresholds scenario's `k` ladder depends on the
//!    topology's size);
//! 4. the `--quick` list when `--quick` is set and one was declared;
//! 5. the default list.
//!
//! Determinism: expansion is a pure function of the scenario and the
//! [`GridConfig`], so the positional seed streams of
//! [`crate::fleet::derive_seed`] stay byte-stable across reruns, worker
//! counts, and `--shard` slicings of the same resolved space.

use crate::runners::Algorithm;
use crate::scenario::{GridConfig, GridPoint, LabError};
use ale_graph::Topology;
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// The pseudo-axis key every space accepts (see the module docs).
const GRAPH_SEED: &str = "graph-seed";

/// The most nodes a topology value may have: 2²⁴, the size of the
/// largest hypercube the family admits. [`ParamSpace::expand`] checks the
/// node count alone, so an oversized value is refused without building
/// anything. Dense families meet [`MAX_EDGES`] first: `complete:100000`
/// has 10⁵ nodes but 5·10⁹ edges.
pub const MAX_NODES: usize = 1 << 24;

/// The most edges a topology value may have: 2²⁸, room for `hypercube:24`
/// (2.0·10⁸ edges). [`ParamSpace::expand`] checks
/// [`Topology::max_edges`], a closed form, so like the node cap it builds
/// nothing.
pub const MAX_EDGES: usize = 1 << 28;

/// One typed axis value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisValue {
    /// An unsigned integer (sizes, ladder rungs, enum indices).
    Int(u64),
    /// A float knob (γ, multipliers, tolerances).
    Float(f64),
    /// A topology (parsed from the `family:args` CLI form).
    Topo(Topology),
    /// An election algorithm (parsed from its display name).
    Algo(Algorithm),
}

impl AxisValue {
    fn kind(&self) -> AxisKind {
        match self {
            AxisValue::Int(_) => AxisKind::Int,
            AxisValue::Float(_) => AxisKind::Float,
            AxisValue::Topo(_) => AxisKind::Topology,
            AxisValue::Algo(_) => AxisKind::Algorithm,
        }
    }

    /// The value as a numeric knob (ints and floats only).
    fn knob(&self) -> Option<f64> {
        match *self {
            AxisValue::Int(i) => Some(i as f64),
            AxisValue::Float(f) => Some(f),
            _ => None,
        }
    }
}

impl fmt::Display for AxisValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisValue::Int(v) => write!(f, "{v}"),
            AxisValue::Float(v) => write!(f, "{v}"),
            AxisValue::Topo(t) => write!(f, "{t}"),
            AxisValue::Algo(a) => write!(f, "{a}"),
        }
    }
}

/// The type of an axis — what `--param` values parse as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisKind {
    /// Unsigned integers.
    Int,
    /// Floats.
    Float,
    /// Topologies in the `family:args` form (`complete:64`, `torus:8x8`).
    Topology,
    /// Algorithm display names (`this-work`, `kutten15`, …).
    Algorithm,
}

impl AxisKind {
    /// Human name for `describe` output and error messages.
    pub fn label(self) -> &'static str {
        match self {
            AxisKind::Int => "int",
            AxisKind::Float => "float",
            AxisKind::Topology => "topology",
            AxisKind::Algorithm => "algorithm",
        }
    }

    /// Parses one raw CLI token as a value of this kind.
    ///
    /// # Errors
    ///
    /// [`LabError::BadArgs`] naming the axis, the offending token, and
    /// the expected form.
    pub fn parse(self, axis: &str, raw: &str) -> Result<AxisValue, LabError> {
        let raw = raw.trim();
        let bad = |expected: &str| {
            LabError::BadArgs(format!(
                "--param {axis}: '{raw}' is not {expected} (axis kind: {})",
                self.label()
            ))
        };
        match self {
            AxisKind::Int => raw
                .parse::<u64>()
                .map(AxisValue::Int)
                .map_err(|_| bad("an unsigned integer")),
            AxisKind::Float => raw
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .map(AxisValue::Float)
                .ok_or_else(|| bad("a finite number")),
            AxisKind::Topology => raw
                .parse::<Topology>()
                .map(AxisValue::Topo)
                .map_err(|e| LabError::BadArgs(format!("--param {axis}: {e}"))),
            AxisKind::Algorithm => {
                Algorithm::from_name(raw)
                    .map(AxisValue::Algo)
                    .ok_or_else(|| {
                        bad(&format!(
                            "an algorithm (known: {})",
                            Algorithm::ALL
                                .iter()
                                .map(|a| a.to_string())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ))
                    })
            }
        }
    }
}

/// The values an axis accepts: the domain the paper gives the parameter
/// (estimates start at k = 2, Lemma 4's γ is positive, …), or the one a
/// run needs to finish (a topology large enough for the candidates a
/// scenario plants, a fault rate that lets some message through).
/// [`ParamSpace::expand`] checks every value it resolves for the axis
/// against it, so no point builder or `bind` has to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Range {
    /// Ints in `min..=max`.
    Ints(u64, u64),
    /// Floats above zero.
    Positive,
    /// Floats in `[0, 1)`.
    Probability,
    /// Topologies with at least this many nodes.
    Nodes(usize),
}

impl Range {
    /// Ints from `min` up.
    pub fn at_least(min: u64) -> Self {
        Range::Ints(min, u64::MAX)
    }

    fn contains(self, value: AxisValue) -> bool {
        match (self, value) {
            (Range::Ints(min, max), AxisValue::Int(v)) => (min..=max).contains(&v),
            (Range::Positive, AxisValue::Float(v)) => v > 0.0,
            (Range::Probability, AxisValue::Float(v)) => (0.0..1.0).contains(&v),
            (Range::Nodes(min), AxisValue::Topo(t)) => t.node_count() >= min,
            _ => false,
        }
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Range::Ints(min, u64::MAX) => write!(f, ">= {min}"),
            Range::Ints(min, max) => write!(f, "in [{min}, {max}]"),
            Range::Positive => write!(f, "> 0"),
            Range::Probability => write!(f, "in [0, 1)"),
            Range::Nodes(min) => write!(f, "with >= {min} nodes"),
        }
    }
}

/// A typed view over the axis values bound so far — what point builders
/// and [axis links](Axis::linked) receive, and (via
/// [`GridPoint::view`](crate::scenario::GridPoint::view)) what `bind`
/// reads instead of string-digging through `point.params`.
pub struct Ctx<'a> {
    values: &'a [(&'static str, AxisValue)],
    /// Whether `--quick` is set (shrinks value lists, caps, seed counts).
    pub quick: bool,
    /// Whether the topology values came from the size ladder (`--n` /
    /// `--param n=…` rewrote the topology axis).
    pub ladder: bool,
}

impl Ctx<'_> {
    /// The raw value of an axis, if bound.
    pub fn get(&self, name: &str) -> Option<AxisValue> {
        self.values
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }

    fn want(&self, name: &str, kind: AxisKind) -> Result<AxisValue, LabError> {
        let v = self.get(name).ok_or_else(|| {
            LabError::BadArgs(format!("point is missing the '{name}' axis value"))
        })?;
        if v.kind() != kind {
            return Err(LabError::BadArgs(format!(
                "axis '{name}' holds a {}, not a {}",
                v.kind().label(),
                kind.label()
            )));
        }
        Ok(v)
    }

    /// The value of an int axis.
    ///
    /// # Errors
    ///
    /// [`LabError::BadArgs`] when the axis is unbound or not an int.
    pub fn int(&self, name: &str) -> Result<u64, LabError> {
        match self.want(name, AxisKind::Int)? {
            AxisValue::Int(v) => Ok(v),
            _ => unreachable!("kind checked"),
        }
    }

    /// The value of a float axis.
    ///
    /// # Errors
    ///
    /// [`LabError::BadArgs`] when the axis is unbound or not a float.
    pub fn float(&self, name: &str) -> Result<f64, LabError> {
        match self.want(name, AxisKind::Float)? {
            AxisValue::Float(v) => Ok(v),
            _ => unreachable!("kind checked"),
        }
    }

    /// The value of a topology axis.
    ///
    /// # Errors
    ///
    /// [`LabError::BadArgs`] when the axis is unbound or not a topology.
    pub fn topology(&self, name: &str) -> Result<Topology, LabError> {
        match self.want(name, AxisKind::Topology)? {
            AxisValue::Topo(v) => Ok(v),
            _ => unreachable!("kind checked"),
        }
    }

    /// The value of an algorithm axis.
    ///
    /// # Errors
    ///
    /// [`LabError::BadArgs`] when the axis is unbound or not an algorithm.
    pub fn algorithm(&self, name: &str) -> Result<Algorithm, LabError> {
        match self.want(name, AxisKind::Algorithm)? {
            AxisValue::Algo(v) => Ok(v),
            _ => unreachable!("kind checked"),
        }
    }
}

type LinkFn = Box<dyn Fn(&Ctx) -> Option<Vec<AxisValue>>>;

/// One declared sweep dimension.
pub struct Axis {
    /// The `--param` key (and `describe` row).
    pub name: &'static str,
    /// What values of this axis parse as.
    pub kind: AxisKind,
    /// The default value list (full grid).
    pub default: Vec<AxisValue>,
    /// The `--quick` value list, when it differs from the default.
    pub quick: Option<Vec<AxisValue>>,
    /// One-line description for `describe`.
    pub help: &'static str,
    /// The values the axis accepts (`None`: any value of its kind).
    pub range: Option<Range>,
    link: Option<LinkFn>,
}

impl fmt::Debug for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Axis")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("default", &self.default)
            .field("quick", &self.quick)
            .field("range", &self.range)
            .finish_non_exhaustive()
    }
}

impl Axis {
    fn new(name: &'static str, kind: AxisKind, default: Vec<AxisValue>) -> Self {
        Axis {
            name,
            kind,
            default,
            quick: None,
            help: "",
            range: None,
            link: None,
        }
    }

    /// An int axis with its default values.
    pub fn ints(name: &'static str, values: impl IntoIterator<Item = u64>) -> Self {
        Axis::new(
            name,
            AxisKind::Int,
            values.into_iter().map(AxisValue::Int).collect(),
        )
    }

    /// A float axis with its default values.
    pub fn floats(name: &'static str, values: impl IntoIterator<Item = f64>) -> Self {
        Axis::new(
            name,
            AxisKind::Float,
            values.into_iter().map(AxisValue::Float).collect(),
        )
    }

    /// A topology axis with its default values.
    pub fn topologies(name: &'static str, values: impl IntoIterator<Item = Topology>) -> Self {
        Axis::new(
            name,
            AxisKind::Topology,
            values.into_iter().map(AxisValue::Topo).collect(),
        )
    }

    /// An algorithm axis with its default values.
    pub fn algorithms(name: &'static str, values: impl IntoIterator<Item = Algorithm>) -> Self {
        Axis::new(
            name,
            AxisKind::Algorithm,
            values.into_iter().map(AxisValue::Algo).collect(),
        )
    }

    /// Sets the `--quick` int list.
    #[must_use]
    pub fn quick_ints(mut self, values: impl IntoIterator<Item = u64>) -> Self {
        self.quick = Some(values.into_iter().map(AxisValue::Int).collect());
        self
    }

    /// Sets the `--quick` float list.
    #[must_use]
    pub fn quick_floats(mut self, values: impl IntoIterator<Item = f64>) -> Self {
        self.quick = Some(values.into_iter().map(AxisValue::Float).collect());
        self
    }

    /// Sets the `--quick` topology list.
    #[must_use]
    pub fn quick_topologies(mut self, values: impl IntoIterator<Item = Topology>) -> Self {
        self.quick = Some(values.into_iter().map(AxisValue::Topo).collect());
        self
    }

    /// Sets the `describe` help line.
    #[must_use]
    pub fn help(mut self, help: &'static str) -> Self {
        self.help = help;
        self
    }

    /// Declares the values the axis accepts.
    #[must_use]
    pub fn range(mut self, range: Range) -> Self {
        self.range = Some(range);
        self
    }

    /// Links this axis's values to outer axes: when the user did not
    /// `--param`-override it, `f` is consulted per outer combination and
    /// may return the value list to use (`None` falls through to the
    /// quick/default lists). The thresholds scenario's estimate ladder —
    /// `k` rungs bracketing the high regime of the *current topology* —
    /// is the canonical use.
    #[must_use]
    pub fn linked(mut self, f: impl Fn(&Ctx) -> Option<Vec<AxisValue>> + 'static) -> Self {
        self.link = Some(Box::new(f));
        self
    }
}

/// When a block participates in the expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum When {
    /// Always (the common case).
    Always,
    /// Only when the size ladder is *not* engaged (no `n` override) —
    /// the scenario's small-graph regime.
    SmallGrid,
    /// Only when the size ladder *is* engaged (`--n` / `--param n=…`) —
    /// the scenario's large-`n` regime.
    SizeSweep,
}

type BuildFn = Box<dyn Fn(&Ctx) -> Result<Option<GridPoint>, LabError>>;

/// One cartesian product of axes plus the builder that turns each typed
/// combination into a [`GridPoint`].
pub struct Block {
    /// Label for `describe` grouping.
    pub name: &'static str,
    /// Activation rule.
    pub when: When,
    /// The block's axes; declaration order is loop-nesting order (first
    /// axis outermost).
    pub axes: Vec<Axis>,
    build: BuildFn,
}

impl Block {
    /// A block active in every configuration.
    pub fn new(
        name: &'static str,
        axes: Vec<Axis>,
        build: impl Fn(&Ctx) -> Result<Option<GridPoint>, LabError> + 'static,
    ) -> Self {
        Block {
            name,
            when: When::Always,
            axes,
            build: Box::new(build),
        }
    }

    /// Sets the activation rule.
    #[must_use]
    pub fn when(mut self, when: When) -> Self {
        self.when = when;
        self
    }
}

type LadderFn = Box<dyn Fn(&[usize]) -> Vec<Topology>>;

/// The virtual size axis: `--param n=…` (or `--n`) rewrites the target
/// topology axis through the scenario's ladder function instead of
/// multiplying the grid.
struct SizeLadder {
    axis: &'static str,
    target: &'static str,
    help: &'static str,
    expand: LadderFn,
}

/// A scenario's declared parameter space.
pub struct ParamSpace {
    /// Axes shared by every block, iterated outermost — this is how a
    /// union of regimes (blocks) interleaves per outer value, matching
    /// the legacy per-topology grid order.
    pub shared: Vec<Axis>,
    ladder: Option<SizeLadder>,
    /// The blocks, expanded in declaration order.
    pub blocks: Vec<Block>,
}

/// The result of expanding a space under one [`GridConfig`].
pub struct Expansion {
    /// The grid, in deterministic expansion order (the seed-stream order).
    pub points: Vec<GridPoint>,
    /// The value lists actually used, per axis, in first-use order —
    /// recorded in run manifests so `merge` can check that shards
    /// describe one sweep.
    pub resolved: Vec<(String, String)>,
}

impl Expansion {
    /// The resolved space as `key=v1,v2,…` manifest lines.
    pub fn resolved_lines(&self) -> Vec<String> {
        self.resolved
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect()
    }
}

impl ParamSpace {
    /// A space of sequential blocks with no shared axes.
    pub fn new(blocks: Vec<Block>) -> Self {
        ParamSpace {
            shared: Vec::new(),
            ladder: None,
            blocks,
        }
    }

    /// Declares shared outer axes (see [`ParamSpace::shared`]).
    #[must_use]
    pub fn with_shared(mut self, axes: Vec<Axis>) -> Self {
        self.shared = axes;
        self
    }

    /// Declares the size ladder: overriding int axis `axis` (usually
    /// `n`) rewrites topology axis `target` via `expand`, unless `target`
    /// itself is overridden (explicit topologies win, as they always
    /// have).
    #[must_use]
    pub fn with_ladder(
        mut self,
        axis: &'static str,
        target: &'static str,
        help: &'static str,
        expand: impl Fn(&[usize]) -> Vec<Topology> + 'static,
    ) -> Self {
        self.ladder = Some(SizeLadder {
            axis,
            target,
            help,
            expand: Box::new(expand),
        });
        self
    }

    /// Every declared axis name with its kind (including the virtual
    /// ladder axis). Used for override validation and error messages.
    ///
    /// # Errors
    ///
    /// [`LabError::BadArgs`] when two declarations of one name disagree
    /// on the kind (a scenario-author bug surfaced loudly).
    pub fn axis_kinds(&self) -> Result<BTreeMap<&'static str, AxisKind>, LabError> {
        let mut kinds: BTreeMap<&'static str, AxisKind> = BTreeMap::new();
        let mut add = |name: &'static str, kind: AxisKind| -> Result<(), LabError> {
            if let Some(prev) = kinds.insert(name, kind) {
                if prev != kind {
                    return Err(LabError::BadArgs(format!(
                        "scenario declares axis '{name}' as both {} and {}",
                        prev.label(),
                        kind.label()
                    )));
                }
            }
            Ok(())
        };
        if let Some(l) = &self.ladder {
            add(l.axis, AxisKind::Int)?;
        }
        for axis in self
            .shared
            .iter()
            .chain(self.blocks.iter().flat_map(|b| &b.axes))
        {
            add(axis.name, axis.kind)?;
        }
        Ok(kinds)
    }

    /// Expands the space into the concrete grid under `cfg`.
    ///
    /// # Errors
    ///
    /// [`LabError::BadArgs`] on unknown `--param` keys, unparseable or
    /// empty value lists, duplicate overrides, values outside their
    /// axis's [`Range`], repeated point labels, and point-builder
    /// failures.
    pub fn expand(&self, cfg: &GridConfig) -> Result<Expansion, LabError> {
        let mut kinds = self.axis_kinds()?;
        kinds.insert(GRAPH_SEED, AxisKind::Int);
        let known_kind = |key: &str| -> Result<AxisKind, LabError> {
            kinds.get(key).copied().ok_or_else(|| {
                LabError::BadArgs(format!(
                    "unknown parameter '{key}' (declared axes: {}; see `ale-lab describe`)",
                    kinds.keys().copied().collect::<Vec<_>>().join(", ")
                ))
            })
        };

        // Gather overrides: the --n/--topo sugar (already typed — no
        // string round-trip) plus the raw --param entries.
        let mut overrides: BTreeMap<String, Vec<AxisValue>> = BTreeMap::new();
        let mut add = |key: &str, parsed: Vec<AxisValue>| -> Result<(), LabError> {
            if overrides.insert(key.to_string(), parsed).is_some() {
                return Err(LabError::BadArgs(format!(
                    "parameter '{key}' given more than once (--n/--topo are sugar for --param n/topo)"
                )));
            }
            Ok(())
        };
        if !cfg.ns.is_empty() {
            let kind = known_kind("n")?;
            if kind != AxisKind::Int {
                return Err(LabError::BadArgs(format!(
                    "--n targets axis 'n', which is {}-kinded here",
                    kind.label()
                )));
            }
            add(
                "n",
                cfg.ns.iter().map(|&n| AxisValue::Int(n as u64)).collect(),
            )?;
        }
        if !cfg.topologies.is_empty() {
            let kind = known_kind("topo")?;
            if kind != AxisKind::Topology {
                return Err(LabError::BadArgs(format!(
                    "--topo targets axis 'topo', which is {}-kinded here",
                    kind.label()
                )));
            }
            add(
                "topo",
                cfg.topologies.iter().map(|&t| AxisValue::Topo(t)).collect(),
            )?;
        }
        for (key, values) in &cfg.params {
            let kind = known_kind(key)?;
            if values.is_empty() {
                return Err(LabError::BadArgs(format!(
                    "--param {key}: needs at least one value"
                )));
            }
            let parsed = values
                .iter()
                .map(|v| kind.parse(key, v))
                .collect::<Result<Vec<_>, _>>()?;
            add(key, parsed)?;
        }

        // The size ladder: n override rewrites the target topology axis
        // unless explicit topologies were given (those always win).
        let mut sweeping = false;
        let mut computed_topos: Option<Vec<AxisValue>> = None;
        if let Some(l) = &self.ladder {
            if let Some(sizes) = overrides.get(l.axis) {
                sweeping = true;
                if !overrides.contains_key(l.target) {
                    let ns: Vec<usize> = sizes
                        .iter()
                        .map(|v| match v {
                            AxisValue::Int(n) => *n as usize,
                            _ => unreachable!("ladder axis is int-kinded"),
                        })
                        .collect();
                    computed_topos =
                        Some((l.expand)(&ns).into_iter().map(AxisValue::Topo).collect());
                }
            }
        }
        let ladder_engaged = computed_topos.is_some();
        let graph_seeds = overrides.remove(GRAPH_SEED);

        let mut exp = Expander {
            space: self,
            cfg,
            overrides,
            computed_topos,
            ladder_engaged,
            points: Vec::new(),
            used_order: Vec::new(),
            used: BTreeMap::new(),
            stack: Vec::new(),
        };
        if sweeping {
            if let Some(l) = &self.ladder {
                let sizes = exp.overrides.get(l.axis).cloned();
                if let Some(sizes) = sizes {
                    exp.note_used(l.axis, sizes);
                }
            }
        }
        exp.run(sweeping)?;

        // Every override must have been consumed by some active axis.
        // An override that lands only on inactive blocks (e.g. a ladder
        // topology without the `--n` that activates the ladder block)
        // would otherwise be silently ignored — the user would believe
        // they ran a sweep they did not.
        for key in exp.overrides.keys() {
            if !exp.used.contains_key(key.as_str()) {
                return Err(LabError::BadArgs(format!(
                    "parameter '{key}' has no effect here: every block declaring axis \
                     '{key}' is inactive in this configuration (size-sweep-only blocks \
                     need --n / --param n=…; default-grid blocks are disabled by it — \
                     see `ale-lab describe`)"
                )));
            }
        }

        let join = |vals: &[AxisValue]| {
            vals.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut resolved: Vec<(String, String)> = exp
            .used_order
            .iter()
            .map(|&name| (name.to_string(), join(&exp.used[name])))
            .collect();
        let mut points = exp.points;
        if let Some(seeds) = graph_seeds {
            // Point-major × seed-minor, so a point's graph-seed variants
            // are adjacent in the grid (and in every report).
            points = points
                .iter()
                .flat_map(|point| {
                    seeds.iter().map(move |&seed| {
                        let mut p = point.clone();
                        p.label = format!("{}/gs={seed}", p.label);
                        p.values.push((GRAPH_SEED, seed));
                        p.params
                            .extend(seed.knob().map(|k| (GRAPH_SEED.to_string(), k)));
                        p
                    })
                })
                .collect();
            resolved.push((GRAPH_SEED.to_string(), join(&seeds)));
        }
        // Labels key every trial in the store (`RunWriter::finish`,
        // `check`, `serve`, `merge`), so two points must never share one.
        let mut labels = HashSet::with_capacity(points.len());
        if let Some(p) = points.iter().find(|p| !labels.insert(p.label.as_str())) {
            return Err(LabError::BadArgs(format!(
                "grid point '{}' appears twice: point labels key the stored trials, so the \
                 values given through --param/--n/--topo must expand to distinct points",
                p.label
            )));
        }
        Ok(Expansion { points, resolved })
    }

    /// Renders the declared axes for `ale-lab describe`.
    pub fn describe(&self) -> String {
        fn render_vals(vals: &[AxisValue]) -> String {
            if vals.is_empty() {
                "(from --param / the size ladder)".to_string()
            } else {
                vals.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        }
        fn render_axis(out: &mut String, axis: &Axis, indent: &str) {
            out.push_str(&format!(
                "{indent}--param {}=…  [{}]  default: {}\n",
                axis.name,
                axis.kind.label(),
                render_vals(&axis.default),
            ));
            if let Some(q) = &axis.quick {
                out.push_str(&format!("{indent}    quick: {}\n", render_vals(q)));
            }
            if let Some(range) = axis.range {
                out.push_str(&format!("{indent}    range: {} {range}\n", axis.name));
            }
            if axis.link.is_some() {
                out.push_str(&format!(
                    "{indent}    (values computed per outer axis unless overridden)\n"
                ));
            }
            if !axis.help.is_empty() {
                out.push_str(&format!("{indent}    {}\n", axis.help));
            }
        }
        let mut out = String::new();
        if !self.shared.is_empty() {
            out.push_str("shared axes (outermost):\n");
            for axis in &self.shared {
                render_axis(&mut out, axis, "  ");
            }
        }
        for block in &self.blocks {
            let when = match block.when {
                When::Always => "",
                When::SmallGrid => "  (default grids only — inactive under --n)",
                When::SizeSweep => "  (size sweeps only — active under --n)",
            };
            out.push_str(&format!("block '{}'{when}:\n", block.name));
            if block.axes.is_empty() {
                out.push_str("  (single point, no axes)\n");
            }
            for axis in &block.axes {
                render_axis(&mut out, axis, "  ");
            }
        }
        if let Some(l) = &self.ladder {
            out.push_str(&format!(
                "size ladder: --param {}=…  [int]  rewrites '{}' — {}\n",
                l.axis, l.target, l.help
            ));
        }
        out
    }

    /// The declared axes as a JSON value — the machine-readable face of
    /// [`ParamSpace::describe`], behind `ale-lab describe <scenario>
    /// --json`. Value lists render as their `Display` strings (the same
    /// tokens `--param` parses).
    pub fn to_json(&self) -> crate::json::Value {
        use crate::json::Value;
        fn vals(vals: &[AxisValue]) -> Value {
            Value::Arr(
                vals.iter()
                    .map(|v| Value::Str(v.to_string()))
                    .collect::<Vec<_>>(),
            )
        }
        fn axis(a: &Axis) -> Value {
            Value::obj(vec![
                ("name".to_string(), Value::Str(a.name.to_string())),
                ("kind".to_string(), Value::Str(a.kind.label().to_string())),
                ("default".to_string(), vals(&a.default)),
                (
                    "quick".to_string(),
                    a.quick.as_deref().map_or(Value::Null, vals),
                ),
                ("linked".to_string(), Value::Bool(a.link.is_some())),
                (
                    "range".to_string(),
                    a.range.map_or(Value::Null, |r| Value::Str(r.to_string())),
                ),
                ("help".to_string(), Value::Str(a.help.to_string())),
            ])
        }
        let blocks = self
            .blocks
            .iter()
            .map(|b| {
                Value::obj(vec![
                    ("name".to_string(), Value::Str(b.name.to_string())),
                    (
                        "when".to_string(),
                        Value::Str(
                            match b.when {
                                When::Always => "always",
                                When::SmallGrid => "small-grid",
                                When::SizeSweep => "size-sweep",
                            }
                            .to_string(),
                        ),
                    ),
                    (
                        "axes".to_string(),
                        Value::Arr(b.axes.iter().map(axis).collect::<Vec<_>>()),
                    ),
                ])
            })
            .collect::<Vec<_>>();
        Value::obj(vec![
            (
                "shared".to_string(),
                Value::Arr(self.shared.iter().map(axis).collect::<Vec<_>>()),
            ),
            ("blocks".to_string(), Value::Arr(blocks)),
            (
                "ladder".to_string(),
                self.ladder.as_ref().map_or(Value::Null, |l| {
                    Value::obj(vec![
                        ("axis".to_string(), Value::Str(l.axis.to_string())),
                        ("target".to_string(), Value::Str(l.target.to_string())),
                        ("help".to_string(), Value::Str(l.help.to_string())),
                    ])
                }),
            ),
        ])
    }
}

/// The recursive expansion state.
struct Expander<'a> {
    space: &'a ParamSpace,
    cfg: &'a GridConfig,
    overrides: BTreeMap<String, Vec<AxisValue>>,
    computed_topos: Option<Vec<AxisValue>>,
    ladder_engaged: bool,
    points: Vec<GridPoint>,
    used_order: Vec<&'static str>,
    used: BTreeMap<&'static str, Vec<AxisValue>>,
    stack: Vec<(&'static str, AxisValue)>,
}

impl Expander<'_> {
    fn note_used(&mut self, name: &'static str, values: Vec<AxisValue>) {
        let entry = self.used.entry(name).or_insert_with(|| {
            self.used_order.push(name);
            Vec::new()
        });
        for v in values {
            if !entry.contains(&v) {
                entry.push(v);
            }
        }
    }

    fn ctx(&self) -> Ctx<'_> {
        Ctx {
            values: &self.stack,
            quick: self.cfg.quick,
            ladder: self.ladder_engaged,
        }
    }

    /// The axis's values under the resolution order of the module docs,
    /// each checked against the axis's [`Range`] and, for topologies,
    /// against [`MAX_NODES`] and [`MAX_EDGES`].
    fn resolve(&self, axis: &Axis) -> Result<Vec<AxisValue>, LabError> {
        let values = self.resolve_unchecked(axis);
        for v in &values {
            if let AxisValue::Topo(t) = v {
                if t.node_count() > MAX_NODES {
                    return Err(LabError::BadArgs(format!(
                        "axis '{}': {t} has more than {MAX_NODES} (2^24) nodes, \
                         the most any topology may have",
                        axis.name
                    )));
                }
                if t.max_edges() > MAX_EDGES {
                    return Err(LabError::BadArgs(format!(
                        "axis '{}': {t} can have more than {MAX_EDGES} (2^28) edges, \
                         the most any topology may have",
                        axis.name
                    )));
                }
            }
        }
        if let Some(range) = axis.range {
            if let Some(v) = values.iter().find(|v| !range.contains(**v)) {
                return Err(LabError::BadArgs(format!(
                    "axis '{}': {v} is out of range (the axis takes {} {range})",
                    axis.name, axis.name
                )));
            }
        }
        Ok(values)
    }

    fn resolve_unchecked(&self, axis: &Axis) -> Vec<AxisValue> {
        if let Some(vals) = self.overrides.get(axis.name) {
            return vals.clone();
        }
        if self.ladder_engaged {
            if let (Some(l), Some(topos)) = (&self.space.ladder, &self.computed_topos) {
                if l.target == axis.name {
                    return topos.clone();
                }
            }
        }
        if let Some(link) = &axis.link {
            if let Some(vals) = link(&self.ctx()) {
                return vals;
            }
        }
        if self.cfg.quick {
            if let Some(q) = &axis.quick {
                return q.clone();
            }
        }
        axis.default.clone()
    }

    fn run(&mut self, sweeping: bool) -> Result<(), LabError> {
        self.recurse_shared(0, sweeping)
    }

    fn recurse_shared(&mut self, depth: usize, sweeping: bool) -> Result<(), LabError> {
        let space = self.space;
        if depth == space.shared.len() {
            for bi in 0..space.blocks.len() {
                let active = match space.blocks[bi].when {
                    When::Always => true,
                    When::SmallGrid => !sweeping,
                    When::SizeSweep => sweeping,
                };
                if active {
                    self.recurse_block(bi, 0)?;
                }
            }
            return Ok(());
        }
        let values = self.resolve(&space.shared[depth])?;
        let name = space.shared[depth].name;
        self.note_used(name, values.clone());
        for v in values {
            self.stack.push((name, v));
            self.recurse_shared(depth + 1, sweeping)?;
            self.stack.pop();
        }
        Ok(())
    }

    fn recurse_block(&mut self, bi: usize, depth: usize) -> Result<(), LabError> {
        let space = self.space;
        let block = &space.blocks[bi];
        if depth == block.axes.len() {
            let ctx = Ctx {
                values: &self.stack,
                quick: self.cfg.quick,
                ladder: self.ladder_engaged,
            };
            if let Some(mut point) = (block.build)(&ctx)? {
                point.values = self.stack.clone();
                // Mirror numeric axis values into the point's knob list
                // (ahead of builder-pushed knobs) so summaries keep
                // reading them by name, exactly as the legacy grids set
                // them with `.with(..)`.
                let mut params: Vec<(String, f64)> = self
                    .stack
                    .iter()
                    .filter_map(|(name, v)| Some(((*name).to_string(), v.knob()?)))
                    .collect();
                params.extend(std::mem::take(&mut point.params));
                point.params = params;
                self.points.push(point);
            }
            return Ok(());
        }
        let values = self.resolve(&block.axes[depth])?;
        let name = block.axes[depth].name;
        self.note_used(name, values.clone());
        for v in values {
            self.stack.push((name, v));
            self.recurse_block(bi, depth + 1)?;
            self.stack.pop();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GridConfig {
        GridConfig::default()
    }

    fn simple_space() -> ParamSpace {
        ParamSpace::new(vec![Block::new(
            "main",
            vec![
                Axis::topologies(
                    "topo",
                    [Topology::Cycle { n: 8 }, Topology::Complete { n: 4 }],
                ),
                Axis::floats("gamma", [0.1, 0.01])
                    .quick_floats([0.1])
                    .range(Range::Positive),
            ],
            |ctx| {
                let topo = ctx.topology("topo")?;
                let gamma = ctx.float("gamma")?;
                Ok(Some(GridPoint::new(format!("{topo}/g={gamma}")).on(topo)))
            },
        )])
        .with_ladder("n", "topo", "cycles at each size", |ns| {
            ns.iter().map(|&n| Topology::Cycle { n }).collect()
        })
    }

    #[test]
    fn cartesian_expansion_is_row_major() {
        let exp = simple_space().expand(&cfg()).unwrap();
        let labels: Vec<&str> = exp.points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "cycle(n=8)/g=0.1",
                "cycle(n=8)/g=0.01",
                "complete(n=4)/g=0.1",
                "complete(n=4)/g=0.01",
            ]
        );
        // Numeric axis values are mirrored into the knob list.
        assert_eq!(exp.points[1].param("gamma"), Some(0.01));
        // The resolved space lists the values actually used.
        assert_eq!(exp.resolved[0].0, "topo");
        assert_eq!(exp.resolved[1], ("gamma".into(), "0.1,0.01".into()));
    }

    #[test]
    fn quick_lists_and_param_overrides_apply() {
        let quick = simple_space()
            .expand(&GridConfig {
                quick: true,
                ..cfg()
            })
            .unwrap();
        assert_eq!(quick.points.len(), 2);
        let overridden = simple_space()
            .expand(&GridConfig {
                params: vec![("gamma".into(), vec!["0.5".into(), "0.25".into()])],
                ..cfg()
            })
            .unwrap();
        assert_eq!(overridden.points.len(), 4);
        assert_eq!(overridden.points[0].param("gamma"), Some(0.5));
        assert!(overridden
            .resolved
            .iter()
            .any(|(k, v)| k == "gamma" && v == "0.5,0.25"));
    }

    #[test]
    fn unknown_and_malformed_params_are_bad_args() {
        for params in [
            vec![("nope".to_string(), vec!["1".to_string()])],
            vec![("gamma".to_string(), vec!["abc".to_string()])],
            vec![("gamma".to_string(), Vec::new())],
            vec![("topo".to_string(), vec!["klein-bottle:4".to_string()])],
            vec![
                ("gamma".to_string(), vec!["1".to_string()]),
                ("gamma".to_string(), vec!["2".to_string()]),
            ],
            // Repeated values expand to points with one label.
            vec![(
                "gamma".to_string(),
                vec!["0.5".to_string(), "0.5".to_string()],
            )],
            vec![(
                "graph-seed".to_string(),
                vec!["2".to_string(), "2".to_string()],
            )],
        ] {
            let err = simple_space().expand(&GridConfig { params, ..cfg() });
            assert!(matches!(err, Err(LabError::BadArgs(_))));
        }
    }

    #[test]
    fn values_outside_the_declared_range_are_bad_args() {
        // `k` defaults to `default`; its link, when set, overrides that.
        let space = |default: u64, linked: Option<u64>| {
            ParamSpace::new(vec![Block::new(
                "main",
                vec![Axis::ints("k", [default])
                    .range(Range::at_least(2))
                    .linked(move |_| linked.map(|k| vec![AxisValue::Int(k)]))],
                |ctx| Ok(Some(GridPoint::new(format!("k={}", ctx.int("k")?)))),
            )])
        };
        assert!(space(2, Some(3)).expand(&cfg()).is_ok());
        let k0 = vec![("k".to_string(), vec!["3".to_string(), "0".to_string()])];
        for (space, params) in [
            (space(1, None), Vec::new()),    // the default
            (space(2, Some(1)), Vec::new()), // a linked value
            (space(2, None), k0),            // an override
        ] {
            match space.expand(&GridConfig { params, ..cfg() }) {
                Err(LabError::BadArgs(msg)) => assert!(msg.contains("takes k >= 2"), "{msg}"),
                other => panic!("expected BadArgs, got {:?}", other.map(|e| e.points.len())),
            }
        }
        // Half-open: a rate of 1 drops every send and no run finishes.
        assert!(Range::Probability.contains(AxisValue::Float(0.0)));
        assert!(!Range::Probability.contains(AxisValue::Float(1.0)));
        assert!(!Range::Probability.contains(AxisValue::Float(1.5)));
        assert!(!Range::Ints(0, 1).contains(AxisValue::Int(2)));
        assert!(
            !Range::Positive.contains(AxisValue::Int(1)),
            "kinds must match"
        );
        assert_eq!(Range::Ints(0, 1).to_string(), "in [0, 1]");
        assert_eq!(Range::Probability.to_string(), "in [0, 1)");
    }

    #[test]
    fn topology_axes_refuse_graphs_below_their_minimum_size() {
        let space = || {
            ParamSpace::new(vec![Block::new(
                "main",
                vec![Axis::topologies("topo", [Topology::Cycle { n: 8 }]).range(Range::Nodes(6))],
                |ctx| Ok(Some(GridPoint::new(ctx.topology("topo")?.to_string()))),
            )])
            .with_ladder("n", "topo", "cycles at each size", |ns| {
                ns.iter().map(|&n| Topology::Cycle { n }).collect()
            })
        };
        assert!(space().expand(&cfg()).is_ok());
        for config in [
            // A topology the size ladder builds is checked like any other.
            GridConfig {
                ns: vec![6, 5],
                ..cfg()
            },
            GridConfig {
                topologies: vec![Topology::Complete { n: 4 }],
                ..cfg()
            },
        ] {
            match space().expand(&config) {
                Err(LabError::BadArgs(msg)) => {
                    assert!(msg.contains("takes topo with >= 6 nodes"), "{msg}")
                }
                other => panic!("expected BadArgs, got {:?}", other.map(|e| e.points.len())),
            }
        }
    }

    #[test]
    fn topologies_past_the_node_cap_are_refused_from_params_and_ladders() {
        let space = || {
            simple_space().with_ladder("n", "topo", "cycles at each size", |ns| {
                ns.iter().map(|&n| Topology::Cycle { n }).collect()
            })
        };
        let at_cap = GridConfig {
            topologies: vec![Topology::Cycle { n: MAX_NODES }],
            ..cfg()
        };
        assert!(space().expand(&at_cap).is_ok());
        // `--topo` values are covered end to end by `cli_exit_codes.rs`.
        for config in [
            GridConfig {
                params: vec![("topo".into(), vec!["cycle:16777217".into()])],
                ..cfg()
            },
            GridConfig {
                ns: vec![64, MAX_NODES + 1],
                ..cfg()
            },
        ] {
            match space().expand(&config) {
                Err(LabError::BadArgs(msg)) => {
                    assert!(msg.contains("more than 16777216 (2^24) nodes"), "{msg}")
                }
                other => panic!("expected BadArgs, got {:?}", other.map(|e| e.points.len())),
            }
        }
    }

    #[test]
    fn topologies_past_the_edge_cap_are_refused() {
        let expand = |topo: &str| {
            simple_space().expand(&GridConfig {
                params: vec![("topo".into(), vec![topo.into()])],
                ..cfg()
            })
        };
        // 2.0·10⁸ edges, and the densest complete graph under the cap.
        for topo in ["hypercube:24", "complete:23170"] {
            assert!(expand(topo).is_ok(), "{topo}");
        }
        for topo in ["complete:23171", "complete:100000", "gnp:100000x0.0001"] {
            match expand(topo) {
                Err(LabError::BadArgs(msg)) => {
                    assert!(msg.contains("more than 268435456 (2^28) edges"), "{msg}")
                }
                other => panic!(
                    "{topo}: expected BadArgs, got {:?}",
                    other.map(|e| e.points.len())
                ),
            }
        }
    }

    #[test]
    fn size_ladder_rewrites_topologies_unless_explicit() {
        let exp = simple_space()
            .expand(&GridConfig {
                ns: vec![5, 6],
                ..cfg()
            })
            .unwrap();
        let labels: Vec<&str> = exp.points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "cycle(n=5)/g=0.1",
                "cycle(n=5)/g=0.01",
                "cycle(n=6)/g=0.1",
                "cycle(n=6)/g=0.01",
            ]
        );
        assert!(exp.resolved.iter().any(|(k, _)| k == "n"));
        // Explicit topologies beat the ladder.
        let exp = simple_space()
            .expand(&GridConfig {
                ns: vec![5],
                topologies: vec![Topology::Complete { n: 3 }],
                ..cfg()
            })
            .unwrap();
        assert!(exp.points.iter().all(|p| p.label.starts_with("complete")));
    }

    #[test]
    fn blocks_gate_on_the_sweep_mode_and_links_fire() {
        let space = || {
            ParamSpace::new(vec![
                Block::new("small", vec![Axis::ints("x", [1, 2])], |ctx| {
                    Ok(Some(GridPoint::new(format!("small/x={}", ctx.int("x")?))))
                })
                .when(When::SmallGrid),
                Block::new(
                    "ladder",
                    vec![
                        Axis::topologies("topo", []),
                        Axis::ints("k", [2]).linked(|ctx| {
                            let t = ctx.topology("topo").ok()?;
                            Some(vec![AxisValue::Int(t.node_count() as u64)])
                        }),
                    ],
                    |ctx| {
                        Ok(Some(GridPoint::new(format!(
                            "ladder/{}/k={}",
                            ctx.topology("topo")?,
                            ctx.int("k")?
                        ))))
                    },
                )
                .when(When::SizeSweep),
            ])
            .with_ladder("n", "topo", "cycles", |ns| {
                ns.iter().map(|&n| Topology::Cycle { n }).collect()
            })
        };
        let small = space().expand(&cfg()).unwrap();
        assert_eq!(small.points.len(), 2);
        assert!(small.points[0].label.starts_with("small/"));
        let sweep = space()
            .expand(&GridConfig {
                ns: vec![7],
                ..cfg()
            })
            .unwrap();
        assert_eq!(sweep.points.len(), 1);
        assert_eq!(sweep.points[0].label, "ladder/cycle(n=7)/k=7");
        // The link loses to an explicit override.
        let forced = space()
            .expand(&GridConfig {
                ns: vec![7],
                params: vec![("k".into(), vec!["3".into()])],
                ..cfg()
            })
            .unwrap();
        assert_eq!(forced.points[0].label, "ladder/cycle(n=7)/k=3");
        // An override that only inactive blocks could consume is an
        // error, not a silent no-op: 'topo' belongs to the SizeSweep
        // block, which is inactive without --n…
        let err = space().expand(&GridConfig {
            topologies: vec![Topology::Cycle { n: 9 }],
            ..cfg()
        });
        assert!(matches!(err, Err(LabError::BadArgs(_))));
        // …and 'x' belongs to the SmallGrid block, disabled by --n.
        let err = space().expand(&GridConfig {
            ns: vec![7],
            params: vec![("x".into(), vec!["5".into()])],
            ..cfg()
        });
        assert!(matches!(err, Err(LabError::BadArgs(_))));
    }

    #[test]
    fn shared_axes_interleave_blocks() {
        let space = ParamSpace::new(vec![
            Block::new("a", vec![Axis::ints("x", [1, 2])], |ctx| {
                Ok(Some(GridPoint::new(format!(
                    "{}/a/{}",
                    ctx.topology("topo")?,
                    ctx.int("x")?
                ))))
            }),
            Block::new("b", vec![Axis::ints("y", [9])], |ctx| {
                Ok(Some(GridPoint::new(format!(
                    "{}/b/{}",
                    ctx.topology("topo")?,
                    ctx.int("y")?
                ))))
            }),
        ])
        .with_shared(vec![Axis::topologies(
            "topo",
            [Topology::Cycle { n: 3 }, Topology::Cycle { n: 4 }],
        )]);
        let labels: Vec<String> = space
            .expand(&cfg())
            .unwrap()
            .points
            .into_iter()
            .map(|p| p.label)
            .collect();
        assert_eq!(
            labels,
            [
                "cycle(n=3)/a/1",
                "cycle(n=3)/a/2",
                "cycle(n=3)/b/9",
                "cycle(n=4)/a/1",
                "cycle(n=4)/a/2",
                "cycle(n=4)/b/9",
            ]
        );
    }

    #[test]
    fn kind_mismatch_across_blocks_is_rejected() {
        let space = ParamSpace::new(vec![
            Block::new("a", vec![Axis::ints("x", [1])], |_| Ok(None)),
            Block::new("b", vec![Axis::floats("x", [1.0])], |_| Ok(None)),
        ]);
        assert!(matches!(space.expand(&cfg()), Err(LabError::BadArgs(_))));
    }

    #[test]
    fn describe_renders_axes() {
        let text = simple_space().describe();
        assert!(text.contains("--param topo="));
        assert!(text.contains("--param gamma="));
        assert!(text.contains("quick: 0.1"));
        assert!(text.contains("range: gamma > 0"));
        assert!(text.contains("size ladder"));
    }

    #[test]
    fn to_json_mirrors_the_declaration() {
        use crate::json::Value;
        let v = simple_space().to_json();
        let Some(Value::Arr(blocks)) = v.get("blocks") else {
            panic!("blocks array");
        };
        assert_eq!(blocks.len(), 1);
        assert_eq!(
            blocks[0].get("when").and_then(Value::as_str),
            Some("always")
        );
        let Some(Value::Arr(axes)) = blocks[0].get("axes") else {
            panic!("axes array");
        };
        assert_eq!(axes[0].get("name").and_then(Value::as_str), Some("topo"));
        assert_eq!(
            axes[0].get("kind").and_then(Value::as_str),
            Some("topology")
        );
        assert_eq!(axes[1].get("name").and_then(Value::as_str), Some("gamma"));
        // Value lists render as the same tokens --param parses.
        assert_eq!(
            axes[1].get("default").map(Value::render),
            Some(r#"["0.1","0.01"]"#.to_string())
        );
        assert_eq!(
            axes[1].get("quick").map(Value::render),
            Some(r#"["0.1"]"#.to_string())
        );
        assert_eq!(axes[0].get("range"), Some(&Value::Null));
        assert_eq!(axes[1].get("range").and_then(Value::as_str), Some("> 0"));
        assert_eq!(
            v.get("ladder")
                .and_then(|l| l.get("axis"))
                .and_then(Value::as_str),
            Some("n")
        );
        // Round-trips through the workspace JSON parser.
        let parsed = crate::json::parse(&v.render()).unwrap();
        assert_eq!(parsed.render(), v.render());
    }
}
