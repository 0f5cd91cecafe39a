//! The scenario model: declarative experiment specs the fleet runner
//! executes.
//!
//! A [`Scenario`] contributes three things:
//!
//! * a **parameter space** — typed axes (`Topology × Algorithm ×
//!   knowledge regime × n × scenario knobs`) declared as a
//!   [`ParamSpace`], which the engine expands
//!   generically into [`GridPoint`]s (and which `--param key=v1,v2`
//!   overrides from the CLI, no code required);
//! * a **binder** — per grid point, a one-time preparation step (build the
//!   graph, compute its properties) returning the per-seed trial closure;
//!   axis values arrive typed through [`GridPoint::view`];
//! * a **summary** — the human-facing report built from the streamed
//!   aggregates: the scenario's table or figure series.
//!
//! Everything a trial returns is a flat, serializable [`TrialRecord`], so
//! runs persist to JSONL, export to CSV, and compare across PRs.

use crate::json::{ToJson, Value};
use crate::params::{AxisValue, ParamSpace};
use ale_core::CoreError;
use ale_graph::{GraphError, Topology};
use std::fmt;

use crate::runners::Algorithm;

/// Lab-level errors.
#[derive(Debug)]
pub enum LabError {
    /// Graph construction/analysis failed.
    Graph(GraphError),
    /// Protocol execution failed.
    Core(CoreError),
    /// Filesystem problems (message includes the path).
    Io(String),
    /// Malformed CLI arguments or scenario parameters.
    BadArgs(String),
    /// `run`/`describe` named a scenario the registry does not have.
    UnknownScenario(String),
    /// Persistence layer found a malformed record.
    BadRecord(String),
    /// `check` found cost regressions beyond tolerance (the payload is the
    /// rendered comparison report). Maps to a distinct exit code so CI can
    /// tell "run failed" from "run regressed".
    Regression(String),
}

impl fmt::Display for LabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabError::Graph(e) => write!(f, "graph error: {e}"),
            LabError::Core(e) => write!(f, "protocol error: {e}"),
            LabError::Io(msg) => write!(f, "io error: {msg}"),
            LabError::BadArgs(msg) => write!(f, "bad arguments: {msg}"),
            LabError::UnknownScenario(name) => {
                write!(f, "unknown scenario '{name}' (see `ale-lab list`)")
            }
            LabError::BadRecord(msg) => write!(f, "bad record: {msg}"),
            LabError::Regression(msg) => write!(f, "regression detected:\n{msg}"),
        }
    }
}

impl std::error::Error for LabError {}

impl From<GraphError> for LabError {
    fn from(e: GraphError) -> Self {
        LabError::Graph(e)
    }
}

impl From<CoreError> for LabError {
    fn from(e: CoreError) -> Self {
        LabError::Core(e)
    }
}

impl From<ale_congest::CongestError> for LabError {
    fn from(e: ale_congest::CongestError) -> Self {
        LabError::Core(CoreError::from(e))
    }
}

impl From<std::io::Error> for LabError {
    fn from(e: std::io::Error) -> Self {
        LabError::Io(e.to_string())
    }
}

/// What the algorithm is allowed to know about the network — the paper's
/// experimental axis (Table 1 rows differ exactly here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Knowledge {
    /// Full bundle: `n`, `t_mix`, `Φ` (Theorem 1's regime).
    Full,
    /// Size only (Kutten-style baselines).
    SizeOnly,
    /// Nothing (the revocable protocol's regime, Definition 2).
    Blind,
}

impl fmt::Display for Knowledge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Knowledge::Full => "full",
            Knowledge::SizeOnly => "size-only",
            Knowledge::Blind => "blind",
        };
        write!(f, "{s}")
    }
}

/// One cell of a scenario's parameter grid.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Stable, unique-within-scenario label (used as the result-store key
    /// and the seed stream discriminator must NOT depend on it — streams
    /// are positional — but resumption matching does).
    pub label: String,
    /// The topology, when the point runs on a graph.
    pub topology: Option<Topology>,
    /// The algorithm, for algorithm-comparison scenarios.
    pub algorithm: Option<Algorithm>,
    /// Knowledge regime of the algorithm at this point.
    pub knowledge: Knowledge,
    /// Network size (0 when not applicable).
    pub n: usize,
    /// Scenario-specific numeric knobs (x, gamma, k, …). Numeric axis
    /// values are mirrored here by the expansion so summaries can read
    /// them by name; point builders append derived knobs with
    /// [`GridPoint::with`].
    pub params: Vec<(String, f64)>,
    /// Typed axis values this point was expanded from (set by
    /// [`ParamSpace::expand`](crate::params::ParamSpace::expand); empty
    /// for hand-built points). Read them through [`GridPoint::view`].
    pub values: Vec<(&'static str, AxisValue)>,
    /// Per-point seed-count override (`None` → the run's global count).
    /// Monte-Carlo points want thousands of cheap trials while protocol
    /// points want tens of expensive ones — in the same run.
    pub seeds: Option<u64>,
}

impl GridPoint {
    /// Creates a bare point.
    pub fn new(label: impl Into<String>) -> Self {
        GridPoint {
            label: label.into(),
            topology: None,
            algorithm: None,
            knowledge: Knowledge::Full,
            n: 0,
            params: Vec::new(),
            values: Vec::new(),
            seeds: None,
        }
    }

    /// Typed accessor over the point's axis values and derived knobs —
    /// what `bind` implementations use instead of string-digging through
    /// [`GridPoint::params`].
    pub fn view(&self) -> PointView<'_> {
        PointView { point: self }
    }

    /// Sets the topology (and `n` from it).
    pub fn on(mut self, topology: Topology) -> Self {
        self.n = topology.node_count();
        self.topology = Some(topology);
        self
    }

    /// Sets the algorithm.
    pub fn algo(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Sets the knowledge regime.
    pub fn knowing(mut self, knowledge: Knowledge) -> Self {
        self.knowledge = knowledge;
        self
    }

    /// Adds a numeric knob.
    pub fn with(mut self, key: impl Into<String>, value: f64) -> Self {
        self.params.push((key.into(), value));
        self
    }

    /// Overrides the seed count for this point.
    pub fn seeds(mut self, seeds: u64) -> Self {
        self.seeds = Some(seeds);
        self
    }

    /// Reads a knob set by [`GridPoint::with`].
    pub fn param(&self, key: &str) -> Option<f64> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Topology family name, `"-"` when graph-free.
    pub fn family(&self) -> String {
        self.topology
            .as_ref()
            .map_or_else(|| "-".to_string(), |t| t.family().to_string())
    }
}

/// A typed view over one grid point, handed to `bind`: axis values by
/// name and kind, derived knobs by name. Every accessor fails with
/// [`LabError::BadArgs`] naming the missing field instead of panicking on
/// a format string mismatch.
pub struct PointView<'a> {
    point: &'a GridPoint,
}

impl PointView<'_> {
    fn missing(&self, what: &str, name: &str) -> LabError {
        LabError::BadArgs(format!(
            "grid point '{}' carries no {what} '{name}'",
            self.point.label
        ))
    }

    /// The point's topology.
    ///
    /// # Errors
    ///
    /// [`LabError::BadArgs`] for graph-free points.
    pub fn topology(&self) -> Result<Topology, LabError> {
        self.point
            .topology
            .ok_or_else(|| self.missing("value", "topology"))
    }

    /// The point's algorithm.
    ///
    /// # Errors
    ///
    /// [`LabError::BadArgs`] for points without an algorithm axis.
    pub fn algorithm(&self) -> Result<Algorithm, LabError> {
        self.point
            .algorithm
            .ok_or_else(|| self.missing("value", "algorithm"))
    }

    /// The raw value of an axis, if the expansion bound one.
    pub fn value(&self, name: &str) -> Option<AxisValue> {
        self.point
            .values
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }

    /// An int axis value.
    ///
    /// # Errors
    ///
    /// [`LabError::BadArgs`] when the axis is unbound or differently
    /// kinded.
    pub fn int(&self, name: &str) -> Result<u64, LabError> {
        match self.value(name) {
            Some(AxisValue::Int(v)) => Ok(v),
            _ => Err(self.missing("int axis", name)),
        }
    }

    /// A float axis value.
    ///
    /// # Errors
    ///
    /// [`LabError::BadArgs`] when the axis is unbound or differently
    /// kinded.
    pub fn float(&self, name: &str) -> Result<f64, LabError> {
        match self.value(name) {
            Some(AxisValue::Float(v)) => Ok(v),
            _ => Err(self.missing("float axis", name)),
        }
    }

    /// The seed this point builds its (random) topology with: the
    /// `graph-seed` pseudo-axis when the sweep binds one
    /// ([`ParamSpace::expand`] multiplies the grid per listed seed), else
    /// `default` — each scenario's historical fixed constant, keeping
    /// default expansions byte-identical.
    pub fn graph_seed(&self, default: u64) -> u64 {
        match self.value("graph-seed") {
            Some(AxisValue::Int(v)) => v,
            _ => default,
        }
    }

    /// A numeric knob — mirrored axis values and builder-derived
    /// parameters alike (see [`GridPoint::params`]).
    pub fn knob(&self, name: &str) -> Option<f64> {
        self.point.param(name)
    }

    /// [`PointView::knob`], required.
    ///
    /// # Errors
    ///
    /// [`LabError::BadArgs`] when the knob is absent.
    pub fn require_knob(&self, name: &str) -> Result<f64, LabError> {
        self.knob(name).ok_or_else(|| self.missing("knob", name))
    }
}

/// One trial's complete, serializable outcome.
///
/// Equality and the JSON form deliberately exclude the wall-clock
/// side-channel ([`TrialRecord::wall_ms`] / [`TrialRecord::msgs_per_sec`]):
/// those depend on the machine and the moment, while everything else is
/// seed-deterministic. Keeping them out preserves the store's
/// byte-identical guarantee and the determinism tests that pin it.
#[derive(Debug, Clone)]
pub struct TrialRecord {
    /// Scenario name.
    pub scenario: String,
    /// Grid-point label.
    pub point: String,
    /// Topology family (`"-"` when graph-free).
    pub family: String,
    /// Algorithm display name (`"-"` when not an algorithm comparison).
    pub algorithm: String,
    /// Network size (0 when not applicable).
    pub n: u64,
    /// The derived trial seed actually used.
    pub seed: u64,
    /// Simulator rounds.
    pub rounds: u64,
    /// CONGEST-charged rounds.
    pub congest_rounds: u64,
    /// Point-to-point messages.
    pub messages: u64,
    /// Payload bits.
    pub bits: u64,
    /// Leaders elected (0 when not an election).
    pub leaders: u64,
    /// Trial-level success flag (exactly one leader, lemma satisfied, …).
    pub ok: bool,
    /// Scenario-specific numeric outputs.
    pub extra: Vec<(String, f64)>,
    /// Wall-clock time the trial took, in milliseconds. Telemetry
    /// side-channel: not serialized, not compared (see the type docs).
    pub wall_ms: Option<f64>,
    /// Messages per wall-clock second. Telemetry side-channel: not
    /// serialized, not compared.
    pub msgs_per_sec: Option<f64>,
}

impl PartialEq for TrialRecord {
    fn eq(&self, other: &Self) -> bool {
        self.scenario == other.scenario
            && self.point == other.point
            && self.family == other.family
            && self.algorithm == other.algorithm
            && self.n == other.n
            && self.seed == other.seed
            && self.rounds == other.rounds
            && self.congest_rounds == other.congest_rounds
            && self.messages == other.messages
            && self.bits == other.bits
            && self.leaders == other.leaders
            && self.ok == other.ok
            && self.extra == other.extra
    }
}

impl TrialRecord {
    /// Creates a zeroed record tagged with its position in the run.
    pub fn new(scenario: &str, point: &GridPoint, seed: u64) -> Self {
        TrialRecord {
            scenario: scenario.to_string(),
            point: point.label.clone(),
            family: point.family(),
            algorithm: point
                .algorithm
                .map_or_else(|| "-".to_string(), |a| a.to_string()),
            n: point.n as u64,
            seed,
            rounds: 0,
            congest_rounds: 0,
            messages: 0,
            bits: 0,
            leaders: 0,
            ok: false,
            extra: Vec::new(),
            wall_ms: None,
            msgs_per_sec: None,
        }
    }

    /// Copies the simulator cost counters out of a metrics bundle.
    pub fn absorb_metrics(&mut self, m: &ale_congest::Metrics) {
        self.rounds = m.rounds;
        self.congest_rounds = m.congest_rounds;
        self.messages = m.messages;
        self.bits = m.bits;
    }

    /// Appends a scenario-specific numeric output.
    pub fn push_extra(&mut self, key: impl Into<String>, value: f64) {
        self.extra.push((key.into(), value));
    }
}

impl ToJson for TrialRecord {
    fn to_json(&self) -> Value {
        Value::obj([
            ("scenario".to_string(), Value::Str(self.scenario.clone())),
            ("point".to_string(), Value::Str(self.point.clone())),
            ("family".to_string(), Value::Str(self.family.clone())),
            ("algorithm".to_string(), Value::Str(self.algorithm.clone())),
            ("n".to_string(), Value::UInt(self.n)),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("rounds".to_string(), Value::UInt(self.rounds)),
            (
                "congest_rounds".to_string(),
                Value::UInt(self.congest_rounds),
            ),
            ("messages".to_string(), Value::UInt(self.messages)),
            ("bits".to_string(), Value::UInt(self.bits)),
            ("leaders".to_string(), Value::UInt(self.leaders)),
            ("ok".to_string(), Value::Bool(self.ok)),
            (
                "extra".to_string(),
                Value::obj(
                    self.extra
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }
}

impl TrialRecord {
    /// Parses a record back from its JSON form.
    ///
    /// # Errors
    ///
    /// [`LabError::BadRecord`] when required fields are missing or typed
    /// wrong.
    pub fn from_json(v: &Value) -> Result<TrialRecord, LabError> {
        let str_field = |k: &str| -> Result<String, LabError> {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| LabError::BadRecord(format!("missing string field '{k}'")))
        };
        let u64_field = |k: &str| -> Result<u64, LabError> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| LabError::BadRecord(format!("missing u64 field '{k}'")))
        };
        let extra = match v.get("extra") {
            Some(Value::Obj(pairs)) => pairs
                .iter()
                .map(|(k, val)| {
                    val.as_f64()
                        .map(|f| (k.clone(), f))
                        // Non-finite extras render as null; resurrect as NaN.
                        .or_else(|| matches!(val, Value::Null).then(|| (k.clone(), f64::NAN)))
                        .ok_or_else(|| LabError::BadRecord(format!("non-numeric extra '{k}'")))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
            Some(_) => return Err(LabError::BadRecord("'extra' is not an object".into())),
        };
        Ok(TrialRecord {
            scenario: str_field("scenario")?,
            point: str_field("point")?,
            family: str_field("family")?,
            algorithm: str_field("algorithm")?,
            n: u64_field("n")?,
            seed: u64_field("seed")?,
            rounds: u64_field("rounds")?,
            congest_rounds: u64_field("congest_rounds")?,
            messages: u64_field("messages")?,
            bits: u64_field("bits")?,
            leaders: u64_field("leaders")?,
            ok: v
                .get("ok")
                .and_then(Value::as_bool)
                .ok_or_else(|| LabError::BadRecord("missing bool field 'ok'".into()))?,
            extra,
            wall_ms: None,
            msgs_per_sec: None,
        })
    }
}

/// Grid-shaping inputs from the CLI.
#[derive(Debug, Clone, Default)]
pub struct GridConfig {
    /// Shrink the grid/seed counts for smoke runs.
    pub quick: bool,
    /// `--n` override — sugar for `--param n=…` (engages the scenario's
    /// size ladder when one is declared).
    pub ns: Vec<usize>,
    /// `--topo` override — sugar for `--param topo=…`.
    pub topologies: Vec<Topology>,
    /// Raw `--param key=v1,v2` overrides; validated against the declared
    /// [`ParamSpace`] at expansion time (unknown key, unparseable or
    /// out-of-range value → [`LabError::BadArgs`], exit code 2).
    pub params: Vec<(String, Vec<String>)>,
}

/// The per-seed trial closure a scenario binds for one grid point.
pub type TrialFn = Box<dyn Fn(u64) -> Result<TrialRecord, LabError> + Send + Sync>;

/// A registered experiment.
pub trait Scenario: Sync {
    /// Registry key (also the CLI name).
    fn name(&self) -> &'static str;

    /// One-line description for `ale-lab list`.
    fn description(&self) -> &'static str;

    /// Default seeds per grid point.
    fn default_seeds(&self, quick: bool) -> u64;

    /// Declares the scenario's parameter space: the typed axes it sweeps
    /// and how each combination becomes a [`GridPoint`]. The engine (and
    /// `--param`) does the rest — see [`crate::params`].
    fn space(&self) -> ParamSpace;

    /// Expands the declared space into the concrete grid — a convenience
    /// over [`ParamSpace::expand`] for callers that don't need the
    /// resolved-space record.
    ///
    /// # Errors
    ///
    /// [`LabError::BadArgs`] when CLI overrides don't fit the declared
    /// space.
    fn grid(&self, cfg: &GridConfig) -> Result<Vec<GridPoint>, LabError> {
        Ok(self.space().expand(cfg)?.points)
    }

    /// Performs the one-time per-point preparation (graph build, property
    /// computation) and returns the per-seed trial closure.
    ///
    /// # Errors
    ///
    /// Propagates preparation failures.
    fn bind(&self, point: &GridPoint) -> Result<TrialFn, LabError>;

    /// Renders the scenario's report from the aggregated run. The default
    /// is the generic cost table; scenarios override it to render their
    /// figure/table output.
    fn summarize(&self, run: &crate::agg::RunSummary) -> String {
        run.generic_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_point_builder() {
        let p = GridPoint::new("complete/n=16/this-work")
            .on(Topology::Complete { n: 16 })
            .algo(Algorithm::ThisWork)
            .knowing(Knowledge::Full)
            .with("x", 4.0)
            .seeds(7);
        assert_eq!(p.n, 16);
        assert_eq!(p.family(), "complete");
        assert_eq!(p.param("x"), Some(4.0));
        assert_eq!(p.param("y"), None);
        assert_eq!(p.seeds, Some(7));
    }

    #[test]
    fn record_json_roundtrip() {
        let point = GridPoint::new("cell").on(Topology::Cycle { n: 8 });
        let mut r = TrialRecord::new("table1", &point, u64::MAX - 3);
        r.messages = 123;
        r.bits = 4567;
        r.rounds = 12;
        r.congest_rounds = 14;
        r.leaders = 1;
        r.ok = true;
        r.push_extra("territory", 42.0);
        r.push_extra("ratio", 0.75);
        let v = r.to_json();
        let back = TrialRecord::from_json(&v).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn from_json_rejects_malformed() {
        let v = crate::json::parse(r#"{"scenario": "x"}"#).unwrap();
        assert!(matches!(
            TrialRecord::from_json(&v),
            Err(LabError::BadRecord(_))
        ));
    }
}
