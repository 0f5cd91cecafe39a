//! The result store: run manifests, a keyed durable journal, JSONL trial
//! logs, and CSV exports.
//!
//! Layout of one run directory:
//!
//! ```text
//! <out>/
//!   manifest.json   — scenario, master seed, grid + positions, config,
//!                     git stamp, `complete` marker (written LAST)
//!   trials.db       — append-only keyed journal (crate::db::AofDb): one
//!                     entry per trial, durable the moment the trial
//!                     finishes; plus the summary rows after completion
//!   trials.jsonl    — one TrialRecord per line, (point, seed-index) order
//!   trials.csv      — the same records, flat columns (extras unioned)
//!   summary.csv     — per-(point, metric) streaming statistics
//! ```
//!
//! `trials.db` is the run's only source of truth: every record is
//! [`crate::db::Db::put`] under its [`TrialKey`] — `(scenario,
//! space-hash, grid-position, seed-index)` — as soon as a worker produces
//! it, so a killed sweep can be completed by `ale-lab run --resume`
//! instead of restarted. Resume and `merge` read trials back through one
//! validator, [`validated_trials`]. The derived views (`trials.jsonl`,
//! `trials.csv`, `summary.csv`) are written at [`RunWriter::finish`] via
//! temp-file + rename and are never read back as trial input; the journal
//! is compacted to its sorted canonical form, and only then is the
//! manifest rewritten with `complete: true` — so an interrupted run is
//! always distinguishable from a finished one.
//! Because record order is deterministic (see [`crate::engine`]), two
//! runs with the same spec — or a killed-and-resumed run — produce
//! byte-identical stores; the property the determinism and resume tests
//! pin.

use crate::agg::RunSummary;
use crate::db::{AofDb, Db as _};
use crate::json::{parse, ToJson, Value};
use crate::scenario::{LabError, TrialRecord};
use crate::table::Table;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fs;
use std::path::Path;

/// Manifest schema version written and read by this tree. Version 2
/// added the durable-store fields: `positions`, `counts`, `config`,
/// `space_hash`, `complete`, `git_describe` (and changed `git` to the
/// [`git_stamp`] form); manifests of any other version are refused.
pub const STORE_VERSION: u32 = 2;

/// The raw invocation a run was launched with — enough to re-expand the
/// exact same grid for `run --resume`. Unlike the resolved `space` lines
/// (which record the *output* of expansion, including per-combination
/// linked-axis values that cannot be replayed as overrides), this is the
/// *input*: the `--n`/`--topo`/`--param`/`--algo` overrides as given.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunConfig {
    /// `--n` sizes.
    pub ns: Vec<u64>,
    /// `--topo` overrides in [`ale_graph::Topology::spec`] form (the
    /// round-trippable `family:args` string).
    pub topos: Vec<String>,
    /// Raw `--param key=v1,v2` overrides (minus engine pseudo-axes).
    pub params: Vec<(String, Vec<String>)>,
    /// `--algo` filter, by algorithm name.
    pub algos: Vec<String>,
}

impl RunConfig {
    fn to_json(&self) -> Value {
        Value::obj([
            (
                "ns".to_string(),
                Value::Arr(self.ns.iter().map(|&n| Value::UInt(n)).collect()),
            ),
            (
                "topos".to_string(),
                Value::Arr(self.topos.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "params".to_string(),
                Value::Arr(
                    self.params
                        .iter()
                        .map(|(k, vs)| {
                            Value::Arr(vec![
                                Value::Str(k.clone()),
                                Value::Arr(vs.iter().cloned().map(Value::Str).collect()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "algos".to_string(),
                Value::Arr(self.algos.iter().cloned().map(Value::Str).collect()),
            ),
        ])
    }

    fn from_json(v: &Value) -> Result<RunConfig, LabError> {
        let strings = |key: &str| -> Result<Vec<String>, LabError> {
            match v.get(key) {
                Some(Value::Arr(items)) => items
                    .iter()
                    .map(|i| {
                        i.as_str().map(str::to_string).ok_or_else(|| {
                            LabError::BadRecord(format!("config '{key}' holds a non-string"))
                        })
                    })
                    .collect(),
                None => Ok(Vec::new()),
                Some(_) => Err(LabError::BadRecord(format!(
                    "config '{key}' is not an array"
                ))),
            }
        };
        let ns = match v.get("ns") {
            Some(Value::Arr(items)) => items
                .iter()
                .map(|i| {
                    i.as_u64()
                        .ok_or_else(|| LabError::BadRecord("config 'ns' holds a non-u64".into()))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
            Some(_) => return Err(LabError::BadRecord("config 'ns' is not an array".into())),
        };
        let params = match v.get("params") {
            Some(Value::Arr(items)) => items
                .iter()
                .map(|pair| {
                    let bad = || {
                        LabError::BadRecord("config 'params' entry is not [key, [values…]]".into())
                    };
                    let Value::Arr(kv) = pair else {
                        return Err(bad());
                    };
                    let [k, vs] = kv.as_slice() else {
                        return Err(bad());
                    };
                    let key = k.as_str().ok_or_else(bad)?.to_string();
                    let Value::Arr(vs) = vs else {
                        return Err(bad());
                    };
                    let values = vs
                        .iter()
                        .map(|s| s.as_str().map(str::to_string).ok_or_else(bad))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok((key, values))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
            Some(_) => {
                return Err(LabError::BadRecord(
                    "config 'params' is not an array".into(),
                ))
            }
        };
        Ok(RunConfig {
            ns,
            topos: strings("topos")?,
            params,
            algos: strings("algos")?,
        })
    }
}

/// Everything needed to interpret (and re-run) a stored run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Scenario name.
    pub scenario: String,
    /// Master seed.
    pub master_seed: u64,
    /// Global seeds per grid point.
    pub seeds: u64,
    /// Worker threads (informational — results don't depend on it).
    pub workers: usize,
    /// Grid-point labels in execution order.
    pub grid: Vec<String>,
    /// Full-grid position of each grid point, parallel to `grid` — the
    /// seed-stream discriminator and the position component of every
    /// [`TrialKey`].
    pub positions: Vec<u64>,
    /// Expected trial count per grid point, parallel to `grid` (points
    /// may override the global `seeds`).
    pub counts: Vec<u64>,
    /// [`git_stamp`] of the producing tree: exact short sha, `-dirty`
    /// when the work tree had uncommitted changes — the same stamp bench
    /// JSON carries, so all artifacts of one run agree.
    pub git: String,
    /// `git describe` of the producing tree (tag-relative; extra
    /// provenance, kept alongside the stamp).
    pub git_describe: String,
    /// Whether the quick grid was used.
    pub quick: bool,
    /// Grid shard this run executed, as `"i/k"` (`"0/1"` = the whole
    /// grid). Shards of one logical sweep share the scenario, master
    /// seed, seed count, quick flag, and resolved space — `merge`
    /// verifies those before unioning journals — while `grid` lists
    /// only the labels this shard selected and `workers` may differ per
    /// machine.
    pub shard: String,
    /// The resolved parameter space, one `key=v1,v2,…` line per axis as
    /// reported by [`crate::params::ParamSpace::expand`] — the record of
    /// which sweep this run actually executed once `--quick`/`--param`
    /// overrides were applied.
    pub space: Vec<String>,
    /// [`space_hash`] over (scenario, master seed, seeds, quick, space) —
    /// the sweep identity every [`TrialKey`] embeds.
    pub space_hash: u64,
    /// The raw invocation (see [`RunConfig`]); `None` (stored as `null`)
    /// in merged stores whose inputs' configs disagreed.
    pub config: Option<RunConfig>,
    /// `false` from [`RunWriter::create`] until [`RunWriter::finish`]
    /// rewrites the manifest — the completion marker that makes an
    /// interrupted run distinguishable from a finished one.
    pub complete: bool,
    /// Manifest schema version.
    pub version: u32,
}

impl RunManifest {
    /// Builds a (complete) manifest for the current tree, as for a whole
    /// unfiltered run: `positions` are the grid indices and every point
    /// expects `seeds` trials. `config` starts `None`; callers that
    /// select points, override counts, or replay an invocation set the
    /// fields directly.
    #[allow(clippy::too_many_arguments)]
    pub fn for_run(
        scenario: &str,
        master_seed: u64,
        seeds: u64,
        workers: usize,
        grid: Vec<String>,
        quick: bool,
        shard: &str,
        space: Vec<String>,
    ) -> Self {
        let hash = space_hash(scenario, master_seed, seeds, quick, &space);
        RunManifest {
            scenario: scenario.to_string(),
            master_seed,
            seeds,
            workers,
            positions: (0..grid.len() as u64).collect(),
            counts: vec![seeds; grid.len()],
            grid,
            git: git_stamp(),
            git_describe: git_describe(),
            quick,
            shard: shard.to_string(),
            space,
            space_hash: hash,
            config: None,
            complete: true,
            version: STORE_VERSION,
        }
    }

    /// Parses a manifest back from JSON. Every field is required
    /// (`config` may be `null`), `version` must be [`STORE_VERSION`], and
    /// `positions`/`counts` must be parallel to `grid`.
    ///
    /// # Errors
    ///
    /// [`LabError::BadRecord`] naming the missing, ill-typed, or
    /// inconsistent field.
    pub fn from_json(v: &Value) -> Result<RunManifest, LabError> {
        let ill = |k: &str, what: &str| LabError::BadRecord(format!("manifest '{k}' {what}"));
        let need = |k: &str| -> Result<&Value, LabError> {
            v.get(k)
                .ok_or_else(|| LabError::BadRecord(format!("manifest missing '{k}'")))
        };
        let string = |k: &str| -> Result<String, LabError> {
            need(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| ill(k, "is not a string"))
        };
        let uint = |k: &str| need(k)?.as_u64().ok_or_else(|| ill(k, "is not a u64"));
        let boolean = |k: &str| need(k)?.as_bool().ok_or_else(|| ill(k, "is not a bool"));
        let array = |k: &str| -> Result<&[Value], LabError> {
            match need(k)? {
                Value::Arr(items) => Ok(items),
                _ => Err(ill(k, "is not an array")),
            }
        };
        let strings = |k: &str| -> Result<Vec<String>, LabError> {
            array(k)?
                .iter()
                .map(|i| {
                    i.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| ill(k, "holds a non-string"))
                })
                .collect()
        };
        let version = uint("version")?;
        if version != u64::from(STORE_VERSION) {
            return Err(ill(
                "version",
                &format!("is {version}; this tree reads only version {STORE_VERSION}"),
            ));
        }
        let grid = strings("grid")?;
        let parallel = |k: &str| -> Result<Vec<u64>, LabError> {
            let values = array(k)?
                .iter()
                .map(|i| i.as_u64().ok_or_else(|| ill(k, "holds a non-u64")))
                .collect::<Result<Vec<u64>, _>>()?;
            if values.len() != grid.len() {
                return Err(ill(
                    k,
                    &format!(
                        "has {} entries for {} grid points",
                        values.len(),
                        grid.len()
                    ),
                ));
            }
            Ok(values)
        };
        let positions = parallel("positions")?;
        let counts = parallel("counts")?;
        Ok(RunManifest {
            scenario: string("scenario")?,
            master_seed: uint("master_seed")?,
            seeds: uint("seeds")?,
            workers: uint("workers")? as usize,
            grid,
            positions,
            counts,
            git: string("git")?,
            git_describe: string("git_describe")?,
            quick: boolean("quick")?,
            shard: string("shard")?,
            space: strings("space")?,
            space_hash: uint("space_hash")?,
            config: match need("config")? {
                Value::Null => None,
                c => Some(RunConfig::from_json(c)?),
            },
            complete: boolean("complete")?,
            version: STORE_VERSION,
        })
    }
}

impl ToJson for RunManifest {
    fn to_json(&self) -> Value {
        Value::obj([
            ("scenario".to_string(), Value::Str(self.scenario.clone())),
            ("master_seed".to_string(), Value::UInt(self.master_seed)),
            ("seeds".to_string(), Value::UInt(self.seeds)),
            ("workers".to_string(), Value::UInt(self.workers as u64)),
            (
                "grid".to_string(),
                Value::Arr(self.grid.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "positions".to_string(),
                Value::Arr(self.positions.iter().map(|&p| Value::UInt(p)).collect()),
            ),
            (
                "counts".to_string(),
                Value::Arr(self.counts.iter().map(|&c| Value::UInt(c)).collect()),
            ),
            ("git".to_string(), Value::Str(self.git.clone())),
            (
                "git_describe".to_string(),
                Value::Str(self.git_describe.clone()),
            ),
            ("quick".to_string(), Value::Bool(self.quick)),
            ("shard".to_string(), Value::Str(self.shard.clone())),
            (
                "space".to_string(),
                Value::Arr(self.space.iter().cloned().map(Value::Str).collect()),
            ),
            ("space_hash".to_string(), Value::UInt(self.space_hash)),
            (
                "config".to_string(),
                self.config.as_ref().map_or(Value::Null, RunConfig::to_json),
            ),
            ("complete".to_string(), Value::Bool(self.complete)),
            ("version".to_string(), Value::UInt(self.version as u64)),
        ])
    }
}

/// FNV-1a over the sweep identity: scenario, master seed, global seed
/// count, quick flag, and the resolved space lines. Every [`TrialKey`]
/// embeds this hash, so records from a drifted space (edited scenario
/// code, different overrides) can never be mistaken for resumable state.
pub fn space_hash(
    scenario: &str,
    master_seed: u64,
    seeds: u64,
    quick: bool,
    space: &[String],
) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        // Field separator: a byte no field can contain alone.
        h ^= 0x1f;
        h = h.wrapping_mul(PRIME);
    };
    eat(scenario.as_bytes());
    eat(&master_seed.to_le_bytes());
    eat(&seeds.to_le_bytes());
    eat(&[u8::from(quick)]);
    for line in space {
        eat(line.as_bytes());
    }
    h
}

/// The key every trial record is stored under: `(scenario, space-hash,
/// full-grid position, seed index)`, encoded fixed-width so the journal's
/// lexicographic key order equals `(position, seed-index)` numeric order.
///
/// ```text
/// t/<scenario>/<space-hash:016x>/<position:08x>/<seed-index:08x>
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TrialKey {
    /// Scenario name.
    pub scenario: String,
    /// [`space_hash`] of the sweep.
    pub space_hash: u64,
    /// The grid point's position in the FULL grid (the seed-stream
    /// discriminator).
    pub position: u64,
    /// Seed index within the point.
    pub seed_index: u64,
}

impl TrialKey {
    /// Renders the key bytes.
    pub fn encode(&self) -> Vec<u8> {
        format!(
            "t/{}/{:016x}/{:08x}/{:08x}",
            self.scenario, self.space_hash, self.position, self.seed_index
        )
        .into_bytes()
    }

    /// Parses key bytes back.
    ///
    /// # Errors
    ///
    /// [`LabError::BadRecord`] on anything that is not an encoded trial
    /// key.
    pub fn decode(key: &[u8]) -> Result<TrialKey, LabError> {
        let bad = || {
            LabError::BadRecord(format!(
                "'{}' is not a trial key (t/<scenario>/<hash>/<pos>/<seed-index>)",
                String::from_utf8_lossy(key)
            ))
        };
        let text = std::str::from_utf8(key).map_err(|_| bad())?;
        let rest = text.strip_prefix("t/").ok_or_else(bad)?;
        // Scenario names are free-form; the three fixed-width tail
        // segments are ours, so split from the right.
        let mut parts = rest.rsplitn(4, '/');
        let seed_index =
            u64::from_str_radix(parts.next().ok_or_else(bad)?, 16).map_err(|_| bad())?;
        let position = u64::from_str_radix(parts.next().ok_or_else(bad)?, 16).map_err(|_| bad())?;
        let space_hash =
            u64::from_str_radix(parts.next().ok_or_else(bad)?, 16).map_err(|_| bad())?;
        let scenario = parts.next().ok_or_else(bad)?.to_string();
        if scenario.is_empty() {
            return Err(bad());
        }
        Ok(TrialKey {
            scenario,
            space_hash,
            position,
            seed_index,
        })
    }
}

/// The key a summary row is stored under after a run completes:
/// `s/<scenario>/<space-hash:016x>/<position:08x>/<metric>`.
pub fn summary_key(scenario: &str, space_hash: u64, position: u64, metric: &str) -> Vec<u8> {
    format!("s/{scenario}/{space_hash:016x}/{position:08x}/{metric}").into_bytes()
}

/// `git describe --always --dirty --tags` of the tree this binary was
/// built from, or "unknown" when it was built without git or outside a
/// repository. Computed once, at build time (`build.rs`).
pub fn git_describe() -> String {
    env!("ALE_GIT_DESCRIBE").to_string()
}

/// The exact short sha of the `HEAD` this binary was built from, suffixed
/// `-dirty` when the work tree had uncommitted changes (`git status
/// --porcelain` non-empty); "unknown" when it was built without git or
/// outside a repository. Computed once, at build time (`build.rs`), so it
/// names the binary's sources, not the directory it runs in, and a run
/// spawns no `git`.
///
/// Unlike [`git_describe`], the stamp never moves when tags do, and the
/// dirtiness test sees untracked files — `describe --dirty` only reports
/// modifications to tracked content, so a bench run with new uncommitted
/// sources would previously stamp itself as clean. Run manifests and
/// bench JSON both stamp with this, so artifacts of one run agree.
pub fn git_stamp() -> String {
    env!("ALE_GIT_STAMP").to_string()
}

fn io_err(path: &Path, e: std::io::Error) -> LabError {
    LabError::Io(format!("{}: {e}", path.display()))
}

/// Writes `bytes` to `path` via a temp file in the same directory plus an
/// atomic rename, so readers never observe a torn file and a crash
/// mid-write leaves any previous version intact.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), LabError> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().to_string())
        .unwrap_or_else(|| "file".to_string());
    let tmp = path.with_file_name(format!("{name}.tmp"));
    fs::write(&tmp, bytes).map_err(|e| io_err(&tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

fn jsonl_bytes(records: &[TrialRecord]) -> Vec<u8> {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json().render());
        out.push('\n');
    }
    out.into_bytes()
}

/// Each grid label's full-grid position (`positions` is parallel to
/// `grid`).
fn positions_by_label(manifest: &RunManifest) -> HashMap<&str, u64> {
    manifest
        .grid
        .iter()
        .map(String::as_str)
        .zip(manifest.positions.iter().copied())
        .collect()
}

/// Upserts every summary row into `db` (the trials are already there,
/// one [`RunWriter::put`] each) and compacts it to the canonical sorted
/// form.
fn populate_db(
    db: &mut AofDb,
    manifest: &RunManifest,
    summary: &RunSummary,
) -> Result<(), LabError> {
    let pos_of = positions_by_label(manifest);
    for (label, metric, row) in summary.summary_rows() {
        let &position = pos_of.get(label.as_str()).ok_or_else(|| {
            LabError::BadRecord(format!(
                "summary row for '{label}', which the manifest grid does not list"
            ))
        })?;
        db.put(
            &summary_key(&manifest.scenario, manifest.space_hash, position, &metric),
            row.render().as_bytes(),
        )?;
    }
    db.compact()
}

/// What [`RunWriter::resume`] hands back: the reopened writer plus the
/// `(key, value)` trial entries that survived the crash in the journal.
pub type ResumedWriter = (RunWriter, Vec<(Vec<u8>, Vec<u8>)>);

/// Streams one run to disk as it executes, crash-safely:
/// [`RunWriter::create`] writes the manifest with `complete: false` and
/// opens the `trials.db` journal; [`RunWriter::put`] makes each record
/// durable under its [`TrialKey`] the moment a worker produces it (thread
/// safe — the engine calls it from the fleet); [`RunWriter::finish`]
/// derives `trials.jsonl`/`trials.csv`/`summary.csv` via temp-file +
/// rename, compacts the journal, and only then rewrites the manifest
/// with `complete: true`. A kill at any point leaves either a resumable
/// directory (`complete: false`, journal prefix intact) or a finished
/// one — never a silently torn store. The finished directory does not
/// depend on the order the puts arrived in. It is the only write path:
/// `merge` writes its union through it too.
pub struct RunWriter {
    dir: std::path::PathBuf,
    manifest: RunManifest,
    db: std::sync::Mutex<AofDb>,
}

impl RunWriter {
    fn marked_incomplete(dir: &Path, manifest: &RunManifest) -> Result<RunManifest, LabError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let mut m = manifest.clone();
        m.complete = false;
        write_atomic(
            &dir.join("manifest.json"),
            (m.to_json().render_pretty() + "\n").as_bytes(),
        )?;
        Ok(m)
    }

    /// Creates the run directory, writes the manifest (marked
    /// incomplete), and opens a fresh journal.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`LabError::Io`].
    pub fn create(dir: &Path, manifest: &RunManifest) -> Result<RunWriter, LabError> {
        let manifest = Self::marked_incomplete(dir, manifest)?;
        let db = AofDb::create(&dir.join("trials.db"))?;
        Ok(RunWriter {
            dir: dir.to_path_buf(),
            manifest,
            db: std::sync::Mutex::new(db),
        })
    }

    /// Reopens an interrupted run directory for completion: re-marks the
    /// manifest incomplete, recovers the journal's valid prefix (a torn
    /// tail from the crash is dropped), and returns the surviving
    /// `(key, value)` trial entries alongside the writer.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`LabError::Io`].
    pub fn resume(dir: &Path, manifest: &RunManifest) -> Result<ResumedWriter, LabError> {
        let manifest = Self::marked_incomplete(dir, manifest)?;
        let db = AofDb::open(&dir.join("trials.db"))?;
        let entries = db.iter_prefix(b"t/");
        Ok((
            RunWriter {
                dir: dir.to_path_buf(),
                manifest,
                db: std::sync::Mutex::new(db),
            },
            entries,
        ))
    }

    /// Makes one record durable in the journal. Safe to call from worker
    /// threads; entry order in the journal is scheduling-dependent, but
    /// [`RunWriter::finish`] compacts to sorted canonical form.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`LabError::Io`].
    pub fn put(&self, key: &TrialKey, record: &TrialRecord) -> Result<(), LabError> {
        let mut db = self
            .db
            .lock()
            .map_err(|_| LabError::Io("trials.db: journal lock poisoned".into()))?;
        db.put(&key.encode(), record.to_json().render().as_bytes())
    }

    /// Derives the CSV/JSONL views (temp-file + rename), stores the
    /// summary rows, compacts the journal, and rewrites the manifest
    /// with `complete: true` — in that order, so the completion marker
    /// is the last thing to land. `records` must be the full record set
    /// in task order, each already journaled by [`RunWriter::put`] under
    /// its [`TrialKey`].
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`LabError::Io`].
    pub fn finish(self, records: &[TrialRecord], summary: &RunSummary) -> Result<(), LabError> {
        let _span = ale_telemetry::Span::begin("store-write").attr("records", records.len());
        let RunWriter {
            dir,
            mut manifest,
            db,
        } = self;
        let mut db = db
            .into_inner()
            .map_err(|_| LabError::Io("trials.db: journal lock poisoned".into()))?;
        write_atomic(&dir.join("trials.jsonl"), &jsonl_bytes(records))?;
        write_atomic(&dir.join("trials.csv"), records_csv(records).as_bytes())?;
        write_atomic(&dir.join("summary.csv"), summary.summary_csv().as_bytes())?;
        populate_db(&mut db, &manifest, summary)?;
        manifest.complete = true;
        write_atomic(
            &dir.join("manifest.json"),
            (manifest.to_json().render_pretty() + "\n").as_bytes(),
        )
    }
}

/// Loads every record from a JSONL trial log (a derived view — the
/// `export` read path), erroring loudly on any malformed line, including
/// a mid-line-truncated final record.
///
/// # Errors
///
/// IO failures and malformed lines (with their line number).
pub fn load_jsonl(path: &Path) -> Result<Vec<TrialRecord>, LabError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value =
            parse(line).map_err(|e| LabError::BadRecord(format!("line {}: {e}", lineno + 1)))?;
        let record = TrialRecord::from_json(&value)
            .map_err(|e| LabError::BadRecord(format!("line {}: {e}", lineno + 1)))?;
        records.push(record);
    }
    Ok(records)
}

/// Parses a shard label: `"i/k"` from `--shard` and the engine,
/// `"i1,i2,…/k"` from a partial merge (indices strictly ascending, each
/// below `k`). `"0/1"` is a whole run. `None` when the label has neither
/// form; each caller reports that in its own terms.
pub(crate) fn parse_shard_label(label: &str) -> Option<(Vec<u64>, u64)> {
    let (is, k) = label.split_once('/')?;
    let k: u64 = k.trim().parse().ok()?;
    let mut indices: Vec<u64> = Vec::new();
    for piece in is.split(',') {
        let i: u64 = piece.trim().parse().ok()?;
        if i >= k || indices.last().is_some_and(|&last| last >= i) {
            return None;
        }
        indices.push(i);
    }
    Some((indices, k))
}

/// Loads a run manifest.
///
/// # Errors
///
/// IO failures, malformed JSON, and manifests [`RunManifest::from_json`]
/// rejects.
pub fn load_manifest(path: &Path) -> Result<RunManifest, LabError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    let value = parse(&text).map_err(LabError::BadRecord)?;
    RunManifest::from_json(&value)
}

/// A journaled trial accepted by [`validated_trials`]: `(grid index,
/// seed index, record)`, the grid index pointing into the manifest's
/// `grid`/`positions`/`counts`.
pub type JournaledTrial = (usize, u64, TrialRecord);

/// Validates a journal's `t/` entries (as [`crate::db::Db::iter_prefix`]
/// returns them, in key order) against the run's manifest and returns
/// them in that order — the one read path through which `run --resume`
/// and `merge` trust journaled trials. Each entry must be a
/// trial key of this sweep (scenario and space hash) at a position the
/// manifest lists, with a seed index below that point's count, and its
/// payload must parse to a record whose seed is the key's derived seed
/// ([`crate::fleet::derive_seed`]) and whose point is the grid label.
///
/// # Errors
///
/// [`LabError::BadRecord`] naming `journal` and the first entry that
/// fails a check.
pub fn validated_trials(
    journal: &Path,
    manifest: &RunManifest,
    entries: Vec<(Vec<u8>, Vec<u8>)>,
) -> Result<Vec<JournaledTrial>, LabError> {
    let index_of: HashMap<u64, usize> = manifest
        .positions
        .iter()
        .enumerate()
        .map(|(i, &position)| (position, i))
        .collect();
    let bad = |key: &[u8], why: &str| {
        LabError::BadRecord(format!(
            "{}: entry '{}' {why}",
            journal.display(),
            String::from_utf8_lossy(key)
        ))
    };
    entries
        .into_iter()
        .map(|(key, value)| {
            let k = TrialKey::decode(&key).map_err(|_| bad(&key, "is not a trial key"))?;
            if k.scenario != manifest.scenario || k.space_hash != manifest.space_hash {
                return Err(bad(&key, "belongs to a different sweep"));
            }
            let Some(&pi) = index_of.get(&k.position) else {
                return Err(bad(
                    &key,
                    "names a grid position the manifest does not list",
                ));
            };
            if k.seed_index >= manifest.counts[pi] {
                return Err(bad(&key, "has a seed index beyond the point's trial count"));
            }
            let text =
                std::str::from_utf8(&value).map_err(|_| bad(&key, "holds a non-UTF-8 payload"))?;
            let record = parse(text)
                .map_err(LabError::BadRecord)
                .and_then(|v| TrialRecord::from_json(&v))
                .map_err(|e| bad(&key, &format!("does not parse: {e}")))?;
            let seed = crate::fleet::derive_seed(manifest.master_seed, k.position, k.seed_index);
            if record.seed != seed || record.point != manifest.grid[pi] {
                return Err(bad(&key, "payload disagrees with its key (corruption)"));
            }
            Ok((pi, k.seed_index, record))
        })
        .collect()
}

/// One summary row served from the durable store (the `summaries` read
/// path `check` consumes).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSummaryRow {
    /// Grid-point label.
    pub point: String,
    /// Metric name.
    pub metric: String,
    /// Streaming mean.
    pub mean: f64,
    /// Samples seen.
    pub count: u64,
}

/// Serves a run directory's summary rows from the keyed store
/// (`trials.db` `s/` prefix), erroring loudly on an incomplete or torn
/// store instead of serving partial statistics.
///
/// # Errors
///
/// [`LabError::BadRecord`] on an incomplete run (manifest `complete:
/// false`), a truncated journal, or malformed rows; a missing manifest or
/// journal and other IO failures as [`LabError::Io`].
pub fn load_summary_rows(dir: &Path) -> Result<Vec<StoredSummaryRow>, LabError> {
    let manifest = load_manifest(&dir.join("manifest.json"))?;
    if !manifest.complete {
        let expected: u64 = manifest.counts.iter().sum();
        let missing = missing_trials(dir, &manifest).unwrap_or(expected);
        return Err(LabError::BadRecord(format!(
            "{}: run is incomplete (crashed or still running; {missing} of {expected} \
             (point, seed-index) trials missing) — finish it with \
             `ale-lab run --resume {}` first",
            dir.display(),
            dir.display()
        )));
    }
    let db = AofDb::open_read(&dir.join("trials.db"))?;
    if db.truncated() {
        return Err(LabError::BadRecord(format!(
            "{}: trials.db is truncated mid-entry — resume the run before reading summaries",
            dir.display()
        )));
    }
    let mut rows = Vec::new();
    for (key, value) in db.iter_prefix(b"s/") {
        let text = String::from_utf8(value).map_err(|_| {
            LabError::BadRecord(format!(
                "{}: summary row '{}' is not UTF-8",
                dir.display(),
                String::from_utf8_lossy(&key)
            ))
        })?;
        let v = parse(&text).map_err(LabError::BadRecord)?;
        let field = |name: &str| {
            v.get(name).ok_or_else(|| {
                LabError::BadRecord(format!(
                    "{}: summary row '{}' lacks '{name}'",
                    dir.display(),
                    String::from_utf8_lossy(&key)
                ))
            })
        };
        rows.push(StoredSummaryRow {
            point: field("point")?
                .as_str()
                .ok_or_else(|| LabError::BadRecord("summary row 'point' not a string".into()))?
                .to_string(),
            metric: field("metric")?
                .as_str()
                .ok_or_else(|| LabError::BadRecord("summary row 'metric' not a string".into()))?
                .to_string(),
            mean: field("mean")?
                .as_f64()
                .ok_or_else(|| LabError::BadRecord("summary row 'mean' not a number".into()))?,
            count: field("count")?
                .as_u64()
                .ok_or_else(|| LabError::BadRecord("summary row 'count' not a u64".into()))?,
        });
    }
    Ok(rows)
}

/// Counts the `(point, seed-index)` trials `manifest` expects that
/// `keys` do not hold: the expected total (Σ `counts`) minus the
/// distinct trial keys of this sweep at a listed position with an
/// in-range seed index. Foreign or undecodable keys are skipped and a
/// repeated key counts once, so the keys may come from a recovered
/// journal index or straight from [`crate::db::scan_entries`], which
/// keeps re-puts.
pub fn missing_among<K: AsRef<[u8]>>(
    manifest: &RunManifest,
    keys: impl IntoIterator<Item = K>,
) -> u64 {
    let count_at: HashMap<u64, u64> = manifest
        .positions
        .iter()
        .copied()
        .zip(manifest.counts.iter().copied())
        .collect();
    let mut present: HashSet<(u64, u64)> = HashSet::new();
    for key in keys {
        let Ok(k) = TrialKey::decode(key.as_ref()) else {
            continue;
        };
        if k.scenario == manifest.scenario
            && k.space_hash == manifest.space_hash
            && count_at
                .get(&k.position)
                .is_some_and(|&count| k.seed_index < count)
        {
            present.insert((k.position, k.seed_index));
        }
    }
    let expected: u64 = manifest.counts.iter().sum();
    expected.saturating_sub(present.len() as u64)
}

/// Counts the trials a run directory still lacks: [`missing_among`] the
/// keys journaled in its `trials.db` (a torn tail excluded). A missing
/// journal leaves everything missing. This is the number `check`'s
/// `--resume` hint and the serve routes report, so every view of "what
/// remains" agrees.
///
/// # Errors
///
/// Filesystem failures reading the journal as [`LabError::Io`].
pub fn missing_trials(dir: &Path, manifest: &RunManifest) -> Result<u64, LabError> {
    let db_path = dir.join("trials.db");
    if !db_path.exists() {
        return Ok(manifest.counts.iter().sum());
    }
    let db = AofDb::open_read(&db_path)?;
    Ok(missing_among(
        manifest,
        db.iter_prefix(b"t/").into_iter().map(|(key, _)| key),
    ))
}

/// Renders records as flat CSV; extra metrics become columns (the union
/// of keys across all records, in first-seen order per sorted set).
pub fn records_csv(records: &[TrialRecord]) -> String {
    let extra_keys: BTreeSet<&str> = records
        .iter()
        .flat_map(|r| r.extra.iter().map(|(k, _)| k.as_str()))
        .collect();
    let mut headers = vec![
        "scenario".to_string(),
        "point".to_string(),
        "family".to_string(),
        "algorithm".to_string(),
        "n".to_string(),
        "seed".to_string(),
        "rounds".to_string(),
        "congest_rounds".to_string(),
        "messages".to_string(),
        "bits".to_string(),
        "leaders".to_string(),
        "ok".to_string(),
    ];
    headers.extend(extra_keys.iter().map(|k| k.to_string()));
    let mut table = Table::new(headers);
    for r in records {
        let mut row = vec![
            r.scenario.clone(),
            r.point.clone(),
            r.family.clone(),
            r.algorithm.clone(),
            r.n.to_string(),
            r.seed.to_string(),
            r.rounds.to_string(),
            r.congest_rounds.to_string(),
            r.messages.to_string(),
            r.bits.to_string(),
            r.leaders.to_string(),
            r.ok.to_string(),
        ];
        for key in &extra_keys {
            row.push(
                r.extra
                    .iter()
                    .find(|(k, _)| k == key)
                    .map_or(String::new(), |(_, v)| format!("{v}")),
            );
        }
        table.push_row(row);
    }
    table.to_csv()
}

/// Converts a JSONL trial log to CSV (the `ale-lab export` subcommand).
///
/// # Errors
///
/// Propagates load failures.
pub fn csv_from_jsonl(path: &Path) -> Result<String, LabError> {
    Ok(records_csv(&load_jsonl(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GridPoint;
    use ale_graph::Topology;

    fn sample_records() -> Vec<TrialRecord> {
        let p0 = GridPoint::new("cell-a").on(Topology::Cycle { n: 8 });
        let p1 = GridPoint::new("cell-b").on(Topology::Complete { n: 4 });
        let mut a = TrialRecord::new("demo", &p0, 11);
        a.messages = 40;
        a.ok = true;
        a.push_extra("territory", 12.5);
        let mut b = TrialRecord::new("demo", &p1, 12);
        b.messages = 7;
        b.push_extra("ratio", 0.5);
        vec![a, b]
    }

    fn sample_summary(records: &[TrialRecord]) -> RunSummary {
        let grid = vec![
            GridPoint::new("cell-a").on(Topology::Cycle { n: 8 }),
            GridPoint::new("cell-b").on(Topology::Complete { n: 4 }),
        ];
        let mut summary = RunSummary::new("demo", &grid, 1, 1, 1);
        summary.record(0, &records[0]);
        summary.record(1, &records[1]);
        summary
    }

    /// Assigns every record its [`TrialKey`] from the manifest's grid:
    /// position from `positions` (parallel to `grid`), seed index by
    /// occurrence order within the point.
    fn keyed_records<'a>(
        manifest: &RunManifest,
        records: &'a [TrialRecord],
    ) -> Vec<(TrialKey, &'a TrialRecord)> {
        let pos_of = positions_by_label(manifest);
        let mut next_seed: HashMap<&str, u64> = HashMap::new();
        records
            .iter()
            .map(|r| {
                let seed_index = next_seed.entry(r.point.as_str()).or_insert(0);
                let key = TrialKey {
                    scenario: manifest.scenario.clone(),
                    space_hash: manifest.space_hash,
                    position: pos_of[r.point.as_str()],
                    seed_index: *seed_index,
                };
                *seed_index += 1;
                (key, r)
            })
            .collect()
    }

    /// Writes a finished store the way the engine does: create, one put
    /// per trial, finish.
    fn write_store(
        dir: &Path,
        manifest: &RunManifest,
        records: &[TrialRecord],
        summary: &RunSummary,
    ) {
        let writer = RunWriter::create(dir, manifest).unwrap();
        for (key, r) in keyed_records(manifest, records) {
            writer.put(&key, r).unwrap();
        }
        writer.finish(records, summary).unwrap();
    }

    #[test]
    fn jsonl_roundtrip_via_disk() {
        let dir = std::env::temp_dir().join(format!("ale-lab-store-{}", std::process::id()));
        let records = sample_records();
        let summary = sample_summary(&records);
        let manifest = RunManifest::for_run(
            "demo",
            1,
            1,
            1,
            vec!["cell-a".into(), "cell-b".into()],
            false,
            "2/4",
            vec!["topo=cycle(n=8),complete(n=4)".into()],
        );
        write_store(&dir, &manifest, &records, &summary);

        let loaded = load_jsonl(&dir.join("trials.jsonl")).unwrap();
        assert_eq!(loaded, records);
        let m = load_manifest(&dir.join("manifest.json")).unwrap();
        assert_eq!(m, manifest);
        assert!(m.complete);
        assert_eq!(m.version, STORE_VERSION);

        let csv = csv_from_jsonl(&dir.join("trials.jsonl")).unwrap();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        // Extra columns are the union, sorted.
        assert!(header.ends_with("ok,ratio,territory"));
        assert_eq!(lines.count(), 2);

        // The journal serves both record and summary keys.
        let db = AofDb::open_read(&dir.join("trials.db")).unwrap();
        assert!(!db.truncated());
        assert_eq!(db.iter_prefix(b"t/").len(), 2);
        assert!(!db.iter_prefix(b"s/").is_empty());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_output_does_not_depend_on_put_order() {
        let base = std::env::temp_dir().join(format!("ale-lab-stream-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let records = sample_records();
        let summary = sample_summary(&records);
        let manifest = RunManifest::for_run(
            "demo",
            1,
            1,
            1,
            vec!["cell-a".into(), "cell-b".into()],
            false,
            "0/1",
            Vec::new(),
        );
        // Returns the run directory and its journal as the puts left it.
        let write = |name: &str, reverse: bool| {
            let dir = base.join(name);
            let writer = RunWriter::create(&dir, &manifest).unwrap();
            // Mid-run, the manifest says incomplete.
            assert!(!load_manifest(&dir.join("manifest.json")).unwrap().complete);
            let mut keyed = keyed_records(&manifest, &records);
            if reverse {
                keyed.reverse();
            }
            for (key, r) in keyed {
                writer.put(&key, r).unwrap();
            }
            let journal = std::fs::read(dir.join("trials.db")).unwrap();
            writer.finish(&records, &summary).unwrap();
            (dir, journal)
        };
        let (in_order, in_order_journal) = write("in-order", false);
        let (reversed, reversed_journal) = write("reversed", true);
        assert_ne!(
            in_order_journal, reversed_journal,
            "puts landed in one order"
        );
        for file in [
            "manifest.json",
            "trials.jsonl",
            "trials.csv",
            "summary.csv",
            "trials.db",
        ] {
            let a = std::fs::read(in_order.join(file)).unwrap();
            let b = std::fs::read(reversed.join(file)).unwrap();
            assert_eq!(a, b, "{file} diverged");
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn trial_keys_roundtrip_and_sort_numerically() {
        let key = TrialKey {
            scenario: "ablation-cautious".into(),
            space_hash: 0xdead_beef_0123_4567,
            position: 300,
            seed_index: 7,
        };
        assert_eq!(TrialKey::decode(&key.encode()).unwrap(), key);
        // Fixed-width hex: byte order == numeric order.
        let lo = TrialKey {
            position: 9,
            ..key.clone()
        };
        let hi = TrialKey {
            position: 10,
            ..key.clone()
        };
        assert!(lo.encode() < hi.encode());
        for bad in [&b"t/x/zz/00/00"[..], b"s/x/0/0/0", b"t/", b"nope"] {
            assert!(TrialKey::decode(bad).is_err(), "{:?}", bad);
        }
    }

    #[test]
    fn space_hash_is_sensitive_to_every_component() {
        let space = vec!["n=8,16".to_string()];
        let base = space_hash("s", 1, 4, false, &space);
        assert_eq!(base, space_hash("s", 1, 4, false, &space));
        assert_ne!(base, space_hash("t", 1, 4, false, &space));
        assert_ne!(base, space_hash("s", 2, 4, false, &space));
        assert_ne!(base, space_hash("s", 1, 5, false, &space));
        assert_ne!(base, space_hash("s", 1, 4, true, &space));
        assert_ne!(base, space_hash("s", 1, 4, false, &["n=8,32".to_string()]));
    }

    #[test]
    fn git_stamp_is_a_sha_with_optional_dirty_suffix() {
        let stamp = git_stamp();
        assert!(!stamp.is_empty());
        if stamp != "unknown" {
            let sha = stamp.strip_suffix("-dirty").unwrap_or(&stamp);
            assert!(sha.len() >= 4, "short sha expected, got '{stamp}'");
            assert!(sha.chars().all(|c| c.is_ascii_hexdigit()), "'{stamp}'");
        }
    }

    #[test]
    fn manifests_stamp_git_like_bench_json_does() {
        // The provenance-drift fix: manifest.git is the exact stamp (the
        // same function bench JSON uses), with describe kept alongside.
        let manifest =
            RunManifest::for_run("demo", 1, 1, 1, vec!["a".into()], false, "0/1", Vec::new());
        assert_eq!(manifest.git, git_stamp());
        assert_eq!(manifest.git_describe, git_describe());
    }

    #[test]
    fn manifests_missing_a_v2_key_or_out_of_shape_are_rejected() {
        let manifest =
            RunManifest::for_run("demo", 1, 2, 3, vec!["a".into()], true, "0/1", Vec::new());
        assert_eq!(manifest.positions, [0]);
        assert_eq!(manifest.counts, [2]);
        // Re-parses the manifest with `key` set to `value`, or dropped.
        let edited = |key: &str, value: Option<Value>| {
            let mut v = manifest.to_json();
            if let Value::Obj(pairs) = &mut v {
                pairs.retain(|(k, _)| k != key || value.is_some());
                for (_, v) in pairs.iter_mut().filter(|(k, _)| k == key) {
                    *v = value.clone().expect("kept keys have a value");
                }
            }
            RunManifest::from_json(&v)
        };
        assert_eq!(edited("none", None).unwrap(), manifest);
        // Every key a v2 manifest carries is required; the error names it.
        for key in [
            "positions",
            "counts",
            "git_describe",
            "shard",
            "space",
            "space_hash",
            "config",
            "complete",
            "version",
        ] {
            let err = edited(key, None).unwrap_err();
            assert!(matches!(err, LabError::BadRecord(_)), "{key}: {err}");
            assert!(err.to_string().contains(&format!("'{key}'")), "{err}");
        }
        // Only this tree's schema version parses.
        let err = edited("version", Some(Value::UInt(1))).unwrap_err();
        assert!(err.to_string().contains("'version' is 1"), "{err}");
        // Positions and counts must be parallel to the grid.
        for key in ["positions", "counts"] {
            let err = edited(key, Some(Value::Arr(Vec::new()))).unwrap_err();
            assert!(
                err.to_string().contains("0 entries for 1 grid points"),
                "{err}"
            );
        }
        // A null config is a merged store whose inputs disagreed.
        assert_eq!(edited("config", Some(Value::Null)).unwrap().config, None);
    }

    #[test]
    fn manifest_roundtrips_with_durable_store_fields() {
        let mut manifest = RunManifest::for_run(
            "demo",
            1,
            2,
            3,
            vec!["a".into(), "b".into()],
            true,
            "1/2",
            vec!["n=8,16".into()],
        );
        manifest.positions = vec![1, 3];
        manifest.counts = vec![2, 5];
        manifest.complete = false;
        manifest.config = Some(RunConfig {
            ns: vec![8, 16],
            topos: vec!["cycle:8".into()],
            params: vec![("gamma".into(), vec!["0.1".into(), "0.3".into()])],
            algos: vec!["this-work".into()],
        });
        let back = RunManifest::from_json(&manifest.to_json()).unwrap();
        assert_eq!(back, manifest);
        assert_eq!(back.positions, [1, 3]);
        assert_eq!(back.counts, [2, 5]);
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let path = std::env::temp_dir().join(format!("ale-lab-bad-{}.jsonl", std::process::id()));
        std::fs::write(&path, "{\"scenario\": \"x\"}\n").unwrap();
        let err = load_jsonl(&path).unwrap_err();
        assert!(err.to_string().contains("line 1"));
        // A log torn mid-record is an error too, not a shorter log.
        let text = String::from_utf8(jsonl_bytes(&sample_records())).unwrap();
        std::fs::write(&path, &text[..text.len() - 17]).unwrap();
        assert!(load_jsonl(&path)
            .unwrap_err()
            .to_string()
            .contains("line 2"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summary_rows_are_served_from_the_store() {
        let dir = std::env::temp_dir().join(format!("ale-lab-sumrows-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let records = sample_records();
        let summary = sample_summary(&records);
        let manifest = RunManifest::for_run(
            "demo",
            1,
            1,
            1,
            vec!["cell-a".into(), "cell-b".into()],
            false,
            "0/1",
            Vec::new(),
        );
        write_store(&dir, &manifest, &records, &summary);
        let rows = load_summary_rows(&dir).unwrap();
        let msgs: Vec<&StoredSummaryRow> = rows.iter().filter(|r| r.metric == "messages").collect();
        assert_eq!(msgs.len(), 2);
        let a = msgs.iter().find(|r| r.point == "cell-a").unwrap();
        assert_eq!(a.mean, 40.0);
        assert_eq!(a.count, 1);

        // The journaled trials all count as present.
        assert_eq!(missing_trials(&dir, &manifest).unwrap(), 0);

        // An incomplete manifest blocks the read path loudly, naming the
        // missing-trial count next to the --resume hint.
        let mut m = manifest.clone();
        m.complete = false;
        write_atomic(
            &dir.join("manifest.json"),
            (m.to_json().render_pretty() + "\n").as_bytes(),
        )
        .unwrap();
        let err = load_summary_rows(&dir).unwrap_err().to_string();
        assert!(err.contains("incomplete"), "{err}");
        assert!(err.contains("--resume"), "{err}");
        assert!(err.contains("0 of 2 (point, seed-index) trials"), "{err}");

        // Raising a point's expected count reopens a gap, and a missing
        // journal leaves everything missing.
        let mut wider = manifest.clone();
        wider.positions = vec![0, 1];
        wider.counts = vec![3, 1];
        assert_eq!(missing_trials(&dir, &wider).unwrap(), 2);
        let empty = std::env::temp_dir().join(format!("ale-lab-nodb-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        assert_eq!(missing_trials(&empty, &manifest).unwrap(), 2);
        std::fs::remove_dir_all(&empty).ok();

        // A complete manifest without its journal is not a store.
        std::fs::remove_file(dir.join("trials.db")).unwrap();
        write_atomic(
            &dir.join("manifest.json"),
            (manifest.to_json().render_pretty() + "\n").as_bytes(),
        )
        .unwrap();
        assert!(matches!(load_summary_rows(&dir), Err(LabError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes the sample run, re-seeded as the engine would have seeded
    /// it (master seed 1), and returns its directory, manifest and
    /// records.
    fn sample_store(tag: &str) -> (std::path::PathBuf, RunManifest, Vec<TrialRecord>) {
        let dir = std::env::temp_dir().join(format!("ale-lab-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut records = sample_records();
        for (position, r) in records.iter_mut().enumerate() {
            r.seed = crate::fleet::derive_seed(1, position as u64, 0);
        }
        let manifest = RunManifest::for_run(
            "demo",
            1,
            1,
            1,
            vec!["cell-a".into(), "cell-b".into()],
            false,
            "0/1",
            Vec::new(),
        );
        write_store(&dir, &manifest, &records, &sample_summary(&records));
        (dir, manifest, records)
    }

    #[test]
    fn missing_among_scanned_keys_equals_missing_trials() {
        let (dir, mut manifest, _) = sample_store("missing-among");
        manifest.counts = vec![3, 2];
        let journal = dir.join("trials.db");
        // Re-put a journaled key, append a new one, then tear a third.
        let (entries, _) = crate::db::scan_entries(&std::fs::read(&journal).unwrap());
        let first = entries.iter().find(|e| e.key.starts_with(b"t/")).unwrap();
        let key = |position, seed_index| TrialKey {
            scenario: "demo".into(),
            space_hash: manifest.space_hash,
            position,
            seed_index,
        };
        let mut db = AofDb::open(&journal).unwrap();
        db.put(&first.key, &first.value).unwrap();
        db.put(&key(0, 1).encode(), b"{}").unwrap();
        db.put(&key(1, 1).encode(), b"{}").unwrap();
        drop(db);
        let data = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &data[..data.len() - 3]).unwrap();

        let data = std::fs::read(&journal).unwrap();
        let (scanned, _) = crate::db::scan_entries(&data);
        let repeats = scanned.iter().filter(|e| e.key == first.key).count();
        assert_eq!(repeats, 2, "scan_entries keeps the re-put");
        let from_scan = missing_among(&manifest, scanned.iter().map(|e| &e.key));
        // Expected 5; present: (0,0), (1,0), (0,1). The torn (1,1) and
        // the duplicate do not count.
        assert_eq!(from_scan, 2);
        assert_eq!(missing_trials(&dir, &manifest).unwrap(), from_scan);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validated_trials_reject_entries_that_disagree_with_the_manifest() {
        let (dir, manifest, records) = sample_store("validate");
        let journal = dir.join("trials.db");
        let entries = AofDb::open_read(&journal).unwrap().iter_prefix(b"t/");
        let trials = validated_trials(&journal, &manifest, entries.clone()).unwrap();
        let keys: Vec<(usize, u64)> = trials.iter().map(|&(pi, si, _)| (pi, si)).collect();
        assert_eq!(keys, [(0, 0), (1, 0)]);
        assert_eq!(trials[1].2, records[1]);

        let (key, value) = entries[0].clone();
        let k = TrialKey::decode(&key).unwrap();
        let moved = |k: TrialKey| vec![(k.encode(), value.clone())];
        let rejected = |entries: Vec<(Vec<u8>, Vec<u8>)>, why: &str| {
            let err = validated_trials(&journal, &manifest, entries).unwrap_err();
            assert!(err.to_string().contains(why), "{why}: {err}");
            assert!(err.to_string().contains("trials.db"), "{err}");
        };
        let foreign = TrialKey {
            space_hash: k.space_hash ^ 1,
            ..k.clone()
        };
        rejected(moved(foreign), "different sweep");
        let unlisted = TrialKey {
            position: 7,
            ..k.clone()
        };
        rejected(moved(unlisted), "does not list");
        let beyond = TrialKey {
            seed_index: 1,
            ..k.clone()
        };
        rejected(moved(beyond), "beyond the point's trial count");
        rejected(vec![(key.clone(), b"{".to_vec())], "does not parse");
        // Cell-a's record filed under cell-b's position: seed and label
        // disagree with the key.
        let swapped = TrialKey {
            position: 1,
            ..k.clone()
        };
        rejected(moved(swapped), "disagrees with its key");
        rejected(vec![(b"t/nope".to_vec(), value.clone())], "not a trial key");
        std::fs::remove_dir_all(&dir).ok();
    }
}
