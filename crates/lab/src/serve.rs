//! HTTP routes over the durable run store — the `ale-lab serve` mode.
//!
//! The transport (worker pool, request parsing, chunked streaming) is
//! `ale-serve`; this module owns the route table and the store read
//! paths. Everything is read-only.
//!
//! ## One snapshot per run
//!
//! Each mounted run holds one immutable snapshot: the manifest's bytes
//! and parsed form, then the journal read once, with every entry's
//! place in file order, a key-sorted index of each key's last put, the
//! valid-prefix length and the `"missing"` count. It loads on the run's
//! first request, one load at a time. Every request, and every tail
//! poll, first stats `manifest.json` and `trials.db` and reuses the
//! snapshot only while both files keep the (inode, length, mtime) they
//! had when it was read, and only if it parsed the whole journal: a
//! torn journal is re-read on every request. Point 5 of the concurrency
//! contract in [`crate::db`] is why that suffices, so a dashboard
//! polling an in-progress run still sees the journal's current valid
//! prefix.
//!
//! A request then costs two `stat` calls plus work in proportion to its
//! response: binary searches over the sorted index or the file-order
//! offsets, and values copied straight out of the snapshot. A change to
//! either file costs one read and parse of the journal, as every
//! request used to. The price is memory: each mounted run keeps its
//! journal resident, about the file's size.
//!
//! Routes:
//!
//! | Route | Serves |
//! |---|---|
//! | `GET /runs` | manifest index across the mounted run dirs |
//! | `GET /runs/{id}/manifest` | the on-disk `manifest.json`, byte-identical |
//! | `GET /runs/{id}/summary` | raw `s/` rows from `trials.db`, key order |
//! | `GET /runs/{id}/trials?point=…&seed=…` | `t/` prefix scan as JSONL (chunked) |
//! | `GET /runs/{id}/space` | the scenario's `describe --json` object |
//! | `GET /runs/{id}/tail?from=N&wait=S` | live journal tail with a cursor |
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | `ale-telemetry` counter/histogram snapshot |
//!
//! Incomplete stores are served with `"complete": false` (and a
//! `"missing"` trial count) rather than refused.
//!
//! ## The tail-cursor protocol
//!
//! `/runs/{id}/tail?from=N` returns every `t/` entry of the journal's
//! valid framed prefix at byte offset ≥ `N` plus `"cursor"`: the length
//! of the valid prefix. While the run is incomplete the journal is
//! append-only, so a returned cursor is a stable entry boundary and the
//! next poll (`from=cursor`) yields only newer trials. `wait=S`
//! long-polls: the handler re-checks the files every 100 ms for up to
//! `S` seconds (capped) until new entries or completion arrive. When a
//! finished run compacts the journal, old offsets die; a cursor that no
//! longer lands on an entry boundary is answered with `"resync": true`
//! and an empty batch — the client rescans from 0 or switches to
//! `/summary`, which is the natural endpoint once `"complete": true`.

use crate::db::{io_err, Frame, Frames};
use crate::json::{parse, Value};
use crate::registry;
use crate::scenario::{LabError, Scenario};
use crate::store::{missing_among, RunManifest};
use ale_serve::{Body, Request, Response};
use ale_telemetry::{
    register_counter, register_histogram, Counter, MetricSnapshot, SharedHistogram,
};
use std::fmt::Write as _;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant, SystemTime};

/// Requests handled, across all routes (including 404s).
static REQUESTS: Counter = Counter::new("serve_requests_total");
/// Response payload bytes written (full bodies and streamed chunks).
static BYTES_SERVED: Counter = Counter::new("serve_response_bytes_total");
/// Snapshots read from a run directory (first use, or a file changed).
static SNAPSHOT_LOADS: Counter = Counter::new("serve_snapshot_loads_total");
/// Requests and tail polls answered from a snapshot already loaded.
static SNAPSHOT_HITS: Counter = Counter::new("serve_snapshot_hits_total");
/// Snapshot load latency (manifest and journal read and parsed), in
/// microseconds.
static SCAN_MICROS: SharedHistogram = SharedHistogram::new("serve_store_scan_micros");

/// Longest `wait=` a tail request may long-poll, seconds.
const MAX_TAIL_WAIT_SECS: u64 = 25;
/// Re-check interval while a tail request long-polls.
const TAIL_POLL_INTERVAL: Duration = Duration::from_millis(100);
/// Buffer between a `/trials` stream and the chunked connection, so a
/// chunk carries many records rather than one record or newline.
const STREAM_BUFFER: usize = 64 * 1024;

/// The `describe --json` object for a scenario — also served verbatim
/// by `GET /runs/{id}/space`, so the two stay byte-identical.
pub(crate) fn describe_json(scenario: &dyn Scenario) -> Value {
    Value::obj(vec![
        (
            "scenario".to_string(),
            Value::Str(scenario.name().to_string()),
        ),
        (
            "description".to_string(),
            Value::Str(scenario.description().to_string()),
        ),
        (
            "default_seeds".to_string(),
            Value::UInt(scenario.default_seeds(false)),
        ),
        (
            "quick_seeds".to_string(),
            Value::UInt(scenario.default_seeds(true)),
        ),
        ("space".to_string(), scenario.space().to_json()),
    ])
}

/// One run directory mounted under `/runs/{id}`.
struct MountedRun {
    id: String,
    dir: PathBuf,
    /// The last snapshot loaded; `None` until the run's first request.
    snapshot: Mutex<Option<Arc<Snapshot>>>,
}

impl MountedRun {
    /// The run as its files stand now: the cached snapshot while both
    /// files keep the identity it was read under and it parsed the whole
    /// journal, else a fresh load (see the module docs). Loads run one
    /// at a time per run; a poisoned lock is recovered, since a snapshot
    /// is only ever replaced whole.
    fn snapshot(&self) -> Result<Arc<Snapshot>, LabError> {
        let mut slot = self.snapshot.lock().unwrap_or_else(PoisonError::into_inner);
        let stamps = [
            FileStamp::of(&self.dir.join("manifest.json"))?,
            FileStamp::of(&self.dir.join("trials.db"))?,
        ];
        if let Some(snap) = slot.as_ref().filter(|s| s.whole() && s.stamps == stamps) {
            SNAPSHOT_HITS.add(1);
            return Ok(Arc::clone(snap));
        }
        // Drop the stale snapshot first, so a reload never holds two
        // journals at once beyond those in-flight responses still use.
        *slot = None;
        let start = Instant::now();
        let snap = Arc::new(Snapshot::load(&self.dir, stamps)?);
        SCAN_MICROS.record(start.elapsed().as_micros() as u64);
        SNAPSHOT_LOADS.add(1);
        *slot = Some(Arc::clone(&snap));
        Ok(snap)
    }
}

/// A file's identity as `stat` reports it. The writers only append to
/// `trials.db` or replace a file by temp-file + rename, so while the
/// stamp holds, so do the bytes (the [`crate::db`] contract, point 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileStamp {
    inode: u64,
    len: u64,
    mtime: Option<SystemTime>,
}

impl FileStamp {
    fn of(path: &Path) -> Result<FileStamp, LabError> {
        let meta = std::fs::metadata(path).map_err(|e| io_err(path, e))?;
        Ok(FileStamp {
            inode: inode(&meta),
            len: meta.len(),
            mtime: meta.modified().ok(),
        })
    }
}

#[cfg(unix)]
fn inode(meta: &std::fs::Metadata) -> u64 {
    std::os::unix::fs::MetadataExt::ino(meta)
}

/// Without inode numbers a rename is seen through the length and mtime
/// alone.
#[cfg(not(unix))]
fn inode(_: &std::fs::Metadata) -> u64 {
    0
}

/// One read of a mounted run, shared by every request it answers: the
/// manifest, and the journal's bytes with where each entry lies in them.
struct Snapshot {
    /// `manifest.json` and `trials.db`, as stamped before they were read.
    stamps: [FileStamp; 2],
    /// The manifest file, byte for byte.
    manifest_text: String,
    manifest: RunManifest,
    /// The journal file as read, torn tail included.
    journal: Vec<u8>,
    /// Every entry of the valid prefix, in file order, so offsets rise.
    frames: Vec<Frame>,
    /// Indices into `frames`, sorted by key: one per key, its last put.
    sorted: Vec<usize>,
    /// Length of the journal's valid prefix.
    valid_len: usize,
    /// Trials the manifest expects that the journal does not hold.
    missing: u64,
}

impl Snapshot {
    /// Reads the manifest, then the journal, as [`MountedRun::snapshot`]
    /// stamped them.
    fn load(dir: &Path, stamps: [FileStamp; 2]) -> Result<Snapshot, LabError> {
        let path = dir.join("manifest.json");
        let manifest_text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        let manifest =
            RunManifest::from_json(&parse(&manifest_text).map_err(LabError::BadRecord)?)?;
        let path = dir.join("trials.db");
        let journal = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        let mut walk = Frames::new(&journal);
        let frames: Vec<Frame> = walk.by_ref().collect();
        let valid_len = walk.valid_len();
        let mut snap = Snapshot {
            stamps,
            manifest_text,
            manifest,
            journal,
            frames,
            sorted: Vec::new(),
            valid_len,
            missing: 0,
        };
        // Later puts of a key sort first, so the dedup keeps the last.
        let mut sorted: Vec<usize> = (0..snap.frames.len()).collect();
        sorted.sort_by(|&a, &b| snap.key(a).cmp(snap.key(b)).then(b.cmp(&a)));
        sorted.dedup_by(|a, b| snap.key(*a) == snap.key(*b));
        snap.sorted = sorted;
        let trials = snap.prefix_range(b"t/");
        snap.missing = missing_among(
            &snap.manifest,
            snap.sorted[trials].iter().map(|&i| snap.key(i)),
        );
        Ok(snap)
    }

    /// True when the parse reached the end of the bytes read: no torn
    /// tail, so the stamps pin the content.
    fn whole(&self) -> bool {
        self.valid_len == self.journal.len()
    }

    fn key(&self, frame: usize) -> &[u8] {
        &self.journal[self.frames[frame].key.clone()]
    }

    fn value(&self, frame: usize) -> &[u8] {
        &self.journal[self.frames[frame].value.clone()]
    }

    /// The positions in `sorted` whose keys start with `prefix`: one
    /// binary search for the first, one for the end of the run.
    fn prefix_range(&self, prefix: &[u8]) -> Range<usize> {
        let start = self.sorted.partition_point(|&i| self.key(i) < prefix);
        let len = self.sorted[start..].partition_point(|&i| self.key(i).starts_with(prefix));
        start..start + len
    }
}

/// The route table: maps requests onto read-only views of the mounted
/// run directories. Shared by all server workers.
pub struct ServeApp {
    runs: Vec<MountedRun>,
}

impl ServeApp {
    /// Mounts `dirs`, each under its directory name. Every directory
    /// must hold a `manifest.json` and a `trials.db` (incomplete runs
    /// are fine — they are served with `"complete": false`). Nothing is
    /// read yet: each run loads on its first request.
    ///
    /// # Errors
    ///
    /// [`LabError::BadArgs`] (the exit-2 contract) when no directory is
    /// given, a directory is not a run directory, or two directories
    /// share a name.
    pub fn new(dirs: &[PathBuf]) -> Result<ServeApp, LabError> {
        register_counter(&REQUESTS);
        register_counter(&BYTES_SERVED);
        register_counter(&SNAPSHOT_LOADS);
        register_counter(&SNAPSHOT_HITS);
        register_histogram(&SCAN_MICROS);
        if dirs.is_empty() {
            return Err(LabError::BadArgs(
                "serve needs at least one run directory".into(),
            ));
        }
        let mut runs: Vec<MountedRun> = Vec::new();
        for dir in dirs {
            let id = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .filter(|s| !s.is_empty())
                .ok_or_else(|| {
                    LabError::BadArgs(format!("{}: run directory has no name", dir.display()))
                })?;
            if !dir.join("manifest.json").is_file() {
                return Err(LabError::BadArgs(format!(
                    "{}: no manifest.json — not a run directory",
                    dir.display()
                )));
            }
            if !dir.join("trials.db").is_file() {
                return Err(LabError::BadArgs(format!(
                    "{}: no trials.db — run (or re-run) the sweep with --out to get \
                     a durable store",
                    dir.display()
                )));
            }
            if runs.iter().any(|r| r.id == id) {
                return Err(LabError::BadArgs(format!(
                    "two run directories both mount as '{id}' — rename one"
                )));
            }
            runs.push(MountedRun {
                id,
                dir: dir.clone(),
                snapshot: Mutex::new(None),
            });
        }
        Ok(ServeApp { runs })
    }

    /// Mounted `(id, dir)` pairs, in mount order.
    pub fn mounts(&self) -> Vec<(String, PathBuf)> {
        self.runs
            .iter()
            .map(|r| (r.id.clone(), r.dir.clone()))
            .collect()
    }

    /// Dispatches one request. Never panics; internal errors become
    /// `500`, bad parameters `400`, unknown paths `404`.
    pub fn handle(&self, req: &Request) -> Response {
        REQUESTS.add(1);
        if req.method != "GET" {
            return Response::text(405, "read-only service: GET only\n");
        }
        let resp = match self.route(req) {
            Ok(resp) => resp,
            Err(LabError::BadArgs(msg)) => Response::bad_request(&msg),
            Err(e) => Response::text(500, format!("internal error: {e}\n")),
        };
        if let Body::Full(bytes) = &resp.body {
            BYTES_SERVED.add(bytes.len() as u64);
        }
        resp
    }

    fn route(&self, req: &Request) -> Result<Response, LabError> {
        let path = req.path.trim_end_matches('/');
        match path {
            "/healthz" => Ok(Response::text(200, "ok\n")),
            "/metrics" => Ok(metrics_response()),
            "/runs" => self.runs_index(),
            _ => {
                let Some(rest) = path.strip_prefix("/runs/") else {
                    return Ok(Response::not_found(&req.path));
                };
                let Some((id, route)) = rest.split_once('/') else {
                    return Ok(Response::not_found(&req.path));
                };
                let Some(run) = self.runs.iter().find(|r| r.id == id) else {
                    return Ok(Response::not_found(&format!("no run mounted as '{id}'")));
                };
                match route {
                    "manifest" => Ok(Response::json(run.snapshot()?.manifest_text.clone())),
                    "summary" => summary_response(&run.id, &*run.snapshot()?),
                    "space" => space_response(&run.snapshot()?.manifest),
                    "trials" => trials_response(run.snapshot()?, req),
                    "tail" => tail_response(run, req),
                    _ => Ok(Response::not_found(&req.path)),
                }
            }
        }
    }

    fn runs_index(&self) -> Result<Response, LabError> {
        let mut entries = Vec::new();
        for run in &self.runs {
            let snap = run.snapshot()?;
            let manifest = &snap.manifest;
            let expected: u64 = manifest.counts.iter().sum();
            entries.push(Value::obj(vec![
                ("id".to_string(), Value::Str(run.id.clone())),
                (
                    "scenario".to_string(),
                    Value::Str(manifest.scenario.clone()),
                ),
                ("complete".to_string(), Value::Bool(manifest.complete)),
                ("quick".to_string(), Value::Bool(manifest.quick)),
                ("shard".to_string(), Value::Str(manifest.shard.clone())),
                (
                    "points".to_string(),
                    Value::UInt(manifest.grid.len() as u64),
                ),
                ("trials".to_string(), Value::UInt(expected)),
                ("missing".to_string(), Value::UInt(snap.missing)),
            ]));
        }
        let body = Value::obj(vec![("runs".to_string(), Value::Arr(entries))]);
        Ok(Response::json(body.render_pretty() + "\n"))
    }
}

fn metrics_response() -> Response {
    let metrics = ale_telemetry::snapshot()
        .into_iter()
        .map(|m| match m {
            MetricSnapshot::Counter { name, value } => Value::obj(vec![
                ("name".to_string(), Value::Str(name.to_string())),
                ("kind".to_string(), Value::Str("counter".to_string())),
                ("value".to_string(), Value::UInt(value)),
            ]),
            MetricSnapshot::Histogram {
                name,
                count,
                buckets,
            } => Value::obj(vec![
                ("name".to_string(), Value::Str(name.to_string())),
                ("kind".to_string(), Value::Str("histogram".to_string())),
                ("count".to_string(), Value::UInt(count)),
                (
                    "buckets".to_string(),
                    Value::Arr(
                        buckets
                            .into_iter()
                            .map(|(bound, c)| Value::Arr(vec![Value::UInt(bound), Value::UInt(c)]))
                            .collect(),
                    ),
                ),
            ]),
        })
        .collect();
    let body = Value::obj(vec![("metrics".to_string(), Value::Arr(metrics))]);
    Response::json(body.render_pretty() + "\n")
}

/// Serves the stored `s/` rows as raw bytes spliced into a JSON array,
/// so served rows are byte-identical to the journaled ones (re-encoding
/// floats could drift). Incomplete runs get `"complete": false` and
/// whatever rows exist (normally none until `finish` writes them). The
/// rows and the `"missing"` count come from one snapshot.
fn summary_response(id: &str, snap: &Snapshot) -> Result<Response, LabError> {
    let mut body = Vec::new();
    write!(
        body,
        "{{\"run\":{},\"scenario\":{},\"complete\":{},\"missing\":{},\"rows\":[",
        Value::Str(id.to_string()).render(),
        Value::Str(snap.manifest.scenario.clone()).render(),
        snap.manifest.complete,
        snap.missing
    )
    .expect("write to vec");
    for (i, &frame) in snap.sorted[snap.prefix_range(b"s/")].iter().enumerate() {
        if i > 0 {
            body.push(b',');
        }
        body.extend_from_slice(snap.value(frame));
    }
    body.extend_from_slice(b"]}\n");
    Ok(Response::json(body))
}

/// Serves the mounted run's scenario as the `describe --json` object.
fn space_response(manifest: &RunManifest) -> Result<Response, LabError> {
    let scenario = registry::find(&manifest.scenario)
        .ok_or_else(|| LabError::UnknownScenario(manifest.scenario.clone()))?;
    Ok(Response::json(
        describe_json(scenario.as_ref()).render_pretty() + "\n",
    ))
}

/// Streams trial records as JSONL, key order, straight out of the
/// snapshot. `point=` narrows to one grid point (by label), `seed=`
/// (requires `point=`) to one seed index.
fn trials_response(snap: Arc<Snapshot>, req: &Request) -> Result<Response, LabError> {
    let manifest = &snap.manifest;
    let mut prefix = format!("t/{}/{:016x}/", manifest.scenario, manifest.space_hash);
    match (req.query_param("point"), req.query_param("seed")) {
        (None, Some(_)) => {
            return Err(LabError::BadArgs(
                "the seed filter needs a point filter too".into(),
            ))
        }
        (None, None) => {}
        (Some(point), seed) => {
            let pos = manifest
                .grid
                .iter()
                .position(|label| label == point)
                .map(|i| manifest.positions[i])
                .ok_or_else(|| {
                    LabError::BadArgs(format!("no grid point labelled '{point}' in this run"))
                })?;
            write!(prefix, "{pos:08x}/").expect("write to string");
            if let Some(seed) = seed {
                let seed_index: u64 = seed.parse().map_err(|_| {
                    LabError::BadArgs(format!("seed filter '{seed}' is not a seed index"))
                })?;
                write!(prefix, "{seed_index:08x}").expect("write to string");
            }
        }
    }
    let range = snap.prefix_range(prefix.as_bytes());
    Ok(Response::stream(
        "application/x-ndjson",
        Box::new(move |w: &mut dyn std::io::Write| {
            let mut out = std::io::BufWriter::with_capacity(STREAM_BUFFER, w);
            let mut written = 0u64;
            for &frame in &snap.sorted[range] {
                let value = snap.value(frame);
                out.write_all(value)?;
                out.write_all(b"\n")?;
                written += value.len() as u64 + 1;
            }
            out.flush()?;
            BYTES_SERVED.add(written);
            Ok(written)
        }),
    ))
}

/// The tail route: serves the journal's valid prefix from a byte
/// cursor, long-polling while the run is in progress. See the module
/// docs for the protocol. The batch, cursor, and `"missing"` count come
/// from one snapshot.
fn tail_response(run: &MountedRun, req: &Request) -> Result<Response, LabError> {
    let from: u64 = match req.query_param("from") {
        None => 0,
        Some(raw) => raw
            .parse()
            .map_err(|_| LabError::BadArgs(format!("from cursor '{raw}' is not a byte offset")))?,
    };
    let wait_secs: u64 = match req.query_param("wait") {
        None => 0,
        Some(raw) => raw
            .parse()
            .map_err(|_| LabError::BadArgs(format!("wait '{raw}' is not a number of seconds")))?,
    };
    let deadline = Instant::now() + Duration::from_secs(wait_secs.min(MAX_TAIL_WAIT_SECS));
    loop {
        // Each poll re-checks the files: a concurrent `run`/`run
        // --resume` may append trials or flip the manifest to complete
        // at any time.
        let snap = run.snapshot()?;
        let valid_len = snap.valid_len as u64;
        let at = snap.frames.partition_point(|f| (f.offset as u64) < from);
        let on_boundary = from == 0
            || from == valid_len
            || snap.frames.get(at).is_some_and(|f| f.offset as u64 == from);
        let batch = if on_boundary {
            at..snap.frames.len()
        } else {
            0..0
        };
        let is_trial = |i: &usize| snap.key(*i).starts_with(b"t/");
        let ready = !on_boundary || batch.clone().any(|i| is_trial(&i));
        if ready || snap.manifest.complete || Instant::now() >= deadline {
            let mut body = Vec::new();
            write!(
                body,
                "{{\"run\":{},\"complete\":{},\"from\":{},\"cursor\":{},\"missing\":{},\
                 \"resync\":{},\"records\":[",
                Value::Str(run.id.clone()).render(),
                snap.manifest.complete,
                from,
                valid_len,
                snap.missing,
                !on_boundary
            )
            .expect("write to vec");
            for (n, i) in batch.filter(is_trial).enumerate() {
                if n > 0 {
                    body.push(b',');
                }
                body.extend_from_slice(snap.value(i));
            }
            body.extend_from_slice(b"]}\n");
            return Ok(Response::json(body));
        }
        // Let go of this snapshot while waiting: a reload meanwhile then
        // holds one journal, not two.
        drop(snap);
        std::thread::sleep(TAIL_POLL_INTERVAL);
    }
}
