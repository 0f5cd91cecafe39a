//! HTTP routes over the durable run store — the `ale-lab serve` mode.
//!
//! The transport (worker pool, request parsing, chunked streaming) is
//! `ale-serve`; this module owns the route table and the store read
//! paths. Everything is read-only and re-reads the run directory per
//! request, so a dashboard polling an in-progress run always sees the
//! journal's current valid prefix (see the concurrency contract in
//! [`crate::db`]).
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
//! `/runs/{id}/tail?from=N` reads `trials.db`, parses the valid framed
//! prefix, and returns every `t/` entry at byte offset ≥ `N` plus
//! `"cursor"`: the length of the valid prefix. While the run is
//! incomplete the journal is append-only, so a returned cursor is a
//! stable entry boundary and the next poll (`from=cursor`) yields only
//! newer trials. `wait=S` long-polls: the handler re-reads for up to
//! `S` seconds (capped) until new entries or completion arrive. When a
//! finished run compacts the journal, old offsets die; a cursor that no
//! longer lands on an entry boundary is answered with `"resync": true`
//! and an empty batch — the client rescans from 0 or switches to
//! `/summary`, which is the natural endpoint once `"complete": true`.

use crate::db::{scan_entries, AofDb, Db, ScannedEntry};
use crate::json::Value;
use crate::registry;
use crate::scenario::{LabError, Scenario};
use crate::store::{load_manifest, missing_among, missing_trials};
use ale_serve::{Body, Request, Response};
use ale_telemetry::{
    register_counter, register_histogram, Counter, MetricSnapshot, SharedHistogram,
};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Requests handled, across all routes (including 404s).
static REQUESTS: Counter = Counter::new("serve_requests_total");
/// Response payload bytes written (full bodies and streamed chunks).
static BYTES_SERVED: Counter = Counter::new("serve_response_bytes_total");
/// Journal scan latency per store read, in microseconds.
static SCAN_MICROS: SharedHistogram = SharedHistogram::new("serve_store_scan_micros");

/// Longest `wait=` a tail request may long-poll, seconds.
const MAX_TAIL_WAIT_SECS: u64 = 25;
/// Re-read interval while a tail request long-polls.
const TAIL_POLL_INTERVAL: Duration = Duration::from_millis(100);

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
}

/// The route table: maps requests onto read-only views of the mounted
/// run directories. Shared by all server workers.
pub struct ServeApp {
    runs: Vec<MountedRun>,
}

impl ServeApp {
    /// Mounts `dirs`, each under its directory name. Every directory
    /// must hold a `manifest.json` and a `trials.db` (incomplete runs
    /// are fine — they are served with `"complete": false`).
    ///
    /// # Errors
    ///
    /// [`LabError::BadArgs`] (the exit-2 contract) when no directory is
    /// given, a directory is not a run directory, or two directories
    /// share a name.
    pub fn new(dirs: &[PathBuf]) -> Result<ServeApp, LabError> {
        register_counter(&REQUESTS);
        register_counter(&BYTES_SERVED);
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
                    "manifest" => manifest_response(&run.dir),
                    "summary" => summary_response(&run.id, &run.dir),
                    "space" => space_response(&run.dir),
                    "trials" => trials_response(&run.dir, req),
                    "tail" => tail_response(&run.id, &run.dir, req),
                    _ => Ok(Response::not_found(&req.path)),
                }
            }
        }
    }

    fn runs_index(&self) -> Result<Response, LabError> {
        let mut entries = Vec::new();
        for run in &self.runs {
            let manifest = load_manifest(&run.dir.join("manifest.json"))?;
            let expected: u64 = manifest.counts.iter().sum();
            let missing = missing_trials(&run.dir, &manifest)?;
            entries.push(Value::obj(vec![
                ("id".to_string(), Value::Str(run.id.clone())),
                ("scenario".to_string(), Value::Str(manifest.scenario)),
                ("complete".to_string(), Value::Bool(manifest.complete)),
                ("quick".to_string(), Value::Bool(manifest.quick)),
                ("shard".to_string(), Value::Str(manifest.shard)),
                (
                    "points".to_string(),
                    Value::UInt(manifest.grid.len() as u64),
                ),
                ("trials".to_string(), Value::UInt(expected)),
                ("missing".to_string(), Value::UInt(missing)),
            ]));
        }
        let body = Value::obj(vec![("runs".to_string(), Value::Arr(entries))]);
        Ok(Response::json(body.render_pretty() + "\n"))
    }
}

/// Opens the journal read-only, timing the scan into [`SCAN_MICROS`].
fn open_journal(dir: &Path) -> Result<AofDb, LabError> {
    let start = Instant::now();
    let db = AofDb::open_read(&dir.join("trials.db"))?;
    SCAN_MICROS.record(start.elapsed().as_micros() as u64);
    Ok(db)
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

/// Serves the on-disk manifest bytes verbatim (it is already rendered
/// JSON, and byte-identity with the stored view is the point).
fn manifest_response(dir: &Path) -> Result<Response, LabError> {
    let path = dir.join("manifest.json");
    let bytes =
        std::fs::read(&path).map_err(|e| LabError::Io(format!("{}: {e}", path.display())))?;
    Ok(Response::json(bytes))
}

/// Serves the stored `s/` rows as raw bytes spliced into a JSON array,
/// so served rows are byte-identical to the journaled ones (re-encoding
/// floats could drift). Incomplete runs get `"complete": false` and
/// whatever rows exist (normally none until `finish` writes them). The
/// rows and the `"missing"` count come from one journal snapshot.
fn summary_response(id: &str, dir: &Path) -> Result<Response, LabError> {
    let manifest = load_manifest(&dir.join("manifest.json"))?;
    let db = open_journal(dir)?;
    let missing = missing_among(
        &manifest,
        db.iter_prefix(b"t/").into_iter().map(|(key, _)| key),
    );
    let mut body = Vec::new();
    write!(
        body,
        "{{\"run\":{},\"scenario\":{},\"complete\":{},\"missing\":{},\"rows\":[",
        Value::Str(id.to_string()).render(),
        Value::Str(manifest.scenario.clone()).render(),
        manifest.complete,
        missing
    )
    .expect("write to vec");
    for (i, (_, value)) in db.iter_prefix(b"s/").into_iter().enumerate() {
        if i > 0 {
            body.push(b',');
        }
        body.extend_from_slice(&value);
    }
    body.extend_from_slice(b"]}\n");
    Ok(Response::json(body))
}

/// Serves the mounted run's scenario as the `describe --json` object.
fn space_response(dir: &Path) -> Result<Response, LabError> {
    let manifest = load_manifest(&dir.join("manifest.json"))?;
    let scenario = registry::find(&manifest.scenario)
        .ok_or_else(|| LabError::UnknownScenario(manifest.scenario.clone()))?;
    Ok(Response::json(
        describe_json(scenario.as_ref()).render_pretty() + "\n",
    ))
}

/// Streams trial records as JSONL via a `t/` prefix scan. `point=`
/// narrows to one grid point (by label), `seed=` (requires `point=`)
/// to one seed index.
fn trials_response(dir: &Path, req: &Request) -> Result<Response, LabError> {
    let manifest = load_manifest(&dir.join("manifest.json"))?;
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
    let db = open_journal(dir)?;
    let values: Vec<Vec<u8>> = db
        .iter_prefix(prefix.as_bytes())
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    Ok(Response::stream(
        "application/x-ndjson",
        Box::new(move |w: &mut dyn std::io::Write| {
            let mut written = 0u64;
            for value in &values {
                w.write_all(value)?;
                w.write_all(b"\n")?;
                written += value.len() as u64 + 1;
            }
            BYTES_SERVED.add(written);
            Ok(written)
        }),
    ))
}

/// The tail route: serves the journal's valid prefix from a byte
/// cursor, long-polling while the run is in progress. See the module
/// docs for the protocol. The batch, cursor, and `"missing"` count come
/// from one read of the journal.
fn tail_response(id: &str, dir: &Path, req: &Request) -> Result<Response, LabError> {
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
    let db_path = dir.join("trials.db");
    loop {
        // Fresh reads each poll: a concurrent `run`/`run --resume` may
        // append trials or flip the manifest to complete at any time.
        let manifest = load_manifest(&dir.join("manifest.json"))?;
        let data = std::fs::read(&db_path)
            .map_err(|e| LabError::Io(format!("{}: {e}", db_path.display())))?;
        let start = Instant::now();
        let (entries, valid_len) = scan_entries(&data);
        SCAN_MICROS.record(start.elapsed().as_micros() as u64);
        let valid_len = valid_len as u64;
        let on_boundary =
            from == 0 || from == valid_len || entries.iter().any(|e| e.offset == from);
        let batch: Vec<&ScannedEntry> = if on_boundary {
            entries
                .iter()
                .filter(|e| e.offset >= from && e.key.starts_with(b"t/"))
                .collect()
        } else {
            Vec::new()
        };
        if !on_boundary || !batch.is_empty() || manifest.complete || Instant::now() >= deadline {
            let missing = missing_among(&manifest, entries.iter().map(|e| &e.key));
            let mut body = Vec::new();
            write!(
                body,
                "{{\"run\":{},\"complete\":{},\"from\":{},\"cursor\":{},\"missing\":{},\
                 \"resync\":{},\"records\":[",
                Value::Str(id.to_string()).render(),
                manifest.complete,
                from,
                valid_len,
                missing,
                !on_boundary
            )
            .expect("write to vec");
            for (i, entry) in batch.iter().enumerate() {
                if i > 0 {
                    body.push(b',');
                }
                body.extend_from_slice(&entry.value);
            }
            body.extend_from_slice(b"]}\n");
            return Ok(Response::json(body));
        }
        std::thread::sleep(TAIL_POLL_INTERVAL);
    }
}
