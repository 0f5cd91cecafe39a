//! End-to-end acceptance test for `ale-lab serve`: a real `ale-serve`
//! listener on an ephemeral port, driven over raw `TcpStream`s.
//!
//! Pins the two acceptance properties of the results service:
//!
//! * `/runs/{id}/summary` is **byte-identical** (modulo HTTP framing)
//!   to the stored `s/` rows of a completed `--quick` revocable run;
//! * `/runs/{id}/tail` on a killed-mid-sweep run returns exactly the
//!   journal's valid prefix, and after `run --resume` a
//!   cursor-continued tail reaches `"complete": true`.
//!
//! It also pins the snapshot cache: a run is read once while its files
//! stand, re-read when either changes, and re-read on every request
//! while its journal has a torn tail. The load counters are process
//! globals, so every test holds [`SERVING`] while it sends requests.

use ale_lab::db::{scan_entries, AofDb, Db};
use ale_lab::json::{self, Value};
use ale_lab::serve::ServeApp;
use ale_lab::store::load_manifest;
use ale_serve::{Body, Request, Server, ServerConfig, ServerHandle};
use ale_telemetry::MetricSnapshot;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

/// Held while a test sends requests, so its load count is its own.
static SERVING: Mutex<()> = Mutex::new(());

fn serving() -> MutexGuard<'static, ()> {
    SERVING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Snapshot loads so far in this process (`serve_snapshot_loads_total`).
fn loads() -> u64 {
    ale_telemetry::snapshot()
        .into_iter()
        .find_map(|m| match m {
            MetricSnapshot::Counter {
                name: "serve_snapshot_loads_total",
                value,
            } => Some(value),
            _ => None,
        })
        .expect("ServeApp::new registers the loads counter")
}

/// A response's status and (dechunked) body.
type Answer = (u16, Vec<u8>);

/// Answers `path` with `query` through `app` in process, a streamed body
/// written out whole.
fn call(app: &ServeApp, path: &str, query: &[(&str, &str)]) -> Answer {
    let req = Request {
        method: "GET".into(),
        path: path.into(),
        query: query
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        headers: Vec::new(),
    };
    let resp = app.handle(&req);
    let body = match resp.body {
        Body::Full(bytes) => bytes,
        Body::Stream(write) => {
            let mut out = Vec::new();
            write(&mut out).expect("stream to a vec");
            out
        }
    };
    (resp.status, body)
}

fn call_json(app: &ServeApp, path: &str, query: &[(&str, &str)]) -> Value {
    let (status, body) = call(app, path, query);
    assert_eq!(status, 200, "GET {path} {query:?}");
    json::parse(std::str::from_utf8(&body).expect("utf-8 body")).expect("valid JSON body")
}

/// Marks a stored run incomplete, as a killed run leaves its manifest.
fn mark_incomplete(dir: &Path) {
    let path = dir.join("manifest.json");
    let manifest = std::fs::read_to_string(&path).unwrap();
    std::fs::write(
        &path,
        manifest.replace("\"complete\": true", "\"complete\": false"),
    )
    .unwrap();
}

fn lab(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    ale_lab::cli::run(&args).expect("ale-lab command succeeds")
}

fn spawn_server(dirs: &[PathBuf]) -> ServerHandle {
    let app = Arc::new(ServeApp::new(dirs).expect("mount run dirs"));
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind ephemeral port");
    server
        .spawn(Arc::new(move |req| app.handle(req)))
        .expect("spawn server")
}

/// One raw HTTP request; returns (status, head, body) with chunked
/// transfer coding decoded.
fn request(addr: SocketAddr, method: &str, path: &str) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    stream.shutdown(Shutdown::Write).ok();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header/body split");
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let mut body = raw[split + 4..].to_vec();
    if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        body = dechunk(&body);
    }
    (status, head, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, Vec<u8>) {
    request(addr, "GET", path)
}

fn get_json(addr: SocketAddr, path: &str) -> Value {
    let (status, _, body) = get(addr, path);
    assert_eq!(status, 200, "GET {path}");
    json::parse(std::str::from_utf8(&body).expect("utf-8 body")).expect("valid JSON body")
}

fn dechunk(mut data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let nl = data
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk-size line");
        let size = usize::from_str_radix(std::str::from_utf8(&data[..nl]).unwrap().trim(), 16)
            .expect("hex chunk size");
        data = &data[nl + 2..];
        if size == 0 {
            break;
        }
        out.extend_from_slice(&data[..size]);
        data = &data[size + 2..];
    }
    out
}

fn arr(v: &Value) -> &[Value] {
    match v {
        Value::Arr(items) => items,
        other => panic!("expected array, got {}", other.render()),
    }
}

fn stored_values(dir: &Path, prefix: &[u8]) -> Vec<Vec<u8>> {
    let db = AofDb::open_read(&dir.join("trials.db")).expect("open store");
    db.iter_prefix(prefix).into_iter().map(|(_, v)| v).collect()
}

#[test]
fn served_views_match_the_store_byte_for_byte() {
    let root = std::env::temp_dir().join(format!("ale-lab-serve-accept-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let dir = root.join("q");
    lab(&[
        "run",
        "revocable",
        "--quick",
        "--quiet",
        "--seeds",
        "1",
        "--workers",
        "2",
        "--out",
        &dir.to_string_lossy(),
    ]);
    let manifest = load_manifest(&dir.join("manifest.json")).unwrap();
    let _serving = serving();
    let server = spawn_server(std::slice::from_ref(&dir));
    let addr = server.addr();
    let loads_before = loads();

    let (status, _, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));

    // The index reflects the manifest: one complete mounted run.
    let index = get_json(addr, "/runs");
    let runs = arr(index.get("runs").unwrap());
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].get("id").unwrap().as_str(), Some("q"));
    assert_eq!(runs[0].get("complete").unwrap().as_bool(), Some(true));
    assert_eq!(runs[0].get("missing").unwrap().as_u64(), Some(0));
    assert_eq!(
        runs[0].get("points").unwrap().as_u64(),
        Some(manifest.grid.len() as u64)
    );

    // The manifest route is the on-disk file, byte for byte.
    let (status, _, body) = get(addr, "/runs/q/manifest");
    assert_eq!(status, 200);
    assert_eq!(body, std::fs::read(dir.join("manifest.json")).unwrap());

    // The acceptance property: served summary rows are byte-identical
    // to the journaled `s/` values, modulo the JSON envelope.
    let (status, _, body) = get(addr, "/runs/q/summary");
    assert_eq!(status, 200);
    let envelope =
        b"{\"run\":\"q\",\"scenario\":\"revocable\",\"complete\":true,\"missing\":0,\"rows\":[";
    assert!(
        body.starts_with(envelope),
        "summary envelope: {}",
        String::from_utf8_lossy(&body[..envelope.len().min(body.len())])
    );
    assert!(body.ends_with(b"]}\n"));
    let served_rows = &body[envelope.len()..body.len() - 3];
    let expected_rows = stored_values(&dir, b"s/").join(&b","[..]);
    assert!(!expected_rows.is_empty());
    assert_eq!(served_rows, expected_rows.as_slice());

    // The space route and `describe --json` are the same renderer.
    let (status, _, body) = get(addr, "/runs/q/space");
    assert_eq!(status, 200);
    let described = lab(&["describe", "revocable", "--json"]) + "\n";
    assert_eq!(String::from_utf8_lossy(&body), described);

    // Trials stream as JSONL in key order, byte-identical to the store.
    let stored_trials = stored_values(&dir, b"t/");
    let expected_total: u64 = manifest.counts.iter().sum();
    assert_eq!(stored_trials.len() as u64, expected_total);
    let (status, head, body) = get(addr, "/runs/q/trials");
    assert_eq!(status, 200);
    assert!(head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked"));
    let mut expected = Vec::new();
    for value in &stored_trials {
        expected.extend_from_slice(value);
        expected.push(b'\n');
    }
    assert_eq!(body, expected);

    // Point and seed filters narrow the prefix scan.
    let label = &manifest.grid[0];
    let (status, _, body) = get(addr, &format!("/runs/q/trials?point={label}"));
    assert_eq!(status, 200);
    assert_eq!(
        body.split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .count() as u64,
        manifest.counts[0]
    );
    let (status, _, body) = get(addr, &format!("/runs/q/trials?point={label}&seed=0"));
    assert_eq!(status, 200);
    assert_eq!(
        body.split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .count(),
        1
    );
    assert_eq!(get(addr, "/runs/q/trials?seed=0").0, 400);
    assert_eq!(get(addr, "/runs/q/trials?point=nope").0, 400);

    // A complete store tails in one shot: every `t/` record, cursor at
    // the end of the journal.
    let tail = get_json(addr, "/runs/q/tail?from=0");
    assert_eq!(tail.get("complete").unwrap().as_bool(), Some(true));
    assert_eq!(tail.get("resync").unwrap().as_bool(), Some(false));
    assert_eq!(
        arr(tail.get("records").unwrap()).len() as u64,
        expected_total
    );
    assert_eq!(
        tail.get("cursor").unwrap().as_u64().unwrap(),
        std::fs::metadata(dir.join("trials.db")).unwrap().len()
    );

    // Unknown paths 404, writes 405, and the telemetry bridge counts it
    // all.
    assert_eq!(get(addr, "/nope").0, 404);
    assert_eq!(get(addr, "/runs/zzz/summary").0, 404);
    assert_eq!(request(addr, "POST", "/runs").0, 405);
    let metrics = get_json(addr, "/metrics");
    let metrics = arr(metrics.get("metrics").unwrap());
    let by_name = |name: &str| {
        metrics
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
            .unwrap_or_else(|| panic!("metric {name} exported"))
    };
    assert!(
        by_name("serve_requests_total")
            .get("value")
            .unwrap()
            .as_u64()
            >= Some(10)
    );
    assert!(
        by_name("serve_response_bytes_total")
            .get("value")
            .unwrap()
            .as_u64()
            > Some(0)
    );
    assert!(
        by_name("serve_store_scan_micros")
            .get("count")
            .unwrap()
            .as_u64()
            > Some(0)
    );
    // The store never changed, so every request above read one snapshot.
    assert_eq!(
        by_name("serve_snapshot_loads_total")
            .get("value")
            .unwrap()
            .as_u64(),
        Some(loads_before + 1)
    );

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn tail_serves_the_valid_prefix_of_a_killed_run_and_follows_resume() {
    let root = std::env::temp_dir().join(format!("ale-lab-serve-tail-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let dir = root.join("t1");
    let p = dir.to_string_lossy().to_string();
    lab(&[
        "run",
        "diffusion",
        "--quick",
        "--quiet",
        "--seeds",
        "2",
        "--workers",
        "2",
        "--out",
        &p,
    ]);

    // Simulate a kill mid-sweep, exactly like the resume exit-code
    // test: tear the persisted tails, drop the derived views, and leave
    // the manifest unmarked-complete.
    for (name, chop) in [("trials.db", 9u64), ("trials.jsonl", 5u64)] {
        let path = dir.join(name);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - chop).unwrap();
    }
    std::fs::remove_file(dir.join("trials.csv")).unwrap();
    std::fs::remove_file(dir.join("summary.csv")).unwrap();
    let manifest_path = dir.join("manifest.json");
    let manifest = std::fs::read_to_string(&manifest_path).unwrap();
    std::fs::write(
        &manifest_path,
        manifest.replace("\"complete\": true", "\"complete\": false"),
    )
    .unwrap();

    // What the journal's valid prefix actually holds right now.
    let torn = std::fs::read(dir.join("trials.db")).unwrap();
    let (entries, valid_len) = scan_entries(&torn);
    let torn_trials = entries.iter().filter(|e| e.key.starts_with(b"t/")).count();
    assert!(torn_trials > 0, "the torn journal still holds whole trials");

    let _serving = serving();
    let server = spawn_server(std::slice::from_ref(&dir));
    let addr = server.addr();

    // The tail of the killed run is exactly the valid framed prefix.
    let tail = get_json(addr, "/runs/t1/tail?from=0");
    assert_eq!(tail.get("complete").unwrap().as_bool(), Some(false));
    assert_eq!(tail.get("resync").unwrap().as_bool(), Some(false));
    assert_eq!(tail.get("cursor").unwrap().as_u64(), Some(valid_len as u64));
    assert_eq!(arr(tail.get("records").unwrap()).len(), torn_trials);
    assert!(tail.get("missing").unwrap().as_u64() >= Some(1));
    let cursor = tail.get("cursor").unwrap().as_u64().unwrap();

    // Incomplete stores are served, not refused: summary says so.
    let summary = get_json(addr, "/runs/t1/summary");
    assert_eq!(summary.get("complete").unwrap().as_bool(), Some(false));
    assert!(summary.get("missing").unwrap().as_u64() >= Some(1));

    // Finish the run out from under the live server.
    lab(&["run", "--resume", &p, "--quiet"]);

    // A cursor-continued tail reaches complete: true. Completion
    // compacts the journal, so the protocol allows the old cursor to be
    // answered with resync — in which case the client rescans from 0,
    // which must yield every trial of the finished run.
    let tail = get_json(addr, &format!("/runs/t1/tail?from={cursor}&wait=1"));
    assert_eq!(tail.get("complete").unwrap().as_bool(), Some(true));
    if tail.get("resync").unwrap().as_bool() == Some(true) {
        assert!(arr(tail.get("records").unwrap()).is_empty());
    }
    let manifest = load_manifest(&manifest_path).unwrap();
    let expected_total: u64 = manifest.counts.iter().sum();
    let full = get_json(addr, "/runs/t1/tail?from=0");
    assert_eq!(full.get("complete").unwrap().as_bool(), Some(true));
    assert_eq!(full.get("missing").unwrap().as_u64(), Some(0));
    assert_eq!(
        arr(full.get("records").unwrap()).len() as u64,
        expected_total
    );

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// A finished store whose journal lost its last trial, cut at an entry
/// boundary so nothing is torn, and whose manifest says incomplete.
/// Returns the cut entry's key and value.
fn store_missing_its_last_trial(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    lab(&[
        "run",
        "diffusion",
        "--quick",
        "--quiet",
        "--seeds",
        "2",
        "--workers",
        "2",
        "--out",
        &dir.to_string_lossy(),
    ]);
    let journal = dir.join("trials.db");
    let (entries, _) = scan_entries(&std::fs::read(&journal).unwrap());
    let last = entries
        .iter()
        .rev()
        .find(|e| e.key.starts_with(b"t/"))
        .expect("the store holds trials")
        .clone();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&journal)
        .unwrap();
    f.set_len(last.offset).unwrap();
    mark_incomplete(dir);
    (last.key, last.value)
}

#[test]
fn a_cached_run_is_reread_once_its_journal_grows() {
    let root = std::env::temp_dir().join(format!("ale-lab-serve-grow-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let dir = root.join("g");
    let (key, value) = store_missing_its_last_trial(&dir);
    let _serving = serving();
    let app = ServeApp::new(std::slice::from_ref(&dir)).unwrap();

    let missing = call_json(&app, "/runs/g/summary", &[])
        .get("missing")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(missing, 1);
    let tail = call_json(&app, "/runs/g/tail", &[("from", "0")]);
    assert_eq!(tail.get("complete").unwrap().as_bool(), Some(false));
    let cursor = tail.get("cursor").unwrap().as_u64().unwrap().to_string();
    // The cursor is the journal's end: nothing new behind it yet.
    let (_, body) = call(&app, "/runs/g/tail", &[("from", &cursor)]);
    assert!(body.ends_with(b"\"records\":[]}\n"));

    // The writer appends the missing trial, as a live run would.
    let mut db = AofDb::open(&dir.join("trials.db")).unwrap();
    db.put(&key, &value).unwrap();
    drop(db);

    let (status, body) = call(&app, "/runs/g/tail", &[("from", &cursor)]);
    assert_eq!(status, 200);
    let mut records = b"\"records\":[".to_vec();
    records.extend_from_slice(&value);
    records.extend_from_slice(b"]}\n");
    assert!(
        body.ends_with(&records),
        "tail after the append: {}",
        String::from_utf8_lossy(&body)
    );
    let summary = call_json(&app, "/runs/g/summary", &[]);
    assert_eq!(summary.get("missing").unwrap().as_u64(), Some(missing - 1));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_torn_journal_is_reread_on_every_request() {
    let root = std::env::temp_dir().join(format!("ale-lab-serve-torn-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let dir = root.join("torn");
    lab(&[
        "run",
        "diffusion",
        "--quick",
        "--quiet",
        "--seeds",
        "2",
        "--workers",
        "2",
        "--out",
        &dir.to_string_lossy(),
    ]);
    let journal = dir.join("trials.db");
    let len = std::fs::metadata(&journal).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&journal)
        .unwrap();
    f.set_len(len - 9).unwrap();
    mark_incomplete(&dir);

    let _serving = serving();
    let app = ServeApp::new(std::slice::from_ref(&dir)).unwrap();
    for (i, path) in ["/runs/torn/summary", "/runs/torn/tail", "/runs"]
        .iter()
        .cycle()
        .take(6)
        .enumerate()
    {
        let before = loads();
        assert_eq!(call(&app, path, &[]).0, 200, "request {i}: {path}");
        assert_eq!(
            loads(),
            before + 1,
            "request {i}: {path} reused a torn read"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn concurrent_requests_share_one_load_and_match_a_fresh_app() {
    let root = std::env::temp_dir().join(format!("ale-lab-serve-shared-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let dir = root.join("s");
    lab(&[
        "run",
        "table1",
        "--quick",
        "--quiet",
        "--seeds",
        "2",
        "--workers",
        "2",
        "--out",
        &dir.to_string_lossy(),
    ]);
    let manifest = load_manifest(&dir.join("manifest.json")).unwrap();
    let (entries, valid_len) = scan_entries(&std::fs::read(dir.join("trials.db")).unwrap());
    let offsets: Vec<String> = entries
        .iter()
        .map(|e| e.offset.to_string())
        .chain([valid_len.to_string(), (valid_len + 3).to_string()])
        .collect();
    let mut targets: Vec<(&str, Vec<(&str, &str)>)> = vec![
        ("/runs", vec![]),
        ("/runs/s/summary", vec![]),
        ("/runs/s/manifest", vec![]),
        ("/runs/s/space", vec![]),
        ("/runs/s/trials", vec![]),
        ("/runs/s/trials", vec![("seed", "0")]),
    ];
    for label in &manifest.grid {
        targets.push(("/runs/s/trials", vec![("point", label)]));
        targets.push(("/runs/s/trials", vec![("point", label), ("seed", "1")]));
    }
    for offset in offsets.iter().step_by(7) {
        targets.push(("/runs/s/tail", vec![("from", offset)]));
    }

    let _serving = serving();
    let shared = ServeApp::new(std::slice::from_ref(&dir)).unwrap();
    let before = loads();
    // All four threads reach the first, loading request together.
    let start = Barrier::new(4);
    let answers: Vec<Vec<(usize, Answer)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (shared, targets, start) = (&shared, &targets, &start);
                s.spawn(move || {
                    start.wait();
                    (0..100)
                        .map(|i| {
                            let pick = (t * 31 + i * 17) % targets.len();
                            let (path, query) = &targets[pick];
                            (pick, call(shared, path, query))
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(loads(), before + 1, "400 requests on a standing store");

    let fresh = ServeApp::new(std::slice::from_ref(&dir)).unwrap();
    let expected: Vec<Answer> = targets
        .iter()
        .map(|(path, query)| call(&fresh, path, query))
        .collect();
    for (pick, answer) in answers.iter().flatten() {
        assert_eq!(
            answer, &expected[*pick],
            "{:?} differs from a fresh app's",
            targets[*pick]
        );
    }
    std::fs::remove_dir_all(&root).ok();
}
