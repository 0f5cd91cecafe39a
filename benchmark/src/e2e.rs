//! Untraced runs: the real `ale-lab` binary, timed from outside.

use crate::calib::Calibration;
use crate::checks::{self, Tally};
use crate::http::{self, MixInputs};
use crate::proc::{self, Watched};
use crate::stats::median;
use crate::workloads::Sweep;
use crate::Outcome;
use std::fs::{self, File};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A sweep job that has not exited by then is killed and counted failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);
/// Jobs per run even when the window is shorter than they take.
const MIN_JOBS: u64 = 3;
/// Server lifetimes per `serve-poll` run: each is one set-up sample.
const SERVE_LIFETIMES: u32 = 8;

/// Where and how long one run measures.
pub struct Env<'a> {
    /// The `ale-lab` binary.
    pub bin: &'a Path,
    /// This workload's scratch directory.
    pub out: &'a Path,
    /// `--seed`.
    pub seed: u64,
    /// Measurement window.
    pub window: Duration,
}

/// Runs one sweep job into `dir` (replacing it), logging next to it.
pub fn run_sweep(bin: &Path, sweep: &Sweep, master: u64, dir: &Path) -> Result<Watched, String> {
    let _ = fs::remove_dir_all(dir);
    let parent = dir.parent().ok_or("store directory has no parent")?;
    fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    let log = |ext: &str| {
        let path = dir.with_extension(ext);
        File::create(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let out = dir.to_str().ok_or("store path is not UTF-8")?;
    proc::reset_hwm();
    let spawned = Instant::now();
    let mut child = Command::new(bin)
        .args(sweep.argv(master, out))
        .stdin(Stdio::null())
        .stdout(log("stdout")?)
        .stderr(log("stderr")?)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let watched = proc::watch(&mut child, spawned, &dir.join("manifest.json"), JOB_TIMEOUT)?;
    match watched.exit.code {
        Some(0) => Ok(watched),
        code => Err(format!(
            "ale-lab exited with {code:?} (see {})",
            dir.with_extension("stderr").display()
        )),
    }
}

/// Untraced sweep runs: repeated `ale-lab run` jobs, each with fresh
/// seed-derived inputs, until the window closes. A calibration pass
/// before and after each job scales its times.
pub fn sweep(env: &Env, sweep: &Sweep) -> Outcome {
    let mut out = Outcome::default();
    let grid = match sweep.expand() {
        Ok(g) => g,
        Err(e) => {
            out.tally.fail(1, &e);
            return out;
        }
    };
    let mut calib = match Calibration::start() {
        Ok(c) => c,
        Err(e) => {
            out.tally.fail(1, &e);
            return out;
        }
    };
    let (mut walls, mut rates, mut setups, mut peaks) = (vec![], vec![], vec![], vec![]);
    let mut unscaled = Vec::new();
    let deadline = Instant::now() + env.window;
    let dir = env.out.join("run");
    let mut job = 0u64;
    while job < MIN_JOBS || Instant::now() < deadline {
        let master = sweep.master(env.seed, job);
        let digest = (env.seed == 1 && job == 0).then_some(sweep.digest_seed1);
        job += 1;
        let watched = run_sweep(env.bin, sweep, master, &dir);
        match watched.and_then(|w| Ok((w, calib.factor()?))) {
            Ok((w, f)) => {
                out.tally.pass(grid.trials());
                checks::sweep_store(&dir, &grid, digest, &mut out.tally);
                let wall = w.wall.as_secs_f64();
                unscaled.push(wall * 1e3);
                walls.push(wall * 1e3 * f);
                rates.push(grid.trials() as f64 / (wall * f));
                setups.push(w.ready.unwrap_or(w.wall).as_secs_f64() * f);
                peaks.push(w.exit.peak_rss_mb);
            }
            Err(e) => {
                out.tally.fail(grid.trials(), &format!("job {job}: {e}"));
                break;
            }
        }
    }
    if !walls.is_empty() {
        let n = walls.len();
        log_calibration(&calib, median(&unscaled));
        out.push("latency_p50_ms", median(&walls), "ms", n);
        out.push("throughput_per_s", median(&rates), "1/s", n);
        out.push("setup_s", median(&setups), "s", n);
        out.push("peak_rss_mb", median(&peaks), "MiB", n);
    }
    out
}

/// Notes on stderr how far the run's times were scaled.
fn log_calibration(calib: &Calibration, unscaled_latency_ms: f64) {
    let f = calib.factors();
    eprintln!(
        "calibration factor median {:.4} (min {:.4}, max {:.4}); unscaled latency_p50_ms {:.4}",
        median(f),
        f.iter().copied().fold(f64::MAX, f64::min),
        f.iter().copied().fold(f64::MIN, f64::max),
        unscaled_latency_ms
    );
}

/// A finished store as `ale-lab serve` mounts it, with what the route
/// mix draws from and the bytes two routes must return.
pub struct Served {
    /// The run directory.
    pub dir: PathBuf,
    /// Its mount id (the directory name).
    pub id: String,
    /// Grid point labels.
    pub labels: Vec<String>,
    /// Byte offsets of the journal's trial entries.
    pub cursors: Vec<u64>,
    /// Expected `/runs/{id}/summary` body.
    pub summary: Vec<u8>,
    /// Expected `/runs/{id}/manifest` body.
    pub manifest: Vec<u8>,
}

impl Served {
    /// Reads a finished store.
    pub fn load(dir: &Path) -> Result<Served, String> {
        let id = dir
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or("run directory has no UTF-8 name")?
            .to_string();
        let manifest =
            ale_lab::store::load_manifest(&dir.join("manifest.json")).map_err(|e| e.to_string())?;
        let journal = fs::read(dir.join("trials.db")).map_err(|e| e.to_string())?;
        let (entries, _) = ale_lab::db::scan_entries(&journal);
        let cursors = entries
            .iter()
            .filter(|e| e.key.starts_with(b"t/"))
            .map(|e| e.offset)
            .collect();
        Ok(Served {
            summary: checks::expected_summary(dir, &id, &manifest.scenario)?,
            manifest: fs::read(dir.join("manifest.json")).map_err(|e| e.to_string())?,
            dir: dir.to_path_buf(),
            id,
            labels: manifest.grid,
            cursors,
        })
    }

    /// The route mix's inputs.
    pub fn mix_inputs(&self) -> MixInputs<'_> {
        MixInputs {
            run: &self.id,
            labels: &self.labels,
            cursors: &self.cursors,
        }
    }
}

/// One server process's life under load.
pub struct Lifetime {
    /// Spawn → first `200` on `/healthz`, seconds.
    pub setup: f64,
    /// Client latency (connect → EOF) of each `200`, seconds.
    pub latencies: Vec<f64>,
    /// Requests answered `200`.
    pub ok: u64,
    /// Requests that failed (non-200 or I/O error).
    pub failed: u64,
    /// First request → last reply, seconds.
    pub load_s: f64,
    /// Peak RSS of the server, MiB.
    pub peak_rss_mb: f64,
}

/// Starts `ale-lab serve` over `served`, checks two routes byte for byte,
/// runs one closed-loop client per stream for `load`, then stops it.
pub fn serve_lifetime(
    bin: &Path,
    served: &Served,
    streams: &[u64],
    load: Duration,
    tally: &mut Tally,
) -> Result<Lifetime, String> {
    let dir = served.dir.to_str().ok_or("store path is not UTF-8")?;
    proc::reset_hwm();
    let spawned = Instant::now();
    let mut child = Command::new(bin)
        .args(["serve", dir, "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    // Held until the server is gone, so its stderr never hits a closed pipe.
    let mut stderr = BufReader::new(child.stderr.take().ok_or("no stderr pipe")?);
    let result = drive(&mut stderr, spawned, served, streams, load, tally);
    let exit = proc::kill_and_reap(&mut child)?;
    result.map(|mut life| {
        life.peak_rss_mb = exit.peak_rss_mb;
        life
    })
}

fn drive(
    stderr: &mut impl BufRead,
    spawned: Instant,
    served: &Served,
    streams: &[u64],
    load: Duration,
    tally: &mut Tally,
) -> Result<Lifetime, String> {
    let addr: SocketAddr = loop {
        let mut line = String::new();
        if stderr.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("server exited before listening".into());
        }
        if let Some(rest) = line.split("serving on http://").nth(1) {
            let addr = rest.split_whitespace().next().unwrap_or_default();
            break addr
                .parse()
                .map_err(|e| format!("bad address '{addr}': {e}"))?;
        }
    };
    while !matches!(http::get(addr, "/healthz"), Ok(r) if r.status == 200) {
        if spawned.elapsed() > Duration::from_secs(10) {
            return Err("no 200 on /healthz within 10 s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let setup = spawned.elapsed().as_secs_f64();
    let id = &served.id;
    for (route, want) in [("summary", &served.summary), ("manifest", &served.manifest)] {
        let got = http::get(addr, &format!("/runs/{id}/{route}")).map(|r| (r.status, r.body));
        tally.check(
            matches!(&got, Ok((200, body)) if body == want),
            &format!("served /runs/{id}/{route} differs from the store"),
        );
    }
    let inputs = served.mix_inputs();
    let start = Instant::now();
    let end = start + load;
    let clients: Vec<(Vec<f64>, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|&stream| {
                let inputs = &inputs;
                s.spawn(move || {
                    let (mut latencies, mut ok, mut failed) = (Vec::new(), 0u64, 0u64);
                    for t in http::route_mix(stream, 4096, inputs).iter().cycle() {
                        if Instant::now() >= end {
                            break;
                        }
                        let sent = Instant::now();
                        match http::get(addr, &t.target) {
                            Ok(r) if r.status == 200 => {
                                latencies.push(sent.elapsed().as_secs_f64());
                                ok += 1;
                            }
                            Ok(r) => {
                                failed += 1;
                                eprintln!("{} answered {}", t.target, r.status);
                            }
                            Err(e) => {
                                failed += 1;
                                eprintln!("{}: {e}", t.target);
                            }
                        }
                    }
                    (latencies, ok, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let load_s = start.elapsed().as_secs_f64();
    let mut life = Lifetime {
        setup,
        latencies: Vec::new(),
        ok: 0,
        failed: 0,
        load_s,
        peak_rss_mb: 0.0,
    };
    for (latencies, ok, failed) in clients {
        life.latencies.extend(latencies);
        life.ok += ok;
        life.failed += failed;
    }
    Ok(life)
}

/// The request stream of client `client` in server lifetime `lifetime`.
pub fn client_stream(seed: u64, lifetime: u32, client: u32) -> u64 {
    seed ^ u64::from(lifetime * 2 + client + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Untraced `serve-poll`: prepares the store once, then serves it from
/// [`SERVE_LIFETIMES`] fresh server processes, two closed-loop clients
/// each. A calibration pass before and after each server scales its
/// times.
pub fn serve(env: &Env, prep: &Sweep) -> Outcome {
    let mut out = Outcome::default();
    let grid = match prep.expand() {
        Ok(g) => g,
        Err(e) => {
            out.tally.fail(1, &e);
            return out;
        }
    };
    let dir = env.out.join("run");
    match run_sweep(env.bin, prep, prep.master(env.seed, 0), &dir) {
        Ok(w) => {
            eprintln!("serve-poll prep_s {:.3} s", w.wall.as_secs_f64());
            out.tally.pass(grid.trials());
            let digest = (env.seed == 1).then_some(prep.digest_seed1);
            checks::sweep_store(&dir, &grid, digest, &mut out.tally);
        }
        Err(e) => {
            out.tally.fail(grid.trials(), &format!("prep: {e}"));
            return out;
        }
    }
    let served = match Served::load(&dir) {
        Ok(s) => s,
        Err(e) => {
            out.tally.fail(1, &e);
            return out;
        }
    };
    let mut calib = match Calibration::start() {
        Ok(c) => c,
        Err(e) => {
            out.tally.fail(1, &e);
            return out;
        }
    };
    let (mut latencies, mut rates, mut setups, mut peaks) = (vec![], vec![], vec![], vec![]);
    let mut unscaled = Vec::new();
    for life in 0..SERVE_LIFETIMES {
        let streams = [
            client_stream(env.seed, life, 0),
            client_stream(env.seed, life, 1),
        ];
        let life_run = serve_lifetime(
            env.bin,
            &served,
            &streams,
            env.window / SERVE_LIFETIMES,
            &mut out.tally,
        );
        match life_run.and_then(|l| Ok((l, calib.factor()?))) {
            Ok((l, f)) => {
                out.tally.attempted += l.ok + l.failed;
                out.tally.failed += l.failed;
                unscaled.extend(l.latencies.iter().map(|s| s * 1e3));
                latencies.extend(l.latencies.iter().map(|s| s * 1e3 * f));
                setups.push(l.setup * f);
                peaks.push(l.peak_rss_mb);
                rates.push(l.ok as f64 / (l.load_s * f));
            }
            Err(e) => {
                out.tally.fail(1, &format!("server lifetime {life}: {e}"));
                return out;
            }
        }
    }
    if !latencies.is_empty() {
        let (tail, pct) = crate::stats::tail(&latencies);
        eprintln!(
            "serve-poll latency tail {tail:.3} ms (p{pct:.2} of {})",
            latencies.len()
        );
        log_calibration(&calib, median(&unscaled));
        out.push("latency_p50_ms", median(&latencies), "ms", latencies.len());
        out.push("throughput_per_s", median(&rates), "1/s", rates.len());
        out.push("setup_s", median(&setups), "s", setups.len());
        out.push("peak_rss_mb", median(&peaks), "MiB", peaks.len());
    }
    out
}
