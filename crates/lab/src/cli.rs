//! The `ale-lab` command-line interface — the single entry point for
//! every experiment.
//!
//! ```text
//! ale-lab list
//! ale-lab describe <scenario> [--json]
//! ale-lab run <scenario> [--seeds N] [--workers N] [--master-seed S]
//!                        [--quick] [--param key=v1,v2,...]
//!                        [--n 64,128] [--topo complete:64,...]
//!                        [--algo this-work,kutten15] [--shard i/k]
//!                        [--out DIR] [--telemetry PATH] [--quiet]
//! ale-lab run --resume <run-dir> [--workers N] [--quiet]
//! ale-lab export <trials.jsonl> [--csv PATH]
//! ale-lab merge <run-dir> <run-dir> ... [--out DIR]
//! ale-lab check <summary.csv|run-dir> --baseline <summary.csv|run-dir>
//!               [--tolerance 0.25] [--metrics rounds,messages]
//! ale-lab report <telemetry.jsonl>
//! ale-lab bench [--quick] [--suite memory,simulator,diffusion] [--out DIR]
//! ```

use crate::check::{check_files, CheckOptions};
use crate::engine::{execute, RunSpec};
use crate::registry;
use crate::runners::Algorithm;
use crate::scenario::LabError;
use ale_graph::Topology;
use std::path::PathBuf;

/// Usage text (also the README example source).
pub const USAGE: &str = "\
ale-lab — deterministic parallel experiment orchestration

USAGE:
    ale-lab list                       list registered scenarios
    ale-lab describe <scenario> [--json]
                                       show a scenario's declared parameter
                                       space (axes, kinds, defaults);
                                       --json emits a machine-readable dump
    ale-lab run <scenario> [options]   run a scenario's grid × seed fleet
    ale-lab run --resume <run-dir> [--workers N] [--quiet]
                                       complete an interrupted run in
                                       place: the invocation is rebuilt
                                       from the stored manifest, trials
                                       already durable in the trials.db
                                       journal are skipped, and the
                                       finished store is byte-identical
                                       to an uninterrupted run
    ale-lab export <trials.jsonl> [--csv PATH]
                                       convert a stored JSONL log to CSV
    ale-lab merge <run-dir> <run-dir> ... [--out DIR]
                                       union sharded run directories after
                                       validating their manifests agree; a
                                       complete shard set restores the
                                       unsharded run byte for byte (omit
                                       --out for a dry-run validation)
    ale-lab check <summary.csv|run-dir> --baseline <summary.csv|run-dir> [options]
                                       fail (exit 1) on cost regressions
                                       vs a stored baseline summary; run
                                       directories are read from their
                                       durable store (trials.db) and
                                       incomplete runs refused; two
                                       BENCH_memory.json files instead
                                       gate bytes/node (tolerance 0.10)
    ale-lab report <telemetry.jsonl>   per-phase wall-clock breakdown of a
                                       `run --telemetry` event stream (top
                                       spans, per-point throughput,
                                       histograms)
    ale-lab bench [--quick] [--suite S,...] [--out DIR]
                                       in-process microbenchmarks; writes
                                       BENCH_memory.json (bytes/node of
                                       the large-n revocable engine),
                                       BENCH_simulator.json and
                                       BENCH_diffusion.json (default: the
                                       current directory); --suite runs
                                       only the named ones of memory,
                                       simulator and diffusion and leaves
                                       the other files alone (default:
                                       all three)
    ale-lab serve <run-dir>... [--addr host:port] [--workers N]
                                       serve mounted run directories
                                       read-only over HTTP (default
                                       127.0.0.1:7878): GET /runs,
                                       /runs/{id}/manifest, …/summary,
                                       …/trials?point=…&seed=…, …/space,
                                       …/tail?from=N&wait=S (live journal
                                       tail with a byte cursor), /healthz,
                                       /metrics; incomplete runs are
                                       served with \"complete\": false
    ale-lab help                       this text

RUN OPTIONS:
    --seeds N         seeds per grid point (default: scenario-specific)
    --workers N       worker threads (default: available parallelism)
    --master-seed S   master seed for the trial-seed stream (default 1)
    --quick           shrink the grid and seed counts for a smoke run
    --param K=V1,V2   override any declared axis of the scenario's
                      parameter space (see `ale-lab describe <scenario>`);
                      repeatable, validated — unknown keys, unparseable
                      values, values outside an axis's declared range
                      and repeated grid points exit 2. New sweeps need
                      no code. The pseudo-axis graph-seed=S1,S2, which
                      every scenario accepts, sweeps the random-topology
                      build seed (distinct u64s), multiplying every grid
                      point per listed seed
    --n A,B,...       sugar for --param n=A,B — engages the scenario's
                      size ladder (diffusion/thresholds/walks/revocable
                      build sparse large-n ladders)
    --topo T,...      sugar for --param topo=T,... (e.g. complete:64,
                      torus:8x8, rregular:64x4, cycle:32); explicit
                      topologies win over the size ladder
    --algo A,B,...    run only these algorithms of an algorithm-grid
                      scenario (this-work, gilbert18, kutten15,
                      flood-chg, flood-all); seeds stay aligned with
                      the unfiltered run
    --shard I/K       run every K-th grid point starting at I; the K
                      shards of a sweep union to the full run byte for
                      byte (manifest records the shard)
    --out DIR         persist the durable run store under DIR:
                      manifest.json, the trials.db keyed journal (each
                      trial durable the moment it completes — the state
                      `run --resume` recovers), trials.jsonl, trials.csv,
                      summary.csv
    --telemetry PATH  stream structured events (spans, counters,
                      histograms) to PATH as JSONL; with --out the stream
                      is also copied to DIR/telemetry.jsonl — a
                      side-channel outside the byte-identical store
                      guarantees (inspect with `ale-lab report PATH`)
    --quiet           suppress progress lines on stderr

CHECK OPTIONS:
    --baseline PATH   the baseline summary.csv or BENCH_memory.json
                      (required)
    --tolerance T     allowed relative mean growth (default 0.25 for
                      summaries, 0.10 for memory benches; setting it
                      overrides both)
    --metrics A,B     metrics to gate (default rounds, congest_rounds,
                      messages, bits; ignored for memory benches)

EXAMPLES:
    ale-lab run table1 --n 64 --seeds 32 --workers 8 --out runs/table1
    ale-lab run table1 --algo this-work,kutten15 --quick
    ale-lab describe diffusion
    ale-lab run diffusion --param gamma=0.1,0.3 --param n=512 --quick
    ale-lab run diffusion --n 20000 --quick
    ale-lab run revocable --n 20000 --quick
    ale-lab run scaling --shard 0/4 --out runs/shard0
    ale-lab run --resume runs/shard0
    ale-lab merge runs/shard0 runs/shard1 runs/shard2 runs/shard3 --out runs/full
    ale-lab export runs/table1/trials.jsonl --csv runs/table1/flat.csv
    ale-lab check runs/new/summary.csv --baseline runs/base/summary.csv
    ale-lab run diffusion --quick --telemetry /tmp/t.jsonl
    ale-lab report /tmp/t.jsonl
    ale-lab describe revocable --json
    ale-lab bench --quick
    ale-lab bench --suite simulator
    ale-lab serve runs/table1 runs/shard0 --addr 127.0.0.1:7878
";

fn parse_u64(flag: &str, value: Option<String>) -> Result<u64, LabError> {
    value
        .ok_or_else(|| LabError::BadArgs(format!("{flag} needs a value")))?
        .parse()
        .map_err(|_| LabError::BadArgs(format!("{flag} needs an unsigned integer")))
}

fn parse_args(args: &[String]) -> Result<(String, RunSpec), LabError> {
    let mut it = args.iter().cloned();
    let scenario = it
        .next()
        .ok_or_else(|| LabError::BadArgs("run needs a scenario name".into()))?;
    let mut spec = RunSpec {
        progress: true,
        ..RunSpec::default()
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => spec.seeds = Some(parse_u64("--seeds", it.next())?),
            "--workers" => spec.workers = parse_u64("--workers", it.next())? as usize,
            "--master-seed" => spec.master_seed = parse_u64("--master-seed", it.next())?,
            "--quick" => spec.grid.quick = true,
            "--quiet" => spec.progress = false,
            "--n" => {
                let list = it
                    .next()
                    .ok_or_else(|| LabError::BadArgs("--n needs a value".into()))?;
                for piece in list.split(',') {
                    spec.grid.ns.push(
                        piece.trim().parse().map_err(|_| {
                            LabError::BadArgs(format!("--n: '{piece}' is not a size"))
                        })?,
                    );
                }
            }
            "--topo" => {
                let list = it
                    .next()
                    .ok_or_else(|| LabError::BadArgs("--topo needs a value".into()))?;
                for piece in list.split(',') {
                    let topo: Topology = piece
                        .trim()
                        .parse()
                        .map_err(|e| LabError::BadArgs(format!("--topo: {e}")))?;
                    spec.grid.topologies.push(topo);
                }
            }
            "--algo" => {
                let list = it
                    .next()
                    .ok_or_else(|| LabError::BadArgs("--algo needs a value".into()))?;
                for piece in list.split(',') {
                    let algo = Algorithm::from_name(piece.trim()).ok_or_else(|| {
                        LabError::BadArgs(format!(
                            "--algo: unknown algorithm '{}' (known: {})",
                            piece.trim(),
                            Algorithm::ALL
                                .iter()
                                .map(|a| a.to_string())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ))
                    })?;
                    spec.algos.push(algo);
                }
            }
            "--param" => {
                let value = it
                    .next()
                    .ok_or_else(|| LabError::BadArgs("--param needs key=v1,v2,...".into()))?;
                let (key, list) = value.split_once('=').ok_or_else(|| {
                    LabError::BadArgs(format!("--param: '{value}' is not key=v1,v2,..."))
                })?;
                let key = key.trim();
                if key.is_empty() {
                    return Err(LabError::BadArgs("--param: empty key".into()));
                }
                // Values stay raw strings here; the engine validates them
                // against the scenario's declared space (kind-aware).
                spec.grid.params.push((
                    key.to_string(),
                    list.split(',')
                        .map(|v| v.trim().to_string())
                        .filter(|v| !v.is_empty())
                        .collect(),
                ));
            }
            "--shard" => {
                let value = it
                    .next()
                    .ok_or_else(|| LabError::BadArgs("--shard needs a value (i/k)".into()))?;
                spec.shard = match crate::store::parse_shard_label(&value) {
                    Some((indices, k)) if indices.len() == 1 => (indices[0], k),
                    _ => {
                        return Err(LabError::BadArgs(format!(
                            "--shard: '{value}' is not i/k with i < k"
                        )))
                    }
                };
            }
            "--out" => {
                spec.out =
                    Some(PathBuf::from(it.next().ok_or_else(|| {
                        LabError::BadArgs("--out needs a directory".into())
                    })?));
            }
            "--telemetry" => {
                spec.telemetry =
                    Some(PathBuf::from(it.next().ok_or_else(|| {
                        LabError::BadArgs("--telemetry needs a file path".into())
                    })?));
            }
            other => {
                return Err(LabError::BadArgs(format!(
                    "unknown run option '{other}' (see `ale-lab help`)"
                )))
            }
        }
    }
    Ok((scenario, spec))
}

fn cmd_list() -> String {
    let mut out = String::from("registered scenarios:\n");
    for s in registry::all() {
        out.push_str(&format!("  {:<20} {}\n", s.name(), s.description()));
    }
    out.push_str("\nrun one with: ale-lab run <scenario> [--quick] [--seeds N] ...\n");
    out
}

fn cmd_describe(args: &[String]) -> Result<String, LabError> {
    let name = args
        .first()
        .ok_or_else(|| LabError::BadArgs("describe needs a scenario name".into()))?;
    let mut json = false;
    for extra in &args[1..] {
        match extra.as_str() {
            "--json" => json = true,
            other => {
                return Err(LabError::BadArgs(format!(
                    "unknown describe option '{other}'"
                )))
            }
        }
    }
    let scenario = registry::find(name).ok_or_else(|| LabError::UnknownScenario(name.clone()))?;
    let space = scenario.space();
    // Validate the declaration while we are here (duplicate names with
    // conflicting kinds would otherwise only surface on `run`).
    space.axis_kinds()?;
    if json {
        // Shared with `GET /runs/{id}/space` so the served space stays
        // byte-identical to this dump.
        return Ok(crate::serve::describe_json(scenario.as_ref()).render_pretty());
    }
    Ok(format!(
        "{} — {}
default seeds/point: {} (quick: {})

{}
override any axis with: ale-lab run {} --param <axis>=v1,v2,...
",
        scenario.name(),
        scenario.description(),
        scenario.default_seeds(false),
        scenario.default_seeds(true),
        space.describe(),
        scenario.name(),
    ))
}

fn cmd_run(args: &[String]) -> Result<String, LabError> {
    if args.first().map(String::as_str) == Some("--resume") {
        return cmd_resume(&args[1..]);
    }
    let (name, spec) = parse_args(args)?;
    let scenario = registry::find(&name).ok_or_else(|| LabError::UnknownScenario(name.clone()))?;
    let output = execute(scenario.as_ref(), &spec)?;
    let mut text = output.report;
    if let Some(dir) = &spec.out {
        text.push_str(&format!(
            "\nresults stored under {} (manifest.json, trials.db, trials.jsonl, trials.csv, \
             summary.csv)\n",
            dir.display()
        ));
    }
    Ok(text)
}

fn cmd_resume(args: &[String]) -> Result<String, LabError> {
    let mut it = args.iter().cloned();
    let dir = PathBuf::from(
        it.next()
            .ok_or_else(|| LabError::BadArgs("run --resume needs a run directory".into()))?,
    );
    let mut workers: Option<usize> = None;
    let mut progress = true;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => workers = Some(parse_u64("--workers", it.next())? as usize),
            "--quiet" => progress = false,
            other => {
                return Err(LabError::BadArgs(format!(
                    "unknown resume option '{other}' — --resume reuses the stored invocation \
                     (only --workers and --quiet apply)"
                )))
            }
        }
    }
    let output = crate::engine::resume(&dir, workers, progress)?;
    let mut text = output.report;
    text.push_str(&format!(
        "\nresumed run completed in place under {} (manifest.json, trials.db, trials.jsonl, \
         trials.csv, summary.csv)\n",
        dir.display()
    ));
    Ok(text)
}

fn cmd_export(args: &[String]) -> Result<String, LabError> {
    let mut it = args.iter().cloned();
    let jsonl = PathBuf::from(
        it.next()
            .ok_or_else(|| LabError::BadArgs("export needs a trials.jsonl path".into()))?,
    );
    let mut csv_out: Option<PathBuf> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--csv" => {
                csv_out =
                    Some(PathBuf::from(it.next().ok_or_else(|| {
                        LabError::BadArgs("--csv needs a path".into())
                    })?));
            }
            other => {
                return Err(LabError::BadArgs(format!(
                    "unknown export option '{other}'"
                )))
            }
        }
    }
    let csv = crate::store::csv_from_jsonl(&jsonl)?;
    match csv_out {
        Some(path) => {
            std::fs::write(&path, &csv)
                .map_err(|e| LabError::Io(format!("{}: {e}", path.display())))?;
            Ok(format!("wrote {}\n", path.display()))
        }
        None => Ok(csv),
    }
}

fn cmd_merge(args: &[String]) -> Result<String, LabError> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out = Some(PathBuf::from(it.next().ok_or_else(|| {
                    LabError::BadArgs("--out needs a directory".into())
                })?));
            }
            flag if flag.starts_with("--") => {
                return Err(LabError::BadArgs(format!("unknown merge option '{flag}'")))
            }
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    crate::merge::merge_dirs(&dirs, out.as_deref())
}

fn cmd_check(args: &[String]) -> Result<String, LabError> {
    let mut it = args.iter().cloned();
    let current = PathBuf::from(
        it.next()
            .ok_or_else(|| LabError::BadArgs("check needs a summary.csv path".into()))?,
    );
    let mut baseline: Option<PathBuf> = None;
    let mut opts = CheckOptions::default();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => {
                baseline =
                    Some(PathBuf::from(it.next().ok_or_else(|| {
                        LabError::BadArgs("--baseline needs a path".into())
                    })?));
            }
            "--tolerance" => {
                let v = it
                    .next()
                    .ok_or_else(|| LabError::BadArgs("--tolerance needs a value".into()))?;
                opts.tolerance = v.parse().map_err(|_| {
                    LabError::BadArgs(format!("--tolerance: '{v}' is not a number"))
                })?;
                if opts.tolerance.is_nan() || opts.tolerance < 0.0 {
                    return Err(LabError::BadArgs("--tolerance must be non-negative".into()));
                }
                // An explicit tolerance overrides both gates; the tighter
                // memory default only applies when the flag is absent.
                opts.memory_tolerance = opts.tolerance;
            }
            "--metrics" => {
                let list = it
                    .next()
                    .ok_or_else(|| LabError::BadArgs("--metrics needs a value".into()))?;
                opts.metrics
                    .extend(list.split(',').map(|m| m.trim().to_string()));
            }
            other => return Err(LabError::BadArgs(format!("unknown check option '{other}'"))),
        }
    }
    let baseline =
        baseline.ok_or_else(|| LabError::BadArgs("check requires --baseline <path>".into()))?;
    check_files(&current, &baseline, &opts)
}

fn cmd_report(args: &[String]) -> Result<String, LabError> {
    let path = args
        .first()
        .ok_or_else(|| LabError::BadArgs("report needs a telemetry.jsonl path".into()))?;
    if let Some(extra) = args.get(1) {
        return Err(LabError::BadArgs(format!(
            "unknown report option '{extra}'"
        )));
    }
    crate::report::report_file(std::path::Path::new(path))
}

fn cmd_bench(args: &[String]) -> Result<String, LabError> {
    let mut quick = false;
    let mut out = PathBuf::from(".");
    let mut suites = crate::bench::Suite::ALL.to_vec();
    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--suite" => {
                suites = it
                    .next()
                    .ok_or_else(|| LabError::BadArgs("--suite needs a suite list".into()))?
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<_, _>>()?;
            }
            "--out" => {
                out = PathBuf::from(
                    it.next()
                        .ok_or_else(|| LabError::BadArgs("--out needs a directory".into()))?,
                );
            }
            other => return Err(LabError::BadArgs(format!("unknown bench option '{other}'"))),
        }
    }
    crate::bench::run(quick, &out, &suites)
}

fn cmd_serve(args: &[String]) -> Result<String, LabError> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut workers = ale_serve::ServerConfig::default().workers;
    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                addr = it
                    .next()
                    .ok_or_else(|| LabError::BadArgs("--addr needs host:port".into()))?;
            }
            "--workers" => {
                workers = parse_u64("--workers", it.next())? as usize;
                if workers == 0 {
                    return Err(LabError::BadArgs("--workers must be at least 1".into()));
                }
            }
            flag if flag.starts_with("--") => {
                return Err(LabError::BadArgs(format!("unknown serve option '{flag}'")))
            }
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    let app = crate::serve::ServeApp::new(&dirs)?;
    let cfg = ale_serve::ServerConfig {
        workers,
        ..ale_serve::ServerConfig::default()
    };
    // Bad addresses and ports already in use are usage errors (exit 2),
    // same as an unservable run directory.
    let server = ale_serve::Server::bind(&addr, cfg)
        .map_err(|e| LabError::BadArgs(format!("cannot listen on '{addr}': {e}")))?;
    let local = server
        .local_addr()
        .map_err(|e| LabError::Io(format!("{addr}: {e}")))?;
    for (id, dir) in app.mounts() {
        eprintln!("mounted {} from {}", id, dir.display());
    }
    eprintln!("serving on http://{local} (GET /runs; ctrl-c to stop)");
    let handler: ale_serve::Handler = std::sync::Arc::new(move |req| app.handle(req));
    server
        .run(handler)
        .map_err(|e| LabError::Io(format!("serve: {e}")))?;
    Ok(String::new())
}

/// Runs the CLI on pre-split arguments (no `argv\[0\]`), returning the text
/// to print on success.
///
/// # Errors
///
/// All argument/scenario/IO failures as [`LabError`].
pub fn run(args: &[String]) -> Result<String, LabError> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(USAGE.to_string()),
        Some("list") => Ok(cmd_list()),
        Some("describe") => cmd_describe(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some(other) => Err(LabError::BadArgs(format!(
            "unknown command '{other}' (see `ale-lab help`)"
        ))),
    }
}

/// Prints to stdout, swallowing `EPIPE` so `ale-lab ... | head` exits
/// quietly instead of panicking mid-`println!`.
fn emit(text: &str) {
    use std::io::Write as _;
    let _ = writeln!(std::io::stdout(), "{text}");
}

/// Entry point for `main`: parses `std::env::args`, prints, returns the
/// process exit code — 0 on success, 1 when `check` found regressions,
/// 2 on usage/runtime errors.
pub fn main_from_env() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(text) => {
            emit(&text);
            0
        }
        Err(e @ LabError::Regression(_)) => {
            eprintln!("ale-lab: {e}");
            1
        }
        Err(e) => {
            eprintln!("ale-lab: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_list() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        let list = run(&strs(&["list"])).unwrap();
        assert!(list.contains("table1"));
        assert!(list.contains("ablation-cautious"));
    }

    #[test]
    fn rejects_unknown_commands_and_scenarios() {
        assert!(matches!(
            run(&strs(&["frobnicate"])),
            Err(LabError::BadArgs(_))
        ));
        assert!(matches!(
            run(&strs(&["run", "nope"])),
            Err(LabError::UnknownScenario(_))
        ));
        assert!(matches!(
            run(&strs(&["run", "table1", "--bogus"])),
            Err(LabError::BadArgs(_))
        ));
    }

    #[test]
    fn parses_run_options() {
        let (name, spec) = parse_args(&strs(&[
            "table1",
            "--seeds",
            "32",
            "--workers",
            "8",
            "--master-seed",
            "99",
            "--quick",
            "--n",
            "64,128",
            "--topo",
            "complete:16,cycle:12",
            "--out",
            "runs/x",
            "--quiet",
        ]))
        .unwrap();
        assert_eq!(name, "table1");
        assert_eq!(spec.seeds, Some(32));
        assert_eq!(spec.workers, 8);
        assert_eq!(spec.master_seed, 99);
        assert!(spec.grid.quick);
        assert_eq!(spec.grid.ns, vec![64, 128]);
        assert_eq!(spec.grid.topologies.len(), 2);
        assert_eq!(spec.out.as_deref(), Some(std::path::Path::new("runs/x")));
        assert!(!spec.progress);
    }

    #[test]
    fn resume_usage_errors() {
        // Missing directory.
        assert!(matches!(
            run(&strs(&["run", "--resume"])),
            Err(LabError::BadArgs(_))
        ));
        // Run flags other than --workers/--quiet are refused: the stored
        // invocation is authoritative.
        assert!(matches!(
            run(&strs(&["run", "--resume", "/tmp", "--seeds", "3"])),
            Err(LabError::BadArgs(_))
        ));
        // A directory with no manifest is an IO error.
        assert!(matches!(
            run(&strs(&["run", "--resume", "/nonexistent-run-dir"])),
            Err(LabError::Io(_))
        ));
    }

    #[test]
    fn bad_numbers_are_rejected() {
        assert!(parse_args(&strs(&["t", "--seeds", "many"])).is_err());
        assert!(parse_args(&strs(&["t", "--n", "64,x"])).is_err());
        assert!(parse_args(&strs(&["t", "--topo", "klein-bottle:4"])).is_err());
    }

    #[test]
    fn parses_algo_and_shard() {
        let (_, spec) = parse_args(&strs(&[
            "table1",
            "--algo",
            "this-work,kutten15",
            "--shard",
            "2/4",
        ]))
        .unwrap();
        assert_eq!(
            spec.algos,
            vec![
                crate::runners::Algorithm::ThisWork,
                crate::runners::Algorithm::Kutten
            ]
        );
        assert_eq!(spec.shard, (2, 4));
        assert!(parse_args(&strs(&["t", "--algo", "nonesuch"])).is_err());
        for bad in ["4/4", "x/2", "1", "2/0"] {
            assert!(parse_args(&strs(&["t", "--shard", bad])).is_err(), "{bad}");
        }
    }

    #[test]
    fn describe_json_and_new_subcommands_parse() {
        use crate::json::Value;
        let text = run(&strs(&["describe", "diffusion", "--json"])).unwrap();
        let v = crate::json::parse(&text).unwrap();
        assert_eq!(v.get("scenario").and_then(Value::as_str), Some("diffusion"));
        assert!(v.get("space").and_then(|s| s.get("blocks")).is_some());
        assert!(matches!(
            run(&strs(&["describe", "diffusion", "--frob"])),
            Err(LabError::BadArgs(_))
        ));
        // run --telemetry threads through to the spec.
        let (_, spec) = parse_args(&strs(&["table1", "--telemetry", "/tmp/t.jsonl"])).unwrap();
        assert_eq!(
            spec.telemetry.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
        // report/bench usage errors.
        assert!(matches!(run(&strs(&["report"])), Err(LabError::BadArgs(_))));
        assert!(matches!(
            run(&strs(&["report", "/nonexistent/t.jsonl"])),
            Err(LabError::Io(_))
        ));
        assert!(matches!(
            run(&strs(&["bench", "--frob"])),
            Err(LabError::BadArgs(_))
        ));
    }

    #[test]
    fn merge_subcommand_unions_sharded_runs() {
        use crate::engine::{execute, RunSpec};
        let base = std::env::temp_dir().join(format!("ale-lab-cli-merge-{}", std::process::id()));
        let scenario = registry::find("impossibility").unwrap();
        let mut dirs = Vec::new();
        for i in 0..2u64 {
            let dir = base.join(format!("s{i}"));
            execute(
                scenario.as_ref(),
                &RunSpec {
                    shard: (i, 2),
                    seeds: Some(1),
                    workers: 1,
                    grid: crate::scenario::GridConfig {
                        quick: true,
                        ..Default::default()
                    },
                    out: Some(dir.clone()),
                    ..RunSpec::default()
                },
            )
            .unwrap();
            dirs.push(dir.to_string_lossy().to_string());
        }
        let merged = base.join("merged").to_string_lossy().to_string();
        let report = run(&strs(&["merge", &dirs[0], &dirs[1], "--out", &merged])).unwrap();
        assert!(report.contains("complete sweep"), "{report}");
        assert!(base.join("merged/trials.jsonl").exists());
        // Usage errors.
        assert!(matches!(
            run(&strs(&["merge", &dirs[0]])),
            Err(LabError::BadArgs(_))
        ));
        assert!(matches!(
            run(&strs(&["merge", &dirs[0], &dirs[1], "--frob"])),
            Err(LabError::BadArgs(_))
        ));
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn check_subcommand_gates_regressions() {
        let dir = std::env::temp_dir().join(format!("ale-lab-cli-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let header = "point,family,algorithm,n,metric,count,mean,ci95,median,min,max,spilled";
        let base = dir.join("base.csv");
        let cur = dir.join("cur.csv");
        std::fs::write(
            &base,
            format!("{header}\np,f,-,8,messages,4,100,0,100,100,100,false\n"),
        )
        .unwrap();
        std::fs::write(
            &cur,
            format!("{header}\np,f,-,8,messages,4,300,0,300,300,300,false\n"),
        )
        .unwrap();
        let base_s = base.to_string_lossy().to_string();
        let cur_s = cur.to_string_lossy().to_string();
        // Self-check passes.
        assert!(run(&strs(&["check", &base_s, "--baseline", &base_s])).is_ok());
        // 3x growth fails with the Regression variant...
        let err = run(&strs(&["check", &cur_s, "--baseline", &base_s])).unwrap_err();
        assert!(matches!(err, LabError::Regression(_)));
        // ...unless the tolerance admits it.
        assert!(run(&strs(&[
            "check",
            &cur_s,
            "--baseline",
            &base_s,
            "--tolerance",
            "5.0"
        ]))
        .is_ok());
        // Gating a different metric ignores messages.
        assert!(run(&strs(&[
            "check",
            &cur_s,
            "--baseline",
            &base_s,
            "--metrics",
            "bits"
        ]))
        .is_err()); // nothing comparable -> BadRecord, still an error
                    // Missing --baseline and unknown options are usage errors.
        assert!(matches!(
            run(&strs(&["check", &cur_s])),
            Err(LabError::BadArgs(_))
        ));
        assert!(matches!(
            run(&strs(&["check", &cur_s, "--frob"])),
            Err(LabError::BadArgs(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_subcommand_routes_memory_benches() {
        let dir = std::env::temp_dir().join(format!("ale-lab-cli-mem-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mem = |bpn: f64| {
            format!(
                "{{\"suite\":\"memory\",\"cases\":[{{\"id\":\"rss/implicit/torus:10x10\",\
                 \"n\":100,\"graph_kb\":1,\"engine_kb\":1,\"bytes_per_node\":{bpn}}}]}}"
            )
        };
        let base = dir.join("BENCH_memory_base.json");
        let cur = dir.join("BENCH_memory_cur.json");
        std::fs::write(&base, mem(100.0)).unwrap();
        std::fs::write(&cur, mem(115.0)).unwrap();
        let base_s = base.to_string_lossy().to_string();
        let cur_s = cur.to_string_lossy().to_string();
        // Self-check passes; +15% bytes/node breaks the tighter 10% default...
        assert!(run(&strs(&["check", &base_s, "--baseline", &base_s])).is_ok());
        let err = run(&strs(&["check", &cur_s, "--baseline", &base_s])).unwrap_err();
        assert!(matches!(err, LabError::Regression(_)));
        // ...and --tolerance overrides the memory gate too.
        assert!(run(&strs(&[
            "check",
            &cur_s,
            "--baseline",
            &base_s,
            "--tolerance",
            "0.2"
        ]))
        .is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
