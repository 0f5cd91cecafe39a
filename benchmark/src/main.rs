//! `ale-benchmark`: run from the repository root.
//!
//! ```text
//! ale-benchmark --workload W --seed S --seconds T --trace 0|1 [--results DIR]
//! ale-benchmark run   [--seed S] [--seconds T] [--results DIR]
//! ale-benchmark trace [--seed S] [--seconds T] [--results DIR]
//! ale-benchmark compare DIR_A DIR_B
//! ale-benchmark calibrate
//! ```
//!
//! The first form measures one workload and prints one line per metric,
//! then the result object as the last line. `run` and `trace` do that
//! for every workload, each in its own process. `calibrate` is the
//! host-speed kernel's helper process: for every line on stdin it times
//! one kernel pass and prints the seconds. Untraced runs start it.
//!
//! Exit codes: 0 when every output check passed, 1 when one failed (or
//! `compare` judged a metric worse, or found more failed operations in
//! B), 2 when the benchmark could not run.

use ale_benchmark::e2e::{self, Env};
use ale_benchmark::workloads::{self, Kind, WORKLOADS};
use ale_benchmark::{calib, compare, trace, Outcome, END_TO_END, PER_LAYER};
use ale_lab::json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    results: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        results: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--results" => a.results = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

/// `run_seconds` from `BENCHMARK.json`.
fn default_seconds(root: &Path) -> Result<f64, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    ale_lab::json::parse(&text)?
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{}: no run_seconds", path.display()))
}

/// Builds `ale-lab` from this checkout and returns the binary's path.
fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "ale-lab",
            "--bin",
            "ale-lab",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of ale-lab failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |t| root.join(t));
    let bin = target.join("release").join("ale-lab");
    bin.is_file()
        .then_some(bin)
        .ok_or_else(|| format!("no ale-lab binary under {}", target.display()))
}

fn measure(root: &Path, a: &Args, name: &str) -> Result<i32, String> {
    let w = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", names.join(", "))
    })?;
    let seconds = match a.seconds {
        Some(s) => s,
        None => default_seconds(root)?,
    };
    let bin = build_cli(root)?;
    let out_dir = root.join("benchmark").join("out").join(w.name);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let env = Env {
        bin: &bin,
        out: &out_dir,
        seed: a.seed,
        window: Duration::from_secs_f64(seconds),
    };
    let mut outcome: Outcome = if a.trace {
        let (outcome, events) = trace::run(&env, w);
        let path = out_dir.join("trace.jsonl");
        std::fs::write(&path, trace::to_jsonl(w.name, &events))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        outcome
    } else {
        match &w.kind {
            Kind::Sweep(s) => e2e::sweep(&env, s),
            Kind::Serve { prep } => e2e::serve(&env, prep),
        }
    };
    let expected = if a.trace { PER_LAYER } else { END_TO_END };
    let reported: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    outcome.tally.check(
        reported == expected,
        &format!("reported metrics {reported:?} are not the listed {expected:?}"),
    );
    for m in &outcome.metrics {
        println!(
            "{} {} {} {} n={}",
            w.name, m.name, m.value, m.unit, m.samples
        );
    }
    let result = outcome.to_json();
    let results = a
        .results
        .clone()
        .unwrap_or_else(|| root.join("benchmark").join("out").join("results"));
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let mut record = vec![
        ("workload".to_string(), Value::Str(w.name.to_string())),
        ("seed".to_string(), Value::UInt(a.seed)),
        ("trace".to_string(), Value::UInt(u64::from(a.trace))),
    ];
    if let Value::Obj(pairs) = &result {
        record.extend(pairs.iter().cloned());
    }
    let file = results.join(format!(
        "{}.t{}.s{}.json",
        w.name,
        u8::from(a.trace),
        a.seed
    ));
    std::fs::write(&file, Value::obj(record).render_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("{}", result.render());
    Ok(if outcome.tally.failed == 0 { 0 } else { 1 })
}

/// `run`/`trace`: every workload in its own child process, so memory
/// readings start from a fresh heap.
fn all(a: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut code = 0;
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &a.seed.to_string()]);
        cmd.args(["--trace", if a.trace { "1" } else { "0" }]);
        if let Some(s) = a.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if let Some(r) = &a.results {
            cmd.arg("--results").arg(r);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        if !status.success() {
            eprintln!("{}: {status}", w.name);
            code = code.max(status.code().unwrap_or(2));
        }
    }
    Ok(code)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = std::env::current_dir().unwrap_or_default();
    let result = (|| -> Result<i32, String> {
        if !root.join("crates/lab/Cargo.toml").is_file() {
            return Err("run from the repository root (no crates/lab here)".into());
        }
        match args.first().map(String::as_str) {
            Some("calibrate") => calib::serve_kernel().map(|()| 0),
            Some("compare") => {
                let [_, a, b] = args.as_slice() else {
                    return Err("compare takes two result directories".into());
                };
                let (report, worse) =
                    compare::compare(Path::new(a), Path::new(b), &root.join("BENCHMARK.json"))?;
                print!("{report}");
                Ok(i32::from(worse))
            }
            Some(mode @ ("run" | "trace")) => {
                let mut a = parse(&args[1..])?;
                a.trace = mode == "trace";
                all(&a)
            }
            _ => {
                let a = parse(&args)?;
                let name = a.workload.clone().ok_or("--workload is required")?;
                measure(&root, &a, &name)
            }
        }
    })();
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("ale-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
