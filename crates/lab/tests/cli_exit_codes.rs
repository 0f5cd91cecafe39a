//! Pins the `ale-lab` process exit-code contract end to end, against the
//! real binary:
//!
//! * `0` — success;
//! * `1` — `check` found a cost **regression** (the CI gate's signal);
//! * `2` — **usage/run errors**, including every `--param`/`--n`/`--topo`
//!   parse or validation failure. A malformed sweep request must never
//!   masquerade as a regression.

use std::path::PathBuf;
use std::process::Command;

fn ale_lab(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ale-lab"))
        .args(args)
        .output()
        .expect("spawn ale-lab")
}

fn exit_code(args: &[&str]) -> i32 {
    ale_lab(args).status.code().expect("exit code")
}

#[test]
fn success_paths_exit_zero() {
    assert_eq!(exit_code(&["list"]), 0);
    assert_eq!(exit_code(&["describe", "diffusion"]), 0);
    assert_eq!(
        exit_code(&[
            "run",
            "diffusion",
            "--quick",
            "--quiet",
            "--seeds",
            "1",
            "--workers",
            "1"
        ]),
        0
    );
}

#[test]
fn usage_errors_exit_two() {
    // Unknown scenario / command / flag.
    assert_eq!(exit_code(&["run", "nope"]), 2);
    assert_eq!(exit_code(&["frobnicate"]), 2);
    assert_eq!(exit_code(&["run", "diffusion", "--bogus"]), 2);
    // --param validation: unknown key, unparseable value, bad syntax.
    assert_eq!(exit_code(&["run", "diffusion", "--param", "nope=1"]), 2);
    assert_eq!(exit_code(&["run", "diffusion", "--param", "gamma=abc"]), 2);
    assert_eq!(exit_code(&["run", "diffusion", "--param", "gamma"]), 2);
    // Fault-sweep knobs: an unparseable value and a negative
    // probability (more out-of-range values are in the test below).
    assert_eq!(
        exit_code(&["run", "revocable", "--param", "fault-rate=abc"]),
        2
    );
    assert_eq!(
        exit_code(&["run", "revocable", "--param", "fault-rate=-0.1"]),
        2
    );
    // More values outside an axis's range (a negative convergence
    // target, a zero size estimate), and revocable graphs whose
    // stabilizing horizon has a diffusion send index past u32::MAX (the
    // bind-time horizon check). `seeds-per-point` is no axis at all:
    // `--seeds` is the one way to set the seed count. `--quick` bounds
    // the run should one of these be accepted.
    for args in [
        ["run", "diffusion", "--quick", "--param", "gamma=-1"],
        ["run", "thresholds", "--quick", "--param", "k=0"],
        ["run", "revocable", "--quick", "--param", "tiny=path:17"],
        ["run", "revocable", "--quick", "--param", "scaled-n=65"],
        [
            "run",
            "diffusion",
            "--quick",
            "--param",
            "seeds-per-point=2",
        ],
    ] {
        assert_eq!(exit_code(&args), 2, "{args:?}");
    }
    // --n / --topo parse failures are usage errors too.
    assert_eq!(exit_code(&["run", "diffusion", "--n", "many"]), 2);
    assert_eq!(exit_code(&["run", "diffusion", "--topo", "klein:4"]), 2);
    // A scenario with no 'n' axis rejects --n loudly instead of silently
    // ignoring it.
    assert_eq!(exit_code(&["run", "cautious", "--n", "64"]), 2);
    // An override that only an inactive block could consume is rejected
    // too: revocable's topology axis exists only in the --n-gated ladder
    // block, so a bare --topo must not silently run the default grid.
    assert_eq!(exit_code(&["run", "revocable", "--topo", "complete:6"]), 2);
    // The error channel is stderr, not stdout.
    let out = ale_lab(&["run", "diffusion", "--param", "nope=1"]);
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown parameter 'nope'"));
}

#[test]
fn out_of_range_values_and_repeated_points_exit_two_before_any_run() {
    let base = std::env::temp_dir().join(format!("ale-lab-exit-refused-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let twice = |label: &str| format!("grid point '{label}' appears twice");
    // (arguments, what the message must name). `--quick` bounds the run
    // should one of these be accepted.
    let cases: Vec<(&[&str], String)> = vec![
        // Points whose labels repeat: labels key the stored trials, so
        // a repeated one would corrupt the store.
        (
            &["diffusion", "--param", "gamma=0.1,0.1"],
            twice("complete(n=12)/gamma=0.1"),
        ),
        (
            &["diffusion", "--n", "100,101"],
            twice("torus(10x10)/gamma=0.1"),
        ),
        (
            &["table1", "--topo", "complete:8,complete:8"],
            twice("complete(n=8)/this-work"),
        ),
        (&["revocable", "--n", "64,65"], twice("ladder/torus(8x8)")),
        (
            &["walks", "--n", "128,128"],
            twice("rregular(n=128,d=4)/paper/mult=0.25"),
        ),
        (
            &["table1", "--param", "graph-seed=2,2"],
            twice("complete(n=32)/this-work/gs=2"),
        ),
        // Values outside their axis's declared range.
        (&["walks", "--param", "mult=0"], "takes mult > 0".into()),
        (
            &["impossibility", "--param", "factor=0"],
            "takes factor >= 1".into(),
        ),
        (&["certification", "--param", "k=1"], "takes k >= 2".into()),
        (
            &["certification", "--param", "mc-n=0"],
            "takes mc-n >= 1".into(),
        ),
        (
            &["certification", "--param", "lemma7-n=1"],
            "takes lemma7-n >= 2".into(),
        ),
        (
            &["revocable", "--param", "thm3-n=1"],
            "takes thm3-n >= 2".into(),
        ),
        (
            &["revocable", "--param", "scaled-n=1"],
            "takes scaled-n >= 2".into(),
        ),
        (
            &["diffusion", "--param", "gamma=0"],
            "takes gamma > 0".into(),
        ),
        (&["cautious", "--param", "x=0"], "takes x >= 1".into()),
        (&["thresholds", "--param", "k=1"], "takes k >= 2".into()),
        (&["walks", "--param", "x=0"], "takes x >= 1".into()),
        // Graphs smaller than the 6 candidates walks plants, whether
        // given directly or built by the size ladder.
        (&["walks", "--n", "5"], "takes topo with >= 6 nodes".into()),
        (
            &["walks", "--topo", "complete:4"],
            "takes topo with >= 6 nodes".into(),
        ),
        (
            &["walks", "--topo", "cycle:5"],
            "takes topo with >= 6 nodes".into(),
        ),
        // Topologies past 2^24 nodes, refused from the node count alone
        // before any graph is built. A count past usize saturates instead
        // of wrapping below the minimum, so hypercube:64 meets the same
        // cap (the family's own `dim <= 24` sets the same limit).
        (
            &["walks", "--topo", "grid:100000x100000"],
            "more than 16777216 (2^24) nodes".into(),
        ),
        (
            &["table1", "--topo", "cycle:16777217"],
            "more than 16777216 (2^24) nodes".into(),
        ),
        (
            &["walks", "--topo", "hypercube:64"],
            "more than 16777216 (2^24) nodes".into(),
        ),
        // Dense topologies under the node cap but past 2^28 edges, from
        // the family's closed-form edge count: building either would run
        // out of memory.
        (
            &["walks", "--topo", "complete:100000"],
            "more than 268435456 (2^28) edges".into(),
        ),
        (
            &["table1", "--topo", "gnp:100000x0.0001"],
            "more than 268435456 (2^28) edges".into(),
        ),
        // A rate of 1 drops every send; latencies stop at 64, a chosen
        // bound that keeps runs short.
        (
            &["revocable", "--param", "fault-rate=1.5"],
            "takes fault-rate in [0, 1)".into(),
        ),
        (
            &["revocable", "--param", "fault-rate=1"],
            "takes fault-rate in [0, 1)".into(),
        ),
        (
            &["revocable", "--param", "latency=0"],
            "takes latency in [1, 64]".into(),
        ),
        (
            &["revocable", "--param", "latency=65"],
            "takes latency in [1, 64]".into(),
        ),
        (
            &["ablation-cautious", "--param", "discipline=2"],
            "takes discipline in [0, 1]".into(),
        ),
    ];
    for (i, (args, names)) in cases.iter().enumerate() {
        let dir = base.join(i.to_string());
        let dir_arg = dir.to_string_lossy().to_string();
        let mut argv = vec!["run", "--quick", "--quiet", "--out", &dir_arg];
        argv.splice(1..1, args.iter().copied());
        let out = ale_lab(&argv);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(names.as_str()), "{args:?}: {stderr}");
        assert!(!dir.exists(), "{args:?} created its run directory");
    }
    assert!(!base.exists());
}

#[test]
fn no_scenario_panics_on_a_tiny_graph() {
    // Each scenario either runs or refuses the graph with a usage error;
    // a panic (exit 101) is never an answer. No `--out`: nothing is
    // written.
    for scenario in ale_lab::registry::all() {
        for size in [
            ["--topo", "complete:2"],
            ["--topo", "cycle:3"],
            ["--topo", "cycle:5"],
            ["--n", "3"],
            ["--n", "5"],
        ] {
            let mut args = vec!["run", scenario.name(), "--quick", "--quiet", "--seeds", "1"];
            args.extend(size);
            let code = exit_code(&args);
            assert!(code == 0 || code == 2, "{args:?} exited {code}");
        }
    }
}

#[test]
fn resume_completes_torn_runs_and_resume_usage_errors_exit_two() {
    let dir = std::env::temp_dir().join(format!("ale-lab-exit-resume-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let p = dir.to_string_lossy().to_string();
    assert_eq!(
        exit_code(&[
            "run",
            "diffusion",
            "--quick",
            "--quiet",
            "--seeds",
            "1",
            "--workers",
            "1",
            "--out",
            &p
        ]),
        0
    );
    // Simulate a kill: tear both persisted tails, drop the derived
    // views, and leave the manifest unmarked-complete.
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
    assert!(manifest.contains("\"complete\": true"));
    std::fs::write(
        &manifest_path,
        manifest.replace("\"complete\": true", "\"complete\": false"),
    )
    .unwrap();
    // A torn run resumes to success; the views are back.
    assert_eq!(exit_code(&["run", "--resume", &p, "--quiet"]), 0);
    assert!(dir.join("summary.csv").exists());
    assert!(std::fs::read_to_string(&manifest_path)
        .unwrap()
        .contains("\"complete\": true"));
    // Resume usage errors are exit 2, never a silent re-run.
    assert_eq!(exit_code(&["run", "--resume"]), 2);
    assert_eq!(exit_code(&["run", "--resume", &p, "--seeds", "3"]), 2);
    assert_eq!(exit_code(&["run", "--resume", "/nonexistent-run-dir"]), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_store_whose_manifest_lacks_a_v2_key_exits_two() {
    // Every reader of a store parses its manifest strictly: one without
    // `positions` is refused, since trial keys cannot be placed without it.
    let dir = std::env::temp_dir().join(format!("ale-lab-exit-strict-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let p = dir.to_string_lossy().to_string();
    assert_eq!(
        exit_code(&[
            "run",
            "diffusion",
            "--quick",
            "--quiet",
            "--seeds",
            "1",
            "--workers",
            "1",
            "--out",
            &p
        ]),
        0
    );
    let path = dir.join("manifest.json");
    let mut manifest = ale_lab::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    if let ale_lab::json::Value::Obj(pairs) = &mut manifest {
        pairs.retain(|(key, _)| key != "positions");
    }
    std::fs::write(&path, manifest.render_pretty() + "\n").unwrap();
    let out = ale_lab(&["check", &p, "--baseline", &p]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("'positions'"));
    assert_eq!(exit_code(&["merge", &p, &p]), 2);
    assert_eq!(exit_code(&["run", "--resume", &p, "--quiet"]), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_suite_usage_errors_exit_two_before_any_case_runs() {
    // An unknown suite, or one misspelt inside a list, is refused before
    // any ledger runs or the output directory is made.
    let dir = std::env::temp_dir().join(format!("ale-lab-exit-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let d = dir.to_string_lossy().to_string();
    for suites in ["gpu", "simulator,Diffusion", ""] {
        let out = ale_lab(&["bench", "--quick", "--suite", suites, "--out", &d]);
        assert_eq!(out.status.code(), Some(2), "--suite {suites:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown bench suite"));
    }
    assert_eq!(exit_code(&["bench", "--suite"]), 2);
    assert!(!dir.exists(), "a refused bench wrote {d}");
}

#[test]
fn serve_usage_errors_exit_two() {
    // No run directory, a directory that does not exist, and a
    // directory without a store are all usage errors, reported before
    // the listener ever binds.
    assert_eq!(exit_code(&["serve"]), 2);
    assert_eq!(exit_code(&["serve", "/nonexistent-run-dir"]), 2);
    let dir = std::env::temp_dir().join(format!("ale-lab-exit-serve-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.to_string_lossy().to_string();
    // An empty directory has no manifest.json; with a manifest but no
    // trials.db it is still not servable.
    assert_eq!(exit_code(&["serve", &p]), 2);
    std::fs::write(dir.join("manifest.json"), "{}").unwrap();
    let out = ale_lab(&["serve", &p]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no trials.db"));
    // Unparseable --addr / --workers, and unknown flags.
    std::fs::write(dir.join("trials.db"), "").unwrap();
    assert_eq!(exit_code(&["serve", &p, "--addr", "not-an-addr"]), 2);
    assert_eq!(exit_code(&["serve", &p, "--workers", "0"]), 2);
    assert_eq!(exit_code(&["serve", &p, "--workers", "many"]), 2);
    assert_eq!(exit_code(&["serve", &p, "--bogus"]), 2);
    // A port that is already taken is a bind error, not a hang.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    let out = ale_lab(&["serve", &p, "--addr", &addr]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot listen"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_regressions_exit_one_but_check_usage_errors_exit_two() {
    let dir = std::env::temp_dir().join(format!("ale-lab-exitcodes-{}", std::process::id()));
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
    let p = |p: &PathBuf| p.to_string_lossy().to_string();
    // Self-check: success.
    assert_eq!(exit_code(&["check", &p(&base), "--baseline", &p(&base)]), 0);
    // 3x growth: the regression exit code, distinct from usage errors.
    assert_eq!(exit_code(&["check", &p(&cur), "--baseline", &p(&base)]), 1);
    // Missing --baseline and a missing file are usage/run errors.
    assert_eq!(exit_code(&["check", &p(&cur)]), 2);
    let ghost = dir.join("ghost.csv");
    assert_eq!(exit_code(&["check", &p(&cur), "--baseline", &p(&ghost)]), 2);
    std::fs::remove_dir_all(&dir).ok();
}
