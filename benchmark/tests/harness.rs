//! Tests of the benchmark's own machinery: statistics, the route mix, the
//! naming rules, workload inputs, verdicts, and the traced run.

use ale_benchmark::checks::{same_store, Tally};
use ale_benchmark::compare::{load_benchmark, verdict, Bound, Verdict};
use ale_benchmark::http::{percent_decode, percent_encode, route_mix, MixInputs, ROUTES};
use ale_benchmark::stats::{quantile, quartiles, tail};
use ale_benchmark::trace::{
    aggregate, direct_builds, journal_replay, run_execute, to_jsonl, Recorder,
};
use ale_benchmark::workloads::{Kind, Sweep, FAULT_SWEEP_MASTERS, WORKLOADS};
use ale_benchmark::{END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
}

#[test]
fn quantiles_interpolate_linearly() {
    let v = [10.0, 20.0, 30.0, 40.0];
    assert_eq!(quantile(&v, 0.0), 10.0);
    assert_eq!(quantile(&v, 0.5), 25.0);
    assert_eq!(quantile(&v, 1.0), 40.0);
    assert_eq!(quantile(&[3.0, 5.0, 9.0], 0.5), 5.0);
}

#[test]
fn tail_keeps_ten_samples_beyond_it() {
    let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let (value, pct) = tail(&hundred);
    assert_eq!(value, 90.0);
    assert_eq!(pct, 90.0);
    assert_eq!(hundred.iter().filter(|&&x| x > value).count(), 10);
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail(&thousand), (990.0, 99.0));
    // Too few samples for a percentile at or above the median: the max.
    let few: Vec<f64> = (1..=12).map(f64::from).collect();
    assert_eq!(tail(&few), (12.0, 100.0));
}

fn mix_inputs<'a>(labels: &'a [String], cursors: &'a [u64]) -> MixInputs<'a> {
    MixInputs {
        run: "run",
        labels,
        cursors,
    }
}

#[test]
fn route_mix_is_a_function_of_its_stream() {
    let labels = vec![
        "complete(n=32)/this-work".to_string(),
        "cycle(n=16)/kutten15".to_string(),
    ];
    let cursors = vec![0, 120, 4096];
    let inputs = mix_inputs(&labels, &cursors);
    let a = route_mix(7, 500, &inputs);
    assert_eq!(a, route_mix(7, 500, &inputs));
    assert_ne!(a, route_mix(8, 500, &inputs));
    let many = route_mix(1, 20_000, &inputs);
    for (i, (name, weight)) in ROUTES.iter().enumerate() {
        let share = many.iter().filter(|t| t.route == i).count() as f64 / many.len() as f64;
        assert!(
            (share * 100.0 - *weight as f64).abs() < 1.5,
            "{name}: {share}"
        );
    }
    assert!(many
        .iter()
        .any(|t| t.target == "/runs/run/trials?point=complete%28n%3D32%29%2Fthis-work"));
}

#[test]
fn percent_encoding_round_trips_labels() {
    for label in [
        "faults/rate=0.04/lat=2/gs=1",
        "torus(8x8)/flood-all",
        "a b+c%",
    ] {
        let encoded = percent_encode(label);
        assert!(encoded
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"-._~%".contains(&b)));
        assert_eq!(percent_decode(&encoded), label);
    }
}

#[test]
fn names_fit_the_rules_and_match_benchmark_json() {
    let ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().copied())
        .chain(PER_LAYER.iter().copied())
    {
        assert!(ok(name), "{name}");
    }
    let listed = load_benchmark(&repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let e2e: Vec<&str> = listed.end_to_end.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(e2e, END_TO_END);
    assert_eq!(listed.per_layer, PER_LAYER);
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read");
    for w in WORKLOADS {
        assert!(
            text.contains(&format!(
                "{{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name, w.why
            )),
            "{}",
            w.name
        );
    }
}

#[test]
fn sweep_inputs_derive_from_the_seed() {
    let sweep = |name: &str| match WORKLOADS.iter().find(|w| w.name == name).unwrap().kind {
        Kind::Sweep(s) => s,
        Kind::Serve { prep } => prep,
    };
    let table1 = sweep("table1-sweep");
    assert_eq!(table1.master(5, 0), 5);
    assert_eq!(table1.master(5, 2), 5 + (2 << 32));
    let argv = table1.argv(5, "out");
    assert_eq!(argv[..2], ["run", "table1"]);
    assert!(argv.ends_with(&[
        "--master-seed".to_string(),
        "5".to_string(),
        "--workers".to_string(),
        "1".to_string(),
        "--quiet".to_string(),
        "--out".to_string(),
        "out".to_string()
    ]));
    // The fault sweep steps through its pool from the seed's entry.
    let fault = sweep("fault-sweep");
    let pool = FAULT_SWEEP_MASTERS;
    assert_eq!(fault.master(1, 0), pool[1]);
    assert_eq!(fault.master(2, 0), pool[2]);
    let run: Vec<u64> = (0..pool.len() as u64).map(|j| fault.master(7, j)).collect();
    let mut sorted = run.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, pool);
    let argv = fault.argv(pool[0], "out");
    let at = argv
        .iter()
        .position(|a| a == "tiny=complete:2")
        .expect("tiny param");
    assert_eq!(argv[at - 1], "--param");
}

fn bound(b: f64) -> Bound {
    Bound {
        bound: b,
        lower_is_better: true,
    }
}

fn seeded(values: &[f64]) -> Vec<(u64, f64)> {
    values
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as u64, v))
        .collect()
}

#[test]
fn verdicts_follow_the_bounds() {
    let parent = seeded(&[
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ]);
    let faster: Vec<f64> = parent.iter().map(|&(_, v)| v * 0.8).collect();
    assert_eq!(
        verdict(&parent, &seeded(&faster), &bound(0.1)),
        Verdict::Better
    );
    let slower: Vec<f64> = parent.iter().map(|&(_, v)| v * 1.3).collect();
    assert_eq!(
        verdict(&parent, &seeded(&slower), &bound(0.1)),
        Verdict::Worse
    );
    let same: Vec<f64> = parent.iter().map(|&(_, v)| v * 1.01).collect();
    assert_eq!(
        verdict(&parent, &seeded(&same), &bound(0.1)),
        Verdict::Unchanged
    );
    let noisy = seeded(&[
        50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 100.0, 90.0, 110.0, 70.0,
    ]);
    assert_eq!(
        verdict(&noisy, &seeded(&same), &bound(0.1)),
        Verdict::Unresolved
    );
    // Noise in B alone leaves the call open too.
    assert_eq!(
        verdict(&seeded(&same), &noisy, &bound(0.1)),
        Verdict::Unresolved
    );
    // Higher-is-better metrics flip the direction.
    let throughput = Bound {
        bound: 0.1,
        lower_is_better: false,
    };
    assert_eq!(
        verdict(&parent, &seeded(&slower), &throughput),
        Verdict::Better
    );
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A traced run must do exactly the engine's work, and the direct calls
/// must reproduce what the engine wrote: the store written under the
/// recorder, and the one the journal replay writes, are byte-identical to
/// the untraced store, and the aggregation rebuilds its `summary.csv`.
#[test]
fn traced_run_and_direct_calls_reproduce_the_engine_store() {
    let quick = Sweep {
        scenario: "table1",
        quick: true,
        seeds: Some(2),
        ns: &[],
        params: &[],
        master_pool: None,
        graph_seed: 1,
        digest_seed1: 0,
    };
    let grid = quick.expand().expect("expand");
    let master = quick.master(3, 1);
    let (plain, traced, journal) = (scratch("plain"), scratch("traced"), scratch("journal"));
    let (output, _) = run_execute(&quick, master, &plain).expect("untraced");
    assert_eq!(output.records.len() as u64, grid.trials());

    let rec = Recorder::default();
    rec.install();
    let traced_run = run_execute(&quick, master, &traced);
    let engine_events = rec.take();
    let builds = direct_builds(&quick, &grid);
    let puts = journal_replay(&plain, &journal, &output);
    ale_telemetry::uninstall();
    traced_run.expect("traced");
    assert!(builds.expect("builds").0 > 0.0);
    assert_eq!(puts.expect("journal replay").len() as u64, grid.trials());

    let mut tally = Tally::default();
    same_store(&plain, &traced, &mut tally);
    same_store(&plain, &journal, &mut tally);
    assert_eq!((tally.attempted, tally.failed), (10, 0));
    let (summary, _) = aggregate(&grid, master, &output.records);
    let stored = std::fs::read_to_string(plain.join("summary.csv")).expect("summary.csv");
    assert_eq!(summary.summary_csv(), stored);

    let named = |name: &str| engine_events.iter().filter(|e| e.name == name).count() as u64;
    assert_eq!(
        (named("expand"), named("bind"), named("store-write")),
        (1, 1, 1)
    );
    assert_eq!(named("trial"), grid.trials());
    let jsonl = to_jsonl("w", &engine_events);
    assert_eq!(jsonl.lines().count(), engine_events.len());
    assert!(jsonl.lines().all(|l| l.starts_with("{\"trace\":\"w\"")));
}
