//! Kill-and-resume durability, pinned end to end:
//!
//! 1. a run killed at any point — torn `trials.db` tail, torn
//!    `trials.jsonl` line, missing views, missing journal — is completed
//!    in place by `run --resume`, and every stored file is
//!    **byte-identical** to an uninterrupted run at any worker count;
//! 2. resume refuses drifted parameter spaces, merged-partial shards,
//!    and pre-store manifests loudly instead of silently recomputing.

use ale_lab::engine::{execute, resume, RunSpec};
use ale_lab::json::ToJson;
use ale_lab::registry;
use ale_lab::scenario::{GridConfig, LabError};
use ale_lab::store;
use std::path::{Path, PathBuf};

const FILES: [&str; 5] = [
    "manifest.json",
    "trials.db",
    "trials.jsonl",
    "trials.csv",
    "summary.csv",
];

fn quick_spec(dir: &Path, workers: usize) -> RunSpec {
    RunSpec {
        master_seed: 11,
        seeds: Some(3),
        workers,
        grid: GridConfig {
            quick: true,
            ..GridConfig::default()
        },
        out: Some(dir.to_path_buf()),
        ..RunSpec::default()
    }
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ale-lab-resume-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    FILES
        .iter()
        .map(|f| (f.to_string(), std::fs::read(dir.join(f)).expect(f)))
        .collect()
}

fn assert_identical(dir: &Path, baseline: &[(String, Vec<u8>)], what: &str) {
    for (name, bytes) in baseline {
        let got = std::fs::read(dir.join(name)).expect(name);
        assert_eq!(&got, bytes, "{what}: {name} diverged from the full run");
    }
}

fn mark_incomplete(dir: &Path) {
    let path = dir.join("manifest.json");
    let mut m = store::load_manifest(&path).expect("manifest");
    m.complete = false;
    std::fs::write(&path, m.to_json().render_pretty() + "\n").unwrap();
}

/// Chops `n` bytes off the end of `name` — a mid-record/mid-line tear.
fn truncate_tail(dir: &Path, name: &str, n: u64) {
    let path = dir.join(name);
    let len = std::fs::metadata(&path).expect(name).len();
    assert!(len > n, "{name} too small to tear");
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len - n).unwrap();
}

#[test]
fn killed_runs_resume_byte_identical_at_any_worker_count() {
    let scenario = registry::find("cautious").expect("registered");
    let full = tmp("full");
    execute(scenario.as_ref(), &quick_spec(&full, 4)).expect("full run");
    let baseline = snapshot(&full);

    for workers in [1usize, 8] {
        // Crash state A: journal torn mid-entry, JSONL torn mid-line,
        // derived views gone, manifest never marked complete.
        let dir = tmp(&format!("torn-w{workers}"));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in &baseline {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        truncate_tail(&dir, "trials.db", 13);
        truncate_tail(&dir, "trials.jsonl", 7);
        std::fs::remove_file(dir.join("trials.csv")).unwrap();
        std::fs::remove_file(dir.join("summary.csv")).unwrap();
        mark_incomplete(&dir);
        let out = resume(&dir, Some(workers), false).expect("resume torn");
        assert_identical(&dir, &baseline, &format!("torn, workers={workers}"));
        assert_eq!(out.records.len(), baseline_record_count(&baseline));

        // Crash state B: killed before anything durable landed — only
        // the incomplete manifest exists. Resume recomputes everything.
        let dir = tmp(&format!("bare-w{workers}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("manifest.json"),
            &baseline
                .iter()
                .find(|(n, _)| n == "manifest.json")
                .unwrap()
                .1,
        )
        .unwrap();
        mark_incomplete(&dir);
        resume(&dir, Some(workers), false).expect("resume bare");
        assert_identical(&dir, &baseline, &format!("bare, workers={workers}"));

        std::fs::remove_dir_all(tmp(&format!("torn-w{workers}"))).ok();
        std::fs::remove_dir_all(tmp(&format!("bare-w{workers}"))).ok();
    }

    // Crash state C: journal lost entirely but a JSONL prefix survived —
    // resume never reads the view, so every trial is recomputed and the
    // torn `trials.jsonl` is simply rewritten.
    let dir = tmp("jsonl-only");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in &baseline {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    std::fs::remove_file(dir.join("trials.db")).unwrap();
    std::fs::remove_file(dir.join("trials.csv")).unwrap();
    std::fs::remove_file(dir.join("summary.csv")).unwrap();
    truncate_tail(&dir, "trials.jsonl", 25);
    mark_incomplete(&dir);
    resume(&dir, None, false).expect("resume jsonl-only");
    assert_identical(&dir, &baseline, "jsonl-only");
    std::fs::remove_dir_all(&dir).ok();

    // Resuming an already-complete run is a no-op rewrite: still identical.
    resume(&full, Some(2), false).expect("resume complete");
    assert_identical(&full, &baseline, "already complete");
    std::fs::remove_dir_all(&full).ok();
}

fn baseline_record_count(baseline: &[(String, Vec<u8>)]) -> usize {
    let jsonl = &baseline
        .iter()
        .find(|(n, _)| n == "trials.jsonl")
        .unwrap()
        .1;
    std::str::from_utf8(jsonl).unwrap().lines().count()
}

#[test]
fn resume_refuses_drift_merged_partials_and_pre_store_manifests() {
    let scenario = registry::find("cautious").expect("registered");
    let dir = tmp("refuse");
    execute(scenario.as_ref(), &quick_spec(&dir, 2)).expect("run");
    let path = dir.join("manifest.json");
    let manifest = store::load_manifest(&path).expect("manifest");

    let rewrite = |m: &store::RunManifest| {
        std::fs::write(&path, m.to_json().render_pretty() + "\n").unwrap();
    };

    // A tampered space hash means the re-expanded space no longer matches
    // what the store was keyed under.
    let mut drifted = manifest.clone();
    drifted.space_hash ^= 1;
    drifted.complete = false;
    rewrite(&drifted);
    let err = resume(&dir, None, false).expect_err("drift must refuse");
    assert!(matches!(err, LabError::BadArgs(_)), "{err}");
    assert!(err.to_string().contains("does not match"), "{err}");

    // A merged-partial union cannot be resumed as one run.
    let mut merged = manifest.clone();
    merged.shard = "0,1/3".into();
    rewrite(&merged);
    let err = resume(&dir, None, false).expect_err("merged partial must refuse");
    assert!(err.to_string().contains("merged partial"), "{err}");

    // A pre-store manifest records no invocation config to re-expand.
    let mut old = manifest.clone();
    old.config = None;
    rewrite(&old);
    let err = resume(&dir, None, false).expect_err("pre-store must refuse");
    assert!(matches!(err, LabError::BadArgs(_)), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}
