//! The `ale-lab merge` subcommand: union sharded run directories.
//!
//! A `--shard i/k` sweep produces `k` run directories whose trial records
//! are, by the engine's determinism contract, exactly the trials the full
//! run would have produced for the points each shard selected. `merge`
//! reads each shard's `manifest.json` and `trials.db` journal — never the
//! derived views — and validates that the shards really belong to one
//! logical sweep — same scenario, master seed, seed count, quick flag,
//! resolved space, and shard divisor; distinct shard indices; disjoint
//! grids — and that each shard is **whole**: a manifest still marked
//! incomplete, a torn journal, or a journal that does not hold every
//! `(grid point, seed index)` key the shard's manifest promises is
//! rejected with a diagnostic naming the shard and the missing keys
//! (`run --resume` the shard first). Every journaled trial passes the
//! same validator `run --resume` uses ([`store::validated_trials`]).
//!
//! The union itself is a store union over keys: every grid point carries
//! its full-grid *position* from its manifest, the merged grid is the
//! points sorted by position, and records follow their keys. When all
//! `k` shards are present that order **is** the unsharded run's, so the
//! merged directory is byte-identical to what `--shard 0/1` would have
//! written — `trials.jsonl`, `trials.csv`, and the compacted `trials.db`
//! journal alike. A partial union keeps per-point positions in its
//! manifest and records which slices it contains (e.g. shard `"0,2/4"`),
//! so its output is a valid *input* to a later merge — the remaining
//! shard directories can finish the job.
//!
//! The merged `summary.csv` is recomputed from the unioned records
//! ([`RunSummary::from_records`]); `manifest.json` carries the union
//! shard label and the max worker count (informational).

use crate::agg::RunSummary;
use crate::db::{AofDb, Db as _};
use crate::scenario::{LabError, TrialRecord};
use crate::store::{self, JournaledTrial, RunManifest, RunWriter, TrialKey};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One constituent shard slice recovered from an input directory. A raw
/// `--shard i/k` run contributes one slice; a partial merge's output
/// contributes one per index its shard label lists.
struct Slice {
    dir: PathBuf,
    index: u64,
}

/// One grid point of the union: full-grid position, label, expected
/// trial count, and the input directory it came from.
struct KeyedPoint {
    position: u64,
    label: String,
    count: u64,
    dir: PathBuf,
}

fn resume_hint(dir: &Path) -> String {
    format!(
        "complete it with `ale-lab run --resume {}` before merging",
        dir.display()
    )
}

/// Loads one input directory's manifest and validated journal, rejecting
/// interrupted, torn, or short stores: a manifest still marked
/// incomplete, a `trials.db` whose final entry was cut mid-write, or a
/// journal holding fewer trials than the manifest's Σ counts — the
/// missing `(point, seed index)` keys are named, so a silently short
/// shard (a kill the manifest never witnessed, a hand-edited journal)
/// is loud.
fn load_shard(dir: &Path) -> Result<(RunManifest, Vec<JournaledTrial>), LabError> {
    let manifest = store::load_manifest(&dir.join("manifest.json"))?;
    if !manifest.complete {
        return Err(LabError::BadRecord(format!(
            "{}: run is incomplete (crashed or still running) — {}",
            dir.display(),
            resume_hint(dir)
        )));
    }
    let journal = dir.join("trials.db");
    let db = AofDb::open_read(&journal)?;
    if db.truncated() {
        return Err(LabError::BadRecord(format!(
            "{}: trials.db is truncated mid-entry — the shard lost data; {}",
            dir.display(),
            resume_hint(dir)
        )));
    }
    let trials = store::validated_trials(&journal, &manifest, db.iter_prefix(b"t/"))?;
    // Validated keys are distinct and in range, so a full count is full
    // coverage.
    let expected: u64 = manifest.counts.iter().sum();
    if trials.len() as u64 != expected {
        let held: BTreeSet<(usize, u64)> = trials.iter().map(|&(pi, si, _)| (pi, si)).collect();
        let missing: Vec<String> = (0..manifest.grid.len())
            .flat_map(|pi| (0..manifest.counts[pi]).map(move |si| (pi, si)))
            .filter(|key| !held.contains(key))
            .map(|(pi, si)| format!("('{}', seed index {si})", manifest.grid[pi]))
            .collect();
        let total = missing.len();
        let shown = missing.into_iter().take(8).collect::<Vec<_>>().join(", ");
        let more = if total > 8 { ", …" } else { "" };
        return Err(LabError::BadRecord(format!(
            "{}: shard {} is missing {total} trial(s): {shown}{more} — {}",
            dir.display(),
            manifest.shard,
            resume_hint(dir)
        )));
    }
    Ok((manifest, trials))
}

/// Checks that two shard manifests describe the same logical sweep.
fn check_compatible(a: &RunManifest, b: &RunManifest, dir: &Path) -> Result<(), LabError> {
    let mismatch = |what: &str, left: &dyn std::fmt::Display, right: &dyn std::fmt::Display| {
        LabError::BadArgs(format!(
            "{}: {what} mismatch ({left} vs {right}) — not shards of one sweep",
            dir.display()
        ))
    };
    if a.scenario != b.scenario {
        return Err(mismatch("scenario", &a.scenario, &b.scenario));
    }
    if a.master_seed != b.master_seed {
        return Err(mismatch("master seed", &a.master_seed, &b.master_seed));
    }
    if a.seeds != b.seeds {
        return Err(mismatch("seeds per point", &a.seeds, &b.seeds));
    }
    if a.quick != b.quick {
        return Err(mismatch("quick flag", &a.quick, &b.quick));
    }
    if a.space != b.space {
        return Err(mismatch(
            "resolved parameter space",
            &a.space.join("; "),
            &b.space.join("; "),
        ));
    }
    Ok(())
}

/// Merges sharded run directories; returns the report text.
///
/// With `out`, writes a complete merged run directory (`manifest.json`,
/// `trials.db`, `trials.jsonl`, `trials.csv`, `summary.csv`); without,
/// only validates and reports (a dry run).
///
/// # Errors
///
/// [`LabError::BadArgs`] on incompatible or overlapping shards,
/// [`LabError::BadRecord`] on incomplete/truncated shards or unreadable
/// inputs, [`LabError::Io`] on filesystem failures.
pub fn merge_dirs(dirs: &[PathBuf], out: Option<&Path>) -> Result<String, LabError> {
    if dirs.len() < 2 {
        return Err(LabError::BadArgs(
            "merge needs at least two run directories".into(),
        ));
    }

    let mut manifests: Vec<RunManifest> = Vec::new();
    // (full-grid position, seed index, record) across every shard.
    let mut keyed: Vec<(u64, u64, TrialRecord)> = Vec::new();
    let mut slices: Vec<Slice> = Vec::new();
    let mut points: Vec<KeyedPoint> = Vec::new();
    let mut divisor: Option<u64> = None;
    for dir in dirs {
        let (manifest, trials) = load_shard(dir)?;
        let (indices, k) = store::parse_shard_label(&manifest.shard).ok_or_else(|| {
            LabError::BadRecord(format!(
                "manifest shard '{}' is not i/k or i1,i2,…/k with ascending i < k",
                manifest.shard
            ))
        })?;
        match divisor {
            None => divisor = Some(k),
            Some(expect) if expect != k => {
                return Err(LabError::BadArgs(format!(
                    "{}: shard divisor {k} differs from {expect} — not shards of one sweep",
                    dir.display()
                )));
            }
            Some(_) => {}
        }
        if let Some(first) = manifests.first() {
            check_compatible(first, &manifest, dir)?;
        }
        for &index in &indices {
            if let Some(dup) = slices.iter().find(|s| s.index == index) {
                return Err(LabError::BadArgs(format!(
                    "{} and {} both contain shard {index}/{k}",
                    dup.dir.display(),
                    dir.display(),
                )));
            }
            slices.push(Slice {
                dir: dir.to_path_buf(),
                index,
            });
        }
        for ((label, &position), &count) in manifest
            .grid
            .iter()
            .zip(&manifest.positions)
            .zip(&manifest.counts)
        {
            points.push(KeyedPoint {
                position,
                label: label.clone(),
                count,
                dir: dir.to_path_buf(),
            });
        }
        keyed.extend(
            trials
                .into_iter()
                .map(|(pi, si, record)| (manifest.positions[pi], si, record)),
        );
        manifests.push(manifest);
    }
    let k = divisor.expect("at least two inputs loaded");

    // Grids of one sweep are disjoint by construction; a duplicated
    // label or full-grid position means the inputs are not what they
    // claim to be.
    let mut seen: BTreeMap<String, PathBuf> = BTreeMap::new();
    for p in &points {
        if let Some(prev) = seen.insert(p.label.clone(), p.dir.clone()) {
            return Err(LabError::BadArgs(format!(
                "grid point '{}' appears in both {} and {}",
                p.label,
                prev.display(),
                p.dir.display()
            )));
        }
    }
    // The union over keys: points sorted by full-grid position, records
    // by (position, seed index). For a complete slice set this IS the
    // unsharded run's grid and record order.
    points.sort_by_key(|p| p.position);
    for w in points.windows(2) {
        if w[0].position == w[1].position {
            return Err(LabError::BadArgs(format!(
                "grid position {} appears in both {} and {} — not slices of one grid",
                w[0].position,
                w[0].dir.display(),
                w[1].dir.display()
            )));
        }
    }
    keyed.sort_by_key(|&(position, si, _)| (position, si));
    let (keys, records): (Vec<(u64, u64)>, Vec<TrialRecord>) = keyed
        .into_iter()
        .map(|(position, si, r)| ((position, si), r))
        .unzip();
    slices.sort_by_key(|s| s.index);
    let complete = slices.len() as u64 == k;
    let grid: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
    let shard_label = if complete {
        "0/1".to_string()
    } else {
        let indices: Vec<String> = slices.iter().map(|s| s.index.to_string()).collect();
        format!("{}/{k}", indices.join(","))
    };

    let first = &manifests[0];
    let summary = RunSummary::from_records(
        &first.scenario,
        first.master_seed,
        first.seeds,
        manifests.iter().map(|m| m.workers).max().unwrap_or(0),
        &records,
    );
    let mut manifest = RunManifest::for_run(
        &first.scenario,
        first.master_seed,
        first.seeds,
        summary.workers,
        grid.clone(),
        first.quick,
        &shard_label,
        first.space.clone(),
    );
    manifest.positions = points.iter().map(|p| p.position).collect();
    manifest.counts = points.iter().map(|p| p.count).collect();
    // The invocation config survives only when every input agrees (a
    // merged whole sweep is resumable/reproducible; mixed inputs not).
    let configs: Vec<_> = manifests.iter().map(|m| m.config.as_ref()).collect();
    manifest.config = match configs.first() {
        Some(Some(c)) if configs.iter().all(|x| *x == Some(*c)) => Some((*c).clone()),
        _ => None,
    };
    // Preserve provenance: the producing trees' git state, not the
    // merging tree's.
    let pick = |values: Vec<&str>| {
        if values.windows(2).all(|w| w[0] == w[1]) {
            values[0].to_string()
        } else {
            "mixed".to_string()
        }
    };
    manifest.git = pick(manifests.iter().map(|m| m.git.as_str()).collect());
    manifest.git_describe = pick(manifests.iter().map(|m| m.git_describe.as_str()).collect());

    let mut report = format!(
        "merged {} shard slices of '{}' (master seed {}, {} seeds/point): \
         {} grid points, {} trials{}\n",
        slices.len(),
        first.scenario,
        first.master_seed,
        first.seeds,
        grid.len(),
        records.len(),
        if complete {
            " — complete sweep, full-grid order restored".to_string()
        } else {
            format!(" — partial union (shard {shard_label})")
        },
    );
    if let Some(dir) = out {
        let writer = RunWriter::create(dir, &manifest)?;
        for (&(position, seed_index), record) in keys.iter().zip(&records) {
            let key = TrialKey {
                scenario: manifest.scenario.clone(),
                space_hash: manifest.space_hash,
                position,
                seed_index,
            };
            writer.put(&key, record)?;
        }
        writer.finish(&records, &summary)?;
        report.push_str(&format!(
            "results stored under {} (manifest.json, trials.db, trials.jsonl, trials.csv, \
             summary.csv)\n",
            dir.display()
        ));
        // Telemetry is a side-channel outside the byte-identical store
        // guarantees: union the inputs' streams in input order, without
        // validating a single line.
        let mut telemetry = String::new();
        let mut sources = 0usize;
        for src in dirs {
            if let Ok(events) = std::fs::read_to_string(src.join("telemetry.jsonl")) {
                telemetry.push_str(&events);
                sources += 1;
            }
        }
        if sources > 0 {
            let dst = dir.join("telemetry.jsonl");
            std::fs::write(&dst, telemetry)
                .map_err(|e| LabError::Io(format!("write {}: {e}", dst.display())))?;
            report.push_str(&format!(
                "telemetry side-channel: unioned {sources} stream(s) into telemetry.jsonl (unvalidated)\n"
            ));
        }
    } else {
        report.push_str("dry run (pass --out DIR to write the merged store)\n");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{execute, RunSpec};
    use crate::params::{Axis, Block, ParamSpace};
    use crate::runners::{Algorithm, GraphContexts};
    use crate::scenario::{GridPoint, Scenario, TrialFn};
    use ale_graph::Topology;

    /// A scenario with enough points to shard three ways.
    struct Sharded;

    impl Scenario for Sharded {
        fn name(&self) -> &'static str {
            "sharded"
        }
        fn description(&self) -> &'static str {
            "merge test scenario"
        }
        fn default_seeds(&self, _quick: bool) -> u64 {
            3
        }
        fn space(&self) -> ParamSpace {
            ParamSpace::new(vec![Block::new(
                "grid",
                vec![
                    Axis::algorithms("algo", Algorithm::ALL),
                    Axis::ints("n", [8, 16]),
                ],
                |ctx| {
                    let a = ctx.algorithm("algo")?;
                    let n = ctx.int("n")? as usize;
                    Ok(Some(
                        GridPoint::new(format!("p{n}/{a}"))
                            .on(Topology::Cycle { n })
                            .algo(a),
                    ))
                },
            )])
        }
        fn bind(&self, point: &GridPoint, _: &GraphContexts) -> Result<TrialFn, LabError> {
            let point = point.clone();
            Ok(Box::new(move |seed| {
                let mut r = TrialRecord::new("sharded", &point, seed);
                r.messages = seed % 977;
                r.rounds = seed % 31;
                r.ok = true;
                r.push_extra("echo", seed as f64);
                Ok(r)
            }))
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ale-lab-merge-{}-{name}", std::process::id()))
    }

    fn run_with(shard: (u64, u64), out: &Path) {
        execute(
            &Sharded,
            &RunSpec {
                shard,
                out: Some(out.to_path_buf()),
                workers: 1,
                ..RunSpec::default()
            },
        )
        .unwrap();
    }

    fn read(path: &Path) -> String {
        std::fs::read_to_string(path).unwrap()
    }

    #[test]
    fn complete_merge_reproduces_the_full_run_byte_for_byte() {
        let base = tmp("complete");
        let full = base.join("full");
        run_with((0, 1), &full);
        let shard_dirs: Vec<PathBuf> = (0..3).map(|i| base.join(format!("s{i}"))).collect();
        for (i, dir) in shard_dirs.iter().enumerate() {
            run_with((i as u64, 3), dir);
        }
        let merged = base.join("merged");
        let report = merge_dirs(&shard_dirs, Some(&merged)).unwrap();
        assert!(report.contains("complete sweep"), "{report}");

        // The merged trial logs are byte-identical to the unsharded run's.
        assert_eq!(
            read(&full.join("trials.jsonl")),
            read(&merged.join("trials.jsonl"))
        );
        assert_eq!(
            read(&full.join("trials.csv")),
            read(&merged.join("trials.csv"))
        );
        // The recomputed summary matches (modulo the workers column, which
        // is informational and not part of summary.csv).
        assert_eq!(
            read(&full.join("summary.csv")),
            read(&merged.join("summary.csv"))
        );
        // So does the compacted keyed journal: same sweep identity, same
        // keys, same record payloads.
        assert_eq!(
            std::fs::read(full.join("trials.db")).unwrap(),
            std::fs::read(merged.join("trials.db")).unwrap()
        );
        let m = store::load_manifest(&merged.join("manifest.json")).unwrap();
        assert_eq!(m.shard, "0/1");
        let f = store::load_manifest(&full.join("manifest.json")).unwrap();
        assert_eq!(m.grid, f.grid, "full-grid order restored");
        assert_eq!(m.positions, f.positions);
        assert_eq!(m.counts, f.counts);
        assert_eq!(m.space_hash, f.space_hash);

        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn partial_merge_keeps_the_shard_label() {
        let base = tmp("partial");
        let s0 = base.join("s0");
        let s2 = base.join("s2");
        run_with((0, 3), &s0);
        run_with((2, 3), &s2);
        let merged = base.join("merged");
        let report = merge_dirs(&[s2.clone(), s0.clone()], Some(&merged)).unwrap();
        assert!(report.contains("partial union"), "{report}");
        let m = store::load_manifest(&merged.join("manifest.json")).unwrap();
        assert_eq!(m.shard, "0,2/3", "ascending indices");
        // Positions survive the union (sorted), so a later merge can key
        // on them.
        assert!(m.positions.windows(2).all(|w| w[0] < w[1]));
        assert!(m.positions.iter().all(|p| p % 3 != 1));
        // Records survive a load round-trip and cover both shards.
        let records = store::load_jsonl(&merged.join("trials.jsonl")).unwrap();
        let s0_records = store::load_jsonl(&s0.join("trials.jsonl")).unwrap();
        let s2_records = store::load_jsonl(&s2.join("trials.jsonl")).unwrap();
        assert_eq!(records.len(), s0_records.len() + s2_records.len());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn partial_output_is_a_valid_merge_input() {
        // The finish-the-job path: merge two of four shards, then merge
        // that output with the remaining two — byte-identical to the
        // unsharded run.
        let base = tmp("resume");
        let full = base.join("full");
        run_with((0, 1), &full);
        let dirs: Vec<PathBuf> = (0..4).map(|i| base.join(format!("s{i}"))).collect();
        for (i, dir) in dirs.iter().enumerate() {
            run_with((i as u64, 4), dir);
        }
        let partial = base.join("partial");
        let report = merge_dirs(&[dirs[0].clone(), dirs[2].clone()], Some(&partial)).unwrap();
        assert!(report.contains("partial union (shard 0,2/4)"), "{report}");
        let merged = base.join("merged");
        let report =
            merge_dirs(&[partial, dirs[1].clone(), dirs[3].clone()], Some(&merged)).unwrap();
        assert!(report.contains("complete sweep"), "{report}");
        assert_eq!(
            read(&full.join("trials.jsonl")),
            read(&merged.join("trials.jsonl"))
        );
        assert_eq!(
            read(&full.join("trials.csv")),
            read(&merged.join("trials.csv"))
        );
        assert_eq!(
            read(&full.join("summary.csv")),
            read(&merged.join("summary.csv"))
        );
        assert_eq!(
            std::fs::read(full.join("trials.db")).unwrap(),
            std::fs::read(merged.join("trials.db")).unwrap()
        );
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn incompatible_shards_are_rejected() {
        let base = tmp("incompat");
        let s0 = base.join("s0");
        let s1 = base.join("s1");
        let dup = base.join("dup");
        run_with((0, 3), &s0);
        run_with((1, 3), &s1);
        run_with((1, 3), &dup);

        // Duplicate shard index.
        assert!(matches!(
            merge_dirs(&[s1.clone(), dup.clone()], None),
            Err(LabError::BadArgs(_))
        ));
        // Single input.
        assert!(matches!(
            merge_dirs(std::slice::from_ref(&s0), None),
            Err(LabError::BadArgs(_))
        ));
        // Different master seed.
        let reseeded = base.join("reseeded");
        execute(
            &Sharded,
            &RunSpec {
                shard: (1, 3),
                master_seed: 9,
                out: Some(reseeded.clone()),
                workers: 1,
                ..RunSpec::default()
            },
        )
        .unwrap();
        assert!(matches!(
            merge_dirs(&[s0.clone(), reseeded], None),
            Err(LabError::BadArgs(_))
        ));
        // Different divisor.
        let other_k = base.join("otherk");
        run_with((1, 4), &other_k);
        assert!(matches!(
            merge_dirs(&[s0.clone(), other_k], None),
            Err(LabError::BadArgs(_))
        ));
        // Dry run on valid shards succeeds without writing anything.
        let report = merge_dirs(&[s0, s1], None).unwrap();
        assert!(report.contains("dry run"));
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn truncated_or_incomplete_shards_are_rejected_with_a_diagnostic() {
        let base = tmp("torn");
        let s0 = base.join("s0");
        let s1 = base.join("s1");
        run_with((0, 2), &s0);
        run_with((1, 2), &s1);

        // Tear s1's journal mid-entry: merge must refuse, naming the
        // shard, although its manifest still says complete.
        let journal = s1.join("trials.db");
        let bytes = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &bytes[..bytes.len() - 9]).unwrap();
        let err = merge_dirs(&[s0.clone(), s1.clone()], None).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("truncated"), "{msg}");
        assert!(msg.contains("s1"), "names the shard: {msg}");
        assert!(msg.contains("--resume"), "{msg}");

        // Cleanly drop a whole trial (a valid journal, one entry short):
        // the coverage check catches it and names the missing key.
        let (entries, _) = crate::db::scan_entries(&bytes);
        let last_trial = entries
            .iter()
            .rposition(|e| e.key.starts_with(b"t/"))
            .unwrap();
        let mut db = AofDb::create(&journal).unwrap();
        for (i, e) in entries.iter().enumerate() {
            if i != last_trial {
                db.put(&e.key, &e.value).unwrap();
            }
        }
        drop(db);
        let err = merge_dirs(&[s0.clone(), s1.clone()], None).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("missing 1 trial(s)"), "{msg}");
        assert!(msg.contains("seed index 2"), "names the key: {msg}");

        // Restore the journal but mark the manifest incomplete: still
        // refused.
        std::fs::write(&journal, &bytes).unwrap();
        assert!(merge_dirs(&[s0.clone(), s1.clone()], None).is_ok());
        let manifest_path = s1.join("manifest.json");
        let mut manifest = store::load_manifest(&manifest_path).unwrap();
        manifest.complete = false;
        std::fs::write(
            &manifest_path,
            crate::json::ToJson::to_json(&manifest).render_pretty() + "\n",
        )
        .unwrap();
        let err = merge_dirs(&[s0, s1], None).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("incomplete"), "{msg}");
        assert!(msg.contains("--resume"), "{msg}");

        std::fs::remove_dir_all(&base).ok();
    }

    const VIEWS: [&str; 3] = ["trials.jsonl", "trials.csv", "summary.csv"];

    #[test]
    fn merge_reads_only_manifests_and_journals() {
        let base = tmp("noviews");
        let full = base.join("full");
        run_with((0, 1), &full);
        let shards: Vec<PathBuf> = (0..2).map(|i| base.join(format!("s{i}"))).collect();
        for (i, dir) in shards.iter().enumerate() {
            run_with((i as u64, 2), dir);
        }
        let with_views = base.join("with-views");
        merge_dirs(&shards, Some(&with_views)).unwrap();
        for dir in &shards {
            for view in VIEWS {
                std::fs::remove_file(dir.join(view)).unwrap();
            }
        }
        let merged = base.join("merged");
        let report = merge_dirs(&shards, Some(&merged)).unwrap();
        assert!(report.contains("complete sweep"), "{report}");
        for file in VIEWS.iter().chain(&["trials.db"]) {
            assert_eq!(
                std::fs::read(full.join(file)).unwrap(),
                std::fs::read(merged.join(file)).unwrap(),
                "{file} differs from the unsharded run"
            );
        }
        for file in VIEWS.iter().chain(&["trials.db", "manifest.json"]) {
            assert_eq!(
                std::fs::read(with_views.join(file)).unwrap(),
                std::fs::read(merged.join(file)).unwrap(),
                "{file} depends on the input views"
            );
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn a_complete_shard_with_a_torn_journal_is_refused_until_resumed() {
        // Resume re-expands a registered scenario, so this uses a cheap
        // one.
        let scenario = crate::registry::find("diffusion").expect("registered");
        let spec = |shard: (u64, u64), out: &Path| RunSpec {
            seeds: Some(2),
            workers: 1,
            grid: crate::scenario::GridConfig {
                quick: true,
                ..Default::default()
            },
            shard,
            out: Some(out.to_path_buf()),
            ..RunSpec::default()
        };
        let base = tmp("torn-complete");
        let full = base.join("full");
        execute(scenario.as_ref(), &spec((0, 1), &full)).unwrap();
        let shards: Vec<PathBuf> = (0..2).map(|i| base.join(format!("s{i}"))).collect();
        for (i, dir) in shards.iter().enumerate() {
            execute(scenario.as_ref(), &spec((i as u64, 2), dir)).unwrap();
        }
        let journal = shards[1].join("trials.db");
        let bytes = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &bytes[..bytes.len() - 9]).unwrap();
        assert!(
            store::load_manifest(&shards[1].join("manifest.json"))
                .unwrap()
                .complete
        );
        let msg = merge_dirs(&shards, None).unwrap_err().to_string();
        assert!(
            msg.contains("truncated") && msg.contains("--resume"),
            "{msg}"
        );

        crate::engine::resume(&shards[1], None, false).unwrap();
        assert_eq!(std::fs::read(&journal).unwrap(), bytes, "resume repairs");
        let merged = base.join("merged");
        merge_dirs(&shards, Some(&merged)).unwrap();
        for file in VIEWS.iter().chain(&["trials.db"]) {
            assert_eq!(
                std::fs::read(full.join(file)).unwrap(),
                std::fs::read(merged.join(file)).unwrap(),
                "{file} differs from the unsharded run"
            );
        }
        std::fs::remove_dir_all(&base).ok();
    }
}
