//! Output checks. Every check is one attempted operation; a failed check
//! (or a failed trial) counts against the run.

use crate::stats::fnv1a64;
use crate::workloads::Grid;
use ale_lab::json::Value;
use ale_lab::store::{load_jsonl, load_manifest, missing_trials};
use ale_lab::TrialRecord;
use std::path::Path;

/// Attempted and failed operation counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one check, reporting a failure on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Counts `n` operations that all succeeded.
    pub fn pass(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` operations that all failed.
    pub fn fail(&mut self, n: u64, what: &str) {
        self.attempted += n;
        self.failed += n;
        eprintln!("failed ({n} operations): {what}");
    }
}

/// Checks one finished sweep store against its expanded grid; `digest`
/// is the pinned `summary.csv` FNV-1a when the job has one.
pub fn sweep_store(dir: &Path, grid: &Grid, digest: Option<u64>, tally: &mut Tally) {
    let at = dir.display();
    match load_manifest(&dir.join("manifest.json")) {
        Ok(m) => {
            let missing = missing_trials(dir, &m).unwrap_or(u64::MAX);
            tally.check(
                m.complete && missing == 0,
                &format!("{at}: complete={} missing={missing}", m.complete),
            );
            let counted: u64 = m.counts.iter().sum();
            tally.check(
                counted == grid.trials(),
                &format!(
                    "{at}: manifest counts {counted} trials, grid x seeds is {}",
                    grid.trials()
                ),
            );
        }
        Err(e) => tally.check(false, &format!("{at}: manifest: {e}")),
    }
    let records = load_jsonl(&dir.join("trials.jsonl")).unwrap_or_default();
    tally.check(
        records.len() as u64 == grid.trials(),
        &format!(
            "{at}: {} records, expected {}",
            records.len(),
            grid.trials()
        ),
    );
    if grid.scenario.name() == "table1" {
        let bad = records.iter().filter(|r| r.ok && r.leaders != 1).count();
        tally.check(
            bad == 0,
            &format!("{at}: {bad} ok trials without exactly one leader"),
        );
    }
    let extra = |r: &TrialRecord, k: &str| r.extra.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    let delivery: Vec<_> = records
        .iter()
        .filter_map(|r| {
            Some((
                r,
                extra(r, "delivered")?,
                extra(r, "dropped")?,
                extra(r, "duplicated")?,
            ))
        })
        .collect();
    if !delivery.is_empty() {
        let bad = delivery
            .iter()
            .filter(|(r, del, drop, dup)| *del != r.messages as f64 - drop + dup)
            .count();
        tally.check(
            bad == 0,
            &format!("{at}: {bad} trials break delivered = messages - dropped + duplicated"),
        );
        // A trial that fails to stabilize climbs to the next size estimate
        // and runs far more rounds than the first estimate's schedule. The
        // zero-fault unit-latency point reproduces the synchronous baseline
        // only when neither point has such a trial.
        let (unit, sync) = ("faults/rate=0/lat=1", "faults/sync");
        let first_estimate = delivery.iter().map(|(r, ..)| r.rounds).min();
        let climbed = |point: &str| {
            records
                .iter()
                .any(|r| r.point == point && Some(r.rounds) != first_estimate)
        };
        if climbed(unit) || climbed(sync) {
            eprintln!("{at}: {unit} vs {sync} not compared: a trial climbed");
        } else {
            let summary = std::fs::read_to_string(dir.join("summary.csv")).unwrap_or_default();
            let async_rows = delivery_rows(&summary, unit);
            tally.check(
                !async_rows.is_empty() && async_rows == delivery_rows(&summary, sync),
                &format!("{at}: {unit} rows differ from the synchronous baseline"),
            );
        }
    }
    if let Some(pin) = digest {
        let got = fnv1a64(&std::fs::read(dir.join("summary.csv")).unwrap_or_default());
        tally.check(
            got == pin,
            &format!("{at}: summary.csv digest {got:#018x}, pinned {pin:#018x}"),
        );
    }
}

/// The seed-invariant summary rows of `point`, with the label cut off.
fn delivery_rows(summary_csv: &str, point: &str) -> Vec<String> {
    const METRICS: [&str; 7] = [
        "rounds",
        "messages",
        "stabilized",
        "leaders",
        "delivered",
        "dropped",
        "duplicated",
    ];
    summary_csv
        .lines()
        .filter_map(|line| {
            let (label, rest) = line.split_once(',')?;
            let metric = rest.split(',').nth(3)?;
            (label == point && METRICS.contains(&metric)).then(|| rest.to_string())
        })
        .collect()
}

/// The exact `/runs/{id}/summary` body for a finished store: its
/// journal's `s/` rows spliced into the envelope.
pub fn expected_summary(dir: &Path, id: &str, scenario: &str) -> Result<Vec<u8>, String> {
    use ale_lab::db::{AofDb, Db};
    let db = AofDb::open_read(&dir.join("trials.db")).map_err(|e| e.to_string())?;
    let mut body = format!(
        "{{\"run\":{},\"scenario\":{},\"complete\":true,\"missing\":0,\"rows\":[",
        Value::Str(id.to_string()).render(),
        Value::Str(scenario.to_string()).render()
    )
    .into_bytes();
    for (i, (_, value)) in db.iter_prefix(b"s/").into_iter().enumerate() {
        if i > 0 {
            body.push(b',');
        }
        body.extend_from_slice(&value);
    }
    body.extend_from_slice(b"]}\n");
    Ok(body)
}

/// Compares the files two stores of the same sweep must share byte for
/// byte.
pub fn same_store(a: &Path, b: &Path, tally: &mut Tally) {
    for file in [
        "trials.jsonl",
        "trials.db",
        "summary.csv",
        "trials.csv",
        "manifest.json",
    ] {
        let same = matches!(
            (std::fs::read(a.join(file)), std::fs::read(b.join(file))),
            (Ok(x), Ok(y)) if x == y
        );
        tally.check(
            same,
            &format!("{file} of {} differs from {}", b.display(), a.display()),
        );
    }
}
