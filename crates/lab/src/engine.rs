//! The run engine: parameter-space expansion (`--param`/`--n`/`--topo`
//! overrides applied and recorded) → point selection (`--algo` filter,
//! `--shard` slicing) → parallel binding → seed-fleet execution →
//! streaming aggregation → persistence.
//!
//! Determinism contract: given the same scenario, grid config, master
//! seed, and seed counts, two runs produce identical `Vec<TrialRecord>`
//! at *any* worker count — trial seeds are derived positionally
//! ([`crate::fleet::derive_seed`]) and results are merged in task order.
//! Selection composes with that contract: seeds derive from a point's
//! position in the **full** grid, so a filtered or sharded run reproduces
//! exactly the trials the full run would have produced for those points —
//! the shards of a `--shard 0/k .. (k-1)/k` sweep union to the full run
//! byte for byte.

use crate::agg::RunSummary;
use crate::fleet;
use crate::runners::{Algorithm, GraphContexts};
use crate::scenario::{GridConfig, LabError, Scenario, TrialRecord};
use crate::store::{validated_trials, RunConfig, RunManifest, RunWriter, TrialKey};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Everything needed to execute one run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Master seed; every trial seed derives from it.
    pub master_seed: u64,
    /// Seeds per grid point (`None` → the scenario default).
    pub seeds: Option<u64>,
    /// Worker threads.
    pub workers: usize,
    /// Grid-shaping flags.
    pub grid: GridConfig,
    /// `--algo` filter: run only grid points whose algorithm is listed
    /// (empty → no filter).
    pub algos: Vec<Algorithm>,
    /// `--shard i/k`: run every `k`-th selected point starting at `i`.
    /// `(0, 1)` is the whole run.
    pub shard: (u64, u64),
    /// Output directory for the result store (`None` → in-memory only).
    pub out: Option<PathBuf>,
    /// Emit progress lines to stderr.
    pub progress: bool,
    /// Stream telemetry events (JSONL) to this path for the duration of
    /// the run. The stream is a side-channel: it never participates in
    /// the store's byte-identical guarantees (see [`crate::telemetry`]).
    pub telemetry: Option<PathBuf>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            master_seed: 1,
            seeds: None,
            workers: fleet::default_workers(),
            grid: GridConfig::default(),
            algos: Vec::new(),
            shard: (0, 1),
            out: None,
            progress: false,
            telemetry: None,
        }
    }
}

/// A completed run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Every trial, ordered by (grid point, seed index).
    pub records: Vec<TrialRecord>,
    /// Streaming aggregates per grid point.
    pub summary: RunSummary,
    /// The scenario's rendered report.
    pub report: String,
}

/// Executes `scenario` under `spec`.
///
/// # Errors
///
/// Propagates grid/bind/trial failures and result-store IO errors.
pub fn execute(scenario: &dyn Scenario, spec: &RunSpec) -> Result<RunOutput, LabError> {
    execute_inner(scenario, spec, None)
}

/// Completes an interrupted (or torn) run directory in place: rebuilds
/// the [`RunSpec`] from the manifest's stored invocation config,
/// re-expands the parameter space, verifies it hashes to the stored
/// sweep identity, recovers every already-durable trial from the
/// `trials.db` journal ([`crate::store::validated_trials`]), executes
/// only the missing trials, and finishes the store — producing a
/// directory byte-identical to an uninterrupted run, at any worker
/// count. The derived views are never read: a lost or torn
/// `trials.jsonl` is simply rewritten. `workers` overrides the thread
/// count for the remaining work only; the manifest keeps the original
/// value.
///
/// # Errors
///
/// [`LabError::BadArgs`] when the directory is not resumable (a merged
/// store with no config or a multi-slice shard label, or a parameter
/// space that no longer matches the stored one);
/// [`LabError::BadRecord`] on a manifest or journal entry that fails
/// validation; trial and IO failures propagate.
pub fn resume(dir: &Path, workers: Option<usize>, progress: bool) -> Result<RunOutput, LabError> {
    let manifest = crate::store::load_manifest(&dir.join("manifest.json"))?;
    let Some(config) = manifest.config.clone() else {
        return Err(LabError::BadArgs(format!(
            "{}: manifest records no invocation config (a merged store whose inputs' configs \
             disagreed) — re-run the sweep instead",
            dir.display()
        )));
    };
    // Merged partial stores carry multi-index labels (`"0,2/3"`): those are
    // unions, not executable slices, so they are not resumable.
    let shard = match crate::store::parse_shard_label(&manifest.shard) {
        Some((indices, k)) if indices.len() == 1 => (indices[0], k),
        parsed => {
            let why = if parsed.is_some() {
                "is a merged partial union — resume the remaining original shards and merge \
                 again instead"
            } else {
                "is not an 'i/k' slice"
            };
            let (dir, label) = (dir.display(), &manifest.shard);
            return Err(LabError::BadArgs(format!(
                "{dir}: manifest shard '{label}' {why}"
            )));
        }
    };
    let scenario = crate::registry::find(&manifest.scenario).ok_or_else(|| {
        LabError::UnknownScenario(format!(
            "{} (named by {}/manifest.json)",
            manifest.scenario,
            dir.display()
        ))
    })?;
    let mut topologies = Vec::with_capacity(config.topos.len());
    for t in &config.topos {
        topologies.push(
            t.parse().map_err(|e| {
                LabError::BadRecord(format!("manifest topology override '{t}': {e}"))
            })?,
        );
    }
    let mut algos = Vec::with_capacity(config.algos.len());
    for name in &config.algos {
        algos.push(Algorithm::from_name(name).ok_or_else(|| {
            LabError::BadRecord(format!("manifest names unknown algorithm '{name}'"))
        })?);
    }
    let spec = RunSpec {
        master_seed: manifest.master_seed,
        seeds: Some(manifest.seeds),
        workers: workers.unwrap_or(manifest.workers),
        grid: GridConfig {
            quick: manifest.quick,
            ns: config.ns.iter().map(|&n| n as usize).collect(),
            topologies,
            params: config.params.clone(),
        },
        algos,
        shard,
        out: Some(dir.to_path_buf()),
        progress,
        telemetry: None,
    };
    execute_inner(scenario.as_ref(), &spec, Some(&manifest))
}

fn execute_inner(
    scenario: &dyn Scenario,
    spec: &RunSpec,
    resume_from: Option<&RunManifest>,
) -> Result<RunOutput, LabError> {
    // Declared before any span so it drops last: spans emitted during
    // unwinding/return still reach the sink before it is uninstalled.
    let telemetry_guard = match &spec.telemetry {
        Some(path) => Some(crate::telemetry::TelemetryGuard::install(path)?),
        None => None,
    };
    let mut sweep = ale_telemetry::Span::begin("sweep")
        .attr("scenario", scenario.name())
        .attr("master_seed", spec.master_seed)
        .attr("quick", spec.grid.quick);

    let expand_span = ale_telemetry::Span::begin("expand");
    let expansion = scenario.space().expand(&spec.grid)?;
    drop(expand_span);
    let resolved_space = expansion.resolved_lines();
    let full_grid = expansion.points;
    if full_grid.is_empty() {
        return Err(LabError::BadArgs(format!(
            "scenario '{}' produced an empty grid for these arguments",
            scenario.name()
        )));
    }
    let (shard_i, shard_k) = spec.shard;
    if shard_k == 0 || shard_i >= shard_k {
        return Err(LabError::BadArgs(format!(
            "--shard {shard_i}/{shard_k}: the index must be below the count"
        )));
    }

    // Selection: keep each point's ORIGINAL grid index — the seed stream
    // discriminator — so filtered/sharded runs reproduce the full run's
    // trials for the points they execute.
    let mut selected: Vec<usize> = (0..full_grid.len()).collect();
    if !spec.algos.is_empty() {
        selected.retain(|&i| {
            full_grid[i]
                .algorithm
                .is_some_and(|a| spec.algos.contains(&a))
        });
        if selected.is_empty() {
            return Err(LabError::BadArgs(format!(
                "--algo matched no grid points of scenario '{}' (does it have an algorithm axis?)",
                scenario.name()
            )));
        }
    }
    if shard_k > 1 {
        selected = selected
            .into_iter()
            .enumerate()
            .filter(|(pos, _)| *pos as u64 % shard_k == shard_i)
            .map(|(_, i)| i)
            .collect();
        if selected.is_empty() {
            return Err(LabError::BadArgs(format!(
                "shard {shard_i}/{shard_k} selects no grid points"
            )));
        }
    }
    let grid: Vec<_> = selected.iter().map(|&i| full_grid[i].clone()).collect();

    let seeds_global = spec
        .seeds
        .unwrap_or_else(|| scenario.default_seeds(spec.grid.quick));
    if seeds_global == 0 {
        return Err(LabError::BadArgs("--seeds must be at least 1".into()));
    }
    let workers = fleet::effective_workers(spec.workers);

    sweep.set_attr("points", grid.len());

    // One-time per-point preparation, itself fleet-parallel (property
    // computation dominates for large grids). The points share one graph
    // memo, dropped once bound: the trials keep only what they hold.
    let bind_span = ale_telemetry::Span::begin("bind").attr("points", grid.len());
    let graphs = GraphContexts::default();
    let bound = fleet::run_indexed(grid.len(), workers, |i| scenario.bind(&grid[i], &graphs));
    drop(graphs);
    let mut binders = Vec::with_capacity(bound.len());
    for b in bound {
        binders.push(b?);
    }
    drop(bind_span);

    // Flatten (point × seed-index) into a dense task list.
    let counts: Vec<u64> = grid
        .iter()
        .map(|p| p.seeds.unwrap_or(seeds_global))
        .collect();
    let mut offsets = Vec::with_capacity(grid.len() + 1);
    let mut total = 0u64;
    for c in &counts {
        offsets.push(total);
        total += c;
    }
    offsets.push(total);
    let total = usize::try_from(total)
        .map_err(|_| LabError::BadArgs("trial count overflows usize".into()))?;

    let scenario_name = scenario.name();
    let master = spec.master_seed;
    let telemetry_on = spec.telemetry.is_some();

    // Persist as we go: the manifest (marked incomplete) and the keyed
    // trials.db journal exist BEFORE the first trial executes, and every
    // worker makes its record durable the moment it finishes — a kill at
    // any point leaves a directory `run --resume` can complete.
    let labels: Vec<String> = grid.iter().map(|p| p.label.clone()).collect();
    let store_hash = crate::store::space_hash(
        scenario_name,
        master,
        seeds_global,
        spec.grid.quick,
        &resolved_space,
    );
    let mut durable: BTreeMap<usize, TrialRecord> = BTreeMap::new();
    let writer = match &spec.out {
        Some(dir) => Some(match resume_from {
            None => {
                let mut m = RunManifest::for_run(
                    scenario_name,
                    master,
                    seeds_global,
                    workers,
                    labels.clone(),
                    spec.grid.quick,
                    &format!("{shard_i}/{shard_k}"),
                    resolved_space,
                );
                m.positions = selected.iter().map(|&i| i as u64).collect();
                m.counts = counts.clone();
                // The verbatim invocation, `graph-seed` included, so a
                // resumed run re-expands exactly this grid.
                m.config = Some(RunConfig {
                    ns: spec.grid.ns.iter().map(|&n| n as u64).collect(),
                    topos: spec.grid.topologies.iter().map(|t| t.spec()).collect(),
                    params: spec.grid.params.clone(),
                    algos: spec.algos.iter().map(|a| a.to_string()).collect(),
                });
                RunWriter::create(dir, &m)?
            }
            Some(stored) => {
                let positions: Vec<u64> = selected.iter().map(|&i| i as u64).collect();
                verify_resumable(
                    stored,
                    &labels,
                    &positions,
                    &counts,
                    &resolved_space,
                    seeds_global,
                    store_hash,
                )?;
                // Keep the stored manifest verbatim (its `workers`, git
                // stamps, …) so the finished store is byte-identical to
                // the uninterrupted run's.
                let (w, entries) = RunWriter::resume(dir, stored)?;
                let journal = dir.join("trials.db");
                for (pi, si, record) in validated_trials(&journal, stored, entries)? {
                    durable.insert((offsets[pi] + si) as usize, record);
                }
                w
            }
        }),
        None => None,
    };
    let missing: Vec<usize> = (0..total).filter(|t| !durable.contains_key(t)).collect();

    let grid_ref = &grid;
    let writer_ref = writer.as_ref();
    let binders_ref = &binders;
    let offsets_ref = &offsets;
    let selected_ref = &selected;
    let trials_done = ale_telemetry::Counter::new("trials_completed");
    let trials_done_ref = &trials_done;
    let task = move |t: usize| -> Result<(usize, TrialRecord), LabError> {
        let t = t as u64;
        // partition_point: first offset beyond t identifies the point.
        let pi = offsets_ref.partition_point(|&o| o <= t) - 1;
        let si = t - offsets_ref[pi];
        // Seed stream = the point's position in the FULL grid.
        let seed = fleet::derive_seed(master, selected_ref[pi] as u64, si);
        // Tag every network this trial builds with the task index, so its
        // round-batch events stay attributable across worker schedules.
        let _trace = telemetry_on.then(|| crate::telemetry::TrialTraceGuard::install(t));
        let start = std::time::Instant::now();
        let mut record = binders_ref[pi](seed)?;
        let wall = start.elapsed().as_secs_f64();
        record.wall_ms = Some(wall * 1e3);
        if wall > 0.0 {
            record.msgs_per_sec = Some(record.messages as f64 / wall);
        }
        // Durable the moment the trial ends: once the journal append
        // returns, a crash cannot lose this record.
        if let Some(w) = writer_ref {
            w.put(
                &TrialKey {
                    scenario: scenario_name.to_string(),
                    space_hash: store_hash,
                    position: selected_ref[pi] as u64,
                    seed_index: si,
                },
                &record,
            )?;
        }
        trials_done_ref.add(1);
        Ok((pi, record))
    };

    let run_start = std::time::Instant::now();
    let progress_fn = move |done: usize, all: usize| {
        // ETA from the throughput counter: completed trials over elapsed
        // wall-clock, assuming the remaining trials cost the same.
        let completed = (trials_done_ref.value() as usize).max(done).min(all);
        let elapsed = run_start.elapsed().as_secs_f64();
        trials_done_ref.sample();
        if completed > 0 && elapsed > 0.0 {
            let rate = completed as f64 / elapsed;
            let eta = (all - completed) as f64 / rate;
            eprintln!("[{scenario_name}] {completed}/{all} trials ({rate:.1}/s, ETA {eta:.0}s)");
        } else {
            eprintln!("[{scenario_name}] {completed}/{all} trials");
        }
    };
    // Only the tasks the journal does not already hold execute; a fresh
    // run has them all missing, a resume typically few.
    let missing_ref = &missing;
    let raw = fleet::run_indexed_with_progress(
        missing_ref.len(),
        workers,
        move |j| task(missing_ref[j]),
        spec.progress
            .then_some(&progress_fn as &(dyn Fn(usize, usize) + Sync)),
    );

    // Merge in task order. Trial/point spans are emitted HERE, not from
    // the workers, so the event sequence is deterministic at any worker
    // count (wall-clock attribute values still vary, sequences do not).
    let mut summary = RunSummary::new(scenario_name, &grid, master, seeds_global, workers);
    let mut records = Vec::with_capacity(total);
    let wall_hist = ale_telemetry::Histogram::new("trial_wall_us");
    // (point index, wall_ms, messages, rounds, trials) of the point
    // currently being merged.
    let mut open_point: Option<(usize, f64, u64, u64, u64)> = None;
    let emit_point = |pi: usize, wall_ms: f64, messages: u64, rounds: u64, trials: u64| {
        let wall_s = wall_ms / 1e3;
        let mut attrs = vec![
            (
                "point".to_string(),
                ale_telemetry::AttrValue::Str(grid_ref[pi].label.clone()),
            ),
            (
                "n".to_string(),
                ale_telemetry::AttrValue::U64(grid_ref[pi].n as u64),
            ),
            ("trials".to_string(), ale_telemetry::AttrValue::U64(trials)),
            (
                "messages".to_string(),
                ale_telemetry::AttrValue::U64(messages),
            ),
            ("rounds".to_string(), ale_telemetry::AttrValue::U64(rounds)),
        ];
        if wall_s > 0.0 {
            attrs.push((
                "msgs_per_sec".to_string(),
                ale_telemetry::AttrValue::F64(messages as f64 / wall_s),
            ));
            attrs.push((
                "rounds_per_sec".to_string(),
                ale_telemetry::AttrValue::F64(rounds as f64 / wall_s),
            ));
        }
        ale_telemetry::emit_span("point", (wall_ms * 1e3) as u64, attrs);
    };
    // Merge durable (journal-recovered) and fresh (fleet) results back
    // into the dense task order: `missing` is ascending and the fleet
    // returns results in task-submission order, so pulling the next
    // fresh result exactly when a task is not durable reproduces the
    // uninterrupted run's record sequence.
    let mut fresh = raw.into_iter();
    for t in 0..total {
        let record = match durable.remove(&t) {
            Some(r) => r,
            None => {
                let (_, r) = fresh
                    .next()
                    .expect("fleet returned fewer results than missing tasks")?;
                r
            }
        };
        let pi = offsets.partition_point(|&o| o <= t as u64) - 1;
        if ale_telemetry::enabled() {
            let wall_ms = record.wall_ms.unwrap_or(0.0);
            wall_hist.record((wall_ms * 1e3) as u64);
            let mut attrs = vec![
                (
                    "point".to_string(),
                    ale_telemetry::AttrValue::Str(record.point.clone()),
                ),
                (
                    "seed".to_string(),
                    ale_telemetry::AttrValue::U64(record.seed),
                ),
                ("n".to_string(), ale_telemetry::AttrValue::U64(record.n)),
                (
                    "rounds".to_string(),
                    ale_telemetry::AttrValue::U64(record.rounds),
                ),
                (
                    "congest_rounds".to_string(),
                    ale_telemetry::AttrValue::U64(record.congest_rounds),
                ),
                (
                    "messages".to_string(),
                    ale_telemetry::AttrValue::U64(record.messages),
                ),
                (
                    "bits".to_string(),
                    ale_telemetry::AttrValue::U64(record.bits),
                ),
                ("ok".to_string(), ale_telemetry::AttrValue::Bool(record.ok)),
            ];
            if let Some(mps) = record.msgs_per_sec {
                attrs.push((
                    "msgs_per_sec".to_string(),
                    ale_telemetry::AttrValue::F64(mps),
                ));
            }
            ale_telemetry::emit_span("trial", (wall_ms * 1e3) as u64, attrs);
            open_point = match open_point.take() {
                Some((open_pi, wall, msgs, rounds, trials)) if open_pi == pi => Some((
                    pi,
                    wall + wall_ms,
                    msgs + record.messages,
                    rounds + record.rounds,
                    trials + 1,
                )),
                Some((open_pi, wall, msgs, rounds, trials)) => {
                    emit_point(open_pi, wall, msgs, rounds, trials);
                    Some((pi, wall_ms, record.messages, record.rounds, 1))
                }
                None => Some((pi, wall_ms, record.messages, record.rounds, 1)),
            };
        }
        summary.record(pi, &record);
        records.push(record);
    }
    if let Some((pi, wall, msgs, rounds, trials)) = open_point.take() {
        emit_point(pi, wall, msgs, rounds, trials);
    }
    wall_hist.sample(Vec::new());
    trials_done.sample();

    let report = scenario.summarize(&summary);

    if let Some(w) = writer {
        w.finish(&records, &summary)?;
    }

    // End the sweep span, then tear the sink down (flushing the file)
    // before the side-channel copy below reads it.
    sweep.set_attr("trials", records.len());
    sweep.end();
    drop(telemetry_guard);
    if let (Some(src), Some(dir)) = (&spec.telemetry, &spec.out) {
        let dst = dir.join("telemetry.jsonl");
        if src != &dst {
            std::fs::copy(src, &dst)
                .map_err(|e| LabError::Io(format!("copy telemetry to {}: {e}", dst.display())))?;
        }
    }

    Ok(RunOutput {
        records,
        summary,
        report,
    })
}

/// Checks that a re-expanded sweep matches the manifest it resumes:
/// already-durable records keyed under the stored identity must mean the
/// same trials today, or completing the run would silently mix sweeps.
fn verify_resumable(
    stored: &RunManifest,
    labels: &[String],
    positions: &[u64],
    counts: &[u64],
    resolved_space: &[String],
    seeds_global: u64,
    hash: u64,
) -> Result<(), LabError> {
    let drift = |what: &str| {
        LabError::BadArgs(format!(
            "--resume: the re-expanded parameter space does not match the stored manifest \
             ({what} changed) — the scenario or its overrides drifted since the run started, \
             so its records cannot be completed; start a fresh run"
        ))
    };
    if stored.space != resolved_space {
        return Err(drift("resolved space"));
    }
    if stored.seeds != seeds_global {
        return Err(drift("seed count"));
    }
    if stored.space_hash != hash {
        return Err(drift("space hash"));
    }
    if stored.grid != labels {
        return Err(drift("grid labels"));
    }
    if stored.positions != positions {
        return Err(drift("grid positions"));
    }
    if stored.counts != counts {
        return Err(drift("per-point trial counts"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Axis, Block, ParamSpace};
    use crate::scenario::{GridPoint, TrialFn};
    use ale_graph::Topology;

    /// A synthetic scenario: messages = f(seed) on two points.
    struct Synthetic;

    impl Scenario for Synthetic {
        fn name(&self) -> &'static str {
            "synthetic"
        }
        fn description(&self) -> &'static str {
            "test scenario"
        }
        fn default_seeds(&self, _quick: bool) -> u64 {
            5
        }
        fn space(&self) -> ParamSpace {
            ParamSpace::new(vec![
                Block::new("p0", vec![], |_| {
                    Ok(Some(GridPoint::new("p0").on(Topology::Cycle { n: 8 })))
                }),
                Block::new("p1", vec![], |_| {
                    Ok(Some(
                        GridPoint::new("p1")
                            .on(Topology::Complete { n: 4 })
                            .seeds(3),
                    ))
                }),
            ])
        }
        fn bind(&self, point: &GridPoint, _: &GraphContexts) -> Result<TrialFn, LabError> {
            let point = point.clone();
            Ok(Box::new(move |seed| {
                let mut r = TrialRecord::new("synthetic", &point, seed);
                r.messages = seed % 1000;
                r.ok = true;
                Ok(r)
            }))
        }
    }

    #[test]
    fn executes_and_respects_per_point_seed_overrides() {
        let out = execute(&Synthetic, &RunSpec::default()).unwrap();
        // p0: 5 global seeds; p1: 3 overridden.
        assert_eq!(out.records.len(), 8);
        assert_eq!(out.summary.points[0].trials, 5);
        assert_eq!(out.summary.points[1].trials, 3);
        assert!(out.report.contains("synthetic"));
        // Records are (point, seed-index) ordered.
        assert!(out.records[..5].iter().all(|r| r.point == "p0"));
        assert!(out.records[5..].iter().all(|r| r.point == "p1"));
    }

    #[test]
    fn deterministic_across_worker_counts_and_reruns() {
        let base = execute(
            &Synthetic,
            &RunSpec {
                workers: 1,
                ..RunSpec::default()
            },
        )
        .unwrap();
        for workers in [2, 8] {
            let other = execute(
                &Synthetic,
                &RunSpec {
                    workers,
                    ..RunSpec::default()
                },
            )
            .unwrap();
            assert_eq!(base.records, other.records, "workers = {workers}");
        }
        let rerun = execute(
            &Synthetic,
            &RunSpec {
                workers: 1,
                ..RunSpec::default()
            },
        )
        .unwrap();
        assert_eq!(base.records, rerun.records);
        let reseeded = execute(
            &Synthetic,
            &RunSpec {
                master_seed: 2,
                ..RunSpec::default()
            },
        )
        .unwrap();
        assert_ne!(base.records, reseeded.records);
    }

    /// A scenario with an algorithm axis, for filter/shard tests.
    struct AlgoGrid;

    impl Scenario for AlgoGrid {
        fn name(&self) -> &'static str {
            "algo-grid"
        }
        fn description(&self) -> &'static str {
            "test scenario with algorithms"
        }
        fn default_seeds(&self, _quick: bool) -> u64 {
            4
        }
        fn space(&self) -> ParamSpace {
            ParamSpace::new(vec![Block::new(
                "grid",
                vec![Axis::algorithms("algo", crate::runners::Algorithm::ALL)],
                |ctx| {
                    let a = ctx.algorithm("algo")?;
                    Ok(Some(
                        GridPoint::new(format!("p/{a}"))
                            .on(Topology::Cycle { n: 8 })
                            .algo(a),
                    ))
                },
            )])
        }
        fn bind(&self, point: &GridPoint, _: &GraphContexts) -> Result<TrialFn, LabError> {
            let point = point.clone();
            Ok(Box::new(move |seed| {
                let mut r = TrialRecord::new("algo-grid", &point, seed);
                r.ok = true;
                Ok(r)
            }))
        }
    }

    #[test]
    fn algo_filter_preserves_full_run_seeds() {
        use crate::runners::Algorithm;
        let full = execute(&AlgoGrid, &RunSpec::default()).unwrap();
        let filtered = execute(
            &AlgoGrid,
            &RunSpec {
                algos: vec![Algorithm::Kutten],
                ..RunSpec::default()
            },
        )
        .unwrap();
        assert_eq!(filtered.records.len(), 4);
        let full_kutten: Vec<_> = full
            .records
            .iter()
            .filter(|r| r.algorithm == "kutten15")
            .cloned()
            .collect();
        // Same seeds (and everything else) as the full run's kutten rows.
        assert_eq!(filtered.records, full_kutten);
    }

    #[test]
    fn algo_filter_with_no_matches_errors() {
        use crate::runners::Algorithm;
        let err = execute(
            &Synthetic,
            &RunSpec {
                algos: vec![Algorithm::Kutten],
                ..RunSpec::default()
            },
        );
        assert!(matches!(err, Err(LabError::BadArgs(_))));
    }

    #[test]
    fn shards_union_to_the_full_run() {
        let full = execute(&AlgoGrid, &RunSpec::default()).unwrap();
        let mut unioned: Vec<TrialRecord> = Vec::new();
        for i in 0..3u64 {
            let shard = execute(
                &AlgoGrid,
                &RunSpec {
                    shard: (i, 3),
                    ..RunSpec::default()
                },
            )
            .unwrap();
            unioned.extend(shard.records);
        }
        // Same multiset of trials; order differs (interleaved points).
        let key = |r: &TrialRecord| (r.point.clone(), r.seed);
        let mut a: Vec<_> = full.records.iter().map(key).collect();
        let mut b: Vec<_> = unioned.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // And the records themselves are bit-identical per (point, seed).
        let by_key: std::collections::HashMap<_, _> =
            unioned.iter().map(|r| (key(r), r.clone())).collect();
        for r in &full.records {
            assert_eq!(&by_key[&key(r)], r);
        }
    }

    #[test]
    fn bad_shards_are_rejected() {
        for shard in [(1, 1), (3, 3), (0, 0)] {
            let err = execute(
                &AlgoGrid,
                &RunSpec {
                    shard,
                    ..RunSpec::default()
                },
            );
            assert!(matches!(err, Err(LabError::BadArgs(_))), "shard {shard:?}");
        }
        // A shard index beyond the grid size selects nothing.
        let err = execute(
            &Synthetic,
            &RunSpec {
                shard: (2, 3),
                ..RunSpec::default()
            },
        );
        assert!(matches!(err, Err(LabError::BadArgs(_))));
    }

    #[test]
    fn zero_seeds_is_rejected() {
        let err = execute(
            &Synthetic,
            &RunSpec {
                seeds: Some(0),
                ..RunSpec::default()
            },
        );
        assert!(matches!(err, Err(LabError::BadArgs(_))));
    }

    fn graph_seed_spec(values: &[&str]) -> RunSpec {
        RunSpec {
            grid: GridConfig {
                params: vec![(
                    "graph-seed".into(),
                    values.iter().map(|v| v.to_string()).collect(),
                )],
                ..GridConfig::default()
            },
            ..RunSpec::default()
        }
    }

    #[test]
    fn graph_seed_param_multiplies_the_grid_point_major() {
        let out = execute(&Synthetic, &graph_seed_spec(&["7", "9"])).unwrap();
        let labels: Vec<&str> = out
            .summary
            .points
            .iter()
            .map(|p| p.label.as_str())
            .collect();
        assert_eq!(labels, ["p0/gs=7", "p0/gs=9", "p1/gs=7", "p1/gs=9"]);
        // Per-point seed overrides survive the multiplication.
        let trials: Vec<u64> = out.summary.points.iter().map(|p| p.trials).collect();
        assert_eq!(trials, [5, 5, 3, 3]);
        // Every variant carries the seed as a knob, so reports can split
        // on it.
        for p in &out.summary.points {
            let gs = p.params.iter().find(|(k, _)| k == "graph-seed").unwrap().1;
            assert!(p.label.ends_with(&format!("/gs={gs}")));
        }
        // Absent axis: the default expansion is untouched.
        let base = execute(&Synthetic, &RunSpec::default()).unwrap();
        let base_labels: Vec<&str> = base
            .summary
            .points
            .iter()
            .map(|p| p.label.as_str())
            .collect();
        assert_eq!(base_labels, ["p0", "p1"]);
    }

    #[test]
    fn graph_seed_value_reaches_the_point_view() {
        let mut point = GridPoint::new("x");
        assert_eq!(point.view().graph_seed(3), 3, "absent axis → default");
        point
            .values
            .push(("graph-seed", crate::params::AxisValue::Int(9)));
        assert_eq!(point.view().graph_seed(3), 9);
    }

    #[test]
    fn graph_seed_param_is_validated() {
        for values in [
            &["x"][..],      // not an integer
            &["-1"][..],     // not unsigned
            &["2", "2"][..], // the same seed twice
            &[][..],         // empty value list
        ] {
            let err = execute(&Synthetic, &graph_seed_spec(values));
            assert!(matches!(err, Err(LabError::BadArgs(_))), "{values:?}");
        }
        // Repeated key.
        let mut spec = graph_seed_spec(&["2"]);
        spec.grid
            .params
            .push(("graph-seed".into(), vec!["3".into()]));
        assert!(matches!(
            execute(&Synthetic, &spec),
            Err(LabError::BadArgs(_))
        ));
    }

    #[test]
    fn graph_seed_is_recorded_in_space_and_replayable_config() {
        let dir = std::env::temp_dir().join(format!("ale-lab-engine-gs-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut spec = graph_seed_spec(&["7", "9"]);
        spec.out = Some(dir.clone());
        execute(&Synthetic, &spec).unwrap();
        let manifest = crate::store::load_manifest(&dir.join("manifest.json")).unwrap();
        // The resolved space names the axis (so it feeds the sweep's
        // space_hash), and the replayable config keeps it so `resume`
        // re-multiplies the grid identically.
        assert!(manifest.space.iter().any(|l| l == "graph-seed=7,9"));
        assert_eq!(manifest.grid.len(), 4);
        let config = manifest.config.expect("config stored");
        assert!(config
            .params
            .iter()
            .any(|(k, v)| k == "graph-seed" && v == &["7".to_string(), "9".to_string()]));
        // A sweep with a different graph-seed list is a different sweep.
        let hash_a = manifest.space_hash;
        std::fs::remove_dir_all(&dir).ok();
        let mut spec_b = graph_seed_spec(&["7"]);
        spec_b.out = Some(dir.clone());
        execute(&Synthetic, &spec_b).unwrap();
        let manifest_b = crate::store::load_manifest(&dir.join("manifest.json")).unwrap();
        assert_ne!(hash_a, manifest_b.space_hash);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_runs_stream_to_a_complete_store() {
        let dir =
            std::env::temp_dir().join(format!("ale-lab-engine-stream-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let out = execute(
            &Synthetic,
            &RunSpec {
                out: Some(dir.clone()),
                ..RunSpec::default()
            },
        )
        .unwrap();
        let loaded = crate::store::load_jsonl(&dir.join("trials.jsonl")).unwrap();
        assert_eq!(loaded, out.records);
        let manifest = crate::store::load_manifest(&dir.join("manifest.json")).unwrap();
        assert_eq!(manifest.scenario, "synthetic");
        assert!(dir.join("trials.csv").exists());
        assert!(dir.join("summary.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
