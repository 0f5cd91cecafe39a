//! Grid-compatibility pin: the declarative parameter-space expansion must
//! reproduce the pre-redesign imperative grids **byte for byte** — same
//! points, same order — for every registered scenario, in both the default
//! and `--quick` configurations. Order is load-bearing: trial seeds derive
//! from a point's position in the full grid, so any reordering silently
//! changes every record of every stored run.
//!
//! The golden file was generated from the last pre-redesign `grid()`
//! implementations (PR 4) and is intentionally checked in verbatim.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p ale-lab --test
//! param_space` only when a grid change is *deliberate*.

use ale_lab::registry;
use ale_lab::scenario::GridConfig;

const GOLDEN: &str = include_str!("golden/grids.txt");

fn render_grids() -> String {
    let mut out = String::new();
    for quick in [false, true] {
        let cfg = GridConfig {
            quick,
            ..GridConfig::default()
        };
        for s in registry::all() {
            let grid = s
                .grid(&cfg)
                .unwrap_or_else(|e| panic!("{} (quick={quick}): {e}", s.name()));
            for p in &grid {
                let algo = p
                    .algorithm
                    .map_or_else(|| "-".to_string(), |a| a.to_string());
                let seeds = p.seeds.map_or_else(|| "-".to_string(), |v| v.to_string());
                out.push_str(&format!(
                    "{}|{}|{}|{}|{}|{}|{}|{}\n",
                    s.name(),
                    if quick { "quick" } else { "full" },
                    p.label,
                    p.family(),
                    algo,
                    p.knowledge,
                    p.n,
                    seeds,
                ));
            }
        }
    }
    out
}

#[test]
fn default_spaces_reproduce_the_pre_redesign_grids() {
    let rendered = render_grids();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/grids.txt");
        std::fs::write(path, &rendered).expect("write golden");
        return;
    }
    assert_eq!(
        rendered, GOLDEN,
        "parameter-space expansion diverged from the pre-redesign grids \
         (set UPDATE_GOLDEN=1 to regenerate if the change is deliberate)"
    );
}

#[test]
fn every_space_declares_consistent_axes_and_describes_itself() {
    for s in registry::all() {
        let space = s.space();
        let kinds = space
            .axis_kinds()
            .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
        assert!(!kinds.is_empty(), "{}: no axes declared", s.name());
        let text = space.describe();
        for name in kinds.keys() {
            assert!(
                text.contains(&format!("--param {name}=")),
                "{}: describe misses axis '{name}'",
                s.name()
            );
        }
        // Every declared range shows in both renderings.
        let json = space.to_json().render();
        let axes = space
            .shared
            .iter()
            .chain(space.blocks.iter().flat_map(|b| &b.axes));
        for axis in axes {
            if let Some(range) = axis.range {
                let at = format!("{}: axis '{}'", s.name(), axis.name);
                assert!(
                    text.contains(&format!("range: {} {range}", axis.name)),
                    "{at}"
                );
                assert!(json.contains(&format!(r#""range":"{range}""#)), "{at}");
            }
        }
    }
}

/// A `--param`-overridden sweep shards and merges exactly like a
/// hard-coded one: the union of `--shard 0/2` and `--shard 1/2` run
/// directories is byte-identical to the unsharded run, and every shard
/// manifest records the same resolved space.
#[test]
fn param_overridden_grid_shards_and_merges_byte_identically() {
    use ale_lab::engine::{execute, RunSpec};
    use ale_lab::store;

    let base = std::env::temp_dir().join(format!("ale-lab-param-shard-{}", std::process::id()));
    let scenario = registry::find("diffusion").expect("registered");
    let grid = || GridConfig {
        quick: true,
        params: vec![("gamma".into(), vec!["0.15".into(), "0.05".into()])],
        ..GridConfig::default()
    };
    let run = |shard: (u64, u64), dir: &std::path::Path| {
        execute(
            scenario.as_ref(),
            &RunSpec {
                shard,
                grid: grid(),
                workers: 1,
                out: Some(dir.to_path_buf()),
                ..RunSpec::default()
            },
        )
        .expect("run")
    };
    let full_dir = base.join("full");
    let full = run((0, 1), &full_dir);
    // The overridden gammas exist in no scenario's hard-coded grid.
    assert!(full.records.iter().any(|r| r.point.ends_with("gamma=0.15")));
    assert_eq!(full.records.len(), 5 * 2);

    let shard_dirs = [base.join("s0"), base.join("s1")];
    for (i, dir) in shard_dirs.iter().enumerate() {
        run((i as u64, 2), dir);
        let m = store::load_manifest(&dir.join("manifest.json")).expect("manifest");
        assert_eq!(m.shard, format!("{i}/2"));
        assert!(
            m.space.contains(&"gamma=0.15,0.05".to_string()),
            "shard manifest must record the resolved space, got {:?}",
            m.space
        );
    }

    let merged = base.join("merged");
    let report = ale_lab::merge::merge_dirs(
        &[shard_dirs[0].clone(), shard_dirs[1].clone()],
        Some(&merged),
    )
    .expect("merge");
    assert!(report.contains("complete sweep"), "{report}");
    for f in ["trials.jsonl", "trials.csv", "summary.csv"] {
        assert_eq!(
            std::fs::read_to_string(full_dir.join(f)).unwrap(),
            std::fs::read_to_string(merged.join(f)).unwrap(),
            "{f} diverged"
        );
    }

    // A shard of a *different* resolved space refuses to merge.
    let other = base.join("other");
    execute(
        scenario.as_ref(),
        &RunSpec {
            shard: (1, 2),
            grid: GridConfig {
                quick: true,
                params: vec![("gamma".into(), vec!["0.5".into()])],
                ..GridConfig::default()
            },
            workers: 1,
            out: Some(other.clone()),
            ..RunSpec::default()
        },
    )
    .expect("run");
    let err = ale_lab::merge::merge_dirs(&[shard_dirs[0].clone(), other], None).unwrap_err();
    assert!(
        err.to_string().contains("resolved parameter space"),
        "space mismatch must be detected, got: {err}"
    );

    std::fs::remove_dir_all(&base).ok();
}
