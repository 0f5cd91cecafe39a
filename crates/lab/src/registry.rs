//! The scenario registry: name → spec resolution for the CLI and tests.

use crate::scenario::Scenario;
use crate::scenarios;

/// Every built-in scenario, in presentation order.
pub fn all() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(scenarios::Table1::default()),
        Box::new(scenarios::Scaling::default()),
        Box::new(scenarios::Revocable),
        Box::new(scenarios::Impossibility),
        Box::new(scenarios::Cautious::default()),
        Box::new(scenarios::Walks::default()),
        Box::new(scenarios::Diffusion),
        Box::new(scenarios::Thresholds),
        Box::new(scenarios::Certification),
        Box::new(scenarios::Phases),
        Box::new(scenarios::AblationCautious::default()),
    ]
}

/// Looks a scenario up by its registry name.
pub fn find(name: &str) -> Option<Box<dyn Scenario>> {
    all().into_iter().find(|s| s.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GridConfig;

    #[test]
    fn registry_covers_all_legacy_experiments() {
        let names: Vec<&str> = all().iter().map(|s| s.name()).collect();
        for expected in [
            "table1",
            "scaling",
            "revocable",
            "impossibility",
            "cautious",
            "walks",
            "diffusion",
            "thresholds",
            "certification",
            "phases",
            "ablation-cautious",
        ] {
            assert!(names.contains(&expected), "missing scenario {expected}");
        }
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn names_are_unique_and_lookups_work() {
        let mut names: Vec<&str> = all().iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all().len());
        assert!(find("table1").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn every_scenario_expands_a_nonempty_quick_grid() {
        let cfg = GridConfig {
            quick: true,
            ..GridConfig::default()
        };
        for s in all() {
            let grid = s.grid(&cfg).unwrap_or_else(|e| {
                panic!("{}: grid failed: {e}", s.name());
            });
            assert!(!grid.is_empty(), "{}: empty quick grid", s.name());
            assert!(s.default_seeds(true) >= 1);
            assert!(!s.description().is_empty());
            // Labels are unique within the scenario (result-store keys).
            let mut labels: Vec<&str> = grid.iter().map(|p| p.label.as_str()).collect();
            labels.sort_unstable();
            let before = labels.len();
            labels.dedup();
            assert_eq!(before, labels.len(), "{}: duplicate labels", s.name());
        }
    }
}
