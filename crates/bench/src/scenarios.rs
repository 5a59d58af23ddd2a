//! The scenario registry: every experiment in this crate, enumerable and
//! runnable by name.
//!
//! Each figure module defines its experiments as `(spec, body)` pairs —
//! a [`ScenarioSpec`] declaring the sweep axes, device configs, trial
//! count and seed, plus a plain function interpreting that spec into
//! tables. [`FigScenario`] packages such a pair behind the
//! [`Scenario`] trait, and [`registry`] collects all of them so the CLI
//! `scenarios` and `run` commands, the benchmark and the smoke tests
//! resolve experiments uniformly instead of wiring sweeps by hand.

use mmtag_sim::experiment::Table;
use mmtag_sim::scenario::{Registry, RunContext, RunRecord, Runner, Scenario, ScenarioSpec};

/// The body of a figure experiment: a pure function from the run context
/// (spec + seed tree + thread budget) to result tables.
pub type FigBody = fn(&RunContext) -> Vec<Table>;

/// A registry-ready experiment: a typed spec paired with the function
/// that interprets it. All 31 experiments in this crate are instances.
pub struct FigScenario {
    spec: ScenarioSpec,
    body: FigBody,
}

impl FigScenario {
    /// Pairs a spec with its body.
    pub fn new(spec: ScenarioSpec, body: FigBody) -> Self {
        FigScenario { spec, body }
    }

    /// Runs the scenario through a default [`Runner`] and returns the
    /// full structured record.
    pub fn record(&self) -> RunRecord {
        Runner::new().run(self)
    }

    /// Runs the scenario and returns its first table, the shape the
    /// figure tests assert on.
    pub fn table(&self) -> Table {
        self.record().into_table()
    }
}

impl Scenario for FigScenario {
    fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    fn run(&self, ctx: &RunContext) -> Vec<Table> {
        (self.body)(ctx)
    }

    fn with_spec(&self, spec: ScenarioSpec) -> Box<dyn Scenario> {
        Box::new(FigScenario {
            spec,
            body: self.body,
        })
    }
}

/// Builds the full registry: every experiment E1–E31 under its canonical
/// name, with the exact default parameters the paper figures publish.
pub fn registry() -> Registry {
    let mut reg = Registry::new();
    let mut add = |spec: ScenarioSpec, body: FigBody| {
        reg.register(Box::new(FigScenario::new(spec, body)));
    };

    add(
        crate::eval::e1_spec(crate::eval::E1_POINTS),
        crate::eval::e1_body,
    );
    add(crate::eval::e2_spec(), crate::eval::e2_body);
    add(crate::antenna_figs::e3_spec(), crate::antenna_figs::e3_body);
    add(
        crate::system_tables::e4_spec(),
        crate::system_tables::e4_body,
    );
    add(
        crate::phy_figs::e5_spec(200_000, 2024),
        crate::phy_figs::e5_body,
    );
    add(crate::antenna_figs::e6_spec(), crate::antenna_figs::e6_body);
    add(
        crate::network_figs::e7_spec(11),
        crate::network_figs::e7_body,
    );
    add(crate::network_figs::e8_spec(), crate::network_figs::e8_body);
    add(
        crate::system_tables::e9_spec(),
        crate::system_tables::e9_body,
    );
    add(
        crate::system_tables::e10_spec(),
        crate::system_tables::e10_body,
    );
    add(
        crate::system_tables::e11_spec(),
        crate::system_tables::e11_body,
    );
    add(
        crate::network_figs::e12_spec(),
        crate::network_figs::e12_body,
    );
    add(crate::extensions::e13_spec(7), crate::extensions::e13_body);
    add(crate::extensions::e14_spec(), crate::extensions::e14_body);
    add(
        crate::extensions::e15_spec(200_000, 3),
        crate::extensions::e15_body,
    );
    add(
        crate::extensions::e16_spec(200_000, 5),
        crate::extensions::e16_body,
    );
    add(crate::extensions::e17_spec(), crate::extensions::e17_body);
    add(crate::extensions::e18_spec(), crate::extensions::e18_body);
    add(crate::extensions::e19_spec(), crate::extensions::e19_body);
    add(crate::extensions::e20_spec(3), crate::extensions::e20_body);
    add(
        crate::extensions::e21_spec(1000, 4),
        crate::extensions::e21_body,
    );
    add(crate::extensions::e22_spec(7), crate::extensions::e22_body);
    add(crate::advanced::e23_spec(), crate::advanced::e23_body);
    add(crate::advanced::e24_spec(33), crate::advanced::e24_body);
    add(crate::advanced::e25_spec(), crate::advanced::e25_body);
    add(
        crate::advanced::e26_spec(100_000, 7),
        crate::advanced::e26_body,
    );
    add(crate::city_figs::e27_spec(7), crate::city_figs::e27_body);
    add(crate::city_figs::e28_spec(7), crate::city_figs::e28_body);
    add(crate::rate_figs::e29_spec(7), crate::rate_figs::e29_body);
    add(crate::rate_figs::e30_spec(7), crate::rate_figs::e30_body);
    add(crate::rate_figs::e31_spec(7), crate::rate_figs::e31_body);

    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_31_experiments_in_order() {
        let reg = registry();
        assert_eq!(reg.len(), 31);
        let names = reg.names();
        assert_eq!(names[0], "e01-s11");
        assert_eq!(names[1], "e02-link-budget");
        assert_eq!(names[25], "e26-cancellation");
        assert_eq!(names[26], "e27-city-density");
        assert_eq!(names[27], "e28-city-mobility");
        assert_eq!(names[28], "e29-rate-region");
        assert_eq!(names[29], "e30-rate-vs-tags");
        assert_eq!(names[30], "e31-rate-vs-states");
        // Every name carries its E-number prefix, zero-padded, kebab-case.
        for (i, name) in names.iter().enumerate() {
            assert!(
                name.starts_with(&format!("e{:02}-", i + 1)),
                "name '{name}' out of order at slot {i}"
            );
        }
    }

    #[test]
    fn registry_runs_match_the_public_wrappers() {
        let reg = registry();
        let via_registry = reg
            .run("e02-link-budget", &Runner::new())
            .unwrap()
            .into_table();
        let via_wrapper = FigScenario::new(crate::eval::e2_spec(), crate::eval::e2_body).table();
        assert_eq!(via_registry.render(), via_wrapper.render());
    }
}
