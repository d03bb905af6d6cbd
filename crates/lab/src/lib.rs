//! Experiment harness reproducing every table and quantitative claim of
//! *Near-Optimal Leader Election in Population Protocols on Graphs*
//! (PODC 2022).
//!
//! Each experiment in [`experiments`] regenerates one display item or
//! theorem-level claim of the paper (PROTOCOLS.md maps each claim to
//! its code and its experiment):
//!
//! | id | paper item | module |
//! |----|-----------|--------|
//! | `table1` | Table 1 complexity landscape | [`experiments::table1`] |
//! | `broadcast` | Theorem 6 + Lemma 12 + Theorem 15 | [`experiments::broadcast`] |
//! | `propagation` | Lemmas 13–14 | [`experiments::propagation`] |
//! | `walks` | Lemma 17/19, Proposition 20 | [`experiments::walks`] |
//! | `clocks` | Lemmas 26–29 | [`experiments::clocks`] |
//! | `renitent` | Lemmas 37–38, Theorem 39 | [`experiments::renitent`] |
//! | `dense` | Theorem 40/46, Lemmas 41–44, Section 7 | [`experiments::dense`] |
//! | `lowerbound` | Theorem 34 mechanism, Lemmas 35–36 | [`experiments::lowerbound`] |
//! | `conductance` | Corollary 25 on regular graphs | [`experiments::conductance`] |
//! | `ablation` | design-choice sweeps (h, L, α, k) | [`experiments::ablation`] |
//! | `majority` | Section 8 extension: exact majority | [`experiments::majority`] |
//! | `faults` | recovery under corruption/churn/rewiring (beyond the paper's model) | [`experiments::faults`] |
//! | `stabilize` | loose stabilization: elect-vs-hold tradeoff, re-election under bursts | [`experiments::stabilize`] |
//! | `pareto` | states-vs-time frontier across all protocol families (ROADMAP item 4) | [`experiments::pareto`] |
//!
//! Run everything with the CLI:
//!
//! ```text
//! cargo run --release -p popele-lab -- all --quick
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod sweep;
pub mod workloads;

use std::fmt;

/// Global experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Quick mode shrinks sizes and trial counts (~seconds per
    /// experiment); full mode runs the full sizes and trial counts
    /// (~minutes).
    pub quick: bool,
    /// Master seed; all randomness derives deterministically from it.
    pub master_seed: u64,
    /// Worker threads; `0` = one per core.
    pub threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            quick: true,
            master_seed: 0xC0FFEE,
            threads: 0,
        }
    }
}

impl RunConfig {
    /// Picks the quick or full variant of a parameter.
    #[must_use]
    pub fn pick<'a, T: ?Sized>(&self, quick: &'a T, full: &'a T) -> &'a T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Trials helper: quick runs use `quick`, full runs `full`.
    #[must_use]
    pub fn trials(&self, quick: usize, full: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// Identifiers of the runnable experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// Table 1: protocol × family stabilization landscape.
    Table1,
    /// Theorem 6 / Lemma 12 / Theorem 15 broadcast-time bounds.
    Broadcast,
    /// Lemmas 13–14 propagation-time lower bounds.
    Propagation,
    /// Hitting/meeting times and Proposition 20.
    Walks,
    /// Streak-clock statistics (Lemmas 26–29).
    Clocks,
    /// Renitent-graph lower bounds (Section 6).
    Renitent,
    /// Dense-random-graph results (Section 7).
    Dense,
    /// Theorem 34 indistinguishability demonstration (Lemmas 35–36).
    LowerBound,
    /// Corollary 25: conductance dependence on regular graphs.
    Conductance,
    /// Parameter ablations for the fast and identifier protocols.
    Ablation,
    /// Exact-majority extension (Section 8).
    Majority,
    /// Recovery under fault injection (corruption, churn, rewiring).
    Faults,
    /// Loose stabilization: the elect-vs-hold tradeoff from arbitrary
    /// starts, and re-election times under corrupt bursts.
    Stabilize,
    /// States-vs-time Pareto frontier across every protocol family on
    /// its home graph (ROADMAP item 4).
    Pareto,
}

impl ExperimentId {
    /// All experiments, in recommended execution order. This array is
    /// the experiment registry: CLI parsing and the `--help` listing
    /// derive from it, so a new experiment registered here shows up in
    /// both automatically.
    pub const ALL: [ExperimentId; 14] = [
        ExperimentId::Clocks,
        ExperimentId::Broadcast,
        ExperimentId::Propagation,
        ExperimentId::Walks,
        ExperimentId::Renitent,
        ExperimentId::Dense,
        ExperimentId::LowerBound,
        ExperimentId::Conductance,
        ExperimentId::Ablation,
        ExperimentId::Majority,
        ExperimentId::Faults,
        ExperimentId::Stabilize,
        ExperimentId::Pareto,
        ExperimentId::Table1,
    ];

    /// Parses a CLI name (derived from the registry — any
    /// [`Self::name`] round-trips).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|e| e.name() == name)
    }

    /// The CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Table1 => "table1",
            Self::Broadcast => "broadcast",
            Self::Propagation => "propagation",
            Self::Walks => "walks",
            Self::Clocks => "clocks",
            Self::Renitent => "renitent",
            Self::Dense => "dense",
            Self::LowerBound => "lowerbound",
            Self::Conductance => "conductance",
            Self::Ablation => "ablation",
            Self::Majority => "majority",
            Self::Faults => "faults",
            Self::Stabilize => "stabilize",
            Self::Pareto => "pareto",
        }
    }

    /// Runs the experiment, returning its report tables.
    #[must_use]
    pub fn run(self, cfg: &RunConfig) -> Vec<report::Table> {
        match self {
            Self::Table1 => experiments::table1::run(cfg),
            Self::Broadcast => experiments::broadcast::run(cfg),
            Self::Propagation => experiments::propagation::run(cfg),
            Self::Walks => experiments::walks::run(cfg),
            Self::Clocks => experiments::clocks::run(cfg),
            Self::Renitent => experiments::renitent::run(cfg),
            Self::Dense => experiments::dense::run(cfg),
            Self::LowerBound => experiments::lowerbound::run(cfg),
            Self::Conductance => experiments::conductance::run(cfg),
            Self::Ablation => experiments::ablation::run(cfg),
            Self::Majority => experiments::majority::run(cfg),
            Self::Faults => experiments::faults::run(cfg),
            Self::Stabilize => experiments::stabilize::run(cfg),
            Self::Pareto => experiments::pareto::run(cfg),
        }
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_roundtrip() {
        for id in ExperimentId::ALL {
            assert_eq!(ExperimentId::parse(id.name()), Some(id));
        }
        assert_eq!(ExperimentId::parse("nope"), None);
    }

    #[test]
    fn config_pick_and_trials() {
        let quick = RunConfig::default();
        assert_eq!(*quick.pick(&1, &2), 1);
        assert_eq!(quick.trials(3, 9), 3);
        let full = RunConfig {
            quick: false,
            ..RunConfig::default()
        };
        assert_eq!(*full.pick(&1, &2), 2);
        assert_eq!(full.trials(3, 9), 9);
    }
}
