//! The benchmark's three campaign workloads, as generated `SweepSpec`s.
//!
//! A workload is a function of the seed alone: the seed becomes the
//! campaign's master seed, so every graph, cell and trial seed derives
//! from it, and the program under test receives nothing but the spec
//! and the campaign options built here.
//!
//! Every campaign runs on one thread with one shard worker. On a
//! two-vCPU box any other process takes a core from a two-thread
//! campaign: a two-thread agent-grid's wall time moved by 43 % across
//! ten seeds while its CPU time moved by 6 %. Trial fan-out and the
//! worker pool are measured in the traced mode instead
//! (`monte_carlo.fanout_efficiency`, `runner.pool_speedup`).

use popele_lab::sweep::{CampaignOptions, FaultSpec, ProtocolSpec, SweepSpec};
use popele_lab::workloads::Family;
use std::path::Path;

/// Clique size of the count-clique workload.
pub const COUNT_CLIQUE_N: u32 = 10_000_000;

/// One named campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The per-agent hot loop: three protocols on five families at two
    /// sizes, few big trials.
    AgentGrid,
    /// The count tier: three count-capable protocols on a
    /// [`COUNT_CLIQUE_N`]-clique.
    CountClique,
    /// The campaign layer: 1152 single-trial shards of tiny cells, with
    /// and without faults.
    ManyCells,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [
        Workload::AgentGrid,
        Workload::CountClique,
        Workload::ManyCells,
    ];

    /// Command-line name, also the campaign name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::AgentGrid => "agent-grid",
            Workload::CountClique => "count-clique",
            Workload::ManyCells => "many-cells",
        }
    }

    /// Parses a [`Self::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaign grid for `seed`. `max_steps` overrides the
    /// workload's step budget; the benchmark's set-up measurement runs
    /// the same grid at a budget of one step.
    #[must_use]
    pub fn spec(self, seed: u64, max_steps: Option<u64>) -> SweepSpec {
        let spec = match self {
            Workload::AgentGrid => SweepSpec {
                protocols: vec![
                    ProtocolSpec::Token,
                    ProtocolSpec::Identifier,
                    ProtocolSpec::Fast,
                ],
                families: vec![
                    Family::Clique,
                    Family::Cycle,
                    Family::Torus,
                    Family::RandomRegular4,
                    Family::Star,
                ],
                sizes: vec![4_000, 80_000],
                trials_per_cell: 2,
                shard_trials: 2,
                max_steps: 2_000_000,
                threads: 1,
                ..SweepSpec::default()
            },
            Workload::CountClique => SweepSpec {
                protocols: vec![
                    ProtocolSpec::Token,
                    ProtocolSpec::Fast,
                    ProtocolSpec::Majority,
                ],
                families: vec![Family::Clique],
                sizes: vec![COUNT_CLIQUE_N],
                trials_per_cell: 3,
                shard_trials: 3,
                // Below every election time seen at 10⁷ (fast ≥ 3.4·10⁸,
                // majority ≥ 4.3·10⁸ steps): every trial runs the full
                // budget, so the work is the same for every seed. An
                // election's length is heavy-tailed; with elections in
                // the budget the campaign's wall time moved by 25 %
                // between seeds.
                max_steps: 80_000_000,
                threads: 1,
                ..SweepSpec::default()
            },
            Workload::ManyCells => SweepSpec {
                protocols: vec![
                    ProtocolSpec::Token,
                    ProtocolSpec::Majority,
                    ProtocolSpec::Star,
                    ProtocolSpec::Loose,
                    ProtocolSpec::RingLoose,
                    ProtocolSpec::Fast,
                ],
                families: vec![Family::Clique, Family::Cycle, Family::Star, Family::Torus],
                sizes: vec![32, 64, 128, 256],
                faults: vec![FaultSpec::None, FaultSpec::Corrupt],
                trials_per_cell: 8,
                shard_trials: 1,
                max_steps: 200_000,
                threads: 1,
                ..SweepSpec::default()
            },
        };
        SweepSpec {
            name: self.name().into(),
            master_seed: seed,
            max_steps: max_steps.unwrap_or(spec.max_steps),
            ..spec
        }
    }

    /// Campaign options writing under `out_dir`.
    #[must_use]
    pub fn options(out_dir: &Path) -> CampaignOptions {
        CampaignOptions {
            out_dir: out_dir.to_path_buf(),
            ..CampaignOptions::default()
        }
    }
}
