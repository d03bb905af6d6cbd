//! One module per reproduced display item / theorem family.

pub mod ablation;
pub mod broadcast;
pub mod clocks;
pub mod conductance;
pub mod dense;
pub mod engine;
pub mod faults;
pub mod lowerbound;
pub mod majority;
pub mod pareto;
pub mod propagation;
pub mod renitent;
pub mod stabilize;
pub mod table1;
pub mod walks;

use popele_engine::monte_carlo::{
    run_trials_auto_prepared, EngineSelection, TrialOptions, TrialStats,
};
use popele_engine::Protocol;
use popele_graph::Graph;

/// Shared helper: Monte-Carlo stabilization statistics for a protocol on
/// a graph.
///
/// Runs on the compiled dense engine whenever the protocol's reachable
/// state space fits the `u16` id budget (token, star, majority, and
/// small-parameter fast instances), falling back to the generic engine
/// otherwise (identifier, large fast parameterizations). The two engines
/// are trace-identical per seed, so this changes wall-clock time only —
/// which is what makes the full-mode sweeps at paper scale feasible.
pub(crate) fn protocol_stats<P: Protocol + Clone>(
    g: &Graph,
    p: &P,
    master_seed: u64,
    trials: usize,
    threads: usize,
    census: bool,
) -> TrialStats {
    let results = run_trials_auto_prepared(
        g,
        p,
        &EngineSelection::prepare(p, g.num_nodes()),
        master_seed,
        TrialOptions {
            trials,
            max_steps: 4_000_000_000,
            census,
            threads,
            ..TrialOptions::default()
        },
    );
    TrialStats::from_results(&results)
}
