//! States-vs-time Pareto frontier: every protocol family head to head.
//!
//! ROADMAP item 4 asks for the corners of the states-versus-time
//! tradeoff as competitors, not just citations: the paper's own
//! protocols (token, identifier, fast), the trivial star specialist,
//! the exact-majority extension, the loosely-stabilizing timeout
//! family, the space-optimal Gąsieniec–Stachowiak junta race and the
//! time-optimal self-stabilizing ring circulation. This experiment
//! lines them all up in one table: declared state-space size `|Λ|`
//! against measured election time (and holding time, for the
//! arbitrary-start families), with the engine tier each row's `|Λ|`
//! lands on — the AOT/lazy/generic waterfall made visible as data.
//!
//! Every protocol runs on its *home* family (the one its analysis is
//! derived for: star → star, ring variants → cycle, the rest →
//! clique), at the same node count, so the time column is comparable
//! across rows while each oracle stays exact. Clean-start protocols
//! report the time to the first stable unique-leader configuration;
//! the stabilizing families start from arbitrary configurations and
//! additionally report the mean holding time (censored holds — still
//! alive at the step budget — are counted, not smuggled into means).

use crate::report::{fmt_num, Table};
use crate::workloads::{broadcast_guess, Family};
use crate::RunConfig;
use popele_core::params::{identifier_bits, FastParams};
use popele_core::{
    FastProtocol, IdentifierProtocol, LooseProtocol, MajorityProtocol, RingLooseProtocol,
    SpaceOptimalProtocol, StarProtocol, TimeOptimalRingProtocol, TokenProtocol,
};
use popele_engine::monte_carlo::{
    run_trials_auto_prepared, EngineSelection, TrialOptions, TrialResult,
};
use popele_engine::stabilize::{
    prepare_stabilize_engine, run_trials_stabilize_auto_prepared, ArbitraryInit,
};
use popele_engine::{FaultPlan, Protocol};
use popele_graph::Graph;
use popele_math::rng::SeedSeq;
use popele_math::stats::Summary;

/// Runs the experiment.
#[must_use]
pub fn run(cfg: &RunConfig) -> Vec<Table> {
    let n: u32 = *cfg.pick(&64, &256);
    let trials = cfg.trials(8, 32);
    let max_steps: u64 = *cfg.pick(&(1 << 24), &(1 << 30));
    let seq = SeedSeq::new(cfg.master_seed);
    let options = TrialOptions {
        trials,
        max_steps,
        threads: cfg.threads,
        ..TrialOptions::default()
    };

    let mut table = Table::new(
        "states-vs-time pareto",
        format!(
            "every protocol on its home family at n={n}, {trials} trials/row, budget \
             {max_steps} steps; states = declared |Λ| bound, elect = steps to a stable \
             unique leader (arbitrary-start rows: to the first unique-leader \
             configuration, with the mean hold until violation), engine = tier selected \
             for that |Λ|"
        ),
        &[
            "protocol",
            "family",
            "start",
            "states",
            "elected",
            "elect_mean",
            "elect_q90",
            "hold_mean",
            "engine",
        ],
    );

    let clique = Family::Clique.generate(n, seq.child(900));
    let cycle = Family::Cycle.generate(n, seq.child(901));
    let star = Family::Star.generate(n, seq.child(902));
    let mut row_seed = 0u64;
    let mut next_seed = || {
        row_seed += 1;
        seq.child(row_seed)
    };

    table.push_row(clean_row(
        "token",
        Family::Clique,
        &clique,
        &TokenProtocol::all_candidates(),
        next_seed(),
        options,
    ));
    table.push_row(clean_row(
        "identifier",
        Family::Clique,
        &clique,
        &IdentifierProtocol::new(identifier_bits(n, false)),
        next_seed(),
        options,
    ));
    let fast_params = FastParams::practical(
        broadcast_guess(&clique),
        clique.max_degree(),
        clique.num_edges(),
        n,
    );
    table.push_row(clean_row(
        "fast",
        Family::Clique,
        &clique,
        &FastProtocol::new(fast_params),
        next_seed(),
        options,
    ));
    table.push_row(clean_row(
        "star",
        Family::Star,
        &star,
        &StarProtocol::new(),
        next_seed(),
        options,
    ));
    table.push_row(clean_row(
        "majority",
        Family::Clique,
        &clique,
        &MajorityProtocol::new(crate::workloads::majority_split(n), n),
        next_seed(),
        options,
    ));
    table.push_row(clean_row(
        "space-opt",
        Family::Clique,
        &clique,
        &SpaceOptimalProtocol::practical(n),
        next_seed(),
        options,
    ));
    table.push_row(stab_row(
        "loose",
        Family::Clique,
        &clique,
        &LooseProtocol::practical(n),
        next_seed(),
        options,
    ));
    table.push_row(stab_row(
        "ring-loose",
        Family::Cycle,
        &cycle,
        &RingLooseProtocol::for_ring(n),
        next_seed(),
        options,
    ));
    table.push_row(stab_row(
        "ring-time-opt",
        Family::Cycle,
        &cycle,
        &TimeOptimalRingProtocol::for_ring(n),
        next_seed(),
        options,
    ));

    vec![table]
}

/// A clean-start row: time to a *stable* unique-leader configuration.
fn clean_row<P: Protocol + Clone>(
    label: &str,
    family: Family,
    graph: &Graph,
    protocol: &P,
    seed: u64,
    options: TrialOptions,
) -> Vec<String> {
    let selection = EngineSelection::prepare(protocol, graph.num_nodes());
    let results = run_trials_auto_prepared(graph, protocol, &selection, seed, options);
    pareto_row(
        label,
        family,
        "clean",
        protocol.state_space_bound(),
        &results,
    )
}

/// An arbitrary-start row: election + holding metrics attached.
fn stab_row<P: ArbitraryInit + Clone>(
    label: &str,
    family: Family,
    graph: &Graph,
    protocol: &P,
    seed: u64,
    options: TrialOptions,
) -> Vec<String> {
    let selection = prepare_stabilize_engine(protocol, graph.num_nodes());
    let plan = FaultPlan::empty();
    let results =
        run_trials_stabilize_auto_prepared(graph, protocol, &selection, seed, options, &plan);
    pareto_row(
        label,
        family,
        "arbitrary",
        protocol.state_space_bound(),
        &results,
    )
}

/// Aggregates one Pareto row from a trial batch.
fn pareto_row(
    label: &str,
    family: Family,
    start: &str,
    states: Option<u64>,
    results: &[TrialResult],
) -> Vec<String> {
    let elect: Summary = results
        .iter()
        .filter_map(|r| r.stabilization_step)
        .map(|s| s as f64)
        .collect();
    let hold: Summary = results
        .iter()
        .filter_map(|r| r.holding)
        .filter_map(|h| h.hold_steps)
        .map(|s| s as f64)
        .collect();
    let stat = |s: &Summary, v: f64| {
        if s.is_empty() {
            "-".to_string()
        } else {
            fmt_num(v)
        }
    };
    vec![
        label.to_string(),
        family.label().to_string(),
        start.to_string(),
        states.map_or("-".to_string(), |b| b.to_string()),
        elect.len().to_string(),
        stat(&elect, elect.mean()),
        stat(
            &elect,
            if elect.is_empty() {
                0.0
            } else {
                elect.quantile(0.9)
            },
        ),
        stat(&hold, hold.mean()),
        results
            .first()
            .map_or("-".to_string(), |r| r.engine.label().to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_covers_the_full_registry() {
        let cfg = RunConfig {
            quick: true,
            master_seed: 7,
            threads: 1,
        };
        let tables = run(&cfg);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        // The acceptance floor: at least 8 protocol rows.
        assert!(t.num_rows() >= 8, "only {} rows", t.num_rows());
        for r in 0..t.num_rows() {
            // Every row declares a finite state bound and elects in at
            // least one trial at the quick budget.
            assert_ne!(t.cell(r, 3), "-", "row {r} has no |Λ| bound");
            assert_ne!(t.cell(r, 4), "0", "row {r} never elected");
            assert_ne!(t.cell(r, 8), "-", "row {r} has no engine");
        }
        // The two corner protocols are present with their home families.
        let labels: Vec<_> = (0..t.num_rows())
            .map(|r| t.cell(r, 0).to_string())
            .collect();
        assert!(labels.iter().any(|l| l == "space-opt"));
        assert!(labels.iter().any(|l| l == "ring-time-opt"));
    }
}
