//! Fault-injection experiment: recovery behaviour of the paper's
//! protocols under perturbations the theorems do not cover.
//!
//! For each (protocol, family, fault profile) triple, runs
//! fault-injected Monte-Carlo trials (see [`popele_engine::faults`])
//! and reports how hard the system was knocked over (peak leader
//! count), whether the unique leader was ever permanently lost, and how
//! many steps reconvergence took after the last fault — the metrics by
//! which loosely-/self-stabilizing leader election is judged (Kanaya et
//! al. 2024; Yokota et al. 2020).
//!
//! The token protocol is the interesting subject: its correctness
//! invariant (candidates = black tokens + white tokens) is *not*
//! restored by arbitrary corruption. Corrupting a token-less candidate
//! mints a surplus black token, and the whites that surplus eventually
//! spawns can demote *every* candidate — the "lost" column — while
//! corrupting followers merely re-promotes candidates the protocol
//! hunts back down. Node churn can likewise carry tokens away. This is
//! precisely the gap between the paper's guarantees and
//! (loosely-)self-stabilizing election, made measurable.

use crate::report::{fmt_num, Table};
use crate::sweep::FaultSpec;
use crate::workloads::Family;
use crate::RunConfig;
use popele_core::{MajorityProtocol, TokenProtocol};
use popele_engine::monte_carlo::{
    run_trials_auto_with_faults_prepared, EngineSelection, TrialOptions, TrialResult,
};
use popele_engine::{FaultPlan, Protocol};
use popele_graph::Graph;
use popele_math::rng::SeedSeq;
use popele_math::stats::Summary;

/// Runs the experiment.
#[must_use]
pub fn run(cfg: &RunConfig) -> Vec<Table> {
    let n: u32 = *cfg.pick(&48, &512);
    let trials = cfg.trials(6, 24);
    let max_steps: u64 = *cfg.pick(&(1 << 24), &(1 << 30));
    let seq = SeedSeq::new(cfg.master_seed);

    let mut table = Table::new(
        "fault recovery",
        format!(
            "fault-injected elections, n={n}, {trials} trials/row; reconv = steps from the \
             last fault to renewed stability; lost = trials ending with zero leader outputs; \
             peak = worst leader-count excursion (baseline row: same budget, no faults)"
        ),
        &[
            "protocol",
            "family",
            "fault",
            "ok",
            "timeouts",
            "lost",
            "peak",
            "reconv_mean",
            "reconv_q90",
        ],
    );

    let families = [Family::Clique, Family::Cycle, Family::RandomRegular4];
    for (f_idx, family) in families.iter().enumerate() {
        let graph = family.generate(n, seq.child(1000 + f_idx as u64));
        for (p_idx, protocol) in ["token", "majority"].iter().enumerate() {
            for (s_idx, fault) in FaultSpec::ALL.iter().enumerate() {
                let seed = seq.child((f_idx * 100 + p_idx * 10 + s_idx) as u64);
                let options = TrialOptions {
                    trials,
                    max_steps,
                    threads: cfg.threads,
                    ..TrialOptions::default()
                };
                let plan = fault.plan(graph.num_nodes());
                let results = match *protocol {
                    "token" => faulted(
                        &graph,
                        &TokenProtocol::all_candidates(),
                        seed,
                        options,
                        &plan,
                    ),
                    _ => {
                        let nn = graph.num_nodes();
                        let p = MajorityProtocol::new(crate::workloads::majority_split(nn), nn);
                        faulted(&graph, &p, seed, options, &plan)
                    }
                };
                table.push_row(digest_row(
                    protocol,
                    family.label(),
                    fault.label(),
                    &results,
                ));
            }
        }
    }
    vec![table]
}

/// Aggregates one row of the recovery table.
/// Faulted elections on the auto-selected tier, prepared for the plan's
/// maximum node count.
fn faulted<P: Protocol + Clone>(
    graph: &Graph,
    protocol: &P,
    seed: u64,
    options: TrialOptions,
    plan: &FaultPlan,
) -> Vec<TrialResult> {
    let selection = EngineSelection::prepare(protocol, graph.num_nodes() + plan.max_joins());
    run_trials_auto_with_faults_prepared(graph, protocol, &selection, seed, options, plan)
}

fn digest_row(protocol: &str, family: &str, fault: &str, results: &[TrialResult]) -> Vec<String> {
    let ok = results
        .iter()
        .filter(|r| r.stabilization_step.is_some())
        .count();
    let timeouts = results.len() - ok;
    let recoveries = || results.iter().filter_map(|r| r.recovery);
    let lost = recoveries().filter(|r| r.leader_lost).count();
    let peak = recoveries().map(|r| r.peak_leaders).max().unwrap_or(0);
    let reconv: Summary = recoveries()
        .filter_map(|r| r.reconvergence_steps)
        .map(|s| s as f64)
        .collect();
    let stat = |v: f64| {
        if reconv.is_empty() {
            "-".to_string()
        } else {
            fmt_num(v)
        }
    };
    vec![
        protocol.to_string(),
        family.to_string(),
        fault.to_string(),
        ok.to_string(),
        timeouts.to_string(),
        lost.to_string(),
        peak.to_string(),
        stat(reconv.mean()),
        stat(if reconv.is_empty() {
            0.0
        } else {
            reconv.quantile(0.9)
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_full_grid() {
        let cfg = RunConfig {
            quick: true,
            master_seed: 7,
            threads: 1,
        };
        let tables = run(&cfg);
        assert_eq!(tables.len(), 1);
        // 3 families × 2 protocols × 4 fault profiles.
        assert_eq!(tables[0].num_rows(), 24);
        // Baseline rows carry no recovery stats ("-"), faulted rows do.
        let some_faulted = (0..tables[0].num_rows())
            .any(|r| tables[0].cell(r, 2) != "none" && tables[0].cell(r, 7) != "-");
        assert!(some_faulted);
    }
}
