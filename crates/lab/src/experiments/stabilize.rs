//! Loose-stabilization experiment: the elect-vs-hold tradeoff, and
//! bounded re-election under corrupt bursts.
//!
//! The loosely-stabilizing family (`popele_core::loose`) is judged by
//! two quantities measured from **arbitrary** start configurations
//! (Sudo et al. 2012; Kanaya et al. 2024): the expected **election
//! time** to reach a unique-leader configuration and the expected
//! **holding time** until that configuration is first violated. Both
//! are controlled by one knob — the heartbeat budget `τ` (or, for the
//! ring variant, the distance bound `B`) — pulling in opposite
//! directions: draining a bigger budget slows elections linearly-ish,
//! while surviving it pushes violations out superlinearly. The first
//! table sweeps the knob and shows exactly that tradeoff (holds that
//! outlive the step budget are *censored* — reported as a count, not
//! smuggled into the mean).
//!
//! The second table injects corrupt bursts (crash-and-rejoin resets of
//! a third of the nodes) into held configurations: the class's
//! headline property is that re-election after *any* perturbation is
//! bounded — compare the reelect columns against the fate of the token
//! protocol under the same bursts in `popele-lab faults`, which can
//! lose its leader forever.

use crate::report::{fmt_num, Table};
use crate::workloads::Family;
use crate::RunConfig;
use popele_core::{LooseProtocol, RingLooseProtocol};
use popele_engine::monte_carlo::{TrialOptions, TrialResult};
use popele_engine::stabilize::{prepare_stabilize_engine, run_trials_stabilize_auto_prepared};
use popele_engine::{FaultKind, FaultPlan};
use popele_math::rng::SeedSeq;
use popele_math::stats::Summary;

/// Runs the experiment.
#[must_use]
pub fn run(cfg: &RunConfig) -> Vec<Table> {
    let n: u32 = *cfg.pick(&32, &128);
    let trials = cfg.trials(6, 16);
    let max_steps: u64 = *cfg.pick(&(1 << 21), &(1 << 26));
    let seq = SeedSeq::new(cfg.master_seed);
    let options = TrialOptions {
        trials,
        max_steps,
        threads: cfg.threads,
        ..TrialOptions::default()
    };

    let mut tradeoff = Table::new(
        "loose stabilization tradeoff",
        format!(
            "elect-and-hold from arbitrary configurations, n={n}, {trials} trials/row, budget \
             {max_steps} steps; elect = steps to the first unique-leader configuration, hold = \
             steps it survived (censored = still held at the budget)"
        ),
        &[
            "protocol",
            "family",
            "budget",
            "elected",
            "timeouts",
            "elect_mean",
            "hold_mean",
            "hold_q90",
            "censored",
            "engine",
        ],
    );

    let budgets: &[u32] = cfg.pick(&[4, 8, 16, 32, 64][..], &[8, 16, 32, 64, 128, 256][..]);
    let mut row_seed = 0u64;
    let next_seed = |row_seed: &mut u64| {
        *row_seed += 1;
        seq.child(*row_seed)
    };
    // One fixed graph seed per family, shared by every section below,
    // so both tables (and the ring rows) measure the same graph
    // instance per family regardless of how many rows precede it.
    let graph_seed = |f_idx: u64| seq.child(900 + f_idx);
    for (f_idx, &family) in [Family::Clique, Family::Cycle].iter().enumerate() {
        let graph = family.generate(n, graph_seed(f_idx as u64));
        for &tau in budgets {
            let p = LooseProtocol::new(tau);
            let results = run_trials_stabilize_auto_prepared(
                &graph,
                &p,
                &prepare_stabilize_engine(&p, graph.num_nodes()),
                next_seed(&mut row_seed),
                options,
                &FaultPlan::empty(),
            );
            tradeoff.push_row(tradeoff_row("loose", family, tau, &results));
        }
    }
    // The ring variant, on its ring: the bound plays the budget role.
    let ring = Family::Cycle.generate(n, graph_seed(1));
    for factor in [1u32, 2, 4] {
        let p = RingLooseProtocol::new((factor * ring.num_nodes()).max(8));
        let results = run_trials_stabilize_auto_prepared(
            &ring,
            &p,
            &prepare_stabilize_engine(&p, ring.num_nodes()),
            next_seed(&mut row_seed),
            options,
            &FaultPlan::empty(),
        );
        tradeoff.push_row(tradeoff_row(
            "ring-loose",
            Family::Cycle,
            p.bound(),
            &results,
        ));
    }

    let mut reelect = Table::new(
        "loose reelection under corrupt bursts",
        format!(
            "three crash-and-rejoin bursts (n/3 nodes each) against held configurations, n={n}, \
             {trials} trials/row; reelect = steps from the last burst back to a unique leader"
        ),
        &[
            "protocol",
            "family",
            "budget",
            "recovered",
            "lost",
            "peak",
            "reelect_mean",
            "reelect_q90",
        ],
    );
    let burst_gap = u64::from(n) * 64;
    let plan = FaultPlan::periodic(
        FaultKind::CorruptNodes { count: n / 3 },
        4 * burst_gap,
        burst_gap,
        3,
    );
    for (f_idx, &family) in [Family::Clique, Family::Cycle].iter().enumerate() {
        let graph = family.generate(n, graph_seed(f_idx as u64));
        for &tau in cfg.pick(&[8u32, 32][..], &[16u32, 64][..]) {
            let p = LooseProtocol::new(tau);
            let results = run_trials_stabilize_auto_prepared(
                &graph,
                &p,
                &prepare_stabilize_engine(&p, graph.num_nodes() + plan.max_joins()),
                next_seed(&mut row_seed),
                options,
                &plan,
            );
            reelect.push_row(reelect_row("loose", family, tau, &results));
        }
    }

    vec![tradeoff, reelect]
}

/// Aggregates one row of the elect-vs-hold table.
fn tradeoff_row(
    protocol: &str,
    family: Family,
    budget: u32,
    results: &[TrialResult],
) -> Vec<String> {
    let elect: Summary = results
        .iter()
        .filter_map(|r| r.stabilization_step)
        .map(|s| s as f64)
        .collect();
    let timeouts = results.len() - elect.len();
    let holdings = || results.iter().filter_map(|r| r.holding);
    let hold: Summary = holdings()
        .filter_map(|h| h.hold_steps)
        .map(|s| s as f64)
        .collect();
    let censored = holdings().filter(|h| h.held_to_budget).count();
    let stat = |s: &Summary, v: f64| {
        if s.is_empty() {
            "-".to_string()
        } else {
            fmt_num(v)
        }
    };
    vec![
        protocol.to_string(),
        family.label().to_string(),
        budget.to_string(),
        elect.len().to_string(),
        timeouts.to_string(),
        stat(&elect, elect.mean()),
        stat(&hold, hold.mean()),
        stat(
            &hold,
            if hold.is_empty() {
                0.0
            } else {
                hold.quantile(0.9)
            },
        ),
        censored.to_string(),
        results
            .first()
            .map_or("-".to_string(), |r| r.engine.label().to_string()),
    ]
}

/// Aggregates one row of the re-election table.
fn reelect_row(
    protocol: &str,
    family: Family,
    budget: u32,
    results: &[TrialResult],
) -> Vec<String> {
    let recoveries = || results.iter().filter_map(|r| r.recovery);
    let reelect: Summary = recoveries()
        .filter_map(|r| r.reconvergence_steps)
        .map(|s| s as f64)
        .collect();
    let lost = recoveries().filter(|r| r.leader_lost).count();
    let peak = recoveries().map(|r| r.peak_leaders).max().unwrap_or(0);
    let stat = |v: f64| {
        if reelect.is_empty() {
            "-".to_string()
        } else {
            fmt_num(v)
        }
    };
    vec![
        protocol.to_string(),
        family.label().to_string(),
        budget.to_string(),
        reelect.len().to_string(),
        lost.to_string(),
        peak.to_string(),
        stat(reelect.mean()),
        stat(if reelect.is_empty() {
            0.0
        } else {
            reelect.quantile(0.9)
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_both_tables() {
        let cfg = RunConfig {
            quick: true,
            master_seed: 7,
            threads: 1,
        };
        let tables = run(&cfg);
        assert_eq!(tables.len(), 2);
        // 2 families × 5 budgets + 3 ring rows.
        assert_eq!(tables[0].num_rows(), 13);
        // 2 families × 2 budgets.
        assert_eq!(tables[1].num_rows(), 4);
        // The tradeoff must be visible on the clique block (rows 0–4):
        // every budget elects, the smallest is violated within the
        // budget, the largest holds to the budget in every trial.
        for r in 0..5 {
            assert_ne!(tables[0].cell(r, 3), "0", "clique row {r} never elected");
        }
        assert_ne!(tables[0].cell(0, 6), "-", "τ=4 hold never violated?");
        assert_eq!(tables[0].cell(4, 8), "6", "τ=64 hold not censored?");
        // On the cycle, budgets below the propagation lag may never
        // elect (that non-election IS the finding); the largest budget
        // must.
        assert_ne!(tables[0].cell(9, 3), "0", "cycle τ=64 never elected");
    }
}
