//! The implicit clique's contract: `families::clique(n)` stores no edge
//! list, yet every layer must behave exactly as on the CSR graph of the
//! same complete edge list — the same scheduler streams, the same
//! per-trial results from every per-agent tier (generic, AOT, lazy with
//! and without its generic hand-off, lanes), the same faulted and
//! self-stabilizing runs, and the same graph statistics and cell
//! parameters. Each case runs at n ∈ {2, 3, 37, 256, 4096}; the CSR
//! forms are built once and shared.

mod harness;

use harness::clique_forms;
use popele::engine::monte_carlo::{
    lazy_handoff_step, run_trials, run_trials_auto_with_faults, run_trials_dense, run_trials_lanes,
    run_trials_lazy, run_trials_with_faults, TrialOptions,
};
use popele::engine::stabilize::{run_trials_stabilize, run_trials_stabilize_auto};
use popele::engine::{CompiledProtocol, EdgeScheduler, Executor, FaultKind, FaultPlan};
use popele::graph::properties::diameter_double_sweep;
use popele::graph::Graph;
use popele::protocols::params::{identifier_bits, FastParams};
use popele::protocols::{FastProtocol, IdentifierProtocol, LooseProtocol, TokenProtocol};
use popele_lab::workloads::broadcast_guess;
use std::sync::OnceLock;

const SIZES: [u32; 5] = [2, 3, 37, 256, 4096];

/// `(implicit, csr)` for every size in [`SIZES`], built once per test
/// binary (the CSR `K_4096` alone holds 134 MB of arrays).
fn forms() -> &'static [(Graph, Graph)] {
    static FORMS: OnceLock<Vec<(Graph, Graph)>> = OnceLock::new();
    FORMS.get_or_init(|| SIZES.iter().map(|&n| clique_forms(n)).collect())
}

/// Options for `trials` single-threaded trials under `max_steps`.
fn options(trials: usize, max_steps: u64) -> TrialOptions {
    TrialOptions {
        trials,
        max_steps,
        threads: 1,
        ..TrialOptions::default()
    }
}

/// A budget that finishes small elections and cuts big ones short, so
/// both stabilized and timed-out results are compared.
fn budget(n: u32) -> u64 {
    if n <= 37 {
        1 << 20
    } else {
        40_000
    }
}

#[test]
fn scheduler_streams_are_identical() {
    for (implicit, csr) in forms() {
        for seed in [1u64, 0xC11C] {
            let mut a = EdgeScheduler::new(implicit, seed);
            let mut b = EdgeScheduler::new(csr, seed);
            assert_eq!(a.num_edges(), b.num_edges());
            for _ in 0..2000 {
                assert_eq!(a.next_pair(), b.next_pair(), "{csr} next_pair");
            }
            // Batch lengths straddling the 64-draw chunk of fill_pairs.
            for len in [1usize, 63, 64, 65, 1000] {
                let mut pa = vec![(0, 0); len];
                let mut pb = vec![(0, 0); len];
                a.fill_pairs(&mut pa);
                b.fill_pairs(&mut pb);
                assert_eq!(pa, pb, "{csr} fill_pairs({len})");
                let mut ra = vec![0usize; len];
                let mut rb = vec![0usize; len];
                a.fill_raw(&mut ra);
                b.fill_raw(&mut rb);
                assert_eq!(ra, rb, "{csr} fill_raw({len})");
            }
            assert_eq!(a.steps(), b.steps());
            // And the pairs are the edges the raws name.
            let mut c = EdgeScheduler::new(implicit, seed);
            for _ in 0..200 {
                let r = c.next_raw();
                let (u, v) = csr.edges()[r >> 1];
                assert_eq!(a.next_pair(), b.next_pair());
                let index = implicit.clique_index().unwrap();
                assert_eq!(index.edge((r >> 1) as u64), (u, v));
            }
        }
    }
}

#[test]
fn generic_executor_steps_in_lockstep() {
    let token = TokenProtocol::all_candidates();
    for (implicit, csr) in forms() {
        let mut a = Executor::new(implicit, &token, 9);
        let mut b = Executor::new(csr, &token, 9);
        for i in 0..3000 {
            assert_eq!(a.step(), b.step(), "{csr} step {i}");
        }
        assert_eq!(a.states(), b.states());
    }
}

#[test]
fn trial_results_are_identical_on_every_tier() {
    let token = TokenProtocol::all_candidates();
    for (implicit, csr) in forms() {
        let n = csr.num_nodes();
        let opts = options(2, budget(n));
        assert_eq!(
            run_trials(implicit, &token, 3, opts),
            run_trials(csr, &token, 3, opts),
            "{csr} generic"
        );
        let compiled = CompiledProtocol::compile_default(&token, n).unwrap();
        assert_eq!(
            run_trials_dense(implicit, &compiled, 3, opts),
            run_trials_dense(csr, &compiled, 3, opts),
            "{csr} AOT"
        );
        let lanes = options(9, budget(n));
        assert_eq!(
            run_trials_lanes(implicit, &compiled, 3, lanes),
            run_trials_lanes(csr, &compiled, 3, lanes),
            "{csr} lanes"
        );
        let identifier = IdentifierProtocol::new(identifier_bits(n, false));
        assert_eq!(
            run_trials_lazy(implicit, &identifier, 3, opts),
            run_trials_lazy(csr, &identifier, 3, opts),
            "{csr} lazy"
        );
    }
}

#[test]
fn fast_protocol_cells_agree_in_parameters_and_results() {
    for (implicit, csr) in forms() {
        let n = csr.num_nodes();
        let params =
            |g: &Graph| FastParams::practical(broadcast_guess(g), g.max_degree(), g.num_edges(), n);
        assert_eq!(broadcast_guess(implicit), broadcast_guess(csr));
        let fast = FastProtocol::new(params(implicit));
        let opts = options(2, budget(n));
        assert_eq!(
            run_trials(implicit, &fast, 5, options(1, 20_000)),
            run_trials(csr, &FastProtocol::new(params(csr)), 5, options(1, 20_000)),
            "{csr} generic fast"
        );
        if let Ok(compiled) = CompiledProtocol::compile_default(&fast, n) {
            assert_eq!(
                run_trials_dense(implicit, &compiled, 5, opts),
                run_trials_dense(csr, &compiled, 5, opts),
                "{csr} AOT fast"
            );
        }
    }
}

#[test]
fn lazy_trials_handed_to_the_generic_engine_agree() {
    // With the paper's identifier length, id generation on K_4096 misses
    // the pair cache on most steps, so its trials leave the lazy engine
    // at the end of their first window; the smaller cliques stay lazy.
    for (implicit, csr) in forms() {
        let n = csr.num_nodes();
        let identifier = IdentifierProtocol::new(identifier_bits(n, true));
        let max_steps = 150_000;
        let handoff = lazy_handoff_step(implicit, &identifier, 11, max_steps);
        assert_eq!(handoff, lazy_handoff_step(csr, &identifier, 11, max_steps));
        if n == 4096 {
            assert_eq!(handoff, Some(1 << 16), "{csr}: no hand-off");
        }
        let opts = options(2, max_steps);
        assert_eq!(
            run_trials_lazy(implicit, &identifier, 11, opts),
            run_trials_lazy(csr, &identifier, 11, opts),
            "{csr} lazy with hand-off"
        );
    }
}

#[test]
fn faulted_runs_agree() {
    let token = TokenProtocol::all_candidates();
    let corrupt = FaultPlan::periodic(FaultKind::CorruptNodes { count: 2 }, 500, 2000, 3);
    for (implicit, csr) in forms() {
        let n = csr.num_nodes();
        let opts = options(2, budget(n));
        let identifier = IdentifierProtocol::new(identifier_bits(n, false));
        assert_eq!(
            run_trials_with_faults(implicit, &token, 4, opts, &corrupt),
            run_trials_with_faults(csr, &token, 4, opts, &corrupt),
            "{csr} generic corrupt"
        );
        assert_eq!(
            run_trials_auto_with_faults(implicit, &token, 4, opts, &corrupt),
            run_trials_auto_with_faults(csr, &token, 4, opts, &corrupt),
            "{csr} AOT corrupt"
        );
        assert_eq!(
            run_trials_auto_with_faults(implicit, &identifier, 4, opts, &corrupt),
            run_trials_auto_with_faults(csr, &identifier, 4, opts, &corrupt),
            "{csr} lazy corrupt"
        );
    }
    // Topology faults rebuild the graph from its edge list (the
    // implicit clique materializes); the traces must still agree.
    let topology = FaultPlan::at(300, FaultKind::RemoveEdge)
        .and(600, FaultKind::LeaveNode)
        .and(900, FaultKind::JoinNode { degree: 2 })
        .and(1200, FaultKind::AddEdge);
    for (implicit, csr) in forms()
        .iter()
        .filter(|(g, _)| (3..=256).contains(&g.num_nodes()))
    {
        let opts = options(2, budget(csr.num_nodes()));
        assert_eq!(
            run_trials_auto_with_faults(implicit, &token, 6, opts, &topology),
            run_trials_auto_with_faults(csr, &token, 6, opts, &topology),
            "{csr} topology"
        );
    }
}

#[test]
fn stabilizing_runs_agree() {
    let loose = LooseProtocol::new(24);
    let corrupt = FaultPlan::at(700, FaultKind::CorruptNodes { count: 1 });
    for (implicit, csr) in forms() {
        let opts = options(2, budget(csr.num_nodes()).min(100_000));
        for plan in [FaultPlan::empty(), corrupt.clone()] {
            assert_eq!(
                run_trials_stabilize(implicit, &loose, 8, opts, &plan),
                run_trials_stabilize(csr, &loose, 8, opts, &plan),
                "{csr} generic stabilize"
            );
            assert_eq!(
                run_trials_stabilize_auto(implicit, &loose, 8, opts, &plan),
                run_trials_stabilize_auto(csr, &loose, 8, opts, &plan),
                "{csr} auto stabilize"
            );
        }
    }
}

#[test]
fn statistics_and_equality_agree_without_materializing() {
    for (implicit, csr) in forms() {
        // A fresh implicit clique: other tests here read the edge lists
        // of the shared forms.
        let n = csr.num_nodes();
        let fresh = popele::graph::families::clique(n);
        for g in [implicit, &fresh] {
            assert_eq!(g.num_edges(), csr.num_edges());
            assert_eq!(g.max_degree(), csr.max_degree());
            assert_eq!(g.min_degree(), csr.min_degree());
            assert_eq!(g.avg_degree(), csr.avg_degree());
            assert_eq!(g.is_regular(), csr.is_regular());
            for v in [0, n / 2, n - 1] {
                assert_eq!(g.degree(v), csr.degree(v));
            }
            for (u, v) in [(0, n - 1), (n - 1, 0), (0, 0), (n / 2, n / 3), (0, n)] {
                assert_eq!(g.has_edge(u, v), csr.has_edge(u, v), "({u}, {v})");
            }
            assert_eq!(diameter_double_sweep(g), diameter_double_sweep(csr));
            assert_eq!(broadcast_guess(g), broadcast_guess(csr));
            assert_eq!(g, csr);
            assert_eq!(csr, g);
        }
        assert!(
            !fresh.is_materialized(),
            "{csr}: a statistic built the arrays"
        );
        // A whole trial on each tier leaves it unmaterialized too.
        let token = TokenProtocol::all_candidates();
        let compiled = CompiledProtocol::compile_default(&token, n).unwrap();
        let identifier = IdentifierProtocol::new(identifier_bits(n, false));
        let _ = run_trials(&fresh, &token, 1, options(1, 5_000));
        let _ = run_trials_dense(&fresh, &compiled, 1, options(1, 5_000));
        let _ = run_trials_lanes(&fresh, &compiled, 1, options(9, 5_000));
        let _ = run_trials_lazy(&fresh, &identifier, 1, options(1, 5_000));
        assert!(!fresh.is_materialized(), "{csr}: a trial built the arrays");
    }
}
