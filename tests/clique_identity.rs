//! The implicit clique's contract: `families::clique(n)` stores no edge
//! list, yet every layer must behave exactly as on the CSR graph of the
//! same complete edge list — the same scheduler streams, the same
//! per-trial results from every per-agent tier (generic, AOT, lazy with
//! and without its generic hand-off), the same faulted and
//! self-stabilizing runs, and the same graph statistics and cell
//! parameters. Each case runs at n ∈ {2, 3, 37, 256, 4096}; the CSR
//! forms are built once and shared.

mod harness;

use harness::clique_forms;
use popele::engine::monte_carlo::{
    lazy_handoff_step, run_trials_auto_prepared, run_trials_auto_with_faults_prepared, TrialOptions,
};
use popele::engine::stabilize::{prepare_stabilize_engine, run_trials_stabilize_auto_prepared};
use popele::engine::{
    CompiledProtocol, EdgeScheduler, EngineSelection, Executor, FaultKind, FaultPlan,
};
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
    let (generic, lazy) = (EngineSelection::generic(), EngineSelection::lazy());
    for (implicit, csr) in forms() {
        let n = csr.num_nodes();
        let opts = options(2, budget(n));
        assert_eq!(
            run_trials_auto_prepared(implicit, &token, &generic, 3, opts),
            run_trials_auto_prepared(csr, &token, &generic, 3, opts),
            "{csr} generic"
        );
        let dense = EngineSelection::dense(CompiledProtocol::compile_default(&token, n).unwrap());
        assert_eq!(
            run_trials_auto_prepared(implicit, &token, &dense, 3, opts),
            run_trials_auto_prepared(csr, &token, &dense, 3, opts),
            "{csr} AOT"
        );
        let identifier = IdentifierProtocol::new(identifier_bits(n, false));
        assert_eq!(
            run_trials_auto_prepared(implicit, &identifier, &lazy, 3, opts),
            run_trials_auto_prepared(csr, &identifier, &lazy, 3, opts),
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
        let (opts, short) = (options(2, budget(n)), options(1, 20_000));
        let (generic, csr_fast) = (EngineSelection::generic(), FastProtocol::new(params(csr)));
        assert_eq!(
            run_trials_auto_prepared(implicit, &fast, &generic, 5, short),
            run_trials_auto_prepared(csr, &csr_fast, &generic, 5, short),
            "{csr} generic fast"
        );
        if let Ok(compiled) = CompiledProtocol::compile_default(&fast, n) {
            let dense = EngineSelection::dense(compiled);
            assert_eq!(
                run_trials_auto_prepared(implicit, &fast, &dense, 5, opts),
                run_trials_auto_prepared(csr, &fast, &dense, 5, opts),
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
        let (opts, lazy) = (options(2, max_steps), EngineSelection::lazy());
        assert_eq!(
            run_trials_auto_prepared(implicit, &identifier, &lazy, 11, opts),
            run_trials_auto_prepared(csr, &identifier, &lazy, 11, opts),
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
        let generic = EngineSelection::generic();
        assert_eq!(
            run_trials_auto_with_faults_prepared(implicit, &token, &generic, 4, opts, &corrupt),
            run_trials_auto_with_faults_prepared(csr, &token, &generic, 4, opts, &corrupt),
            "{csr} generic corrupt"
        );
        let aot = EngineSelection::prepare(&token, n);
        assert_eq!(
            run_trials_auto_with_faults_prepared(implicit, &token, &aot, 4, opts, &corrupt),
            run_trials_auto_with_faults_prepared(csr, &token, &aot, 4, opts, &corrupt),
            "{csr} AOT corrupt"
        );
        let id = EngineSelection::prepare(&identifier, n);
        assert_eq!(
            run_trials_auto_with_faults_prepared(implicit, &identifier, &id, 4, opts, &corrupt),
            run_trials_auto_with_faults_prepared(csr, &identifier, &id, 4, opts, &corrupt),
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
        let auto = EngineSelection::prepare(&token, csr.num_nodes() + topology.max_joins());
        assert_eq!(
            run_trials_auto_with_faults_prepared(implicit, &token, &auto, 6, opts, &topology),
            run_trials_auto_with_faults_prepared(csr, &token, &auto, 6, opts, &topology),
            "{csr} topology"
        );
    }
}

#[test]
fn stabilizing_runs_agree() {
    let loose = LooseProtocol::new(24);
    let generic = EngineSelection::generic();
    let corrupt = FaultPlan::at(700, FaultKind::CorruptNodes { count: 1 });
    for (implicit, csr) in forms() {
        let opts = options(2, budget(csr.num_nodes()).min(100_000));
        let auto = prepare_stabilize_engine(&loose, csr.num_nodes());
        for plan in [FaultPlan::empty(), corrupt.clone()] {
            for (tier, label) in [(&generic, "generic"), (&auto, "auto")] {
                assert_eq!(
                    run_trials_stabilize_auto_prepared(implicit, &loose, tier, 8, opts, &plan),
                    run_trials_stabilize_auto_prepared(csr, &loose, tier, 8, opts, &plan),
                    "{csr} {label} stabilize"
                );
            }
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
        let identifier = IdentifierProtocol::new(identifier_bits(n, false));
        let (generic, lazy) = (EngineSelection::generic(), EngineSelection::lazy());
        let dense = EngineSelection::dense(CompiledProtocol::compile_default(&token, n).unwrap());
        let _ = run_trials_auto_prepared(&fresh, &token, &generic, 1, options(1, 5_000));
        let _ = run_trials_auto_prepared(&fresh, &token, &dense, 1, options(1, 5_000));
        let _ = run_trials_auto_prepared(&fresh, &identifier, &lazy, 1, options(1, 5_000));
        assert!(!fresh.is_materialized(), "{csr}: a trial built the arrays");
    }
}
