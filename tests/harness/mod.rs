//! The cross-tier differential harness shared by the workspace's
//! engine-contract suites.
//!
//! Every engine tier in this repo earns its keep the same way: it must
//! be indistinguishable from the generic reference executor on the same
//! protocol/graph/seed — bit-identical traces for the per-interaction
//! tiers, exactness in distribution for the count tier. This module
//! packages that contract once, parameterized over any
//! [`Protocol`] + graph, so a new protocol family buys its multi-engine
//! correctness story by *calling* the harness instead of re-deriving
//! the copy-paste differential pattern per suite:
//!
//! * [`assert_trace_identical`] — clean-start lockstep + batched trace
//!   identity, generic ↔ lazy always, and generic ↔ AOT-dense whenever
//!   the protocol compiles under the default cap (the return value says
//!   whether that third leg ran, so callers can demand it).
//! * [`assert_trace_identical_from`] — the self-stabilization variant:
//!   one shared *arbitrary* start configuration pushed through all
//!   three engines (the AOT table seeded with the sampler's support).
//! * [`assert_table_agrees`] — exhaustive `|Λ|²` agreement between a
//!   compiled transition/role/leader-delta table and the trait
//!   implementation.
//! * [`diff_outcomes`] — full seeded elections compared across the
//!   generic and AOT engines, census included.
//! * [`assert_distributions_match`] — the count tier's
//!   exactness-in-distribution contract on clique workloads.
//! * [`clique_forms`] — `K_n` in both graph forms (implicit and CSR),
//!   the inputs of the clique-form identity suite.
//!
//! Consumed via `mod harness;` from `tests/protocol_matrix.rs`,
//! `tests/compiled_vs_trait.rs`, `tests/lazy_vs_trait.rs`,
//! `tests/stabilize_differential.rs`, `tests/count_distribution.rs`,
//! `tests/clique_identity.rs` and `tests/setup_pins.rs`;
//! each test binary compiles its own copy, so helpers a given suite
//! does not call are expected dead code.
#![allow(dead_code)]

use popele::engine::monte_carlo::{
    run_trials_auto_prepared, run_trials_count_prepared, Engine, TrialOptions, TrialResult,
};
use popele::engine::stabilize::{arbitrary_config, arbitrary_seed, ArbitraryInit};
use popele::engine::{
    compile_for_count, CompiledProtocol, DenseExecutor, EngineSelection, Executor,
    LazyDenseExecutor, Protocol, Role, StateId,
};
use popele::graph::{families, random, Graph};
use popele::math::stats::Summary;

/// The five graph families of the acceptance grid at a small size
/// (clique → arithmetic decoder, the rest → packed decoder).
pub fn small_families(n: u32) -> Vec<Graph> {
    let side = (f64::from(n).sqrt().round()) as u32;
    vec![
        families::clique(n),
        families::cycle(n),
        families::star(n),
        families::torus(side, side),
        random::random_regular_connected(n, 4, 11, 200),
    ]
}

/// `K_n` in both graph forms: the implicit clique
/// [`families::clique`] returns (arithmetic edge decode, no edge list)
/// and the CSR graph built from the explicit canonical edge list. The
/// two are equal graphs, so every engine must produce the identical
/// trace on either.
pub fn clique_forms(n: u32) -> (Graph, Graph) {
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    let csr = Graph::from_edges(n, &pairs).expect("K_n is a valid simple graph");
    let implicit = families::clique(n);
    assert!(
        implicit.clique_index().is_some(),
        "clique({n}) must be implicit"
    );
    assert!(csr.clique_index().is_none(), "from_edges must build CSR");
    (implicit, csr)
}

/// The clique/cycle/torus trio every protocol family must pass the
/// trace-identity matrix on (the cross-tier acceptance floor — these
/// three cover the arithmetic, packed-uniform and packed-regular edge
/// decoders).
pub fn matrix_families(n: u32) -> Vec<Graph> {
    let side = (f64::from(n).sqrt().round()) as u32;
    vec![
        families::clique(n),
        families::cycle(n),
        families::torus(side, side),
    ]
}

/// Exhaustively checks every enumerated state pair of `compiled`
/// against the trait implementation: the successor table against
/// `Protocol::transition`, the role table against `Protocol::output`,
/// and the leader-delta table against the roles of each pair and its
/// successors.
pub fn assert_table_agrees<P: Protocol + Clone>(protocol: &P, compiled: &CompiledProtocol<P>) {
    let states = compiled.states();
    assert!(!states.is_empty());
    let leader = |s: StateId| i8::from(compiled.role(s) == Role::Leader);
    for (a, sa) in states.iter().enumerate() {
        let a = a as StateId;
        assert_eq!(
            compiled.role(a),
            protocol.output(sa),
            "role table disagrees on {sa:?}"
        );
        for (b, sb) in states.iter().enumerate() {
            let b = b as StateId;
            let (na, nb) = protocol.transition(sa, sb);
            let na = compiled
                .state_id(&na)
                .expect("successor must be enumerated");
            let nb = compiled
                .state_id(&nb)
                .expect("successor must be enumerated");
            assert_eq!(
                compiled.successor(a, b),
                (na, nb),
                "transition table disagrees on ({sa:?}, {sb:?})"
            );
            assert_eq!(
                compiled.leader_delta(a, b),
                leader(na) + leader(nb) - leader(a) - leader(b),
                "leader delta disagrees on ({sa:?}, {sb:?})"
            );
        }
    }
}

/// Steps the generic, lazy and (when the protocol compiles under the
/// default AOT cap) dense engines in lockstep from the clean initial
/// configuration, comparing sampled pairs and stability verdicts, then
/// pushes all of them through their batched paths and compares the full
/// configurations and outcomes.
///
/// Returns whether the AOT leg ran, so matrix callers can *demand*
/// three-way coverage while cap-overflow suites (which separately
/// assert the compile fails) get the two-way comparison they document.
pub fn assert_trace_identical<P: Protocol + Clone>(
    p: &P,
    g: &Graph,
    seed: u64,
    lockstep: usize,
    batched: u64,
) -> bool {
    let compiled = CompiledProtocol::compile_default(p, g.num_nodes()).ok();
    let mut generic = Executor::new(g, p, seed);
    let mut lazy = LazyDenseExecutor::new(g, p, seed);
    let mut dense = compiled.as_ref().map(|c| DenseExecutor::new(g, c, seed));
    for i in 0..lockstep {
        let step = generic.step();
        assert_eq!(step, lazy.step(), "{g} lazy diverged at step {i}");
        assert_eq!(generic.is_stable(), lazy.is_stable(), "{g} step {i}");
        if let Some(d) = dense.as_mut() {
            assert_eq!(step, d.step(), "{g} dense diverged at step {i}");
            assert_eq!(generic.is_stable(), d.is_stable(), "{g} step {i}");
        }
    }
    generic.run_steps(batched);
    lazy.run_steps(batched);
    if let Some(d) = dense.as_mut() {
        d.run_steps(batched);
    }
    for v in 0..g.num_nodes() {
        assert_eq!(
            generic.states()[v as usize],
            *lazy.state_of(v),
            "{g} lazy diverged at node {v}"
        );
        if let Some(d) = dense.as_ref() {
            assert_eq!(
                generic.states()[v as usize],
                *d.state_of(v),
                "{g} dense diverged at node {v}"
            );
        }
    }
    assert_eq!(generic.is_stable(), lazy.is_stable(), "{g} after batch");
    assert_eq!(generic.outcome(), lazy.outcome(), "{g} lazy outcome");
    if let Some(d) = dense.as_mut() {
        assert_eq!(generic.is_stable(), d.is_stable(), "{g} after batch");
        assert_eq!(generic.outcome(), d.outcome(), "{g} dense outcome");
    }
    dense.is_some()
}

/// Steps all three engines in lockstep from one shared *arbitrary*
/// configuration (the self-stabilization workload: the lazy engine must
/// intern unseen states on first sight, the AOT engine needs its
/// closure seeded with the sampler's support), comparing sampled pairs,
/// per-node states and stability verdicts, then pushes all three
/// through their batched paths and compares outcomes.
pub fn assert_trace_identical_from<P: ArbitraryInit + Clone>(
    p: &P,
    g: &Graph,
    seed: u64,
    lockstep: usize,
    batched: u64,
) {
    let config = arbitrary_config(p, g.num_nodes(), arbitrary_seed(seed));
    let compiled =
        CompiledProtocol::compile_with_seeds(p, g.num_nodes(), 1 << 14, &p.arbitrary_support())
            .expect("test support fits a large cap");
    let mut generic = Executor::new(g, p, seed);
    let mut dense = DenseExecutor::new(g, &compiled, seed);
    let mut lazy = LazyDenseExecutor::new(g, p, seed);
    generic.set_configuration(&config);
    dense.set_configuration(&config);
    lazy.set_configuration(&config);
    for i in 0..lockstep {
        let step = generic.step();
        assert_eq!(step, dense.step(), "{g} dense diverged at step {i}");
        assert_eq!(step, lazy.step(), "{g} lazy diverged at step {i}");
        assert_eq!(generic.is_stable(), dense.is_stable(), "{g} step {i}");
        assert_eq!(generic.is_stable(), lazy.is_stable(), "{g} step {i}");
    }
    generic.run_steps(batched);
    dense.run_steps(batched);
    lazy.run_steps(batched);
    for v in 0..g.num_nodes() {
        assert_eq!(
            generic.states()[v as usize],
            *dense.state_of(v),
            "{g} dense diverged at node {v}"
        );
        assert_eq!(
            generic.states()[v as usize],
            *lazy.state_of(v),
            "{g} lazy diverged at node {v}"
        );
    }
    assert_eq!(generic.outcome(), dense.outcome(), "{g} dense outcome");
    assert_eq!(generic.outcome(), lazy.outcome(), "{g} lazy outcome");
}

/// Full seeded elections (census enabled) compared between the generic
/// and AOT engines; the compile cap of 4096 admits the mid-size
/// parameterizations the default cap refuses.
pub fn diff_outcomes<P: Protocol + Clone>(p: &P, g: &Graph, seeds: &[u64], max_steps: u64) {
    let compiled = CompiledProtocol::compile(p, g.num_nodes(), 4096).unwrap();
    for &seed in seeds {
        let mut generic = Executor::new(g, p, seed);
        generic.enable_state_census();
        let mut dense = DenseExecutor::new(g, &compiled, seed);
        dense.enable_state_census();
        let a = generic.run_until_stable(max_steps);
        let b = dense.run_until_stable(max_steps);
        assert_eq!(a, b, "engines diverged on {g} with seed {seed}");
    }
}

/// Election times in parallel time (steps / n) from a trial batch;
/// panics if any trial exhausted its budget (these workloads stabilize
/// well within `u64::MAX`).
pub fn parallel_times(results: &[TrialResult], n: u64) -> Summary {
    Summary::from_slice(
        &results
            .iter()
            .map(|r| {
                let steps = r.stabilization_step.expect("trial must stabilize");
                steps as f64 / n as f64
            })
            .collect::<Vec<f64>>(),
    )
}

/// Asserts `a` and `b` agree within `tol` relative error.
pub fn assert_close(what: &str, a: f64, b: f64, tol: f64) {
    let rel = (a - b).abs() / b.abs().max(f64::EPSILON);
    assert!(
        rel <= tol,
        "{what}: count {a:.4} vs sequential {b:.4} (rel diff {rel:.4} > {tol})"
    );
}

/// The count tier's contract: exactness in distribution. Runs clique
/// elections of `protocol` through the sequential waterfall
/// (`dense_trials` trials on a materialized clique) and the count tier
/// (`count_trials` trials, graph-free — the count engine is an order of
/// magnitude cheaper here, so it usually gets the larger sample) and
/// compares mean, median and 0.9-quantile of the election-time
/// distributions. The master seeds differ so the samples are
/// independent; the tolerances are calibrated per protocol to ~4
/// standard errors of the difference at the given trial counts.
pub fn assert_distributions_match<P: Protocol + Clone>(
    protocol: &P,
    n: u64,
    (dense_trials, count_trials): (usize, usize),
    (tol_mean, tol_q): (f64, f64),
) {
    let graph = families::clique(u32::try_from(n).unwrap());
    let dense = run_trials_auto_prepared(
        &graph,
        protocol,
        &EngineSelection::prepare(protocol, graph.num_nodes()),
        0xD0_0D5,
        TrialOptions {
            trials: dense_trials,
            ..TrialOptions::default()
        },
    );
    let compiled = compile_for_count(protocol, n).expect("count tier compiles");
    let count = run_trials_count_prepared(
        &compiled,
        n,
        0xC0_0475,
        TrialOptions {
            trials: count_trials,
            ..TrialOptions::default()
        },
    );

    assert_eq!(dense.len(), dense_trials);
    assert_eq!(count.len(), count_trials);
    for r in &dense {
        assert_ne!(r.engine, Engine::Count, "baseline must be sequential");
    }
    for r in &count {
        assert_eq!(r.engine, Engine::Count);
        assert_eq!(r.leader, None, "count trials have no agent identity");
    }

    let dense = parallel_times(&dense, n);
    let count = parallel_times(&count, n);
    assert_close("mean parallel time", count.mean(), dense.mean(), tol_mean);
    assert_close(
        "median parallel time",
        count.median(),
        dense.median(),
        tol_q,
    );
    assert_close(
        "0.9-quantile parallel time",
        count.quantile(0.9),
        dense.quantile(0.9),
        tol_q,
    );
}
