//! The self-stabilization plumbing's contract across all three engines:
//! identical arbitrary start configurations must produce identical
//! traces, elections, holding times and recovery metrics on the
//! generic, ahead-of-time-compiled and lazily-compiling engines —
//! across every graph family of the acceptance grid, with and without
//! corrupt-burst fault plans, and independently of thread count and
//! sharding.
//!
//! This is also the acceptance test of PR 4's lazy design under a new
//! kind of load: arbitrary start states are *not* reachable from the
//! clean initial configuration, so the lazy engine must intern them on
//! first sight (`set_configuration`), while the ahead-of-time engine
//! needs its closure seeded with the sampler's support
//! (`CompiledProtocol::compile_with_seeds`).
//!
//! The `trial_driver_*` cases pin the one Monte-Carlo trial driver both
//! workloads share: every forced tier must equal the prepared auto
//! selection for clean-start elections and arbitrary-start holds alike.

mod harness;

use harness::{assert_trace_identical_from, small_families};
use popele::engine::monte_carlo::{
    run_trials_auto_with_faults_prepared, Engine, TrialOptions, TrialResult,
};
use popele::engine::stabilize::{
    arbitrary_config, arbitrary_seed, prepare_stabilize_engine, run_to_hold,
    run_trials_stabilize_auto_prepared as hold_trials, ArbitraryInit,
};
use popele::engine::{
    CompiledProtocol, EngineSelection, Executor, FaultKind, FaultPlan, LazyDenseExecutor,
    DEFAULT_MAX_COMPILED_STATES,
};
use popele::graph::families;
use popele::protocols::{LooseProtocol, RingLooseProtocol};

#[test]
fn loose_trace_identical_from_arbitrary_starts_on_all_families() {
    for g in small_families(36) {
        let p = LooseProtocol::new(24);
        assert_trace_identical_from(&p, &g, 0x5AB ^ u64::from(g.num_edges() as u32), 1500, 8_000);
    }
}

#[test]
fn ring_variant_trace_identical_from_arbitrary_starts() {
    let g = families::cycle(48);
    let p = RingLooseProtocol::for_ring(48);
    for seed in [3u64, 17, 40] {
        assert_trace_identical_from(&p, &g, seed, 1500, 8_000);
    }
}

#[test]
fn elect_and_hold_agree_across_engines() {
    // τ = 2 keeps holds short, so the violation step itself (not just
    // the election) is compared across engines within the budget.
    let p = LooseProtocol::new(2);
    for g in [families::clique(12), families::star(12)] {
        let config = arbitrary_config(&p, 12, arbitrary_seed(5));
        let compiled =
            CompiledProtocol::compile_with_seeds(&p, 12, 64, &p.arbitrary_support()).unwrap();
        let mut generic = Executor::new(&g, &p, 5);
        let mut dense = popele::engine::DenseExecutor::new(&g, &compiled, 5);
        let mut lazy = LazyDenseExecutor::new(&g, &p, 5);
        generic.set_configuration(&config);
        dense.set_configuration(&config);
        lazy.set_configuration(&config);
        let a = run_to_hold(&mut generic, 1 << 20);
        let b = run_to_hold(&mut dense, 1 << 20);
        let c = run_to_hold(&mut lazy, 1 << 20);
        assert_eq!(a.result, b.result, "{g}");
        assert_eq!(a.result, c.result, "{g}");
        assert_eq!(a.holding, b.holding, "{g}");
        assert_eq!(a.holding, c.holding, "{g}");
        assert!(a.holding.hold_steps.is_some(), "{g}: τ=2 must be violated");
    }
}

#[test]
fn stabilize_trials_agree_across_engines_under_corrupt_bursts() {
    // The acceptance scenario: arbitrary starts *and* corrupt bursts,
    // all engines, per-trial results compared exactly.
    let plan = FaultPlan::periodic(FaultKind::CorruptNodes { count: 6 }, 400, 400, 3);
    let opts = TrialOptions {
        trials: 5,
        max_steps: 1 << 19,
        census: true,
        threads: 2,
        ..TrialOptions::default()
    };
    for g in [families::clique(18), families::cycle(18)] {
        let p = LooseProtocol::new(16);
        let compiled =
            CompiledProtocol::compile_with_seeds(&p, 18, 256, &p.arbitrary_support()).unwrap();
        let (dense, auto) = (
            EngineSelection::dense(compiled),
            prepare_stabilize_engine(&p, 18),
        );
        let generic = hold_trials(&g, &p, &EngineSelection::generic(), 77, opts, &plan);
        let dense = hold_trials(&g, &p, &dense, 77, opts, &plan);
        let lazy = hold_trials(&g, &p, &EngineSelection::lazy(), 77, opts, &plan);
        let auto = hold_trials(&g, &p, &auto, 77, opts, &plan);
        assert_eq!(generic, dense, "{g}");
        assert_eq!(generic, lazy, "{g}");
        assert_eq!(generic, auto, "{g}");
        for r in &generic {
            let recovery = r.recovery.expect("burst plans attach recovery");
            // Bounded re-election is the family's headline property:
            // every trial re-elects after the last burst.
            assert!(recovery.reconvergence_steps.is_some(), "{g} trial lost");
            assert!(r.holding.is_some());
        }
    }
}

#[test]
fn stabilize_trials_are_thread_and_shard_invariant() {
    let g = families::torus(6, 6);
    let p = LooseProtocol::new(12);
    let opts = |first_trial, trials, threads| TrialOptions {
        trials,
        first_trial,
        max_steps: 1 << 19,
        census: false,
        threads,
        ..TrialOptions::default()
    };
    let (auto, empty) = (prepare_stabilize_engine(&p, 36), FaultPlan::empty());
    let whole = hold_trials(&g, &p, &auto, 9, opts(0, 9, 1), &empty);
    let threaded = hold_trials(&g, &p, &auto, 9, opts(0, 9, 4), &empty);
    assert_eq!(whole, threaded);
    let mut sharded = Vec::new();
    for (start, len) in [(0usize, 4usize), (4, 3), (7, 2)] {
        sharded.extend(hold_trials(&g, &p, &auto, 9, opts(start, len, 2), &empty));
    }
    assert_eq!(whole, sharded);
    assert_eq!(whole[5].trial, 5);
}

#[test]
fn large_budgets_ride_the_lazy_engine_trace_identically() {
    // τ = 2000 → 4002 states: past the AOT cap, but the state-space
    // bound is declared, so selection picks the lazy engine — which
    // must intern the arbitrary start states on first sight.
    let p = LooseProtocol::new(2000);
    assert!(
        CompiledProtocol::compile_default(&p, 64).is_err(),
        "large budgets must overflow the AOT cap"
    );
    let auto = prepare_stabilize_engine(&p, 64);
    assert_eq!(auto.engine(), Engine::LazyDense);
    let g = families::cycle(64);
    let config = arbitrary_config(&p, 64, arbitrary_seed(21));
    let mut generic = Executor::new(&g, &p, 21);
    let mut lazy = LazyDenseExecutor::new(&g, &p, 21);
    generic.set_configuration(&config);
    lazy.set_configuration(&config);
    for _ in 0..2000 {
        assert_eq!(generic.step(), lazy.step());
    }
    generic.run_steps(10_000);
    lazy.run_steps(10_000);
    assert_eq!(generic.outcome(), lazy.outcome());
    // The interner really did see states no clean run produces.
    assert!(lazy.table().num_states() > 64);

    let opts = TrialOptions {
        trials: 3,
        max_steps: 1 << 18,
        threads: 1,
        ..TrialOptions::default()
    };
    let empty = FaultPlan::empty();
    let auto = hold_trials(&g, &p, &auto, 4, opts, &empty);
    assert!(auto.iter().all(|r| r.engine == Engine::LazyDense));
    assert_eq!(
        auto,
        hold_trials(&g, &p, &EngineSelection::generic(), 4, opts, &empty)
    );
}

#[test]
fn ring_variant_at_csr_scale_matches_generic() {
    // n > 2¹⁶ pushes the dense engines onto the CSR edge decoder; the
    // ring bound 2n = 140 000 states is far past the AOT cap, so this
    // exercises lazy interning of a six-figure support at CSR sizes.
    let n = 70_000;
    let g = families::cycle(n);
    let p = RingLooseProtocol::for_ring(n);
    assert_eq!(prepare_stabilize_engine(&p, n).engine(), Engine::LazyDense);
    let config = arbitrary_config(&p, n, arbitrary_seed(8));
    let mut generic = Executor::new(&g, &p, 8);
    let mut lazy = LazyDenseExecutor::new(&g, &p, 8);
    generic.set_configuration(&config);
    lazy.set_configuration(&config);
    for _ in 0..1500 {
        assert_eq!(generic.step(), lazy.step());
    }
    generic.run_steps(10_000);
    lazy.run_steps(10_000);
    for v in (0..n).step_by(997) {
        assert_eq!(generic.states()[v as usize], *lazy.state_of(v));
    }
    assert_eq!(generic.outcome(), lazy.outcome());
}

#[test]
fn holding_metrics_are_internally_consistent() {
    let g = families::clique(16);
    let p = LooseProtocol::new(8);
    let results = hold_trials(
        &g,
        &p,
        &prepare_stabilize_engine(&p, 16),
        13,
        TrialOptions {
            trials: 8,
            max_steps: 1 << 19,
            threads: 2,
            ..TrialOptions::default()
        },
        &FaultPlan::empty(),
    );
    for r in &results {
        let h = r.holding.expect("stabilize trials attach holding");
        assert_eq!(h.elect_step, r.stabilization_step);
        match (h.elect_step, h.hold_steps, h.held_to_budget) {
            // Elected and violated: both phases fit the budget.
            (Some(e), Some(hold), false) => assert!(e + hold <= 1 << 19),
            // Elected, still holding at the budget (censored).
            (Some(_), None, true) => {}
            // Never elected.
            (None, None, false) => assert!(r.stabilization_step.is_none()),
            other => panic!("inconsistent holding metrics: {other:?}"),
        }
    }
}

/// What a driver case runs: the clean-start election or the
/// arbitrary-start elect-and-hold workload.
#[derive(Clone, Copy, Debug)]
enum Goal {
    Elect,
    Hold,
}

/// The prepared auto selection of `goal` followed by the three forced
/// tiers, labelled.
fn driver_selections(
    goal: Goal,
    p: &LooseProtocol,
    n: u32,
) -> Vec<(&'static str, EngineSelection<LooseProtocol>)> {
    let (auto, compiled) = match goal {
        Goal::Elect => (
            EngineSelection::prepare(p, n),
            CompiledProtocol::compile_default(p, n),
        ),
        Goal::Hold => (
            prepare_stabilize_engine(p, n),
            CompiledProtocol::compile_with_seeds(
                p,
                n,
                DEFAULT_MAX_COMPILED_STATES,
                &p.arbitrary_support(),
            ),
        ),
    };
    vec![
        ("auto", auto),
        ("generic", EngineSelection::generic()),
        ("lazy", EngineSelection::lazy()),
        ("dense", EngineSelection::dense(compiled.unwrap())),
    ]
}

fn driver_run(
    goal: Goal,
    g: &popele::graph::Graph,
    p: &LooseProtocol,
    selection: &EngineSelection<LooseProtocol>,
    options: TrialOptions,
    plan: &FaultPlan,
) -> Vec<TrialResult> {
    match goal {
        Goal::Elect => run_trials_auto_with_faults_prepared(g, p, selection, 0xD71, options, plan),
        Goal::Hold => hold_trials(g, p, selection, 0xD71, options, plan),
    }
}

/// Every forced tier equals the prepared auto selection — for both
/// goals, with an empty and a corrupt-burst plan, census on (with a
/// budget some elections miss, so the timed-out census snapshot is
/// compared) and off, on 1 and 3 threads over 7 trials (so workers
/// reuse their executors), and across `first_trial` shards that
/// concatenate to the whole run. The inert `TrialOptions::lanes` flag
/// changes nothing: on the forced AOT tier, eight trials (enough to
/// have engaged the removed lane engine) with it set equal the same
/// trials without it, all run on the dense tier.
#[test]
fn trial_driver_forced_tiers_equal_auto() {
    let n = 16;
    let g = families::cycle(n);
    let p = LooseProtocol::new(6);
    let corrupt = FaultPlan::at(20, FaultKind::CorruptNodes { count: 5 });
    for goal in [Goal::Elect, Goal::Hold] {
        let selections = driver_selections(goal, &p, n);
        for plan in [FaultPlan::empty(), corrupt.clone()] {
            for census in [false, true] {
                let max_steps = if census { TIMEOUT_BUDGET } else { 1 << 14 };
                for threads in [1, 3] {
                    let opts = |first_trial, trials| TrialOptions {
                        trials,
                        first_trial,
                        max_steps,
                        census,
                        threads,
                        ..TrialOptions::default()
                    };
                    let case = format!(
                        "{goal:?} faults={} census={census} threads={threads}",
                        !plan.is_empty()
                    );
                    let whole = driver_run(goal, &g, &p, &selections[0].1, opts(0, 7), &plan);
                    assert_eq!(whole.len(), 7);
                    assert_eq!(
                        whole.iter().all(|r| r.distinct_states.is_some()),
                        census,
                        "{case}"
                    );
                    if census && matches!(goal, Goal::Elect) {
                        let timeouts = whole.iter().filter(|r| r.stabilization_step.is_none());
                        // Some trials time out; clean starts also elect some.
                        let expected = if plan.is_empty() { 1..7 } else { 1..8 };
                        assert!(expected.contains(&timeouts.count()), "{case}");
                    }
                    for (label, selection) in &selections {
                        let results = driver_run(goal, &g, &p, selection, opts(0, 7), &plan);
                        assert_eq!(results, whole, "{case} {label}");
                        let mut sharded = Vec::new();
                        for (start, len) in [(0, 3), (3, 3), (6, 1)] {
                            sharded.extend(driver_run(
                                goal,
                                &g,
                                &p,
                                selection,
                                opts(start, len),
                                &plan,
                            ));
                        }
                        assert_eq!(sharded, whole, "{case} {label} sharded");
                        if *label == "dense" {
                            let flagged = TrialOptions {
                                lanes: true,
                                ..opts(0, 8)
                            };
                            let lanes = driver_run(goal, &g, &p, selection, flagged, &plan);
                            let plain = driver_run(goal, &g, &p, selection, opts(0, 8), &plan);
                            assert_eq!(lanes, plain, "{case} lanes");
                            assert!(
                                lanes.iter().all(|r| r.engine == Engine::Dense),
                                "{case} lanes"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// A budget at which some (not all) clean-start elections of the driver
/// cases time out: they stabilize after 38–45 steps.
const TIMEOUT_BUDGET: u64 = 41;
