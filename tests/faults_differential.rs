//! The fault-injection subsystem's determinism contract, end to end,
//! with the paper's real protocols:
//!
//! 1. **Empty-plan identity**: running through the fault machinery with
//!    an empty [`FaultPlan`] is *trace-identical* to today's fault-free
//!    runs — same interaction sequence, same `Outcome`s, on both
//!    engines, and the faulted Monte-Carlo entry points return the very
//!    same results as the plain ones.
//! 2. **Engine agreement under faults**: for any plan (corruption,
//!    churn, rewiring) the generic and compiled engines produce
//!    identical reports — the scheduler stream survives graph changes
//!    and the dense engine's edge decoders are rebuilt correctly.
//! 3. **Thread/shard invariance**: fault-injected Monte-Carlo results
//!    are bit-identical across thread counts and `first_trial` shards.
//! 4. **One resync per corruption burst** on every tier.

use popele::engine::faults::{
    fault_seed, run_with_faults, FaultKind, FaultPlan, FaultReport, FaultTarget,
};
use popele::engine::monte_carlo::{
    run_trials_auto_prepared, run_trials_auto_with_faults_prepared as faulted_trials, TrialOptions,
};
use popele::engine::{
    CompiledProtocol, DenseExecutor, EngineSelection, Executor, LazyDenseExecutor,
    LeaderCountOracle, Protocol, ResolvedFaultPlan, Role, StabilityOracle,
};
use popele::graph::{families, NodeId};
use popele::protocols::{MajorityProtocol, TokenProtocol};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn opts(threads: usize) -> TrialOptions {
    TrialOptions {
        trials: 6,
        max_steps: 1 << 22,
        threads,
        ..TrialOptions::default()
    }
}

/// A plan exercising every fault kind.
fn stress_plan() -> FaultPlan {
    FaultPlan::at(300, FaultKind::CorruptNodes { count: 3 })
        .and(600, FaultKind::RewireEdge)
        .and(900, FaultKind::JoinNode { degree: 2 })
        .and(1_200, FaultKind::LeaveNode)
        .and(1_500, FaultKind::AddEdge)
        .and(1_800, FaultKind::RemoveEdge)
        .and(2_100, FaultKind::CorruptNodes { count: 2 })
}

#[test]
fn empty_plan_is_trace_identical_to_fault_free_runs() {
    let protocol = TokenProtocol::all_candidates();
    for g in [
        families::clique(24),
        families::cycle(24),
        families::star(24),
    ] {
        let n = g.num_nodes();
        let empty = FaultPlan::empty();
        let resolved = empty.resolve(&g, fault_seed(5));

        // Generic engine: the faulted session must walk the exact same
        // trajectory as a plain run, step for step.
        let mut plain = Executor::new(&g, &protocol, 5);
        let baseline = plain.run_until_stable(1 << 24).unwrap();
        let mut faulted = Executor::new(&g, &protocol, 5);
        let report = run_with_faults(&mut faulted, &resolved, 1 << 24);
        assert_eq!(report.result.as_ref().unwrap(), &baseline, "{g}");
        assert!(report.trajectory.is_empty());
        assert_eq!(report.recovery.last_fault_step, 0);

        // Compiled engine: same identity.
        let compiled = CompiledProtocol::compile_default(&protocol, n).unwrap();
        let mut plain = DenseExecutor::new(&g, &compiled, 5);
        let dense_baseline = plain.run_until_stable(1 << 24).unwrap();
        assert_eq!(dense_baseline, baseline);
        let mut faulted = DenseExecutor::new(&g, &compiled, 5);
        let report = run_with_faults(&mut faulted, &resolved, 1 << 24);
        assert_eq!(report.result.unwrap(), baseline, "{g} dense");
    }
}

#[test]
fn empty_plan_monte_carlo_matches_plain_entry_points() {
    let g = families::cycle(16);
    let protocol = TokenProtocol::all_candidates();
    let empty = FaultPlan::empty();
    let (auto, generic) = (
        EngineSelection::prepare(&protocol, 16),
        EngineSelection::generic(),
    );
    let plain = run_trials_auto_prepared(&g, &protocol, &auto, 77, opts(2));
    assert_eq!(
        faulted_trials(&g, &protocol, &auto, 77, opts(2), &empty),
        plain
    );
    assert_eq!(
        faulted_trials(&g, &protocol, &generic, 77, opts(2), &empty),
        plain
    );
    assert!(plain.iter().all(|r| r.recovery.is_none()));
}

#[test]
fn engines_agree_on_faulted_token_elections() {
    let protocol = TokenProtocol::all_candidates();
    let plan = stress_plan();
    for g in [
        families::clique(20),
        families::cycle(20),
        families::star(20),
        families::torus(5, 4),
    ] {
        let n = g.num_nodes();
        let compiled = CompiledProtocol::compile_default(&protocol, n + plan.max_joins()).unwrap();
        for seed in [1u64, 9, 42] {
            let resolved = plan.resolve(&g, fault_seed(seed));
            let mut generic = Executor::new(&g, &protocol, seed);
            let a = run_with_faults(&mut generic, &resolved, 1 << 24);
            let mut dense = DenseExecutor::new(&g, &compiled, seed);
            let b = run_with_faults(&mut dense, &resolved, 1 << 24);
            assert_eq!(a.result, b.result, "{g} seed {seed}");
            assert_eq!(a.trajectory, b.trajectory, "{g} seed {seed}");
            assert_eq!(a.recovery, b.recovery, "{g} seed {seed}");
        }
    }
}

#[test]
fn faulted_trials_match_across_engines_and_threads() {
    let g = families::cycle(18);
    let protocol = MajorityProtocol::new(11, 18);
    let plan =
        FaultPlan::at(400, FaultKind::CorruptNodes { count: 4 }).and(800, FaultKind::RewireEdge);
    let dense = EngineSelection::dense(CompiledProtocol::compile_default(&protocol, 18).unwrap());
    let auto = EngineSelection::prepare(&protocol, 18);

    let generic = faulted_trials(
        &g,
        &protocol,
        &EngineSelection::generic(),
        3,
        opts(1),
        &plan,
    );
    let dense = faulted_trials(&g, &protocol, &dense, 3, opts(1), &plan);
    let auto_results = faulted_trials(&g, &protocol, &auto, 3, opts(1), &plan);
    assert_eq!(generic, dense);
    assert_eq!(generic, auto_results);
    assert!(generic.iter().all(|r| r.recovery.is_some()));

    // Thread counts never leak into results.
    for threads in [2, 4, 8] {
        assert_eq!(
            faulted_trials(&g, &protocol, &auto, 3, opts(threads), &plan),
            generic,
            "{threads} threads"
        );
    }
}

#[test]
fn faulted_shards_equal_one_big_run() {
    let g = families::clique(14);
    let protocol = TokenProtocol::all_candidates();
    let plan = FaultPlan::at(500, FaultKind::CorruptNodes { count: 3 })
        .and(1_000, FaultKind::JoinNode { degree: 3 });
    let auto = EngineSelection::prepare(&protocol, g.num_nodes() + plan.max_joins());
    let whole = faulted_trials(
        &g,
        &protocol,
        &auto,
        55,
        TrialOptions {
            trials: 9,
            max_steps: 1 << 22,
            threads: 2,
            ..TrialOptions::default()
        },
        &plan,
    );
    let mut sharded = Vec::new();
    for (first_trial, trials) in [(0, 4), (4, 3), (7, 2)] {
        sharded.extend(faulted_trials(
            &g,
            &protocol,
            &auto,
            55,
            TrialOptions {
                trials,
                first_trial,
                max_steps: 1 << 22,
                threads: 2,
                ..TrialOptions::default()
            },
            &plan,
        ));
    }
    assert_eq!(whole, sharded);
    // Faults actually fired: corruption re-promotes candidates.
    assert!(whole
        .iter()
        .all(|r| r.recovery.expect("faulted").faults_applied >= 1));
}

/// The token protocol behind an oracle that counts its rebuilds and does
/// not declare itself a plain leader count, so every tier resyncs it
/// typed.
#[derive(Clone)]
struct CountedToken {
    inner: TokenProtocol,
    recomputes: Arc<AtomicUsize>,
}

struct CountingOracle(LeaderCountOracle);

type TokenState = <TokenProtocol as Protocol>::State;

impl StabilityOracle<CountedToken> for CountingOracle {
    fn recompute(&mut self, p: &CountedToken, config: &[TokenState]) {
        p.recomputes.fetch_add(1, Ordering::Relaxed);
        self.0.recompute(&p.inner, config);
    }

    fn apply(
        &mut self,
        p: &CountedToken,
        old: (&TokenState, &TokenState),
        new: (&TokenState, &TokenState),
    ) {
        self.0.apply(&p.inner, old, new);
    }

    fn is_stable(&self) -> bool {
        StabilityOracle::<TokenProtocol>::is_stable(&self.0)
    }
}

impl Protocol for CountedToken {
    type State = TokenState;
    type Oracle = CountingOracle;

    fn initial_state(&self, node: NodeId) -> Self::State {
        self.inner.initial_state(node)
    }

    fn transition(&self, a: &Self::State, b: &Self::State) -> (Self::State, Self::State) {
        self.inner.transition(a, b)
    }

    fn output(&self, s: &Self::State) -> Role {
        self.inner.output(s)
    }

    fn oracle(&self) -> CountingOracle {
        CountingOracle(LeaderCountOracle::new())
    }
}

/// Oracle rebuilds `exec` makes while it runs through `resolved`, and
/// the report of that run.
fn recomputes_during<'g, T: FaultTarget<'g>>(
    exec: &mut T,
    resolved: &'g ResolvedFaultPlan,
    counter: &AtomicUsize,
) -> (usize, FaultReport) {
    let before = counter.load(Ordering::Relaxed);
    let report = run_with_faults(exec, resolved, 1 << 20);
    (counter.load(Ordering::Relaxed) - before, report)
}

#[test]
fn corrupt_bursts_resync_once_on_every_tier() {
    // Three bursts of five nodes: one oracle rebuild per burst, not one
    // per node, on the generic, AOT and lazy tiers alike.
    let g = families::clique(16);
    let plan = FaultPlan::periodic(FaultKind::CorruptNodes { count: 5 }, 1_000, 1_000, 3);
    let resolved = plan.resolve(&g, fault_seed(5));
    let p = CountedToken {
        inner: TokenProtocol::all_candidates(),
        recomputes: Arc::default(),
    };
    let counter = &p.recomputes;
    let compiled = CompiledProtocol::compile_default(&p, 16).unwrap();

    let (generic, expected) = recomputes_during(&mut Executor::new(&g, &p, 5), &resolved, counter);
    let (dense, dense_report) = recomputes_during(
        &mut DenseExecutor::new(&g, &compiled, 5),
        &resolved,
        counter,
    );
    let (lazy, lazy_report) =
        recomputes_during(&mut LazyDenseExecutor::new(&g, &p, 5), &resolved, counter);

    assert_eq!(expected.recovery.faults_applied, 3);
    assert_eq!((generic, dense, lazy), (3, 3, 3));
    for report in [dense_report, lazy_report] {
        assert_eq!(report.result, expected.result);
        assert_eq!(report.trajectory, expected.trajectory);
    }
}
