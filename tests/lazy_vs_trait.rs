//! The lazy dense engine's contract with the trait engine — and the
//! three-way engine selection built on top of it.
//!
//! Three layers of evidence:
//!
//! 1. **Differential execution**: `LazyDenseExecutor` must produce the
//!    identical interaction sequence, configurations and `Outcome`s as
//!    the generic `Executor` for the same protocol/graph/seed — pinned
//!    here for exactly the workloads the ahead-of-time engine cannot
//!    take (the identifier protocol at realistic `k`, full-scale fast
//!    instances) across every decoder family (clique / packed / CSR),
//!    with and without fault plans (corruption, churn, rewire).
//! 2. **Monte-Carlo equivalence**: the lazy trial runners must be
//!    bit-identical to the generic ones across thread counts and
//!    shardings (warm pair caches must never leak into results).
//! 3. **Engine selection**: `run_trials_auto` must pick the documented
//!    engine for each of the workspace's protocols at representative
//!    sizes, record that choice in `TrialResult::engine`, and reach the
//!    cap-overflow verdict through the bounded overflow walk (cheap
//!    selection).
//! 4. **Mid-run hand-off**: a lazy trial whose pair cache stops paying
//!    moves to the generic engine mid-run; the hand-off must fire on the
//!    miss-bound cells, spare the cache-friendly ones, and leave results
//!    (census included) equal to the generic engine's.

mod harness;

use harness::{assert_trace_identical, small_families};
use popele::engine::dense::{PairSource, PerAgentExecutor};
use popele::engine::faults::{fault_seed, run_with_faults, FaultKind, FaultPlan};
use popele::engine::monte_carlo::{
    lazy_handoff_step, run_trials_auto_prepared, run_trials_auto_with_faults_prepared, Engine,
    TrialOptions,
};
use popele::engine::{
    CompiledProtocol, DenseExecutor, EngineSelection, Executor, LazyDenseExecutor,
    LeaderCountOracle, Protocol, Role, DEFAULT_MAX_COMPILED_STATES,
};
use popele::graph::{families, Graph};
use popele::math::rng::SeedSeq;
use popele::protocols::params::{identifier_bits, FastParams};
use popele::protocols::{
    FastProtocol, IdentifierProtocol, MajorityProtocol, StarProtocol, TokenProtocol,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Identifier protocol at the simulation-realistic bit count for `n` —
/// the parameterization every sweep cell uses, whose state space
/// (`6·2^{k+1}`) overflows the AOT cap by orders of magnitude.
fn realistic_identifier(n: u32) -> IdentifierProtocol {
    IdentifierProtocol::new(identifier_bits(n, false))
}

/// Full-scale fast-protocol parameters: what `FastParams::practical`
/// derives for the large sparse sweep cells (cycle/star at n = 80 000:
/// the broadcast/degree ratio gives h = 17, L = ⌈log₂ n⌉ = 17). The
/// reachable state space is ≈ 2 200 states — past the AOT cap, so these
/// instances ride the lazy engine. (Dense families derive small h and
/// keep compiling ahead of time; the crossover is around n ≈ 16 000 on
/// sparse families.)
fn full_scale_fast() -> FastProtocol {
    FastProtocol::new(FastParams::new(17, 17, 4))
}

#[test]
fn identifier_realistic_k_trace_identical_on_all_small_families() {
    for g in small_families(64) {
        let p = realistic_identifier(g.num_nodes());
        assert!(
            CompiledProtocol::compile_default(&p, g.num_nodes()).is_err(),
            "realistic k must overflow the AOT cap on {g}"
        );
        assert_trace_identical(&p, &g, 0x1D0 ^ u64::from(g.num_nodes()), 3000, 20_000);
    }
}

#[test]
fn identifier_realistic_k_elections_equal_generic() {
    // Full elections (not just fixed-step traces) on the families where
    // they finish quickly at n = 64.
    for g in [
        families::clique(64),
        families::star(64),
        families::torus(8, 8),
    ] {
        let p = realistic_identifier(g.num_nodes());
        for seed in [3u64, 19] {
            let a = Executor::new(&g, &p, seed)
                .run_until_stable(1 << 26)
                .unwrap_or_else(|_| panic!("generic timed out on {g}"));
            let b = LazyDenseExecutor::new(&g, &p, seed)
                .run_until_stable(1 << 26)
                .unwrap_or_else(|_| panic!("lazy timed out on {g}"));
            assert_eq!(a, b, "{g} seed {seed}");
        }
    }
}

#[test]
fn identifier_realistic_k_trace_identical_on_csr_families() {
    // Node counts above 2¹⁶ push non-clique graphs onto the CSR edge
    // decoder; the identifier state space at the matching realistic k
    // (k = 34) is astronomically beyond the AOT cap.
    for g in [
        families::cycle(70_000),
        families::star(70_000),
        families::torus(270, 270),
    ] {
        let p = realistic_identifier(g.num_nodes());
        assert_trace_identical(&p, &g, 0xC5A, 2000, 20_000);
    }
}

#[test]
fn full_scale_fast_trace_identical_on_all_small_families() {
    for g in small_families(64) {
        let p = full_scale_fast();
        assert!(
            CompiledProtocol::compile_default(&p, g.num_nodes()).is_err(),
            "full-scale fast params must overflow the AOT cap"
        );
        assert_trace_identical(&p, &g, 0xFA57, 3000, 20_000);
    }
}

#[test]
fn full_scale_fast_trace_identical_at_full_scale() {
    // The actual full-scale workload: fast at n = 2000 (packed decoder)
    // and on a CSR-decoded family.
    for g in [families::cycle(2000), families::cycle(70_000)] {
        let p = full_scale_fast();
        assert_trace_identical(&p, &g, 0xF257, 2000, 30_000);
    }
}

/// The three fault-plan shapes of the acceptance grid.
fn fault_plans(n: u32) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "corrupt",
            FaultPlan::periodic(FaultKind::CorruptNodes { count: n / 8 }, 500, 700, 3),
        ),
        (
            "churn",
            FaultPlan::at(400, FaultKind::JoinNode { degree: 2 })
                .and(900, FaultKind::LeaveNode)
                .and(1400, FaultKind::JoinNode { degree: 3 })
                .and(1900, FaultKind::LeaveNode),
        ),
        (
            "rewire",
            FaultPlan::periodic(FaultKind::RewireEdge, 300, 500, 4),
        ),
    ]
}

#[test]
fn identifier_faulted_sessions_identical_across_engines() {
    let g = families::cycle(200);
    let p = realistic_identifier(200);
    for (label, plan) in fault_plans(200) {
        for seed in [5u64, 23] {
            let resolved = plan.resolve(&g, fault_seed(seed));
            let mut generic = Executor::new(&g, &p, seed);
            let generic_report = run_with_faults(&mut generic, &resolved, 400_000);
            let mut lazy = LazyDenseExecutor::new(&g, &p, seed);
            let lazy_report = run_with_faults(&mut lazy, &resolved, 400_000);
            assert_eq!(
                generic_report.result, lazy_report.result,
                "{label} seed {seed}"
            );
            assert_eq!(
                generic_report.trajectory, lazy_report.trajectory,
                "{label} seed {seed}"
            );
            assert_eq!(
                generic_report.recovery, lazy_report.recovery,
                "{label} seed {seed}"
            );
        }
    }
}

#[test]
fn full_scale_fast_faulted_sessions_identical_across_engines() {
    let g = families::torus(14, 14);
    let p = full_scale_fast();
    for (label, plan) in fault_plans(g.num_nodes()) {
        let seed = 31u64;
        let resolved = plan.resolve(&g, fault_seed(seed));
        let mut generic = Executor::new(&g, &p, seed);
        let generic_report = run_with_faults(&mut generic, &resolved, 400_000);
        let mut lazy = LazyDenseExecutor::new(&g, &p, seed);
        let lazy_report = run_with_faults(&mut lazy, &resolved, 400_000);
        assert_eq!(generic_report.result, lazy_report.result, "{label}");
        assert_eq!(generic_report.trajectory, lazy_report.trajectory, "{label}");
        assert_eq!(generic_report.recovery, lazy_report.recovery, "{label}");
    }
}

#[test]
fn lazy_trials_bit_identical_across_threads_and_shards() {
    let (generic_tier, lazy_tier) = (EngineSelection::generic(), EngineSelection::lazy());
    // Warm per-worker pair caches must never leak into results: any
    // thread count and any sharding reproduces the generic run exactly.
    let g = families::cycle(48);
    let p = realistic_identifier(48);
    let opts = |threads, first_trial, trials| TrialOptions {
        trials,
        first_trial,
        max_steps: 1 << 22,
        census: false,
        threads,
        ..TrialOptions::default()
    };
    let generic = run_trials_auto_prepared(&g, &p, &generic_tier, 0xBEEF, opts(1, 0, 8));
    let lazy1 = run_trials_auto_prepared(&g, &p, &lazy_tier, 0xBEEF, opts(1, 0, 8));
    let lazy4 = run_trials_auto_prepared(&g, &p, &lazy_tier, 0xBEEF, opts(4, 0, 8));
    assert_eq!(generic, lazy1);
    assert_eq!(generic, lazy4);
    let mut sharded = Vec::new();
    for (start, len) in [(0, 3), (3, 3), (6, 2)] {
        sharded.extend(run_trials_auto_prepared(
            &g,
            &p,
            &lazy_tier,
            0xBEEF,
            opts(2, start, len),
        ));
    }
    assert_eq!(generic, sharded);
}

#[test]
fn lazy_faulted_trials_equal_generic_faulted_trials() {
    let (generic_tier, lazy_tier) = (EngineSelection::generic(), EngineSelection::lazy());
    let g = families::cycle(64);
    let p = realistic_identifier(64);
    let plan = FaultPlan::at(800, FaultKind::CorruptNodes { count: 8 })
        .and(1600, FaultKind::JoinNode { degree: 2 })
        .and(2400, FaultKind::RewireEdge);
    let opts = |threads| TrialOptions {
        trials: 6,
        max_steps: 300_000,
        census: false,
        threads,
        ..TrialOptions::default()
    };
    let generic = run_trials_auto_with_faults_prepared(&g, &p, &generic_tier, 0xFA, opts(1), &plan);
    let lazy1 = run_trials_auto_with_faults_prepared(&g, &p, &lazy_tier, 0xFA, opts(1), &plan);
    let lazy3 = run_trials_auto_with_faults_prepared(&g, &p, &lazy_tier, 0xFA, opts(3), &plan);
    assert_eq!(generic, lazy1);
    assert_eq!(generic, lazy3);
    // The auto path picks the lazy engine for this workload and returns
    // the same results, tagged accordingly.
    let auto = EngineSelection::prepare(&p, g.num_nodes() + plan.max_joins());
    let auto = run_trials_auto_with_faults_prepared(&g, &p, &auto, 0xFA, opts(2), &plan);
    assert_eq!(generic, auto);
    assert!(auto.iter().all(|r| r.engine == Engine::LazyDense));
    assert!(generic.iter().all(|r| r.engine == Engine::Generic));
}

/// A state space nobody can bound: selection must keep it on the
/// generic engine (the lazy interner would grow without limit).
#[derive(Clone, Copy)]
struct UnboundedCounter;

impl Protocol for UnboundedCounter {
    type State = u64;
    type Oracle = LeaderCountOracle;

    fn initial_state(&self, _node: u32) -> u64 {
        0
    }

    fn transition(&self, a: &u64, b: &u64) -> (u64, u64) {
        (a + 1, *b)
    }

    fn output(&self, s: &u64) -> Role {
        if *s == 0 {
            Role::Leader
        } else {
            Role::Follower
        }
    }

    fn oracle(&self) -> LeaderCountOracle {
        LeaderCountOracle::new()
    }
}

#[test]
fn engine_selection_for_the_six_protocols() {
    // The constant-state protocols compile ahead of time at any size…
    assert_eq!(
        EngineSelection::prepare(&TokenProtocol::all_candidates(), 80_000).engine(),
        Engine::Dense
    );
    assert_eq!(
        EngineSelection::prepare(&StarProtocol::new(), 80_000).engine(),
        Engine::Dense
    );
    assert_eq!(
        EngineSelection::prepare(&MajorityProtocol::new(48_000, 80_000), 80_000).engine(),
        Engine::Dense
    );
    // …small-parameter fast instances too (the clock subroutine rides
    // inside them; its h+1 ≤ 61 states always fit)…
    assert_eq!(
        EngineSelection::prepare(&FastProtocol::new(FastParams::new(1, 1, 2)), 64).engine(),
        Engine::Dense
    );
    // …while the paper's flagship identifier protocol at realistic k
    // and full-scale fast instances take the lazy engine…
    assert_eq!(
        EngineSelection::prepare(&realistic_identifier(2000), 2000).engine(),
        Engine::LazyDense
    );
    assert_eq!(
        EngineSelection::prepare(&realistic_identifier(80_000), 80_000).engine(),
        Engine::LazyDense
    );
    assert_eq!(
        EngineSelection::prepare(&full_scale_fast(), 2000).engine(),
        Engine::LazyDense
    );
    // …and a protocol that cannot even bound its state space stays on
    // the generic reference engine.
    assert_eq!(
        EngineSelection::prepare(&UnboundedCounter, 16).engine(),
        Engine::Generic
    );
}

#[test]
fn recorded_engine_matches_selection() {
    let opts = TrialOptions {
        trials: 2,
        max_steps: 1 << 22,
        census: false,
        threads: 1,
        ..TrialOptions::default()
    };
    // AOT tier.
    let g = families::clique(32);
    let token = TokenProtocol::all_candidates();
    let tier = EngineSelection::prepare(&token, 32);
    assert_eq!(tier.engine(), Engine::Dense);
    let results = run_trials_auto_prepared(&g, &token, &tier, 1, opts);
    assert!(results.iter().all(|r| r.engine == Engine::Dense));
    // Lazy tier.
    let p = realistic_identifier(32);
    let tier = EngineSelection::prepare(&p, 32);
    assert_eq!(tier.engine(), Engine::LazyDense);
    let results = run_trials_auto_prepared(&g, &p, &tier, 1, opts);
    assert!(results.iter().all(|r| r.engine == Engine::LazyDense));
    // Generic tier (bounded budget: the counter never stabilizes).
    let tier = EngineSelection::prepare(&UnboundedCounter, 32);
    assert_eq!(tier.engine(), Engine::Generic);
    let results = run_trials_auto_prepared(
        &g,
        &UnboundedCounter,
        &tier,
        1,
        TrialOptions {
            max_steps: 1000,
            ..opts
        },
    );
    assert!(results.iter().all(|r| r.engine == Engine::Generic));
}

#[test]
fn engine_tag_is_provenance_not_identity() {
    let generic_tier = EngineSelection::generic();
    // The equality used by every differential assertion in this file
    // deliberately ignores the engine tag; everything else must count.
    let g = families::clique(16);
    let p = TokenProtocol::all_candidates();
    let opts = TrialOptions {
        trials: 2,
        max_steps: 1 << 22,
        threads: 1,
        ..TrialOptions::default()
    };
    let a = run_trials_auto_prepared(&g, &p, &generic_tier, 9, opts);
    let mut b = run_trials_auto_prepared(&g, &p, &EngineSelection::prepare(&p, 16), 9, opts);
    assert_ne!(a[0].engine, b[0].engine);
    assert_eq!(a, b);
    b[0].trial += 1;
    assert_ne!(a, b);
}

/// Forwards every call to `inner` and counts `transition` calls — the
/// work engine selection spends on a protocol.
#[derive(Clone)]
struct CountingTransitions<'a, P> {
    inner: P,
    calls: &'a AtomicUsize,
}

impl<P: Protocol> Protocol for CountingTransitions<'_, P> {
    type State = P::State;
    type Oracle = LeaderCountOracle;

    fn initial_state(&self, node: u32) -> P::State {
        self.inner.initial_state(node)
    }

    fn transition(&self, a: &P::State, b: &P::State) -> (P::State, P::State) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.transition(a, b)
    }

    fn output(&self, s: &P::State) -> Role {
        self.inner.output(s)
    }

    fn oracle(&self) -> LeaderCountOracle {
        LeaderCountOracle::new()
    }

    fn state_space_bound(&self) -> Option<u64> {
        self.inner.state_space_bound()
    }
}

#[test]
fn cap_overflow_verdict_is_reached_within_the_probe_budget() {
    // The regression the overflow walk exists for: selecting the lazy
    // tier for the identifier protocol must not re-run the BFS closure
    // to overflow. The walk spends at most three transition evaluations
    // per state and stops past the cap, so selection certifies the
    // overflow within 3·cap evaluations, which bounds its cost at
    // microseconds; more evaluations here would mean it fell back to the
    // expensive full compile on every sweep cell.
    for n in [2000u32, 80_000] {
        let calls = AtomicUsize::new(0);
        let p = CountingTransitions {
            inner: realistic_identifier(n),
            calls: &calls,
        };
        let selected = EngineSelection::prepare(&p, n).engine();
        let spent = calls.load(Ordering::Relaxed);
        assert_eq!(selected, Engine::LazyDense, "identifier at n = {n}");
        assert!(
            spent <= 3 * DEFAULT_MAX_COMPILED_STATES,
            "identifier at n = {n}: {spent} evaluations"
        );
    }
    // And the walk must never turn away a compilable protocol: the
    // token protocol's closure fits, so selection compiles it.
    assert_eq!(
        EngineSelection::prepare(&TokenProtocol::all_candidates(), 80_000).engine(),
        Engine::Dense
    );
}

/// Step budget of the CSR-scale hand-off tests: comfortably past the
/// identifier protocol's hand-off on `cycle(70000)` and `torus(270×270)`
/// (at step 147 456 on both for the seed below, 36 windows in).
const HANDOFF_BUDGET: u64 = 400_000;

/// The miss-bound cells: identifier generation at CSR scale, where
/// almost every interaction produces a never-seen state.
fn csr_identifier_graphs() -> [Graph; 2] {
    [families::cycle(70_000), families::torus(270, 270)]
}

#[test]
fn handoff_fires_on_miss_bound_cells_only() {
    let seed = SeedSeq::new(0x4A0D).child(0);
    for g in csr_identifier_graphs() {
        let p = realistic_identifier(g.num_nodes());
        assert!(
            lazy_handoff_step(&g, &p, seed, HANDOFF_BUDGET).is_some(),
            "identifier on {g} must hand off"
        );
    }
    // Fast at the parameters the sweep derives for clique(4000) (h = 16,
    // L = 12) is a lazy cell whose cache pays: it must stay lazy.
    let g = families::clique(4000);
    let fast = FastProtocol::new(FastParams::new(16, 12, 4));
    assert_eq!(
        EngineSelection::prepare(&fast, 4000).engine(),
        Engine::LazyDense
    );
    assert_eq!(lazy_handoff_step(&g, &fast, seed, 2_000_000), None);
    // So must identifier on the star, where the hub's interactions repeat.
    let g = families::star(70_000);
    let p = realistic_identifier(70_000);
    assert_eq!(lazy_handoff_step(&g, &p, seed, 2_000_000), None);
}

#[test]
fn handoff_trials_equal_generic_on_csr_families() {
    let (generic_tier, lazy_tier) = (EngineSelection::generic(), EngineSelection::lazy());
    let opts = |threads, first_trial, trials, census| TrialOptions {
        trials,
        first_trial,
        max_steps: HANDOFF_BUDGET,
        census,
        threads,
        ..TrialOptions::default()
    };
    for g in csr_identifier_graphs() {
        let p = realistic_identifier(g.num_nodes());
        let generic = run_trials_auto_prepared(&g, &p, &generic_tier, 0x4A0D, opts(1, 0, 3, false));
        assert_eq!(
            generic,
            run_trials_auto_prepared(&g, &p, &lazy_tier, 0x4A0D, opts(1, 0, 3, false))
        );
        assert_eq!(
            generic,
            run_trials_auto_prepared(&g, &p, &lazy_tier, 0x4A0D, opts(2, 0, 3, false))
        );
        let shard = run_trials_auto_prepared(&g, &p, &lazy_tier, 0x4A0D, opts(2, 1, 2, false));
        assert_eq!(generic[1..], shard[..], "{g} shard from trial 1");
        // Every trial times out at this budget, so the census — a count
        // that depends on the whole trace — is what tells the engines'
        // trajectories apart.
        let generic = run_trials_auto_prepared(&g, &p, &generic_tier, 0x4A0D, opts(2, 1, 2, true));
        let lazy = run_trials_auto_prepared(&g, &p, &lazy_tier, 0x4A0D, opts(1, 1, 2, true));
        assert!(generic.iter().all(|r| r.distinct_states.is_some()));
        assert_eq!(generic, lazy, "{g} with census");
    }
}

#[test]
fn handoff_census_equals_generic() {
    let (generic_tier, lazy_tier) = (EngineSelection::generic(), EngineSelection::lazy());
    // torus(63×63) hands off within its first three windows and elects
    // many windows later, so the census the generic engine inherits is
    // checked through complete elections, leader and step included.
    let g = families::torus(63, 63);
    let p = realistic_identifier(g.num_nodes());
    let seq = SeedSeq::new(7);
    for trial in 0..3 {
        assert!(lazy_handoff_step(&g, &p, seq.child(trial), 1 << 26).is_some());
    }
    let opts = TrialOptions {
        trials: 3,
        max_steps: 1 << 26,
        census: true,
        threads: 1,
        ..TrialOptions::default()
    };
    let generic = run_trials_auto_prepared(&g, &p, &generic_tier, 7, opts);
    let lazy = run_trials_auto_prepared(&g, &p, &lazy_tier, 7, opts);
    assert!(generic
        .iter()
        .all(|r| r.stabilization_step.is_some() && r.distinct_states.is_some()));
    assert_eq!(generic, lazy);
    assert!(lazy.iter().all(|r| r.engine == Engine::LazyDense));
}

/// Runs `exec` (fresh, seed 1) for `max_steps`, then resets it to each
/// of three seeds and requires every restart to equal a fresh executor
/// from `fresh` with that seed: the start outcome, the run's result and
/// the end outcome (census included when `census` is on).
fn assert_reset_is_fresh<'g, P: Protocol, S: PairSource<P>>(
    mut exec: PerAgentExecutor<'g, P, S>,
    fresh: impl Fn(u64) -> PerAgentExecutor<'g, P, S>,
    census: bool,
    max_steps: u64,
    what: &str,
) {
    if census {
        exec.enable_state_census();
    }
    let _ = exec.run_until_stable(max_steps);
    for seed in [2u64, 3, 4] {
        exec.reset(seed);
        let mut cold = fresh(seed);
        if census {
            cold.enable_state_census();
        }
        assert_eq!(exec.outcome(), cold.outcome(), "{what}: start, seed {seed}");
        assert_eq!(
            exec.run_until_stable(max_steps),
            cold.run_until_stable(max_steps),
            "{what}: run, seed {seed}"
        );
        assert_eq!(exec.outcome(), cold.outcome(), "{what}: end, seed {seed}");
    }
}

#[test]
fn reset_equals_fresh_construction_on_both_sources() {
    // Token's oracle is linear (the executor counts leaders itself);
    // fast's and identifier's are not, and both lazy runs skip `apply`
    // on inert cached effects (fast's streak-only clock ticks among
    // them). Small budgets leave some runs
    // unfinished, which the census then tells apart.
    let fast = FastProtocol::new(FastParams::new(2, 3, 2));
    let token = TokenProtocol::all_candidates();
    for g in [
        families::clique(24),
        families::cycle(24),
        families::torus(5, 5),
    ] {
        let n = g.num_nodes();
        let identifier = realistic_identifier(n);
        let token_table = CompiledProtocol::compile_default(&token, n).unwrap();
        let fast_table = CompiledProtocol::compile_default(&fast, n).unwrap();
        for census in [false, true] {
            let what = |p: &str| format!("{p} on {g}, census {census}");
            assert_reset_is_fresh(
                DenseExecutor::new(&g, &token_table, 1),
                |s| DenseExecutor::new(&g, &token_table, s),
                census,
                20_000,
                &what("AOT token"),
            );
            assert_reset_is_fresh(
                DenseExecutor::new(&g, &fast_table, 1),
                |s| DenseExecutor::new(&g, &fast_table, s),
                census,
                20_000,
                &what("AOT fast"),
            );
            assert_reset_is_fresh(
                LazyDenseExecutor::new(&g, &token, 1),
                |s| LazyDenseExecutor::new(&g, &token, s),
                census,
                20_000,
                &what("lazy token"),
            );
            assert_reset_is_fresh(
                LazyDenseExecutor::new(&g, &fast, 1),
                |s| LazyDenseExecutor::new(&g, &fast, s),
                census,
                20_000,
                &what("lazy fast"),
            );
            assert_reset_is_fresh(
                LazyDenseExecutor::new(&g, &identifier, 1),
                |s| LazyDenseExecutor::new(&g, &identifier, s),
                census,
                200_000,
                &what("lazy identifier"),
            );
        }
    }
}

#[test]
fn reset_after_churn_equals_fresh_construction() {
    // A reset re-initializes the population of the graph the executor
    // is bound to now: after a join on the grown graph, after a leave
    // on the shrunk one. The lazy source interns the joined node's
    // initial state on demand; the AOT table was compiled for n + 1.
    let p = realistic_identifier(24);
    let token = TokenProtocol::all_candidates();
    let (g, grown) = (families::cycle(24), families::cycle(25));
    let token_table = CompiledProtocol::compile_default(&token, 25).unwrap();
    for census in [false, true] {
        let mut lazy = LazyDenseExecutor::new(&g, &p, 1);
        let mut dense = DenseExecutor::new(&g, &token_table, 1);
        if census {
            lazy.enable_state_census();
            dense.enable_state_census();
        }
        lazy.run_steps(3000);
        dense.run_steps(3000);
        lazy.join_node(&grown);
        dense.join_node(&grown);
        assert_reset_is_fresh(
            lazy,
            |s| LazyDenseExecutor::new(&grown, &p, s),
            census,
            200_000,
            "lazy identifier after a join",
        );
        assert_reset_is_fresh(
            dense,
            |s| DenseExecutor::new(&grown, &token_table, s),
            census,
            20_000,
            "AOT token after a join",
        );

        let mut lazy = LazyDenseExecutor::new(&grown, &p, 1);
        let mut dense = DenseExecutor::new(&grown, &token_table, 1);
        if census {
            lazy.enable_state_census();
            dense.enable_state_census();
        }
        lazy.run_steps(3000);
        dense.run_steps(3000);
        lazy.leave_node(&g, 7);
        dense.leave_node(&g, 7);
        assert_reset_is_fresh(
            lazy,
            |s| LazyDenseExecutor::new(&g, &p, s),
            census,
            200_000,
            "lazy identifier after a leave",
        );
        assert_reset_is_fresh(
            dense,
            |s| DenseExecutor::new(&g, &token_table, s),
            census,
            20_000,
            "AOT token after a leave",
        );
    }
}
