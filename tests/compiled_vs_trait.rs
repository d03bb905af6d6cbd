//! The compiled dense engine's contract with the trait engine.
//!
//! Two layers of evidence:
//!
//! 1. **Table agreement** (property tests over protocol parameters):
//!    for every shipped protocol, every entry of the compiled `|Λ|²`
//!    transition table and role table must agree with what
//!    `Protocol::transition` / `Protocol::output` compute on the typed
//!    states — checked exhaustively over all enumerated state pairs.
//! 2. **Differential execution**: `DenseExecutor` must produce
//!    identical `Outcome`s (leader, stabilization step, census) to the
//!    generic `Executor` for the same protocol/graph/seed, across graph
//!    families, and the compiled Monte-Carlo path must be bit-identical
//!    regardless of thread count.

mod harness;

use harness::{assert_table_agrees, diff_outcomes};
use popele::engine::monte_carlo::{run_trials_auto_prepared, TrialOptions};
use popele::engine::{
    CompiledProtocol, DenseExecutor, EngineSelection, Executor, LeaderCountOracle, Protocol, Role,
};
use popele::graph::families;
use popele::protocols::clock::StreakClock;
use popele::protocols::params::FastParams;
use popele::protocols::{
    FastProtocol, IdentifierProtocol, MajorityProtocol, StarProtocol, TokenProtocol,
};
use proptest::prelude::*;

/// The streak clock of Section 5.1 wrapped as a `Protocol`, so the
/// clock subroutine's compiled table is validated like the full
/// protocols (it has no leader outputs; only the table is compared).
#[derive(Debug, Clone)]
struct ClockProtocol {
    h: u8,
}

impl Protocol for ClockProtocol {
    type State = StreakClock;
    type Oracle = LeaderCountOracle;

    fn initial_state(&self, _node: u32) -> StreakClock {
        StreakClock::new(self.h)
    }

    fn transition(&self, a: &StreakClock, b: &StreakClock) -> (StreakClock, StreakClock) {
        let (mut na, mut nb) = (*a, *b);
        na.on_interaction(true);
        nb.on_interaction(false);
        (na, nb)
    }

    fn output(&self, _state: &StreakClock) -> Role {
        Role::Follower
    }

    fn oracle(&self) -> LeaderCountOracle {
        LeaderCountOracle::new()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn token_table_agrees(n in 2u32..40) {
        let p = TokenProtocol::all_candidates();
        let c = CompiledProtocol::compile_default(&p, n).unwrap();
        prop_assert!(c.num_states() <= 6);
        assert_table_agrees(&p, &c);
    }

    #[test]
    fn token_subset_table_agrees(n in 3u32..20, candidate in 0u32..3) {
        let p = TokenProtocol::with_candidates(vec![candidate % n, (candidate + 1) % n]);
        let c = CompiledProtocol::compile_default(&p, n).unwrap();
        assert_table_agrees(&p, &c);
    }

    #[test]
    fn star_table_agrees(n in 2u32..50) {
        let p = StarProtocol::new();
        let c = CompiledProtocol::compile_default(&p, n).unwrap();
        prop_assert_eq!(c.num_states(), 3);
        assert_table_agrees(&p, &c);
    }

    #[test]
    fn majority_table_agrees(n in 3u32..30, a_frac in 1u32..5) {
        let a = (n * a_frac / 6).max(1);
        prop_assume!(2 * a != n && a <= n);
        let p = MajorityProtocol::new(a, n);
        let c = CompiledProtocol::compile_default(&p, n).unwrap();
        prop_assert!(c.num_states() <= 4);
        assert_table_agrees(&p, &c);
    }

    #[test]
    fn clock_table_agrees(h in 1u8..8) {
        let p = ClockProtocol { h };
        let c = CompiledProtocol::compile_default(&p, 8).unwrap();
        prop_assert!(c.num_states() <= usize::from(h) + 1);
        assert_table_agrees(&p, &c);
    }

    #[test]
    fn identifier_table_agrees(k in 1u32..4) {
        // Small k keeps the O(2^k·6) state space within the compile cap;
        // realistic k falls back to the generic engine by design.
        let p = IdentifierProtocol::new(k);
        let c = CompiledProtocol::compile(&p, 6, 4096).unwrap();
        assert_table_agrees(&p, &c);
    }

    #[test]
    fn fast_table_agrees(h in 1u8..3, big_l in 1u32..3, alpha in 2u32..4) {
        let p = FastProtocol::new(FastParams::new(h, big_l, alpha));
        let c = CompiledProtocol::compile(&p, 6, 4096).unwrap();
        assert_table_agrees(&p, &c);
    }
}

#[test]
fn differential_token_on_four_families() {
    let p = TokenProtocol::all_candidates();
    for g in [
        families::clique(24),
        families::cycle(24),
        families::star(24),
        families::torus(5, 5),
    ] {
        diff_outcomes(&p, &g, &[1, 17, 0xDEAD], 1 << 34);
    }
}

#[test]
fn differential_token_on_large_cliques_exercises_hint_buckets() {
    // For m ≥ 2¹⁶ the clique decoder's row-hint table is bucketed
    // (shift > 0) and the correction loop actually advances; n = 500
    // (m = 124 750, shift 1) and n = 1000 (m = 499 500, shift 3) cover
    // it. Trace equality over enough steps visits edges across the
    // whole triangular index range, including bucket boundaries.
    let p = TokenProtocol::all_candidates();
    for n in [500u32, 1000] {
        let g = families::clique(n);
        let compiled = CompiledProtocol::compile_default(&p, n).unwrap();
        let mut generic = Executor::new(&g, &p, u64::from(n));
        let mut dense = DenseExecutor::new(&g, &compiled, u64::from(n));
        for _ in 0..3000 {
            assert_eq!(generic.step(), dense.step(), "clique({n})");
        }
        // Push both sides through their batched runs too (run_steps
        // refills the pair buffer in budget-capped batches), then
        // compare configurations.
        generic.run_steps(20_000);
        dense.run_steps(20_000);
        for v in 0..n {
            assert_eq!(
                generic.states()[v as usize],
                *dense.state_of(v),
                "clique({n}) diverged at node {v}"
            );
        }
        assert_eq!(generic.is_stable(), dense.is_stable());
    }
}

#[test]
fn differential_token_on_csr_decoded_families() {
    // Node counts above 2¹⁶ push non-clique graphs onto the CSR edge
    // decoder (bucketed row hints + per-edge row deltas + column
    // gather). Trace equality against the generic executor across
    // sparse families with very different canonical edge-list shapes —
    // uniform rows (cycle), one giant row (star), 4-regular rows
    // (torus), and irregular random rows — pins the decode exactly.
    let p = TokenProtocol::all_candidates();
    for g in [
        families::cycle(70_000),
        families::star(70_000),
        families::torus(270, 270),
        popele::graph::random::random_regular_connected(70_000, 4, 11, 200),
    ] {
        let n = g.num_nodes();
        let compiled = CompiledProtocol::compile_default(&p, n).unwrap();
        let mut generic = Executor::new(&g, &p, 0xC5A);
        let mut dense = DenseExecutor::new(&g, &compiled, 0xC5A);
        for _ in 0..3000 {
            assert_eq!(generic.step(), dense.step(), "{g}");
        }
        // Push both engines through their batched paths too, then
        // compare the full configurations and stability verdicts.
        generic.run_steps(20_000);
        dense.run_steps(20_000);
        for v in 0..n {
            assert_eq!(
                generic.states()[v as usize],
                *dense.state_of(v),
                "{g} diverged at node {v}"
            );
        }
        assert_eq!(generic.is_stable(), dense.is_stable());
    }
}

#[test]
fn differential_star_protocol() {
    diff_outcomes(
        &StarProtocol::new(),
        &families::star(64),
        &[3, 4, 5],
        1 << 20,
    );
}

#[test]
fn differential_majority_on_three_families() {
    for g in [
        families::clique(15),
        families::cycle(15),
        families::star(15),
    ] {
        diff_outcomes(&MajorityProtocol::new(9, 15), &g, &[7, 8], 1 << 34);
    }
}

#[test]
fn differential_fast_protocol() {
    let p = FastProtocol::new(FastParams::new(1, 1, 2));
    for g in [families::clique(8), families::cycle(8)] {
        diff_outcomes(&p, &g, &[11, 12], 1 << 34);
    }
}

#[test]
fn differential_identifier_small_k() {
    // k = 2: 24 reachable states, compiled path available; its oracle is
    // *not* a pure leader count, exercising the typed-oracle dense path.
    let p = IdentifierProtocol::new(2);
    for g in [families::clique(10), families::path(6)] {
        diff_outcomes(&p, &g, &[21, 22], 1 << 34);
    }
}

#[test]
fn auto_trials_equal_generic_trials_and_threads_do_not_matter() {
    let g = families::clique(16);
    let p = TokenProtocol::all_candidates();
    let opts = |threads| TrialOptions {
        trials: 10,
        max_steps: 1 << 32,
        census: true,
        threads,
        ..TrialOptions::default()
    };
    let auto = EngineSelection::prepare(&p, 16);
    let generic = run_trials_auto_prepared(&g, &p, &EngineSelection::generic(), 0xC0FFEE, opts(1));
    let auto1 = run_trials_auto_prepared(&g, &p, &auto, 0xC0FFEE, opts(1));
    let auto4 = run_trials_auto_prepared(&g, &p, &auto, 0xC0FFEE, opts(4));
    assert_eq!(generic, auto1);
    assert_eq!(generic, auto4);

    let dense = EngineSelection::dense(CompiledProtocol::compile_default(&p, 16).unwrap());
    let dense1 = run_trials_auto_prepared(&g, &p, &dense, 0xC0FFEE, opts(1));
    let dense3 = run_trials_auto_prepared(&g, &p, &dense, 0xC0FFEE, opts(3));
    assert_eq!(generic, dense1);
    assert_eq!(dense1, dense3);
}

#[test]
fn fallback_for_uncompilable_protocols_is_transparent() {
    // Realistic identifier parameters exceed the default cap: the auto
    // path must leave the AOT engine (it picks the lazy engine — see
    // tests/lazy_vs_trait.rs for the selection tests) and still return
    // identical results.
    let g = families::clique(10);
    let p = IdentifierProtocol::new(12);
    assert!(CompiledProtocol::compile_default(&p, 10).is_err());
    let opts = TrialOptions {
        trials: 4,
        max_steps: 1 << 32,
        census: false,
        threads: 2,
        ..TrialOptions::default()
    };
    assert_eq!(
        run_trials_auto_prepared(&g, &p, &EngineSelection::generic(), 5, opts),
        run_trials_auto_prepared(&g, &p, &EngineSelection::prepare(&p, 10), 5, opts)
    );
}
