//! The count engine's contract with the sequential engines.
//!
//! The count-based batch engine consumes its random stream batch-wise,
//! so trace identity with the per-interaction engines is impossible *by
//! construction* — the contract is **exactness in distribution** with
//! respect to the uniform ordered-pair scheduler on a clique. Two
//! layers of evidence:
//!
//! 1. **Distribution-level differential tests** at population sizes
//!    both tiers can run (10³ up to `COUNT_MIN_AGENTS` = 2¹⁵): means
//!    and quantiles of election time in parallel time (steps/n) from
//!    [`run_trials_count_prepared`] must match the sequential engines on the
//!    same clique workload. Both sides are seeded, so each comparison
//!    is deterministic; the
//!    tolerances are ~4 standard errors of the difference at the given
//!    trial counts (from the measured relative standard deviations:
//!    ≈0.15 for the fast protocol, whose phase-clock concentrates the
//!    election, ≈0.47 for the token protocol's exponential endgame
//!    tail), so the *fast* rows resolve a ≳10% distributional shift
//!    and the token rows a ≳25% one. Sampler-level bias is pinned much
//!    tighter by the moment/χ² tests in `popele-math`.
//! 2. **Invariant checks at `n = 10⁸`**, where no differential baseline
//!    exists: population conservation after every batch epoch, a
//!    monotone leader-count trajectory for a protocol whose transitions
//!    never mint leaders, and determinism across identical seeds.
//!
//! Exact per-epoch mechanics are documented and unit-tested in
//! `crates/engine/src/dense/count.rs`.

mod harness;

use harness::assert_distributions_match;
use popele::engine::monte_carlo::{run_trials_count_prepared, TrialOptions};
use popele::engine::{compile_for_count, CountEngine, COUNT_MIN_AGENTS};
use popele::protocols::params::FastParams;
use popele::protocols::{FastProtocol, TokenProtocol};

/// The fast protocol at the clique's analytic *practical*
/// parameterization (broadcast time is the coupon-collector bound
/// `n ln n`, max degree `n − 1`, `m = n(n−1)/2`) — the general-graph
/// constants, exercising the waiting phase the clique-tuned flavour
/// below collapses.
fn clique_fast(n: u64) -> FastProtocol {
    let nf = n as f64;
    let m = n * (n - 1) / 2;
    FastProtocol::new(FastParams::practical(
        nf * nf.ln(),
        u32::try_from(n - 1).unwrap(),
        usize::try_from(m).unwrap(),
        u32::try_from(n).unwrap(),
    ))
}

#[test]
fn fast_election_distribution_matches_sequential_1024() {
    assert_distributions_match(&clique_fast(1024), 1024, (48, 96), (0.10, 0.18));
}

/// At `n = 4096` the trial split flips: the fast protocol compiles to
/// ~2·10³ states, so the count engine's per-epoch work (chained draws
/// over the active states) makes *it* the expensive side — the
/// documented economics of why batching only wins when `n ≫ |Λ|²`. The
/// smaller count sample widens the supportable tolerances accordingly.
#[test]
fn fast_election_distribution_matches_sequential_4096() {
    assert_distributions_match(&clique_fast(4096), 4096, (64, 16), (0.18, 0.35));
}

/// The clique-specialized parameterization ([`FastParams::clique_tuned`])
/// is what the count tier's large-clique benchmarks and sweep cells
/// actually run, so it gets its own differential guard: collapsing the
/// waiting phase must shift the election-time distribution identically
/// in both tiers. The duel endgame (last two contenders trading levels)
/// gives this configuration a heavier tail than the practical flavour,
/// hence the token-like tolerances.
#[test]
fn clique_tuned_election_distribution_matches_sequential_1024() {
    let protocol = FastProtocol::new(FastParams::clique_tuned(1024));
    assert_distributions_match(&protocol, 1024, (48, 96), (0.20, 0.30));
}

/// At `n = 2¹⁵` = [`COUNT_MIN_AGENTS`], the smallest population the
/// clique waterfall routes to the count tier, the two tiers still
/// overlap. It is also the first row whose batch draws reach the
/// Stirling range of the sampler's log-factorials (arguments ≥ 4096):
/// every population-sized `ln C(n, ·)` leaves the Lanczos-filled table,
/// while the 1024 row stays inside it and the 4096 row touches the
/// series only at `ln 4096!`.
#[test]
fn clique_tuned_election_distribution_matches_sequential_at_count_min_agents() {
    let n = COUNT_MIN_AGENTS;
    let protocol = FastProtocol::new(FastParams::clique_tuned(u32::try_from(n).unwrap()));
    assert_distributions_match(&protocol, n, (48, 48), (0.20, 0.30));
}

#[test]
fn token_election_distribution_matches_sequential_1000() {
    let protocol = TokenProtocol::all_candidates();
    assert_distributions_match(&protocol, 1000, (64, 128), (0.25, 0.30));
}

/// At `n = 10⁸` no sequential engine can provide a baseline (a clique
/// edge list alone would be ~10¹⁶ pairs), so correctness is pinned by
/// the invariants the batch algebra must preserve: every epoch moves
/// counts between states without creating or destroying agents, and the
/// token protocol never mints a leader, so its leader count can only
/// fall.
#[test]
fn invariants_hold_at_1e8_agents() {
    const N: u64 = 100_000_000;
    let protocol = TokenProtocol::all_candidates();
    let compiled = compile_for_count(&protocol, N).expect("token compiles for count");
    let mut engine = CountEngine::new(&compiled, N, 0xBEEF);
    assert_eq!(engine.counts().iter().sum::<u64>(), N);

    let mut prev_leaders = engine.leader_count();
    for _ in 0..24 {
        engine.run_steps(2_000_000);
        assert_eq!(
            engine.counts().iter().sum::<u64>(),
            N,
            "population not conserved after a batch epoch"
        );
        let now = engine.leader_count();
        assert!(
            now <= prev_leaders,
            "leader count grew: {prev_leaders} -> {now}"
        );
        prev_leaders = now;
    }
}

/// The count tier is as deterministic as the sequential ones: the same
/// master seed reproduces every trial bit-for-bit, including at a
/// population no per-agent engine can hold.
#[test]
fn count_trials_are_deterministic_at_1e8_agents() {
    const N: u64 = 100_000_000;
    let protocol = TokenProtocol::all_candidates();
    let options = TrialOptions {
        trials: 2,
        max_steps: 50_000_000,
        ..TrialOptions::default()
    };
    let compiled = compile_for_count(&protocol, N).unwrap();
    let a = run_trials_count_prepared(&compiled, N, 99, options);
    let b = run_trials_count_prepared(&compiled, N, 99, options);
    assert_eq!(a, b);
}
