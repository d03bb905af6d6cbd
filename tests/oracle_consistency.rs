//! Cross-crate validation of every stability oracle against the literal
//! reachability definition of stability (exhaustive configuration-space
//! search on tiny instances).
//!
//! This is the safety net for the engine's O(1)-per-step stabilization
//! detection: if any oracle ever disagrees with the definition on these
//! instances, the corresponding measurement in the experiment harness
//! would be wrong.

use popele::engine::exhaustive::{
    check_stable_and_correct, validate_oracle_on_execution, Verdict, DEFAULT_CONFIG_LIMIT,
};
use popele::engine::{Executor, StabilityOracle};
use popele::graph::{families, Graph};
use popele::math::rng::SeedSeq;
use popele::protocols::identifier::IdState;
use popele::protocols::params::{identifier_bits, FastParams};
use popele::protocols::token::{Token, TokenState};
use popele::protocols::{FastProtocol, IdentifierProtocol, StarProtocol, TokenProtocol};

#[test]
fn token_oracle_exact_on_tiny_graphs() {
    let p = TokenProtocol::all_candidates();
    for (g, seed) in [
        (families::path(2), 1u64),
        (families::path(3), 2),
        (families::cycle(3), 3),
        (families::star(4), 4),
        (families::cycle(4), 5),
    ] {
        let steps = validate_oracle_on_execution(&p, &g, seed, 500, DEFAULT_CONFIG_LIMIT);
        assert!(steps < 500, "token should stabilize quickly on {g}");
    }
}

#[test]
fn token_oracle_exact_with_candidate_subsets() {
    let g = families::cycle(4);
    for candidates in [vec![0u32], vec![0, 2], vec![0, 1, 2, 3]] {
        let p = TokenProtocol::with_candidates(candidates.clone());
        let steps = validate_oracle_on_execution(&p, &g, 7, 500, DEFAULT_CONFIG_LIMIT);
        assert!(steps < 500, "candidates {candidates:?}");
    }
}

#[test]
fn identifier_oracle_exact_on_tiny_graphs() {
    // k = 1 keeps the reachable configuration space searchable.
    let p = IdentifierProtocol::new(1);
    for (g, seed) in [
        (families::path(2), 11u64),
        (families::path(3), 12),
        (families::cycle(3), 13),
    ] {
        let steps = validate_oracle_on_execution(&p, &g, seed, 400, DEFAULT_CONFIG_LIMIT);
        assert!(steps < 400, "identifier should stabilize quickly on {g}");
    }
}

/// Asserts that `exec`'s identifier oracle, updated step by step, equals
/// one rebuilt from its configuration.
fn assert_id_oracle_rebuilds(p: &IdentifierProtocol, exec: &Executor<'_, IdentifierProtocol>) {
    let mut rebuilt = p.oracle();
    rebuilt.recompute(p, exec.states());
    assert_eq!(exec.oracle(), &rebuilt, "k = {} on {}", p.k(), exec.graph());
}

/// Graphs of at most 64 nodes from four families.
fn small_graphs() -> [Graph; 4] {
    [
        families::clique(12),
        families::cycle(20),
        families::torus(8, 8),
        families::star(30),
    ]
}

/// Identifier lengths from tie-heavy (`k = 1`) to the sweep's own.
fn id_lengths(g: &Graph) -> [u32; 3] {
    [1, 4, identifier_bits(g.num_nodes(), false)]
}

#[test]
fn identifier_oracle_equals_rebuild_after_every_step() {
    let seq = SeedSeq::new(0x1D);
    for g in small_graphs() {
        for k in id_lengths(&g) {
            let p = IdentifierProtocol::new(k);
            let mut exec = Executor::new(&g, &p, seq.child(u64::from(k)));
            for step in 0..3000u32 {
                // Mid-run crashes put generating states back among
                // finished ones.
                if step % 700 == 350 {
                    exec.corrupt_to_initial(&[step % g.num_nodes()]);
                    assert_id_oracle_rebuilds(&p, &exec);
                }
                exec.step();
                assert_id_oracle_rebuilds(&p, &exec);
            }
        }
    }
}

/// An arbitrary identifier configuration on `n` nodes whose maximum
/// identifier is held by several candidates and several followers; the
/// others hold smaller finished or still-generating identifiers, with
/// arbitrary inner token states.
fn tied_maximum_start(p: &IdentifierProtocol, n: u32, seed: u64) -> Vec<IdState> {
    let threshold = p.threshold();
    let top = 2 * threshold - 1;
    let seq = SeedSeq::new(seed);
    (0..n)
        .map(|v| {
            let r = seq.child(u64::from(v));
            let id = match (v, r % 4) {
                (0..=3, _) | (_, 0) => top,
                (_, 1) => threshold + (r >> 8) % (top - threshold),
                _ => 1 + (r >> 8) % (threshold - 1),
            };
            let candidate = match v {
                0 | 1 => true,
                2 | 3 => false,
                _ => r & 16 != 0,
            };
            let token = [None, Some(Token::Black), Some(Token::White)][(r >> 5) as usize % 3];
            IdState {
                id,
                inner: TokenState { candidate, token },
            }
        })
        .collect()
}

#[test]
fn identifier_oracle_equals_rebuild_from_tied_arbitrary_starts() {
    for g in small_graphs() {
        for k in id_lengths(&g) {
            let p = IdentifierProtocol::new(k);
            for seed in 0..3u64 {
                let mut exec = Executor::new(&g, &p, seed);
                exec.set_configuration(&tied_maximum_start(&p, g.num_nodes(), seed));
                assert_id_oracle_rebuilds(&p, &exec);
                for step in 0..1500u32 {
                    if step == 600 {
                        exec.corrupt_to_initial(&[seed as u32]);
                    }
                    exec.step();
                    assert_id_oracle_rebuilds(&p, &exec);
                }
            }
        }
    }
}

#[test]
fn star_oracle_exact_on_stars() {
    for n in [2u32, 3, 5] {
        let steps = validate_oracle_on_execution(
            &StarProtocol::new(),
            &families::star(n),
            21,
            50,
            DEFAULT_CONFIG_LIMIT,
        );
        assert_eq!(steps, 1, "star protocol is a one-interaction election");
    }
}

#[test]
fn fast_oracle_exact_along_executions() {
    // Snapshot comparison at every step for the first 60 steps on a
    // single edge and a triangle (the config spaces stay enumerable).
    let p = FastProtocol::new(FastParams::new(1, 1, 2));
    for (g, seed, horizon) in [
        (families::clique(2), 31u64, 60u64),
        (families::cycle(3), 32, 40),
    ] {
        let mut exec = Executor::new(&g, &p, seed);
        for step in 0..horizon {
            let exhaustive = check_stable_and_correct(&p, &g, exec.states(), DEFAULT_CONFIG_LIMIT);
            match exhaustive {
                Verdict::Stable => {
                    assert!(
                        exec.is_stable(),
                        "step {step} on {g}: oracle too conservative"
                    )
                }
                Verdict::Unstable => {
                    assert!(!exec.is_stable(), "step {step} on {g}: oracle too eager")
                }
                Verdict::Inconclusive => panic!("search exploded on {g}"),
            }
            exec.step();
        }
    }
}

#[test]
fn initial_configurations_are_unstable() {
    // Leader election from identical states can never start stable (for
    // n ≥ 2 there are either 0 or ≥ 2 leaders initially).
    let g = families::path(3);
    let token = TokenProtocol::all_candidates();
    assert_eq!(
        check_stable_and_correct(
            &token,
            &g,
            &[
                token.initial_state(0),
                token.initial_state(1),
                token.initial_state(2)
            ],
            DEFAULT_CONFIG_LIMIT
        ),
        Verdict::Unstable
    );
    let id = IdentifierProtocol::new(1);
    assert_eq!(
        check_stable_and_correct(
            &id,
            &g,
            &[
                id.initial_state(0),
                id.initial_state(1),
                id.initial_state(2)
            ],
            DEFAULT_CONFIG_LIMIT
        ),
        Verdict::Unstable
    );
}

use popele::engine::Protocol;
