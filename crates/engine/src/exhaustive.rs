//! Brute-force stability checking by configuration-space search.
//!
//! The definition of stability (Section 2.2) quantifies over *all*
//! configurations reachable under any schedule: `x` is stable if every
//! configuration reachable from `x` has the same output vector. This module
//! implements that definition literally by BFS over the reachable
//! configuration space. It is exponential and intended only for validating
//! the incremental [`crate::StabilityOracle`]s on tiny instances (`n ≤ 6`,
//! small state spaces).

use crate::dense::{CompiledProtocol, DenseExecutor, StateId};
use crate::executor::Executor;
use crate::protocol::{Protocol, Role};
use popele_graph::Graph;
use std::collections::{HashSet, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;

/// Maximum number of configurations explored before giving up.
pub const DEFAULT_CONFIG_LIMIT: usize = 2_000_000;

/// Outcome of an exhaustive reachability check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every reachable configuration has the same outputs as the start.
    Stable,
    /// Some reachable configuration changes some node's output.
    Unstable,
    /// The search exceeded the configuration limit.
    Inconclusive,
}

/// Checks, by exhaustive search, whether `config` is a *stable*
/// configuration of `protocol` on `graph`.
///
/// Walks [`Graph::edges`], so an implicit clique builds its `O(n²)` edge
/// list here — harmless at the tiny sizes an exhaustive search affords.
///
/// # Panics
///
/// Panics if `config.len() != graph.num_nodes()`.
#[must_use]
pub fn check_stability<P: Protocol>(
    protocol: &P,
    graph: &Graph,
    config: &[P::State],
    limit: usize,
) -> Verdict {
    search(
        graph,
        config,
        limit,
        |s| protocol.output(s),
        |a, b| protocol.transition(a, b),
    )
}

/// Checks whether `config` is stable **and correct** (exactly one leader).
#[must_use]
pub fn check_stable_and_correct<P: Protocol>(
    protocol: &P,
    graph: &Graph,
    config: &[P::State],
    limit: usize,
) -> Verdict {
    search_correct(
        graph,
        config,
        limit,
        |s| protocol.output(s),
        |a, b| protocol.transition(a, b),
    )
}

/// Exhaustively verifies that the protocol's own oracle agrees with the
/// definition of stability along one sampled execution.
///
/// Runs an execution for at most `max_steps` interactions, and at every
/// step compares the oracle's verdict with [`check_stable_and_correct`].
/// Returns the number of steps checked.
///
/// # Panics
///
/// Panics (with a descriptive message) on the first disagreement, or if
/// the exhaustive search is inconclusive.
pub fn validate_oracle_on_execution<P: Protocol>(
    protocol: &P,
    graph: &Graph,
    seed: u64,
    max_steps: u64,
    limit: usize,
) -> u64 {
    validate(
        Executor::new(graph, protocol, seed),
        max_steps,
        Executor::states,
        Executor::is_stable,
        |exec| {
            exec.step();
        },
        |config| check_stable_and_correct(protocol, graph, config, limit),
    )
}

/// Dense-id fast path of [`check_stability`]: identical search, but
/// configurations are `Vec<StateId>` (hashed as flat `u16`s) and
/// successors come from the precomputed table instead of re-evaluating
/// `transition` — typically an order of magnitude more configurations
/// per second, which widens the instance sizes the oracle-validation
/// machinery can afford. Like [`check_stability`] it walks
/// [`Graph::edges`], materializing an implicit clique.
///
/// # Panics
///
/// Panics if `config.len() != graph.num_nodes()` or an id is out of
/// range for the compiled table.
#[must_use]
pub fn check_stability_compiled<P: Protocol>(
    compiled: &CompiledProtocol<P>,
    graph: &Graph,
    config: &[StateId],
    limit: usize,
) -> Verdict {
    search(
        graph,
        config,
        limit,
        |&s| compiled.role(s),
        |&a, &b| compiled.successor(a, b),
    )
}

/// Dense-id fast path of [`check_stable_and_correct`].
#[must_use]
pub fn check_stable_and_correct_compiled<P: Protocol>(
    compiled: &CompiledProtocol<P>,
    graph: &Graph,
    config: &[StateId],
    limit: usize,
) -> Verdict {
    search_correct(
        graph,
        config,
        limit,
        |&s| compiled.role(s),
        |&a, &b| compiled.successor(a, b),
    )
}

/// Dense-id fast path of [`validate_oracle_on_execution`]: drives a
/// [`DenseExecutor`] and validates the protocol's oracle against the
/// compiled reachability search at every step. Returns the number of
/// steps checked.
///
/// # Panics
///
/// Panics (with a descriptive message) on the first disagreement, or if
/// the exhaustive search is inconclusive.
pub fn validate_oracle_on_execution_compiled<P: Protocol>(
    compiled: &CompiledProtocol<P>,
    graph: &Graph,
    seed: u64,
    max_steps: u64,
    limit: usize,
) -> u64 {
    validate(
        DenseExecutor::new(graph, compiled, seed),
        max_steps,
        DenseExecutor::state_ids,
        DenseExecutor::is_stable,
        |exec| {
            exec.step();
        },
        |config| check_stable_and_correct_compiled(compiled, graph, config, limit),
    )
}

/// The breadth-first search behind both stability checkers, over any
/// state type: `role` reads a state's output, `successor` applies the
/// transition to an ordered pair.
fn search<S: Clone + Eq + Hash>(
    graph: &Graph,
    config: &[S],
    limit: usize,
    role: impl Fn(&S) -> Role,
    successor: impl Fn(&S, &S) -> (S, S),
) -> Verdict {
    assert_eq!(
        config.len(),
        graph.num_nodes() as usize,
        "configuration size must match graph"
    );
    let base_outputs: Vec<Role> = config.iter().map(&role).collect();

    let mut seen: HashSet<Vec<S>> = HashSet::new();
    let mut queue: VecDeque<Vec<S>> = VecDeque::new();
    seen.insert(config.to_vec());
    queue.push_back(config.to_vec());

    while let Some(current) = queue.pop_front() {
        // Compare outputs of this configuration with the base.
        for (s, &expected) in current.iter().zip(&base_outputs) {
            if role(s) != expected {
                return Verdict::Unstable;
            }
        }
        // Expand: every ordered adjacent pair.
        for &(u, v) in graph.edges() {
            for (a, b) in [(u, v), (v, u)] {
                let (ia, ib) = (a as usize, b as usize);
                let (na, nb) = successor(&current[ia], &current[ib]);
                if na == current[ia] && nb == current[ib] {
                    continue;
                }
                let mut next = current.clone();
                next[ia] = na;
                next[ib] = nb;
                if seen.insert(next.clone()) {
                    if seen.len() > limit {
                        return Verdict::Inconclusive;
                    }
                    queue.push_back(next);
                }
            }
        }
    }
    Verdict::Stable
}

/// [`search`] behind the exactly-one-leader gate of both
/// stable-and-correct checkers.
fn search_correct<S: Clone + Eq + Hash>(
    graph: &Graph,
    config: &[S],
    limit: usize,
    role: impl Fn(&S) -> Role,
    successor: impl Fn(&S, &S) -> (S, S),
) -> Verdict {
    if config.iter().filter(|s| role(s) == Role::Leader).count() != 1 {
        return Verdict::Unstable;
    }
    search(graph, config, limit, role, successor)
}

/// The loop behind both oracle validators: at every step up to
/// `max_steps`, the oracle's verdict `is_stable` on `exec` must match
/// the exhaustive `check` of the configuration `config` reads off it.
fn validate<E, S: Debug>(
    mut exec: E,
    max_steps: u64,
    config: impl Fn(&E) -> &[S],
    is_stable: impl Fn(&E) -> bool,
    step: impl Fn(&mut E),
    check: impl Fn(&[S]) -> Verdict,
) -> u64 {
    for t in 0..=max_steps {
        let exhaustive = check(config(&exec));
        let oracle = is_stable(&exec);
        match exhaustive {
            Verdict::Inconclusive => panic!("exhaustive search inconclusive at step {t}"),
            Verdict::Stable => assert!(
                oracle,
                "oracle says unstable but configuration is stable at step {t}: {:?}",
                config(&exec)
            ),
            Verdict::Unstable => assert!(
                !oracle,
                "oracle says stable but configuration is not at step {t}: {:?}",
                config(&exec)
            ),
        }
        if oracle {
            return t;
        }
        step(&mut exec);
    }
    max_steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::LeaderCountOracle;
    use popele_graph::families;
    use popele_graph::NodeId;

    #[derive(Clone, Copy)]
    struct Absorb;

    impl Protocol for Absorb {
        type State = bool;
        type Oracle = LeaderCountOracle;

        fn initial_state(&self, _node: NodeId) -> bool {
            true
        }

        fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
            if *a && *b {
                (true, false)
            } else {
                (*a, *b)
            }
        }

        fn output(&self, s: &bool) -> Role {
            if *s {
                Role::Leader
            } else {
                Role::Follower
            }
        }

        fn oracle(&self) -> LeaderCountOracle {
            LeaderCountOracle::new()
        }
    }

    /// A deliberately broken protocol: a lone leader can be *revived* by a
    /// follower-follower interaction, so one-leader configurations are NOT
    /// stable.
    #[derive(Clone, Copy)]
    struct Flicker;

    impl Protocol for Flicker {
        type State = u8; // 0 follower, 1 leader, 2 armed follower
        type Oracle = LeaderCountOracle;

        fn initial_state(&self, _node: NodeId) -> u8 {
            1
        }

        fn transition(&self, a: &u8, b: &u8) -> (u8, u8) {
            match (a, b) {
                (1, 1) => (1, 2),
                (2, 2) => (1, 0), // revives a leader
                (x, y) => (*x, *y),
            }
        }

        fn output(&self, s: &u8) -> Role {
            if *s == 1 {
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
    fn all_leaders_is_unstable() {
        let g = families::clique(3);
        let config = vec![true, true, true];
        assert_eq!(
            check_stability(&Absorb, &g, &config, DEFAULT_CONFIG_LIMIT),
            Verdict::Unstable
        );
    }

    #[test]
    fn one_leader_is_stable_for_absorb() {
        let g = families::clique(3);
        let config = vec![true, false, false];
        assert_eq!(
            check_stable_and_correct(&Absorb, &g, &config, DEFAULT_CONFIG_LIMIT),
            Verdict::Stable
        );
    }

    #[test]
    fn zero_leaders_is_incorrect() {
        let g = families::clique(3);
        let config = vec![false, false, false];
        assert_eq!(
            check_stable_and_correct(&Absorb, &g, &config, DEFAULT_CONFIG_LIMIT),
            Verdict::Unstable
        );
    }

    #[test]
    fn absorb_oracle_validated() {
        let g = families::cycle(4);
        let steps = validate_oracle_on_execution(&Absorb, &g, 11, 500, DEFAULT_CONFIG_LIMIT);
        assert!(steps < 500, "should have stabilized quickly");
    }

    #[test]
    #[should_panic(expected = "oracle says stable")]
    fn broken_protocol_detected() {
        // Flicker with LeaderCountOracle wrongly reports stability when a
        // single leader coexists with armed followers; the validator must
        // catch this. Start from a configuration that exposes the bug.
        let g = families::clique(3);
        let config = vec![1u8, 2, 2];
        let verdict = check_stable_and_correct(&Flicker, &g, &config, DEFAULT_CONFIG_LIMIT);
        assert_eq!(verdict, Verdict::Unstable);
        // Oracle disagrees → validator panics somewhere along an execution
        // passing through such a configuration.
        let _ = validate_oracle_on_execution(&Flicker, &g, 1, 2000, DEFAULT_CONFIG_LIMIT);
    }

    #[test]
    fn limit_yields_inconclusive() {
        let g = families::clique(5);
        let config = vec![true; 5];
        assert_eq!(
            check_stability(&Absorb, &g, &config, 2),
            Verdict::Inconclusive
        );
    }

    #[test]
    fn compiled_search_agrees_with_typed_search() {
        let g = families::clique(3);
        let compiled = CompiledProtocol::compile_default(&Absorb, 3).unwrap();
        let t = compiled.state_id(&true).unwrap();
        let f = compiled.state_id(&false).unwrap();
        for (typed, dense) in [
            (vec![true, true, true], vec![t, t, t]),
            (vec![true, false, false], vec![t, f, f]),
            (vec![false, false, false], vec![f, f, f]),
        ] {
            assert_eq!(
                check_stable_and_correct(&Absorb, &g, &typed, DEFAULT_CONFIG_LIMIT),
                check_stable_and_correct_compiled(&compiled, &g, &dense, DEFAULT_CONFIG_LIMIT),
                "configs {typed:?}"
            );
            assert_eq!(
                check_stability(&Absorb, &g, &typed, DEFAULT_CONFIG_LIMIT),
                check_stability_compiled(&compiled, &g, &dense, DEFAULT_CONFIG_LIMIT),
            );
        }
    }

    #[test]
    fn compiled_validator_matches_typed_validator() {
        let g = families::cycle(4);
        let compiled = CompiledProtocol::compile_default(&Absorb, 4).unwrap();
        let typed = validate_oracle_on_execution(&Absorb, &g, 11, 500, DEFAULT_CONFIG_LIMIT);
        let dense =
            validate_oracle_on_execution_compiled(&compiled, &g, 11, 500, DEFAULT_CONFIG_LIMIT);
        assert_eq!(typed, dense, "both engines must stabilize at the same step");
        assert!(dense < 500);
    }

    #[test]
    fn compiled_limit_yields_inconclusive() {
        let g = families::clique(5);
        let compiled = CompiledProtocol::compile_default(&Absorb, 5).unwrap();
        let t = compiled.state_id(&true).unwrap();
        assert_eq!(
            check_stability_compiled(&compiled, &g, &[t; 5], 2),
            Verdict::Inconclusive
        );
    }
}
