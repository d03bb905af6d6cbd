//! The 6-state token-based protocol of Beauquier, Blanchard and Burman
//! (the paper's Theorem 16 baseline).
//!
//! Input: a nonempty set of *leader candidates*. Each candidate starts with
//! a **black token**. On every interaction the two nodes swap their tokens;
//! when two black tokens meet, one turns **white**; when a candidate
//! receives a white token, the candidate becomes a follower and the token
//! is removed. Tokens therefore perform random walks in the population
//! model, black tokens coalesce, and white tokens hunt down surplus
//! candidates.
//!
//! Stabilization: in `O(H(G)·n·log n)` steps in expectation and w.h.p.,
//! where `H(G)` is the worst-case hitting time of a classic random walk
//! (Theorem 16 via the analysis of Sudo et al.).
//!
//! # Stability invariant (proof of the oracle)
//!
//! Let `C₀` be the number of initial candidates, `meet` the number of
//! black-black meetings so far and `dem` the number of white-token
//! demotions. Then
//!
//! * `blacks = C₀ − meet` — each meeting recolours one black token;
//! * `whites = meet − dem` — meetings create whites, demotions consume
//!   them;
//! * `candidates = C₀ − dem` — only white tokens demote candidates.
//!
//! Black tokens never vanish entirely (`blacks ≥ 1`: a meeting needs two
//! blacks), so `candidates = blacks + whites ≥ 1`. If `candidates = 1`
//! then `whites = 1 − blacks ≤ 0`, hence `whites = 0` and `blacks = 1`:
//! no white token exists or can ever be created (one black cannot meet
//! itself), so the last candidate is permanent — the configuration is
//! **stable**. Conversely, with `candidates ≥ 2` the protocol provably
//! reduces the count (Theorem 16), so some reachable configuration changes
//! an output. Therefore *stable and correct ⟺ exactly one candidate*, and
//! [`popele_engine::LeaderCountOracle`] is an exact oracle.

use popele_engine::{LeaderCountOracle, Protocol, Role};
use popele_graph::NodeId;

/// Colour of a walking token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Token {
    /// Black token: one survives and certifies the leader.
    Black,
    /// White token: demotes the next candidate it reaches.
    White,
}

/// Local state: candidacy bit plus an optional carried token
/// (2 × 3 = 6 states).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TokenState {
    /// Whether this node is still a leader candidate.
    pub candidate: bool,
    /// The token currently carried, if any.
    pub token: Option<Token>,
}

impl TokenState {
    /// Initial state of a leader candidate (black token in hand).
    #[must_use]
    pub fn candidate() -> Self {
        Self {
            candidate: true,
            token: Some(Token::Black),
        }
    }

    /// Initial state of a follower (no token).
    #[must_use]
    pub fn follower() -> Self {
        Self {
            candidate: false,
            token: None,
        }
    }
}

/// Which nodes start as candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CandidateInput {
    All,
    Set(Vec<NodeId>),
}

/// The 6-state token protocol (Theorem 16).
///
/// # Examples
///
/// ```
/// use popele_core::token::TokenProtocol;
/// use popele_engine::Executor;
/// use popele_graph::families;
///
/// let g = families::star(12);
/// let p = TokenProtocol::all_candidates();
/// let out = Executor::new(&g, &p, 3).run_until_stable(10_000_000).unwrap();
/// assert_eq!(out.leader_count, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenProtocol {
    input: CandidateInput,
}

impl TokenProtocol {
    /// Standard leader election: every node starts as a candidate
    /// (the constant input required by the anonymous model).
    #[must_use]
    pub fn all_candidates() -> Self {
        Self {
            input: CandidateInput::All,
        }
    }

    /// Theorem 16's input model: exactly the listed nodes start as
    /// candidates.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty (the protocol then has no leader to
    /// elect).
    #[must_use]
    pub fn with_candidates(candidates: Vec<NodeId>) -> Self {
        assert!(
            !candidates.is_empty(),
            "token protocol needs a nonempty candidate set"
        );
        Self {
            input: CandidateInput::Set(candidates),
        }
    }

    /// The transition on a pair of token states, exposed for reuse by the
    /// composed protocols (Theorems 21 and 24).
    #[must_use]
    pub fn interact(a: &TokenState, b: &TokenState) -> (TokenState, TokenState) {
        // 1. Swap tokens.
        let mut na = TokenState {
            candidate: a.candidate,
            token: b.token,
        };
        let mut nb = TokenState {
            candidate: b.candidate,
            token: a.token,
        };
        // 2. Two black tokens meet: the responder's copy turns white
        //    (the choice is symmetric; any fixed rule works).
        if na.token == Some(Token::Black) && nb.token == Some(Token::Black) {
            nb.token = Some(Token::White);
        }
        // 3. A candidate holding a white token is demoted and the token
        //    removed from the system.
        for s in [&mut na, &mut nb] {
            if s.candidate && s.token == Some(Token::White) {
                s.candidate = false;
                s.token = None;
            }
        }
        (na, nb)
    }
}

impl Protocol for TokenProtocol {
    type State = TokenState;
    type Oracle = LeaderCountOracle;

    fn initial_state(&self, node: NodeId) -> TokenState {
        match &self.input {
            CandidateInput::All => TokenState::candidate(),
            CandidateInput::Set(set) => {
                if set.contains(&node) {
                    TokenState::candidate()
                } else {
                    TokenState::follower()
                }
            }
        }
    }

    fn initial_census(&self, n: u64) -> Vec<(TokenState, u64)> {
        let (candidates, node_0_is_candidate) = match &self.input {
            CandidateInput::All => (n, true),
            CandidateInput::Set(set) => {
                let mut ids: Vec<NodeId> =
                    set.iter().copied().filter(|&v| u64::from(v) < n).collect();
                ids.sort_unstable();
                ids.dedup();
                (ids.len() as u64, ids.first() == Some(&0))
            }
        };
        let candidate = (TokenState::candidate(), candidates);
        let follower = (TokenState::follower(), n - candidates);
        let runs = if node_0_is_candidate {
            [candidate, follower]
        } else {
            [follower, candidate]
        };
        runs.into_iter().filter(|&(_, count)| count > 0).collect()
    }

    fn transition(&self, a: &TokenState, b: &TokenState) -> (TokenState, TokenState) {
        Self::interact(a, b)
    }

    fn output(&self, state: &TokenState) -> Role {
        if state.candidate {
            Role::Leader
        } else {
            Role::Follower
        }
    }

    fn oracle(&self) -> LeaderCountOracle {
        LeaderCountOracle::new()
    }

    fn state_space_bound(&self) -> Option<u64> {
        Some(6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popele_engine::exhaustive::{validate_oracle_on_execution, DEFAULT_CONFIG_LIMIT};
    use popele_engine::monte_carlo::{
        run_trials_auto_prepared, EngineSelection, TrialOptions, TrialStats,
    };
    use popele_engine::Executor;
    use popele_graph::families;

    #[test]
    fn token_conservation_laws() {
        // Run a while and check the invariants of the module docs.
        let g = families::cycle(20);
        let p = TokenProtocol::all_candidates();
        let mut exec = Executor::new(&g, &p, 5);
        let c0 = 20i64;
        for _ in 0..5000 {
            exec.step();
            let blacks = exec
                .states()
                .iter()
                .filter(|s| s.token == Some(Token::Black))
                .count() as i64;
            let whites = exec
                .states()
                .iter()
                .filter(|s| s.token == Some(Token::White))
                .count() as i64;
            let candidates = exec.states().iter().filter(|s| s.candidate).count() as i64;
            assert!(blacks >= 1, "black tokens can never die out");
            assert_eq!(
                candidates,
                blacks + whites,
                "candidates = blacks + whites (C₀ = {c0})"
            );
        }
    }

    #[test]
    fn stabilizes_on_various_graphs() {
        let p = TokenProtocol::all_candidates();
        for g in [
            families::clique(16),
            families::cycle(16),
            families::star(16),
            families::grid(4, 4),
            families::binary_tree(15),
        ] {
            let out = Executor::new(&g, &p, 42)
                .run_until_stable(200_000_000)
                .unwrap_or_else(|_| panic!("did not stabilize on {g}"));
            assert_eq!(out.leader_count, 1);
        }
    }

    #[test]
    fn oracle_matches_exhaustive_definition() {
        // Validate the candidates==1 ⟺ stable equivalence against the
        // literal reachability definition on tiny graphs.
        let p = TokenProtocol::all_candidates();
        for (g, seed) in [
            (families::path(3), 1u64),
            (families::cycle(3), 2),
            (families::star(4), 3),
        ] {
            let steps = validate_oracle_on_execution(&p, &g, seed, 400, DEFAULT_CONFIG_LIMIT);
            assert!(steps < 400, "tiny instance should stabilize, took {steps}");
        }
    }

    #[test]
    fn candidate_subset_input() {
        let g = families::clique(10);
        let p = TokenProtocol::with_candidates(vec![2, 7]);
        let mut exec = Executor::new(&g, &p, 9);
        assert_eq!(exec.leader_count(), 2);
        let out = exec.run_until_stable(10_000_000).unwrap();
        assert_eq!(out.leader_count, 1);
        // The winner must be one of the two initial candidates? No — the
        // *candidate bit* never moves between nodes, so yes:
        assert!(matches!(out.leader, Some(2) | Some(7)));
    }

    #[test]
    fn single_candidate_is_immediately_stable() {
        let g = families::clique(5);
        let p = TokenProtocol::with_candidates(vec![3]);
        let out = Executor::new(&g, &p, 1).run_until_stable(10).unwrap();
        assert_eq!(out.stabilization_step, 0);
        assert_eq!(out.leader, Some(3));
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_candidate_set_rejected() {
        let _ = TokenProtocol::with_candidates(vec![]);
    }

    #[test]
    fn uses_at_most_six_states() {
        let g = families::clique(12);
        let p = TokenProtocol::all_candidates();
        let results = run_trials_auto_prepared(
            &g,
            &p,
            &EngineSelection::generic(),
            7,
            TrialOptions {
                trials: 4,
                max_steps: 10_000_000,
                census: true,
                threads: 1,
                ..TrialOptions::default()
            },
        );
        let stats = TrialStats::from_results(&results);
        let max_states = stats.max_distinct_states.unwrap();
        assert!(max_states <= 6, "observed {max_states} distinct states");
        assert!(p.state_space_bound().unwrap() >= max_states as u64);
    }

    #[test]
    fn interact_rules_unit() {
        let cand = TokenState::candidate();
        let foll = TokenState::follower();
        // Candidate meets candidate: both swap blacks, responder's turns
        // white, responder demoted and token destroyed.
        let (a, b) = TokenProtocol::interact(&cand, &cand);
        assert_eq!(
            a,
            TokenState {
                candidate: true,
                token: Some(Token::Black)
            }
        );
        assert_eq!(
            b,
            TokenState {
                candidate: false,
                token: None
            }
        );
        // Candidate passes its black token to a follower.
        let (a, b) = TokenProtocol::interact(&cand, &foll);
        assert_eq!(a.token, None);
        assert!(a.candidate);
        assert_eq!(b.token, Some(Token::Black));
        assert!(!b.candidate);
        // Follower with white token meets bare candidate: candidate takes
        // the white token and is demoted.
        let white_carrier = TokenState {
            candidate: false,
            token: Some(Token::White),
        };
        let bare_candidate = TokenState {
            candidate: true,
            token: None,
        };
        let (a, b) = TokenProtocol::interact(&white_carrier, &bare_candidate);
        assert_eq!(a.token, None);
        assert_eq!(
            b,
            TokenState {
                candidate: false,
                token: None
            }
        );
        // Two followers swap (nothing observable happens).
        let (a, b) = TokenProtocol::interact(&foll, &foll);
        assert_eq!((a, b), (foll, foll));
    }

    #[test]
    fn black_meets_black_on_followers_creates_white() {
        let carrier = TokenState {
            candidate: false,
            token: Some(Token::Black),
        };
        let (a, b) = TokenProtocol::interact(&carrier, &carrier);
        assert_eq!(a.token, Some(Token::Black));
        assert_eq!(b.token, Some(Token::White));
        assert!(!a.candidate && !b.candidate);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = families::torus(4, 4);
        let p = TokenProtocol::all_candidates();
        let a = Executor::new(&g, &p, 11).run_until_stable(1 << 30).unwrap();
        let b = Executor::new(&g, &p, 11).run_until_stable(1 << 30).unwrap();
        assert_eq!(a, b);
    }
}
