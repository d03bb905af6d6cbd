//! Exact two-opinion majority on graphs — the paper's stated follow-up
//! problem (Section 8: "Another direction is considering other
//! fundamental problems, such as majority, in the same setting, for which
//! our techniques should prove useful").
//!
//! This module demonstrates exactly that: the four-state exact-majority
//! protocol of Bénézit et al. works on **cliques** because opposing
//! strong opinions always may meet; on general graphs it deadlocks for
//! the same reason the naive leader-absorption protocol does. The fix is
//! the paper's token mechanic (Theorem 16): let the opinions *walk*.
//! Every interaction first **swaps** the two endpoint states — turning
//! every opinion token into a population-model random walk — and then
//! applies the classic rules:
//!
//! * `A + B → a + b` — opposing strong tokens cancel into weak ones;
//! * `A + b → A + a` and `B + a → B + b` — strong tokens convert weak
//!   ones to their sign.
//!
//! The difference `#A − #B` of strong tokens is invariant, so the
//! surviving strong sign is the exact initial majority; random-walk
//! meeting times (Lemmas 17–19) bound the stabilization time by
//! `O(H(G)·n·log n)`, the same driver as the token protocol's.
//!
//! # Output encoding
//!
//! The engine's output alphabet is `{Leader, Follower}`; this module
//! encodes **opinion A as `Role::Leader`** and **opinion B as
//! `Role::Follower`**. Stability has its usual meaning (no reachable
//! configuration changes any node's output), so the engine's exhaustive
//! checker applies unchanged.
//!
//! # Ties
//!
//! With `#A = #B` all strong tokens cancel and the weak remainder keeps
//! swapping forever, so no configuration is output-stable: exact-majority
//! protocols of this family cannot decide ties (a known limitation).
//! [`MajorityProtocol::new`] therefore rejects tied inputs.
//!
//! # Stability oracle
//!
//! Stable ⟺ one sign is extinct: `(#B = #b = 0)` or `(#A = #a = 0)`.
//! *Soundness*: with only one sign left, cancellation and conversion are
//! disabled, and swaps exchange equal outputs. *Necessity*: a surviving
//! minority strong token meets an opposing strong w.p. 1 (connected
//! graph ⇒ positive-probability meeting sequence) and a surviving
//! minority weak token is eventually converted, both changing outputs.

use popele_engine::{Protocol, Role, StabilityOracle};
use popele_graph::NodeId;

/// Opinion tokens: strong tokens carry cancellation power, weak tokens
/// only an output preference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opinion {
    /// Strong A.
    StrongA,
    /// Strong B.
    StrongB,
    /// Weak A (converted or cancelled remainder).
    WeakA,
    /// Weak B.
    WeakB,
}

impl Opinion {
    /// Whether the token outputs opinion A.
    #[must_use]
    pub fn is_a(self) -> bool {
        matches!(self, Opinion::StrongA | Opinion::WeakA)
    }

    /// Whether the token is strong.
    #[must_use]
    pub fn is_strong(self) -> bool {
        matches!(self, Opinion::StrongA | Opinion::StrongB)
    }
}

/// The walking four-state exact-majority protocol.
///
/// # Examples
///
/// ```
/// use popele_core::majority::MajorityProtocol;
/// use popele_engine::{Executor, Role};
/// use popele_graph::families;
///
/// let g = families::cycle(9);
/// // Nodes 0..6 start with opinion A, the rest with B: A wins.
/// let p = MajorityProtocol::new(6, 9);
/// let mut exec = Executor::new(&g, &p, 5);
/// exec.run_until_stable(100_000_000).unwrap();
/// assert!(exec.states().iter().all(|s| s.is_a()));
/// # let _ = Role::Leader;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MajorityProtocol {
    initial_a: u32,
    num_nodes: u32,
}

impl MajorityProtocol {
    /// Creates the protocol with nodes `0..initial_a` holding opinion A
    /// and nodes `initial_a..num_nodes` holding opinion B.
    ///
    /// (In the anonymous model the opinion is the node's *input*; the
    /// id-based assignment is just the harness's way of supplying it.)
    ///
    /// # Panics
    ///
    /// Panics if the input is a tie (undecidable by this protocol
    /// family) or `initial_a > num_nodes`.
    #[must_use]
    pub fn new(initial_a: u32, num_nodes: u32) -> Self {
        assert!(initial_a <= num_nodes, "more A opinions than nodes");
        assert!(
            2 * initial_a != num_nodes,
            "exact-majority protocols cannot decide ties"
        );
        Self {
            initial_a,
            num_nodes,
        }
    }

    /// The majority opinion of the input (`true` = A).
    #[must_use]
    pub fn majority_is_a(&self) -> bool {
        2 * self.initial_a > self.num_nodes
    }
}

impl Protocol for MajorityProtocol {
    type State = Opinion;
    type Oracle = MajorityOracle;

    fn initial_state(&self, node: NodeId) -> Opinion {
        if node < self.initial_a {
            Opinion::StrongA
        } else {
            Opinion::StrongB
        }
    }

    fn initial_census(&self, n: u64) -> Vec<(Opinion, u64)> {
        let a = u64::from(self.initial_a).min(n);
        [(Opinion::StrongA, a), (Opinion::StrongB, n - a)]
            .into_iter()
            .filter(|&(_, count)| count > 0)
            .collect()
    }

    fn transition(&self, a: &Opinion, b: &Opinion) -> (Opinion, Opinion) {
        // Swap first: opinions walk like the Theorem 16 tokens.
        let (x, y) = (*b, *a);
        match (x, y) {
            // Cancellation.
            (Opinion::StrongA, Opinion::StrongB) => (Opinion::WeakA, Opinion::WeakB),
            (Opinion::StrongB, Opinion::StrongA) => (Opinion::WeakB, Opinion::WeakA),
            // Conversion.
            (Opinion::StrongA, Opinion::WeakB) => (Opinion::StrongA, Opinion::WeakA),
            (Opinion::WeakB, Opinion::StrongA) => (Opinion::WeakA, Opinion::StrongA),
            (Opinion::StrongB, Opinion::WeakA) => (Opinion::StrongB, Opinion::WeakB),
            (Opinion::WeakA, Opinion::StrongB) => (Opinion::WeakB, Opinion::StrongB),
            other => other,
        }
    }

    fn output(&self, state: &Opinion) -> Role {
        if state.is_a() {
            Role::Leader // encodes "opinion A"
        } else {
            Role::Follower // encodes "opinion B"
        }
    }

    fn oracle(&self) -> MajorityOracle {
        MajorityOracle::default()
    }

    fn state_space_bound(&self) -> Option<u64> {
        Some(4)
    }
}

/// Incremental oracle: stable ⟺ one sign extinct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MajorityOracle {
    a_tokens: usize,
    b_tokens: usize,
}

impl MajorityOracle {
    fn delta(s: &Opinion) -> (usize, usize) {
        if s.is_a() {
            (1, 0)
        } else {
            (0, 1)
        }
    }
}

impl StabilityOracle<MajorityProtocol> for MajorityOracle {
    fn recompute(&mut self, _p: &MajorityProtocol, config: &[Opinion]) {
        self.a_tokens = 0;
        self.b_tokens = 0;
        for s in config {
            let (a, b) = Self::delta(s);
            self.a_tokens += a;
            self.b_tokens += b;
        }
    }

    fn apply(
        &mut self,
        _p: &MajorityProtocol,
        old: (&Opinion, &Opinion),
        new: (&Opinion, &Opinion),
    ) {
        for s in [old.0, old.1] {
            let (a, b) = Self::delta(s);
            self.a_tokens -= a;
            self.b_tokens -= b;
        }
        for s in [new.0, new.1] {
            let (a, b) = Self::delta(s);
            self.a_tokens += a;
            self.b_tokens += b;
        }
    }

    fn recompute_census(&mut self, _p: &MajorityProtocol, census: &[(Opinion, u64)]) -> bool {
        self.a_tokens = 0;
        self.b_tokens = 0;
        for (s, count) in census {
            let (a, b) = Self::delta(s);
            self.a_tokens += a * *count as usize;
            self.b_tokens += b * *count as usize;
        }
        true
    }

    fn is_stable(&self) -> bool {
        self.a_tokens == 0 || self.b_tokens == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popele_engine::exhaustive::{Verdict, DEFAULT_CONFIG_LIMIT};
    use popele_engine::Executor;
    use popele_graph::families;
    use popele_math::rng::SeedSeq;

    #[test]
    fn strong_difference_is_invariant() {
        let g = families::cycle(10);
        let p = MajorityProtocol::new(6, 10);
        let mut exec = Executor::new(&g, &p, 3);
        let diff = |states: &[Opinion]| -> i64 {
            let a = states.iter().filter(|s| **s == Opinion::StrongA).count() as i64;
            let b = states.iter().filter(|s| **s == Opinion::StrongB).count() as i64;
            a - b
        };
        let initial = diff(exec.states());
        assert_eq!(initial, 2);
        for _ in 0..2000 {
            exec.step();
            assert_eq!(diff(exec.states()), initial);
        }
    }

    #[test]
    fn majority_wins_on_various_graphs() {
        for g in [
            families::clique(15),
            families::cycle(15),
            families::star(15),
            families::binary_tree(15),
        ] {
            let p = MajorityProtocol::new(9, 15); // A majority 9 vs 6
            let mut exec = Executor::new(&g, &p, 11);
            exec.run_until_stable(500_000_000)
                .unwrap_or_else(|_| panic!("no majority on {g}"));
            assert!(exec.states().iter().all(|s| s.is_a()), "A must win on {g}");
        }
    }

    #[test]
    fn minority_never_wins() {
        let seq = SeedSeq::new(77);
        let g = families::torus(4, 4);
        for trial in 0..10 {
            let p = MajorityProtocol::new(5, 16); // B majority 11 vs 5
            let mut exec = Executor::new(&g, &p, seq.child(trial));
            exec.run_until_stable(500_000_000).unwrap();
            assert!(exec.states().iter().all(|s| !s.is_a()), "B must win");
        }
    }

    #[test]
    fn close_majorities_still_decided() {
        // 8 vs 7 — one surviving strong token must convert everyone.
        let g = families::cycle(15);
        let p = MajorityProtocol::new(8, 15);
        let mut exec = Executor::new(&g, &p, 9);
        exec.run_until_stable(1_000_000_000).unwrap();
        assert!(exec.states().iter().all(|s| s.is_a()));
        // Exactly one strong token survives (|#A − #B| = 1).
        let strong = exec.states().iter().filter(|s| s.is_strong()).count();
        assert_eq!(strong, 1);
    }

    #[test]
    #[should_panic(expected = "ties")]
    fn ties_rejected() {
        let _ = MajorityProtocol::new(8, 16);
    }

    #[test]
    fn oracle_matches_exhaustive_definition() {
        let g = families::path(3);
        let p = MajorityProtocol::new(2, 3);
        let mut exec = Executor::new(&g, &p, 5);
        for step in 0..200 {
            let verdict = exhaustive_verdict(&p, &g, exec.states());
            match verdict {
                Verdict::Stable => assert!(exec.is_stable(), "step {step}"),
                Verdict::Unstable => assert!(!exec.is_stable(), "step {step}"),
                Verdict::Inconclusive => panic!("space exploded"),
            }
            if exec.is_stable() {
                return;
            }
            exec.step();
        }
        panic!("did not stabilize in 200 steps on a tiny path");
    }

    /// Majority "correctness" is sign-extinction, not leader-uniqueness,
    /// so call the raw stability check rather than the
    /// one-leader-specific wrapper.
    fn exhaustive_verdict(
        p: &MajorityProtocol,
        g: &popele_graph::Graph,
        config: &[Opinion],
    ) -> Verdict {
        popele_engine::exhaustive::check_stability(p, g, config, DEFAULT_CONFIG_LIMIT)
    }

    #[test]
    fn four_states_only() {
        let g = families::clique(9);
        let p = MajorityProtocol::new(6, 9);
        let mut exec = Executor::new(&g, &p, 2);
        exec.enable_state_census();
        exec.run_until_stable(100_000_000).unwrap();
        assert!(exec.outcome().distinct_states.unwrap() <= 4);
    }

    #[test]
    fn transition_conserves_tokens() {
        // Every rule permutes or re-signs the two tokens; node count of
        // tokens is always exactly 2 in, 2 out and strong difference is
        // conserved rule-by-rule.
        let p = MajorityProtocol::new(1, 3);
        let all = [
            Opinion::StrongA,
            Opinion::StrongB,
            Opinion::WeakA,
            Opinion::WeakB,
        ];
        let strong_diff = |x: Opinion| match x {
            Opinion::StrongA => 1i32,
            Opinion::StrongB => -1,
            _ => 0,
        };
        for a in all {
            for b in all {
                let (na, nb) = p.transition(&a, &b);
                assert_eq!(
                    strong_diff(a) + strong_diff(b),
                    strong_diff(na) + strong_diff(nb),
                    "{a:?}+{b:?}"
                );
            }
        }
    }
}
