//! The time-efficient polynomial-state protocol (Theorem 21):
//! `O(B(G) + n·log n)` expected stabilization with `O(n⁴)` states.
//!
//! Every node grows a `k`-bit identifier by appending, on each of its
//! first `k` interactions, a bit encoding whether it acted as initiator
//! (`0`) or responder (`1`) — the scheduler's fair role assignment makes
//! the result uniform on `{2^k, …, 2^{k+1}−1}`. A node that completes its
//! identifier starts an instance of the 6-state token protocol
//! ([`crate::token`]) labelled with that identifier, designating itself a
//! candidate. Nodes always defect to the instance with the largest label
//! (rule 2), re-initializing as followers. If several nodes draw the same
//! maximal identifier (probability ≤ `n/2^k`, Lemma 22), the token
//! protocol resolves the tie in polynomial time, preserving finite
//! expected stabilization time.
//!
//! # Stability oracle
//!
//! The tracked invariant: **no node is still generating**, **exactly one
//! candidate exists**, and **that candidate's identifier equals the
//! maximum identifier present**. Soundness: with generation finished no
//! `init(leader)` can ever execute again, so no new candidate appears; the
//! unique candidate has the maximal label so rule 2 cannot demote it; and
//! within its instance the token invariant (see [`crate::token`]) gives
//! `whites = candidates − blacks ≤ 0`, so no white token can reach it.
//! Necessity: a still-generating node may later output leader
//! (`init(leader)` on completion); two candidates are provably reduced to
//! one; and a candidate below the maximum is demoted once the maximum
//! reaches it. Hence the oracle is exact.

use crate::token::{TokenProtocol, TokenState};
use popele_engine::{Protocol, Role, StabilityOracle, EFFECT_OPAQUE};
use popele_graph::NodeId;

/// Local state: the identifier being grown plus the inner token-protocol
/// state of the instance the node currently belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdState {
    /// Identifier; starts at 1, doubles with a role bit per interaction
    /// while `< 2^k`, finished once in `[2^k, 2^{k+1})`.
    pub id: u64,
    /// Inner 6-state token-protocol state within the current instance.
    pub inner: TokenState,
}

/// The Theorem 21 protocol with identifier length `k`.
///
/// # Examples
///
/// ```
/// use popele_core::identifier::IdentifierProtocol;
/// use popele_engine::Executor;
/// use popele_graph::families;
///
/// let g = families::clique(20);
/// let p = IdentifierProtocol::new(12);
/// let out = Executor::new(&g, &p, 5).run_until_stable(10_000_000).unwrap();
/// assert_eq!(out.leader_count, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdentifierProtocol {
    k: u32,
}

impl IdentifierProtocol {
    /// Creates the protocol with `k`-bit identifiers.
    ///
    /// Theorem 21 uses `k = ⌈4·log₂ n⌉` on general graphs and
    /// `k = ⌈3·log₂ n⌉` on regular graphs; see
    /// [`crate::params::identifier_bits`].
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ 62`.
    #[must_use]
    pub fn new(k: u32) -> Self {
        assert!((1..=62).contains(&k), "identifier length must be in 1..=62");
        Self { k }
    }

    /// Identifier length `k`.
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The generation threshold `2^k`.
    #[must_use]
    pub fn threshold(&self) -> u64 {
        1u64 << self.k
    }

    fn update_one(&self, own: IdState, own_role_bit: u64, other_id_after_rule1: u64) -> IdState {
        let threshold = self.threshold();
        let mut state = own;
        // Rule 1: grow the identifier; on completion, start an instance as
        // a candidate.
        if state.id < threshold {
            state.id = 2 * state.id + own_role_bit;
            if state.id >= threshold {
                state.inner = TokenState::candidate();
            }
        }
        // Rule 2: defect to a strictly larger finished instance.
        if state.id < other_id_after_rule1 && other_id_after_rule1 >= threshold {
            state.id = other_id_after_rule1;
            state.inner = TokenState::follower();
        }
        state
    }
}

impl Protocol for IdentifierProtocol {
    type State = IdState;
    type Oracle = IdOracle;

    fn initial_state(&self, _node: NodeId) -> IdState {
        IdState {
            id: 1,
            inner: TokenState::follower(),
        }
    }

    fn transition(&self, a: &IdState, b: &IdState) -> (IdState, IdState) {
        // Rule 1 for both nodes first (each appends its role bit), because
        // rule 2 compares post-rule-1 identifiers.
        let threshold = self.threshold();
        let a1_id = if a.id < threshold { 2 * a.id } else { a.id };
        let b1_id = if b.id < threshold { 2 * b.id + 1 } else { b.id };
        let mut na = self.update_one(*a, 0, b1_id);
        let mut nb = self.update_one(*b, 1, a1_id);
        // Rule 3: run the inner token protocol on the (possibly re-
        // initialized) inner states. After rule 2 both nodes carry the
        // same instance label unless both are still generating, in which
        // case both inners are tokenless followers and this is a no-op.
        let (ia, ib) = TokenProtocol::interact(&na.inner, &nb.inner);
        na.inner = ia;
        nb.inner = ib;
        (na, nb)
    }

    fn output(&self, state: &IdState) -> Role {
        if state.inner.candidate {
            Role::Leader
        } else {
            Role::Follower
        }
    }

    fn oracle(&self) -> IdOracle {
        IdOracle {
            threshold: self.threshold(),
            generating: 0,
            total_candidates: 0,
            max_id: 0,
            max_id_candidates: 0,
        }
    }

    fn state_space_bound(&self) -> Option<u64> {
        // Identifiers occupy [1, 2^{k+1}); 6 inner states each.
        Some((2u64 << self.k) * 6)
    }
}

/// Incremental oracle for [`IdentifierProtocol`]; see the module docs for
/// the exactness proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdOracle {
    threshold: u64,
    generating: usize,
    total_candidates: usize,
    max_id: u64,
    /// Number of candidates whose identifier is `max_id`, kept
    /// incrementally so [`StabilityOracle::is_stable`] — called on the
    /// executors' hot paths — is three integer compares. No per-id
    /// table is needed: `max_id` is at least every identifier added
    /// since the last [`StabilityOracle::recompute`] and never falls on
    /// removals, so when a state raises it, no other current state
    /// holds the new maximum and the count restarts from that state
    /// alone.
    max_id_candidates: usize,
}

impl IdOracle {
    fn add(&mut self, s: &IdState) {
        if s.id < self.threshold {
            self.generating += 1;
        }
        if s.inner.candidate {
            self.total_candidates += 1;
        }
        // Identifiers are monotone along executions, so a running max is
        // exact even though `remove` never lowers it.
        if s.id > self.max_id {
            self.max_id = s.id;
            self.max_id_candidates = usize::from(s.inner.candidate);
        } else if s.id == self.max_id && s.inner.candidate {
            self.max_id_candidates += 1;
        }
    }

    fn remove(&mut self, s: &IdState) {
        if s.id < self.threshold {
            self.generating -= 1;
        }
        if s.inner.candidate {
            self.total_candidates -= 1;
            if s.id == self.max_id {
                self.max_id_candidates -= 1;
            }
        }
    }
}

impl StabilityOracle<IdentifierProtocol> for IdOracle {
    fn recompute(&mut self, _protocol: &IdentifierProtocol, config: &[IdState]) {
        self.generating = 0;
        self.total_candidates = 0;
        self.max_id = 0;
        self.max_id_candidates = 0;
        for s in config {
            self.add(s);
        }
    }

    fn apply(
        &mut self,
        _protocol: &IdentifierProtocol,
        old: (&IdState, &IdState),
        new: (&IdState, &IdState),
    ) {
        self.remove(old.0);
        self.remove(old.1);
        self.add(new.0);
        self.add(new.1);
    }

    fn is_stable(&self) -> bool {
        self.generating == 0 && self.total_candidates == 1 && self.max_id_candidates == 1
    }

    fn transition_effect(
        &self,
        _protocol: &IdentifierProtocol,
        old: (&IdState, &IdState),
        new: (&IdState, &IdState),
    ) -> u64 {
        // A transition leaves every counter untouched iff no candidate
        // is involved on either side (so neither `total_candidates` nor
        // `max_id_candidates` moves), the number of still-generating
        // participants is unchanged (so `generating` nets to zero), and
        // no new identifier exceeds the running maximum. The first two
        // are pure functions of the four states and fold into the
        // summary; the maximum check is deferred to `effect_inert`
        // because it depends on the oracle's current `max_id`.
        // Identifiers fit in 63 bits (`k ≤ 62`), so `max(new ids)` never
        // collides with [`EFFECT_OPAQUE`].
        let gen = |s: &IdState| usize::from(s.id < self.threshold);
        let candidate = old.0.inner.candidate
            || old.1.inner.candidate
            || new.0.inner.candidate
            || new.1.inner.candidate;
        if candidate || gen(new.0) + gen(new.1) != gen(old.0) + gen(old.1) {
            return EFFECT_OPAQUE;
        }
        new.0.id.max(new.1.id)
    }

    fn effect_inert(&self, effect: u64) -> bool {
        // `EFFECT_OPAQUE` is `u64::MAX`, which no 63-bit identifier
        // reaches, so opaque summaries are never inert. Old identifiers
        // never exceed `max_id` (it is monotone over every state ever
        // added), so bounding the *new* ids is enough.
        effect <= self.max_id
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
    use popele_math::rng::SeedSeq;

    #[test]
    fn stabilizes_on_various_graphs() {
        let p = IdentifierProtocol::new(10);
        for g in [
            families::clique(16),
            families::cycle(16),
            families::star(16),
            families::torus(4, 4),
        ] {
            let out = Executor::new(&g, &p, 21)
                .run_until_stable(100_000_000)
                .unwrap_or_else(|_| panic!("did not stabilize on {g}"));
            assert_eq!(out.leader_count, 1);
        }
    }

    #[test]
    fn identifiers_land_in_final_range() {
        let g = families::clique(12);
        let p = IdentifierProtocol::new(8);
        let mut exec = Executor::new(&g, &p, 3);
        exec.run_until_stable(10_000_000).unwrap();
        let threshold = p.threshold();
        for s in exec.states() {
            assert!(s.id >= threshold && s.id < 2 * threshold, "id {}", s.id);
        }
        // All nodes end in the same instance.
        let first = exec.states()[0].id;
        assert!(exec.states().iter().all(|s| s.id == first));
    }

    #[test]
    fn ids_are_monotone_along_execution() {
        let g = families::cycle(10);
        let p = IdentifierProtocol::new(6);
        let mut exec = Executor::new(&g, &p, 17);
        let mut prev: Vec<u64> = exec.states().iter().map(|s| s.id).collect();
        for _ in 0..3000 {
            exec.step();
            for (v, s) in exec.states().iter().enumerate() {
                assert!(s.id >= prev[v], "id decreased at node {v}");
                prev[v] = s.id;
            }
        }
    }

    #[test]
    fn oracle_matches_exhaustive_definition() {
        // k = 1: ids finish after a single interaction, state space stays
        // tiny enough for reachability search.
        let p = IdentifierProtocol::new(1);
        for (g, seed) in [(families::path(3), 4u64), (families::cycle(3), 5)] {
            let steps = validate_oracle_on_execution(&p, &g, seed, 300, DEFAULT_CONFIG_LIMIT);
            assert!(steps < 300, "tiny instance should stabilize, took {steps}");
        }
    }

    /// Simulates pure identifier *generation* (rule 1 only, no instance
    /// merging) on `g` until all nodes finish; returns the generated ids.
    fn generate_ids(g: &popele_graph::Graph, k: u32, seed: u64) -> Vec<u64> {
        let threshold = 1u64 << k;
        let mut sched = popele_engine::EdgeScheduler::new(g, seed);
        let mut ids = vec![1u64; g.num_nodes() as usize];
        while ids.iter().any(|&id| id < threshold) {
            let (a, b) = sched.next_pair();
            if ids[a as usize] < threshold {
                ids[a as usize] *= 2; // initiator bit 0
            }
            if ids[b as usize] < threshold {
                ids[b as usize] = 2 * ids[b as usize] + 1; // responder bit 1
            }
        }
        ids
    }

    #[test]
    fn collision_probability_matches_lemma22() {
        // Lemma 22 case 1: nodes assigning their bits in the *same*
        // interaction take opposite roles, so on a 2-clique generated
        // identifiers can never collide.
        let g = families::clique(2);
        let k = 3u32;
        let seq = SeedSeq::new(99);
        for i in 0..2000u64 {
            let ids = generate_ids(&g, k, seq.child(i));
            assert_ne!(ids[0], ids[1], "trial {i}");
        }
    }

    #[test]
    fn collision_bound_with_disjoint_pairs() {
        // Lemma 22 case 2: nodes that never interact while generating
        // collide with probability exactly 2^{−k}. Two disjoint edges give
        // independent generation for nodes 0 and 2.
        let g = popele_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let k = 4u32;
        let seq = SeedSeq::new(5);
        let trials = 6000;
        let mut equal = 0usize;
        for i in 0..trials {
            let ids = generate_ids(&g, k, seq.child(i as u64));
            if ids[0] == ids[2] {
                equal += 1;
            }
        }
        let rate = equal as f64 / trials as f64;
        let bound = 1.0 / f64::from(1u32 << k);
        assert!(
            rate <= bound * 1.4 + 0.01,
            "collision rate {rate} vs Lemma 22 bound {bound}"
        );
        // The bound is tight in this case: the rate should not be far
        // below it either.
        assert!(
            rate >= bound * 0.5,
            "collision rate {rate} suspiciously below the exact value {bound}"
        );
    }

    #[test]
    fn state_census_within_bound() {
        let g = families::clique(8);
        let p = IdentifierProtocol::new(6);
        let results = run_trials_auto_prepared(
            &g,
            &p,
            &EngineSelection::generic(),
            13,
            TrialOptions {
                trials: 3,
                max_steps: 10_000_000,
                census: true,
                threads: 1,
                ..TrialOptions::default()
            },
        );
        let stats = TrialStats::from_results(&results);
        assert!(stats.max_distinct_states.unwrap() as u64 <= p.state_space_bound().unwrap());
    }

    #[test]
    fn ties_resolved_by_inner_protocol() {
        // Force a tie: k = 1 gives ids in {2, 3}; on a clique several
        // nodes will share the maximum 3 and the token protocol must
        // resolve them.
        let g = families::clique(10);
        let p = IdentifierProtocol::new(1);
        let out = Executor::new(&g, &p, 7)
            .run_until_stable(50_000_000)
            .unwrap();
        assert_eq!(out.leader_count, 1);
    }

    #[test]
    #[should_panic(expected = "1..=62")]
    fn rejects_oversized_k() {
        let _ = IdentifierProtocol::new(63);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = families::clique(9);
        let p = IdentifierProtocol::new(8);
        let a = Executor::new(&g, &p, 4).run_until_stable(1 << 30).unwrap();
        let b = Executor::new(&g, &p, 4).run_until_stable(1 << 30).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn inert_effects_leave_oracle_unchanged() {
        // Differential check of the effect-summary contract the lazy
        // engine relies on: whenever `effect_inert` vouches for a
        // transition, applying it must leave the oracle bit-for-bit
        // unchanged — and the inert path must actually trigger, or the
        // test guards nothing.
        use popele_engine::{EdgeScheduler, StabilityOracle};
        let g = families::torus(6, 6);
        let p = IdentifierProtocol::new(12);
        let mut sched = EdgeScheduler::new(&g, 23);
        let mut states: Vec<IdState> = (0..g.num_nodes()).map(|v| p.initial_state(v)).collect();
        let mut oracle = p.oracle();
        oracle.recompute(&p, &states);
        let (mut inert, mut opaque) = (0u32, 0u32);
        for _ in 0..20_000 {
            let (a, b) = sched.next_pair();
            let (ai, bi) = (a as usize, b as usize);
            let (na, nb) = p.transition(&states[ai], &states[bi]);
            let eff = oracle.transition_effect(&p, (&states[ai], &states[bi]), (&na, &nb));
            if oracle.effect_inert(eff) {
                let before = oracle.clone();
                oracle.apply(&p, (&states[ai], &states[bi]), (&na, &nb));
                assert_eq!(oracle, before, "inert transition changed the oracle");
                inert += 1;
            } else {
                oracle.apply(&p, (&states[ai], &states[bi]), (&na, &nb));
                opaque += 1;
            }
            states[ai] = na;
            states[bi] = nb;
        }
        assert!(inert > 0, "inert path never exercised");
        assert!(opaque > 0, "every transition classified inert");
        // The incremental oracle must still agree with a fresh rebuild.
        let mut rebuilt = p.oracle();
        rebuilt.recompute(&p, &states);
        assert_eq!(oracle, rebuilt);
    }

    #[test]
    fn lazy_engine_matches_generic_through_inert_skip() {
        // Trace-identity across the engine pair on the workload whose
        // hot loop takes the inert-skip: same seed, same graph, same
        // stabilization step and leader.
        use popele_engine::LazyDenseExecutor;
        let g = families::torus(8, 8);
        let p = IdentifierProtocol::new(14);
        let seq = SeedSeq::new(61);
        for i in 0..4u64 {
            let seed = seq.child(i);
            let generic = Executor::new(&g, &p, seed)
                .run_until_stable(1 << 30)
                .unwrap();
            let lazy = LazyDenseExecutor::new(&g, &p, seed)
                .run_until_stable(1 << 30)
                .unwrap();
            assert_eq!(generic, lazy, "seed {seed}");
        }
    }
}
