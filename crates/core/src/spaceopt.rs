//! Space-optimal leader election: the junta/phase-clock family of
//! Gąsieniec and Stachowiak (arXiv 1704.07649; journal version
//! 1802.06867).
//!
//! The paper's `fast`/`identifier` protocols buy election speed with
//! state count; this family sits at the opposite Pareto corner —
//! `O(log log n)` **junta levels** instead of `Θ(log n)` identifier
//! bits. Two mechanisms share the agent state:
//!
//! * **Junta race**: every agent starts as a *candidate* at level 0.
//!   When two same-level candidates meet, the initiator climbs one
//!   level and the responder drops out; levels spread epidemically as a
//!   max, and a candidate that learns of a strictly higher level drops
//!   out too. Successive halving leaves `O(log log n)` occupied levels
//!   whp — the junta — and the duels continue until one candidate
//!   remains. Candidates *are* the leaders here: the output map is
//!   exactly the candidate mark.
//! * **Leaderless phase clock**: every agent carries a `mod m` clock
//!   synchronized by one-way epidemics (both parties jump to the
//!   cyclically-ahead reading) and *ticked* by candidates — the
//!   junta-driven clock of the paper, which stays a bounded-skew
//!   heartbeat because only the shrinking candidate set advances it.
//!   Duels are **clock-gated**: two candidates fight only when their
//!   pre-interaction clocks agree to within one tick, so the phase
//!   structure is load-bearing (a candidate pair first synchronizes,
//!   then duels on a later meeting), exactly as the paper's phases
//!   separate "spread your level" from "fight".
//!
//! This is a **clique-model** family, like the classic population
//! protocols it comes from: elimination needs direct candidate
//! meetings, so on a sparse graph two ceiling-level candidates can end
//! up non-adjacent with no rule that ever reduces them. Sweep cells
//! therefore pair `space-opt` exclusively with the clique family
//! (`cell_skip_reason` records the restriction); the cross-engine
//! trace-identity matrix still runs it on every family, since trace
//! identity needs no convergence.
//!
//! # What the oracle certifies
//!
//! The candidate count never increases, and an easy induction (spelled
//! out on [`SpaceOptimalProtocol::interact`]) shows the **global
//! maximum level is always held by some candidate** — so the count
//! never reaches zero, and a *unique* candidate can never meet a
//! strictly higher level or a rival: unique-candidate configurations
//! are absorbing. [`LeaderCountOracle`] is therefore an **exact**
//! stability oracle for this family (unlike the loose family next
//! door), the census-only count tier may batch it on cliques, and the
//! exhaustive reachability validator applies in full — see
//! `tests/protocol_matrix.rs` and the exhaustive suite in this module.
//!
//! # Practical deviation
//!
//! [`SpaceOptimalProtocol::practical`] keeps the full `m`-valued clock
//! on every agent for simulation fidelity (the paper compresses
//! follower state further to reach `O(log log n)` states overall); the
//! `O(log log n)` bound applies to the *junta levels*
//! (`max_level + 1 = bitlen(bitlen(n)) + 2`), and the whole state
//! space `2·(max_level + 1)·m` still undercuts the identifier
//! protocol's `O(n⁴)` by orders of magnitude — at `n = 10⁹` it is
//! ~420 states, inside even the count engine's compile cap.
//!
//! # Examples
//!
//! ```
//! use popele_core::spaceopt::SpaceOptimalProtocol;
//! use popele_engine::{Executor, Protocol};
//! use popele_graph::families;
//!
//! let p = SpaceOptimalProtocol::practical(64);
//! let out = Executor::new(&families::clique(64), &p, 9)
//!     .run_until_stable(1 << 24)
//!     .expect("the junta race always collapses to one candidate");
//! assert_eq!(out.leader_count, 1);
//! ```

use popele_engine::{LeaderCountOracle, Protocol, Role};
use popele_graph::NodeId;

/// Local state of [`SpaceOptimalProtocol`]: junta level, candidate
/// mark, and phase-clock reading (`2·(max_level + 1)·phase_len`
/// combinations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpaceOptState {
    /// Highest junta level this agent has witnessed (its own, if still
    /// a candidate).
    pub level: u8,
    /// Whether this agent is still a candidate in the junta race (and
    /// outputs *leader*).
    pub candidate: bool,
    /// Phase-clock reading in `0..phase_len`.
    pub clock: u8,
}

/// Space-optimal leader election (Gąsieniec–Stachowiak junta race with
/// a junta-driven leaderless phase clock).
///
/// See the [module docs](self) for the mechanism and the exactness
/// argument.
///
/// # Examples
///
/// ```
/// use popele_core::spaceopt::SpaceOptimalProtocol;
/// use popele_engine::Protocol;
///
/// let p = SpaceOptimalProtocol::new(3, 8);
/// // 4 levels × 8 clock readings × candidate bit.
/// assert_eq!(p.state_space_bound(), Some(64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceOptimalProtocol {
    max_level: u8,
    phase_len: u8,
}

impl SpaceOptimalProtocol {
    /// Creates the protocol with junta levels `0..=max_level` and a
    /// `mod phase_len` phase clock.
    ///
    /// # Panics
    ///
    /// Panics if `max_level` is zero (no race to run) or `phase_len`
    /// is below 2 (no phases to gate on).
    #[must_use]
    pub fn new(max_level: u8, phase_len: u8) -> Self {
        assert!(max_level >= 1, "the junta race needs at least two levels");
        assert!(
            phase_len >= 2,
            "the phase clock needs at least two readings"
        );
        Self {
            max_level,
            phase_len,
        }
    }

    /// Simulation-practical parameters for an `n`-agent population:
    /// `phase_len = bitlen(n)` (the paper's `Θ(log n)`-tick phases) and
    /// `max_level = bitlen(bitlen(n)) + 1` (the `O(log log n)` junta
    /// ceiling, one slack level over the expected `log log n` climb).
    ///
    /// # Examples
    ///
    /// ```
    /// use popele_core::spaceopt::SpaceOptimalProtocol;
    /// use popele_engine::Protocol;
    ///
    /// let p = SpaceOptimalProtocol::practical(2000);
    /// assert_eq!((p.max_level(), p.phase_len()), (5, 11));
    /// // ~tens of states where the identifier protocol needs O(n⁴).
    /// assert_eq!(p.state_space_bound(), Some(132));
    /// ```
    #[must_use]
    pub fn practical(n: u32) -> Self {
        let bitlen = |x: u32| 32 - x.max(2).leading_zeros();
        let phase_len = bitlen(n);
        let max_level = bitlen(phase_len) + 1;
        Self::new(max_level as u8, phase_len as u8)
    }

    /// The junta-level ceiling.
    #[must_use]
    pub fn max_level(&self) -> u8 {
        self.max_level
    }

    /// The phase-clock modulus `m`.
    #[must_use]
    pub fn phase_len(&self) -> u8 {
        self.phase_len
    }

    /// The cyclically-ahead reading of two `mod m` clocks: the one the
    /// other can reach in at most `⌊m/2⌋` forward ticks (ties at the
    /// antipode break to the numerically larger reading, keeping the
    /// function symmetric and hence the transition well defined).
    #[must_use]
    pub fn clock_max(&self, x: u8, y: u8) -> u8 {
        let m = u16::from(self.phase_len);
        let d = (u16::from(y) + m - u16::from(x)) % m;
        if d == 0 {
            x
        } else if 2 * d < m {
            y
        } else if 2 * d > m {
            x
        } else {
            x.max(y)
        }
    }

    /// Cyclic distance between two readings (forward or backward,
    /// whichever is shorter) — duels fire at distance `≤ 1`.
    #[must_use]
    pub fn clock_dist(&self, x: u8, y: u8) -> u8 {
        let m = u16::from(self.phase_len);
        let d = (u16::from(y) + m - u16::from(x)) % m;
        d.min(m - d) as u8
    }

    /// The transition on a pair of states, exposed for unit tests and
    /// the concordance's rule-by-rule references.
    ///
    /// Safety induction ("the global max level is always held by a
    /// candidate", whence `LeaderCountOracle` exactness): initially all
    /// agents are level-0 candidates. A same-level duel leaves the
    /// initiator a candidate at the (possibly new) maximum; the
    /// level-adoption rule only drops a candidate whose level is
    /// *strictly below* the witnessed one — by induction some *other*
    /// candidate already holds a level at least that high; and no rule
    /// ever lowers a level or revives a candidate.
    #[must_use]
    pub fn interact(&self, a: &SpaceOptState, b: &SpaceOptState) -> (SpaceOptState, SpaceOptState) {
        let mut na = *a;
        let mut nb = *b;
        // Junta race on the pre-interaction levels and clocks.
        if a.candidate
            && b.candidate
            && a.level == b.level
            && self.clock_dist(a.clock, b.clock) <= 1
        {
            // Clock-gated duel: the initiator survives, climbing one
            // level while the ceiling allows.
            if a.level < self.max_level {
                na.level = a.level + 1;
            }
            nb.candidate = false;
        } else {
            // Level epidemic: witnessing a strictly higher level means
            // someone is ahead in the race — adopt it and drop out.
            if a.level < b.level {
                na.level = b.level;
                na.candidate = false;
            } else if b.level < a.level {
                nb.level = a.level;
                nb.candidate = false;
            }
        }
        // Phase clock: both jump to the cyclically-ahead reading; a
        // surviving candidate initiator then ticks it — the clock is
        // junta-driven, so it freezes only when the race is over.
        let c = self.clock_max(a.clock, b.clock);
        na.clock = c;
        nb.clock = c;
        if na.candidate {
            na.clock = (c + 1) % self.phase_len;
        }
        (na, nb)
    }
}

impl Protocol for SpaceOptimalProtocol {
    type State = SpaceOptState;
    type Oracle = LeaderCountOracle;

    fn initial_state(&self, _node: NodeId) -> SpaceOptState {
        SpaceOptState {
            level: 0,
            candidate: true,
            clock: 0,
        }
    }

    fn initial_census(&self, n: u64) -> Vec<(SpaceOptState, u64)> {
        // Uniform start: one run of the same state.
        std::iter::once((self.initial_state(0), n))
            .filter(|&(_, count)| count > 0)
            .collect()
    }

    fn transition(&self, a: &SpaceOptState, b: &SpaceOptState) -> (SpaceOptState, SpaceOptState) {
        self.interact(a, b)
    }

    fn output(&self, state: &SpaceOptState) -> Role {
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
        Some(2 * (u64::from(self.max_level) + 1) * u64::from(self.phase_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popele_engine::exhaustive::{
        check_stable_and_correct, validate_oracle_on_execution, Verdict, DEFAULT_CONFIG_LIMIT,
    };
    use popele_engine::monte_carlo::{
        run_trials_auto_prepared, Engine, EngineSelection, TrialOptions, TrialStats,
    };
    use popele_engine::{CompiledProtocol, Executor};
    use popele_graph::families;

    fn cand(level: u8, clock: u8) -> SpaceOptState {
        SpaceOptState {
            level,
            candidate: true,
            clock,
        }
    }

    fn fol(level: u8, clock: u8) -> SpaceOptState {
        SpaceOptState {
            level,
            candidate: false,
            clock,
        }
    }

    #[test]
    fn duel_rules() {
        let p = SpaceOptimalProtocol::new(2, 8);
        // Same level, clocks in sync: the initiator climbs, the
        // responder drops out, both land on the ticked common reading.
        assert_eq!(
            p.interact(&cand(0, 3), &cand(0, 3)),
            (cand(1, 4), fol(0, 3))
        );
        assert_eq!(
            p.interact(&cand(0, 3), &cand(0, 4)),
            (cand(1, 5), fol(0, 4))
        );
        // At the ceiling the duel still eliminates, without climbing.
        assert_eq!(
            p.interact(&cand(2, 0), &cand(2, 0)),
            (cand(2, 1), fol(2, 0))
        );
        // Clocks too far apart: no duel, just synchronization (both
        // stay candidates, initiator ticks the synced clock).
        assert_eq!(
            p.interact(&cand(0, 0), &cand(0, 3)),
            (cand(0, 4), cand(0, 3))
        );
    }

    #[test]
    fn level_epidemic_drops_trailing_candidates() {
        let p = SpaceOptimalProtocol::new(3, 8);
        // A candidate that witnesses a higher level adopts it and
        // drops out; the witness is unaffected (but synced).
        assert_eq!(p.interact(&cand(1, 2), &fol(2, 2)), (fol(2, 2), fol(2, 2)));
        // The dropped candidate no longer ticks the clock either.
        assert_eq!(p.interact(&fol(3, 5), &cand(1, 5)), (fol(3, 5), fol(3, 5)));
        // Follower-follower meetings spread the max level.
        assert_eq!(p.interact(&fol(0, 1), &fol(2, 1)), (fol(2, 1), fol(2, 1)));
    }

    #[test]
    fn clock_max_is_symmetric_and_cyclic() {
        let p = SpaceOptimalProtocol::new(1, 6);
        for x in 0..6 {
            for y in 0..6 {
                assert_eq!(p.clock_max(x, y), p.clock_max(y, x), "({x},{y})");
                assert_eq!(p.clock_dist(x, y), p.clock_dist(y, x), "({x},{y})");
            }
        }
        // 5 is one tick behind 0, so 0 is ahead.
        assert_eq!(p.clock_max(5, 0), 0);
        assert_eq!(p.clock_dist(5, 0), 1);
        // The antipode tie breaks to the larger reading, symmetrically.
        assert_eq!(p.clock_max(1, 4), 4);
        assert_eq!(p.clock_max(4, 1), 4);
    }

    #[test]
    fn elects_exactly_one_candidate_on_cliques() {
        // The clique is this family's home model (see the module docs):
        // on sparse graphs two ceiling-level candidates may end up
        // non-adjacent with no way to duel, which is exactly why the
        // sweep restricts space-opt cells to cliques.
        for n in [8u32, 16, 32, 64] {
            let g = families::clique(n);
            let p = SpaceOptimalProtocol::practical(n);
            let out = Executor::new(&g, &p, 0x5ACE ^ u64::from(n))
                .run_until_stable(1 << 26)
                .unwrap_or_else(|_| panic!("did not elect on {g}"));
            assert_eq!(out.leader_count, 1, "{g}");
        }
    }

    #[test]
    fn candidate_count_never_increases_and_max_level_is_candidate_held() {
        // Drive a clique run and check the two safety invariants the
        // oracle-exactness argument rests on, step by step.
        let g = families::clique(12);
        let p = SpaceOptimalProtocol::practical(12);
        let mut exec = Executor::new(&g, &p, 77);
        let mut last_count = usize::MAX;
        for _ in 0..20_000 {
            let states = exec.states();
            let count = states.iter().filter(|s| s.candidate).count();
            assert!(count <= last_count, "candidate count increased");
            assert!(count >= 1, "the race lost every candidate");
            let max_level = states.iter().map(|s| s.level).max().unwrap();
            assert!(
                states.iter().any(|s| s.candidate && s.level == max_level),
                "no candidate at the global max level"
            );
            last_count = count;
            exec.step();
        }
    }

    #[test]
    fn exhaustive_every_reachable_configuration_is_correctly_judged() {
        // n ≤ 8 exhaustive validation on cliques and a cycle: along an
        // execution, the oracle's verdict must match the reachability
        // search at every step (mirrors the dense-id exhaustive suite;
        // the compiled twin lives in tests/protocol_matrix.rs).
        let p = SpaceOptimalProtocol::new(1, 2);
        for g in [
            families::clique(4),
            families::clique(5),
            families::clique(6),
        ] {
            let steps = validate_oracle_on_execution(&p, &g, 3, 4000, DEFAULT_CONFIG_LIMIT);
            assert!(steps < 4000, "should elect quickly on {g}");
        }
    }

    #[test]
    fn exhaustive_unique_candidate_configurations_are_stable() {
        let p = SpaceOptimalProtocol::new(1, 2);
        let g = families::clique(4);
        // One ceiling-level candidate among followers: absorbing.
        let config = vec![cand(1, 1), fol(1, 0), fol(0, 1), fol(1, 1)];
        assert_eq!(
            check_stable_and_correct(&p, &g, &config, DEFAULT_CONFIG_LIMIT),
            Verdict::Stable
        );
        // Two candidates: a duel is always reachable, so unstable.
        let config = vec![cand(1, 1), cand(1, 1), fol(0, 0), fol(1, 1)];
        assert_eq!(
            check_stable_and_correct(&p, &g, &config, DEFAULT_CONFIG_LIMIT),
            Verdict::Unstable
        );
    }

    #[test]
    fn census_respects_the_declared_bound_and_aot_selection() {
        let g = families::clique(16);
        let p = SpaceOptimalProtocol::practical(16);
        assert_eq!(EngineSelection::prepare(&p, 16).engine(), Engine::Dense);
        let results = run_trials_auto_prepared(
            &g,
            &p,
            &EngineSelection::generic(),
            5,
            TrialOptions {
                trials: 3,
                max_steps: 1 << 24,
                census: true,
                threads: 1,
                ..TrialOptions::default()
            },
        );
        let stats = TrialStats::from_results(&results);
        let seen = stats.max_distinct_states.unwrap() as u64;
        assert!(seen <= p.state_space_bound().unwrap(), "census {seen}");
    }

    #[test]
    fn compiled_closure_fits_the_declared_bound_even_at_count_scale() {
        // The count tier's door: |Λ| at n = 10⁹ parameters stays far
        // below the 4096-state count compile cap.
        let p = SpaceOptimalProtocol::practical(1_000_000_000);
        assert!(p.state_space_bound().unwrap() <= 4096);
        let compiled = CompiledProtocol::compile(&p, 64, 4096).unwrap();
        assert!(compiled.num_states() as u64 <= p.state_space_bound().unwrap());
    }
}
