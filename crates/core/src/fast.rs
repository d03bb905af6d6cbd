//! The fast space-efficient leader-election protocol (Theorem 24):
//! `O(B(G)·log n)` expected stabilization with `O(log n · h(G))` states.
//!
//! Every node runs a [`crate::clock::StreakClock`] with streak length `h`
//! chosen so that clock ticks arrive roughly every `B(G)` steps at
//! `Θ(Δ)`-degree nodes. All nodes start as leaders at level 0 and race up
//! a ladder of `α·L` levels:
//!
//! 1. a **leader** that completes a streak climbs one level (rule 1);
//! 2. meeting a node of strictly higher level `≥ L` demotes a node to
//!    follower (rule 2);
//! 3. levels `≥ L` spread by broadcast (rule 3).
//!
//! Levels below `L` are the *waiting phase* — low-degree nodes tick too
//! slowly to reach `L` before the broadcast of faster nodes' levels
//! arrives, which is what eliminates them and guarantees the winner has
//! degree `Θ(Δ)` w.h.p. Levels in `[L, α·L)` are the *elimination phase*:
//! whenever two surviving leaders are at the same level, the next tick
//! plus one broadcast demotes one of them with constant probability
//! (Lemma 30), so `O(log n)` levels suffice to whittle the field to one
//! w.h.p. (Lemma 31). A node reaching the cap `α·L` switches to the
//! always-correct **backup**: the 6-state token protocol
//! ([`crate::token`]), seeded with its current status, while continuing to
//! broadcast its level so every node follows it into the backup phase.
//! The backup fires with probability `O(n^{−τ})` and guarantees finite
//! expected stabilization time.
//!
//! # Stability oracle
//!
//! Let `leaders` be the number of leader-*output* nodes (backup nodes
//! output their token-protocol candidacy; fast-phase nodes their status),
//! `backup` the number of nodes in the backup phase, and `backup_cands`
//! the number of backup candidates. The oracle reports stability iff
//!
//! ```text
//! leaders == 1  ∧  (backup == 0 ∨ backup_cands == 1)
//! ```
//!
//! *Soundness.* Status never goes follower → leader, and backup
//! candidates arise only from entry status, so leader outputs never
//! reappear. If `backup == 0`: the maximum level in the system was first
//! reached by a rule-1 increment, whose owner cannot be demoted while the
//! maximum stands (demotion needs a strictly higher partner), so the
//! unique leader holds the maximum level and rule 2 can never fire on it;
//! reaching the cap later only turns it into the unique backup candidate,
//! which is protected by the token-protocol invariant
//! (`candidates = blacks + whites`, see [`crate::token`]). If
//! `backup_cands == 1`: the unique output leader is that backup
//! candidate; every fast-phase node is a follower and joins the backup as
//! a follower (rule 2 fires before the rule-3 level copy), so no output
//! ever changes. *Necessity.* With two leader outputs one of them is
//! eventually demoted (Lemma 31 / token coalescence); with a unique
//! *fast* leader but a candidate-less backup region, the leader is
//! demoted on contact with the cap-level front. Validated against
//! exhaustive reachability search in the tests.

use crate::params::FastParams;
use crate::token::{TokenProtocol, TokenState};
use popele_engine::{Protocol, Role, StabilityOracle, EFFECT_OPAQUE};
use popele_graph::NodeId;

/// Leadership status during the fast phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Still in contention.
    Leader,
    /// Eliminated.
    Follower,
}

/// Local state of the fast protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FastState {
    /// Streak counter of the local clock (`0..h`).
    pub streak: u8,
    /// Tournament level (`0..=α·L`).
    pub level: u32,
    /// Fast-phase status.
    pub status: Status,
    /// Backup token-protocol state, engaged upon reaching level `α·L`.
    pub backup: Option<TokenState>,
}

/// The Theorem 24 protocol.
///
/// # Examples
///
/// ```
/// use popele_core::fast::FastProtocol;
/// use popele_core::params::FastParams;
/// use popele_engine::Executor;
/// use popele_graph::families;
///
/// let g = families::clique(32);
/// // Practical parameters for a clique with B(G) ≈ n·log n ≈ 111.
/// let params = FastParams::practical(111.0, 31, g.num_edges(), 32);
/// let p = FastProtocol::new(params);
/// let out = Executor::new(&g, &p, 7).run_until_stable(100_000_000).unwrap();
/// assert_eq!(out.leader_count, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastProtocol {
    params: FastParams,
}

impl FastProtocol {
    /// Creates the protocol with the given parameters (see
    /// [`FastParams::paper`] and [`FastParams::practical`]).
    #[must_use]
    pub fn new(params: FastParams) -> Self {
        Self { params }
    }

    /// The protocol's parameters.
    #[must_use]
    pub fn params(&self) -> &FastParams {
        &self.params
    }
}

impl Protocol for FastProtocol {
    type State = FastState;
    type Oracle = FastOracle;

    fn initial_state(&self, _node: NodeId) -> FastState {
        FastState {
            streak: 0,
            level: 0,
            status: Status::Leader,
            backup: None,
        }
    }

    fn initial_census(&self, n: u64) -> Vec<(FastState, u64)> {
        // Uniform start: one run of the same state.
        std::iter::once((self.initial_state(0), n))
            .filter(|&(_, count)| count > 0)
            .collect()
    }

    fn transition(&self, a: &FastState, b: &FastState) -> (FastState, FastState) {
        let h = self.params.h;
        let big_l = self.params.big_l;
        let cap = self.params.max_level();
        let mut na = *a;
        let mut nb = *b;

        // Clock subroutine: the initiator extends its streak, the
        // responder resets; only the initiator can complete a streak.
        na.streak += 1;
        let a_tick = if na.streak == h {
            na.streak = 0;
            true
        } else {
            false
        };
        nb.streak = 0;

        // Rule 1: a leader completing a streak climbs a level.
        if a_tick && na.status == Status::Leader {
            na.level = (na.level + 1).min(cap);
        }

        // Rule 2 uses the *post-rule-1* levels (Lemma 30 relies on the
        // responder observing the initiator's fresh level).
        let (la, lb) = (na.level, nb.level);
        if la < lb && lb >= big_l {
            na.status = Status::Follower;
        }
        if lb < la && la >= big_l {
            nb.status = Status::Follower;
        }

        // Rule 3: elimination-phase levels spread by broadcast.
        let mx = la.max(lb);
        if mx >= big_l {
            na.level = mx;
            nb.level = mx;
        }

        // Backup entry: reaching the cap switches to the token protocol,
        // seeded with the node's (post-rule-2) status.
        for s in [&mut na, &mut nb] {
            if s.level == cap && s.backup.is_none() {
                s.backup = Some(if s.status == Status::Leader {
                    TokenState::candidate()
                } else {
                    TokenState::follower()
                });
            }
        }

        // Backup interaction: once both endpoints run the backup, the
        // token protocol takes over.
        if let (Some(x), Some(y)) = (na.backup, nb.backup) {
            let (nx, ny) = TokenProtocol::interact(&x, &y);
            na.backup = Some(nx);
            nb.backup = Some(ny);
        }

        (na, nb)
    }

    fn output(&self, state: &FastState) -> Role {
        let leading = match state.backup {
            Some(inner) => inner.candidate,
            None => state.status == Status::Leader,
        };
        if leading {
            Role::Leader
        } else {
            Role::Follower
        }
    }

    fn oracle(&self) -> FastOracle {
        FastOracle::default()
    }

    fn state_space_bound(&self) -> Option<u64> {
        Some(self.params.state_space_bound())
    }
}

/// Incremental oracle for [`FastProtocol`]; see the module docs for the
/// exactness argument.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastOracle {
    leaders: usize,
    backup: usize,
    backup_candidates: usize,
}

impl FastOracle {
    fn add(&mut self, s: &FastState) {
        self.add_many(s, 1);
    }

    fn add_many(&mut self, s: &FastState, count: usize) {
        let [leader, backup, candidate] = Self::weight(s);
        self.leaders += count * leader;
        self.backup += count * backup;
        self.backup_candidates += count * candidate;
    }

    /// What `s` adds to `leaders`, `backup` and `backup_candidates`.
    fn weight(s: &FastState) -> [usize; 3] {
        match s.backup {
            Some(inner) => {
                let candidate = usize::from(inner.candidate);
                [candidate, 1, candidate]
            }
            None => [usize::from(s.status == Status::Leader), 0, 0],
        }
    }

    fn remove(&mut self, s: &FastState) {
        let [leader, backup, candidate] = Self::weight(s);
        self.leaders -= leader;
        self.backup -= backup;
        self.backup_candidates -= candidate;
    }

    /// Number of nodes currently in the backup phase.
    #[must_use]
    pub fn backup_count(&self) -> usize {
        self.backup
    }

    /// Number of leader-output nodes.
    #[must_use]
    pub fn leader_count(&self) -> usize {
        self.leaders
    }
}

impl StabilityOracle<FastProtocol> for FastOracle {
    fn recompute(&mut self, _protocol: &FastProtocol, config: &[FastState]) {
        *self = Self::default();
        for s in config {
            self.add(s);
        }
    }

    fn apply(
        &mut self,
        _protocol: &FastProtocol,
        old: (&FastState, &FastState),
        new: (&FastState, &FastState),
    ) {
        self.remove(old.0);
        self.remove(old.1);
        self.add(new.0);
        self.add(new.1);
    }

    fn recompute_census(&mut self, _protocol: &FastProtocol, census: &[(FastState, u64)]) -> bool {
        *self = Self::default();
        for (s, count) in census {
            self.add_many(s, *count as usize);
        }
        true
    }

    fn is_stable(&self) -> bool {
        self.leaders == 1 && (self.backup == 0 || self.backup_candidates == 1)
    }

    fn transition_effect(
        &self,
        _protocol: &FastProtocol,
        old: (&FastState, &FastState),
        new: (&FastState, &FastState),
    ) -> u64 {
        // Every counter is a sum of per-state weights, so a transition
        // whose two old states weigh what its two new states weigh
        // leaves all three unchanged — streak-only clock ticks, the bulk
        // of a run, among them. That is a pure function of the four
        // states, so the verdict folds entirely into the summary.
        let sum = |a: &FastState, b: &FastState| {
            let (wa, wb) = (Self::weight(a), Self::weight(b));
            [0, 1, 2].map(|i| wa[i] + wb[i])
        };
        if sum(old.0, old.1) == sum(new.0, new.1) {
            0
        } else {
            EFFECT_OPAQUE
        }
    }

    fn effect_inert(&self, effect: u64) -> bool {
        effect != EFFECT_OPAQUE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popele_engine::exhaustive::{check_stable_and_correct, Verdict, DEFAULT_CONFIG_LIMIT};
    use popele_engine::Executor;
    use popele_graph::families;
    use popele_math::rng::SeedSeq;

    fn practical_for(g: &popele_graph::Graph, b_estimate: f64) -> FastProtocol {
        FastProtocol::new(FastParams::practical(
            b_estimate,
            g.max_degree(),
            g.num_edges(),
            g.num_nodes(),
        ))
    }

    #[test]
    fn stabilizes_on_clique() {
        let g = families::clique(32);
        let p = practical_for(&g, 120.0);
        let out = Executor::new(&g, &p, 5)
            .run_until_stable(200_000_000)
            .unwrap();
        assert_eq!(out.leader_count, 1);
    }

    #[test]
    fn stabilizes_on_cycle_and_torus() {
        for (g, b) in [
            (families::cycle(24), 24.0 * 24.0 / 2.0),
            (families::torus(5, 5), 600.0),
        ] {
            let p = practical_for(&g, b);
            let out = Executor::new(&g, &p, 9)
                .run_until_stable(500_000_000)
                .unwrap_or_else(|_| panic!("did not stabilize on {g}"));
            assert_eq!(out.leader_count, 1);
        }
    }

    #[test]
    fn at_least_one_leader_output_always() {
        // The paper: "the protocol guarantees that there is always at
        // least one leader in every step."
        let g = families::cycle(12);
        let p = practical_for(&g, 150.0);
        let mut exec = Executor::new(&g, &p, 3);
        for _ in 0..200_000 {
            exec.step();
            if exec.is_stable() {
                break;
            }
        }
        assert!(exec.leader_count() >= 1);
    }

    #[test]
    fn leaders_never_reappear() {
        let g = families::clique(10);
        let p = practical_for(&g, 40.0);
        let mut exec = Executor::new(&g, &p, 11);
        let mut prev = exec.leader_count();
        let mut was_leader: Vec<bool> = vec![true; 10];
        for _ in 0..100_000 {
            exec.step();
            let count = exec.leader_count();
            // Individual nodes never regain leader output.
            for (v, s) in exec.states().iter().enumerate() {
                let is_leader = p.output(s) == popele_engine::Role::Leader;
                if is_leader {
                    assert!(was_leader[v], "node {v} regained leadership");
                }
                was_leader[v] = is_leader;
            }
            prev = count;
            if exec.is_stable() {
                break;
            }
        }
        let _ = prev;
    }

    #[test]
    fn tiny_cap_forces_backup_and_still_elects() {
        // With a tiny level cap several nodes survive to the cap and the
        // backup must resolve them.
        let g = families::clique(12);
        let p = FastProtocol::new(FastParams::new(1, 1, 2));
        let mut exec = Executor::new(&g, &p, 17);
        let out = exec.run_until_stable(50_000_000).unwrap();
        assert_eq!(out.leader_count, 1);
        assert!(
            exec.oracle().backup_count() > 0,
            "cap 2 on a clique should engage the backup"
        );
    }

    #[test]
    fn oracle_agrees_with_exhaustive_at_snapshots() {
        // Compare the oracle against the reachability definition at many
        // points along executions on a 2-clique (single edge), where the
        // configuration space is small.
        let g = families::clique(2);
        let p = FastProtocol::new(FastParams::new(1, 1, 2));
        let seq = SeedSeq::new(23);
        for trial in 0..4u64 {
            let mut exec = Executor::new(&g, &p, seq.child(trial));
            for step in 0..40 {
                let exhaustive =
                    check_stable_and_correct(&p, &g, exec.states(), DEFAULT_CONFIG_LIMIT);
                match exhaustive {
                    Verdict::Stable => assert!(
                        exec.is_stable(),
                        "trial {trial} step {step}: oracle misses stability: {:?}",
                        exec.states()
                    ),
                    Verdict::Unstable => assert!(
                        !exec.is_stable(),
                        "trial {trial} step {step}: oracle claims stability: {:?}",
                        exec.states()
                    ),
                    Verdict::Inconclusive => panic!("state space too large"),
                }
                exec.step();
            }
        }
    }

    #[test]
    fn oracle_agrees_with_exhaustive_on_triangle() {
        let g = families::cycle(3);
        let p = FastProtocol::new(FastParams::new(1, 1, 2));
        let mut exec = Executor::new(&g, &p, 77);
        for _ in 0..30 {
            let exhaustive = check_stable_and_correct(&p, &g, exec.states(), DEFAULT_CONFIG_LIMIT);
            match exhaustive {
                Verdict::Stable => assert!(exec.is_stable()),
                Verdict::Unstable => assert!(!exec.is_stable()),
                Verdict::Inconclusive => panic!("state space too large"),
            }
            exec.step();
        }
    }

    #[test]
    fn high_degree_node_wins_on_star() {
        // Theorem 24 guarantees the winner has degree Θ(Δ) w.h.p.; on a
        // star the centre should essentially always win.
        let g = families::star(40);
        let b = 40.0 * (40.0f64).ln(); // B(star) ≈ n·ln n
        let p = practical_for(&g, b);
        let seq = SeedSeq::new(31);
        let mut centre_wins = 0;
        let trials = 10;
        for i in 0..trials {
            let out = Executor::new(&g, &p, seq.child(i))
                .run_until_stable(500_000_000)
                .unwrap();
            if out.leader == Some(0) {
                centre_wins += 1;
            }
        }
        assert!(
            centre_wins >= 8,
            "centre won only {centre_wins}/{trials} trials"
        );
    }

    #[test]
    fn rule2_demotes_on_fresh_level() {
        // Lemma 30's step: both at level L, initiator ticks to L+1, the
        // responder must observe the fresh level and be demoted.
        let params = FastParams::new(1, 1, 4); // h=1: every initiation ticks
        let p = FastProtocol::new(params);
        let at_l = FastState {
            streak: 0,
            level: 1,
            status: Status::Leader,
            backup: None,
        };
        let (na, nb) = p.transition(&at_l, &at_l);
        assert_eq!(na.level, 2);
        assert_eq!(na.status, Status::Leader);
        assert_eq!(nb.status, Status::Follower, "responder must be demoted");
        assert_eq!(nb.level, 2, "rule 3 copies the level");
    }

    #[test]
    fn waiting_phase_levels_do_not_spread() {
        // Below L, rule 3 must not copy levels.
        let p = FastProtocol::new(FastParams::new(2, 5, 2));
        let low = FastState {
            streak: 0,
            level: 2,
            status: Status::Leader,
            backup: None,
        };
        let zero = FastState {
            streak: 0,
            level: 0,
            status: Status::Leader,
            backup: None,
        };
        let (na, nb) = p.transition(&low, &zero);
        assert_eq!(na.level, 2);
        assert_eq!(nb.level, 0, "waiting-phase level must not spread");
        assert_eq!(nb.status, Status::Leader, "no demotion below L");
    }

    #[test]
    fn backup_entry_seeds_candidacy_from_status() {
        let params = FastParams::new(1, 1, 2); // cap = 2
        let p = FastProtocol::new(params);
        let leader_near_cap = FastState {
            streak: 0,
            level: 1,
            status: Status::Leader,
            backup: None,
        };
        let follower_low = FastState {
            streak: 0,
            level: 1,
            status: Status::Follower,
            backup: None,
        };
        // Initiator ticks 1 → 2 = cap → backup as candidate; responder
        // demoted (already follower) and pulled to the cap → backup as
        // follower.
        let (na, nb) = p.transition(&leader_near_cap, &follower_low);
        assert!(na.backup.unwrap().candidate);
        assert!(!nb.backup.unwrap().candidate);
    }

    #[test]
    fn census_within_bound() {
        let g = families::clique(10);
        let p = FastProtocol::new(FastParams::new(2, 2, 2));
        let mut exec = Executor::new(&g, &p, 3);
        exec.enable_state_census();
        let _ = exec.run_until_stable(50_000_000).unwrap();
        let seen = exec.outcome().distinct_states.unwrap() as u64;
        assert!(
            seen <= p.state_space_bound().unwrap(),
            "{seen} states exceed the bound"
        );
    }

    #[test]
    fn inert_effects_leave_oracle_unchanged() {
        // Every ordered pair of the reachable closure (backup states
        // included): wherever `effect_inert` vouches for a transition,
        // applying it must leave the oracle bit-for-bit unchanged, from
        // oracles holding several different counter values.
        use popele_engine::CompiledProtocol;
        let p = FastProtocol::new(FastParams::new(3, 2, 2));
        let compiled = CompiledProtocol::compile_default(&p, 8).unwrap();
        let states = compiled.states();
        let candidate = states
            .iter()
            .find(|s| s.backup.is_some_and(|b| b.candidate))
            .expect("closure reaches a backup candidate");
        let (mut inert, mut opaque) = (0u32, 0u32);
        for a in states {
            for b in states {
                let (na, nb) = p.transition(a, b);
                let probe = p.oracle();
                if !probe.effect_inert(probe.transition_effect(&p, (a, b), (&na, &nb))) {
                    opaque += 1;
                    continue;
                }
                inert += 1;
                for extra in [
                    vec![],
                    vec![p.initial_state(0); 3],
                    vec![*candidate, *a, *b],
                ] {
                    let mut oracle = p.oracle();
                    oracle.recompute(&p, &[&[*a, *b][..], &extra].concat());
                    let before = oracle;
                    oracle.apply(&p, (a, b), (&na, &nb));
                    assert_eq!(oracle, before, "{a:?} × {b:?} → {na:?}, {nb:?}");
                }
            }
        }
        assert!(inert > 0, "inert path never exercised");
        assert!(opaque > 0, "every transition classified inert");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = families::clique(12);
        let p = practical_for(&g, 40.0);
        let a = Executor::new(&g, &p, 2).run_until_stable(1 << 32).unwrap();
        let b = Executor::new(&g, &p, 2).run_until_stable(1 << 32).unwrap();
        assert_eq!(a, b);
    }
}
