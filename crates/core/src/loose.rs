//! Loosely-stabilizing leader election: the timeout/propagation family.
//!
//! The paper's protocols assume a clean initial configuration; this
//! module implements the neighbouring regime — **loose stabilization**
//! (Sudo et al. 2012; Kanaya et al. 2024 on arbitrary graphs without
//! identifiers; Yokota et al. 2020 on rings): started from an
//! *arbitrary* configuration, the protocol must reach a unique-leader
//! configuration within a small expected **election time** and then
//! keep it for a large expected **holding time**. Exact self-stabilizing
//! leader election is impossible for anonymous constant-interaction
//! agents on general graphs (Angluin, Aspnes, Fischer, Jiang 2008), so
//! loose stabilization — holding for a time exponential in a tunable
//! budget rather than forever — is the strongest guarantee this model
//! admits, and the elect-vs-hold tradeoff is *the* design axis
//! (`popele-lab stabilize` measures it).
//!
//! Two protocols share the mechanism:
//!
//! * [`LooseProtocol`] — for arbitrary graphs. Per Kanaya et al.'s
//!   timeout/propagation structure, every agent keeps a count-down
//!   **heartbeat timer**; the leader (a walking token, as in the
//!   Theorem 16 baseline — it must walk, because on a sparse graph two
//!   static leaders may never be adjacent to duel) refreshes the timers
//!   of everyone it meets to the budget `τ`, high timers propagate
//!   epidemically (`max − 1`), and an agent whose pair times out
//!   **promotes itself** — the timeout phase that makes a leaderless
//!   configuration recoverable. Two leaders that meet merge.
//! * [`RingLooseProtocol`] — the ring-specialized variant. Instead of
//!   an abstract timer it propagates a believed **hop distance to the
//!   leader** (`min + 1`, aging upward when no leader feeds zeroes);
//!   an agent whose believed distance reaches the bound `B` has
//!   evidence that no leader exists within `B − 1` hops — on an
//!   `n`-ring with `B > n` an impossibility — and promotes itself.
//!   [`RingLooseProtocol::for_ring`] derives `B = 2n` from the known
//!   ring size, the same knowledge the self-stabilizing ring protocols
//!   assume.
//!
//! # What the oracle certifies
//!
//! Unique-leader configurations of these protocols are **not** stable
//! forever — by design a timeout can always mint a new leader. Their
//! [`LeaderCountOracle`] therefore certifies the *holding predicate*
//! ("exactly one node outputs leader"), not classic stability:
//! `run_until_stable` returns the **election step**, and the
//! elect-and-hold drivers of [`popele_engine::stabilize`] keep running
//! past it to time how long the predicate holds before the first
//! violation. (This is exactly the pair of quantities loose
//! stabilization is defined by; the exhaustive reachability validator
//! is deliberately *not* applicable here.)
//!
//! # Tradeoff shape
//!
//! Raising the budget (`τ` or `B`) slows election — a leaderless start
//! must drain the budget before the first timeout — and lengthens the
//! hold superlinearly: a violation needs some agent to decay through
//! the whole budget without once hearing the leader's heartbeat, a
//! probability that shrinks geometrically with the budget once it
//! exceeds the graph's propagation time. `popele-lab stabilize`
//! reproduces the resulting elect-vs-hold table.
//!
//! # Examples
//!
//! ```
//! use popele_core::loose::LooseProtocol;
//! use popele_engine::stabilize::{arbitrary_config, arbitrary_seed, run_to_hold};
//! use popele_engine::Executor;
//! use popele_graph::families;
//!
//! let g = families::clique(16);
//! let p = LooseProtocol::new(24);
//! let mut exec = Executor::new(&g, &p, 7);
//! // Start from an adversarial configuration, elect, then hold.
//! exec.set_configuration(&arbitrary_config(&p, 16, arbitrary_seed(7)));
//! let report = run_to_hold(&mut exec, 1 << 22);
//! assert!(report.holding.elect_step.is_some());
//! ```

use popele_engine::stabilize::ArbitraryInit;
use popele_engine::{LeaderCountOracle, Protocol, Role};
use popele_graph::NodeId;

/// Local state of [`LooseProtocol`]: a leadership token bit plus the
/// count-down heartbeat timer (`2·(τ + 1)` states).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LooseState {
    /// Whether this node holds the leadership token (and outputs
    /// *leader*).
    pub leader: bool,
    /// Heartbeat timer in `0..=timer_max`: time credit since the last
    /// evidence that a leader exists.
    pub timer: u32,
}

/// Loosely-stabilizing leader election for arbitrary graphs
/// (timeout/propagation with a walking leader token).
///
/// See the [module docs](self) for the mechanism and guarantees.
///
/// # Examples
///
/// ```
/// use popele_core::loose::LooseProtocol;
/// use popele_engine::{Executor, Protocol};
/// use popele_graph::families;
///
/// // From the clean initial configuration the first election is a
/// // timer drain followed by token coalescence.
/// let p = LooseProtocol::new(8);
/// assert_eq!(p.state_space_bound(), Some(18));
/// let out = Executor::new(&families::clique(12), &p, 3)
///     .run_until_stable(1 << 22)
///     .expect("a leader is always minted and merged");
/// assert_eq!(out.leader_count, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LooseProtocol {
    timer_max: u32,
}

impl LooseProtocol {
    /// Creates the protocol with heartbeat budget `timer_max` (`τ`).
    ///
    /// # Panics
    ///
    /// Panics if `timer_max` is zero (every pair would time out).
    #[must_use]
    pub fn new(timer_max: u32) -> Self {
        assert!(timer_max >= 1, "the heartbeat budget must be at least 1");
        Self { timer_max }
    }

    /// Simulation-practical budget for an `n`-node graph:
    /// `τ = 8·bitlen(n)` — several heartbeat propagation times on the
    /// dense and expander families, so holds are long while elections
    /// stay cheap. (Sweep cells use this derivation; the `stabilize`
    /// experiment sweeps `τ` explicitly instead.)
    ///
    /// # Examples
    ///
    /// ```
    /// use popele_core::loose::LooseProtocol;
    ///
    /// assert_eq!(LooseProtocol::practical(2000).timer_max(), 88);
    /// ```
    #[must_use]
    pub fn practical(n: u32) -> Self {
        let bitlen = 32 - n.max(2).leading_zeros();
        Self::new(8 * bitlen)
    }

    /// The heartbeat budget `τ`.
    #[must_use]
    pub fn timer_max(&self) -> u32 {
        self.timer_max
    }

    /// The transition on a pair of loose states, exposed for unit tests
    /// and for the concordance's rule-by-rule references.
    #[must_use]
    pub fn interact(&self, a: &LooseState, b: &LooseState) -> (LooseState, LooseState) {
        let tau = self.timer_max;
        let leader = LooseState {
            leader: true,
            timer: tau,
        };
        let follower = LooseState {
            leader: false,
            timer: tau,
        };
        match (a.leader, b.leader) {
            // Duel: two tokens merge, the initiator's survives.
            (true, true) => (leader, follower),
            // The token walks to the other party; both heard the
            // heartbeat first-hand and reset to the full budget.
            (true, false) => (follower, leader),
            (false, true) => (leader, follower),
            // Propagation: the larger credit spreads, decayed by one.
            // A drained pair is the timeout phase — the initiator
            // promotes itself with a fresh token.
            (false, false) => {
                let t = a.timer.max(b.timer).min(tau);
                if t <= 1 {
                    (leader, follower)
                } else {
                    let decayed = LooseState {
                        leader: false,
                        timer: t - 1,
                    };
                    (decayed, decayed)
                }
            }
        }
    }
}

impl Protocol for LooseProtocol {
    type State = LooseState;
    type Oracle = LeaderCountOracle;

    fn initial_state(&self, _node: NodeId) -> LooseState {
        // Clean (re)join: no leadership claim, full benefit of the
        // doubt. A corrupt-to-initial burst that erases the leader
        // therefore forces a full drain before re-election — the
        // bounded re-election time the fault experiments measure.
        LooseState {
            leader: false,
            timer: self.timer_max,
        }
    }

    fn transition(&self, a: &LooseState, b: &LooseState) -> (LooseState, LooseState) {
        self.interact(a, b)
    }

    fn output(&self, state: &LooseState) -> Role {
        if state.leader {
            Role::Leader
        } else {
            Role::Follower
        }
    }

    fn oracle(&self) -> LeaderCountOracle {
        LeaderCountOracle::new()
    }

    fn state_space_bound(&self) -> Option<u64> {
        Some(2 * (u64::from(self.timer_max) + 1))
    }
}

impl ArbitraryInit for LooseProtocol {
    /// Every `(leader, timer)` combination — the full state space, so
    /// the sampler is maximally adversarial ("reachable or not").
    fn arbitrary_support(&self) -> Vec<LooseState> {
        let mut support = Vec::with_capacity(2 * (self.timer_max as usize + 1));
        for timer in 0..=self.timer_max {
            for leader in [false, true] {
                support.push(LooseState { leader, timer });
            }
        }
        support
    }
}

/// Local state of [`RingLooseProtocol`]: the token bit plus the
/// believed hop distance to the leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RingState {
    /// Whether this node holds the leadership token (and outputs
    /// *leader*). A leader's distance is canonically `0`.
    pub leader: bool,
    /// Believed upper bound on the hop distance to the leader, in
    /// `0..=bound`; reaching `bound` is the leaderless verdict.
    pub dist: u32,
}

/// The ring-specialized loosely-stabilizing variant:
/// distance-to-leader invalidation with the bound derived from the
/// known ring size.
///
/// Mechanism (see the [module docs](self)): followers propagate
/// `dist := min(dist_a, dist_b) + 1` — a valid distance bound on a ring
/// whenever the smaller belief is valid, since ring neighbours' true
/// distances differ by exactly one — while the walking leader feeds
/// zeroes. With no leader the global minimum ages upward until some
/// agent reaches `bound` and promotes itself; with a leader present on
/// an `n`-ring and `bound ≥ 2n`, a valid belief can never reach the
/// bound, so spurious promotions need the whole chain of beliefs to go
/// stale — the loose-holding guarantee.
///
/// # Examples
///
/// ```
/// use popele_core::loose::RingLooseProtocol;
/// use popele_engine::{Executor, Protocol};
/// use popele_graph::families;
///
/// let p = RingLooseProtocol::for_ring(16);
/// assert_eq!(p.bound(), 32);
/// let out = Executor::new(&families::cycle(16), &p, 5)
///     .run_until_stable(1 << 24)
///     .expect("self-starts from the clean configuration");
/// assert_eq!(out.leader_count, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingLooseProtocol {
    bound: u32,
}

impl RingLooseProtocol {
    /// Creates the protocol with distance bound `B`.
    ///
    /// # Panics
    ///
    /// Panics if `bound < 2` (promotion would fire on every pair).
    #[must_use]
    pub fn new(bound: u32) -> Self {
        assert!(bound >= 2, "the distance bound must be at least 2");
        Self { bound }
    }

    /// Derives the bound from the ring size: `B = 2n` (true distances
    /// on an `n`-ring are at most `⌊n/2⌋`, so a factor-4 slack absorbs
    /// scheduler-induced staleness), floored at 8 for tiny rings.
    ///
    /// # Examples
    ///
    /// ```
    /// use popele_core::loose::RingLooseProtocol;
    ///
    /// assert_eq!(RingLooseProtocol::for_ring(2000).bound(), 4000);
    /// assert_eq!(RingLooseProtocol::for_ring(3).bound(), 8);
    /// ```
    #[must_use]
    pub fn for_ring(n: u32) -> Self {
        Self::new((2 * n).max(8))
    }

    /// The distance bound `B`.
    #[must_use]
    pub fn bound(&self) -> u32 {
        self.bound
    }

    /// The transition on a pair of ring states, exposed for unit tests
    /// and the concordance.
    #[must_use]
    pub fn interact(&self, a: &RingState, b: &RingState) -> (RingState, RingState) {
        let leader = RingState {
            leader: true,
            dist: 0,
        };
        let adjacent = RingState {
            leader: false,
            dist: 1,
        };
        match (a.leader, b.leader) {
            // Duel: the initiator's token survives; the loser is one
            // hop from it.
            (true, true) => (leader, adjacent),
            // The token walks; the vacated node is one hop away.
            (true, false) => (adjacent, leader),
            (false, true) => (leader, adjacent),
            // Distance propagation with aging; the bound is the
            // leaderless verdict and promotes the initiator.
            (false, false) => {
                let d = a.dist.min(b.dist).saturating_add(1).min(self.bound);
                if d >= self.bound {
                    (leader, adjacent)
                } else {
                    let believed = RingState {
                        leader: false,
                        dist: d,
                    };
                    (believed, believed)
                }
            }
        }
    }
}

impl Protocol for RingLooseProtocol {
    type State = RingState;
    type Oracle = LeaderCountOracle;

    fn initial_state(&self, _node: NodeId) -> RingState {
        // Clean start: no distance evidence at all, i.e. the believed
        // distance is already at the bound — the first interactions
        // mint tokens, which then coalesce along the ring.
        RingState {
            leader: false,
            dist: self.bound,
        }
    }

    fn transition(&self, a: &RingState, b: &RingState) -> (RingState, RingState) {
        self.interact(a, b)
    }

    fn output(&self, state: &RingState) -> Role {
        if state.leader {
            Role::Leader
        } else {
            Role::Follower
        }
    }

    fn oracle(&self) -> LeaderCountOracle {
        LeaderCountOracle::new()
    }

    fn state_space_bound(&self) -> Option<u64> {
        // Follower dists 0..=B plus the canonical leader state.
        Some(u64::from(self.bound) + 2)
    }
}

impl ArbitraryInit for RingLooseProtocol {
    /// Every follower distance plus the canonical leader state
    /// (non-canonical leader states are never produced by any
    /// transition, so the sampler stays within the closure).
    fn arbitrary_support(&self) -> Vec<RingState> {
        let mut support: Vec<RingState> = (0..=self.bound)
            .map(|dist| RingState {
                leader: false,
                dist,
            })
            .collect();
        support.push(RingState {
            leader: true,
            dist: 0,
        });
        support
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popele_engine::monte_carlo::{run_trials_auto_prepared, TrialOptions, TrialStats};
    use popele_engine::stabilize::{
        arbitrary_config, arbitrary_seed, prepare_stabilize_engine, run_to_hold,
        run_trials_stabilize_auto_prepared,
    };
    use popele_engine::{Engine, EngineSelection, Executor, FaultPlan};
    use popele_graph::families;

    fn fol(timer: u32) -> LooseState {
        LooseState {
            leader: false,
            timer,
        }
    }

    fn led(timer: u32) -> LooseState {
        LooseState {
            leader: true,
            timer,
        }
    }

    #[test]
    fn loose_interact_rules() {
        let p = LooseProtocol::new(10);
        // Duel: initiator's token survives, both refreshed.
        assert_eq!(p.interact(&led(3), &led(7)), (led(10), fol(10)));
        // The token walks to the other party.
        assert_eq!(p.interact(&led(2), &fol(0)), (fol(10), led(10)));
        assert_eq!(p.interact(&fol(0), &led(2)), (led(10), fol(10)));
        // Propagation: max − 1 on both sides.
        assert_eq!(p.interact(&fol(4), &fol(9)), (fol(8), fol(8)));
        // Timeout: a drained pair promotes the initiator.
        assert_eq!(p.interact(&fol(1), &fol(1)), (led(10), fol(10)));
        assert_eq!(p.interact(&fol(0), &fol(0)), (led(10), fol(10)));
        // Arbitrary over-budget timers are clamped, not trusted.
        assert_eq!(p.interact(&fol(99), &fol(0)), (fol(9), fol(9)));
    }

    #[test]
    fn loose_elects_from_clean_start_on_all_families() {
        let p = LooseProtocol::new(8);
        for g in [
            families::clique(16),
            families::cycle(16),
            families::star(16),
            families::torus(4, 4),
        ] {
            let out = Executor::new(&g, &p, 42)
                .run_until_stable(20_000_000)
                .unwrap_or_else(|_| panic!("did not elect on {g}"));
            assert_eq!(out.leader_count, 1, "{g}");
        }
    }

    #[test]
    fn loose_elects_and_holds_from_arbitrary_starts() {
        let g = families::clique(16);
        let p = LooseProtocol::new(48);
        for seed in [1u64, 9, 23] {
            let mut exec = Executor::new(&g, &p, seed);
            exec.set_configuration(&arbitrary_config(&p, 16, arbitrary_seed(seed)));
            let report = run_to_hold(&mut exec, 1 << 21);
            let h = report.holding;
            assert!(h.elect_step.is_some(), "seed {seed} failed to elect");
            // A 48-budget heartbeat on a 16-clique essentially cannot
            // drain while the leader keeps refreshing: the hold
            // survives to the budget.
            assert!(h.held_to_budget, "seed {seed} violated: {h:?}");
        }
    }

    #[test]
    fn tiny_budget_holds_break_within_the_budget() {
        // τ = 1 means every follower pair times out: unique-leader
        // configurations are violated almost immediately.
        let g = families::clique(8);
        let p = LooseProtocol::new(1);
        let mut exec = Executor::new(&g, &p, 4);
        exec.set_configuration(&arbitrary_config(&p, 8, arbitrary_seed(4)));
        let report = run_to_hold(&mut exec, 1 << 20);
        let h = report.holding;
        assert!(h.elect_step.is_some());
        assert!(h.hold_steps.is_some(), "τ = 1 must be violated: {h:?}");
        assert!(!h.held_to_budget);
    }

    #[test]
    fn corruption_of_every_node_forces_reelection_within_a_drain() {
        // Corrupt-to-initial on all nodes erases the leader; the next
        // election needs exactly one full drain plus coalescence — the
        // bounded re-election property.
        let g = families::clique(12);
        let p = LooseProtocol::new(6);
        let mut exec = Executor::new(&g, &p, 8);
        exec.run_until_stable(1 << 22).unwrap();
        exec.corrupt_to_initial(&(0..12).collect::<Vec<_>>());
        assert_eq!(exec.leader_count(), 0);
        let out = exec.run_until_stable(1 << 22).expect("re-elects");
        assert_eq!(out.leader_count, 1);
    }

    #[test]
    fn loose_state_census_respects_the_declared_bound() {
        let g = families::clique(10);
        let p = LooseProtocol::new(5);
        let results = run_trials_auto_prepared(
            &g,
            &p,
            &EngineSelection::generic(),
            3,
            TrialOptions {
                trials: 3,
                max_steps: 1 << 22,
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
    fn loose_support_enumerates_the_whole_space() {
        let p = LooseProtocol::new(3);
        let support = p.arbitrary_support();
        assert_eq!(support.len() as u64, p.state_space_bound().unwrap());
        assert!(support.contains(&led(0)), "unreachable states included");
    }

    #[test]
    fn engine_selection_by_budget_size() {
        // Small budgets compile ahead of time; budgets past the AOT cap
        // ride the lazy engine (the state-space bound is declared).
        assert_eq!(
            prepare_stabilize_engine(&LooseProtocol::new(24), 64).engine(),
            Engine::Dense
        );
        assert_eq!(
            prepare_stabilize_engine(&LooseProtocol::new(2000), 64).engine(),
            Engine::LazyDense
        );
        assert_eq!(
            prepare_stabilize_engine(&RingLooseProtocol::for_ring(16), 16).engine(),
            Engine::Dense
        );
        assert_eq!(
            prepare_stabilize_engine(&RingLooseProtocol::for_ring(2000), 2000).engine(),
            Engine::LazyDense
        );
    }

    fn rfol(dist: u32) -> RingState {
        RingState {
            leader: false,
            dist,
        }
    }

    const RLED: RingState = RingState {
        leader: true,
        dist: 0,
    };

    #[test]
    fn ring_interact_rules() {
        let p = RingLooseProtocol::new(8);
        // Duel and walk leave the vacated side one hop away.
        assert_eq!(p.interact(&RLED, &RLED), (RLED, rfol(1)));
        assert_eq!(p.interact(&RLED, &rfol(5)), (rfol(1), RLED));
        assert_eq!(p.interact(&rfol(5), &RLED), (RLED, rfol(1)));
        // Distance propagation ages the pair to min + 1.
        assert_eq!(p.interact(&rfol(2), &rfol(6)), (rfol(3), rfol(3)));
        // Reaching the bound is the leaderless verdict.
        assert_eq!(p.interact(&rfol(7), &rfol(7)), (RLED, rfol(1)));
        assert_eq!(p.interact(&rfol(8), &rfol(8)), (RLED, rfol(1)));
    }

    #[test]
    fn ring_elects_from_clean_and_arbitrary_starts() {
        let g = families::cycle(12);
        let p = RingLooseProtocol::for_ring(12);
        let out = Executor::new(&g, &p, 2)
            .run_until_stable(1 << 24)
            .expect("clean start elects");
        assert_eq!(out.leader_count, 1);
        let mut exec = Executor::new(&g, &p, 3);
        exec.set_configuration(&arbitrary_config(&p, 12, arbitrary_seed(3)));
        let report = run_to_hold(&mut exec, 1 << 24);
        assert!(report.holding.elect_step.is_some());
    }

    #[test]
    fn ring_support_is_canonical() {
        let p = RingLooseProtocol::new(4);
        let support = p.arbitrary_support();
        assert_eq!(support.len() as u64, p.state_space_bound().unwrap());
        // Exactly one leader state, and it is canonical (dist 0).
        let leaders: Vec<_> = support.iter().filter(|s| s.leader).collect();
        assert_eq!(leaders, vec![&RLED]);
    }

    #[test]
    fn stabilize_trials_attach_holding_metrics() {
        let g = families::cycle(10);
        let p = RingLooseProtocol::for_ring(10);
        let results = run_trials_stabilize_auto_prepared(
            &g,
            &p,
            &prepare_stabilize_engine(&p, g.num_nodes()),
            5,
            TrialOptions {
                trials: 4,
                max_steps: 1 << 22,
                threads: 2,
                ..TrialOptions::default()
            },
            &FaultPlan::empty(),
        );
        assert_eq!(results.len(), 4);
        for r in &results {
            let h = r.holding.expect("stabilize trials attach holding");
            assert_eq!(h.elect_step, r.stabilization_step);
        }
    }
}
