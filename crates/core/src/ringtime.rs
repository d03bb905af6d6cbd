//! Time-optimal self-stabilizing leader election on rings: the
//! token-circulation family (after Sudo, Ooshita, Izumi, Kakugawa,
//! Masuzawa, arXiv 2009.10926 — time-optimal loose stabilization via
//! circulating tokens with bounded timers).
//!
//! Where the [`crate::loose`] ring variant invalidates stale *distance
//! beliefs*, this family certifies the leader's existence by **token
//! circulation**: the walking leader periodically drops a *token* that
//! random-walks the ring with a bounded time-to-live, stamping every
//! node it visits with a fresh heartbeat. Three ingredients:
//!
//! * **Walking leader with a drop timer**: the leader token walks on
//!   every interaction with an idle node (it must walk — on a ring two
//!   static leaders are never adjacent to duel), counting its timer
//!   down from `leader_timer`; on drain it deposits a circulating
//!   token at the node it vacates and resets. Two leaders that meet
//!   merge — the only rule that lowers the leader count.
//! * **Circulating tokens**: a token hops from carrier to idle
//!   neighbour with `ttl` decremented, refreshing each visited node to
//!   the full idle budget; at `ttl = 0` it evaporates. Two tokens
//!   merge; a leader consumes any token it meets and is refreshed by
//!   it — the circulation loop that keeps a lone leader's neighbourhood
//!   perpetually certified without unbounded state.
//! * **Idle timeout**: idle timers spread as a decaying max epidemic
//!   (exactly the loose family's timeout phase); a drained idle pair
//!   promotes the initiator, making leaderless configurations
//!   recoverable from *any* arbitrary start.
//!
//! # What the oracle certifies
//!
//! As for the whole loosely-stabilizing family, unique-leader
//! configurations are not stable forever — a timeout can always mint a
//! challenger, and exact anonymous self-stabilizing election is
//! impossible (Angluin, Aspnes, Fischer, Jiang 2008). The
//! [`LeaderCountOracle`] certifies the *holding predicate* ("exactly
//! one node outputs leader"); elections and holding times are measured
//! through [`popele_engine::stabilize::run_to_hold`] from arbitrary
//! configurations sampled over [`TimeOptimalRingProtocol`]'s full
//! state space ([`ArbitraryInit`]).
//!
//! # Parameter shape
//!
//! [`TimeOptimalRingProtocol::for_ring`] derives `leader_timer = 4n`
//! and `token_ttl = 2n` from the known ring size (the knowledge the
//! self-stabilizing ring protocols assume): a token lives long enough
//! to lap the ring's `n` nodes with slack, and the leader re-seeds
//! tokens fast enough that idle drains — the spurious-promotion path —
//! need the whole ring to go unvisited for `Θ(n)` decays. The state
//! space `2·(4n + 1) + (2n + 1) ≈ 10n` is intentionally *linear* in
//! `n`: past the ahead-of-time compile cap at sweep sizes, this is the
//! workspace's canonical lazy-tier stabilizing workload (the declared
//! [`Protocol::state_space_bound`] is what routes it there).
//!
//! # Examples
//!
//! ```
//! use popele_core::ringtime::TimeOptimalRingProtocol;
//! use popele_engine::stabilize::{arbitrary_config, arbitrary_seed, run_to_hold};
//! use popele_engine::Executor;
//! use popele_graph::families;
//!
//! let p = TimeOptimalRingProtocol::for_ring(12);
//! let g = families::cycle(12);
//! let mut exec = Executor::new(&g, &p, 7);
//! exec.set_configuration(&arbitrary_config(&p, 12, arbitrary_seed(7)));
//! let report = run_to_hold(&mut exec, 1 << 24);
//! assert!(report.holding.elect_step.is_some());
//! ```

use popele_engine::stabilize::ArbitraryInit;
use popele_engine::{LeaderCountOracle, Protocol, Role};
use popele_graph::NodeId;

/// Local state of [`TimeOptimalRingProtocol`]: leader with a drop
/// timer, token carrier with a time-to-live, or idle with a heartbeat
/// timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RingTimeState {
    /// The walking leader; `timer` counts interactions until the next
    /// token drop.
    Leader {
        /// Remaining walk budget before a token is deposited, in
        /// `0..=leader_timer`.
        timer: u32,
    },
    /// A node carrying a circulating token.
    Holder {
        /// Remaining hops before the token evaporates, in
        /// `0..=token_ttl`.
        ttl: u32,
    },
    /// An ordinary node; `timer` is the decaying heartbeat credit.
    Idle {
        /// Heartbeat timer in `0..=leader_timer`; a drained pair
        /// promotes.
        timer: u32,
    },
}

/// Time-optimal self-stabilizing ring election by bounded-timer token
/// circulation.
///
/// See the [module docs](self) for the mechanism; restricted to the
/// cycle family in sweeps (token circulation certifies a *ring* lap).
///
/// # Examples
///
/// ```
/// use popele_core::ringtime::TimeOptimalRingProtocol;
/// use popele_engine::Protocol;
///
/// let p = TimeOptimalRingProtocol::for_ring(2000);
/// assert_eq!((p.leader_timer(), p.token_ttl()), (8000, 4000));
/// // ~10n states: the declared bound routes sweep cells to the lazy
/// // engine (past the AOT cap, far past u16 id space is NOT needed).
/// assert_eq!(p.state_space_bound(), Some(2 * 8001 + 4001));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeOptimalRingProtocol {
    leader_timer: u32,
    token_ttl: u32,
}

impl TimeOptimalRingProtocol {
    /// Creates the protocol with the given walk budget and token
    /// time-to-live.
    ///
    /// # Panics
    ///
    /// Panics if either budget is below 2 (tokens would evaporate on
    /// the spot / every idle pair would time out).
    #[must_use]
    pub fn new(leader_timer: u32, token_ttl: u32) -> Self {
        assert!(
            leader_timer >= 2,
            "the leader walk budget must be at least 2"
        );
        assert!(token_ttl >= 2, "the token time-to-live must be at least 2");
        Self {
            leader_timer,
            token_ttl,
        }
    }

    /// Derives the budgets from the known ring size:
    /// `leader_timer = 4n`, `token_ttl = 2n` (floored for tiny rings).
    ///
    /// # Examples
    ///
    /// ```
    /// use popele_core::ringtime::TimeOptimalRingProtocol;
    ///
    /// assert_eq!(TimeOptimalRingProtocol::for_ring(3).leader_timer(), 16);
    /// ```
    #[must_use]
    pub fn for_ring(n: u32) -> Self {
        Self::new((4 * n).max(16), (2 * n).max(8))
    }

    /// The leader's walk budget between token drops (also the idle
    /// heartbeat budget).
    #[must_use]
    pub fn leader_timer(&self) -> u32 {
        self.leader_timer
    }

    /// The circulating token's hop budget.
    #[must_use]
    pub fn token_ttl(&self) -> u32 {
        self.token_ttl
    }

    /// The transition on a pair of states, exposed for unit tests and
    /// the concordance's rule-by-rule references.
    #[must_use]
    pub fn interact(&self, a: &RingTimeState, b: &RingTimeState) -> (RingTimeState, RingTimeState) {
        use RingTimeState::{Holder, Idle, Leader};
        let bl = self.leader_timer;
        let fresh_idle = Idle { timer: bl };
        match (*a, *b) {
            // Duel: the initiator absorbs the responder's leadership.
            (Leader { .. }, Leader { .. }) => (Leader { timer: bl }, fresh_idle),
            // The leader walks onto an idle node; on a drained walk
            // budget it deposits a token at the vacated node and
            // resets, otherwise the vacated node is freshly stamped.
            (Leader { timer }, Idle { .. }) => {
                if timer <= 1 {
                    (
                        Holder {
                            ttl: self.token_ttl,
                        },
                        Leader { timer: bl },
                    )
                } else {
                    (fresh_idle, Leader { timer: timer - 1 })
                }
            }
            (Idle { .. }, Leader { timer }) => {
                if timer <= 1 {
                    (
                        Leader { timer: bl },
                        Holder {
                            ttl: self.token_ttl,
                        },
                    )
                } else {
                    (Leader { timer: timer - 1 }, fresh_idle)
                }
            }
            // A leader consumes any token it meets and is refreshed by
            // it; the emptied carrier is freshly stamped.
            (Leader { .. }, Holder { .. }) => (fresh_idle, Leader { timer: bl }),
            (Holder { .. }, Leader { .. }) => (Leader { timer: bl }, fresh_idle),
            // The token hops, decrementing its time-to-live and
            // stamping the node it vacates; at zero it evaporates.
            (Holder { ttl }, Idle { .. }) => {
                if ttl == 0 {
                    (fresh_idle, fresh_idle)
                } else {
                    (fresh_idle, Holder { ttl: ttl - 1 })
                }
            }
            (Idle { .. }, Holder { ttl }) => {
                if ttl == 0 {
                    (fresh_idle, fresh_idle)
                } else {
                    (Holder { ttl: ttl - 1 }, fresh_idle)
                }
            }
            // Two tokens merge (the survivor keeps the larger budget,
            // aged by the hop).
            (Holder { ttl: x }, Holder { ttl: y }) => (
                Holder {
                    ttl: x.max(y).saturating_sub(1),
                },
                fresh_idle,
            ),
            // Idle timeout phase: decaying max epidemic; a drained
            // pair promotes the initiator.
            (Idle { timer: x }, Idle { timer: y }) => {
                let t = x.max(y).min(bl);
                if t <= 1 {
                    (Leader { timer: bl }, fresh_idle)
                } else {
                    let decayed = Idle { timer: t - 1 };
                    (decayed, decayed)
                }
            }
        }
    }
}

impl Protocol for TimeOptimalRingProtocol {
    type State = RingTimeState;
    type Oracle = LeaderCountOracle;

    fn initial_state(&self, _node: NodeId) -> RingTimeState {
        // Clean start: no leadership claim, full heartbeat credit —
        // the first election is an idle drain plus leader coalescence.
        RingTimeState::Idle {
            timer: self.leader_timer,
        }
    }

    fn transition(&self, a: &RingTimeState, b: &RingTimeState) -> (RingTimeState, RingTimeState) {
        self.interact(a, b)
    }

    fn output(&self, state: &RingTimeState) -> Role {
        if matches!(state, RingTimeState::Leader { .. }) {
            Role::Leader
        } else {
            Role::Follower
        }
    }

    fn oracle(&self) -> LeaderCountOracle {
        LeaderCountOracle::new()
    }

    fn state_space_bound(&self) -> Option<u64> {
        // Leader timers 0..=BL, idle timers 0..=BL, token ttls 0..=BT.
        Some(2 * (u64::from(self.leader_timer) + 1) + u64::from(self.token_ttl) + 1)
    }
}

impl ArbitraryInit for TimeOptimalRingProtocol {
    /// The full state space — every leader timer, token time-to-live
    /// and idle timer — so the sampler is maximally adversarial.
    fn arbitrary_support(&self) -> Vec<RingTimeState> {
        let mut support =
            Vec::with_capacity(self.state_space_bound().expect("bound declared") as usize);
        for timer in 0..=self.leader_timer {
            support.push(RingTimeState::Idle { timer });
        }
        for ttl in 0..=self.token_ttl {
            support.push(RingTimeState::Holder { ttl });
        }
        for timer in 0..=self.leader_timer {
            support.push(RingTimeState::Leader { timer });
        }
        support
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popele_engine::monte_carlo::TrialOptions;
    use popele_engine::stabilize::{
        arbitrary_config, arbitrary_seed, prepare_stabilize_engine, run_to_hold,
        run_trials_stabilize_auto_prepared,
    };
    use popele_engine::{Engine, Executor, FaultPlan};
    use popele_graph::families;
    use RingTimeState::{Holder, Idle, Leader};

    const fn led(timer: u32) -> RingTimeState {
        Leader { timer }
    }

    const fn tok(ttl: u32) -> RingTimeState {
        Holder { ttl }
    }

    const fn idl(timer: u32) -> RingTimeState {
        Idle { timer }
    }

    #[test]
    fn interact_rules() {
        let p = TimeOptimalRingProtocol::new(8, 4);
        // Duel: the initiator's leadership survives.
        assert_eq!(p.interact(&led(3), &led(7)), (led(8), idl(8)));
        // Walk with timer decrement; the vacated node is stamped.
        assert_eq!(p.interact(&led(5), &idl(0)), (idl(8), led(4)));
        assert_eq!(p.interact(&idl(2), &led(5)), (led(4), idl(8)));
        // Drained walk budget deposits a token and resets.
        assert_eq!(p.interact(&led(1), &idl(3)), (tok(4), led(8)));
        assert_eq!(p.interact(&idl(3), &led(0)), (led(8), tok(4)));
        // A leader consumes tokens and is refreshed.
        assert_eq!(p.interact(&led(2), &tok(1)), (idl(8), led(8)));
        assert_eq!(p.interact(&tok(1), &led(2)), (led(8), idl(8)));
        // Tokens hop with ttl decrement, stamping as they go…
        assert_eq!(p.interact(&tok(3), &idl(0)), (idl(8), tok(2)));
        assert_eq!(p.interact(&idl(0), &tok(3)), (tok(2), idl(8)));
        // …and evaporate at zero.
        assert_eq!(p.interact(&tok(0), &idl(5)), (idl(8), idl(8)));
        // Token merge keeps the larger aged budget.
        assert_eq!(p.interact(&tok(1), &tok(4)), (tok(3), idl(8)));
        // Idle decay, clamping over-budget timers, and the timeout
        // promotion on a drained pair.
        assert_eq!(p.interact(&idl(4), &idl(99)), (idl(7), idl(7)));
        assert_eq!(p.interact(&idl(1), &idl(0)), (led(8), idl(8)));
    }

    #[test]
    fn a_lone_leader_is_never_lost() {
        // The safety property the rule set is built around: every rule
        // touching a Leader state leaves at least one Leader behind
        // (duels merge, walks relocate, token meetings refresh), so
        // once elected the ring is never leaderless again. Challengers
        // minted by idle timeouts are legal — loose stabilization — and
        // must be reabsorbed by duels.
        let p = TimeOptimalRingProtocol::for_ring(8);
        let g = families::cycle(8);
        let mut exec = Executor::new(&g, &p, 3);
        exec.run_until_stable(1 << 24).expect("clean start elects");
        for _ in 0..50_000 {
            exec.step();
            let leaders = exec
                .states()
                .iter()
                .filter(|s| matches!(s, Leader { .. }))
                .count();
            assert!(leaders >= 1, "the ring went leaderless");
        }
        // Whatever challengers the window minted, duels reconverge.
        let out = exec.run_until_stable(1 << 24).expect("reconverges");
        assert_eq!(out.leader_count, 1);
    }

    #[test]
    fn elects_from_clean_and_arbitrary_starts() {
        let g = families::cycle(12);
        let p = TimeOptimalRingProtocol::for_ring(12);
        let out = Executor::new(&g, &p, 2)
            .run_until_stable(1 << 24)
            .expect("clean start elects");
        assert_eq!(out.leader_count, 1);
        for seed in [3u64, 11, 29] {
            let mut exec = Executor::new(&g, &p, seed);
            exec.set_configuration(&arbitrary_config(&p, 12, arbitrary_seed(seed)));
            let report = run_to_hold(&mut exec, 1 << 24);
            assert!(
                report.holding.elect_step.is_some(),
                "seed {seed} failed to elect"
            );
        }
    }

    #[test]
    fn support_enumerates_the_whole_space() {
        let p = TimeOptimalRingProtocol::new(4, 3);
        let support = p.arbitrary_support();
        assert_eq!(support.len() as u64, p.state_space_bound().unwrap());
        assert!(support.contains(&led(0)));
        assert!(support.contains(&tok(3)));
        assert!(support.contains(&idl(4)));
    }

    #[test]
    fn engine_selection_by_ring_size() {
        // Tiny rings compile ahead of time (the matrix tests rely on
        // this); sweep-sized rings ride the lazy tier via the declared
        // linear state-space bound.
        assert_eq!(
            prepare_stabilize_engine(&TimeOptimalRingProtocol::for_ring(8), 8).engine(),
            Engine::Dense
        );
        assert_eq!(
            prepare_stabilize_engine(&TimeOptimalRingProtocol::for_ring(2000), 2000).engine(),
            Engine::LazyDense
        );
    }

    #[test]
    fn stabilize_trials_attach_holding_metrics() {
        let g = families::cycle(10);
        let p = TimeOptimalRingProtocol::for_ring(10);
        let results = run_trials_stabilize_auto_prepared(
            &g,
            &p,
            &prepare_stabilize_engine(&p, g.num_nodes()),
            5,
            TrialOptions {
                trials: 4,
                max_steps: 1 << 23,
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
