//! The protocol abstraction and stability oracles.

use popele_graph::NodeId;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

/// Output value of a node in a leader-election protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The node currently outputs *leader*.
    Leader,
    /// The node currently outputs *follower*.
    Follower,
}

/// A population protocol `A = (Λ, Ξ, init, out)` for leader election.
///
/// The transition function receives the states of the *initiator* and the
/// *responder* of an interaction (the scheduler samples ordered pairs) and
/// returns their successor states. Protocols must be deterministic: all
/// randomness in the model comes from the scheduler.
///
/// `initial_state` receives the node id only so that protocols that take an
/// *input* (such as the candidate set of the 6-state token protocol of
/// Theorem 16) can be initialized non-uniformly; pure leader-election
/// protocols ignore the id, as required by the anonymous model.
pub trait Protocol: Sync {
    /// The local state type `Λ`.
    type State: Clone + Eq + Hash + Debug + Send + Sync;

    /// The incremental stability oracle for this protocol.
    type Oracle: StabilityOracle<Self> + Send;

    /// Initialization function `init` (usually constant across nodes).
    fn initial_state(&self, node: NodeId) -> Self::State;

    /// The initial configuration of nodes `0..n` as a **census**: one
    /// `(state, multiplicity)` entry per distinct initial state, listed
    /// in order of first occurrence by node id, with multiplicities
    /// summing to `n`.
    ///
    /// The count engine ([`crate::CountEngine`]) starts from this census
    /// and [`crate::compile_for_count`] seeds its closure with its
    /// states, so neither touches individual agents. The default is a
    /// run-length scan of [`Protocol::initial_state`] over every node —
    /// `O(n)` calls, correct for any initialization. Protocols whose
    /// initial configuration is uniform, or a few runs of one state,
    /// override it in `O(1)`; an override must return exactly what the
    /// default would.
    ///
    /// # Panics
    ///
    /// The default panics if `n` exceeds `2³²` (node ids are 32-bit).
    fn initial_census(&self, n: u64) -> Vec<(Self::State, u64)> {
        assert!(n <= 1 << 32, "node ids are 32-bit; got {n} nodes");
        let mut census: Vec<(Self::State, u64)> = Vec::new();
        // Index of each state already listed; consulted only when the
        // state changes from one node to the next.
        let mut index: HashMap<Self::State, usize> = HashMap::new();
        let mut current = 0;
        for v in 0..n {
            let s = self.initial_state(v as NodeId);
            if census.get(current).is_some_and(|(c, _)| *c == s) {
                census[current].1 += 1;
                continue;
            }
            current = *index.entry(s.clone()).or_insert_with(|| {
                census.push((s, 0));
                census.len() - 1
            });
            census[current].1 += 1;
        }
        census
    }

    /// Transition function `Ξ(initiator, responder)`.
    fn transition(
        &self,
        initiator: &Self::State,
        responder: &Self::State,
    ) -> (Self::State, Self::State);

    /// Output function `out: Λ → {leader, follower}`.
    fn output(&self, state: &Self::State) -> Role;

    /// Creates a fresh oracle for an execution of this protocol.
    fn oracle(&self) -> Self::Oracle;

    /// Upper bound on `|Λ|`, the number of distinct states this
    /// instantiation can ever use, when known. Used for space-complexity
    /// reporting.
    fn state_space_bound(&self) -> Option<u64> {
        None
    }
}

/// Detects stabilization incrementally.
///
/// An oracle watches an execution (via [`StabilityOracle::recompute`] at
/// the start and [`StabilityOracle::apply`] after every interaction) and
/// reports whether the current configuration is **stable and correct**:
/// exactly one node outputs leader and no reachable configuration changes
/// any output.
///
/// Implementations encode a protocol-specific invariant equivalent to
/// stability; each implementation documents the invariant and is validated
/// against [`crate::exhaustive`] on small instances.
pub trait StabilityOracle<P: Protocol + ?Sized> {
    /// Rebuilds the oracle's counters from a full configuration.
    fn recompute(&mut self, protocol: &P, config: &[P::State]);

    /// Updates the counters after one interaction changed two nodes.
    fn apply(&mut self, protocol: &P, old: (&P::State, &P::State), new: (&P::State, &P::State));

    /// Whether the watched configuration is stable with a unique leader.
    fn is_stable(&self) -> bool;

    /// Rebuilds the oracle's counters from a **census** — one
    /// `(state, multiplicity)` entry per distinct state — instead of a
    /// full per-node configuration, returning whether the oracle
    /// supports census evaluation at all.
    ///
    /// The count-based batch engine stores only a count vector over the
    /// compiled states and can never materialize a `&[P::State]`
    /// configuration at `n = 10⁸`, so it checks stability through this
    /// entry point. The default returns `false` (leaving the oracle
    /// untouched), which marks the protocol as ineligible for the count
    /// engine; override it exactly when the oracle's invariant is a
    /// function of per-state multiplicities alone, and make the verdict
    /// identical to `recompute` over any configuration with that census.
    fn recompute_census(&mut self, protocol: &P, census: &[(P::State, u64)]) -> bool {
        let _ = (protocol, census);
        false
    }

    /// Summarizes a transition's effect on this oracle as one opaque
    /// word, or [`EFFECT_OPAQUE`] (the default) when no summary exists.
    ///
    /// The lazily-compiling engine caches the summary next to each
    /// memoized pair transition and consults
    /// [`StabilityOracle::effect_inert`] on every replay, skipping the
    /// typed [`StabilityOracle::apply`] — and the state-table reads
    /// feeding it — whenever the oracle vouches that the application
    /// would change nothing. The summary **must be a pure function of
    /// the four states** (it is computed once per distinct transition
    /// and reused across the whole execution, including after
    /// [`StabilityOracle::recompute`] resets), and any summary for
    /// which `effect_inert` can ever return true must describe a
    /// transition whose `apply` leaves the oracle's observable state
    /// exactly unchanged whenever that verdict is given.
    fn transition_effect(
        &self,
        protocol: &P,
        old: (&P::State, &P::State),
        new: (&P::State, &P::State),
    ) -> u64 {
        let _ = (protocol, old, new);
        EFFECT_OPAQUE
    }

    /// Whether applying a transition with the given
    /// [`StabilityOracle::transition_effect`] summary right now would
    /// leave this oracle bit-for-bit unchanged. May consult the
    /// oracle's current counters; the engine re-asks before every
    /// skipped application, so the verdict need not be monotone. The
    /// default never skips.
    fn effect_inert(&self, effect: u64) -> bool {
        let _ = effect;
        false
    }

    /// Whether this oracle's verdict is *exactly* "exactly one node
    /// outputs [`Role::Leader`]" — true for [`LeaderCountOracle`] and
    /// false (the default) for oracles tracking anything more.
    ///
    /// The compiled engine uses this to replace the typed
    /// [`StabilityOracle::apply`] calls in its hot loop with a
    /// precomputed per-table-entry leader-count delta; the substitution
    /// is behaviour-identical by the definition above. Only override
    /// this to return true if `recompute`/`apply`/`is_stable` are
    /// observationally equivalent to counting leader outputs.
    fn stable_iff_unique_leader(&self) -> bool {
        false
    }
}

/// Effect summary returned by [`StabilityOracle::transition_effect`]
/// when the oracle does not classify the transition: the engine must
/// fall back to a typed [`StabilityOracle::apply`]. The default
/// implementations return this value and never deem it inert, so
/// oracles that don't opt in keep exact behaviour.
pub const EFFECT_OPAQUE: u64 = u64::MAX;

/// Oracle for protocols in which **every reachable configuration with
/// exactly one leader output is stable**.
///
/// This holds for "monotone" protocols where (a) the number of
/// leader-output nodes can never increase from 0 or stay at risk of
/// regrowth — concretely, where a configuration with a single leader admits
/// no transition that demotes that leader or promotes a follower. The
/// 6-state token protocol (Theorem 16) and the trivial star protocol
/// satisfy this; see their module docs for proofs. Protocols with phases or
/// identifier generation do **not** and ship custom oracles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaderCountOracle {
    leaders: usize,
}

impl LeaderCountOracle {
    /// Creates an oracle with no observed configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current number of leader-output nodes.
    #[must_use]
    pub fn leader_count(&self) -> usize {
        self.leaders
    }
}

impl<P: Protocol> StabilityOracle<P> for LeaderCountOracle {
    fn recompute(&mut self, protocol: &P, config: &[P::State]) {
        self.leaders = config
            .iter()
            .filter(|s| protocol.output(s) == Role::Leader)
            .count();
    }

    fn apply(&mut self, protocol: &P, old: (&P::State, &P::State), new: (&P::State, &P::State)) {
        for s in [old.0, old.1] {
            if protocol.output(s) == Role::Leader {
                self.leaders -= 1;
            }
        }
        for s in [new.0, new.1] {
            if protocol.output(s) == Role::Leader {
                self.leaders += 1;
            }
        }
    }

    fn recompute_census(&mut self, protocol: &P, census: &[(P::State, u64)]) -> bool {
        self.leaders = census
            .iter()
            .filter(|(s, _)| protocol.output(s) == Role::Leader)
            .map(|(_, count)| *count as usize)
            .sum();
        true
    }

    fn is_stable(&self) -> bool {
        self.leaders == 1
    }

    fn stable_iff_unique_leader(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal protocol for oracle unit tests: state = leader bit,
    /// initiator absorbs.
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

    #[test]
    fn leader_count_recompute() {
        let mut o = LeaderCountOracle::new();
        o.recompute(&Absorb, &[true, false, true]);
        assert_eq!(o.leader_count(), 2);
        assert!(!<LeaderCountOracle as StabilityOracle<Absorb>>::is_stable(
            &o
        ));
        o.recompute(&Absorb, &[false, true, false]);
        assert!(<LeaderCountOracle as StabilityOracle<Absorb>>::is_stable(
            &o
        ));
    }

    #[test]
    fn leader_count_incremental() {
        let mut o = LeaderCountOracle::new();
        o.recompute(&Absorb, &[true, true]);
        assert_eq!(o.leader_count(), 2);
        // Simulate the absorb transition (true, true) -> (true, false).
        o.apply(&Absorb, (&true, &true), (&true, &false));
        assert_eq!(o.leader_count(), 1);
        assert!(<LeaderCountOracle as StabilityOracle<Absorb>>::is_stable(
            &o
        ));
        // A no-op interaction keeps the count.
        o.apply(&Absorb, (&true, &false), (&true, &false));
        assert_eq!(o.leader_count(), 1);
    }

    /// Runs of two nodes cycling through three states: 0 0 1 1 2 2 0 0 …
    struct Stripes;

    impl Protocol for Stripes {
        type State = u8;
        type Oracle = LeaderCountOracle;

        fn initial_state(&self, node: NodeId) -> u8 {
            (node / 2 % 3) as u8
        }

        fn transition(&self, a: &u8, b: &u8) -> (u8, u8) {
            (*a, *b)
        }

        fn output(&self, _s: &u8) -> Role {
            Role::Follower
        }

        fn oracle(&self) -> LeaderCountOracle {
            LeaderCountOracle::new()
        }
    }

    #[test]
    fn default_census_merges_runs_in_first_occurrence_order() {
        assert_eq!(Stripes.initial_census(0), vec![]);
        assert_eq!(Stripes.initial_census(1), vec![(0, 1)]);
        assert_eq!(Stripes.initial_census(7), vec![(0, 3), (1, 2), (2, 2)]);
        assert_eq!(Absorb.initial_census(5), vec![(true, 5)]);
    }

    #[test]
    fn role_is_hashable_and_copyable() {
        let mut set = std::collections::HashSet::new();
        set.insert(Role::Leader);
        set.insert(Role::Follower);
        set.insert(Role::Leader);
        assert_eq!(set.len(), 2);
    }
}
