//! Protocol executor: applies a protocol under the uniform edge scheduler
//! and detects stabilization via the protocol's oracle.

use crate::dense::decoder::PAIR_BATCH;
use crate::protocol::{Protocol, Role, StabilityOracle};
use crate::scheduler::EdgeScheduler;
use popele_graph::{Graph, NodeId};
use std::collections::HashSet;
use std::fmt;

/// Result of a stabilized execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The first step `t` at which the configuration was stable and
    /// correct (`0` if the initial configuration already is).
    pub stabilization_step: u64,
    /// Number of leader-output nodes at stabilization (always 1 when the
    /// oracle is correct; reported for auditability).
    pub leader_count: usize,
    /// The elected leader.
    pub leader: Option<NodeId>,
    /// Number of distinct states observed over the whole execution, if the
    /// state census was enabled.
    pub distinct_states: Option<usize>,
}

/// Error: the execution did not stabilize within the step budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotStabilized {
    /// The step budget that was exhausted.
    pub max_steps: u64,
}

impl fmt::Display for NotStabilized {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "execution did not stabilize within {} steps",
            self.max_steps
        )
    }
}

impl std::error::Error for NotStabilized {}

/// Runs one execution of a [`Protocol`] on a [`Graph`].
///
/// The executor owns the configuration (`Vec<State>`), the scheduler, and
/// the protocol's stability oracle. See the crate-level docs for an
/// example.
///
/// Pairs are drawn ahead in batches of up to [`PAIR_BATCH`] through
/// [`EdgeScheduler::fill_pairs`] — the same stream as one
/// [`EdgeScheduler::next_pair`] per step, with the edge loads of a batch
/// overlapped — and [`Executor::steps`] counts applied steps, not draws.
/// A refill never draws past the step budget of the run call it serves,
/// so a bounded run ([`Executor::run_steps`]) leaves the scheduler
/// exactly where a draw per step would, as the per-agent dense engine
/// does too.
pub struct Executor<'a, P: Protocol> {
    graph: &'a Graph,
    protocol: &'a P,
    scheduler: EdgeScheduler<'a>,
    /// `pairs[cursor..filled]` are drawn but not yet applied.
    pairs: Box<[(NodeId, NodeId)]>,
    cursor: usize,
    filled: usize,
    applied: u64,
    states: Vec<P::State>,
    oracle: P::Oracle,
    census: Option<HashSet<P::State>>,
}

impl<'a, P: Protocol> Executor<'a, P> {
    /// Creates an executor with every node in its initial state.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges.
    #[must_use]
    pub fn new(graph: &'a Graph, protocol: &'a P, seed: u64) -> Self {
        let states = graph.nodes().map(|v| protocol.initial_state(v)).collect();
        Self::resume(
            graph,
            protocol,
            EdgeScheduler::new(graph, seed),
            states,
            None,
        )
    }

    /// Continues an execution another engine started: `states` is its
    /// configuration, `scheduler` its draw stream positioned after the
    /// last applied step, and `census` the states it has seen (if the
    /// census is on). The oracle is recomputed from `states` once, in
    /// O(n) — every oracle's counters are a function of the
    /// configuration — so the continuation is trace-identical to a run
    /// that took every step on this engine.
    pub(crate) fn resume(
        graph: &'a Graph,
        protocol: &'a P,
        scheduler: EdgeScheduler<'a>,
        states: Vec<P::State>,
        census: Option<HashSet<P::State>>,
    ) -> Self {
        let mut oracle = protocol.oracle();
        oracle.recompute(protocol, &states);
        Self {
            graph,
            protocol,
            applied: scheduler.steps(),
            scheduler,
            pairs: vec![(0, 0); PAIR_BATCH].into_boxed_slice(),
            cursor: 0,
            filled: 0,
            states,
            oracle,
            census,
        }
    }

    /// Enables the distinct-state census (costs one hash per changed state
    /// per step; off by default).
    pub fn enable_state_census(&mut self) {
        let mut set = HashSet::new();
        for s in &self.states {
            set.insert(s.clone());
        }
        self.census = Some(set);
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Current configuration.
    #[must_use]
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Steps applied so far — the model's time step `t`. The scheduler
    /// may have drawn up to one batch further ahead; those pairs are
    /// buffered and applied next.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.applied
    }

    /// Applies one interaction and returns the sampled `(initiator,
    /// responder)` pair. An empty buffer is refilled with a whole batch,
    /// so a graph change right after single steps panics (see
    /// [`Executor::set_graph`]); bounded runs leave nothing buffered.
    pub fn step(&mut self) -> (NodeId, NodeId) {
        self.step_within(PAIR_BATCH as u64)
    }

    /// Applies the next buffered pair, first refilling an empty buffer
    /// with at most `budget` draws.
    #[inline]
    fn step_within(&mut self, budget: u64) -> (NodeId, NodeId) {
        if self.cursor == self.filled {
            let limit = budget.min(PAIR_BATCH as u64) as usize;
            self.scheduler.fill_pairs(&mut self.pairs[..limit]);
            self.cursor = 0;
            self.filled = limit;
        }
        let (u, v) = self.pairs[self.cursor];
        self.cursor += 1;
        self.applied += 1;
        let (iu, iv) = (u as usize, v as usize);
        let (new_u, new_v) = self.protocol.transition(&self.states[iu], &self.states[iv]);
        self.oracle.apply(
            self.protocol,
            (&self.states[iu], &self.states[iv]),
            (&new_u, &new_v),
        );
        if let Some(census) = &mut self.census {
            census.insert(new_u.clone());
            census.insert(new_v.clone());
        }
        self.states[iu] = new_u;
        self.states[iv] = new_v;
        (u, v)
    }

    /// Runs exactly `k` interactions, drawing at most `k` pairs past
    /// the buffered ones.
    pub fn run_steps(&mut self, k: u64) {
        for done in 0..k {
            self.step_within(k - done);
        }
    }

    /// Runs until the oracle reports a stable, correct configuration or
    /// the step budget is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`NotStabilized`] if `max_steps` interactions pass without
    /// stabilization.
    pub fn run_until_stable(&mut self, max_steps: u64) -> Result<Outcome, NotStabilized> {
        while !self.oracle.is_stable() {
            if self.applied >= max_steps {
                return Err(NotStabilized { max_steps });
            }
            self.step_within(max_steps - self.applied);
        }
        Ok(self.outcome())
    }

    /// Runs while the oracle keeps reporting stability, stopping right
    /// after the first interaction that breaks it — the measurement loop
    /// behind holding times of loosely-stabilizing protocols (see
    /// [`crate::stabilize`]). Returns the step at which instability was
    /// first observed (immediately, without stepping, if the current
    /// configuration is already unstable), or `None` if `max_steps`
    /// total interactions passed with stability intact.
    pub fn run_while_stable(&mut self, max_steps: u64) -> Option<u64> {
        while self.oracle.is_stable() {
            if self.applied >= max_steps {
                return None;
            }
            self.step_within(max_steps - self.applied);
        }
        Some(self.applied)
    }

    /// Whether the oracle currently reports stability.
    #[must_use]
    pub fn is_stable(&self) -> bool {
        self.oracle.is_stable()
    }

    /// Immutable access to the oracle.
    #[must_use]
    pub fn oracle(&self) -> &P::Oracle {
        &self.oracle
    }

    /// Current number of leader-output nodes (O(n) scan).
    #[must_use]
    pub fn leader_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| self.protocol.output(s) == Role::Leader)
            .count()
    }

    /// The unique leader if exactly one node outputs leader.
    #[must_use]
    pub fn leader(&self) -> Option<NodeId> {
        let mut found = None;
        for (v, s) in self.states.iter().enumerate() {
            if self.protocol.output(s) == Role::Leader {
                if found.is_some() {
                    return None;
                }
                found = Some(v as NodeId);
            }
        }
        found
    }

    /// Snapshot of the current outcome (regardless of stability).
    #[must_use]
    pub fn outcome(&self) -> Outcome {
        Outcome {
            stabilization_step: self.steps(),
            leader_count: self.leader_count(),
            leader: self.leader(),
            distinct_states: self.census.as_ref().map(HashSet::len),
        }
    }

    /// Resets to the initial configuration with a new seed.
    pub fn reset(&mut self, seed: u64) {
        for (v, s) in self.states.iter_mut().enumerate() {
            *s = self.protocol.initial_state(v as NodeId);
        }
        self.scheduler.reset(seed);
        self.cursor = 0;
        self.filled = 0;
        self.applied = 0;
        self.oracle.recompute(self.protocol, &self.states);
        if self.census.is_some() {
            let mut set = HashSet::new();
            for s in &self.states {
                set.insert(s.clone());
            }
            self.census = Some(set);
        }
    }

    /// Overwrites the whole configuration (an *arbitrary* start, in the
    /// self-stabilization sense — see [`crate::stabilize`]): node `v`
    /// takes `states[v]`, the oracle is recomputed, and the census (when
    /// enabled) absorbs the new states. The scheduler's RNG stream is
    /// untouched, so loading the same configuration into every engine at
    /// the same step keeps them trace-identical.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the node count.
    pub fn set_configuration(&mut self, states: &[P::State]) {
        assert_eq!(
            states.len(),
            self.states.len(),
            "configuration length must equal the node count"
        );
        self.states.clone_from_slice(states);
        self.oracle.recompute(self.protocol, &self.states);
        if let Some(census) = &mut self.census {
            for s in states {
                census.insert(s.clone());
            }
        }
    }

    // ---- fault-injection primitives (see `crate::faults`) ------------
    //
    // Each primitive perturbs the execution *between* steps: the
    // scheduler's RNG stream continues uninterrupted, so a perturbed run
    // is still one deterministic interaction sequence, and the compiled
    // engine applies the identical perturbation at the identical step.
    // Graph changes require the pair buffer to be drained — which it
    // always is after a `run_steps` call, since bounded runs never draw
    // past their budget.

    /// Rebinds the scheduler to `graph` (states untouched).
    fn rebind(&mut self, graph: &'a Graph) {
        assert_eq!(
            self.cursor, self.filled,
            "pair buffer must be drained before a graph change"
        );
        self.graph = graph;
        self.scheduler.set_graph(graph);
    }

    /// Rebinds the execution to a graph with the **same node count**
    /// (edge additions/removals/rewirings). States are untouched; the
    /// scheduler keeps its RNG stream and re-ranges over the new edges.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ, the new graph has no edges, or
    /// the pair buffer still holds drawn-but-unapplied pairs.
    pub fn set_graph(&mut self, graph: &'a Graph) {
        assert_eq!(
            graph.num_nodes() as usize,
            self.states.len(),
            "set_graph requires an equal node count (use join_node/leave_node)"
        );
        self.rebind(graph);
    }

    /// Rebinds to a graph with **one more node**: the new node is
    /// `n` (the old node count) and starts in its initial state.
    ///
    /// # Panics
    ///
    /// Panics if `graph` does not have exactly one extra node, or if the
    /// pair buffer still holds drawn-but-unapplied pairs.
    pub fn join_node(&mut self, graph: &'a Graph) {
        assert_eq!(
            graph.num_nodes() as usize,
            self.states.len() + 1,
            "join_node requires exactly one extra node"
        );
        self.rebind(graph);
        let s = self.protocol.initial_state(self.states.len() as NodeId);
        if let Some(census) = &mut self.census {
            census.insert(s.clone());
        }
        self.states.push(s);
        self.oracle.recompute(self.protocol, &self.states);
    }

    /// Rebinds to a graph with **one less node**: node `removed` leaves
    /// and the last node (`n − 1`) is relabelled to `removed` to keep
    /// ids dense — `graph` must already use that relabelling.
    ///
    /// # Panics
    ///
    /// Panics if `graph` does not have exactly one node less, `removed`
    /// is out of range, or the pair buffer still holds
    /// drawn-but-unapplied pairs.
    pub fn leave_node(&mut self, graph: &'a Graph, removed: NodeId) {
        assert_eq!(
            graph.num_nodes() as usize,
            self.states.len() - 1,
            "leave_node requires exactly one node less"
        );
        self.rebind(graph);
        self.states.swap_remove(removed as usize);
        self.oracle.recompute(self.protocol, &self.states);
    }

    /// State corruption: resets every node of `nodes` to its initial
    /// state (a crash followed by a clean rejoin), leaving all other
    /// nodes untouched, then rebuilds the oracle once for the whole
    /// burst.
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range.
    pub fn corrupt_to_initial(&mut self, nodes: &[NodeId]) {
        for &v in nodes {
            let s = self.protocol.initial_state(v);
            if let Some(census) = &mut self.census {
                census.insert(s.clone());
            }
            self.states[v as usize] = s;
        }
        self.oracle.recompute(self.protocol, &self.states);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::LeaderCountOracle;
    use popele_graph::families;

    /// Initiator absorbs the responder's leadership.
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

        fn state_space_bound(&self) -> Option<u64> {
            Some(2)
        }
    }

    #[test]
    fn absorb_stabilizes_on_clique() {
        let g = families::clique(16);
        let mut exec = Executor::new(&g, &Absorb, 5);
        let out = exec.run_until_stable(1_000_000).unwrap();
        assert_eq!(out.leader_count, 1);
        assert!(out.leader.is_some());
        assert!(out.stabilization_step > 0);
        assert!(exec.is_stable());
    }

    #[test]
    fn absorb_stabilizes_on_larger_clique() {
        // Absorb only merges *adjacent* leaders, so it stabilizes on
        // cliques (where all pairs are adjacent) but can deadlock on
        // sparse graphs — hence clique-only engine tests.
        let g = families::clique(40);
        let mut exec = Executor::new(&g, &Absorb, 6);
        let out = exec.run_until_stable(10_000_000).unwrap();
        assert_eq!(out.leader_count, 1);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let g = families::clique(30);
        let mut exec = Executor::new(&g, &Absorb, 5);
        let err = exec.run_until_stable(1).unwrap_err();
        assert_eq!(err, NotStabilized { max_steps: 1 });
        assert!(format!("{err}").contains("did not stabilize"));
    }

    #[test]
    fn deterministic_outcome_per_seed() {
        let g = families::clique(16);
        let out1 = Executor::new(&g, &Absorb, 77)
            .run_until_stable(1 << 24)
            .unwrap();
        let out2 = Executor::new(&g, &Absorb, 77)
            .run_until_stable(1 << 24)
            .unwrap();
        assert_eq!(out1, out2);
    }

    #[test]
    fn census_counts_states() {
        let g = families::clique(8);
        let mut exec = Executor::new(&g, &Absorb, 1);
        exec.enable_state_census();
        let out = exec.run_until_stable(1 << 20).unwrap();
        assert_eq!(out.distinct_states, Some(2));
    }

    #[test]
    fn reset_restores_initial_configuration() {
        let g = families::clique(8);
        let mut exec = Executor::new(&g, &Absorb, 1);
        exec.run_until_stable(1 << 20).unwrap();
        assert_eq!(exec.leader_count(), 1);
        exec.reset(2);
        assert_eq!(exec.steps(), 0);
        assert_eq!(exec.leader_count(), 8);
        let out = exec.run_until_stable(1 << 20).unwrap();
        assert_eq!(out.leader_count, 1);
    }

    #[test]
    fn leader_helper_finds_unique() {
        let g = families::clique(4);
        let mut exec = Executor::new(&g, &Absorb, 3);
        assert_eq!(exec.leader(), None); // four leaders initially
        exec.run_until_stable(1 << 20).unwrap();
        let leader = exec.leader().unwrap();
        assert!(exec.states()[leader as usize]);
    }

    #[test]
    fn single_node_with_edgeless_graph_panics() {
        // Executor requires at least one edge (the scheduler cannot run).
        let g = popele_graph::Graph::from_edges(1, &[]).unwrap();
        let result = std::panic::catch_unwind(|| Executor::new(&g, &Absorb, 0));
        assert!(result.is_err());
    }

    /// A plain `step()` loop of `k` steps on a fresh executor.
    fn stepped<'g>(
        g: &'g Graph,
        seed: u64,
        start: Option<&[bool]>,
        k: u64,
    ) -> Executor<'g, Absorb> {
        let mut exec = Executor::new(g, &Absorb, seed);
        if let Some(states) = start {
            exec.set_configuration(states);
        }
        for _ in 0..k {
            exec.step();
        }
        exec
    }

    /// Asserts `exec` stands where `reference` does, then that its pair
    /// buffer is drained (a graph change is allowed) and its next pair is
    /// the reference's.
    fn assert_drained_at(exec: &mut Executor<'_, Absorb>, mut reference: Executor<'_, Absorb>) {
        assert_eq!(exec.steps(), reference.steps());
        assert_eq!(exec.states(), reference.states());
        let g = exec.graph;
        exec.set_graph(g);
        assert_eq!(exec.step(), reference.step());
    }

    #[test]
    fn bounded_runs_match_single_steps_and_end_drained() {
        // Budgets off the batch size; Absorb deadlocks with several
        // leaders on a cycle, so `run_until_stable` spends its budget.
        let (cycle, clique) = (families::cycle(40), families::clique(16));
        let one_leader: Vec<bool> = (0..16).map(|v| v == 3).collect();
        for k in [1, 255, 257, 700] {
            let mut exec = Executor::new(&cycle, &Absorb, k);
            exec.run_steps(k);
            assert_drained_at(&mut exec, stepped(&cycle, k, None, k));

            let mut exec = Executor::new(&cycle, &Absorb, k);
            assert_eq!(
                exec.run_until_stable(k),
                Err(NotStabilized { max_steps: k })
            );
            assert_drained_at(&mut exec, stepped(&cycle, k, None, k));

            let mut exec = Executor::new(&clique, &Absorb, k);
            exec.set_configuration(&one_leader);
            assert_eq!(exec.run_while_stable(k), None);
            assert_drained_at(&mut exec, stepped(&clique, k, Some(&one_leader), k));
        }
        // A run that stabilizes mid-batch stops at the reference's step.
        let mut exec = Executor::new(&clique, &Absorb, 8);
        let out = exec.run_until_stable(1 << 20).unwrap();
        let mut reference = Executor::new(&clique, &Absorb, 8);
        while !reference.is_stable() {
            reference.step();
        }
        assert_eq!(out, reference.outcome());
        assert_eq!(exec.step(), reference.step());
    }

    #[test]
    fn graph_changes_with_buffered_pairs_panic() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let g = families::cycle(8);
        let grown = families::cycle(9);
        let shrunk = families::cycle(7);
        let mut exec = Executor::new(&g, &Absorb, 4);
        exec.step();
        fn refused<'g>(
            exec: &mut Executor<'g, Absorb>,
            change: impl FnOnce(&mut Executor<'g, Absorb>),
        ) {
            let err = catch_unwind(AssertUnwindSafe(|| change(exec))).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("assertion message");
            assert!(msg.contains("pair buffer must be drained"), "{msg}");
        }
        refused(&mut exec, |e| e.set_graph(&g));
        refused(&mut exec, |e| e.join_node(&grown));
        refused(&mut exec, |e| e.leave_node(&shrunk, 2));
        assert_eq!(
            exec.states().len(),
            8,
            "a refused change leaves the nodes alone"
        );
    }

    #[test]
    fn step_returns_sampled_pair() {
        let g = families::cycle(5);
        let mut exec = Executor::new(&g, &Absorb, 9);
        for _ in 0..100 {
            let (u, v) = exec.step();
            assert!(g.has_edge(u, v));
        }
        assert_eq!(exec.steps(), 100);
    }
}
