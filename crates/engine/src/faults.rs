//! Fault injection and dynamic-graph scenarios.
//!
//! The paper's guarantees hold for a static graph and a clean initial
//! configuration. This module measures what happens *outside* those
//! assumptions — the regime of loosely-stabilizing and self-stabilizing
//! leader election (Kanaya et al. 2024, Yokota et al. 2020): states get
//! corrupted, nodes join and leave, edges are rewired, and the quantity
//! of interest becomes the **recovery time** after the last perturbation.
//!
//! # Model
//!
//! A [`FaultPlan`] is a deterministic schedule of [`FaultEvent`]s, each
//! an absolute interaction step plus a [`FaultKind`]. Before an
//! execution, the plan is [resolved](FaultPlan::resolve) against the
//! concrete initial graph with a dedicated fault RNG (seeded via
//! [`fault_seed`] from the trial seed, so fault randomness derives from
//! the same stable seed tree as everything else): every event becomes a
//! concrete action — the exact nodes to corrupt, or a fully materialized
//! successor [`Graph`] ("epoch"). [`run_with_faults`] then drives either
//! engine to each event step, applies the action between interactions,
//! and finally runs to stabilization, reporting [`Recovery`] metrics and
//! the leader-count [trajectory](FaultReport::trajectory).
//!
//! # Determinism contract
//!
//! Fault-injected runs keep every guarantee of fault-free ones:
//!
//! * an **empty plan is trace-identical** to a plain
//!   [`Executor::run_until_stable`] / [`crate::DenseExecutor`] run (the session
//!   adds no RNG draws and no extra scheduler activity);
//! * the **generic, compiled and lazy engines produce identical
//!   results** under any plan: the scheduler's RNG stream continues
//!   across graph changes ([`crate::EdgeScheduler::set_graph`]), bounded
//!   runs never draw past an event step, and every engine applies the
//!   identical resolved actions at the identical steps (topology changes
//!   rebuild the dense engines' per-graph edge decoders);
//! * results are **independent of thread count** in the Monte-Carlo
//!   harness, because the fault seed of trial `i` derives from trial
//!   `i`'s seed alone.
//!
//! # What "stable" means under faults
//!
//! Stability oracles certify the *fault-free* stability condition. The
//! reported (re)stabilization step is the first step at which that
//! condition holds again — e.g. "a unique leader output exists" for
//! [`crate::LeaderCountOracle`] protocols. A fault can of course break
//! the condition again later; that is precisely what the next fault's
//! trajectory entry and the post-last-fault reconvergence time measure.
//! If the unique-leader condition is never reached again within the
//! budget and no leader output remains, the run records a permanently
//! [lost leader](Recovery::leader_lost) — the fate of, say, the token
//! protocol once churn removes every candidate.
//!
//! # Example
//!
//! Corrupt a third of the nodes mid-election and measure recovery:
//!
//! ```
//! use popele_engine::faults::{fault_seed, run_with_faults, FaultKind, FaultPlan};
//! use popele_engine::{Executor, LeaderCountOracle, Protocol, Role};
//! use popele_graph::families;
//!
//! #[derive(Clone, Copy)]
//! struct Absorb; // initiator absorbs the responder's leadership
//! impl Protocol for Absorb {
//!     type State = bool;
//!     type Oracle = LeaderCountOracle;
//!     fn initial_state(&self, _node: u32) -> bool { true }
//!     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
//!         if *a && *b { (true, false) } else { (*a, *b) }
//!     }
//!     fn output(&self, s: &bool) -> Role {
//!         if *s { Role::Leader } else { Role::Follower }
//!     }
//!     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
//! }
//!
//! let g = families::clique(24);
//! let plan = FaultPlan::at(2_000, FaultKind::CorruptNodes { count: 8 });
//! let resolved = plan.resolve(&g, fault_seed(7));
//! let mut exec = Executor::new(&g, &Absorb, 7);
//! let report = run_with_faults(&mut exec, &resolved, 1 << 22);
//! let outcome = report.result.expect("recovers within the budget");
//! assert_eq!(outcome.leader_count, 1);
//! assert_eq!(report.recovery.last_fault_step, 2_000);
//! // Corruption re-promoted 8 nodes; the trajectory records the spike.
//! assert!(report.trajectory[0].leaders > 1);
//! // Reconvergence is measured from the last fault.
//! assert_eq!(
//!     report.recovery.reconvergence_steps,
//!     Some(outcome.stabilization_step - 2_000),
//! );
//! ```

use crate::dense::{PairSource, PerAgentExecutor};
use crate::executor::{Executor, NotStabilized, Outcome};
use crate::protocol::Protocol;
use popele_graph::properties::is_connected;
use popele_graph::{Graph, NodeId};
use popele_math::rng::SeedSeq;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One kind of perturbation, before resolution picks concrete targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Reset `count` distinct fault-RNG-chosen nodes to their initial
    /// states (a crash-and-clean-rejoin burst). Capped at the current
    /// node count.
    CorruptNodes {
        /// Number of nodes to reset.
        count: u32,
    },
    /// Insert one fault-RNG-chosen missing edge. Skipped (with the
    /// attempt recorded in [`ResolvedFaultPlan::skipped`]) when no
    /// missing edge is found — e.g. on a complete graph.
    AddEdge,
    /// Delete one fault-RNG-chosen edge whose removal keeps the graph
    /// connected. Skipped when no removable edge is found.
    RemoveEdge,
    /// Delete one removable edge and insert one missing edge elsewhere
    /// (never re-inserting the deleted edge). Skipped when either half
    /// is impossible.
    RewireEdge,
    /// Append one new node (id `n`, in its initial state) attached to
    /// `degree` distinct fault-RNG-chosen existing nodes.
    JoinNode {
        /// Number of attachment edges (at least 1, capped at `n`).
        degree: u32,
    },
    /// Remove one fault-RNG-chosen node whose departure keeps the graph
    /// connected; the last node is relabelled to fill the id gap.
    /// Skipped when no such node exists (or `n` would drop below 2).
    LeaveNode,
}

/// A scheduled perturbation: *when* (absolute interaction step) and
/// *what* ([`FaultKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Interaction step the fault strikes at (it is applied after
    /// exactly this many interactions have run).
    pub step: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, seed-derived schedule of fault events.
///
/// The plan itself holds no randomness — *which* nodes/edges an event
/// hits is decided at [resolution](FaultPlan::resolve) time by a fault
/// RNG, so the same plan yields an independent realization per trial
/// while staying fully reproducible. An empty plan (the
/// [`Default`]) is the fault-free baseline and is guaranteed to be
/// trace-identical to not using the fault machinery at all.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The scheduled events. Resolution sorts them by step (stably), so
    /// construction order only matters between events sharing a step.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty (fault-free) plan.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// A single-event plan.
    #[must_use]
    pub fn at(step: u64, kind: FaultKind) -> Self {
        Self {
            events: vec![FaultEvent { step, kind }],
        }
    }

    /// Appends an event (builder style).
    #[must_use]
    pub fn and(mut self, step: u64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { step, kind });
        self
    }

    /// A rate-style schedule: `count` repetitions of `kind` at steps
    /// `first, first + interval, first + 2·interval, …`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero and `count > 1` (the schedule would
    /// not advance).
    #[must_use]
    pub fn periodic(kind: FaultKind, first: u64, interval: u64, count: u32) -> Self {
        assert!(
            interval > 0 || count <= 1,
            "a periodic plan needs a nonzero interval"
        );
        Self {
            events: (0..u64::from(count))
                .map(|i| FaultEvent {
                    step: first + i * interval,
                    kind,
                })
                .collect(),
        }
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Upper bound on how many nodes the graph can *gain* under this
    /// plan (the number of [`FaultKind::JoinNode`] events) — what the
    /// compiled engine must size its tables for.
    #[must_use]
    pub fn max_joins(&self) -> u32 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::JoinNode { .. }))
            .count() as u32
    }

    /// Resolves the schedule against a concrete initial graph: picks
    /// every corrupted node and materializes every post-event graph
    /// ("epoch"), consuming the fault RNG in event order. The result is
    /// a pure function of `(self, initial, seed)`.
    ///
    /// Events whose kind is impossible on the current graph (no missing
    /// edge to add, no removable edge, no removable node) are dropped
    /// and counted in [`ResolvedFaultPlan::skipped`].
    ///
    /// Removals, rewirings and churn rebuild the graph from its edge
    /// list ([`Graph::edges`]), so resolving one against an implicit
    /// clique builds the clique's `O(n²)` arrays. Corruption bursts never
    /// touch the edge list, and an edge addition on a clique finds no
    /// missing edge and is skipped through arithmetic adjacency tests.
    #[must_use]
    pub fn resolve(&self, initial: &Graph, seed: u64) -> ResolvedFaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut events = self.events.clone();
        events.sort_by_key(|e| e.step);
        let mut epochs: Vec<Graph> = Vec::new();
        let mut ops: Vec<ResolvedFault> = Vec::new();
        let mut skipped = 0usize;

        for event in &events {
            // The working graph is the latest epoch (the caller's
            // `initial` until the topology first diverges) — borrowed,
            // never cloned.
            let graph = epochs.last().unwrap_or(initial);
            match event.kind {
                FaultKind::CorruptNodes { count } => {
                    let nodes = sample_distinct(&mut rng, graph.num_nodes(), count);
                    if nodes.is_empty() {
                        skipped += 1;
                        continue;
                    }
                    ops.push(ResolvedFault {
                        step: event.step,
                        action: FaultAction::Corrupt(nodes),
                    });
                }
                FaultKind::AddEdge => match sample_missing_edge(&mut rng, graph, None) {
                    Some((u, v)) => {
                        let next = graph.with_edges(&[(u, v)]).expect("sampled a non-edge");
                        push_epoch(&mut epochs, &mut ops, event.step, next, None);
                    }
                    None => skipped += 1,
                },
                FaultKind::RemoveEdge => match sample_removable_edge(&mut rng, graph) {
                    Some(reduced) => {
                        push_epoch(&mut epochs, &mut ops, event.step, reduced, None);
                    }
                    None => skipped += 1,
                },
                FaultKind::RewireEdge => {
                    let Some(reduced) = sample_removable_edge(&mut rng, graph) else {
                        skipped += 1;
                        continue;
                    };
                    // Never re-insert what was just removed: the rewire
                    // must actually move an edge.
                    let removed = removed_edge(graph, &reduced);
                    match sample_missing_edge(&mut rng, &reduced, Some(removed)) {
                        Some((u, v)) => {
                            let next = reduced.with_edges(&[(u, v)]).expect("sampled a non-edge");
                            push_epoch(&mut epochs, &mut ops, event.step, next, None);
                        }
                        None => skipped += 1,
                    }
                }
                FaultKind::JoinNode { degree } => {
                    let n = graph.num_nodes();
                    let anchors = sample_distinct(&mut rng, n, degree.max(1));
                    let mut edges = graph.edges().to_vec();
                    edges.extend(anchors.iter().map(|&a| (a, n)));
                    let next =
                        Graph::from_edges(n + 1, &edges).expect("join keeps the graph valid");
                    push_epoch(&mut epochs, &mut ops, event.step, next, Some(Churn::Join));
                }
                FaultKind::LeaveNode => match sample_removable_node(&mut rng, graph) {
                    Some((next, removed)) => {
                        push_epoch(
                            &mut epochs,
                            &mut ops,
                            event.step,
                            next,
                            Some(Churn::Leave(removed)),
                        );
                    }
                    None => skipped += 1,
                },
            }
        }
        ResolvedFaultPlan {
            epochs,
            ops,
            skipped,
        }
    }
}

/// Internal tag for `push_epoch`: what node-count change accompanies a
/// topology epoch.
enum Churn {
    Join,
    Leave(NodeId),
}

/// Records a topology epoch and its op (the epoch list's tail is the
/// resolution loop's working graph).
fn push_epoch(
    epochs: &mut Vec<Graph>,
    ops: &mut Vec<ResolvedFault>,
    step: u64,
    next: Graph,
    churn: Option<Churn>,
) {
    let epoch = epochs.len();
    let action = match churn {
        None => FaultAction::Reshape { epoch },
        Some(Churn::Join) => FaultAction::Join { epoch },
        Some(Churn::Leave(removed)) => FaultAction::Leave { epoch, removed },
    };
    ops.push(ResolvedFault { step, action });
    epochs.push(next);
}

/// `count` distinct node ids sampled without replacement (partial
/// Fisher–Yates; deterministic in the RNG stream).
fn sample_distinct(rng: &mut SmallRng, n: u32, count: u32) -> Vec<NodeId> {
    let k = count.min(n) as usize;
    let mut pool: Vec<NodeId> = (0..n).collect();
    for i in 0..k {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// Rejection-samples a missing edge `(u, v)` with `u < v`, optionally
/// excluding one pair. Bounded tries keep resolution deterministic and
/// fast even on near-complete graphs.
fn sample_missing_edge(
    rng: &mut SmallRng,
    graph: &Graph,
    exclude: Option<(NodeId, NodeId)>,
) -> Option<(NodeId, NodeId)> {
    let n = graph.num_nodes();
    if n < 2 {
        return None;
    }
    for _ in 0..64 {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        let (u, v) = (u.min(v), u.max(v));
        if u != v && !graph.has_edge(u, v) && exclude != Some((u, v)) {
            return Some((u, v));
        }
    }
    None
}

/// Rejection-samples an edge whose removal keeps the graph connected
/// (and non-edgeless), returning the reduced graph. Reads the edge
/// list, materializing an implicit clique.
fn sample_removable_edge(rng: &mut SmallRng, graph: &Graph) -> Option<Graph> {
    let m = graph.num_edges();
    if m < 2 {
        return None;
    }
    for _ in 0..16 {
        let e = rng.random_range(0..m);
        let edges: Vec<(NodeId, NodeId)> = graph
            .edges()
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != e)
            .map(|(_, &uv)| uv)
            .collect();
        let candidate =
            Graph::from_edges(graph.num_nodes(), &edges).expect("subset of a valid edge list");
        if is_connected(&candidate) {
            return Some(candidate);
        }
    }
    None
}

/// The one edge present in `graph` but not in `reduced` (reads
/// `graph`'s edge list, materializing an implicit clique).
fn removed_edge(graph: &Graph, reduced: &Graph) -> (NodeId, NodeId) {
    *graph
        .edges()
        .iter()
        .find(|&&(u, v)| !reduced.has_edge(u, v))
        .expect("reduced graph is missing exactly one edge")
}

/// Rejection-samples a node whose removal keeps the graph connected,
/// returning the reduced, relabelled graph (last node takes the removed
/// node's id) and the removed id. Reads the edge list, materializing an
/// implicit clique.
fn sample_removable_node(rng: &mut SmallRng, graph: &Graph) -> Option<(Graph, NodeId)> {
    let n = graph.num_nodes();
    if n <= 2 {
        return None;
    }
    for _ in 0..16 {
        let v = rng.random_range(0..n);
        let last = n - 1;
        // Drop edges at `v`, relabel `last → v` everywhere else.
        let relabel = |w: NodeId| if w == last { v } else { w };
        let edges: Vec<(NodeId, NodeId)> = graph
            .edges()
            .iter()
            .filter(|&&(a, b)| a != v && b != v)
            .map(|&(a, b)| {
                let (a, b) = (relabel(a), relabel(b));
                (a.min(b), a.max(b))
            })
            .collect();
        if edges.is_empty() {
            continue;
        }
        let candidate = Graph::from_edges(n - 1, &edges).expect("relabelling keeps edges valid");
        if is_connected(&candidate) {
            return Some((candidate, v));
        }
    }
    None
}

/// A resolved action, ready to apply between two interactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Reset these nodes to their initial states.
    Corrupt(Vec<NodeId>),
    /// Switch to epoch graph `epoch` (same node count).
    Reshape {
        /// Index into [`ResolvedFaultPlan::epochs`].
        epoch: usize,
    },
    /// Switch to epoch graph `epoch`, which has one extra node (id `n`).
    Join {
        /// Index into [`ResolvedFaultPlan::epochs`].
        epoch: usize,
    },
    /// Switch to epoch graph `epoch`, which lacks node `removed` (the
    /// former last node is relabelled to `removed`).
    Leave {
        /// Index into [`ResolvedFaultPlan::epochs`].
        epoch: usize,
        /// The node that left.
        removed: NodeId,
    },
}

/// One resolved fault: step plus concrete action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedFault {
    /// Interaction step the action is applied after.
    pub step: u64,
    /// The concrete action.
    pub action: FaultAction,
}

/// A [`FaultPlan`] resolved against a concrete graph and fault seed:
/// the materialized epoch graphs plus the step-ordered action list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedFaultPlan {
    /// Post-event graphs, in event order; actions reference them by
    /// index. Owned here so executors can borrow them for the whole run.
    pub epochs: Vec<Graph>,
    /// Step-ordered concrete actions.
    pub ops: Vec<ResolvedFault>,
    /// Events dropped because their kind was impossible on the graph at
    /// their step (e.g. [`FaultKind::AddEdge`] on a complete graph).
    pub skipped: usize,
}

/// The executor surface the fault session and the Monte-Carlo trial
/// driver run on — implemented by the generic reference [`Executor`]
/// and by the per-agent dense [`PerAgentExecutor`] over either pair
/// source ([`crate::DenseExecutor`], [`crate::LazyDenseExecutor`]),
/// which is what makes fault injection and trial running
/// engine-agnostic (and lets the differential tests pin all engines to
/// identical runs).
pub trait FaultTarget<'g> {
    /// The protocol's state type.
    type State;
    /// Enables the distinct-state census.
    fn enable_state_census(&mut self);
    /// Overwrites the whole configuration (an arbitrary start; see
    /// [`crate::stabilize`]), leaving the scheduler stream untouched.
    fn set_configuration(&mut self, states: &[Self::State]);
    /// Steps applied so far.
    fn steps(&self) -> u64;
    /// Runs exactly `k` interactions (without drawing the scheduler
    /// stream past them).
    fn run_steps(&mut self, k: u64);
    /// Runs until the stability oracle reports a stable configuration
    /// or `max_steps` total interactions have been applied.
    ///
    /// # Errors
    ///
    /// Returns [`NotStabilized`] when the budget is exhausted first.
    fn run_until_stable(&mut self, max_steps: u64) -> Result<Outcome, NotStabilized>;
    /// Runs while the oracle keeps reporting stability, returning the
    /// step of the first violation (`None`: the budget passed with
    /// stability intact) — the holding-time loop of [`crate::stabilize`].
    fn run_while_stable(&mut self, max_steps: u64) -> Option<u64>;
    /// Snapshot of the current outcome.
    fn outcome(&self) -> Outcome;
    /// Current number of leader-output nodes.
    fn leader_count(&self) -> usize;
    /// Resets every node of `nodes` to its initial state, resyncing
    /// once for the whole burst.
    fn corrupt_to_initial(&mut self, nodes: &[NodeId]);
    /// Rebinds to an equal-node-count graph.
    fn set_graph(&mut self, graph: &'g Graph);
    /// Rebinds to a graph with one extra node.
    fn join_node(&mut self, graph: &'g Graph);
    /// Rebinds to a graph with one node less (`removed` left; the last
    /// node was relabelled to its id).
    fn leave_node(&mut self, graph: &'g Graph, removed: NodeId);
}

impl<'g, P: Protocol> FaultTarget<'g> for Executor<'g, P> {
    type State = P::State;
    fn enable_state_census(&mut self) {
        Executor::enable_state_census(self);
    }
    fn set_configuration(&mut self, states: &[P::State]) {
        Executor::set_configuration(self, states);
    }
    fn steps(&self) -> u64 {
        Executor::steps(self)
    }
    fn run_steps(&mut self, k: u64) {
        Executor::run_steps(self, k);
    }
    fn run_until_stable(&mut self, max_steps: u64) -> Result<Outcome, NotStabilized> {
        Executor::run_until_stable(self, max_steps)
    }
    fn run_while_stable(&mut self, max_steps: u64) -> Option<u64> {
        Executor::run_while_stable(self, max_steps)
    }
    fn outcome(&self) -> Outcome {
        Executor::outcome(self)
    }
    fn leader_count(&self) -> usize {
        Executor::leader_count(self)
    }
    fn corrupt_to_initial(&mut self, nodes: &[NodeId]) {
        Executor::corrupt_to_initial(self, nodes);
    }
    fn set_graph(&mut self, graph: &'g Graph) {
        Executor::set_graph(self, graph);
    }
    fn join_node(&mut self, graph: &'g Graph) {
        Executor::join_node(self, graph);
    }
    fn leave_node(&mut self, graph: &'g Graph, removed: NodeId) {
        Executor::leave_node(self, graph, removed);
    }
}

impl<'g, P: Protocol, S: PairSource<P>> FaultTarget<'g> for PerAgentExecutor<'g, P, S> {
    type State = P::State;
    fn enable_state_census(&mut self) {
        PerAgentExecutor::enable_state_census(self);
    }
    fn set_configuration(&mut self, states: &[P::State]) {
        PerAgentExecutor::set_configuration(self, states);
    }
    fn steps(&self) -> u64 {
        PerAgentExecutor::steps(self)
    }
    fn run_steps(&mut self, k: u64) {
        PerAgentExecutor::run_steps(self, k);
    }
    fn run_until_stable(&mut self, max_steps: u64) -> Result<Outcome, NotStabilized> {
        PerAgentExecutor::run_until_stable(self, max_steps)
    }
    fn run_while_stable(&mut self, max_steps: u64) -> Option<u64> {
        PerAgentExecutor::run_while_stable(self, max_steps)
    }
    fn outcome(&self) -> Outcome {
        PerAgentExecutor::outcome(self)
    }
    fn leader_count(&self) -> usize {
        PerAgentExecutor::leader_count(self)
    }
    fn corrupt_to_initial(&mut self, nodes: &[NodeId]) {
        PerAgentExecutor::corrupt_to_initial(self, nodes);
    }
    fn set_graph(&mut self, graph: &'g Graph) {
        PerAgentExecutor::set_graph(self, graph);
    }
    fn join_node(&mut self, graph: &'g Graph) {
        PerAgentExecutor::join_node(self, graph);
    }
    fn leave_node(&mut self, graph: &'g Graph, removed: NodeId) {
        PerAgentExecutor::leave_node(self, graph, removed);
    }
}

/// Leader count observed right after a fault was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrajectoryPoint {
    /// The fault's step.
    pub step: u64,
    /// Leader-output nodes immediately after the fault.
    pub leaders: usize,
}

/// Recovery-oriented summary of a faulted run (all `Copy`, so trial
/// records can carry it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// Step of the last applied fault (0 when no fault applied).
    pub last_fault_step: u64,
    /// Number of faults actually applied (resolution skips impossible
    /// events; the budget can cut trailing ones).
    pub faults_applied: u32,
    /// Steps from the last fault to renewed oracle stability; `None`
    /// when the budget ran out first.
    pub reconvergence_steps: Option<u64>,
    /// Maximum leader count observed at fault boundaries and at the end
    /// — how far the *faults* knocked the system from the unique leader
    /// (the initial configuration, where e.g. every token-protocol node
    /// is a candidate, deliberately does not count).
    pub peak_leaders: u32,
    /// Leader count at the end of the run.
    pub final_leaders: u32,
    /// The run ended with **zero** leader outputs and no stability:
    /// under monotone protocols (token: no candidate left) the unique
    /// leader is permanently lost.
    pub leader_lost: bool,
}

/// What a faulted run did, in full.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Final outcome: stabilized (with the stabilization step counted
    /// from step 0) or out of budget.
    pub result: Result<Outcome, NotStabilized>,
    /// Leader counts right after each applied fault, in step order.
    pub trajectory: Vec<TrajectoryPoint>,
    /// The summary metrics.
    pub recovery: Recovery,
}

/// The stream index (child of a trial seed) reserved for fault
/// resolution, so fault randomness never collides with the scheduler's.
const FAULT_STREAM: u64 = 0xFA17;

/// Derives the fault-resolution seed of a trial from the trial's seed —
/// the same stable-derivation discipline as trial seeds themselves, so
/// a trial's fault realization is independent of thread count, engine,
/// and grid composition.
#[must_use]
pub fn fault_seed(trial_seed: u64) -> u64 {
    SeedSeq::new(trial_seed).child(FAULT_STREAM)
}

/// Drives one execution through a resolved fault plan: run to each
/// fault's step, apply it, and after the last one run to stabilization
/// (or the `max_steps` budget, counted from step 0). Faults scheduled
/// beyond the budget are not applied.
///
/// With an empty plan this is exactly `exec.run_until_stable(max_steps)`
/// — no extra RNG draws, no behavioural difference (the differential
/// tests pin this).
///
/// Always pass a **finite** `max_steps`: faults can push a protocol
/// into configurations that never restabilize (e.g. corruption minting
/// surplus tokens whose whites demote every token-protocol candidate —
/// the [`Recovery::leader_lost`] outcome), and an unbounded budget
/// would then loop forever.
pub fn run_with_faults<'g, T: FaultTarget<'g>>(
    exec: &mut T,
    resolved: &'g ResolvedFaultPlan,
    max_steps: u64,
) -> FaultReport {
    let trace = drive_ops(exec, resolved, max_steps);
    let result = exec.run_until_stable(max_steps);
    FaultReport {
        recovery: trace.recovery(&result, exec.leader_count()),
        result,
        trajectory: trace.trajectory,
    }
}

/// What driving an execution through a resolved plan's ops observed —
/// the shared first phase of [`run_with_faults`] and of every trial of
/// the Monte-Carlo driver ([`crate::monte_carlo`]).
pub(crate) struct OpsTrace {
    /// Leader counts right after each applied fault, in step order.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Step of the last applied fault (0 when none applied).
    pub last_fault_step: u64,
    /// Faults actually applied (the budget can cut trailing ones).
    pub faults_applied: u32,
    /// Maximum leader count observed at fault boundaries.
    pub peak: usize,
}

impl OpsTrace {
    /// The recovery metrics of a run that went through these ops, then
    /// to `result`, and ended with `final_leaders` leader outputs.
    pub(crate) fn recovery(
        &self,
        result: &Result<Outcome, NotStabilized>,
        final_leaders: usize,
    ) -> Recovery {
        Recovery {
            last_fault_step: self.last_fault_step,
            faults_applied: self.faults_applied,
            reconvergence_steps: result
                .as_ref()
                .ok()
                .map(|o| o.stabilization_step - self.last_fault_step),
            peak_leaders: self.peak.max(final_leaders) as u32,
            final_leaders: final_leaders as u32,
            leader_lost: result.is_err() && final_leaders == 0,
        }
    }
}

/// Runs `exec` to each in-budget op's step and applies it, recording
/// the leader-count trajectory. Leaves the execution right after the
/// last applied fault; the caller decides what to run to afterwards
/// (stabilization, or stabilization *plus* a holding phase).
pub(crate) fn drive_ops<'g, T: FaultTarget<'g>>(
    exec: &mut T,
    resolved: &'g ResolvedFaultPlan,
    max_steps: u64,
) -> OpsTrace {
    let mut trace = OpsTrace {
        trajectory: Vec::with_capacity(resolved.ops.len()),
        last_fault_step: 0,
        faults_applied: 0,
        peak: 0,
    };
    for op in &resolved.ops {
        if op.step > max_steps {
            break;
        }
        exec.run_steps(op.step - exec.steps());
        match &op.action {
            FaultAction::Corrupt(nodes) => exec.corrupt_to_initial(nodes),
            FaultAction::Reshape { epoch } => exec.set_graph(&resolved.epochs[*epoch]),
            FaultAction::Join { epoch } => exec.join_node(&resolved.epochs[*epoch]),
            FaultAction::Leave { epoch, removed } => {
                exec.leave_node(&resolved.epochs[*epoch], *removed);
            }
        }
        trace.last_fault_step = op.step;
        trace.faults_applied += 1;
        let leaders = exec.leader_count();
        trace.peak = trace.peak.max(leaders);
        trace.trajectory.push(TrajectoryPoint {
            step: op.step,
            leaders,
        });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{CompiledProtocol, DenseExecutor, LazyDenseExecutor};
    use crate::protocol::{LeaderCountOracle, Role};
    use popele_graph::families;

    /// Initiator absorbs the responder's leadership (stabilizes on
    /// cliques).
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
    fn plan_builders() {
        let plan = FaultPlan::at(10, FaultKind::AddEdge).and(5, FaultKind::LeaveNode);
        assert_eq!(plan.events.len(), 2);
        assert!(!plan.is_empty());
        assert!(FaultPlan::empty().is_empty());
        let periodic = FaultPlan::periodic(FaultKind::RewireEdge, 100, 50, 3);
        assert_eq!(
            periodic.events.iter().map(|e| e.step).collect::<Vec<_>>(),
            vec![100, 150, 200]
        );
        assert_eq!(periodic.max_joins(), 0);
        assert_eq!(
            FaultPlan::periodic(FaultKind::JoinNode { degree: 2 }, 0, 10, 4).max_joins(),
            4
        );
    }

    #[test]
    fn resolution_is_deterministic_and_sorted() {
        let g = families::cycle(12);
        let plan = FaultPlan::at(500, FaultKind::CorruptNodes { count: 3 })
            .and(100, FaultKind::RewireEdge)
            .and(300, FaultKind::JoinNode { degree: 2 });
        let a = plan.resolve(&g, 9);
        let b = plan.resolve(&g, 9);
        assert_eq!(a, b);
        let steps: Vec<u64> = a.ops.iter().map(|o| o.step).collect();
        assert_eq!(steps, vec![100, 300, 500]);
        // A different fault seed picks different targets.
        let c = plan.resolve(&g, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn add_edge_on_clique_is_skipped() {
        let g = families::clique(6);
        let resolved = FaultPlan::at(1, FaultKind::AddEdge).resolve(&g, 0);
        assert_eq!(resolved.ops.len(), 0);
        assert_eq!(resolved.skipped, 1);
    }

    #[test]
    fn remove_edge_keeps_connectivity() {
        let g = families::cycle(8); // every edge is a bridge-free cycle edge
        let resolved = FaultPlan::at(1, FaultKind::RemoveEdge).resolve(&g, 4);
        assert_eq!(resolved.epochs.len(), 1);
        assert!(is_connected(&resolved.epochs[0]));
        assert_eq!(resolved.epochs[0].num_edges(), 7);
        // A path graph's every edge is a bridge: removal impossible.
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let resolved = FaultPlan::at(1, FaultKind::RemoveEdge).resolve(&path, 4);
        assert_eq!(resolved.skipped, 1);
    }

    #[test]
    fn leave_node_never_disconnects_a_star() {
        // Only leaves are removable on a star — the centre would
        // disconnect it — so every resolution must remove a leaf.
        let g = families::star(8);
        for seed in 0..10 {
            let resolved = FaultPlan::at(1, FaultKind::LeaveNode).resolve(&g, seed);
            if let Some(ResolvedFault {
                action: FaultAction::Leave { epoch, removed },
                ..
            }) = resolved.ops.first()
            {
                assert_ne!(*removed, 0, "centre removed");
                assert!(is_connected(&resolved.epochs[*epoch]));
                assert_eq!(resolved.epochs[*epoch].num_nodes(), 7);
            } else {
                panic!("leave event skipped on a star with 7 leaves");
            }
        }
    }

    #[test]
    fn faulted_session_recovers_and_reports() {
        let g = families::clique(16);
        let plan = FaultPlan::at(1_000, FaultKind::CorruptNodes { count: 5 });
        let resolved = plan.resolve(&g, fault_seed(3));
        let mut exec = Executor::new(&g, &Absorb, 3);
        let report = run_with_faults(&mut exec, &resolved, 1 << 22);
        let outcome = report.result.expect("recovers");
        assert_eq!(outcome.leader_count, 1);
        assert_eq!(report.recovery.last_fault_step, 1_000);
        assert_eq!(report.recovery.faults_applied, 1);
        assert!(report.recovery.peak_leaders >= 5);
        assert_eq!(report.recovery.final_leaders, 1);
        assert!(!report.recovery.leader_lost);
        assert_eq!(report.trajectory.len(), 1);
        assert_eq!(
            report.recovery.reconvergence_steps,
            Some(outcome.stabilization_step - 1_000)
        );
    }

    #[test]
    fn faults_beyond_the_budget_are_not_applied() {
        let g = families::clique(8);
        let plan = FaultPlan::at(1_000_000_000, FaultKind::CorruptNodes { count: 8 });
        let resolved = plan.resolve(&g, fault_seed(1));
        let mut exec = Executor::new(&g, &Absorb, 1);
        let report = run_with_faults(&mut exec, &resolved, 1 << 22);
        assert_eq!(report.recovery.faults_applied, 0);
        assert_eq!(report.recovery.last_fault_step, 0);
        assert!(report.result.is_ok());
    }

    #[test]
    fn churned_session_matches_across_engines() {
        let g = families::cycle(20);
        let plan = FaultPlan::at(200, FaultKind::JoinNode { degree: 2 })
            .and(400, FaultKind::LeaveNode)
            .and(600, FaultKind::RewireEdge)
            .and(800, FaultKind::CorruptNodes { count: 4 });
        let resolved = plan.resolve(&g, fault_seed(11));
        assert!(resolved.ops.len() >= 3, "most events resolve on a cycle");

        // Absorb cannot stabilize on a cycle (non-adjacent leaders never
        // merge), so both engines must time out identically — which
        // exercises every churn path on both sides of the budget.
        let mut generic = Executor::new(&g, &Absorb, 11);
        let generic_report = run_with_faults(&mut generic, &resolved, 300_000);

        let compiled = CompiledProtocol::compile_default(&Absorb, 20 + plan.max_joins()).unwrap();
        let mut dense = DenseExecutor::new(&g, &compiled, 11);
        let dense_report = run_with_faults(&mut dense, &resolved, 300_000);

        let mut lazy = LazyDenseExecutor::new(&g, &Absorb, 11);
        let lazy_report = run_with_faults(&mut lazy, &resolved, 300_000);

        assert_eq!(generic_report.result, dense_report.result);
        assert_eq!(generic_report.trajectory, dense_report.trajectory);
        assert_eq!(generic_report.recovery, dense_report.recovery);
        assert_eq!(generic_report.result, lazy_report.result);
        assert_eq!(generic_report.trajectory, lazy_report.trajectory);
        assert_eq!(generic_report.recovery, lazy_report.recovery);
    }
}
