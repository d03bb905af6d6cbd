//! The two dense executors: ahead-of-time compiled and lazily compiled.
//!
//! Both mirror [`crate::Executor`] exactly — same scheduler, same seed
//! handling, same oracle semantics, same [`Outcome`]s — and share the
//! batched draw machinery of [`super::decoder`]; they differ only in
//! where successor pairs come from (a precomputed `|Λ|²` table vs the
//! on-demand [`LazyTable`] cache). Differential tests in the workspace
//! pin both to identical traces with the generic engine.

use super::decoder::{orient, EdgeDecoder, PAIR_BATCH};
use super::lazy::{LazyId, LazyTable};
use super::table::{CompiledProtocol, StateId};
use crate::executor::{Executor, NotStabilized, Outcome};
use crate::protocol::{Protocol, Role, StabilityOracle};
use crate::scheduler::EdgeScheduler;
use popele_graph::clique::clique_decode;
use popele_graph::{Graph, NodeId};

/// When a batched run loop should stop early (beyond its step budget).
/// `Stable` serves `run_until_stable`, `Unstable` the holding-time loop
/// `run_while_stable`; both only need re-checking after a state-changing
/// interaction, which is what keeps the no-op fast path branch-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    Never,
    Stable,
    Unstable,
}

/// Distinct-state census over dense ids (mirrors the generic executor's
/// `HashSet` census at O(1) per mark). Growable, because the lazy engine
/// interns new ids mid-run.
#[derive(Debug, Clone)]
struct DenseCensus {
    seen: Vec<bool>,
    count: usize,
}

impl DenseCensus {
    fn new(k: usize) -> Self {
        Self {
            seen: vec![false; k],
            count: 0,
        }
    }

    #[inline]
    fn mark(&mut self, id: u32) {
        let idx = id as usize;
        if idx >= self.seen.len() {
            self.seen.resize(idx + 1, false);
        }
        let slot = &mut self.seen[idx];
        if !*slot {
            *slot = true;
            self.count += 1;
        }
    }
}

/// Runs one execution of a [`CompiledProtocol`] on a [`Graph`].
///
/// Drop-in counterpart of [`crate::Executor`]: identical constructor
/// signature modulo the compiled table, identical scheduler and seed
/// semantics, identical oracle behaviour and [`Outcome`]s — only the
/// per-interaction cost differs. The stability oracle is the protocol's
/// own [`StabilityOracle`], driven with borrowed typed states from the
/// compiled id ↔ state mapping, and is skipped entirely for the (vastly
/// most common, late in a run) no-op interactions — valid because oracle
/// updates are pure count deltas, so an identity transition is always a
/// no-op on the oracle too.
pub struct DenseExecutor<'a, P: Protocol> {
    graph: &'a Graph,
    compiled: &'a CompiledProtocol<P>,
    scheduler: EdgeScheduler<'a>,
    ids: Vec<StateId>,
    oracle: P::Oracle,
    /// When the oracle declared
    /// [`StabilityOracle::stable_iff_unique_leader`], the engine tracks
    /// the leader count itself via the compiled per-pair deltas and the
    /// typed oracle is bypassed entirely (`leaders` is then
    /// authoritative; the substitution is behaviour-identical).
    linear: bool,
    leaders: i64,
    census: Option<DenseCensus>,
    /// Pairs pre-drawn from the scheduler in a tight batch (see
    /// [`EdgeDecoder::fill_batch`]); `pairs[cursor..filled]` are drawn
    /// but not yet applied. `applied` — not the scheduler's draw count —
    /// is the execution's step counter. Refills never draw past the step
    /// budget of the run call they serve, so bounded runs
    /// ([`DenseExecutor::run_steps`]) consume the scheduler stream
    /// exactly as far as the generic engine would — the property that
    /// lets [`crate::faults`] interleave graph changes with execution on
    /// both engines identically.
    pairs: Box<[(NodeId, NodeId)]>,
    raw: Box<[usize]>,
    cursor: usize,
    filled: usize,
    applied: u64,
    decoder: EdgeDecoder,
}

impl<'a, P: Protocol> DenseExecutor<'a, P> {
    /// Creates an executor with every node in its initial state.
    ///
    /// The compiled node count may exceed the graph's: a compilation for
    /// `n + k` nodes serves any graph with at most `n + k` nodes, which
    /// is how fault plans with node churn ([`crate::faults`]) share one
    /// table across all epochs. (The state enumeration for more nodes is
    /// a superset, so the table still covers every reachable pair.)
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges or more nodes than the protocol
    /// was compiled for.
    #[must_use]
    pub fn new(graph: &'a Graph, compiled: &'a CompiledProtocol<P>, seed: u64) -> Self {
        assert!(
            graph.num_nodes() <= compiled.num_nodes(),
            "graph size does not match the compiled protocol"
        );
        let ids = compiled.initial[..graph.num_nodes() as usize].to_vec();
        let mut oracle = compiled.protocol.oracle();
        let linear = oracle.stable_iff_unique_leader();
        if !linear {
            // In linear mode the typed oracle is bypassed entirely
            // (`leaders` is authoritative), so skip the O(n) typed
            // materialization.
            oracle.recompute(&compiled.protocol, &compiled.typed_config(&ids));
        }
        let leaders = ids
            .iter()
            .filter(|&&id| compiled.roles[id as usize] == Role::Leader)
            .count() as i64;
        Self {
            graph,
            compiled,
            scheduler: EdgeScheduler::new(graph, seed),
            ids,
            oracle,
            linear,
            leaders,
            census: None,
            pairs: vec![(0, 0); PAIR_BATCH].into_boxed_slice(),
            raw: vec![0usize; PAIR_BATCH].into_boxed_slice(),
            cursor: 0,
            filled: 0,
            applied: 0,
            decoder: EdgeDecoder::for_graph(graph),
        }
    }

    /// Refills the pair buffer with one batch of up to `limit ≤
    /// PAIR_BATCH` scheduler draws through the decoder.
    fn refill(&mut self, limit: usize) {
        self.decoder
            .fill_batch(&mut self.scheduler, &mut self.pairs[..limit], &mut self.raw);
        self.cursor = 0;
        self.filled = limit;
    }

    /// Enables the distinct-state census (O(1) per changed state).
    pub fn enable_state_census(&mut self) {
        let mut census = DenseCensus::new(self.compiled.num_states());
        for &id in &self.ids {
            census.mark(u32::from(id));
        }
        self.census = Some(census);
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The compiled protocol driving this execution.
    #[must_use]
    pub fn compiled(&self) -> &CompiledProtocol<P> {
        self.compiled
    }

    /// Current configuration as dense ids.
    #[must_use]
    pub fn state_ids(&self) -> &[StateId] {
        &self.ids
    }

    /// Typed state of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn state_of(&self, v: NodeId) -> &P::State {
        &self.compiled.states[self.ids[v as usize] as usize]
    }

    /// Steps applied so far.
    ///
    /// The scheduler may have *drawn* up to one batch further ahead (the
    /// undrawn pairs are buffered and will be applied next), so this is
    /// the model's time step `t`, not the raw RNG draw count.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.applied
    }

    /// Applies the ordered interaction `(u, v)` to the configuration.
    #[inline]
    fn apply_pair(&mut self, u: NodeId, v: NodeId) {
        let (iu, iv) = (u as usize, v as usize);
        let a = self.ids[iu];
        let b = self.ids[iv];
        let k = self.compiled.states.len();
        let packed = self.compiled.table[a as usize * k + b as usize];
        let current = (u32::from(a) << 16) | u32::from(b);
        if packed != current {
            let na = (packed >> 16) as StateId;
            let nb = packed as StateId;
            if self.linear {
                self.leaders += i64::from(self.compiled.leader_delta[a as usize * k + b as usize]);
            } else {
                let states = &self.compiled.states;
                self.oracle.apply(
                    &self.compiled.protocol,
                    (&states[a as usize], &states[b as usize]),
                    (&states[na as usize], &states[nb as usize]),
                );
            }
            if let Some(census) = &mut self.census {
                census.mark(u32::from(na));
                census.mark(u32::from(nb));
            }
            self.ids[iu] = na;
            self.ids[iv] = nb;
        }
    }

    /// Applies one interaction and returns the sampled `(initiator,
    /// responder)` pair.
    #[inline]
    pub fn step(&mut self) -> (NodeId, NodeId) {
        if self.cursor == self.filled {
            self.refill(PAIR_BATCH);
        }
        let (u, v) = self.pairs[self.cursor];
        self.cursor += 1;
        self.applied += 1;
        self.apply_pair(u, v);
        (u, v)
    }

    /// Applies up to `budget` already-buffered interactions in one tight
    /// loop (the engine's hot path: two id reads, one table lookup, two
    /// id writes per interaction, with oracle/census work only on the
    /// rare state-changing pairs).
    ///
    /// Returns right after the state change that satisfies `stop`. The
    /// caller guarantees `budget ≤` the number of buffered pairs.
    fn apply_batch(&mut self, budget: usize, stop: Stop) {
        let compiled = self.compiled;
        let k = compiled.states.len();
        let table = &compiled.table;
        let states = &compiled.states;
        let end = self.cursor + budget;
        let mut i = self.cursor;
        while i < end {
            let (u, v) = self.pairs[i];
            i += 1;
            let (iu, iv) = (u as usize, v as usize);
            let a = self.ids[iu];
            let b = self.ids[iv];
            let idx = a as usize * k + b as usize;
            let packed = table[idx];
            if packed != ((u32::from(a) << 16) | u32::from(b)) {
                let na = (packed >> 16) as StateId;
                let nb = packed as StateId;
                if self.linear {
                    self.leaders += i64::from(compiled.leader_delta[idx]);
                } else {
                    self.oracle.apply(
                        &compiled.protocol,
                        (&states[a as usize], &states[b as usize]),
                        (&states[na as usize], &states[nb as usize]),
                    );
                }
                if let Some(census) = &mut self.census {
                    census.mark(u32::from(na));
                    census.mark(u32::from(nb));
                }
                self.ids[iu] = na;
                self.ids[iv] = nb;
                if self.stop_now(stop) {
                    break;
                }
            }
        }
        self.applied += (i - self.cursor) as u64;
        self.cursor = i;
    }

    /// Fused runner for the computed-edge (clique) decoder: RNG draw,
    /// arithmetic decode and table apply in one loop, with no pair
    /// buffer in between. The RNG state and the configuration are
    /// independent dependency chains, so the processor overlaps them;
    /// this is the engine's fastest path. Requires the pair buffer to
    /// be drained and applies at most `budget` interactions, returning
    /// early (right after the causing change) once the oracle satisfies
    /// `stop`.
    fn run_fused_clique(&mut self, budget: u64, stop: Stop) {
        debug_assert_eq!(self.cursor, self.filled, "pair buffer must be drained");
        let EdgeDecoder::Clique(index) = &self.decoder else {
            unreachable!("fused path requires the clique decoder")
        };
        let (n, shift, row_hint) = index.parts();
        let compiled = self.compiled;
        let k = compiled.states.len();
        let table = &compiled.table;
        let states = &compiled.states;
        let mut done = 0u64;
        if self.linear && self.census.is_none() && compiled.fused.is_some() {
            // Branchless variant: writing back unchanged ids and adding
            // a zero leader delta are no-ops, so the data-dependent
            // "did this pair change state?" branch — mispredicted
            // constantly mid-election — disappears entirely, and one
            // load of the fused table serves successors and delta alike.
            let fused = compiled.fused.as_deref().expect("checked above");
            while done < budget {
                let r = self.scheduler.next_raw();
                done += 1;
                let (u, v) = clique_decode((r >> 1) as u32, n, shift, row_hint);
                let (iu, iv) = orient(u, v, r);
                let (iu, iv) = (iu as usize, iv as usize);
                let a = self.ids[iu];
                let b = self.ids[iv];
                let entry = fused[((a as usize) << 8) | b as usize];
                self.ids[iu] = ((entry >> 8) & 0xFF) as StateId;
                self.ids[iv] = (entry & 0xFF) as StateId;
                self.leaders += i64::from(entry >> 16) - 2;
                match stop {
                    Stop::Stable if self.leaders == 1 => break,
                    Stop::Unstable if self.leaders != 1 => break,
                    _ => {}
                }
            }
        } else {
            while done < budget {
                let r = self.scheduler.next_raw();
                done += 1;
                let (u, v) = clique_decode((r >> 1) as u32, n, shift, row_hint);
                let (iu, iv) = orient(u, v, r);
                let (iu, iv) = (iu as usize, iv as usize);
                let a = self.ids[iu];
                let b = self.ids[iv];
                let idx = a as usize * k + b as usize;
                let packed = table[idx];
                if packed != ((u32::from(a) << 16) | u32::from(b)) {
                    let na = (packed >> 16) as StateId;
                    let nb = packed as StateId;
                    if self.linear {
                        self.leaders += i64::from(compiled.leader_delta[idx]);
                    } else {
                        self.oracle.apply(
                            &compiled.protocol,
                            (&states[a as usize], &states[b as usize]),
                            (&states[na as usize], &states[nb as usize]),
                        );
                    }
                    if let Some(census) = &mut self.census {
                        census.mark(u32::from(na));
                        census.mark(u32::from(nb));
                    }
                    self.ids[iu] = na;
                    self.ids[iv] = nb;
                    if self.stop_now(stop) {
                        break;
                    }
                }
            }
        }
        self.applied += done;
    }

    /// Applies up to `budget` interactions through buffered pairs (for
    /// already-drawn pairs and the gather decoders) or the fused path.
    fn run_budget(&mut self, budget: u64, stop: Stop) {
        if self.cursor < self.filled {
            let avail = (self.filled - self.cursor) as u64;
            self.apply_batch(avail.min(budget) as usize, stop);
        } else if matches!(self.decoder, EdgeDecoder::Clique(_)) {
            self.run_fused_clique(budget, stop);
        } else {
            let limit = budget.min(PAIR_BATCH as u64) as usize;
            self.refill(limit);
            self.apply_batch(limit, stop);
        }
    }

    /// Runs exactly `k` interactions, consuming the scheduler stream
    /// exactly `k` draws past the buffered pairs — never further — so
    /// after the buffer drains, the RNG position matches the generic
    /// engine's at the same step (the alignment [`crate::faults`] relies
    /// on to perturb both engines identically).
    pub fn run_steps(&mut self, k: u64) {
        let mut remaining = k;
        while remaining > 0 {
            let before = self.applied;
            self.run_budget(remaining, Stop::Never);
            remaining -= self.applied - before;
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
        while !self.stable_now() {
            if self.applied >= max_steps {
                return Err(NotStabilized { max_steps });
            }
            self.run_budget(max_steps - self.applied, Stop::Stable);
        }
        Ok(self.outcome())
    }

    /// Runs while the oracle keeps reporting stability, stopping right
    /// after the first interaction that breaks it (same contract as
    /// [`crate::Executor::run_while_stable`], and trace-identical to
    /// it). Returns the violation step, or `None` if `max_steps` total
    /// interactions passed with stability intact.
    pub fn run_while_stable(&mut self, max_steps: u64) -> Option<u64> {
        while self.stable_now() {
            if self.applied >= max_steps {
                return None;
            }
            self.run_budget(max_steps - self.applied, Stop::Unstable);
        }
        Some(self.applied)
    }

    #[inline]
    fn stable_now(&self) -> bool {
        if self.linear {
            self.leaders == 1
        } else {
            self.oracle.is_stable()
        }
    }

    /// Whether the `stop` condition holds right now (checked only after
    /// state-changing interactions).
    #[inline]
    fn stop_now(&self, stop: Stop) -> bool {
        match stop {
            Stop::Never => false,
            Stop::Stable => self.stable_now(),
            Stop::Unstable => !self.stable_now(),
        }
    }

    /// Whether the oracle currently reports stability.
    #[must_use]
    pub fn is_stable(&self) -> bool {
        self.stable_now()
    }

    /// Current number of leader-output nodes (O(n) scan of the role
    /// table).
    #[must_use]
    pub fn leader_count(&self) -> usize {
        self.ids
            .iter()
            .filter(|&&id| self.compiled.roles[id as usize] == Role::Leader)
            .count()
    }

    /// The unique leader if exactly one node outputs leader.
    #[must_use]
    pub fn leader(&self) -> Option<NodeId> {
        let mut found = None;
        for (v, &id) in self.ids.iter().enumerate() {
            if self.compiled.roles[id as usize] == Role::Leader {
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
            distinct_states: self.census.as_ref().map(|c| c.count),
        }
    }

    /// Resets to the initial configuration with a new seed.
    ///
    /// Resets states, scheduler and counters only — the executor stays
    /// bound to whichever graph it currently borrows, so executors that
    /// ran a fault plan with topology changes should be rebuilt rather
    /// than reset (the Monte-Carlo harness does exactly that).
    pub fn reset(&mut self, seed: u64) {
        let n = self.graph.num_nodes() as usize;
        self.ids.clear();
        self.ids.extend_from_slice(&self.compiled.initial[..n]);
        self.scheduler.reset(seed);
        self.cursor = 0;
        self.filled = 0;
        self.applied = 0;
        self.leaders = self
            .ids
            .iter()
            .filter(|&&id| self.compiled.roles[id as usize] == Role::Leader)
            .count() as i64;
        if !self.linear {
            self.oracle.recompute(
                &self.compiled.protocol,
                &self.compiled.typed_config(&self.ids),
            );
        }
        if self.census.is_some() {
            self.census = None;
            self.enable_state_census();
        }
    }

    // ---- fault-injection primitives (see `crate::faults`) ------------
    //
    // Mirrors of the generic executor's primitives. Topology changes
    // invalidate the per-graph edge decoder, so every rebind rebuilds it
    // for the new graph; the scheduler keeps its RNG stream. Rebinds
    // require the pair buffer to be drained — which it always is after
    // a `run_steps` call, since bounded runs never draw past their
    // budget.

    /// Recomputes the derived leader/oracle state after a perturbation
    /// (corruption or churn) that edited `ids` outside a transition.
    fn resync_oracle(&mut self) {
        self.leaders = self
            .ids
            .iter()
            .filter(|&&id| self.compiled.roles[id as usize] == Role::Leader)
            .count() as i64;
        if !self.linear {
            self.oracle.recompute(
                &self.compiled.protocol,
                &self.compiled.typed_config(&self.ids),
            );
        }
    }

    /// Rebinds scheduler and decoder to `graph` (states untouched).
    fn rebind(&mut self, graph: &'a Graph) {
        assert_eq!(
            self.cursor, self.filled,
            "pair buffer must be drained before a graph change"
        );
        self.graph = graph;
        self.scheduler.set_graph(graph);
        self.decoder = EdgeDecoder::for_graph(graph);
    }

    /// Rebinds the execution to a graph with the **same node count**
    /// (edge additions/removals/rewirings), rebuilding the edge decoder.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ, the new graph has no edges, or
    /// the pair buffer still holds drawn-but-unapplied pairs.
    pub fn set_graph(&mut self, graph: &'a Graph) {
        assert_eq!(
            graph.num_nodes() as usize,
            self.ids.len(),
            "set_graph requires an equal node count (use join_node/leave_node)"
        );
        self.rebind(graph);
    }

    /// Rebinds to a graph with **one more node**: the new node is `n`
    /// (the old node count) and starts in its initial state.
    ///
    /// # Panics
    ///
    /// Panics if `graph` does not have exactly one extra node or the
    /// protocol was compiled for fewer nodes than the new graph has.
    pub fn join_node(&mut self, graph: &'a Graph) {
        assert_eq!(
            graph.num_nodes() as usize,
            self.ids.len() + 1,
            "join_node requires exactly one extra node"
        );
        assert!(
            graph.num_nodes() <= self.compiled.num_nodes(),
            "protocol was compiled for fewer nodes than the new graph has"
        );
        let id = self.compiled.initial[self.ids.len()];
        if let Some(census) = &mut self.census {
            census.mark(u32::from(id));
        }
        self.ids.push(id);
        self.rebind(graph);
        self.resync_oracle();
    }

    /// Rebinds to a graph with **one less node**: node `removed` leaves
    /// and the last node (`n − 1`) is relabelled to `removed` — `graph`
    /// must already use that relabelling.
    ///
    /// # Panics
    ///
    /// Panics if `graph` does not have exactly one node less or
    /// `removed` is out of range.
    pub fn leave_node(&mut self, graph: &'a Graph, removed: NodeId) {
        assert_eq!(
            graph.num_nodes() as usize,
            self.ids.len() - 1,
            "leave_node requires exactly one node less"
        );
        self.ids.swap_remove(removed as usize);
        self.rebind(graph);
        self.resync_oracle();
    }

    /// State corruption: resets node `v` to its initial state (a crash
    /// followed by a clean rejoin), leaving all other nodes untouched.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn corrupt_to_initial(&mut self, v: NodeId) {
        let id = self.compiled.initial[v as usize];
        if let Some(census) = &mut self.census {
            census.mark(u32::from(id));
        }
        self.ids[v as usize] = id;
        self.resync_oracle();
    }

    /// Overwrites the whole configuration (an *arbitrary* start, in the
    /// self-stabilization sense — see [`crate::stabilize`]); mirrors
    /// [`crate::Executor::set_configuration`]. The scheduler's RNG
    /// stream is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the node count, or if any
    /// state is not in the compiled table — arbitrary-start tables must
    /// be built with [`CompiledProtocol::compile_with_seeds`] over the
    /// sampler's support.
    pub fn set_configuration(&mut self, states: &[P::State]) {
        assert_eq!(
            states.len(),
            self.ids.len(),
            "configuration length must equal the node count"
        );
        for (slot, s) in self.ids.iter_mut().zip(states) {
            let id = self
                .compiled
                .state_id(s)
                .expect("arbitrary start state missing from the compiled table (compile_with_seeds over the sampler's support)");
            *slot = id;
        }
        if let Some(census) = &mut self.census {
            for &id in &self.ids {
                census.mark(u32::from(id));
            }
        }
        self.resync_oracle();
    }

    #[cfg(test)]
    pub(crate) fn scheduler_steps(&self) -> u64 {
        self.scheduler.steps()
    }

    #[cfg(test)]
    pub(crate) fn decoder(&self) -> &EdgeDecoder {
        &self.decoder
    }
}

/// Runs one execution of a protocol through a [`LazyTable`] — the
/// lazily-compiling dense engine.
///
/// Drop-in counterpart of [`crate::Executor`] and [`DenseExecutor`]:
/// identical scheduler and seed semantics, identical oracle behaviour
/// and [`Outcome`]s. Instead of requiring the full reachable state space
/// up front, it interns states on first sight into `u32` ids and
/// memoizes pair successors on demand, so protocols whose state spaces
/// overflow the ahead-of-time cap — the identifier protocol at realistic
/// `k`, full-scale fast-protocol instances — still run on a dense-id hot
/// loop. See [`super::lazy`] for the caching machinery and
/// [`crate::EngineSelection::prepare`] for the three-way engine
/// selection.
///
/// Unlike [`DenseExecutor`] the table is owned (the cache mutates during
/// the run), so executors are per-thread; [`LazyDenseExecutor::reset`]
/// deliberately keeps the warm cache, which is how Monte-Carlo workers
/// amortize it across trials.
///
/// # Examples
///
/// ```
/// use popele_engine::{Executor, LazyDenseExecutor, LeaderCountOracle, Protocol, Role};
/// use popele_graph::families;
///
/// // A protocol whose per-node grain counters give it far too many
/// // reachable states for ahead-of-time compilation at realistic
/// // parameters — the shape of the paper's identifier protocol. The
/// // lazy engine runs it on dense ids anyway, trace-identical to the
/// // generic reference.
/// #[derive(Clone, Copy)]
/// struct GrainAbsorb;
/// impl Protocol for GrainAbsorb {
///     type State = (bool, u32); // (leader bit, interaction counter)
///     type Oracle = LeaderCountOracle;
///     fn initial_state(&self, _node: u32) -> (bool, u32) { (true, 0) }
///     fn transition(&self, a: &(bool, u32), b: &(bool, u32)) -> ((bool, u32), (bool, u32)) {
///         ((a.0, (a.1 + 1).min(1_000_000)), (b.0 && !a.0, b.1))
///     }
///     fn output(&self, s: &(bool, u32)) -> Role {
///         if s.0 { Role::Leader } else { Role::Follower }
///     }
///     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
/// }
///
/// let g = families::clique(16);
/// let generic = Executor::new(&g, &GrainAbsorb, 7).run_until_stable(1 << 22).unwrap();
/// let lazy = LazyDenseExecutor::new(&g, &GrainAbsorb, 7).run_until_stable(1 << 22).unwrap();
/// assert_eq!(generic, lazy);
/// ```
pub struct LazyDenseExecutor<'a, P: Protocol> {
    graph: &'a Graph,
    table: LazyTable<P>,
    scheduler: EdgeScheduler<'a>,
    ids: Vec<LazyId>,
    oracle: P::Oracle,
    /// Same linear-oracle substitution as [`DenseExecutor`]: when the
    /// oracle is exactly a unique-leader count, the engine maintains it
    /// through the cached per-pair deltas.
    linear: bool,
    leaders: i64,
    census: Option<DenseCensus>,
    /// Batched draws, with the same never-past-the-budget discipline as
    /// [`DenseExecutor`] (see its field docs) — the property that lets
    /// [`crate::faults`] perturb all engines identically.
    pairs: Box<[(NodeId, NodeId)]>,
    raw: Box<[usize]>,
    cursor: usize,
    filled: usize,
    applied: u64,
    decoder: EdgeDecoder,
    /// Reset snapshot: the initial configuration is seed-independent,
    /// so the dense ids, the typed states feeding the oracle's
    /// `recompute`, and the initial leader count are captured once and
    /// replayed by [`Self::reset`] instead of re-interned per reset
    /// (`initial_typed` stays empty for linear oracles, which need no
    /// recompute). Rebuilt lazily if node churn changed the population.
    initial_ids: Vec<LazyId>,
    initial_typed: Vec<P::State>,
    initial_leaders: i64,
}

impl<'a, P: Protocol + Clone> LazyDenseExecutor<'a, P> {
    /// Creates an executor with every node in its initial state.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges.
    #[must_use]
    pub fn new(graph: &'a Graph, protocol: &P, seed: u64) -> Self {
        let mut table = LazyTable::new(protocol, graph.num_nodes());
        let ids: Vec<LazyId> = (0..graph.num_nodes())
            .map(|v| table.initial_id(v))
            .collect();
        let mut oracle = protocol.oracle();
        let linear = oracle.stable_iff_unique_leader();
        let typed: Vec<P::State> = if linear {
            Vec::new()
        } else {
            ids.iter().map(|&id| table.state(id).clone()).collect()
        };
        if !linear {
            oracle.recompute(protocol, &typed);
        }
        let leaders = ids
            .iter()
            .filter(|&&id| table.role(id) == Role::Leader)
            .count() as i64;
        Self {
            graph,
            table,
            scheduler: EdgeScheduler::new(graph, seed),
            initial_ids: ids.clone(),
            initial_typed: typed,
            initial_leaders: leaders,
            ids,
            oracle,
            linear,
            leaders,
            census: None,
            pairs: vec![(0, 0); PAIR_BATCH].into_boxed_slice(),
            raw: vec![0usize; PAIR_BATCH].into_boxed_slice(),
            cursor: 0,
            filled: 0,
            applied: 0,
            decoder: EdgeDecoder::for_graph(graph),
        }
    }
}

impl<'a, P: Protocol> LazyDenseExecutor<'a, P> {
    fn refill(&mut self, limit: usize) {
        self.decoder
            .fill_batch(&mut self.scheduler, &mut self.pairs[..limit], &mut self.raw);
        self.cursor = 0;
        self.filled = limit;
    }

    /// Enables the distinct-state census (O(1) per changed state).
    pub fn enable_state_census(&mut self) {
        let mut census = DenseCensus::new(self.table.num_states());
        for &id in &self.ids {
            census.mark(id);
        }
        self.census = Some(census);
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The lazily-built table (interner + pair cache) driving this
    /// execution — exposed for capacity reporting and tests.
    #[must_use]
    pub fn table(&self) -> &LazyTable<P> {
        &self.table
    }

    /// Current configuration as dense ids.
    #[must_use]
    pub fn state_ids(&self) -> &[LazyId] {
        &self.ids
    }

    /// Typed state of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn state_of(&self, v: NodeId) -> &P::State {
        self.table.state(self.ids[v as usize])
    }

    /// Steps applied so far (the model's time step `t`; the scheduler
    /// may have drawn up to one buffered batch further ahead).
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.applied
    }

    /// Looks up (or on first sight evaluates) the successor of the id
    /// pair `(a, b)` together with the cache slot of the memoized effect
    /// summary (fetched on demand via [`LazyTable::cached_effect`] only
    /// when the pair changes state), splitting the borrows so the
    /// table's miss path can consult the oracle.
    #[inline]
    fn successor(&mut self, a: LazyId, b: LazyId) -> (LazyId, LazyId, i8, usize) {
        let oracle = &self.oracle;
        self.table
            .successor_tracked(a, b, |protocol, sa, sb, sna, snb| {
                oracle.transition_effect(protocol, (sa, sb), (sna, snb))
            })
    }

    /// Applies the ordered interaction `(u, v)` to the configuration.
    #[inline]
    fn apply_pair(&mut self, u: NodeId, v: NodeId) {
        let (iu, iv) = (u as usize, v as usize);
        let a = self.ids[iu];
        let b = self.ids[iv];
        let (na, nb, delta, slot) = self.successor(a, b);
        if (na, nb) != (a, b) {
            if self.linear {
                self.leaders += i64::from(delta);
            } else if !self.oracle.effect_inert(self.table.cached_effect(slot)) {
                let states = &self.table.states;
                self.oracle.apply(
                    &self.table.protocol,
                    (&states[a as usize], &states[b as usize]),
                    (&states[na as usize], &states[nb as usize]),
                );
            }
            if let Some(census) = &mut self.census {
                census.mark(na);
                census.mark(nb);
            }
            self.ids[iu] = na;
            self.ids[iv] = nb;
        }
    }

    /// Applies one interaction and returns the sampled `(initiator,
    /// responder)` pair.
    #[inline]
    pub fn step(&mut self) -> (NodeId, NodeId) {
        if self.cursor == self.filled {
            self.refill(PAIR_BATCH);
        }
        let (u, v) = self.pairs[self.cursor];
        self.cursor += 1;
        self.applied += 1;
        self.apply_pair(u, v);
        (u, v)
    }

    /// Applies up to `budget` already-buffered interactions in one tight
    /// loop — after warm-up: two id reads, one (almost always one-probe)
    /// cache lookup, two id writes per interaction, with oracle/census
    /// work only on the rare state-changing pairs. For non-linear
    /// oracles, the memoized effect summary skips the typed
    /// [`StabilityOracle::apply`] — and the interner reads feeding it —
    /// on changes the oracle vouches are inert: an inert application
    /// changes no counter, so stability cannot flip and the stop check
    /// is skipped along with it.
    fn apply_batch(&mut self, budget: usize, stop: Stop) {
        let start = self.cursor;
        let end = start + budget;
        // Split the borrows up front: iterating the drawn pairs as a
        // slice (no per-step bounds check) with the table, oracle and
        // ids borrowed disjointly keeps the loop invariants (`linear`,
        // the slice bounds) in registers across the hot loop.
        let Self {
            table,
            oracle,
            ids,
            census,
            pairs,
            leaders,
            linear,
            ..
        } = self;
        let linear = *linear;
        let mut done = 0usize;
        for &(u, v) in &pairs[start..end] {
            done += 1;
            let (iu, iv) = (u as usize, v as usize);
            let a = ids[iu];
            let b = ids[iv];
            let (na, nb, delta, slot) =
                table.successor_tracked(a, b, |protocol, sa, sb, sna, snb| {
                    oracle.transition_effect(protocol, (sa, sb), (sna, snb))
                });
            if (na, nb) != (a, b) {
                let mut check_stop = true;
                if linear {
                    *leaders += i64::from(delta);
                } else if oracle.effect_inert(table.cached_effect(slot)) {
                    check_stop = false;
                } else {
                    let states = &table.states;
                    oracle.apply(
                        &table.protocol,
                        (&states[a as usize], &states[b as usize]),
                        (&states[na as usize], &states[nb as usize]),
                    );
                }
                if let Some(census) = census.as_mut() {
                    census.mark(na);
                    census.mark(nb);
                }
                ids[iu] = na;
                ids[iv] = nb;
                if check_stop && !matches!(stop, Stop::Never) {
                    let stable = if linear {
                        *leaders == 1
                    } else {
                        oracle.is_stable()
                    };
                    if matches!(stop, Stop::Stable) == stable {
                        break;
                    }
                }
            }
        }
        self.applied += done as u64;
        self.cursor = start + done;
    }

    /// Applies up to `budget` interactions through buffered pairs,
    /// refilling in decoder batches.
    fn run_budget(&mut self, budget: u64, stop: Stop) {
        if self.cursor < self.filled {
            let avail = (self.filled - self.cursor) as u64;
            self.apply_batch(avail.min(budget) as usize, stop);
        } else {
            let limit = budget.min(PAIR_BATCH as u64) as usize;
            self.refill(limit);
            self.apply_batch(limit, stop);
        }
    }

    /// Runs exactly `k` interactions without drawing the scheduler
    /// stream past them (same contract as [`DenseExecutor::run_steps`]).
    pub fn run_steps(&mut self, k: u64) {
        let mut remaining = k;
        while remaining > 0 {
            let before = self.applied;
            self.run_budget(remaining, Stop::Never);
            remaining -= self.applied - before;
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
        while !self.stable_now() {
            if self.applied >= max_steps {
                return Err(NotStabilized { max_steps });
            }
            self.run_budget(max_steps - self.applied, Stop::Stable);
        }
        Ok(self.outcome())
    }

    /// Runs while the oracle keeps reporting stability, stopping right
    /// after the first interaction that breaks it (same contract as
    /// [`crate::Executor::run_while_stable`], and trace-identical to
    /// it). Returns the violation step, or `None` if `max_steps` total
    /// interactions passed with stability intact.
    pub fn run_while_stable(&mut self, max_steps: u64) -> Option<u64> {
        while self.stable_now() {
            if self.applied >= max_steps {
                return None;
            }
            self.run_budget(max_steps - self.applied, Stop::Unstable);
        }
        Some(self.applied)
    }

    #[inline]
    fn stable_now(&self) -> bool {
        if self.linear {
            self.leaders == 1
        } else {
            self.oracle.is_stable()
        }
    }

    /// Whether the oracle currently reports stability.
    #[must_use]
    pub fn is_stable(&self) -> bool {
        self.stable_now()
    }

    /// Current number of leader-output nodes (O(n) scan of the role
    /// memo).
    #[must_use]
    pub fn leader_count(&self) -> usize {
        self.ids
            .iter()
            .filter(|&&id| self.table.role(id) == Role::Leader)
            .count()
    }

    /// The unique leader if exactly one node outputs leader.
    #[must_use]
    pub fn leader(&self) -> Option<NodeId> {
        let mut found = None;
        for (v, &id) in self.ids.iter().enumerate() {
            if self.table.role(id) == Role::Leader {
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
            distinct_states: self.census.as_ref().map(|c| c.count),
        }
    }

    /// Resets to the initial configuration with a new seed, **keeping**
    /// the interner and pair cache warm — a reset is behaviourally
    /// equivalent to fresh construction (the cache only changes speed,
    /// never the trace), and cache reuse across trials is where the lazy
    /// engine's Monte-Carlo throughput comes from.
    ///
    /// As with [`DenseExecutor::reset`], the executor stays bound to its
    /// current graph; fault-plan runs with topology changes rebuild
    /// executors instead.
    pub fn reset(&mut self, seed: u64) {
        let n = self.graph.num_nodes();
        if self.initial_ids.len() != n as usize {
            // Node churn changed the population since the snapshot was
            // taken; rebuild it for the current node count.
            self.initial_ids.clear();
            for v in 0..n {
                let id = self.table.initial_id(v);
                self.initial_ids.push(id);
            }
            if !self.linear {
                self.initial_typed = self
                    .initial_ids
                    .iter()
                    .map(|&id| self.table.state(id).clone())
                    .collect();
            }
            self.initial_leaders = self
                .initial_ids
                .iter()
                .filter(|&&id| self.table.role(id) == Role::Leader)
                .count() as i64;
        }
        self.ids.clone_from(&self.initial_ids);
        self.leaders = self.initial_leaders;
        if !self.linear {
            self.oracle
                .recompute(&self.table.protocol, &self.initial_typed);
        }
        self.scheduler.reset(seed);
        self.cursor = 0;
        self.filled = 0;
        self.applied = 0;
        if self.census.is_some() {
            self.census = None;
            self.enable_state_census();
        }
    }

    // ---- fault-injection primitives (see `crate::faults`) ------------
    //
    // Mirrors of the dense executor's primitives; the lazy engine needs
    // no compiled-size guard on joins — the new node's initial state is
    // interned on demand.

    /// Recomputes the derived leader/oracle state after a perturbation
    /// (corruption or churn) that edited `ids` outside a transition.
    fn resync_oracle(&mut self) {
        self.leaders = self
            .ids
            .iter()
            .filter(|&&id| self.table.role(id) == Role::Leader)
            .count() as i64;
        if !self.linear {
            let typed: Vec<P::State> = self
                .ids
                .iter()
                .map(|&id| self.table.state(id).clone())
                .collect();
            self.oracle.recompute(&self.table.protocol, &typed);
        }
    }

    /// Rebinds scheduler and decoder to `graph` (states untouched).
    fn rebind(&mut self, graph: &'a Graph) {
        assert_eq!(
            self.cursor, self.filled,
            "pair buffer must be drained before a graph change"
        );
        self.graph = graph;
        self.scheduler.set_graph(graph);
        self.decoder = EdgeDecoder::for_graph(graph);
    }

    /// Rebinds the execution to a graph with the **same node count**
    /// (edge additions/removals/rewirings), rebuilding the edge decoder.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ, the new graph has no edges, or
    /// the pair buffer still holds drawn-but-unapplied pairs.
    pub fn set_graph(&mut self, graph: &'a Graph) {
        assert_eq!(
            graph.num_nodes() as usize,
            self.ids.len(),
            "set_graph requires an equal node count (use join_node/leave_node)"
        );
        self.rebind(graph);
    }

    /// Rebinds to a graph with **one more node**: the new node is `n`
    /// (the old node count) and starts in its initial state (interned on
    /// demand — no pre-sized table to outgrow).
    ///
    /// # Panics
    ///
    /// Panics if `graph` does not have exactly one extra node.
    pub fn join_node(&mut self, graph: &'a Graph) {
        assert_eq!(
            graph.num_nodes() as usize,
            self.ids.len() + 1,
            "join_node requires exactly one extra node"
        );
        let id = self.table.initial_id(self.ids.len() as u32);
        if let Some(census) = &mut self.census {
            census.mark(id);
        }
        self.ids.push(id);
        self.rebind(graph);
        self.resync_oracle();
    }

    /// Rebinds to a graph with **one less node**: node `removed` leaves
    /// and the last node (`n − 1`) is relabelled to `removed` — `graph`
    /// must already use that relabelling.
    ///
    /// # Panics
    ///
    /// Panics if `graph` does not have exactly one node less or
    /// `removed` is out of range.
    pub fn leave_node(&mut self, graph: &'a Graph, removed: NodeId) {
        assert_eq!(
            graph.num_nodes() as usize,
            self.ids.len() - 1,
            "leave_node requires exactly one node less"
        );
        self.ids.swap_remove(removed as usize);
        self.rebind(graph);
        self.resync_oracle();
    }

    /// State corruption: resets node `v` to its initial state (a crash
    /// followed by a clean rejoin), leaving all other nodes untouched.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn corrupt_to_initial(&mut self, v: NodeId) {
        let id = self.table.initial_id(v);
        if let Some(census) = &mut self.census {
            census.mark(id);
        }
        self.ids[v as usize] = id;
        self.resync_oracle();
    }

    /// Overwrites the whole configuration (an *arbitrary* start, in the
    /// self-stabilization sense — see [`crate::stabilize`]); mirrors
    /// [`crate::Executor::set_configuration`]. Never-seen states are
    /// interned on the spot — the lazy engine needs no pre-computed
    /// closure over the sampler's support. The scheduler's RNG stream is
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the node count.
    pub fn set_configuration(&mut self, states: &[P::State]) {
        assert_eq!(
            states.len(),
            self.ids.len(),
            "configuration length must equal the node count"
        );
        for (v, s) in states.iter().enumerate() {
            let id = self.table.intern(s);
            if let Some(census) = &mut self.census {
                census.mark(id);
            }
            self.ids[v] = id;
        }
        self.resync_oracle();
    }

    /// Hands the execution to the generic engine mid-run. The generic
    /// [`Executor`] gets the typed configuration, a clone of the
    /// scheduler (same RNG position, `steps() == applied`), the typed
    /// states of the census's seen ids, and an oracle recomputed once,
    /// so it continues the trace exactly where this executor stands.
    ///
    /// # Panics
    ///
    /// Panics if the pair buffer still holds drawn-but-unapplied pairs:
    /// the clone would then start past them. Bounded run calls drain it.
    pub(crate) fn to_generic(&self) -> Executor<'_, P> {
        assert_eq!(
            self.cursor, self.filled,
            "pair buffer must be drained before a hand-off"
        );
        debug_assert_eq!(self.scheduler.steps(), self.applied);
        let states = self.ids.iter().map(|&id| self.table.state(id).clone());
        let census = self.census.as_ref().map(|census| {
            census
                .seen
                .iter()
                .zip(&self.table.states)
                .filter(|&(&seen, _)| seen)
                .map(|(_, state)| state.clone())
                .collect()
        });
        Executor::resume(
            self.graph,
            &self.table.protocol,
            self.scheduler.clone(),
            states.collect(),
            census,
        )
    }

    #[cfg(test)]
    pub(crate) fn scheduler_steps(&self) -> u64 {
        self.scheduler.steps()
    }
}

#[cfg(test)]
mod tests {
    use super::super::decoder::DecoderKind;
    use super::*;
    use crate::executor::Executor;
    use crate::protocol::LeaderCountOracle;
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
    fn dense_matches_generic_trace() {
        let g = families::clique(16);
        let compiled = CompiledProtocol::compile_default(&Absorb, 16).unwrap();
        let mut generic = Executor::new(&g, &Absorb, 99);
        let mut dense = DenseExecutor::new(&g, &compiled, 99);
        let mut lazy = LazyDenseExecutor::new(&g, &Absorb, 99);
        for _ in 0..2000 {
            let step = generic.step();
            assert_eq!(step, dense.step());
            assert_eq!(step, lazy.step());
            for v in 0..16u32 {
                assert_eq!(generic.states()[v as usize], *dense.state_of(v));
                assert_eq!(generic.states()[v as usize], *lazy.state_of(v));
            }
            assert_eq!(generic.is_stable(), dense.is_stable());
            assert_eq!(generic.is_stable(), lazy.is_stable());
        }
    }

    #[test]
    fn dense_outcome_equals_generic() {
        for g in [families::clique(12), families::clique(30)] {
            let n = g.num_nodes();
            let compiled = CompiledProtocol::compile_default(&Absorb, n).unwrap();
            for seed in [1u64, 7, 42] {
                let a = Executor::new(&g, &Absorb, seed)
                    .run_until_stable(1 << 24)
                    .unwrap();
                let b = DenseExecutor::new(&g, &compiled, seed)
                    .run_until_stable(1 << 24)
                    .unwrap();
                let c = LazyDenseExecutor::new(&g, &Absorb, seed)
                    .run_until_stable(1 << 24)
                    .unwrap();
                assert_eq!(a, b, "seed {seed} on {g}");
                assert_eq!(a, c, "seed {seed} on {g} (lazy)");
            }
        }
    }

    #[test]
    fn clique_decoder_exact_for_many_sizes() {
        // The arithmetic clique decode must reproduce the scheduler's
        // edge-array pairs exactly for every size (row-boundary and
        // final-edge cases included).
        for n in [2u32, 3, 4, 5, 8, 13, 37, 100, 257] {
            let g = families::clique(n);
            let compiled = CompiledProtocol::compile_default(&Absorb, n).unwrap();
            let mut generic = Executor::new(&g, &Absorb, u64::from(n));
            let mut dense = DenseExecutor::new(&g, &compiled, u64::from(n));
            for _ in 0..1200 {
                assert_eq!(generic.step(), dense.step(), "clique({n})");
            }
        }
    }

    #[test]
    fn csr_decoder_matches_generic_trace_on_large_families() {
        // Star: every canonical edge sits in row 0 (all deltas zero);
        // cycle(300_000): m has 19 bits, so the bucket shift is 3 and
        // the per-edge deltas actually advance within buckets.
        for g in [
            families::cycle(70_000),
            families::star(70_000),
            families::cycle(300_000),
        ] {
            let n = g.num_nodes();
            let compiled = CompiledProtocol::compile_default(&Absorb, n).unwrap();
            let mut dense = DenseExecutor::new(&g, &compiled, 1234);
            assert_eq!(dense.decoder().kind(), DecoderKind::Csr);
            let mut generic = Executor::new(&g, &Absorb, 1234);
            for _ in 0..3000 {
                assert_eq!(generic.step(), dense.step(), "{g}");
            }
        }
    }

    #[test]
    fn csr_decoder_decodes_collapsed_buckets_exactly() {
        // Two edges whose rows are ~700k apart force the one-edge-per-
        // bucket fallback (see the decoder unit test); the executor must
        // still decode exactly.
        let g = Graph::from_edges(700_000, &[(0, 1), (699_998, 699_999)]).unwrap();
        let compiled = CompiledProtocol::compile_default(&Absorb, 700_000).unwrap();
        let mut dense = DenseExecutor::new(&g, &compiled, 9);
        let mut generic = Executor::new(&g, &Absorb, 9);
        for _ in 0..500 {
            assert_eq!(generic.step(), dense.step());
        }
    }

    #[test]
    fn census_matches_generic() {
        let g = families::clique(8);
        let compiled = CompiledProtocol::compile_default(&Absorb, 8).unwrap();
        let mut generic = Executor::new(&g, &Absorb, 5);
        generic.enable_state_census();
        let mut dense = DenseExecutor::new(&g, &compiled, 5);
        dense.enable_state_census();
        let mut lazy = LazyDenseExecutor::new(&g, &Absorb, 5);
        lazy.enable_state_census();
        let a = generic.run_until_stable(1 << 20).unwrap();
        let b = dense.run_until_stable(1 << 20).unwrap();
        let c = lazy.run_until_stable(1 << 20).unwrap();
        assert_eq!(a.distinct_states, Some(2));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn reset_restores_initial_configuration() {
        let g = families::clique(8);
        let compiled = CompiledProtocol::compile_default(&Absorb, 8).unwrap();
        let mut exec = DenseExecutor::new(&g, &compiled, 1);
        exec.enable_state_census();
        exec.run_until_stable(1 << 20).unwrap();
        assert_eq!(exec.leader_count(), 1);
        exec.reset(2);
        assert_eq!(exec.steps(), 0);
        assert_eq!(exec.leader_count(), 8);
        assert_eq!(exec.outcome().distinct_states, Some(1));
        let out = exec.run_until_stable(1 << 20).unwrap();
        assert_eq!(out.leader_count, 1);
    }

    #[test]
    fn lazy_reset_keeps_cache_and_reproduces_fresh_runs() {
        let g = families::clique(10);
        let mut warm = LazyDenseExecutor::new(&g, &Absorb, 1);
        warm.run_until_stable(1 << 20).unwrap();
        let cached = warm.table().num_cached_pairs();
        assert!(cached > 0);
        warm.reset(2);
        assert_eq!(warm.steps(), 0);
        assert_eq!(warm.leader_count(), 10);
        // The cache survived the reset…
        assert_eq!(warm.table().num_cached_pairs(), cached);
        // …and the warm run is bit-identical to a cold one.
        let warm_out = warm.run_until_stable(1 << 20).unwrap();
        let cold_out = LazyDenseExecutor::new(&g, &Absorb, 2)
            .run_until_stable(1 << 20)
            .unwrap();
        assert_eq!(warm_out, cold_out);
    }

    #[test]
    fn handoff_to_generic_continues_the_trace() {
        // Hand a lazy run to the generic engine after a bounded run that
        // crossed a pair-buffer refill, as the trial runner does: steps,
        // pairs, configuration, census and outcome must match a generic
        // run that took every step itself.
        let g = families::clique(40);
        let mut generic = Executor::new(&g, &Absorb, 17);
        generic.enable_state_census();
        let mut lazy = LazyDenseExecutor::new(&g, &Absorb, 17);
        lazy.enable_state_census();
        generic.run_steps(300);
        lazy.run_steps(300);
        let mut handed = lazy.to_generic();
        assert_eq!(handed.steps(), 300);
        assert_eq!(handed.states(), generic.states());
        assert_eq!(handed.outcome(), generic.outcome());
        for _ in 0..50 {
            assert_eq!(handed.step(), generic.step());
        }
        assert_eq!(
            handed.run_until_stable(1 << 20),
            generic.run_until_stable(1 << 20)
        );
    }

    #[test]
    fn budget_exhaustion_reported() {
        let g = families::clique(20);
        let compiled = CompiledProtocol::compile_default(&Absorb, 20).unwrap();
        let mut exec = DenseExecutor::new(&g, &compiled, 5);
        let err = exec.run_until_stable(1).unwrap_err();
        assert_eq!(err, NotStabilized { max_steps: 1 });
        let mut lazy = LazyDenseExecutor::new(&g, &Absorb, 5);
        assert_eq!(lazy.run_until_stable(1).unwrap_err(), err);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn graph_larger_than_compilation_rejected() {
        let g = families::clique(6);
        let compiled = CompiledProtocol::compile_default(&Absorb, 5).unwrap();
        let _ = DenseExecutor::new(&g, &compiled, 0);
    }

    #[test]
    fn graph_smaller_than_compilation_accepted() {
        // A compilation for n + k nodes serves any graph with ≤ n + k
        // nodes (the churn path relies on this).
        let g = families::clique(4);
        let compiled = CompiledProtocol::compile_default(&Absorb, 7).unwrap();
        let mut exec = DenseExecutor::new(&g, &compiled, 3);
        assert_eq!(exec.state_ids().len(), 4);
        let out = exec.run_until_stable(1 << 20).unwrap();
        assert_eq!(out.leader_count, 1);
        exec.reset(4);
        assert_eq!(exec.state_ids().len(), 4);
        assert_eq!(exec.leader_count(), 4);
    }

    #[test]
    fn bounded_runs_consume_scheduler_exactly() {
        // run_steps must never draw past its budget: after any bounded
        // run the scheduler's draw count equals the applied step count
        // (for every decoder; the invariant fault injection rests on).
        for g in [families::clique(16), families::cycle(16)] {
            let n = g.num_nodes();
            let compiled = CompiledProtocol::compile_default(&Absorb, n).unwrap();
            let mut exec = DenseExecutor::new(&g, &compiled, 11);
            let mut lazy = LazyDenseExecutor::new(&g, &Absorb, 11);
            for k in [1u64, 7, 255, 256, 257, 1000] {
                exec.run_steps(k);
                lazy.run_steps(k);
            }
            assert_eq!(exec.steps(), 1 + 7 + 255 + 256 + 257 + 1000);
            assert_eq!(exec.scheduler_steps(), exec.steps(), "{g}");
            assert_eq!(lazy.steps(), exec.steps());
            assert_eq!(lazy.scheduler_steps(), lazy.steps(), "{g} (lazy)");
        }
    }

    #[test]
    fn corruption_matches_generic() {
        let g = families::clique(10);
        let compiled = CompiledProtocol::compile_default(&Absorb, 10).unwrap();
        let mut generic = Executor::new(&g, &Absorb, 21);
        let mut dense = DenseExecutor::new(&g, &compiled, 21);
        let mut lazy = LazyDenseExecutor::new(&g, &Absorb, 21);
        generic.run_steps(500);
        dense.run_steps(500);
        lazy.run_steps(500);
        for v in [0u32, 3, 9] {
            generic.corrupt_to_initial(v);
            dense.corrupt_to_initial(v);
            lazy.corrupt_to_initial(v);
        }
        assert_eq!(generic.leader_count(), dense.leader_count());
        assert_eq!(generic.leader_count(), lazy.leader_count());
        for _ in 0..2000 {
            let step = generic.step();
            assert_eq!(step, dense.step());
            assert_eq!(step, lazy.step());
            assert_eq!(generic.is_stable(), dense.is_stable());
            assert_eq!(generic.is_stable(), lazy.is_stable());
        }
        assert_eq!(generic.outcome(), dense.outcome());
        assert_eq!(generic.outcome(), lazy.outcome());
    }
}
