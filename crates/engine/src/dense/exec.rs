//! The per-agent dense executor, written once over two pair sources.
//!
//! [`PerAgentExecutor`] mirrors [`crate::Executor`] exactly — same
//! scheduler, same seed handling, same oracle semantics, same
//! [`Outcome`]s — and draws through the batched machinery of
//! [`super::decoder`]. Where a successor pair comes from is its
//! [`PairSource`]: the shared ahead-of-time table
//! (`&CompiledProtocol`, `u16` ids — [`DenseExecutor`]) or the owned,
//! on-demand [`LazyTable`] cache (`u32` ids — [`LazyDenseExecutor`]).
//! Every loop is monomorphized per source, so each hot loop stays
//! specialized, and every decoder on either source runs the same two
//! steps: [`EdgeDecoder::fill_batch`] draws a batch of pairs, and
//! `apply_batch` applies them. Differential tests in the workspace pin
//! both sources to identical traces with the generic engine.

use super::decoder::{EdgeDecoder, PAIR_BATCH};
use super::lazy::{LazyId, LazyTable};
use super::table::{CompiledProtocol, StateId};
use crate::executor::{Executor, NotStabilized, Outcome};
use crate::protocol::{Protocol, Role, StabilityOracle};
use crate::scheduler::EdgeScheduler;
use popele_graph::{Graph, NodeId};

/// Where a [`PerAgentExecutor`] gets the successor of an ordered pair of
/// dense state ids, and how it maps ids back to typed states and roles.
///
/// Two implementations: the shared ahead-of-time table
/// (`&CompiledProtocol<P>`, [`DenseExecutor`]) and the owned lazy cache
/// ([`LazyTable<P>`], [`LazyDenseExecutor`]), which interns states and
/// memoizes pairs on first sight and stays warm across
/// [`PerAgentExecutor::reset`]s.
pub trait PairSource<P: Protocol> {
    /// Dense state id: `u16` ahead of time, `u32` lazily.
    type Id: Copy + Eq + Into<u32>;
    /// What a [`Self::successor`] lookup leaves for the state-changing
    /// pairs: their leader delta and apply-skip verdict are read through
    /// it, so the (most common) no-op lookups touch nothing else.
    type Slot: Copy;

    /// Initial-state id of node `v`.
    ///
    /// # Panics
    ///
    /// The ahead-of-time source panics if `v` is beyond the node count
    /// it was compiled for.
    fn initial_id(&mut self, v: NodeId) -> Self::Id;

    /// Id of an arbitrary start state (see
    /// [`PerAgentExecutor::set_configuration`]).
    ///
    /// # Panics
    ///
    /// The ahead-of-time source panics if `state` is not in its table;
    /// the lazy source interns it.
    fn start_id(&mut self, state: &P::State) -> Self::Id;

    /// Typed state of id `id`.
    fn state(&self, id: Self::Id) -> &P::State;

    /// Output role of id `id`.
    fn role(&self, id: Self::Id) -> Role;

    /// Number of states known so far.
    fn num_states(&self) -> usize;

    /// The protocol the ids belong to.
    fn protocol(&self) -> &P;

    /// Successor pair of the ordered interaction `(a, b)` plus its
    /// [`Self::Slot`], or `None` if the interaction changes neither
    /// state. `oracle` classifies a pair the lazy source evaluates for
    /// the first time.
    fn successor(
        &mut self,
        a: Self::Id,
        b: Self::Id,
        oracle: &P::Oracle,
    ) -> Option<(Self::Id, Self::Id, Self::Slot)>;

    /// Net change in leader outputs of the looked-up transition.
    fn leader_delta(&self, slot: Self::Slot) -> i8;

    /// Whether the oracle may skip [`StabilityOracle::apply`] for the
    /// looked-up transition: never by default (ahead of time); lazily,
    /// when the oracle vouches its memoized effect is inert.
    fn skips_apply(&self, _slot: Self::Slot, _oracle: &P::Oracle) -> bool {
        false
    }
}

impl<P: Protocol> PairSource<P> for &CompiledProtocol<P> {
    type Id = StateId;
    /// Index of the table entry.
    type Slot = usize;

    fn initial_id(&mut self, v: NodeId) -> StateId {
        assert!(
            v < self.num_nodes(),
            "protocol was compiled for fewer nodes than the new graph has"
        );
        self.initial[v as usize]
    }

    fn start_id(&mut self, state: &P::State) -> StateId {
        self.state_id(state)
            .expect("arbitrary start state missing from the compiled table (compile_with_seeds over the sampler's support)")
    }

    fn state(&self, id: StateId) -> &P::State {
        &self.states[id as usize]
    }

    fn role(&self, id: StateId) -> Role {
        self.roles[id as usize]
    }

    fn num_states(&self) -> usize {
        self.states.len()
    }

    fn protocol(&self) -> &P {
        &self.protocol
    }

    #[inline]
    fn successor(
        &mut self,
        a: StateId,
        b: StateId,
        _: &P::Oracle,
    ) -> Option<(StateId, StateId, usize)> {
        let idx = a as usize * self.states.len() + b as usize;
        let packed = self.table[idx];
        // One compare of the packed words: the no-op test is the
        // hot loop's least predictable branch mid-election.
        (packed != (u32::from(a) << 16) | u32::from(b)).then_some((
            (packed >> 16) as StateId,
            packed as StateId,
            idx,
        ))
    }

    #[inline]
    fn leader_delta(&self, idx: usize) -> i8 {
        self.leader_delta[idx]
    }
}

impl<P: Protocol> PairSource<P> for LazyTable<P> {
    type Id = LazyId;
    /// The leader delta and the cache slot of the memoized effect.
    type Slot = (i8, usize);

    fn initial_id(&mut self, v: NodeId) -> LazyId {
        LazyTable::initial_id(self, v)
    }

    fn start_id(&mut self, state: &P::State) -> LazyId {
        self.intern(state)
    }

    fn state(&self, id: LazyId) -> &P::State {
        &self.states[id as usize]
    }

    fn role(&self, id: LazyId) -> Role {
        LazyTable::role(self, id)
    }

    fn num_states(&self) -> usize {
        self.states.len()
    }

    fn protocol(&self) -> &P {
        &self.protocol
    }

    #[inline]
    fn successor(
        &mut self,
        a: LazyId,
        b: LazyId,
        oracle: &P::Oracle,
    ) -> Option<(LazyId, LazyId, (i8, usize))> {
        let (na, nb, delta, slot) = self.successor_tracked(a, b, |protocol, sa, sb, sna, snb| {
            oracle.transition_effect(protocol, (sa, sb), (sna, snb))
        });
        ((na, nb) != (a, b)).then_some((na, nb, (delta, slot)))
    }

    #[inline]
    fn leader_delta(&self, (delta, _): (i8, usize)) -> i8 {
        delta
    }

    #[inline]
    fn skips_apply(&self, (_, slot): (i8, usize), oracle: &P::Oracle) -> bool {
        oracle.effect_inert(self.cached_effect(slot))
    }
}

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
/// `HashSet` census at O(1) per mark). Growable, because the lazy source
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

/// The configuration and everything derived from it: what an
/// interaction reads and writes, split from the draw machinery so the
/// run loops can borrow the pair buffer alongside it.
struct Agents<P: Protocol, S: PairSource<P>> {
    source: S,
    ids: Vec<S::Id>,
    oracle: P::Oracle,
    /// When the oracle declared
    /// [`StabilityOracle::stable_iff_unique_leader`], the executor
    /// tracks the leader count itself via the source's per-pair deltas
    /// and the typed oracle is bypassed entirely (`leaders` is then
    /// authoritative; the substitution is behaviour-identical).
    linear: bool,
    leaders: i64,
    census: Option<DenseCensus>,
}

impl<P: Protocol, S: PairSource<P>> Agents<P, S> {
    /// Applies the ordered interaction of nodes `iu` and `iv`. Returns
    /// whether the oracle may have moved — a state change it did not
    /// skip as inert — which is when a stop condition needs re-checking.
    ///
    /// The oracle is skipped entirely on no-op interactions (the vast
    /// majority late in a run): oracle updates are pure count deltas, so
    /// an identity transition is a no-op on the oracle too.
    #[inline(always)]
    fn interact(&mut self, iu: usize, iv: usize) -> bool {
        let a = self.ids[iu];
        let b = self.ids[iv];
        let Some((na, nb, slot)) = self.source.successor(a, b, &self.oracle) else {
            return false;
        };
        let moved = if self.linear {
            self.leaders += i64::from(self.source.leader_delta(slot));
            true
        } else if self.source.skips_apply(slot, &self.oracle) {
            false
        } else {
            let source = &self.source;
            self.oracle.apply(
                source.protocol(),
                (source.state(a), source.state(b)),
                (source.state(na), source.state(nb)),
            );
            true
        };
        if let Some(census) = &mut self.census {
            census.mark(na.into());
            census.mark(nb.into());
        }
        self.ids[iu] = na;
        self.ids[iv] = nb;
        moved
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
    /// interactions that may have moved the oracle).
    #[inline]
    fn stop_now(&self, stop: Stop) -> bool {
        match stop {
            Stop::Never => false,
            Stop::Stable => self.stable_now(),
            Stop::Unstable => !self.stable_now(),
        }
    }

    /// Marks every current id in the census, if one is on.
    fn mark_all(&mut self) {
        if let Some(census) = &mut self.census {
            for &id in &self.ids {
                census.mark(id.into());
            }
        }
    }

    /// Current number of leader-output nodes (O(n) scan of the roles).
    fn leader_count(&self) -> usize {
        let source = &self.source;
        self.ids
            .iter()
            .filter(|&&id| source.role(id) == Role::Leader)
            .count()
    }

    /// Puts all `n` nodes in their initial states and resyncs.
    fn load_initial(&mut self, n: NodeId) {
        self.ids.clear();
        self.ids.extend((0..n).map(|v| self.source.initial_id(v)));
        self.resync();
    }

    /// Recomputes the census, the leader count and the oracle after
    /// `ids` changed outside a transition (start, reset, corruption,
    /// churn).
    fn resync(&mut self) {
        self.mark_all();
        self.leaders = self.leader_count() as i64;
        if !self.linear {
            let source = &self.source;
            let typed: Vec<P::State> = self
                .ids
                .iter()
                .map(|&id| source.state(id).clone())
                .collect();
            self.oracle.recompute(source.protocol(), &typed);
        }
    }
}

/// Runs one execution of a protocol on dense state ids from a
/// [`PairSource`] — the per-agent dense engine, used through its two
/// instantiations [`DenseExecutor`] and [`LazyDenseExecutor`].
///
/// Drop-in counterpart of [`crate::Executor`]: identical scheduler and
/// seed semantics, identical oracle behaviour and [`Outcome`]s — only
/// the per-interaction cost differs. The stability oracle is the
/// protocol's own [`StabilityOracle`], driven with borrowed typed states
/// from the source's id ↔ state mapping, and is skipped entirely for
/// no-op interactions.
pub struct PerAgentExecutor<'a, P: Protocol, S: PairSource<P>> {
    graph: &'a Graph,
    scheduler: EdgeScheduler<'a>,
    decoder: EdgeDecoder,
    /// Pairs pre-drawn from the scheduler in a tight batch (see
    /// [`EdgeDecoder::fill_batch`]); `pairs[cursor..filled]` are drawn
    /// but not yet applied. `applied` — not the scheduler's draw count —
    /// is the execution's step counter. Refills never draw past the step
    /// budget of the run call they serve, so bounded runs
    /// ([`PerAgentExecutor::run_steps`]) consume the scheduler stream
    /// exactly as far as the generic engine would — the property that
    /// lets [`crate::faults`] interleave graph changes with execution on
    /// every engine identically.
    pairs: Box<[(NodeId, NodeId)]>,
    raw: Box<[usize]>,
    cursor: usize,
    filled: usize,
    applied: u64,
    agents: Agents<P, S>,
}

/// Runs one execution of a [`CompiledProtocol`] on a [`Graph`]: the
/// ahead-of-time instantiation of [`PerAgentExecutor`], whose hot loop
/// is two id reads, one table lookup and two id writes per interaction.
///
/// The compiled table is borrowed, so every executor of a Monte-Carlo
/// run shares one.
pub type DenseExecutor<'a, P> = PerAgentExecutor<'a, P, &'a CompiledProtocol<P>>;

/// Runs one execution of a protocol through a [`LazyTable`] — the
/// lazily-compiling instantiation of [`PerAgentExecutor`].
///
/// Instead of requiring the full reachable state space up front, it
/// interns states on first sight into `u32` ids and memoizes pair
/// successors on demand, so protocols whose state spaces overflow the
/// ahead-of-time cap — the identifier protocol at realistic `k`,
/// full-scale fast-protocol instances — still run on a dense-id hot
/// loop. See [`super::lazy`] for the caching machinery and
/// [`crate::EngineSelection::prepare`] for the three-way engine
/// selection.
///
/// Unlike [`DenseExecutor`] the table is owned (the cache mutates during
/// the run), so executors are per-thread; [`PerAgentExecutor::reset`]
/// keeps the warm cache, which is how Monte-Carlo workers amortize it
/// across trials.
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
pub type LazyDenseExecutor<'a, P> = PerAgentExecutor<'a, P, LazyTable<P>>;

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
        Self::with_source(graph, compiled, seed)
    }
}

impl<'a, P: Protocol + Clone> LazyDenseExecutor<'a, P> {
    /// Creates an executor with every node in its initial state and a
    /// cold cache.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges.
    #[must_use]
    pub fn new(graph: &'a Graph, protocol: &P, seed: u64) -> Self {
        Self::with_source(graph, LazyTable::new(protocol, graph.num_nodes()), seed)
    }
}

impl<P: Protocol> LazyDenseExecutor<'_, P> {
    /// The lazily-built table (interner + pair cache) driving this
    /// execution — exposed for capacity reporting and tests.
    #[must_use]
    pub fn table(&self) -> &LazyTable<P> {
        &self.agents.source
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
        let table = &self.agents.source;
        let states = self.agents.ids.iter().map(|&id| table.state(id).clone());
        let census = self.agents.census.as_ref().map(|census| {
            census
                .seen
                .iter()
                .zip(&table.states)
                .filter(|&(&seen, _)| seen)
                .map(|(_, state)| state.clone())
                .collect()
        });
        Executor::resume(
            self.graph,
            &table.protocol,
            self.scheduler.clone(),
            states.collect(),
            census,
        )
    }
}

impl<'a, P: Protocol, S: PairSource<P>> PerAgentExecutor<'a, P, S> {
    fn with_source(graph: &'a Graph, source: S, seed: u64) -> Self {
        let oracle = source.protocol().oracle();
        let linear = oracle.stable_iff_unique_leader();
        let mut agents = Agents {
            source,
            ids: Vec::new(),
            oracle,
            linear,
            leaders: 0,
            census: None,
        };
        agents.load_initial(graph.num_nodes());
        Self {
            graph,
            scheduler: EdgeScheduler::new(graph, seed),
            decoder: EdgeDecoder::for_graph(graph),
            pairs: vec![(0, 0); PAIR_BATCH].into_boxed_slice(),
            raw: vec![0usize; PAIR_BATCH].into_boxed_slice(),
            cursor: 0,
            filled: 0,
            applied: 0,
            agents,
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
        self.agents.census = Some(DenseCensus::new(self.agents.source.num_states()));
        self.agents.mark_all();
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Current configuration as dense ids.
    #[must_use]
    pub fn state_ids(&self) -> &[S::Id] {
        &self.agents.ids
    }

    /// Typed state of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn state_of(&self, v: NodeId) -> &P::State {
        self.agents.source.state(self.agents.ids[v as usize])
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
        self.agents.interact(u as usize, v as usize);
        (u, v)
    }

    /// Applies up to `budget` already-buffered interactions in one tight
    /// loop — after warm-up: two id reads, one lookup, two id writes per
    /// interaction, with oracle/census work only on the rarer
    /// state-changing pairs. For non-linear oracles on the lazy source,
    /// the memoized effect summary skips the typed
    /// [`StabilityOracle::apply`] — and the interner reads feeding it —
    /// on changes the oracle vouches are inert: an inert application
    /// changes no counter, so stability cannot flip and the stop check
    /// is skipped along with it.
    ///
    /// Returns right after the state change that satisfies `stop`. The
    /// caller guarantees `budget ≤` the number of buffered pairs.
    fn apply_batch(&mut self, budget: usize, stop: Stop) {
        let start = self.cursor;
        // Iterating the drawn pairs as a slice (no per-step bounds
        // check) with the configuration borrowed disjointly keeps the
        // loop invariants in registers across the hot loop.
        let pairs = &self.pairs[start..start + budget];
        let agents = &mut self.agents;
        let mut done = 0usize;
        for &(u, v) in pairs {
            done += 1;
            if agents.interact(u as usize, v as usize) && agents.stop_now(stop) {
                break;
            }
        }
        self.applied += done as u64;
        self.cursor = start + done;
    }

    /// Applies up to `budget` interactions: the already-drawn pairs
    /// first, else one freshly drawn batch.
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

    /// Runs exactly `k` interactions, consuming the scheduler stream
    /// exactly `k` draws past the buffered pairs — never further — so
    /// after the buffer drains, the RNG position matches the generic
    /// engine's at the same step (the alignment [`crate::faults`] relies
    /// on to perturb every engine identically).
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
        while !self.agents.stable_now() {
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
        while self.agents.stable_now() {
            if self.applied >= max_steps {
                return None;
            }
            self.run_budget(max_steps - self.applied, Stop::Unstable);
        }
        Some(self.applied)
    }

    /// Whether the oracle currently reports stability.
    #[must_use]
    pub fn is_stable(&self) -> bool {
        self.agents.stable_now()
    }

    /// Current number of leader-output nodes (O(n) scan of the role
    /// table).
    #[must_use]
    pub fn leader_count(&self) -> usize {
        self.agents.leader_count()
    }

    /// The unique leader if exactly one node outputs leader.
    #[must_use]
    pub fn leader(&self) -> Option<NodeId> {
        let mut found = None;
        for (v, &id) in self.agents.ids.iter().enumerate() {
            if self.agents.source.role(id) == Role::Leader {
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
            distinct_states: self.agents.census.as_ref().map(|c| c.count),
        }
    }

    /// Resets to the initial configuration with a new seed —
    /// behaviourally equivalent to fresh construction. The lazy source
    /// **keeps** its interner and pair cache warm (the cache only
    /// changes speed, never the trace), which is where the lazy
    /// engine's Monte-Carlo throughput comes from.
    ///
    /// Resets states, scheduler and counters only — the executor stays
    /// bound to whichever graph it currently borrows, so executors that
    /// ran a fault plan with topology changes should be rebuilt rather
    /// than reset (the Monte-Carlo harness does exactly that).
    pub fn reset(&mut self, seed: u64) {
        self.agents.load_initial(self.graph.num_nodes());
        self.scheduler.reset(seed);
        self.cursor = 0;
        self.filled = 0;
        self.applied = 0;
        if self.agents.census.is_some() {
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
            self.agents.ids.len(),
            "set_graph requires an equal node count (use join_node/leave_node)"
        );
        self.rebind(graph);
    }

    /// Rebinds to a graph with **one more node**: the new node is `n`
    /// (the old node count) and starts in its initial state (the lazy
    /// source interns it on demand).
    ///
    /// # Panics
    ///
    /// Panics if `graph` does not have exactly one extra node, or if the
    /// protocol was compiled (ahead of time) for fewer nodes than the
    /// new graph has.
    pub fn join_node(&mut self, graph: &'a Graph) {
        assert_eq!(
            graph.num_nodes() as usize,
            self.agents.ids.len() + 1,
            "join_node requires exactly one extra node"
        );
        let joiner = self.agents.source.initial_id(graph.num_nodes() - 1);
        self.agents.ids.push(joiner);
        self.rebind(graph);
        self.agents.resync();
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
            self.agents.ids.len() - 1,
            "leave_node requires exactly one node less"
        );
        self.agents.ids.swap_remove(removed as usize);
        self.rebind(graph);
        self.agents.resync();
    }

    /// State corruption: resets every node of `nodes` to its initial
    /// state (a crash followed by a clean rejoin), leaving all other
    /// nodes untouched, then resyncs once for the whole burst.
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range.
    pub fn corrupt_to_initial(&mut self, nodes: &[NodeId]) {
        for &v in nodes {
            self.agents.ids[v as usize] = self.agents.source.initial_id(v);
        }
        self.agents.resync();
    }

    /// Overwrites the whole configuration (an *arbitrary* start, in the
    /// self-stabilization sense — see [`crate::stabilize`]); mirrors
    /// [`crate::Executor::set_configuration`]. The lazy source interns
    /// never-seen states on the spot; the scheduler's RNG stream is
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the node count, or, on the
    /// ahead-of-time source, if any state is not in the compiled table —
    /// arbitrary-start tables must be built with
    /// [`CompiledProtocol::compile_with_seeds`] over the sampler's
    /// support.
    pub fn set_configuration(&mut self, states: &[P::State]) {
        assert_eq!(
            states.len(),
            self.agents.ids.len(),
            "configuration length must equal the node count"
        );
        for (slot, s) in self.agents.ids.iter_mut().zip(states) {
            *slot = self.agents.source.start_id(s);
        }
        self.agents.resync();
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
        // final-edge cases included). `clique(92_683)` has 4 295 022 903
        // edges, past `DECODER_MAX_EDGES`: the one graph a per-agent tier
        // can reach the `Scheduler` fallback on, where the scheduler
        // decodes the implicit clique itself.
        for n in [2u32, 3, 4, 5, 8, 13, 37, 100, 257, 92_683] {
            let g = families::clique(n);
            let compiled = CompiledProtocol::compile_default(&Absorb, n).unwrap();
            let mut generic = Executor::new(&g, &Absorb, u64::from(n));
            let mut dense = DenseExecutor::new(&g, &compiled, u64::from(n));
            let mut lazy = LazyDenseExecutor::new(&g, &Absorb, u64::from(n));
            let expected = if n == 92_683 {
                assert_eq!(g.num_edges(), 4_295_022_903);
                DecoderKind::Scheduler
            } else {
                DecoderKind::Clique
            };
            assert_eq!(dense.decoder().kind(), expected, "clique({n})");
            assert_eq!(lazy.decoder().kind(), expected, "clique({n}) (lazy)");
            for _ in 0..1200 {
                let step = generic.step();
                assert_eq!(step, dense.step(), "clique({n})");
                assert_eq!(step, lazy.step(), "clique({n}) (lazy)");
            }
            assert!(!g.is_materialized(), "clique({n}) built its edge list");
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
        let mut lazy = LazyDenseExecutor::new(&g, &Absorb, 9);
        assert_eq!(lazy.decoder().kind(), DecoderKind::Csr);
        let mut generic = Executor::new(&g, &Absorb, 9);
        for _ in 0..500 {
            let step = generic.step();
            assert_eq!(step, dense.step());
            assert_eq!(step, lazy.step(), "lazy");
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
        // Census off and on: a reset restores the initial configuration,
        // and the run after it is bit-identical to a fresh executor's
        // with the new seed.
        let g = families::clique(10);
        let compiled = CompiledProtocol::compile_default(&Absorb, 10).unwrap();
        for census in [false, true] {
            let mut dense = DenseExecutor::new(&g, &compiled, 1);
            if census {
                dense.enable_state_census();
            }
            assert_eq!(dense.run_until_stable(1 << 20).unwrap().leader_count, 1);
            dense.reset(2);
            assert_restarted(&mut dense, DenseExecutor::new(&g, &compiled, 2), census);
        }
    }

    #[test]
    fn lazy_reset_keeps_cache_and_reproduces_fresh_runs() {
        // As above on the lazy source, which keeps its cache warm
        // across the reset.
        let g = families::clique(10);
        for census in [false, true] {
            let mut lazy = LazyDenseExecutor::new(&g, &Absorb, 1);
            if census {
                lazy.enable_state_census();
            }
            assert_eq!(lazy.run_until_stable(1 << 20).unwrap().leader_count, 1);
            let cached = lazy.table().num_cached_pairs();
            assert!(cached > 0);
            lazy.reset(2);
            // The cache survived the reset…
            assert_eq!(lazy.table().num_cached_pairs(), cached);
            // …and the warm run is bit-identical to a cold one.
            assert_restarted(&mut lazy, LazyDenseExecutor::new(&g, &Absorb, 2), census);
        }
    }

    /// Checks that `exec`, just reset, stands where `fresh` starts and
    /// runs to the same outcome.
    fn assert_restarted<S: PairSource<Absorb>>(
        exec: &mut PerAgentExecutor<'_, Absorb, S>,
        mut fresh: PerAgentExecutor<'_, Absorb, S>,
        census: bool,
    ) {
        if census {
            fresh.enable_state_census();
        }
        assert_eq!(exec.steps(), 0);
        assert_eq!(exec.leader_count(), exec.state_ids().len());
        assert_eq!(exec.outcome().distinct_states, census.then_some(1));
        assert_eq!(exec.outcome(), fresh.outcome());
        assert!(exec.state_ids() == fresh.state_ids());
        let out = exec.run_until_stable(1 << 20).unwrap();
        assert_eq!(out.leader_count, 1);
        assert_eq!(Ok(out), fresh.run_until_stable(1 << 20));
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
        let burst = [0u32, 3, 9];
        generic.corrupt_to_initial(&burst);
        dense.corrupt_to_initial(&burst);
        lazy.corrupt_to_initial(&burst);
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
