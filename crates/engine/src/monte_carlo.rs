//! Multi-threaded Monte-Carlo harness.
//!
//! Runs many independent executions of a protocol on a graph, each with a
//! deterministically derived seed, and aggregates stabilization times.
//! Trial `i` of a given master seed always produces the same result
//! regardless of thread count, so experiment outputs are reproducible.
//!
//! Four entry points share that contract:
//!
//! * [`run_trials_auto_with_faults_prepared`] — clean-start elections,
//!   optionally under a [`FaultPlan`];
//! * [`run_trials_auto_prepared`] — the same with an empty plan;
//! * [`crate::stabilize::run_trials_stabilize_auto_prepared`] —
//!   elect-and-hold runs from arbitrary start configurations;
//! * [`run_trials_count_prepared`] — the clique-only count-based batch
//!   engine ([`crate::CountEngine`]), graph-free: the population size
//!   alone describes the clique, which is what lets it reach `10⁷–10⁹`
//!   agents. Deterministic per seed like the others, but exact in
//!   *distribution* rather than trace-identical to them.
//!
//! The first three run through one driver, written once over the
//! executor surface every sequential tier implements
//! ([`FaultTarget`]), on whichever tier their [`EngineSelection`] names:
//! the generic reference [`Executor`], or the per-agent dense executor
//! over one of its two pair sources — a shared [`CompiledProtocol`]
//! table ([`crate::DenseExecutor`]) or the lazily-compiling cache
//! ([`crate::LazyDenseExecutor`]).
//! [`EngineSelection::prepare`] picks the fastest applicable tier
//! (AOT-compiled → lazy-compiled → generic);
//! [`EngineSelection::generic`], [`EngineSelection::lazy`] and
//! [`EngineSelection::dense`] force one. Among these trace-identical
//! tiers the choice never changes the results, only the wall-clock
//! time, and it is recorded in [`TrialResult::engine`]. A selection is
//! prepared once and reused across calls — the hook sweep campaigns use
//! to pay selection and compilation once per *cell* instead of once per
//! shard.
//!
//! Every trial of the driver follows one lifecycle, whatever its plan
//! and goal: a new executor on the base graph with the trial's seed,
//! the goal's start configuration, every in-budget fault of the trial's
//! resolved [`FaultPlan`] (none for the empty plan), then the goal's
//! phase. A worker carries only graph-free state from one trial to the
//! next — the lazy tier's warm table. Per-trial fault realizations
//! derive from the trial seed via [`fault_seed`] (see
//! [`crate::faults`]), so the determinism contract — identical results
//! across engines, thread counts and shardings — extends to
//! fault-injected campaigns, and a nonempty plan attaches recovery
//! metrics to each [`TrialResult`].

use crate::dense::table::overflow_walk;
use crate::dense::{
    CompiledProtocol, CountEngine, DenseExecutor, LazyDenseExecutor, LazyTable,
    DEFAULT_MAX_COMPILED_STATES,
};
use crate::executor::{Executor, NotStabilized, Outcome};
use crate::faults::{drive_ops, fault_seed, FaultPlan, FaultTarget, Recovery};
use crate::protocol::Protocol;
use crate::stabilize::HoldingTime;
use crate::stabilize::{arbitrary_seed, run_to_hold, sample_support};
use popele_graph::{Graph, NodeId};
use popele_math::rng::SeedSeq;
use popele_math::stats::Summary;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Which simulation engine executed a trial (or batch of trials).
///
/// Provenance metadata: the three sequential engines are trace-identical
/// per seed, so the tag never affects the observable result — and
/// accordingly it is **excluded from [`TrialResult`]'s equality**, which
/// is what lets differential tests assert
/// `generic_results == lazy_results` directly. The count engine is the
/// exception: it is exact in *distribution* only (its random stream is
/// consumed batch-wise), so its trials are compared to the sequential
/// engines statistically, never per seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The generic reference [`Executor`] (typed states, per-step
    /// transition evaluation).
    Generic,
    /// The per-agent dense executor over the ahead-of-time compiled
    /// source, [`crate::DenseExecutor`] (`u16` ids, full `|Λ|²` table).
    Dense,
    /// The per-agent dense executor over the lazily-compiling source,
    /// [`crate::LazyDenseExecutor`] (`u32` ids, on-demand pair cache).
    LazyDense,
    /// The count-based batch engine ([`crate::CountEngine`]):
    /// clique-only, `u64` count per compiled state, collision-free
    /// `O(√n)` interaction batches. Exact in distribution rather than
    /// trace-identical (see [`crate::dense::count`]).
    Count,
}

impl Engine {
    /// Stable lowercase label (used by reports and the lab CLI).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Engine::Generic => "generic",
            Engine::Dense => "dense",
            Engine::LazyDense => "lazy",
            Engine::Count => "count",
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Result of one Monte-Carlo trial.
#[derive(Debug, Clone, Copy, Eq)]
pub struct TrialResult {
    /// Seed index of the trial.
    pub trial: usize,
    /// Stabilization step, or `None` if the budget was exhausted.
    pub stabilization_step: Option<u64>,
    /// Elected leader (when stabilized).
    pub leader: Option<NodeId>,
    /// Distinct states observed, when the census was requested.
    pub distinct_states: Option<usize>,
    /// Recovery metrics — `Some` exactly when the trial ran under a
    /// nonempty [`FaultPlan`] (which may still resolve to no faults).
    pub recovery: Option<Recovery>,
    /// Loose-stabilization metrics (election step from an arbitrary
    /// start plus how long the unique-leader configuration held) —
    /// `Some` exactly when the trial ran through
    /// [`crate::stabilize::run_trials_stabilize_auto_prepared`].
    pub holding: Option<HoldingTime>,
    /// The engine tier selected for the trial. Pure provenance — see
    /// [`Engine`] — and therefore **not** part of `PartialEq`: results
    /// from different engines compare equal whenever the observable
    /// outcome is equal, which is exactly the trace-identity contract.
    /// It names the tier the trial started on: an [`Engine::LazyDense`]
    /// election trial may finish on the generic engine after a mid-run
    /// hand-off (see [`EngineSelection::lazy`]).
    pub engine: Engine,
}

impl PartialEq for TrialResult {
    fn eq(&self, other: &Self) -> bool {
        // `engine` is deliberately excluded (provenance, not outcome).
        self.trial == other.trial
            && self.stabilization_step == other.stabilization_step
            && self.leader == other.leader
            && self.distinct_states == other.distinct_states
            && self.recovery == other.recovery
            && self.holding == other.holding
    }
}

/// Options for the trial entry points (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub struct TrialOptions {
    /// Number of independent executions.
    pub trials: usize,
    /// Global index of the first trial. Trial `j` of this call uses
    /// child seed `first_trial + j` of the master seed and reports that
    /// global index in [`TrialResult::trial`], so a batch of
    /// `trials` executions starting at `first_trial` is exactly the
    /// slice `[first_trial, first_trial + trials)` of one big run —
    /// the mechanism sweep campaigns use to shard a cell into
    /// independently checkpointable, bit-identical pieces.
    pub first_trial: usize,
    /// Per-trial step budget.
    pub max_steps: u64,
    /// Whether to record the distinct-state census (slower).
    pub census: bool,
    /// Has no effect. It once opted into a lane-parallel dense engine,
    /// since removed. The field stays only because the campaign
    /// benchmark (`perfbench/`) names it in `TrialOptions` struct
    /// literals (see "The frozen surface" in ARCHITECTURE.md); the next
    /// change to that benchmark removes it.
    pub lanes: bool,
    /// Worker threads; `0` = one per available core.
    pub threads: usize,
}

impl Default for TrialOptions {
    fn default() -> Self {
        Self {
            trials: 16,
            first_trial: 0,
            max_steps: u64::MAX,
            census: false,
            lanes: false,
            threads: 0,
        }
    }
}

/// What a trial of the driver runs to.
pub(crate) enum Goal<S> {
    /// A clean-start election: run until the stability oracle first
    /// holds.
    Elect,
    /// Elect-and-hold from a start configuration sampled uniformly over
    /// this arbitrary support (see [`crate::stabilize`]).
    Hold(Vec<S>),
}

/// One sequential tier as the driver sees it: what a worker carries
/// from trial to trial, how a trial builds its executor, and how that
/// executor runs an election.
trait Tier<P: Protocol>: Sync {
    /// The provenance tag of the tier's trials.
    const ENGINE: Engine;
    /// Graph-free state a worker hands from one trial's executor to the
    /// next one's.
    type Carry: Default;
    /// The tier's executor, bound to graphs living for `'g`.
    type Exec<'g>: FaultTarget<'g, State = P::State>
    where
        Self: 'g;

    /// A fresh executor on `graph` with scheduler seed `seed`, taking
    /// over what `carry` holds.
    fn build<'g>(&'g self, carry: &mut Self::Carry, graph: &'g Graph, seed: u64) -> Self::Exec<'g>;

    /// Ends a trial, keeping in `carry` what the next one reuses.
    fn keep<'g>(_carry: &mut Self::Carry, _exec: Self::Exec<'g>)
    where
        Self: 'g,
    {
    }

    /// Runs an election on `exec` from wherever it stands; returns the
    /// result and the outcome at the end of the run.
    fn elect<'g>(
        exec: &mut Self::Exec<'g>,
        max_steps: u64,
    ) -> (Result<Outcome, NotStabilized>, Outcome)
    where
        Self: 'g,
    {
        let result = exec.run_until_stable(max_steps);
        let end = run_end(&result, || exec.outcome());
        (result, end)
    }
}

/// The generic reference tier.
struct GenericTier<'p, P>(&'p P);

impl<P: Protocol> Tier<P> for GenericTier<'_, P> {
    const ENGINE: Engine = Engine::Generic;
    type Carry = ();
    type Exec<'g>
        = Executor<'g, P>
    where
        Self: 'g;

    fn build<'g>(&'g self, (): &mut (), graph: &'g Graph, seed: u64) -> Executor<'g, P> {
        Executor::new(graph, self.0, seed)
    }
}

/// The ahead-of-time compiled tier: every executor shares the table.
impl<P: Protocol> Tier<P> for CompiledProtocol<P> {
    const ENGINE: Engine = Engine::Dense;
    type Carry = ();
    type Exec<'g>
        = DenseExecutor<'g, P>
    where
        Self: 'g;

    fn build<'g>(&'g self, (): &mut (), graph: &'g Graph, seed: u64) -> DenseExecutor<'g, P> {
        DenseExecutor::new(graph, self, seed)
    }
}

/// The lazily-compiling tier. A worker hands its warm table from trial
/// to trial, and elections take the windowed hand-off to the generic
/// engine.
struct LazyTier<'p, P>(&'p P);

impl<P: Protocol + Clone> Tier<P> for LazyTier<'_, P> {
    const ENGINE: Engine = Engine::LazyDense;
    type Carry = Option<LazyTable<P>>;
    type Exec<'g>
        = LazyDenseExecutor<'g, P>
    where
        Self: 'g;

    fn build<'g>(
        &'g self,
        carry: &mut Option<LazyTable<P>>,
        graph: &'g Graph,
        seed: u64,
    ) -> LazyDenseExecutor<'g, P> {
        let table = carry
            .take()
            .unwrap_or_else(|| LazyTable::new(self.0, graph.num_nodes()));
        LazyDenseExecutor::with_source(graph, table, seed)
    }

    fn keep<'g>(carry: &mut Option<LazyTable<P>>, exec: LazyDenseExecutor<'g, P>)
    where
        Self: 'g,
    {
        *carry = Some(exec.into_table());
    }

    fn elect<'g>(
        exec: &mut LazyDenseExecutor<'g, P>,
        max_steps: u64,
    ) -> (Result<Outcome, NotStabilized>, Outcome)
    where
        Self: 'g,
    {
        let (result, end, _) = lazy_election(exec, max_steps);
        (result, end)
    }
}

/// The outcome at the end of a run to `result`: the stable outcome
/// itself, or — for a run that ran out of budget — the executor's
/// `snapshot`.
fn run_end(result: &Result<Outcome, NotStabilized>, snapshot: impl FnOnce() -> Outcome) -> Outcome {
    match result {
        Ok(outcome) => outcome.clone(),
        Err(_) => snapshot(),
    }
}

/// The trial driver behind [`run_trials_auto_with_faults_prepared`] and
/// [`crate::stabilize::run_trials_stabilize_auto_prepared`]: runs
/// `options.trials` trials of `goal` under `plan` on the tier
/// `selection` names.
pub(crate) fn drive<P: Protocol + Clone>(
    graph: &Graph,
    protocol: &P,
    selection: &EngineSelection<P>,
    plan: &FaultPlan,
    goal: &Goal<P::State>,
    master_seed: u64,
    options: TrialOptions,
) -> Vec<TrialResult> {
    match &selection.kind {
        Selected::Dense(compiled) => drive_on(&**compiled, graph, plan, goal, master_seed, options),
        Selected::Lazy => drive_on(&LazyTier(protocol), graph, plan, goal, master_seed, options),
        Selected::Generic => drive_on(
            &GenericTier(protocol),
            graph,
            plan,
            goal,
            master_seed,
            options,
        ),
    }
}

/// [`drive`] on one tier: one per-worker loop for every plan and goal.
/// Trial `i` uses child seed `first_trial + i` of `master_seed`, so
/// results are independent of the thread count and of how a trial
/// range is split into calls.
///
/// Every trial builds its executor on the base graph with its own
/// seed, loads the goal's start configuration, runs every in-budget
/// fault of its resolved plan (none for the empty plan), then the
/// goal's phase. `stabilization_step` and `leader` come from the first
/// election after the last fault, the census and the final leader count
/// from the end of the run, and `recovery` is attached exactly when
/// `plan` is nonempty. Between trials a worker keeps only the tier's
/// graph-free [`Tier::Carry`] — the lazy tier's warm table, which
/// changes speed only, never the trace.
fn drive_on<P: Protocol, T: Tier<P>>(
    tier: &T,
    graph: &Graph,
    plan: &FaultPlan,
    goal: &Goal<P::State>,
    master_seed: u64,
    options: TrialOptions,
) -> Vec<TrialResult> {
    let seq = SeedSeq::new(master_seed);
    let threads = resolve_threads(options.threads, options.trials);
    let max_steps = options.max_steps;
    fan_out(options.trials, threads, T::Carry::default, |carry, job| {
        let trial = options.first_trial + job;
        let seed = seq.child(trial as u64);
        let resolved = plan.resolve(graph, fault_seed(seed));
        let mut exec = tier.build(carry, graph, seed);
        if options.census {
            exec.enable_state_census();
        }
        if let Goal::Hold(support) = goal {
            let start = sample_support(support, graph.num_nodes(), arbitrary_seed(seed));
            exec.set_configuration(&start);
        }
        let trace = drive_ops(&mut exec, &resolved, max_steps);
        let (result, end, holding) = match goal {
            Goal::Elect => {
                let (result, end) = T::elect(&mut exec, max_steps);
                (result, end, None)
            }
            Goal::Hold(_) => {
                let report = run_to_hold(&mut exec, max_steps);
                (report.result, exec.outcome(), Some(report.holding))
            }
        };
        T::keep(carry, exec);
        TrialResult {
            trial,
            stabilization_step: result.as_ref().ok().map(|o| o.stabilization_step),
            leader: result.as_ref().ok().and_then(|o| o.leader),
            distinct_states: end.distinct_states,
            recovery: (!plan.is_empty()).then(|| trace.recovery(&result, end.leader_count)),
            holding,
            engine: T::ENGINE,
        }
    })
}

/// Steps per window of a lazy election trial; the hand-off rule is
/// checked at each window edge. Short, because a trial that will hand
/// off pays the lazy engine's interning cost until the first edge it
/// crosses.
const HANDOFF_WINDOW: u64 = 1 << 12;

/// A window with more than `HANDOFF_WINDOW / HANDOFF_MISS_DIVISOR`
/// pair-cache misses hands its trial to the generic engine. Identifier
/// generation misses on a growing share of its steps as identifiers
/// lengthen — on `cycle(80000)` the first three 2¹⁶-step windows miss
/// on 1.9 %, 9.8 % and 26.4 % of theirs — while fast-protocol windows
/// miss on 0–4 of every 1000.
const HANDOFF_MISS_DIVISOR: u64 = 4;

/// Runs an election on `exec` from wherever it stands, handing it to
/// the generic engine when a window misses the pair cache too often
/// (see [`EngineSelection::lazy`]). Returns the result, the outcome at
/// the end of the run — read from whichever executor finished it — and
/// the step of the hand-off if there was one.
fn lazy_election<P: Protocol>(
    exec: &mut LazyDenseExecutor<'_, P>,
    max_steps: u64,
) -> (Result<Outcome, NotStabilized>, Outcome, Option<u64>) {
    loop {
        let cached = exec.table().num_cached_pairs();
        let edge = max_steps.min(exec.steps().saturating_add(HANDOFF_WINDOW));
        // A bounded run never draws past `edge`, so the pair buffer is
        // drained whenever this returns without stabilizing.
        let result = exec.run_until_stable(edge);
        if result.is_ok() || edge == max_steps {
            let end = run_end(&result, || exec.outcome());
            return (result, end, None);
        }
        let misses = (exec.table().num_cached_pairs() - cached) as u64;
        if misses > HANDOFF_WINDOW / HANDOFF_MISS_DIVISOR {
            let handoff = exec.steps();
            let mut generic = exec.to_generic();
            let result = generic.run_until_stable(max_steps);
            let end = run_end(&result, || generic.outcome());
            return (result, end, Some(handoff));
        }
    }
}

/// The step at which a lazy election trial with scheduler seed `seed`
/// hands itself to the generic engine under [`EngineSelection::lazy`]'s
/// rule, or `None` if it finishes (stabilized or out of budget) on the
/// lazy engine. The trial runs from a cold pair cache, as a worker's
/// first trial does, and runs to its end. Trial `i` of master seed `s`
/// has scheduler seed `SeedSeq::new(s).child(i)`.
#[must_use]
pub fn lazy_handoff_step<P: Protocol + Clone>(
    graph: &Graph,
    protocol: &P,
    seed: u64,
    max_steps: u64,
) -> Option<u64> {
    let mut exec = LazyDenseExecutor::new(graph, protocol, seed);
    lazy_election(&mut exec, max_steps).2
}

/// Runs `options.trials` independent executions on the count-based
/// batch engine over a **clique** of `num_agents` agents, on a table
/// the caller compiled once with [`crate::compile_for_count`] for this
/// `num_agents` (the count closure seeds differ from the per-agent
/// compile) and reuses across calls — sweep campaigns share one table
/// across all shards of a count cell.
///
/// Graph-free, so `num_agents` may far exceed what any materialized
/// [`Graph`] could represent. Each worker thread builds **one**
/// [`CountEngine`] over the shared table and [`CountEngine::reset`]s it
/// per trial (`O(|Λ|)`). Seeds derive as in the per-agent entry points,
/// so results are independent of thread count and sharding; they are
/// exact in distribution, not trace-identical to the sequential engines
/// (the workspace pins this with statistical differential tests).
///
/// [`TrialResult::leader`] is always `None` (agents have no identity
/// in count space) and [`TrialResult::engine`] is [`Engine::Count`].
///
/// # Panics
///
/// Panics if `num_agents` is below 2 or above `u32::MAX` (the
/// [`CountEngine`] constructor's contract).
#[must_use]
pub fn run_trials_count_prepared<P: Protocol + Clone>(
    compiled: &CompiledProtocol<P>,
    num_agents: u64,
    master_seed: u64,
    options: TrialOptions,
) -> Vec<TrialResult> {
    let seq = SeedSeq::new(master_seed);
    let threads = resolve_threads(options.threads, options.trials);

    let run_one = |engine: &mut CountEngine<'_, P>, trial: usize| -> TrialResult {
        let trial = options.first_trial + trial;
        engine.reset(seq.child(trial as u64));
        let (stabilization_step, distinct) = match engine.run_until_stable(options.max_steps) {
            Ok(outcome) => (Some(outcome.stabilization_step), outcome.distinct_states),
            Err(_) => (None, Some(engine.distinct_states())),
        };
        TrialResult {
            trial,
            stabilization_step,
            leader: None,
            distinct_states: if options.census { distinct } else { None },
            recovery: None,
            holding: None,
            engine: Engine::Count,
        }
    };
    let fresh_engine = || CountEngine::new(compiled, num_agents, 0);

    fan_out(options.trials, threads, fresh_engine, run_one)
}

/// The tier an [`EngineSelection`] resolved to; the compiled table
/// rides along when the AOT tier won, behind an [`Arc`] so a selection
/// can be cloned across worker threads without recompiling.
pub(crate) enum Selected<P: Protocol> {
    Dense(Arc<CompiledProtocol<P>>),
    Lazy,
    Generic,
}

/// The engine tier for one *cell* — one `(protocol, maximum node
/// count)` pair — consumed by the per-agent trial entry points.
/// [`EngineSelection::prepare`] (or
/// [`crate::stabilize::prepare_stabilize_engine`] for arbitrary-start
/// workloads) picks the fastest applicable tier;
/// [`EngineSelection::generic`], [`EngineSelection::lazy`] and
/// [`EngineSelection::dense`] force one, which is how differential tests
/// pin the tiers to each other.
///
/// Selection is not free: the rejection path runs a bounded overflow
/// walk and the accept path compiles the full `|Λ|²` transition table.
/// A sweep campaign that shards a cell into many independently
/// checkpointable slices would otherwise pay that cost once *per
/// shard*; preparing once per cell and handing the same selection to
/// every shard pays it once, and the `Arc`-shared table makes the
/// hand-off to concurrent shard workers allocation-free. Cloning an
/// `EngineSelection` clones the `Arc`, never the table.
///
/// A prepared selection is only valid for the node count it was
/// prepared for: engine choice depends on the reachable state space,
/// which grows with the population. Fault campaigns must prepare at the
/// plan's maximum node count (`graph.num_nodes() + plan.max_joins()`).
///
/// # Examples
///
/// ```
/// use popele_engine::monte_carlo::{run_trials_auto_prepared, EngineSelection, TrialOptions};
/// # use popele_engine::{LeaderCountOracle, Protocol, Role};
/// # #[derive(Clone, Copy)]
/// # struct Absorb;
/// # impl Protocol for Absorb {
/// #     type State = bool;
/// #     type Oracle = LeaderCountOracle;
/// #     fn initial_state(&self, _node: u32) -> bool { true }
/// #     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
/// #         if *a && *b { (true, false) } else { (*a, *b) }
/// #     }
/// #     fn output(&self, s: &bool) -> Role {
/// #         if *s { Role::Leader } else { Role::Follower }
/// #     }
/// #     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
/// # }
///
/// let g = popele_graph::families::clique(12);
/// let opts = TrialOptions { trials: 4, max_steps: 1 << 22, ..TrialOptions::default() };
/// let selection = EngineSelection::prepare(&Absorb, g.num_nodes());
/// // The prepared tier is trace-identical to the forced generic reference.
/// assert_eq!(
///     run_trials_auto_prepared(&g, &Absorb, &selection, 7, opts),
///     run_trials_auto_prepared(&g, &Absorb, &EngineSelection::generic(), 7, opts),
/// );
/// ```
pub struct EngineSelection<P: Protocol> {
    pub(crate) kind: Selected<P>,
}

impl<P: Protocol> Clone for EngineSelection<P> {
    fn clone(&self) -> Self {
        Self {
            kind: match &self.kind {
                Selected::Dense(compiled) => Selected::Dense(Arc::clone(compiled)),
                Selected::Lazy => Selected::Lazy,
                Selected::Generic => Selected::Generic,
            },
        }
    }
}

impl<P: Protocol> fmt::Debug for EngineSelection<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineSelection")
            .field("engine", &self.engine())
            .finish()
    }
}

impl<P: Protocol> EngineSelection<P> {
    /// Selects the engine for `protocol` on a graph of `num_nodes`
    /// nodes, compiling the AOT table when that tier wins:
    ///
    /// 1. **AOT-compiled** ([`Engine::Dense`]) when the reachable state
    ///    space fits [`DEFAULT_MAX_COMPILED_STATES`] — fastest, shareable
    ///    table;
    /// 2. **lazy-compiled** ([`Engine::LazyDense`]) when it does not but
    ///    the protocol declares a finite [`Protocol::state_space_bound`]
    ///    — the per-run visited slice is then usually small enough to
    ///    intern profitably (the identifier protocol at realistic `k`,
    ///    full-scale fast instances);
    /// 3. **generic** ([`Engine::Generic`]) otherwise: a protocol that
    ///    cannot even bound its state space may intern without limit,
    ///    and the generic engine caps memory at O(n) states.
    ///
    /// Selection is cheap on the rejection path: a bounded-frontier
    /// walk of at most three transition evaluations per state it sees
    /// detects cap-overflowing state spaces in microseconds instead of
    /// running the full BFS closure to overflow. Anything the walk does
    /// not certify — a state space that fits, or a slow-closing one that
    /// might — pays for one compile attempt, which keeps the AOT/non-AOT
    /// split bit-for-bit identical to compiling unconditionally.
    ///
    /// # Examples
    ///
    /// ```
    /// use popele_engine::monte_carlo::{Engine, EngineSelection};
    /// # use popele_engine::{LeaderCountOracle, Protocol, Role};
    /// # #[derive(Clone, Copy)]
    /// # struct Absorb;
    /// # impl Protocol for Absorb {
    /// #     type State = bool;
    /// #     type Oracle = LeaderCountOracle;
    /// #     fn initial_state(&self, _node: u32) -> bool { true }
    /// #     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
    /// #         if *a && *b { (true, false) } else { (*a, *b) }
    /// #     }
    /// #     fn output(&self, s: &bool) -> Role {
    /// #         if *s { Role::Leader } else { Role::Follower }
    /// #     }
    /// #     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
    /// # }
    ///
    /// // A two-state protocol compiles ahead of time at any size.
    /// assert_eq!(EngineSelection::prepare(&Absorb, 1_000_000).engine(), Engine::Dense);
    /// ```
    #[must_use]
    pub fn prepare(protocol: &P, num_nodes: u32) -> Self
    where
        P: Clone,
    {
        let exceeds = overflow_walk(protocol, num_nodes, DEFAULT_MAX_COMPILED_STATES);
        let aot = if exceeds {
            None
        } else {
            CompiledProtocol::compile_default(protocol, num_nodes).ok()
        };
        let kind = match aot {
            Some(compiled) => Selected::Dense(Arc::new(compiled)),
            None if protocol.state_space_bound().is_some() => Selected::Lazy,
            None => Selected::Generic,
        };
        Self { kind }
    }

    /// Forces the generic reference tier ([`crate::Executor`]), which
    /// runs any protocol.
    #[must_use]
    pub fn generic() -> Self {
        Self {
            kind: Selected::Generic,
        }
    }

    /// Forces the lazily-compiling tier ([`LazyDenseExecutor`]), which
    /// runs any protocol. Each worker hands one warm interner and pair
    /// cache from trial to trial, under any fault plan.
    ///
    /// An election that stops paying for its cache hands itself to the
    /// generic engine mid-run: after the trial's last fault, the lazy
    /// executor steps in windows of 2¹² steps, and a window that misses
    /// the cache on more than a quarter of its steps (the identifier
    /// protocol while nodes still generate identifiers, where almost
    /// every state is new) moves the rest of the trial to the generic
    /// engine, which carries the same configuration, scheduler stream
    /// and census on. The trace is unchanged, and the next trial starts
    /// lazy again on the warm cache. [`lazy_handoff_step`] reports where
    /// a fault-free trial hands off.
    ///
    /// # Examples
    ///
    /// ```
    /// use popele_engine::monte_carlo::{run_trials_auto_prepared, EngineSelection, TrialOptions};
    /// # use popele_engine::{LeaderCountOracle, Protocol, Role};
    /// # #[derive(Clone, Copy)]
    /// # struct Absorb;
    /// # impl Protocol for Absorb {
    /// #     type State = bool;
    /// #     type Oracle = LeaderCountOracle;
    /// #     fn initial_state(&self, _node: u32) -> bool { true }
    /// #     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
    /// #         if *a && *b { (true, false) } else { (*a, *b) }
    /// #     }
    /// #     fn output(&self, s: &bool) -> Role {
    /// #         if *s { Role::Leader } else { Role::Follower }
    /// #     }
    /// #     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
    /// # }
    ///
    /// let g = popele_graph::families::clique(12);
    /// let opts = TrialOptions { trials: 4, max_steps: 1 << 22, ..TrialOptions::default() };
    /// // The lazy engine is trace-identical to the generic reference.
    /// assert_eq!(
    ///     run_trials_auto_prepared(&g, &Absorb, &EngineSelection::lazy(), 7, opts),
    ///     run_trials_auto_prepared(&g, &Absorb, &EngineSelection::generic(), 7, opts),
    /// );
    /// ```
    #[must_use]
    pub fn lazy() -> Self {
        Self {
            kind: Selected::Lazy,
        }
    }

    /// Forces the ahead-of-time compiled tier ([`DenseExecutor`]) over
    /// `compiled`, shared by every worker. The table must cover the
    /// graph's node count (plus the plan's [`FaultPlan::max_joins`]) and,
    /// for arbitrary-start runs, the arbitrary support
    /// ([`CompiledProtocol::compile_with_seeds`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use popele_engine::monte_carlo::{run_trials_auto_prepared, EngineSelection, TrialOptions};
    /// use popele_engine::CompiledProtocol;
    /// # use popele_engine::{LeaderCountOracle, Protocol, Role};
    /// # #[derive(Clone, Copy)]
    /// # struct Absorb;
    /// # impl Protocol for Absorb {
    /// #     type State = bool;
    /// #     type Oracle = LeaderCountOracle;
    /// #     fn initial_state(&self, _node: u32) -> bool { true }
    /// #     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
    /// #         if *a && *b { (true, false) } else { (*a, *b) }
    /// #     }
    /// #     fn output(&self, s: &bool) -> Role {
    /// #         if *s { Role::Leader } else { Role::Follower }
    /// #     }
    /// #     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
    /// # }
    ///
    /// let g = popele_graph::families::clique(12);
    /// let compiled = CompiledProtocol::compile_default(&Absorb, 12).unwrap();
    /// let opts = TrialOptions { trials: 4, max_steps: 1 << 22, ..TrialOptions::default() };
    /// // The compiled engine is trace-identical to the generic reference.
    /// assert_eq!(
    ///     run_trials_auto_prepared(&g, &Absorb, &EngineSelection::dense(compiled), 7, opts),
    ///     run_trials_auto_prepared(&g, &Absorb, &EngineSelection::generic(), 7, opts),
    /// );
    /// ```
    #[must_use]
    pub fn dense(compiled: impl Into<Arc<CompiledProtocol<P>>>) -> Self {
        Self {
            kind: Selected::Dense(compiled.into()),
        }
    }

    /// The sequential-tier engine this selection resolved to —
    /// [`Engine::Dense`], [`Engine::LazyDense`] or [`Engine::Generic`].
    #[must_use]
    pub fn engine(&self) -> Engine {
        match &self.kind {
            Selected::Dense(_) => Engine::Dense,
            Selected::Lazy => Engine::LazyDense,
            Selected::Generic => Engine::Generic,
        }
    }
}

/// Runs `options.trials` clean-start elections of `protocol` on `graph`
/// on the tier `selection` names — [`run_trials_auto_with_faults_prepared`]
/// with an empty plan.
///
/// # Examples
///
/// ```
/// use popele_engine::monte_carlo::{run_trials_auto_prepared, EngineSelection, TrialOptions};
/// # use popele_engine::{LeaderCountOracle, Protocol, Role};
/// # #[derive(Clone, Copy)]
/// # struct Absorb;
/// # impl Protocol for Absorb {
/// #     type State = bool;
/// #     type Oracle = LeaderCountOracle;
/// #     fn initial_state(&self, _node: u32) -> bool { true }
/// #     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
/// #         if *a && *b { (true, false) } else { (*a, *b) }
/// #     }
/// #     fn output(&self, s: &bool) -> Role {
/// #         if *s { Role::Leader } else { Role::Follower }
/// #     }
/// #     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
/// # }
///
/// let g = popele_graph::families::cycle(10);
/// let selection = EngineSelection::prepare(&Absorb, g.num_nodes());
/// let opts = TrialOptions { trials: 4, max_steps: 1 << 22, ..TrialOptions::default() };
/// // Thread count never changes results, only wall-clock time.
/// let sequential =
///     run_trials_auto_prepared(&g, &Absorb, &selection, 3, TrialOptions { threads: 1, ..opts });
/// let parallel =
///     run_trials_auto_prepared(&g, &Absorb, &selection, 3, TrialOptions { threads: 4, ..opts });
/// assert_eq!(sequential, parallel);
/// ```
#[must_use]
pub fn run_trials_auto_prepared<P: Protocol + Clone>(
    graph: &Graph,
    protocol: &P,
    selection: &EngineSelection<P>,
    master_seed: u64,
    options: TrialOptions,
) -> Vec<TrialResult> {
    run_trials_auto_with_faults_prepared(
        graph,
        protocol,
        selection,
        master_seed,
        options,
        &FaultPlan::empty(),
    )
}

/// Runs `options.trials` independent clean-start elections of
/// `protocol` on `graph` under `plan`, on the tier `selection` names.
/// Results are returned in trial order; trial `i` uses child seed
/// `options.first_trial + i` of `master_seed`, so they are independent
/// of the thread count and, for sharded campaigns, of how a trial range
/// is split into calls. The tier never changes them either, only the
/// wall-clock time and [`TrialResult::engine`].
///
/// `selection` must cover the plan's maximum node count
/// (`graph.num_nodes() + plan.max_joins()`). Under a nonempty plan,
/// trial `i` resolves `plan` with [`fault_seed`] of its own trial seed
/// and reports recovery metrics; give such runs a finite budget, since
/// a run whose unique leader is lost never restabilizes. An empty plan
/// applies no fault and attaches no recovery metrics.
///
/// # Examples
///
/// ```
/// use popele_engine::monte_carlo::{
///     run_trials_auto_with_faults_prepared, EngineSelection, TrialOptions, TrialStats,
/// };
/// use popele_engine::{FaultKind, FaultPlan};
/// # use popele_engine::{LeaderCountOracle, Protocol, Role};
/// # #[derive(Clone, Copy)]
/// # struct Absorb;
/// # impl Protocol for Absorb {
/// #     type State = bool;
/// #     type Oracle = LeaderCountOracle;
/// #     fn initial_state(&self, _node: u32) -> bool { true }
/// #     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
/// #         if *a && *b { (true, false) } else { (*a, *b) }
/// #     }
/// #     fn output(&self, s: &bool) -> Role {
/// #         if *s { Role::Leader } else { Role::Follower }
/// #     }
/// #     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
/// # }
///
/// let g = popele_graph::families::clique(12);
/// let selection = EngineSelection::prepare(&Absorb, g.num_nodes());
/// let plan = FaultPlan::at(500, FaultKind::CorruptNodes { count: 4 });
/// let opts = TrialOptions { trials: 8, max_steps: 1 << 22, ..TrialOptions::default() };
/// let results = run_trials_auto_with_faults_prepared(&g, &Absorb, &selection, 42, opts, &plan);
/// let stats = TrialStats::from_results(&results);
/// assert_eq!(stats.steps.len(), 8);
/// assert_eq!(stats.timeouts, 0);
/// assert!(results.iter().all(|r| r.recovery.is_some()));
/// ```
#[must_use]
pub fn run_trials_auto_with_faults_prepared<P: Protocol + Clone>(
    graph: &Graph,
    protocol: &P,
    selection: &EngineSelection<P>,
    master_seed: u64,
    options: TrialOptions,
    plan: &FaultPlan,
) -> Vec<TrialResult> {
    drive(
        graph,
        protocol,
        selection,
        plan,
        &Goal::Elect,
        master_seed,
        options,
    )
}

pub(crate) fn resolve_threads(requested: usize, trials: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        requested
    };
    threads.min(trials.max(1))
}

/// Work-stealing fan-out over `count` indexed jobs on `threads` workers
/// (callers guarantee `threads >= 1`); results are returned in job
/// order, so the output is independent of the thread count. Each worker
/// owns one `init()`-produced state, so callers can reuse expensive
/// per-worker resources across jobs (the lazy tier's warm table, a
/// count engine reset per trial).
pub(crate) fn fan_out<S, T, I, F>(count: usize, threads: usize, init: I, job: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if threads <= 1 || count <= 1 {
        let mut state = init();
        return (0..count).map(|idx| job(&mut state, idx)).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= count {
                        break;
                    }
                    let result = job(&mut state, idx);
                    *results[idx].lock().expect("result slot poisoned") = Some(result);
                }
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job completed")
        })
        .collect()
}

/// Aggregate view over a batch of trials.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialStats {
    /// Summary of stabilization steps over *successful* trials.
    pub steps: Summary,
    /// Number of trials that hit the step budget.
    pub timeouts: usize,
    /// Maximum distinct-state count observed (if censused).
    pub max_distinct_states: Option<usize>,
}

impl TrialStats {
    /// Aggregates a batch of trial results.
    #[must_use]
    pub fn from_results(results: &[TrialResult]) -> Self {
        let steps: Summary = results
            .iter()
            .filter_map(|r| r.stabilization_step)
            .map(|s| s as f64)
            .collect();
        let timeouts = results
            .iter()
            .filter(|r| r.stabilization_step.is_none())
            .count();
        let max_distinct_states = results.iter().filter_map(|r| r.distinct_states).max();
        Self {
            steps,
            timeouts,
            max_distinct_states,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{LeaderCountOracle, Role};
    use popele_graph::families;

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

    /// Clean-start elections of [`Absorb`] on the tier `selection` names.
    fn elect(
        g: &Graph,
        selection: &EngineSelection<Absorb>,
        seed: u64,
        options: TrialOptions,
    ) -> Vec<TrialResult> {
        run_trials_auto_prepared(g, &Absorb, selection, seed, options)
    }

    fn dense(n: u32) -> EngineSelection<Absorb> {
        EngineSelection::dense(CompiledProtocol::compile_default(&Absorb, n).unwrap())
    }

    #[test]
    fn trials_all_stabilize() {
        let g = families::clique(12);
        let results = elect(
            &g,
            &EngineSelection::generic(),
            42,
            TrialOptions {
                trials: 8,
                max_steps: 1 << 22,
                census: true,
                threads: 2,
                ..TrialOptions::default()
            },
        );
        assert_eq!(results.len(), 8);
        for r in &results {
            assert!(r.stabilization_step.is_some());
            assert!(r.leader.is_some());
            assert_eq!(r.distinct_states, Some(2));
        }
        let stats = TrialStats::from_results(&results);
        assert_eq!(stats.timeouts, 0);
        assert_eq!(stats.steps.len(), 8);
        assert_eq!(stats.max_distinct_states, Some(2));
    }

    /// The lane tier is gone, so its gate is always shut: whatever the
    /// `lanes` flag, census or trial count, every trial runs on (and
    /// reports) the sequential tier the selection resolved to, with
    /// outcomes identical to the flag-off run.
    #[test]
    fn engine_for_mirrors_lane_gate() {
        let g = families::clique(64);
        let base = TrialOptions {
            trials: 8,
            max_steps: 1 << 22,
            threads: 2,
            ..TrialOptions::default()
        };
        let variants = [
            TrialOptions {
                lanes: true,
                ..base
            },
            TrialOptions {
                lanes: true,
                trials: 3,
                ..base
            },
            TrialOptions {
                lanes: true,
                census: true,
                ..base
            },
        ];
        for selection in [
            EngineSelection::prepare(&Absorb, 64),
            EngineSelection::lazy(),
            EngineSelection::generic(),
        ] {
            let tier = selection.engine();
            let reference = elect(&g, &selection, 5, base);
            for opts in variants {
                let results = elect(&g, &selection, 5, opts);
                assert_eq!(results.len(), opts.trials);
                assert!(results.iter().all(|r| r.engine == tier));
                for (r, want) in results.iter().zip(&reference) {
                    assert_eq!(r.stabilization_step, want.stabilization_step);
                    assert_eq!(r.leader, want.leader);
                }
            }
        }
        assert_eq!(
            EngineSelection::prepare(&Absorb, 64).engine(),
            Engine::Dense
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = families::cycle(10);
        let opts = |threads| TrialOptions {
            trials: 6,
            max_steps: 1 << 22,
            census: false,
            threads,
            ..TrialOptions::default()
        };
        let generic = EngineSelection::generic();
        let seq = elect(&g, &generic, 7, opts(1));
        let par = elect(&g, &generic, 7, opts(4));
        assert_eq!(seq, par);
    }

    #[test]
    fn dense_trials_match_generic_trials() {
        let g = families::clique(14);
        let opts = TrialOptions {
            trials: 6,
            max_steps: 1 << 22,
            census: true,
            threads: 1,
            ..TrialOptions::default()
        };
        let generic = elect(&g, &EngineSelection::generic(), 99, opts);
        let dense = elect(&g, &dense(14), 99, opts);
        let auto = elect(&g, &EngineSelection::prepare(&Absorb, 14), 99, opts);
        assert_eq!(generic, dense);
        assert_eq!(generic, auto);
        assert!(dense.iter().all(|r| r.engine == Engine::Dense));
    }

    #[test]
    fn dense_trials_bit_identical_across_thread_counts() {
        let g = families::clique(10);
        let dense = dense(10);
        let opts = |threads| TrialOptions {
            trials: 8,
            max_steps: 1 << 22,
            census: false,
            threads,
            ..TrialOptions::default()
        };
        let one = elect(&g, &dense, 7, opts(1));
        let four = elect(&g, &dense, 7, opts(4));
        let eight = elect(&g, &dense, 7, opts(8));
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn sharded_trials_equal_one_big_run() {
        // Splitting a trial range into `first_trial`-offset shards must
        // reproduce the monolithic run bit for bit, on both engines.
        let g = families::clique(12);
        let (generic, dense) = (EngineSelection::generic(), dense(12));
        let opts = |first_trial, trials| TrialOptions {
            trials,
            first_trial,
            max_steps: 1 << 22,
            census: false,
            threads: 2,
            ..TrialOptions::default()
        };
        let whole = elect(&g, &generic, 77, opts(0, 9));
        let mut sharded = Vec::new();
        for (start, len) in [(0, 4), (4, 3), (7, 2)] {
            sharded.extend(elect(&g, &generic, 77, opts(start, len)));
            let dense = elect(&g, &dense, 77, opts(start, len));
            assert_eq!(&sharded[start..start + len], &dense[..]);
        }
        assert_eq!(whole, sharded);
        assert_eq!(whole[5].trial, 5);
    }

    #[test]
    fn prepared_selection_matches_self_selecting_paths() {
        // One selection, reused across shards and a fault plan, must be
        // bit-identical to selecting afresh for every call.
        let g = families::clique(12);
        let selection = EngineSelection::prepare(&Absorb, g.num_nodes());
        assert_eq!(selection.engine(), Engine::Dense);
        let fresh = || EngineSelection::prepare(&Absorb, g.num_nodes());
        let opts = |first_trial| TrialOptions {
            trials: 3,
            first_trial,
            max_steps: 1 << 22,
            census: false,
            threads: 2,
            ..TrialOptions::default()
        };
        for first_trial in [0, 3] {
            assert_eq!(
                elect(&g, &selection, 77, opts(first_trial)),
                elect(&g, &fresh(), 77, opts(first_trial)),
            );
        }
        let plan = FaultPlan::at(4, crate::faults::FaultKind::CorruptNodes { count: 1 });
        assert_eq!(
            run_trials_auto_with_faults_prepared(&g, &Absorb, &selection, 77, opts(0), &plan),
            run_trials_auto_with_faults_prepared(&g, &Absorb, &fresh(), 77, opts(0), &plan),
        );
        // An empty plan must equal the plain election driver.
        assert_eq!(
            run_trials_auto_with_faults_prepared(
                &g,
                &Absorb,
                &selection,
                77,
                opts(0),
                &FaultPlan::empty()
            ),
            elect(&g, &fresh(), 77, opts(0)),
        );
    }

    #[test]
    fn count_prepared_matches_self_compiling_path() {
        // A tight step budget keeps the quadratic duel endgame of the
        // absorb protocol out of the test: a table compiled once and
        // reused walks the same batch stream to the same deterministic
        // timeout as a table compiled for the call.
        let num_agents = 200_000;
        let compiled = crate::compile_for_count(&Absorb, num_agents).unwrap();
        let opts = TrialOptions {
            trials: 2,
            max_steps: 100_000,
            threads: 1,
            ..TrialOptions::default()
        };
        let first = run_trials_count_prepared(&compiled, num_agents, 5, opts);
        assert_eq!(
            run_trials_count_prepared(&compiled, num_agents, 5, opts),
            first
        );
        let fresh = crate::compile_for_count(&Absorb, num_agents).unwrap();
        assert_eq!(
            run_trials_count_prepared(&fresh, num_agents, 5, opts),
            first
        );
    }

    #[test]
    fn timeout_reported() {
        let g = families::clique(32);
        let results = elect(
            &g,
            &EngineSelection::generic(),
            1,
            TrialOptions {
                trials: 3,
                max_steps: 2,
                census: false,
                threads: 1,
                ..TrialOptions::default()
            },
        );
        let stats = TrialStats::from_results(&results);
        assert_eq!(stats.timeouts, 3);
        assert!(stats.steps.is_empty());
    }
}
