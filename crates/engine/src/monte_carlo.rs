//! Multi-threaded Monte-Carlo harness.
//!
//! Runs many independent executions of a protocol on a graph, each with a
//! deterministically derived seed, and aggregates stabilization times.
//! Trial `i` of a given master seed always produces the same result
//! regardless of thread count, so experiment outputs are reproducible.
//!
//! Six entry points share that contract:
//!
//! * [`run_trials`] — the generic reference engine ([`Executor`]);
//! * [`run_trials_dense`] — the ahead-of-time compiled engine
//!   ([`crate::DenseExecutor`]) over a shared [`CompiledProtocol`] table;
//! * [`run_trials_lazy`] — the lazily-compiling dense engine
//!   ([`crate::LazyDenseExecutor`]), one warm pair cache per worker; a
//!   trial that keeps missing the cache hands itself to the generic
//!   engine mid-run;
//! * [`run_trials_lanes`] — the lane-parallel dense engine
//!   ([`crate::LaneDenseExecutor`]): 8–16 trials of one compiled cell
//!   stepped in lockstep per worker, retire-and-refill as trials
//!   finish. Per trial trace-identical to [`run_trials_dense`] — each
//!   lane consumes exactly the RNG stream its trial seed would produce
//!   scalar — and opt-in via [`TrialOptions::lanes`];
//! * [`run_trials_count`] — the clique-only count-based batch engine
//!   ([`crate::CountEngine`]), graph-free: the population size alone
//!   describes the clique, which is what lets it reach `10⁷–10⁹`
//!   agents. Deterministic per seed like the others, but exact in
//!   *distribution* rather than trace-identical to them;
//! * [`run_trials_auto`] — the selection point over the sequential
//!   engines (AOT-compiled → lazy-compiled → generic, see
//!   [`select_engine`]), plus the opt-in lane tier when the AOT path
//!   wins a fault-free, census-free cell with at least
//!   [`LANE_MIN_TRIALS`] trials; [`select_engine_clique`] extends the
//!   waterfall with the count tier for graph-free clique populations.
//!   Among the trace-identical engines the choice never changes the
//!   results, only the wall-clock time; the choice made is recorded in
//!   [`TrialResult::engine`].
//!
//! Each entry point has a `*_with_faults` counterpart taking a
//! [`FaultPlan`] (see [`crate::faults`]): per-trial fault realizations
//! derive from the trial seed via [`fault_seed`], so the determinism
//! contract — identical results across engines, thread counts and
//! shardings — extends to fault-injected campaigns, and recovery
//! metrics are attached to each [`TrialResult`].
//!
//! The selecting entry points additionally come in `*_prepared` form
//! ([`run_trials_auto_prepared`], [`run_trials_auto_with_faults_prepared`],
//! [`run_trials_count_prepared`]) taking an [`EngineSelection`] (or
//! pre-compiled count table) the caller produced once and reuses across
//! calls — the hook sweep campaigns use to pay selection and
//! compilation once per *cell* instead of once per shard.

use crate::dense::table::{overflow_walk, WalkVerdict};
use crate::dense::{
    compile_for_count, count_supported, CompiledProtocol, CountEngine, DenseExecutor,
    LaneDenseExecutor, LazyDenseExecutor, COUNT_MIN_AGENTS, DEFAULT_MAX_COMPILED_STATES,
    PROBE_EVAL_BUDGET,
};
use crate::executor::{Executor, NotStabilized, Outcome};
use crate::faults::{fault_seed, run_with_faults, FaultPlan, Recovery};
use crate::protocol::Protocol;
use crate::stabilize::HoldingTime;
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
    /// The ahead-of-time compiled [`crate::DenseExecutor`] (`u16` ids,
    /// full `|Λ|²` table).
    Dense,
    /// The lazily-compiling [`crate::LazyDenseExecutor`] (`u32` ids,
    /// on-demand pair cache).
    LazyDense,
    /// The count-based batch engine ([`crate::CountEngine`]):
    /// clique-only, `u64` count per compiled state, collision-free
    /// `O(√n)` interaction batches. Exact in distribution rather than
    /// trace-identical (see [`crate::dense::count`]).
    Count,
    /// The lane-parallel dense engine ([`crate::LaneDenseExecutor`]):
    /// 8–16 trials of one compiled cell stepped in lockstep, each lane
    /// consuming exactly the RNG stream its trial seed would produce on
    /// the scalar [`crate::DenseExecutor`] — per-trial trace-identical
    /// to the sequential engines (see [`crate::dense::lanes`]).
    Lanes,
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
            Engine::Lanes => "lanes",
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
    /// (possibly empty-resolving) fault plan via the `*_with_faults`
    /// entry points with a nonempty [`FaultPlan`].
    pub recovery: Option<Recovery>,
    /// Loose-stabilization metrics (election step from an arbitrary
    /// start plus how long the unique-leader configuration held) —
    /// `Some` exactly when the trial ran through the
    /// [`crate::stabilize`] entry points.
    pub holding: Option<HoldingTime>,
    /// The engine tier selected for the trial. Pure provenance — see
    /// [`Engine`] — and therefore **not** part of `PartialEq`: results
    /// from different engines compare equal whenever the observable
    /// outcome is equal, which is exactly the trace-identity contract.
    /// It names the tier the trial started on: an [`Engine::LazyDense`]
    /// election trial may finish on the generic engine after a mid-run
    /// hand-off (see [`run_trials_lazy`]).
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

/// Options for [`run_trials`].
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
    /// Opt into the lane-parallel dense engine: when set,
    /// [`run_trials_auto`] routes cells that win the AOT tier through
    /// [`run_trials_lanes`] — provided the cell is fault-free, the
    /// census is off, and at least [`LANE_MIN_TRIALS`] trials are
    /// requested. Per-trial results are identical either way (the lane
    /// engine is trace-identical to the scalar dense engine); only the
    /// wall-clock time and the recorded [`TrialResult::engine`] differ.
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

/// Runs `options.trials` independent executions of `protocol` on `graph`.
///
/// Results are returned in trial order. Each trial uses child seed
/// `options.first_trial + i` of `master_seed`, so results are independent
/// of the thread count (and, for sharded campaigns, of how a trial range
/// is split into calls).
///
/// # Examples
///
/// ```
/// use popele_engine::monte_carlo::{run_trials, TrialOptions, TrialStats};
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
/// let results = run_trials(&g, &Absorb, 42, TrialOptions {
///     trials: 8,
///     max_steps: 1 << 22,
///     ..TrialOptions::default()
/// });
/// let stats = TrialStats::from_results(&results);
/// assert_eq!(stats.steps.len(), 8);
/// assert_eq!(stats.timeouts, 0);
/// ```
#[must_use]
pub fn run_trials<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    master_seed: u64,
    options: TrialOptions,
) -> Vec<TrialResult> {
    let seq = SeedSeq::new(master_seed);
    let threads = resolve_threads(options.threads, options.trials);

    let run_one = |trial: usize| -> TrialResult {
        let trial = options.first_trial + trial;
        let mut exec = Executor::new(graph, protocol, seq.child(trial as u64));
        if options.census {
            exec.enable_state_census();
        }
        let result = exec.run_until_stable(options.max_steps);
        election_result(trial, result, || exec.outcome(), Engine::Generic)
    };

    fan_out(options.trials, threads, || (), |_, trial| run_one(trial))
}

/// Packs an election's result into a [`TrialResult`]. A timed-out
/// trial still reports its census, read from the executor's `snapshot`.
fn election_result(
    trial: usize,
    result: Result<Outcome, NotStabilized>,
    snapshot: impl FnOnce() -> Outcome,
    engine: Engine,
) -> TrialResult {
    let (stabilization_step, leader, distinct_states) = match result {
        Ok(outcome) => (
            Some(outcome.stabilization_step),
            outcome.leader,
            outcome.distinct_states,
        ),
        Err(_) => (None, None, snapshot().distinct_states),
    };
    TrialResult {
        trial,
        stabilization_step,
        leader,
        distinct_states,
        recovery: None,
        holding: None,
        engine,
    }
}

/// Runs `options.trials` independent executions on the compiled engine,
/// sharing one precomputed transition table across all worker threads.
///
/// Seed derivation matches [`run_trials`] exactly, and the compiled
/// engine is trace-identical to the generic one, so for a compilable
/// protocol the two functions return identical results. Each worker
/// thread builds **one** executor and [`DenseExecutor::reset`]s it per
/// trial (a reset is exactly equivalent to fresh construction), so
/// per-trial setup is O(n) regardless of graph size.
///
/// # Examples
///
/// ```
/// use popele_engine::monte_carlo::{run_trials, run_trials_dense, TrialOptions};
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
///     run_trials_dense(&g, &compiled, 7, opts),
///     run_trials(&g, &Absorb, 7, opts),
/// );
/// ```
#[must_use]
pub fn run_trials_dense<P: Protocol>(
    graph: &Graph,
    compiled: &CompiledProtocol<P>,
    master_seed: u64,
    options: TrialOptions,
) -> Vec<TrialResult> {
    let seq = SeedSeq::new(master_seed);
    let threads = resolve_threads(options.threads, options.trials);

    let run_one = |exec: &mut DenseExecutor<'_, P>, trial: usize| -> TrialResult {
        let trial = options.first_trial + trial;
        exec.reset(seq.child(trial as u64));
        let result = exec.run_until_stable(options.max_steps);
        election_result(trial, result, || exec.outcome(), Engine::Dense)
    };
    let fresh_executor = || {
        let mut exec = DenseExecutor::new(graph, compiled, 0);
        if options.census {
            exec.enable_state_census();
        }
        exec
    };

    fan_out(options.trials, threads, fresh_executor, run_one)
}

/// Runs `options.trials` independent executions on the lazily-compiling
/// dense engine.
///
/// Seed derivation matches [`run_trials`] exactly, and the lazy engine
/// is trace-identical to the generic one, so the two functions return
/// identical results for any protocol. Each worker thread builds **one**
/// [`LazyDenseExecutor`] and [`LazyDenseExecutor::reset`]s it per trial;
/// the reset deliberately keeps the interner and pair cache warm, so all
/// trials after a worker's first run against an already-populated cache
/// (the cache affects speed only, never the trace — results stay
/// independent of thread count and sharding).
///
/// A trial whose pair cache stops paying hands itself to the generic
/// [`Executor`] mid-run: the lazy executor steps in windows of 2¹⁶
/// steps, and a window that misses the cache on more than a quarter of
/// its steps (the identifier protocol while nodes still generate
/// identifiers, where almost every state is new) moves the rest of the
/// trial to the generic engine, which carries the same configuration,
/// scheduler stream and census on. The trace is unchanged, and the next
/// trial starts lazy again on the warm cache.
/// [`lazy_handoff_step`] reports where a trial hands off.
///
/// # Examples
///
/// ```
/// use popele_engine::monte_carlo::{run_trials, run_trials_lazy, TrialOptions};
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
///     run_trials_lazy(&g, &Absorb, 7, opts),
///     run_trials(&g, &Absorb, 7, opts),
/// );
/// ```
#[must_use]
pub fn run_trials_lazy<P: Protocol + Clone>(
    graph: &Graph,
    protocol: &P,
    master_seed: u64,
    options: TrialOptions,
) -> Vec<TrialResult> {
    let seq = SeedSeq::new(master_seed);
    let threads = resolve_threads(options.threads, options.trials);

    let run_one = |exec: &mut LazyDenseExecutor<'_, P>, trial: usize| -> TrialResult {
        let trial = options.first_trial + trial;
        lazy_election(exec, trial, seq.child(trial as u64), options.max_steps).0
    };
    let fresh_executor = || {
        let mut exec = LazyDenseExecutor::new(graph, protocol, 0);
        if options.census {
            exec.enable_state_census();
        }
        exec
    };

    fan_out(options.trials, threads, fresh_executor, run_one)
}

/// Steps per window of a lazy election trial; the hand-off rule is
/// checked at each window edge.
const HANDOFF_WINDOW: u64 = 1 << 16;

/// A window with more than `HANDOFF_WINDOW / HANDOFF_MISS_DIVISOR`
/// pair-cache misses hands its trial to the generic engine. Identifier
/// generation windows miss on 800–1000 of every 1000 steps, fast-protocol
/// windows on 0–4.
const HANDOFF_MISS_DIVISOR: u64 = 4;

/// Runs election trial `trial` with scheduler seed `seed` on `exec`,
/// handing it to the generic engine when a window misses the pair cache
/// too often (see [`run_trials_lazy`]). Returns the result, tagged
/// [`Engine::LazyDense`] either way, and the step of the hand-off if
/// there was one.
fn lazy_election<P: Protocol>(
    exec: &mut LazyDenseExecutor<'_, P>,
    trial: usize,
    seed: u64,
    max_steps: u64,
) -> (TrialResult, Option<u64>) {
    exec.reset(seed);
    loop {
        let cached = exec.table().num_cached_pairs();
        let end = max_steps.min(exec.steps().saturating_add(HANDOFF_WINDOW));
        // A bounded run never draws past `end`, so the pair buffer is
        // drained whenever this returns without stabilizing.
        let result = exec.run_until_stable(end);
        if result.is_ok() || end == max_steps {
            let result = election_result(trial, result, || exec.outcome(), Engine::LazyDense);
            return (result, None);
        }
        let misses = (exec.table().num_cached_pairs() - cached) as u64;
        if misses > HANDOFF_WINDOW / HANDOFF_MISS_DIVISOR {
            let handoff = exec.steps();
            let mut generic = exec.to_generic();
            let result = generic.run_until_stable(max_steps);
            let result = election_result(trial, result, || generic.outcome(), Engine::LazyDense);
            return (result, Some(handoff));
        }
    }
}

/// The step at which a lazy election trial with scheduler seed `seed`
/// hands itself to the generic engine under [`run_trials_lazy`]'s rule,
/// or `None` if it finishes (stabilized or out of budget) on the lazy
/// engine. The trial runs from a cold pair cache, as a worker's first
/// trial does, and runs to its end. Trial `i` of master seed `s` has
/// scheduler seed `SeedSeq::new(s).child(i)`.
#[must_use]
pub fn lazy_handoff_step<P: Protocol + Clone>(
    graph: &Graph,
    protocol: &P,
    seed: u64,
    max_steps: u64,
) -> Option<u64> {
    let mut exec = LazyDenseExecutor::new(graph, protocol, seed);
    lazy_election(&mut exec, 0, seed, max_steps).1
}

/// Runs `options.trials` independent executions on the count-based
/// batch engine over a **clique** of `num_agents` agents.
///
/// Graph-free: a clique is fully described by its population size, and
/// the count engine holds only `O(|Λ|)` counters, so `num_agents` may
/// far exceed what any materialized [`Graph`] (or per-agent engine)
/// could represent — this is the `10⁷–10⁹` entry point. Each worker
/// thread builds **one** [`CountEngine`] over a shared compiled table
/// and [`CountEngine::reset`]s it per trial (`O(|Λ|)`, reusing the
/// cached initial count vector), mirroring the per-worker executor
/// reuse of [`run_trials_dense`].
///
/// Seed derivation matches [`run_trials`] exactly (child seed
/// `first_trial + i` of `master_seed`), so results are deterministic
/// and independent of thread count and sharding. They are **not**
/// trace-identical to the sequential engines — the count engine
/// consumes its random stream batch-wise — but exact in distribution;
/// the workspace pins this with statistical differential tests.
///
/// [`TrialResult::leader`] is always `None` (agents have no identity
/// in count space) and [`TrialResult::engine`] is [`Engine::Count`].
///
/// # Panics
///
/// Panics if the protocol's oracle is neither linear nor
/// census-capable (pre-check with [`count_supported`]), if its state
/// space exceeds [`crate::dense::COUNT_MAX_COMPILED_STATES`], or if `num_agents` is
/// below 2 or above `u32::MAX`.
#[must_use]
pub fn run_trials_count<P: Protocol + Clone>(
    protocol: &P,
    num_agents: u64,
    master_seed: u64,
    options: TrialOptions,
) -> Vec<TrialResult> {
    let compiled = compile_for_count(protocol, num_agents)
        .expect("protocol state space exceeds the count-engine compile cap");
    run_trials_count_prepared(&compiled, num_agents, master_seed, options)
}

/// [`run_trials_count`] with the compile hoisted out: runs on a table
/// the caller compiled once (via [`compile_for_count`]) and reuses
/// across calls — the count tier's counterpart of the `*_prepared`
/// sequential entry points, used by sweep campaigns to share one table
/// across all shards of a count cell.
///
/// `compiled` must come from [`compile_for_count`] for this
/// `num_agents` (the count closure seeds differ from the per-agent
/// compile); given that, results are bit-identical to
/// [`run_trials_count`].
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

/// Fewest remaining trials for which [`run_trials_auto`] considers the
/// lane engine worth engaging: below a full minimum pack the lockstep
/// interleave has too few independent chains to overlap and the scalar
/// dense engine is at least as fast.
pub const LANE_MIN_TRIALS: usize = 8;

/// Most lanes [`run_trials_lanes`] packs into one
/// [`LaneDenseExecutor`]: past 16 interleaved chains the per-lane state
/// rows start spilling out of the close caches and the marginal overlap
/// gain is gone (the executor itself accepts up to
/// [`crate::dense::MAX_LANES`]).
pub const LANE_MAX_LANES: usize = 16;

/// Runs `options.trials` independent executions on the lane-parallel
/// dense engine: each worker thread owns one [`LaneDenseExecutor`]
/// pack of up to [`LANE_MAX_LANES`] lanes, claims global trial indices
/// work-stealing style, and retire-and-refills lanes as trials finish —
/// a lane that stabilizes frees its slot for the next `first_trial`
/// offset instead of stalling the pack.
///
/// Seed derivation matches [`run_trials`] exactly (child seed
/// `first_trial + i` of `master_seed`, one private scheduler per lane),
/// and the lane engine is trace-identical to the scalar
/// [`DenseExecutor`] per trial, so for any thread count, lane count and
/// sharding the results equal [`run_trials_dense`]'s except for the
/// [`TrialResult::engine`] tag (which equality ignores). The distinct
/// states field is always `None`.
///
/// # Panics
///
/// Panics if `options.census` is set — the lane engine does not census
/// (callers wanting the census take the scalar path, which is what
/// [`run_trials_auto`] arranges).
///
/// # Examples
///
/// ```
/// use popele_engine::monte_carlo::{run_trials_dense, run_trials_lanes, TrialOptions};
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
/// let opts = TrialOptions { trials: 9, max_steps: 1 << 22, ..TrialOptions::default() };
/// // The lane engine is trace-identical to the scalar dense engine.
/// assert_eq!(
///     run_trials_lanes(&g, &compiled, 7, opts),
///     run_trials_dense(&g, &compiled, 7, opts),
/// );
/// ```
#[must_use]
pub fn run_trials_lanes<P: Protocol>(
    graph: &Graph,
    compiled: &CompiledProtocol<P>,
    master_seed: u64,
    options: TrialOptions,
) -> Vec<TrialResult> {
    assert!(
        !options.census,
        "the lane engine does not support the state census"
    );
    let seq = SeedSeq::new(master_seed);
    // One worker per prospective minimum pack, so every worker's
    // executor has at least LANE_MIN_TRIALS trials to interleave.
    let threads = resolve_threads(
        options.threads,
        options.trials.div_ceil(LANE_MIN_TRIALS).max(1),
    );
    let lanes = options.trials.clamp(2, LANE_MAX_LANES);

    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<TrialResult>>> =
        (0..options.trials).map(|_| Mutex::new(None)).collect();
    let worker = || {
        let mut exec = LaneDenseExecutor::new(graph, compiled, lanes);
        loop {
            // Refill free lanes from the shared trial counter. A trial
            // that is stable at step 0 retires inside `load` without
            // occupying the slot, so keep claiming while slots stay
            // free.
            while exec.has_free_lane() {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= options.trials {
                    break;
                }
                let trial = options.first_trial + i;
                exec.load(trial, seq.child(trial as u64));
            }
            while let Some(done) = exec.take_finished() {
                let slot = done.trial - options.first_trial;
                *results[slot].lock().expect("result slot poisoned") = Some(TrialResult {
                    trial: done.trial,
                    stabilization_step: done.stabilization_step,
                    leader: done.leader,
                    distinct_states: None,
                    recovery: None,
                    holding: None,
                    engine: Engine::Lanes,
                });
            }
            // The refill loop only leaves every lane idle once the trial
            // counter is exhausted, so an empty pack means this worker
            // is done.
            if exec.num_active() == 0 {
                break;
            }
            exec.run_block(options.max_steps);
        }
    };
    if threads <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every trial completed")
        })
        .collect()
}

/// Outcome of the internal engine selection: the compiled table rides
/// along when the AOT path won, so `run_trials_auto` never compiles
/// twice. Shared with [`crate::stabilize`]'s seeded selection. The
/// table sits behind an [`Arc`] so an [`EngineSelection`] can be cloned
/// across worker threads without recompiling.
pub(crate) enum Selected<P: Protocol> {
    Dense(Arc<CompiledProtocol<P>>),
    Lazy,
    Generic,
}

/// A reusable engine selection for one *cell* — one `(protocol,
/// maximum node count)` pair — produced by [`EngineSelection::prepare`]
/// (or [`crate::stabilize::prepare_stabilize_engine`] for
/// arbitrary-start workloads) and consumed by the `*_prepared` entry
/// points.
///
/// Selection is not free: the rejection path runs a bounded state-space
/// probe and the accept path compiles the full `|Λ|²` transition table.
/// A sweep campaign that shards a cell into many independently
/// checkpointable slices would otherwise pay that cost once *per
/// shard*; preparing once per cell and handing the same selection to
/// every shard pays it once, and the `Arc`-shared table makes the
/// hand-off to concurrent shard workers allocation-free. Cloning an
/// `EngineSelection` clones the `Arc`, never the table.
///
/// The selection is only valid for the node count it was prepared for:
/// engine choice depends on the reachable state space, which grows with
/// the population. Fault campaigns must prepare at the plan's maximum
/// node count (`graph.num_nodes() + plan.max_joins()`), exactly as
/// [`run_trials_auto_with_faults`] does internally.
///
/// # Examples
///
/// ```
/// use popele_engine::monte_carlo::{
///     run_trials_auto, run_trials_auto_prepared, EngineSelection, TrialOptions,
/// };
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
/// // The prepared path is bit-identical to the self-selecting one.
/// assert_eq!(
///     run_trials_auto_prepared(&g, &Absorb, &selection, 7, opts),
///     run_trials_auto(&g, &Absorb, 7, opts),
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
    /// nodes, compiling the AOT table when that tier wins — the
    /// reusable form of the selection [`run_trials_auto`] performs
    /// internally (same waterfall, same verdict, bit for bit).
    #[must_use]
    pub fn prepare(protocol: &P, num_nodes: u32) -> Self
    where
        P: Clone,
    {
        Self {
            kind: select(protocol, num_nodes),
        }
    }

    /// The sequential-tier engine this selection resolved to —
    /// [`Engine::Dense`], [`Engine::LazyDense`] or [`Engine::Generic`]
    /// (never the opt-in lane tier; see [`Self::engine_for`]).
    #[must_use]
    pub fn engine(&self) -> Engine {
        match &self.kind {
            Selected::Dense(_) => Engine::Dense,
            Selected::Lazy => Engine::LazyDense,
            Selected::Generic => Engine::Generic,
        }
    }

    /// The engine [`run_trials_auto_prepared`] will actually run under
    /// `options`: [`Self::engine`] upgraded to [`Engine::Lanes`] when
    /// the AOT tier won and the options qualify for the lane pack
    /// (lanes opted in, census off, at least [`LANE_MIN_TRIALS`]
    /// trials) — the exact gate the run path applies.
    #[must_use]
    pub fn engine_for(&self, options: &TrialOptions) -> Engine {
        match self.engine() {
            Engine::Dense
                if options.lanes && !options.census && options.trials >= LANE_MIN_TRIALS =>
            {
                Engine::Lanes
            }
            engine => engine,
        }
    }
}

/// Picks the engine for `protocol` on an `num_nodes`-node graph:
///
/// 1. **AOT-compiled** ([`Engine::Dense`]) when the reachable state
///    space fits [`DEFAULT_MAX_COMPILED_STATES`] — fastest, shareable
///    table;
/// 2. **lazy-compiled** ([`Engine::LazyDense`]) when it does not but the
///    protocol declares a finite [`Protocol::state_space_bound`] — the
///    per-run visited slice is then usually small enough to intern
///    profitably (the identifier protocol at realistic `k`, full-scale
///    fast instances). Where it is not — identifier generation on large
///    sparse graphs, where almost every interaction yields a new state
///    — [`run_trials_lazy`] notices at run time, per trial: a window of
///    steps that misses the pair cache too often hands the rest of the
///    trial to the generic engine;
/// 3. **generic** ([`Engine::Generic`]) otherwise: a protocol that
///    cannot even bound its state space may intern without limit, and
///    the generic engine caps memory at O(n) states.
///
/// Selection is cheap on the rejection path: a bounded-frontier probe
/// ([`probe_state_space`] with [`PROBE_EVAL_BUDGET`]) detects
/// cap-overflowing state spaces in microseconds instead of running the
/// full BFS closure to overflow on every call (sweep campaigns call this
/// once per shard). Only the rare inconclusive case — a slow-closing
/// state space that might still fit — pays for a full compile attempt,
/// which keeps the AOT/non-AOT split bit-for-bit identical to compiling
/// unconditionally.
fn select<P: Protocol + Clone>(protocol: &P, num_nodes: u32) -> Selected<P> {
    // Phase-1 walk only (not the full probe): on the accept path the
    // probe's closure and the compile's enumeration would be the same
    // work twice, so anything short of a certified overflow goes
    // straight to a single compile attempt.
    let aot = match overflow_walk(
        protocol,
        num_nodes,
        DEFAULT_MAX_COMPILED_STATES,
        PROBE_EVAL_BUDGET,
    ) {
        (WalkVerdict::Exceeds, _) => None,
        (WalkVerdict::Exhausted | WalkVerdict::Budget, _) => {
            CompiledProtocol::compile_default(protocol, num_nodes).ok()
        }
    };
    match aot {
        Some(compiled) => Selected::Dense(Arc::new(compiled)),
        None if protocol.state_space_bound().is_some() => Selected::Lazy,
        None => Selected::Generic,
    }
}

/// The engine [`run_trials_auto`] will pick for `protocol` on a graph
/// with `num_nodes` nodes — exposed so tests and reports can assert the
/// selection without running trials.
///
/// # Examples
///
/// ```
/// use popele_engine::monte_carlo::{select_engine, Engine};
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
/// assert_eq!(select_engine(&Absorb, 1_000_000), Engine::Dense);
/// ```
#[must_use]
pub fn select_engine<P: Protocol + Clone>(protocol: &P, num_nodes: u32) -> Engine {
    match select(protocol, num_nodes) {
        Selected::Dense(_) => Engine::Dense,
        Selected::Lazy => Engine::LazyDense,
        Selected::Generic => Engine::Generic,
    }
}

/// The fourth tier of the engine waterfall, for **clique** populations
/// described by size alone (no materialized [`Graph`]): picks
/// [`Engine::Count`] when the population is at least
/// [`COUNT_MIN_AGENTS`], the oracle is count-capable
/// ([`count_supported`]) and the state space compiles within
/// [`crate::dense::COUNT_MAX_COMPILED_STATES`]; otherwise falls back to the
/// sequential waterfall of [`select_engine`].
///
/// The count tier is deliberately reachable only through this
/// clique-specific entry point: [`run_trials_auto`] takes a
/// materialized graph, and no materializable clique reaches
/// [`COUNT_MIN_AGENTS`] edges-wise, so the sequential engines'
/// trace-identity contract is untouched.
///
/// # Examples
///
/// ```
/// use popele_engine::monte_carlo::{select_engine_clique, Engine};
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
/// #     fn output(&self, s: &Self::State) -> Role {
/// #         if *s { Role::Leader } else { Role::Follower }
/// #     }
/// #     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
/// # }
///
/// // Small cliques stay on the sequential engines …
/// assert_eq!(select_engine_clique(&Absorb, 1_000), Engine::Dense);
/// // … huge ones take the count tier.
/// assert_eq!(select_engine_clique(&Absorb, 100_000_000), Engine::Count);
/// ```
#[must_use]
pub fn select_engine_clique<P: Protocol + Clone>(protocol: &P, num_agents: u64) -> Engine {
    if num_agents >= COUNT_MIN_AGENTS
        && num_agents <= u64::from(u32::MAX)
        && count_supported(protocol)
        && compile_for_count(protocol, num_agents).is_ok()
    {
        return Engine::Count;
    }
    select_engine(protocol, u32::try_from(num_agents).unwrap_or(u32::MAX))
}

/// Runs trials on the fastest applicable engine: AOT-compiled when
/// `protocol` compiles within the default state cap, the lazy-compiling
/// dense engine when it does not but the state space is declared finite,
/// and the generic reference engine otherwise (see [`select_engine`]).
///
/// This is the engine-selection point the experiment harness uses: the
/// constant-state protocols (token, star, majority) and small-parameter
/// fast-protocol instances take the AOT path; the identifier protocol at
/// realistic `k` and full-scale fast instances take the lazy path.
/// Whatever is picked, the results are identical — only the speed
/// differs — and the choice is recorded in [`TrialResult::engine`].
///
/// # Examples
///
/// ```
/// use popele_engine::monte_carlo::{run_trials_auto, TrialOptions};
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
/// let opts = TrialOptions { trials: 4, max_steps: 1 << 22, ..TrialOptions::default() };
/// // Thread count never changes results, only wall-clock time.
/// let sequential = run_trials_auto(&g, &Absorb, 3, TrialOptions { threads: 1, ..opts });
/// let parallel = run_trials_auto(&g, &Absorb, 3, TrialOptions { threads: 4, ..opts });
/// assert_eq!(sequential, parallel);
/// ```
#[must_use]
pub fn run_trials_auto<P: Protocol + Clone>(
    graph: &Graph,
    protocol: &P,
    master_seed: u64,
    options: TrialOptions,
) -> Vec<TrialResult> {
    let selection = EngineSelection::prepare(protocol, graph.num_nodes());
    run_trials_auto_prepared(graph, protocol, &selection, master_seed, options)
}

/// [`run_trials_auto`] with the engine selection hoisted out: runs on
/// whatever `selection` resolved to instead of re-probing and
/// re-compiling per call.
///
/// `selection` must have been prepared for this protocol at
/// `graph.num_nodes()` (see [`EngineSelection::prepare`]); given that,
/// results are bit-identical to [`run_trials_auto`] — including the
/// opt-in lane upgrade, which applies exactly when
/// [`EngineSelection::engine_for`] says [`Engine::Lanes`]. This is the
/// entry point sweep campaigns use to run many shards of one cell
/// against a single prepared selection.
#[must_use]
pub fn run_trials_auto_prepared<P: Protocol + Clone>(
    graph: &Graph,
    protocol: &P,
    selection: &EngineSelection<P>,
    master_seed: u64,
    options: TrialOptions,
) -> Vec<TrialResult> {
    match &selection.kind {
        Selected::Dense(compiled) => {
            // The opt-in fifth tier: lane-packed trials whenever the AOT
            // path won and the cell qualifies (census off, enough trials
            // to fill a minimum pack). Trace-identical to the scalar
            // path per trial — only speed and the engine tag change.
            if options.lanes && !options.census && options.trials >= LANE_MIN_TRIALS {
                run_trials_lanes(graph, compiled, master_seed, options)
            } else {
                run_trials_dense(graph, compiled, master_seed, options)
            }
        }
        Selected::Lazy => run_trials_lazy(graph, protocol, master_seed, options),
        Selected::Generic => run_trials(graph, protocol, master_seed, options),
    }
}

/// Runs `options.trials` independent *fault-injected* executions on the
/// generic engine.
///
/// Trial `i` resolves `plan` with [`fault_seed`] of its own trial seed,
/// so every trial sees an independent fault realization of the same
/// schedule, and results stay independent of thread count and sharding
/// exactly as in [`run_trials`]. With an empty plan this is **identical**
/// (bit for bit) to [`run_trials`] except that no recovery metrics are
/// attached — the faulted entry points delegate to the plain ones.
#[must_use]
pub fn run_trials_with_faults<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    master_seed: u64,
    options: TrialOptions,
    plan: &FaultPlan,
) -> Vec<TrialResult> {
    if plan.is_empty() {
        return run_trials(graph, protocol, master_seed, options);
    }
    let seq = SeedSeq::new(master_seed);
    let threads = resolve_threads(options.threads, options.trials);

    let run_one = |trial: usize| -> TrialResult {
        let trial = options.first_trial + trial;
        let seed = seq.child(trial as u64);
        let resolved = plan.resolve(graph, fault_seed(seed));
        let mut exec = Executor::new(graph, protocol, seed);
        if options.census {
            exec.enable_state_census();
        }
        let report = run_with_faults(&mut exec, &resolved, options.max_steps);
        faulted_result(
            trial,
            &report,
            exec.outcome().distinct_states,
            Engine::Generic,
        )
    };

    fan_out(options.trials, threads, || (), |_, trial| run_one(trial))
}

/// Runs fault-injected trials on the compiled engine, sharing one
/// precomputed table across workers and trials.
///
/// The table must cover the plan's maximum node count
/// (`graph.num_nodes() + plan.max_joins()` — see
/// [`FaultPlan::max_joins`]); [`run_trials_auto_with_faults`] compiles
/// exactly that. Because topology faults rebind an executor to per-trial
/// epoch graphs, each trial builds a fresh executor instead of resetting
/// a shared one — the construction is O(n + m) and fault campaigns are
/// dominated by simulation anyway. Results are identical to
/// [`run_trials_with_faults`] for the same arguments.
#[must_use]
pub fn run_trials_dense_with_faults<P: Protocol>(
    graph: &Graph,
    compiled: &CompiledProtocol<P>,
    master_seed: u64,
    options: TrialOptions,
    plan: &FaultPlan,
) -> Vec<TrialResult> {
    if plan.is_empty() {
        return run_trials_dense(graph, compiled, master_seed, options);
    }
    let seq = SeedSeq::new(master_seed);
    let threads = resolve_threads(options.threads, options.trials);

    let run_one = |trial: usize| -> TrialResult {
        let trial = options.first_trial + trial;
        let seed = seq.child(trial as u64);
        let resolved = plan.resolve(graph, fault_seed(seed));
        let mut exec = DenseExecutor::new(graph, compiled, seed);
        if options.census {
            exec.enable_state_census();
        }
        let report = run_with_faults(&mut exec, &resolved, options.max_steps);
        faulted_result(
            trial,
            &report,
            exec.outcome().distinct_states,
            Engine::Dense,
        )
    };

    fan_out(options.trials, threads, || (), |_, trial| run_one(trial))
}

/// Runs fault-injected trials on the lazily-compiling dense engine.
///
/// As in [`run_trials_dense_with_faults`], each trial builds a fresh
/// executor (topology faults rebind executors to per-trial epoch
/// graphs), so — unlike the fault-free [`run_trials_lazy`] — the pair
/// cache is per-trial rather than per-worker. Results are identical to
/// [`run_trials_with_faults`] for the same arguments.
#[must_use]
pub fn run_trials_lazy_with_faults<P: Protocol + Clone>(
    graph: &Graph,
    protocol: &P,
    master_seed: u64,
    options: TrialOptions,
    plan: &FaultPlan,
) -> Vec<TrialResult> {
    if plan.is_empty() {
        return run_trials_lazy(graph, protocol, master_seed, options);
    }
    let seq = SeedSeq::new(master_seed);
    let threads = resolve_threads(options.threads, options.trials);

    let run_one = |trial: usize| -> TrialResult {
        let trial = options.first_trial + trial;
        let seed = seq.child(trial as u64);
        let resolved = plan.resolve(graph, fault_seed(seed));
        let mut exec = LazyDenseExecutor::new(graph, protocol, seed);
        if options.census {
            exec.enable_state_census();
        }
        let report = run_with_faults(&mut exec, &resolved, options.max_steps);
        faulted_result(
            trial,
            &report,
            exec.outcome().distinct_states,
            Engine::LazyDense,
        )
    };

    fan_out(options.trials, threads, || (), |_, trial| run_one(trial))
}

/// Fault-injected counterpart of [`run_trials_auto`]: selects for the
/// plan's maximum node count (`n + max_joins`) among the three engines
/// exactly as [`select_engine`] does. Whatever is picked, the results
/// are identical.
#[must_use]
pub fn run_trials_auto_with_faults<P: Protocol + Clone>(
    graph: &Graph,
    protocol: &P,
    master_seed: u64,
    options: TrialOptions,
    plan: &FaultPlan,
) -> Vec<TrialResult> {
    if plan.is_empty() {
        // Bit-identical delegation (an empty plan resolves to nothing
        // and `max_joins` is 0, so selection is unchanged) — and the
        // only gate through which the fault-aware entry point reaches
        // the lane tier: lane eligibility requires a fault-free cell.
        return run_trials_auto(graph, protocol, master_seed, options);
    }
    let max_nodes = graph.num_nodes() + plan.max_joins();
    let selection = EngineSelection::prepare(protocol, max_nodes);
    run_trials_auto_with_faults_prepared(graph, protocol, &selection, master_seed, options, plan)
}

/// [`run_trials_auto_with_faults`] with the engine selection hoisted
/// out.
///
/// `selection` must have been prepared for this protocol at the plan's
/// maximum node count — `graph.num_nodes() + plan.max_joins()`, which
/// equals `graph.num_nodes()` for an empty plan; given that, results
/// are bit-identical to [`run_trials_auto_with_faults`]. An empty plan
/// delegates to [`run_trials_auto_prepared`] (the fault-free path,
/// including its lane gate), mirroring the unprepared entry point.
#[must_use]
pub fn run_trials_auto_with_faults_prepared<P: Protocol + Clone>(
    graph: &Graph,
    protocol: &P,
    selection: &EngineSelection<P>,
    master_seed: u64,
    options: TrialOptions,
    plan: &FaultPlan,
) -> Vec<TrialResult> {
    if plan.is_empty() {
        return run_trials_auto_prepared(graph, protocol, selection, master_seed, options);
    }
    match &selection.kind {
        Selected::Dense(compiled) => {
            run_trials_dense_with_faults(graph, compiled, master_seed, options, plan)
        }
        Selected::Lazy => run_trials_lazy_with_faults(graph, protocol, master_seed, options, plan),
        Selected::Generic => run_trials_with_faults(graph, protocol, master_seed, options, plan),
    }
}

/// Packs a fault report into a [`TrialResult`].
fn faulted_result(
    trial: usize,
    report: &crate::faults::FaultReport,
    distinct_states: Option<usize>,
    engine: Engine,
) -> TrialResult {
    TrialResult {
        trial,
        stabilization_step: report.result.as_ref().ok().map(|o| o.stabilization_step),
        leader: report.result.as_ref().ok().and_then(|o| o.leader),
        distinct_states,
        recovery: Some(report.recovery),
        holding: None,
        engine,
    }
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
/// per-worker resources (e.g. an executor reset per trial) — pass
/// `|| ()` when no state is needed.
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

    #[test]
    fn trials_all_stabilize() {
        let g = families::clique(12);
        let results = run_trials(
            &g,
            &Absorb,
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
        let seq = run_trials(&g, &Absorb, 7, opts(1));
        let par = run_trials(&g, &Absorb, 7, opts(4));
        assert_eq!(seq, par);
    }

    #[test]
    fn dense_trials_match_generic_trials() {
        let g = families::clique(14);
        let compiled = CompiledProtocol::compile_default(&Absorb, 14).unwrap();
        let opts = TrialOptions {
            trials: 6,
            max_steps: 1 << 22,
            census: true,
            threads: 1,
            ..TrialOptions::default()
        };
        let generic = run_trials(&g, &Absorb, 99, opts);
        let dense = run_trials_dense(&g, &compiled, 99, opts);
        let auto = run_trials_auto(&g, &Absorb, 99, opts);
        assert_eq!(generic, dense);
        assert_eq!(generic, auto);
    }

    #[test]
    fn dense_trials_bit_identical_across_thread_counts() {
        let g = families::clique(10);
        let compiled = CompiledProtocol::compile_default(&Absorb, 10).unwrap();
        let opts = |threads| TrialOptions {
            trials: 8,
            max_steps: 1 << 22,
            census: false,
            threads,
            ..TrialOptions::default()
        };
        let one = run_trials_dense(&g, &compiled, 7, opts(1));
        let four = run_trials_dense(&g, &compiled, 7, opts(4));
        let eight = run_trials_dense(&g, &compiled, 7, opts(8));
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn sharded_trials_equal_one_big_run() {
        // Splitting a trial range into `first_trial`-offset shards must
        // reproduce the monolithic run bit for bit, on both engines.
        let g = families::clique(12);
        let compiled = CompiledProtocol::compile_default(&Absorb, 12).unwrap();
        let opts = |first_trial, trials| TrialOptions {
            trials,
            first_trial,
            max_steps: 1 << 22,
            census: false,
            lanes: false,
            threads: 2,
        };
        let whole = run_trials(&g, &Absorb, 77, opts(0, 9));
        let mut sharded = Vec::new();
        for (start, len) in [(0, 4), (4, 3), (7, 2)] {
            sharded.extend(run_trials(&g, &Absorb, 77, opts(start, len)));
            let dense = run_trials_dense(&g, &compiled, 77, opts(start, len));
            assert_eq!(&sharded[start..start + len], &dense[..]);
        }
        assert_eq!(whole, sharded);
        assert_eq!(whole[5].trial, 5);
    }

    #[test]
    fn prepared_selection_matches_self_selecting_paths() {
        // One selection, reused across shards and a fault plan: every
        // prepared entry point must be bit-identical to its
        // self-selecting counterpart.
        let g = families::clique(12);
        let selection = EngineSelection::prepare(&Absorb, g.num_nodes());
        assert_eq!(selection.engine(), Engine::Dense);
        let opts = |first_trial| TrialOptions {
            trials: 3,
            first_trial,
            max_steps: 1 << 22,
            census: false,
            lanes: false,
            threads: 2,
        };
        for first_trial in [0, 3] {
            assert_eq!(
                run_trials_auto_prepared(&g, &Absorb, &selection, 77, opts(first_trial)),
                run_trials_auto(&g, &Absorb, 77, opts(first_trial)),
            );
        }
        let plan = FaultPlan::at(4, crate::faults::FaultKind::CorruptNodes { count: 1 });
        assert_eq!(
            run_trials_auto_with_faults_prepared(&g, &Absorb, &selection, 77, opts(0), &plan),
            run_trials_auto_with_faults(&g, &Absorb, 77, opts(0), &plan),
        );
        // An empty plan must flow through the prepared fault-free path.
        assert_eq!(
            run_trials_auto_with_faults_prepared(
                &g,
                &Absorb,
                &selection,
                77,
                opts(0),
                &FaultPlan::empty()
            ),
            run_trials_auto(&g, &Absorb, 77, opts(0)),
        );
    }

    #[test]
    fn engine_for_mirrors_lane_gate() {
        let selection = EngineSelection::prepare(&Absorb, 64);
        let base = TrialOptions {
            trials: LANE_MIN_TRIALS,
            max_steps: 1 << 22,
            ..TrialOptions::default()
        };
        assert_eq!(selection.engine_for(&base), Engine::Dense);
        let lanes = TrialOptions {
            lanes: true,
            ..base
        };
        assert_eq!(selection.engine_for(&lanes), Engine::Lanes);
        let few = TrialOptions {
            trials: LANE_MIN_TRIALS - 1,
            ..lanes
        };
        assert_eq!(selection.engine_for(&few), Engine::Dense);
        let census = TrialOptions {
            census: true,
            ..lanes
        };
        assert_eq!(selection.engine_for(&census), Engine::Dense);
    }

    #[test]
    fn count_prepared_matches_self_compiling_path() {
        // A tight step budget keeps the quadratic duel endgame of the
        // absorb protocol out of the test: both paths walk the same
        // batch stream to the same deterministic timeout.
        let num_agents = 200_000;
        let compiled = compile_for_count(&Absorb, num_agents).unwrap();
        let opts = TrialOptions {
            trials: 2,
            max_steps: 100_000,
            threads: 1,
            ..TrialOptions::default()
        };
        assert_eq!(
            run_trials_count_prepared(&compiled, num_agents, 5, opts),
            run_trials_count(&Absorb, num_agents, 5, opts),
        );
    }

    #[test]
    fn timeout_reported() {
        let g = families::clique(32);
        let results = run_trials(
            &g,
            &Absorb,
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
