//! Ahead-of-time compilation: the reachable state space enumerated into
//! dense `u16` ids with the full `|Λ|²` transition table precomputed.
//!
//! * [`CompiledProtocol::compile`] builds the tables by BFS closure over
//!   [`Protocol::transition`] starting from the initial states of every
//!   node. The closure is a sound over-approximation: it includes every
//!   state reachable under *any* schedule on *any* graph with the given
//!   node count (and possibly more), so the table covers every pair an
//!   execution can sample. The closure *is* the table build: it
//!   evaluates every ordered pair exactly once and records the
//!   successor ids as it interns them, one exactly-sized block per
//!   round, and once the set closes the blocks are laid out as the
//!   row-major `|Λ|²` table. The leader-delta and fused tables then
//!   follow from the table and the role table without another
//!   transition call. States are interned with the fold hasher
//!   ([`super::FoldHasher`]), which is sound for plain state data and
//!   much cheaper than SipHash; ids are assigned in discovery order, so
//!   the hasher never shows in ids or tables.
//! * [`probe_state_space`] answers "would compilation fit the cap?"
//!   with a bounded amount of work — the fast-rejection path that keeps
//!   engine selection cheap for protocols (like the identifier protocol
//!   at realistic `k`) whose closure overflows the cap only after many
//!   transition evaluations.
//!
//! # When compilation fails
//!
//! Ids are `u16`, so the enumeration aborts with
//! [`CompileError::StateSpaceTooLarge`] once it exceeds the requested
//! `max_states` cap (at most [`MAX_STATE_IDS`] = 2¹⁶). The cap matters
//! twice over: the transition table stores `|Λ|²` packed entries (4 bytes
//! each), so even before the id space overflows, large state spaces stop
//! paying — at the default cap of [`DEFAULT_MAX_COMPILED_STATES`] = 1024
//! the table occupies 4 MiB and stays cache-resident, while at the full
//! 2¹⁶ it would need 16 GiB. Protocols with polynomially many states
//! (e.g. the identifier protocol at realistic `k`) therefore run on the
//! lazily-compiling [`crate::LazyDenseExecutor`] instead; constant-state
//! protocols (token, star, majority) and small-parameter instances of
//! the fast protocol compile everywhere.
//! [`crate::EngineSelection::prepare`] automates exactly this
//! decision.

use super::FoldHashBuilder;
use crate::protocol::{Protocol, Role};
use popele_graph::NodeId;
use std::collections::HashMap;
use std::fmt;

/// Dense state identifier of a compiled protocol.
pub type StateId = u16;

/// Hard ceiling on the number of dense ids (`u16` space).
pub const MAX_STATE_IDS: usize = 1 << 16;

/// Default enumeration cap used by the auto-compiling entry points: the
/// resulting `|Λ|²` table of packed `u32` entries is at most 4 MiB.
pub const DEFAULT_MAX_COMPILED_STATES: usize = 1024;

/// Why a protocol could not be compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileError {
    /// The BFS closure exceeded the requested state cap.
    StateSpaceTooLarge {
        /// The cap that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::StateSpaceTooLarge { limit } => {
                write!(f, "reachable state space exceeds {limit} states")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// The reachable-state enumeration shared by [`CompiledProtocol::compile`]
/// and [`probe_state_space`]: a BFS closure under `transition` over all
/// ordered pairs, starting from the per-node initial states (plus any
/// extra seed states, for arbitrary-initialization runs).
struct Enumeration<S> {
    states: Vec<S>,
    ids: HashMap<S, StateId, FoldHashBuilder>,
    initial: Vec<StateId>,
    /// The packed successors `(a' << 16) | b'` of every ordered pair
    /// `(a, b)`, in evaluation order, one block per closure round (see
    /// [`Round`]): the closure evaluates each pair exactly once, and
    /// these are its results.
    rounds: Vec<Round>,
}

/// The pairs one closure round evaluated: with `closed` the states
/// closed before the round and `end` the frontier end, first the new
/// columns `closed..end` of each closed row `a < closed`, then the full
/// rows `closed..end` (columns `0..end`), row-major within each part.
struct Round {
    closed: usize,
    end: usize,
    entries: Vec<u32>,
}

/// Lays the closure's round blocks out as the row-major `k × k` table.
/// Each block is freed as soon as it is copied, and the table's zeroed
/// pages are touched only as rows fill, so blocks and table together
/// never hold more than 1.25 tables' worth of written entries.
fn assemble_table(rounds: Vec<Round>, k: usize) -> Vec<u32> {
    let mut table = vec![0u32; k * k];
    for Round {
        closed,
        end,
        entries,
    } in rounds
    {
        let (old_rows, new_rows) = entries.split_at(closed * (end - closed));
        for (a, cols) in old_rows.chunks_exact(end - closed).enumerate() {
            table[a * k + closed..a * k + end].copy_from_slice(cols);
        }
        for (a, cols) in (closed..).zip(new_rows.chunks_exact(end)) {
            table[a * k..a * k + end].copy_from_slice(cols);
        }
    }
    table
}

/// Why [`enumerate`] stopped before closing the state set.
enum EnumerateStop {
    /// More than `max_states` distinct states exist (exact verdict).
    CapExceeded,
    /// The transition-evaluation budget ran out first (no verdict).
    BudgetExhausted,
}

/// Runs the BFS closure with a state cap and a transition-evaluation
/// budget. `Ok` means the set closed within both limits; the eval budget
/// is what makes the probe's bounded-frontier rejection cheap (a closure
/// on `k ≤ max_states` states needs at most `k²` evaluations, so
/// `usize::MAX` makes the budget vacuous for full compilation).
fn enumerate<P: Protocol>(
    protocol: &P,
    num_nodes: u32,
    max_states: usize,
    mut eval_budget: usize,
    extra_seeds: &[P::State],
) -> Result<Enumeration<P::State>, EnumerateStop> {
    assert!(
        (1..=MAX_STATE_IDS).contains(&max_states),
        "max_states must be in 1..={MAX_STATE_IDS}"
    );
    let mut states: Vec<P::State> = Vec::new();
    let mut ids: HashMap<P::State, StateId, FoldHashBuilder> = HashMap::default();

    fn intern<S: Clone + Eq + std::hash::Hash>(
        s: &S,
        states: &mut Vec<S>,
        ids: &mut HashMap<S, StateId, FoldHashBuilder>,
        max_states: usize,
    ) -> Result<StateId, EnumerateStop> {
        if let Some(&id) = ids.get(s) {
            return Ok(id);
        }
        if states.len() >= max_states {
            return Err(EnumerateStop::CapExceeded);
        }
        let id = states.len() as StateId;
        states.push(s.clone());
        ids.insert(s.clone(), id);
        Ok(id)
    }

    let mut initial = Vec::with_capacity(num_nodes as usize);
    for v in 0..num_nodes {
        let s = protocol.initial_state(v);
        initial.push(intern(&s, &mut states, &mut ids, max_states)?);
    }
    for s in extra_seeds {
        intern(s, &mut states, &mut ids, max_states)?;
    }

    // BFS closure: repeatedly expand every ordered pair involving at
    // least one state discovered since the last round, recording each
    // result in the round's block. A round often adds a single state
    // (the fast protocol closes 828 states in ~440 rounds), so blocks
    // are sized exactly up front instead of growing per-state rows.
    let mut rounds = Vec::new();
    let mut closed_upto = 0usize;
    while closed_upto < states.len() {
        let frontier_end = states.len();
        let fresh = frontier_end - closed_upto;
        let mut entries = Vec::with_capacity(closed_upto * fresh + fresh * frontier_end);
        for a in 0..frontier_end {
            let first = if a < closed_upto { closed_upto } else { 0 };
            for b in first..frontier_end {
                if eval_budget == 0 {
                    return Err(EnumerateStop::BudgetExhausted);
                }
                eval_budget -= 1;
                let (na, nb) = protocol.transition(&states[a], &states[b]);
                let na = intern(&na, &mut states, &mut ids, max_states)?;
                let nb = intern(&nb, &mut states, &mut ids, max_states)?;
                entries.push((u32::from(na) << 16) | u32::from(nb));
            }
        }
        rounds.push(Round {
            closed: closed_upto,
            end: frontier_end,
            entries,
        });
        closed_upto = frontier_end;
    }
    Ok(Enumeration {
        states,
        ids,
        initial,
        rounds,
    })
}

/// Default transition-evaluation budget of the engine-selection probe
/// (see [`probe_state_space`]): enough for the bounded-frontier walk to
/// certify a cap overflow for every progress-counter-driven protocol in
/// the workspace (the identifier protocol mints two fresh states per
/// self-pair evaluation, so overflowing the default cap needs ~2·cap of
/// the ~3·cap walk evaluations) and for the small closures to complete
/// (a `k`-state protocol closes within `k²` evaluations), while bounding
/// the probe's worst case around a hundred microseconds — versus the
/// 7–10 ms a full quadratic closure-until-overflow costs (identifier
/// protocol at `n = 4000` against the default cap, on a 2-vCPU Xeon:
/// probe 70–100 µs, closure 7–10 ms).
pub const PROBE_EVAL_BUDGET: usize = 16 * DEFAULT_MAX_COMPILED_STATES;

/// Verdict of [`probe_state_space`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceProbe {
    /// The closure completed: exactly this many reachable states, all
    /// within the cap — compilation is guaranteed to succeed.
    Fits(usize),
    /// More than `max_states` reachable states exist (exact verdict —
    /// compilation is guaranteed to fail).
    TooLarge,
    /// The evaluation budget ran out before either verdict. Callers
    /// that need an exact answer fall through to a full
    /// [`CompiledProtocol::compile`]; callers that only need speed may
    /// treat this as "do not compile ahead of time".
    Inconclusive,
}

/// Bounded-frontier probe of the reachable state space: answers "would
/// [`CompiledProtocol::compile`] fit `max_states`?" within `eval_budget`
/// transition evaluations, in two phases.
///
/// **Phase 1 — overflow walk.** Discovering `max_states + 1` distinct
/// states is enough to certify [`SpaceProbe::TooLarge`], and it does not
/// require the full quadratic pair closure: the walk expands, per
/// discovered state `s`, only the bounded pair frontier `(s, s)`,
/// `(s, s₀)`, `(s₀, s)` (with `s₀` the first initial state) — linear in
/// the states discovered. For the state spaces that actually overflow
/// the cap — identifier generation (Theorem 21), clock/level counters of
/// full-scale fast instances, and the related space-optimal
/// constructions with the same "progress counter" shape — self-pairs
/// mint fresh states on almost every evaluation, so the verdict arrives
/// within a few thousand evaluations: **microseconds**, versus the
/// 7–10 ms the quadratic closure needs to overflow the same cap. That
/// difference is the point: sweep campaigns re-select the engine for
/// every shard.
///
/// **Phase 2 — budgeted closure.** If the walk exhausts its frontier
/// below the cap (it explores a subset of reachable pairs, so it cannot
/// certify completeness), the remaining budget runs the same BFS closure
/// as compilation. Small state spaces (every constant-state protocol)
/// close here almost immediately, yielding an exact
/// [`SpaceProbe::Fits`]; spaces that are large but not
/// walk-discoverable return [`SpaceProbe::Inconclusive`] and the caller
/// decides whether exactness is worth a full compile attempt.
///
/// Every state either phase discovers is genuinely reachable (everything
/// derives from initial states by `transition`), so `TooLarge` is never
/// a false positive; `Fits` comes only from a completed closure, so it
/// is exact too.
///
/// # Panics
///
/// Panics if `max_states` is `0` or exceeds [`MAX_STATE_IDS`].
#[must_use]
pub fn probe_state_space<P: Protocol>(
    protocol: &P,
    num_nodes: u32,
    max_states: usize,
    eval_budget: usize,
) -> SpaceProbe {
    let (verdict, used) = overflow_walk(protocol, num_nodes, max_states, eval_budget);
    match verdict {
        WalkVerdict::Exceeds => SpaceProbe::TooLarge,
        WalkVerdict::Budget => SpaceProbe::Inconclusive,
        // Phase 2: budgeted closure (the walk's pair subset proves
        // nothing about completeness). Restarting from the initial
        // states is exactly `enumerate`; the walk's states are all
        // rediscovered within its first rounds.
        WalkVerdict::Exhausted => {
            match enumerate(protocol, num_nodes, max_states, eval_budget - used, &[]) {
                Ok(e) => SpaceProbe::Fits(e.states.len()),
                Err(EnumerateStop::CapExceeded) => SpaceProbe::TooLarge,
                Err(EnumerateStop::BudgetExhausted) => SpaceProbe::Inconclusive,
            }
        }
    }
}

/// Outcome of the phase-1 overflow walk ([`overflow_walk`]).
pub(crate) enum WalkVerdict {
    /// More than `max_states` distinct states were discovered (exact:
    /// everything the walk visits is reachable).
    Exceeds,
    /// The walk's bounded pair frontier closed below the cap — no
    /// verdict about the full closure.
    Exhausted,
    /// The budget ran out while fresh states kept appearing.
    Budget,
}

/// Phase-1 overflow walk, shared by [`probe_state_space`] and the
/// engine-selection fast path (which, on anything but `Exceeds`, goes
/// straight to a single [`CompiledProtocol::compile`] instead of paying
/// the probe's closure *and* the compile's). Returns the verdict and the
/// number of transition evaluations consumed.
///
/// # Panics
///
/// Panics if `max_states` is `0` or exceeds [`MAX_STATE_IDS`].
pub(crate) fn overflow_walk<P: Protocol>(
    protocol: &P,
    num_nodes: u32,
    max_states: usize,
    eval_budget: usize,
) -> (WalkVerdict, usize) {
    assert!(
        (1..=MAX_STATE_IDS).contains(&max_states),
        "max_states must be in 1..={MAX_STATE_IDS}"
    );
    let mut states: Vec<P::State> = Vec::new();
    let mut ids: HashMap<P::State, StateId, FoldHashBuilder> = HashMap::default();
    let mut budget = eval_budget;

    // Local intern without the cap bail: the walk *wants* to exceed the
    // cap (that is the verdict), it only stops at `max_states + 1`.
    let mut intern = |s: &P::State, states: &mut Vec<P::State>| {
        if let Some(&id) = ids.get(s) {
            return id;
        }
        let id = states.len() as StateId;
        states.push(s.clone());
        ids.insert(s.clone(), id);
        id
    };

    for v in 0..num_nodes {
        let s = protocol.initial_state(v);
        intern(&s, &mut states);
        if states.len() > max_states {
            return (WalkVerdict::Exceeds, eval_budget - budget);
        }
    }

    let mut i = 0usize;
    while i < states.len() && budget >= 3 {
        let pairs = [(i, i), (i, 0), (0, i)];
        for (a, b) in pairs {
            budget -= 1;
            let (na, nb) = protocol.transition(&states[a], &states[b]);
            intern(&na, &mut states);
            intern(&nb, &mut states);
            if states.len() > max_states {
                return (WalkVerdict::Exceeds, eval_budget - budget);
            }
        }
        i += 1;
    }
    let verdict = if i < states.len() {
        WalkVerdict::Budget
    } else {
        WalkVerdict::Exhausted
    };
    (verdict, eval_budget - budget)
}

/// A protocol lowered to dense ids with fully precomputed transition and
/// output tables. Shared (immutably) by every executor and Monte-Carlo
/// worker thread that runs it.
///
/// # Examples
///
/// ```
/// use popele_engine::{CompiledProtocol, DenseExecutor, Role};
/// # use popele_engine::{LeaderCountOracle, Protocol};
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
/// // `Absorb` is a two-state protocol: the initiator absorbs the
/// // responder's leadership. Compilation enumerates both states and
/// // precomputes every transition.
/// let compiled = CompiledProtocol::compile(&Absorb, 20, 16).unwrap();
/// assert_eq!(compiled.num_states(), 2);
/// let leader = compiled.state_id(&true).unwrap();
/// let follower = compiled.state_id(&false).unwrap();
/// assert_eq!(compiled.successor(leader, leader), (leader, follower));
/// assert_eq!(compiled.role(leader), Role::Leader);
///
/// // The table drives a [`DenseExecutor`] over any 20-node graph.
/// let g = popele_graph::families::clique(20);
/// let outcome = DenseExecutor::new(&g, &compiled, 7)
///     .run_until_stable(1 << 22)
///     .unwrap();
/// assert_eq!(outcome.leader_count, 1);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledProtocol<P: Protocol> {
    pub(crate) protocol: P,
    /// Id → typed state.
    pub(crate) states: Vec<P::State>,
    /// Typed state → id (kept for introspection and differential tests).
    ids: HashMap<P::State, StateId, FoldHashBuilder>,
    /// Node → id of its initial state; length `num_nodes`.
    pub(crate) initial: Vec<StateId>,
    /// Flat `k × k` successor table, entry `a·k + b` packing
    /// `(a' << 16) | b'`.
    pub(crate) table: Vec<u32>,
    /// Per table entry: net change in the number of leader-output nodes,
    /// `role(a') + role(b') − role(a) − role(b)` (each counted as 1 for
    /// leader). Lets executors with a unique-leader oracle maintain the
    /// leader count with one add instead of a typed oracle call.
    pub(crate) leader_delta: Vec<i8>,
    /// For `|Λ| ≤ 256` only: the successor pair *and* leader delta of
    /// entry `(a << 8) | b` packed into one word —
    /// `(delta + 2) << 16 | a' << 8 | b'` — padded to 256 columns so the
    /// index is a shift-or instead of a multiply. One load serves the
    /// whole hot-loop update for constant-state protocols.
    pub(crate) fused: Option<Vec<u32>>,
    /// Id → output role.
    pub(crate) roles: Vec<Role>,
    num_nodes: u32,
}

impl<P: Protocol + Clone> CompiledProtocol<P> {
    /// Enumerates the reachable state space of `protocol` for executions
    /// on `num_nodes` nodes and precomputes the transition/output tables.
    ///
    /// The enumeration starts from `initial_state(v)` for every node `v`
    /// and closes under `transition` on all ordered pairs, so it is
    /// graph-independent apart from the node count (which protocols may
    /// use for non-uniform inputs, e.g. candidate sets).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::StateSpaceTooLarge`] if more than
    /// `max_states` distinct states are discovered.
    ///
    /// # Panics
    ///
    /// Panics if `max_states` is `0` or exceeds [`MAX_STATE_IDS`].
    pub fn compile(protocol: &P, num_nodes: u32, max_states: usize) -> Result<Self, CompileError> {
        Self::compile_with_seeds(protocol, num_nodes, max_states, &[])
    }

    /// Like [`CompiledProtocol::compile`], but additionally closes the
    /// enumeration over `extra_seeds` — states that are not reachable
    /// from the clean initial configuration but can occur as *starting*
    /// states (the support of an
    /// [`crate::stabilize::ArbitraryInit`] sampler). The resulting table
    /// covers every pair an arbitrarily-initialized execution can
    /// sample, which is what lets
    /// [`crate::stabilize::run_trials_stabilize_auto_prepared`] run
    /// self-stabilization workloads on the ahead-of-time engine.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::StateSpaceTooLarge`] if more than
    /// `max_states` distinct states are discovered (seed states count).
    ///
    /// # Panics
    ///
    /// Panics if `max_states` is `0` or exceeds [`MAX_STATE_IDS`].
    pub fn compile_with_seeds(
        protocol: &P,
        num_nodes: u32,
        max_states: usize,
        extra_seeds: &[P::State],
    ) -> Result<Self, CompileError> {
        // A set of k ≤ max_states states closes within k² ≤ max_states²
        // evaluations, so the budget below never fires: compilation
        // stops only at the cap, exactly as before the probe existed.
        let Enumeration {
            states,
            ids,
            initial,
            rounds,
        } = enumerate(protocol, num_nodes, max_states, usize::MAX, extra_seeds)
            .map_err(|_| CompileError::StateSpaceTooLarge { limit: max_states })?;

        // The closure already evaluated every pair: its results are the
        // table, and the derived tables need no transition call.
        let k = states.len();
        let table = assemble_table(rounds, k);
        let roles: Vec<Role> = states.iter().map(|s| protocol.output(s)).collect();
        let leader: Vec<i8> = roles.iter().map(|&r| i8::from(r == Role::Leader)).collect();
        let mut leader_delta = Vec::with_capacity(k * k);
        for (a, row) in table.chunks_exact(k.max(1)).enumerate() {
            for (b, &packed) in row.iter().enumerate() {
                let (na, nb) = ((packed >> 16) as usize, (packed & 0xFFFF) as usize);
                leader_delta.push(leader[na] + leader[nb] - leader[a] - leader[b]);
            }
        }

        let fused = (k <= 256).then(|| {
            let mut fused = vec![0u32; k << 8];
            for a in 0..k {
                for b in 0..k {
                    let packed = table[a * k + b];
                    let (na, nb) = (packed >> 16, packed & 0xFFFF);
                    let delta = (i32::from(leader_delta[a * k + b]) + 2) as u32;
                    fused[(a << 8) | b] = (delta << 16) | (na << 8) | nb;
                }
            }
            fused
        });

        Ok(Self {
            protocol: protocol.clone(),
            states,
            ids,
            initial,
            table,
            leader_delta,
            fused,
            roles,
            num_nodes,
        })
    }

    /// Compiles with the [`DEFAULT_MAX_COMPILED_STATES`] cap.
    ///
    /// # Errors
    ///
    /// As [`CompiledProtocol::compile`].
    pub fn compile_default(protocol: &P, num_nodes: u32) -> Result<Self, CompileError> {
        Self::compile(protocol, num_nodes, DEFAULT_MAX_COMPILED_STATES)
    }
}

impl<P: Protocol> CompiledProtocol<P> {
    /// The compiled protocol instance.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Number of enumerated states `|Λ|`.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Node count the compilation was performed for.
    #[must_use]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// The enumerated states, indexed by id.
    #[must_use]
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// The dense id of `state`, if it was enumerated.
    #[must_use]
    pub fn state_id(&self, state: &P::State) -> Option<StateId> {
        self.ids.get(state).copied()
    }

    /// Initial-state id of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn initial_id(&self, v: NodeId) -> StateId {
        self.initial[v as usize]
    }

    /// Precomputed successor pair of the ordered interaction `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    #[must_use]
    pub fn successor(&self, a: StateId, b: StateId) -> (StateId, StateId) {
        let packed = self.table[a as usize * self.states.len() + b as usize];
        ((packed >> 16) as StateId, packed as StateId)
    }

    /// Precomputed net change in the number of leader-output nodes when
    /// the ordered interaction `(a, b)` fires (see
    /// [`CompiledProtocol::successor`]).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[must_use]
    pub fn leader_delta(&self, a: StateId, b: StateId) -> i8 {
        let k = self.states.len();
        assert!(usize::from(a.max(b)) < k, "state id out of range");
        self.leader_delta[usize::from(a) * k + usize::from(b)]
    }

    /// The fused-table entry of `(a, b)` unpacked into successor pair
    /// and leader delta, or `None` above 256 states, where no fused
    /// table is built.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[must_use]
    pub fn fused_entry(&self, a: StateId, b: StateId) -> Option<(StateId, StateId, i8)> {
        assert!(
            usize::from(a.max(b)) < self.states.len(),
            "state id out of range"
        );
        let word = self.fused.as_ref()?[(usize::from(a) << 8) | usize::from(b)];
        let delta = ((word >> 16) as i32 - 2) as i8;
        Some((
            ((word >> 8) & 0xFF) as StateId,
            (word & 0xFF) as StateId,
            delta,
        ))
    }

    /// Precomputed output role of state id `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[inline]
    #[must_use]
    pub fn role(&self, s: StateId) -> Role {
        self.roles[s as usize]
    }

    /// Size of the transition table in bytes (capacity planning aid).
    #[must_use]
    pub fn table_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::LeaderCountOracle;

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
    }

    /// A protocol with an unbounded (counter) state space: compilation
    /// must bail out at the cap.
    #[derive(Debug, Clone, Copy)]
    struct Counter;

    impl Protocol for Counter {
        type State = u64;
        type Oracle = LeaderCountOracle;

        fn initial_state(&self, _node: NodeId) -> u64 {
            0
        }

        fn transition(&self, a: &u64, b: &u64) -> (u64, u64) {
            (a + 1, *b)
        }

        fn output(&self, _s: &u64) -> Role {
            Role::Follower
        }

        fn oracle(&self) -> LeaderCountOracle {
            LeaderCountOracle::new()
        }
    }

    #[test]
    fn compile_enumerates_absorb() {
        let c = CompiledProtocol::compile(&Absorb, 8, 16).unwrap();
        assert_eq!(c.num_states(), 2);
        assert_eq!(c.num_nodes(), 8);
        let t = c.state_id(&true).unwrap();
        let f = c.state_id(&false).unwrap();
        assert_eq!(c.successor(t, t), (t, f));
        assert_eq!(c.successor(t, f), (t, f));
        assert_eq!(c.role(t), Role::Leader);
        assert_eq!(c.role(f), Role::Follower);
        assert_eq!(c.initial_id(3), t);
        assert_eq!(c.table_bytes(), 16);
    }

    /// Clamps every state to `{0, 1}`: state `2` is unreachable from the
    /// all-zero initial configuration but decays into the closure.
    #[derive(Clone, Copy)]
    struct Clamp;

    impl Protocol for Clamp {
        type State = u8;
        type Oracle = LeaderCountOracle;

        fn initial_state(&self, _node: NodeId) -> u8 {
            0
        }

        fn transition(&self, a: &u8, b: &u8) -> (u8, u8) {
            ((*a).min(1), (*b).min(1))
        }

        fn output(&self, _s: &u8) -> Role {
            Role::Follower
        }

        fn oracle(&self) -> LeaderCountOracle {
            LeaderCountOracle::new()
        }
    }

    #[test]
    fn compile_with_seeds_covers_unreachable_start_states() {
        // The clean closure never sees 1 or 2…
        let plain = CompiledProtocol::compile(&Clamp, 4, 16).unwrap();
        assert_eq!(plain.num_states(), 1);
        assert_eq!(plain.state_id(&2), None);
        // …but seeding the enumeration with the arbitrary-start support
        // interns them and closes over their successors.
        let seeded = CompiledProtocol::compile_with_seeds(&Clamp, 4, 16, &[2]).unwrap();
        assert_eq!(seeded.num_states(), 3);
        let two = seeded.state_id(&2).unwrap();
        let one = seeded.state_id(&1).unwrap();
        assert_eq!(seeded.successor(two, two), (one, one));
        // Seed states count against the cap.
        assert!(CompiledProtocol::compile_with_seeds(&Clamp, 4, 2, &[2]).is_err());
    }

    #[test]
    fn compile_caps_unbounded_spaces() {
        assert_eq!(
            CompiledProtocol::compile(&Counter, 4, 32).unwrap_err(),
            CompileError::StateSpaceTooLarge { limit: 32 }
        );
        let msg = format!("{}", CompileError::StateSpaceTooLarge { limit: 32 });
        assert!(msg.contains("32"));
    }

    #[test]
    fn probe_fits_matches_compile() {
        assert_eq!(
            probe_state_space(&Absorb, 8, 16, PROBE_EVAL_BUDGET),
            SpaceProbe::Fits(2)
        );
    }

    #[test]
    fn probe_rejects_unbounded_spaces_within_budget() {
        // The counter protocol mints a fresh state on every pair, so the
        // probe reaches its exact TooLarge verdict long before the
        // budget: overflowing a cap of 32 takes ≈ 32 evaluations.
        assert_eq!(
            probe_state_space(&Counter, 4, 32, PROBE_EVAL_BUDGET),
            SpaceProbe::TooLarge
        );
    }

    #[test]
    fn probe_reports_inconclusive_on_budget_exhaustion() {
        // With a 1-evaluation budget even the 2-state protocol cannot
        // close its pair set.
        assert_eq!(
            probe_state_space(&Absorb, 8, 16, 1),
            SpaceProbe::Inconclusive
        );
    }
}
