//! Count-based batch engine for clique populations.
//!
//! On a clique the uniform ordered-pair scheduler is exchangeable over
//! agents, so a configuration is fully described by a **count vector**
//! over the `|Λ|` compiled states and interactions can be drawn in
//! collision-free *batches* instead of one at a time. An epoch works on
//! counts alone:
//!
//! 1. **Horizon.** Sample the first step `T` whose pair touches an agent
//!    already used this epoch. The hazard of step `i` is
//!    `h(i) = 1 − (n−2(i−1))(n−2(i−1)−1)/(n(n−1))`, increasing in `i`;
//!    `T` is drawn exactly by geometric thinning over doubling blocks
//!    (propose with the block's maximal hazard, accept with ratio
//!    `h(i)/h_max`), capped at `ℓ_max ≈ √n` so epochs stay O(√n).
//! 2. **Batch.** The `ℓ = min(T−1, ℓ_max)` collision-free steps involve
//!    `2ℓ` *distinct* delegates — a uniform without-replacement sample.
//!    Draw the initiator multiset by a chained conditional
//!    [`Hypergeometric`] over the state counts, the responder multiset
//!    from the residue, and the pairing by a further hypergeometric
//!    split per initiator state; by exchangeability every marginal is
//!    exact. Apply the `|Λ|²` transition and leader-delta tables once
//!    per `(state-pair, batch-count)`.
//! 3. **Collision.** If `T ≤ ℓ_max`, step `T` is a single interaction
//!    conditioned on touching the delegate set `U` (`|U| = 2ℓ`): choose
//!    among the cases *both in `U`*, *initiator only*, *responder only*
//!    with exact ordered-pair weights `2ℓ(2ℓ−1)`, `2ℓ(n−2ℓ)`,
//!    `(n−2ℓ)2ℓ`, then draw the states from the delegates'
//!    post-transition census and/or the untouched counts.
//!
//! Stability is checked at epoch boundaries only. Because the oracles
//! certify *stability* (no reachable configuration changes any output),
//! their verdict is monotone along a trajectory, so a transient
//! mid-batch "stable" is impossible; when an epoch ends stable, the
//! batch is inverted, materialized, shuffled (uniform order of an
//! exchangeable batch — exact), and replayed one interaction at a time
//! to pin the exact first stable step. The engine is therefore
//! **exact in distribution** with respect to the sequential scheduler —
//! trace identity is impossible by construction (the random stream is
//! consumed batch-wise), which is why correctness is pinned by
//! distribution-level differential tests instead.
//!
//! Eligibility: the protocol's oracle must either be *linear*
//! ([`StabilityOracle::stable_iff_unique_leader`], served by the
//! precomputed leader-delta table) or *census-capable*
//! ([`StabilityOracle::recompute_census`]). Protocols whose oracle
//! needs per-node identity (e.g. the identifier protocol) are not
//! eligible, and neither is any non-clique graph.

use super::table::{CompileError, CompiledProtocol, StateId};
use crate::executor::{NotStabilized, Outcome};
use crate::protocol::{Protocol, Role, StabilityOracle};
use popele_math::dist::{Geometric, Hypergeometric};
use popele_math::rng::small_rng;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::cmp::Reverse;

/// State-count cap for count-engine compilation. Higher than
/// [`super::table::DEFAULT_MAX_COMPILED_STATES`] because the count
/// engine's memory is `O(|Λ|²)` table entries with **no** per-agent
/// storage, so a few thousand states cost megabytes, not gigabytes.
pub const COUNT_MAX_COMPILED_STATES: usize = 4096;

/// Smallest population for which the sweep layer's clique-cell routing
/// prefers the count engine. Below this a clique's edge list is still
/// materializable (`2^15` nodes ≈ `5·10⁸` ordered pairs) and the
/// sequential dense engines win on per-step constants.
pub const COUNT_MIN_AGENTS: u64 = 1 << 15;

/// Whether a protocol's stability oracle can be evaluated from a state
/// census alone, which is what the count engine requires.
///
/// True when the oracle is linear
/// ([`StabilityOracle::stable_iff_unique_leader`]) or census-capable
/// ([`StabilityOracle::recompute_census`]).
#[must_use]
pub fn count_supported<P: Protocol>(protocol: &P) -> bool {
    let mut oracle = protocol.oracle();
    oracle.stable_iff_unique_leader() || oracle.recompute_census(protocol, &[])
}

/// Compiles a protocol for the count engine.
///
/// The per-agent compile interns every node's initial state, which at
/// the count tier's populations (`n = 10⁹`) is out of the question;
/// instead the closure is seeded with the states of
/// [`Protocol::initial_census`]`(num_agents)`, in census order, so ids
/// follow the states' first occurrence by node id. The result covers
/// every initial state of the real range and has no per-node initial
/// vector ([`CompiledProtocol::num_nodes`] is 0). The census costs what
/// the protocol's implementation costs: `O(1)` for the workspace's
/// count-eligible protocols, a scan of every agent for the default.
///
/// # Errors
///
/// [`CompileError::StateSpaceTooLarge`] if the closure exceeds
/// [`COUNT_MAX_COMPILED_STATES`].
///
/// # Panics
///
/// Panics if `num_agents < 2` or `num_agents > u32::MAX` (node ids are
/// 32-bit).
pub fn compile_for_count<P: Protocol + Clone>(
    protocol: &P,
    num_agents: u64,
) -> Result<CompiledProtocol<P>, CompileError> {
    assert!(num_agents >= 2, "count engine requires at least two agents");
    assert!(
        num_agents <= u64::from(u32::MAX),
        "count engine node ids are 32-bit; got {num_agents} agents"
    );
    let seeds: Vec<P::State> = protocol
        .initial_census(num_agents)
        .into_iter()
        .map(|(state, _)| state)
        .collect();
    CompiledProtocol::compile_with_seeds(protocol, 0, COUNT_MAX_COMPILED_STATES, &seeds)
}

/// The count-based batch executor (see the [module docs](self)).
///
/// Mirrors [`super::DenseExecutor`]'s surface (`reset`,
/// `run_until_stable`, [`Outcome`]) but holds no per-agent state at
/// all: memory is `O(|Λ|)` counters over a borrowed compiled table.
pub struct CountEngine<'c, P: Protocol> {
    compiled: &'c CompiledProtocol<P>,
    num_agents: u64,
    num_states: usize,
    /// Initial count vector, cached so `reset` is `O(|Λ|)` rather than
    /// a fresh census.
    initial_counts: Vec<u64>,
    counts: Vec<u64>,
    /// Ids with (possibly) nonzero count, compacted and sorted by
    /// descending count at each epoch so the hypergeometric chains
    /// terminate after the few large state classes.
    active: Vec<StateId>,
    is_active: Vec<bool>,
    seen: Vec<bool>,
    seen_count: usize,
    /// Oracle mode: linear oracles are served by the leader-delta
    /// table (`leaders` below), census-capable ones by
    /// [`StabilityOracle::recompute_census`].
    linear: bool,
    leaders: i64,
    oracle: P::Oracle,
    rng: SmallRng,
    steps: u64,
    epoch_cap: u64,
    // Scratch buffers, reused across epochs.
    initiators: Vec<(StateId, u64)>,
    responders: Vec<(StateId, u64)>,
    pairs: Vec<(StateId, StateId, u64)>,
    used: Vec<u64>,
    used_touched: Vec<StateId>,
    census: Vec<(P::State, u64)>,
    replay: Vec<(StateId, StateId)>,
}

impl<'c, P: Protocol> CountEngine<'c, P> {
    /// Creates a count engine over `num_agents` clique agents.
    ///
    /// Maps [`Protocol::initial_census`]`(num_agents)` through the
    /// compiled ids — `O(|census|)` on top of the census itself, which
    /// is `O(1)` for the workspace's count-eligible protocols — and
    /// caches the resulting count vector for [`CountEngine::reset`].
    ///
    /// # Panics
    ///
    /// Panics if `num_agents < 2` or exceeds `u32::MAX`, if the
    /// protocol's oracle is neither linear nor census-capable (see
    /// [`count_supported`]), or if some initial state is outside the
    /// compiled closure (compile via [`compile_for_count`]).
    #[must_use]
    pub fn new(compiled: &'c CompiledProtocol<P>, num_agents: u64, seed: u64) -> Self {
        assert!(num_agents >= 2, "count engine requires at least two agents");
        assert!(
            num_agents <= u64::from(u32::MAX),
            "count engine node ids are 32-bit; got {num_agents} agents"
        );
        let protocol = compiled.protocol();
        let mut oracle = protocol.oracle();
        let linear = oracle.stable_iff_unique_leader();
        assert!(
            linear || oracle.recompute_census(protocol, &[]),
            "count engine requires a linear or census-capable stability oracle"
        );
        let k = compiled.num_states();
        let mut initial_counts = vec![0u64; k];
        for (state, count) in protocol.initial_census(num_agents) {
            let id = compiled.state_id(&state).unwrap_or_else(|| {
                panic!(
                    "initial state {state:?} is outside the compiled closure; \
                     compile with compile_for_count"
                )
            });
            initial_counts[usize::from(id)] += count;
        }
        // √n epochs balance the collision-free horizon (birthday bound)
        // against per-epoch overhead; 2·cap ≤ n keeps the delegate set
        // drawable without replacement.
        let epoch_cap =
            ((num_agents as f64).sqrt().ceil() as u64).clamp(1, (num_agents / 2).max(1));
        let mut engine = Self {
            compiled,
            num_agents,
            num_states: k,
            initial_counts,
            counts: vec![0; k],
            active: Vec::new(),
            is_active: vec![false; k],
            seen: vec![false; k],
            seen_count: 0,
            linear,
            leaders: 0,
            oracle,
            rng: small_rng(seed),
            steps: 0,
            epoch_cap,
            initiators: Vec::new(),
            responders: Vec::new(),
            pairs: Vec::new(),
            used: vec![0; k],
            used_touched: Vec::new(),
            census: Vec::new(),
            replay: Vec::new(),
        };
        engine.reset(seed);
        engine
    }

    /// Restores the initial configuration and reseeds the RNG, reusing
    /// the cached initial count vector (`O(|Λ|)`, not `O(n)`).
    pub fn reset(&mut self, seed: u64) {
        self.counts.copy_from_slice(&self.initial_counts);
        self.rng = small_rng(seed);
        self.steps = 0;
        self.is_active.fill(false);
        self.seen.fill(false);
        self.seen_count = 0;
        self.active.clear();
        self.leaders = 0;
        for idx in 0..self.num_states {
            if self.counts[idx] > 0 {
                self.activate(idx as StateId);
                if self.compiled.role(idx as StateId) == Role::Leader {
                    self.leaders += self.counts[idx] as i64;
                }
            }
        }
    }

    /// Number of agents.
    #[must_use]
    pub fn num_agents(&self) -> u64 {
        self.num_agents
    }

    /// Interactions applied since the last reset.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The current count vector, indexed by compiled [`StateId`].
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of states that have held a nonzero count since the last
    /// reset (the count-space analogue of the state census).
    #[must_use]
    pub fn distinct_states(&self) -> usize {
        self.seen_count
    }

    /// Current number of leader-output agents.
    #[must_use]
    pub fn leader_count(&self) -> usize {
        if self.linear {
            self.leaders as usize
        } else {
            self.active
                .iter()
                .filter(|&&id| self.compiled.role(id) == Role::Leader)
                .map(|&id| self.counts[id as usize])
                .sum::<u64>() as usize
        }
    }

    /// Whether the current configuration is stable with a unique leader.
    pub fn stable_now(&mut self) -> bool {
        if self.linear {
            return self.leaders == 1;
        }
        self.census.clear();
        for i in 0..self.active.len() {
            let id = self.active[i] as usize;
            let c = self.counts[id];
            if c > 0 {
                self.census.push((self.compiled.states()[id].clone(), c));
            }
        }
        let supported = self
            .oracle
            .recompute_census(self.compiled.protocol(), &self.census);
        debug_assert!(supported, "oracle lost census support mid-run");
        self.oracle.is_stable()
    }

    /// Runs until the oracle reports stability or `max_steps`
    /// interactions have been applied, whichever is first.
    ///
    /// The reported [`Outcome::stabilization_step`] is the exact first
    /// stable step (batches are replayed in a uniform shuffle to locate
    /// it); [`Outcome::leader`] is always `None` — agents have no
    /// identity here — and [`Outcome::distinct_states`] counts states
    /// that ever held a nonzero count.
    ///
    /// # Errors
    ///
    /// [`NotStabilized`] if the budget is exhausted first.
    pub fn run_until_stable(&mut self, max_steps: u64) -> Result<Outcome, NotStabilized> {
        if self.stable_now() {
            return Ok(self.outcome());
        }
        while self.steps < max_steps {
            if self.epoch(max_steps, true) {
                return Ok(self.outcome());
            }
        }
        Err(NotStabilized { max_steps })
    }

    /// Applies exactly `steps` further interactions, ignoring
    /// stability. Used for throughput measurement.
    pub fn run_steps(&mut self, steps: u64) {
        let target = self.steps + steps;
        while self.steps < target {
            self.epoch(target, false);
        }
    }

    fn outcome(&self) -> Outcome {
        Outcome {
            stabilization_step: self.steps,
            leader_count: self.leader_count(),
            leader: None,
            distinct_states: Some(self.seen_count),
        }
    }

    fn activate(&mut self, id: StateId) {
        let idx = id as usize;
        if !self.is_active[idx] {
            self.is_active[idx] = true;
            self.active.push(id);
            if !self.seen[idx] {
                self.seen[idx] = true;
                self.seen_count += 1;
            }
        }
    }

    /// Drops drained states and sorts by descending count.
    fn compact_active(&mut self) {
        let counts = &self.counts;
        let is_active = &mut self.is_active;
        self.active.retain(|&id| {
            if counts[id as usize] > 0 {
                true
            } else {
                is_active[id as usize] = false;
                false
            }
        });
        self.active
            .sort_unstable_by_key(|&id| Reverse(counts[id as usize]));
    }

    /// Runs one epoch; returns true iff the run became stable (only
    /// checked when `check` is set). Applies at least one interaction
    /// provided `self.steps < max_steps`.
    fn epoch(&mut self, max_steps: u64, check: bool) -> bool {
        let budget = max_steps - self.steps;
        debug_assert!(budget > 0);
        self.compact_active();
        let (mut l, mut collide) = match self.sample_first_collision() {
            Some(t) => (t - 1, true),
            None => (self.epoch_cap, false),
        };
        if l >= budget {
            // Truncating at the budget keeps an exact process prefix;
            // the collision step (step l+1) no longer fits.
            l = budget;
            collide = false;
        }
        if l > 0 {
            self.draw_batch(l);
            self.apply_batch();
            self.steps += l;
            if check && self.stable_now() {
                self.locate_first_stable_step(l);
                return true;
            }
        }
        if collide {
            self.collision_step(l);
            self.steps += 1;
            if check && self.stable_now() {
                return true;
            }
        }
        false
    }

    /// Samples the first epoch step whose pair touches an earlier
    /// delegate, or `None` if none occurs within `epoch_cap` steps.
    /// Exact: geometric thinning against each doubling block's maximal
    /// hazard (the hazard is increasing).
    fn sample_first_collision(&mut self) -> Option<u64> {
        let n = self.num_agents as f64;
        let denom = n * (n - 1.0);
        let cap = self.epoch_cap;
        let hazard = |i: u64| -> f64 {
            let free = n - 2.0 * ((i - 1) as f64);
            (1.0 - free * (free - 1.0) / denom).clamp(0.0, 1.0)
        };
        // hazard(1) = 0: the first step cannot collide.
        let mut lo = 2u64;
        while lo <= cap {
            let hi = (lo * 2).min(cap);
            let p_max = hazard(hi);
            if p_max <= 0.0 {
                lo = hi + 1;
                continue;
            }
            let geo = Geometric::new(p_max);
            let mut pos = lo - 1;
            loop {
                pos = pos.saturating_add(geo.sample(&mut self.rng));
                if pos > hi {
                    break;
                }
                if self.rng.random::<f64>() * p_max < hazard(pos) {
                    return Some(pos);
                }
            }
            lo = hi + 1;
        }
        None
    }

    /// Draws the `l` collision-free pairs into `self.pairs` and removes
    /// the `2l` delegates from `self.counts`.
    fn draw_batch(&mut self, l: u64) {
        // Initiator multiset: l of n agents without replacement.
        self.initiators.clear();
        let mut pool = self.num_agents;
        let mut need = l;
        for i in 0..self.active.len() {
            if need == 0 {
                break;
            }
            let id = self.active[i];
            let avail = self.counts[id as usize];
            if avail == 0 {
                continue;
            }
            let k = if avail >= pool {
                need
            } else {
                Hypergeometric::new(pool, avail, need).sample(&mut self.rng)
            };
            pool -= avail;
            if k > 0 {
                self.initiators.push((id, k));
                need -= k;
            }
        }
        debug_assert_eq!(need, 0, "initiator draw under-allocated");
        for i in 0..self.initiators.len() {
            let (id, k) = self.initiators[i];
            self.counts[id as usize] -= k;
        }
        // Responder multiset: l of the remaining n−l agents.
        self.responders.clear();
        let mut pool = self.num_agents - l;
        let mut need = l;
        for i in 0..self.active.len() {
            if need == 0 {
                break;
            }
            let id = self.active[i];
            let avail = self.counts[id as usize];
            if avail == 0 {
                continue;
            }
            let k = if avail >= pool {
                need
            } else {
                Hypergeometric::new(pool, avail, need).sample(&mut self.rng)
            };
            pool -= avail;
            if k > 0 {
                self.responders.push((id, k));
                need -= k;
            }
        }
        debug_assert_eq!(need, 0, "responder draw under-allocated");
        for i in 0..self.responders.len() {
            let (id, k) = self.responders[i];
            self.counts[id as usize] -= k;
        }
        // Uniform pairing: each initiator class's partners are a
        // multivariate hypergeometric draw from the remaining
        // responders (exact, by exchangeability of the matching).
        self.pairs.clear();
        let mut resp_total = l;
        for ii in 0..self.initiators.len() {
            let (a, ia) = self.initiators[ii];
            let mut need = ia;
            let mut pool = resp_total;
            for ri in 0..self.responders.len() {
                if need == 0 {
                    break;
                }
                let (b, rb) = self.responders[ri];
                if rb == 0 {
                    continue;
                }
                let k = if rb >= pool {
                    need
                } else {
                    Hypergeometric::new(pool, rb, need).sample(&mut self.rng)
                };
                pool -= rb;
                if k > 0 {
                    self.responders[ri].1 -= k;
                    need -= k;
                    self.pairs.push((a, b, k));
                }
            }
            debug_assert_eq!(need, 0, "pairing under-allocated");
            resp_total -= ia;
        }
    }

    /// Applies `self.pairs` to the counts (delegates were already
    /// removed by [`Self::draw_batch`]) and records the delegates'
    /// post-transition census in `self.used` for the collision step.
    fn apply_batch(&mut self) {
        for i in 0..self.used_touched.len() {
            let id = self.used_touched[i];
            self.used[id as usize] = 0;
        }
        self.used_touched.clear();
        for pi in 0..self.pairs.len() {
            let (a, b, k) = self.pairs[pi];
            let (a2, b2) = self.compiled.successor(a, b);
            self.counts[a2 as usize] += k;
            self.counts[b2 as usize] += k;
            self.activate(a2);
            self.activate(b2);
            for post in [a2, b2] {
                if self.used[post as usize] == 0 {
                    self.used_touched.push(post);
                }
                self.used[post as usize] += k;
            }
            if self.linear {
                self.leaders += i64::from(self.delta(a, b)) * k as i64;
            }
        }
    }

    fn delta(&self, a: StateId, b: StateId) -> i8 {
        self.compiled.leader_delta[a as usize * self.num_states + b as usize]
    }

    /// Applies one interaction `(a, b)` directly to the counts.
    fn apply_single(&mut self, a: StateId, b: StateId) {
        let (a2, b2) = self.compiled.successor(a, b);
        self.counts[a as usize] -= 1;
        self.counts[b as usize] -= 1;
        self.counts[a2 as usize] += 1;
        self.counts[b2 as usize] += 1;
        self.activate(a2);
        self.activate(b2);
        if self.linear {
            self.leaders += i64::from(self.delta(a, b));
        }
    }

    /// The collision step: one interaction conditioned on touching the
    /// delegate set `U` (`|U| = 2l`, post-transition census in
    /// `self.used`), with exact ordered-pair case weights.
    fn collision_step(&mut self, l: u64) {
        let two_l = 2 * l;
        let rest = self.num_agents - two_l;
        // Integer weights below 2^53 (l ≤ √n, n ≤ 2^32), exact in f64.
        let w_uu = (two_l * (two_l - 1)) as f64;
        let w_un = (two_l * rest) as f64;
        let total = w_uu + 2.0 * w_un;
        let r = self.rng.random::<f64>() * total;
        let (a, b) = if r < w_uu {
            let a = self.pick_used(two_l, None);
            let b = self.pick_used(two_l - 1, Some(a));
            (a, b)
        } else if r < w_uu + w_un {
            (self.pick_used(two_l, None), self.pick_rest(rest))
        } else {
            (self.pick_rest(rest), self.pick_used(two_l, None))
        };
        self.apply_single(a, b);
    }

    /// Uniform delegate, weighted by the post-transition census, with
    /// optionally one agent of state `exclude` removed.
    fn pick_used(&mut self, total: u64, exclude: Option<StateId>) -> StateId {
        debug_assert!(total > 0);
        let mut target = (self.rng.random::<f64>() * total as f64) as u64;
        let mut last = None;
        for i in 0..self.used_touched.len() {
            let id = self.used_touched[i];
            let mut w = self.used[id as usize];
            if exclude == Some(id) {
                w -= 1;
            }
            if w == 0 {
                continue;
            }
            last = Some(id);
            if target < w {
                return id;
            }
            target -= w;
        }
        // Floating-point leftover: fall back to the last populated id.
        last.expect("delegate census is nonempty")
    }

    /// Uniform non-delegate agent: weighted by current counts minus the
    /// delegate census.
    fn pick_rest(&mut self, total: u64) -> StateId {
        debug_assert!(total > 0);
        let mut target = (self.rng.random::<f64>() * total as f64) as u64;
        let mut last = None;
        for i in 0..self.active.len() {
            let id = self.active[i];
            let w = self.counts[id as usize] - self.used[id as usize];
            if w == 0 {
                continue;
            }
            last = Some(id);
            if target < w {
                return id;
            }
            target -= w;
        }
        last.expect("non-delegate population is nonempty")
    }

    /// The epoch's batch left the run stable: invert it, shuffle the
    /// `l` interactions (a uniform order of an exchangeable batch is
    /// exact), and replay to pin the first stable step. Stability
    /// certificates are monotone along a trajectory, so a stable prefix
    /// point exists and later steps cannot unstabilize it.
    fn locate_first_stable_step(&mut self, l: u64) {
        for pi in 0..self.pairs.len() {
            let (a, b, k) = self.pairs[pi];
            let (a2, b2) = self.compiled.successor(a, b);
            self.counts[a2 as usize] -= k;
            self.counts[b2 as usize] -= k;
            self.counts[a as usize] += k;
            self.counts[b as usize] += k;
            if self.linear {
                self.leaders -= i64::from(self.delta(a, b)) * k as i64;
            }
        }
        self.steps -= l;
        self.replay.clear();
        for pi in 0..self.pairs.len() {
            let (a, b, k) = self.pairs[pi];
            for _ in 0..k {
                self.replay.push((a, b));
            }
        }
        let mut replay = std::mem::take(&mut self.replay);
        replay.shuffle(&mut self.rng);
        for &(a, b) in &replay {
            self.apply_single(a, b);
            self.steps += 1;
            if self.stable_now() {
                break;
            }
        }
        self.replay = replay;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::LeaderCountOracle;
    use popele_graph::NodeId;

    /// Initiator absorbs the responder's leadership; the first
    /// `candidates` agents start as leaders. Stabilizes on cliques.
    #[derive(Clone, Copy)]
    struct Absorb {
        candidates: u64,
    }

    impl Protocol for Absorb {
        type State = bool;
        type Oracle = LeaderCountOracle;

        fn initial_state(&self, node: NodeId) -> bool {
            u64::from(node) < self.candidates
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

    /// Same protocol through the census-capable (non-linear) oracle
    /// path, to exercise `recompute_census` stability detection.
    #[derive(Clone, Copy)]
    struct CensusAbsorb {
        candidates: u64,
    }

    #[derive(Default)]
    struct CensusOracle {
        leaders: u64,
    }

    impl StabilityOracle<CensusAbsorb> for CensusOracle {
        fn recompute(&mut self, _p: &CensusAbsorb, config: &[bool]) {
            self.leaders = config.iter().filter(|s| **s).count() as u64;
        }

        fn apply(&mut self, _p: &CensusAbsorb, old: (&bool, &bool), new: (&bool, &bool)) {
            self.leaders -= u64::from(*old.0) + u64::from(*old.1);
            self.leaders += u64::from(*new.0) + u64::from(*new.1);
        }

        fn is_stable(&self) -> bool {
            self.leaders == 1
        }

        fn recompute_census(&mut self, _p: &CensusAbsorb, census: &[(bool, u64)]) -> bool {
            self.leaders = census.iter().filter(|(s, _)| *s).map(|(_, c)| *c).sum();
            true
        }
    }

    impl Protocol for CensusAbsorb {
        type State = bool;
        type Oracle = CensusOracle;

        fn initial_state(&self, node: NodeId) -> bool {
            u64::from(node) < self.candidates
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

        fn oracle(&self) -> CensusOracle {
            CensusOracle::default()
        }
    }

    fn absorb_outcome(n: u64, candidates: u64, seed: u64) -> Outcome {
        let protocol = Absorb { candidates };
        let compiled = compile_for_count(&protocol, n).expect("absorb compiles");
        let mut engine = CountEngine::new(&compiled, n, seed);
        engine.run_until_stable(u64::MAX).expect("stabilizes")
    }

    #[test]
    fn single_candidate_is_immediately_stable() {
        let outcome = absorb_outcome(64, 1, 7);
        assert_eq!(outcome.stabilization_step, 0);
        assert_eq!(outcome.leader_count, 1);
        assert_eq!(outcome.leader, None);
    }

    #[test]
    fn elects_exactly_one_leader() {
        for seed in 0..5 {
            let outcome = absorb_outcome(200, 200, seed);
            assert_eq!(outcome.leader_count, 1);
            assert!(outcome.stabilization_step > 0);
        }
    }

    #[test]
    fn census_oracle_path_elects_exactly_one_leader() {
        let protocol = CensusAbsorb { candidates: 300 };
        assert!(count_supported(&protocol));
        let compiled = compile_for_count(&protocol, 300).expect("compiles");
        let mut engine = CountEngine::new(&compiled, 300, 5);
        let outcome = engine.run_until_stable(u64::MAX).expect("stabilizes");
        assert_eq!(outcome.leader_count, 1);
        assert!(outcome.stabilization_step > 0);
    }

    #[test]
    fn population_is_conserved() {
        let protocol = Absorb { candidates: 500 };
        let compiled = compile_for_count(&protocol, 500).expect("compiles");
        let mut engine = CountEngine::new(&compiled, 500, 42);
        for _ in 0..20 {
            engine.run_steps(1000);
            assert_eq!(engine.counts().iter().sum::<u64>(), 500);
        }
    }

    #[test]
    fn leader_count_is_monotone() {
        let protocol = Absorb { candidates: 300 };
        let compiled = compile_for_count(&protocol, 300).expect("compiles");
        let mut engine = CountEngine::new(&compiled, 300, 9);
        let mut prev = engine.leader_count();
        for _ in 0..50 {
            engine.run_steps(20);
            let now = engine.leader_count();
            assert!(now <= prev, "leader count grew: {prev} -> {now}");
            prev = now;
        }
    }

    #[test]
    fn reset_restores_the_initial_configuration() {
        let protocol = Absorb { candidates: 100 };
        let compiled = compile_for_count(&protocol, 100).expect("compiles");
        let mut engine = CountEngine::new(&compiled, 100, 1);
        let initial = engine.counts().to_vec();
        engine.run_steps(5000);
        assert_ne!(engine.counts(), initial.as_slice());
        engine.reset(2);
        assert_eq!(engine.counts(), initial.as_slice());
        assert_eq!(engine.steps(), 0);
        assert_eq!(engine.leader_count(), 100);
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let a = absorb_outcome(400, 400, 1234);
        let b = absorb_outcome(400, 400, 1234);
        assert_eq!(a, b);
    }

    #[test]
    fn respects_the_step_budget() {
        let protocol = Absorb {
            candidates: 1_000_000,
        };
        let compiled = compile_for_count(&protocol, 1_000_000).expect("compiles");
        let mut engine = CountEngine::new(&compiled, 1_000_000, 3);
        let err = engine.run_until_stable(50).expect_err("cannot elect in 50");
        assert_eq!(err.max_steps, 50);
        assert!(engine.steps() <= 50);
    }

    #[test]
    fn large_population_initialization_is_cheap_and_exact() {
        // 10⁷ agents, non-uniform initial split: counts must reflect
        // the exact census without per-agent storage.
        let protocol = Absorb { candidates: 3 };
        let compiled = compile_for_count(&protocol, 10_000_000).expect("compiles");
        let engine = CountEngine::new(&compiled, 10_000_000, 0);
        assert_eq!(engine.counts().iter().sum::<u64>(), 10_000_000);
        assert_eq!(engine.leader_count(), 3);
    }
}
