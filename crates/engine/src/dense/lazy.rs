//! Lazy compilation: states interned on first sight, transitions cached
//! on first use.
//!
//! The ahead-of-time table of [`crate::CompiledProtocol`] needs the
//! *entire* reachable state space up front — which the paper's flagship
//! identifier protocol (Theorem 21, `O(n⁴)` states) and full-scale
//! instances of the fast protocol (Theorem 24) overflow by orders of
//! magnitude. But a single *execution* only ever visits a tiny, highly
//! repetitive slice of that space: the identifier protocol touches
//! `O(n·k)` distinct states while generating and collapses to a handful
//! of surviving instances afterwards. [`LazyTable`] exploits exactly
//! that gap:
//!
//! * states are interned into dense [`LazyId`]s (`u32`) the first time
//!   an execution produces them, with their output role memoized;
//! * the successor of an ordered id pair is computed through
//!   [`Protocol::transition`] **once**, then memoized in a growable
//!   open-addressed hash table (`PairCache`) keyed by the packed pair.
//!
//! After warm-up the hot loop is the same two-id-reads / one-lookup /
//! two-id-writes shape as the ahead-of-time engine — the lookup is one
//! multiplicative hash plus (almost always) one probe into a
//! cache-resident table — and the cache keeps paying across trials: the
//! Monte-Carlo harness reuses one executor (and thus one warm cache) per
//! worker thread.

use super::FoldHashBuilder;
use crate::protocol::{Protocol, Role, EFFECT_OPAQUE};
use std::collections::HashMap;

/// Dense state identifier of a lazily-compiled protocol. `u32` rather
/// than the ahead-of-time engine's `u16`: per-run state counts scale
/// with `n·polylog(n)` for the polynomial-state protocols. Ids are
/// capped at [`MAX_LAZY_STATES`] so a pair key (and a successor pair
/// plus leader delta) packs into a single `u64` each.
pub type LazyId = u32;

/// Hard ceiling on lazily-interned states (`2³⁰`): two ids and a 3-bit
/// leader delta must pack into one 64-bit cache word. Memory exhausts
/// long before a run interns a billion distinct states.
pub const MAX_LAZY_STATES: usize = 1 << 30;

/// Empty-slot sentinel of the pair cache. No valid key collides with it:
/// keys are `(a << 30) | b < 2⁶⁰` by the [`MAX_LAZY_STATES`] cap.
const EMPTY: u64 = u64::MAX;

/// One pair-cache slot: the packed pair key and the packed successor
/// word — exactly 16 bytes, so entries never straddle a cache line (a
/// 24-byte entry would, for every third slot, and election-scale caches
/// outgrow L2, where the extra line per probe is the dominant cost).
/// The oracle's effect summaries live in the parallel [`PairCache::effs`]
/// array that the hot no-op path never touches.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    /// `(delta + 2) << 60 | a' << 30 | b'`.
    val: u64,
}

/// Open-addressed pair → successor cache: keys are packed ordered id
/// pairs, values pack the successor pair and the leader-count delta of
/// the transition into one word. Linear probing with a multiplicative
/// (Fibonacci) hash; grown at ~⅞ load so hits stay a one-probe affair.
#[derive(Debug, Clone)]
struct PairCache {
    entries: Box<[Entry]>,
    /// [`crate::StabilityOracle::transition_effect`] summaries, slot-
    /// parallel to `entries` ([`EFFECT_OPAQUE`] where the oracle doesn't
    /// classify, or where the pair was cached through the summary-less
    /// [`LazyTable::successor`]). Split out so the 50–90% of hits that
    /// are no-ops (or feed a linear oracle) read one 16-byte entry and
    /// nothing else; state-changing hits fetch the summary on demand.
    effs: Box<[u64]>,
    len: usize,
    mask: usize,
}

/// Packs an ordered id pair into a cache key.
#[inline]
fn pair_key(a: LazyId, b: LazyId) -> u64 {
    (u64::from(a) << 30) | u64::from(b)
}

/// Unpacks a cache value into `(a', b', delta)`.
#[inline]
fn unpack_val(val: u64) -> (LazyId, LazyId, i8) {
    const ID_MASK: u64 = (1 << 30) - 1;
    (
        ((val >> 30) & ID_MASK) as LazyId,
        (val & ID_MASK) as LazyId,
        (val >> 60) as i8 - 2,
    )
}

impl PairCache {
    const INITIAL_CAPACITY: usize = 1 << 10;

    fn new() -> Self {
        Self {
            entries: vec![Entry { key: EMPTY, val: 0 }; Self::INITIAL_CAPACITY].into_boxed_slice(),
            effs: vec![EFFECT_OPAQUE; Self::INITIAL_CAPACITY].into_boxed_slice(),
            len: 0,
            mask: Self::INITIAL_CAPACITY - 1,
        }
    }

    /// Fibonacci multiplicative hash into the table's index range.
    #[inline]
    fn slot(&self, key: u64) -> usize {
        // The multiplier is ⌊2⁶⁴/φ⌋ (odd), which spreads consecutive
        // packed pairs across the table; the shift keeps the high bits.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.mask
    }

    /// Looks `key` up, returning the packed successor word and the slot
    /// index holding it (for an on-demand [`PairCache::effs`] read).
    #[inline]
    fn get(&self, key: u64) -> Option<(u64, usize)> {
        let m = self.mask;
        // Reslicing to exactly `mask + 1` entries lets the compiler see
        // that every masked index is in bounds, eliding the per-probe
        // bounds check in the engines' hottest loop.
        let entries = &self.entries[..=m];
        let mut i = self.slot(key);
        loop {
            let e = entries[i & m];
            if e.key == key {
                return Some((e.val, i & m));
            }
            if e.key == EMPTY {
                return None;
            }
            i = (i + 1) & m;
        }
    }

    /// Inserts a key known to be absent, growing first if the load
    /// factor would exceed ~⅞. Returns the slot the entry landed in.
    fn insert(&mut self, key: u64, val: u64, eff: u64) -> usize {
        if (self.len + 1) * 8 > self.entries.len() * 7 {
            self.grow();
        }
        let mut i = self.slot(key);
        while self.entries[i].key != EMPTY {
            debug_assert_ne!(self.entries[i].key, key, "pair inserted twice");
            i = (i + 1) & self.mask;
        }
        self.entries[i] = Entry { key, val };
        self.effs[i] = eff;
        self.len += 1;
        i
    }

    fn grow(&mut self) {
        let new_cap = self.entries.len() * 2;
        let old_entries = std::mem::replace(
            &mut self.entries,
            vec![Entry { key: EMPTY, val: 0 }; new_cap].into_boxed_slice(),
        );
        let old_effs = std::mem::replace(
            &mut self.effs,
            vec![EFFECT_OPAQUE; new_cap].into_boxed_slice(),
        );
        self.mask = new_cap - 1;
        for (e, &eff) in old_entries.iter().zip(&old_effs) {
            if e.key == EMPTY {
                continue;
            }
            let mut j = self.slot(e.key);
            while self.entries[j].key != EMPTY {
                j = (j + 1) & self.mask;
            }
            self.entries[j] = *e;
            self.effs[j] = eff;
        }
    }

    /// Bytes currently held by the cache arrays.
    fn bytes(&self) -> usize {
        self.entries.len() * (std::mem::size_of::<Entry>() + std::mem::size_of::<u64>())
    }
}

/// The lazily-built counterpart of [`crate::CompiledProtocol`]: an
/// interner assigning dense [`LazyId`]s to states on first sight plus a
/// `PairCache` memoizing transitions on first use. Owned (mutably) by
/// one [`crate::LazyDenseExecutor`] — unlike the ahead-of-time table it
/// is not shared across threads, but it *is* kept warm across trials.
#[derive(Debug, Clone)]
pub struct LazyTable<P: Protocol> {
    pub(crate) protocol: P,
    /// Id → typed state.
    pub(crate) states: Vec<P::State>,
    /// Typed state → id.
    ids: HashMap<P::State, LazyId, FoldHashBuilder>,
    /// Id → output role (memoized at intern time so the hot loop never
    /// calls [`Protocol::output`]).
    roles: Vec<Role>,
    /// Node → id of its initial state, filled on demand up to the
    /// largest node index seen (node churn can grow it mid-run).
    initial: Vec<LazyId>,
    cache: PairCache,
}

impl<P: Protocol + Clone> LazyTable<P> {
    /// Creates an empty table for `protocol` with the initial states of
    /// nodes `0..num_nodes` pre-interned (cheap: one intern per
    /// *distinct* initial state).
    pub fn new(protocol: &P, num_nodes: u32) -> Self {
        let mut table = Self {
            protocol: protocol.clone(),
            states: Vec::new(),
            ids: HashMap::default(),
            roles: Vec::new(),
            initial: Vec::new(),
            cache: PairCache::new(),
        };
        table.ensure_initial(num_nodes as usize);
        table
    }
}

impl<P: Protocol> LazyTable<P> {
    /// Interns `state`, returning its dense id (a fresh id with the role
    /// memoized on first sight, the existing id afterwards). Public
    /// because arbitrary-initialization runs
    /// ([`crate::LazyDenseExecutor::set_configuration`]) load whole
    /// configurations of possibly never-seen states.
    ///
    /// # Panics
    ///
    /// Panics if interning would exceed [`MAX_LAZY_STATES`].
    pub fn intern(&mut self, state: &P::State) -> LazyId {
        if let Some(&id) = self.ids.get(state) {
            return id;
        }
        assert!(
            self.states.len() < MAX_LAZY_STATES,
            "lazy state space exceeded {MAX_LAZY_STATES} states"
        );
        let id = self.states.len() as LazyId;
        self.states.push(state.clone());
        self.roles.push(self.protocol.output(state));
        self.ids.insert(state.clone(), id);
        id
    }

    /// Extends the initial-id cache through node `count − 1`.
    fn ensure_initial(&mut self, count: usize) {
        while self.initial.len() < count {
            let v = self.initial.len() as u32;
            let s = self.protocol.initial_state(v);
            let id = self.intern(&s);
            self.initial.push(id);
        }
    }

    /// Initial-state id of node `v` (interning it on first sight).
    pub fn initial_id(&mut self, v: u32) -> LazyId {
        self.ensure_initial(v as usize + 1);
        self.initial[v as usize]
    }

    /// Memoized output role of state id `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` was never interned.
    #[inline]
    #[must_use]
    pub fn role(&self, s: LazyId) -> Role {
        self.roles[s as usize]
    }

    /// Typed state of id `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` was never interned.
    #[must_use]
    pub fn state(&self, s: LazyId) -> &P::State {
        &self.states[s as usize]
    }

    /// The dense id of `state`, if it has been interned.
    #[must_use]
    pub fn state_id(&self, state: &P::State) -> Option<LazyId> {
        self.ids.get(state).copied()
    }

    /// Number of states interned so far.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of ordered pairs cached so far.
    #[must_use]
    pub fn num_cached_pairs(&self) -> usize {
        self.cache.len
    }

    /// Approximate bytes held by the pair cache (capacity planning aid;
    /// excludes the interned typed states).
    #[must_use]
    pub fn cache_bytes(&self) -> usize {
        self.cache.bytes()
    }

    /// Successor pair and leader-count delta of the ordered interaction
    /// `(a, b)` — a one-probe, one-cache-line hit after the first
    /// evaluation. Memoizes an [`EFFECT_OPAQUE`] effect summary; callers
    /// that use summaries go through [`Self::successor_tracked`] instead.
    #[inline]
    pub fn successor(&mut self, a: LazyId, b: LazyId) -> (LazyId, LazyId, i8) {
        let (na, nb, delta, _) = self.successor_tracked(a, b, |_, _, _, _, _| EFFECT_OPAQUE);
        (na, nb, delta)
    }

    /// Like [`Self::successor`], but also returns the cache slot holding
    /// the transition's memoized oracle effect summary, for an on-demand
    /// fetch through [`Self::cached_effect`]. Splitting the fetch off
    /// keeps the hot no-op path to a single 16-byte entry read; only the
    /// rarer state-changing hits pay for the summary line. `eff_of`
    /// computes the summary (from the protocol, the old state pair, and
    /// the new state pair) the first time the pair is evaluated.
    ///
    /// The returned slot is invalidated by the next cache miss (an
    /// insert can grow and rehash the table): read it before the next
    /// `successor*` call.
    #[inline]
    pub fn successor_tracked(
        &mut self,
        a: LazyId,
        b: LazyId,
        eff_of: impl FnOnce(&P, &P::State, &P::State, &P::State, &P::State) -> u64,
    ) -> (LazyId, LazyId, i8, usize) {
        let key = pair_key(a, b);
        if let Some((val, slot)) = self.cache.get(key) {
            let (na, nb, delta) = unpack_val(val);
            (na, nb, delta, slot)
        } else {
            self.fill(a, b, key, eff_of)
        }
    }

    /// The memoized effect summary in `slot`, as returned by the last
    /// [`Self::successor_tracked`] call.
    #[inline]
    #[must_use]
    pub fn cached_effect(&self, slot: usize) -> u64 {
        self.cache.effs[slot]
    }

    /// Cache-miss path: evaluate the typed transition, intern the
    /// successors, memoize. Out of line so the hit path stays small
    /// enough to inline into the hot loop.
    #[cold]
    fn fill(
        &mut self,
        a: LazyId,
        b: LazyId,
        key: u64,
        eff_of: impl FnOnce(&P, &P::State, &P::State, &P::State, &P::State) -> u64,
    ) -> (LazyId, LazyId, i8, usize) {
        let (sa, sb) = self
            .protocol
            .transition(&self.states[a as usize], &self.states[b as usize]);
        let eff = eff_of(
            &self.protocol,
            &self.states[a as usize],
            &self.states[b as usize],
            &sa,
            &sb,
        );
        let na = self.intern(&sa);
        let nb = self.intern(&sb);
        let leader = |r: &Self, id: LazyId| i8::from(r.roles[id as usize] == Role::Leader);
        let delta = leader(self, na) + leader(self, nb) - leader(self, a) - leader(self, b);
        let val = (u64::from((delta + 2) as u8) << 60) | pair_key(na, nb);
        let slot = self.cache.insert(key, val, eff);
        (na, nb, delta, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::LeaderCountOracle;
    use popele_graph::NodeId;

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

    #[test]
    fn successors_match_the_typed_transition_and_memoize() {
        let mut t = LazyTable::new(&Absorb, 4);
        assert_eq!(t.num_states(), 1);
        let leader = t.initial_id(0);
        let (na, nb, delta) = t.successor(leader, leader);
        assert_eq!(na, leader);
        assert_eq!(t.state(nb), &false);
        assert_eq!(delta, -1);
        assert_eq!(t.num_states(), 2);
        assert_eq!(t.num_cached_pairs(), 1);
        // The second lookup hits the cache (count unchanged).
        assert_eq!(t.successor(leader, leader), (na, nb, -1));
        assert_eq!(t.num_cached_pairs(), 1);
        // A no-op transition has delta 0 and identical successors.
        assert_eq!(t.successor(na, nb), (na, nb, 0));
        assert_eq!(t.roles.len(), t.states.len());
        assert_eq!(t.role(leader), Role::Leader);
        assert_eq!(t.role(nb), Role::Follower);
        assert_eq!(t.state_id(&false), Some(nb));
        assert!(t.cache_bytes() > 0);
    }

    #[test]
    fn pair_cache_survives_growth() {
        // Force many inserts through one table so the cache rehashes at
        // least twice, then verify every memoized entry again.
        #[derive(Clone, Copy)]
        struct Add;
        impl Protocol for Add {
            type State = u16;
            type Oracle = LeaderCountOracle;
            fn initial_state(&self, _v: NodeId) -> u16 {
                0
            }
            fn transition(&self, a: &u16, b: &u16) -> (u16, u16) {
                // Full-period 16-bit LCG: 5000 iterations visit 5000
                // distinct states, forcing several cache rehashes.
                (a.wrapping_mul(25173).wrapping_add(13849), *b)
            }
            fn output(&self, s: &u16) -> Role {
                if s.is_multiple_of(3) {
                    Role::Leader
                } else {
                    Role::Follower
                }
            }
            fn oracle(&self) -> LeaderCountOracle {
                LeaderCountOracle::new()
            }
        }
        let mut t = LazyTable::new(&Add, 1);
        let mut observed = Vec::new();
        let mut a = t.initial_id(0);
        for _ in 0..5000 {
            let (na, nb, d) = t.successor(a, a);
            observed.push((a, na, nb, d));
            a = na;
        }
        assert!(t.num_cached_pairs() >= 4000);
        for (a, na, nb, d) in observed {
            assert_eq!(t.successor(a, a), (na, nb, d), "entry for ({a}, {a})");
        }
    }
}
