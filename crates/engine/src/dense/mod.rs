//! The dense-state simulation core: compiled protocols over integer ids.
//!
//! Every protocol the paper analyses runs far faster when its typed
//! states are lowered to dense integer ids and its transition function
//! to table/cache lookups — the per-interaction hot path becomes two
//! array reads, one lookup and two array writes, with no cloning,
//! hashing of typed states, or per-step transition evaluation. This
//! module family implements that lowering twice, for two regimes:
//!
//! * [`table`] — **ahead-of-time** compilation ([`CompiledProtocol`]):
//!   the reachable state space is enumerated up front into `u16` ids and
//!   the full `|Λ|²` transition table precomputed. Fastest, shareable
//!   across threads, but only possible while the closure fits
//!   [`DEFAULT_MAX_COMPILED_STATES`].
//! * [`lazy`] — **lazy** compilation ([`LazyTable`]): states interned
//!   into `u32` ids on first sight, pair successors memoized in a
//!   growable open-addressed cache on first use. Covers the protocols
//!   whose state spaces overflow the ahead-of-time cap — the identifier
//!   protocol at realistic `k` (Theorem 21), full-scale fast-protocol
//!   instances (Theorem 24) — at a hot-loop cost of one extra hash.
//! * [`decoder`] — the edge decoders and batched draw machinery of the
//!   per-agent executor: raw scheduler indices are resolved into node pairs
//!   through shape-specialized decoders (arithmetic clique decode,
//!   16-bit packed lists, CSR split form) without ever deviating from
//!   the scheduler's interaction sequence.
//! * [`exec`] — the per-agent executor ([`PerAgentExecutor`]), written
//!   once over a [`PairSource`] — the compiled table
//!   ([`DenseExecutor`]) or the lazy cache ([`LazyDenseExecutor`]) —
//!   mirroring [`crate::Executor`] exactly: same scheduler, same seed
//!   handling, same oracle semantics, same [`crate::Outcome`]s.
//! * [`count`] — the **count-based batch engine** ([`CountEngine`]):
//!   clique-only, stores a `u64` count per compiled state instead of a
//!   per-agent configuration and draws interactions in collision-free
//!   `O(√n)` batches from the counts alone, reaching populations
//!   (`10⁷–10⁹`) no per-agent engine can represent. Exact in
//!   distribution rather than trace-identical — see its module docs.
//!
//! # Three engines, one contract
//!
//! For the same (protocol, graph, seed) all three engines — generic,
//! AOT-dense, lazy-dense — produce the identical interaction sequence
//! and outcome; differential tests across the workspace pin this, and
//! [`crate::EngineSelection::prepare`] exploits it to pick the
//! fastest applicable engine per workload without ever changing results.

use std::hash::{BuildHasherDefault, Hasher};

pub mod count;
pub mod decoder;
pub mod exec;
pub mod lazy;
pub mod table;

pub use count::{
    compile_for_count, count_supported, CountEngine, COUNT_MAX_COMPILED_STATES, COUNT_MIN_AGENTS,
};
pub use decoder::{DecoderKind, DECODER_MAX_EDGES, PACKED_MAX_NODES};
pub use exec::{DenseExecutor, LazyDenseExecutor, PairSource, PerAgentExecutor};
pub use lazy::{LazyId, LazyTable};
pub use table::{
    probe_state_space, CompileError, CompiledProtocol, SpaceProbe, StateId,
    DEFAULT_MAX_COMPILED_STATES, MAX_STATE_IDS, PROBE_EVAL_BUDGET,
};

/// Multiply-fold hasher for both state interners (an FxHash-style
/// construction): each written word is xor-folded into the accumulator
/// and diffused with one odd-constant multiply. Interning sits on the
/// lazy engine's *miss* path — two lookups per novel pair — and on
/// every pair of the ahead-of-time closure ([`table`]), where the
/// standard SipHash costs more than the transition evaluation it
/// serves. Ids are assigned in discovery order, so the hash function
/// never shows in ids or tables. Protocol states are plain
/// `#[derive(Hash)]` data, so a non-cryptographic hash is sound (no
/// untrusted-key DoS surface).
#[derive(Debug, Default, Clone, Copy)]
pub struct FoldHasher {
    hash: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // One final diffusion so low-entropy accumulators still spread
        // across the HashMap's bucket bits (std uses the high bits).
        self.hash.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(b) << (8 * i);
        }
        if !chunks.remainder().is_empty() {
            self.write_u64(tail);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(26) ^ v).wrapping_mul(0xA24B_AED4_963E_E407);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// The interners' hash state: [`FoldHasher`] per lookup.
pub type FoldHashBuilder = BuildHasherDefault<FoldHasher>;
