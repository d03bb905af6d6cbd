//! Edge decoders: how the dense engines resolve raw scheduler draws
//! into ordered node pairs.
//!
//! The per-agent dense executor, over either pair source
//! ([`crate::DenseExecutor`], [`crate::LazyDenseExecutor`]), pre-draws
//! scheduler indices in tight batches and resolves them through an
//! `EdgeDecoder` chosen per graph shape. Every decoder produces exactly the pairs
//! [`crate::EdgeScheduler::next_pair`] would for the same RNG stream —
//! only the memory traffic differs — so the engines stay trace-identical
//! to the generic [`crate::Executor`] regardless of which decoder runs.
//!
//! The selection thresholds are named constants with the rationale
//! attached ([`PACKED_MAX_NODES`], [`DECODER_MAX_EDGES`]); the pure
//! classification [`DecoderKind::select`] is unit-tested at the exact
//! boundaries, including edge counts far beyond what a test could
//! materialize as a real graph.

use crate::scheduler::EdgeScheduler;
use popele_graph::clique::{clique_decode, CliqueIndex};
use popele_graph::{Graph, NodeId};
use std::sync::Arc;

/// Largest node count the `EdgeDecoder::Packed` re-encoding supports:
/// both endpoints of an edge must fit 16 bits to pack into one `u32`
/// (half the bytes of the scheduler's `(u32, u32)` edge list, so the
/// random gather covers half the cache footprint).
pub const PACKED_MAX_NODES: u32 = 1 << 16;

/// Largest edge count the indexed decoders (clique arithmetic and CSR
/// split form) support: edge indices and CSR columns are stored as
/// `u32`, so a graph with more than `u32::MAX` edges (≈ a clique on
/// 93 000 nodes) falls back to `EdgeDecoder::Scheduler`.
pub const DECODER_MAX_EDGES: u64 = u32::MAX as u64;

/// Number of scheduler draws per batch. Large enough to expose
/// memory-level parallelism on the edge array, small enough to stay in
/// L1 (2 KiB).
pub const PAIR_BATCH: usize = 256;

/// The decoder family `EdgeDecoder::for_graph` picks for a given graph
/// shape — the pure classification, separated from the table-building so
/// the thresholds can be unit-tested at boundaries no test could afford
/// to materialize (a graph with `u32::MAX + 1` edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecoderKind {
    /// Complete graph within [`DECODER_MAX_EDGES`]: arithmetic decode.
    Clique,
    /// `n ≤` [`PACKED_MAX_NODES`]: 32-bit packed edge list.
    Packed,
    /// Larger node counts with `m ≤` [`DECODER_MAX_EDGES`]: CSR split.
    Csr,
    /// Beyond every indexed bound: the scheduler's own gather.
    Scheduler,
}

impl DecoderKind {
    /// Classifies a graph shape `(n, m)` into its decoder family.
    ///
    /// A simple graph with `n(n−1)/2` edges is complete, which unlocks
    /// the arithmetic decode; otherwise the packed form is preferred
    /// while node ids fit 16 bits, then the CSR split while edge indices
    /// fit 32 bits.
    #[must_use]
    pub fn select(n: u64, m: u64) -> Self {
        if n >= 2 && m == n * (n - 1) / 2 && m <= DECODER_MAX_EDGES {
            DecoderKind::Clique
        } else if n <= u64::from(PACKED_MAX_NODES) {
            DecoderKind::Packed
        } else if m <= DECODER_MAX_EDGES {
            DecoderKind::Csr
        } else {
            DecoderKind::Scheduler
        }
    }
}

/// How a dense engine resolves a raw scheduler index `r` (edge index
/// `r >> 1` into the canonical sorted edge list, orientation `r & 1`)
/// into an ordered node pair. All variants produce exactly the pairs
/// [`EdgeScheduler`] would — only the memory traffic differs.
#[derive(Debug, Clone)]
pub(crate) enum EdgeDecoder {
    /// Complete graph: the canonical lexicographic edge index inverts
    /// arithmetically (triangular numbers, [`CliqueIndex`]). Instead of
    /// gathering from the `n(n−1)/2`-entry edge array — which falls out
    /// of cache and dominates the hot loop on large cliques — the row is
    /// read from a small bucket→row hint table (≤ 512 KiB,
    /// cache-resident) and corrected with exact integer arithmetic. An
    /// implicit clique shares its graph's index; a complete CSR graph
    /// gets one of its own.
    Clique(Arc<CliqueIndex>),
    /// Edge list re-encoded as `(u << 16) | v` when every node id fits
    /// 16 bits ([`PACKED_MAX_NODES`]): half the bytes of the scheduler's
    /// `(u32, u32)` list, so the gather covers half the cache footprint.
    Packed(Box<[u32]>),
    /// Non-clique graphs beyond the packed decoder's 16-bit node range:
    /// the canonical sorted edge list in CSR-style split form. The
    /// higher endpoint of edge `e` is a direct 4-byte gather from
    /// `col[e]`; the lower endpoint (the CSR row) is reconstructed as
    /// `row_hint[e >> shift] + row_delta[e]` — a lookup in a small,
    /// cache-resident bucket table plus a 1-byte gather — instead of
    /// being stored as a second 4-byte column. Per sampled edge that is
    /// 5 bytes of randomly-indexed memory traffic instead of the
    /// scheduler's 8, with no search loop and no data-dependent
    /// branches. `shift` is chosen at build time so that no bucket
    /// spans more than 255 rows (it always exists: at `shift = 0` every
    /// bucket holds one edge and every delta is 0).
    Csr {
        /// Bucket granularity: edges `e` share hint bucket `e >> shift`.
        shift: u32,
        /// Per bucket: row (lower endpoint) of the bucket's first edge.
        row_hint: Box<[u32]>,
        /// Per edge: its row minus its bucket's hint row (≤ 255 by
        /// choice of `shift`).
        row_delta: Box<[u8]>,
        /// Per edge: the higher endpoint.
        col: Box<[u32]>,
    },
    /// Degenerate fallback (edge count beyond [`DECODER_MAX_EDGES`]):
    /// the scheduler's own batched gather.
    Scheduler,
}

impl EdgeDecoder {
    /// The decoder for `graph`. Only the packed and CSR forms read the
    /// edge list ([`Graph::edges`]), and they are never chosen for a
    /// complete graph — so an implicit clique stays unmaterialized.
    pub(crate) fn for_graph(graph: &Graph) -> Self {
        let n = u64::from(graph.num_nodes());
        let m = graph.num_edges() as u64;
        match DecoderKind::select(n, m) {
            DecoderKind::Clique => EdgeDecoder::Clique(match graph.clique_index() {
                Some(index) => Arc::clone(index),
                None => Arc::new(CliqueIndex::new(graph.num_nodes())),
            }),
            DecoderKind::Packed => EdgeDecoder::Packed(
                graph
                    .edges()
                    .iter()
                    .map(|&(u, v)| (u << 16) | v)
                    .collect::<Vec<u32>>()
                    .into_boxed_slice(),
            ),
            DecoderKind::Csr => Self::csr(graph.edges()),
            DecoderKind::Scheduler => EdgeDecoder::Scheduler,
        }
    }

    /// Builds the [`EdgeDecoder::Csr`] form of a canonical sorted edge
    /// list: the widest bucket shift whose per-bucket row span fits the
    /// `u8` delta, then the hint/delta/column arrays.
    fn csr(edges: &[(NodeId, NodeId)]) -> Self {
        let m = edges.len();
        let bits = usize::BITS - m.leading_zeros();
        let mut shift = bits.saturating_sub(16);
        while shift > 0 {
            // Row span of bucket b: rows are nondecreasing within the
            // sorted edge list, so first/last edge suffice.
            let spans_fit = (0..(m >> shift) + 1).all(|b| {
                let lo = b << shift;
                let hi = (((b + 1) << shift) - 1).min(m - 1);
                lo >= m || edges[hi].0 - edges[lo].0 <= u32::from(u8::MAX)
            });
            if spans_fit {
                break;
            }
            shift -= 1;
        }
        let buckets = (m >> shift) + 1;
        let mut row_hint = vec![0u32; buckets];
        for (b, hint) in row_hint.iter_mut().enumerate() {
            let lo = b << shift;
            *hint = if lo < m { edges[lo].0 } else { 0 };
        }
        let mut row_delta = vec![0u8; m];
        let mut col = vec![0u32; m];
        for (e, &(u, v)) in edges.iter().enumerate() {
            row_delta[e] = u8::try_from(u - row_hint[e >> shift]).expect("span checked above");
            col[e] = v;
        }
        EdgeDecoder::Csr {
            shift,
            row_hint: row_hint.into_boxed_slice(),
            row_delta: row_delta.into_boxed_slice(),
            col: col.into_boxed_slice(),
        }
    }

    /// The [`DecoderKind`] this decoder belongs to.
    #[cfg(test)]
    pub(crate) fn kind(&self) -> DecoderKind {
        match self {
            EdgeDecoder::Clique(_) => DecoderKind::Clique,
            EdgeDecoder::Packed(_) => DecoderKind::Packed,
            EdgeDecoder::Csr { .. } => DecoderKind::Csr,
            EdgeDecoder::Scheduler => DecoderKind::Scheduler,
        }
    }

    /// Fills `pairs` with one batch of scheduler draws resolved through
    /// this decoder (`raw` is caller-provided scratch of at least the
    /// same length). Consumes the scheduler's RNG stream exactly as
    /// `pairs.len()` calls of [`EdgeScheduler::next_pair`] would — the
    /// invariant that keeps every engine on the identical interaction
    /// sequence. Shared by both dense engines' refill paths.
    ///
    /// Pair sampling is independent of the configuration (the scheduler
    /// is an autonomous RNG stream), so the draws can be batched into a
    /// tight loop that touches only the RNG state and the decode arrays —
    /// giving the memory system a window of independent loads to overlap.
    /// The generic executor cannot do this: its per-step trait calls
    /// (transition + oracle) interleave with every draw.
    #[inline(never)]
    pub(crate) fn fill_batch(
        &self,
        scheduler: &mut EdgeScheduler<'_>,
        pairs: &mut [(NodeId, NodeId)],
        raw: &mut [usize],
    ) {
        match self {
            EdgeDecoder::Clique(index) => {
                // One fused loop: the hint table is cache-resident, so
                // unlike the general gather there is no memory latency
                // to batch around — and with the RNG state as the only
                // loop-carried dependency, the decode arithmetic of one
                // iteration overlaps the RNG chain of the next.
                let (n, shift, row_hint) = index.parts();
                scheduler.fill_raw_with(pairs, |r, slot| {
                    let e = (r >> 1) as u32;
                    let (u, v) = clique_decode(e, n, shift, row_hint);
                    *slot = orient(u, v, r);
                });
            }
            EdgeDecoder::Packed(packed) => {
                // Two-phase: the raw draws are batched first, then the
                // gathers run as independent loads the memory system can
                // overlap.
                let raw = &mut raw[..pairs.len()];
                scheduler.fill_raw(raw);
                for (slot, &r) in pairs.iter_mut().zip(raw.iter()) {
                    let e = packed[r >> 1];
                    *slot = orient(e >> 16, e & 0xFFFF, r);
                }
            }
            EdgeDecoder::Csr {
                shift,
                row_hint,
                row_delta,
                col,
            } => {
                // Two-phase as above. The hint table stays
                // cache-resident, so reconstructing the row costs one
                // in-cache read and an add.
                let raw = &mut raw[..pairs.len()];
                scheduler.fill_raw(raw);
                for (slot, &r) in pairs.iter_mut().zip(raw.iter()) {
                    let e = r >> 1;
                    let u = row_hint[e >> *shift] + u32::from(row_delta[e]);
                    let v = col[e];
                    *slot = orient(u, v, r);
                }
            }
            EdgeDecoder::Scheduler => scheduler.fill_pairs(pairs),
        }
    }
}

/// Branchless orientation select: raw index bit 0 decides whether the
/// canonical `(u, v)` or the swapped `(v, u)` is the (initiator,
/// responder) pair. A 50/50 data-dependent branch would mispredict
/// constantly; the xor-mask form never branches.
#[inline]
pub(crate) fn orient(u: u32, v: u32, r: usize) -> (NodeId, NodeId) {
    let mask = (r as u32 & 1).wrapping_neg(); // 0 or all-ones
    let x = u ^ v;
    (u ^ (x & mask), v ^ (x & mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use popele_graph::families;

    #[test]
    fn decoder_selection_by_graph_shape() {
        assert_eq!(
            EdgeDecoder::for_graph(&families::clique(100)).kind(),
            DecoderKind::Clique
        );
        assert_eq!(
            EdgeDecoder::for_graph(&families::cycle(100)).kind(),
            DecoderKind::Packed
        );
        // Beyond the packed decoder's 16-bit node range, non-clique
        // graphs take the CSR path.
        assert_eq!(
            EdgeDecoder::for_graph(&families::cycle(70_000)).kind(),
            DecoderKind::Csr
        );
    }

    #[test]
    fn packed_bound_is_exact_at_the_node_boundary() {
        // n = PACKED_MAX_NODES is the last size whose ids fit 16 bits;
        // one more node pushes the cycle onto the CSR decoder. Real
        // graphs at the exact boundary keep the constant honest.
        let at = families::cycle(PACKED_MAX_NODES);
        assert_eq!(EdgeDecoder::for_graph(&at).kind(), DecoderKind::Packed);
        let over = families::cycle(PACKED_MAX_NODES + 1);
        assert_eq!(EdgeDecoder::for_graph(&over).kind(), DecoderKind::Csr);
    }

    #[test]
    fn select_boundaries_for_edge_counts() {
        let n = u64::from(PACKED_MAX_NODES);
        // Clique classification requires exactly n(n−1)/2 edges…
        assert_eq!(DecoderKind::select(100, 100 * 99 / 2), DecoderKind::Clique);
        assert_eq!(
            DecoderKind::select(100, 100 * 99 / 2 - 1),
            DecoderKind::Packed
        );
        // …and a clique whose triangular count exceeds DECODER_MAX_EDGES
        // (n ≥ 92 683) can only use the scheduler fallback: neither the
        // arithmetic decode nor CSR can index its edges in u32.
        let huge = 3_000_000u64;
        assert_eq!(
            DecoderKind::select(huge, huge * (huge - 1) / 2),
            DecoderKind::Scheduler
        );
        // Node boundary between Packed and Csr.
        assert_eq!(DecoderKind::select(n, n), DecoderKind::Packed);
        assert_eq!(DecoderKind::select(n + 1, n + 1), DecoderKind::Csr);
        // Edge boundary between Csr and the Scheduler fallback — far
        // beyond what a test could materialize as a real graph, which
        // is exactly why the classification is a pure function.
        assert_eq!(
            DecoderKind::select(n + 1, DECODER_MAX_EDGES),
            DecoderKind::Csr
        );
        assert_eq!(
            DecoderKind::select(n + 1, DECODER_MAX_EDGES + 1),
            DecoderKind::Scheduler
        );
    }

    #[test]
    fn clique_decode_inverts_row_starts() {
        for n in [2u32, 3, 5, 37, 256] {
            let g = families::clique(n);
            let EdgeDecoder::Clique(index) = EdgeDecoder::for_graph(&g) else {
                panic!("clique graph must select the clique decoder");
            };
            assert!(Arc::ptr_eq(&index, g.clique_index().unwrap()));
            // A complete CSR graph builds an equal index of its own and
            // decodes its edge list exactly.
            let csr = Graph::from_edges(n, g.edges()).unwrap();
            let EdgeDecoder::Clique(own) = EdgeDecoder::for_graph(&csr) else {
                panic!("complete CSR graph must select the clique decoder");
            };
            assert_eq!(*own, *index);
            let (n, shift, row_hint) = own.parts();
            for (e, &pair) in csr.edges().iter().enumerate() {
                assert_eq!(clique_decode(e as u32, n, shift, row_hint), pair);
            }
        }
    }

    #[test]
    fn csr_builder_collapses_shift_on_row_jumps() {
        // Two edges whose rows are ~700k apart cannot share a bucket
        // within the u8 delta, so the builder must fall back to one
        // edge per bucket.
        let g = Graph::from_edges(700_000, &[(0, 1), (699_998, 699_999)]).unwrap();
        let decoder = EdgeDecoder::for_graph(&g);
        let EdgeDecoder::Csr { shift, .. } = &decoder else {
            panic!("expected CSR decoder, got {decoder:?}");
        };
        assert_eq!(*shift, 0);
    }
}
