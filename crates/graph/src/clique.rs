//! Arithmetic indexing of the complete graph's canonical edge list.
//!
//! The canonical edge list of `K_n` is lexicographic: row `u` holds the
//! edges `(u, u+1) … (u, n−1)`, so edge index `e` inverts to its
//! endpoints with triangular-number arithmetic. [`CliqueIndex`] is that
//! inverse. An implicit clique [`Graph`](crate::Graph) owns one, the
//! scheduler decodes its draws through it, and the dense engines' clique
//! decoder calls [`clique_decode`] inside its batch-draw loop, so every
//! per-agent tier reads the same edge for the same index without an
//! `n(n−1)/2`-entry array.

use crate::graph::NodeId;

/// Largest edge count the hint-table decode supports: edge indices and
/// row starts are stored as `u32` (a clique on up to 92 682 nodes).
/// Larger cliques decode through a closed form in wide arithmetic.
pub const CLIQUE_HINT_MAX_EDGES: u64 = u32::MAX as u64;

/// The arithmetic inverse of `K_n`'s canonical lexicographic edge index.
///
/// Within [`CLIQUE_HINT_MAX_EDGES`] the row of an edge is read from a
/// small bucket→row hint table (at most `2¹⁶` entries, cache-resident)
/// and corrected with exact integer arithmetic — no multiplications and,
/// almost always, no loop iterations. Beyond it the row comes from the
/// closed-form root of the row-start quadratic, settled exactly in
/// 128-bit arithmetic.
///
/// # Examples
///
/// ```
/// use popele_graph::clique::CliqueIndex;
///
/// let index = CliqueIndex::new(5);
/// assert_eq!(index.num_edges(), 10);
/// assert_eq!(index.edge(0), (0, 1));
/// assert_eq!(index.edge(4), (1, 2));
/// assert_eq!(index.edge(9), (3, 4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliqueIndex {
    n: u32,
    /// Bucket granularity: edges `e` share bucket `e >> shift`.
    shift: u32,
    /// Per bucket: `(row, first edge index of that row)` for the first
    /// edge of the bucket. Empty beyond [`CLIQUE_HINT_MAX_EDGES`].
    row_hint: Box<[(u32, u32)]>,
}

impl CliqueIndex {
    /// Builds the index of `K_n` (`O(2¹⁶)` work at most).
    ///
    /// # Panics
    ///
    /// Panics if `n < 1`.
    #[must_use]
    pub fn new(n: u32) -> Self {
        assert!(n >= 1, "clique requires n ≥ 1");
        let n64 = u64::from(n);
        let m = n64 * n64.saturating_sub(1) / 2;
        if m > CLIQUE_HINT_MAX_EDGES {
            return Self {
                n,
                shift: 0,
                row_hint: Box::new([]),
            };
        }
        let bits = 64 - m.leading_zeros();
        let shift = bits.saturating_sub(16);
        let buckets = (m >> shift) as usize + 1;
        let mut row_hint = vec![(0u32, 0u32); buckets];
        let mut u = 0u64;
        for (b, hint) in row_hint.iter_mut().enumerate() {
            let e = (b as u64) << shift;
            while u + 2 < n64 && clique_row_start(n64, u + 1) <= e {
                u += 1;
            }
            *hint = (u as u32, clique_row_start(n64, u) as u32);
        }
        Self {
            n,
            shift,
            row_hint: row_hint.into_boxed_slice(),
        }
    }

    /// Number of edges `n(n−1)/2`.
    #[must_use]
    pub fn num_edges(&self) -> u64 {
        let n = u64::from(self.n);
        n * n.saturating_sub(1) / 2
    }

    /// The raw parts of the hint-table decode — `(n, shift, row_hint)`
    /// — for hot loops that fuse [`clique_decode`] into their own draw
    /// loop with the parts hoisted into locals. `row_hint` is empty
    /// beyond [`CLIQUE_HINT_MAX_EDGES`], where only [`Self::edge`]
    /// decodes.
    #[must_use]
    pub fn parts(&self) -> (u32, u32, &[(u32, u32)]) {
        (self.n, self.shift, &self.row_hint)
    }

    /// Endpoints `(u, v)`, `u < v`, of canonical edge `e`.
    ///
    /// `e` must be below [`Self::num_edges`].
    #[inline]
    #[must_use]
    pub fn edge(&self, e: u64) -> (NodeId, NodeId) {
        debug_assert!(e < self.num_edges(), "edge index out of range");
        if self.row_hint.is_empty() {
            wide_decode(e, u64::from(self.n))
        } else {
            clique_decode(e as u32, self.n, self.shift, &self.row_hint)
        }
    }
}

/// Arithmetic inverse of the canonical lexicographic clique edge index
/// through a hint table ([`CliqueIndex::parts`]): bucket hint plus a
/// (rarely entered) row advance. Row `u` holds the edges
/// `start .. start + (n − 1 − u)`.
#[inline]
#[must_use]
pub fn clique_decode(e: u32, n: u32, shift: u32, row_hint: &[(u32, u32)]) -> (NodeId, NodeId) {
    let (mut u, mut start) = row_hint[(e as usize) >> shift];
    // Almost always zero iterations: a bucket rarely crosses a row
    // boundary.
    while e - start >= n - 1 - u {
        start += n - 1 - u;
        u += 1;
    }
    (u, u + 1 + (e - start))
}

/// Number of canonical lexicographic edges of `K_n` preceding row `u`
/// (row `u` lists the edges `(u, u+1) … (u, n−1)`).
#[inline]
#[must_use]
pub fn clique_row_start(n: u64, u: u64) -> u64 {
    // 128-bit product: `u · (2n − u − 1)` overflows 64 bits for cliques
    // on more than 2³¹ nodes; the quotient (an edge count) never does.
    (u128::from(u) * u128::from(2 * n - u - 1) / 2) as u64
}

/// The decode beyond the hint table's `u32` range: the row is the
/// largest `u` with `start(u) ≤ e`; the real root of the row-start
/// quadratic lands within a few rows of it in `f64`, and exact integer
/// steps settle it.
fn wide_decode(e: u64, n: u64) -> (NodeId, NodeId) {
    let a = (2 * n - 1) as f64;
    let root = (a - (a * a - 8.0 * e as f64).max(0.0).sqrt()) / 2.0;
    let mut u = (root as u64).min(n - 2);
    while u > 0 && clique_row_start(n, u) > e {
        u -= 1;
    }
    while u + 2 < n && clique_row_start(n, u + 1) <= e {
        u += 1;
    }
    let v = u + 1 + (e - clique_row_start(n, u));
    (u as NodeId, v as NodeId)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical lexicographic edge list of `K_n`.
    fn pairs(n: u32) -> Vec<(u32, u32)> {
        (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect()
    }

    #[test]
    fn hint_decode_inverts_the_canonical_order() {
        for n in [2u32, 3, 5, 37, 256, 1000] {
            let index = CliqueIndex::new(n);
            assert_eq!(index.num_edges(), u64::from(n) * u64::from(n - 1) / 2);
            for (e, &pair) in pairs(n).iter().enumerate() {
                assert_eq!(index.edge(e as u64), pair, "clique({n}) edge {e}");
            }
        }
    }

    #[test]
    fn wide_decode_agrees_with_the_hint_walk() {
        for n in [2u32, 3, 5, 37, 256, 1000] {
            for (e, &pair) in pairs(n).iter().enumerate() {
                assert_eq!(wide_decode(e as u64, u64::from(n)), pair, "n {n} e {e}");
            }
        }
    }

    #[test]
    fn giant_cliques_decode_row_boundaries_exactly() {
        // Beyond the hint table's range no list could be materialized;
        // the first and last edge of sampled rows pin the wide decode.
        for n in [92_683u32, 1_000_000, 10_000_000, u32::MAX] {
            let index = CliqueIndex::new(n);
            assert!(index.num_edges() > CLIQUE_HINT_MAX_EDGES);
            assert!(index.parts().2.is_empty());
            let n64 = u64::from(n);
            for u in [0, 1, 2, n64 / 3, n64 / 2, n64 - 3, n64 - 2] {
                let start = clique_row_start(n64, u);
                assert_eq!(index.edge(start), (u as u32, u as u32 + 1), "n {n} row {u}");
                let last = clique_row_start(n64, u + 1) - 1;
                assert_eq!(index.edge(last), (u as u32, n - 1), "n {n} row {u}");
            }
            assert_eq!(index.edge(index.num_edges() - 1), (n - 2, n - 1));
        }
    }

    #[test]
    fn hint_table_stays_small_at_the_bound() {
        // The largest clique within the u32 edge range.
        let index = CliqueIndex::new(92_682);
        assert!(index.num_edges() <= CLIQUE_HINT_MAX_EDGES);
        let (_, _, row_hint) = index.parts();
        assert!(row_hint.len() <= (1 << 16) + 1);
        let m = index.num_edges();
        assert_eq!(index.edge(m - 1), (92_680, 92_681));
        assert_eq!(index.edge(0), (0, 1));
    }
}
