//! Random graph models.
//!
//! * Erdős–Rényi `G(n, p)` and `G(n, m)` — the average-case setting of
//!   Section 7 (Theorems 40 and 46 concern dense `G(n, p)` with constant
//!   `p`);
//! * random `d`-regular graphs via the configuration model with rejection —
//!   the regular-graph setting of Corollary 25.
//!
//! All generators take an explicit seed and are fully deterministic.

use crate::graph::{Graph, GraphBuilder};
use crate::properties::is_connected;
use popele_math::dist::Geometric;
use popele_math::rng::small_rng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Samples `G ~ G(n, p)`: every unordered pair becomes an edge
/// independently with probability `p`.
///
/// Uses geometric skipping over the `\binom{n}{2}` pair indices, so the
/// running time is `O(n + m)` rather than `O(n²)` for sparse graphs.
///
/// # Panics
///
/// Panics unless `n ≥ 1` and `0 ≤ p ≤ 1`.
#[must_use]
pub fn erdos_renyi(n: u32, p: f64, seed: u64) -> Graph {
    assert!(n >= 1, "G(n,p) requires n ≥ 1");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut b = GraphBuilder::new(n);
    if p > 0.0 && n >= 2 {
        let mut rng = small_rng(seed);
        let total_pairs = u64::from(n) * (u64::from(n) - 1) / 2;
        if p >= 1.0 {
            for u in 0..n {
                for v in u + 1..n {
                    b.add_edge(u, v).expect("valid by construction");
                }
            }
        } else {
            let geo = Geometric::new(p);
            // Skip to each successive present pair.
            let mut index = geo.sample(&mut rng) - 1; // 0-based index of first edge
            while index < total_pairs {
                let (u, v) = pair_from_index(index, n);
                b.add_edge(u, v).expect("valid by construction");
                index = index.saturating_add(geo.sample(&mut rng));
            }
        }
    }
    b.build().expect("valid by construction")
}

/// Maps a linear index in `0..C(n,2)` to the corresponding unordered pair
/// in lexicographic order: `(0,1), (0,2), …, (0,n−1), (1,2), …`.
fn pair_from_index(index: u64, n: u32) -> (u32, u32) {
    let n = u64::from(n);
    // Row u starts at offset u*n − u(u+3)/2 ... we find u by scanning rows
    // arithmetically: remaining pairs after row u is (n−1−u) per row.
    // Solve via the quadratic formula on cumulative counts.
    // cum(u) = u*n − u(u+1)/2 pairs precede row u.
    let idx = index;
    // Binary search is simplest and branch-predictable for our sizes.
    let (mut lo, mut hi) = (0u64, n - 1);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        let cum = mid * n - mid * (mid + 1) / 2;
        if cum <= idx {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let u = lo;
    let cum = u * n - u * (u + 1) / 2;
    let v = u + 1 + (idx - cum);
    (u as u32, v as u32)
}

/// Samples `G ~ G(n, p)` conditioned on connectivity by rejection.
///
/// # Panics
///
/// Panics if no connected sample is found within `max_attempts` — choose
/// `p` above the connectivity threshold `ln n / n`.
#[must_use]
pub fn erdos_renyi_connected(n: u32, p: f64, seed: u64, max_attempts: u32) -> Graph {
    let mut rng = small_rng(seed);
    for _ in 0..max_attempts {
        let g = erdos_renyi(n, p, rng.random::<u64>());
        if is_connected(&g) {
            return g;
        }
    }
    panic!("no connected G({n},{p}) sample in {max_attempts} attempts");
}

/// Samples a uniform graph with exactly `m` edges (`G(n, m)` model).
///
/// # Panics
///
/// Panics unless `m ≤ C(n,2)`.
#[must_use]
pub fn gnm(n: u32, m: u64, seed: u64) -> Graph {
    let total_pairs = u64::from(n) * (u64::from(n).saturating_sub(1)) / 2;
    assert!(m <= total_pairs, "m exceeds the number of pairs");
    let mut rng = small_rng(seed);
    // Floyd's algorithm for a uniform m-subset of 0..total_pairs.
    let mut chosen = std::collections::HashSet::with_capacity(m as usize);
    for j in total_pairs - m..total_pairs {
        let t = rng.random_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    let mut b = GraphBuilder::new(n);
    for &idx in &chosen {
        let (u, v) = pair_from_index(idx, n);
        b.add_edge(u, v).expect("valid by construction");
    }
    b.build().expect("valid by construction")
}

/// Samples a random `d`-regular graph by the configuration model with
/// rejection of self-loops and parallel edges (uniform for `d ∈ O(1)`;
/// asymptotically uniform in general).
///
/// # Panics
///
/// Panics unless `n·d` is even, `d < n`, and a simple matching is found
/// within an internal retry budget (effectively always for `d ≤ √n`).
#[must_use]
pub fn random_regular(n: u32, d: u32, seed: u64) -> Graph {
    assert!(d < n, "degree must be below n");
    assert!((u64::from(n) * u64::from(d)) % 2 == 0, "n·d must be even");
    if d == 0 {
        return GraphBuilder::new(n).build().expect("nonempty");
    }
    let mut rng = small_rng(seed);
    // Half-edge stubs: node v owns stubs v*d..(v+1)*d.
    let mut stubs: Vec<u32> = (0..n)
        .flat_map(|v| std::iter::repeat_n(v, d as usize))
        .collect();
    // Per-attempt adjacency, reused across attempts: node v's partners
    // so far are partners[v*d..v*d + fill[v]]. A repeated pair shows up
    // as a scan of at most d entries — no hashing per stub pair.
    let d = d as usize;
    let mut partners = vec![0u32; stubs.len()];
    let mut fill = vec![0u32; n as usize];
    // The pairing is simple with probability ≈ exp((1 − d²)/4), e.g.
    // ≈ 0.25% at d = 5 — a budget of 10⁵ cheap attempts makes overall
    // failure astronomically unlikely for every d ≤ √n.
    'attempt: for _ in 0..100_000 {
        stubs.shuffle(&mut rng);
        // An attempt is accepted iff it has no self-loop and no repeated
        // pair, so checking loops first changes no verdict. It is a
        // sequential pass, and it rejects most attempts (P[no loop] ≈
        // exp((1 − d)/2)) before the partner scan's random accesses.
        if stubs.chunks_exact(2).any(|pair| pair[0] == pair[1]) {
            continue;
        }
        fill.fill(0);
        for pair in stubs.chunks_exact(2) {
            let (u, v) = (pair[0] as usize, pair[1] as usize);
            let (fu, fv) = (fill[u] as usize, fill[v] as usize);
            if partners[u * d..u * d + fu].contains(&pair[1]) {
                continue 'attempt;
            }
            partners[u * d + fu] = pair[1];
            partners[v * d + fv] = pair[0];
            fill[u] += 1;
            fill[v] += 1;
        }
        // Simple: only the accepted pairing is built into a graph.
        let mut b = GraphBuilder::new(n);
        for pair in stubs.chunks_exact(2) {
            b.add_edge(pair[0], pair[1]).expect("checked above");
        }
        return b.build().expect("valid by construction");
    }
    panic!("configuration model failed to produce a simple {d}-regular graph on {n} nodes");
}

/// Samples a *connected* random `d`-regular graph by rejection.
///
/// # Panics
///
/// As [`random_regular`], plus panics if no connected sample appears within
/// `max_attempts` (random regular graphs with `d ≥ 3` are connected w.h.p.,
/// so a handful of attempts suffices).
#[must_use]
pub fn random_regular_connected(n: u32, d: u32, seed: u64, max_attempts: u32) -> Graph {
    let mut rng = small_rng(seed);
    for _ in 0..max_attempts {
        let g = random_regular(n, d, rng.random::<u64>());
        if is_connected(&g) {
            return g;
        }
    }
    panic!("no connected {d}-regular sample on {n} nodes in {max_attempts} attempts");
}

#[cfg(test)]
mod tests {
    use super::*;
    use popele_math::stats::Welford;

    #[test]
    fn pair_index_roundtrip() {
        let n = 7u32;
        let mut idx = 0u64;
        for u in 0..n {
            for v in u + 1..n {
                assert_eq!(pair_from_index(idx, n), (u, v));
                idx += 1;
            }
        }
    }

    #[test]
    fn gnp_zero_and_one() {
        let empty = erdos_renyi(10, 0.0, 1);
        assert_eq!(empty.num_edges(), 0);
        let full = erdos_renyi(10, 1.0, 1);
        assert_eq!(full.num_edges(), 45);
    }

    #[test]
    fn gnp_tiny_p_is_almost_surely_empty() {
        // p below 2⁻⁵³: the expected edge count is ~2·10⁻¹², not the
        // complete graph a rounded-away skip length would give.
        assert_eq!(erdos_renyi(2000, 1e-18, 3).num_edges(), 0);
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let n = 60u32;
        let p = 0.3;
        let expected = f64::from(n) * f64::from(n - 1) / 2.0 * p;
        let mut w = Welford::new();
        for seed in 0..60 {
            w.push(erdos_renyi(n, p, seed).num_edges() as f64);
        }
        assert!(
            (w.mean() - expected).abs() < 0.05 * expected,
            "mean {} vs expected {}",
            w.mean(),
            expected
        );
    }

    #[test]
    fn gnp_deterministic_per_seed() {
        let a = erdos_renyi(40, 0.2, 99);
        let b = erdos_renyi(40, 0.2, 99);
        assert_eq!(a, b);
        let c = erdos_renyi(40, 0.2, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn gnp_connected_is_connected() {
        let g = erdos_renyi_connected(50, 0.2, 7, 100);
        assert!(is_connected(&g));
    }

    #[test]
    fn gnm_exact_edge_count() {
        for m in [0u64, 1, 10, 45] {
            let g = gnm(10, m, 5);
            assert_eq!(g.num_edges() as u64, m);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn gnm_too_many_edges() {
        let _ = gnm(4, 7, 0);
    }

    #[test]
    fn regular_graph_is_regular() {
        for (n, d) in [(10u32, 3u32), (20, 4), (16, 5)] {
            let g = random_regular(n, d, 42);
            assert_eq!(g.num_nodes(), n);
            assert!(g.is_regular(), "not regular: n={n} d={d}");
            assert_eq!(g.max_degree(), d);
            assert_eq!(g.num_edges() as u64, u64::from(n) * u64::from(d) / 2);
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn regular_odd_product_rejected() {
        let _ = random_regular(5, 3, 0);
    }

    #[test]
    fn regular_zero_degree() {
        let g = random_regular(6, 0, 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn regular_connected_is_connected() {
        let g = random_regular_connected(30, 3, 11, 50);
        assert!(is_connected(&g));
        assert!(g.is_regular());
    }

    #[test]
    fn dense_gnp_is_almost_regular() {
        // Theorem 40's setting: p constant → degrees concentrate near np.
        let g = erdos_renyi(200, 0.5, 3);
        let expected = 199.0 * 0.5;
        assert!(f64::from(g.min_degree()) > expected * 0.7);
        assert!(f64::from(g.max_degree()) < expected * 1.3);
    }
}
