//! Structural graph statistics used to parameterize protocols and report
//! experiment context.
//!
//! Exact edge expansion `β(G)` (Section 2.1) is only computed by subset
//! enumeration for very small graphs; larger graphs use the spectral
//! estimate of [`conductance_bounds`], or the closed forms known for the
//! deterministic families. Protocols themselves are parameterized by the
//! measured broadcast time, so these statistics affect reporting only.

use crate::graph::{Graph, NodeId};
use crate::traversal::{bfs_distances, connected_components, eccentricity, UNREACHABLE};
use popele_math::linalg::{power_iteration, second_eigenvalue, Matrix};

/// Whether the graph is connected.
#[must_use]
pub fn is_connected(g: &Graph) -> bool {
    connected_components(g).0 == 1
}

/// Exact diameter via all-pairs BFS (`O(n·m)`), or [`UNREACHABLE`] if
/// disconnected.
///
/// Suitable for the graph sizes in this workspace (up to a few tens of
/// thousands of nodes for sparse graphs). A complete graph answers
/// arithmetically, without a BFS (or materializing an implicit clique).
#[must_use]
pub fn diameter(g: &Graph) -> u32 {
    if g.is_complete() {
        return complete_diameter(g);
    }
    let mut diam = 0;
    for v in g.nodes() {
        let e = eccentricity(g, v);
        if e == UNREACHABLE {
            return UNREACHABLE;
        }
        diam = diam.max(e);
    }
    diam
}

/// Lower bound on the diameter by a double BFS sweep (exact on trees, and
/// a good estimate elsewhere at `O(m)` cost). A complete graph answers
/// arithmetically — the value the sweep would return — without a BFS (or
/// materializing an implicit clique).
#[must_use]
pub fn diameter_double_sweep(g: &Graph) -> u32 {
    if g.is_complete() {
        return complete_diameter(g);
    }
    let d0 = bfs_distances(g, 0);
    let (far, &best) = d0
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != UNREACHABLE)
        .max_by_key(|&(_, &d)| d)
        .expect("graph is nonempty");
    let _ = best;
    eccentricity(g, far as NodeId)
}

/// Diameter of `K_n`: 1, or 0 for the single node.
fn complete_diameter(g: &Graph) -> u32 {
    u32::from(g.num_nodes() >= 2)
}

/// Exact edge expansion `β(G) = min_{0<|S|≤n/2} |∂S|/|S|` by exhaustive
/// subset enumeration.
///
/// # Panics
///
/// Panics if `n > 24` (enumeration would be infeasible) or `n < 2`.
#[must_use]
pub fn edge_expansion_exact(g: &Graph) -> f64 {
    let n = g.num_nodes();
    assert!(n >= 2, "expansion needs at least 2 nodes");
    assert!(n <= 24, "exact expansion limited to n ≤ 24");
    let n = n as usize;
    let mut best = f64::INFINITY;
    // Enumerate nonempty subsets with |S| ≤ n/2; representing S as a bitmask.
    for mask in 1u32..(1u32 << n) {
        let size = mask.count_ones() as usize;
        if size > n / 2 {
            continue;
        }
        let mut boundary = 0usize;
        for &(u, v) in g.edges() {
            let u_in = mask & (1 << u) != 0;
            let v_in = mask & (1 << v) != 0;
            if u_in != v_in {
                boundary += 1;
            }
        }
        let ratio = boundary as f64 / size as f64;
        if ratio < best {
            best = ratio;
        }
    }
    best
}

/// Closed-form edge expansion for families where it is known, used to
/// avoid the exponential exact computation in experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KnownExpansion {
    /// Clique `K_n`: `β = ⌈n/2⌉`.
    Clique(u32),
    /// Cycle `C_n`: `β = 2/⌊n/2⌋`.
    Cycle(u32),
    /// Star `S_n`: `β = 1` (any leaf set has boundary = its size).
    Star(u32),
    /// Hypercube `Q_d`: `β = 1` (isoperimetric inequality, achieved by
    /// subcubes).
    Hypercube(u32),
}

impl KnownExpansion {
    /// The exact edge expansion of the family member.
    #[must_use]
    pub fn value(self) -> f64 {
        match self {
            KnownExpansion::Clique(n) => (n as f64 / 2.0).ceil(),
            KnownExpansion::Cycle(n) => 2.0 / f64::from(n / 2),
            KnownExpansion::Star(_) => 1.0,
            KnownExpansion::Hypercube(_) => 1.0,
        }
    }
}

/// Spectral bounds `(lower, upper)` on the conductance `φ(G)` via the
/// Cheeger inequality: `(1−λ₂)/2 ≤ φ ≤ √(2(1−λ₂))`, where `λ₂` is the
/// second eigenvalue of the lazy normalized adjacency operator.
///
/// Builds a dense matrix, so restricted to `n ≤ 2000`.
///
/// # Panics
///
/// Panics if the graph is disconnected or `n > 2000`.
#[must_use]
pub fn conductance_bounds(g: &Graph) -> (f64, f64) {
    assert!(is_connected(g), "conductance bounds need a connected graph");
    let n = g.num_nodes() as usize;
    assert!(n <= 2000, "spectral estimate limited to n ≤ 2000");
    // Symmetrized lazy walk matrix: M = (I + D^{-1/2} A D^{-1/2}) / 2.
    // Its spectrum is in [0, 1]; the top eigenvalue is 1 with eigenvector
    // ∝ sqrt(deg), and 1 − λ₂(M) = (1 − λ₂(walk))/2 … we report in terms of
    // the non-lazy normalized adjacency eigenvalue recovered from M.
    let mut m = Matrix::zeros(n, n);
    for &(u, v) in g.edges() {
        let w = 0.5 / ((g.degree(u) as f64).sqrt() * (g.degree(v) as f64).sqrt());
        m[(u as usize, v as usize)] = w;
        m[(v as usize, u as usize)] = w;
    }
    for v in 0..n {
        m[(v, v)] = 0.5;
    }
    let iterations = 80 + 40 * (n as f64).log2() as usize;
    let (_top, top_vec) = power_iteration(&m, iterations);
    let lambda2_lazy = second_eigenvalue(&m, &top_vec, iterations);
    // Undo the laziness: λ₂(normalized adjacency) = 2λ₂(M) − 1.
    let lambda2 = (2.0 * lambda2_lazy - 1.0).clamp(-1.0, 1.0);
    let gap = (1.0 - lambda2).max(0.0);
    (gap / 2.0, (2.0 * gap).sqrt().min(1.0))
}

/// Bundle of statistics reported by the experiment harness for a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes `n`.
    pub num_nodes: u32,
    /// Number of edges `m`.
    pub num_edges: usize,
    /// Maximum degree `Δ`.
    pub max_degree: u32,
    /// Minimum degree `δ`.
    pub min_degree: u32,
    /// Exact diameter `D`.
    pub diameter: u32,
    /// Whether the graph is regular.
    pub regular: bool,
}

impl GraphStats {
    /// Computes the statistics bundle (uses the exact diameter).
    #[must_use]
    pub fn compute(g: &Graph) -> Self {
        Self {
            num_nodes: g.num_nodes(),
            num_edges: g.num_edges(),
            max_degree: g.max_degree(),
            min_degree: g.min_degree(),
            diameter: diameter(g),
            regular: g.is_regular(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;
    use crate::graph::Graph;

    #[test]
    fn connectivity() {
        assert!(is_connected(&families::clique(5)));
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!is_connected(&g));
    }

    #[test]
    fn diameters_of_families() {
        assert_eq!(diameter(&families::clique(8)), 1);
        assert_eq!(diameter(&families::cycle(8)), 4);
        assert_eq!(diameter(&families::cycle(9)), 4);
        assert_eq!(diameter(&families::path(6)), 5);
        assert_eq!(diameter(&families::star(9)), 2);
        assert_eq!(diameter(&families::hypercube(4)), 4);
        assert_eq!(diameter(&families::torus(4, 4)), 4);
    }

    #[test]
    fn double_sweep_exact_on_paths_and_trees() {
        assert_eq!(diameter_double_sweep(&families::path(9)), 8);
        let t = families::binary_tree(15);
        assert_eq!(diameter_double_sweep(&t), diameter(&t));
    }

    #[test]
    fn double_sweep_lower_bounds_diameter() {
        let g = families::torus(5, 7);
        assert!(diameter_double_sweep(&g) <= diameter(&g));
    }

    #[test]
    fn expansion_of_clique() {
        // K_4: minimum over |S|=2: boundary 4, ratio 2; |S|=1: 3.
        let b = edge_expansion_exact(&families::clique(4));
        assert!((b - 2.0).abs() < 1e-12);
        assert_eq!(KnownExpansion::Clique(4).value(), 2.0);
    }

    #[test]
    fn expansion_of_cycle() {
        // C_8: worst S is a half-arc: boundary 2, |S| = 4 → 0.5.
        let b = edge_expansion_exact(&families::cycle(8));
        assert!((b - 0.5).abs() < 1e-12);
        assert!((KnownExpansion::Cycle(8).value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn expansion_of_star() {
        // S_6: any set of k ≤ 3 leaves has boundary k → β = 1.
        let b = edge_expansion_exact(&families::star(6));
        assert!((b - 1.0).abs() < 1e-12);
        assert_eq!(KnownExpansion::Star(6).value(), 1.0);
    }

    #[test]
    fn expansion_of_hypercube() {
        let b = edge_expansion_exact(&families::hypercube(3));
        assert!((b - 1.0).abs() < 1e-12, "got {b}");
        assert_eq!(KnownExpansion::Hypercube(3).value(), 1.0);
    }

    #[test]
    fn conductance_bounds_sandwich_clique() {
        // K_n conductance = β/Δ = ⌈n/2⌉/(n−1) ≈ 1/2.
        let (lo, hi) = conductance_bounds(&families::clique(16));
        let exact = 8.0 / 15.0;
        assert!(lo <= exact + 1e-6, "lower bound {lo} vs exact {exact}");
        assert!(hi >= exact - 1e-6, "upper bound {hi} vs exact {exact}");
        assert!(lo > 0.1, "clique should have large conductance, lo = {lo}");
    }

    #[test]
    fn conductance_bounds_detect_poor_expansion() {
        // A long cycle has conductance Θ(1/n); the upper bound must reflect
        // that it is small.
        let (_lo, hi) = conductance_bounds(&families::cycle(64));
        assert!(
            hi < 0.5,
            "cycle conductance upper bound should be small, got {hi}"
        );
    }

    #[test]
    fn stats_bundle() {
        let s = GraphStats::compute(&families::cycle(10));
        assert_eq!(s.num_nodes, 10);
        assert_eq!(s.num_edges, 10);
        assert_eq!(s.diameter, 5);
        assert!(s.regular);
        assert_eq!(s.max_degree, 2);
    }
}
