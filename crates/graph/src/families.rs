//! Deterministic graph families.
//!
//! Every family referenced by the paper's Table 1 or used in its proofs is
//! available here. All constructors panic on degenerate sizes (documented
//! per function) — family sizes are experiment parameters, so failing fast
//! beats propagating errors.

use crate::graph::{Graph, GraphBuilder, NodeId};

/// Complete graph `K_n`, in the implicit form: `O(1)` memory in `n`
/// apart from a hint table of at most `2¹⁶` entries.
///
/// Edge counts, degrees, adjacency tests and the scheduler's edge
/// decoding are arithmetic (see [`crate::clique::CliqueIndex`]). The
/// first call of [`Graph::edges`] or [`Graph::neighbors`] builds the
/// `O(n²)` edge list and adjacency — 122 MiB at `n = 4000` — and keeps
/// them for the graph's lifetime. The graph equals the CSR graph of its
/// complete edge list.
///
/// # Panics
///
/// Panics if `n < 1`.
#[must_use]
pub fn clique(n: u32) -> Graph {
    assert!(n >= 1, "clique requires n ≥ 1");
    Graph::implicit_clique(n)
}

/// Cycle `C_n`.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn cycle(n: u32) -> Graph {
    assert!(n >= 3, "cycle requires n ≥ 3");
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        b.add_edge(v, (v + 1) % n).expect("valid by construction");
    }
    b.build().expect("valid by construction")
}

/// Path `P_n` on `n` nodes (`n − 1` edges).
///
/// # Panics
///
/// Panics if `n < 1`.
#[must_use]
pub fn path(n: u32) -> Graph {
    assert!(n >= 1, "path requires n ≥ 1");
    let mut b = GraphBuilder::new(n);
    for v in 0..n.saturating_sub(1) {
        b.add_edge(v, v + 1).expect("valid by construction");
    }
    b.build().expect("valid by construction")
}

/// Star `S_n`: node 0 is the centre, nodes `1..n` are leaves.
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn star(n: u32) -> Graph {
    assert!(n >= 2, "star requires n ≥ 2");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(0, v).expect("valid by construction");
    }
    b.build().expect("valid by construction")
}

/// Complete bipartite graph `K_{a,b}`; the first `a` ids form one side.
///
/// # Panics
///
/// Panics if `a < 1` or `b < 1`.
#[must_use]
pub fn complete_bipartite(a: u32, b: u32) -> Graph {
    assert!(a >= 1 && b >= 1, "both sides must be nonempty");
    let mut builder = GraphBuilder::new(a + b);
    for u in 0..a {
        for v in a..a + b {
            builder.add_edge(u, v).expect("valid by construction");
        }
    }
    builder.build().expect("valid by construction")
}

/// `rows × cols` grid (4-neighbour lattice, no wraparound).
///
/// Node `(r, c)` has id `r·cols + c`.
///
/// # Panics
///
/// Panics if `rows < 1`, `cols < 1`, or the grid has fewer than 2 nodes.
#[must_use]
pub fn grid(rows: u32, cols: u32) -> Graph {
    assert!(rows >= 1 && cols >= 1, "grid dimensions must be positive");
    assert!(rows * cols >= 2, "grid must have at least 2 nodes");
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let id = r * cols + c;
            if c + 1 < cols {
                b.add_edge(id, id + 1).expect("valid by construction");
            }
            if r + 1 < rows {
                b.add_edge(id, id + cols).expect("valid by construction");
            }
        }
    }
    b.build().expect("valid by construction")
}

/// `rows × cols` torus (grid with wraparound); 4-regular when both sides
/// are ≥ 3.
///
/// # Panics
///
/// Panics if `rows < 3` or `cols < 3` (smaller tori would create parallel
/// edges).
#[must_use]
pub fn torus(rows: u32, cols: u32) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus requires both sides ≥ 3");
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let id = r * cols + c;
            let right = r * cols + (c + 1) % cols;
            let down = ((r + 1) % rows) * cols + c;
            b.add_edge(id, right).expect("valid by construction");
            b.add_edge(id, down).expect("valid by construction");
        }
    }
    b.build().expect("valid by construction")
}

/// `k`-dimensional toroidal grid with `side` nodes per dimension
/// (`side^k` nodes, `2k`-regular). Used for the `Ω(n^{1+1/k})`-renitent
/// examples in Section 6.2.
///
/// # Panics
///
/// Panics if `side < 3`, `k < 1`, or `side^k` overflows `u32`.
#[must_use]
pub fn torus_kd(side: u32, k: u32) -> Graph {
    assert!(side >= 3, "toroidal grid requires side ≥ 3");
    assert!(k >= 1, "dimension must be ≥ 1");
    let n = side.checked_pow(k).expect("side^k must fit in u32");
    let mut b = GraphBuilder::new(n);
    // Node id encodes coordinates in base `side`.
    let mut stride = 1u32;
    for _dim in 0..k {
        for id in 0..n {
            let coord = (id / stride) % side;
            let next_coord = (coord + 1) % side;
            let neighbor = id - coord * stride + next_coord * stride;
            b.add_edge(id, neighbor).expect("valid by construction");
        }
        stride *= side;
    }
    b.build().expect("valid by construction")
}

/// `d`-dimensional hypercube `Q_d` on `2^d` nodes.
///
/// # Panics
///
/// Panics if `d < 1` or `d > 31`.
#[must_use]
pub fn hypercube(d: u32) -> Graph {
    assert!(
        (1..=31).contains(&d),
        "hypercube dimension must be in 1..=31"
    );
    let n = 1u32 << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if v < u {
                b.add_edge(v, u).expect("valid by construction");
            }
        }
    }
    b.build().expect("valid by construction")
}

/// Complete binary tree on `n` nodes (heap ordering: children of `v` are
/// `2v + 1` and `2v + 2`).
///
/// # Panics
///
/// Panics if `n < 1`.
#[must_use]
pub fn binary_tree(n: u32) -> Graph {
    assert!(n >= 1, "tree requires n ≥ 1");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(v, (v - 1) / 2).expect("valid by construction");
    }
    b.build().expect("valid by construction")
}

/// Lollipop graph: a clique on `clique_n` nodes with a path of
/// `path_n` extra nodes attached to clique node 0. A classic worst case for
/// random-walk hitting times (`H(G) ∈ Θ(n³)`).
///
/// # Panics
///
/// Panics if `clique_n < 1` or `path_n < 1`.
#[must_use]
pub fn lollipop(clique_n: u32, path_n: u32) -> Graph {
    assert!(clique_n >= 1 && path_n >= 1);
    let n = clique_n + path_n;
    let mut b = GraphBuilder::new(n);
    for u in 0..clique_n {
        for v in u + 1..clique_n {
            b.add_edge(u, v).expect("valid by construction");
        }
    }
    b.add_edge(0, clique_n).expect("valid by construction");
    for v in clique_n..n - 1 {
        b.add_edge(v, v + 1).expect("valid by construction");
    }
    b.build().expect("valid by construction")
}

/// Barbell graph: two cliques of size `clique_n` joined by a path of
/// `bridge_n` intermediate nodes.
///
/// # Panics
///
/// Panics if `clique_n < 2`.
#[must_use]
pub fn barbell(clique_n: u32, bridge_n: u32) -> Graph {
    assert!(clique_n >= 2, "barbell cliques need ≥ 2 nodes");
    let n = 2 * clique_n + bridge_n;
    let mut b = GraphBuilder::new(n);
    for base in [0, clique_n] {
        for u in 0..clique_n {
            for v in u + 1..clique_n {
                b.add_edge(base + u, base + v)
                    .expect("valid by construction");
            }
        }
    }
    if bridge_n == 0 {
        b.add_edge(0, clique_n).expect("valid by construction");
    } else {
        let first_bridge = 2 * clique_n;
        b.add_edge(0, first_bridge).expect("valid by construction");
        for i in 0..bridge_n - 1 {
            b.add_edge(first_bridge + i, first_bridge + i + 1)
                .expect("valid by construction");
        }
        b.add_edge(first_bridge + bridge_n - 1, clique_n)
            .expect("valid by construction");
    }
    b.build().expect("valid by construction")
}

/// The anchor node conventionally used when attaching structures to a
/// family graph (e.g. in the renitent construction of Lemma 38).
///
/// For all families in this module node `0` is a sensible anchor: clique
/// nodes are symmetric, it is the star centre, a cycle/path endpoint, and a
/// grid corner.
#[must_use]
pub fn anchor(_g: &Graph) -> NodeId {
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::is_connected;

    #[test]
    fn clique_counts() {
        let g = clique(6);
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 15);
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 5);
        assert!(is_connected(&g));
    }

    #[test]
    fn clique_of_one() {
        let g = clique(1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn cycle_counts() {
        let g = cycle(7);
        assert_eq!(g.num_edges(), 7);
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 2);
        assert!(is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "n ≥ 3")]
    fn cycle_too_small() {
        let _ = cycle(2);
    }

    #[test]
    fn path_counts() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert!(is_connected(&g));
        assert_eq!(path(1).num_edges(), 0);
    }

    #[test]
    fn star_counts() {
        let g = star(10);
        assert_eq!(g.num_edges(), 9);
        assert_eq!(g.degree(0), 9);
        for v in 1..10 {
            assert_eq!(g.degree(v), 1);
        }
        assert!(is_connected(&g));
    }

    #[test]
    fn complete_bipartite_counts() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.num_edges(), 12);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(3), 3);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(0, 3));
    }

    #[test]
    fn grid_counts() {
        let g = grid(3, 4);
        assert_eq!(g.num_nodes(), 12);
        // Edges: 3 rows × 3 horizontal + 2 × 4 vertical = 9 + 8 = 17.
        assert_eq!(g.num_edges(), 17);
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(1), 3); // edge
        assert_eq!(g.degree(5), 4); // interior
        assert!(is_connected(&g));
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(4, 5);
        assert_eq!(g.num_nodes(), 20);
        assert_eq!(g.num_edges(), 40);
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 4);
        assert!(is_connected(&g));
    }

    #[test]
    fn torus_kd_matches_2d() {
        let a = torus_kd(5, 2);
        let b = torus(5, 5);
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        assert!(a.is_regular());
        assert_eq!(a.max_degree(), 4);
    }

    #[test]
    fn torus_kd_3d() {
        let g = torus_kd(3, 3);
        assert_eq!(g.num_nodes(), 27);
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 6);
        assert!(is_connected(&g));
    }

    #[test]
    fn hypercube_counts() {
        let g = hypercube(4);
        assert_eq!(g.num_nodes(), 16);
        assert_eq!(g.num_edges(), 32);
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 4);
        assert!(is_connected(&g));
    }

    #[test]
    fn binary_tree_counts() {
        let g = binary_tree(7);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 1);
        assert!(is_connected(&g));
    }

    #[test]
    fn lollipop_counts() {
        let g = lollipop(5, 3);
        assert_eq!(g.num_nodes(), 8);
        assert_eq!(g.num_edges(), 10 + 3);
        assert_eq!(g.degree(0), 5); // clique + path attachment
        assert_eq!(g.degree(7), 1); // path tip
        assert!(is_connected(&g));
    }

    #[test]
    fn barbell_counts() {
        let g = barbell(4, 2);
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 6 + 6 + 3);
        assert!(is_connected(&g));
        let g0 = barbell(3, 0);
        assert_eq!(g0.num_nodes(), 6);
        assert_eq!(g0.num_edges(), 3 + 3 + 1);
        assert!(is_connected(&g0));
    }
}
