//! The core immutable undirected graph type.

use crate::clique::CliqueIndex;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Identifier of a node; nodes of an `n`-node graph are `0..n`.
pub type NodeId = u32;

/// Errors raised while building a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint is `>= num_nodes`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: NodeId,
        /// Number of nodes the builder was created with.
        num_nodes: u32,
    },
    /// An edge connects a node to itself.
    SelfLoop(NodeId),
    /// The same undirected edge was added twice.
    DuplicateEdge(NodeId, NodeId),
    /// The graph has zero nodes.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of range for graph with {num_nodes} nodes"
                )
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop at node {v}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge {{{u}, {v}}}"),
            GraphError::Empty => write!(f, "graph must have at least one node"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for [`Graph`].
///
/// # Examples
///
/// ```
/// use popele_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// let g = b.build()?;
/// assert_eq!(g.num_edges(), 2);
/// # Ok::<(), popele_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: u32,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `num_nodes` nodes.
    #[must_use]
    pub fn new(num_nodes: u32) -> Self {
        Self {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range endpoints or self-loops.
    /// Duplicate edges are detected at [`Self::build`] time.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                num_nodes: self.num_nodes,
            });
        }
        if v >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                num_nodes: self.num_nodes,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.edges.push((u.min(v), u.max(v)));
        Ok(())
    }

    /// Number of edges added so far.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] for a zero-node graph and
    /// [`GraphError::DuplicateEdge`] if the same edge was added twice.
    pub fn build(mut self) -> Result<Graph, GraphError> {
        if self.num_nodes == 0 {
            return Err(GraphError::Empty);
        }
        self.edges.sort_unstable();
        for w in self.edges.windows(2) {
            if w[0] == w[1] {
                return Err(GraphError::DuplicateEdge(w[0].0, w[0].1));
            }
        }
        Ok(Graph::from_sorted_edges(self.num_nodes, self.edges))
    }
}

/// An immutable, simple, undirected graph.
///
/// A graph takes one of two forms with identical observable behaviour:
///
/// * **CSR** — the canonical edge list plus compressed sparse-row
///   adjacency, built by [`GraphBuilder`] and [`Graph::from_edges`];
/// * **implicit clique** — `K_n` stored as its node count and a
///   [`CliqueIndex`], built by [`crate::families::clique`]. Counts,
///   degrees, [`Graph::has_edge`] and edge decoding are arithmetic; the
///   `O(n²)` arrays behind [`Graph::edges`] and [`Graph::neighbors`] are
///   built once, on the first call of either.
///
/// Equality is structural across forms: an implicit clique equals the
/// CSR graph of the same complete edge list.
///
/// Invariants: no self-loops, no parallel edges, canonical edge order
/// (`u < v`, lexicographically sorted), adjacency lists sorted ascending.
///
/// # Examples
///
/// ```
/// use popele_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// assert_eq!(g.degree(0), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.has_edge(3, 0));
/// assert!(!g.has_edge(0, 2));
/// # Ok::<(), popele_graph::GraphError>(())
/// ```
#[derive(Clone)]
pub struct Graph {
    num_nodes: u32,
    num_edges: usize,
    form: Form,
}

#[derive(Clone)]
enum Form {
    Csr(Csr),
    /// `K_n`: the arrays exist only once a cold caller asks for them.
    Clique {
        index: Arc<CliqueIndex>,
        csr: OnceLock<Csr>,
    },
}

#[derive(Debug, Clone)]
struct Csr {
    /// Canonical edge list: `u < v`, sorted.
    edges: Vec<(NodeId, NodeId)>,
    /// CSR offsets, length `num_nodes + 1`.
    offsets: Vec<u32>,
    /// Concatenated sorted adjacency lists, length `2m`.
    adjacency: Vec<NodeId>,
}

impl Csr {
    /// Builds the adjacency of validated, canonically sorted edges.
    fn from_sorted_edges(num_nodes: u32, edges: Vec<(NodeId, NodeId)>) -> Self {
        let n = num_nodes as usize;
        let mut degree = vec![0u32; n];
        for &(u, v) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut adjacency = vec![0u32; 2 * edges.len()];
        let mut cursor = offsets.clone();
        for &(u, v) in &edges {
            adjacency[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            adjacency[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        for i in 0..n {
            adjacency[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }
        Self {
            edges,
            offsets,
            adjacency,
        }
    }

    /// The arrays of `K_n`, from its edges generated in canonical order.
    fn clique(n: u32) -> Self {
        MATERIALIZED_CLIQUES.fetch_add(1, Ordering::Relaxed);
        let edges = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        Self::from_sorted_edges(n, edges)
    }
}

/// Implicit cliques whose arrays have been built in this process.
static MATERIALIZED_CLIQUES: AtomicUsize = AtomicUsize::new(0);

/// How many implicit cliques have had their `O(n²)` edge list and
/// adjacency built (by a call of [`Graph::edges`] or
/// [`Graph::neighbors`]) in this process so far — a diagnostic that
/// lets a test assert that a workload never materialized its clique.
#[must_use]
pub fn materialized_cliques() -> usize {
    MATERIALIZED_CLIQUES.load(Ordering::Relaxed)
}

impl Graph {
    /// Builds a graph from an edge list.
    ///
    /// # Errors
    ///
    /// Propagates the same validation errors as [`GraphBuilder`].
    pub fn from_edges(num_nodes: u32, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(num_nodes);
        for &(u, v) in edges {
            b.add_edge(u, v)?;
        }
        b.build()
    }

    /// Internal constructor from validated, canonically sorted edges.
    fn from_sorted_edges(num_nodes: u32, edges: Vec<(NodeId, NodeId)>) -> Self {
        Self {
            num_nodes,
            num_edges: edges.len(),
            form: Form::Csr(Csr::from_sorted_edges(num_nodes, edges)),
        }
    }

    /// The implicit complete graph `K_n` (see [`crate::families::clique`]).
    pub(crate) fn implicit_clique(n: u32) -> Self {
        let index = CliqueIndex::new(n);
        Self {
            num_nodes: n,
            num_edges: usize::try_from(index.num_edges()).expect("edge count fits usize"),
            form: Form::Clique {
                index: Arc::new(index),
                csr: OnceLock::new(),
            },
        }
    }

    /// The CSR arrays, building them first for an implicit clique.
    fn csr(&self) -> &Csr {
        match &self.form {
            Form::Csr(csr) => csr,
            Form::Clique { csr, .. } => csr.get_or_init(|| Csr::clique(self.num_nodes)),
        }
    }

    /// Number of nodes `n`.
    #[must_use]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of edges `m`.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The arithmetic edge index of an implicit clique, or `None` for a
    /// CSR graph (even a complete one). Edge `e` of [`Self::edges`] is
    /// `index.edge(e)`, so callers resolve edge indices without
    /// materializing the list.
    #[must_use]
    pub fn clique_index(&self) -> Option<&Arc<CliqueIndex>> {
        match &self.form {
            Form::Csr(_) => None,
            Form::Clique { index, .. } => Some(index),
        }
    }

    /// Whether the graph holds its edge list and adjacency arrays:
    /// always in the CSR form; for an implicit clique only once
    /// [`Self::edges`] or [`Self::neighbors`] has been called.
    #[must_use]
    pub fn is_materialized(&self) -> bool {
        match &self.form {
            Form::Csr(_) => true,
            Form::Clique { csr, .. } => csr.get().is_some(),
        }
    }

    /// Whether the graph is complete (`m = n(n−1)/2`) — in either form,
    /// since a simple graph with that many edges is `K_n`.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        let n = u64::from(self.num_nodes);
        self.num_edges as u64 == n * (n - 1) / 2
    }

    /// The canonical (sorted, `u < v`) edge list.
    ///
    /// On an implicit clique the first call of this or
    /// [`Self::neighbors`] builds the `O(n²)` edge list and adjacency
    /// (122 MiB at `n = 4000`), kept for the graph's lifetime. Hot paths
    /// resolve edge indices through [`Self::clique_index`] instead.
    #[must_use]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.csr().edges
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn degree(&self, v: NodeId) -> u32 {
        assert!(v < self.num_nodes, "node out of range");
        match &self.form {
            Form::Csr(csr) => csr.offsets[v as usize + 1] - csr.offsets[v as usize],
            Form::Clique { .. } => self.num_nodes - 1,
        }
    }

    /// Sorted neighbours of node `v`.
    ///
    /// Like [`Self::edges`], the first call on an implicit clique builds
    /// its `O(n²)` arrays.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        assert!(v < self.num_nodes, "node out of range");
        let csr = self.csr();
        let v = v as usize;
        &csr.adjacency[csr.offsets[v] as usize..csr.offsets[v + 1] as usize]
    }

    /// Whether the undirected edge `{u, v}` is present.
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u >= self.num_nodes || v >= self.num_nodes || u == v {
            return false;
        }
        if self.clique_index().is_some() {
            return true;
        }
        // Search the shorter adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Maximum degree `Δ`.
    #[must_use]
    pub fn max_degree(&self) -> u32 {
        match &self.form {
            Form::Csr(_) => self.nodes().map(|v| self.degree(v)).max().unwrap_or(0),
            Form::Clique { .. } => self.num_nodes - 1,
        }
    }

    /// Minimum degree `δ`.
    #[must_use]
    pub fn min_degree(&self) -> u32 {
        match &self.form {
            Form::Csr(_) => self.nodes().map(|v| self.degree(v)).min().unwrap_or(0),
            Form::Clique { .. } => self.num_nodes - 1,
        }
    }

    /// Average degree `2m/n`.
    #[must_use]
    pub fn avg_degree(&self) -> f64 {
        2.0 * self.num_edges() as f64 / self.num_nodes as f64
    }

    /// Whether every node has the same degree.
    #[must_use]
    pub fn is_regular(&self) -> bool {
        self.max_degree() == self.min_degree()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes
    }

    /// Disjoint union with another graph: nodes of `other` are relabelled to
    /// `self.num_nodes()..`, and no edges connect the two parts.
    ///
    /// Returns the combined graph and the offset applied to `other`'s ids.
    #[must_use]
    pub fn disjoint_union(&self, other: &Graph) -> (Graph, u32) {
        let offset = self.num_nodes;
        let mut edges = self.edges().to_vec();
        edges.extend(other.edges().iter().map(|&(u, v)| (u + offset, v + offset)));
        edges.sort_unstable();
        (
            Graph::from_sorted_edges(self.num_nodes + other.num_nodes, edges),
            offset,
        )
    }

    /// Returns a new graph with the given extra edges added.
    ///
    /// # Errors
    ///
    /// Same validation as [`GraphBuilder`]; adding an existing edge is a
    /// [`GraphError::DuplicateEdge`].
    pub fn with_edges(&self, extra: &[(NodeId, NodeId)]) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::new(self.num_nodes);
        for &(u, v) in self.edges().iter().chain(extra) {
            b.add_edge(u, v)?;
        }
        b.build()
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        // Two simple graphs on the same nodes with n(n−1)/2 edges each
        // are both K_n — no edge list needs to be compared (or built).
        self.num_nodes == other.num_nodes
            && self.num_edges == other.num_edges
            && (self.is_complete() || self.edges() == other.edges())
    }
}

impl Eq for Graph {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.form {
            Form::Csr(csr) => f
                .debug_struct("Graph")
                .field("num_nodes", &self.num_nodes)
                .field("edges", &csr.edges)
                .finish(),
            Form::Clique { .. } => f
                .debug_struct("Graph")
                .field("num_nodes", &self.num_nodes)
                .field("implicit_clique", &true)
                .finish(),
        }
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, Δ={}, δ={})",
            self.num_nodes,
            self.num_edges(),
            self.max_degree(),
            self.min_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_basics() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.is_regular());
        assert_eq!(g.avg_degree(), 2.0);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, &[(3, 0), (0, 4), (1, 0), (0, 2)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn has_edge_both_orders() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(2, &[(1, 1)]),
            Err(GraphError::SelfLoop(1))
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 2)]),
            Err(GraphError::NodeOutOfRange {
                node: 2,
                num_nodes: 2
            })
        );
    }

    #[test]
    fn rejects_duplicate_even_reversed() {
        assert_eq!(
            Graph::from_edges(3, &[(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge(0, 1))
        );
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Graph::from_edges(0, &[]), Err(GraphError::Empty));
    }

    #[test]
    fn single_node_graph_ok() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.neighbors(0), &[] as &[u32]);
    }

    #[test]
    fn canonical_edge_list() {
        let g = Graph::from_edges(4, &[(3, 2), (1, 0), (2, 0)]).unwrap();
        assert_eq!(g.edges(), &[(0, 1), (0, 2), (2, 3)]);
    }

    #[test]
    fn disjoint_union_relabels() {
        let a = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let b = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let (u, offset) = a.disjoint_union(&b);
        assert_eq!(offset, 2);
        assert_eq!(u.num_nodes(), 5);
        assert_eq!(u.num_edges(), 3);
        assert!(u.has_edge(0, 1));
        assert!(u.has_edge(2, 3));
        assert!(u.has_edge(3, 4));
        assert!(!u.has_edge(1, 2));
    }

    #[test]
    fn with_edges_adds() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let g2 = g.with_edges(&[(1, 2)]).unwrap();
        assert_eq!(g2.num_edges(), 2);
        assert!(g.with_edges(&[(0, 1)]).is_err());
    }

    #[test]
    fn error_display_messages() {
        assert!(format!("{}", GraphError::SelfLoop(3)).contains("self-loop"));
        assert!(format!("{}", GraphError::DuplicateEdge(1, 2)).contains("duplicate"));
        assert!(format!("{}", GraphError::Empty).contains("at least one"));
        assert!(format!(
            "{}",
            GraphError::NodeOutOfRange {
                node: 9,
                num_nodes: 4
            }
        )
        .contains("out of range"));
    }

    /// `K_n` built through the validating builder — the CSR form.
    fn csr_clique(n: u32) -> Graph {
        let pairs: Vec<_> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        Graph::from_edges(n, &pairs).unwrap()
    }

    #[test]
    fn implicit_clique_matches_its_csr_form() {
        for n in [1u32, 2, 3, 7, 40] {
            let implicit = Graph::implicit_clique(n);
            let csr = csr_clique(n);
            assert!(implicit.clique_index().is_some());
            assert!(csr.clique_index().is_none());
            assert!(implicit.is_complete() && csr.is_complete());
            assert_eq!(implicit.num_edges(), csr.num_edges());
            assert_eq!(implicit.max_degree(), csr.max_degree());
            assert_eq!(implicit.min_degree(), csr.min_degree());
            assert_eq!(implicit.avg_degree(), csr.avg_degree());
            assert_eq!(implicit.is_regular(), csr.is_regular());
            for u in 0..n + 1 {
                for v in 0..n + 1 {
                    assert_eq!(implicit.has_edge(u, v), csr.has_edge(u, v));
                }
            }
            // Equality needs no arrays; the arrays, once built, agree.
            assert_eq!(implicit, csr);
            assert_eq!(csr, implicit);
            assert_eq!(implicit.edges(), csr.edges());
            for v in 0..n {
                assert_eq!(implicit.degree(v), csr.degree(v));
                assert_eq!(implicit.neighbors(v), csr.neighbors(v));
            }
            let index = implicit.clique_index().unwrap();
            for (e, &pair) in csr.edges().iter().enumerate() {
                assert_eq!(index.edge(e as u64), pair);
            }
        }
    }

    #[test]
    fn implicit_clique_differs_from_other_graphs() {
        let k4 = Graph::implicit_clique(4);
        assert_ne!(k4, Graph::implicit_clique(5));
        assert_ne!(k4, Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap());
        let minus_one = csr_clique(4).edges()[1..].to_vec();
        assert_ne!(k4, Graph::from_edges(4, &minus_one).unwrap());
    }

    #[test]
    fn arrays_are_built_once_on_first_use() {
        let g = Graph::implicit_clique(30);
        let copy = g.clone();
        let before = materialized_cliques();
        assert_eq!(g.degree(3), 29);
        assert!(g.has_edge(3, 29));
        assert!(!g.is_materialized());
        let first = g.edges().as_ptr();
        assert!(g.is_materialized() && !copy.is_materialized());
        assert_eq!(g.neighbors(0).len(), 29);
        assert_eq!(g.edges().as_ptr(), first);
        // Other tests may materialize cliques concurrently: only a lower
        // bound is exact.
        assert!(materialized_cliques() > before);
        assert_eq!(copy.num_edges(), 435);
        assert!(format!("{copy:?}").contains("implicit_clique"));
    }

    #[test]
    fn implicit_clique_union_and_extension_materialize() {
        let (u, offset) = Graph::implicit_clique(3).disjoint_union(&Graph::implicit_clique(2));
        assert_eq!(offset, 3);
        assert_eq!(u.num_edges(), 4);
        assert!(u.has_edge(3, 4) && !u.has_edge(2, 3));
        assert!(Graph::implicit_clique(3).with_edges(&[(0, 1)]).is_err());
    }

    #[test]
    fn display_summarizes() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let s = format!("{g}");
        assert!(s.contains("n=3") && s.contains("m=2"));
    }
}
