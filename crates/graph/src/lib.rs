//! Interaction graphs for population protocols.
//!
//! This crate provides the graph substrate of the reproduction of
//! *Near-Optimal Leader Election in Population Protocols on Graphs*
//! (PODC 2022):
//!
//! * [`Graph`] — a compact, immutable undirected graph (CSR adjacency) with
//!   validation, the representation every other crate consumes; cliques
//!   take an implicit form whose edges decode arithmetically;
//! * [`clique`] — the arithmetic inverse of the complete graph's
//!   canonical edge index, shared by the scheduler and the dense engines;
//! * [`families`] — deterministic graph families used across the paper's
//!   Table 1: cliques, cycles, paths, stars, grids and tori, hypercubes,
//!   complete bipartite graphs, lollipops, barbells and binary trees;
//! * [`random`] — random graph models: Erdős–Rényi `G(n, p)` / `G(n, m)`
//!   (Section 7) and random regular graphs (Section 5 / Corollary 25);
//! * [`renitent`] — the lower-bound constructions of Section 6:
//!   `(K, ℓ)`-covers, the cycle cover of Lemma 37 and the four-copy path
//!   construction of Lemma 38 / Theorem 39;
//! * [`properties`] — structural statistics: connectivity, exact and
//!   estimated diameter, exact edge expansion for small graphs, spectral
//!   conductance estimates;
//! * [`traversal`] — BFS distances and connected components.
//!
//! # Examples
//!
//! ```
//! use popele_graph::families;
//! use popele_graph::properties;
//!
//! let g = families::cycle(10);
//! assert_eq!(g.num_nodes(), 10);
//! assert_eq!(g.num_edges(), 10);
//! assert!(properties::is_connected(&g));
//! assert_eq!(properties::diameter(&g), 5);
//! ```

#![warn(missing_docs)]

mod graph;

pub mod clique;
pub mod families;
pub mod properties;
pub mod random;
pub mod renitent;
pub mod traversal;

pub use graph::{materialized_cliques, Graph, GraphBuilder, GraphError, NodeId};
