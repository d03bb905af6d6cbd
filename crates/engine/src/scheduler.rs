//! The uniform ordered-pair scheduler of the stochastic population model.

use crate::dense::decoder::orient;
use popele_graph::clique::CliqueIndex;
use popele_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Samples, per step, an ordered pair `(u, v)` of adjacent nodes uniformly
/// at random among all `2m` ordered pairs (Section 2.2 of the paper).
///
/// The first component is the **initiator**, the second the **responder**.
///
/// A draw is a raw index `r` in `0..2m`: canonical edge `r >> 1`,
/// orientation `r & 1`. On a CSR graph the edge is gathered from the
/// borrowed edge list; on an implicit clique
/// ([`popele_graph::families::clique`]) it is decoded arithmetically
/// through the graph's [`CliqueIndex`], so a scheduler never makes the
/// clique build its `O(n²)` edge list. Both forms of the same graph
/// yield the identical pair stream.
///
/// # Examples
///
/// ```
/// use popele_engine::EdgeScheduler;
/// use popele_graph::families;
///
/// let g = families::cycle(5);
/// let mut sched = EdgeScheduler::new(&g, 42);
/// let (u, v) = sched.next_pair();
/// assert!(g.has_edge(u, v));
/// ```
#[derive(Debug, Clone)]
pub struct EdgeScheduler<'g> {
    /// Where canonical edge indices resolve — borrowed, since
    /// schedulers are created per execution (Monte-Carlo runs create
    /// thousands) and copying a multi-megabyte edge list here would
    /// dominate setup.
    edges: Edges<'g>,
    /// Number of ordered pairs `2m`, the bound of every raw draw.
    pairs: usize,
    rng: SmallRng,
    steps: u64,
}

/// The edge source of an [`EdgeScheduler`].
#[derive(Debug, Clone, Copy)]
enum Edges<'g> {
    /// A CSR graph's canonical edge list.
    List(&'g [(NodeId, NodeId)]),
    /// An implicit clique's arithmetic index.
    Clique(&'g CliqueIndex),
}

impl<'g> Edges<'g> {
    fn of(graph: &'g Graph) -> Self {
        assert!(
            graph.num_edges() > 0,
            "scheduler requires a graph with at least one edge"
        );
        match graph.clique_index() {
            Some(index) => Edges::Clique(index),
            None => Edges::List(graph.edges()),
        }
    }
}

impl<'g> EdgeScheduler<'g> {
    /// Creates a scheduler for `graph` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges (no interaction is possible).
    #[must_use]
    pub fn new(graph: &'g Graph, seed: u64) -> Self {
        Self {
            edges: Edges::of(graph),
            pairs: 2 * graph.num_edges(),
            rng: SmallRng::seed_from_u64(seed),
            steps: 0,
        }
    }

    /// Samples the next ordered pair `(initiator, responder)`.
    #[inline]
    pub fn next_pair(&mut self) -> (NodeId, NodeId) {
        // One draw covers both the edge index and the orientation bit.
        let r = self.next_raw();
        self.pair_of(r)
    }

    /// Resolves a raw index (edge `r >> 1`, orientation `r & 1`) into
    /// the ordered pair [`Self::next_pair`] returns for it.
    #[inline]
    pub(crate) fn pair_of(&self, r: usize) -> (NodeId, NodeId) {
        let (u, v) = match self.edges {
            Edges::List(edges) => edges[r >> 1],
            Edges::Clique(index) => index.edge((r >> 1) as u64),
        };
        if r & 1 == 0 {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// Draws `out.len()` consecutive pairs into `out` — exactly
    /// equivalent to calling [`Self::next_pair`] once per slot, but
    /// phrased as two phases per chunk (draw raw indices, then resolve
    /// the edges) so the edge-array loads are independent and the memory
    /// system can overlap them. On large graphs whose edge list falls
    /// out of cache this is several times faster than the one-at-a-time
    /// path; the compiled [`crate::DenseExecutor`] draws its batches
    /// through it.
    pub fn fill_pairs(&mut self, out: &mut [(NodeId, NodeId)]) {
        const CHUNK: usize = 64;
        let mut raw = [0usize; CHUNK];
        for chunk in out.chunks_mut(CHUNK) {
            let raw = &mut raw[..chunk.len()];
            self.fill_raw(raw);
            match self.edges {
                Edges::List(edges) => orient_all(chunk, raw, |e| edges[e]),
                Edges::Clique(index) => orient_all(chunk, raw, |e| index.edge(e as u64)),
            }
        }
    }

    /// Draws `out.len()` consecutive *raw* scheduler indices — each in
    /// `0..2m`, encoding edge index (`r >> 1`) and orientation (`r & 1`)
    /// — consuming the RNG stream exactly as [`Self::next_pair`] /
    /// [`Self::fill_pairs`] would. Callers that own a differently-encoded
    /// copy of the edge list (e.g. the compiled engine's packed edges)
    /// use this to draw the identical interaction sequence while doing
    /// their own gather.
    #[inline]
    pub fn fill_raw(&mut self, out: &mut [usize]) {
        self.steps += out.len() as u64;
        let n2 = self.pairs;
        for r in out.iter_mut() {
            *r = self.rng.random_range(0..n2);
        }
    }

    /// Draws one raw scheduler index — in `0..2m`, edge `r >> 1`,
    /// orientation `r & 1` — consuming the RNG stream exactly as
    /// [`Self::next_pair`] would, but leaving the edge resolution to the
    /// caller.
    #[inline]
    pub fn next_raw(&mut self) -> usize {
        self.steps += 1;
        self.rng.random_range(0..self.pairs)
    }

    /// Draws one raw index per slot of `out` (same stream as
    /// [`Self::fill_raw`]) and hands each to `decode` immediately —
    /// fusing a cheap, cache-resident decode into the draw loop so it
    /// overlaps the RNG dependency chain instead of costing a second
    /// pass.
    #[inline]
    pub fn fill_raw_with<T>(&mut self, out: &mut [T], mut decode: impl FnMut(usize, &mut T)) {
        self.steps += out.len() as u64;
        let n2 = self.pairs;
        for slot in out.iter_mut() {
            decode(self.rng.random_range(0..n2), slot);
        }
    }

    /// Number of pairs sampled so far (the model's time step `t`).
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Crate-internal access to the generator for bulk steppers (the
    /// lane engine's vectorized draw pass) that advance this
    /// scheduler's stream out-of-band — reproducing it draw for draw —
    /// and hand the state back via [`SmallRng::set_state`], accounting
    /// the draws with [`Self::add_steps`].
    pub(crate) fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Accounts `k` out-of-band draws taken through [`Self::rng_mut`],
    /// keeping [`Self::steps`] equal to the number of pairs consumed
    /// from the stream.
    pub(crate) fn add_steps(&mut self, k: u64) {
        self.steps += k;
    }

    /// Number of undirected edges `m` of the underlying graph.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.pairs / 2
    }

    /// Resets the step counter and reseeds the RNG.
    pub fn reset(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
        self.steps = 0;
    }

    /// Rebinds the scheduler to a different graph **without** touching
    /// the RNG state or the step counter: subsequent draws continue the
    /// same random stream, now ranged over the new graph's `2m` ordered
    /// pairs. This is the primitive behind topology fault injection
    /// ([`crate::faults`]) — the interaction sequence stays a single
    /// deterministic stream across graph changes.
    ///
    /// # Panics
    ///
    /// Panics if the new graph has no edges.
    pub fn set_graph(&mut self, graph: &'g Graph) {
        self.edges = Edges::of(graph);
        self.pairs = 2 * graph.num_edges();
    }
}

/// Resolves pre-drawn raws into ordered pairs through `edge`, the
/// gather phase of [`EdgeScheduler::fill_pairs`]. The loads are
/// independent, and the orientation select is branchless (a 50/50
/// data-dependent branch would mispredict constantly and stall
/// speculation, which is exactly the memory parallelism the batch
/// exists to expose).
#[inline]
fn orient_all(
    out: &mut [(NodeId, NodeId)],
    raw: &[usize],
    edge: impl Fn(usize) -> (NodeId, NodeId),
) {
    for (slot, &r) in out.iter_mut().zip(raw) {
        let (u, v) = edge(r >> 1);
        *slot = orient(u, v, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popele_graph::families;
    use std::collections::HashMap;

    #[test]
    fn pairs_are_adjacent() {
        let g = families::torus(4, 4);
        let mut s = EdgeScheduler::new(&g, 1);
        for _ in 0..1000 {
            let (u, v) = s.next_pair();
            assert!(g.has_edge(u, v), "sampled non-edge ({u}, {v})");
        }
        assert_eq!(s.steps(), 1000);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = families::clique(6);
        let mut a = EdgeScheduler::new(&g, 9);
        let mut b = EdgeScheduler::new(&g, 9);
        for _ in 0..100 {
            assert_eq!(a.next_pair(), b.next_pair());
        }
    }

    #[test]
    fn reset_reproduces_stream() {
        let g = families::cycle(5);
        let mut s = EdgeScheduler::new(&g, 3);
        let first: Vec<_> = (0..20).map(|_| s.next_pair()).collect();
        s.reset(3);
        assert_eq!(s.steps(), 0);
        let second: Vec<_> = (0..20).map(|_| s.next_pair()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn ordered_pairs_roughly_uniform() {
        // On a triangle there are 6 ordered pairs; each should get ~1/6 of
        // the samples.
        let g = families::cycle(3);
        let mut s = EdgeScheduler::new(&g, 7);
        let trials = 60_000;
        let mut counts: HashMap<(u32, u32), u32> = HashMap::new();
        for _ in 0..trials {
            *counts.entry(s.next_pair()).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 6);
        for (&pair, &c) in &counts {
            let freq = f64::from(c) / f64::from(trials);
            assert!(
                (freq - 1.0 / 6.0).abs() < 0.01,
                "pair {pair:?} frequency {freq}"
            );
        }
    }

    #[test]
    fn initiator_distribution_follows_degree() {
        // In the population model a node is chosen (in either role) with
        // probability deg(v)/m per step, and as initiator with
        // deg(v)/(2m). On a star the centre initiates half the steps.
        let g = families::star(9);
        let mut s = EdgeScheduler::new(&g, 11);
        let trials = 40_000;
        let mut centre_initiates = 0u32;
        for _ in 0..trials {
            if s.next_pair().0 == 0 {
                centre_initiates += 1;
            }
        }
        let freq = f64::from(centre_initiates) / f64::from(trials);
        assert!((freq - 0.5).abs() < 0.01, "centre initiator freq {freq}");
    }

    #[test]
    fn set_graph_preserves_rng_stream() {
        // Two schedulers consuming the same seed must agree on the raw
        // stream even when one is rebound to another graph mid-stream
        // (the raw draws only depend on the RNG and the edge count).
        let a = families::cycle(6);
        let b = families::clique(6);
        let mut s = EdgeScheduler::new(&a, 5);
        let mut t = EdgeScheduler::new(&a, 5);
        for _ in 0..10 {
            assert_eq!(s.next_pair(), t.next_pair());
        }
        s.set_graph(&b);
        t.set_graph(&b);
        assert_eq!(s.num_edges(), b.num_edges());
        for _ in 0..50 {
            let (u, v) = s.next_pair();
            assert!(b.has_edge(u, v));
            assert_eq!((u, v), t.next_pair());
        }
        assert_eq!(s.steps(), 60);
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn rejects_edgeless_graph() {
        let g = popele_graph::Graph::from_edges(2, &[]).unwrap();
        let _ = EdgeScheduler::new(&g, 0);
    }
}
