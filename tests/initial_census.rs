//! `Protocol::initial_census` — the count tier's O(|Λ|) start.
//!
//! The count engine and `compile_for_count` read a protocol's initial
//! configuration only through its census. These tests pin three things:
//!
//! 1. every O(1) override (token, fast, majority, space-opt) returns
//!    exactly what the default run-length scan of `initial_state` does,
//!    at small sizes, around 256, and past the count tier's smallest
//!    routed size;
//! 2. initial states that occur only far from both ends of the node
//!    range are compiled and counted;
//! 3. building a count engine at `n = 10⁹` makes no per-agent
//!    `initial_state` call — a call count, not a time.

use popele::engine::{
    compile_for_count, CountEngine, LeaderCountOracle, Protocol, Role, COUNT_MIN_AGENTS,
};
use popele::graph::NodeId;
use popele::protocols::params::FastParams;
use popele::protocols::{FastProtocol, MajorityProtocol, SpaceOptimalProtocol, TokenProtocol};
use popele_lab::workloads::majority_split;
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};

/// Census sizes: tiny populations, both sides of 256, and one past the
/// count tier's routing threshold.
const SIZES: [u64; 7] = [2, 3, 255, 256, 257, 1000, COUNT_MIN_AGENTS + 1];

/// Forwards every call to `inner` except `initial_census`, so its census
/// is the trait's default run-length scan of `inner.initial_state`.
#[derive(Clone)]
struct Scan<P>(P);

impl<P: Protocol> Protocol for Scan<P> {
    type State = P::State;
    type Oracle = LeaderCountOracle;

    fn initial_state(&self, node: NodeId) -> P::State {
        self.0.initial_state(node)
    }

    fn transition(&self, a: &P::State, b: &P::State) -> (P::State, P::State) {
        self.0.transition(a, b)
    }

    fn output(&self, s: &P::State) -> Role {
        self.0.output(s)
    }

    fn oracle(&self) -> LeaderCountOracle {
        LeaderCountOracle::new()
    }
}

/// Forwards every call to `inner`, `initial_census` included, and
/// counts the `initial_state` calls made on the wrapper itself.
#[derive(Clone)]
struct CountingInit<'a, P> {
    inner: P,
    calls: &'a AtomicU64,
}

impl<P: Protocol> Protocol for CountingInit<'_, P> {
    type State = P::State;
    type Oracle = LeaderCountOracle;

    fn initial_state(&self, node: NodeId) -> P::State {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.initial_state(node)
    }

    fn initial_census(&self, n: u64) -> Vec<(P::State, u64)> {
        self.inner.initial_census(n)
    }

    fn transition(&self, a: &P::State, b: &P::State) -> (P::State, P::State) {
        self.inner.transition(a, b)
    }

    fn output(&self, s: &P::State) -> Role {
        self.inner.output(s)
    }

    fn oracle(&self) -> LeaderCountOracle {
        LeaderCountOracle::new()
    }
}

fn assert_census_is_the_scan<P: Protocol + Clone + Debug>(protocol: &P, n: u64) {
    let census = protocol.initial_census(n);
    assert_eq!(
        census,
        Scan(protocol.clone()).initial_census(n),
        "{protocol:?} at n = {n}"
    );
    assert_eq!(census.iter().map(|(_, c)| c).sum::<u64>(), n);
}

#[test]
fn token_census_is_the_scan() {
    for n in SIZES {
        let last = (n - 1) as NodeId;
        let mid = (n / 2) as NodeId;
        assert_census_is_the_scan(&TokenProtocol::all_candidates(), n);
        for set in [
            vec![0],
            vec![0, 1],
            vec![mid],
            vec![last],
            vec![last, 0],
            // Duplicates count once; ids past the population not at all.
            vec![mid, last, mid, last + 7],
        ] {
            assert_census_is_the_scan(&TokenProtocol::with_candidates(set), n);
        }
    }
}

#[test]
fn fast_census_is_the_scan() {
    for n in SIZES {
        assert_census_is_the_scan(&FastProtocol::new(FastParams::clique_tuned(n as u32)), n);
    }
}

#[test]
fn majority_census_is_the_scan() {
    for n in SIZES {
        let nodes = n as u32;
        for initial_a in [0, 1, nodes, majority_split(nodes)] {
            if 2 * initial_a != nodes {
                assert_census_is_the_scan(&MajorityProtocol::new(initial_a, nodes), n);
            }
        }
        // A census over fewer nodes than the input describes.
        assert_census_is_the_scan(&MajorityProtocol::new(300, 301), n);
    }
}

#[test]
fn space_opt_census_is_the_scan() {
    for n in SIZES {
        assert_census_is_the_scan(&SpaceOptimalProtocol::practical(n as u32), n);
    }
}

#[test]
fn mid_range_candidates_are_compiled_and_counted() {
    // Nodes 1000 and 2000 lie outside the first and last 256 ids of a
    // 10⁵-node range: seeding the closure from the ends alone misses
    // the candidate state.
    let n = 100_000;
    let protocol = TokenProtocol::with_candidates(vec![1000, 2000]);
    let compiled = compile_for_count(&protocol, n).expect("token compiles for count");
    let engine = CountEngine::new(&compiled, n, 1);
    assert_eq!(engine.leader_count(), 2);
    assert_eq!(engine.counts().iter().sum::<u64>(), n);

    // The same holds on the default scan, the path of protocols that do
    // not override the census.
    let scanned = Scan(protocol);
    let compiled = compile_for_count(&scanned, n).expect("scan compiles for count");
    assert_eq!(CountEngine::new(&compiled, n, 1).leader_count(), 2);
}

#[test]
fn count_engine_at_1e9_makes_no_per_agent_initial_state_call() {
    let n = 1_000_000_000;
    let calls = AtomicU64::new(0);
    let protocol = CountingInit {
        inner: TokenProtocol::all_candidates(),
        calls: &calls,
    };
    let compiled = compile_for_count(&protocol, n).expect("token compiles for count");
    let mut engine = CountEngine::new(&compiled, n, 7);
    assert_eq!(calls.load(Ordering::Relaxed), 0);
    assert_eq!(engine.leader_count(), 1_000_000_000);
    engine.run_steps(1000);
    assert_eq!(engine.counts().iter().sum::<u64>(), n);
}
