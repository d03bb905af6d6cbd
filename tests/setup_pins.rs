//! Pins on the per-cell preparation a campaign does before its first
//! step: the ahead-of-time compile and random-regular generation.
//!
//! 1. **Digest pins.** FNV-1a digests of compiled tables (state list in
//!    id order, successor table, leader-delta table) and of generated
//!    random-regular edge lists. Every digest was recorded before the
//!    one-pass compile and the hash-free configuration model landed; a
//!    failing pin means a change altered results, and the fix is in the
//!    code, never in the constant.
//! 2. **Table equals transition.** For every id pair of token,
//!    majority, star, space-opt and two fast instances (one under and
//!    one over 256 states), the precomputed successor is the id of what
//!    `Protocol::transition` returns, and the leader-delta table agrees
//!    with the role table (`harness::assert_table_agrees`).

mod harness;

use harness::assert_table_agrees;
use popele::engine::stabilize::ArbitraryInit;
use popele::engine::{
    compile_for_count, CompiledProtocol, Protocol, StateId, DEFAULT_MAX_COMPILED_STATES,
};
use popele::graph::random::random_regular;
use popele::graph::Graph;
use popele::protocols::params::FastParams;
use popele::protocols::{
    FastProtocol, LooseProtocol, MajorityProtocol, SpaceOptimalProtocol, StarProtocol,
    TokenProtocol,
};
use popele_lab::sweep::SweepSpec;
use popele_lab::workloads::{broadcast_guess, Family};

/// 64-bit FNV-1a.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digests of one compiled protocol: `(num_states, states, table,
/// leader_delta)`. States are hashed as their `Debug` text, one line
/// each, in id order; table entries as `(a' << 16 | b')` little-endian
/// `u32`s in row-major order; leader deltas as bytes.
fn compiled_digest<P: Protocol>(c: &CompiledProtocol<P>) -> (usize, u64, u64, u64) {
    let k = c.num_states();
    let (mut states, mut table, mut delta) = (Fnv::new(), Fnv::new(), Fnv::new());
    for s in c.states() {
        states.bytes(format!("{s:?}\n").as_bytes());
    }
    for a in 0..k as StateId {
        for b in 0..k as StateId {
            let (na, nb) = c.successor(a, b);
            table.bytes(&((u32::from(na) << 16) | u32::from(nb)).to_le_bytes());
            delta.bytes(&c.leader_delta(a, b).to_le_bytes());
        }
    }
    (k, states.0, table.0, delta.0)
}

/// Digest of a graph's node count and edge list, in stored order.
fn graph_digest(g: &Graph) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&g.num_nodes().to_le_bytes());
    for &(u, v) in g.edges() {
        h.bytes(&u.to_le_bytes());
        h.bytes(&v.to_le_bytes());
    }
    h.0
}

/// agent-grid's master seed in the benchmark's reference run.
const AGENT_GRID_SEED: u64 = 1;

fn agent_grid_graph_seed(family: Family, size: u32) -> u64 {
    SweepSpec {
        master_seed: AGENT_GRID_SEED,
        ..SweepSpec::default()
    }
    .graph_seed(family, size)
}

/// The fast protocol at the practical parameters of agent-grid's
/// `torus(4000)` cell, compiled as the cell's engine selection does.
fn fast_torus_4000() -> (FastProtocol, CompiledProtocol<FastProtocol>) {
    let g = Family::Torus.generate(4000, agent_grid_graph_seed(Family::Torus, 4000));
    let params = FastParams::practical(
        broadcast_guess(&g),
        g.max_degree(),
        g.num_edges(),
        g.num_nodes(),
    );
    let p = FastProtocol::new(params);
    let c = CompiledProtocol::compile_default(&p, g.num_nodes()).expect("fast compiles");
    (p, c)
}

#[test]
fn fast_torus_4000_table_is_pinned() {
    assert_eq!(compiled_digest(&fast_torus_4000().1), FAST_TORUS_4000);
}

#[test]
fn fast_count_1e7_table_is_pinned() {
    let n = 10_000_000u32;
    let c = compile_for_count(
        &FastProtocol::new(FastParams::clique_tuned(n)),
        u64::from(n),
    )
    .expect("clique-tuned fast compiles for the count tier");
    assert_eq!(compiled_digest(&c), FAST_COUNT_1E7);
}

#[test]
fn loose_256_seeded_table_is_pinned() {
    let p = LooseProtocol::practical(256);
    let c = CompiledProtocol::compile_with_seeds(
        &p,
        256,
        DEFAULT_MAX_COMPILED_STATES,
        &p.arbitrary_support(),
    )
    .expect("loose(256) compiles over its arbitrary support");
    assert_eq!(compiled_digest(&c), LOOSE_256_SEEDED);
}

#[test]
fn agent_grid_random_regular_graphs_are_pinned() {
    for (size, want) in [(4000, RR4_AGENT_GRID_4000), (80_000, RR4_AGENT_GRID_80000)] {
        let seed = agent_grid_graph_seed(Family::RandomRegular4, size);
        let g = Family::RandomRegular4.generate(size, seed);
        assert_eq!(graph_digest(&g), want, "rand-4-regular({size})");
    }
}

#[test]
fn random_regular_graphs_are_pinned() {
    assert_eq!(graph_digest(&random_regular(1000, 3, 7)), RR_1000_3);
    assert_eq!(graph_digest(&random_regular(1000, 5, 11)), RR_1000_5);
}

#[test]
fn table_equals_transition_on_constant_state_protocols() {
    let token = TokenProtocol::all_candidates();
    let c = CompiledProtocol::compile_default(&token, 64).unwrap();
    assert_table_agrees(&token, &c);

    let majority = MajorityProtocol::new(40, 64);
    let c = CompiledProtocol::compile_default(&majority, 64).unwrap();
    assert_table_agrees(&majority, &c);

    let star = StarProtocol::new();
    let c = CompiledProtocol::compile_default(&star, 64).unwrap();
    assert_table_agrees(&star, &c);
}

#[test]
fn table_equals_transition_on_space_opt_and_fast() {
    let space = SpaceOptimalProtocol::practical(64);
    let c = CompiledProtocol::compile_default(&space, 64).unwrap();
    assert_table_agrees(&space, &c);

    let fast = FastProtocol::new(FastParams::new(2, 2, 2));
    let c = CompiledProtocol::compile_default(&fast, 32).unwrap();
    assert_table_agrees(&fast, &c);
}

#[test]
fn table_equals_transition_on_fast_torus_4000() {
    // Agent-grid's fast table: more than 256 states, so its ids do not
    // fit in a byte.
    let (fast, c) = fast_torus_4000();
    assert!(c.num_states() > 256, "{} states", c.num_states());
    assert_table_agrees(&fast, &c);
}

// The pinned digests, recorded before the one-pass compile and the
// hash-free configuration model (see the module docs). Compiled
// tables pin `(num_states, states, table, leader_delta)`.
const FAST_TORUS_4000: (usize, u64, u64, u64) = (
    828,
    9165672849191601418,
    4051457408683904120,
    16267666033166008977,
);
const FAST_COUNT_1E7: (usize, u64, u64, u64) = (
    612,
    10602901572028101431,
    6835737679166833165,
    13183100016285107053,
);
const LOOSE_256_SEEDED: (usize, u64, u64, u64) = (
    146,
    912429386024345622,
    16761678104891450124,
    9318534938961818856,
);
const RR4_AGENT_GRID_4000: u64 = 9762082325511626700;
const RR4_AGENT_GRID_80000: u64 = 5703874963347158980;
const RR_1000_3: u64 = 7876262570325268960;
const RR_1000_5: u64 = 15476633132573616024;
