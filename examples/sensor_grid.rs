//! Sensor-network coordinator election on a spatial grid.
//!
//! ```text
//! cargo run --release --example sensor_grid
//! ```
//!
//! The paper's motivation: well-mixed (clique) models are unrealistic when
//! agents interact through *spatial* structure. This example models a
//! field of sensors on a 16×16 torus whose radio links only reach the four
//! nearest neighbours, and compares all three protocols on the task of
//! electing a coordinator: the constant-state token baseline (Theorem 16),
//! the identifier broadcast protocol (Theorem 21) and the fast
//! space-efficient protocol (Theorem 24).

use popele::dynamics::broadcast::{estimate_broadcast_time, BroadcastConfig, SourceStrategy};
use popele::engine::monte_carlo::{run_trials_auto_prepared, TrialOptions, TrialStats};
use popele::engine::{EngineSelection, Protocol};
use popele::graph::{families, Graph};
use popele::protocols::params::{identifier_bits, FastParams};
use popele::protocols::{FastProtocol, IdentifierProtocol, TokenProtocol};

fn main() {
    let side = 16;
    let g = families::torus(side, side);
    let n = g.num_nodes();
    println!("sensor field: {side}×{side} torus, {g}");

    let b = estimate_broadcast_time(
        &g,
        7,
        &BroadcastConfig {
            sources: SourceStrategy::Heuristic(2),
            trials_per_source: 3,
            threads: 0,
        },
    )
    .b_estimate;
    println!("measured broadcast time B(G) ≈ {b:.0} steps\n");

    let opts = TrialOptions {
        trials: 8,
        max_steps: 4_000_000_000,
        census: true,
        threads: 0,
        ..TrialOptions::default()
    };

    let print_stats = |name: &str, stats: &TrialStats, paper: &str| {
        println!(
            "{name:<12} mean {:>12.0} steps  (±{:>8.0}, {} states)   paper: {paper}",
            stats.steps.mean(),
            stats.steps.ci95_halfwidth(),
            stats.max_distinct_states.unwrap_or(0),
        );
    };

    let token = TokenProtocol::all_candidates();
    let stats = elect(&g, &token, 1, opts);
    print_stats("token", &stats, "O(H(G)·n·log n), O(1) states");

    let id = IdentifierProtocol::new(identifier_bits(n, false));
    let stats = elect(&g, &id, 2, opts);
    print_stats("identifier", &stats, "O(B(G) + n·log n), O(n⁴) states");

    let fast = FastProtocol::new(FastParams::practical(b, g.max_degree(), g.num_edges(), n));
    let stats = elect(&g, &fast, 3, opts);
    print_stats("fast", &stats, "O(B(G)·log n), O(log² n) states");

    println!(
        "\nTakeaway: on a {}-node spatial torus, the identifier protocol is the\n\
         time baseline but burns an identifier-sized state space; the fast\n\
         protocol stays within a handful of states per node at a small time\n\
         premium; the 6-state baseline pays the full random-walk penalty.",
        n
    );
}

/// Election statistics of `protocol` on `g`, on the engine tier picked
/// for the cell (every tier gives the same results, only faster or slower).
fn elect<P: Protocol + Clone>(
    g: &Graph,
    protocol: &P,
    seed: u64,
    opts: TrialOptions,
) -> TrialStats {
    let selection = EngineSelection::prepare(protocol, g.num_nodes());
    TrialStats::from_results(&run_trials_auto_prepared(
        g, protocol, &selection, seed, opts,
    ))
}
