//! Race all three protocols across graph families (Table 1 in miniature).
//!
//! ```text
//! cargo run --release --example protocol_faceoff [n]
//! ```
//!
//! For each family the three protocols run on identical graphs with
//! matched trial seeds; the table reports mean stabilization steps and
//! the distinct-state footprint — the time/space trade-off that is the
//! heart of the paper.

use popele::dynamics::broadcast::{estimate_broadcast_time, BroadcastConfig, SourceStrategy};
use popele::engine::monte_carlo::{run_trials_auto_prepared, TrialOptions, TrialStats};
use popele::engine::{EngineSelection, Protocol};
use popele::graph::{families, random, Graph};
use popele::protocols::params::{identifier_bits, FastParams};
use popele::protocols::{FastProtocol, IdentifierProtocol, TokenProtocol};

fn main() {
    let n: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(48);
    let side = (f64::from(n).sqrt().round() as u32).max(3);
    let cases: Vec<(&str, Graph)> = vec![
        ("clique", families::clique(n)),
        ("cycle", families::cycle(n)),
        ("torus", families::torus(side, side)),
        ("gnp-1/2", random::erdos_renyi_connected(n, 0.5, 5, 100)),
    ];

    let opts = TrialOptions {
        trials: 6,
        max_steps: 4_000_000_000,
        census: true,
        threads: 0,
        ..TrialOptions::default()
    };

    println!(
        "{:<10} {:<12} {:>14} {:>10} {:>8}",
        "family", "protocol", "mean steps", "±95% CI", "states"
    );
    for (name, g) in cases {
        let b = estimate_broadcast_time(
            &g,
            11,
            &BroadcastConfig {
                sources: SourceStrategy::Heuristic(2),
                trials_per_source: 3,
                threads: 0,
            },
        )
        .b_estimate;

        let token = TokenProtocol::all_candidates();
        let id = IdentifierProtocol::new(identifier_bits(g.num_nodes(), false));
        let fast = FastProtocol::new(FastParams::practical(
            b,
            g.max_degree(),
            g.num_edges(),
            g.num_nodes(),
        ));

        let report = |label: &str, stats: TrialStats| {
            println!(
                "{:<10} {:<12} {:>14.0} {:>10.0} {:>8}",
                name,
                label,
                stats.steps.mean(),
                stats.steps.ci95_halfwidth(),
                stats.max_distinct_states.unwrap_or(0)
            );
        };
        report("token", elect(&g, &token, 1, opts));
        report("identifier", elect(&g, &id, 2, opts));
        report("fast", elect(&g, &fast, 3, opts));
        println!();
    }
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
