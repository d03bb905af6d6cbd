//! Shared fixtures for the Criterion benchmarks in `benches/`.
//!
//! Every bench target corresponds to one `popele-lab` experiment and
//! measures the *wall-clock* cost of regenerating that experiment's rows
//! at a fixed, bench-sized scale; the step-count reproduction itself lives
//! in `popele-lab` (`cargo run --release -p popele-lab`).

#![warn(missing_docs)]

use popele_graph::{families, random, Graph};

/// The standard bench sizes (kept small: Criterion repeats each closure
/// many times).
pub const BENCH_SIZES: [u32; 3] = [16, 32, 64];

/// Builds the bench graph of a named family at size `n`.
///
/// # Panics
///
/// Panics on unknown family names.
#[must_use]
pub fn bench_graph(family: &str, n: u32) -> Graph {
    match family {
        "clique" => families::clique(n),
        "cycle" => families::cycle(n),
        "star" => families::star(n),
        "torus" => {
            let side = (f64::from(n).sqrt().round() as u32).max(3);
            families::torus(side, side)
        }
        "gnp" => random::erdos_renyi_connected(n, 0.5, 42, 100),
        other => panic!("unknown bench family {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_graphs_build() {
        for f in ["clique", "cycle", "star", "torus", "gnp"] {
            let g = bench_graph(f, 16);
            assert!(g.num_nodes() >= 9);
        }
    }

    #[test]
    #[should_panic(expected = "unknown bench family")]
    fn unknown_family_panics() {
        let _ = bench_graph("nope", 16);
    }
}
