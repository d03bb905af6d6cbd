//! Broadcast-time bounds (Theorem 6, Lemma 12, Theorem 15).
//!
//! Two views:
//!
//! 1. **Bound sandwich** — for each family the measured `B(G)` must lie
//!    between the Lemma 12 lower bound `(m/Δ)·ln(n−1)` and the Theorem 6
//!    upper bound `O(m·min(log n/β, log n + D))` evaluated with explicit
//!    constants (Lemmas 8 and 10) and exact `β` where known.
//! 2. **Scaling** — fitted growth exponents: `Θ(n log n)` on cliques and
//!    stars, `Θ(n²)` on cycles, `Θ(n·max(D, log n)) = Θ(n^{1.5})` on
//!    2-D tori (Theorem 15 for bounded-degree graphs).

use crate::report::{fmt_num, Table};
use crate::RunConfig;
use popele_dynamics::broadcast::{
    estimate_broadcast_time, lower_bound_degree, upper_bound_theorem6, BroadcastConfig,
    SourceStrategy,
};
use popele_graph::properties::{diameter, KnownExpansion};
use popele_graph::{families, Graph};
use popele_math::fit::power_fit_with_log_factor;
use popele_math::rng::SeedSeq;

/// Runs the broadcast experiments.
#[must_use]
pub fn run(cfg: &RunConfig) -> Vec<Table> {
    vec![bounds_table(cfg), scaling_table(cfg)]
}

struct BoundCase {
    label: &'static str,
    graph: Graph,
    beta: Option<f64>,
}

fn bound_cases(n: u32) -> Vec<BoundCase> {
    let side = (f64::from(n).sqrt().round() as u32).max(3);
    let dim = (32 - n.leading_zeros()).max(3) - 1;
    vec![
        BoundCase {
            label: "clique",
            graph: families::clique(n),
            beta: Some(KnownExpansion::Clique(n).value()),
        },
        BoundCase {
            label: "cycle",
            graph: families::cycle(n),
            beta: Some(KnownExpansion::Cycle(n).value()),
        },
        BoundCase {
            label: "star",
            graph: families::star(n),
            beta: Some(KnownExpansion::Star(n).value()),
        },
        BoundCase {
            label: "torus",
            graph: families::torus(side, side),
            beta: None, // use the diameter bound
        },
        BoundCase {
            label: "hypercube",
            graph: families::hypercube(dim),
            beta: Some(KnownExpansion::Hypercube(dim).value()),
        },
    ]
}

fn measure_b(g: &Graph, seed: u64, cfg: &RunConfig) -> f64 {
    let bc = BroadcastConfig {
        sources: SourceStrategy::Heuristic(*cfg.pick(&3usize, &6usize)),
        trials_per_source: cfg.trials(6, 20),
        threads: cfg.threads,
    };
    estimate_broadcast_time(g, seed, &bc).b_estimate
}

fn bounds_table(cfg: &RunConfig) -> Table {
    let n = *cfg.pick(&48u32, &192u32);
    let seq = SeedSeq::new(cfg.master_seed ^ 0xB0);
    let mut table = Table::new(
        "Broadcast time vs analytic bounds",
        "Theorem 6 upper bounds (Lemmas 8/10 constants) and Lemma 12 lower bound must sandwich measured B(G)",
        &[
            "family", "n", "m", "D", "B measured", "lower (L12)", "upper (T6)",
            "B/lower", "B/upper",
        ],
    );
    for (i, case) in bound_cases(n).into_iter().enumerate() {
        let g = &case.graph;
        let d = diameter(g);
        let b = measure_b(g, seq.child(i as u64), cfg);
        let lower = lower_bound_degree(g.num_edges(), g.num_nodes(), g.max_degree());
        let upper = upper_bound_theorem6(g.num_edges(), g.num_nodes(), d, case.beta.unwrap_or(0.0));
        table.push_row(vec![
            case.label.to_string(),
            g.num_nodes().to_string(),
            g.num_edges().to_string(),
            d.to_string(),
            fmt_num(b),
            fmt_num(lower),
            fmt_num(upper),
            fmt_num(b / lower),
            fmt_num(b / upper),
        ]);
    }
    table
}

fn scaling_table(cfg: &RunConfig) -> Table {
    let sizes: &[u32] = cfg.pick(&[16u32, 32, 64][..], &[32u32, 64, 128, 256, 512][..]);
    let seq = SeedSeq::new(cfg.master_seed ^ 0xB1);
    let mut table = Table::new(
        "Broadcast time scaling",
        "Theorem 15: Θ(n·max(D, log n)) for bounded degree; clique/star Θ(n log n); cycle Θ(n²); exponent fitted after dividing out log n",
        &["family", "fitted exponent", "R²", "paper exponent"],
    );
    #[allow(clippy::type_complexity)]
    let cases: [(&str, fn(u32) -> Graph, f64); 4] = [
        ("clique", families::clique as fn(u32) -> Graph, 1.0),
        ("star", families::star, 1.0),
        ("cycle", families::cycle, 2.0),
        (
            "torus",
            |n| {
                let side = (f64::from(n).sqrt().round() as u32).max(3);
                families::torus(side, side)
            },
            1.5,
        ),
    ];
    for (i, (label, make, paper_exp)) in cases.into_iter().enumerate() {
        let mut points = Vec::new();
        for (j, &n) in sizes.iter().enumerate() {
            let g = make(n);
            let b = measure_b(&g, seq.child((i * 100 + j) as u64), cfg);
            points.push((f64::from(g.num_nodes()), b));
        }
        // Cliques and stars are Θ(n log n): divide out one log factor.
        // Cycles/tori are pure powers (D ≫ log n): fit directly.
        let log_power = if paper_exp == 1.0 { 1.0 } else { 0.0 };
        let fit = power_fit_with_log_factor(&points, log_power);
        table.push_row(vec![
            label.to_string(),
            fmt_num(fit.exponent),
            fmt_num(fit.r_squared),
            fmt_num(paper_exp),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_sandwich_measured_b() {
        let cfg = RunConfig::default();
        let t = bounds_table(&cfg);
        for row in 0..t.num_rows() {
            let ratio_lower: f64 = t.cell(row, 7).parse().unwrap();
            let ratio_upper: f64 = t.cell(row, 8).parse().unwrap();
            assert!(
                ratio_lower >= 0.8,
                "row {row}: measured below Lemma 12 lower bound ({ratio_lower})"
            );
            // Lemma 8/10 constants hold "for all n ≥ n₀"; at quick-mode
            // sizes allow modest finite-size slack.
            assert!(
                ratio_upper <= 1.3,
                "row {row}: measured above Theorem 6 upper bound ({ratio_upper})"
            );
        }
    }

    #[test]
    fn scaling_exponents_match_paper() {
        let cfg = RunConfig::default();
        let t = scaling_table(&cfg);
        for row in 0..t.num_rows() {
            let fitted: f64 = t.cell(row, 1).parse().unwrap();
            let paper: f64 = t.cell(row, 3).parse().unwrap();
            assert!(
                (fitted - paper).abs() < 0.35,
                "row {row}: fitted {fitted} vs paper {paper}"
            );
        }
    }
}
