//! Ablations of the design choices behind the paper's protocols.
//!
//! 1. **Fast-protocol parameters** — Theorem 24 picks the streak length
//!    `h` so ticks arrive every `Θ(B(G))` steps and runs the tournament
//!    for `α·L` levels. Sweeping `h` and `α` around the derived values
//!    shows the trade-off the proof encodes: ticking too fast (`h` small)
//!    lets low-degree nodes survive and pushes contenders into the backup
//!    phase; ticking too slowly (`h` large) wastes a constant factor of
//!    time; a small level cap (`α` small) trades fast-phase time against
//!    backup engagements.
//! 2. **Identifier length** — Theorem 21 needs `k = Θ(log n)` bits so the
//!    maximum identifier is unique w.h.p. Sweeping `k` shows the collision
//!    regime: with `k` small the token backup must resolve frequent ties
//!    (slow, `Θ(H·n·log n)`); past `Θ(log n)` bits more state buys
//!    nothing.

use crate::report::{fmt_ci, fmt_num, Table};
use crate::RunConfig;
use popele_core::params::FastParams;
use popele_core::{FastProtocol, IdentifierProtocol};
use popele_dynamics::broadcast::{estimate_broadcast_time, BroadcastConfig, SourceStrategy};
use popele_engine::{Executor, Protocol};
use popele_graph::random;
use popele_math::rng::SeedSeq;
use popele_math::stats::Summary;

/// Runs the ablation experiments.
#[must_use]
pub fn run(cfg: &RunConfig) -> Vec<Table> {
    vec![fast_params_table(cfg), identifier_bits_table(cfg)]
}

fn fast_params_table(cfg: &RunConfig) -> Table {
    let n = *cfg.pick(&48u32, &128u32);
    let trials = cfg.trials(8, 24);
    let seq = SeedSeq::new(cfg.master_seed ^ 0xAB1);
    let g = random::erdos_renyi_connected(n, 0.5, seq.child(0), 100);
    let b = estimate_broadcast_time(
        &g,
        seq.child(1),
        &BroadcastConfig {
            sources: SourceStrategy::Heuristic(2),
            trials_per_source: 4,
            threads: cfg.threads,
        },
    )
    .b_estimate;
    let derived = FastParams::practical(b, g.max_degree(), g.num_edges(), g.num_nodes());

    let mut table = Table::new(
        "Ablation: fast-protocol parameters",
        format!(
            "G(n=1/2) with n={n}, B(G)≈{:.0}; derived practical params h={}, L={}, α={}",
            b, derived.h, derived.big_l, derived.alpha
        ),
        &[
            "h",
            "L",
            "α",
            "steps mean±ci",
            "backup engaged",
            "state bound",
        ],
    );

    let h_variants: Vec<u8> = [-2i32, 0, 2]
        .iter()
        .map(|d| (i32::from(derived.h) + d).clamp(1, 60) as u8)
        .collect();
    let alpha_variants = [2u32, derived.alpha, 8];
    let mut cases: Vec<FastParams> = Vec::new();
    for &h in &h_variants {
        cases.push(FastParams::new(h, derived.big_l, derived.alpha));
    }
    for &alpha in &alpha_variants {
        let p = FastParams::new(derived.h, derived.big_l, alpha);
        if !cases.contains(&p) {
            cases.push(p);
        }
    }
    cases.push(FastParams::new(derived.h, 2 * derived.big_l, derived.alpha));

    for (ci, params) in cases.into_iter().enumerate() {
        let p = FastProtocol::new(params);
        let child = SeedSeq::new(seq.child(100 + ci as u64));
        let mut steps = Summary::new();
        let mut backups = 0usize;
        for t in 0..trials {
            let mut exec = Executor::new(&g, &p, child.child(t as u64));
            let out = exec
                .run_until_stable(4_000_000_000)
                .expect("backup guarantees stabilization");
            steps.push(out.stabilization_step as f64);
            if exec.oracle().backup_count() > 0 {
                backups += 1;
            }
        }
        table.push_row(vec![
            params.h.to_string(),
            params.big_l.to_string(),
            params.alpha.to_string(),
            fmt_ci(steps.mean(), steps.ci95_halfwidth()),
            format!("{backups}/{trials}"),
            params.state_space_bound().to_string(),
        ]);
    }
    table
}

fn identifier_bits_table(cfg: &RunConfig) -> Table {
    let n = *cfg.pick(&48u32, &128u32);
    let trials = cfg.trials(8, 24);
    let seq = SeedSeq::new(cfg.master_seed ^ 0xAB2);
    let g = popele_graph::families::clique(n);
    let mut table = Table::new(
        "Ablation: identifier length k",
        "Theorem 21/Lemma 22: collisions occur w.p. ≤ n/2^k; small k forces the token backup to resolve ties",
        &["k", "2^k", "steps mean±ci", "collision bound n/2^k", "state bound"],
    );
    for (i, k) in [1u32, 2, 4, 8, 12, 16].into_iter().enumerate() {
        let p = IdentifierProtocol::new(k);
        let child = SeedSeq::new(seq.child(i as u64));
        let mut steps = Summary::new();
        for t in 0..trials {
            let mut exec = Executor::new(&g, &p, child.child(t as u64));
            let out = exec
                .run_until_stable(4_000_000_000)
                .expect("token backup guarantees stabilization");
            steps.push(out.stabilization_step as f64);
        }
        let bound = (f64::from(n) / (1u64 << k) as f64).min(1.0);
        table.push_row(vec![
            k.to_string(),
            (1u64 << k).to_string(),
            fmt_ci(steps.mean(), steps.ci95_halfwidth()),
            fmt_num(bound),
            p.state_space_bound().unwrap().to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn last_mean(t: &Table, row: usize) -> f64 {
        t.cell(
            row,
            if t.title().contains("identifier") {
                2
            } else {
                3
            },
        )
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap()
    }

    #[test]
    fn fast_ablation_produces_rows() {
        let cfg = RunConfig::default();
        let t = fast_params_table(&cfg);
        assert!(t.num_rows() >= 5);
        for row in 0..t.num_rows() {
            assert!(last_mean(&t, row) >= 1.0);
        }
    }

    #[test]
    fn tiny_identifiers_are_slower() {
        // k = 1 (constant ids, guaranteed massive ties) must be slower
        // than k = 12 (collision-free w.h.p.) on a clique.
        let cfg = RunConfig::default();
        let t = identifier_bits_table(&cfg);
        let k1 = last_mean(&t, 0);
        let k12: f64 = last_mean(&t, 4);
        assert!(
            k1 > 2.0 * k12,
            "k=1 ({k1}) should be much slower than k=12 ({k12})"
        );
    }
}
