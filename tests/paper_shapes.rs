//! Cheap end-to-end checks that the paper's headline *shapes* hold:
//! who wins where, and by roughly what factor. The full sweeps live in
//! `popele-lab`; these are the fast regression-guard versions.

use popele::dynamics::broadcast::broadcast_time_from;
use popele::dynamics::isolation::estimate_isolation;
use popele::dynamics::walks::classic_worst_hitting;
use popele::engine::monte_carlo::{run_trials_auto_prepared, TrialOptions, TrialStats};
use popele::engine::EngineSelection;
use popele::graph::renitent::cycle_cover;
use popele::graph::{families, random};
use popele::math::rng::SeedSeq;
use popele::protocols::params::identifier_bits;
use popele::protocols::{IdentifierProtocol, StarProtocol, TokenProtocol};

fn mean_steps<P: popele::engine::Protocol + Clone>(
    g: &popele::graph::Graph,
    p: &P,
    seed: u64,
    trials: usize,
) -> f64 {
    let stats = TrialStats::from_results(&run_trials_auto_prepared(
        g,
        p,
        &EngineSelection::generic(),
        seed,
        TrialOptions {
            trials,
            max_steps: 2_000_000_000,
            census: false,
            threads: 0,
            ..TrialOptions::default()
        },
    ));
    assert_eq!(stats.timeouts, 0);
    stats.steps.mean()
}

/// Table 1, "Stars" row: O(1) time with O(1) states — literally one
/// interaction, at any size.
#[test]
fn stars_are_constant_time() {
    for n in [8u32, 64, 512] {
        let g = families::star(n);
        let mean = mean_steps(&g, &StarProtocol::new(), 1, 10);
        assert_eq!(mean, 1.0, "n = {n}");
    }
}

/// Theorem 46's observable consequence: on dense random graphs the
/// constant-state baseline is at least an order of magnitude slower than
/// the identifier protocol already at n = 48, and the gap widens with n.
#[test]
fn constant_state_pays_quadratic_price_on_dense_graphs() {
    let seq = SeedSeq::new(40);
    let token = TokenProtocol::all_candidates();
    let mut gaps = Vec::new();
    for (i, n) in [24u32, 48].into_iter().enumerate() {
        let g = random::erdos_renyi_connected(n, 0.5, seq.child(i as u64), 100);
        let id = IdentifierProtocol::new(identifier_bits(n, false));
        let token_steps = mean_steps(&g, &token, 7, 6);
        let id_steps = mean_steps(&g, &id, 8, 6);
        gaps.push(token_steps / id_steps);
    }
    assert!(gaps[0] > 2.0, "gap at n=24: {}", gaps[0]);
    assert!(gaps[1] > gaps[0], "gap must widen: {gaps:?}");
}

/// Cycles versus cliques: broadcast on a cycle is quadratic, on a clique
/// quasilinear — at n = 64 the cycle must already be several times
/// slower despite equal node counts.
#[test]
fn cycle_broadcast_much_slower_than_clique() {
    let n = 64u32;
    let seq = SeedSeq::new(50);
    let mean = |g: &popele::graph::Graph, base: u64| -> f64 {
        (0..6)
            .map(|i| broadcast_time_from(g, 0, seq.child(base + i)) as f64)
            .sum::<f64>()
            / 6.0
    };
    let cycle = mean(&families::cycle(n), 0);
    let clique = mean(&families::clique(n), 100);
    assert!(
        cycle > 3.0 * clique,
        "cycle {cycle} should dwarf clique {clique}"
    );
}

/// Lemma 37 in miniature: quadrupling the cycle size multiplies the
/// cover isolation time by roughly 16 (quadratic growth).
#[test]
fn cycle_isolation_grows_quadratically() {
    let small = {
        let (g, c) = cycle_cover(16);
        estimate_isolation(&g, &c, 12, u64::MAX, 3).times.mean()
    };
    let large = {
        let (g, c) = cycle_cover(64);
        estimate_isolation(&g, &c, 12, u64::MAX, 4).times.mean()
    };
    let ratio = large / small;
    assert!(
        (6.0..50.0).contains(&ratio),
        "quadrupling n should give ≈16× isolation time, got {ratio}"
    );
}

/// Theorem 16's driver: token-protocol stabilization tracks H(G)·n·log n
/// — the lollipop (worst-case hitting times) is far slower than the
/// clique at equal n.
#[test]
fn token_protocol_tracks_hitting_time() {
    let n = 24u32;
    let clique = families::clique(n);
    let lollipop = families::lollipop(n / 2, n / 2);
    let token = TokenProtocol::all_candidates();
    let h_clique = classic_worst_hitting(&clique);
    let h_lollipop = classic_worst_hitting(&lollipop);
    assert!(h_lollipop > 10.0 * h_clique);
    let t_clique = mean_steps(&clique, &token, 1, 6);
    let t_lollipop = mean_steps(&lollipop, &token, 2, 6);
    assert!(
        t_lollipop > 3.0 * t_clique,
        "lollipop {t_lollipop} vs clique {t_clique}"
    );
}
