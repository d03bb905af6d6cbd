//! Per-call probes: each layer's public hot-path function timed in a
//! loop on the graphs and protocols of the workload that exercises it.
//!
//! The per-agent probes run on three agent-grid graphs, one per live
//! decoder (`clique(4000)`, `torus(4000)` for the packed decoder and
//! `rand-4-regular(80000)` for CSR); the count probes run count-clique's
//! three protocols on its clique. Every probe repeats its loop and
//! reports the median, so one preempted repetition does not move it.

use crate::workloads::{Workload, COUNT_CLIQUE_N};
use crate::Metric;
use popele_core::params::{identifier_bits, FastParams};
use popele_core::{FastProtocol, IdentifierProtocol, MajorityProtocol, TokenProtocol};
use popele_engine::dense::DecoderKind;
use popele_engine::monte_carlo::{run_trials_auto_prepared, EngineSelection, TrialOptions};
use popele_engine::{
    compile_for_count, CompiledProtocol, CountEngine, DenseExecutor, EdgeScheduler,
    LazyDenseExecutor, LazyTable, Protocol, StabilityOracle,
};
use popele_graph::Graph;
use popele_lab::workloads::{broadcast_guess, majority_split, Family};
use popele_math::dist::Hypergeometric;
use popele_math::rng::small_rng;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of every timed loop.
const REPS: usize = 5;

/// Median of a non-empty sample.
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
#[must_use]
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median over [`REPS`] runs of `f` of nanoseconds per operation; `f`
/// does the work and returns how many operations it did.
fn ns_per_op(mut f: impl FnMut() -> u64) -> f64 {
    median(
        (0..REPS)
            .map(|_| {
                let started = Instant::now();
                let ops = f();
                started.elapsed().as_nanos() as f64 / ops as f64
            })
            .collect(),
    )
}

/// Seconds one call of `f` takes.
pub fn seconds<T>(f: impl FnOnce() -> T) -> f64 {
    let started = Instant::now();
    black_box(f());
    started.elapsed().as_secs_f64()
}

/// The three agent-grid graphs the per-agent probes run on, labelled by
/// the decoder the dense engines pick for them.
fn decoder_graphs(seed: u64) -> Vec<(&'static str, Graph)> {
    let spec = Workload::AgentGrid.spec(seed, None);
    [
        ("clique", Family::Clique, 4_000, DecoderKind::Clique),
        ("packed", Family::Torus, 4_000, DecoderKind::Packed),
        ("csr", Family::RandomRegular4, 80_000, DecoderKind::Csr),
    ]
    .into_iter()
    .map(|(label, family, size, kind)| {
        let graph = family.generate(size, spec.graph_seed(family, size));
        assert_eq!(
            DecoderKind::select(u64::from(graph.num_nodes()), graph.num_edges() as u64),
            kind,
            "{label} probe graph takes another decoder"
        );
        (label, graph)
    })
    .collect()
}

/// Runs every per-call probe.
#[must_use]
pub fn run_all(seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    let graphs = decoder_graphs(seed);
    let token = TokenProtocol::all_candidates();

    let draw: Vec<f64> = graphs
        .iter()
        .map(|(_, g)| {
            let mut scheduler = EdgeScheduler::new(g, seed);
            let mut buf = vec![0usize; 1 << 16];
            ns_per_op(|| {
                for _ in 0..16 {
                    scheduler.fill_raw(&mut buf);
                    black_box(&buf);
                }
                16 << 16
            })
        })
        .collect();
    out.push((
        "scheduler.draw_ns".into(),
        draw.iter().sum::<f64>() / draw.len() as f64,
        "ns",
    ));

    let mut packed_config = None;
    for (label, g) in &graphs {
        let n = g.num_nodes();
        let compiled = CompiledProtocol::compile_default(&token, n)
            .expect("the token protocol compiles for the AOT tier");
        let mut dense = DenseExecutor::new(g, &compiled, seed);
        dense.run_steps(1 << 20);
        let ns = ns_per_op(|| {
            dense.run_steps(1 << 21);
            1 << 21
        });
        out.push((format!("dense.step_ns.{label}"), ns, "ns"));

        let identifier = IdentifierProtocol::new(identifier_bits(n, false));
        let mut lazy = LazyDenseExecutor::new(g, &identifier, seed);
        lazy.run_steps(1 << 20);
        let ns = ns_per_op(|| {
            lazy.run_steps(1 << 21);
            1 << 21
        });
        out.push((format!("lazy.step_ns.{label}"), ns, "ns"));
        if *label == "csr" {
            let table = lazy.table();
            out.push(("lazy.states".into(), table.num_states() as f64, "count"));
            out.push((
                "lazy.cache_mb".into(),
                table.cache_bytes() as f64 / 1e6,
                "MB",
            ));
            out.push((
                "lazy.miss_per_kstep".into(),
                table.num_cached_pairs() as f64 * 1000.0 / lazy.steps() as f64,
                "count/kstep",
            ));
        }
        if *label == "packed" {
            let config: Vec<_> = (0..n).map(|v| *lazy.state_of(v)).collect();
            packed_config = Some((identifier, config));
        }
    }

    let (_, packed) = &graphs[1];
    let fast = FastProtocol::new(FastParams::practical(
        broadcast_guess(packed),
        packed.max_degree(),
        packed.num_edges(),
        packed.num_nodes(),
    ));
    let compiled = CompiledProtocol::compile_default(&fast, packed.num_nodes())
        .expect("the fast protocol compiles for the AOT tier on the torus");
    out.push(("table.mb".into(), compiled.table_bytes() as f64 / 1e6, "MB"));
    let mut rng = small_rng(seed);
    let states = compiled.num_states();
    let pairs: Vec<(u16, u16)> = (0..1 << 16)
        .map(|_| {
            let a = rng.random_range(0..states) as u16;
            let b = rng.random_range(0..states) as u16;
            (a, b)
        })
        .collect();
    out.push((
        "table.lookup_ns".into(),
        ns_per_op(|| {
            let mut acc = 0u16;
            for _ in 0..16 {
                for &(a, b) in &pairs {
                    let (x, y) = compiled.successor(black_box(a), black_box(b));
                    acc ^= x ^ y;
                }
            }
            black_box(acc);
            16 << 16
        }),
        "ns",
    ));

    let (identifier, config) = packed_config.expect("the packed graph was probed");
    out.push((
        "lazy.probe_ns".into(),
        lazy_probe_ns(&identifier, &config, packed, seed),
        "ns",
    ));
    out.push((
        "oracle.apply_ns".into(),
        oracle_apply_ns(&identifier, &config, packed, seed),
        "ns",
    ));
    out.push((
        "monte_carlo.fanout_efficiency".into(),
        fanout_efficiency(&token, packed, seed),
        "ratio",
    ));

    count_probes(seed, &mut out);

    let mut rng = small_rng(seed ^ 1);
    for (label, dist) in [
        ("small", Hypergeometric::new(10_000, 3_000, 16)),
        ("large", Hypergeometric::new(10_000_000, 4_000_000, 3_162)),
    ] {
        let ns = ns_per_op(|| {
            let mut acc = 0u64;
            for _ in 0..1 << 18 {
                acc = acc.wrapping_add(dist.sample(&mut rng));
            }
            black_box(acc);
            1 << 18
        });
        out.push((format!("dist.hypergeometric_ns.{label}"), ns, "ns"));
    }
    out
}

/// `LazyTable::successor` on pairs of states from a running
/// configuration, timed once every pair is cached (the hot-loop hit
/// path; misses are what `lazy.miss_per_kstep` counts).
fn lazy_probe_ns(
    protocol: &IdentifierProtocol,
    config: &[<IdentifierProtocol as Protocol>::State],
    graph: &Graph,
    seed: u64,
) -> f64 {
    let mut table = LazyTable::new(protocol, graph.num_nodes());
    let ids: Vec<_> = config.iter().map(|s| table.intern(s)).collect();
    let mut scheduler = EdgeScheduler::new(graph, seed);
    let pairs: Vec<_> = (0..1 << 16)
        .map(|_| {
            let (u, v) = scheduler.next_pair();
            (ids[u as usize], ids[v as usize])
        })
        .collect();
    for &(a, b) in &pairs {
        table.successor(a, b);
    }
    ns_per_op(|| {
        for _ in 0..16 {
            for &(a, b) in &pairs {
                black_box(table.successor(a, b));
            }
        }
        16 << 16
    })
}

/// `StabilityOracle::apply` replayed over a recorded run of real
/// interactions, from an oracle rebuilt on the run's start each time.
fn oracle_apply_ns(
    protocol: &IdentifierProtocol,
    config: &[<IdentifierProtocol as Protocol>::State],
    graph: &Graph,
    seed: u64,
) -> f64 {
    let mut current = config.to_vec();
    let mut scheduler = EdgeScheduler::new(graph, seed ^ 2);
    let updates: Vec<_> = (0..1 << 17)
        .map(|_| {
            let (u, v) = scheduler.next_pair();
            let (a, b) = (current[u as usize], current[v as usize]);
            let (x, y) = protocol.transition(&a, &b);
            current[u as usize] = x;
            current[v as usize] = y;
            (a, b, x, y)
        })
        .collect();
    median(
        (0..REPS)
            .map(|_| {
                let mut oracle = protocol.oracle();
                oracle.recompute(protocol, config);
                let started = Instant::now();
                for (a, b, x, y) in &updates {
                    oracle.apply(protocol, (a, b), (x, y));
                }
                black_box(oracle.is_stable());
                started.elapsed().as_nanos() as f64 / updates.len() as f64
            })
            .collect(),
    )
}

/// Serial time of two fixed-budget trials divided by twice their time on
/// two threads: 1.0 is perfect fan-out.
fn fanout_efficiency(token: &TokenProtocol, graph: &Graph, seed: u64) -> f64 {
    let selection = EngineSelection::prepare(token, graph.num_nodes());
    let wall = |threads: usize| {
        seconds(|| {
            run_trials_auto_prepared(
                graph,
                token,
                &selection,
                seed,
                TrialOptions {
                    trials: 2,
                    first_trial: 0,
                    max_steps: 1 << 24,
                    census: false,
                    lanes: false,
                    threads,
                },
            )
        })
    };
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        one.push(wall(1));
        two.push(wall(2));
    }
    median(one) / (2.0 * median(two))
}

/// Count-tier step cost per protocol on count-clique's clique, each from
/// a fresh start, plus the states the fast election has active after its
/// probe.
fn count_probes(seed: u64, out: &mut Vec<Metric>) {
    let n = COUNT_CLIQUE_N;
    let agents = u64::from(n);
    fn per_step<P: Protocol + Clone>(
        protocol: &P,
        agents: u64,
        steps: u64,
        seed: u64,
    ) -> (f64, usize) {
        let compiled = compile_for_count(protocol, agents)
            .expect("count-clique protocols compile for the count tier");
        let mut engine = CountEngine::new(&compiled, agents, seed);
        let mut rep = 0;
        let ns = ns_per_op(|| {
            rep += 1;
            engine.reset(seed.wrapping_add(rep));
            engine.run_steps(steps);
            steps
        });
        (ns, engine.distinct_states())
    }
    let (token, _) = per_step(&TokenProtocol::all_candidates(), agents, 100_000_000, seed);
    let (fast, active) = per_step(
        &FastProtocol::new(FastParams::clique_tuned(n)),
        agents,
        20_000_000,
        seed,
    );
    let (majority, _) = per_step(
        &MajorityProtocol::new(majority_split(n), n),
        agents,
        100_000_000,
        seed,
    );
    out.push(("count.step_ns.token".into(), token, "ns"));
    out.push(("count.step_ns.fast".into(), fast, "ns"));
    out.push(("count.step_ns.majority".into(), majority, "ns"));
    out.push(("count.active_states".into(), active as f64, "count"));
}
