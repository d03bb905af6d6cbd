//! Engine benchmark: the generic reference [`Executor`] vs the two
//! dense engines on identical workloads.
//!
//! * **generic vs AOT-dense** ([`DenseExecutor`]): full leader elections
//!   of the 6-state token protocol on `clique(1000)` and `cycle(1000)`,
//!   plus fixed-step throughput on the same graphs and on
//!   `cycle(120000)`, whose node count exceeds the packed decoder's
//!   16-bit range and therefore exercises the CSR edge decoder.
//! * **generic vs lazy-dense** ([`LazyDenseExecutor`]): the workloads
//!   the AOT cap excludes — full elections of the identifier protocol at
//!   realistic `k` on `cycle(1000)`, `star(1000)` and `torus(32×32)`
//!   (star is where no-op memoization pays most: the generic engine
//!   re-runs the oracle on every hub interaction), and fixed-step
//!   throughput of a full-scale fast-protocol instance on
//!   `cycle(120000)` (CSR decoder). These are exactly the cells where
//!   sweep campaigns used to fall back to the generic engine.
//! * **lazy trials with the mid-run hand-off** ([`EngineSelection::lazy`]):
//!   identifier trials on `cycle(80000)` shaped like a sweep cell, where
//!   identifier generation misses the pair cache on almost every step
//!   and the trial driver hands each trial to the generic engine. The
//!   row races the driver on the forced lazy tier against the forced
//!   generic tier and records the lazy executor without the hand-off
//!   beside them.
//! * **count-based batch engine** ([`CountEngine`]): clique workloads at
//!   populations no per-agent engine can represent — full fast-protocol
//!   elections (clique-tuned parameters) at `n = 10⁷` and `n = 10⁸`,
//!   fixed-step token-protocol throughput at `n = 10⁹`, and the
//!   construction of a token-protocol count engine at `n = 10⁹` (its
//!   initial count vector comes from the protocol's census, so it must
//!   not grow with `n`).
//!   These rows are *standalone* (no generic baseline): a clique at
//!   `n = 10⁷` has ~5·10¹³ edges, so the graph-backed engines cannot
//!   even construct the workload. The JSON reports absolute medians and
//!   interactions/second instead of a speedup.
//! * **implicit vs materialized clique** (generic [`Executor`]): fixed
//!   token-protocol steps on `clique(4000)` in its implicit form (the
//!   scheduler decodes each draw arithmetically) and in the CSR form
//!   (a gather from the 64 MB edge list) — the per-step price of the
//!   materialized edge list the implicit clique removes.
//! * **ahead-of-time compile** ([`CompiledProtocol::compile_default`]):
//!   the fast protocol at the practical parameters of `torus(4000)`, the
//!   compile a sweep cell pays before its first step. Standalone: the
//!   row reports the median compile time and the state count.
//! * **campaign scheduler** ([`run_campaign`]): end-to-end sweep
//!   campaigns through the real runner — a 32-shard grid under the
//!   serial scheduler vs a 4-worker pool (identical outputs by the
//!   byte-identity contract, so the ratio is pure scheduling), and the
//!   per-shard checkpoint save at 10³ completed shards: one journal
//!   append (O(shard)) vs the full `checkpoint.json` rewrite
//!   (O(campaign)) it replaces. On a single-core host the worker-pool
//!   ratio measures scheduler overhead, not speedup — the workers
//!   contend for one CPU; the `io_ratio` of the checkpoint row is
//!   hardware-independent.
//!
//! All racing engines consume identical seed sequences, so they execute
//! the exact same interaction sequences; the measured ratio is pure
//! engine overhead. Besides the usual criterion output, a full run
//! writes a machine-readable `BENCH_engine.json` baseline at the
//! workspace root (medians, throughputs and speedups), so the perf
//! trajectory of the engine can be tracked across commits, and
//! re-renders BENCH.md's recorded-baseline tables from it
//! ([`popele_bench::render_tables`]). A `CRITERION_QUICK=1` run prints
//! both and writes neither: its shortened windows catch breakage, and
//! their medians are no baseline. Every workload in the manifest must
//! produce its row — a rename that drops a measurement aborts the run
//! instead of silently shrinking the baseline.

use criterion::{black_box, quick_mode, take_measurements, BenchmarkId, Criterion, Measurement};
use popele_core::params::{identifier_bits, FastParams};
use popele_core::{FastProtocol, IdentifierProtocol, TokenProtocol};
use popele_engine::monte_carlo::{run_trials_auto_prepared, TrialOptions};
use popele_engine::{
    compile_for_count, CompiledProtocol, CountEngine, DenseExecutor, EngineSelection, Executor,
    LazyDenseExecutor,
};
use popele_graph::{families, Graph};
use popele_lab::sweep::{
    run_campaign, CampaignOptions, CellMeta, Checkpoint, Journal, JournalEntry, ProtocolSpec,
    SweepSpec, TrialRecord,
};
use popele_lab::workloads::{broadcast_guess, Family};
use popele_math::rng::SeedSeq;
use std::fmt::Write as _;
use std::time::Duration;

const FIXED_STEPS: u64 = 2_000_000;

/// Lazy-tier steps workload name, shared between the bench loop and
/// `json_workloads` so a rename cannot silently drop the row from the
/// JSON baseline (missing measurements are skipped, not errors).
const FAST_STEPS_WORKLOAD: &str = "fast_cycle_120000";
const ELECTION_MAX: u64 = u64::MAX;

/// Count-tier workload names and populations, shared with
/// `count_workloads` for the same rename protection as
/// [`FAST_STEPS_WORKLOAD`].
const COUNT_ELECTION_WORKLOAD: &str = "fast_clique_1e7";
const COUNT_ELECTION_AGENTS: u64 = 10_000_000;
const COUNT_ELECTION_1E8_WORKLOAD: &str = "fast_clique_1e8";
const COUNT_ELECTION_1E8_AGENTS: u64 = 100_000_000;
const COUNT_STEPS_WORKLOAD: &str = "token_clique_1e9";
const COUNT_STEPS_AGENTS: u64 = 1_000_000_000;
const COUNT_NEW_WORKLOAD: &str = "new_token_clique_1e9";
/// Step budget for count-tier elections, in parallel-time units.
/// Clique-tuned fast elections finish in tens of parallel units
/// (occasionally a few hundred when the last two contenders keep
/// tying); the only way to exceed this budget is the `O(n^{-τ})`
/// backup fallback, which at these populations must abort the bench
/// loudly rather than grind through `Θ(n²)` token coalescence.
const COUNT_ELECTION_PARALLEL_BUDGET: u64 = 2_000;
/// Interactions per iteration of the count-tier throughput workload:
/// large enough that epoch setup amortizes away (≈2000 batch epochs at
/// `n = 10⁹`), small enough for sub-second iterations.
const COUNT_FIXED_STEPS: u64 = 100_000_000;

fn election_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("clique_1000", families::clique(1000)),
        ("cycle_1000", families::cycle(1000)),
    ]
}

/// The steps group adds a >2¹⁶-node sparse graph: elections there would
/// take minutes, but fixed-step throughput isolates exactly what the
/// CSR decoder changes.
fn steps_graphs() -> Vec<(&'static str, Graph)> {
    let mut graphs = election_graphs();
    graphs.push(("cycle_120000", families::cycle(120_000)));
    graphs
}

/// Lazy-tier election workloads: identifier protocol at the realistic
/// bit count for each graph (state spaces far beyond the AOT cap).
fn lazy_election_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("identifier_cycle_1000", families::cycle(1000)),
        ("identifier_star_1000", families::star(1000)),
        ("identifier_torus_1024", families::torus(32, 32)),
    ]
}

/// The implicit-clique workload: generic fixed steps on `clique(4000)`,
/// implicit vs materialized.
const IMPLICIT_CLIQUE_WORKLOAD: &str = "generic_clique_4000";
const IMPLICIT_CLIQUE_NODES: u32 = 4_000;

/// The hand-off workload: identifier trials on `cycle(80000)` in the
/// shape of an agent-grid sweep cell — [`HANDOFF_TRIALS`] trials at a
/// [`HANDOFF_BUDGET`]-step budget, all of which time out. Each
/// iteration builds its executors afresh, as every sweep shard does.
const HANDOFF_WORKLOAD: &str = "identifier_cycle_80000";
const HANDOFF_NODES: u32 = 80_000;
const HANDOFF_TRIALS: usize = 2;
const HANDOFF_BUDGET: u64 = 2_000_000;

/// Each benchmark *iteration* runs one full cycle of elections over a
/// fixed seed set, so every sample of both engines measures the exact
/// same workload (elections vary a lot in length per seed; folding the
/// whole cycle into one iteration makes the comparison paired rather
/// than batch-aligned by luck). Executors are constructed once and
/// `reset` per election — the engines' intended usage for repeated
/// runs (for the lazy engine the reset keeps the pair cache warm, which
/// is exactly how the Monte-Carlo harness drives it). Cycle elections
/// are ~50× longer than clique ones, so that graph gets a smaller seed
/// set.
fn seed_cycle(name: &str) -> u64 {
    if name.contains("cycle") || name.contains("torus") {
        4
    } else {
        16
    }
}

fn bench_elections(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/election");
    let p = TokenProtocol::all_candidates();
    for (name, g) in election_graphs() {
        let compiled = CompiledProtocol::compile_default(&p, g.num_nodes()).unwrap();
        let seeds = seed_cycle(name);
        group.bench_with_input(BenchmarkId::new("generic", name), &g, |b, g| {
            let mut exec = Executor::new(g, &p, 0);
            b.iter(|| {
                let mut total = 0u64;
                for seed in 1..=seeds {
                    exec.reset(seed);
                    total += exec
                        .run_until_stable(ELECTION_MAX)
                        .expect("token protocol stabilizes")
                        .stabilization_step;
                }
                black_box(total)
            });
        });
        group.bench_with_input(BenchmarkId::new("dense", name), &g, |b, g| {
            let mut exec = DenseExecutor::new(g, &compiled, 0);
            b.iter(|| {
                let mut total = 0u64;
                for seed in 1..=seeds {
                    exec.reset(seed);
                    total += exec
                        .run_until_stable(ELECTION_MAX)
                        .expect("token protocol stabilizes")
                        .stabilization_step;
                }
                black_box(total)
            });
        });
    }
    // Lazy tier: identifier elections at realistic k. The AOT engine
    // cannot take these (the tier the sweep grid spends most wall-clock
    // on); the race is generic vs lazy.
    for (name, g) in lazy_election_graphs() {
        let p = IdentifierProtocol::new(identifier_bits(g.num_nodes(), false));
        assert!(
            CompiledProtocol::compile_default(&p, g.num_nodes()).is_err(),
            "identifier workloads must exceed the AOT cap"
        );
        let seeds = seed_cycle(name);
        group.bench_with_input(BenchmarkId::new("generic", name), &g, |b, g| {
            let mut exec = Executor::new(g, &p, 0);
            b.iter(|| {
                let mut total = 0u64;
                for seed in 1..=seeds {
                    exec.reset(seed);
                    total += exec
                        .run_until_stable(ELECTION_MAX)
                        .expect("identifier protocol stabilizes")
                        .stabilization_step;
                }
                black_box(total)
            });
        });
        group.bench_with_input(BenchmarkId::new("lazy", name), &g, |b, g| {
            let mut exec = LazyDenseExecutor::new(g, &p, 0);
            b.iter(|| {
                let mut total = 0u64;
                for seed in 1..=seeds {
                    exec.reset(seed);
                    total += exec
                        .run_until_stable(ELECTION_MAX)
                        .expect("identifier protocol stabilizes")
                        .stabilization_step;
                }
                black_box(total)
            });
        });
    }
    group.finish();
}

/// The hand-off race: the trial driver on the forced generic tier vs
/// the forced lazy tier (handing each trial to the generic engine once
/// its windows miss the pair cache) vs the same trials on the lazy
/// executor alone.
/// All three apply the identical `HANDOFF_TRIALS × HANDOFF_BUDGET`
/// interactions.
fn bench_handoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/election");
    group.sample_size(10);
    let g = families::cycle(HANDOFF_NODES);
    let p = IdentifierProtocol::new(identifier_bits(HANDOFF_NODES, false));
    let opts = TrialOptions {
        trials: HANDOFF_TRIALS,
        max_steps: HANDOFF_BUDGET,
        threads: 1,
        ..TrialOptions::default()
    };
    let name = HANDOFF_WORKLOAD;
    for (engine, selection) in [
        ("generic", EngineSelection::generic()),
        ("lazy", EngineSelection::lazy()),
    ] {
        group.bench_with_input(BenchmarkId::new(engine, name), &g, |b, g| {
            b.iter(|| black_box(run_trials_auto_prepared(g, &p, &selection, 1, opts)));
        });
    }
    group.bench_with_input(BenchmarkId::new("no_handoff", name), &g, |b, g| {
        let seeds = SeedSeq::new(1);
        b.iter(|| {
            let mut exec = LazyDenseExecutor::new(g, &p, 0);
            for trial in 0..HANDOFF_TRIALS as u64 {
                exec.reset(seeds.child(trial));
                assert!(exec.run_until_stable(HANDOFF_BUDGET).is_err());
            }
            black_box(exec.steps())
        });
    });
    group.finish();
}

fn bench_fixed_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/steps");
    let p = TokenProtocol::all_candidates();
    for (name, g) in steps_graphs() {
        let compiled = CompiledProtocol::compile_default(&p, g.num_nodes()).unwrap();
        group.bench_with_input(BenchmarkId::new("generic", name), &g, |b, g| {
            let mut exec = Executor::new(g, &p, 0);
            let mut seed = 0u64;
            b.iter(|| {
                seed = (seed % 16) + 1;
                exec.reset(seed);
                exec.run_steps(FIXED_STEPS);
                black_box(exec.leader_count())
            });
        });
        group.bench_with_input(BenchmarkId::new("dense", name), &g, |b, g| {
            let mut exec = DenseExecutor::new(g, &compiled, 0);
            let mut seed = 0u64;
            b.iter(|| {
                seed = (seed % 16) + 1;
                exec.reset(seed);
                exec.run_steps(FIXED_STEPS);
                black_box(exec.leader_count())
            });
        });
    }
    // Lazy tier: a full-scale fast-protocol instance (the practical
    // parameterization sparse families derive at n ≈ 10⁵: h = 17,
    // L = 17 — ≈ 2200 reachable states, past the AOT cap) at CSR-decoder
    // scale. Fixed steps rather than elections: full fast elections at
    // this size take minutes on the generic engine.
    {
        let name = FAST_STEPS_WORKLOAD;
        let g = families::cycle(120_000);
        let p = FastProtocol::new(FastParams::new(17, 17, 4));
        assert!(
            CompiledProtocol::compile_default(&p, g.num_nodes()).is_err(),
            "full-scale fast params must exceed the AOT cap"
        );
        group.bench_with_input(BenchmarkId::new("generic", name), &g, |b, g| {
            let mut exec = Executor::new(g, &p, 0);
            let mut seed = 0u64;
            b.iter(|| {
                seed = (seed % 16) + 1;
                exec.reset(seed);
                exec.run_steps(FIXED_STEPS);
                black_box(exec.leader_count())
            });
        });
        group.bench_with_input(BenchmarkId::new("lazy", name), &g, |b, g| {
            let mut exec = LazyDenseExecutor::new(g, &p, 0);
            let mut seed = 0u64;
            b.iter(|| {
                seed = (seed % 16) + 1;
                exec.reset(seed);
                exec.run_steps(FIXED_STEPS);
                black_box(exec.leader_count())
            });
        });
    }
    group.finish();
}

/// Generic-engine fixed steps on an implicit `clique(4000)` against the
/// CSR graph of the same edge list: identical interaction sequences, so
/// the ratio is the scheduler's arithmetic decode against its gather
/// from the 64 MB edge list.
fn bench_implicit_clique(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/steps");
    let p = TokenProtocol::all_candidates();
    let n = IMPLICIT_CLIQUE_NODES;
    let implicit = families::clique(n);
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    let materialized = Graph::from_edges(n, &pairs).expect("K_n is a valid graph");
    drop(pairs);
    assert_eq!(implicit, materialized);
    let name = IMPLICIT_CLIQUE_WORKLOAD;
    for (form, g) in [("implicit", &implicit), ("materialized", &materialized)] {
        group.bench_with_input(BenchmarkId::new(form, name), g, |b, g| {
            let mut exec = Executor::new(g, &p, 0);
            let mut seed = 0u64;
            b.iter(|| {
                seed = (seed % 16) + 1;
                exec.reset(seed);
                exec.run_steps(FIXED_STEPS);
                black_box(exec.leader_count())
            });
        });
    }
    group.finish();
}

/// Count-tier workloads: clique populations past every per-agent
/// engine's reach. Elections run the fast protocol at its
/// clique-tuned parameterization ([`FastParams::clique_tuned`] — the
/// waiting phase is dead weight when every degree equals `n − 1`):
/// full elections at `n = 10⁷` and `n = 10⁸` exercise the whole
/// epoch/replay machinery down to the exact first-stable step.
/// Fixed-step throughput of the 6-state token protocol at `n = 10⁹`
/// isolates the batch samplers, and building its engine at the same
/// population times the set-up every worker of a count cell pays.
/// Election seeds rotate across
/// iterations, so the reported median is a median *over seeds* of the
/// full election time — election lengths are heavy-tailed (a duel
/// between the last two contenders restarts on every tie), and a
/// single-seed median would hide that.
fn bench_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/count");
    group.sample_size(10);
    for (name, agents) in [
        (COUNT_ELECTION_WORKLOAD, COUNT_ELECTION_AGENTS),
        (COUNT_ELECTION_1E8_WORKLOAD, COUNT_ELECTION_1E8_AGENTS),
    ] {
        let p = FastProtocol::new(FastParams::clique_tuned(
            u32::try_from(agents).expect("count populations are 32-bit"),
        ));
        let compiled = compile_for_count(&p, agents).unwrap();
        group.bench_with_input(BenchmarkId::new("count", name), &agents, |b, &n| {
            let mut eng = CountEngine::new(&compiled, n, 0);
            let mut seed = 0u64;
            b.iter(|| {
                seed = (seed % 8) + 1;
                eng.reset(seed);
                let out = eng
                    .run_until_stable(n.saturating_mul(COUNT_ELECTION_PARALLEL_BUDGET))
                    .expect("clique-tuned fast election hit the backup fallback");
                black_box(out.stabilization_step)
            });
        });
    }
    {
        let p = TokenProtocol::all_candidates();
        let compiled = compile_for_count(&p, COUNT_STEPS_AGENTS).unwrap();
        group.bench_with_input(
            BenchmarkId::new("count", COUNT_STEPS_WORKLOAD),
            &COUNT_STEPS_AGENTS,
            |b, &n| {
                let mut eng = CountEngine::new(&compiled, n, 0);
                let mut seed = 0u64;
                b.iter(|| {
                    seed = (seed % 16) + 1;
                    eng.reset(seed);
                    eng.run_steps(COUNT_FIXED_STEPS);
                    black_box(eng.leader_count())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("count", COUNT_NEW_WORKLOAD),
            &COUNT_STEPS_AGENTS,
            |b, &n| b.iter(|| black_box(CountEngine::new(&compiled, n, 0).leader_count())),
        );
    }
    group.finish();
}

/// Compile workload name, shared with `render_json` for the same
/// rename protection as [`FAST_STEPS_WORKLOAD`].
const COMPILE_WORKLOAD: &str = "fast_torus_4000";

/// The fast protocol at agent-grid's `torus(4000)` cell parameters.
fn compile_workload() -> (FastProtocol, u32) {
    let g = Family::Torus.generate(4000, 0);
    let params = FastParams::practical(
        broadcast_guess(&g),
        g.max_degree(),
        g.num_edges(),
        g.num_nodes(),
    );
    (FastProtocol::new(params), g.num_nodes())
}

fn bench_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/compile");
    group.sample_size(20);
    let (p, n) = compile_workload();
    group.bench_with_input(BenchmarkId::new("aot", COMPILE_WORKLOAD), &n, |b, &n| {
        b.iter(|| {
            let compiled = CompiledProtocol::compile_default(&p, n).expect("fast compiles");
            black_box(compiled.num_states())
        });
    });
    group.finish();
}

/// Campaign-tier workload names, shared with `render_json` for the same
/// rename protection as [`FAST_STEPS_WORKLOAD`].
const CAMPAIGN_GRID_WORKLOAD: &str = "grid_32shards";
const CAMPAIGN_CHECKPOINT_WORKLOAD: &str = "checkpoint_1000";
/// Worker-pool size raced against the serial scheduler.
const CAMPAIGN_WORKERS: usize = 4;
/// Completed shards in the synthetic checkpoint whose save cost the
/// checkpoint workload measures — deep enough that the O(campaign)
/// rewrite dwarfs an O(shard) append, shallow enough for sub-second
/// iterations.
const CAMPAIGN_CHECKPOINT_SHARDS: usize = 1_000;
/// Journal appends per iteration of the journal side: amortizes the
/// per-iteration journal reset (a header rewrite) across a batch, so
/// the per-append median reported in the JSON is the steady-state
/// append cost, not the reset.
const CAMPAIGN_JOURNAL_BATCH: usize = 100;

/// The grid the scheduler race runs: 8 cells × 4 single-trial shards —
/// small enough for sub-second iterations, sharded enough that the
/// worker pool has real stealing to do and the artifact cache sees
/// repeated hits per cell.
fn campaign_spec() -> SweepSpec {
    SweepSpec {
        name: "bench".into(),
        protocols: vec![ProtocolSpec::Token, ProtocolSpec::Majority],
        families: vec![Family::Clique, Family::Star],
        sizes: vec![64, 128],
        trials_per_cell: 4,
        shard_trials: 1,
        max_steps: 1 << 22,
        master_seed: 0xBE7C4,
        threads: 1,
        max_edges: 1 << 20,
        ..SweepSpec::default()
    }
}

/// A synthetic completed-shard record: the fields are arbitrary but
/// realistic (a stabilized trial), so rendered line lengths match real
/// checkpoints.
fn synth_record(trial: usize) -> TrialRecord {
    TrialRecord {
        trial,
        steps: Some(123_456 + trial as u64),
        leader: Some(7),
        recovery: None,
        holding: None,
    }
}

/// A checkpoint holding `shards` completed shards (2 trials each), the
/// save-cost baseline the journal replaces.
fn synth_checkpoint(spec: &SweepSpec, shards: usize) -> Checkpoint {
    let mut ckpt = Checkpoint::new(spec);
    for s in 0..shards {
        let cell = format!("token/clique/{}", 1000 + s / 4);
        ckpt.cells
            .entry(cell.clone())
            .or_insert(CellMeta { n: 64, m: 2016 });
        ckpt.shards.insert(
            format!("{cell}/s{}", s % 4),
            vec![synth_record(2 * (s % 4)), synth_record(2 * (s % 4) + 1)],
        );
    }
    ckpt
}

/// Campaign-tier races. The grid workload runs the whole pipeline —
/// graph builds, engine selection, trials, journal, compaction — with
/// the scheduler as the only variable. The checkpoint workload isolates
/// the per-shard save: appending one completed shard to the journal vs
/// rewriting a `checkpoint.json` that already holds
/// [`CAMPAIGN_CHECKPOINT_SHARDS`] shards, which is what *every* shard
/// completion used to cost.
fn bench_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep/campaign");
    group.sample_size(10);
    let spec = campaign_spec();
    let out_dir = std::env::temp_dir().join("popele-bench-campaign");
    for (label, workers) in [("serial", 1), ("workers4", CAMPAIGN_WORKERS)] {
        group.bench_with_input(
            BenchmarkId::new(label, CAMPAIGN_GRID_WORKLOAD),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    std::fs::remove_dir_all(&out_dir).ok();
                    let outcome = run_campaign(
                        &spec,
                        &CampaignOptions {
                            out_dir: out_dir.clone(),
                            workers,
                            ..CampaignOptions::default()
                        },
                    )
                    .expect("bench campaign runs");
                    assert!(outcome.completed);
                    black_box(outcome.ran_shards)
                });
            },
        );
    }
    std::fs::remove_dir_all(&out_dir).ok();

    let dir = std::env::temp_dir().join("popele-bench-checkpoint");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = synth_checkpoint(&campaign_spec(), CAMPAIGN_CHECKPOINT_SHARDS);
    let entry = JournalEntry {
        shard_key: "token/clique/2000/s0".into(),
        cell_key: "token/clique/2000".into(),
        meta: CellMeta { n: 64, m: 2016 },
        records: vec![synth_record(0), synth_record(1)],
    };
    group.bench_with_input(
        BenchmarkId::new("rewrite", CAMPAIGN_CHECKPOINT_WORKLOAD),
        &ckpt,
        |b, ckpt| {
            let path = dir.join("checkpoint.json");
            b.iter(|| ckpt.save(&path).expect("checkpoint save"));
        },
    );
    group.bench_with_input(
        BenchmarkId::new("journal", CAMPAIGN_CHECKPOINT_WORKLOAD),
        &entry,
        |b, entry| {
            let (mut journal, _) =
                Journal::open(&dir.join("checkpoint.log"), &ckpt.fingerprint).unwrap();
            b.iter(|| {
                journal.clear(&ckpt.fingerprint).expect("journal reset");
                for _ in 0..CAMPAIGN_JOURNAL_BATCH {
                    journal.append(entry).expect("journal append");
                }
                black_box(journal.len())
            });
        },
    );
    std::fs::remove_dir_all(&dir).ok();
    group.finish();
}

/// The machine the numbers come from: logical CPUs, CPU model and
/// AVX-512 support, read from `/proc/cpuinfo` where it exists.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|line| line.starts_with(key))
            .and_then(|line| line.split_once(':'))
            .map_or("", |(_, value)| value.trim())
    };
    let cpu_model = field("model name").replace(['"', '\\'], "");
    let avx512 = field("flags").split_whitespace().any(|f| f == "avx512f");
    format!("{{\"nproc\": {nproc}, \"cpu_model\": \"{cpu_model}\", \"avx512\": {avx512}}}")
}

fn median_of<'a>(ms: &'a [Measurement], id: &str) -> Option<&'a Measurement> {
    ms.iter().find(|m| m.id == id)
}

/// Every (group, workload, dense-tier engine label) triple the JSON
/// reports; the generic engine is the baseline of each row.
fn json_workloads() -> Vec<(&'static str, String, &'static str)> {
    let mut rows = Vec::new();
    for (name, _) in election_graphs() {
        rows.push(("engine/election", name.to_string(), "dense"));
    }
    for (name, _) in lazy_election_graphs() {
        rows.push(("engine/election", name.to_string(), "lazy"));
    }
    for (name, _) in steps_graphs() {
        rows.push(("engine/steps", name.to_string(), "dense"));
    }
    rows.push(("engine/steps", FAST_STEPS_WORKLOAD.to_string(), "lazy"));
    rows
}

/// Count-tier rows: `(workload name, population, interactions per
/// iteration)` — `None` for full elections, whose step count is
/// workload-determined rather than fixed, and for engine construction,
/// which runs none.
fn count_workloads() -> Vec<(&'static str, u64, Option<u64>)> {
    vec![
        (COUNT_ELECTION_WORKLOAD, COUNT_ELECTION_AGENTS, None),
        (COUNT_ELECTION_1E8_WORKLOAD, COUNT_ELECTION_1E8_AGENTS, None),
        (
            COUNT_STEPS_WORKLOAD,
            COUNT_STEPS_AGENTS,
            Some(COUNT_FIXED_STEPS),
        ),
        (COUNT_NEW_WORKLOAD, COUNT_STEPS_AGENTS, None),
    ]
}

/// Renders the collected measurements as the `BENCH_engine.json`
/// baseline (flat JSON written by hand — the workspace is hermetic and
/// carries no serde). Each racing row names the dense-tier engine it
/// raced against the generic baseline (`dense` = AOT-compiled, `lazy` =
/// lazily-compiling) and keys the median under that engine's name;
/// count-tier rows are standalone (absolute median plus, for fixed-step
/// workloads, interactions/second). Any manifest row whose measurement
/// is missing is collected into the error list — the caller aborts on
/// it, so a workload rename cannot silently drop a row from the
/// baseline.
fn render_json(ms: &[Measurement]) -> (String, Vec<String>) {
    let mut missing = Vec::new();
    let mut out = String::from(
        "{\n  \"benchmark\": \"engine: generic executor vs compiled dense engines\",\n",
    );
    let _ = writeln!(out, "  \"host\": {},", host_json());
    let _ = writeln!(out, "  \"workloads\": [");
    let mut first = true;
    for (group, name, engine) in json_workloads() {
        let generic = median_of(ms, &format!("{group}/generic/{name}"));
        let fast_path = median_of(ms, &format!("{group}/{engine}/{name}"));
        let (Some(generic), Some(fast_path)) = (generic, fast_path) else {
            missing.push(format!("{group}/{name} ({engine})"));
            continue;
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let speedup = generic.median_ns / fast_path.median_ns;
        let _ = write!(
            out,
            "    {{\"workload\": \"{group}/{name}\", \"engine\": \"{engine}\", \
             \"generic_median_ns\": {:.0}, \"{engine}_median_ns\": {:.0}, \"speedup\": {:.2}}}",
            generic.median_ns, fast_path.median_ns, speedup
        );
    }
    {
        let side =
            |engine: &str| median_of(ms, &format!("engine/election/{engine}/{HANDOFF_WORKLOAD}"));
        if let (Some(generic), Some(lazy), Some(no_handoff)) =
            (side("generic"), side("lazy"), side("no_handoff"))
        {
            out.push_str(",\n");
            let _ = write!(
                out,
                "    {{\"workload\": \"engine/election/{HANDOFF_WORKLOAD}\", \"engine\": \"lazy\", \
                 \"generic_median_ns\": {:.0}, \"lazy_median_ns\": {:.0}, \"speedup\": {:.2}, \
                 \"no_handoff_median_ns\": {:.0}, \"handoff_gain\": {:.2}}}",
                generic.median_ns,
                lazy.median_ns,
                generic.median_ns / lazy.median_ns,
                no_handoff.median_ns,
                no_handoff.median_ns / lazy.median_ns
            );
        } else {
            missing.push(format!("engine/election/{HANDOFF_WORKLOAD} (lazy)"));
        }
    }
    {
        let form = |form: &str| {
            median_of(
                ms,
                &format!("engine/steps/{form}/{IMPLICIT_CLIQUE_WORKLOAD}"),
            )
        };
        if let (Some(implicit), Some(materialized)) = (form("implicit"), form("materialized")) {
            out.push_str(",\n");
            let _ = write!(
                out,
                "    {{\"workload\": \"engine/steps/{IMPLICIT_CLIQUE_WORKLOAD}\", \
                 \"engine\": \"implicit\", \"materialized_median_ns\": {:.0}, \
                 \"implicit_median_ns\": {:.0}, \"speedup\": {:.2}}}",
                materialized.median_ns,
                implicit.median_ns,
                materialized.median_ns / implicit.median_ns
            );
        } else {
            missing.push(format!(
                "engine/steps/{IMPLICIT_CLIQUE_WORKLOAD} (implicit)"
            ));
        }
    }
    for (name, agents, fixed_steps) in count_workloads() {
        let Some(m) = median_of(ms, &format!("engine/count/count/{name}")) else {
            missing.push(format!("engine/count/{name} (count)"));
            continue;
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "    {{\"workload\": \"engine/count/{name}\", \"engine\": \"count\", \
             \"num_agents\": {agents}, \"count_median_ns\": {:.0}",
            m.median_ns
        );
        if let Some(steps) = fixed_steps {
            let per_sec = steps as f64 / (m.median_ns / 1e9);
            let _ = write!(out, ", \"steps_per_sec\": {per_sec:.0}");
        }
        out.push('}');
    }
    {
        let (p, n) = compile_workload();
        if let Some(m) = median_of(ms, &format!("engine/compile/aot/{COMPILE_WORKLOAD}")) {
            let states = CompiledProtocol::compile_default(&p, n)
                .expect("fast compiles")
                .num_states();
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "    {{\"workload\": \"engine/compile/{COMPILE_WORKLOAD}\", \"engine\": \"aot\", \
                 \"num_states\": {states}, \"compile_median_ns\": {:.0}}}",
                m.median_ns
            );
        } else {
            missing.push(format!("engine/compile/{COMPILE_WORKLOAD} (aot)"));
        }
    }
    // Campaign tier: the scheduler race reports the serial/pool ratio
    // (≈1.0 on a single-core host — see the module doc); the checkpoint
    // row reports the per-append journal cost (batch median divided by
    // the batch size) and the I/O ratio a journaled save buys over the
    // full rewrite.
    {
        let serial = median_of(
            ms,
            &format!("sweep/campaign/serial/{CAMPAIGN_GRID_WORKLOAD}"),
        );
        let pooled = median_of(
            ms,
            &format!("sweep/campaign/workers4/{CAMPAIGN_GRID_WORKLOAD}"),
        );
        if let (Some(serial), Some(pooled)) = (serial, pooled) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let speedup = serial.median_ns / pooled.median_ns;
            let _ = write!(
                out,
                "    {{\"workload\": \"sweep/campaign/{CAMPAIGN_GRID_WORKLOAD}\", \
                 \"engine\": \"workers\", \"num_workers\": {CAMPAIGN_WORKERS}, \
                 \"serial_median_ns\": {:.0}, \"workers_median_ns\": {:.0}, \
                 \"speedup\": {:.2}}}",
                serial.median_ns, pooled.median_ns, speedup
            );
        } else {
            missing.push(format!("sweep/campaign/{CAMPAIGN_GRID_WORKLOAD} (workers)"));
        }
        let rewrite = median_of(
            ms,
            &format!("sweep/campaign/rewrite/{CAMPAIGN_CHECKPOINT_WORKLOAD}"),
        );
        let journal = median_of(
            ms,
            &format!("sweep/campaign/journal/{CAMPAIGN_CHECKPOINT_WORKLOAD}"),
        );
        if let (Some(rewrite), Some(journal)) = (rewrite, journal) {
            if !first {
                out.push_str(",\n");
            }
            let append_ns = journal.median_ns / CAMPAIGN_JOURNAL_BATCH as f64;
            let _ = write!(
                out,
                "    {{\"workload\": \"sweep/campaign/{CAMPAIGN_CHECKPOINT_WORKLOAD}\", \
                 \"engine\": \"journal\", \"num_shards\": {CAMPAIGN_CHECKPOINT_SHARDS}, \
                 \"rewrite_median_ns\": {:.0}, \"journal_append_median_ns\": {append_ns:.0}, \
                 \"io_ratio\": {:.1}}}",
                rewrite.median_ns,
                rewrite.median_ns / append_ns
            );
        } else {
            missing.push(format!(
                "sweep/campaign/{CAMPAIGN_CHECKPOINT_WORKLOAD} (journal)"
            ));
        }
    }
    out.push_str("\n  ]\n}\n");
    (out, missing)
}

fn main() {
    let mut c = Criterion::default()
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(8))
        .sample_size(30);
    bench_elections(&mut c);
    bench_handoff(&mut c);
    bench_fixed_steps(&mut c);
    bench_implicit_clique(&mut c);
    bench_count(&mut c);
    bench_compile(&mut c);
    bench_campaign(&mut c);

    let ms = take_measurements();
    let (json, missing) = render_json(&ms);
    assert!(
        missing.is_empty(),
        "workload manifest rows without measurements (renamed bench?): {missing:?}"
    );
    let tables = popele_bench::render_tables(&json).expect("the fresh baseline renders");
    print!("{json}{tables}");
    if quick_mode() {
        println!("quick run: BENCH_engine.json and BENCH.md left as they are");
        return;
    }
    let md_path = popele_bench::workspace_file("BENCH.md");
    let md = std::fs::read_to_string(&md_path).expect("BENCH.md is readable");
    let md = popele_bench::splice_tables(&md, &tables).expect("BENCH.md has the table markers");
    let json_path = popele_bench::workspace_file("BENCH_engine.json");
    for (path, text) in [(&json_path, &json), (&md_path, &md)] {
        std::fs::write(path, text)
            .unwrap_or_else(|e| panic!("could not write {}: {e}", path.display()));
        println!("written: {}", path.display());
    }
}
