//! Engine comparison: the generic reference executor vs the dense
//! engines (ahead-of-time compiled, lazily compiled, and count-based),
//! on the same protocol/graph/seed workloads.
//!
//! This experiment serves two purposes:
//!
//! 1. **Equivalence evidence** — for every workload it asserts that the
//!    raced engines elect the same leader at the same step (the
//!    differential contract that lets every other experiment switch
//!    engines freely);
//! 2. **Throughput accounting** — it reports interactions/second for
//!    both sides of each race and the resulting speedup: the AOT rows
//!    are what makes the paper-scale (`n = 10⁵–10⁶`) sweeps feasible,
//!    and the lazy rows are what brings the identifier protocol — the
//!    paper's flagship, previously stuck on the generic engine — onto
//!    the compiled path.
//!
//! Which engine a workload races is exactly what
//! [`popele_engine::EngineSelection::prepare`] picks for it, so the
//! table doubles as a selection audit.

use crate::report::{fmt_num, Table};
use crate::RunConfig;
use popele_core::params::{identifier_bits, FastParams};
use popele_core::{FastProtocol, IdentifierProtocol, MajorityProtocol, TokenProtocol};
use popele_engine::monte_carlo::{Engine, EngineSelection};
use popele_engine::{
    compile_for_count, CompiledProtocol, CountEngine, DenseExecutor, Executor, LazyDenseExecutor,
    Protocol,
};
use popele_graph::{families, Graph};
use popele_math::rng::SeedSeq;
use std::time::Instant;

/// Runs the engine-comparison experiment.
#[must_use]
pub fn run(cfg: &RunConfig) -> Vec<Table> {
    vec![comparison_table(cfg)]
}

/// Times `run_until_stable` for the generic engine and the selected
/// dense engine on identical seeds; returns `(generic_ns, dense_ns,
/// states, steps, leaders_equal)` where `states` is `|Λ|` for the AOT
/// engine and the interned-state count for the lazy one.
fn race<P: Protocol + Clone>(
    g: &Graph,
    p: &P,
    engine: Engine,
    master_seed: u64,
    trials: usize,
) -> (f64, f64, usize, u64, bool) {
    let seq = SeedSeq::new(master_seed);
    let mut generic_ns = 0.0;
    let mut dense_ns = 0.0;
    let mut steps = 0u64;
    let mut equal = true;

    let compiled = matches!(engine, Engine::Dense).then(|| {
        CompiledProtocol::compile_default(p, g.num_nodes()).expect("selection said AOT compiles")
    });
    // One lazy executor reused across trials — reset keeps the pair
    // cache warm, the engine's intended Monte-Carlo usage.
    let mut lazy = matches!(engine, Engine::LazyDense).then(|| LazyDenseExecutor::new(g, p, 0));

    for t in 0..trials {
        let seed = seq.child(t as u64);
        let t0 = Instant::now();
        let a = Executor::new(g, p, seed)
            .run_until_stable(u64::MAX)
            .expect("stabilizes");
        generic_ns += t0.elapsed().as_nanos() as f64;
        let t1 = Instant::now();
        let b = match (&compiled, &mut lazy) {
            (Some(compiled), _) => DenseExecutor::new(g, compiled, seed)
                .run_until_stable(u64::MAX)
                .expect("stabilizes"),
            (_, Some(lazy)) => {
                lazy.reset(seed);
                lazy.run_until_stable(u64::MAX).expect("stabilizes")
            }
            _ => unreachable!("race is only called for dense-tier engines"),
        };
        dense_ns += t1.elapsed().as_nanos() as f64;
        equal &= a == b;
        steps += a.stabilization_step;
    }
    let states = match (&compiled, &lazy) {
        (Some(compiled), _) => compiled.num_states(),
        (_, Some(lazy)) => lazy.table().num_states(),
        _ => 0,
    };
    (generic_ns, dense_ns, states, steps, equal)
}

/// Times the generic engine against the graph-free [`CountEngine`] on a
/// clique of `n` nodes. The count engine is exact in *distribution*
/// only — no trace identity — so `equal` here means every trial on both
/// sides stabilized to a unique leader; the step-count *law* itself is
/// pinned by the distribution-level differential tests in the engine
/// crate. Returns `(generic_ns, count_ns, states, generic_steps,
/// count_steps, equal)` — two step totals, because the sides take
/// different (equidistributed) trajectories.
fn race_count<P: Protocol + Clone>(
    n: u32,
    p: &P,
    master_seed: u64,
    trials: usize,
) -> (f64, f64, usize, u64, u64, bool) {
    let g = families::clique(n);
    let seq = SeedSeq::new(master_seed);
    let compiled =
        compile_for_count(p, u64::from(n)).expect("count row needs a compiling protocol");
    // One count engine reused across trials — reset is O(|Λ|), the
    // engine's intended Monte-Carlo usage.
    let mut count = CountEngine::new(&compiled, u64::from(n), 0);
    let mut generic_ns = 0.0;
    let mut count_ns = 0.0;
    let mut generic_steps = 0u64;
    let mut count_steps = 0u64;
    let mut equal = true;

    for t in 0..trials {
        let seed = seq.child(t as u64);
        let t0 = Instant::now();
        let a = Executor::new(&g, p, seed)
            .run_until_stable(u64::MAX)
            .expect("stabilizes");
        generic_ns += t0.elapsed().as_nanos() as f64;
        let t1 = Instant::now();
        count.reset(seed);
        let b = count.run_until_stable(u64::MAX).expect("stabilizes");
        count_ns += t1.elapsed().as_nanos() as f64;
        equal &= a.leader_count == 1 && b.leader_count == 1;
        generic_steps += a.stabilization_step;
        count_steps += b.stabilization_step;
    }
    (
        generic_ns,
        count_ns,
        compiled.num_states(),
        generic_steps,
        count_steps,
        equal,
    )
}

fn comparison_table(cfg: &RunConfig) -> Table {
    let n = *cfg.pick(&64u32, &512u32);
    let trials = cfg.trials(3, 10);
    let seq = SeedSeq::new(cfg.master_seed ^ 0xE46);
    let mut table = Table::new(
        "Engine comparison: generic reference vs compiled dense engines",
        "same protocol/graph/seed ⇒ identical outcomes; 'engine' is what EngineSelection::prepare picks \
         (dense = AOT table, lazy = on-demand cache — the identifier protocol's only compiled \
         path). Lazy speedups track the cache-hit fraction: long runs amortize first-sight \
         misses, short generation-dominated ones (identifier on clique/torus at these sizes) \
         stay below 1× — see BENCH.md. Count rows race the graph-free count engine (exact in \
         distribution, not trace-identical): 'outcomes equal' there means both sides elected a \
         unique leader, and speedup is wall-time to stability",
        &[
            "workload",
            "engine",
            "n",
            "|Λ| seen",
            "steps",
            "generic Msteps/s",
            "compiled Msteps/s",
            "speedup",
            "outcomes equal",
        ],
    );
    let token = TokenProtocol::all_candidates();
    let majority = MajorityProtocol::new(n / 3, n);
    let identifier = IdentifierProtocol::new(identifier_bits(n, false));
    for (label, g, seed) in [
        (
            format!("token/clique({n})"),
            families::clique(n),
            seq.child(0),
        ),
        (
            format!("token/cycle({n})"),
            families::cycle(n),
            seq.child(1),
        ),
        (format!("token/star({n})"), families::star(n), seq.child(2)),
    ] {
        push_race_row(&mut table, &label, &g, &token, seed, trials);
    }
    let g = families::cycle(n);
    push_race_row(
        &mut table,
        &format!("majority/cycle({n})"),
        &g,
        &majority,
        seq.child(3),
        trials,
    );
    // The lazy tier: identifier at realistic k — the protocol family
    // the AOT cap excludes, now on the compiled path.
    let side = (f64::from(n).sqrt().round()) as u32;
    for (label, g, seed) in [
        (
            format!("identifier/clique({n})"),
            families::clique(n),
            seq.child(4),
        ),
        (
            format!("identifier/star({n})"),
            families::star(n),
            seq.child(5),
        ),
        (
            format!("identifier/torus({side}x{side})"),
            families::torus(side, side),
            seq.child(6),
        ),
    ] {
        push_race_row(&mut table, &label, &g, &identifier, seed, trials);
    }
    // The count tier: the workloads the sweep's clique column serves
    // graph-free. These sizes sit below the auto-selection threshold
    // (`COUNT_MIN_AGENTS`) precisely so the generic side can afford to
    // materialize the clique — the race is equivalence evidence, the
    // 10⁷–10⁹ scaling lives in `bench_engine` and the sweep.
    push_count_row(
        &mut table,
        &format!("token/clique({n})"),
        n,
        &token,
        seq.child(7),
        trials,
    );
    // Fast on the clique with the analytic coupon-collector broadcast
    // estimate `n·ln n` (the measured `broadcast_guess` would
    // overestimate a clique's broadcast time by ~n/ln n). This is not
    // the sweep's parameterization: its count cells run
    // `FastParams::clique_tuned(n)`, and its per-agent clique cells
    // `practical` over `broadcast_guess`.
    let nf = f64::from(n);
    let fast = FastProtocol::new(FastParams::practical(
        nf * nf.ln(),
        n - 1,
        (u64::from(n) * u64::from(n - 1) / 2) as usize,
        n,
    ));
    push_count_row(
        &mut table,
        &format!("fast/clique({n})"),
        n,
        &fast,
        seq.child(8),
        trials,
    );
    table
}

fn push_race_row<P: Protocol + Clone>(
    table: &mut Table,
    label: &str,
    g: &Graph,
    p: &P,
    seed: u64,
    trials: usize,
) {
    let engine = EngineSelection::prepare(p, g.num_nodes()).engine();
    assert_ne!(
        engine,
        Engine::Generic,
        "engine experiment workloads must have a dense-tier engine"
    );
    let (generic_ns, dense_ns, states, steps, equal) = race(g, p, engine, seed, trials);
    let msteps = |ns: f64| steps as f64 / ns * 1e3;
    table.push_row(vec![
        label.to_string(),
        engine.label().to_string(),
        g.num_nodes().to_string(),
        states.to_string(),
        steps.to_string(),
        fmt_num(msteps(generic_ns)),
        fmt_num(msteps(dense_ns)),
        fmt_num(generic_ns / dense_ns),
        equal.to_string(),
    ]);
}

fn push_count_row<P: Protocol + Clone>(
    table: &mut Table,
    label: &str,
    n: u32,
    p: &P,
    seed: u64,
    trials: usize,
) {
    let (generic_ns, count_ns, states, generic_steps, count_steps, equal) =
        race_count(n, p, seed, trials);
    table.push_row(vec![
        label.to_string(),
        Engine::Count.label().to_string(),
        n.to_string(),
        states.to_string(),
        count_steps.to_string(),
        fmt_num(generic_steps as f64 / generic_ns * 1e3),
        fmt_num(count_steps as f64 / count_ns * 1e3),
        // Trajectories differ, so the honest speedup is wall-time to
        // stability, not a per-step throughput ratio.
        fmt_num(generic_ns / count_ns),
        equal.to_string(),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_and_identifier_rows_use_the_lazy_engine() {
        // One table build covers all the assertions (the races are the
        // most expensive lab test; don't run them twice).
        let cfg = RunConfig::default();
        let t = comparison_table(&cfg);
        assert_eq!(t.num_rows(), 9);
        let mut lazy_rows = 0;
        let mut count_rows = 0;
        for row in 0..t.num_rows() {
            assert_eq!(t.cell(row, 8), "true", "row {row}: outcomes diverged");
            if t.cell(row, 1) == "count" {
                count_rows += 1;
            } else if t.cell(row, 0).starts_with("identifier/") {
                assert_eq!(t.cell(row, 1), "lazy", "row {row}");
                lazy_rows += 1;
            } else {
                assert_eq!(t.cell(row, 1), "dense", "row {row}");
            }
        }
        assert_eq!(lazy_rows, 3);
        assert_eq!(count_rows, 2);
    }

    #[test]
    fn race_reports_equal_outcomes() {
        let g = families::clique(16);
        let p = TokenProtocol::all_candidates();
        let (generic_ns, dense_ns, states, steps, equal) = race(&g, &p, Engine::Dense, 3, 2);
        assert!(equal);
        assert!(states >= 2);
        assert!(steps > 0);
        assert!(generic_ns > 0.0 && dense_ns > 0.0);
        let (generic_ns, lazy_ns, states, _, equal) = race(&g, &p, Engine::LazyDense, 3, 2);
        assert!(equal);
        assert!(states >= 2);
        assert!(generic_ns > 0.0 && lazy_ns > 0.0);
    }
}
