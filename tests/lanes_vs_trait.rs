//! The lane-parallel dense engine's contract with the scalar engines.
//!
//! [`LaneDenseExecutor`] steps 8–16 trials of one compiled cell in
//! lockstep; its contract is per-trial **trace identity** with the
//! scalar [`DenseExecutor`] (and therefore, transitively, with the
//! generic [`Executor`]): for every trial seed the lane engine must
//! report the same stabilization step and elected leader, and its
//! lane rows must pass through the same configurations at the same
//! step counts. This suite pins that contract:
//!
//! 1. **Outcome identity across families** — `run_trials_lanes` equals
//!    `run_trials_dense` *and* the generic `run_trials`, per trial, on
//!    clique / cycle / star / torus / random-regular workloads,
//!    including trial counts that leave a partial final pack.
//! 2. **Trajectory identity** — while lanes are in flight, each lane
//!    row equals the scalar configuration at the same step count
//!    (fused-clique and packed-decoder paths both covered).
//! 3. **Ragged retirement** — a lane that stabilizes early retires and
//!    is refilled without disturbing its neighbours' streams.
//! 4. **Timeouts** — budget exhaustion produces the scalar timeout
//!    result (`stabilization_step: None`, no leader) per trial.
//! 5. **Non-linear oracles** — the fast protocol's oracle (not a
//!    unique-leader count) takes the typed per-lane oracle path and
//!    still matches scalar.
//! 6. **Auto-selection invariance** — `run_trials_auto` with the lane
//!    tier enabled returns results independent of thread count and
//!    sharding, equal to the lanes-off run, with the provenance tag
//!    recording the lane engine exactly when the tier is eligible.

use popele::engine::monte_carlo::{
    run_trials_auto_prepared, run_trials_lanes, Engine, TrialOptions, LANE_MIN_TRIALS,
};
use popele::engine::{CompiledProtocol, DenseExecutor, EngineSelection, LaneDenseExecutor};
use popele::graph::{families, random::random_regular_connected, Graph};
use popele::protocols::params::FastParams;
use popele::protocols::{FastProtocol, StarProtocol, TokenProtocol};

fn opts(trials: usize, first_trial: usize, max_steps: u64, threads: usize) -> TrialOptions {
    TrialOptions {
        trials,
        first_trial,
        max_steps,
        census: false,
        lanes: false,
        threads,
    }
}

/// Asserts lane results equal both scalar-dense and generic results for
/// the same master seed, per trial (`TrialResult` equality compares
/// trial index, stabilization step and leader — everything except the
/// engine-provenance tag).
fn assert_lanes_match(g: &Graph, seed: u64, trials: usize, max_steps: u64) {
    let p = TokenProtocol::all_candidates();
    let compiled = CompiledProtocol::compile_default(&p, g.num_nodes()).unwrap();
    let o = opts(trials, 0, max_steps, 1);
    let lanes = run_trials_lanes(g, &compiled, seed, o);
    assert_eq!(lanes.len(), trials);
    assert!(lanes.iter().all(|r| r.engine == Engine::Lanes));
    let (dense, generic) = (EngineSelection::dense(compiled), EngineSelection::generic());
    assert_eq!(
        lanes,
        run_trials_auto_prepared(g, &p, &dense, seed, o),
        "{g}"
    );
    assert_eq!(
        lanes,
        run_trials_auto_prepared(g, &p, &generic, seed, o),
        "{g}"
    );
}

#[test]
fn lane_outcomes_match_scalar_on_five_families() {
    // 11 trials through (up to) 11 lanes clamped to 16 — but more to
    // the point, 11 is not a multiple of any lane count the harness
    // picks, so the run always ends on a partial pack.
    for (g, seed) in [
        (families::clique(24), 0xA1),
        (families::cycle(24), 0xA2),
        (families::star(24), 0xA3),
        (families::torus(5, 5), 0xA4),
        (random_regular_connected(24, 3, 9, 64), 0xA5),
    ] {
        assert_lanes_match(&g, seed, 11, 1 << 24);
    }
}

#[test]
fn partial_pack_and_above_cap_trial_counts() {
    // trials < 2·lanes exercises the final partial pack; trials far
    // above LANE_MAX_LANES exercises sustained retire-and-refill.
    let g = families::clique(16);
    for trials in [LANE_MIN_TRIALS, 9, 13, 40] {
        assert_lanes_match(&g, 0xB0 + trials as u64, trials, 1 << 24);
    }
}

#[test]
fn timeouts_are_trace_identical_per_trial() {
    // A budget deep enough for some trials and not others: each side
    // must time out on exactly the same trials. The star protocol on a
    // star graph stabilizes quickly only when the hub draws well, so
    // small budgets split the trial set.
    let g = families::star(24);
    let p = StarProtocol::new();
    let compiled = CompiledProtocol::compile_default(&p, g.num_nodes()).unwrap();
    let dense = EngineSelection::dense(compiled.clone());
    for max_steps in [1, 8, 64, 512] {
        let o = opts(12, 0, max_steps, 1);
        let lanes = run_trials_lanes(&g, &compiled, 0xC0, o);
        assert_eq!(
            lanes,
            run_trials_auto_prepared(&g, &p, &dense, 0xC0, o),
            "{max_steps}"
        );
    }
}

#[test]
fn fast_protocol_nonlinear_oracle_matches_scalar() {
    // The fast oracle is not a unique-leader count
    // (`stable_iff_unique_leader` is false), so these trials take the
    // per-lane typed-oracle path instead of the leader-delta counters.
    let p = FastProtocol::new(FastParams::new(1, 1, 2));
    for (g, seed) in [(families::clique(24), 0xD1), (families::cycle(24), 0xD2)] {
        let compiled = CompiledProtocol::compile_default(&p, g.num_nodes()).unwrap();
        let o = opts(10, 0, 1 << 24, 1);
        let lanes = run_trials_lanes(&g, &compiled, seed, o);
        assert!(lanes.iter().all(|r| r.engine == Engine::Lanes));
        let (dense, generic) = (EngineSelection::dense(compiled), EngineSelection::generic());
        assert_eq!(
            lanes,
            run_trials_auto_prepared(&g, &p, &dense, seed, o),
            "{g}"
        );
        assert_eq!(
            lanes,
            run_trials_auto_prepared(&g, &p, &generic, seed, o),
            "{g}"
        );
    }
}

#[test]
fn lane_rows_follow_scalar_trajectories_blockwise() {
    // Drive a pack manually and, after every block, fast-forward a
    // scalar executor to each still-active lane's step count: the
    // configurations and leader counts must coincide. Torus → packed
    // decoder; clique → fused branchless path.
    let p = TokenProtocol::all_candidates();
    for g in [families::torus(4, 4), families::clique(16)] {
        let compiled = CompiledProtocol::compile_default(&p, g.num_nodes()).unwrap();
        let mut lanes = LaneDenseExecutor::new(&g, &compiled, 4);
        let seeds = [21u64, 22, 23, 24];
        let mut scalars: Vec<_> = seeds
            .iter()
            .map(|&s| DenseExecutor::new(&g, &compiled, s))
            .collect();
        for (t, &s) in seeds.iter().enumerate() {
            lanes.load(t, s);
        }
        for _ in 0..6 {
            lanes.run_block(u64::MAX);
            for slot in 0..lanes.num_lanes() {
                let Some(trial) = lanes.lane_trial(slot) else {
                    continue;
                };
                let scalar = &mut scalars[trial];
                scalar.run_steps(lanes.lane_steps(slot) - scalar.steps());
                assert_eq!(lanes.lane_state_ids(slot), scalar.state_ids(), "{g}");
                assert_eq!(lanes.lane_leader_count(slot), scalar.leader_count(), "{g}");
            }
        }
    }
}

#[test]
fn ragged_retirement_refills_without_disturbing_neighbours() {
    // Star-graph token election has heavy-tailed per-trial lengths, so
    // a 4-lane pack over 14 trials is constantly retiring and
    // refilling; every outcome must still match a fresh scalar run.
    let g = families::star(20);
    let p = TokenProtocol::all_candidates();
    let compiled = CompiledProtocol::compile_default(&p, g.num_nodes()).unwrap();
    let max_steps = 1u64 << 24;
    let mut lanes = LaneDenseExecutor::new(&g, &compiled, 4);
    let mut next = 0usize;
    let total = 14;
    let mut outcomes = Vec::new();
    loop {
        while lanes.has_free_lane() && next < total {
            lanes.load(next, 0xE000 + next as u64);
            next += 1;
        }
        while let Some(out) = lanes.take_finished() {
            outcomes.push(out);
        }
        if lanes.num_active() == 0 && next == total {
            break;
        }
        lanes.run_block(max_steps);
    }
    assert_eq!(outcomes.len(), total);
    for out in outcomes {
        let mut scalar = DenseExecutor::new(&g, &compiled, 0xE000 + out.trial as u64);
        match scalar.run_until_stable(max_steps) {
            Ok(o) => {
                assert_eq!(out.stabilization_step, Some(o.stabilization_step));
                assert_eq!(out.leader, o.leader);
            }
            Err(_) => {
                assert_eq!(out.stabilization_step, None);
                assert_eq!(out.leader, None);
            }
        }
    }
}

#[test]
fn auto_selection_with_lanes_is_thread_and_shard_invariant() {
    let g = families::clique(32);
    let p = TokenProtocol::all_candidates();
    let auto = EngineSelection::prepare(&p, 32);
    let with_lanes = |trials, first_trial, threads| TrialOptions {
        lanes: true,
        ..opts(trials, first_trial, 1 << 24, threads)
    };

    // Baseline: the lanes-off auto run (scalar dense tier).
    let baseline = run_trials_auto_prepared(&g, &p, &auto, 0xF00D, opts(12, 0, 1 << 24, 1));
    assert!(baseline.iter().all(|r| r.engine == Engine::Dense));

    // Lane tier on, one thread and several: identical results, lane
    // provenance.
    let lanes1 = run_trials_auto_prepared(&g, &p, &auto, 0xF00D, with_lanes(12, 0, 1));
    let lanes4 = run_trials_auto_prepared(&g, &p, &auto, 0xF00D, with_lanes(12, 0, 4));
    assert!(lanes1.iter().all(|r| r.engine == Engine::Lanes));
    assert_eq!(baseline, lanes1);
    assert_eq!(lanes1, lanes4);

    // Sharded the way the sweep runner shards: shards below
    // LANE_MIN_TRIALS legitimately fall back to the scalar tier — the
    // results must be unchanged either way, only the provenance moves.
    let mut sharded = Vec::new();
    for (start, len) in [(0, 8), (8, 4)] {
        sharded.extend(run_trials_auto_prepared(
            &g,
            &p,
            &auto,
            0xF00D,
            with_lanes(len, start, 2),
        ));
    }
    assert_eq!(baseline, sharded);
    assert!(sharded[..8].iter().all(|r| r.engine == Engine::Lanes));
    assert!(sharded[8..].iter().all(|r| r.engine == Engine::Dense));

    // Below the eligibility floor the flag is a no-op.
    let small =
        run_trials_auto_prepared(&g, &p, &auto, 0xF00D, with_lanes(LANE_MIN_TRIALS - 1, 0, 1));
    assert!(small.iter().all(|r| r.engine == Engine::Dense));
    assert_eq!(baseline[..LANE_MIN_TRIALS - 1], small[..]);
}
