//! Self-stabilization workloads: arbitrary initial configurations and
//! holding-time measurement.
//!
//! The paper's protocols assume a *clean* initial configuration
//! (`Protocol::initial_state` on every node). The adjacent literature —
//! loosely-stabilizing leader election (Sudo et al. 2012; Kanaya et al.
//! 2024 on arbitrary graphs) and self-stabilizing election on rings
//! (Yokota et al. 2020) — drops that assumption: an execution starts
//! from an **arbitrary** configuration, must reach a unique-leader
//! configuration within a small expected *election time*, and must then
//! keep it for a large expected *holding time*. This module supplies the
//! engine plumbing for exactly that workload, for all three engines:
//!
//! * [`ArbitraryInit`] — a protocol declares the support of its
//!   adversarial initializer; [`arbitrary_config`] samples one
//!   configuration per trial (seeded via [`arbitrary_seed`] from the
//!   trial seed, the same stable-derivation discipline as
//!   [`crate::faults::fault_seed`]);
//! * every executor gained `set_configuration` (typed states for the
//!   generic engine, table lookups for the ahead-of-time engine —
//!   requires [`CompiledProtocol::compile_with_seeds`] over the support
//!   — and intern-on-first-sight for the lazy engine) and
//!   `run_while_stable`, the loop that keeps running *past* first
//!   stabilization and reports the step of the first violation;
//! * [`run_to_hold`] — the per-execution driver, producing a
//!   [`HoldingTime`];
//! * [`prepare_stabilize_engine`] / [`run_trials_stabilize_auto_prepared`]
//!   — the Monte-Carlo entry point, running on the same trial driver as
//!   [`crate::monte_carlo`]'s elections and attaching the metrics to
//!   [`TrialResult::holding`]. Under a fault plan the driver runs every
//!   fault first, so the election it reports is the *re*-election after
//!   the last fault, with [`crate::faults::Recovery`] metrics attached:
//!   a corrupt burst mid-hold measures the headline property of this
//!   protocol class, bounded re-election time from any perturbation.
//!
//! # What "stable" means here
//!
//! For a loosely-stabilizing protocol the unique-leader configuration
//! is *not* stable forever — by design, a timeout can always resurrect
//! a leader, so the classic stability definition is unattainable (and
//! exact self-stabilizing election is impossible for anonymous agents
//! on general interaction graphs; Angluin, Aspnes, Fischer, Jiang
//! 2008). Such protocols therefore use an oracle whose `is_stable`
//! certifies the **holding predicate** — "exactly one node outputs
//! leader" ([`crate::LeaderCountOracle`]) — and this module measures
//! the two quantities that predicate supports: the election step
//! (first time the predicate holds after the start/last fault) and the
//! holding duration (steps until its first violation).
//!
//! # Determinism contract
//!
//! The [`crate::monte_carlo`] guarantees extend verbatim: the sampled
//! start configuration of trial `i` derives from trial `i`'s seed
//! alone, every engine loads the identical configuration at step 0 and
//! continues on the identical scheduler stream, so generic, dense and
//! lazy engines produce identical [`TrialResult`]s — independent of
//! thread count and sharding — from arbitrary initializations too
//! (`tests/stabilize_differential.rs` pins this, fault plans included).
//!
//! # Example
//!
//! Measure elect-then-hold for a deliberately flimsy two-state
//! "protocol" (real ones live in `popele-core`'s `loose` module):
//!
//! ```
//! use popele_engine::stabilize::{arbitrary_config, run_to_hold, ArbitraryInit};
//! use popele_engine::{Executor, LeaderCountOracle, Protocol, Role};
//! use popele_graph::families;
//!
//! // Initiator absorbs the responder's leadership; an all-follower
//! // start deadlocks leaderless, so the *initiator promotes itself*
//! // when neither side leads — which also means a held unique leader
//! // is eventually violated: loose stabilization in miniature.
//! #[derive(Clone, Copy)]
//! struct Flimsy;
//! impl Protocol for Flimsy {
//!     type State = bool;
//!     type Oracle = LeaderCountOracle;
//!     fn initial_state(&self, _node: u32) -> bool { false }
//!     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
//!         match (a, b) {
//!             (true, true) => (true, false),
//!             (false, false) => (true, false),
//!             _ => (*a, *b),
//!         }
//!     }
//!     fn output(&self, s: &bool) -> Role {
//!         if *s { Role::Leader } else { Role::Follower }
//!     }
//!     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
//! }
//! impl ArbitraryInit for Flimsy {
//!     fn arbitrary_support(&self) -> Vec<bool> { vec![false, true] }
//! }
//!
//! let g = families::clique(8);
//! let mut exec = Executor::new(&g, &Flimsy, 7);
//! exec.set_configuration(&arbitrary_config(&Flimsy, 8, 99));
//! let report = run_to_hold(&mut exec, 1 << 20);
//! let holding = report.holding;
//! let elect = holding.elect_step.expect("elects within the budget");
//! // Two followers meeting promote a second leader, so the hold ends.
//! let hold = holding.hold_steps.expect("violated within the budget");
//! assert_eq!(exec.steps(), elect + hold);
//! ```

use crate::dense::{CompiledProtocol, DEFAULT_MAX_COMPILED_STATES};
use crate::executor::{NotStabilized, Outcome};
use crate::faults::{FaultPlan, FaultTarget};
use crate::monte_carlo::{drive, EngineSelection, Goal, Selected, TrialOptions, TrialResult};
use crate::protocol::Protocol;
use popele_graph::Graph;
use popele_math::rng::SeedSeq;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A protocol that can be started from an adversarial configuration.
///
/// Implementations declare the **support** of the initializer: the set
/// of states the sampler may place on a node, in a deterministic order.
/// [`arbitrary_config`] then draws one state per node uniformly from
/// that support. The support need not be reachable from the clean
/// initial configuration — that is the point — but the transition
/// function must be total over it (every protocol transition already
/// is).
///
/// # Examples
///
/// ```
/// use popele_engine::stabilize::ArbitraryInit;
/// # use popele_engine::{LeaderCountOracle, Protocol, Role};
/// # #[derive(Clone, Copy)]
/// # struct Absorb;
/// # impl Protocol for Absorb {
/// #     type State = bool;
/// #     type Oracle = LeaderCountOracle;
/// #     fn initial_state(&self, _node: u32) -> bool { true }
/// #     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
/// #         if *a && *b { (true, false) } else { (*a, *b) }
/// #     }
/// #     fn output(&self, s: &bool) -> Role {
/// #         if *s { Role::Leader } else { Role::Follower }
/// #     }
/// #     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
/// # }
///
/// impl ArbitraryInit for Absorb {
///     fn arbitrary_support(&self) -> Vec<bool> {
///         vec![false, true] // any node may start leader or follower
///     }
/// }
/// assert_eq!(Absorb.arbitrary_support().len(), 2);
/// ```
pub trait ArbitraryInit: Protocol {
    /// The states the adversarial initializer may produce, in a fixed,
    /// deterministic order (sampling indexes into this slice, so the
    /// order is part of the reproducibility contract). Must be
    /// nonempty.
    fn arbitrary_support(&self) -> Vec<Self::State>;
}

/// The stream index (child of a trial seed) reserved for sampling the
/// arbitrary start configuration, so initialization randomness never
/// collides with the scheduler's or the fault resolver's.
const ARBITRARY_STREAM: u64 = 0xA5B1;

/// Derives the arbitrary-initialization seed of a trial from the
/// trial's seed — the counterpart of [`crate::faults::fault_seed`] for
/// start-configuration sampling, and the reason a trial's start
/// configuration is independent of thread count, engine and sharding.
///
/// # Examples
///
/// ```
/// use popele_engine::stabilize::arbitrary_seed;
///
/// // A pure function of the trial seed, distinct from it.
/// assert_eq!(arbitrary_seed(7), arbitrary_seed(7));
/// assert_ne!(arbitrary_seed(7), 7);
/// ```
#[must_use]
pub fn arbitrary_seed(trial_seed: u64) -> u64 {
    SeedSeq::new(trial_seed).child(ARBITRARY_STREAM)
}

/// Samples one state per node uniformly from `support` (deterministic
/// in `seed`). The support-slice variant of [`arbitrary_config`], for
/// callers that fetch the support once and sample per trial.
///
/// # Panics
///
/// Panics if `support` is empty.
///
/// # Examples
///
/// ```
/// use popele_engine::stabilize::sample_support;
///
/// let config = sample_support(&['a', 'b', 'c'], 16, 42);
/// assert_eq!(config.len(), 16);
/// assert_eq!(config, sample_support(&['a', 'b', 'c'], 16, 42));
/// ```
#[must_use]
pub fn sample_support<S: Clone>(support: &[S], num_nodes: u32, seed: u64) -> Vec<S> {
    assert!(
        !support.is_empty(),
        "arbitrary-init support must be nonempty"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..num_nodes)
        .map(|_| support[rng.random_range(0..support.len())].clone())
        .collect()
}

/// Samples an arbitrary start configuration for `protocol` on
/// `num_nodes` nodes: one state per node, uniform over
/// [`ArbitraryInit::arbitrary_support`], deterministic in `seed`.
///
/// # Panics
///
/// Panics if the protocol declares an empty support.
///
/// # Examples
///
/// ```
/// use popele_engine::stabilize::{arbitrary_config, ArbitraryInit};
/// # use popele_engine::{LeaderCountOracle, Protocol, Role};
/// # #[derive(Clone, Copy)]
/// # struct Absorb;
/// # impl Protocol for Absorb {
/// #     type State = bool;
/// #     type Oracle = LeaderCountOracle;
/// #     fn initial_state(&self, _node: u32) -> bool { true }
/// #     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
/// #         if *a && *b { (true, false) } else { (*a, *b) }
/// #     }
/// #     fn output(&self, s: &bool) -> Role {
/// #         if *s { Role::Leader } else { Role::Follower }
/// #     }
/// #     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
/// # }
/// # impl ArbitraryInit for Absorb {
/// #     fn arbitrary_support(&self) -> Vec<bool> { vec![false, true] }
/// # }
///
/// let config = arbitrary_config(&Absorb, 32, 7);
/// assert_eq!(config.len(), 32);
/// // Deterministic in the seed; different seeds differ (w.h.p.).
/// assert_eq!(config, arbitrary_config(&Absorb, 32, 7));
/// ```
#[must_use]
pub fn arbitrary_config<P: ArbitraryInit + ?Sized>(
    protocol: &P,
    num_nodes: u32,
    seed: u64,
) -> Vec<P::State> {
    sample_support(&protocol.arbitrary_support(), num_nodes, seed)
}

/// Election and holding metrics of one arbitrarily-initialized run —
/// the loose-stabilization observables, attached to
/// [`TrialResult::holding`].
///
/// # Examples
///
/// ```
/// use popele_engine::stabilize::HoldingTime;
///
/// // A trial that elected at step 120 and held for 3400 steps.
/// let h = HoldingTime { elect_step: Some(120), hold_steps: Some(3400), held_to_budget: false };
/// assert_eq!(h.elect_step.unwrap() + h.hold_steps.unwrap(), 3520);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HoldingTime {
    /// First step at which the holding predicate (unique leader) held —
    /// after the last applied fault, if any. `None`: the budget passed
    /// without an election.
    pub elect_step: Option<u64>,
    /// Steps the predicate then held before its first violation.
    /// `None` when no violation was observed: either the election never
    /// happened, or the hold survived to the budget (see
    /// [`HoldingTime::held_to_budget`] — such holds are right-censored
    /// and should be read as "at least budget − elect").
    pub hold_steps: Option<u64>,
    /// The election happened and the unique-leader configuration was
    /// still intact when the step budget ran out.
    pub held_to_budget: bool,
}

/// What an elect-and-hold run did, in full.
#[derive(Debug, Clone)]
pub struct StabilizeReport {
    /// The election outcome: the [`Outcome`] *at the election step*
    /// (leader identity as first elected — the hold phase runs on
    /// afterwards), or [`NotStabilized`] when the budget passed first.
    pub result: Result<Outcome, NotStabilized>,
    /// The election/holding metrics.
    pub holding: HoldingTime,
}

/// Drives one (already arbitrarily-initialized) execution to its
/// election and then **past** it: runs to the first unique-leader
/// configuration, keeps running while it holds, and stops right after
/// the first violation (or at `max_steps` total interactions, counted
/// from step 0 — holds alive at the budget are reported as
/// right-censored, never as violations).
///
/// See the [module docs](crate::stabilize) for a complete example.
pub fn run_to_hold<'g, T: FaultTarget<'g>>(exec: &mut T, max_steps: u64) -> StabilizeReport {
    let result = exec.run_until_stable(max_steps);
    let holding = match &result {
        Ok(out) => {
            let elect = out.stabilization_step;
            match exec.run_while_stable(max_steps) {
                Some(violated) => HoldingTime {
                    elect_step: Some(elect),
                    hold_steps: Some(violated - elect),
                    held_to_budget: false,
                },
                None => HoldingTime {
                    elect_step: Some(elect),
                    hold_steps: None,
                    held_to_budget: true,
                },
            }
        }
        Err(_) => HoldingTime {
            elect_step: None,
            hold_steps: None,
            held_to_budget: false,
        },
    };
    StabilizeReport { result, holding }
}

/// Seeded engine selection for arbitrary-start workloads, in reusable
/// form: the counterpart of [`EngineSelection::prepare`] whose AOT table
/// is compiled over the initial states **and** the protocol's arbitrary
/// support. AOT when that closure fits the default cap, lazy when it
/// does not but the protocol declares a finite state-space bound,
/// generic otherwise.
///
/// No overflow walk is needed on the rejection path: the support
/// states are interned *before* the BFS closure starts, so supports
/// beyond the cap (the large-timer instances that motivate the lazy
/// engine) are rejected during seeding, in O(cap) work.
///
/// A selection prepared here is **not** interchangeable with one from
/// [`EngineSelection::prepare`] — the fixed-start closure does not
/// contain the arbitrary support — so hand it only to
/// [`run_trials_stabilize_auto_prepared`]. Fault campaigns prepare at
/// the plan's maximum node count (`graph.num_nodes() +
/// plan.max_joins()`).
///
/// # Examples
///
/// ```
/// use popele_engine::monte_carlo::Engine;
/// use popele_engine::stabilize::{prepare_stabilize_engine, ArbitraryInit};
/// # use popele_engine::{LeaderCountOracle, Protocol, Role};
/// # #[derive(Clone, Copy)]
/// # struct Absorb;
/// # impl Protocol for Absorb {
/// #     type State = bool;
/// #     type Oracle = LeaderCountOracle;
/// #     fn initial_state(&self, _node: u32) -> bool { true }
/// #     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
/// #         if *a && *b { (true, false) } else { (*a, *b) }
/// #     }
/// #     fn output(&self, s: &bool) -> Role {
/// #         if *s { Role::Leader } else { Role::Follower }
/// #     }
/// #     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
/// # }
/// # impl ArbitraryInit for Absorb {
/// #     fn arbitrary_support(&self) -> Vec<bool> { vec![false, true] }
/// # }
///
/// // A two-state support compiles ahead of time at any size.
/// assert_eq!(prepare_stabilize_engine(&Absorb, 1_000_000).engine(), Engine::Dense);
/// ```
#[must_use]
pub fn prepare_stabilize_engine<P: ArbitraryInit + Clone>(
    protocol: &P,
    num_nodes: u32,
) -> EngineSelection<P> {
    let support = protocol.arbitrary_support();
    let kind = match CompiledProtocol::compile_with_seeds(
        protocol,
        num_nodes,
        DEFAULT_MAX_COMPILED_STATES,
        &support,
    ) {
        Ok(compiled) => Selected::Dense(Arc::new(compiled)),
        Err(_) if protocol.state_space_bound().is_some() => Selected::Lazy,
        Err(_) => Selected::Generic,
    };
    EngineSelection { kind }
}

/// Runs `options.trials` independent arbitrarily-initialized
/// elect-and-hold executions of `protocol` on `graph` under `plan`, on
/// the tier `selection` names. Whatever the tier, the results are
/// identical — the choice is recorded in [`TrialResult::engine`].
///
/// Trial `i` samples its start configuration with
/// [`arbitrary_seed`]`(seed_i)` and (for a nonempty `plan`) its fault
/// realization with [`crate::faults::fault_seed`]`(seed_i)`, so results
/// are independent of thread count and sharding. `stabilization_step`
/// carries the election step, `leader` the leader *at election*, and
/// [`TrialResult::holding`] is always attached. Pass
/// [`FaultPlan::empty`] for the fault-free workload.
///
/// `selection` must come from [`prepare_stabilize_engine`] for this
/// protocol at the plan's maximum node count (`graph.num_nodes() +
/// plan.max_joins()`), or be a forced tier whose AOT table covers the
/// arbitrary support. This is the entry point the sweep layer and the
/// `popele-lab stabilize` experiment use for the loosely-stabilizing
/// protocol family.
///
/// # Examples
///
/// ```
/// use popele_engine::monte_carlo::{Engine, TrialOptions};
/// use popele_engine::stabilize::{
///     prepare_stabilize_engine, run_trials_stabilize_auto_prepared, ArbitraryInit,
/// };
/// use popele_engine::FaultPlan;
/// # use popele_engine::{LeaderCountOracle, Protocol, Role};
/// # #[derive(Clone, Copy)]
/// # struct Flimsy;
/// # impl Protocol for Flimsy {
/// #     type State = bool;
/// #     type Oracle = LeaderCountOracle;
/// #     fn initial_state(&self, _node: u32) -> bool { false }
/// #     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
/// #         match (a, b) {
/// #             (true, true) => (true, false),
/// #             (false, false) => (true, false),
/// #             _ => (*a, *b),
/// #         }
/// #     }
/// #     fn output(&self, s: &bool) -> Role {
/// #         if *s { Role::Leader } else { Role::Follower }
/// #     }
/// #     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
/// # }
/// # impl ArbitraryInit for Flimsy {
/// #     fn arbitrary_support(&self) -> Vec<bool> { vec![false, true] }
/// # }
///
/// let g = popele_graph::families::clique(8);
/// let selection = prepare_stabilize_engine(&Flimsy, g.num_nodes());
/// // A two-state support compiles ahead of time.
/// assert_eq!(selection.engine(), Engine::Dense);
/// let opts = TrialOptions { trials: 4, max_steps: 1 << 20, ..TrialOptions::default() };
/// let results =
///     run_trials_stabilize_auto_prepared(&g, &Flimsy, &selection, 3, opts, &FaultPlan::empty());
/// assert!(results.iter().all(|r| r.holding.is_some()));
/// ```
#[must_use]
pub fn run_trials_stabilize_auto_prepared<P: ArbitraryInit + Clone>(
    graph: &Graph,
    protocol: &P,
    selection: &EngineSelection<P>,
    master_seed: u64,
    options: TrialOptions,
    plan: &FaultPlan,
) -> Vec<TrialResult> {
    let goal = Goal::Hold(protocol.arbitrary_support());
    drive(
        graph,
        protocol,
        selection,
        plan,
        &goal,
        master_seed,
        options,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{drive_ops, fault_seed, FaultKind};
    use crate::protocol::{LeaderCountOracle, Role};
    use crate::Executor;
    use popele_graph::families;
    use popele_graph::NodeId;

    /// Initiator absorbs the responder's leadership; a leaderless pair
    /// promotes the initiator — so elections always happen and unique
    /// leaders are eventually violated (loose stabilization in
    /// miniature, without needing the real protocols of popele-core).
    #[derive(Clone, Copy)]
    struct Flimsy;

    impl Protocol for Flimsy {
        type State = bool;
        type Oracle = LeaderCountOracle;

        fn initial_state(&self, _node: NodeId) -> bool {
            false
        }

        fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
            match (a, b) {
                (true, true) => (true, false),
                (false, false) => (true, false),
                _ => (*a, *b),
            }
        }

        fn output(&self, s: &bool) -> Role {
            if *s {
                Role::Leader
            } else {
                Role::Follower
            }
        }

        fn oracle(&self) -> LeaderCountOracle {
            LeaderCountOracle::new()
        }

        fn state_space_bound(&self) -> Option<u64> {
            Some(2)
        }
    }

    impl ArbitraryInit for Flimsy {
        fn arbitrary_support(&self) -> Vec<bool> {
            vec![false, true]
        }
    }

    #[test]
    fn sampling_is_deterministic_and_stream_separated() {
        let a = arbitrary_config(&Flimsy, 64, arbitrary_seed(5));
        let b = arbitrary_config(&Flimsy, 64, arbitrary_seed(5));
        assert_eq!(a, b);
        let c = arbitrary_config(&Flimsy, 64, arbitrary_seed(6));
        assert_ne!(a, c, "different trials sample different starts");
        assert_ne!(arbitrary_seed(5), fault_seed(5), "streams must differ");
    }

    #[test]
    fn run_to_hold_reports_elect_and_violation() {
        let g = families::clique(8);
        let mut exec = Executor::new(&g, &Flimsy, 11);
        exec.set_configuration(&arbitrary_config(&Flimsy, 8, arbitrary_seed(11)));
        let report = run_to_hold(&mut exec, 1 << 20);
        let h = report.holding;
        let elect = h.elect_step.expect("clique elections always happen");
        // Flimsy re-promotes on any follower-follower pair, so the hold
        // breaks within the budget…
        let hold = h.hold_steps.expect("violation within the budget");
        assert!(!h.held_to_budget);
        // …and the executor stops right after the violating step.
        assert_eq!(exec.steps(), elect + hold);
        assert!(!exec.is_stable());
        assert_eq!(report.result.unwrap().leader_count, 1);
    }

    #[test]
    fn hold_censoring_at_the_budget() {
        // With a unique-leader start on a 2-clique the configuration is
        // stable at step 0 and (leader, follower) never violates — the
        // hold must be censored, not reported as a violation.
        let g = families::clique(2);
        let mut exec = Executor::new(&g, &Flimsy, 1);
        exec.set_configuration(&[true, false]);
        let report = run_to_hold(&mut exec, 1000);
        assert_eq!(report.holding.elect_step, Some(0));
        assert_eq!(report.holding.hold_steps, None);
        assert!(report.holding.held_to_budget);
        assert_eq!(exec.steps(), 1000);
    }

    #[test]
    fn faulted_hold_measures_reelection() {
        let g = families::clique(12);
        let plan = FaultPlan::at(500, FaultKind::CorruptNodes { count: 12 });
        let resolved = plan.resolve(&g, fault_seed(3));
        let mut exec = Executor::new(&g, &Flimsy, 3);
        exec.set_configuration(&arbitrary_config(&Flimsy, 12, arbitrary_seed(3)));
        // The trial driver's sequence: every fault first, then the hold.
        let trace = drive_ops(&mut exec, &resolved, 1 << 20);
        let report = run_to_hold(&mut exec, 1 << 20);
        let recovery = trace.recovery(&report.result, exec.leader_count());
        assert_eq!(recovery.last_fault_step, 500);
        // Corrupting every node resets all to follower: the election
        // reported is the re-election after the burst.
        let elect = report.holding.elect_step.unwrap();
        assert!(elect >= 500);
        assert_eq!(recovery.reconvergence_steps, Some(elect - 500));
    }

    /// Elect-and-hold trials of [`Flimsy`] on the tier `selection` names.
    fn hold(
        g: &Graph,
        selection: &EngineSelection<Flimsy>,
        options: TrialOptions,
        plan: &FaultPlan,
    ) -> Vec<TrialResult> {
        run_trials_stabilize_auto_prepared(g, &Flimsy, selection, 7, options, plan)
    }

    #[test]
    fn all_engines_agree_from_arbitrary_starts() {
        let g = families::clique(10);
        let opts = TrialOptions {
            trials: 6,
            max_steps: 1 << 18,
            census: true,
            threads: 1,
            ..TrialOptions::default()
        };
        let compiled =
            CompiledProtocol::compile_with_seeds(&Flimsy, 10, 16, &Flimsy.arbitrary_support())
                .unwrap();
        let plan = FaultPlan::empty();
        let generic = hold(&g, &EngineSelection::generic(), opts, &plan);
        let dense = hold(&g, &EngineSelection::dense(compiled), opts, &plan);
        let lazy = hold(&g, &EngineSelection::lazy(), opts, &plan);
        let auto = hold(&g, &prepare_stabilize_engine(&Flimsy, 10), opts, &plan);
        assert_eq!(generic, dense);
        assert_eq!(generic, lazy);
        assert_eq!(generic, auto);
        assert!(generic.iter().all(|r| r.holding.is_some()));
    }

    #[test]
    fn thread_count_never_changes_results() {
        let g = families::clique(10);
        let opts = |threads| TrialOptions {
            trials: 8,
            max_steps: 1 << 18,
            census: false,
            threads,
            ..TrialOptions::default()
        };
        let plan = FaultPlan::at(64, FaultKind::CorruptNodes { count: 4 });
        let generic = EngineSelection::generic();
        let one = hold(&g, &generic, opts(1), &plan);
        let four = hold(&g, &generic, opts(4), &plan);
        assert_eq!(one, four);
        assert!(one.iter().all(|r| r.recovery.is_some()));
    }

    #[test]
    fn selection_prefers_aot_for_tiny_supports() {
        assert_eq!(
            prepare_stabilize_engine(&Flimsy, 100).engine(),
            crate::Engine::Dense
        );
    }
}
