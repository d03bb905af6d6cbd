//! Stochastic population-protocol execution engine.
//!
//! Implements the model of Section 2.2 of *Near-Optimal Leader Election in
//! Population Protocols on Graphs* (PODC 2022): a scheduler samples, in
//! every discrete step, an ordered pair of adjacent nodes uniformly at
//! random among all `2m` ordered pairs of a connected interaction graph;
//! the two nodes interact through a state-transition function.
//!
//! * [`Protocol`] — the protocol abstraction (states, transition function,
//!   output map) together with a per-protocol [`StabilityOracle`] that
//!   detects — in O(1) per interaction — the exact step at which the
//!   configuration becomes stable and correct;
//! * [`EdgeScheduler`] — the uniform ordered-pair scheduler;
//! * [`Executor`] — applies a protocol under a scheduler and reports the
//!   stabilization step, the elected leader, and (optionally) a census of
//!   distinct states for space-complexity measurements;
//! * [`dense::PerAgentExecutor`] — the dense-state core, one executor
//!   over two pair sources. [`DenseExecutor`] runs it on a
//!   [`CompiledProtocol`]: the reachable state space is enumerated once
//!   into `u16` ids and the full `|Λ|²` transition table precomputed,
//!   so the hot loop is two array reads, one table lookup and two array
//!   writes. [`LazyDenseExecutor`] runs it on a [`LazyTable`]: states
//!   interned into `u32` ids on first sight, pair successors memoized on
//!   first use, which brings protocols whose state spaces overflow the
//!   ahead-of-time cap (the identifier protocol at realistic `k`,
//!   full-scale fast-protocol instances) onto the same hot loop;
//! * [`LaneDenseExecutor`] — the opt-in lane-parallel dense engine:
//!   8–16 Monte-Carlo trials of one compiled cell stepped in lockstep
//!   over structure-of-arrays state, per-trial trace-identical to
//!   [`DenseExecutor`] (see [`dense::lanes`] and
//!   [`monte_carlo::run_trials_lanes`]);
//! * [`exhaustive`] — a brute-force reachability checker implementing the
//!   *definition* of stability (every reachable configuration has the same
//!   output) on tiny instances, used to validate the incremental oracles
//!   (with a dense-id fast path for compiled protocols);
//! * [`monte_carlo`] — a multi-threaded harness running many independent
//!   seeded trials through one driver, with [`EngineSelection::prepare`]
//!   picking per workload among the three engines (AOT-compiled →
//!   lazy-compiled → generic) and recording the choice in each trial
//!   result;
//! * [`faults`] — fault injection and dynamic graphs: deterministic
//!   [`FaultPlan`] schedules (state corruption, node churn, edge
//!   rewiring) applied identically by both engines, with
//!   recovery-oriented metrics ([`faults::Recovery`]);
//! * [`stabilize`] — self-stabilization workloads: arbitrary start
//!   configurations ([`stabilize::ArbitraryInit`]) sampled per trial,
//!   and elect-then-hold measurement ([`stabilize::HoldingTime`]) that
//!   keeps running past first stabilization to time how long the
//!   unique-leader configuration holds.
//!
//! # Three engines, one contract
//!
//! [`Executor`] is the *reference* implementation: it evaluates
//! [`Protocol::transition`] on typed states every step and works for any
//! protocol, including ones whose state space cannot be enumerated.
//! [`DenseExecutor`] is the *ahead-of-time compiled* implementation used
//! for paper-scale runs (`n` up to 10⁶, billions of steps): it requires
//! a successful [`CompiledProtocol::compile`] — which fails once the BFS
//! closure over the reachable states exceeds the `u16` id space or the
//! requested cap (see [`dense::table`] for when that happens).
//! [`LazyDenseExecutor`] covers the gap between the two: it needs no
//! up-front enumeration (states and transitions are interned/memoized as
//! the execution discovers them), so the protocols the AOT cap excludes
//! still run on dense ids. All three are guaranteed to produce
//! bit-identical traces and [`Outcome`]s for the same protocol, graph
//! and seed. That guarantee is enforced by differential tests; if you
//! add a protocol whose oracle `apply` is not a pure function of the
//! `(old, new)` state pairs, the dense engines' no-op skipping would
//! break it, and the differential test is what will catch it.
//!
//! # Examples
//!
//! A two-state protocol where the initiator absorbs the responder's
//! leadership (stabilizes on cliques, where all leaders stay adjacent):
//!
//! ```
//! use popele_engine::{Executor, LeaderCountOracle, Protocol, Role};
//! use popele_graph::families;
//!
//! #[derive(Clone, Copy)]
//! struct Absorb;
//!
//! impl Protocol for Absorb {
//!     type State = bool; // true = leader
//!     type Oracle = LeaderCountOracle;
//!
//!     fn initial_state(&self, _node: u32) -> bool { true }
//!     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
//!         if *a && *b { (true, false) } else { (*a, *b) }
//!     }
//!     fn output(&self, s: &bool) -> Role {
//!         if *s { Role::Leader } else { Role::Follower }
//!     }
//!     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
//! }
//!
//! let g = families::clique(20);
//! let mut exec = Executor::new(&g, &Absorb, 7);
//! let outcome = exec.run_until_stable(1_000_000).unwrap();
//! assert_eq!(outcome.leader_count, 1);
//! ```

#![warn(missing_docs)]

mod executor;
mod protocol;
mod scheduler;

pub mod dense;
pub mod exhaustive;
pub mod faults;
pub mod monte_carlo;
pub mod stabilize;

pub use dense::{
    compile_for_count, count_supported, CompileError, CompiledProtocol, CountEngine, DenseExecutor,
    LaneDenseExecutor, LaneOutcome, LazyDenseExecutor, LazyTable, StateId,
    COUNT_MAX_COMPILED_STATES, COUNT_MIN_AGENTS, DEFAULT_MAX_COMPILED_STATES,
};
pub use executor::{Executor, NotStabilized, Outcome};
pub use faults::{FaultEvent, FaultKind, FaultPlan, ResolvedFaultPlan};
pub use monte_carlo::{Engine, EngineSelection};
pub use protocol::{LeaderCountOracle, Protocol, Role, StabilityOracle, EFFECT_OPAQUE};
pub use scheduler::EdgeScheduler;
pub use stabilize::{ArbitraryInit, HoldingTime};
