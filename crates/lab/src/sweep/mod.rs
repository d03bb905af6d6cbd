//! Sweep campaigns: sharded Monte-Carlo grids over protocols × graph
//! families × sizes.
//!
//! The paper's headline results (Table 1, Theorems 16/21/24) are
//! statements about how stabilization time scales across *graph
//! families*. This module makes such cross-family measurements cheap:
//! declare a grid once ([`SweepSpec`]), run it with checkpointed,
//! resume-safe sharding ([`run_campaign`]), and get per-cell statistics
//! plus fitted scaling exponents ([`summary`]) as deterministic JSON and
//! CSV under `results/<name>/`. Grids carry a fourth, *adversity* axis:
//! [`FaultSpec`] profiles (state corruption, node churn, edge rewiring —
//! see [`popele_engine::faults`]) sweep fault intensity alongside
//! protocol × family × size, and faulted cells additionally record
//! recovery metrics (reconvergence time after the last fault, lost
//! leaders, peak leader-count excursions).
//!
//! # Reproducibility contract
//!
//! For a fixed spec (grid + master seed + step budget), the campaign's
//! `checkpoint.json` and `summary.json` are **byte-identical**:
//!
//! * across thread counts (per-trial seeds are derived, not consumed in
//!   execution order);
//! * across engines (the compiled dense engine is trace-identical to the
//!   generic one; [`popele_engine::EngineSelection::prepare`] picks
//!   freely);
//! * across interruptions — kill the process after any shard, rerun the
//!   same command, and the completed campaign's outputs match an
//!   uninterrupted run byte for byte (`tests/sweep_resume.rs` asserts
//!   this);
//! * across grid edits that don't touch a cell: a cell's trial seeds
//!   derive from its *key* (`token/cycle/2000`), so adding a protocol or
//!   size never silently changes existing cells' numbers;
//! * under fault injection: faulted cells (keys like
//!   `token/cycle/2000/corrupt`) derive their per-trial fault
//!   realizations from their trial seeds, so every guarantee above
//!   extends verbatim to grids with a nonzero fault axis (also asserted
//!   by `tests/sweep_resume.rs`).
//!
//! # Example
//!
//! ```
//! use popele_lab::sweep::{run_campaign, CampaignOptions, ProtocolSpec, SweepSpec};
//! use popele_lab::workloads::Family;
//!
//! let spec = SweepSpec {
//!     name: "doc-example".into(),
//!     protocols: vec![ProtocolSpec::Token],
//!     families: vec![Family::Clique, Family::Cycle],
//!     sizes: vec![8, 16],
//!     trials_per_cell: 2,
//!     shard_trials: 1,
//!     max_steps: 1 << 22,
//!     ..SweepSpec::default()
//! };
//! let out_dir = std::env::temp_dir().join("popele-sweep-doc");
//! # std::fs::remove_dir_all(&out_dir).ok();
//! let outcome = run_campaign(
//!     &spec,
//!     &CampaignOptions { out_dir: out_dir.clone(), ..CampaignOptions::default() },
//! )
//! .unwrap();
//! assert!(outcome.completed);
//! assert_eq!(outcome.ran_shards, 2 * 2 * 2);
//! # std::fs::remove_dir_all(&out_dir).ok();
//! ```

pub mod checkpoint;
pub mod json;
pub mod runner;
pub mod spec;
pub mod summary;

pub use checkpoint::{CellMeta, Checkpoint, HoldingRecord, Journal, JournalEntry, TrialRecord};
pub use runner::{
    checkpoint_path, journal_path, run_campaign, summary_path, CampaignOptions, CampaignOutcome,
};
pub use spec::{CellSpec, FaultSpec, ProtocolSpec, ShardSpec, SweepSpec};
