//! Property tests for the sweep layer's fault plumbing.
//!
//! * **Stable fault seeds**: a faulted cell's seeds (and hence its
//!   fault realizations) derive from its stable cell key, exactly like
//!   trial seeds — independent of grid composition.
//! * **Journal round trip**: journal lines of the corner protocols come
//!   back value-identical through `sweep/json.rs`, with byte-stable
//!   rendering — the canonical-serialization discipline the
//!   checkpoint/summary byte-identity guarantees rest on.

use popele_engine::faults::fault_seed;
use popele_lab::sweep::{
    CellMeta, CellSpec, FaultSpec, HoldingRecord, JournalEntry, ProtocolSpec, SweepSpec,
    TrialRecord,
};
use popele_lab::workloads::Family;
use popele_math::rng::SeedSeq;
use proptest::prelude::*;

/// Strategy: one trial record as a sweep shard produces it (fault-free
/// cell, so no recovery block; holding attached per the protocol's
/// workload by the caller).
fn arbitrary_record() -> impl Strategy<Value = TrialRecord> {
    // The vendored proptest shim has no `prop::option`; draw a presence
    // bit next to each value instead.
    (
        0usize..1 << 16,
        (any::<bool>(), 0u64..1 << 40),
        (any::<bool>(), 0u32..1 << 20),
        (any::<bool>(), 0u64..1 << 40),
        any::<bool>(),
    )
        .prop_map(|(trial, steps, leader, hold, held_to_budget)| TrialRecord {
            trial,
            steps: steps.0.then_some(steps.1),
            leader: leader.0.then_some(leader.1),
            recovery: None,
            holding: Some(HoldingRecord {
                hold: hold.0.then_some(hold.1),
                held_to_budget,
            }),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fault-profile plans are pure functions of (profile, n).
    #[test]
    fn fault_profiles_are_pure(n in 4u32..1_000_000, idx in 0usize..4) {
        let profile = FaultSpec::ALL[idx];
        prop_assert_eq!(profile.plan(n), profile.plan(n));
    }

    /// A faulted cell's master seed derives from its stable key alone:
    /// reshaping the rest of the grid never moves it, and distinct
    /// fault profiles of the same (protocol, family, size) get distinct
    /// seeds (hence independent fault realizations).
    #[test]
    fn fault_cell_seeds_derive_from_stable_keys(
        size in 4u32..100_000,
        seed in any::<u64>(),
        extra_size in 4u32..100_000,
    ) {
        let cell = |fault| CellSpec {
            protocol: ProtocolSpec::Token,
            family: Family::Cycle,
            size,
            fault,
        };
        let small = SweepSpec {
            protocols: vec![ProtocolSpec::Token],
            families: vec![Family::Cycle],
            sizes: vec![size],
            faults: vec![FaultSpec::None, FaultSpec::Corrupt],
            master_seed: seed,
            ..SweepSpec::default()
        };
        let mut bigger = small.clone();
        bigger.protocols.push(ProtocolSpec::Majority);
        bigger.families.push(Family::Star);
        bigger.sizes.push(extra_size);
        bigger.faults.push(FaultSpec::Rewire);

        for fault in [FaultSpec::None, FaultSpec::Corrupt] {
            prop_assert_eq!(
                small.cell_seed(&cell(fault)),
                bigger.cell_seed(&cell(fault)),
                "grid composition leaked into a cell seed"
            );
        }
        // The fault axis separates seeds; the fault-free cell keeps the
        // pre-fault-axis derivation (key without a fault suffix).
        prop_assert_ne!(
            small.cell_seed(&cell(FaultSpec::None)),
            small.cell_seed(&cell(FaultSpec::Corrupt))
        );
        let legacy_key = format!("token/cycle/{size}");
        prop_assert_eq!(cell(FaultSpec::None).key(), legacy_key);

        // Per-trial fault seeds chain from the cell seed through the
        // trial index — the same derivation discipline as trial seeds.
        let cell_seed = small.cell_seed(&cell(FaultSpec::Corrupt));
        let trial_seed = SeedSeq::new(cell_seed).child(0);
        prop_assert_eq!(fault_seed(trial_seed), fault_seed(trial_seed));
        prop_assert_ne!(fault_seed(trial_seed), trial_seed);
    }

    /// Journal lines for the two states-vs-time corner protocols
    /// (`space-opt`, `ring-time-opt`) round-trip byte-identically
    /// through `sweep/json.rs` — including the holding block the
    /// stabilizing ring cells attach — and their cell keys parse back
    /// to the right [`ProtocolSpec`] variant. This is the resume path:
    /// a checkpoint written by a campaign over the new protocols must
    /// reload value-identical.
    #[test]
    fn corner_protocol_journal_lines_roundtrip(
        which in 0usize..2,
        size in 4u32..1_000_000,
        shard in 0usize..64,
        records in prop::collection::vec(arbitrary_record(), 0..12),
    ) {
        let (protocol, family) = [
            (ProtocolSpec::SpaceOpt, Family::Clique),
            (ProtocolSpec::RingTimeOpt, Family::Cycle),
        ][which];
        // Holding metrics exist exactly on the stabilizing workload.
        let records: Vec<TrialRecord> = records
            .into_iter()
            .map(|mut r| {
                if !protocol.is_stabilizing() {
                    r.holding = None;
                }
                r
            })
            .collect();
        let cell = CellSpec { protocol, family, size, fault: FaultSpec::None };
        let entry = JournalEntry {
            shard_key: format!("{}/s{shard}", cell.key()),
            cell_key: cell.key(),
            meta: CellMeta { n: size, m: u64::from(size) * 3 },
            records,
        };
        let line = entry.render_line();
        let back = JournalEntry::from_line(&line).expect("canonical journal line parses");
        prop_assert_eq!(back.render_line(), line, "rendering drifted");
        prop_assert_eq!(back, entry);
        // The key's protocol segment is the stable label: it must parse
        // back to the same variant (checkpoint ↔ spec addressing).
        let segment = cell.key();
        let segment = segment.split('/').next().unwrap().to_string();
        prop_assert_eq!(ProtocolSpec::parse(&segment), Some(protocol));
    }
}
