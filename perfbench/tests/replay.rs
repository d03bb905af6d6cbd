//! The traced replay must do exactly the campaign's work: on a tiny grid
//! for each of the clean, faulted, stabilizing and count paths, its
//! `checkpoint.json` and `summary.json` are byte-identical to
//! `run_campaign`'s. And every workload's spec is a pure function of the
//! seed.

use perfbench::replay::replay;
use perfbench::trace::Tracer;
use perfbench::workloads::Workload;
use popele_lab::sweep::{
    checkpoint_path, run_campaign, summary_path, CampaignOptions, FaultSpec, ProtocolSpec,
    SweepSpec,
};
use popele_lab::workloads::Family;
use std::path::PathBuf;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `spec` through `run_campaign` (on two workers) and through the
/// replay, and compares their output bytes.
fn assert_replay_matches(tag: &str, spec: &SweepSpec) {
    assert!(
        !spec.shards().is_empty(),
        "{tag}: the grid has no runnable shard"
    );
    let campaign_out = fresh_dir(&format!("{tag}-campaign"));
    let outcome = run_campaign(
        spec,
        &CampaignOptions {
            out_dir: campaign_out,
            workers: 2,
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    assert!(outcome.completed);

    let mut tracer = Tracer::new();
    let replayed = replay(spec, &fresh_dir(&format!("{tag}-replay")), &mut tracer).unwrap();
    for path in [checkpoint_path, summary_path] {
        let a = std::fs::read(path(&outcome.dir)).unwrap();
        let b = std::fs::read(path(&replayed.dir)).unwrap();
        assert!(a == b, "{tag}: {} differs", path(&replayed.dir).display());
    }
    let layers = tracer.self_times();
    assert_eq!(layers["replay"].calls, 1);
    assert_eq!(layers["journal.append"].calls, spec.shards().len() as u64);
}

fn tiny(name: &str) -> SweepSpec {
    SweepSpec {
        name: name.into(),
        trials_per_cell: 3,
        shard_trials: 2,
        max_steps: 200_000,
        master_seed: 0xBEEF,
        threads: 1,
        ..SweepSpec::default()
    }
}

#[test]
fn clean_path_replays_byte_identically() {
    // Single-trial shards: 96 of them, so the journal compacts mid-run.
    let spec = SweepSpec {
        protocols: vec![
            ProtocolSpec::Token,
            ProtocolSpec::Identifier,
            ProtocolSpec::Fast,
        ],
        families: vec![Family::Clique, Family::Cycle],
        sizes: vec![16, 24],
        trials_per_cell: 8,
        shard_trials: 1,
        ..tiny("clean")
    };
    assert_replay_matches("clean", &spec);
}

#[test]
fn faulted_path_replays_byte_identically() {
    let spec = SweepSpec {
        protocols: vec![
            ProtocolSpec::Token,
            ProtocolSpec::Star,
            ProtocolSpec::Majority,
        ],
        families: vec![Family::Star, Family::Torus],
        sizes: vec![16],
        faults: FaultSpec::ALL.to_vec(),
        ..tiny("faulted")
    };
    assert_replay_matches("faulted", &spec);
}

#[test]
fn stabilizing_path_replays_byte_identically() {
    let spec = SweepSpec {
        protocols: vec![
            ProtocolSpec::Loose,
            ProtocolSpec::RingLoose,
            ProtocolSpec::RingTimeOpt,
        ],
        families: vec![Family::Cycle, Family::Clique],
        sizes: vec![12, 20],
        faults: vec![FaultSpec::None, FaultSpec::Corrupt],
        ..tiny("stabilizing")
    };
    assert_replay_matches("stabilizing", &spec);
}

#[test]
fn count_path_replays_byte_identically() {
    let spec = SweepSpec {
        protocols: vec![
            ProtocolSpec::Token,
            ProtocolSpec::Majority,
            ProtocolSpec::Fast,
        ],
        families: vec![Family::Clique],
        sizes: vec![40_000],
        max_steps: 2_000_000,
        ..tiny("count")
    };
    assert!(spec.shards().iter().all(|s| spec.cell_is_count(&s.cell)));
    assert_replay_matches("count", &spec);
}

#[test]
fn workload_specs_are_pure_functions_of_the_seed() {
    let pinned = [
        (
            Workload::AgentGrid,
            "v1;protocols=token,identifier,fast;families=clique,cycle,torus,rand-4-regular,star;\
             sizes=4000,80000;trials=2;shard=2;max_steps=2000000;seed=1;max_edges=8388608",
        ),
        (
            Workload::CountClique,
            "v1;protocols=token,fast,majority;families=clique;sizes=10000000;trials=3;shard=3;\
             max_steps=80000000;seed=1;max_edges=8388608",
        ),
        (
            Workload::ManyCells,
            "v1;protocols=token,majority,star,loose,ring-loose,fast;\
             families=clique,cycle,star,torus;sizes=32,64,128,256;trials=8;shard=1;\
             max_steps=200000;seed=1;max_edges=8388608;faults=none,corrupt",
        ),
    ];
    for (workload, fingerprint) in pinned {
        assert_eq!(workload.spec(1, None).fingerprint(), fingerprint);
        for seed in [0, 7, u64::MAX] {
            assert_eq!(workload.spec(seed, None), workload.spec(seed, None));
            assert_eq!(workload.spec(seed, None).master_seed, seed);
        }
        assert_ne!(workload.spec(1, None), workload.spec(2, None));
        let setup = workload.spec(1, Some(1));
        assert_eq!(setup.max_steps, 1);
        assert_eq!(setup.shards(), workload.spec(1, None).shards());
        assert_eq!(Workload::parse(workload.name()), Some(workload));
    }
    assert_eq!(Workload::ManyCells.spec(3, None).shards().len(), 1152);
}
