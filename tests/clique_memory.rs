//! Peak-memory regression guard for the implicit clique: agent-grid's
//! three `clique(4000)` cells (token, identifier, fast) run through the
//! campaign runner without the graph's 122 MiB edge list and adjacency.
//!
//! The process's peak resident set (`VmHWM`) is the measurement, so this
//! file holds exactly one test and its process runs nothing else. With
//! a materialized `K_4000` the test peaks at about 134 MB; without it,
//! at about 10 MB (the binary plus the cells' compiled tables, lazy
//! pair cache and configurations).
#![cfg(target_os = "linux")]

use popele::graph::materialized_cliques;
use popele_lab::sweep::{run_campaign, CampaignOptions, ProtocolSpec, SweepSpec};
use popele_lab::workloads::Family;

/// Ceiling on the test process's peak resident set, in MB: half a
/// materialized `K_4000`, with wide room above the ~10 MB the test
/// needs.
const PEAK_MB_CEILING: f64 = 64.0;

/// Peak resident set size of this process in MB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM is reported");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is a number of kB");
    kb / 1024.0
}

#[test]
fn agent_grid_clique_cells_never_materialize_the_clique() {
    let spec = SweepSpec {
        name: "clique-memory".into(),
        protocols: vec![
            ProtocolSpec::Token,
            ProtocolSpec::Identifier,
            ProtocolSpec::Fast,
        ],
        families: vec![Family::Clique],
        sizes: vec![4_000],
        trials_per_cell: 2,
        shard_trials: 2,
        max_steps: 30_000,
        master_seed: 1,
        threads: 1,
        ..SweepSpec::default()
    };
    let out_dir = std::env::temp_dir().join(format!("popele-clique-memory-{}", std::process::id()));
    let outcome = run_campaign(
        &spec,
        &CampaignOptions {
            out_dir: out_dir.clone(),
            workers: 1,
            ..CampaignOptions::default()
        },
    )
    .expect("the campaign runs");
    std::fs::remove_dir_all(&out_dir).ok();
    assert!(outcome.completed);
    assert_eq!(outcome.ran_shards, 3, "all three clique cells ran");
    let peak = peak_rss_mb();
    assert!(
        peak < PEAK_MB_CEILING,
        "peak RSS {peak:.1} MB reaches the {PEAK_MB_CEILING} MB ceiling: \
         the clique's edge list is back"
    );
    assert_eq!(materialized_cliques(), 0, "a clique built its arrays");
}
