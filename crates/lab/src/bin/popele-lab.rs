//! Experiment CLI: regenerates the paper's tables and runs sweep
//! campaigns.
//!
//! ```text
//! popele-lab [EXPERIMENT ...] [--quick|--full] [--seed N] [--threads N] [--out DIR]
//! popele-lab sweep [--quick|--full] [--name NAME] [--protocols P,..] [--families F,..]
//!                  [--sizes N,..] [--faults F,..] [--trials N] [--shard N] [--max-steps N]
//!                  [--max-edges N] [--seed N] [--threads N] [--workers N] [--out DIR]
//!                  [--max-shards N] [--fresh]
//! ```
//!
//! The experiment, protocol, family and fault-profile vocabularies are
//! **not** repeated here: `--help` derives every list from the live
//! registries (`ExperimentId::ALL`, `ProtocolSpec::ALL`, `Family::ALL`,
//! `FaultSpec::ALL`), so an entry added to a registry appears in the
//! usage text automatically — this doc cannot go stale the way a
//! hand-maintained enumeration does.
//!
//! Tables are printed to stdout and written as CSV under `--out`
//! (default `results/`); sweep campaigns additionally write a resumable
//! `checkpoint.json` and a `summary.json` under `--out/NAME/`.

use popele_lab::sweep::{run_campaign, CampaignOptions, FaultSpec, ProtocolSpec, SweepSpec};
use popele_lab::workloads::Family;
use popele_lab::{ExperimentId, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: popele-lab [EXPERIMENT ...] [--quick|--full] [--seed N] [--threads N] [--out DIR]\n\
         \x20      popele-lab sweep [--quick|--full] [--name NAME] [--protocols P,..]\n\
         \x20                       [--families F,..] [--sizes N,..] [--faults F,..] [--trials N]\n\
         \x20                       [--shard N] [--max-steps N] [--max-edges N] [--seed N]\n\
         \x20                       [--threads N] [--workers N] [--out DIR] [--max-shards N]\n\
         \x20                       [--fresh]\n\
         experiments: all {}\n\
         sweep protocols: {}\n\
         sweep families: {}\n\
         sweep faults: {}",
        ExperimentId::ALL
            .iter()
            .map(|e| e.name())
            .collect::<Vec<_>>()
            .join(" "),
        ProtocolSpec::ALL
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join(" "),
        Family::ALL
            .iter()
            .map(|f| f.label())
            .collect::<Vec<_>>()
            .join(" "),
        FaultSpec::ALL
            .iter()
            .map(|f| f.label())
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2)
}

/// Parses a comma-separated list through `parse_one`, exiting with
/// usage on any bad element.
fn parse_list<T>(raw: &str, parse_one: impl Fn(&str) -> Option<T>) -> Vec<T> {
    let items: Option<Vec<T>> = raw.split(',').map(|s| parse_one(s.trim())).collect();
    match items {
        Some(items) if !items.is_empty() => items,
        _ => {
            eprintln!("could not parse list: {raw}");
            usage()
        }
    }
}

/// Parses one population size for `--sizes`.
///
/// Count-engine grids reach `10⁷–10⁹`, where plain digit strings are
/// unreadable, so two spellings are accepted besides bare decimals:
/// underscore separators (`10_000_000`) and scientific notation (`1e7`,
/// `2.5e8`). A size must be an integer, at least 4 (the smallest
/// population the graph families generate) and at most `u32::MAX` (node
/// ids are 32-bit); anything else is a descriptive error, not a panic —
/// billion-agent grids are typed by hand.
fn parse_size(raw: &str) -> Result<u32, String> {
    const MAX: u64 = u32::MAX as u64;
    let digits: String = raw.chars().filter(|&c| c != '_').collect();
    let value = if digits.contains(['e', 'E']) {
        let f: f64 = digits
            .parse()
            .map_err(|_| format!("size {raw:?} is not a number"))?;
        if !(f.is_finite() && f.fract() == 0.0) {
            return Err(format!("size {raw:?} is not an integer"));
        }
        if f < 0.0 || f > MAX as f64 {
            return Err(format!(
                "size {raw:?} exceeds the 32-bit node-id limit ({MAX})"
            ));
        }
        f as u64
    } else {
        digits
            .parse::<u64>()
            .map_err(|_| format!("size {raw:?} is not a number"))?
    };
    if value > MAX {
        return Err(format!(
            "size {raw:?} exceeds the 32-bit node-id limit ({MAX})"
        ));
    }
    if value < 4 {
        return Err(format!("size {raw:?} is below the minimum population 4"));
    }
    Ok(value as u32)
}

/// Runs `popele-lab sweep ...`.
fn sweep_main(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut spec = SweepSpec::default();
    let mut options = CampaignOptions {
        progress: true,
        ..CampaignOptions::default()
    };
    let mut fresh = false;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--quick" => {}
            "--full" => {
                // Full mode: the paper-scale preset — more trials and a
                // budget that lets the quasilinear protocols finish at
                // the largest sizes (the slow pairs still time out; that
                // is the result).
                spec.trials_per_cell = 8;
                spec.shard_trials = 2;
                spec.max_steps = 400_000_000;
            }
            "--name" => spec.name = value("--name"),
            "--protocols" => {
                spec.protocols = parse_list(&value("--protocols"), ProtocolSpec::parse);
            }
            "--families" => spec.families = parse_list(&value("--families"), Family::parse),
            "--faults" => spec.faults = parse_list(&value("--faults"), FaultSpec::parse),
            "--sizes" => {
                let raw = value("--sizes");
                spec.sizes = parse_list(&raw, |s| match parse_size(s) {
                    Ok(n) => Some(n),
                    Err(e) => {
                        eprintln!("--sizes: {e}");
                        None
                    }
                });
            }
            "--trials" => {
                spec.trials_per_cell = value("--trials").parse().unwrap_or_else(|_| usage())
            }
            "--shard" => spec.shard_trials = value("--shard").parse().unwrap_or_else(|_| usage()),
            "--max-steps" => {
                spec.max_steps = value("--max-steps").parse().unwrap_or_else(|_| usage())
            }
            "--max-edges" => {
                spec.max_edges = value("--max-edges").parse().unwrap_or_else(|_| usage())
            }
            "--seed" => spec.master_seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--threads" => spec.threads = value("--threads").parse().unwrap_or_else(|_| usage()),
            // Concurrent shard workers (0 = one per core). Outputs are
            // byte-identical for every worker count; see
            // `CampaignOptions::workers`.
            "--workers" => options.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--out" => options.out_dir = PathBuf::from(value("--out")),
            "--max-shards" => {
                options.interrupt_after =
                    Some(value("--max-shards").parse().unwrap_or_else(|_| usage()));
            }
            "--fresh" => fresh = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown sweep flag: {other}");
                usage()
            }
        }
    }

    if !SweepSpec::valid_name(&spec.name) {
        eprintln!(
            "invalid campaign name {:?}: must be non-empty and free of path separators",
            spec.name
        );
        usage()
    }
    if fresh {
        std::fs::remove_dir_all(options.out_dir.join(&spec.name)).ok();
    }
    println!(
        "# popele-lab sweep — campaign: {}, grid: {} protocols × {} families × {} sizes × \
         {} fault profiles, {} trials/cell (shards of {}), budget {} steps/trial, seed {}",
        spec.name,
        spec.protocols.len(),
        spec.families.len(),
        spec.sizes.len(),
        spec.faults.len(),
        spec.trials_per_cell,
        spec.shard_trials.max(1),
        spec.max_steps,
        spec.master_seed
    );
    let started = std::time::Instant::now();
    match run_campaign(&spec, &options) {
        Ok(outcome) => {
            for table in &outcome.tables {
                println!("\n{}", table.render());
            }
            if outcome.completed {
                println!(
                    "# campaign complete in {:.1?}: {} shards run, {} resumed; outputs in {}",
                    started.elapsed(),
                    outcome.ran_shards,
                    outcome.resumed_shards,
                    outcome.dir.display()
                );
            } else {
                // A paused run prints no summary tables, so skipped
                // cells — recorded with reasons in the summary on
                // completion — would otherwise stay invisible across
                // every resume. Echo them here.
                let skipped: Vec<_> = spec
                    .cells()
                    .into_iter()
                    .filter_map(|c| spec.cell_skip_reason(&c).map(|r| (c, r)))
                    .collect();
                if !skipped.is_empty() {
                    println!("# {} cells are skipped:", skipped.len());
                    for (cell, reason) in skipped {
                        println!("#   {}: {}", cell.key(), reason);
                    }
                }
                println!(
                    "# campaign paused after {} shards ({} resumed) in {:.1?}; rerun the same \
                     command to continue from {}",
                    outcome.ran_shards,
                    outcome.resumed_shards,
                    started.elapsed(),
                    outcome.dir.join("checkpoint.json").display()
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sweep failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut cfg = RunConfig::default();
    let mut out_dir = PathBuf::from("results");
    let mut selected: Vec<ExperimentId> = Vec::new();

    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("sweep") {
        return sweep_main(argv.into_iter().skip(1));
    }
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--full" => cfg.quick = false,
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.master_seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--threads" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.threads = v.parse().unwrap_or_else(|_| usage());
            }
            "--out" => {
                out_dir = PathBuf::from(args.next().unwrap_or_else(|| usage()));
            }
            "--help" | "-h" => usage(),
            "all" => selected.extend(ExperimentId::ALL),
            name => match ExperimentId::parse(name) {
                Some(id) => selected.push(id),
                None => {
                    eprintln!("unknown experiment: {name}");
                    usage()
                }
            },
        }
    }
    if selected.is_empty() {
        selected.extend(ExperimentId::ALL);
    }
    selected.dedup();

    println!(
        "# popele-lab — mode: {}, seed: {}, experiments: {}",
        if cfg.quick { "quick" } else { "full" },
        cfg.master_seed,
        selected
            .iter()
            .map(|e| e.name())
            .collect::<Vec<_>>()
            .join(", ")
    );

    for id in selected {
        println!("\n################ {id} ################");
        let started = std::time::Instant::now();
        let tables = id.run(&cfg);
        for table in &tables {
            println!("\n{}", table.render());
            match table.write_csv(&out_dir) {
                Ok(path) => println!("   [csv] {}", path.display()),
                Err(e) => eprintln!("   [csv] write failed: {e}"),
            }
        }
        println!("# {id} finished in {:.1?}", started.elapsed());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse_size;

    #[test]
    fn plain_and_separated_decimals() {
        assert_eq!(parse_size("4"), Ok(4));
        assert_eq!(parse_size("80000"), Ok(80_000));
        assert_eq!(parse_size("10_000_000"), Ok(10_000_000));
        assert_eq!(parse_size("1_000_000_000"), Ok(1_000_000_000));
    }

    #[test]
    fn scientific_notation() {
        assert_eq!(parse_size("1e7"), Ok(10_000_000));
        assert_eq!(parse_size("1E9"), Ok(1_000_000_000));
        assert_eq!(parse_size("2.5e8"), Ok(250_000_000));
        assert_eq!(parse_size("4e0"), Ok(4));
    }

    #[test]
    fn overflow_is_a_clear_error_not_a_panic() {
        for raw in ["1e10", "50e9", "5_000_000_000", "18446744073709551616"] {
            let err = parse_size(raw).expect_err(raw);
            assert!(
                err.contains("32-bit") || err.contains("not a number"),
                "unhelpful error for {raw:?}: {err}"
            );
        }
    }

    #[test]
    fn non_integers_and_garbage_are_rejected() {
        assert!(parse_size("1.5e0").unwrap_err().contains("not an integer"));
        assert!(parse_size("nan").unwrap_err().contains("not a number"));
        assert!(parse_size("inf").unwrap_err().contains("not a number"));
        assert!(parse_size("").unwrap_err().contains("not a number"));
        assert!(parse_size("-8").unwrap_err().contains("not a number"));
    }

    #[test]
    fn tiny_populations_are_rejected() {
        assert!(parse_size("3").unwrap_err().contains("minimum population"));
        assert!(parse_size("0e5")
            .unwrap_err()
            .contains("minimum population"));
    }
}
