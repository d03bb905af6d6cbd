//! `perfbench` — the campaign benchmark's measuring binary.
//!
//! ```text
//! perfbench run   --workload W --seed S --out DIR [--max-steps N]
//! perfbench trace --workload W --seed S --out DIR
//! perfbench spec  --workload W --seed S --out DIR
//! ```
//!
//! `run` runs the workload's campaign once through
//! `popele_lab::sweep::run_campaign` into a fresh `DIR/<workload>/` and
//! prints one JSON line: its wall time and the trials, timeouts and
//! interactions its checkpoint records. `run.py` starts one process per
//! run, so peak memory and CPU time come from the operating system.
//!
//! `trace` runs the campaign untraced (as the benchmark does, and on two
//! shard workers), replays it traced (see `perfbench::replay`), checks the
//! replay's outputs are byte-identical, runs the per-call probes, writes
//! the spans to `DIR/spans-<workload>.jsonl` and prints the per-layer
//! metrics as one JSON line.
//!
//! `spec` prints the workload's campaign fingerprint and its shard and
//! trial counts as one JSON line; it writes nothing.

use perfbench::probes::{self, median, seconds};
use perfbench::replay::replay;
use perfbench::trace::Tracer;
use perfbench::workloads::{Workload, COUNT_CLIQUE_N};
use perfbench::Metric;
use popele_core::{LooseProtocol, TokenProtocol};
use popele_engine::monte_carlo::EngineSelection;
use popele_engine::stabilize::prepare_stabilize_engine;
use popele_engine::{compile_for_count, CompiledProtocol};
use popele_lab::sweep::{
    checkpoint_path, run_campaign, summary_path, CampaignOptions, Checkpoint, FaultSpec, SweepSpec,
};
use popele_lab::workloads::Family;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    out: PathBuf,
    max_steps: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().ok_or("missing mode: run, trace or spec")?;
    let (mut workload, mut seed, mut out, mut max_steps) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--out" => out = Some(PathBuf::from(value)),
            "--max-steps" => {
                max_steps = Some(value.parse().map_err(|_| format!("bad budget {value}"))?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        out: out.ok_or("--out is required")?,
        max_steps,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.mode.as_str() {
        "run" => run(&args),
        "trace" => trace(&args),
        "spec" => {
            let spec = args.workload.spec(args.seed, args.max_steps);
            println!(
                r#"{{"fingerprint":"{}","shards":{},"trials":{}}}"#,
                spec.fingerprint(),
                spec.shards().len(),
                expected_trials(&spec)
            );
            Ok(())
        }
        other => Err(format!("unknown mode {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Trials, timeouts and interactions recorded in a campaign's
/// checkpoint.
struct Tally {
    trials: u64,
    timeouts: u64,
    /// Σ steps per trial, counting the budget for timed-out trials.
    steps: u64,
}

fn tally(dir: &Path, max_steps: u64) -> io::Result<Tally> {
    let checkpoint = Checkpoint::load(&checkpoint_path(dir))?;
    let mut out = Tally {
        trials: 0,
        timeouts: 0,
        steps: 0,
    };
    for record in checkpoint.shards.values().flatten() {
        out.trials += 1;
        match record.steps {
            Some(steps) => out.steps += steps,
            None => {
                out.timeouts += 1;
                out.steps += max_steps;
            }
        }
    }
    Ok(out)
}

/// CPU time (user + system) this process has used so far, in seconds,
/// from `/proc/self/stat` (clock ticks of 1/100 s).
fn process_cpu_s() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    let malformed = || io::Error::new(io::ErrorKind::InvalidData, "malformed /proc/self/stat");
    // The fields after the parenthesised command name, which may hold
    // spaces; utime and stime are fields 14 and 15 of the line, so 12
    // and 13 of this remainder, which starts at field 3.
    let rest = stat.rsplit_once(')').ok_or_else(malformed)?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(malformed)
    };
    Ok((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// Trials the campaign runs, over all its shards.
fn expected_trials(spec: &SweepSpec) -> usize {
    spec.shards().iter().map(|s| s.trials).sum()
}

/// Runs the campaign into a fresh `out/<name>/`; returns its wall time.
fn campaign(spec: &SweepSpec, options: &CampaignOptions) -> Result<f64, String> {
    let dir = options.out_dir.join(&spec.name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let started = Instant::now();
    let outcome = run_campaign(spec, options).map_err(|e| e.to_string())?;
    let wall = started.elapsed().as_secs_f64();
    if !outcome.completed {
        return Err("campaign stopped before its last shard".into());
    }
    Ok(wall)
}

fn run(args: &Args) -> Result<(), String> {
    let spec = args.workload.spec(args.seed, args.max_steps);
    let wall = campaign(&spec, &Workload::options(&args.out))?;
    let dir = args.out.join(&spec.name);
    let tally = tally(&dir, spec.max_steps).map_err(|e| e.to_string())?;
    println!(
        r#"{{"wall_s":{wall},"trials":{},"timeouts":{},"steps":{},"dir":"{}"}}"#,
        tally.trials,
        tally.timeouts,
        tally.steps,
        dir.display()
    );
    Ok(())
}

fn trace(args: &Args) -> Result<(), String> {
    let spec = args.workload.spec(args.seed, None);
    let io = |e: io::Error| e.to_string();

    // Untraced, as the benchmark runs it: the baseline of the replay.
    let configured = Workload::options(&args.out.join("configured"));
    let serial_wall = campaign(&spec, &configured)?;
    // Untraced on two shard workers: the worker pool's speed-up and how
    // busy it keeps the cores.
    let pooled = CampaignOptions {
        workers: 2,
        ..Workload::options(&args.out.join("pooled"))
    };
    let cpu0 = process_cpu_s().map_err(io)?;
    let pooled_wall = campaign(&spec, &pooled)?;
    let pooled_cpu = process_cpu_s().map_err(io)? - cpu0;

    let replay_root = args.out.join("replay");
    if replay_root.exists() {
        std::fs::remove_dir_all(&replay_root).map_err(io)?;
    }
    let mut tracer = Tracer::new();
    let replayed = replay(&spec, &replay_root, &mut tracer).map_err(io)?;
    let replay_wall = tracer.spans()[0].duration_ns() as f64 * 1e-9;
    let spans_path = args.out.join(format!("spans-{}.jsonl", spec.name));
    std::fs::write(&spans_path, tracer.to_jsonl()).map_err(io)?;

    let reference = configured.out_dir.join(&spec.name);
    let same = |path: fn(&Path) -> PathBuf| -> Result<bool, String> {
        let a = std::fs::read(path(&reference)).map_err(io)?;
        let b = std::fs::read(path(&replayed.dir)).map_err(io)?;
        Ok(a == b)
    };
    let checkpoint_identical = same(checkpoint_path)?;
    let summary_identical = same(summary_path)?;

    let layers = tracer.self_times();
    let root_self = layers["replay"].self_s;
    let span = |name: &str| layers.get(name).copied();
    let mut metrics: Vec<Metric> = Vec::new();
    let mut home: Vec<&str> = Vec::new();
    // A layer the workload's replay never entered is timed once on its
    // home input instead (see README.md), so every traced run reports
    // every metric.
    let mut or_home = |name: &'static str, value: Option<f64>, fallback: &dyn Fn() -> f64| {
        value.unwrap_or_else(|| {
            home.push(name);
            fallback()
        })
    };
    let home_graph = || Family::Torus.generate(4_000, spec.graph_seed(Family::Torus, 4_000));
    let token = TokenProtocol::all_candidates();

    let generate = or_home(
        "graph.generate_s",
        span("graph.generate").map(|l| l.self_s),
        &|| seconds(home_graph),
    );
    metrics.push(("graph.generate_s".into(), generate, "s"));
    let graph_bytes = if replayed.graph_bytes > 0 {
        replayed.graph_bytes as f64
    } else {
        let g = home_graph();
        or_home("graph.edge_mb", None, &|| {
            16.0 * g.num_edges() as f64 + 4.0 * (f64::from(g.num_nodes()) + 1.0)
        })
    };
    metrics.push(("graph.edge_mb".into(), graph_bytes / 1e6, "MB"));
    let select = or_home(
        "monte_carlo.select_s",
        span("monte_carlo.select").map(|l| l.self_s),
        &|| seconds(|| EngineSelection::prepare(&token, 4_000)),
    );
    metrics.push(("monte_carlo.select_s".into(), select, "s"));
    let stab = or_home(
        "stabilize.prepare_s",
        span("stabilize.prepare").map(|l| l.self_s),
        &|| seconds(|| prepare_stabilize_engine(&LooseProtocol::practical(256), 256)),
    );
    metrics.push(("stabilize.prepare_s".into(), stab, "s"));
    let count_compile = or_home(
        "count.compile_s",
        span("count.compile").map(|l| l.self_s),
        &|| seconds(|| compile_for_count(&token, u64::from(COUNT_CLIQUE_N))),
    );
    metrics.push(("count.compile_s".into(), count_compile, "s"));
    let compiles = (!replayed.compile_probes.is_empty())
        .then(|| replayed.compile_probes.iter().map(|p| p()).sum::<f64>());
    let table_compile = or_home("table.compile_s", compiles, &|| {
        seconds(|| CompiledProtocol::compile_default(&token, 4_000))
    });
    metrics.push(("table.compile_s".into(), table_compile, "s"));
    let resolves = (!replayed.resolve_probes.is_empty()).then(|| {
        let per_cell: Vec<f64> = replayed
            .resolve_probes
            .iter()
            .map(|p| median((0..5).map(|_| p()).collect()))
            .collect();
        per_cell.iter().sum::<f64>() / per_cell.len() as f64
    });
    let resolve = or_home("faults.resolve_us", resolves, &|| {
        let g = Family::Torus.generate(256, 1);
        let plan = FaultSpec::Corrupt.plan(g.num_nodes());
        median((0..5).map(|i| seconds(|| plan.resolve(&g, i))).collect())
    });
    metrics.push(("faults.resolve_us".into(), resolve * 1e6, "us"));

    let per_call = |name: &str, scale: f64| {
        let l = span(name).expect("every replay appends, saves and renders");
        l.self_s / l.calls as f64 * scale
    };
    metrics.push((
        "journal.append_us".into(),
        per_call("journal.append", 1e6),
        "us",
    ));
    metrics.push((
        "checkpoint.save_ms".into(),
        per_call("checkpoint.save", 1e3),
        "ms",
    ));
    metrics.push((
        "checkpoint.saves".into(),
        span("checkpoint.save").map_or(0.0, |l| l.calls as f64),
        "count",
    ));
    metrics.push((
        "summary.render_ms".into(),
        per_call("summary.render", 1e3),
        "ms",
    ));
    metrics.push((
        "runner.cpu_per_wall".into(),
        pooled_cpu / pooled_wall,
        "ratio",
    ));
    metrics.push((
        "runner.pool_speedup".into(),
        serial_wall / pooled_wall,
        "ratio",
    ));
    metrics.push(("runner.residue_s".into(), serial_wall - replay_wall, "s"));
    metrics.push((
        "trace.overhead_frac".into(),
        replay_wall / serial_wall - 1.0,
        "ratio",
    ));
    metrics.push((
        "trace.unexplained_frac".into(),
        root_self / replay_wall,
        "ratio",
    ));

    metrics.extend(probes::run_all(args.seed));

    let mut json = String::from("{\"metrics\":{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(json, r#"{sep}"{name}":{{"value":{value},"unit":"{unit}"}}"#).expect("String");
    }
    json.push_str("},\"layers\":{");
    for (i, (name, l)) in layers.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            json,
            r#"{sep}"{name}":{{"self_s":{},"calls":{}}}"#,
            l.self_s, l.calls
        )
        .expect("String");
    }
    json.push_str("},\"trial_s\":{");
    for (i, (engine, s)) in replayed.trial_s.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(json, r#"{sep}"{engine}":{s}"#).expect("String");
    }
    let home_list: Vec<String> = home.iter().map(|h| format!("\"{h}\"")).collect();
    write!(
        json,
        r#"}},"trials":{},"home_probed":[{}],"checkpoint_identical":{checkpoint_identical},"summary_identical":{summary_identical},"pooled_wall_s":{pooled_wall},"serial_wall_s":{serial_wall},"replay_wall_s":{replay_wall},"spans":"{}"}}"#,
        expected_trials(&spec),
        home_list.join(","),
        spans_path.display()
    )
    .expect("String");
    println!("{json}");
    Ok(())
}
