//! The traced replay: a campaign's shards run serially through the
//! public functions of each layer, with a span around every call.
//!
//! The pipeline mirrors `popele_lab::sweep::run_campaign` step by step —
//! graph generation once per (family, size), one prepared engine per
//! cell, the prepared trial entry points per shard, a journal append per
//! shard with the runner's compaction rule, and the summary — so its
//! `checkpoint.json` and `summary.json` must be byte-identical to the
//! campaign's. That identity is what shows the spans timed the same work.

use crate::trace::Tracer;
use popele_core::params::{identifier_bits, FastParams};
use popele_core::{
    FastProtocol, IdentifierProtocol, LooseProtocol, MajorityProtocol, RingLooseProtocol,
    SpaceOptimalProtocol, StarProtocol, TimeOptimalRingProtocol, TokenProtocol,
};
use popele_engine::faults::FaultPlan;
use popele_engine::monte_carlo::{
    run_trials_auto_with_faults_prepared, run_trials_count_prepared, Engine, EngineSelection,
    TrialOptions, TrialResult,
};
use popele_engine::stabilize::{
    prepare_stabilize_engine, run_trials_stabilize_auto_prepared, ArbitraryInit,
};
use popele_engine::{compile_for_count, CompiledProtocol, Protocol};
use popele_graph::Graph;
use popele_lab::sweep::{
    checkpoint_path, journal_path, summary, summary_path, CellMeta, CellSpec, Checkpoint, Journal,
    JournalEntry, ProtocolSpec, SweepSpec,
};
use popele_lab::workloads::{broadcast_guess, majority_split};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A deferred timing of one layer call on a cell the replay prepared,
/// run after the replay so it stays outside the traced wall time.
pub type Probe = Box<dyn Fn() -> f64>;

/// What a replay did, beyond the spans it left in the tracer.
pub struct Replay {
    /// Campaign directory holding the replay's outputs.
    pub dir: PathBuf,
    /// Bytes the generated graphs hold, computed from their sizes: the
    /// sorted edge list and the CSR adjacency (16 bytes per edge) plus
    /// the CSR offsets (4 bytes per node).
    pub graph_bytes: u64,
    /// Trial time per engine label, in seconds.
    pub trial_s: BTreeMap<&'static str, f64>,
    /// One AOT compile per fixed-start cell that selected the dense
    /// tier (`CompiledProtocol::compile_default` at the cell's node
    /// count); each returns its seconds.
    pub compile_probes: Vec<Probe>,
    /// One `FaultPlan::resolve` per faulted cell; each returns its
    /// seconds.
    pub resolve_probes: Vec<Probe>,
}

/// The runner's compaction rule: fold the journal into `checkpoint.json`
/// once it holds at least 32 entries and a quarter of the checkpoint.
fn compaction_due(journal_entries: usize, checkpoint_shards: usize) -> bool {
    journal_entries >= 32usize.max(checkpoint_shards / 4)
}

/// Replays `spec` into `out_dir/<spec.name>/` (which must not hold an
/// earlier campaign), recording spans into `tr`. The whole replay is
/// one root span named `replay`.
///
/// # Errors
///
/// Propagates I/O errors from the journal, checkpoint and summary.
pub fn replay(spec: &SweepSpec, out_dir: &Path, tr: &mut Tracer) -> io::Result<Replay> {
    let dir = out_dir.join(&spec.name);
    std::fs::create_dir_all(&dir)?;
    let ckpt_path = checkpoint_path(&dir);
    let mut out = Replay {
        dir: dir.clone(),
        graph_bytes: 0,
        trial_s: BTreeMap::new(),
        compile_probes: Vec::new(),
        resolve_probes: Vec::new(),
    };

    let root = tr.begin("replay");
    let fingerprint = spec.fingerprint();
    let mut checkpoint = Checkpoint::new(spec);
    let (mut journal, _) = tr.span("journal.open", || {
        Journal::open(&journal_path(&dir), &fingerprint)
    })?;
    let mut graph: Option<(String, Arc<Graph>)> = None;
    let mut cell: Option<(String, Box<dyn ReplayCell>)> = None;
    for shard in spec.shards() {
        let (family, size) = (shard.cell.family, shard.cell.size);
        let shard_graph = if spec.cell_is_count(&shard.cell) {
            None
        } else {
            let key = format!("{}/{size}", family.label());
            if graph.as_ref().map(|(k, _)| k) != Some(&key) {
                // Evict before building, as the runner's cache does.
                drop(graph.take());
                let built = tr.span("graph.generate", || {
                    family.generate(size, spec.graph_seed(family, size))
                });
                out.graph_bytes +=
                    16 * built.num_edges() as u64 + 4 * (u64::from(built.num_nodes()) + 1);
                graph = Some((key, Arc::new(built)));
            }
            graph.as_ref().map(|(_, g)| Arc::clone(g))
        };
        let cell_key = shard.cell.key();
        if cell.as_ref().map(|(k, _)| k) != Some(&cell_key) {
            drop(cell.take());
            let prepared = prepare_cell(tr, spec, &shard.cell, shard_graph.as_ref(), &mut out);
            cell = Some((cell_key.clone(), prepared));
        }
        let runner = &cell.as_ref().expect("prepared above").1;
        let options = TrialOptions {
            trials: shard.trials,
            first_trial: shard.first_trial,
            max_steps: spec.max_steps,
            census: false,
            lanes: false,
            threads: spec.threads,
        };
        let meta = match shard_graph.as_deref() {
            Some(g) => CellMeta {
                n: g.num_nodes(),
                m: g.num_edges() as u64,
            },
            None => CellMeta {
                n: size,
                m: u64::from(size) * (u64::from(size) - 1) / 2,
            },
        };
        let started = Instant::now();
        let results = runner.run(
            tr,
            shard_graph.as_deref(),
            spec.cell_seed(&shard.cell),
            options,
        );
        *out.trial_s.entry(runner.engine().label()).or_default() += started.elapsed().as_secs_f64();
        let entry = JournalEntry {
            shard_key: shard.key(),
            cell_key,
            meta,
            records: results.iter().map(Into::into).collect(),
        };
        tr.span("checkpoint.apply", || checkpoint.apply_entry(&entry));
        tr.span("journal.append", || journal.append(&entry))?;
        if compaction_due(journal.len(), checkpoint.shards.len()) {
            tr.span("checkpoint.save", || checkpoint.save(&ckpt_path))?;
            tr.span("journal.clear", || journal.clear(&fingerprint))?;
        }
    }
    drop((graph, cell));
    tr.span("checkpoint.save", || checkpoint.save(&ckpt_path))?;
    tr.span("journal.clear", || journal.remove())?;
    tr.span("summary.render", || -> io::Result<()> {
        let tables = summary::tables(spec, &checkpoint);
        std::fs::write(summary_path(&dir), summary::render(spec, &checkpoint))?;
        for table in &tables {
            table.write_csv(&dir)?;
        }
        Ok(())
    })?;
    tr.end(root);
    Ok(out)
}

/// A prepared cell of the replay (the runner keeps its own private
/// counterpart; this one threads the tracer through).
trait ReplayCell {
    fn engine(&self) -> Engine;
    fn run(
        &self,
        tr: &mut Tracer,
        graph: Option<&Graph>,
        seed: u64,
        options: TrialOptions,
    ) -> Vec<TrialResult>;
}

struct FixedCell<P: Protocol + Clone> {
    protocol: P,
    plan: FaultPlan,
    selection: EngineSelection<P>,
}

impl<P: Protocol + Clone> ReplayCell for FixedCell<P> {
    fn engine(&self) -> Engine {
        self.selection.engine()
    }

    fn run(
        &self,
        tr: &mut Tracer,
        graph: Option<&Graph>,
        seed: u64,
        options: TrialOptions,
    ) -> Vec<TrialResult> {
        let graph = graph.expect("fixed-start cells run on a graph");
        tr.span("monte_carlo.trials", || {
            run_trials_auto_with_faults_prepared(
                graph,
                &self.protocol,
                &self.selection,
                seed,
                options,
                &self.plan,
            )
        })
    }
}

struct StabCell<P: ArbitraryInit + Clone> {
    protocol: P,
    plan: FaultPlan,
    selection: EngineSelection<P>,
}

impl<P: ArbitraryInit + Clone> ReplayCell for StabCell<P> {
    fn engine(&self) -> Engine {
        self.selection.engine()
    }

    fn run(
        &self,
        tr: &mut Tracer,
        graph: Option<&Graph>,
        seed: u64,
        options: TrialOptions,
    ) -> Vec<TrialResult> {
        let graph = graph.expect("stabilizing cells run on a graph");
        tr.span("stabilize.trials", || {
            run_trials_stabilize_auto_prepared(
                graph,
                &self.protocol,
                &self.selection,
                seed,
                options,
                &self.plan,
            )
        })
    }
}

struct CountCell<P: Protocol + Clone> {
    compiled: CompiledProtocol<P>,
    num_agents: u64,
}

impl<P: Protocol + Clone> ReplayCell for CountCell<P> {
    fn engine(&self) -> Engine {
        Engine::Count
    }

    fn run(
        &self,
        tr: &mut Tracer,
        _graph: Option<&Graph>,
        seed: u64,
        options: TrialOptions,
    ) -> Vec<TrialResult> {
        tr.span("count.trials", || {
            run_trials_count_prepared(&self.compiled, self.num_agents, seed, options)
        })
    }
}

/// Times `FaultPlan::resolve` on the cell's graph, if the plan has
/// events.
fn push_resolve_probe(out: &mut Replay, plan: &FaultPlan, graph: &Arc<Graph>, seed: u64) {
    if plan.is_empty() {
        return;
    }
    let (plan, graph) = (plan.clone(), Arc::clone(graph));
    out.resolve_probes.push(Box::new(move || {
        let started = Instant::now();
        black_box(plan.resolve(&graph, seed));
        started.elapsed().as_secs_f64()
    }));
}

fn fixed<P: Protocol + Clone + Send + 'static>(
    tr: &mut Tracer,
    out: &mut Replay,
    protocol: P,
    plan: FaultPlan,
    graph: &Arc<Graph>,
    seed: u64,
) -> Box<dyn ReplayCell> {
    let max_nodes = graph.num_nodes() + plan.max_joins();
    let selection = tr.span("monte_carlo.select", || {
        EngineSelection::prepare(&protocol, max_nodes)
    });
    if selection.engine() == Engine::Dense {
        let protocol = protocol.clone();
        out.compile_probes.push(Box::new(move || {
            let started = Instant::now();
            black_box(CompiledProtocol::compile_default(&protocol, max_nodes).ok());
            started.elapsed().as_secs_f64()
        }));
    }
    push_resolve_probe(out, &plan, graph, seed);
    Box::new(FixedCell {
        protocol,
        plan,
        selection,
    })
}

fn stabilizing<P: ArbitraryInit + Clone + Send + 'static>(
    tr: &mut Tracer,
    out: &mut Replay,
    protocol: P,
    plan: FaultPlan,
    graph: &Arc<Graph>,
    seed: u64,
) -> Box<dyn ReplayCell> {
    let max_nodes = graph.num_nodes() + plan.max_joins();
    let selection = tr.span("stabilize.prepare", || {
        prepare_stabilize_engine(&protocol, max_nodes)
    });
    push_resolve_probe(out, &plan, graph, seed);
    Box::new(StabCell {
        protocol,
        plan,
        selection,
    })
}

fn counted<P: Protocol + Clone + Send + 'static>(
    tr: &mut Tracer,
    protocol: P,
    num_agents: u64,
) -> Box<dyn ReplayCell> {
    let compiled = tr
        .span("count.compile", || compile_for_count(&protocol, num_agents))
        .expect("count cells compile within the count-engine cap");
    Box::new(CountCell {
        compiled,
        num_agents,
    })
}

/// Instantiates a cell exactly as the sweep runner does: protocol
/// parameters derived from the concrete graph (or, for count cells,
/// from the clique size), the fault profile's plan, and one engine
/// preparation at the plan's maximum node count.
fn prepare_cell(
    tr: &mut Tracer,
    spec: &SweepSpec,
    cell: &CellSpec,
    graph: Option<&Arc<Graph>>,
    out: &mut Replay,
) -> Box<dyn ReplayCell> {
    if spec.cell_is_count(cell) {
        let n = cell.size;
        let agents = u64::from(n);
        return match cell.protocol {
            ProtocolSpec::Token => counted(tr, TokenProtocol::all_candidates(), agents),
            ProtocolSpec::Fast => {
                counted(tr, FastProtocol::new(FastParams::clique_tuned(n)), agents)
            }
            ProtocolSpec::Majority => {
                counted(tr, MajorityProtocol::new(majority_split(n), n), agents)
            }
            ProtocolSpec::SpaceOpt => counted(tr, SpaceOptimalProtocol::practical(n), agents),
            other => unreachable!("{other} is not count-capable"),
        };
    }
    let graph = graph.expect("non-count cells carry a graph");
    let n = graph.num_nodes();
    let seed = spec.cell_seed(cell);
    let plan = tr.span("cell.params", || cell.fault.plan(n));
    match cell.protocol {
        ProtocolSpec::Token => fixed(tr, out, TokenProtocol::all_candidates(), plan, graph, seed),
        ProtocolSpec::Identifier => {
            let protocol = tr.span("cell.params", || {
                IdentifierProtocol::new(identifier_bits(n, false))
            });
            fixed(tr, out, protocol, plan, graph, seed)
        }
        ProtocolSpec::Fast => {
            let protocol = tr.span("cell.params", || {
                FastProtocol::new(FastParams::practical(
                    broadcast_guess(graph),
                    graph.max_degree(),
                    graph.num_edges(),
                    n,
                ))
            });
            fixed(tr, out, protocol, plan, graph, seed)
        }
        ProtocolSpec::Star => fixed(tr, out, StarProtocol::new(), plan, graph, seed),
        ProtocolSpec::Majority => {
            let protocol = MajorityProtocol::new(majority_split(n), n);
            fixed(tr, out, protocol, plan, graph, seed)
        }
        ProtocolSpec::SpaceOpt => fixed(
            tr,
            out,
            SpaceOptimalProtocol::practical(n),
            plan,
            graph,
            seed,
        ),
        ProtocolSpec::Loose => stabilizing(tr, out, LooseProtocol::practical(n), plan, graph, seed),
        ProtocolSpec::RingLoose => {
            stabilizing(tr, out, RingLooseProtocol::for_ring(n), plan, graph, seed)
        }
        ProtocolSpec::RingTimeOpt => stabilizing(
            tr,
            out,
            TimeOptimalRingProtocol::for_ring(n),
            plan,
            graph,
            seed,
        ),
    }
}
