//! Campaign execution: a work-stealing shard scheduler over prepared
//! per-cell artifacts, with journaled checkpoints.
//!
//! The runner stays deliberately boring about *results*: enumerate the
//! spec's shards in their deterministic order, skip the ones the
//! checkpoint already holds, run the rest (each through the prepared,
//! fault-aware Monte-Carlo entry points with a globally-indexed
//! `first_trial`). All the reproducibility guarantees live below (seed
//! derivation in the spec, trace-identical engines, canonical
//! serialization); the runner never reorders or re-derives anything
//! that could affect a trial. What *is* engineered here is throughput:
//!
//! * **Work-stealing shard execution** — [`CampaignOptions::workers`]
//!   worker threads claim shards from the deterministic shard list via
//!   an atomic cursor. Results land in [`Checkpoint`]'s sorted maps, so
//!   `checkpoint.json` and `summary.json` are byte-identical to the
//!   serial run no matter which worker finishes which shard when.
//! * **A cross-shard artifact cache** (`ArtifactCache`, private to this
//!   module) — graphs and
//!   per-cell prepared engines (compiled tables, engine-selection
//!   verdicts, resolved fault plans, derived protocol parameters) are
//!   built once per (family, size) or cell, shared across workers
//!   behind `Arc`s, and evicted as soon as their last pending shard
//!   completes.
//! * **Journaled checkpointing** — completing a shard appends one line
//!   to `checkpoint.log` (O(shard)) instead of rewriting the whole
//!   `checkpoint.json` (O(campaign)); the journal is periodically
//!   compacted into the canonical checkpoint, always compacted before
//!   returning, and replayed on load, so resume stays byte-exact even
//!   after a kill mid-campaign (see [`super::checkpoint::Journal`]).

use super::checkpoint::{CellMeta, Checkpoint, Journal, JournalEntry};
use super::spec::{CellSpec, ProtocolSpec, ShardSpec, SweepSpec};
use super::summary;
use crate::report::Table;
use crate::workloads::{broadcast_guess, Family};
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
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Execution options orthogonal to the grid itself.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Directory under which `<spec.name>/` is created.
    pub out_dir: PathBuf,
    /// Stop after this many *newly run* shards (checkpoint hits do not
    /// count), leaving a resumable checkpoint behind. `None` runs to
    /// completion. This is how the CLI's `--max-shards` budgets a long
    /// campaign across invocations — and how the resume tests simulate
    /// a kill.
    pub interrupt_after: Option<usize>,
    /// Print per-shard progress (with the selected engine) to stderr,
    /// and each shard's wall time once it has run.
    pub progress: bool,
    /// Concurrent shard workers; `1` (the default) runs shards
    /// serially, `0` uses one worker per available core. Workers steal
    /// shards from the deterministic shard list and merge results into
    /// the checkpoint's sorted maps, so outputs are byte-identical for
    /// every worker count — only wall-clock time changes. Composes
    /// with [`SweepSpec::threads`] (intra-shard trial parallelism);
    /// campaigns of many small shards want workers, campaigns of few
    /// huge cells want threads.
    pub workers: usize,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self {
            out_dir: PathBuf::from("results"),
            interrupt_after: None,
            progress: false,
            workers: 1,
        }
    }
}

/// What a [`run_campaign`] call did.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Whether every shard of the grid is now complete (outputs were
    /// written) or the run stopped at `interrupt_after`.
    pub completed: bool,
    /// Shards executed by this call.
    pub ran_shards: usize,
    /// Shards already present in the checkpoint (resumed work,
    /// including shards replayed from the journal).
    pub resumed_shards: usize,
    /// Campaign directory (`out_dir/<name>`).
    pub dir: PathBuf,
    /// Rendered summary tables (empty unless completed).
    pub tables: Vec<Table>,
}

/// Path of a campaign's checkpoint file.
#[must_use]
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint.json")
}

/// Path of a campaign's shard journal (see
/// [`super::checkpoint::Journal`]).
#[must_use]
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint.log")
}

/// Path of a campaign's summary JSON.
#[must_use]
pub fn summary_path(dir: &Path) -> PathBuf {
    dir.join("summary.json")
}

/// Journal length below which compaction is never worth a full
/// checkpoint rewrite.
const COMPACT_MIN_ENTRIES: usize = 32;

/// Whether the journal has grown enough (relative to the campaign) to
/// fold into the canonical checkpoint. The `shards / 4` term keeps the
/// *amortized* per-shard save cost flat in campaign size: each O(n)
/// rewrite is paid for by the Ω(n/4) appended shards that triggered it.
fn compaction_due(journal_entries: usize, checkpoint_shards: usize) -> bool {
    journal_entries >= COMPACT_MIN_ENTRIES.max(checkpoint_shards / 4)
}

fn resolve_workers(requested: usize, shards: usize) -> usize {
    let workers = if requested == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        requested
    };
    workers.min(shards.max(1))
}

/// Runs (or resumes) a campaign.
///
/// If a checkpoint with the spec's fingerprint exists under the
/// campaign directory its shards are reused (journaled shards a
/// previous run had not yet compacted are replayed first); a checkpoint
/// from a *different* grid is an error (use a different campaign name,
/// or delete the directory). On completion, `summary.json` plus
/// per-table CSVs are written next to the checkpoint and the summary
/// tables are returned.
///
/// For a fixed spec the bytes of `checkpoint.json` and `summary.json`
/// are identical regardless of worker count, thread count, shard
/// completion order, and of how often the run was interrupted and
/// resumed.
///
/// # Errors
///
/// Propagates I/O errors; an incompatible existing checkpoint (or
/// journal) or an invalid campaign name (see [`SweepSpec::valid_name`])
/// surfaces as [`io::ErrorKind::InvalidInput`] /
/// [`io::ErrorKind::InvalidData`].
pub fn run_campaign(spec: &SweepSpec, options: &CampaignOptions) -> io::Result<CampaignOutcome> {
    if !SweepSpec::valid_name(&spec.name) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid campaign name {:?}", spec.name),
        ));
    }
    let dir = options.out_dir.join(&spec.name);
    std::fs::create_dir_all(&dir)?;
    let ckpt_path = checkpoint_path(&dir);

    let mut checkpoint = if ckpt_path.exists() {
        let loaded = Checkpoint::load(&ckpt_path)?;
        if loaded.fingerprint != spec.fingerprint() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "checkpoint {} belongs to a different grid\n  have: {}\n  want: {}",
                    ckpt_path.display(),
                    loaded.fingerprint,
                    spec.fingerprint()
                ),
            ));
        }
        loaded
    } else {
        Checkpoint::new(spec)
    };
    let fingerprint = checkpoint.fingerprint.clone();

    // Replay shards a previous run journaled but never compacted (e.g.
    // it was killed): after this, the in-memory checkpoint is the union
    // of checkpoint.json and checkpoint.log, exactly as if every one of
    // those shards had been compacted in.
    let (journal, replayed) = Journal::open(&journal_path(&dir), &fingerprint)?;
    for entry in &replayed {
        checkpoint.apply_entry(entry);
    }

    let shards = spec.shards();
    let total = shards.len();
    let pending: Vec<(usize, &ShardSpec)> = shards
        .iter()
        .enumerate()
        .filter(|(_, shard)| !checkpoint.shards.contains_key(&shard.key()))
        .collect();
    let resumed = total - pending.len();
    let to_run = options
        .interrupt_after
        .map_or(pending.len(), |cap| pending.len().min(cap));
    let completed = to_run == pending.len();
    let batch = &pending[..to_run];

    let cache = ArtifactCache::plan(spec, batch);
    let workers = resolve_workers(options.workers, to_run);
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let sink = Mutex::new(Sink {
        checkpoint,
        journal,
        error: None,
        ran: 0,
    });

    // One worker body for every worker count: serial is the pool of
    // one, so there is no second code path to drift.
    let worker = || {
        loop {
            if failed.load(Ordering::Relaxed) {
                return;
            }
            let slot = next.fetch_add(1, Ordering::Relaxed);
            if slot >= batch.len() {
                return;
            }
            let (display, shard) = batch[slot];
            let entry = run_one_shard(spec, options, &cache, shard, display, total);
            cache.release(spec, shard);
            let mut sink = sink.lock().expect("sink poisoned");
            sink.checkpoint.apply_entry(&entry);
            sink.ran += 1;
            // O(shard) save: append to the journal; fold into the
            // canonical checkpoint only when compaction is due.
            let saved = sink.journal.append(&entry).and_then(|()| {
                if compaction_due(sink.journal.len(), sink.checkpoint.shards.len()) {
                    sink.checkpoint.save(&ckpt_path)?;
                    sink.journal.clear(&fingerprint)?;
                }
                Ok(())
            });
            if let Err(e) = saved {
                sink.error.get_or_insert(e);
                failed.store(true, Ordering::Relaxed);
                return;
            }
        }
    };
    if workers <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker);
            }
        });
    }

    let Sink {
        checkpoint,
        mut journal,
        error,
        ran,
    } = sink.into_inner().expect("sink poisoned");
    if let Some(e) = error {
        return Err(e);
    }

    // Graceful exits always compact, so checkpoint.json alone carries
    // every completed shard (resume tooling and the tests read it
    // directly); the journal only outlives a *kill*.
    checkpoint.save(&ckpt_path)?;
    if !completed {
        journal.clear(&fingerprint)?;
        return Ok(CampaignOutcome {
            completed: false,
            ran_shards: ran,
            resumed_shards: resumed,
            dir,
            tables: Vec::new(),
        });
    }
    journal.remove()?;

    let tables = summary::tables(spec, &checkpoint);
    std::fs::write(summary_path(&dir), summary::render(spec, &checkpoint))?;
    for table in &tables {
        table.write_csv(&dir)?;
    }
    Ok(CampaignOutcome {
        completed: true,
        ran_shards: ran,
        resumed_shards: resumed,
        dir,
        tables,
    })
}

/// Shared mutable tail of the pipeline: workers funnel completed shards
/// through one lock into the in-memory checkpoint and the journal.
struct Sink {
    checkpoint: Checkpoint,
    journal: Journal,
    error: Option<io::Error>,
    ran: usize,
}

/// Runs one claimed shard end to end: fetch (or build) the cell's
/// shared artifacts, print progress with the engine that will run, run
/// the trials, print the shard's wall time (set-up included), and pack
/// the results as a journal entry.
fn run_one_shard(
    spec: &SweepSpec,
    options: &CampaignOptions,
    cache: &ArtifactCache,
    shard: &ShardSpec,
    display: usize,
    total: usize,
) -> JournalEntry {
    let started = Instant::now();
    let key = shard.key();
    let (family, size) = (shard.cell.family, shard.cell.size);
    // Count cells never materialize a graph: the clique is fully
    // described by its size, and its edge count is analytic — n(n−1)/2.
    let graph = if spec.cell_is_count(&shard.cell) {
        None
    } else {
        Some(cache.graph(spec, family, size))
    };
    let runner = cache.cell(spec, &shard.cell, graph.as_deref());
    let trial_options = TrialOptions {
        trials: shard.trials,
        first_trial: shard.first_trial,
        max_steps: spec.max_steps,
        census: false,
        threads: spec.threads,
        ..TrialOptions::default()
    };
    let meta = match graph.as_deref() {
        Some(g) => CellMeta {
            n: g.num_nodes(),
            m: g.num_edges() as u64,
        },
        None => CellMeta {
            n: size,
            m: u64::from(size) * (u64::from(size) - 1) / 2,
        },
    };
    if options.progress {
        eprintln!(
            "[sweep {}] shard {}/{total}: {key} (n={}, m={}, engine={})",
            spec.name,
            display + 1,
            meta.n,
            meta.m,
            runner.engine().label(),
        );
    }
    let results = runner.run(graph.as_deref(), spec.cell_seed(&shard.cell), trial_options);
    if options.progress {
        eprintln!(
            "[sweep {}] shard {}/{total}: {key} done in {:.3} s",
            spec.name,
            display + 1,
            started.elapsed().as_secs_f64(),
        );
    }
    JournalEntry {
        shard_key: key,
        cell_key: shard.cell.key(),
        meta,
        records: results.iter().map(Into::into).collect(),
    }
}

/// A cache slot plus the number of still-pending shards that will read
/// it — the eviction countdown.
struct CacheSlot<T> {
    value: T,
    remaining: usize,
}

/// Keyed artifacts shared across workers for the duration of their
/// shards: graphs per (family, size) and prepared runners per cell.
///
/// Entries are built lazily by the first worker that needs them
/// (outside the lock, so a slow graph build never blocks workers on
/// *other* cells; a rare duplicate build is discarded by first-insert-
/// wins and both copies are identical, since construction is
/// deterministic) and evicted when their last planned shard completes,
/// so peak memory tracks the *active* cells, not the whole campaign —
/// the keyed generalization of the old single-entry consecutive-shard
/// graph cache.
struct ArtifactCache {
    graphs: Mutex<HashMap<GraphKey, CacheSlot<Arc<Graph>>>>,
    cells: Mutex<HashMap<String, CacheSlot<SharedRunner>>>,
    graph_uses: HashMap<GraphKey, usize>,
    cell_uses: HashMap<String, usize>,
}

/// One generated graph per (family, size) — the graph-cache key.
type GraphKey = (Family, u32);
/// A prepared cell runner as the cache (and every worker) holds it.
type SharedRunner = Arc<dyn PreparedRunner>;

impl ArtifactCache {
    /// Counts, per graph key and per cell key, how many of the shards
    /// about to run will read it — the initial eviction countdowns.
    fn plan(spec: &SweepSpec, batch: &[(usize, &ShardSpec)]) -> Self {
        let mut graph_uses = HashMap::new();
        let mut cell_uses = HashMap::new();
        for (_, shard) in batch {
            *cell_uses.entry(shard.cell.key()).or_insert(0) += 1;
            if !spec.cell_is_count(&shard.cell) {
                *graph_uses
                    .entry((shard.cell.family, shard.cell.size))
                    .or_insert(0) += 1;
            }
        }
        Self {
            graphs: Mutex::new(HashMap::new()),
            cells: Mutex::new(HashMap::new()),
            graph_uses,
            cell_uses,
        }
    }

    /// The shared graph of a (family, size), building it on first use.
    fn graph(&self, spec: &SweepSpec, family: Family, size: u32) -> Arc<Graph> {
        if let Some(slot) = self
            .graphs
            .lock()
            .expect("cache poisoned")
            .get(&(family, size))
        {
            return Arc::clone(&slot.value);
        }
        let built = Arc::new(family.generate(size, spec.graph_seed(family, size)));
        let remaining = self.graph_uses[&(family, size)];
        let mut map = self.graphs.lock().expect("cache poisoned");
        Arc::clone(
            &map.entry((family, size))
                .or_insert(CacheSlot {
                    value: built,
                    remaining,
                })
                .value,
        )
    }

    /// The shared prepared runner of a cell, building it on first use
    /// (`graph` must be `Some` exactly for non-count cells).
    fn cell(
        &self,
        spec: &SweepSpec,
        cell: &CellSpec,
        graph: Option<&Graph>,
    ) -> Arc<dyn PreparedRunner> {
        let key = cell.key();
        if let Some(slot) = self.cells.lock().expect("cache poisoned").get(&key) {
            return Arc::clone(&slot.value);
        }
        let built = prepare_cell(spec, cell, graph);
        let remaining = self.cell_uses[&key];
        let mut map = self.cells.lock().expect("cache poisoned");
        Arc::clone(
            &map.entry(key)
                .or_insert(CacheSlot {
                    value: built,
                    remaining,
                })
                .value,
        )
    }

    /// Counts one completed shard down, evicting artifacts whose last
    /// planned reader is done.
    fn release(&self, spec: &SweepSpec, shard: &ShardSpec) {
        let key = shard.cell.key();
        let mut cells = self.cells.lock().expect("cache poisoned");
        if let Some(slot) = cells.get_mut(&key) {
            slot.remaining -= 1;
            if slot.remaining == 0 {
                cells.remove(&key);
            }
        }
        drop(cells);
        if !spec.cell_is_count(&shard.cell) {
            let graph_key = (shard.cell.family, shard.cell.size);
            let mut graphs = self.graphs.lock().expect("cache poisoned");
            if let Some(slot) = graphs.get_mut(&graph_key) {
                slot.remaining -= 1;
                if slot.remaining == 0 {
                    graphs.remove(&graph_key);
                }
            }
        }
    }
}

/// One cell's prepared execution artifacts, behind an object-safe
/// facade so the cache can hold heterogeneous protocol types: the
/// instantiated protocol (with its graph-derived parameters), the
/// resolved fault plan, and the engine selection (with any compiled
/// table) — everything shards of the cell would otherwise re-derive.
trait PreparedRunner: Send + Sync {
    /// The engine the cell's shards run on.
    fn engine(&self) -> Engine;
    /// Runs one shard's trials; `graph` is `Some` exactly for
    /// non-count cells.
    fn run(&self, graph: Option<&Graph>, seed: u64, options: TrialOptions) -> Vec<TrialResult>;
}

/// Fixed-start cells: the fault-aware selecting path.
struct PreparedCell<P: Protocol + Clone> {
    protocol: P,
    plan: FaultPlan,
    selection: EngineSelection<P>,
}

impl<P: Protocol + Clone + Send> PreparedRunner for PreparedCell<P> {
    fn engine(&self) -> Engine {
        self.selection.engine()
    }

    fn run(&self, graph: Option<&Graph>, seed: u64, options: TrialOptions) -> Vec<TrialResult> {
        let graph = graph.expect("fixed-start cells run on a graph");
        run_trials_auto_with_faults_prepared(
            graph,
            &self.protocol,
            &self.selection,
            seed,
            options,
            &self.plan,
        )
    }
}

/// Self-stabilization cells: arbitrary per-trial start configurations,
/// election + holding metrics — same determinism contract, different
/// entry point (and a support-seeded compile, see
/// [`prepare_stabilize_engine`]).
struct PreparedStabCell<P: ArbitraryInit + Clone> {
    protocol: P,
    plan: FaultPlan,
    selection: EngineSelection<P>,
}

impl<P: ArbitraryInit + Clone + Send> PreparedRunner for PreparedStabCell<P> {
    fn engine(&self) -> Engine {
        self.selection.engine()
    }

    fn run(&self, graph: Option<&Graph>, seed: u64, options: TrialOptions) -> Vec<TrialResult> {
        let graph = graph.expect("stabilizing cells run on a graph");
        run_trials_stabilize_auto_prepared(
            graph,
            &self.protocol,
            &self.selection,
            seed,
            options,
            &self.plan,
        )
    }
}

/// Count cells: graph-free clique batches over one shared compiled
/// table (see [`run_trials_count_prepared`]).
struct PreparedCountCell<P: Protocol + Clone> {
    compiled: CompiledProtocol<P>,
    num_agents: u64,
}

impl<P: Protocol + Clone + Send> PreparedRunner for PreparedCountCell<P> {
    fn engine(&self) -> Engine {
        Engine::Count
    }

    fn run(&self, _graph: Option<&Graph>, seed: u64, options: TrialOptions) -> Vec<TrialResult> {
        run_trials_count_prepared(&self.compiled, self.num_agents, seed, options)
    }
}

fn prepared<P: Protocol + Clone + Send + 'static>(
    protocol: P,
    plan: FaultPlan,
    max_nodes: u32,
) -> Arc<dyn PreparedRunner> {
    let selection = EngineSelection::prepare(&protocol, max_nodes);
    Arc::new(PreparedCell {
        protocol,
        plan,
        selection,
    })
}

fn prepared_stab<P: ArbitraryInit + Clone + Send + 'static>(
    protocol: P,
    plan: FaultPlan,
    max_nodes: u32,
) -> Arc<dyn PreparedRunner> {
    let selection = prepare_stabilize_engine(&protocol, max_nodes);
    Arc::new(PreparedStabCell {
        protocol,
        plan,
        selection,
    })
}

fn prepared_count<P: Protocol + Clone + Send + 'static>(
    protocol: P,
    num_agents: u64,
) -> Arc<dyn PreparedRunner> {
    let compiled = compile_for_count(&protocol, num_agents)
        .expect("protocol state space exceeds the count-engine compile cap");
    Arc::new(PreparedCountCell {
        compiled,
        num_agents,
    })
}

/// Builds a cell's prepared artifacts: instantiates the protocol for
/// the concrete graph (deterministically), derives the cell's fault
/// plan from its profile, and runs engine selection once — repeated
/// shards of the cell reuse all of it. Count cells (see
/// [`SweepSpec::cell_is_count`]) derive parameters analytically from
/// the clique instead — the fast protocol runs its clique
/// specialization [`FastParams::clique_tuned`] (the waiting phase
/// guards against degree spread, which a clique does not have;
/// collapsing it is what makes `10⁷`–`10⁹` elections land in `Θ(log n)`
/// parallel time instead of the waiting phase's
/// `⌈log₂ n⌉·2^h`-parallel-unit climb).
fn prepare_cell(
    spec: &SweepSpec,
    cell: &CellSpec,
    graph: Option<&Graph>,
) -> Arc<dyn PreparedRunner> {
    if spec.cell_is_count(cell) {
        let n = cell.size;
        let num_agents = u64::from(n);
        return match cell.protocol {
            ProtocolSpec::Token => prepared_count(TokenProtocol::all_candidates(), num_agents),
            ProtocolSpec::Fast => {
                prepared_count(FastProtocol::new(FastParams::clique_tuned(n)), num_agents)
            }
            ProtocolSpec::Majority => prepared_count(
                MajorityProtocol::new(crate::workloads::majority_split(n), n),
                num_agents,
            ),
            ProtocolSpec::SpaceOpt => {
                prepared_count(SpaceOptimalProtocol::practical(n), num_agents)
            }
            other => unreachable!("{other} is not count-capable; cell_is_count gates this path"),
        };
    }
    let graph = graph.expect("non-count cells carry a graph");
    let plan: FaultPlan = cell.fault.plan(graph.num_nodes());
    // Selection (and any AOT compile) happens at the plan's maximum
    // node count, exactly as the self-selecting entry points do.
    let max_nodes = graph.num_nodes() + plan.max_joins();
    match cell.protocol {
        ProtocolSpec::Token => prepared(TokenProtocol::all_candidates(), plan, max_nodes),
        ProtocolSpec::Identifier => prepared(
            IdentifierProtocol::new(identifier_bits(graph.num_nodes(), false)),
            plan,
            max_nodes,
        ),
        ProtocolSpec::Fast => {
            // The a-priori broadcast guess is deterministic in the
            // graph, keeping the cell self-contained (no measurement
            // sub-experiment whose seeds would have to be checkpointed).
            let params = FastParams::practical(
                broadcast_guess(graph),
                graph.max_degree(),
                graph.num_edges(),
                graph.num_nodes(),
            );
            prepared(FastProtocol::new(params), plan, max_nodes)
        }
        ProtocolSpec::Star => prepared(StarProtocol::new(), plan, max_nodes),
        ProtocolSpec::Majority => {
            let n = graph.num_nodes();
            prepared(
                MajorityProtocol::new(crate::workloads::majority_split(n), n),
                plan,
                max_nodes,
            )
        }
        ProtocolSpec::Loose => {
            prepared_stab(LooseProtocol::practical(graph.num_nodes()), plan, max_nodes)
        }
        ProtocolSpec::RingLoose => prepared_stab(
            RingLooseProtocol::for_ring(graph.num_nodes()),
            plan,
            max_nodes,
        ),
        ProtocolSpec::SpaceOpt => prepared(
            SpaceOptimalProtocol::practical(graph.num_nodes()),
            plan,
            max_nodes,
        ),
        ProtocolSpec::RingTimeOpt => prepared_stab(
            TimeOptimalRingProtocol::for_ring(graph.num_nodes()),
            plan,
            max_nodes,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(name: &str) -> SweepSpec {
        SweepSpec {
            name: name.into(),
            protocols: vec![ProtocolSpec::Token, ProtocolSpec::Majority],
            families: vec![Family::Clique, Family::Star],
            sizes: vec![8, 12],
            trials_per_cell: 3,
            shard_trials: 2,
            max_steps: 1 << 22,
            master_seed: 0xFEED,
            threads: 1,
            max_edges: 1 << 20,
            ..SweepSpec::default()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("popele-runner-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn campaign_completes_and_writes_outputs() {
        let out = temp_dir("complete");
        let spec = tiny_spec("t1");
        let outcome = run_campaign(
            &spec,
            &CampaignOptions {
                out_dir: out.clone(),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(outcome.completed);
        // 8 cells × 2 shards each (3 trials in shards of 2).
        assert_eq!(outcome.ran_shards, 16);
        assert_eq!(outcome.resumed_shards, 0);
        assert!(checkpoint_path(&outcome.dir).exists());
        assert!(summary_path(&outcome.dir).exists());
        // A completed campaign leaves no journal behind.
        assert!(!journal_path(&outcome.dir).exists());
        assert!(!outcome.tables.is_empty());
        // Re-running resumes everything and reruns nothing.
        let again = run_campaign(
            &spec,
            &CampaignOptions {
                out_dir: out.clone(),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert_eq!(again.ran_shards, 0);
        assert_eq!(again.resumed_shards, 16);
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn worker_pool_output_is_byte_identical_to_serial() {
        let serial_out = temp_dir("workers-serial");
        let pooled_out = temp_dir("workers-pooled");
        let spec = tiny_spec("tw");
        for (out, workers) in [(&serial_out, 1), (&pooled_out, 4)] {
            let outcome = run_campaign(
                &spec,
                &CampaignOptions {
                    out_dir: out.clone(),
                    workers,
                    ..CampaignOptions::default()
                },
            )
            .unwrap();
            assert!(outcome.completed);
            assert_eq!(outcome.ran_shards, 16);
        }
        let a = std::fs::read(checkpoint_path(&serial_out.join("tw"))).unwrap();
        let b = std::fs::read(checkpoint_path(&pooled_out.join("tw"))).unwrap();
        assert_eq!(a, b);
        let a = std::fs::read(summary_path(&serial_out.join("tw"))).unwrap();
        let b = std::fs::read(summary_path(&pooled_out.join("tw"))).unwrap();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&serial_out).ok();
        std::fs::remove_dir_all(&pooled_out).ok();
    }

    #[test]
    fn count_cells_run_graph_free_and_record_analytic_meta() {
        let out = temp_dir("count");
        // majority on a 40_000-clique elects within the default budget;
        // the clique is far past the edge budget, so only the count
        // tier can run it (no graph is ever materialized).
        let spec = SweepSpec {
            name: "count".into(),
            protocols: vec![ProtocolSpec::Majority],
            families: vec![Family::Clique],
            sizes: vec![40_000],
            trials_per_cell: 2,
            shard_trials: 2,
            max_steps: 200_000_000,
            master_seed: 0xFEED,
            threads: 1,
            max_edges: 1 << 20,
            ..SweepSpec::default()
        };
        let cell = spec.cells()[0];
        assert!(spec.cell_is_count(&cell));
        let outcome = run_campaign(
            &spec,
            &CampaignOptions {
                out_dir: out.clone(),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(outcome.completed);
        assert_eq!(outcome.ran_shards, 1);
        let ckpt = Checkpoint::load(&checkpoint_path(&outcome.dir)).unwrap();
        let meta = &ckpt.cells["majority/clique/40000"];
        assert_eq!(meta.n, 40_000);
        assert_eq!(meta.m, 40_000u64 * 39_999 / 2);
        let records = &ckpt.shards["majority/clique/40000/s0"];
        assert_eq!(records.len(), 2);
        for r in records {
            assert!(r.steps.is_some(), "majority did not elect");
        }
        std::fs::remove_dir_all(&out).ok();
    }

    /// The two states-vs-time corner protocols land on the tiers their
    /// state-space bounds dictate: space-opt's `O(log log n)`-level
    /// table AOT-compiles on small cliques and is count-eligible at
    /// batch scale, while ring-time-opt's `Θ(n)` timer space overflows
    /// the AOT cap and takes the lazy tier.
    #[test]
    fn corner_protocol_cells_select_the_expected_tiers() {
        let spec = SweepSpec {
            name: "tiers".into(),
            protocols: vec![ProtocolSpec::SpaceOpt, ProtocolSpec::RingTimeOpt],
            families: vec![Family::Clique, Family::Cycle],
            sizes: vec![64, 2000, 40_000],
            max_edges: 1 << 20,
            ..SweepSpec::default()
        };
        let cell = |protocol, family, size| CellSpec {
            protocol,
            family,
            size,
            fault: super::super::spec::FaultSpec::None,
        };

        let aot = cell(ProtocolSpec::SpaceOpt, Family::Clique, 64);
        assert!(spec.cell_skip_reason(&aot).is_none());
        let graph = Family::Clique.generate(64, 1);
        let runner = prepare_cell(&spec, &aot, Some(&graph));
        assert_eq!(runner.engine(), Engine::Dense);

        let count = cell(ProtocolSpec::SpaceOpt, Family::Clique, 40_000);
        assert!(spec.cell_is_count(&count));
        assert!(spec.cell_skip_reason(&count).is_none());
        let runner = prepare_cell(&spec, &count, None);
        assert_eq!(runner.engine(), Engine::Count);

        let lazy = cell(ProtocolSpec::RingTimeOpt, Family::Cycle, 2000);
        assert!(spec.cell_skip_reason(&lazy).is_none());
        let graph = Family::Cycle.generate(2000, 1);
        let runner = prepare_cell(&spec, &lazy, Some(&graph));
        assert_eq!(runner.engine(), Engine::LazyDense);

        // Off their home families both protocols are skipped, not run.
        assert!(spec
            .cell_skip_reason(&cell(ProtocolSpec::SpaceOpt, Family::Cycle, 64))
            .is_some());
        assert!(spec
            .cell_skip_reason(&cell(ProtocolSpec::RingTimeOpt, Family::Clique, 64))
            .is_some());
    }

    #[test]
    fn path_like_campaign_names_are_refused() {
        for bad in ["", "..", "evil/name"] {
            let spec = SweepSpec {
                name: bad.into(),
                ..tiny_spec(bad)
            };
            let err = run_campaign(&spec, &CampaignOptions::default()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad:?}");
        }
    }

    #[test]
    fn incompatible_checkpoint_is_refused() {
        let out = temp_dir("refuse");
        let spec = tiny_spec("t2");
        run_campaign(
            &spec,
            &CampaignOptions {
                out_dir: out.clone(),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        let mut other = spec;
        other.master_seed ^= 1;
        let err = run_campaign(
            &other,
            &CampaignOptions {
                out_dir: out.clone(),
                ..CampaignOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&out).ok();
    }
}
