//! Declarative sweep grids: protocols × graph families × sizes.
//!
//! A [`SweepSpec`] names every cell of a campaign up front; all
//! randomness derives from the master seed through *stable cell keys*
//! (strings like `token/cycle/2000`), so a cell's results do not depend
//! on which other cells share the grid, on execution order, or on the
//! thread count. [`SweepSpec::shards`] slices each cell's trial range
//! into fixed-size shards — the unit of checkpointing — whose
//! [`popele_engine::monte_carlo::TrialOptions::first_trial`] offsets
//! make the concatenation of shard results bit-identical to one
//! monolithic run.

use crate::workloads::Family;
use popele_engine::faults::{FaultKind, FaultPlan};
use popele_math::rng::SeedSeq;
use std::fmt;

/// A protocol the sweep layer knows how to instantiate per graph.
///
/// Parameterized protocols (identifier bits, fast-protocol clock and
/// level parameters) are derived deterministically from the concrete
/// graph, exactly as the Table 1 experiment derives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolSpec {
    /// 6-state token baseline (Theorem 16).
    Token,
    /// Time-optimal identifier protocol (Theorem 21) at practical
    /// `k(n)` bits; its `O(n⁴)` state space falls back to the generic
    /// engine by design.
    Identifier,
    /// Space-efficient fast protocol (Theorem 24) with practical
    /// parameters derived from a deterministic broadcast-time guess.
    Fast,
    /// Trivial 3-state star protocol (Table 1 "Stars" row).
    Star,
    /// Exact-majority extension (Section 8) with a fixed 60/40 split.
    Majority,
    /// Loosely-stabilizing timeout/propagation election (Kanaya et al.
    /// 2024 regime) at the practical budget `τ = 8·bitlen(n)` — runs
    /// from *arbitrary* start configurations and records election
    /// **and** holding metrics.
    Loose,
    /// The ring-specialized loosely-stabilizing variant
    /// (distance-to-leader invalidation with `B = 2n`); restricted to
    /// the cycle family, whose hop distances its bound is derived for.
    RingLoose,
    /// Space-optimal junta race with a leaderless phase clock
    /// (Gąsieniec–Stachowiak) at `practical(n)` parameters — `O(log
    /// log n)` candidate levels, so it compiles for the AOT and count
    /// tiers at every sweep size; restricted to the clique family,
    /// whose interaction model its duel rule assumes.
    SpaceOpt,
    /// Time-optimal self-stabilizing ring election via bounded-timer
    /// token circulation (arXiv 2009.10926 regime) at `for_ring(n)`
    /// timers — runs the arbitrary-start stabilization workload like
    /// [`ProtocolSpec::RingLoose`] and is likewise cycle-only.
    RingTimeOpt,
}

impl ProtocolSpec {
    /// Every sweepable protocol, in canonical order. This array **is**
    /// the protocol registry: the CLI `--help` enumeration, label
    /// parsing and the usage lists all derive from it, so a protocol
    /// added here shows up everywhere automatically.
    pub const ALL: [ProtocolSpec; 9] = [
        ProtocolSpec::Token,
        ProtocolSpec::Identifier,
        ProtocolSpec::Fast,
        ProtocolSpec::Star,
        ProtocolSpec::Majority,
        ProtocolSpec::Loose,
        ProtocolSpec::RingLoose,
        ProtocolSpec::SpaceOpt,
        ProtocolSpec::RingTimeOpt,
    ];

    /// CLI / key name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProtocolSpec::Token => "token",
            ProtocolSpec::Identifier => "identifier",
            ProtocolSpec::Fast => "fast",
            ProtocolSpec::Star => "star",
            ProtocolSpec::Majority => "majority",
            ProtocolSpec::Loose => "loose",
            ProtocolSpec::RingLoose => "ring-loose",
            ProtocolSpec::SpaceOpt => "space-opt",
            ProtocolSpec::RingTimeOpt => "ring-time-opt",
        }
    }

    /// Parses a [`Self::label`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|p| p.label() == name)
    }

    /// Whether this protocol runs the self-stabilization workload:
    /// arbitrary start configurations, election measured as the time to
    /// the first unique-leader configuration, plus holding metrics
    /// (see [`popele_engine::stabilize`]). These cells' records carry a
    /// holding column set in checkpoints and summaries.
    #[must_use]
    pub fn is_stabilizing(self) -> bool {
        matches!(
            self,
            ProtocolSpec::Loose | ProtocolSpec::RingLoose | ProtocolSpec::RingTimeOpt
        )
    }

    /// Whether this protocol can run on the count-based batch engine
    /// ([`popele_engine::CountEngine`]): its stability oracle must be
    /// evaluable from a state census alone (linear leader counting or
    /// [`popele_engine::StabilityOracle::recompute_census`]). The
    /// identifier protocol's oracle needs per-node identity and the
    /// loosely-stabilizing cells need arbitrary per-node start
    /// configurations, so neither qualifies; the star protocol's oracle
    /// is census-friendly but only exact off cliques' complement — it
    /// never pairs with the clique family in the first place.
    #[must_use]
    pub fn is_count_capable(self) -> bool {
        matches!(
            self,
            ProtocolSpec::Token
                | ProtocolSpec::Fast
                | ProtocolSpec::Majority
                | ProtocolSpec::SpaceOpt
        )
    }
}

impl fmt::Display for ProtocolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A named fault-intensity profile — the sweepable *adversity axis*.
///
/// Each profile maps a concrete graph size to a deterministic
/// [`FaultPlan`] (see [`FaultSpec::plan`]); the per-trial fault
/// realization then derives from the trial seed, which derives from the
/// stable cell key, so fault cells obey the same reproducibility
/// contract as everything else. The step unit below is
/// `base(n) = n·bitlen(n)` interactions (`bitlen = ⌊log₂ n⌋ + 1`) — a
/// few parallel "rounds", so faults strike while (or shortly after)
/// typical protocols converge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSpec {
    /// No faults: the baseline axis value (and the default).
    None,
    /// Three bursts of state corruption (5% of nodes each, at least 1)
    /// at steps `4·base`, `8·base`, `12·base`.
    Corrupt,
    /// Node churn: joins (degree 2) at `4·base` and `8·base`, leaves at
    /// `6·base` and `10·base`.
    Churn,
    /// Six edge rewirings, every `2·base` steps from `4·base` on.
    Rewire,
}

impl FaultSpec {
    /// Every profile, in canonical order.
    pub const ALL: [FaultSpec; 4] = [
        FaultSpec::None,
        FaultSpec::Corrupt,
        FaultSpec::Churn,
        FaultSpec::Rewire,
    ];

    /// CLI / key name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultSpec::None => "none",
            FaultSpec::Corrupt => "corrupt",
            FaultSpec::Churn => "churn",
            FaultSpec::Rewire => "rewire",
        }
    }

    /// Parses a [`Self::label`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|f| f.label() == name)
    }

    /// The profile's concrete schedule for an `n`-node graph. A pure
    /// function of `(self, n)`, so every shard of a cell derives the
    /// identical plan.
    #[must_use]
    pub fn plan(self, n: u32) -> FaultPlan {
        let base = u64::from(n.max(2)) * u64::from(32 - n.max(2).leading_zeros());
        match self {
            FaultSpec::None => FaultPlan::empty(),
            FaultSpec::Corrupt => FaultPlan::periodic(
                FaultKind::CorruptNodes {
                    count: (n / 20).max(1),
                },
                4 * base,
                4 * base,
                3,
            ),
            FaultSpec::Churn => FaultPlan::at(4 * base, FaultKind::JoinNode { degree: 2 })
                .and(6 * base, FaultKind::LeaveNode)
                .and(8 * base, FaultKind::JoinNode { degree: 2 })
                .and(10 * base, FaultKind::LeaveNode),
            FaultSpec::Rewire => FaultPlan::periodic(FaultKind::RewireEdge, 4 * base, 2 * base, 6),
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A full campaign grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Campaign name; outputs land under `<out>/<name>/`.
    pub name: String,
    /// Protocols to sweep.
    pub protocols: Vec<ProtocolSpec>,
    /// Graph families to sweep.
    pub families: Vec<Family>,
    /// Nominal sizes to sweep (families may round, e.g. the torus to a
    /// square).
    pub sizes: Vec<u32>,
    /// Fault-intensity profiles to sweep. The default, `[None]`, is the
    /// classic fault-free grid — and keeps cell keys and the
    /// fingerprint identical to pre-fault campaigns, so existing
    /// checkpoints still resume.
    pub faults: Vec<FaultSpec>,
    /// Trials per cell.
    pub trials_per_cell: usize,
    /// Trials per shard (the checkpointing granule); the last shard of
    /// a cell may be shorter.
    pub shard_trials: usize,
    /// Per-trial step budget; exhausting it records a timeout, which is
    /// a first-class result (the paper's slow protocol × family pairs
    /// are *expected* to blow any practical budget at scale).
    pub max_steps: u64,
    /// Master seed; every cell, graph and trial seed derives from it.
    pub master_seed: u64,
    /// Worker threads per shard; `0` = one per core. Never affects
    /// results. Note the effective parallelism is additionally capped
    /// at [`Self::shard_trials`]: shards run sequentially (so the
    /// checkpoint advances in deterministic order) and a shard has only
    /// `shard_trials` independent trials to hand out. Raise the shard
    /// size to use more cores at the cost of coarser checkpoints.
    pub threads: usize,
    /// Cells whose family would need more than this many edges are
    /// skipped (recorded as such in the summary) instead of
    /// materializing a multi-gigabyte edge list.
    pub max_edges: u64,
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self {
            name: "sweep".into(),
            protocols: vec![
                ProtocolSpec::Token,
                ProtocolSpec::Identifier,
                ProtocolSpec::Fast,
            ],
            families: vec![
                Family::Cycle,
                Family::Star,
                Family::Torus,
                Family::RandomRegular4,
                Family::Clique,
            ],
            // The three classic per-agent sizes plus the count-engine
            // range: on the sparse families the big sizes skip (edge
            // budget), on the clique they run graph-free on the count
            // tier. Electing at the big sizes needs a raised
            // `max_steps` (the default budget records feasibility
            // timeouts, not elections — an election at 10⁸ takes
            // ~10¹⁰ interactions).
            sizes: vec![
                2_000,
                16_000,
                80_000,
                10_000_000,
                100_000_000,
                1_000_000_000,
            ],
            faults: vec![FaultSpec::None],
            trials_per_cell: 4,
            shard_trials: 2,
            max_steps: 30_000_000,
            master_seed: 0xC0FFEE,
            threads: 0,
            // Sized so the default grid fits laptop memory — a clique
            // materializes up to ~4_000 nodes; beyond that the clique
            // column is served by the count tier (or skipped, with the
            // reason recorded) — and so the sparse families stop below
            // the count range: a 10⁷-node cycle fits in RAM but a
            // sequential election on it cannot finish inside any sane
            // step budget, so those cells skip rather than time out.
            max_edges: 1 << 23,
        }
    }
}

/// One cell of the grid: a (protocol, family, nominal size, fault
/// profile) tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Protocol under test.
    pub protocol: ProtocolSpec,
    /// Graph family.
    pub family: Family,
    /// Nominal size.
    pub size: u32,
    /// Fault-intensity profile.
    pub fault: FaultSpec,
}

impl CellSpec {
    /// Stable key of the cell, e.g. `token/cycle/2000` — or
    /// `token/cycle/2000/corrupt` for a faulted cell. Seeds and
    /// checkpoint entries are addressed by this key, so a cell's
    /// results are independent of the rest of the grid; fault-free
    /// cells keep their pre-fault-axis keys (and therefore seeds).
    #[must_use]
    pub fn key(&self) -> String {
        let base = format!(
            "{}/{}/{}",
            self.protocol.label(),
            self.family.label(),
            self.size
        );
        match self.fault {
            FaultSpec::None => base,
            fault => format!("{base}/{fault}"),
        }
    }
}

/// One shard of a cell: a contiguous trial range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// The cell this shard belongs to.
    pub cell: CellSpec,
    /// Index of the shard within its cell.
    pub shard: usize,
    /// Global index of the shard's first trial within the cell.
    pub first_trial: usize,
    /// Number of trials in this shard.
    pub trials: usize,
}

impl ShardSpec {
    /// Stable checkpoint key, e.g. `token/cycle/2000/s1`.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{}/s{}", self.cell.key(), self.shard)
    }
}

/// FNV-1a hash of a key string — the stable bridge from cell keys to
/// seed-sequence children.
#[must_use]
fn key_hash(key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

impl SweepSpec {
    /// Whether `name` is safe to use as the campaign's directory name:
    /// non-empty and free of path separators or parent references, so
    /// `<out>/<name>` can never resolve outside (or *to*) the output
    /// directory — which matters because the CLI's `--fresh` deletes it.
    #[must_use]
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty() && name != "." && name != ".." && !name.contains(['/', '\\'])
    }

    /// The grid's cells, family-major then size then protocol then
    /// fault profile, so consecutive cells share a graph and the runner
    /// can reuse it.
    #[must_use]
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for &family in &self.families {
            for &size in &self.sizes {
                for &protocol in &self.protocols {
                    for &fault in &self.faults {
                        cells.push(CellSpec {
                            protocol,
                            family,
                            size,
                            fault,
                        });
                    }
                }
            }
        }
        cells
    }

    /// Whether a cell runs on the count-based batch engine instead of a
    /// materialized graph: a fault-free clique cell at count scale
    /// (at least [`popele_engine::dense::COUNT_MIN_AGENTS`] agents)
    /// whose protocol is [`ProtocolSpec::is_count_capable`]. Count
    /// cells never materialize an edge list, so the
    /// [`Self::max_edges`] budget does not apply to them — this is the
    /// clique-only door into the `10⁷–10⁹` sizes. Fault cells are
    /// excluded because fault injection edits per-agent state and
    /// topology, neither of which exists in count space.
    #[must_use]
    pub fn cell_is_count(&self, cell: &CellSpec) -> bool {
        cell.family == Family::Clique
            && cell.fault == FaultSpec::None
            && u64::from(cell.size) >= popele_engine::dense::COUNT_MIN_AGENTS
            && cell.protocol.is_count_capable()
    }

    /// Why a cell cannot run, if it cannot: its graph would exceed the
    /// edge budget (and, on cliques, the count tier could not pick it
    /// up — the reason says why), or its protocol's stability oracle is
    /// only exact on a family it is not paired with (the star protocol
    /// off stars). Skipped cells are excluded from [`Self::shards`] and
    /// recorded as skipped — with this reason — in the campaign summary.
    #[must_use]
    pub fn cell_skip_reason(&self, cell: &CellSpec) -> Option<String> {
        if !self.cell_is_count(cell) && cell.family.approx_edges(cell.size) > self.max_edges {
            let mut reason = format!(
                "~{} edges exceed the max_edges budget of {}",
                cell.family.approx_edges(cell.size),
                self.max_edges
            );
            if cell.family == Family::Clique {
                let why = if !cell.protocol.is_count_capable() {
                    Some(format!(
                        "the {} protocol's oracle cannot be evaluated from a state census",
                        cell.protocol
                    ))
                } else if cell.fault != FaultSpec::None {
                    Some("fault injection needs per-agent identity".to_string())
                } else {
                    None
                };
                if let Some(why) = why {
                    reason = format!("{reason}; not count-engine eligible: {why}");
                }
            }
            return Some(reason);
        }
        if cell.protocol == ProtocolSpec::Star && cell.family != Family::Star {
            return Some("the star protocol's oracle is only exact on stars".into());
        }
        if cell.protocol == ProtocolSpec::Star
            && matches!(cell.fault, FaultSpec::Churn | FaultSpec::Rewire)
        {
            return Some(
                "topology faults break the star shape the star protocol's oracle needs".into(),
            );
        }
        if cell.protocol == ProtocolSpec::RingLoose && cell.family != Family::Cycle {
            return Some(
                "the ring variant's distance bound is derived for cycle hop distances".into(),
            );
        }
        if cell.protocol == ProtocolSpec::SpaceOpt && cell.family != Family::Clique {
            return Some(
                "the junta duel rule assumes the clique interaction model; sparse graphs \
                 can strand two ceiling-level candidates with no adjacent duel"
                    .into(),
            );
        }
        if cell.protocol == ProtocolSpec::RingTimeOpt && cell.family != Family::Cycle {
            return Some(
                "token circulation and its timer bounds are derived for the ring topology".into(),
            );
        }
        None
    }

    /// All runnable shards, in deterministic execution order (skipped
    /// cells excluded — they appear only in the summary's skip list).
    #[must_use]
    pub fn shards(&self) -> Vec<ShardSpec> {
        let shard_trials = self.shard_trials.max(1);
        let mut shards = Vec::new();
        for cell in self.cells() {
            if self.cell_skip_reason(&cell).is_some() {
                continue;
            }
            let mut first_trial = 0;
            let mut shard = 0;
            while first_trial < self.trials_per_cell {
                let trials = shard_trials.min(self.trials_per_cell - first_trial);
                shards.push(ShardSpec {
                    cell,
                    shard,
                    first_trial,
                    trials,
                });
                first_trial += trials;
                shard += 1;
            }
        }
        shards
    }

    /// The master seed of a cell's trial sequence. Derived from the
    /// cell *key*, not its position, so adding or removing other
    /// protocols/families/sizes never changes this cell's results.
    #[must_use]
    pub fn cell_seed(&self, cell: &CellSpec) -> u64 {
        SeedSeq::new(self.master_seed).child(key_hash(&cell.key()))
    }

    /// The seed used to generate the `(family, size)` graph — shared by
    /// every protocol in the grid, so protocols are compared on the
    /// *same* random graph instance.
    #[must_use]
    pub fn graph_seed(&self, family: Family, size: u32) -> u64 {
        let key = format!("graph/{}/{}", family.label(), size);
        SeedSeq::new(self.master_seed).child(key_hash(&key))
    }

    /// Canonical one-line fingerprint of everything that determines the
    /// campaign's results. Checkpoints store it; resuming with a
    /// different grid is refused instead of silently mixing results.
    /// (`threads` is deliberately absent: it never affects results. A
    /// `faults=` clause appears only for a non-default fault axis, so
    /// pre-fault-axis checkpoints of fault-free grids still resume.)
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let list = |items: Vec<String>| items.join(",");
        let faults = if self.faults == [FaultSpec::None] {
            String::new()
        } else {
            format!(
                ";faults={}",
                list(self.faults.iter().map(|f| f.label().to_string()).collect())
            )
        };
        format!(
            "v1;protocols={};families={};sizes={};trials={};shard={};max_steps={};seed={};max_edges={}{faults}",
            list(self.protocols.iter().map(|p| p.label().to_string()).collect()),
            list(self.families.iter().map(|f| f.label().to_string()).collect()),
            list(self.sizes.iter().map(|s| s.to_string()).collect()),
            self.trials_per_cell,
            self.shard_trials.max(1),
            self.max_steps,
            self.master_seed,
            self.max_edges,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepSpec {
        SweepSpec {
            protocols: vec![ProtocolSpec::Token, ProtocolSpec::Majority],
            families: vec![Family::Clique, Family::Cycle],
            sizes: vec![8, 12],
            trials_per_cell: 5,
            shard_trials: 2,
            ..SweepSpec::default()
        }
    }

    #[test]
    fn protocol_labels_roundtrip() {
        for p in ProtocolSpec::ALL {
            assert_eq!(ProtocolSpec::parse(p.label()), Some(p));
            assert_eq!(format!("{p}"), p.label());
        }
        assert_eq!(ProtocolSpec::parse("nope"), None);
    }

    #[test]
    fn family_labels_roundtrip() {
        for f in Family::ALL {
            assert_eq!(Family::parse(f.label()), Some(f));
        }
        assert_eq!(Family::parse("nope"), None);
    }

    #[test]
    fn grid_enumeration_and_sharding() {
        let spec = tiny();
        let cells = spec.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].key(), "token/clique/8");
        assert_eq!(cells[1].key(), "majority/clique/8");
        // 5 trials in shards of 2 → 2 + 2 + 1 per cell.
        let shards = spec.shards();
        assert_eq!(shards.len(), 8 * 3);
        assert_eq!(shards[2].key(), "token/clique/8/s2");
        assert_eq!(shards[2].first_trial, 4);
        assert_eq!(shards[2].trials, 1);
        assert_eq!(
            shards.iter().map(|s| s.trials).sum::<usize>(),
            8 * spec.trials_per_cell
        );
    }

    #[test]
    fn cell_seeds_are_grid_independent() {
        let spec = tiny();
        let mut bigger = tiny();
        bigger.protocols.push(ProtocolSpec::Majority);
        bigger.sizes.push(16);
        let cell = CellSpec {
            protocol: ProtocolSpec::Token,
            family: Family::Cycle,
            size: 12,
            fault: FaultSpec::None,
        };
        assert_eq!(spec.cell_seed(&cell), bigger.cell_seed(&cell));
        assert_eq!(
            spec.graph_seed(Family::Cycle, 12),
            bigger.graph_seed(Family::Cycle, 12)
        );
        // Distinct cells get distinct seeds.
        let other = CellSpec {
            protocol: ProtocolSpec::Star,
            ..cell
        };
        assert_ne!(spec.cell_seed(&cell), spec.cell_seed(&other));
    }

    #[test]
    fn oversized_cells_are_excluded_from_shards() {
        let mut spec = tiny();
        spec.max_edges = 30; // clique(12) has 66 edges, cycle(12) has 12
        let shards = spec.shards();
        assert!(shards
            .iter()
            .all(|s| !(s.cell.family == Family::Clique && s.cell.size == 12)));
        assert!(shards
            .iter()
            .any(|s| s.cell.family == Family::Clique && s.cell.size == 8));
        assert!(spec
            .cell_skip_reason(&CellSpec {
                protocol: ProtocolSpec::Token,
                family: Family::Clique,
                size: 12,
                fault: FaultSpec::None,
            })
            .is_some());
    }

    #[test]
    fn star_protocol_restricted_to_stars() {
        let spec = SweepSpec {
            protocols: vec![ProtocolSpec::Star],
            families: vec![Family::Star, Family::Cycle],
            sizes: vec![8],
            ..SweepSpec::default()
        };
        let cells: Vec<_> = spec.shards().iter().map(|s| s.cell).collect();
        assert!(cells.iter().all(|c| c.family == Family::Star));
        assert!(!cells.is_empty());
    }

    #[test]
    fn ring_variant_restricted_to_cycles() {
        let spec = SweepSpec {
            protocols: vec![ProtocolSpec::RingLoose, ProtocolSpec::Loose],
            families: vec![Family::Cycle, Family::Clique],
            sizes: vec![8],
            ..SweepSpec::default()
        };
        let cells: Vec<_> = spec.shards().iter().map(|s| s.cell).collect();
        assert!(cells
            .iter()
            .all(|c| c.protocol != ProtocolSpec::RingLoose || c.family == Family::Cycle));
        // The general loose protocol sweeps every family.
        assert!(cells
            .iter()
            .any(|c| c.protocol == ProtocolSpec::Loose && c.family == Family::Clique));
        assert!(ProtocolSpec::Loose.is_stabilizing());
        assert!(!ProtocolSpec::Token.is_stabilizing());
    }

    #[test]
    fn clique_count_cells_bypass_the_edge_budget() {
        let spec = SweepSpec::default();
        let cell = |protocol, size, fault| CellSpec {
            protocol,
            family: Family::Clique,
            size,
            fault,
        };
        // Count-capable protocol at count scale: runnable, graph-free.
        let token_big = cell(ProtocolSpec::Token, 100_000_000, FaultSpec::None);
        assert!(spec.cell_is_count(&token_big));
        assert!(spec.cell_skip_reason(&token_big).is_none());
        // Census-incapable protocol at the same scale: skipped, and the
        // reason says why the count tier could not pick it up.
        let id_big = cell(ProtocolSpec::Identifier, 100_000_000, FaultSpec::None);
        assert!(!spec.cell_is_count(&id_big));
        let reason = spec.cell_skip_reason(&id_big).unwrap();
        assert!(reason.contains("not count-engine eligible"), "{reason}");
        // Fault cells need per-agent identity: off the count tier.
        let faulted = cell(ProtocolSpec::Token, 100_000_000, FaultSpec::Corrupt);
        assert!(!spec.cell_is_count(&faulted));
        let reason = spec.cell_skip_reason(&faulted).unwrap();
        assert!(reason.contains("per-agent identity"), "{reason}");
        // Below count scale, cliques obey the plain edge budget …
        let token_mid = cell(ProtocolSpec::Token, 16_000, FaultSpec::None);
        assert!(!spec.cell_is_count(&token_mid));
        let reason = spec.cell_skip_reason(&token_mid).unwrap();
        assert!(!reason.contains("count"), "{reason}");
        // … and small cliques still materialize for the sequential engines.
        let token_small = cell(ProtocolSpec::Token, 2_000, FaultSpec::None);
        assert!(!spec.cell_is_count(&token_small));
        assert!(spec.cell_skip_reason(&token_small).is_none());
        // Non-clique families never take the count tier.
        let cycle_big = CellSpec {
            family: Family::Cycle,
            ..token_big
        };
        assert!(!spec.cell_is_count(&cycle_big));
    }

    #[test]
    fn default_grid_extends_into_the_count_range() {
        let spec = SweepSpec::default();
        assert!(spec.sizes.contains(&10_000_000));
        assert!(spec.sizes.contains(&1_000_000_000));
        assert!(spec.families.contains(&Family::Clique));
        // The big sizes are runnable exactly on the clique count tier.
        let runnable: Vec<_> = spec
            .cells()
            .into_iter()
            .filter(|c| c.size >= 10_000_000 && spec.cell_skip_reason(c).is_none())
            .collect();
        assert!(!runnable.is_empty());
        assert!(runnable
            .iter()
            .all(|c| c.family == Family::Clique && spec.cell_is_count(c)));
    }

    #[test]
    fn name_validation() {
        assert!(SweepSpec::valid_name("sweep"));
        assert!(SweepSpec::valid_name("table1-repro.v2"));
        for bad in ["", ".", "..", "a/b", "a\\b", "../escape"] {
            assert!(!SweepSpec::valid_name(bad), "{bad:?} accepted");
        }
    }

    #[test]
    fn fingerprint_tracks_result_relevant_fields_only() {
        let spec = tiny();
        let mut same_results = tiny();
        same_results.threads = 7;
        same_results.name = "other".into();
        assert_eq!(spec.fingerprint(), same_results.fingerprint());
        let mut different = tiny();
        different.master_seed ^= 1;
        assert_ne!(spec.fingerprint(), different.fingerprint());
    }

    #[test]
    fn fault_labels_roundtrip() {
        for f in FaultSpec::ALL {
            assert_eq!(FaultSpec::parse(f.label()), Some(f));
            assert_eq!(format!("{f}"), f.label());
        }
        assert_eq!(FaultSpec::parse("nope"), None);
    }

    #[test]
    fn fault_axis_extends_cell_keys_but_not_fault_free_ones() {
        let mut cell = CellSpec {
            protocol: ProtocolSpec::Token,
            family: Family::Cycle,
            size: 2000,
            fault: FaultSpec::None,
        };
        // The fault-free key (and therefore its derived seeds) is
        // exactly the pre-fault-axis key.
        assert_eq!(cell.key(), "token/cycle/2000");
        cell.fault = FaultSpec::Corrupt;
        assert_eq!(cell.key(), "token/cycle/2000/corrupt");
    }

    #[test]
    fn default_fault_axis_keeps_the_old_fingerprint_shape() {
        // A fault-free grid's fingerprint must not mention faults, so
        // checkpoints written before the fault axis existed still
        // resume; a faulted grid's must.
        let spec = tiny();
        assert!(!spec.fingerprint().contains("faults"));
        let mut faulted = tiny();
        faulted.faults = vec![FaultSpec::None, FaultSpec::Rewire];
        assert!(faulted.fingerprint().ends_with(";faults=none,rewire"));
        assert_ne!(spec.fingerprint(), faulted.fingerprint());
        // The fault axis multiplies the cell count.
        assert_eq!(faulted.cells().len(), 2 * spec.cells().len());
    }

    #[test]
    fn star_protocol_skips_topology_faults_but_not_corruption() {
        let cell = |fault| CellSpec {
            protocol: ProtocolSpec::Star,
            family: Family::Star,
            size: 8,
            fault,
        };
        let spec = SweepSpec {
            protocols: vec![ProtocolSpec::Star],
            families: vec![Family::Star],
            faults: FaultSpec::ALL.to_vec(),
            ..SweepSpec::default()
        };
        assert!(spec.cell_skip_reason(&cell(FaultSpec::None)).is_none());
        assert!(spec.cell_skip_reason(&cell(FaultSpec::Corrupt)).is_none());
        assert!(spec.cell_skip_reason(&cell(FaultSpec::Churn)).is_some());
        assert!(spec.cell_skip_reason(&cell(FaultSpec::Rewire)).is_some());
    }

    #[test]
    fn fault_profiles_scale_with_n_and_stay_pure() {
        for f in FaultSpec::ALL {
            assert_eq!(f.plan(100), f.plan(100), "{f} not pure");
        }
        assert!(FaultSpec::None.plan(100).is_empty());
        let small = FaultSpec::Corrupt.plan(100);
        let large = FaultSpec::Corrupt.plan(10_000);
        assert!(small.events[0].step < large.events[0].step);
        assert_eq!(FaultSpec::Churn.plan(64).max_joins(), 2);
    }
}
