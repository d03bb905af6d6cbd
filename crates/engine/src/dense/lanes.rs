//! Lane-parallel dense execution: many trials of one sweep cell stepped
//! in lockstep.
//!
//! A Monte-Carlo cell runs the *same* `(protocol, graph)` pair over many
//! independent seeds, so every trial shares the compiled transition
//! table, the edge decoder and the graph — only the per-trial RNG stream
//! and configuration differ. The scalar [`crate::DenseExecutor`] walks
//! one serial dependency chain per trial (id read → table lookup → id
//! write); [`LaneDenseExecutor`] holds 2–[`MAX_LANES`] such chains in a
//! structure-of-arrays layout and interleaves them step by step, so the
//! processor overlaps the table-lookup latency of one lane with the
//! others' — the same independent-chain trick the batched draw machinery
//! of [`super::decoder`] plays inside a single trial.
//!
//! **Trace identity is the contract.** Each lane owns a private
//! [`EdgeScheduler`] reset to exactly the seed its trial would receive
//! scalar; the pack interleaves the lanes' draws step-major (each lane's
//! own draw order stays sequential — only the order *between* lanes is
//! interleaved, which the streams cannot observe) and resolves them
//! through the shared edge decoder, so lane `l` consumes, draw for
//! draw, the RNG stream of a scalar [`crate::DenseExecutor`] run with
//! the same seed. The apply loops mirror the scalar hot paths statement
//! for statement (fused branchless update for linear oracles with a
//! fused table, packed compare-and-apply otherwise), which makes every
//! per-trial outcome — stabilization step, elected leader, final
//! configuration — byte-equal to the scalar engine's. The workspace's
//! `lanes_vs_trait` differential suite pins this invariant.
//!
//! Finished trials do not stall the pack: a lane that stabilizes (or
//! exhausts its budget) mid-block retires into the finished queue and
//! frees its slot, and the Monte-Carlo harness
//! ([`crate::monte_carlo::run_trials_lanes`]) immediately reloads it
//! with the next `first_trial` offset. Ragged trial lengths therefore
//! cost idle *lane-steps* only within the current block, never a whole
//! pack barrier.

use super::decoder::{orient, EdgeDecoder, PAIR_BATCH};
use super::table::{CompiledProtocol, StateId};
use crate::protocol::{Protocol, Role, StabilityOracle};
use crate::scheduler::EdgeScheduler;
use popele_graph::clique::clique_decode;
use popele_graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Hard cap on the lane count: slot occupancy is tracked in a `u32`
/// bitmask, and past a few dozen interleaved chains the id tables stop
/// fitting in L1/L2 anyway. The Monte-Carlo harness uses 8–16.
pub const MAX_LANES: usize = 32;

/// Scheduler draws per lane per [`LaneDenseExecutor::run_block`] call
/// on the scalar-interleave paths — the same batch size as the scalar
/// engines' pair buffer ([`PAIR_BATCH`]), so a 16-lane pack buffers at
/// most 4096 pending pairs (32 KiB).
pub const LANE_BLOCK: usize = PAIR_BATCH;

/// Scheduler draws per lane per block on the SIMD path — the settle
/// granularity, matching [`LANE_BLOCK`]'s 256 so every engine tier
/// checks budgets and retires lanes at the same cadence.
const SIMD_BLOCK: usize = PAIR_BATCH;

/// Steps per draw/kernel alternation inside one SIMD block. The raws
/// slab is sized by this, not by the block: at 128 steps it is 4 KiB,
/// small enough to survive in L1 between the draw pass that fills it
/// and the kernel pass that consumes it, yet long enough to amortize
/// the per-call constant setup and pipeline refill of the two kernels.
/// Measured on the fast-protocol clique cell: 32-step alternations run
/// ~15% slower (call overheads, store-to-load forwarding stalls on the
/// just-written slab), 256-step ones within noise of 128 — so the
/// middle of the flat region it is.
const SIMD_SUB: usize = 128;

/// Outcome of one retired lane, in the vocabulary of
/// [`crate::monte_carlo::TrialResult`]: `stabilization_step` is `None`
/// exactly when the trial exhausted its step budget (and then no leader
/// is reported, mirroring the scalar timeout path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneOutcome {
    /// Global trial index the lane was loaded with.
    pub trial: usize,
    /// Stabilization step, or `None` if the budget was exhausted.
    pub stabilization_step: Option<u64>,
    /// Elected leader (when stabilized and unique).
    pub leader: Option<NodeId>,
}

/// Steps up to [`MAX_LANES`] independent trials of one compiled cell in
/// lockstep (structure-of-arrays state, per-lane RNG streams, shared
/// transition table). See the [module docs](self) for the layout and the
/// trace-identity contract.
///
/// # Examples
///
/// ```
/// use popele_engine::{CompiledProtocol, DenseExecutor, LaneDenseExecutor};
/// # use popele_engine::{LeaderCountOracle, Protocol, Role};
/// # #[derive(Clone, Copy)]
/// # struct Absorb;
/// # impl Protocol for Absorb {
/// #     type State = bool;
/// #     type Oracle = LeaderCountOracle;
/// #     fn initial_state(&self, _node: u32) -> bool { true }
/// #     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
/// #         if *a && *b { (true, false) } else { (*a, *b) }
/// #     }
/// #     fn output(&self, s: &bool) -> Role {
/// #         if *s { Role::Leader } else { Role::Follower }
/// #     }
/// #     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
/// # }
///
/// let g = popele_graph::families::clique(16);
/// let compiled = CompiledProtocol::compile_default(&Absorb, 16).unwrap();
/// let mut lanes = LaneDenseExecutor::new(&g, &compiled, 4);
/// for trial in 0..4 {
///     lanes.load(trial, 1000 + trial as u64);
/// }
/// while lanes.num_active() > 0 {
///     lanes.run_block(1 << 22);
/// }
/// while let Some(done) = lanes.take_finished() {
///     // Each lane's outcome is byte-identical to a scalar run with the
///     // same seed.
///     let scalar = DenseExecutor::new(&g, &compiled, 1000 + done.trial as u64)
///         .run_until_stable(1 << 22)
///         .unwrap();
///     assert_eq!(done.stabilization_step, Some(scalar.stabilization_step));
///     assert_eq!(done.leader, scalar.leader);
/// }
/// ```
pub struct LaneDenseExecutor<'a, P: Protocol> {
    graph: &'a Graph,
    compiled: &'a CompiledProtocol<P>,
    num_lanes: usize,
    /// Node count of the bound graph (may be below the compiled count).
    n: usize,
    /// Lane-major configuration: node `v` of lane `l` is
    /// `ids[l * n + v]`, so one lane's row is a contiguous mirror of the
    /// scalar engine's id vector. Stored widened to `u32` (values stay
    /// within [`StateId`]) because the AVX-512 lane kernel updates rows
    /// with 32-bit gathers and scatters — there is no 16-bit scatter.
    ids: Vec<u32>,
    /// One scheduler per lane — each consumes exactly the RNG stream its
    /// trial seed would produce on the scalar engine.
    schedulers: Vec<EdgeScheduler<'a>>,
    /// One typed oracle per lane (consulted only when the protocol's
    /// oracle is not the linear unique-leader count).
    oracles: Vec<P::Oracle>,
    /// Same linear-oracle substitution as the scalar engines: when the
    /// oracle declared [`StabilityOracle::stable_iff_unique_leader`],
    /// per-lane leader counts driven by the compiled deltas are
    /// authoritative and the typed oracles are bypassed.
    linear: bool,
    leaders: Vec<i64>,
    applied: Vec<u64>,
    trial: Vec<usize>,
    /// Bitmask of occupied (loaded, unfinished) lane slots.
    active: u32,
    /// Lane-major pending draws: lane `l` owns
    /// `pairs[l * LANE_BLOCK ..][.. chunk]` per block.
    pairs: Vec<(NodeId, NodeId)>,
    /// Lane-major raw scheduler indices, filled step-major (the draw
    /// interleave that overlaps the lanes' independent RNG chains):
    /// lane `l` owns `raw[l * LANE_BLOCK ..][.. chunk]` per block.
    raw: Box<[usize]>,
    /// Whether the AVX-512 fused clique kernel is usable for this pack:
    /// `avx512f` + `avx512vl` detected at construction, and the node
    /// count within the kernel's in-vector sqrt decode's f32-exactness
    /// bound (`n <= 2048`; see [`simd::fused_chunk`]). When false the
    /// pack falls back to the scalar-interleave chunk runners.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    simd: bool,
    /// Step-major raw scheduler draws for the SIMD kernel: one
    /// [`SIMD_SUB`]-step slab, step `i` at `simd_raws[i * 8 ..][.. 8]`,
    /// one raw per lane position. Groups alternate draw and kernel
    /// passes through this single slab sequentially, so it is sized to
    /// stay L1-resident (see [`SIMD_SUB`]); the kernel decodes raws to
    /// clique pairs in-vector, so the draw pass stores one bare word per
    /// lane-step and stays pinned to the RNG chains' throughput floor.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    simd_raws: Vec<u32>,
    decoder: EdgeDecoder,
    finished: VecDeque<LaneOutcome>,
}

impl<'a, P: Protocol> LaneDenseExecutor<'a, P> {
    /// Creates a pack of `num_lanes` empty lane slots over one compiled
    /// table. Slots are loaded per trial with [`Self::load`].
    ///
    /// # Panics
    ///
    /// Panics if `num_lanes` is outside `2..=`[`MAX_LANES`], the graph
    /// has no edges, or it has more nodes than the protocol was compiled
    /// for.
    #[must_use]
    pub fn new(graph: &'a Graph, compiled: &'a CompiledProtocol<P>, num_lanes: usize) -> Self {
        assert!(
            (2..=MAX_LANES).contains(&num_lanes),
            "lane count must be within 2..={MAX_LANES}, got {num_lanes}"
        );
        assert!(
            graph.num_nodes() <= compiled.num_nodes(),
            "graph size does not match the compiled protocol"
        );
        let n = graph.num_nodes() as usize;
        let linear = compiled.protocol.oracle().stable_iff_unique_leader();
        Self {
            graph,
            compiled,
            num_lanes,
            n,
            ids: vec![0; num_lanes * n],
            schedulers: (0..num_lanes)
                .map(|_| EdgeScheduler::new(graph, 0))
                .collect(),
            oracles: (0..num_lanes).map(|_| compiled.protocol.oracle()).collect(),
            linear,
            leaders: vec![0; num_lanes],
            applied: vec![0; num_lanes],
            trial: vec![0; num_lanes],
            active: 0,
            pairs: vec![(0, 0); num_lanes * LANE_BLOCK],
            raw: vec![0usize; num_lanes * LANE_BLOCK].into_boxed_slice(),
            // The kernel's in-vector sqrt decode is exact only while
            // `(2n - 1)^2` fits f32's 24-bit mantissa; larger cliques
            // take the scalar fused runner.
            simd: simd_available() && n <= 2048,
            simd_raws: vec![0; 8 * SIMD_SUB],
            decoder: EdgeDecoder::for_graph(graph),
            finished: VecDeque::new(),
        }
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Number of lane slots in the pack.
    #[must_use]
    pub fn num_lanes(&self) -> usize {
        self.num_lanes
    }

    /// Number of currently loaded, unfinished lanes.
    #[must_use]
    pub fn num_active(&self) -> usize {
        self.active.count_ones() as usize
    }

    /// Whether at least one lane slot is free for [`Self::load`].
    #[must_use]
    pub fn has_free_lane(&self) -> bool {
        self.num_active() < self.num_lanes
    }

    /// Global trial index loaded in `slot`, or `None` if the slot is
    /// free.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn lane_trial(&self, slot: usize) -> Option<usize> {
        assert!(slot < self.num_lanes, "lane slot out of range");
        (self.active & (1 << slot) != 0).then(|| self.trial[slot])
    }

    /// Steps applied so far by the lane in `slot` (the model's time step
    /// `t` of that trial; the lane's scheduler may have drawn up to one
    /// block further ahead, exactly like the scalar engines' pair
    /// buffer).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn lane_steps(&self, slot: usize) -> u64 {
        assert!(slot < self.num_lanes, "lane slot out of range");
        self.applied[slot]
    }

    /// Current configuration of the lane in `slot` as dense ids — the
    /// lane-major row mirroring [`crate::DenseExecutor::state_ids`]
    /// (narrowed back from the pack's internal `u32` storage; the values
    /// are always within [`StateId`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn lane_state_ids(&self, slot: usize) -> Vec<StateId> {
        assert!(slot < self.num_lanes, "lane slot out of range");
        self.ids[slot * self.n..(slot + 1) * self.n]
            .iter()
            .map(|&id| id as StateId)
            .collect()
    }

    /// Current number of leader-output nodes in `slot` (O(n) scan of the
    /// role table, mirroring [`crate::DenseExecutor::leader_count`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn lane_leader_count(&self, slot: usize) -> usize {
        assert!(slot < self.num_lanes, "lane slot out of range");
        self.ids[slot * self.n..(slot + 1) * self.n]
            .iter()
            .filter(|&&id| self.compiled.roles[id as usize] == Role::Leader)
            .count()
    }

    /// Loads `trial` (seeded `seed`) into a free lane slot and returns
    /// the slot index: the lane's row is reset to the initial
    /// configuration, its scheduler reseeded, its counters zeroed —
    /// exactly a scalar [`crate::DenseExecutor::reset`], confined to one
    /// row.
    ///
    /// A trial that is already stable in the initial configuration
    /// retires immediately with stabilization step 0 (the scalar engine
    /// checks stability before spending budget) and leaves the slot
    /// free.
    ///
    /// # Panics
    ///
    /// Panics if no lane slot is free.
    pub fn load(&mut self, trial: usize, seed: u64) -> usize {
        let free = !self.active & (u32::MAX >> (32 - self.num_lanes));
        assert!(free != 0, "no free lane slot");
        let slot = free.trailing_zeros() as usize;
        let n = self.n;
        let base = slot * n;
        for (dst, &src) in self.ids[base..base + n]
            .iter_mut()
            .zip(&self.compiled.initial[..n])
        {
            *dst = u32::from(src);
        }
        self.schedulers[slot].reset(seed);
        self.applied[slot] = 0;
        self.trial[slot] = trial;
        let row = &self.ids[base..base + n];
        let leaders = row
            .iter()
            .filter(|&&id| self.compiled.roles[id as usize] == Role::Leader)
            .count() as i64;
        self.leaders[slot] = leaders;
        let stable = if self.linear {
            leaders == 1
        } else {
            let row16: Vec<StateId> = row.iter().map(|&id| id as StateId).collect();
            let oracle = &mut self.oracles[slot];
            oracle.recompute(&self.compiled.protocol, &self.compiled.typed_config(&row16));
            oracle.is_stable()
        };
        if stable {
            self.finished.push_back(LaneOutcome {
                trial,
                stabilization_step: Some(0),
                leader: unique_leader(&self.compiled.roles, &self.ids[base..base + n]),
            });
        } else {
            self.active |= 1 << slot;
        }
        slot
    }

    /// Pops one retired trial's outcome, in retirement order.
    pub fn take_finished(&mut self) -> Option<LaneOutcome> {
        self.finished.pop_front()
    }

    /// Advances every active lane by up to one block of interactions
    /// ([`LANE_BLOCK`] steps, or `SIMD_BLOCK` on the vector-kernel
    /// path) against the shared per-trial budget `max_steps` (callers
    /// pass the same budget every call; it is the `max_steps` a scalar
    /// `run_until_stable` would receive).
    ///
    /// The block runs one lockstep *chunk* — the block length,
    /// shortened to the tightest remaining budget among the live lanes
    /// so no lane can overrun `max_steps`. On clique cells with a
    /// linear oracle and a fused table the chunk runs as a single
    /// step-major fused loop (draw, decode, branchless apply — every
    /// lane once per step index), the pack's fastest path; other cells
    /// interleave the raw draws step-major, then gather and apply per
    /// lane. Either way each lane consumes exactly its scalar RNG
    /// stream. A lane that stabilizes retires at exactly the causing
    /// step (remaining drawn raws are discarded — the outcome is fixed,
    /// and the slot is reseeded wholesale on the next [`Self::load`]); a
    /// lane reaching `max_steps` unstabilized retires as a timeout.
    pub fn run_block(&mut self, max_steps: u64) {
        // Collect the lanes consuming this block and the lockstep chunk
        // length.
        // The clique fast paths (vector kernel or scalar fused loop,
        // neither buffering per-lane pairs) take the longer SIMD block;
        // the buffered gather path sticks to its buffers' LANE_BLOCK.
        let clique_fast = self.linear
            && self.compiled.fused.is_some()
            && matches!(self.decoder, EdgeDecoder::Clique(_));
        let cap = if clique_fast && self.simd {
            SIMD_BLOCK
        } else {
            LANE_BLOCK
        };
        let mut live = [0u8; MAX_LANES];
        let mut live_n = 0usize;
        let mut chunk = cap as u64;
        for slot in 0..self.num_lanes {
            if self.active & (1 << slot) == 0 {
                continue;
            }
            let budget = max_steps.saturating_sub(self.applied[slot]);
            if budget == 0 {
                // Loaded under an already-exhausted budget (max_steps
                // 0): the scalar engine reports a timeout without
                // drawing; so does the lane.
                self.finished.push_back(LaneOutcome {
                    trial: self.trial[slot],
                    stabilization_step: None,
                    leader: None,
                });
                self.active &= !(1 << slot);
                continue;
            }
            chunk = chunk.min(budget);
            live[live_n] = slot as u8;
            live_n += 1;
        }
        if live_n == 0 {
            return;
        }
        let live = &live[..live_n];
        let chunk = chunk as usize;
        if clique_fast {
            // The vector kernel pays a fixed per-group cost each step
            // (the gathers and scatters run for all 8 vector lanes, live
            // or not), which beats the scalar interleave only from ~4
            // live lanes up: a pack draining toward empty — the ragged
            // wind-down of a trial pool — degrades to the scalar fused
            // runner instead of dragging dead vector lanes along.
            #[cfg(target_arch = "x86_64")]
            if self.simd && live.len() >= 4 {
                self.run_chunk_simd(live, chunk, max_steps);
                return;
            }
            self.run_chunk_fused(live, chunk, max_steps);
        } else {
            self.run_chunk_gather(live, chunk, max_steps);
        }
    }

    /// The vectorized clique fast path: each 8-lane group alternates a
    /// draw pass ([`simd::draw_chunk`] — the lanes' eight xoshiro256++
    /// streams stepped in vector qword lanes, each reproducing its
    /// scalar stream bit for bit, stored step-major in the shared
    /// [`SIMD_SUB`]-step slab) with the fused kernel
    /// ([`simd::fused_chunk`]) consuming that slab — per step an
    /// in-vector sqrt edge decode, two masked row gathers, one
    /// fused-table gather, two masked row scatters and a vectorized
    /// leader-count update. The short alternation keeps the slab
    /// L1-resident against the kernel's id-row traffic (see
    /// [`SIMD_SUB`]). Each lane's draw order stays sequential — only
    /// the order between lanes changes, which the streams cannot
    /// observe — so trace identity holds by the same argument as the
    /// scalar chunk runners; a stabilizing lane is recorded at its
    /// exact causing step and masked out of the rest of the chunk, its
    /// row and counters frozen, while the other lanes in the group run
    /// on — the draws its stream keeps producing until the group
    /// settles are discarded, just like the scalar engine's buffered
    /// drawn-ahead pairs at retirement.
    #[cfg(target_arch = "x86_64")]
    fn run_chunk_simd(&mut self, live: &[u8], chunk: usize, max_steps: u64) {
        let n = self.n;
        let cn = n as u32;
        let limit = 2 * self.graph.num_edges() as u64;
        let compiled = self.compiled;
        let fused = compiled
            .fused
            .as_deref()
            .expect("simd chunk requires the fused table");
        let roles = &compiled.roles;
        let Self {
            ids,
            schedulers,
            leaders,
            applied,
            trial,
            active,
            finished,
            simd_raws,
            ..
        } = self;
        // Groups are independent sets of independent trials — their
        // relative order is unobservable.
        for group in live.chunks(8) {
            let mut mask: u8 = if group.len() == 8 {
                0xFF
            } else {
                (1u8 << group.len()) - 1
            };
            let occ = mask;
            let mut lvec = [0i32; 8];
            let mut bases = [0i32; 8];
            // The group's RNG states, transposed word-major for the
            // vector draw pass; unoccupied positions keep zeros (their
            // draws land masked-off in the kernel, and the bounded
            // sampler keeps even a degenerate stream's raws in range).
            let mut st = [[0u64; 8]; 4];
            for (pos, &slot) in group.iter().enumerate() {
                // Lossless: a clique cell's leader count is at most `n`,
                // and the decoder caps clique sizes far below `i32::MAX`.
                lvec[pos] = i32::try_from(leaders[slot as usize])
                    .expect("leader count exceeds i32 on a clique cell");
                bases[pos] = (slot as usize * n) as i32;
                let s = schedulers[slot as usize].rng_mut().state();
                for (w, &word) in s.iter().enumerate() {
                    st[w][pos] = word;
                }
            }
            let mut events = [0u32; 8];
            let mut done = 0usize;
            while done < chunk && mask != 0 {
                let sub = SIMD_SUB.min(chunk - done);
                let out = &mut simd_raws[..sub * 8];
                // SAFETY (both kernels): the constructor verified
                // `avx512f` + `avx512vl` at runtime and capped `n` at
                // 2048 (`self.simd` gates this call), so the fused
                // kernel's f32 decode is exact. The draw kernel writes
                // exactly `sub * 8` raws into `out` and bounds each by
                // `limit = 2m`, so the decode yields nodes below `n`
                // and every masked-on gather/scatter index
                // `bases[pos] + node` stays within `ids`; row ids stay
                // below 256 (fused-table invariant), bounding the fused
                // gather index below `fused.len()`.
                unsafe {
                    simd::draw_chunk(&mut st, limit, occ, out);
                    simd::fused_chunk(
                        ids,
                        fused,
                        out,
                        sub,
                        cn,
                        &bases,
                        &mut mask,
                        &mut lvec,
                        &mut events,
                        done as u32,
                    );
                }
                done += sub;
            }
            // Hand each advanced stream back to its scheduler — the
            // state a scalar run would hold after the same draws — and
            // account them, so a later degradation to the scalar-
            // interleave runners (or any scheduler-side inspection)
            // continues the identical stream.
            for (pos, &slot) in group.iter().enumerate() {
                let scheduler = &mut schedulers[slot as usize];
                let s = [st[0][pos], st[1][pos], st[2][pos], st[3][pos]];
                scheduler.rng_mut().set_state(s);
                scheduler.add_steps(done as u64);
            }
            for (pos, &slot) in group.iter().enumerate() {
                let slot = slot as usize;
                leaders[slot] = i64::from(lvec[pos]);
                if events[pos] != 0 {
                    applied[slot] += u64::from(events[pos]);
                    let base = slot * n;
                    finished.push_back(LaneOutcome {
                        trial: trial[slot],
                        stabilization_step: Some(applied[slot]),
                        leader: unique_leader(roles, &ids[base..base + n]),
                    });
                    *active &= !(1 << slot);
                } else {
                    applied[slot] += chunk as u64;
                    if applied[slot] == max_steps {
                        finished.push_back(LaneOutcome {
                            trial: trial[slot],
                            stabilization_step: None,
                            leader: None,
                        });
                        *active &= !(1 << slot);
                    }
                }
            }
        }
    }

    /// The clique fast path: RNG draw, arithmetic edge decode and
    /// branchless fused-table apply in one step-major loop over the live
    /// lanes — the lane-parallel mirror of the scalar engine's fused
    /// clique runner. Per step index every live lane advances once, so
    /// the lanes' serial RNG chains and table-walk chains overlap in the
    /// pipeline: that interleave is where the pack earns its aggregate
    /// speedup over running the same trials back to back. A stabilizing
    /// lane cuts the chunk at exactly the causing lane-step (retirement
    /// is once per trial, so the abandoned tail is noise) and the
    /// survivors' step counts are settled from the interleave position.
    fn run_chunk_fused(&mut self, live: &[u8], chunk: usize, max_steps: u64) {
        let n = self.n;
        let compiled = self.compiled;
        let fused = compiled
            .fused
            .as_deref()
            .expect("fused chunk requires the fused table");
        let roles = &compiled.roles;
        let Self {
            ids,
            schedulers,
            leaders,
            applied,
            trial,
            active,
            finished,
            decoder,
            ..
        } = self;
        let EdgeDecoder::Clique(index) = decoder else {
            unreachable!("fused chunk requires the clique decoder")
        };
        let (cn, shift, row_hint) = index.parts();
        // `(step, live-index)` of the stability event that cut the chunk
        // short, if any.
        let mut stopped = None;
        'block: for i in 0..chunk {
            for (j, &slot) in live.iter().enumerate() {
                let slot = slot as usize;
                let r = schedulers[slot].next_raw();
                let (u, v) = clique_decode((r >> 1) as u32, cn, shift, row_hint);
                let (u, v) = orient(u, v, r);
                let base = slot * n;
                let (iu, iv) = (base + u as usize, base + v as usize);
                let a = ids[iu];
                let b = ids[iv];
                let entry = fused[((a as usize) << 8) | b as usize];
                ids[iu] = (entry >> 8) & 0xFF;
                ids[iv] = entry & 0xFF;
                leaders[slot] += i64::from(entry >> 16) - 2;
                if leaders[slot] == 1 {
                    stopped = Some((i, j));
                    break 'block;
                }
            }
        }
        // Settle the applied counts from the interleave position: on an
        // early stop at `(i, sj)` the lanes up to and including `sj`
        // executed step `i`, the rest stopped one step short.
        for (j, &slot) in live.iter().enumerate() {
            let slot = slot as usize;
            applied[slot] += match stopped {
                Some((i, sj)) => i as u64 + u64::from(j <= sj),
                None => chunk as u64,
            };
        }
        if let Some((_, sj)) = stopped {
            let slot = live[sj] as usize;
            let base = slot * n;
            finished.push_back(LaneOutcome {
                trial: trial[slot],
                stabilization_step: Some(applied[slot]),
                leader: unique_leader(roles, &ids[base..base + n]),
            });
            *active &= !(1 << slot);
        }
        // Budget exhaustion: the chunk was cut to the tightest budget,
        // so a lane can reach `max_steps` only at the chunk boundary
        // (stability above wins ties, as in the scalar engine).
        for &slot in live {
            let slot = slot as usize;
            if *active & (1 << slot) != 0 && applied[slot] == max_steps {
                finished.push_back(LaneOutcome {
                    trial: trial[slot],
                    stabilization_step: None,
                    leader: None,
                });
                *active &= !(1 << slot);
            }
        }
    }

    /// The general path: raw draws interleaved step-major across lanes
    /// (overlapping the independent per-lane RNG chains, the serial
    /// bottleneck of a scalar run), then per-lane decoder gathers and a
    /// tight scalar-mirror apply loop per lane. Lanes are independent
    /// here: one lane stabilizing mid-chunk stops only its own applies,
    /// and its drawn-ahead raws are discarded exactly like the scalar
    /// engine's buffered pairs at stabilization.
    fn run_chunk_gather(&mut self, live: &[u8], chunk: usize, max_steps: u64) {
        // Phase 1: step-major interleaved draws, lane-major storage.
        {
            let raw = &mut self.raw;
            for i in 0..chunk {
                for &slot in live {
                    let slot = slot as usize;
                    raw[slot * LANE_BLOCK + i] = self.schedulers[slot].next_raw();
                }
            }
        }
        // Phase 2: per-lane gathers through the shared decoder — the
        // same raw-to-pair resolution the scalar refill performs. Only
        // the off-clique packed and CSR decoders gather from tables built
        // out of an edge list; an implicit clique is never materialized.
        for &slot in live {
            let base = (slot as usize) * LANE_BLOCK;
            self.decoder.gather(
                &self.schedulers[slot as usize],
                &self.raw[base..base + chunk],
                &mut self.pairs[base..base + chunk],
            );
        }
        // Phase 3: per-lane applies, each a statement-for-statement
        // mirror of the scalar batch hot loop (branchless fused update
        // for linear oracles with a fused table, packed compare-and-
        // apply otherwise; stability is checked after every fused step
        // but only after a state change on the compare path — a no-op
        // can never flip stability).
        let n = self.n;
        let compiled = self.compiled;
        let k = compiled.states.len();
        let table = &compiled.table;
        let delta = &compiled.leader_delta;
        let states = &compiled.states;
        let roles = &compiled.roles;
        let linear = self.linear;
        let fused = if linear {
            compiled.fused.as_deref()
        } else {
            None
        };
        let Self {
            ids,
            oracles,
            leaders,
            applied,
            trial,
            active,
            pairs,
            finished,
            ..
        } = self;
        for &slot in live {
            let slot = slot as usize;
            let base = slot * n;
            let row = &mut ids[base..base + n];
            let lane_pairs = &pairs[slot * LANE_BLOCK..slot * LANE_BLOCK + chunk];
            let mut done = 0u64;
            let mut stable = false;
            if let Some(fused) = fused {
                for &(u, v) in lane_pairs {
                    let (iu, iv) = (u as usize, v as usize);
                    let a = row[iu];
                    let b = row[iv];
                    done += 1;
                    let entry = fused[((a as usize) << 8) | b as usize];
                    row[iu] = (entry >> 8) & 0xFF;
                    row[iv] = entry & 0xFF;
                    leaders[slot] += i64::from(entry >> 16) - 2;
                    if leaders[slot] == 1 {
                        stable = true;
                        break;
                    }
                }
            } else {
                for &(u, v) in lane_pairs {
                    let (iu, iv) = (u as usize, v as usize);
                    let a = row[iu];
                    let b = row[iv];
                    done += 1;
                    let idx = a as usize * k + b as usize;
                    let packed = table[idx];
                    if packed != ((a << 16) | b) {
                        let na = packed >> 16;
                        let nb = packed & 0xFFFF;
                        if linear {
                            leaders[slot] += i64::from(delta[idx]);
                            stable = leaders[slot] == 1;
                        } else {
                            oracles[slot].apply(
                                &compiled.protocol,
                                (&states[a as usize], &states[b as usize]),
                                (&states[na as usize], &states[nb as usize]),
                            );
                            stable = oracles[slot].is_stable();
                        }
                        row[iu] = na;
                        row[iv] = nb;
                        if stable {
                            break;
                        }
                    }
                }
            }
            applied[slot] += done;
            if stable {
                finished.push_back(LaneOutcome {
                    trial: trial[slot],
                    stabilization_step: Some(applied[slot]),
                    leader: unique_leader(roles, row),
                });
                *active &= !(1 << slot);
            } else if applied[slot] == max_steps {
                finished.push_back(LaneOutcome {
                    trial: trial[slot],
                    stabilization_step: None,
                    leader: None,
                });
                *active &= !(1 << slot);
            }
        }
    }
}

/// Down-bias applied to the SIMD kernel's f32 row root before
/// truncation: larger than the computation's rounding error (under
/// `2^-12` at the `n <= 2048` gate, so the candidate row never lands
/// high even when the root rounds up) yet far below 1 (so it lands at
/// most one row low, which the kernel's single masked step up settles).
/// Shared with the exhaustive decode-replica test.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const ROW_BIAS: f32 = 1.0 / 512.0;

/// Runtime check for the AVX-512 lane kernel: `avx512f` (foundation) for
/// the masked gathers/scatters plus `avx512vl` for their 256-bit forms.
/// Checked once per pack construction; everywhere else the cached
/// `simd` flag gates the `unsafe` kernel call.
fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The AVX-512 fused clique kernel: one 8-lane group advanced a whole
/// chunk, each vector lane an independent trial. This is the only
/// `unsafe` in the workspace — it is confined to this module, entered
/// solely through the runtime-feature-gated call in
/// [`LaneDenseExecutor::run_block`]'s SIMD chunk runner, and touches
/// memory only through bounds-explained masked gathers and scatters.
#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::{
        __m256i, __mmask8, _mm256_add_epi32, _mm256_and_si256, _mm256_cmpge_epu32_mask,
        _mm256_cvtepi32_ps, _mm256_cvttps_epi32, _mm256_loadu_si256, _mm256_mask_add_epi32,
        _mm256_mask_cmpeq_epi32_mask, _mm256_mask_i32scatter_epi32, _mm256_mmask_i32gather_epi32,
        _mm256_mul_ps, _mm256_mullo_epi32, _mm256_or_si256, _mm256_set1_epi32, _mm256_set1_ps,
        _mm256_setzero_si256, _mm256_slli_epi32, _mm256_sqrt_ps, _mm256_srli_epi32,
        _mm256_storeu_si256, _mm256_sub_epi32, _mm256_sub_ps, _mm256_xor_si256, _mm512_add_epi64,
        _mm512_and_si512, _mm512_cvtepi64_epi32, _mm512_loadu_epi64, _mm512_mask_cmplt_epu64_mask,
        _mm512_mul_epu32, _mm512_or_si512, _mm512_rol_epi64, _mm512_set1_epi64, _mm512_slli_epi64,
        _mm512_srli_epi64, _mm512_storeu_epi64, _mm512_xor_si512,
    };

    /// Advances one 8-lane group `chunk` lockstep steps through the
    /// fused transition table: per step, the raw draws decode to edge
    /// endpoints with vector arithmetic (see below), masked gathers load
    /// the two row ids and the fused entry of every live vector lane,
    /// masked scatters write the successor ids back, and the packed
    /// leader deltas update a leader-count vector whose compare-mask
    /// detects stabilization — the statement-for-statement vector mirror
    /// of the scalar fused clique loop. The caller alternates short
    /// draw passes with calls to this kernel over one L1-resident slab,
    /// threading `mask` and the running step offset `base` through the
    /// alternation.
    ///
    /// The decode replaces the scalar path's hint-table walk
    /// ([`popele_graph::clique::clique_decode`]) with the closed form:
    /// the row of edge `e` is the largest `u` with `start(u) <= e` where
    /// `start(u) = u * (2n - 1 - u) / 2`, and the real root
    /// `x = (A - sqrt(A^2 - 8e)) / 2` with `A = 2n - 1` satisfies
    /// `x in [u, u + 1)`. Computed in f32 every intermediate is below
    /// `2^24` for `n <= 2048` — exact but for the correctly-rounded sqrt
    /// (error under `2^-12` here) — so truncating `x` biased down by
    /// `2^-9` (far above the rounding error, far below the gap to
    /// `u + 1`) yields `u` or `u - 1`, never more and never high; one
    /// masked step up (the row starts move by exactly the row length —
    /// no re-multiplication) settles `u` precisely. The biased decode
    /// agrees bit for bit with the scalar walk on every edge index,
    /// which keeps the kernel's trace identical to the scalar engine's
    /// (`decode_replica_matches_hint_walk_exhaustively` checks that by
    /// exhaustion at the gate boundary).
    ///
    /// `raws` holds the step-major raw scheduler words
    /// (`raws[step * 8 + pos]`, low bit the orientation, rest the edge
    /// index), `cn` the clique's node count, `bases` each vector lane's
    /// row offset into `ids`, `mask` the live vector lanes on entry —
    /// updated in place for the caller's next alternation. A lane whose
    /// leader count hits 1 records `base` plus its 1-based chunk step in
    /// `events[pos]` and is cleared from the mask, so its row and leader
    /// count freeze at exactly the causing step while the rest of the
    /// group continues; the kernel returns early once the mask empties.
    /// `leaders` is updated in place to each lane's final count.
    ///
    /// # Safety
    ///
    /// Callers must ensure `avx512f` and `avx512vl` are available, that
    /// `cn <= 2048` (the f32-exactness bound above) with every entry of
    /// `raws` below `2m = cn * (cn - 1)` (so the decoded endpoints
    /// stay below `cn`; stale entries at masked-off positions are
    /// decoded too — harmlessly, their gathers and scatters being masked
    /// off — and must respect the same bound), that `raws` holds at
    /// least `chunk * 8` entries with `bases[pos] + node` indexing
    /// within `ids` for every `node < cn`, and that every id stored in
    /// `ids` stays below 256 with `fused` holding the full `256 * 256`
    /// entry fused table (so the gathered fused index is in bounds).
    #[target_feature(enable = "avx512f,avx512vl")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn fused_chunk(
        ids: &mut [u32],
        fused: &[u32],
        raws: &[u32],
        chunk: usize,
        cn: u32,
        bases: &[i32; 8],
        mask: &mut __mmask8,
        leaders: &mut [i32; 8],
        events: &mut [u32; 8],
        base: u32,
    ) {
        debug_assert!(raws.len() >= chunk * 8);
        debug_assert!(cn <= 2048, "sqrt decode is f32-exact only up to n = 2048");
        let idp: *mut i32 = ids.as_mut_ptr().cast();
        let fp: *const i32 = fused.as_ptr().cast();
        let zero = _mm256_setzero_si256();
        let one = _mm256_set1_epi32(1);
        let two = _mm256_set1_epi32(2);
        let lo8 = _mm256_set1_epi32(0xFF);
        let a_i = 2 * cn as i32 - 1;
        let av = _mm256_set1_epi32(a_i);
        let cn1 = _mm256_set1_epi32(cn as i32 - 1);
        let a_f = _mm256_set1_ps(a_i as f32);
        let a2_f = _mm256_set1_ps((a_i as f32) * (a_i as f32));
        let half_f = _mm256_set1_ps(0.5);
        let eight_f = _mm256_set1_ps(8.0);
        let bias_f = _mm256_set1_ps(super::ROW_BIAS);
        let bv = _mm256_loadu_si256(bases.as_ptr().cast::<__m256i>());
        let mut lv = _mm256_loadu_si256(leaders.as_ptr().cast::<__m256i>());
        let mut m: __mmask8 = *mask;
        for i in 0..chunk {
            let rv = _mm256_loadu_si256(raws.as_ptr().add(i * 8).cast::<__m256i>());
            let e = _mm256_srli_epi32(rv, 1);
            // Candidate row from the down-biased f32 closed form: `u` or
            // `u - 1`, never high (see the type docs).
            let ef = _mm256_cvtepi32_ps(e);
            let s = _mm256_sqrt_ps(_mm256_sub_ps(a2_f, _mm256_mul_ps(eight_f, ef)));
            let uf = _mm256_sub_ps(_mm256_mul_ps(_mm256_sub_ps(a_f, s), half_f), bias_f);
            let mut u = _mm256_cvttps_epi32(uf);
            let mut start = _mm256_srli_epi32(_mm256_mullo_epi32(u, _mm256_sub_epi32(av, u)), 1);
            // Settle: one masked step up, by the candidate row's length
            // `n - 1 - u` (exactly `start(u + 1) - start(u)`).
            let rowlen = _mm256_sub_epi32(cn1, u);
            let over = _mm256_cmpge_epu32_mask(_mm256_sub_epi32(e, start), rowlen);
            start = _mm256_mask_add_epi32(start, over, start, rowlen);
            u = _mm256_mask_add_epi32(u, over, u, one);
            let v = _mm256_add_epi32(u, _mm256_add_epi32(one, _mm256_sub_epi32(e, start)));
            // Branchless orientation swap by the draw's low bit — the
            // vector mirror of `decoder::orient`.
            let sw = _mm256_sub_epi32(zero, _mm256_and_si256(rv, one));
            let x = _mm256_and_si256(_mm256_xor_si256(u, v), sw);
            let iuv = _mm256_add_epi32(bv, _mm256_xor_si256(u, x));
            let ivv = _mm256_add_epi32(bv, _mm256_xor_si256(v, x));
            let a = _mm256_mmask_i32gather_epi32(zero, m, iuv, idp, 4);
            let b = _mm256_mmask_i32gather_epi32(zero, m, ivv, idp, 4);
            let fidx = _mm256_or_si256(_mm256_slli_epi32(a, 8), b);
            let entry = _mm256_mmask_i32gather_epi32(zero, m, fidx, fp, 4);
            let na = _mm256_and_si256(_mm256_srli_epi32(entry, 8), lo8);
            let nb = _mm256_and_si256(entry, lo8);
            // In-lane the two scatter targets differ (`u != v` on a
            // simple graph) and across lanes the rows are disjoint, so
            // the two scatters never collide. (Suppressing no-op writes
            // behind a changed-mask compare was measured slower: the
            // compare joins the gather→scatter dependency chain, and
            // the scatters' port pressure is not the bottleneck.)
            _mm256_mask_i32scatter_epi32(idp, m, iuv, na, 4);
            _mm256_mask_i32scatter_epi32(idp, m, ivv, nb, 4);
            let delta = _mm256_sub_epi32(_mm256_srli_epi32(entry, 16), two);
            lv = _mm256_mask_add_epi32(lv, m, lv, delta);
            let em = _mm256_mask_cmpeq_epi32_mask(m, lv, one);
            if em != 0 {
                let mut e = em;
                while e != 0 {
                    let pos = e.trailing_zeros() as usize;
                    events[pos] = base + (i + 1) as u32;
                    e &= e - 1;
                }
                m &= !em;
                if m == 0 {
                    break;
                }
            }
        }
        _mm256_storeu_si256(leaders.as_mut_ptr().cast::<__m256i>(), lv);
        *mask = m;
    }

    /// Steps eight xoshiro256++ streams one vector qword lane each for
    /// `out.len() / 8` draws, bounding every draw into `0..limit` with
    /// the vendored `rand` crate's exact Lemire multiply-shift
    /// algorithm, and stores the raws step-major into `out`
    /// (`out[step * 8 + pos]`). The generator update, the multiply-
    /// shift and the rejection test all vectorize (the 64×64→128
    /// product of a `limit < 2^32` splits into two `vpmuludq` halves);
    /// the rejection *retry* — probability `limit / 2^64` per draw,
    /// never yet observed at this workspace's `limit < 2^22` — spills
    /// to [`lemire_reject`], which replays the scalar retry loop on the
    /// affected stream so the draw sequence stays bit-identical to the
    /// scalar scheduler's. `st` holds the streams' state words
    /// transposed (`st[word][pos]`), advanced in place; `occ` flags the
    /// positions holding real lanes — unoccupied positions may carry
    /// any state (even the degenerate all-zero one) and are excluded
    /// from rejection handling, while the multiply-shift still bounds
    /// their stored raws below `limit`.
    ///
    /// # Safety
    ///
    /// Callers must ensure `avx512f` is available and
    /// `0 < limit < 2^32` (the split-product bound; the engine's
    /// `2m < 2^23` is far inside it). `out.len()` must be a multiple
    /// of 8.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn draw_chunk(
        st: &mut [[u64; 8]; 4],
        limit: u64,
        occ: __mmask8,
        out: &mut [u32],
    ) {
        debug_assert!(out.len().is_multiple_of(8));
        debug_assert!(limit > 0 && limit < (1 << 32));
        let np = _mm512_set1_epi64(limit as i64);
        let lo32 = _mm512_set1_epi64(0xFFFF_FFFF);
        let mut s0 = _mm512_loadu_epi64(st[0].as_ptr().cast());
        let mut s1 = _mm512_loadu_epi64(st[1].as_ptr().cast());
        let mut s2 = _mm512_loadu_epi64(st[2].as_ptr().cast());
        let mut s3 = _mm512_loadu_epi64(st[3].as_ptr().cast());
        for i in 0..out.len() / 8 {
            // xoshiro256++ next_u64, eight states side by side.
            let x = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(s0, s3)), s0);
            let t = _mm512_slli_epi64::<17>(s1);
            s2 = _mm512_xor_si512(s2, s0);
            s3 = _mm512_xor_si512(s3, s1);
            s1 = _mm512_xor_si512(s1, s2);
            s0 = _mm512_xor_si512(s0, s3);
            s2 = _mm512_xor_si512(s2, t);
            s3 = _mm512_rol_epi64::<45>(s3);
            // The 128-bit product `x * limit` of Lemire's method, split
            // on 32-bit halves: with `b = lo32(x) * limit` and
            // `a = hi32(x) * limit`, the draw (the product's high
            // 64 bits) is `(a + (b >> 32)) >> 32` and the rejection
            // word (its low 64 bits) `((a + (b >> 32)) << 32) | lo32(b)`.
            let b = _mm512_mul_epu32(x, np);
            let a = _mm512_mul_epu32(_mm512_srli_epi64::<32>(x), np);
            let s = _mm512_add_epi64(a, _mm512_srli_epi64::<32>(b));
            let idx = _mm512_srli_epi64::<32>(s);
            _mm256_storeu_si256(
                out.as_mut_ptr().add(i * 8).cast::<__m256i>(),
                _mm512_cvtepi64_epi32(idx),
            );
            let lo = _mm512_or_si512(_mm512_slli_epi64::<32>(s), _mm512_and_si512(b, lo32));
            let rej = _mm512_mask_cmplt_epu64_mask(occ, lo, np);
            if rej != 0 {
                // A real lane entered the scalar sampler's retry zone:
                // spill the states, replay its exact retry loop, reload.
                _mm512_storeu_epi64(st[0].as_mut_ptr().cast(), s0);
                _mm512_storeu_epi64(st[1].as_mut_ptr().cast(), s1);
                _mm512_storeu_epi64(st[2].as_mut_ptr().cast(), s2);
                _mm512_storeu_epi64(st[3].as_mut_ptr().cast(), s3);
                let mut lo_arr = [0u64; 8];
                _mm512_storeu_epi64(lo_arr.as_mut_ptr().cast(), lo);
                let mut r = rej;
                while r != 0 {
                    let pos = r.trailing_zeros() as usize;
                    let slot = &mut out[i * 8 + pos];
                    *slot = lemire_reject(st, pos, limit, lo_arr[pos], *slot);
                    r &= r - 1;
                }
                s0 = _mm512_loadu_epi64(st[0].as_ptr().cast());
                s1 = _mm512_loadu_epi64(st[1].as_ptr().cast());
                s2 = _mm512_loadu_epi64(st[2].as_ptr().cast());
                s3 = _mm512_loadu_epi64(st[3].as_ptr().cast());
            }
        }
        _mm512_storeu_epi64(st[0].as_mut_ptr().cast(), s0);
        _mm512_storeu_epi64(st[1].as_mut_ptr().cast(), s1);
        _mm512_storeu_epi64(st[2].as_mut_ptr().cast(), s2);
        _mm512_storeu_epi64(st[3].as_mut_ptr().cast(), s3);
    }

    /// The scalar tail of the vendored `rand` crate's bounded sampler,
    /// replayed for one stream of [`draw_chunk`] whose draw fell into
    /// the retry zone (`lo < limit`): compute the retry threshold and
    /// redraw — advancing that stream alone, exactly as the scalar
    /// scheduler would — until the rejection word clears it. Returns
    /// the accepted draw (`idx0` unchanged when the zone test passes
    /// immediately, mirroring the vendored `bounded_u64`).
    #[cold]
    fn lemire_reject(st: &mut [[u64; 8]; 4], pos: usize, limit: u64, lo0: u64, idx0: u32) -> u32 {
        let threshold = limit.wrapping_neg() % limit;
        let mut lo = lo0;
        let mut idx = u64::from(idx0);
        while lo < threshold {
            let s0 = st[0][pos];
            let x = s0.wrapping_add(st[3][pos]).rotate_left(23).wrapping_add(s0);
            let t = st[1][pos] << 17;
            st[2][pos] ^= st[0][pos];
            st[3][pos] ^= st[1][pos];
            st[1][pos] ^= st[2][pos];
            st[0][pos] ^= st[3][pos];
            st[2][pos] ^= t;
            st[3][pos] = st[3][pos].rotate_left(45);
            let m = u128::from(x) * u128::from(limit);
            lo = m as u64;
            idx = (m >> 64) as u64;
        }
        idx as u32
    }
}

/// The unique leader of a lane row, if exactly one node outputs leader
/// (mirrors [`crate::DenseExecutor::leader`]).
fn unique_leader(roles: &[Role], row: &[u32]) -> Option<NodeId> {
    let mut found = None;
    for (v, &id) in row.iter().enumerate() {
        if roles[id as usize] == Role::Leader {
            if found.is_some() {
                return None;
            }
            found = Some(v as NodeId);
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseExecutor;
    use crate::protocol::LeaderCountOracle;
    use popele_graph::families;

    /// Initiator absorbs the responder's leadership (stabilizes on
    /// cliques).
    #[derive(Clone, Copy)]
    struct Absorb;

    impl Protocol for Absorb {
        type State = bool;
        type Oracle = LeaderCountOracle;

        fn initial_state(&self, _node: NodeId) -> bool {
            true
        }

        fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
            if *a && *b {
                (true, false)
            } else {
                (*a, *b)
            }
        }

        fn output(&self, s: &bool) -> Role {
            if *s {
                Role::Leader
            } else {
                Role::Follower
            }
        }

        fn oracle(&self) -> LeaderCountOracle {
            LeaderCountOracle::new()
        }
    }

    fn scalar_outcome(
        g: &Graph,
        compiled: &CompiledProtocol<Absorb>,
        seed: u64,
        max_steps: u64,
    ) -> (Option<u64>, Option<NodeId>) {
        let mut exec = DenseExecutor::new(g, compiled, seed);
        match exec.run_until_stable(max_steps) {
            Ok(out) => (Some(out.stabilization_step), out.leader),
            Err(_) => (None, None),
        }
    }

    #[test]
    fn lanes_match_scalar_outcomes_with_retire_and_refill() {
        // 11 trials through 4 lanes: ragged retirement and refills, and
        // a final partial pack. Every outcome must equal the scalar
        // engine's for the same seed.
        let g = families::clique(16);
        let compiled = CompiledProtocol::compile_default(&Absorb, 16).unwrap();
        let max_steps = 1u64 << 22;
        let mut lanes = LaneDenseExecutor::new(&g, &compiled, 4);
        let mut next = 0usize;
        let mut done = Vec::new();
        loop {
            while lanes.has_free_lane() && next < 11 {
                lanes.load(next, 9000 + next as u64);
                next += 1;
            }
            while let Some(out) = lanes.take_finished() {
                done.push(out);
            }
            if lanes.num_active() == 0 && next == 11 {
                break;
            }
            lanes.run_block(max_steps);
        }
        assert_eq!(done.len(), 11);
        for out in done {
            let (steps, leader) = scalar_outcome(&g, &compiled, 9000 + out.trial as u64, max_steps);
            assert_eq!(out.stabilization_step, steps, "trial {}", out.trial);
            assert_eq!(out.leader, leader, "trial {}", out.trial);
        }
    }

    #[test]
    fn lane_rows_track_scalar_configurations_blockwise() {
        // Non-clique graph (packed decoder, no fused path): after every
        // block each still-active lane's row must equal the scalar
        // configuration at the same step count.
        let g = families::cycle(12);
        let compiled = CompiledProtocol::compile_default(&Absorb, 12).unwrap();
        let mut lanes = LaneDenseExecutor::new(&g, &compiled, 3);
        let seeds = [5u64, 6, 7];
        let mut scalars: Vec<_> = seeds
            .iter()
            .map(|&s| DenseExecutor::new(&g, &compiled, s))
            .collect();
        for (t, &s) in seeds.iter().enumerate() {
            lanes.load(t, s);
        }
        for _ in 0..8 {
            lanes.run_block(u64::MAX);
            for slot in 0..3 {
                let Some(trial) = lanes.lane_trial(slot) else {
                    continue;
                };
                let scalar = &mut scalars[trial];
                let target = lanes.lane_steps(slot);
                scalar.run_steps(target - scalar.steps());
                assert_eq!(lanes.lane_state_ids(slot), scalar.state_ids());
                assert_eq!(lanes.lane_leader_count(slot), scalar.leader_count());
            }
        }
    }

    #[test]
    fn decode_replica_matches_hint_walk_exhaustively() {
        // Scalar f32 replica of the SIMD kernel's row decode — the same
        // IEEE operations, step for step (i32-to-f32 convert, exact
        // mul/sub below 2^24, correctly-rounded sqrt, truncating
        // convert) — checked against the reference triangular walk and
        // the shared clique index by exhaustion over every edge index,
        // at sizes including the `n <= 2048` f32-exactness gate boundary.
        for n in [2u32, 3, 5, 16, 1000, 2047, 2048] {
            let index = popele_graph::clique::CliqueIndex::new(n);
            let a = 2 * n - 1;
            let a_f = a as f32;
            let a2_f = a_f * a_f;
            let m = n * (n - 1) / 2;
            let mut u_ref = 0u32;
            let mut start_ref = 0u32;
            for e in 0..m {
                while e - start_ref >= n - 1 - u_ref {
                    start_ref += n - 1 - u_ref;
                    u_ref += 1;
                }
                let v_ref = u_ref + 1 + (e - start_ref);
                let s = (a2_f - 8.0 * e as f32).sqrt();
                let mut u = ((a_f - s) * 0.5 - ROW_BIAS) as i32 as u32;
                let mut start = (u * (a - u)) >> 1;
                // The down-biased candidate is never above the true row,
                // so its start is never above `e` and one step up
                // settles it.
                assert!(start <= e, "candidate row overshoots: n {n} e {e}");
                let rowlen = n - 1 - u;
                if e - start >= rowlen {
                    start += rowlen;
                    u += 1;
                }
                let v = u + 1 + (e - start);
                assert_eq!((u, v), (u_ref, v_ref), "n {n} e {e}");
                assert_eq!((u, v), index.edge(u64::from(e)), "n {n} e {e}");
            }
        }
    }

    #[test]
    fn budget_exhaustion_retires_as_timeout() {
        let g = families::clique(20);
        let compiled = CompiledProtocol::compile_default(&Absorb, 20).unwrap();
        let mut lanes = LaneDenseExecutor::new(&g, &compiled, 2);
        lanes.load(0, 5);
        lanes.load(1, 6);
        // 3 steps cannot merge 20 leaders into one.
        while lanes.num_active() > 0 {
            lanes.run_block(3);
        }
        let mut timeouts = 0;
        while let Some(out) = lanes.take_finished() {
            assert_eq!(out.stabilization_step, None);
            assert_eq!(out.leader, None);
            timeouts += 1;
        }
        assert_eq!(timeouts, 2);
    }

    #[test]
    fn step_zero_stability_retires_without_activating() {
        // A 1-leader initial configuration is stable before any draw.
        let g = families::clique(2);
        // Absorb starts all-leaders; use a star protocol shape instead:
        // n = 2 clique with one absorb step is not step-0 stable, so
        // emulate with a single-node-leader initial via StarLike.
        #[derive(Clone, Copy)]
        struct StarLike;
        impl Protocol for StarLike {
            type State = bool;
            type Oracle = LeaderCountOracle;
            fn initial_state(&self, node: NodeId) -> bool {
                node == 0
            }
            fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
                (*a, *b)
            }
            fn output(&self, s: &bool) -> Role {
                if *s {
                    Role::Leader
                } else {
                    Role::Follower
                }
            }
            fn oracle(&self) -> LeaderCountOracle {
                LeaderCountOracle::new()
            }
        }
        let compiled = CompiledProtocol::compile_default(&StarLike, 2).unwrap();
        let mut lanes = LaneDenseExecutor::new(&g, &compiled, 2);
        let slot = lanes.load(7, 99);
        assert_eq!(lanes.lane_trial(slot), None, "slot must stay free");
        let out = lanes.take_finished().expect("retired at load");
        assert_eq!(out.trial, 7);
        assert_eq!(out.stabilization_step, Some(0));
        assert_eq!(out.leader, Some(0));
    }
}
