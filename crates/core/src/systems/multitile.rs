//! Multi-tile FUSION: several accelerator tiles sharing one host.
//!
//! The paper notes that "the system can support multiple accelerator
//! tiles" (Section 3.1) with all accelerators of one application
//! collocated on one tile. This system runs one workload per tile: each
//! tile registers as its own MESI agent at the host L2 directory, keeps
//! its own L0Xs/L1X/ACC state and its own AX-RMAP, and the offloaded
//! programs' phases contend for L2 capacity and directory bandwidth while
//! staying fully isolated by PID tags.
//!
//! # Tile-parallel replay (DESIGN.md §12)
//!
//! Tiles advance in *rounds*: round *r* runs every unfinished program's
//! *r*-th phase. All tiles start a round together at the arbitration
//! point (the barrier over the previous round's completion times), replay
//! their phase against a **mirror** of the host state as of the round
//! start, and log every host-side interaction they perform. At the next
//! arbitration point the logs commit to the authoritative host in
//! canonical **(tile index, event sequence)** order — a pure function of
//! the logs, never of thread timing — so every thread count gives
//! bit-identical results by construction, not by luck. Between
//! arbitration points no tile touches another tile's state: cross-tile
//! effects (inclusive-L2 recalls pulling a line out of a foreign tile)
//! commit only at the merge.
//!
//! Each worker keeps one mirror for the whole run instead of cloning the
//! host per tile-phase. Right before a replay the worker syncs its mirror
//! with the authoritative host: it copies the L2 sets its own last replay
//! touched plus those every merge since touched, and the small host
//! structures whole.
//!
//! Consequences of the model, by design:
//! - A tile observes other tiles' L2/directory effects with one-round
//!   granularity (the mirror holds the round-start state).
//! - The latency of a cross-tile recall is not charged to the requester's
//!   critical path (the speculative response treats the foreign copy as
//!   already released); its state and energy effects commit at the merge.
//! - Per-tile ledgers, latencies and protocol counters come from the
//!   speculative replay (each tile's own, deterministic); the shared host
//!   state advances only through the merge.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, PoisonError, RwLock};

use fusion_accel::ooo::{run_host_phase_indexed, OooParams};
use fusion_accel::{run_phase_indexed, Workload};
use fusion_coherence::acc::{AccTile, TileStats, TileTiming};
use fusion_coherence::AgentId;
use fusion_energy::{Component, EnergyLedger, EnergyModel};
use fusion_sim::merge::{barrier, SourceLogs};
use fusion_types::error::SimError;
use fusion_types::{AccessKind, BlockAddr, Cycle, PhysAddr, Pid, SystemConfig};
use fusion_vm::{AxRmap, L1xPointer};

use crate::host::{HostSide, TileAgent};
use crate::result::{PhaseResult, SimResult};
use crate::runner::RunControl;
use crate::systems::fusion::charge_tile_delta;
use crate::systems::{charge_compute, EnergyMark};

/// One tile's private state plus its per-program accounting.
#[derive(Debug)]
struct PerTile {
    tile: AccTile,
    rmap: AxRmap,
    ledger: EnergyLedger,
    latency: fusion_sim::Histogram,
    phases: Vec<PhaseResult>,
    own_cycles: u64,
    mark: TileStats,
    tlb_attr: u64,
    fwd_attr: u64,
    l2_attr: u64,
}

impl PerTile {
    fn new(wl: &Workload, cfg: &SystemConfig) -> Self {
        let timing = TileTiming {
            l0_latency: cfg.l0x.latency,
            l1_latency: cfg.l1x.latency,
            link_latency: cfg.link_axc_l1x.latency,
            link_bytes_per_cycle: cfg.link_axc_l1x.bytes_per_cycle,
        };
        let mut tile = AccTile::new(
            wl.axc_count().max(1),
            cfg.l0x,
            cfg.l1x,
            timing,
            cfg.write_policy,
        );
        tile.set_lease_renewal(cfg.lease_renewal);
        if cfg.checker.enabled {
            tile.enable_checker(cfg.checker.acc_fault);
        }
        let mark = *tile.stats();
        PerTile {
            tile,
            rmap: AxRmap::new(),
            ledger: EnergyLedger::new(),
            latency: fusion_sim::Histogram::new(),
            phases: Vec::new(),
            own_cycles: 0,
            mark,
            tlb_attr: 0,
            fwd_attr: 0,
            l2_attr: 0,
        }
    }
}

/// A host-side interaction logged during speculative replay, re-executed
/// against the authoritative host at the arbitration point.
#[derive(Debug, Clone, Copy)]
enum HostOp {
    /// A host-core access of a host phase.
    Access {
        block: BlockAddr,
        kind: AccessKind,
        at: Cycle,
    },
    /// An L1X miss fill request.
    Fill { block: BlockAddr, at: Cycle },
    /// A tile eviction notice (PUTX, plus data when dirty).
    Evict {
        pid: Pid,
        block: BlockAddr,
        dirty: bool,
    },
}

/// What one tile produced in one round: its private completion time and
/// the host-interaction log to commit at the arbitration point.
#[derive(Debug)]
struct TileRound {
    end: Cycle,
    ops: Vec<HostOp>,
}

/// Serves directory forwards against a single tile during speculative
/// replay. Forwards addressed to any other tile answer "already released"
/// — cross-tile effects commit only at the arbitration point.
struct SoloTile<'a> {
    agent: AgentId,
    tile: &'a mut AccTile,
    rmap: &'a mut AxRmap,
    energy: &'a EnergyModel,
}

impl TileAgent for SoloTile<'_> {
    fn handle_forward(
        &mut self,
        agent: AgentId,
        pa: PhysAddr,
        now: Cycle,
        ledger: &mut EnergyLedger,
    ) -> (Cycle, bool) {
        if agent != self.agent {
            return (now, false);
        }
        ledger.charge(Component::Rmap, self.energy.rmap_lookup);
        match self.rmap.lookup(pa) {
            Some(ptr) => {
                let fwd = self.tile.host_forward(ptr.pid, ptr.vblock, now);
                self.rmap.unregister(pa);
                (fwd.release_at, fwd.dirty)
            }
            None => (now, false),
        }
    }
}

/// Serves directory forwards against every tile — the merge-time agent,
/// where cross-tile recalls actually commit.
struct TilesView<'a> {
    tiles: &'a [Mutex<PerTile>],
    energy: &'a EnergyModel,
}

impl TilesView<'_> {
    fn index_of(agent: AgentId) -> usize {
        debug_assert!(agent.0 >= 1, "agent 0 is the host L1");
        (agent.0 - 1) as usize
    }
}

impl TileAgent for TilesView<'_> {
    fn handle_forward(
        &mut self,
        agent: AgentId,
        pa: PhysAddr,
        now: Cycle,
        ledger: &mut EnergyLedger,
    ) -> (Cycle, bool) {
        let idx = Self::index_of(agent);
        let Some(slot) = self.tiles.get(idx) else {
            return (now, false);
        };
        // Uncontended: the merge runs while no task holds a tile.
        let mut t = slot.lock().unwrap_or_else(PoisonError::into_inner);
        ledger.charge(Component::Rmap, self.energy.rmap_lookup);
        match t.rmap.lookup(pa) {
            Some(ptr) => {
                let fwd = t.tile.host_forward(ptr.pid, ptr.vblock, now);
                t.rmap.unregister(pa);
                (fwd.release_at, fwd.dirty)
            }
            None => (now, false),
        }
    }
}

/// Tile index → wire pid. Grids are bounded by the config's tile count
/// (≤ 8 across the paper sweeps); the checked conversion saturates
/// instead of wrapping so an oversized grid can never alias two tiles
/// onto one pid.
fn tile_pid(w: usize) -> Pid {
    Pid::new(u32::try_from(w + 1).unwrap_or(u32::MAX))
}

/// Tile index → coherence agent id, same saturating contract as
/// [`tile_pid`].
fn tile_agent(w: usize) -> AgentId {
    AgentId(u8::try_from(w + 1).unwrap_or(u8::MAX))
}

/// Helper threads a run spawns for `tile_threads` tile workers over
/// `tiles` tiles. The calling thread is always a worker, and no round
/// holds more tasks than there are tiles.
fn helper_threads(tile_threads: usize, tiles: usize) -> usize {
    tile_threads.min(tiles).saturating_sub(1)
}

/// Replays tile `w`'s phase `phase_idx` between two arbitration points:
/// private clock from `round_start`, the worker's host mirror (as of the
/// round start), authoritative own-tile state, every host interaction
/// logged for the merge.
fn replay_tile_phase(
    w: usize,
    wl: &Workload,
    phase_idx: usize,
    round_start: Cycle,
    host: &mut HostSide,
    st: &mut PerTile,
    em: &EnergyModel,
) -> TileRound {
    let pid = tile_pid(w);
    let agent = tile_agent(w);
    let phase = &wl.phases[phase_idx];
    let refs = &phase.refs;
    let mut ops: Vec<HostOp> = Vec::new();

    let emark = EnergyMark::take(&st.ledger);
    let (tlb0, fwd0, l20) = (
        host.ax_tlb_lookups(),
        host.host_forwards(),
        host.l2_accesses(),
    );
    let PerTile {
        tile,
        rmap,
        ledger,
        latency,
        ..
    } = st;
    charge_compute(ledger, &phase.ops, em);

    let end = match phase.unit.axc() {
        None => {
            let t = run_host_phase_indexed(
                refs.len(),
                |j| refs[j].gap,
                |j| refs[j].kind.is_write(),
                OooParams::default(),
                round_start,
                |j, at| {
                    ops.push(HostOp::Access {
                        block: refs[j].block(),
                        kind: refs[j].kind,
                        at,
                    });
                    host.host_access(
                        pid,
                        refs[j].block(),
                        refs[j].kind,
                        at,
                        ledger,
                        &mut SoloTile {
                            agent,
                            tile: &mut *tile,
                            rmap: &mut *rmap,
                            energy: em,
                        },
                    )
                },
            );
            t.end
        }
        Some(axc) => {
            let lease = phase.lease;
            let t = run_phase_indexed(
                refs.len(),
                |j| refs[j].gap,
                phase.mlp,
                round_start,
                |j, at| {
                    let block = refs[j].block();
                    let kind = refs[j].kind;
                    let done = match tile.axc_access(axc, pid, block, kind, at, lease) {
                        fusion_coherence::AccAccess::L0Hit { done_at }
                        | fusion_coherence::AccAccess::L1Served { done_at } => done_at,
                        fusion_coherence::AccAccess::FillNeeded { request_at } => {
                            ops.push(HostOp::Fill {
                                block,
                                at: request_at,
                            });
                            let fill = host.tile_fill_as(
                                agent,
                                pid,
                                block,
                                request_at,
                                ledger,
                                &mut SoloTile {
                                    agent,
                                    tile: &mut *tile,
                                    rmap: &mut *rmap,
                                    energy: em,
                                },
                            );
                            // Own-tile recalls from an inclusive-L2
                            // eviction (the requester's other blocks).
                            for rpa in fill.tile_recalls {
                                ledger.charge(Component::Rmap, em.rmap_lookup);
                                if let Some(ptr) = rmap.lookup(rpa) {
                                    tile.host_forward(ptr.pid, ptr.vblock, fill.data_at);
                                    rmap.unregister(rpa);
                                }
                            }
                            rmap.replace(fill.pa, L1xPointer { pid, vblock: block });
                            let res =
                                tile.complete_fill(axc, pid, block, kind, fill.data_at, lease);
                            if let Some(ev) = res.evicted {
                                ops.push(HostOp::Evict {
                                    pid: ev.pid,
                                    block: ev.block,
                                    dirty: ev.dirty,
                                });
                                if let Some(pa) =
                                    host.tile_eviction_as(agent, ev.pid, ev.block, ev.dirty, ledger)
                                {
                                    rmap.unregister(pa);
                                }
                            }
                            res.done_at
                        }
                    };
                    latency.record(done - at);
                    done
                },
            );
            tile.downgrade_all(axc, pid, t.end);
            t.end
        }
    };

    charge_tile_delta(&mut st.ledger, em, &mut st.mark, st.tile.stats());
    st.tlb_attr += host.ax_tlb_lookups() - tlb0;
    st.fwd_attr += host.host_forwards() - fwd0;
    st.l2_attr += host.l2_accesses() - l20;
    st.own_cycles += end - round_start;
    st.phases.push(PhaseResult {
        name: phase.name.clone(),
        is_host: phase.unit.is_host(),
        cycles: end - round_start,
        dma_cycles: 0,
        memory_energy: emark.memory_since(&st.ledger),
        compute_energy: emark.compute_since(&st.ledger),
    });
    TileRound { end, ops }
}

/// One tile-phase of a round. The round start travels with the task: a
/// worker that wakes late may claim a later round's task, and must replay
/// it from that round's start, not from whatever round it woke for.
#[derive(Debug, Clone, Copy)]
struct Task {
    w: usize,
    phase: usize,
    round_start: Cycle,
}

/// The round's task queue, shared by the calling thread and the helpers.
#[derive(Default)]
struct Queue {
    tasks: Vec<Task>,
    next: usize,
    unfinished: usize,
    outcomes: Vec<(usize, TileRound)>,
    panic: Option<Box<dyn Any + Send>>,
    closed: bool,
}

/// A worker's copy of the host. Its L2 equals the authoritative one
/// except in the sets its own directory log names and in `behind`; the
/// small host structures are copied whole on every sync.
struct Mirror {
    host: HostSide,
    /// L2 sets the merges touched since this mirror last synced.
    behind: Vec<usize>,
}

/// One run's worker pool and the state its workers share. Worker `slot`
/// owns `mirrors[slot]`; slot 0 is the calling thread.
///
/// Locks are recovered from poisoning with `into_inner`: only a replay
/// can panic while holding one (its mirror and tile), and that panic is
/// re-raised at the end of its round, before anything reads either.
struct Pool<'a> {
    workloads: &'a [Workload],
    em: EnergyModel,
    auth: RwLock<HostSide>,
    tiles: Vec<Mutex<PerTile>>,
    mirrors: Vec<Mutex<Mirror>>,
    queue: Mutex<Queue>,
    work: Condvar,
    idle: Condvar,
}

impl Pool<'_> {
    /// Syncs worker `slot`'s mirror with the authoritative host (which
    /// does not change while tasks run), then replays `task` on it.
    fn replay(&self, slot: usize, task: Task) -> TileRound {
        let wl = &self.workloads[task.w];
        let mut mirror = self.mirrors[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let Mirror { host, behind } = &mut *mirror;
        host.sync_from(
            &self.auth.read().unwrap_or_else(PoisonError::into_inner),
            behind,
        );
        behind.clear();
        let mut st = self.tiles[task.w]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        replay_tile_phase(
            task.w,
            wl,
            task.phase,
            task.round_start,
            host,
            &mut st,
            &self.em,
        )
    }

    /// Opens a round: queues its tasks and wakes the helpers.
    fn post(&self, tasks: Vec<Task>) {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        q.unfinished = tasks.len();
        q.tasks = tasks;
        q.next = 0;
        drop(q);
        self.work.notify_all();
    }

    /// Claims the next task of the current round. With `wait`, blocks
    /// until one is posted; `None` once the pool closes (or, without
    /// `wait`, when the round has no unclaimed task left).
    fn claim(&self, wait: bool) -> Option<Task> {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if q.closed {
                return None;
            }
            if let Some(&task) = q.tasks.get(q.next) {
                q.next += 1;
                return Some(task);
            }
            if !wait {
                return None;
            }
            q = self.work.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Hands in a claimed task's outcome (or its worker's panic).
    fn hand_in(&self, w: usize, outcome: Result<TileRound, Box<dyn Any + Send>>) {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        match outcome {
            Ok(round) => q.outcomes.push((w, round)),
            Err(panic) => {
                q.panic.get_or_insert(panic);
            }
        }
        q.unfinished -= 1;
        if q.unfinished == 0 {
            self.idle.notify_one();
        }
    }

    /// A helper thread's life: claim, replay, hand in, until closed.
    fn help(&self, slot: usize) {
        while let Some(task) = self.claim(true) {
            let outcome = catch_unwind(AssertUnwindSafe(|| self.replay(slot, task)));
            self.hand_in(task.w, outcome);
        }
    }

    /// Stops the helpers once they finish their current task.
    fn close(&self) {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.work.notify_all();
    }

    /// Replays one round's tasks and returns the outcomes by tile index.
    /// A lone task, or a pool without helpers, runs inline; otherwise the
    /// calling thread claims tasks alongside the helpers.
    fn run_round(&self, tasks: Vec<Task>) -> Vec<(usize, TileRound)> {
        if tasks.len() == 1 || self.mirrors.len() == 1 {
            return tasks.iter().map(|t| (t.w, self.replay(0, *t))).collect();
        }
        self.post(tasks);
        while let Some(task) = self.claim(false) {
            let round = self.replay(0, task);
            self.hand_in(task.w, Ok(round));
        }
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        while q.unfinished > 0 {
            q = self.idle.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(panic) = q.panic.take() {
            // A tile-worker panic is a simulator bug; re-raising lets the
            // sweep's catch_unwind type it as JobPanicked.
            resume_unwind(panic);
        }
        let mut outcomes = std::mem::take(&mut q.outcomes);
        // The merge rule is (tile index, sequence): make it structural,
        // not an accident of completion order.
        outcomes.sort_by_key(|(w, _)| *w);
        outcomes
    }

    /// Arbitration point: commits the round's host-interaction logs to
    /// the authoritative host in canonical order, then tells every mirror
    /// which L2 sets the merge touched. Energy and counters were
    /// attributed during speculative replay; the merge re-execution
    /// advances shared state only.
    fn merge(&self, outcomes: &mut [(usize, TileRound)]) {
        let mut logs: Vec<Vec<HostOp>> = self.workloads.iter().map(|_| Vec::new()).collect();
        for (w, r) in outcomes.iter_mut() {
            logs[*w] = std::mem::take(&mut r.ops);
        }
        let mut host = self.auth.write().unwrap_or_else(PoisonError::into_inner);
        host.clear_touched_sets();
        let mut tiles = TilesView {
            tiles: &self.tiles,
            energy: &self.em,
        };
        let mut scratch = EnergyLedger::new();
        for (w, op) in SourceLogs::from_parts(logs).into_ordered() {
            let pid = tile_pid(w);
            let agent = tile_agent(w);
            match op {
                HostOp::Access { block, kind, at } => {
                    host.host_access(pid, block, kind, at, &mut scratch, &mut tiles);
                }
                HostOp::Fill { block, at } => {
                    let fill = host.tile_fill_as(agent, pid, block, at, &mut scratch, &mut tiles);
                    // Own-tile recalls were already applied during
                    // speculative replay (the rmap entry is gone, so
                    // re-application no-ops); cross-tile recalls commit
                    // here.
                    for rpa in fill.tile_recalls {
                        tiles.handle_forward(agent, rpa, fill.data_at, &mut scratch);
                    }
                }
                HostOp::Evict { pid, block, dirty } => {
                    host.tile_eviction_as(agent, pid, block, dirty, &mut scratch);
                }
            }
        }
        for mirror in &self.mirrors {
            mirror
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .behind
                .extend_from_slice(host.touched_sets());
        }
    }

    /// Runs every round; returns the final arbitration point.
    fn run_rounds(&self, ctl: &RunControl<'_>, checker: bool) -> Result<Cycle, SimError> {
        let rounds = self
            .workloads
            .iter()
            .map(|wl| wl.phases.len())
            .max()
            .unwrap_or(0);
        let mut now = Cycle::ZERO;
        for phase in 0..rounds {
            // This round's phase of every unfinished program.
            let tasks: Vec<Task> = (0..self.workloads.len())
                .filter(|&w| phase < self.workloads[w].phases.len())
                .map(|w| Task {
                    w,
                    phase,
                    round_start: now,
                })
                .collect();
            let mut outcomes = self.run_round(tasks);
            self.merge(&mut outcomes);
            now = barrier(outcomes.iter().map(|(_, r)| r.end));
            ctl.check(now.value())?;
            if checker {
                let host = self.auth.read().unwrap_or_else(PoisonError::into_inner);
                if let Some(v) = host.checker_violation() {
                    return Err(v.into());
                }
            }
        }
        Ok(now)
    }
}

/// Closes the pool when the calling thread leaves the scope, whether it
/// returns, errs or panics — so the scope's join never waits on a helper
/// blocked for work.
struct CloseOnDrop<'p, 'a>(&'p Pool<'a>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Multiple FUSION tiles over one host multicore.
#[derive(Debug)]
pub struct MultiTileSystem {
    cfg: SystemConfig,
}

impl MultiTileSystem {
    /// Creates the system for `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        MultiTileSystem { cfg: cfg.clone() }
    }

    /// Runs one workload per tile on one worker (same arbitration-point
    /// semantics as [`MultiTileSystem::run_parallel`] — the results are
    /// bit-identical at every thread count). Each workload is re-tagged
    /// with a distinct PID (tile *i* runs as process *i + 1*). Returns
    /// one result per workload, in input order; `total_cycles` of each
    /// result counts only that program's own phases.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty, or when the opt-in protocol
    /// checker flags a violation (use [`MultiTileSystem::run_guarded`]
    /// for a typed error instead).
    pub fn run(&mut self, workloads: &[Workload]) -> Vec<SimResult> {
        self.run_parallel(workloads, 1)
    }

    /// [`MultiTileSystem::run`] with up to `tile_threads` tile workers
    /// replaying concurrently between arbitration points.
    ///
    /// # Panics
    ///
    /// Same as [`MultiTileSystem::run`].
    pub fn run_parallel(&mut self, workloads: &[Workload], tile_threads: usize) -> Vec<SimResult> {
        // Infallible: run_guarded only errs on timeout/cancellation and
        // the default RunControl arms neither.
        // lint:allow-unwrap — infallible under the default RunControl
        self.run_guarded(workloads, &RunControl::default(), tile_threads)
            .expect("no watchdog armed and no checker enabled")
    }

    /// [`MultiTileSystem::run_parallel`] with watchdogs: `ctl` is polled
    /// at every arbitration point (the multi-tile analogue of the
    /// single-tile phase boundary, DESIGN.md §10/§12). A cancellation
    /// raised mid-round stops every tile worker at the round's barrier
    /// and surfaces as [`SimError::Timeout`] at every thread count.
    ///
    /// The calling thread is a worker; `min(tile_threads, tiles) - 1`
    /// helper threads are spawned once for the whole run.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] when a watchdog in `ctl` fires;
    /// [`SimError::InvariantViolation`] when the opt-in protocol checker
    /// flags a directory transition.
    pub fn run_guarded(
        &mut self,
        workloads: &[Workload],
        ctl: &RunControl<'_>,
        tile_threads: usize,
    ) -> Result<Vec<SimResult>, SimError> {
        assert!(!workloads.is_empty(), "need at least one workload");
        let cfg = &self.cfg;
        let mut host = HostSide::new(cfg);
        host.track_touched_sets();
        let helpers = helper_threads(tile_threads, workloads.len());
        let pool = Pool {
            workloads,
            em: host.energy_model().clone(),
            mirrors: (0..=helpers)
                .map(|_| {
                    Mutex::new(Mirror {
                        host: host.clone(),
                        behind: Vec::new(),
                    })
                })
                .collect(),
            auth: RwLock::new(host),
            tiles: workloads
                .iter()
                .map(|wl| Mutex::new(PerTile::new(wl, cfg)))
                .collect(),
            queue: Mutex::new(Queue::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
        };
        let now = std::thread::scope(|scope| {
            for slot in 1..=helpers {
                let pool = &pool;
                scope.spawn(move || pool.help(slot));
            }
            let _close = CloseOnDrop(&pool);
            pool.run_rounds(ctl, cfg.checker.enabled)
        })?;

        let em = pool.em;
        let mut host = pool
            .auth
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let mut per: Vec<PerTile> = pool
            .tiles
            .into_iter()
            .map(|t| t.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        // Flush every tile (authoritative — charges land on the tiles'
        // own ledgers, in tile-index order).
        for (w, st) in per.iter_mut().enumerate() {
            let agent = tile_agent(w);
            for ev in st.tile.flush_all(now) {
                if let Some(pa) =
                    host.tile_eviction_as(agent, ev.pid, ev.block, ev.dirty, &mut st.ledger)
                {
                    st.rmap.unregister(pa);
                }
            }
            charge_tile_delta(&mut st.ledger, &em, &mut st.mark, st.tile.stats());
        }

        Ok(workloads
            .iter()
            .zip(per)
            .map(|(wl, st)| SimResult {
                system: "FUSION-MT",
                workload: wl.name.clone(),
                total_cycles: st.own_cycles,
                dma_cycles: 0,
                ax_tlb_lookups: st.tlb_attr,
                ax_rmap_lookups: st.rmap.lookups(),
                host_forwards: st.fwd_attr,
                dma_blocks: 0,
                dma_transfers: 0,
                l2_accesses: st.l2_attr,
                energy: st.ledger,
                phases: st.phases,
                tile: Some(*st.tile.stats()),
                latency: st.latency,
                metrics: Default::default(),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_system, SystemKind};
    use fusion_workloads::{build_suite, Scale, SuiteId};

    #[test]
    fn two_tiles_run_two_programs() {
        let a = build_suite(SuiteId::Adpcm, Scale::Tiny);
        let b = build_suite(SuiteId::Filter, Scale::Tiny);
        let results = MultiTileSystem::new(&SystemConfig::small()).run(&[a.clone(), b.clone()]);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].workload, "ADPCM");
        assert_eq!(results[1].workload, "FILT.");
        for r in &results {
            assert!(r.total_cycles > 0);
            assert!(r.tile.unwrap().l0_accesses > 0);
        }
    }

    #[test]
    fn tiles_do_not_interfere_in_protocol_counts() {
        // Running a workload alone vs alongside another program on a
        // second tile must not change its own tile's hit/miss profile
        // (only shared L2 capacity could — and these fit easily).
        let a = build_suite(SuiteId::Adpcm, Scale::Tiny);
        let b = build_suite(SuiteId::Susan, Scale::Tiny);
        let solo = MultiTileSystem::new(&SystemConfig::small()).run(std::slice::from_ref(&a));
        let duo = MultiTileSystem::new(&SystemConfig::small()).run(&[a, b]);
        let s = solo[0].tile.unwrap();
        let d = duo[0].tile.unwrap();
        assert_eq!(s.l0_hits, d.l0_hits);
        assert_eq!(s.l1_misses, d.l1_misses);
        assert_eq!(s.wb_l0_to_l1, d.wb_l0_to_l1);
    }

    #[test]
    fn single_tile_matches_fusion_system_protocol_behaviour() {
        // A 1-workload multi-tile run reproduces the FUSION system's tile
        // statistics (the host interleaving is degenerate).
        let wl = build_suite(SuiteId::Filter, Scale::Tiny);
        let single = run_system(SystemKind::Fusion, &wl, &SystemConfig::small()).unwrap();
        let multi = &MultiTileSystem::new(&SystemConfig::small()).run(&[wl])[0];
        let a = single.tile.unwrap();
        let b = multi.tile.unwrap();
        assert_eq!(a.l0_accesses, b.l0_accesses);
        assert_eq!(a.l1_misses, b.l1_misses);
    }

    #[test]
    fn host_forwards_route_to_the_right_tile() {
        // Both programs end with host phases touching their own tiles'
        // data; every forward must find its block via the right AX-RMAP.
        let a = build_suite(SuiteId::Adpcm, Scale::Tiny);
        let b = build_suite(SuiteId::Tracking, Scale::Tiny);
        let results = MultiTileSystem::new(&SystemConfig::small()).run(&[a, b]);
        // Tracking's host phase pulls gradient planes out of its tile.
        assert!(results[1].ax_rmap_lookups > 0);
    }

    #[test]
    fn helper_threads_are_bounded_by_tiles_and_threads() {
        // Pure arithmetic: no thread is started for any of these.
        assert_eq!(helper_threads(0, 7), 0);
        assert_eq!(helper_threads(1, 7), 0);
        assert_eq!(helper_threads(2, 7), 1);
        assert_eq!(helper_threads(7, 7), 6);
        assert_eq!(helper_threads(8, 7), 6);
        assert_eq!(helper_threads(usize::MAX, 7), 6);
        assert_eq!(helper_threads(usize::MAX, 1), 0);
        assert_eq!(helper_threads(usize::MAX, usize::MAX), usize::MAX - 1);
        assert_eq!(helper_threads(4, 0), 0);
    }

    #[test]
    fn parallel_equals_sequential_unit_smoke() {
        // The integration suite proves byte-identical JSON across thread
        // counts (tests/tile_parallel.rs); this is the fast in-crate
        // smoke of the same property.
        let a = build_suite(SuiteId::Adpcm, Scale::Tiny);
        let b = build_suite(SuiteId::Susan, Scale::Tiny);
        let seq = MultiTileSystem::new(&SystemConfig::small()).run(&[a.clone(), b.clone()]);
        let par = MultiTileSystem::new(&SystemConfig::small()).run_parallel(&[a, b], 2);
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.to_json(), p.to_json());
        }
    }
}
