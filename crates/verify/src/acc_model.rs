//! Abstract ACC tile model for exhaustive exploration.
//!
//! The model drives the *same* pure transition functions the timing
//! simulator uses ([`fusion_coherence::transition`]) over a small,
//! bounded configuration: N agents, K blocks, a clock that runs from 0 to
//! a `horizon`, and a fixed set of lease quanta. Everything the timing
//! layer adds on top — latencies, stats, MSHRs, capacity victims — is
//! abstracted away: a host fill is atomic, messages are free, and the
//! only time that passes is the explicit `tick` action. What remains is
//! exactly the protocol state the invariants speak about: L1X metadata
//! (GTIME, write locks, writeback horizons) and per-agent L0X copies
//! (lease interval, write/dirty bits).
//!
//! Soundness caveats (see DESIGN.md §11): exploration is bounded by the
//! clock horizon and by a value bound `horizon + max_lease + 2` on every
//! timestamp (same-cycle grant chains can otherwise push GTIME forever);
//! L1X capacity eviction is not modeled (the host-forward action covers
//! the invalidate-while-leases-live hazard the refetch barrier exists
//! for); and the checked configurations are small (the standard
//! small-scope argument for protocol bugs).
//!
//! States are stored as [`AccKey`]s: every field packed into one byte
//! (timestamps, agent ids, flag pairs) with absent optionals as
//! `u8::MAX`, in a fixed-width array sized for [`MAX_AGENTS`] ×
//! [`MAX_BLOCKS`]. [`AccModelConfig::validate`] rejects configurations
//! whose state the key cannot hold.

use std::fmt;

use fusion_coherence::acc::L1Meta;
use fusion_coherence::transition::{
    acc_fill_meta, acc_forward, acc_grant, acc_host_release, acc_release_lease,
    acc_truncate_write_epoch, acc_writeback, GrantMode,
};
use fusion_types::fault::{ProtocolFault, ProtocolFaultKind};
use fusion_types::{AxcId, Cycle};

use crate::explore::{Model, Violation};

/// Block-to-block data transfer cost inside the model (cycles). Kept at 1
/// so writeback horizons and post-lock stalls stay distinguishable from
/// zero-latency events without inflating the clock range.
const DATA_CYCLES: u64 = 1;

/// Configuration of the abstract tile.
#[derive(Debug, Clone)]
pub struct AccModelConfig {
    /// Number of L0X agents (2–3 is exhaustive territory).
    pub agents: usize,
    /// Number of distinct blocks (1–2).
    pub blocks: usize,
    /// Clock horizon: `tick` stops at this value.
    pub horizon: u64,
    /// Lease quanta an access may request.
    pub leases: Vec<u32>,
    /// Enable the data-free lease-renewal extension.
    pub renewal: bool,
    /// Enable FUSION-Dx write forwarding (agent 0 → agent 1 on block 0,
    /// consumer lease = smallest configured lease).
    pub forwarding: bool,
    /// Plant a protocol fault at the `at_event`-th epoch grant.
    pub fault: Option<ProtocolFault>,
}

impl AccModelConfig {
    /// The default small configuration: 2 agents, 1 block, leases {1,2}.
    /// Single-block is where the lease/epoch machinery lives (forwarding
    /// is single-block by construction), so this is the config the
    /// protocol variants explore with both lease quanta.
    pub fn small() -> Self {
        AccModelConfig {
            agents: 2,
            blocks: 1,
            horizon: 3,
            leases: vec![1, 2],
            renewal: false,
            forwarding: false,
            fault: None,
        }
    }

    /// The cross-block configuration: 2 agents, 2 blocks, one lease
    /// quantum. Blocks only couple through the shared clock and the
    /// multi-block downgrade sweep, so the joint space is near the
    /// product of the per-block spaces — a single quantum keeps it
    /// closable.
    pub fn two_block() -> Self {
        AccModelConfig {
            blocks: 2,
            leases: vec![1],
            ..AccModelConfig::small()
        }
    }

    fn max_lease(&self) -> u64 {
        self.leases.iter().copied().max().unwrap_or(1) as u64
    }

    /// Upper bound on every timestamp in a reachable state; successors
    /// exceeding it are pruned (bounded-horizon exploration). The slack
    /// covers the writeback/forward data transfer past the last tick.
    fn value_bound(&self) -> Cycle {
        Cycle::new(
            self.horizon
                .saturating_add(self.max_lease())
                .saturating_add(DATA_CYCLES),
        )
    }

    /// Checks that every reachable state fits the inline [`AccState`]
    /// and its packed [`AccKey`]: 1..=[`MAX_AGENTS`] agents,
    /// 1..=[`MAX_BLOCKS`] blocks, a timestamp bound (`horizon` + largest
    /// lease + 1) of at most [`MAX_STAMP`], and a planted fault no later
    /// than event [`MAX_FAULT_EVENT`].
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=MAX_AGENTS).contains(&self.agents) {
            return Err(format!(
                "the ACC model holds 1 to {MAX_AGENTS} agents, got {}",
                self.agents
            ));
        }
        if !(1..=MAX_BLOCKS).contains(&self.blocks) {
            return Err(format!(
                "the ACC model holds 1 to {MAX_BLOCKS} blocks, got {}",
                self.blocks
            ));
        }
        let bound = self.value_bound().value();
        if bound > MAX_STAMP {
            return Err(format!(
                "ACC horizon {} bounds timestamps at {bound} (horizon + lease {} + {DATA_CYCLES}), \
                 past the packed state's limit of {MAX_STAMP}",
                self.horizon,
                self.max_lease()
            ));
        }
        if let Some(fault) = self.fault.filter(|f| f.at_event > MAX_FAULT_EVENT) {
            return Err(format!(
                "ACC faults fire at event {MAX_FAULT_EVENT} at the latest, got {}",
                fault.at_event
            ));
        }
        Ok(())
    }

    fn forward_consumer_lease(&self) -> u32 {
        self.leases.iter().copied().min().unwrap_or(1)
    }
}

/// Most agents an ACC model may have (the inline state's capacity).
pub const MAX_AGENTS: usize = 3;
/// Most blocks an ACC model may have (the inline state's capacity).
pub const MAX_BLOCKS: usize = 3;
/// Largest timestamp a key byte holds; `u8::MAX` marks an absent value.
pub const MAX_STAMP: u64 = 254;
/// Latest planted-fault trigger: the 16-bit key field counts grant events
/// up to `at_event + 1`.
pub const MAX_FAULT_EVENT: u64 = u16::MAX as u64 - 1;

/// Key byte of an absent optional field. Every present value packs below
/// it, so absent sorts last — the order the symmetry reduction's orbit
/// representative is chosen by.
const ABSENT: u8 = u8::MAX;
/// Key bytes of one L1X line: gtime, lock end, writer, writeback horizon,
/// sole holder, last write, flags.
const LINE_BYTES: usize = 7;
/// Key bytes of one block: its line, refill barrier and write epoch.
const BLOCK_BYTES: usize = LINE_BYTES + 1 + 2;
/// Key bytes of one L0X copy: lease end, acquisition time, flags.
const COPY_BYTES: usize = 3;
/// Key width: clock and event counter, then every block, then every copy.
const KEY_BYTES: usize = 3 + MAX_BLOCKS * BLOCK_BYTES + MAX_AGENTS * MAX_BLOCKS * COPY_BYTES;

/// Index of `agent`'s copy of `block` in [`AccState::l0`].
fn copy_slot(agent: usize, block: usize) -> usize {
    agent * MAX_BLOCKS + block
}

/// One agent's L0X copy of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct L0Copy {
    lease_end: Cycle,
    write_lease: bool,
    dirty: bool,
    acquired: Cycle,
}

/// One L1X line: protocol metadata + the data-dirty bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct L1Line {
    meta: L1Meta,
    dirty: bool,
}

/// Full abstract tile state, inline: slots past the configured agents
/// and blocks stay empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccState {
    now: Cycle,
    /// Per-block L1X line.
    l1: [Option<L1Line>; MAX_BLOCKS],
    /// Agent-major [`copy_slot`]-indexed L0X copies.
    l0: [Option<L0Copy>; MAX_AGENTS * MAX_BLOCKS],
    /// Per-block refill barrier after a host forward: the tile may not
    /// refetch the block before the PUTX release time (MESI serializes the
    /// PUTX before the next GetX can be answered).
    refetch_after: [Cycle; MAX_BLOCKS],
    /// Shadow (non-hardware) state: the live write epoch's granted start
    /// and writer, for the interval-exclusivity invariant.
    epoch: [Option<(Cycle, AxcId)>; MAX_BLOCKS],
    /// Grant events seen, capped just past the planted fault's trigger
    /// (stays 0 when no fault is configured, so it never splits states).
    events: u64,
}

/// One protocol event of the abstract tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccAction {
    /// Advance the tile clock by one cycle.
    Tick,
    /// One load/store by `agent` on `block` requesting `lease`.
    Access {
        /// Requesting agent.
        agent: u16,
        /// Target block.
        block: usize,
        /// Store (write epoch) vs load.
        write: bool,
        /// Requested lease quantum.
        lease: u32,
    },
    /// Phase-end self-downgrade of every line `agent` holds.
    Downgrade {
        /// The agent whose invocation completed.
        agent: u16,
    },
    /// A forwarded host MESI request for `block` (the tile relinquishes
    /// the line under the GTIME rule).
    HostForward {
        /// Target block.
        block: usize,
    },
}

impl fmt::Display for AccAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccAction::Tick => write!(f, "tick"),
            AccAction::Access {
                agent,
                block,
                write,
                lease,
            } => write!(
                f,
                "A{agent}.{}(b{block}, lease={lease})",
                if *write { "store" } else { "load" }
            ),
            AccAction::Downgrade { agent } => write!(f, "A{agent}.downgrade"),
            AccAction::HostForward { block } => write!(f, "host_forward(b{block})"),
        }
    }
}

/// A packed [`AccState`]: one byte per field, fixed width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccKey([u8; KEY_BYTES]);

/// Every permutation of `0..n` (new index -> old index), in
/// lexicographic order.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for first in 0..n {
        for rest in permutations(n - 1) {
            let mut p = vec![first];
            p.extend(rest.into_iter().map(|i| if i >= first { i + 1 } else { i }));
            out.push(p);
        }
    }
    out
}

/// An agent × block index permutation the key is packed through.
struct Perm {
    /// New agent index -> old.
    agents: [usize; MAX_AGENTS],
    /// New block index -> old.
    blocks: [usize; MAX_BLOCKS],
    /// Old agent index -> new, as the key byte naming it.
    rename: [u8; MAX_AGENTS],
}

impl Perm {
    fn new(agents: &[usize], blocks: &[usize]) -> Self {
        let mut perm = Perm {
            agents: [0; MAX_AGENTS],
            blocks: [0; MAX_BLOCKS],
            rename: [0; MAX_AGENTS],
        };
        for (new, &old) in agents.iter().enumerate() {
            perm.agents[new] = old;
            // `new` < MAX_AGENTS, far below u8::MAX.
            perm.rename[old] = u8::try_from(new).unwrap_or(ABSENT);
        }
        perm.blocks[..blocks.len()].copy_from_slice(blocks);
        perm
    }
}

/// Packs one timestamp. [`AccModelConfig::validate`] bounds every
/// timestamp of a packed state by [`MAX_STAMP`], so the saturation to
/// [`ABSENT`] never fires.
fn stamp(c: Cycle) -> u8 {
    debug_assert!(c.value() <= MAX_STAMP, "timestamp {c} escaped the bound");
    u8::try_from(c.value()).unwrap_or(ABSENT)
}

fn opt_stamp(c: Option<Cycle>) -> u8 {
    c.map_or(ABSENT, stamp)
}

fn unstamp(b: u8) -> Cycle {
    Cycle::new(u64::from(b))
}

fn opt_unstamp(b: u8) -> Option<Cycle> {
    (b != ABSENT).then(|| unstamp(b))
}

fn flags(high: bool, low: bool) -> u8 {
    u8::from(high) << 1 | u8::from(low)
}

/// Sequential writer over a key's bytes.
struct Packer {
    key: [u8; KEY_BYTES],
    pos: usize,
}

impl Packer {
    fn put(&mut self, bytes: &[u8]) {
        self.key[self.pos..self.pos + bytes.len()].copy_from_slice(bytes);
        self.pos += bytes.len();
    }
}

/// Sequential reader over a key's bytes.
struct Unpacker<'a> {
    key: &'a [u8; KEY_BYTES],
    pos: usize,
}

impl Unpacker<'_> {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0; N];
        out.copy_from_slice(&self.key[self.pos..self.pos + N]);
        self.pos += N;
        out
    }
}

/// The ACC model: drives [`fusion_coherence::transition`] over
/// [`AccState`].
pub struct AccModel {
    cfg: AccModelConfig,
    /// The permutations a state's key is packed through, identity first.
    /// Murphi-style symmetry reduction: with forwarding off and no
    /// planted fault, every transition rule and invariant is blind to
    /// agent and block identity, so states related by an index
    /// permutation are bisimilar — every agent × block permutation is
    /// listed, and a state's key is the smallest key of its orbit.
    /// (Forwarding pins A0 -> A1 on block 0 and fault planting addresses
    /// `agent ^ 1`, so both break the automorphism: identity only.)
    perms: Vec<Perm>,
}

impl AccModel {
    /// Builds a model for `cfg`.
    ///
    /// # Panics
    /// If `cfg` fails [`AccModelConfig::validate`].
    pub fn new(cfg: AccModelConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid ACC model configuration: {e}");
        }
        let identity = |n: usize| vec![(0..n).collect::<Vec<_>>()];
        let (aperms, bperms) = if cfg.fault.is_none() && !cfg.forwarding {
            (permutations(cfg.agents), permutations(cfg.blocks))
        } else {
            (identity(cfg.agents), identity(cfg.blocks))
        };
        let perms = aperms
            .iter()
            .flat_map(|pa| bperms.iter().map(move |pb| Perm::new(pa, pb)))
            .collect();
        AccModel { cfg, perms }
    }

    fn slot(&self, agent: AxcId, block: usize) -> usize {
        copy_slot(agent.index(), block)
    }

    /// Counts a grant event and applies the planted fault when it fires.
    fn after_grant(&self, st: &mut AccState, agent: AxcId, block: usize) {
        let Some(fault) = self.cfg.fault else {
            return;
        };
        let fired = st.events == fault.at_event;
        st.events = st.events.saturating_add(1).min(fault.at_event + 1);
        if !fired {
            return;
        }
        match fault.kind {
            ProtocolFaultKind::LeaseOverrun => {
                // Extend the granted copy past the L1X's lease horizon.
                if let (Some(copy), Some(line)) = (
                    st.l0[self.slot(agent, block)].as_mut(),
                    st.l1[block].as_ref(),
                ) {
                    copy.lease_end = line.meta.gtime + 1;
                }
            }
            ProtocolFaultKind::GtimeRegression => {
                if let Some(line) = st.l1[block].as_mut() {
                    line.meta.gtime = Cycle::ZERO;
                }
            }
            // MESI faults are planted in the directory model.
            ProtocolFaultKind::EmptySharerList | ProtocolFaultKind::WrongOwner => {}
        }
    }

    /// Mirrors `AccTile::writeback`: forward under FUSION-Dx at a
    /// self-downgrade, otherwise land the data at the L1X.
    fn writeback(&self, st: &mut AccState, agent: AxcId, block: usize, at: Cycle, downgrade: bool) {
        if self.cfg.forwarding && downgrade && block == 0 && agent == AxcId::new(0) {
            // Forwarding needs the resident L1X line to fold the
            // consumer's lease into GTIME; when the host holds the block
            // the writeback continues to the L2 like the base protocol.
            if let Some(line) = st.l1[block].as_mut() {
                let lease_end = at + DATA_CYCLES + self.cfg.forward_consumer_lease() as u64;
                line.meta = acc_forward(line.meta, agent, AxcId::new(1), lease_end);
                st.epoch[block] = None; // the write lock moved with the data
                st.l0[self.slot(AxcId::new(1), block)] = Some(L0Copy {
                    lease_end,
                    write_lease: true,
                    dirty: true,
                    acquired: at,
                });
                return;
            }
        }
        let wb_ready = at + DATA_CYCLES;
        if let Some(line) = st.l1[block].as_mut() {
            line.dirty = true;
            line.meta = acc_writeback(line.meta, agent, at, wb_ready);
        }
        // Absent line: the writeback continues to the host L2 (no tile
        // state changes).
    }

    /// Epoch request after an L0X miss: grant from the L1X, filling from
    /// the host first when the line is absent (gated by the refill
    /// barrier).
    fn request_epoch(
        &self,
        mut st: AccState,
        agent: AxcId,
        block: usize,
        write: bool,
        lease: u32,
    ) -> Option<AccState> {
        let now = st.now;
        if st.l1[block].is_none() {
            if now < st.refetch_after[block] {
                return None; // PUTX not yet released: the fill must wait
            }
            st.l1[block] = Some(L1Line {
                meta: acc_fill_meta(now, false),
                dirty: write,
            });
        }
        let line = st.l1[block].as_mut()?;
        let grant = acc_grant(
            line.meta,
            agent,
            write,
            now,
            lease,
            DATA_CYCLES,
            GrantMode::Fresh,
        );
        line.meta = grant.meta;
        if write {
            st.epoch[block] = Some((grant.start, agent));
        }
        st.l0[self.slot(agent, block)] = Some(L0Copy {
            lease_end: grant.lease_end,
            write_lease: write,
            dirty: write,
            acquired: grant.start,
        });
        self.after_grant(&mut st, agent, block);
        Some(st)
    }

    /// Data-free renewal of an expired-but-current copy.
    fn renew(
        &self,
        mut st: AccState,
        agent: AxcId,
        block: usize,
        write: bool,
        lease: u32,
        was_dirty: bool,
    ) -> Option<AccState> {
        let line = st.l1[block].as_mut()?;
        let grant = acc_grant(
            line.meta,
            agent,
            write,
            st.now,
            lease,
            DATA_CYCLES,
            GrantMode::Renewal,
        );
        line.meta = grant.meta;
        if write {
            st.epoch[block] = Some((grant.start, agent));
        }
        st.l0[self.slot(agent, block)] = Some(L0Copy {
            lease_end: grant.lease_end,
            write_lease: write || was_dirty,
            dirty: was_dirty || write,
            acquired: grant.start,
        });
        self.after_grant(&mut st, agent, block);
        Some(st)
    }

    fn apply_access(
        &self,
        s: &AccState,
        agent: AxcId,
        block: usize,
        write: bool,
        lease: u32,
    ) -> Option<AccState> {
        let mut st = *s;
        let now = st.now;
        let slot = self.slot(agent, block);
        if let Some(copy) = st.l0[slot] {
            if copy.lease_end >= now {
                if !write || copy.write_lease {
                    // L0 hit: only the dirty bit can change.
                    if write {
                        st.l0[slot] = Some(L0Copy {
                            dirty: true,
                            ..copy
                        });
                    }
                    return Some(st);
                }
                // Write upgrade of a read lease: new epoch request; the
                // grant overwrites the copy in place.
                return self.request_epoch(st, agent, block, write, lease);
            }
            // Lease expired: renew if provably current, else invalidate
            // (writing back dirty data) and refetch.
            let renewable = self.cfg.renewal
                && st.l1[block].is_some_and(|l| copy.dirty || l.meta.last_write <= copy.acquired);
            if renewable {
                return self.renew(st, agent, block, write, lease, copy.dirty);
            }
            st.l0[slot] = None;
            if copy.dirty {
                self.writeback(&mut st, agent, block, now, false);
            }
        }
        self.request_epoch(st, agent, block, write, lease)
    }

    fn apply_downgrade(&self, s: &AccState, agent: AxcId) -> AccState {
        let mut st = *s;
        let now = st.now;
        // Dirty sweep: truncate the write epoch, then write back (or
        // forward, under FUSION-Dx).
        for block in 0..self.cfg.blocks {
            let slot = self.slot(agent, block);
            let Some(copy) = st.l0[slot] else { continue };
            if !copy.dirty {
                continue;
            }
            st.l0[slot] = Some(L0Copy {
                dirty: false,
                write_lease: false,
                ..copy
            });
            if let Some(line) = st.l1[block].as_mut() {
                line.meta = acc_truncate_write_epoch(line.meta, agent, now);
            }
            self.writeback(&mut st, agent, block, now, true);
        }
        // Early release of every still-live lease this agent holds.
        for block in 0..self.cfg.blocks {
            let slot = self.slot(agent, block);
            let Some(copy) = st.l0[slot] else { continue };
            if copy.lease_end <= now {
                continue;
            }
            st.l0[slot] = Some(L0Copy {
                lease_end: now,
                write_lease: false,
                ..copy
            });
            if let Some(line) = st.l1[block].as_mut() {
                line.meta = acc_release_lease(line.meta, agent, now);
            }
        }
        st
    }

    fn apply_host_forward(&self, s: &AccState, block: usize) -> Option<AccState> {
        let line = s.l1[block]?;
        let mut st = *s;
        let rel = acc_host_release(&line.meta, line.dirty, st.now, DATA_CYCLES);
        // L0 dirty data is collected with the response; the copies stay
        // resident and self-invalidate at lease end.
        for agent in 0..self.cfg.agents {
            if let Some(copy) = st.l0[copy_slot(agent, block)].as_mut() {
                copy.dirty = false;
            }
        }
        st.l1[block] = None;
        st.epoch[block] = None;
        st.refetch_after[block] = rel.release_at;
        Some(st)
    }

    /// Behavior-preserving state normalization, so equivalent states
    /// dedup: stale writeback horizons are dropped (the data has landed
    /// and the line is already dirty), `last_write` is scrubbed when the
    /// renewal extension is off (nothing reads it), and expired clean
    /// copies are dropped in non-renewal mode (a miss treats them exactly
    /// like an absent line).
    fn normalize(&self, st: &mut AccState) {
        let now = st.now;
        for line in st.l1.iter_mut().flatten() {
            if line.meta.wb_ready_at.is_some_and(|wb| wb < now) {
                line.meta.wb_ready_at = None;
            }
            if !self.cfg.renewal {
                line.meta.last_write = Cycle::ZERO;
            }
            // A dead lease horizon (GTIME in the past) can never stall,
            // wait, or clear anything again — every consumer compares it
            // against times >= now — and sole-holder is unreadable before
            // the next grant's stale-clear resets it. Normalizing both
            // collapses the expired tails of otherwise-distinct histories.
            // (Dead write locks are NOT normalized: the epoch-exclusivity
            // invariant still reads their exact end.)
            if line.meta.gtime < now {
                line.meta.gtime = Cycle::ZERO;
                line.meta.sole_holder = None;
            }
        }
        if !self.cfg.renewal {
            for copy in st.l0.iter_mut() {
                if copy.is_some_and(|c| c.lease_end < now && !c.dirty) {
                    *copy = None;
                }
            }
        }
        // An elapsed refill barrier never gates anything again.
        for barrier in st.refetch_after.iter_mut() {
            if *barrier <= now {
                *barrier = Cycle::ZERO;
            }
        }
    }

    /// Packs `st` as seen through `perm`. Field order per block, then per
    /// agent-major copy, is the order orbit representatives are compared
    /// in; only the configured agents and blocks are written, the rest of
    /// the key stays zero.
    fn pack(&self, st: &AccState, perm: &Perm) -> AccKey {
        let agent = |a: Option<AxcId>| a.map_or(ABSENT, |a| perm.rename[a.index()]);
        // The event counter is bounded by `MAX_FAULT_EVENT + 1`.
        let events = u16::try_from(st.events).unwrap_or(u16::MAX);
        let mut out = Packer {
            key: [0; KEY_BYTES],
            pos: 0,
        };
        out.put(&[stamp(st.now)]);
        out.put(&events.to_be_bytes());
        let blocks = &perm.blocks[..self.cfg.blocks];
        for &ob in blocks {
            match st.l1[ob] {
                None => out.put(&[ABSENT; LINE_BYTES]),
                Some(line) => {
                    let m = line.meta;
                    out.put(&[
                        stamp(m.gtime),
                        opt_stamp(m.write_locked_until),
                        agent(m.writer),
                        opt_stamp(m.wb_ready_at),
                        agent(m.sole_holder),
                        stamp(m.last_write),
                        flags(m.prefetched, line.dirty),
                    ]);
                }
            }
            out.put(&[stamp(st.refetch_after[ob])]);
            match st.epoch[ob] {
                None => out.put(&[ABSENT; 2]),
                Some((start, writer)) => out.put(&[stamp(start), agent(Some(writer))]),
            }
        }
        for &oa in &perm.agents[..self.cfg.agents] {
            for &ob in blocks {
                match st.l0[copy_slot(oa, ob)] {
                    None => out.put(&[ABSENT; COPY_BYTES]),
                    Some(c) => out.put(&[
                        stamp(c.lease_end),
                        stamp(c.acquired),
                        flags(c.write_lease, c.dirty),
                    ]),
                }
            }
        }
        AccKey(out.key)
    }

    /// Inverse of packing through the identity permutation.
    fn unpack(&self, key: &AccKey) -> AccState {
        let mut input = Unpacker {
            key: &key.0,
            pos: 0,
        };
        let mut st = self.initial();
        let [now, events_hi, events_lo] = input.take();
        st.now = unstamp(now);
        st.events = u64::from(u16::from_be_bytes([events_hi, events_lo]));
        let agent = |b: u8| (b != ABSENT).then(|| AxcId::new(u16::from(b)));
        for block in 0..self.cfg.blocks {
            let [gtime, lock, writer, wb, sole, last_write, bits] = input.take();
            st.l1[block] = (gtime != ABSENT).then(|| L1Line {
                meta: L1Meta {
                    prefetched: bits & 2 != 0,
                    gtime: unstamp(gtime),
                    write_locked_until: opt_unstamp(lock),
                    writer: agent(writer),
                    wb_ready_at: opt_unstamp(wb),
                    sole_holder: agent(sole),
                    last_write: unstamp(last_write),
                },
                dirty: bits & 1 != 0,
            });
            let [barrier] = input.take();
            st.refetch_after[block] = unstamp(barrier);
            let [start, writer] = input.take();
            st.epoch[block] = opt_unstamp(start).zip(agent(writer));
        }
        for a in 0..self.cfg.agents {
            for block in 0..self.cfg.blocks {
                let [lease_end, acquired, bits] = input.take();
                st.l0[copy_slot(a, block)] = (lease_end != ABSENT).then(|| L0Copy {
                    lease_end: unstamp(lease_end),
                    write_lease: bits & 2 != 0,
                    dirty: bits & 1 != 0,
                    acquired: unstamp(acquired),
                });
            }
        }
        st
    }

    /// The smallest key of `st`'s symmetry orbit (with symmetry off,
    /// just its key).
    fn canonical_key(&self, st: &AccState) -> AccKey {
        let identity = self.pack(st, &self.perms[0]);
        self.perms[1..]
            .iter()
            .fold(identity, |best, perm| best.min(self.pack(st, perm)))
    }

    fn exceeds_bound(&self, st: &AccState) -> bool {
        let bound = self.cfg.value_bound();
        let mut max = st.now;
        for line in st.l1.iter().flatten() {
            max = max.max(line.meta.gtime).max(line.meta.last_write);
            if let Some(t) = line.meta.write_locked_until {
                max = max.max(t);
            }
            if let Some(t) = line.meta.wb_ready_at {
                max = max.max(t);
            }
        }
        for copy in st.l0.iter().flatten() {
            max = max.max(copy.lease_end).max(copy.acquired);
        }
        for &t in &st.refetch_after {
            max = max.max(t);
        }
        max > bound
    }
}

impl Model for AccModel {
    type State = AccState;
    type Key = AccKey;
    type Action = AccAction;

    fn initial(&self) -> AccState {
        AccState {
            now: Cycle::ZERO,
            l1: [None; MAX_BLOCKS],
            l0: [None; MAX_AGENTS * MAX_BLOCKS],
            refetch_after: [Cycle::ZERO; MAX_BLOCKS],
            epoch: [None; MAX_BLOCKS],
            events: 0,
        }
    }

    fn key(&self, state: &AccState) -> AccKey {
        self.canonical_key(state)
    }

    fn state(&self, key: &AccKey) -> AccState {
        self.unpack(key)
    }

    fn actions(&self, _state: &AccState, out: &mut Vec<AccAction>) {
        out.push(AccAction::Tick);
        // Checked: agent counts are tiny model parameters, but a wrap
        // here would silently shrink the explored action space.
        for agent in 0..u16::try_from(self.cfg.agents).unwrap_or(u16::MAX) {
            for block in 0..self.cfg.blocks {
                for &lease in &self.cfg.leases {
                    for write in [false, true] {
                        out.push(AccAction::Access {
                            agent,
                            block,
                            write,
                            lease,
                        });
                    }
                }
            }
            out.push(AccAction::Downgrade { agent });
        }
        for block in 0..self.cfg.blocks {
            out.push(AccAction::HostForward { block });
        }
    }

    fn apply(&self, state: &AccState, action: &AccAction) -> Option<AccState> {
        let mut next = match *action {
            AccAction::Tick => {
                if state.now.value() >= self.cfg.horizon {
                    return None;
                }
                let mut st = *state;
                st.now += 1;
                Some(st)
            }
            AccAction::Access {
                agent,
                block,
                write,
                lease,
            } => self.apply_access(state, AxcId::new(agent), block, write, lease),
            AccAction::Downgrade { agent } => Some(self.apply_downgrade(state, AxcId::new(agent))),
            AccAction::HostForward { block } => self.apply_host_forward(state, block),
        }?;
        self.normalize(&mut next);
        // Out-of-bound states are pruned here, before any packing: their
        // timestamps may not fit a key byte.
        (!self.exceeds_bound(&next)).then_some(next)
    }

    fn check(&self, st: &AccState) -> Option<Violation> {
        let now = st.now;
        for block in 0..self.cfg.blocks {
            let Some(line) = st.l1[block] else { continue };
            let meta = line.meta;
            // A write-locked line must name its writer.
            if meta.write_locked_until.is_some() && meta.writer.is_none() {
                return Some(Violation {
                    protocol: "ACC",
                    rule: "write-lock-writer",
                    detail: format!("b{block} is write-locked with no writer recorded"),
                });
            }
            for agent in 0..self.cfg.agents {
                let Some(copy) = st.l0[copy_slot(agent, block)] else {
                    continue;
                };
                // Lease containment: every live L0 lease is covered by
                // GTIME, or a host forward could release the line while an
                // L0X still considers its copy valid.
                if copy.lease_end >= now && copy.lease_end > meta.gtime {
                    return Some(Violation {
                        protocol: "ACC",
                        rule: "lease-containment",
                        detail: format!(
                            "b{block}: A{agent} lease_end {} exceeds L1X gtime {}",
                            copy.lease_end, meta.gtime
                        ),
                    });
                }
            }
            // Write-epoch exclusivity (SWMR): no other agent's lease
            // interval may overlap the live write epoch [start, lock_end].
            if let (Some(lock_end), Some(writer), Some((start, shadow_writer))) =
                (meta.write_locked_until, meta.writer, st.epoch[block])
            {
                if writer == shadow_writer {
                    for agent in 0..self.cfg.agents {
                        if AxcId::new(agent as u16) == writer {
                            continue;
                        }
                        let Some(copy) = st.l0[copy_slot(agent, block)] else {
                            continue;
                        };
                        if copy.acquired < lock_end && start < copy.lease_end {
                            return Some(Violation {
                                protocol: "ACC",
                                rule: "write-epoch-exclusivity",
                                detail: format!(
                                    "b{block}: A{agent} lease [{}, {}] overlaps write epoch \
                                     [{}, {}] of A{}",
                                    copy.acquired,
                                    copy.lease_end,
                                    start,
                                    lock_end,
                                    writer.index()
                                ),
                            });
                        }
                    }
                }
            }
        }
        None
    }

    fn is_terminal(&self, st: &AccState) -> bool {
        // Below the horizon `tick` is always enabled, so a deadlock can
        // only be reported there — which is exactly the claim: every
        // pre-horizon state admits progress.
        st.now.value() >= self.cfg.horizon
    }

    fn render(&self, st: &AccState) -> Vec<(String, String)> {
        let mut out = vec![("now".to_string(), st.now.value().to_string())];
        for (block, line) in st.l1[..self.cfg.blocks].iter().enumerate() {
            let value = match line {
                None => {
                    let barrier = st.refetch_after[block];
                    if barrier > st.now {
                        format!("- (refetch@{barrier})")
                    } else {
                        "-".to_string()
                    }
                }
                Some(l) => {
                    let mut v = format!("gtime={}", l.meta.gtime.value());
                    if let (Some(t), Some(w)) = (l.meta.write_locked_until, l.meta.writer) {
                        v.push_str(&format!(" lock={}@A{}", t.value(), w.index()));
                    }
                    if let Some(t) = l.meta.wb_ready_at {
                        v.push_str(&format!(" wb={}", t.value()));
                    }
                    if let Some(a) = l.meta.sole_holder {
                        v.push_str(&format!(" sole=A{}", a.index()));
                    }
                    if l.dirty {
                        v.push_str(" dirty");
                    }
                    v
                }
            };
            out.push((format!("l1[b{block}]"), value));
        }
        for agent in 0..self.cfg.agents {
            for block in 0..self.cfg.blocks {
                let value = match st.l0[copy_slot(agent, block)] {
                    None => "-".to_string(),
                    Some(c) => format!(
                        "[{}, {}]{}{}",
                        c.acquired.value(),
                        c.lease_end.value(),
                        if c.write_lease { " W" } else { "" },
                        if c.dirty { " dirty" } else { "" }
                    ),
                };
                out.push((format!("l0[A{agent}, b{block}]"), value));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use fusion_types::hash::FxHashSet;

    /// Every state the explorer would store for `model` (one
    /// representative per key), by a plain BFS over the `Model` API that
    /// ignores invariants.
    fn reachable(model: &AccModel) -> Vec<AccState> {
        let mut states = vec![model.initial()];
        let mut seen: FxHashSet<AccKey> = states.iter().map(|s| model.key(s)).collect();
        let mut actions = Vec::new();
        let mut i = 0;
        while i < states.len() {
            let st = states[i];
            i += 1;
            actions.clear();
            model.actions(&st, &mut actions);
            for action in &actions {
                if let Some(next) = model.apply(&st, action) {
                    let key = model.key(&next);
                    if seen.insert(key) {
                        states.push(model.state(&key));
                    }
                }
            }
        }
        states
    }

    /// Independent oracle for the packing permutation: `st` with agents
    /// and blocks renamed by `pa` / `pb` (new index -> old index).
    fn permuted(st: &AccState, pa: &[usize], pb: &[usize]) -> AccState {
        let mut new_of = [0u16; MAX_AGENTS];
        for (new, &old) in pa.iter().enumerate() {
            new_of[old] = new as u16;
        }
        let rename = |a: AxcId| AxcId::new(new_of[a.index()]);
        let mut out = *st;
        for (nb, &ob) in pb.iter().enumerate() {
            out.l1[nb] = st.l1[ob].map(|mut line| {
                line.meta.writer = line.meta.writer.map(rename);
                line.meta.sole_holder = line.meta.sole_holder.map(rename);
                line
            });
            out.refetch_after[nb] = st.refetch_after[ob];
            out.epoch[nb] = st.epoch[ob].map(|(start, writer)| (start, rename(writer)));
            for (na, &oa) in pa.iter().enumerate() {
                out.l0[copy_slot(na, nb)] = st.l0[copy_slot(oa, ob)];
            }
        }
        out
    }

    #[test]
    fn packing_round_trips_every_reachable_state() {
        let fault = Some(ProtocolFault {
            at_event: 2,
            kind: ProtocolFaultKind::GtimeRegression,
        });
        for (label, cfg, states) in [
            (
                "acc-dx",
                AccModelConfig {
                    forwarding: true,
                    ..AccModelConfig::small()
                },
                Some(12_521),
            ),
            (
                "acc-renew",
                AccModelConfig {
                    renewal: true,
                    ..AccModelConfig::small()
                },
                Some(18_645),
            ),
            // A planted fault exercises the event counter's key bytes.
            (
                "acc+fault",
                AccModelConfig {
                    fault,
                    ..AccModelConfig::small()
                },
                None,
            ),
        ] {
            let model = AccModel::new(cfg);
            let reached = reachable(&model);
            if let Some(n) = states {
                assert_eq!(reached.len(), n, "{label}: reachable space changed");
            }
            for st in &reached {
                let key = model.key(st);
                assert_eq!(model.state(&key), *st, "{label}: {st:?}");
                assert_eq!(model.key(&model.state(&key)), key, "{label}: {st:?}");
            }
            if label == "acc+fault" {
                assert!(reached.iter().any(|s| s.events > 0));
            }
        }
    }

    #[test]
    fn canonical_key_is_the_same_across_each_orbit() {
        for (agents, blocks, horizon) in [(2, 2, 1), (3, 1, 2)] {
            let model = AccModel::new(AccModelConfig {
                agents,
                blocks,
                horizon,
                leases: vec![1],
                ..AccModelConfig::small()
            });
            let mut moved = 0;
            for st in reachable(&model) {
                let key = model.key(&st);
                // Stored states are their orbit's representative: their
                // unpermuted packing is the orbit's key.
                assert_eq!(model.pack(&st, &model.perms[0]), key);
                for pa in permutations(agents) {
                    for pb in permutations(blocks) {
                        let image = permuted(&st, &pa, &pb);
                        moved += usize::from(image != st);
                        assert_eq!(model.key(&image), key, "{st:?} via {pa:?} {pb:?}");
                    }
                }
            }
            assert!(
                moved > 0,
                "{agents}x{blocks}: no state has a non-trivial orbit"
            );
        }
    }

    #[test]
    fn tiny_config_verifies_clean() {
        let model = AccModel::new(AccModelConfig {
            agents: 2,
            blocks: 1,
            horizon: 3,
            leases: vec![1],
            renewal: false,
            forwarding: false,
            fault: None,
        });
        let exp = explore(&model, 5_000_000);
        assert!(exp.complete, "state space must close");
        assert!(
            exp.violation.is_none(),
            "clean protocol must verify: {:?}",
            exp.violation
        );
        assert!(exp.states > 100, "exploration is non-trivial");
    }

    #[test]
    fn planted_lease_overrun_yields_counterexample() {
        let model = AccModel::new(AccModelConfig {
            agents: 2,
            blocks: 1,
            horizon: 3,
            leases: vec![1],
            renewal: false,
            forwarding: false,
            fault: Some(ProtocolFault {
                at_event: 0,
                kind: ProtocolFaultKind::LeaseOverrun,
            }),
        });
        let exp = explore(&model, 5_000_000);
        let ce = exp.violation.expect("overrun must be found");
        assert_eq!(ce.violation.rule, "lease-containment");
        assert!(!ce.steps.is_empty());
    }
}
