//! The host side shared by every system: OOO core memory path, host L1,
//! directory MESI L2, main memory and the translation structures.

use fusion_coherence::{AgentId, DirectoryMesi, MesiReq};
use fusion_energy::{Component, EnergyLedger, EnergyModel};
use fusion_mem::{MainMemory, NucaRing, ReplacementPolicy, SetAssocCache};
use fusion_types::{AccessKind, BlockAddr, Cycle, PhysAddr, Pid, SystemConfig, CACHE_BLOCK_BYTES};
use fusion_vm::{PageTable, Tlb};

/// Extra latency of a 3-hop owner intervention (directory → owner →
/// requester) beyond the plain L2 access.
const FWD_HOP_CYCLES: u64 = 12;

/// Host-L1 line metadata: whether the copy is exclusive (E/M) or shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HostMeta {
    exclusive: bool,
}

/// How a tile-side structure reacts to a forwarded host request.
///
/// Implemented by each system: FUSION consults the AX-RMAP and the ACC
/// GTIME state, SHARED invalidates its MESI L1X line, SCRATCH caches
/// nothing. Multi-tile systems route on `agent` (each accelerator tile is
/// its own MESI agent).
pub trait TileAgent {
    /// Handles a Fwd-GetS/GetX for physical address `pa`, directed at the
    /// tile registered as MESI `agent`, arriving at `now`; returns
    /// `(release_time, dirty)` — when the data/ack is available to the
    /// host and whether dirty data travels back.
    fn handle_forward(
        &mut self,
        agent: AgentId,
        pa: PhysAddr,
        now: Cycle,
        ledger: &mut EnergyLedger,
    ) -> (Cycle, bool);
}

/// A [`TileAgent`] that caches nothing (SCRATCH).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTile;

impl TileAgent for NoTile {
    fn handle_forward(
        &mut self,
        _agent: AgentId,
        _pa: PhysAddr,
        now: Cycle,
        _ledger: &mut EnergyLedger,
    ) -> (Cycle, bool) {
        (now, false)
    }
}

/// Result of filling the accelerator tile from the host.
#[derive(Debug, Clone)]
pub struct TileFill {
    /// When the 64 B data response reaches the tile.
    pub data_at: Cycle,
    /// Physical address of the filled block (for the AX-RMAP).
    pub pa: PhysAddr,
    /// Tile-cached blocks recalled by an inclusive-L2 eviction; the caller
    /// must evict them from its tile structures.
    pub tile_recalls: Vec<PhysAddr>,
}

/// Host-side state machine shared by all four systems.
// `Clone` and `sync_from` back tile-parallel replay (DESIGN.md §12): each
// tile worker replays its phases against a mirror of the authoritative
// host and resyncs it by the L2 sets that changed; the authoritative copy
// advances only through the deterministic merge.
#[derive(Debug, Clone)]
pub struct HostSide {
    cfg: SystemConfig,
    energy: EnergyModel,
    dir: DirectoryMesi,
    host_l1: SetAssocCache<HostMeta>,
    mem: MainMemory,
    page_table: PageTable,
    host_tlb: Tlb,
    ax_tlb: Tlb,
    nuca: NucaRing,
    // No virtual→physical map of tile-filled blocks: a tile only evicts
    // blocks it filled, each fill's `pa` came from `page_table` (via the
    // AX-TLB), and page-table frames never move once allocated, so
    // `page_table.lookup` at eviction time recovers exactly the fill's
    // `pa`.
    host_forwards: u64,
    // Tile-fill link timings on the L1X-L2 link (request message, 64 B
    // data response): run constants of `cfg`, computed once.
    fill_req_cycles: u64,
    fill_data_cycles: u64,
}

impl HostSide {
    /// Builds the host side for `cfg`. When the runtime protocol checker
    /// is enabled on `cfg`, the MESI directory validates its transition
    /// invariants (and applies any planted fault) from the first request.
    pub fn new(cfg: &SystemConfig) -> Self {
        let mut dir = DirectoryMesi::new(cfg.l2);
        if cfg.checker.enabled {
            dir.enable_checker(cfg.checker.mesi_fault);
        }
        HostSide {
            cfg: cfg.clone(),
            energy: EnergyModel::new(cfg),
            dir,
            host_l1: SetAssocCache::new(cfg.host_l1, ReplacementPolicy::Lru),
            mem: MainMemory::table2(),
            page_table: PageTable::new(),
            host_tlb: Tlb::new(64),
            ax_tlb: Tlb::new(32),
            nuca: NucaRing::table2(),
            host_forwards: 0,
            fill_req_cycles: cfg.link_l1x_l2.transfer_cycles(cfg.control_message_bytes),
            fill_data_cycles: cfg.link_l1x_l2.transfer_cycles(CACHE_BLOCK_BYTES as u64),
        }
    }

    /// Starts logging the L2 sets this host's directory mutates (see
    /// [`HostSide::sync_from`]).
    pub fn track_touched_sets(&mut self) {
        self.dir.track_touched_sets();
    }

    /// The L2 sets mutated since the log was last cleared.
    pub fn touched_sets(&self) -> &[usize] {
        self.dir.touched_sets()
    }

    /// Empties the touched-set log.
    pub fn clear_touched_sets(&mut self) {
        self.dir.clear_touched_sets();
    }

    /// Makes this host (a clone of `auth`, or a mirror synced from it
    /// before) equal to `auth` again. The L2 directory copies only the
    /// sets this host logged as touched plus `extra_sets`, the sets
    /// `auth` mutated since the two were last equal; everything else is
    /// small and copied whole. The configuration-derived fields are never
    /// mutated, so a clone already agrees on them.
    pub fn sync_from(&mut self, auth: &HostSide, extra_sets: &[usize]) {
        self.dir.sync_from(&auth.dir, extra_sets);
        self.host_l1.clone_from(&auth.host_l1);
        self.mem.clone_from(&auth.mem);
        self.page_table.clone_from(&auth.page_table);
        self.host_tlb.clone_from(&auth.host_tlb);
        self.ax_tlb.clone_from(&auth.ax_tlb);
        self.host_forwards = auth.host_forwards;
    }

    /// The energy table in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// AX-TLB lookups so far (Table 6).
    pub fn ax_tlb_lookups(&self) -> u64 {
        self.ax_tlb.lookups()
    }

    /// Host requests forwarded into the tile so far.
    pub fn host_forwards(&self) -> u64 {
        self.host_forwards
    }

    /// L2 data-array accesses so far.
    pub fn l2_accesses(&self) -> u64 {
        self.dir.l2_hits() + self.dir.l2_misses()
    }

    /// The first MESI invariant violation the runtime checker recorded,
    /// if any (always `None` on the trusted path). Polled by the systems
    /// at phase boundaries.
    pub fn checker_violation(&self) -> Option<fusion_types::error::InvariantViolation> {
        self.dir.checker_violation()
    }

    fn phys_block(pa: PhysAddr) -> BlockAddr {
        BlockAddr::from_index(pa.block_base().value() / CACHE_BLOCK_BYTES as u64)
    }

    const PHYS_PID: Pid = Pid(0);

    /// Serves an L2/directory request on behalf of `agent`, charging the
    /// L2 access, any memory accesses and any host-L1 interventions.
    /// Returns `(ready_time, tile_recalls)`.
    fn l2_request(
        &mut self,
        agent: AgentId,
        pa: PhysAddr,
        req: MesiReq,
        at: Cycle,
        ledger: &mut EnergyLedger,
        tile: Option<&mut dyn TileAgent>,
    ) -> (Cycle, Vec<PhysAddr>) {
        let out = self.dir.request(agent, pa, req);
        ledger.charge(Component::L2, self.energy.l2_access);
        // NUCA: the host core and the accelerator tile sit on opposite
        // sides of the 8-tile L2 ring; latency depends on the block's
        // home tile (Table 2: "8 tile NUCA, ring, avg. 20 cycles").
        let from_tile = if agent == AgentId::HOST_L1 { 0 } else { 4 };
        let mut ready = at + self.nuca.latency(Self::phys_block(pa), from_tile);
        for _ in 0..out.memory_accesses {
            let done = self.mem.access(Self::phys_block(pa), ready);
            ledger.charge(Component::Memory, self.energy.memory_access);
            ready = done;
        }
        let mut tile_recalls = Vec::new();
        let mut tile_agent = tile;
        let handle_agent = |this: &mut Self,
                            a: AgentId,
                            block_pa: PhysAddr,
                            ready: Cycle,
                            ledger: &mut EnergyLedger,
                            tile_agent: &mut Option<&mut dyn TileAgent>,
                            tile_recalls: &mut Vec<PhysAddr>|
         -> Cycle {
            match a {
                AgentId::HOST_L1 => {
                    // Intervention at the host L1: probe + possible dirty
                    // supply.
                    ledger.charge(Component::HostL1, this.energy.host_l1_access);
                    if let Some(e) = this
                        .host_l1
                        .invalidate(Self::PHYS_PID, Self::phys_block(block_pa))
                    {
                        if e.dirty {
                            ledger.charge(Component::L2, this.energy.l2_access);
                        }
                    }
                    ready + FWD_HOP_CYCLES
                }
                tile_id => {
                    this.host_forwards += 1;
                    match tile_agent.as_mut().map(|t| &mut **t) {
                        Some(t) => {
                            let (release, dirty) =
                                t.handle_forward(tile_id, block_pa, ready, ledger);
                            // PUTX notice + possible dirty data over the
                            // expensive link.
                            ledger.charge_bytes(
                                Component::LinkL1xL2Msg,
                                this.energy.link_l1x_l2_pj_per_byte,
                                this.cfg.control_message_bytes,
                            );
                            if dirty {
                                ledger.charge_bytes(
                                    Component::LinkL1xL2Data,
                                    this.energy.link_l1x_l2_pj_per_byte,
                                    CACHE_BLOCK_BYTES as u64,
                                );
                                ledger.charge(Component::L2, this.energy.l2_access);
                            }
                            this.dir.eviction_notice(tile_id, block_pa, dirty);
                            release + FWD_HOP_CYCLES
                        }
                        None => {
                            tile_recalls.push(block_pa);
                            ready
                        }
                    }
                }
            }
        };
        for &a in out.forwarded_to.iter().chain(out.invalidated.iter()) {
            ready = handle_agent(
                self,
                a,
                pa,
                ready,
                ledger,
                &mut tile_agent,
                &mut tile_recalls,
            );
        }
        for &(block, a) in &out.recalls {
            let block_pa = PhysAddr::new(block.index() * CACHE_BLOCK_BYTES as u64);
            let t = handle_agent(
                self,
                a,
                block_pa,
                ready,
                ledger,
                &mut tile_agent,
                &mut tile_recalls,
            );
            // Recalls proceed off the critical path of the requester,
            // except that the data must be ordered before reuse; we charge
            // the worst case.
            ready = ready.max(t);
        }
        (ready, tile_recalls)
    }

    /// Fills a tile block from the host: AX-TLB translation on the L1X
    /// miss path, request message, directory GetX (the L1X always takes
    /// the block exclusively) and the 64 B data response.
    pub fn tile_fill(
        &mut self,
        pid: Pid,
        vblock: BlockAddr,
        now: Cycle,
        ledger: &mut EnergyLedger,
        tile: &mut dyn TileAgent,
    ) -> TileFill {
        self.tile_fill_as(AgentId::TILE, pid, vblock, now, ledger, tile)
    }

    /// [`HostSide::tile_fill`] on behalf of a specific tile agent
    /// (multi-tile systems register one MESI agent per tile).
    pub fn tile_fill_as(
        &mut self,
        agent: AgentId,
        pid: Pid,
        vblock: BlockAddr,
        now: Cycle,
        ledger: &mut EnergyLedger,
        tile: &mut dyn TileAgent,
    ) -> TileFill {
        // AX-TLB sits here — off the accelerator's L0X/L1X hit path.
        let pa = self
            .ax_tlb
            .translate(pid, vblock.base(), &mut self.page_table);
        ledger.charge(Component::Tlb, self.energy.tlb_lookup);

        ledger.charge_bytes(
            Component::LinkL1xL2Msg,
            self.energy.link_l1x_l2_pj_per_byte,
            self.cfg.control_message_bytes,
        );
        let req_at = now + self.fill_req_cycles;
        let (ready, tile_recalls) =
            self.l2_request(agent, pa, MesiReq::GetX, req_at, ledger, Some(tile));
        ledger.charge_bytes(
            Component::LinkL1xL2Data,
            self.energy.link_l1x_l2_pj_per_byte,
            CACHE_BLOCK_BYTES as u64,
        );
        let data_at = ready + self.fill_data_cycles;
        TileFill {
            data_at,
            pa,
            tile_recalls,
        }
    }

    /// Processes a tile eviction: PUTX notice (plus data when dirty) to
    /// the directory. Returns the evicted physical address.
    pub fn tile_eviction(
        &mut self,
        pid: Pid,
        vblock: BlockAddr,
        dirty: bool,
        ledger: &mut EnergyLedger,
    ) -> Option<PhysAddr> {
        self.tile_eviction_as(AgentId::TILE, pid, vblock, dirty, ledger)
    }

    /// [`HostSide::tile_eviction`] on behalf of a specific tile agent.
    pub fn tile_eviction_as(
        &mut self,
        agent: AgentId,
        pid: Pid,
        vblock: BlockAddr,
        dirty: bool,
        ledger: &mut EnergyLedger,
    ) -> Option<PhysAddr> {
        // The fill's translation (see the note in `HostSide`); `None` only
        // for a block whose page was never mapped, so never filled.
        let pa = self.page_table.lookup(pid, vblock.base())?;
        self.tile_eviction_phys_as(agent, pa, dirty, ledger);
        Some(pa)
    }

    /// Physical-address variant of [`HostSide::tile_eviction`] (used by
    /// SHARED, whose L1X is physically indexed).
    pub fn tile_eviction_phys(&mut self, pa: PhysAddr, dirty: bool, ledger: &mut EnergyLedger) {
        self.tile_eviction_phys_as(AgentId::TILE, pa, dirty, ledger)
    }

    /// [`HostSide::tile_eviction_phys`] on behalf of a specific tile agent.
    pub fn tile_eviction_phys_as(
        &mut self,
        agent: AgentId,
        pa: PhysAddr,
        dirty: bool,
        ledger: &mut EnergyLedger,
    ) {
        ledger.charge_bytes(
            Component::LinkL1xL2Msg,
            self.energy.link_l1x_l2_pj_per_byte,
            self.cfg.control_message_bytes,
        );
        if dirty {
            ledger.charge_bytes(
                Component::LinkL1xL2Data,
                self.energy.link_l1x_l2_pj_per_byte,
                CACHE_BLOCK_BYTES as u64,
            );
            ledger.charge(Component::L2, self.energy.l2_access);
        }
        self.dir.eviction_notice(agent, pa, dirty);
    }

    /// Raw MESI request from the tile agent (SHARED's L1X misses). Returns
    /// the ready time and any tile blocks recalled by an inclusive-L2
    /// eviction, which the caller must invalidate in its own structures.
    pub fn mesi_request_from_tile(
        &mut self,
        pa: PhysAddr,
        req: MesiReq,
        at: Cycle,
        ledger: &mut EnergyLedger,
    ) -> (Cycle, Vec<PhysAddr>) {
        self.l2_request(AgentId::TILE, pa, req, at, ledger, None)
    }

    /// One host-core memory access (host phases of the offloaded
    /// program): host TLB → host L1 → directory/L2 → possibly a forwarded
    /// request into the tile.
    pub fn host_access(
        &mut self,
        pid: Pid,
        vblock: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        ledger: &mut EnergyLedger,
        tile: &mut dyn TileAgent,
    ) -> Cycle {
        let pa = self
            .host_tlb
            .translate(pid, vblock.base(), &mut self.page_table);
        ledger.charge(Component::Tlb, self.energy.tlb_lookup);
        let pblock = Self::phys_block(pa);
        ledger.charge(Component::HostL1, self.energy.host_l1_access);
        let l1_done = now + self.cfg.host_l1.latency;
        if let Some(line) = self.host_l1.lookup(Self::PHYS_PID, pblock) {
            let exclusive = line.meta.exclusive;
            if !kind.is_write() || exclusive {
                if kind.is_write() {
                    line.dirty = true;
                }
                return l1_done;
            }
            // Write to a Shared copy: upgrade.
            let (ready, _) = self.l2_request(
                AgentId::HOST_L1,
                pa,
                MesiReq::GetX,
                l1_done,
                ledger,
                Some(tile),
            );
            if let Some(line) = self.host_l1.probe_mut(Self::PHYS_PID, pblock) {
                line.meta.exclusive = true;
                line.dirty = true;
            }
            return ready;
        }
        // L1 miss.
        let req = if kind.is_write() {
            MesiReq::GetX
        } else {
            MesiReq::GetS
        };
        let (ready, _) = self.l2_request(AgentId::HOST_L1, pa, req, l1_done, ledger, Some(tile));
        let exclusive = kind.is_write() || self.dir.owner(pa) == Some(AgentId::HOST_L1);
        if let Some(victim) = self.host_l1.insert(
            Self::PHYS_PID,
            pblock,
            HostMeta { exclusive },
            kind.is_write(),
        ) {
            let vpa = PhysAddr::new(victim.block.index() * CACHE_BLOCK_BYTES as u64);
            self.dir
                .eviction_notice(AgentId::HOST_L1, vpa, victim.dirty);
            if victim.dirty {
                ledger.charge(Component::L2, self.energy.l2_access);
            }
        }
        ready
    }

    /// A coherent DMA block read at the LLC (SCRATCH): the engine reads
    /// the most-up-to-date data, intervening at the host L1 if necessary,
    /// without leaving any residency behind.
    pub fn dma_read_block(
        &mut self,
        pid: Pid,
        vblock: BlockAddr,
        at: Cycle,
        ledger: &mut EnergyLedger,
        tile: &mut dyn TileAgent,
    ) -> Cycle {
        let pa = self.page_table.translate(pid, vblock.base());
        let (ready, _) = self.l2_request(AgentId::TILE, pa, MesiReq::GetS, at, ledger, Some(tile));
        self.dir.eviction_notice(AgentId::TILE, pa, false);
        ready
    }

    /// A coherent DMA block write at the LLC (SCRATCH writeback).
    pub fn dma_write_block(
        &mut self,
        pid: Pid,
        vblock: BlockAddr,
        at: Cycle,
        ledger: &mut EnergyLedger,
        tile: &mut dyn TileAgent,
    ) -> Cycle {
        let pa = self.page_table.translate(pid, vblock.base());
        let (ready, _) = self.l2_request(AgentId::TILE, pa, MesiReq::GetX, at, ledger, Some(tile));
        self.dir.eviction_notice(AgentId::TILE, pa, true);
        ready
    }

    /// Translates without charging (used by systems that keep their own
    /// physically-indexed structures, e.g. SHARED's L1X).
    pub fn translate_quiet(&mut self, pid: Pid, vblock: BlockAddr) -> PhysAddr {
        self.page_table.translate(pid, vblock.base())
    }

    /// Charged AX-TLB translation on the SHARED critical path.
    pub fn shared_tlb_translate(
        &mut self,
        pid: Pid,
        vblock: BlockAddr,
        ledger: &mut EnergyLedger,
    ) -> PhysAddr {
        let pa = self
            .ax_tlb
            .translate(pid, vblock.base(), &mut self.page_table);
        ledger.charge(Component::Tlb, self.energy.tlb_lookup);
        pa
    }

    /// Directory view: does the directory currently believe the tile
    /// caches `pa`?
    pub fn directory_tracks_tile(&self, pa: PhysAddr) -> bool {
        self.dir.agent_caches(AgentId::TILE, pa)
    }

    /// Directory view: does the tile own `pa` exclusively (E/M)? A GetS
    /// answered with no other sharer grants E — the requester may upgrade
    /// to M silently.
    pub fn tile_owns(&self, pa: PhysAddr) -> bool {
        self.dir.owner(pa) == Some(AgentId::TILE)
    }
}

impl fusion_sim::StateDigest for HostMeta {
    fn digest(&self, h: &mut fusion_sim::StateHasher) {
        h.write_bool(self.exclusive);
    }
}

// The embedded `cfg` and `energy` fields are deliberately *excluded* from
// the digest: they are pure copies of / derivations from the
// `SystemConfig`, and the per-system `phase_key` signature slices are the
// component that decides which config fields a phase may depend on.
// Including them would make every cross-config digest differ and no grid
// point could ever splice. The trade-off is documented in DESIGN.md §13:
// a signature slice that *omits* a field which only influences results
// through the energy table is invisible to the digest; the memo property
// test and the CI memo-on/memo-off A/B gate cover that class.
impl fusion_sim::StateDigest for HostSide {
    fn digest(&self, h: &mut fusion_sim::StateHasher) {
        self.dir.digest(h);
        self.host_l1.digest(h);
        self.mem.digest(h);
        self.page_table.digest(h);
        self.host_tlb.digest(h);
        self.ax_tlb.digest(h);
        self.nuca.digest(h);
        h.write_u64(self.host_forwards);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (HostSide, EnergyLedger) {
        (HostSide::new(&SystemConfig::small()), EnergyLedger::new())
    }

    const P: Pid = Pid(1);

    fn vb(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn tile_fill_charges_tlb_link_l2() {
        let (mut host, mut ledger) = setup();
        let mut no_tile = NoTile;
        let fill = host.tile_fill(P, vb(1), Cycle::new(0), &mut ledger, &mut no_tile);
        assert!(
            fill.data_at > Cycle::new(200),
            "cold fill must reach memory"
        );
        assert_eq!(ledger.count(Component::Tlb), 1);
        assert_eq!(ledger.count(Component::L2), 1);
        assert_eq!(ledger.count(Component::Memory), 1);
        assert_eq!(ledger.count(Component::LinkL1xL2Data), 1);
        assert_eq!(host.ax_tlb_lookups(), 1);
    }

    #[test]
    fn second_fill_hits_l2() {
        let (mut host, mut ledger) = setup();
        let mut no_tile = NoTile;
        host.tile_fill(P, vb(1), Cycle::new(0), &mut ledger, &mut no_tile);
        host.tile_eviction(P, vb(1), true, &mut ledger);
        let before = ledger.count(Component::Memory);
        let fill = host.tile_fill(P, vb(1), Cycle::new(1000), &mut ledger, &mut no_tile);
        assert_eq!(ledger.count(Component::Memory), before, "L2 hit expected");
        assert!(fill.data_at < Cycle::new(1100));
    }

    #[test]
    fn host_access_hits_after_fill() {
        let (mut host, mut ledger) = setup();
        let mut no_tile = NoTile;
        let t1 = host.host_access(
            P,
            vb(5),
            AccessKind::Load,
            Cycle::new(0),
            &mut ledger,
            &mut no_tile,
        );
        let t2 = host.host_access(P, vb(5), AccessKind::Load, t1, &mut ledger, &mut no_tile);
        assert_eq!(t2 - t1, 3, "host L1 hit latency");
    }

    #[test]
    fn host_store_after_load_upgrades_silently_when_exclusive() {
        let (mut host, mut ledger) = setup();
        let mut no_tile = NoTile;
        // Sole reader gets E; store hits without another L2 trip.
        host.host_access(
            P,
            vb(6),
            AccessKind::Load,
            Cycle::new(0),
            &mut ledger,
            &mut no_tile,
        );
        let l2_before = ledger.count(Component::L2);
        host.host_access(
            P,
            vb(6),
            AccessKind::Store,
            Cycle::new(100),
            &mut ledger,
            &mut no_tile,
        );
        assert_eq!(
            ledger.count(Component::L2),
            l2_before,
            "E->M must be silent"
        );
    }

    #[test]
    fn dma_read_leaves_no_tile_residency() {
        let (mut host, mut ledger) = setup();
        let mut no_tile = NoTile;
        host.dma_read_block(P, vb(9), Cycle::new(0), &mut ledger, &mut no_tile);
        let pa = host.translate_quiet(P, vb(9));
        assert!(!host.directory_tracks_tile(pa));
    }

    #[test]
    fn host_access_forwards_into_tile() {
        struct Spy(u64);
        impl TileAgent for Spy {
            fn handle_forward(
                &mut self,
                _agent: AgentId,
                _pa: PhysAddr,
                now: Cycle,
                _l: &mut EnergyLedger,
            ) -> (Cycle, bool) {
                self.0 += 1;
                (now + 50, true)
            }
        }
        let (mut host, mut ledger) = setup();
        let mut spy = Spy(0);
        // Tile takes the block exclusively.
        host.tile_fill(P, vb(3), Cycle::new(0), &mut ledger, &mut NoTile);
        // Host store must be forwarded to the tile.
        let done = host.host_access(
            P,
            vb(3),
            AccessKind::Store,
            Cycle::new(500),
            &mut ledger,
            &mut spy,
        );
        assert_eq!(spy.0, 1);
        assert_eq!(host.host_forwards(), 1);
        assert!(done > Cycle::new(550), "must wait for the tile release");
        // Dirty data travelled: extra L2 write charged.
        assert!(ledger.count(Component::LinkL1xL2Data) >= 2);
    }

    #[test]
    fn tile_eviction_without_translation_is_none() {
        let (mut host, mut ledger) = setup();
        // No fill ever happened for this block: nothing to evict.
        assert!(host.tile_eviction(P, vb(99), true, &mut ledger).is_none());
        assert_eq!(ledger.count(Component::LinkL1xL2Msg), 0);
    }

    #[test]
    fn tile_eviction_targets_the_fill_pa() {
        let (mut host, mut ledger) = setup();
        let fill = host.tile_fill(P, vb(40), Cycle::new(0), &mut ledger, &mut NoTile);
        // A host access maps another page in between; the fill's frame
        // must not move.
        host.host_access(
            P,
            vb(40 + 3 * 64),
            AccessKind::Store,
            Cycle::new(500),
            &mut ledger,
            &mut NoTile,
        );
        assert!(host.directory_tracks_tile(fill.pa));
        let evicted = host.tile_eviction(P, vb(40), true, &mut ledger);
        assert_eq!(evicted, Some(fill.pa), "notice must target the fill's pa");
        assert!(!host.directory_tracks_tile(fill.pa));
        let refill = host.tile_fill(P, vb(40), Cycle::new(1000), &mut ledger, &mut NoTile);
        assert_eq!(refill.pa, fill.pa);
        assert!(host.directory_tracks_tile(refill.pa));
        assert_eq!(
            host.tile_eviction(P, vb(40), false, &mut ledger),
            Some(fill.pa)
        );
        assert!(!host.directory_tracks_tile(fill.pa));
    }

    fn digest_of(host: &HostSide) -> (u64, u64) {
        let mut h = fusion_sim::StateHasher::new();
        fusion_sim::StateDigest::digest(host, &mut h);
        h.finish128()
    }

    fn counters(host: &HostSide) -> [u64; 8] {
        [
            host.ax_tlb_lookups(),
            host.host_forwards(),
            host.l2_accesses(),
            host.dir.gets_count(),
            host.dir.getx_count(),
            host.dir.putx_count(),
            host.dir.invalidations_sent(),
            host.dir.forwards_sent(),
        ]
    }

    /// L2 sets the raw directory ops below aim at, far above the sets the
    /// (low-numbered) frames of the host and tile ops map to.
    const EVICT_SET: u64 = 3000;
    const MIRROR_ONLY_SET: u64 = 3500;
    const MERGE_ONLY_SET: u64 = 4000;

    /// One seeded random op: a raw GetS/GetX/eviction notice from one of
    /// four agents on a block of `set` (24 blocks per set, more than the
    /// 16 ways, so the set evicts), or a host access, tile fill or tile
    /// eviction on a small virtual range.
    fn random_op(
        host: &mut HostSide,
        rng: &mut crate::SplitMix64,
        set: u64,
        ledger: &mut EnergyLedger,
    ) {
        let l2_sets = host.cfg.l2.sets() as u64;
        let r = rng.next_u64();
        let agent = AgentId((r % 4) as u8);
        let pa = PhysAddr::new((set + (r >> 8) % 24 * l2_sets) * CACHE_BLOCK_BYTES as u64);
        let pid = Pid(1 + (r >> 16) as u32 % 2);
        let vblock = vb((r >> 24) % 512);
        let at = Cycle::new((r >> 40) % 10_000);
        match (r >> 4) % 6 {
            0 => {
                host.l2_request(agent, pa, MesiReq::GetS, at, ledger, Some(&mut NoTile));
            }
            1 => {
                host.l2_request(agent, pa, MesiReq::GetX, at, ledger, Some(&mut NoTile));
            }
            2 => host.dir.eviction_notice(agent, pa, r & 1 == 1),
            3 => {
                let kind = if r & 1 == 1 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                host.host_access(pid, vblock, kind, at, ledger, &mut NoTile);
            }
            4 => {
                host.tile_fill_as(AgentId(2), pid, vblock, at, ledger, &mut NoTile);
            }
            _ => {
                host.tile_eviction_as(AgentId(2), pid, vblock, r & 1 == 1, ledger);
            }
        }
    }

    #[test]
    fn mirror_sync_matches_a_fresh_clone() {
        let mut auth = HostSide::new(&SystemConfig::small());
        auth.track_touched_sets();
        let mut ledger = EnergyLedger::new();
        let mut rng = crate::SplitMix64(0x5eed);
        for _ in 0..200 {
            random_op(&mut auth, &mut rng, EVICT_SET, &mut ledger);
        }
        auth.clear_touched_sets();
        let mut mirror = auth.clone();
        let l2_sets = auth.cfg.l2.sets();
        for round in 0..20 {
            // Speculation: the mirror diverges in the eviction set, a set
            // of its own and wherever its host/tile ops land.
            for i in 0..60 {
                let set = if i % 2 == 0 {
                    EVICT_SET
                } else {
                    MIRROR_ONLY_SET
                };
                random_op(&mut mirror, &mut rng, set, &mut ledger);
            }
            // Merge: the authoritative host moves on in the eviction set
            // and in a set the mirror never touches.
            auth.clear_touched_sets();
            for i in 0..60 {
                let set = if i % 2 == 0 {
                    EVICT_SET
                } else {
                    MERGE_ONLY_SET
                };
                random_op(&mut auth, &mut rng, set, &mut ledger);
            }
            assert!(auth.touched_sets().contains(&(MERGE_ONLY_SET as usize)));
            assert!(!mirror.touched_sets().contains(&(MERGE_ONLY_SET as usize)));
            assert!(mirror.touched_sets().contains(&(EVICT_SET as usize)));
            assert!(mirror.touched_sets().iter().all(|&s| s < l2_sets));
            assert_ne!(digest_of(&mirror), digest_of(&auth), "round {round}");

            mirror.sync_from(&auth, auth.touched_sets());
            let fresh = auth.clone();
            assert_eq!(digest_of(&mirror), digest_of(&fresh), "round {round}");
            assert_eq!(counters(&mirror), counters(&fresh), "round {round}");
            assert!(mirror.touched_sets().is_empty());

            // The synced mirror and a fresh clone evolve identically.
            let mut clone = fresh;
            let (mut ra, mut rb) = (crate::SplitMix64(round), crate::SplitMix64(round));
            let mut probe_mirror = mirror.clone();
            for _ in 0..30 {
                random_op(&mut probe_mirror, &mut ra, EVICT_SET, &mut ledger);
                random_op(&mut clone, &mut rb, EVICT_SET, &mut ledger);
            }
            assert_eq!(digest_of(&probe_mirror), digest_of(&clone), "round {round}");
        }
        assert!(
            auth.dir.l2_evictions() > 0,
            "the eviction set must overflow"
        );
        assert!(mirror.dir.l2_evictions() > 0);
    }

    #[test]
    fn dma_write_marks_l2_dirty_without_residency() {
        let (mut host, mut ledger) = setup();
        host.dma_write_block(P, vb(11), Cycle::new(0), &mut ledger, &mut NoTile);
        let pa = host.translate_quiet(P, vb(11));
        assert!(!host.directory_tracks_tile(pa));
        // A later host read hits the L2 (no second memory fetch).
        let mem_before = ledger.count(Component::Memory);
        host.host_access(
            P,
            vb(11),
            AccessKind::Load,
            Cycle::new(100),
            &mut ledger,
            &mut NoTile,
        );
        assert_eq!(ledger.count(Component::Memory), mem_before);
    }

    #[test]
    fn nuca_gives_different_latencies_per_home_tile() {
        let (mut host, mut ledger) = setup();
        let mut no_tile = NoTile;
        // Fill distinct blocks: home tiles differ, so round trips differ.
        let times: Vec<u64> = (0..8u64)
            .map(|i| {
                let fill =
                    host.tile_fill(P, vb(1000 + i), Cycle::new(0), &mut ledger, &mut no_tile);
                fill.data_at.value()
            })
            .collect();
        let min = times.iter().min().unwrap();
        let max = times.iter().max().unwrap();
        assert!(max > min, "NUCA ring produced uniform latencies: {times:?}");
    }

    #[test]
    fn shared_tlb_translate_counts_ax_tlb() {
        let (mut host, mut ledger) = setup();
        host.shared_tlb_translate(P, vb(1), &mut ledger);
        host.shared_tlb_translate(P, vb(1), &mut ledger);
        assert_eq!(host.ax_tlb_lookups(), 2);
        assert_eq!(ledger.count(Component::Tlb), 2);
    }

    #[test]
    fn host_l1_victims_notify_directory() {
        let (mut host, mut ledger) = setup();
        let mut no_tile = NoTile;
        // Touch more distinct blocks than one L1 set holds. Host L1 is
        // 64K/4-way = 256 sets; blocks i*256 collide in set 0.
        for i in 0..6u64 {
            host.host_access(
                P,
                vb(i * 256),
                AccessKind::Store,
                Cycle::new(i * 1000),
                &mut ledger,
                &mut no_tile,
            );
        }
        // After evictions the directory no longer tracks the oldest block,
        // so re-access misses to L2 without a host-L1 intervention.
        let before = ledger.count(Component::HostL1);
        host.host_access(
            P,
            vb(0),
            AccessKind::Load,
            Cycle::new(100_000),
            &mut ledger,
            &mut no_tile,
        );
        // Exactly one more host-L1 access (the probe) — no self-forward.
        assert_eq!(ledger.count(Component::HostL1), before + 1);
    }
}
