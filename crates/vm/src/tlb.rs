//! Translation lookaside buffer.

use fusion_types::{PhysAddr, Pid, VirtAddr, PAGE_BYTES};

use crate::PageTable;

/// A fully-associative LRU TLB.
///
/// In FUSION this structure sits on the shared L1X **miss path** (the
/// AX-TLB): accelerator loads/stores that hit in the tile never consult it,
/// which is where the paper's Table 6 lookup counts and the sub-1 % energy
/// claim come from. The host model uses the same structure on its critical
/// path.
///
/// # Examples
///
/// ```
/// use fusion_vm::{PageTable, Tlb};
/// use fusion_types::{Pid, VirtAddr};
///
/// let mut pt = PageTable::new();
/// let mut tlb = Tlb::new(2);
/// tlb.translate(Pid::new(1), VirtAddr::new(0x0000), &mut pt);
/// tlb.translate(Pid::new(1), VirtAddr::new(0x1000), &mut pt);
/// tlb.translate(Pid::new(1), VirtAddr::new(0x2000), &mut pt); // evicts page 0
/// tlb.translate(Pid::new(1), VirtAddr::new(0x0000), &mut pt);
/// assert_eq!(tlb.misses(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    // Entries in stable slots: an entry keeps its slot from fill to
    // eviction, and a fill into a full TLB reuses the victim's slot.
    slots: Vec<TlbEntry>,
    // Replacement order, most recently used first: `order[i]` is the slot
    // at position `i`. Hits swap their position with position 0 and an
    // eviction moves the last position into the victim's, so this is
    // exactly the entry order of a plain array kept with swap-to-front
    // and `swap_remove` — the order the digest walks.
    order: Vec<usize>,
    // Inverse of `order`: `rank[slot]` is the slot's position.
    rank: Vec<usize>,
    // Direct-mapped (pid, vpage) -> slot hints, `HINTS_PER_ENTRY` per
    // entry. A hint is checked against the slot's tag before use, so a
    // stale or colliding hint costs one scan of `slots`, never a wrong
    // translation. Derived state: not digested.
    hints: Vec<u16>,
    capacity: usize,
    tick: u64,
    lookups: u64,
    misses: u64,
}

#[derive(Debug, Clone)]
struct TlbEntry {
    pid: Pid,
    vpage: u64,
    frame_base: u64,
    stamp: u64,
}

impl TlbEntry {
    #[inline]
    fn tags(&self, pid: Pid, vpage: u64) -> bool {
        self.pid == pid && self.vpage == vpage
    }
}

/// Hint-table slots per TLB entry (rounded up to a power of two): sparse
/// enough that hot pages rarely share a hint.
const HINTS_PER_ENTRY: usize = 16;

/// Hint for an empty table cell: no slot has this index.
const NO_HINT: u16 = u16::MAX;

/// The hint for `slot`; a slot past `u16` range gets none (and is found
/// by the scan).
#[inline]
fn hint(slot: usize) -> u16 {
    u16::try_from(slot).unwrap_or(NO_HINT)
}

impl Tlb {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            slots: Vec::with_capacity(capacity),
            order: Vec::with_capacity(capacity),
            rank: Vec::with_capacity(capacity),
            hints: vec![NO_HINT; (capacity * HINTS_PER_ENTRY).next_power_of_two()],
            capacity,
            tick: 0,
            lookups: 0,
            misses: 0,
        }
    }

    /// The hint-table cell of `(pid, vpage)`.
    #[inline]
    fn hint_cell(&self, pid: Pid, vpage: u64) -> usize {
        let h = (vpage ^ (u64::from(pid.value()) << 40)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // The table length is a power of two: keep the top bits.
        (h >> (64 - self.hints.len().trailing_zeros())) as usize
    }

    /// Translates `va`, walking `page_table` on a miss (and allocating the
    /// frame on first touch, as the simulated OS would).
    pub fn translate(&mut self, pid: Pid, va: VirtAddr, page_table: &mut PageTable) -> PhysAddr {
        self.lookups += 1;
        self.tick += 1;
        let vpage = va.value() / PAGE_BYTES as u64;
        // Hot-path note: the page-local streams that dominate these traces
        // hit the most recently used entry, checked first; any other hit
        // is found through its hint, and only a hint collision scans.
        let cell = self.hint_cell(pid, vpage);
        let hit = match self.order.first() {
            Some(&s) if self.slots[s].tags(pid, vpage) => Some(s),
            _ => {
                let h = usize::from(self.hints[cell]);
                if self.slots.get(h).is_some_and(|e| e.tags(pid, vpage)) {
                    Some(h)
                } else {
                    let found = self.slots.iter().position(|e| e.tags(pid, vpage));
                    if let Some(s) = found {
                        self.hints[cell] = hint(s);
                    }
                    found
                }
            }
        };
        if let Some(slot) = hit {
            self.move_to_front(slot);
            let e = &mut self.slots[slot];
            e.stamp = self.tick;
            return PhysAddr::new(e.frame_base + va.page_offset() as u64);
        }
        self.misses += 1;
        let pa = page_table.translate(pid, va);
        let entry = TlbEntry {
            pid,
            vpage,
            frame_base: pa.page_base().value(),
            stamp: self.tick,
        };
        let slot = if self.slots.len() >= self.capacity {
            // The LRU victim is the unique minimum stamp (every lookup
            // stamps with a fresh tick), whatever order slots are in.
            let victim = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                // lint:allow-unwrap — eviction only runs when slots is full
                .expect("non-empty TLB");
            // `swap_remove` of the victim's position: the last position
            // moves into it.
            let at = self.rank[victim];
            // lint:allow-unwrap — a full TLB has a last position
            let last = self.order.pop().expect("non-empty TLB");
            if last != victim {
                self.order[at] = last;
                self.rank[last] = at;
            }
            self.slots[victim] = entry;
            victim
        } else {
            self.slots.push(entry);
            self.rank.push(0);
            self.slots.len() - 1
        };
        self.rank[slot] = self.order.len();
        self.order.push(slot);
        self.hints[cell] = hint(slot);
        pa
    }

    /// Swaps `slot`'s position with position 0.
    #[inline]
    fn move_to_front(&mut self, slot: usize) {
        let at = self.rank[slot];
        if at != 0 {
            let first = self.order[0];
            self.order[0] = slot;
            self.order[at] = first;
            self.rank[slot] = 0;
            self.rank[first] = at;
        }
    }

    /// Drops every entry for `pid` (context teardown / shootdown).
    pub fn flush_pid(&mut self, pid: Pid) {
        // Survivors keep their relative order and are compacted into
        // slots `0..n` in that order.
        let survivors: Vec<TlbEntry> = self
            .order
            .iter()
            .map(|&s| self.slots[s].clone())
            .filter(|e| e.pid != pid)
            .collect();
        self.slots = survivors;
        self.order = (0..self.slots.len()).collect();
        self.rank = self.order.clone();
        self.hints.fill(NO_HINT);
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups that required a page-table walk.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl fusion_sim::StateDigest for Tlb {
    fn digest(&self, h: &mut fusion_sim::StateHasher) {
        h.write_usize(self.capacity);
        h.write_u64(self.tick);
        h.write_u64(self.lookups);
        h.write_u64(self.misses);
        // Entry order is replacement state (move-to-front LRU), so an
        // ordered walk is both canonical and necessary.
        h.write_usize(self.order.len());
        for &s in &self.order {
            let e = &self.slots[s];
            e.pid.digest(h);
            h.write_u64(e.vpage);
            h.write_u64(e.frame_base);
            h.write_u64(e.stamp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(8);
        let pid = Pid::new(1);
        let a = tlb.translate(pid, VirtAddr::new(0x1000), &mut pt);
        let b = tlb.translate(pid, VirtAddr::new(0x1040), &mut pt);
        assert_eq!(a.page_base(), b.page_base());
        assert_eq!(tlb.lookups(), 2);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn lru_eviction() {
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(2);
        let pid = Pid::new(1);
        tlb.translate(pid, VirtAddr::new(0x0000), &mut pt);
        tlb.translate(pid, VirtAddr::new(0x1000), &mut pt);
        tlb.translate(pid, VirtAddr::new(0x0000), &mut pt); // refresh page 0
        tlb.translate(pid, VirtAddr::new(0x2000), &mut pt); // evicts page 1
        tlb.translate(pid, VirtAddr::new(0x0000), &mut pt); // still a hit
        assert_eq!(tlb.misses(), 3);
    }

    #[test]
    fn pid_isolation() {
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(8);
        let a = tlb.translate(Pid::new(1), VirtAddr::new(0x1000), &mut pt);
        let b = tlb.translate(Pid::new(2), VirtAddr::new(0x1000), &mut pt);
        assert_ne!(a.page_base(), b.page_base());
        assert_eq!(tlb.misses(), 2);
    }

    #[test]
    fn flush_pid_removes_only_that_pid() {
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(8);
        tlb.translate(Pid::new(1), VirtAddr::new(0x1000), &mut pt);
        tlb.translate(Pid::new(2), VirtAddr::new(0x2000), &mut pt);
        tlb.flush_pid(Pid::new(1));
        assert_eq!(tlb.len(), 1);
        tlb.translate(Pid::new(2), VirtAddr::new(0x2000), &mut pt);
        assert_eq!(tlb.misses(), 2); // pid-2 entry survived
    }

    /// The scanning TLB the index replaced, kept as the reference model:
    /// same entries, stamps, move-to-front order and digest.
    struct LinearTlb {
        entries: Vec<TlbEntry>,
        capacity: usize,
        tick: u64,
        lookups: u64,
        misses: u64,
    }

    impl LinearTlb {
        fn translate(&mut self, pid: Pid, va: VirtAddr, page_table: &mut PageTable) -> PhysAddr {
            self.lookups += 1;
            self.tick += 1;
            let vpage = va.value() / PAGE_BYTES as u64;
            if let Some(pos) = self
                .entries
                .iter()
                .position(|e| e.pid == pid && e.vpage == vpage)
            {
                self.entries.swap(0, pos);
                let e = &mut self.entries[0];
                e.stamp = self.tick;
                return PhysAddr::new(e.frame_base + va.page_offset() as u64);
            }
            self.misses += 1;
            let pa = page_table.translate(pid, va);
            if self.entries.len() >= self.capacity {
                let victim = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(i, _)| i)
                    .unwrap();
                self.entries.swap_remove(victim);
            }
            self.entries.push(TlbEntry {
                pid,
                vpage,
                frame_base: pa.page_base().value(),
                stamp: self.tick,
            });
            pa
        }

        fn digest(&self) -> (u64, u64) {
            let mut h = fusion_sim::StateHasher::new();
            h.write_usize(self.capacity);
            h.write_u64(self.tick);
            h.write_u64(self.lookups);
            h.write_u64(self.misses);
            h.write_usize(self.entries.len());
            for e in &self.entries {
                fusion_sim::StateDigest::digest(&e.pid, &mut h);
                h.write_u64(e.vpage);
                h.write_u64(e.frame_base);
                h.write_u64(e.stamp);
            }
            h.finish128()
        }
    }

    /// splitmix64 step: the seeded stream driving the differential test.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn indexed_tlb_matches_the_linear_tlb_step_for_step() {
        for capacity in [1, 2, 32, 64] {
            for seed in 0..4u64 {
                let mut rng = seed * 1000 + capacity as u64;
                let mut fast = Tlb::new(capacity);
                let mut slow = LinearTlb {
                    entries: Vec::new(),
                    capacity,
                    tick: 0,
                    lookups: 0,
                    misses: 0,
                };
                let (mut pt_fast, mut pt_slow) = (PageTable::new(), PageTable::new());
                // A page pool a little larger than the TLB, so hits, slot-0
                // hits and evictions all occur; three processes share it.
                let pages = 2 * capacity as u64 + 3;
                let mut last = 0u64;
                for step in 0..2000 {
                    let r = next(&mut rng);
                    if r.is_multiple_of(97) {
                        let pid = Pid::new((r >> 8) as u32 % 3);
                        fast.flush_pid(pid);
                        slow.entries.retain(|e| e.pid != pid);
                    } else {
                        // Mostly page-local streams, as the traces are.
                        let page = if r.is_multiple_of(4) {
                            (r >> 16) % pages
                        } else {
                            last
                        };
                        last = page;
                        let pid =
                            Pid::new((r >> 40) as u32 % if r.is_multiple_of(8) { 3 } else { 1 });
                        let va = VirtAddr::new(page * PAGE_BYTES as u64 + (r >> 50) % 4096);
                        let a = fast.translate(pid, va, &mut pt_fast);
                        let b = slow.translate(pid, va, &mut pt_slow);
                        assert_eq!(a, b, "cap {capacity} seed {seed} step {step}: address");
                    }
                    assert_eq!(fast.lookups(), slow.lookups, "step {step}: lookups");
                    assert_eq!(fast.misses(), slow.misses, "step {step}: misses");
                    assert_eq!(fast.len(), slow.entries.len(), "step {step}: len");
                    let mut h = fusion_sim::StateHasher::new();
                    fusion_sim::StateDigest::digest(&fast, &mut h);
                    assert_eq!(h.finish128(), slow.digest(), "step {step}: digest");
                    for (i, &s) in fast.order.iter().enumerate() {
                        assert_eq!(fast.rank[s], i, "step {step}: rank");
                    }
                }
            }
        }
    }
}
