//! Reclaim Unit state.

use slimio_nand::{BlockPtr, Geometry, PagePtr};

use crate::Lpn;

/// Identifier of a Reclaim Unit (superblock).
pub type RuId = u32;

/// Lifecycle of an RU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuPhase {
    /// Erased; not mapped to any stream.
    Free,
    /// Accepting appends for the stream that opened it.
    Open,
    /// Fully written; GC candidate once pages invalidate.
    Full,
}

/// One Reclaim Unit: a group of erase blocks striped across dies, filled
/// round-robin so sequential appends exploit die parallelism.
#[derive(Clone, Debug)]
pub struct Ru {
    /// The blocks composing this RU, in stripe order.
    pub blocks: Vec<BlockPtr>,
    /// Lifecycle phase.
    pub phase: RuPhase,
    /// Stream/PID that owns the RU while Open/Full (0 in conventional mode).
    pub owner_pid: u8,
    /// Next append offset (0..ru_pages).
    pub write_ptr: u64,
    /// Number of currently valid pages.
    pub valid: u64,
    /// Reverse map: RU offset → LPN, meaningful only where the validity
    /// bitmap is set (it starts zeroed, so a new RU touches no pages).
    /// LPNs fit 32 bits: the FTL refuses devices of 2^32 pages or more.
    rmap: Vec<u32>,
    /// Validity bitmap, one bit per RU page.
    bitmap: Vec<u64>,
    /// Times this RU was erased (wear).
    pub erase_count: u64,
}

impl Ru {
    /// Creates a free RU over the given blocks.
    pub fn new(blocks: Vec<BlockPtr>, ru_pages: u64) -> Self {
        let words = ru_pages.div_ceil(64) as usize;
        Ru {
            blocks,
            phase: RuPhase::Free,
            owner_pid: 0,
            write_ptr: 0,
            valid: 0,
            rmap: vec![0; ru_pages as usize],
            bitmap: vec![0; words],
            erase_count: 0,
        }
    }

    /// Total pages in this RU.
    pub fn pages(&self) -> u64 {
        self.rmap.len() as u64
    }

    /// True if every page slot has been written.
    pub fn is_full(&self) -> bool {
        self.write_ptr >= self.pages()
    }

    /// Physical page for an offset within this RU (round-robin striping
    /// across the RU's blocks).
    pub fn page_at(&self, offset: u64) -> PagePtr {
        let nblocks = self.blocks.len() as u64;
        let b = self.blocks[(offset % nblocks) as usize];
        PagePtr {
            die: b.die,
            block: b.block,
            page: (offset / nblocks) as u32,
        }
    }

    /// Appends an LPN, returning the RU offset it was written at.
    ///
    /// # Panics
    /// Panics if the RU is full or not open — the FTL must rotate append
    /// points before that happens.
    pub fn append(&mut self, lpn: Lpn) -> u64 {
        assert_eq!(self.phase, RuPhase::Open, "append to non-open RU");
        assert!(!self.is_full(), "append to full RU");
        let off = self.write_ptr;
        self.write_ptr += 1;
        self.rmap[off as usize] = u32::try_from(lpn).expect("LPN beyond 32-bit reverse map");
        self.bitmap[(off / 64) as usize] |= 1 << (off % 64);
        self.valid += 1;
        off
    }

    /// Invalidates the page at `offset`. Returns the LPN it held.
    pub fn invalidate(&mut self, offset: u64) -> Lpn {
        let word = (offset / 64) as usize;
        let bit = 1u64 << (offset % 64);
        assert!(
            self.bitmap[word] & bit != 0,
            "double invalidate at offset {offset}"
        );
        self.bitmap[word] &= !bit;
        self.valid -= 1;
        self.rmap[offset as usize] as Lpn
    }

    /// True if the page at `offset` currently holds live data.
    pub fn is_valid(&self, offset: u64) -> bool {
        self.bitmap[(offset / 64) as usize] & (1 << (offset % 64)) != 0
    }

    /// LPN stored at `offset`, if valid.
    pub fn lpn_at(&self, offset: u64) -> Option<Lpn> {
        if self.is_valid(offset) {
            Some(self.rmap[offset as usize] as Lpn)
        } else {
            None
        }
    }

    /// Iterator over `(offset, lpn)` for all valid pages.
    pub fn valid_pages(&self) -> impl Iterator<Item = (u64, Lpn)> + '_ {
        (0..self.write_ptr).filter_map(move |off| self.lpn_at(off).map(|l| (off, l)))
    }

    /// Resets the RU to Free (models erase of all its blocks).
    pub fn erase(&mut self) {
        self.phase = RuPhase::Free;
        self.owner_pid = 0;
        self.write_ptr = 0;
        self.valid = 0;
        self.bitmap.iter_mut().for_each(|w| *w = 0);
        self.erase_count += 1;
    }
}

/// Builds the static RU partition for a geometry: blocks are enumerated in
/// die-round-robin order so that each RU's blocks land on distinct dies
/// (or spread evenly when `ru_blocks > dies`).
pub fn build_rus(geometry: &Geometry, ru_blocks: u32, ru_pages: u64) -> Vec<Ru> {
    let dies = geometry.dies() as u64;
    let total = geometry.total_blocks();
    let mut rus = Vec::with_capacity((total / ru_blocks as u64) as usize);
    let mut blocks = Vec::with_capacity(ru_blocks as usize);
    for k in 0..total {
        let die = (k % dies) as u32;
        let block = (k / dies) as u32;
        blocks.push(BlockPtr { die, block });
        if blocks.len() == ru_blocks as usize {
            rus.push(Ru::new(std::mem::take(&mut blocks), ru_pages));
            blocks.reserve(ru_blocks as usize);
        }
    }
    debug_assert!(blocks.is_empty(), "ru_blocks must divide total blocks");
    rus
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ru4() -> Ru {
        let blocks = (0..4).map(|d| BlockPtr { die: d, block: 0 }).collect();
        Ru::new(blocks, 16)
    }

    #[test]
    fn append_and_validity() {
        let mut ru = ru4();
        ru.phase = RuPhase::Open;
        let o0 = ru.append(100);
        let o1 = ru.append(101);
        assert_eq!((o0, o1), (0, 1));
        assert!(ru.is_valid(0));
        assert_eq!(ru.lpn_at(1), Some(101));
        assert_eq!(ru.valid, 2);
    }

    #[test]
    fn striping_spreads_offsets_across_dies() {
        let ru = ru4();
        assert_eq!(ru.page_at(0).die, 0);
        assert_eq!(ru.page_at(1).die, 1);
        assert_eq!(ru.page_at(4).die, 0);
        assert_eq!(ru.page_at(4).page, 1);
        assert_eq!(ru.page_at(15).die, 3);
        assert_eq!(ru.page_at(15).page, 3);
    }

    #[test]
    fn invalidate_returns_lpn() {
        let mut ru = ru4();
        ru.phase = RuPhase::Open;
        ru.append(7);
        assert_eq!(ru.invalidate(0), 7);
        assert!(!ru.is_valid(0));
        assert_eq!(ru.valid, 0);
        assert_eq!(ru.lpn_at(0), None);
    }

    #[test]
    #[should_panic(expected = "double invalidate")]
    fn double_invalidate_panics() {
        let mut ru = ru4();
        ru.phase = RuPhase::Open;
        ru.append(7);
        ru.invalidate(0);
        ru.invalidate(0);
    }

    #[test]
    fn full_detection() {
        let mut ru = ru4();
        ru.phase = RuPhase::Open;
        for i in 0..16 {
            assert!(!ru.is_full());
            ru.append(i);
        }
        assert!(ru.is_full());
    }

    #[test]
    fn erase_resets_everything() {
        let mut ru = ru4();
        ru.phase = RuPhase::Open;
        ru.owner_pid = 3;
        for i in 0..5 {
            ru.append(i);
        }
        ru.erase();
        assert_eq!(ru.phase, RuPhase::Free);
        assert_eq!(ru.owner_pid, 0);
        assert_eq!(ru.write_ptr, 0);
        assert_eq!(ru.valid, 0);
        assert_eq!(ru.erase_count, 1);
        assert!(ru.valid_pages().next().is_none());
    }

    #[test]
    fn valid_pages_iterates_live_only() {
        let mut ru = ru4();
        ru.phase = RuPhase::Open;
        for i in 0..6 {
            ru.append(i * 10);
        }
        ru.invalidate(2);
        ru.invalidate(4);
        let live: Vec<(u64, Lpn)> = ru.valid_pages().collect();
        assert_eq!(live, vec![(0, 0), (1, 10), (3, 30), (5, 50)]);
    }

    #[test]
    fn build_rus_covers_all_blocks_once() {
        let g = Geometry::tiny();
        let rus = build_rus(&g, 4, 4 * g.pages_per_block as u64);
        assert_eq!(rus.len(), 16);
        let mut seen = std::collections::HashSet::new();
        for ru in &rus {
            assert_eq!(ru.blocks.len(), 4);
            // All blocks of an RU on distinct dies (4 blocks, 4 dies).
            let dies: std::collections::HashSet<u32> = ru.blocks.iter().map(|b| b.die).collect();
            assert_eq!(dies.len(), 4);
            for b in &ru.blocks {
                assert!(seen.insert(*b), "block {b:?} appears twice");
            }
        }
        assert_eq!(seen.len() as u64, g.total_blocks());
    }
}
