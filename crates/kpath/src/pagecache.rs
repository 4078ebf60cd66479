//! A write-back page cache with sequential readahead.
//!
//! Pages live in a dense per-file slot table, so every lookup is a file
//! lookup plus a `Vec` index. Writeback order is kept by one global dirty
//! FIFO; fsync finds a file's dirty pages through that file's own log.

use std::collections::{BTreeMap, HashMap, VecDeque};

#[cfg(test)]
mod oracle;

/// Key of a cached page: (file id, page index within file).
pub type PageKey = (u64, u64);

/// A page handed out for writeback: its key and payload.
pub type DirtyPage = (PageKey, Option<Box<[u8]>>);

/// Entries a file's dirty log may hold beyond twice its dirty pages
/// before it is compacted.
const LOG_SLACK: usize = 64;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum State {
    #[default]
    Absent,
    Clean,
    Dirty,
}

/// One page of a file. Payload is optional so timing-only simulations can
/// run without materializing buffers.
#[derive(Debug, Default)]
struct Slot {
    state: State,
    data: Option<Box<[u8]>>,
}

/// The cached pages of one file, indexed by page number.
#[derive(Debug, Default)]
struct FilePages {
    slots: Vec<Slot>,
    /// Pages dirtied since this file's last fsync. May hold duplicates
    /// and pages already cleaned by FIFO writeback; [`Self::compact_log`]
    /// reduces it to the file's dirty pages in page order.
    dirty_log: Vec<u64>,
    /// Exact number of dirty pages of this file.
    dirty: usize,
}

impl FilePages {
    /// The resident slot of `page`, if any.
    fn slot(&self, page: u64) -> Option<&Slot> {
        self.slots
            .get(page as usize)
            .filter(|s| s.state != State::Absent)
    }

    /// The slot of `page`, growing the table to reach it.
    fn slot_mut(&mut self, page: u64) -> &mut Slot {
        let i = page as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, Slot::default);
        }
        &mut self.slots[i]
    }

    /// Reduces the dirty log to the distinct pages still dirty, sorted.
    fn compact_log(&mut self) {
        let slots = &self.slots;
        self.dirty_log
            .retain(|&p| slots[p as usize].state == State::Dirty);
        self.dirty_log.sort_unstable();
        self.dirty_log.dedup();
    }
}

/// A write-back page cache.
///
/// Models the two behaviours that matter to the paper: (1) buffered writes
/// are absorbed in DRAM and flushed later (so `write()` returns after a
/// memcpy, and the device cost is paid at fsync/writeback), and (2) reads
/// of recently written or readahead pages skip the device.
///
/// A file's table spans pages `0..=` its highest cached page, so callers
/// pass page indices inside the file's allocation, as `SimFs` does.
#[derive(Debug)]
pub struct PageCache {
    files: HashMap<u64, FilePages>,
    /// Dirty pages in dirtying order, for FIFO writeback. May contain
    /// stale entries for pages already cleaned via
    /// [`PageCache::take_dirty_of_file`]; consumers skip non-dirty pages,
    /// and a stale entry comes back into use if its page is dirtied again.
    dirty_fifo: VecDeque<PageKey>,
    /// Exact number of dirty pages.
    dirty_count: usize,
    /// Per-file last sequential read position, for readahead detection.
    last_read: BTreeMap<u64, u64>,
    /// Maximum dirty pages before writers must throttle.
    dirty_limit: usize,
    /// Readahead window in pages once a sequential pattern is detected.
    pub readahead_pages: u64,
    hits: u64,
    misses: u64,
}

impl PageCache {
    /// Creates a cache with the given dirty-page limit.
    pub fn new(dirty_limit: usize) -> Self {
        PageCache {
            files: HashMap::new(),
            dirty_fifo: VecDeque::new(),
            dirty_count: 0,
            last_read: BTreeMap::new(),
            dirty_limit,
            readahead_pages: 32,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of dirty pages awaiting writeback.
    pub fn dirty_count(&self) -> usize {
        self.dirty_count
    }

    /// True when writers must block for writeback before dirtying more.
    pub fn over_limit(&self) -> bool {
        self.dirty_count >= self.dirty_limit
    }

    /// The dirty-page limit.
    pub fn dirty_limit(&self) -> usize {
        self.dirty_limit
    }

    /// Cache hit count (reads served from DRAM).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache miss count (reads that had to touch the device).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Buffers a write of one page. Returns `true` if the page was already
    /// dirty (overwrite coalesced, no new writeback obligation).
    pub fn write_page(&mut self, key: PageKey, data: Option<&[u8]>) -> bool {
        let file = self.files.entry(key.0).or_default();
        let slot = file.slot_mut(key.1);
        if let Some(d) = data {
            slot.data = Some(d.into());
        }
        if slot.state == State::Dirty {
            return true;
        }
        slot.state = State::Dirty;
        file.dirty += 1;
        file.dirty_log.push(key.1);
        if file.dirty_log.len() > 2 * file.dirty + LOG_SLACK {
            file.compact_log();
        }
        self.dirty_fifo.push_back(key);
        self.dirty_count += 1;
        false
    }

    /// Looks up a page for reading; updates hit/miss statistics.
    pub fn read_page(&mut self, key: PageKey) -> Option<Option<&[u8]>> {
        match self.files.get(&key.0).and_then(|f| f.slot(key.1)) {
            Some(s) => {
                self.hits += 1;
                Some(s.data.as_deref())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up a page without touching hit/miss statistics (internal
    /// read-modify-write in the write path).
    pub fn peek_page(&self, key: PageKey) -> Option<Option<&[u8]>> {
        self.files
            .get(&key.0)?
            .slot(key.1)
            .map(|s| s.data.as_deref())
    }

    /// Inserts a clean page (device fill or readahead).
    pub fn fill_page(&mut self, key: PageKey, data: Option<&[u8]>) {
        let slot = self.files.entry(key.0).or_default().slot_mut(key.1);
        if slot.state == State::Dirty {
            return; // never clobber dirty data with stale device content
        }
        *slot = Slot {
            state: State::Clean,
            data: data.map(Into::into),
        };
    }

    /// True when the page is resident.
    pub fn contains(&self, key: PageKey) -> bool {
        self.peek_page(key).is_some()
    }

    /// Pops up to `max` dirty pages (FIFO) for writeback, marking them
    /// clean and returning their keys and payloads. Stale FIFO entries
    /// (pages cleaned by a per-file fsync) are skipped.
    pub fn take_dirty(&mut self, max: usize) -> Vec<DirtyPage> {
        let mut out = Vec::new();
        while out.len() < max {
            let Some(key) = self.dirty_fifo.pop_front() else {
                break;
            };
            let Some(file) = self.files.get_mut(&key.0) else {
                continue;
            };
            let slot = file.slots.get_mut(key.1 as usize);
            if let Some(slot) = slot.filter(|s| s.state == State::Dirty) {
                slot.state = State::Clean;
                file.dirty -= 1;
                self.dirty_count -= 1;
                out.push((key, slot.data.clone()));
            }
        }
        out
    }

    /// Takes all dirty pages belonging to `file` (for fsync), in page
    /// order. O(dirty-log entries of that file).
    pub fn take_dirty_of_file(&mut self, file: u64) -> Vec<DirtyPage> {
        let Some(f) = self.files.get_mut(&file) else {
            return Vec::new();
        };
        f.compact_log();
        let FilePages {
            slots, dirty_log, ..
        } = f;
        let out: Vec<DirtyPage> = dirty_log
            .drain(..)
            .map(|page| {
                let slot = &mut slots[page as usize];
                slot.state = State::Clean;
                ((file, page), slot.data.clone())
            })
            .collect();
        f.dirty -= out.len();
        self.dirty_count -= out.len();
        out
    }

    /// Records a read at `page` of `file` and returns the readahead range
    /// `(start, len)` to prefetch if the access continues a sequential run.
    pub fn plan_readahead(&mut self, file: u64, page: u64) -> Option<(u64, u64)> {
        let prev = self.last_read.insert(file, page);
        match prev {
            Some(p) if page == p + 1 => Some((page + 1, self.readahead_pages)),
            _ if page == 0 => Some((1, self.readahead_pages)),
            _ => None,
        }
    }

    /// Drops every page of `file` (delete/truncate).
    pub fn evict_file(&mut self, file: u64) {
        if let Some(f) = self.files.remove(&file) {
            self.dirty_count -= f.dirty;
        }
        self.dirty_fifo.retain(|k| k.0 != file);
        self.last_read.remove(&file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_hit() {
        let mut pc = PageCache::new(100);
        pc.write_page((1, 0), Some(&[7u8; 8]));
        match pc.read_page((1, 0)) {
            Some(Some(d)) => assert_eq!(d, &[7u8; 8]),
            other => panic!("{other:?}"),
        }
        assert_eq!(pc.hits(), 1);
        assert_eq!(pc.misses(), 0);
    }

    #[test]
    fn miss_recorded() {
        let mut pc = PageCache::new(10);
        assert!(pc.read_page((1, 5)).is_none());
        assert_eq!(pc.misses(), 1);
    }

    #[test]
    fn overwrite_coalesces_dirty() {
        let mut pc = PageCache::new(10);
        assert!(!pc.write_page((1, 0), None));
        assert!(pc.write_page((1, 0), None));
        assert_eq!(pc.dirty_count(), 1);
    }

    #[test]
    fn dirty_limit_throttles() {
        let mut pc = PageCache::new(3);
        for i in 0..3 {
            pc.write_page((1, i), None);
        }
        assert!(pc.over_limit());
        let taken = pc.take_dirty(2);
        assert_eq!(taken.len(), 2);
        assert!(!pc.over_limit());
    }

    #[test]
    fn take_dirty_is_fifo_and_cleans() {
        let mut pc = PageCache::new(10);
        for i in 0..5 {
            pc.write_page((1, i), None);
        }
        let t = pc.take_dirty(10);
        let order: Vec<u64> = t.iter().map(|((_, p), _)| *p).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(pc.dirty_count(), 0);
        // Pages remain resident (clean) for reads.
        assert!(pc.contains((1, 0)));
    }

    #[test]
    fn fsync_takes_only_that_file() {
        let mut pc = PageCache::new(10);
        pc.write_page((1, 0), None);
        pc.write_page((2, 0), None);
        pc.write_page((1, 1), None);
        let t = pc.take_dirty_of_file(1);
        assert_eq!(t.len(), 2);
        assert_eq!(pc.dirty_count(), 1);
        assert_eq!(pc.take_dirty_of_file(2).len(), 1);
    }

    #[test]
    fn fill_never_clobbers_dirty() {
        let mut pc = PageCache::new(10);
        pc.write_page((1, 0), Some(&[1]));
        pc.fill_page((1, 0), Some(&[9]));
        match pc.read_page((1, 0)) {
            Some(Some(d)) => assert_eq!(d, &[1]),
            other => panic!("{other:?}"),
        }
        // Dirty page still pending writeback.
        assert_eq!(pc.dirty_count(), 1);
    }

    #[test]
    fn readahead_detects_sequential() {
        let mut pc = PageCache::new(10);
        // First access at page 0 primes the window.
        assert_eq!(pc.plan_readahead(1, 0), Some((1, 32)));
        assert_eq!(pc.plan_readahead(1, 1), Some((2, 32)));
        // A jump breaks the pattern.
        assert_eq!(pc.plan_readahead(1, 10), None);
        assert_eq!(pc.plan_readahead(1, 11), Some((12, 32)));
    }

    #[test]
    fn evict_file_drops_everything() {
        let mut pc = PageCache::new(10);
        pc.write_page((1, 0), None);
        pc.write_page((1, 1), None);
        pc.write_page((2, 0), None);
        pc.evict_file(1);
        assert!(!pc.contains((1, 0)));
        assert!(pc.contains((2, 0)));
        assert_eq!(pc.dirty_count(), 1);
    }

    /// A std-only 64-bit LCG (Knuth's MMIX constants).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }
    }

    /// Drives the slot table and the map-and-set oracle with the same
    /// random op sequence and demands identical answers after every op.
    fn differential(seed: u64, ops: usize) {
        let mut rng = Lcg(seed);
        let mut pc = PageCache::new(usize::MAX);
        let mut oracle = oracle::OraclePageCache::default();
        // Pages recently cleaned by writeback, to re-dirty them on purpose.
        let mut cleaned: Vec<PageKey> = Vec::new();
        for i in 0..ops {
            let key = (rng.below(4), rng.below(96));
            let payload = (i as u32).to_le_bytes();
            let data = (rng.below(2) == 0).then_some(&payload[..]);
            match rng.below(100) {
                0..=34 => assert_eq!(pc.write_page(key, data), oracle.write_page(key, data)),
                35..=44 if !cleaned.is_empty() => {
                    let key = cleaned[rng.below(cleaned.len() as u64) as usize];
                    assert_eq!(pc.write_page(key, data), oracle.write_page(key, data));
                }
                45..=54 => {
                    pc.fill_page(key, data);
                    oracle.fill_page(key, data);
                }
                55..=64 => assert_eq!(pc.read_page(key), oracle.read_page(key)),
                65..=71 => {
                    assert_eq!(pc.peek_page(key), oracle.peek_page(key));
                    assert_eq!(pc.contains(key), oracle.contains(key));
                }
                72..=83 => {
                    let n = rng.below(24) as usize;
                    let got = pc.take_dirty(n);
                    assert_eq!(got, oracle.take_dirty(n), "take_dirty({n}) at op {i}");
                    cleaned.extend(got.iter().map(|(k, _)| *k));
                }
                84..=95 => {
                    let got = pc.take_dirty_of_file(key.0);
                    assert_eq!(got, oracle.take_dirty_of_file(key.0), "fsync at op {i}");
                    cleaned.extend(got.iter().map(|(k, _)| *k));
                }
                _ => {
                    pc.evict_file(key.0);
                    oracle.evict_file(key.0);
                    cleaned.retain(|k| k.0 != key.0);
                }
            }
            if cleaned.len() > 256 {
                cleaned.drain(..128);
            }
            assert_eq!(pc.dirty_count(), oracle.dirty_count(), "op {i}");
            assert_eq!(pc.hits(), oracle.hits(), "op {i}");
            assert_eq!(pc.misses(), oracle.misses(), "op {i}");
        }
        // Drain everything left: the remaining FIFO order must agree too.
        assert_eq!(pc.take_dirty(usize::MAX), oracle.take_dirty(usize::MAX));
        assert_eq!(pc.dirty_count(), 0);
    }

    #[test]
    fn slot_table_matches_map_oracle() {
        for seed in [1, 7, 42, 1234, 0xDEAD_BEEF] {
            differential(seed, 20_000);
        }
    }

    #[test]
    fn stale_fifo_entry_comes_back_into_use() {
        // Page 0 is cleaned by fsync but stays in the FIFO; dirtied again
        // after page 1, it is written back at its old FIFO position.
        let mut pc = PageCache::new(10);
        pc.write_page((1, 0), None);
        pc.take_dirty_of_file(1);
        pc.write_page((1, 1), None);
        pc.write_page((1, 0), None);
        let order: Vec<PageKey> = pc.take_dirty(10).into_iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec![(1, 0), (1, 1)]);
        assert_eq!(pc.dirty_count(), 0);
    }

    #[test]
    fn dirty_log_stays_bounded_without_fsync() {
        // FIFO writeback alone cleans pages; the per-file log must not
        // grow with every re-dirtying.
        let mut pc = PageCache::new(usize::MAX);
        for round in 0..1000 {
            pc.write_page((1, round % 8), None);
            pc.take_dirty(1);
        }
        assert!(pc.files[&1].dirty_log.len() <= 2 * pc.files[&1].dirty + LOG_SLACK);
        assert!(pc.take_dirty_of_file(1).is_empty());
    }
}
