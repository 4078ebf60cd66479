//! The FTL state machine.

use std::collections::VecDeque;

use slimio_nand::PagePtr;

use crate::config::{FtlConfig, PlacementMode};
use crate::ru::{build_rus, Ru, RuId, RuPhase};
use crate::stats::FtlStats;
use crate::{Lpn, Pid};

/// Sentinel for "unmapped" in the L2P table. Entries hold the flat
/// physical index plus one, so a new table is all zeroes: building a
/// device allocates it without touching its pages.
const NO_PHYS: u32 = 0;

/// Errors surfaced to the device layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FtlError {
    /// LPN beyond the advertised logical capacity.
    LpnOutOfRange {
        /// The offending logical page number.
        lpn: Lpn,
        /// The advertised logical capacity in pages.
        capacity: u64,
    },
    /// PID beyond what the device advertises (FDP mode only).
    InvalidPid(Pid),
    /// No reclaimable space left: every RU is pinned or fully valid.
    DeviceFull,
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtlError::LpnOutOfRange { lpn, capacity } => {
                write!(f, "LPN {lpn} out of range (capacity {capacity} pages)")
            }
            FtlError::InvalidPid(p) => write!(f, "placement id {p} not supported"),
            FtlError::DeviceFull => write!(f, "no reclaimable space (device full)"),
        }
    }
}

impl std::error::Error for FtlError {}

/// A single GC relocation: `lpn` moved from `src` to `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CopyOp {
    /// Logical page that moved.
    pub lpn: Lpn,
    /// Previous physical location.
    pub src: PagePtr,
    /// New physical location.
    pub dst: PagePtr,
}

/// The outcome of one reclaimed RU.
#[derive(Clone, Debug)]
pub struct GcPass {
    /// The victim RU.
    pub victim: RuId,
    /// Stream that owned the victim (0 in conventional mode).
    pub owner_pid: Pid,
    /// Pages relocated to keep them alive.
    pub copies: Vec<CopyOp>,
    /// Erase blocks wiped (all blocks of the victim RU).
    pub erased_blocks: u32,
}

/// The outcome of a host write.
#[derive(Clone, Debug)]
pub struct WriteResult {
    /// Where the page landed.
    pub dst: PagePtr,
    /// GC work that had to run to make room (usually empty).
    pub gc: Vec<GcPass>,
}

/// Page-mapped FTL over an RU-structured physical space.
///
/// See the crate docs for the conventional-vs-FDP behaviour summary.
pub struct Ftl {
    cfg: FtlConfig,
    rus: Vec<Ru>,
    /// LPN → flat physical index plus one (`ru_id * ru_pages + offset +
    /// 1`), or [`NO_PHYS`]. 32 bits cover 16 TiB of 4 KiB pages.
    l2p: Vec<u32>,
    free: VecDeque<RuId>,
    /// Host append point per PID (conventional mode uses slot 0 only).
    active: Vec<Option<RuId>>,
    /// GC destination append point per PID.
    gc_active: Vec<Option<RuId>>,
    stats: FtlStats,
    live_pages: u64,
    /// Reused between GC passes so victim scanning allocates only on the
    /// first pass (or when a victim holds more live pages than any before).
    gc_scratch: Vec<(u64, Lpn)>,
}

impl Ftl {
    /// Builds an FTL; panics on invalid configuration (configuration is a
    /// programming decision, not runtime input).
    pub fn new(cfg: FtlConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid FTL config: {e}");
        }
        assert!(
            cfg.geometry.total_pages() < u32::MAX as u64,
            "device too large for 32-bit page maps"
        );
        let rus = build_rus(&cfg.geometry, cfg.ru_blocks, cfg.ru_pages());
        let free: VecDeque<RuId> = (0..rus.len() as RuId).collect();
        let streams = match cfg.mode {
            PlacementMode::Conventional => 1,
            PlacementMode::Fdp { max_pids } => max_pids as usize,
        };
        Ftl {
            cfg,
            rus,
            l2p: vec![NO_PHYS; cfg.logical_pages() as usize],
            free,
            active: vec![None; streams],
            gc_active: vec![None; streams],
            stats: FtlStats::default(),
            live_pages: 0,
            gc_scratch: Vec::new(),
        }
    }

    /// The configuration this FTL was built with.
    pub fn config(&self) -> &FtlConfig {
        &self.cfg
    }

    /// Advertised logical capacity in pages.
    pub fn logical_pages(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// Live (mapped) logical pages.
    pub fn live_pages(&self) -> u64 {
        self.live_pages
    }

    /// Number of free RUs.
    pub fn free_rus(&self) -> u32 {
        self.free.len() as u32
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    /// Per-placement-ID RU occupancy: `(pid, rus_held, valid_pages)` for
    /// every PID currently owning at least one Open or Full RU, sorted by
    /// PID. Telemetry export; a full RU-table scan, so not for hot paths.
    pub fn pid_occupancy(&self) -> Vec<(u8, u64, u64)> {
        let mut per_pid: Vec<(u64, u64)> = vec![(0, 0); self.active.len()];
        for ru in &self.rus {
            if ru.phase != RuPhase::Free {
                let slot = &mut per_pid[ru.owner_pid as usize];
                slot.0 += 1;
                slot.1 += ru.valid;
            }
        }
        per_pid
            .into_iter()
            .enumerate()
            .filter(|(_, (rus, _))| *rus > 0)
            .map(|(pid, (rus, valid))| (pid as u8, rus, valid))
            .collect()
    }

    /// Effective stream index for a PID under the current mode.
    fn stream_of(&self, pid: Pid) -> Result<usize, FtlError> {
        match self.cfg.mode {
            PlacementMode::Conventional => Ok(0),
            PlacementMode::Fdp { max_pids } => {
                if pid < max_pids {
                    Ok(pid as usize)
                } else {
                    Err(FtlError::InvalidPid(pid))
                }
            }
        }
    }

    fn decode(&self, slot: u32) -> (RuId, u64) {
        let rp = self.cfg.ru_pages();
        let phys = slot as u64 - 1;
        ((phys / rp) as RuId, phys % rp)
    }

    fn encode(&self, ru: RuId, offset: u64) -> u32 {
        (ru as u64 * self.cfg.ru_pages() + offset + 1) as u32
    }

    /// Physical location of `lpn`, if mapped. Also counts a host read.
    pub fn read(&mut self, lpn: Lpn) -> Result<Option<PagePtr>, FtlError> {
        let phys = self.lookup(lpn)?;
        self.stats.reads += 1;
        Ok(phys)
    }

    /// Physical location of `lpn` without touching statistics.
    pub fn lookup(&self, lpn: Lpn) -> Result<Option<PagePtr>, FtlError> {
        let slot = self
            .l2p
            .get(lpn as usize)
            .copied()
            .ok_or(FtlError::LpnOutOfRange {
                lpn,
                capacity: self.logical_pages(),
            })?;
        if slot == NO_PHYS {
            return Ok(None);
        }
        let (ru, off) = self.decode(slot);
        Ok(Some(self.rus[ru as usize].page_at(off)))
    }

    fn unmap(&mut self, lpn: Lpn) {
        let slot = self.l2p[lpn as usize];
        if slot == NO_PHYS {
            return;
        }
        let (ru, off) = self.decode(slot);
        let prev = self.rus[ru as usize].invalidate(off);
        debug_assert_eq!(prev, lpn, "reverse map disagrees with L2P");
        self.l2p[lpn as usize] = NO_PHYS;
        self.live_pages -= 1;
    }

    /// Host trim: drops the mapping for `lpn` (no NAND work now; space is
    /// reclaimed by a later GC erase). Trimming an unmapped page is a no-op,
    /// matching NVMe deallocate semantics.
    pub fn trim(&mut self, lpn: Lpn) -> Result<(), FtlError> {
        if lpn >= self.logical_pages() {
            return Err(FtlError::LpnOutOfRange {
                lpn,
                capacity: self.logical_pages(),
            });
        }
        if self.l2p[lpn as usize] != NO_PHYS {
            self.unmap(lpn);
            self.stats.trimmed_pages += 1;
        }
        Ok(())
    }

    /// Trims a contiguous LPN range.
    pub fn trim_range(&mut self, start: Lpn, count: u64) -> Result<(), FtlError> {
        for lpn in start..start.saturating_add(count) {
            self.trim(lpn)?;
        }
        Ok(())
    }

    /// Allocates a free RU for `stream`, opening it with the given owner.
    fn open_ru(&mut self, stream: usize, for_gc: bool) -> Result<RuId, FtlError> {
        let id = self.free.pop_front().ok_or(FtlError::DeviceFull)?;
        let ru = &mut self.rus[id as usize];
        debug_assert_eq!(ru.phase, RuPhase::Free);
        ru.phase = RuPhase::Open;
        ru.owner_pid = stream as Pid;
        if for_gc {
            self.gc_active[stream] = Some(id);
        } else {
            self.active[stream] = Some(id);
        }
        Ok(id)
    }

    /// Current (possibly newly opened) append point for host writes.
    fn host_append_ru(&mut self, stream: usize) -> Result<RuId, FtlError> {
        if let Some(id) = self.active[stream] {
            if !self.rus[id as usize].is_full() {
                return Ok(id);
            }
            self.rus[id as usize].phase = RuPhase::Full;
            self.active[stream] = None;
        }
        self.open_ru(stream, false)
    }

    /// Current (possibly newly opened) append point for GC relocations.
    fn gc_append_ru(&mut self, stream: usize) -> Result<RuId, FtlError> {
        if let Some(id) = self.gc_active[stream] {
            if !self.rus[id as usize].is_full() {
                return Ok(id);
            }
            self.rus[id as usize].phase = RuPhase::Full;
            self.gc_active[stream] = None;
        }
        self.open_ru(stream, true)
    }

    /// Writes `lpn` with placement hint `pid`. Returns the physical page
    /// and any GC work performed to keep free space above the low
    /// watermark.
    pub fn write(&mut self, lpn: Lpn, pid: Pid) -> Result<WriteResult, FtlError> {
        if lpn >= self.logical_pages() {
            return Err(FtlError::LpnOutOfRange {
                lpn,
                capacity: self.logical_pages(),
            });
        }
        let stream = self.stream_of(pid)?;

        // Drop the old mapping first so GC never wastes a copy relocating
        // the page this write is about to kill.
        self.unmap(lpn);

        // Reclaim ahead of need.
        let gc = self.gc_to_watermark()?;
        let ru_id = self.host_append_ru(stream)?;
        let ru = &mut self.rus[ru_id as usize];
        let off = ru.append(lpn);
        let dst = ru.page_at(off);
        if ru.is_full() {
            ru.phase = RuPhase::Full;
            self.active[stream] = None;
        }
        self.l2p[lpn as usize] = self.encode(ru_id, off);
        self.live_pages += 1;
        self.stats.waf.host_write(1);
        Ok(WriteResult { dst, gc })
    }

    /// Runs GC passes until the free pool reaches the low watermark (called
    /// from the write path) — reclaims to `gc_low_water`, not all the way
    /// to high, to bound worst-case write latency; idle reclamation to the
    /// high watermark is the caller's job via [`Ftl::background_gc`].
    fn gc_to_watermark(&mut self) -> Result<Vec<GcPass>, FtlError> {
        let mut passes = Vec::new();
        while (self.free.len() as u32) < self.cfg.gc_low_water {
            match self.gc_once()? {
                Some(p) => passes.push(p),
                None => {
                    if passes.is_empty() && self.free.is_empty() {
                        return Err(FtlError::DeviceFull);
                    }
                    break;
                }
            }
        }
        Ok(passes)
    }

    /// Performs one idle-time GC pass if the free pool is below the high
    /// watermark. Returns `None` when no work is useful or possible.
    pub fn background_gc(&mut self) -> Result<Option<GcPass>, FtlError> {
        if (self.free.len() as u32) >= self.cfg.gc_high_water {
            return Ok(None);
        }
        self.gc_once()
    }

    /// Selects the greedy victim: the Full RU with the fewest valid pages.
    /// Returns `None` when no Full RU exists or the best victim would free
    /// nothing (fully-valid device).
    fn pick_victim(&self) -> Option<RuId> {
        let mut best: Option<(u64, RuId)> = None;
        for (id, ru) in self.rus.iter().enumerate() {
            if ru.phase != RuPhase::Full {
                continue;
            }
            let key = (ru.valid, id as RuId);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        match best {
            Some((valid, id)) if valid < self.cfg.ru_pages() => Some(id),
            _ => None,
        }
    }

    /// Reclaims one victim RU: relocates its valid pages to the owner
    /// stream's GC append point, erases it, and returns it to the free
    /// pool.
    fn gc_once(&mut self) -> Result<Option<GcPass>, FtlError> {
        let Some(victim) = self.pick_victim() else {
            return Ok(None);
        };
        let owner = self.rus[victim as usize].owner_pid;
        let stream = owner as usize;
        // Collect the victim's live pages first; appends below touch other
        // RUs only (the victim is Full, never an append point).
        let mut live = std::mem::take(&mut self.gc_scratch);
        live.clear();
        live.extend(self.rus[victim as usize].valid_pages());
        let mut copies = Vec::with_capacity(live.len());
        for (off, lpn) in live.drain(..) {
            let src = self.rus[victim as usize].page_at(off);
            let dst_ru = self.gc_append_ru(stream)?;
            let ru = &mut self.rus[dst_ru as usize];
            let dst_off = ru.append(lpn);
            let dst = ru.page_at(dst_off);
            if ru.is_full() {
                ru.phase = RuPhase::Full;
                self.gc_active[stream] = None;
            }
            self.l2p[lpn as usize] = self.encode(dst_ru, dst_off);
            copies.push(CopyOp { lpn, src, dst });
            self.stats.waf.gc_copy(1);
        }
        // The victim's remaining mappings were all relocated; wipe it.
        // Invalidate leftover valid flags without touching l2p (they were
        // re-pointed above).
        let ru = &mut self.rus[victim as usize];
        let erased_blocks = ru.blocks.len() as u32;
        ru.erase();
        for _ in 0..erased_blocks {
            self.stats.waf.erase();
        }
        self.free.push_back(victim);
        self.stats.gc_passes += 1;
        self.gc_scratch = live;
        Ok(Some(GcPass {
            victim,
            owner_pid: owner,
            copies,
            erased_blocks,
        }))
    }

    /// Exhaustively checks internal invariants. Used by tests; O(pages).
    ///
    /// # Panics
    /// Panics with a description on the first violated invariant.
    pub fn check_invariants(&self) {
        // 1. Every mapped LPN points at a valid page whose reverse map
        //    agrees.
        let mut mapped = 0u64;
        for (lpn, &slot) in self.l2p.iter().enumerate() {
            if slot == NO_PHYS {
                continue;
            }
            mapped += 1;
            let (ru_id, off) = self.decode(slot);
            let ru = &self.rus[ru_id as usize];
            assert!(
                ru.is_valid(off),
                "lpn {lpn} maps to invalid page ru={ru_id} off={off}"
            );
            assert_eq!(ru.lpn_at(off), Some(lpn as u64), "rmap mismatch at {lpn}");
        }
        assert_eq!(mapped, self.live_pages, "live page count drifted");
        // 2. Sum of per-RU valid counts equals mapped count.
        let valid_sum: u64 = self.rus.iter().map(|r| r.valid).sum();
        assert_eq!(valid_sum, mapped, "valid-count sum != mapped pages");
        // 3. Free list entries are Free and unique; phases partition RUs.
        let mut seen = std::collections::HashSet::new();
        for &id in &self.free {
            assert!(seen.insert(id), "duplicate RU {id} in free list");
            assert_eq!(self.rus[id as usize].phase, RuPhase::Free);
        }
        let free_phase = self.rus.iter().filter(|r| r.phase == RuPhase::Free).count();
        assert_eq!(free_phase, self.free.len(), "free-phase RUs not all pooled");
        // 4. Append points are Open.
        for id in self.active.iter().chain(&self.gc_active).flatten() {
            assert_eq!(self.rus[*id as usize].phase, RuPhase::Open);
        }
        // 5. FDP isolation: an Open/Full RU only holds its owner's pages.
        //    (Structural by construction; validated via owner tags.)
        if let PlacementMode::Fdp { .. } = self.cfg.mode {
            for (i, slot) in self.active.iter().enumerate() {
                if let Some(id) = slot {
                    assert_eq!(self.rus[*id as usize].owner_pid as usize, i);
                }
            }
        }
        // 6. WAF is well-formed.
        assert!(self.stats.waf.waf() >= 1.0, "WAF below 1.0");
    }

    /// Total erase count across RUs (wear indicator).
    pub fn total_erases(&self) -> u64 {
        self.rus.iter().map(|r| r.erase_count).sum()
    }

    /// Owner PID of the RU currently holding `lpn` (diagnostics).
    pub fn owner_of(&self, lpn: Lpn) -> Option<Pid> {
        let phys = *self.l2p.get(lpn as usize)?;
        if phys == NO_PHYS {
            return None;
        }
        let (ru, _) = self.decode(phys);
        Some(self.rus[ru as usize].owner_pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv() -> Ftl {
        Ftl::new(FtlConfig::tiny(PlacementMode::Conventional))
    }

    fn fdp() -> Ftl {
        Ftl::new(FtlConfig::tiny(PlacementMode::Fdp { max_pids: 4 }))
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut f = conv();
        let r = f.write(5, 0).unwrap();
        assert!(r.gc.is_empty());
        assert_eq!(f.read(5).unwrap(), Some(r.dst));
        assert_eq!(f.read(6).unwrap(), None);
        f.check_invariants();
    }

    #[test]
    fn overwrite_invalidates_old_page() {
        let mut f = conv();
        let a = f.write(1, 0).unwrap().dst;
        let b = f.write(1, 0).unwrap().dst;
        assert_ne!(a, b);
        assert_eq!(f.live_pages(), 1);
        f.check_invariants();
    }

    #[test]
    fn out_of_range_lpn_rejected() {
        let mut f = conv();
        let cap = f.logical_pages();
        assert!(matches!(
            f.write(cap, 0),
            Err(FtlError::LpnOutOfRange { .. })
        ));
        assert!(matches!(f.trim(cap), Err(FtlError::LpnOutOfRange { .. })));
        assert!(f.lookup(cap).is_err());
    }

    #[test]
    fn fdp_rejects_unknown_pid() {
        let mut f = fdp();
        assert!(matches!(f.write(0, 4), Err(FtlError::InvalidPid(4))));
        // Conventional ignores PID values entirely.
        let mut c = conv();
        assert!(c.write(0, 200).is_ok());
    }

    #[test]
    fn trim_unmaps() {
        let mut f = conv();
        f.write(3, 0).unwrap();
        f.trim(3).unwrap();
        assert_eq!(f.read(3).unwrap(), None);
        assert_eq!(f.live_pages(), 0);
        // Trimming again is a no-op.
        f.trim(3).unwrap();
        assert_eq!(f.stats().trimmed_pages, 1);
        f.check_invariants();
    }

    #[test]
    fn fdp_streams_use_distinct_rus() {
        let mut f = fdp();
        f.write(0, 0).unwrap();
        f.write(1, 1).unwrap();
        assert_eq!(f.owner_of(0), Some(0));
        assert_eq!(f.owner_of(1), Some(1));
        f.check_invariants();
    }

    #[test]
    fn sequential_fill_triggers_gc_on_overwrite_pass() {
        let mut f = conv();
        let cap = f.logical_pages();
        // Fill the logical space twice; the second pass must GC.
        let mut gc_seen = 0;
        for round in 0..2 {
            for lpn in 0..cap {
                let r = f.write(lpn, 0).unwrap();
                gc_seen += r.gc.len();
                let _ = round;
            }
        }
        assert!(gc_seen > 0, "no GC after full overwrite");
        f.check_invariants();
        assert_eq!(f.live_pages(), cap);
        // Sequential overwrite invalidates whole RUs in order → greedy GC
        // finds empty victims → WAF stays 1.0.
        assert!((f.stats().waf_value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_lifetimes_amplify_conventional_more_than_fdp() {
        // Interleave a hot stream (constantly overwritten) with a cold
        // stream (written once). With lifetime separation the hot RUs
        // self-invalidate and GC stays cheap; mixed placement forces GC to
        // drag cold pages along.
        let run = |mut f: Ftl, hot_pid: Pid, cold_pid: Pid| -> f64 {
            let cap = f.logical_pages();
            let hot = cap / 8; // LPNs [0, hot) are hot
            let cold_end = cap / 2;
            let mut cold_next = hot;
            for i in 0..(cap * 3) {
                if i.is_multiple_of(4) && cold_next < cold_end {
                    f.write(cold_next, cold_pid).unwrap();
                    cold_next += 1;
                } else {
                    f.write(i % hot, hot_pid).unwrap();
                }
            }
            f.check_invariants();
            f.stats().waf_value()
        };
        let waf_conv = run(conv(), 0, 0);
        let waf_fdp = run(fdp(), 1, 2);
        assert!(
            waf_conv > 1.02,
            "conventional device should amplify: WAF {waf_conv}"
        );
        assert!(
            waf_fdp < waf_conv,
            "FDP ({waf_fdp}) should amplify less than conventional ({waf_conv})"
        );
        assert!(
            waf_fdp < 1.05,
            "FDP separation should keep WAF near 1.0, got {waf_fdp}"
        );
    }

    #[test]
    fn wal_generation_pattern_gives_fdp_waf_exactly_one() {
        // The paper's actual lifetime pattern: the WAL region fills
        // sequentially and is deallocated wholesale when a WAL-snapshot
        // completes; snapshot slots are overwritten as generations rotate.
        // With per-PID RUs every trimmed generation leaves fully-invalid
        // RUs behind, so GC never copies → WAF == 1.00 (Table 3).
        let mut f = fdp();
        let cap = f.logical_pages();
        let wal_pages = cap / 2;
        let snap_base = wal_pages;
        let snap_pages = cap / 4;
        for generation in 0..6u64 {
            // WAL fills its region…
            for lpn in 0..wal_pages {
                f.write(lpn, 1).unwrap();
            }
            // …a WAL-snapshot is cut (overwrites the snapshot slot)…
            for lpn in snap_base..snap_base + snap_pages {
                f.write(lpn, 2).unwrap();
            }
            // …and the old WAL generation is deallocated.
            f.trim_range(0, wal_pages).unwrap();
            let _ = generation;
        }
        f.check_invariants();
        let waf = f.stats().waf_value();
        assert!(
            (waf - 1.0).abs() < 1e-12,
            "generation-trimmed FDP workload must have WAF 1.00, got {waf}"
        );
        assert!(f.stats().gc_passes > 0, "expected GC erases to have run");
    }

    #[test]
    fn background_gc_reclaims_toward_high_water() {
        let mut f = conv();
        let cap = f.logical_pages();
        for lpn in 0..cap {
            f.write(lpn, 0).unwrap();
        }
        // Trim half the space, leaving reclaimable holes.
        f.trim_range(0, cap / 2).unwrap();
        let before = f.free_rus();
        let mut passes = 0;
        while let Some(_p) = f.background_gc().unwrap() {
            passes += 1;
            if passes > 1000 {
                panic!("background GC did not converge");
            }
        }
        assert!(f.free_rus() >= f.config().gc_high_water.min(before + passes));
        f.check_invariants();
    }

    #[test]
    fn device_full_when_all_live() {
        let mut cfg = FtlConfig::tiny(PlacementMode::Conventional);
        // Shrink OP to the legal minimum that still validates, then fill
        // every logical page and keep writing *new* content: the FTL must
        // keep functioning because overwrites free pages, and must never
        // corrupt state.
        cfg.op_ratio = 0.30;
        let mut f = Ftl::new(cfg);
        let cap = f.logical_pages();
        for lpn in 0..cap {
            f.write(lpn, 0).unwrap();
        }
        for lpn in 0..cap {
            f.write(lpn, 0).unwrap();
        }
        f.check_invariants();
    }

    #[test]
    fn gc_pass_reports_copies_and_erases() {
        let mut f = conv();
        let cap = f.logical_pages();
        for lpn in 0..cap {
            f.write(lpn, 0).unwrap();
        }
        // Uniform random overwrites leave every RU partially valid, so GC
        // victims must relocate survivors — the classic WAF > 1 scenario.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut pass_with_copies = None;
        for _ in 0..cap * 4 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lpn = (state >> 33) % cap;
            let r = f.write(lpn, 0).unwrap();
            if let Some(p) = r.gc.into_iter().find(|p| !p.copies.is_empty()) {
                pass_with_copies = Some(p);
                break;
            }
        }
        let pass = pass_with_copies.expect("GC should eventually relocate live pages");
        assert_eq!(pass.erased_blocks, f.config().ru_blocks);
        for c in &pass.copies {
            // Each copy's destination is either still current or has been
            // superseded by a later host write in this loop.
            let now = f.lookup(c.lpn).unwrap();
            assert!(now.is_some());
        }
        f.check_invariants();
    }

    #[test]
    fn erase_counts_accumulate() {
        let mut f = conv();
        let cap = f.logical_pages();
        for round in 0..3 {
            for lpn in 0..cap {
                f.write(lpn, 0).unwrap();
            }
            let _ = round;
        }
        assert!(f.total_erases() > 0);
        // WAF counts block erases; the wear counter counts RU erases.
        assert_eq!(
            f.stats().waf.erases(),
            f.total_erases() * u64::from(f.config().ru_blocks)
        );
    }
}
