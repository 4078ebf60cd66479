//! The database engine: keyspace, logging policies, snapshot
//! orchestration, and recovery.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use slimio_des::SimTime;

use crate::backend::{BackendError, IoTiming, PersistBackend, SnapshotKind};
use crate::fxhash::FxBuildHasher;
use crate::snapshot::SnapshotJob;
use crate::view::{ReadView, ViewWriter};
use crate::wal::{self, WalBuffer, WalRef};

/// An owned `(key, value)` pair as the engine shares it across threads
/// — the element type of [`Db::sorted_entries`] and the unit a sharded
/// server moves between shard writers for digests and full syncs.
pub type Entry = (Arc<[u8]>, Arc<[u8]>);

/// WAL durability policy (§2.1, §5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogPolicy {
    /// Buffer writes in user space; flush when the interval elapses (or
    /// the engine is idle). Redis's default (`appendfsync everysec`).
    Periodical {
        /// Maximum time a record may sit in the user-level buffer.
        flush_interval: SimTime,
    },
    /// Flush and sync after every write query (`appendfsync always`).
    Always,
}

impl LogPolicy {
    /// The paper's default Periodical-Log policy (1 s threshold).
    pub fn periodical_default() -> Self {
        LogPolicy::Periodical {
            flush_interval: SimTime::from_secs(1),
        }
    }
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct DbConfig {
    /// Logging policy.
    pub policy: LogPolicy,
    /// WAL size that triggers an automatic WAL-snapshot (paper: 50–55 GB).
    pub wal_snapshot_threshold: u64,
    /// Snapshot writer chunk size (bytes handed to the backend at once).
    pub snapshot_chunk: usize,
    /// Fixed per-entry bookkeeping overhead counted in memory usage
    /// (dict entry, robj headers — Redis is ~50–100 B per key).
    pub entry_overhead: u64,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            policy: LogPolicy::periodical_default(),
            wal_snapshot_threshold: 50 * 1024 * 1024 * 1024,
            snapshot_chunk: 256 * 1024,
            entry_overhead: 64,
        }
    }
}

/// Engine statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct DbStats {
    /// SET commands processed.
    pub sets: u64,
    /// GET commands processed.
    pub gets: u64,
    /// GETs that found a value.
    pub hits: u64,
    /// DEL commands processed.
    pub dels: u64,
    /// WAL buffer flushes.
    pub wal_flushes: u64,
    /// Bytes flushed to the WAL.
    pub wal_bytes: u64,
    /// Completed WAL-snapshots.
    pub wal_snapshots: u64,
    /// Completed on-demand snapshots.
    pub od_snapshots: u64,
}

/// Engine errors.
#[derive(Debug)]
pub enum DbError {
    /// Persistence failure.
    Backend(BackendError),
    /// Snapshot protocol misuse.
    Snapshot(String),
    /// Recovery found a corrupt snapshot stream.
    Recovery(crate::rdb::RdbError),
}

impl From<BackendError> for DbError {
    fn from(e: BackendError) -> Self {
        DbError::Backend(e)
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Backend(e) => write!(f, "backend: {e}"),
            DbError::Snapshot(s) => write!(f, "snapshot: {s}"),
            DbError::Recovery(e) => write!(f, "recovery: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Outcome of one write query, for latency accounting.
#[derive(Clone, Copy, Debug)]
pub struct WriteReply {
    /// When the command (including any synchronous WAL work) completed.
    pub done_at: SimTime,
    /// CoW bytes newly retained because a snapshot is in progress.
    pub cow_retained: u64,
}

/// The in-memory database.
pub struct Db<B: PersistBackend> {
    map: HashMap<Arc<[u8]>, Arc<[u8]>, FxBuildHasher>,
    backend: B,
    cfg: DbConfig,
    wal_buf: WalBuffer,
    seq: u64,
    last_flush: SimTime,
    snapshot: Option<SnapshotJob>,
    /// Bytes of live keys+values+overhead.
    base_mem: u64,
    /// Bytes kept alive only by the frozen snapshot view (CoW growth).
    retained_mem: u64,
    /// High-water mark of `mem_used`.
    peak_mem: u64,
    stats: DbStats,
    /// Writer half of the concurrent read view, when one is installed
    /// (live server only; the simulated pipeline never installs one).
    view: Option<ViewWriter>,
    /// Mirror of every byte successfully handed to the backend's WAL,
    /// when enabled ([`Db::enable_wal_tap`]). The live server drains it
    /// after each group commit to feed the replication backlog; the
    /// simulated pipeline never enables it, so DES results are
    /// unaffected.
    wal_tap: Option<Vec<u8>>,
    /// Keyspace mutations applied to `map` but not yet mirrored into the
    /// view: `(key, Some(value))` for a set, `(key, None)` for a delete.
    /// Drained by [`Db::publish_view`] after each group commit.
    view_pending: Vec<PendingViewOp>,
    /// Bytes staged in `view_pending` (keys + values), counted into
    /// [`Db::mem_governed`] so a stalled publish cannot hide growth from
    /// the `--maxmemory` accounting.
    view_pending_bytes: u64,
    /// When set (sharded live server), sequence numbers are drawn from
    /// this process-wide counter instead of the private `seq` field, so
    /// records across all shard engines carry globally unique, totally
    /// ordered seqs while each shard's own stream stays strictly
    /// increasing. The simulated pipeline never sets this, so DES
    /// behaviour is bit-identical.
    shared_seq: Option<Arc<AtomicU64>>,
}

/// One not-yet-mirrored view mutation: `(key, Some(value))` for a set,
/// `(key, None)` for a delete.
type PendingViewOp = (Arc<[u8]>, Option<Arc<[u8]>>);

impl<B: PersistBackend> Db<B> {
    /// Creates an empty database over `backend`.
    pub fn new(backend: B, cfg: DbConfig) -> Self {
        Db {
            map: HashMap::default(),
            backend,
            cfg,
            wal_buf: WalBuffer::new(),
            seq: 0,
            last_flush: SimTime::ZERO,
            snapshot: None,
            base_mem: 0,
            retained_mem: 0,
            peak_mem: 0,
            stats: DbStats::default(),
            view: None,
            wal_tap: None,
            view_pending: Vec::new(),
            view_pending_bytes: 0,
            shared_seq: None,
        }
    }

    /// Switches sequence allocation to a process-wide counter shared by
    /// every shard engine. The counter must already be at or above this
    /// engine's current sequence (callers initialize it to the max across
    /// all recovered shards before installing it).
    pub fn set_shared_seq(&mut self, counter: Arc<AtomicU64>) {
        debug_assert!(counter.load(Ordering::SeqCst) >= self.seq);
        self.shared_seq = Some(counter);
    }

    /// The last sequence number this engine allocated (the shard-local
    /// high-water mark when a shared counter is installed).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    fn next_seq(&mut self) -> u64 {
        self.seq = match &self.shared_seq {
            Some(c) => c.fetch_add(1, Ordering::SeqCst) + 1,
            None => self.seq + 1,
        };
        self.seq
    }

    /// Engine statistics.
    pub fn stats(&self) -> &DbStats {
        &self.stats
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the keyspace is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate resident memory: live data plus CoW-retained bytes.
    pub fn mem_used(&self) -> u64 {
        self.base_mem + self.retained_mem
    }

    /// Peak of [`Db::mem_used`] over the run.
    pub fn mem_peak(&self) -> u64 {
        self.peak_mem
    }

    /// Memory the resource governor holds the engine accountable for:
    /// live keyspace bytes, CoW-retained snapshot bytes, records sitting
    /// in the user-level WAL buffer, and mutations staged for (but not
    /// yet published to) the concurrent read view. This is the figure
    /// `--maxmemory` compares against — every pool a write can grow.
    pub fn mem_governed(&self) -> u64 {
        self.base_mem + self.retained_mem + self.wal_buf.len() as u64 + self.view_pending_bytes
    }

    /// Backend access (diagnostics, crash injection in tests).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Consumes the engine, returning its backend.
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// True while a snapshot is in progress.
    pub fn snapshot_active(&self) -> bool {
        self.snapshot.is_some()
    }

    fn bump_peak(&mut self) {
        self.peak_mem = self.peak_mem.max(self.mem_used());
    }

    /// `GET key`.
    pub fn get(&mut self, key: &[u8]) -> Option<Arc<[u8]>> {
        self.stats.gets += 1;
        let v = self.map.get(key).cloned();
        if v.is_some() {
            self.stats.hits += 1;
        }
        v
    }

    /// `SET key value`: applies to the keyspace and logs per policy.
    pub fn set(&mut self, key: &[u8], value: &[u8], now: SimTime) -> Result<WriteReply, DbError> {
        let cow_retained = self.set_queued(key, value);
        let done_at = self.log_per_policy(now)?;
        self.publish_view();
        Ok(WriteReply {
            done_at,
            cow_retained,
        })
    }

    /// Installs a concurrent read view mirroring the current keyspace and
    /// returns the shared half for reader registration. From here on,
    /// every keyspace mutation is queued for the view and made visible to
    /// readers by the next [`Db::publish_view`]. Only the live server
    /// calls this; the simulated pipeline keeps `view` unset, so nothing
    /// here affects DES results.
    pub fn install_view(&mut self) -> Arc<ReadView> {
        let (mut writer, view) = ReadView::new();
        for (k, v) in self.map.iter() {
            writer.set(k, v);
        }
        writer.publish(self.seq);
        self.view = Some(writer);
        self.view_pending.clear();
        self.view_pending_bytes = 0;
        view
    }

    /// Mirrors all keyspace mutations since the last publish into the
    /// read view and publishes the current engine sequence. The live
    /// server calls this after each batch's group commit and *before*
    /// releasing the batch's replies, so an acked write is always
    /// published (read-your-writes) and always durable per policy.
    /// Returns the published sequence; a no-op without a view.
    pub fn publish_view(&mut self) -> u64 {
        if let Some(writer) = self.view.as_mut() {
            for (k, v) in self.view_pending.drain(..) {
                match v {
                    Some(v) => writer.set(&k, &v),
                    None => writer.del(&k),
                }
            }
            writer.publish(self.seq);
        } else {
            self.view_pending.clear();
        }
        self.view_pending_bytes = 0;
        self.seq
    }

    /// Batched `SET`: applies to the keyspace and queues the WAL record in
    /// the user-level buffer, but defers the policy's flush/sync to
    /// [`Db::batch_commit`] — the group-commit half of a SET. Returns the
    /// CoW bytes newly retained. The write is NOT durable (and under
    /// `Always` must not be acked) until the batch commits.
    pub fn set_queued(&mut self, key: &[u8], value: &[u8]) -> u64 {
        self.stats.sets += 1;
        let seq = self.next_seq();
        self.wal_buf.push_set(seq, key, value);

        let k: Arc<[u8]> = key.into();
        let v: Arc<[u8]> = value.into();
        if self.view.is_some() {
            self.view_pending.push((k.clone(), Some(v.clone())));
            self.view_pending_bytes += (key.len() + value.len()) as u64;
        }
        let mut cow_retained = 0u64;
        match self.map.insert(k, v) {
            Some(old) => {
                // CoW: while a snapshot view holds the old value, replacing
                // it keeps the old bytes resident.
                if self.snapshot.is_some() {
                    cow_retained = old.len() as u64;
                    self.retained_mem += cow_retained;
                }
                self.base_mem -= old.len() as u64;
                self.base_mem += value.len() as u64;
            }
            None => {
                self.base_mem += (key.len() + value.len()) as u64 + self.cfg.entry_overhead;
            }
        }
        self.bump_peak();
        cow_retained
    }

    /// `DEL key`. Returns the reply and whether a key was actually
    /// removed. Only effective deletes consume a sequence number and log a
    /// WAL record (Redis semantics: no-op deletes are not propagated), so
    /// missing-key DELs cost no WAL bytes and no fsync.
    pub fn del(&mut self, key: &[u8], now: SimTime) -> Result<(WriteReply, bool), DbError> {
        let (cow_retained, removed) = self.del_queued(key);
        let done_at = if removed {
            let t = self.log_per_policy(now)?;
            self.publish_view();
            t
        } else {
            now
        };
        Ok((
            WriteReply {
                done_at,
                cow_retained,
            },
            removed,
        ))
    }

    /// Batched `DEL`: like [`Db::set_queued`] but for a delete. Returns
    /// the CoW bytes retained and whether a key was actually removed (only
    /// effective deletes log a record and so need a commit).
    pub fn del_queued(&mut self, key: &[u8]) -> (u64, bool) {
        self.stats.dels += 1;
        let mut cow_retained = 0u64;
        let removed = match self.map.remove(key) {
            Some(old) => {
                let seq = self.next_seq();
                self.wal_buf.push_del(seq, key);
                if self.view.is_some() {
                    self.view_pending.push((key.into(), None));
                    self.view_pending_bytes += key.len() as u64;
                }
                if self.snapshot.is_some() {
                    cow_retained = old.len() as u64;
                    self.retained_mem += cow_retained;
                }
                self.base_mem -= (key.len() + old.len()) as u64 + self.cfg.entry_overhead;
                true
            }
            None => false,
        };
        self.bump_peak();
        (cow_retained, removed)
    }

    /// Group commit: runs the logging policy once for every record queued
    /// by `*_queued` calls since the last flush. Under `Always` this is
    /// ONE backend append (the whole batch's records in one buffer) and
    /// ONE device sync; under `Periodical` the flush-interval gate applies
    /// to the batch as a whole. A no-op when nothing is queued, so
    /// read-only batches cost no I/O.
    pub fn batch_commit(&mut self, now: SimTime) -> Result<SimTime, DbError> {
        if self.wal_buf.is_empty() {
            return Ok(now);
        }
        self.log_per_policy(now)
    }

    /// Bytes sitting in the user-level WAL buffer, not yet handed to the
    /// backend. Nonzero means a flush timer (Periodical) or a batch
    /// commit (Always) still owes the buffer a flush.
    pub fn wal_buffered_bytes(&self) -> usize {
        self.wal_buf.len()
    }

    fn log_per_policy(&mut self, now: SimTime) -> Result<SimTime, DbError> {
        match self.cfg.policy {
            LogPolicy::Always => {
                let t = self.flush_wal(now)?;
                let t = self.sync_wal(t.done_at)?;
                Ok(t.done_at)
            }
            LogPolicy::Periodical { flush_interval } => {
                if now.saturating_sub(self.last_flush) >= flush_interval {
                    let t = self.flush_wal(now)?;
                    Ok(t.done_at)
                } else {
                    Ok(now)
                }
            }
        }
    }

    /// Flushes the user-level WAL buffer to the backend.
    pub fn flush_wal(&mut self, now: SimTime) -> Result<IoTiming, DbError> {
        if self.wal_buf.is_empty() {
            self.last_flush = now;
            return Ok(IoTiming::instant(now));
        }
        self.stats.wal_flushes += 1;
        self.stats.wal_bytes += self.wal_buf.len() as u64;
        // Borrow the buffer in place; `clear` keeps the allocation, so
        // steady-state flushing is allocation-free.
        let t = self.backend.wal_append(self.wal_buf.bytes(), now)?;
        if let Some(tap) = self.wal_tap.as_mut() {
            tap.extend_from_slice(self.wal_buf.bytes());
        }
        self.wal_buf.clear();
        self.last_flush = t.done_at;
        Ok(t)
    }

    /// Starts mirroring every flushed WAL byte into an internal tap
    /// buffer, drained by [`Db::take_tapped_wal`]. The tap sees exactly
    /// the bytes the backend accepted, in flush order — the replication
    /// stream is the WAL stream.
    pub fn enable_wal_tap(&mut self) {
        if self.wal_tap.is_none() {
            self.wal_tap = Some(Vec::new());
        }
    }

    /// Drains the WAL tap. Empty when the tap is disabled or nothing has
    /// flushed since the last drain.
    pub fn take_tapped_wal(&mut self) -> Vec<u8> {
        self.wal_tap
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Serializes a point-in-time copy of the whole keyspace as one
    /// in-memory RDB stream — the full-sync payload a primary sends an
    /// attaching replica. Reuses the snapshot machinery ([`SnapshotJob`])
    /// so the framing is identical to an on-device snapshot, but the
    /// chunks land in a `Vec` instead of the backend.
    pub fn serialize_keyspace(&self, chunk_size: usize) -> Vec<u8> {
        serialize_entries(self.map.iter(), chunk_size)
    }

    /// `Arc` clones of every live key (replica full-reset bookkeeping:
    /// the keys to delete before loading a primary's snapshot).
    pub fn keys(&self) -> Vec<Arc<[u8]>> {
        self.map.keys().cloned().collect()
    }

    /// Order-independent digest of the keyspace: CRC-32 over the sorted
    /// `(key, value)` entries. Two engines hold identical datasets iff
    /// their digests match — the convergence check replication tests and
    /// the CI smoke use via `DEBUG DIGEST`.
    pub fn digest(&self) -> u32 {
        digest_of_sorted(&self.sorted_entries())
    }

    /// `Arc` clones of every entry, sorted by key — the unit a sharded
    /// server gathers from each shard to compute a merged digest or build
    /// a full-sync payload spanning the whole keyspace.
    pub fn sorted_entries(&self) -> Vec<Entry> {
        let mut entries: Vec<_> = self
            .map
            .iter()
            .map(|(k, v)| (Arc::clone(k), Arc::clone(v)))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Syncs the WAL to durable media.
    pub fn sync_wal(&mut self, now: SimTime) -> Result<IoTiming, DbError> {
        Ok(self.backend.wal_sync(now)?)
    }

    /// Starts a snapshot ("fork"). Fails if one is already in progress —
    /// the paper's single-snapshot rule (§2.1).
    pub fn snapshot_begin(&mut self, kind: SnapshotKind, now: SimTime) -> Result<(), DbError> {
        if self.snapshot.is_some() {
            return Err(DbError::Snapshot("snapshot already in progress".into()));
        }
        // The WAL buffer must be flushed before the fork so the frozen
        // view and the rotated WAL generation line up exactly.
        self.flush_wal(now)?;
        self.backend.snapshot_begin(kind, now)?;
        let job = SnapshotJob::freeze(kind, self.map.iter(), self.cfg.snapshot_chunk);
        self.snapshot = Some(job);
        self.bump_peak();
        Ok(())
    }

    /// Serializes up to `max_entries` snapshot entries, pushing chunks to
    /// the backend. Returns `true` once the snapshot committed.
    pub fn snapshot_step(&mut self, max_entries: usize, now: SimTime) -> Result<bool, DbError> {
        let Some(job) = self.snapshot.as_mut() else {
            return Err(DbError::Snapshot("no snapshot in progress".into()));
        };
        let kind = job.kind();
        // Chunks stream straight from the job's reused buffer into the
        // backend — no per-chunk Vec is ever allocated.
        let backend = &mut self.backend;
        let mut t = now;
        let out = job.step_each(max_entries, &mut |chunk: &[u8]| {
            let timing = backend.snapshot_chunk(chunk, t)?;
            t = timing.done_at;
            Ok::<(), BackendError>(())
        })?;
        if out.finished {
            self.backend.snapshot_commit(t)?;
            self.snapshot = None;
            // CoW-retained memory is released once the child exits.
            self.retained_mem = 0;
            match kind {
                SnapshotKind::WalSnapshot => self.stats.wal_snapshots += 1,
                SnapshotKind::OnDemand => self.stats.od_snapshots += 1,
            }
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Runs an entire snapshot synchronously (tests/examples).
    pub fn snapshot_run(&mut self, kind: SnapshotKind, now: SimTime) -> Result<(), DbError> {
        self.snapshot_begin(kind, now)?;
        while !self.snapshot_step(1024, now)? {}
        Ok(())
    }

    /// Triggers an automatic WAL-snapshot when the WAL has outgrown its
    /// threshold and no snapshot is running. Returns `true` if one began.
    pub fn maybe_wal_snapshot(&mut self, now: SimTime) -> Result<bool, DbError> {
        if self.snapshot.is_none() && self.backend.wal_len() >= self.cfg.wal_snapshot_threshold {
            self.snapshot_begin(SnapshotKind::WalSnapshot, now)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Periodic maintenance (Periodical-Log flush timer).
    pub fn tick(&mut self, now: SimTime) -> Result<(), DbError> {
        if let LogPolicy::Periodical { flush_interval } = self.cfg.policy {
            if now.saturating_sub(self.last_flush) >= flush_interval && !self.wal_buf.is_empty() {
                self.flush_wal(now)?;
            }
        }
        Ok(())
    }

    /// Rebuilds a database from the backend's newest WAL-snapshot plus the
    /// WAL tail — the §4.2 recovery procedure. Returns the engine and the
    /// number of WAL records replayed.
    pub fn recover(backend: B, cfg: DbConfig, now: SimTime) -> Result<(Self, u64), DbError> {
        let (db, replayed, _) = Self::recover_with_seqs(backend, cfg, now)?;
        Ok((db, replayed))
    }

    /// [`Db::recover`] that also returns the sequence number of every WAL
    /// record replayed, in replay order. A sharded server merges these
    /// per-shard lists to assert the recovered global prefix is gap-free.
    pub fn recover_with_seqs(
        mut backend: B,
        cfg: DbConfig,
        now: SimTime,
    ) -> Result<(Self, u64, Vec<u64>), DbError> {
        let (snap, t1) = backend.load_snapshot(SnapshotKind::WalSnapshot, now)?;
        let mut db = Db::new(backend, cfg);
        if let Some(stream) = snap {
            let entries = crate::rdb::read_all(&stream).map_err(DbError::Recovery)?;
            for (k, v) in entries {
                db.base_mem += (k.len() + v.len()) as u64 + cfg.entry_overhead;
                db.map.insert(k.into(), v.into());
            }
        }
        let (wal_bytes, _t2) = db.backend.load_wal(t1.done_at)?;
        // Decode in place: each key and value is copied once, straight
        // from the WAL bytes into its `Arc`.
        let mut seqs = Vec::new();
        for rec in wal::records(&wal_bytes) {
            db.seq = db.seq.max(rec.seq());
            seqs.push(rec.seq());
            match rec {
                WalRef::Set { key, value, .. } => match db.map.get_mut(key) {
                    Some(old) => {
                        db.base_mem -= old.len() as u64;
                        db.base_mem += value.len() as u64;
                        *old = value.into();
                    }
                    None => {
                        db.base_mem += (key.len() + value.len()) as u64 + cfg.entry_overhead;
                        db.map.insert(key.into(), value.into());
                    }
                },
                WalRef::Del { key, .. } => {
                    if let Some(o) = db.map.remove(key) {
                        db.base_mem -= (key.len() + o.len()) as u64 + cfg.entry_overhead;
                    }
                }
            }
        }
        let replayed = seqs.len() as u64;
        db.bump_peak();
        Ok((db, replayed, seqs))
    }
}

/// CRC-32 digest over already-sorted `(key, value)` entries — the exact
/// algorithm of [`Db::digest`], exposed so a sharded server can digest a
/// merged entry list and match what a single-shard engine would report.
pub fn digest_of_sorted(entries: &[Entry]) -> u32 {
    let mut crc = crate::crc::Crc32::new();
    for (k, v) in entries {
        crc.update(&(k.len() as u32).to_le_bytes());
        crc.update(k);
        crc.update(&(v.len() as u32).to_le_bytes());
        crc.update(v);
    }
    crc.finish()
}

/// Serializes an arbitrary entry iterator as one in-memory RDB stream —
/// [`Db::serialize_keyspace`] over a caller-assembled keyspace (e.g. the
/// union of all shards' entries for a full sync).
pub fn serialize_entries<'a, I>(live: I, chunk_size: usize) -> Vec<u8>
where
    I: Iterator<Item = (&'a Arc<[u8]>, &'a Arc<[u8]>)>,
{
    let mut job = SnapshotJob::freeze(SnapshotKind::OnDemand, live, chunk_size);
    let mut out = Vec::new();
    loop {
        let stats = job
            .step_each(1024, &mut |chunk: &[u8]| {
                out.extend_from_slice(chunk);
                Ok::<(), std::convert::Infallible>(())
            })
            .expect("in-memory snapshot serialization cannot fail");
        if stats.finished {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FileBackend;
    use slimio_ftl::PlacementMode;
    use slimio_kpath::{FsProfile, KernelCosts, SimFs};
    use slimio_nvme::{DeviceConfig, NvmeDevice};

    fn file_db(policy: LogPolicy) -> Db<FileBackend> {
        let dev = Arc::new(std::sync::Mutex::new(NvmeDevice::new(DeviceConfig::tiny(
            PlacementMode::Conventional,
        ))));
        let fs = SimFs::new(dev, KernelCosts::default(), FsProfile::f2fs());
        let backend = FileBackend::new(fs).unwrap();
        Db::new(
            backend,
            DbConfig {
                policy,
                wal_snapshot_threshold: 1 << 20,
                snapshot_chunk: 4096,
                entry_overhead: 64,
            },
        )
    }

    #[test]
    fn set_get_del_roundtrip() {
        let mut db = file_db(LogPolicy::periodical_default());
        db.set(b"k1", b"v1", SimTime::ZERO).unwrap();
        assert_eq!(&*db.get(b"k1").unwrap(), b"v1");
        assert!(db.get(b"missing").is_none());
        db.del(b"k1", SimTime::ZERO).unwrap();
        assert!(db.get(b"k1").is_none());
        assert_eq!(db.stats().sets, 1);
        assert_eq!(db.stats().dels, 1);
        assert_eq!(db.stats().gets, 3);
        assert_eq!(db.stats().hits, 1);
    }

    #[test]
    fn noop_del_leaves_wal_untouched() {
        let mut db = file_db(LogPolicy::Always);
        db.set(b"present", b"v", SimTime::ZERO).unwrap();
        let wal_before = db.backend().wal_len();
        // Deleting keys that were never set must not write WAL records:
        // Redis only propagates effective deletes.
        for i in 0..32u32 {
            let (_, removed) = db
                .del(format!("ghost{i}").as_bytes(), SimTime::ZERO)
                .unwrap();
            assert!(!removed, "ghost key reported as removed");
        }
        assert_eq!(
            db.backend().wal_len(),
            wal_before,
            "no-op DELs must not grow the WAL"
        );
        // An effective delete still logs.
        let (_, removed) = db.del(b"present", SimTime::ZERO).unwrap();
        assert!(removed);
        assert!(db.backend().wal_len() > wal_before);
    }

    #[test]
    fn always_policy_syncs_every_write() {
        let mut db = file_db(LogPolicy::Always);
        let r = db.set(b"a", b"1", SimTime::ZERO).unwrap();
        // Always-Log waits for NAND: hundreds of microseconds, not ns.
        assert!(r.done_at >= SimTime::from_micros(200), "{:?}", r.done_at);
        assert_eq!(db.stats().wal_flushes, 1);
    }

    #[test]
    fn periodical_policy_buffers() {
        let mut db = file_db(LogPolicy::Periodical {
            flush_interval: SimTime::from_secs(1),
        });
        let r = db.set(b"a", b"1", SimTime::from_millis(10)).unwrap();
        // No flush yet: sub-microsecond completion, zero backend traffic…
        assert_eq!(r.done_at, SimTime::from_millis(10));
        assert_eq!(db.stats().wal_flushes, 0);
        // …until the interval elapses.
        db.set(b"b", b"2", SimTime::from_millis(1500)).unwrap();
        assert_eq!(db.stats().wal_flushes, 1);
    }

    #[test]
    fn batch_commit_flushes_once_for_many_queued_writes() {
        let mut db = file_db(LogPolicy::Always);
        for i in 0..16u32 {
            db.set_queued(format!("b{i}").as_bytes(), b"v");
        }
        // Queued writes buffer in user space: no backend traffic yet.
        assert!(db.wal_buffered_bytes() > 0);
        assert_eq!(db.stats().wal_flushes, 0);
        db.batch_commit(SimTime::ZERO).unwrap();
        assert_eq!(db.stats().wal_flushes, 1, "group commit must flush once");
        assert_eq!(db.wal_buffered_bytes(), 0);
        // A commit with nothing queued is free.
        db.batch_commit(SimTime::ZERO).unwrap();
        assert_eq!(db.stats().wal_flushes, 1);
        // And the whole batch is durable: crash + recover sees all 16.
        let mut fs = db.into_backend().into_fs();
        fs.crash();
        let backend = FileBackend::remount(fs).unwrap();
        let (mut db2, _) = Db::recover(backend, DbConfig::default(), SimTime::ZERO).unwrap();
        for i in 0..16u32 {
            assert_eq!(&*db2.get(format!("b{i}").as_bytes()).unwrap(), b"v");
        }
    }

    #[test]
    fn queued_writes_match_unbatched_semantics() {
        let mut batched = file_db(LogPolicy::Always);
        let mut serial = file_db(LogPolicy::Always);
        for i in 0..8u32 {
            let k = format!("k{i}");
            batched.set_queued(k.as_bytes(), b"v1");
            serial.set(k.as_bytes(), b"v1", SimTime::ZERO).unwrap();
        }
        let (_, removed) = batched.del_queued(b"k3");
        assert!(removed);
        let (_, removed) = batched.del_queued(b"ghost");
        assert!(!removed, "no-op DEL must not queue a record");
        batched.batch_commit(SimTime::ZERO).unwrap();
        serial.del(b"k3", SimTime::ZERO).unwrap();
        serial.del(b"ghost", SimTime::ZERO).unwrap();
        assert_eq!(batched.len(), serial.len());
        assert_eq!(
            batched.backend().wal_len(),
            serial.backend().wal_len(),
            "batched and serial paths must log identical WAL bytes"
        );
    }

    #[test]
    fn recovery_restores_keyspace() {
        let mut db = file_db(LogPolicy::Always);
        for i in 0..200u32 {
            db.set(
                format!("key{i}").as_bytes(),
                format!("val{i}").as_bytes(),
                SimTime::ZERO,
            )
            .unwrap();
        }
        db.del(b"key0", SimTime::ZERO).unwrap();
        db.snapshot_run(SnapshotKind::WalSnapshot, SimTime::ZERO)
            .unwrap();
        // Post-snapshot writes land in the WAL tail.
        db.set(b"after", b"snap", SimTime::ZERO).unwrap();
        db.flush_wal(SimTime::ZERO).unwrap();
        db.sync_wal(SimTime::ZERO).unwrap();

        let backend = db.into_backend();
        let (mut db2, replayed) = Db::recover(backend, DbConfig::default(), SimTime::ZERO).unwrap();
        assert_eq!(db2.len(), 200); // 200 set - 1 del + 1 after
        assert_eq!(&*db2.get(b"after").unwrap(), b"snap");
        assert!(db2.get(b"key0").is_none());
        assert_eq!(&*db2.get(b"key42").unwrap(), b"val42");
        assert_eq!(replayed, 1);
    }

    #[test]
    fn recovery_without_snapshot_replays_full_wal() {
        let mut db = file_db(LogPolicy::Always);
        db.set(b"x", b"1", SimTime::ZERO).unwrap();
        db.set(b"x", b"2", SimTime::ZERO).unwrap();
        let backend = db.into_backend();
        let (mut db2, replayed) = Db::recover(backend, DbConfig::default(), SimTime::ZERO).unwrap();
        assert_eq!(replayed, 2);
        assert_eq!(&*db2.get(b"x").unwrap(), b"2");
    }

    #[test]
    fn cow_memory_grows_during_snapshot_and_releases() {
        let mut db = file_db(LogPolicy::periodical_default());
        let val = vec![7u8; 1000];
        for i in 0..100u32 {
            db.set(format!("k{i}").as_bytes(), &val, SimTime::ZERO)
                .unwrap();
        }
        let before = db.mem_used();
        db.snapshot_begin(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        // Overwrite everything mid-snapshot: CoW retains the old values.
        for i in 0..100u32 {
            db.set(format!("k{i}").as_bytes(), &val, SimTime::ZERO)
                .unwrap();
        }
        let during = db.mem_used();
        assert!(
            during as f64 >= before as f64 * 1.8,
            "CoW should nearly double memory: {before} -> {during}"
        );
        while !db.snapshot_step(64, SimTime::ZERO).unwrap() {}
        assert_eq!(db.mem_used(), before);
        assert!(db.mem_peak() >= during);
    }

    #[test]
    fn wal_snapshot_triggers_at_threshold() {
        let mut db = file_db(LogPolicy::Always);
        let big = vec![1u8; 64 * 1024];
        let mut triggered = false;
        for i in 0..40u32 {
            db.set(format!("k{i}").as_bytes(), &big, SimTime::ZERO)
                .unwrap();
            if db.maybe_wal_snapshot(SimTime::ZERO).unwrap() {
                triggered = true;
                break;
            }
        }
        assert!(triggered, "1 MiB threshold should trip within 40 x 64 KiB");
        while !db.snapshot_step(64, SimTime::ZERO).unwrap() {}
        assert_eq!(db.stats().wal_snapshots, 1);
    }

    #[test]
    fn snapshot_is_point_in_time_despite_concurrent_writes() {
        let mut db = file_db(LogPolicy::Always);
        for i in 0..50u32 {
            db.set(format!("k{i}").as_bytes(), b"original", SimTime::ZERO)
                .unwrap();
        }
        db.snapshot_begin(SnapshotKind::WalSnapshot, SimTime::ZERO)
            .unwrap();
        // Interleave mutation with snapshot production.
        let mut done = false;
        let mut i = 0u32;
        while !done {
            db.set(
                format!("k{}", i % 50).as_bytes(),
                b"mutated!",
                SimTime::ZERO,
            )
            .unwrap();
            done = db.snapshot_step(5, SimTime::ZERO).unwrap();
            i += 1;
        }
        db.flush_wal(SimTime::ZERO).unwrap();
        db.sync_wal(SimTime::ZERO).unwrap();
        // Recovery = snapshot + WAL tail ⇒ must equal the live state.
        let live: Vec<(Vec<u8>, Vec<u8>)> = {
            let mut v: Vec<(Vec<u8>, Vec<u8>)> = (0..50u32)
                .map(|i| {
                    let k = format!("k{i}").into_bytes();
                    let val = db.get(&k).unwrap().to_vec();
                    (k, val)
                })
                .collect();
            v.sort();
            v
        };
        let backend = db.into_backend();
        let (mut db2, _) = Db::recover(backend, DbConfig::default(), SimTime::ZERO).unwrap();
        for (k, v) in live {
            assert_eq!(
                db2.get(&k).unwrap().to_vec(),
                v,
                "key {:?}",
                String::from_utf8_lossy(&k)
            );
        }
    }

    #[test]
    fn double_snapshot_rejected() {
        let mut db = file_db(LogPolicy::periodical_default());
        db.set(b"a", b"b", SimTime::ZERO).unwrap();
        db.snapshot_begin(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        assert!(db
            .snapshot_begin(SnapshotKind::WalSnapshot, SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn wal_tap_mirrors_flushed_bytes_exactly() {
        let mut db = file_db(LogPolicy::Always);
        db.enable_wal_tap();
        assert!(db.take_tapped_wal().is_empty());
        db.set(b"a", b"1", SimTime::ZERO).unwrap();
        db.set(b"b", b"2", SimTime::ZERO).unwrap();
        let tapped = db.take_tapped_wal();
        let records = wal::replay(&tapped);
        assert_eq!(records.len(), 2, "tap must carry the full WAL stream");
        // Drained means drained.
        assert!(db.take_tapped_wal().is_empty());
        // Queued-but-unflushed bytes never reach the tap: the stream only
        // carries what the backend accepted.
        db.set_queued(b"c", b"3");
        assert!(db.take_tapped_wal().is_empty());
        db.batch_commit(SimTime::ZERO).unwrap();
        assert_eq!(wal::replay(&db.take_tapped_wal()).len(), 1);
    }

    #[test]
    fn serialize_keyspace_roundtrips_and_digest_converges() {
        let mut db = file_db(LogPolicy::Always);
        for i in 0..100u32 {
            db.set(
                format!("key{i}").as_bytes(),
                format!("val{i}").as_bytes(),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let stream = db.serialize_keyspace(4096);
        let entries = crate::rdb::read_all(&stream).unwrap();
        assert_eq!(entries.len(), 100);
        // Loading the stream into a second engine converges the digests
        // (insertion order differs; the digest sorts).
        let mut db2 = file_db(LogPolicy::Always);
        for (k, v) in entries.into_iter().rev() {
            db2.set(&k, &v, SimTime::ZERO).unwrap();
        }
        assert_eq!(db.digest(), db2.digest());
        db2.set(b"key0", b"different", SimTime::ZERO).unwrap();
        assert_ne!(db.digest(), db2.digest());
    }

    #[test]
    fn governed_memory_counts_wal_buffer_and_staged_view_ops() {
        let mut db = file_db(LogPolicy::Always);
        let _view = db.install_view();
        let base = db.mem_governed();
        db.set_queued(b"key", &vec![9u8; 1000]);
        // Queued but uncommitted: the governed figure must already see the
        // keyspace bytes, the WAL-buffered record, and the staged view op.
        let staged = db.mem_governed();
        assert!(
            staged >= base + 2 * 1000,
            "governed memory must count WAL buffer + staged view bytes: {base} -> {staged}"
        );
        assert!(
            staged > db.mem_used(),
            "governed view exceeds keyspace-only"
        );
        db.batch_commit(SimTime::ZERO).unwrap();
        db.publish_view();
        // Commit + publish drains both transient pools.
        let settled = db.mem_governed();
        assert!(settled < staged);
        assert_eq!(settled, db.mem_used());
    }

    #[test]
    fn crash_after_sync_recovers_synced_data() {
        let mut db = file_db(LogPolicy::Always);
        db.set(b"durable", b"yes", SimTime::ZERO).unwrap();
        // Crash: drop the page cache, remount, recover.
        let mut fs = db.into_backend().into_fs();
        fs.crash();
        let backend = FileBackend::remount(fs).unwrap();
        let (mut db2, _) = Db::recover(backend, DbConfig::default(), SimTime::ZERO).unwrap();
        assert_eq!(&*db2.get(b"durable").unwrap(), b"yes");
    }

    #[test]
    fn crash_before_sync_loses_buffered_tail_only() {
        let mut db = file_db(LogPolicy::Periodical {
            flush_interval: SimTime::from_secs(3600), // never auto-flush
        });
        db.set(b"synced", b"1", SimTime::ZERO).unwrap();
        db.flush_wal(SimTime::ZERO).unwrap();
        db.sync_wal(SimTime::ZERO).unwrap();
        db.set(b"lost", b"2", SimTime::ZERO).unwrap(); // only in user buffer
        let mut fs = db.into_backend().into_fs();
        fs.crash();
        let backend = FileBackend::remount(fs).unwrap();
        let (mut db2, _) = Db::recover(backend, DbConfig::default(), SimTime::ZERO).unwrap();
        assert_eq!(&*db2.get(b"synced").unwrap(), b"1");
        assert!(db2.get(b"lost").is_none());
    }
}
