//! Direct drives of single layers with `set-always`'s op stream: the
//! engine (`Db`) over a [`TimedBackend`] that times every call at the
//! `PersistBackend` boundary, and the RESP parser and encoder.

use std::time::{Duration, Instant};

use slimio_des::{SimTime, Xoshiro256};
use slimio_imdb::backend::{BackendError, IoTiming, PersistBackend, SnapshotKind};
use slimio_imdb::{Db, DbConfig, LogPolicy};
use slimio_server::resp::{self, Parser};
use slimio_server::{AnyBackend, BackendKind, Store, StoreConfig};
use slimio_workload::WorkloadGen;

use crate::live::{key_of, stamp, value_ok, value_template, Shape, VALUE_LEN};
use crate::stats::median;

/// Calls, time and payload bytes through one backend method.
#[derive(Clone, Copy, Debug, Default)]
pub struct Calls {
    pub n: u64,
    pub ns: u64,
    pub bytes: u64,
}

impl Calls {
    fn add(&mut self, since: Instant, bytes: usize) {
        self.n += 1;
        self.ns += since.elapsed().as_nanos() as u64;
        self.bytes += bytes as u64;
    }

    fn minus(self, earlier: Calls) -> Calls {
        Calls {
            n: self.n - earlier.n,
            ns: self.ns - earlier.ns,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Per-method call accounting of a [`TimedBackend`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BackendCalls {
    pub wal_append: Calls,
    pub wal_sync: Calls,
    pub snapshot_begin: Calls,
    pub snapshot_chunk: Calls,
    pub snapshot_commit: Calls,
    pub load_snapshot: Calls,
    pub load_wal: Calls,
}

/// A `PersistBackend` that times every call into the backend under it.
pub struct TimedBackend<B: PersistBackend> {
    inner: B,
    pub calls: BackendCalls,
}

impl<B: PersistBackend> TimedBackend<B> {
    pub fn new(inner: B) -> Self {
        TimedBackend {
            inner,
            calls: BackendCalls::default(),
        }
    }

    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: PersistBackend> PersistBackend for TimedBackend<B> {
    fn wal_append(&mut self, data: &[u8], now: SimTime) -> Result<IoTiming, BackendError> {
        let t = Instant::now();
        let r = self.inner.wal_append(data, now);
        self.calls.wal_append.add(t, data.len());
        r
    }

    fn wal_sync(&mut self, now: SimTime) -> Result<IoTiming, BackendError> {
        let t = Instant::now();
        let r = self.inner.wal_sync(now);
        self.calls.wal_sync.add(t, 0);
        r
    }

    fn wal_len(&self) -> u64 {
        self.inner.wal_len()
    }

    fn snapshot_begin(
        &mut self,
        kind: SnapshotKind,
        now: SimTime,
    ) -> Result<IoTiming, BackendError> {
        let t = Instant::now();
        let r = self.inner.snapshot_begin(kind, now);
        self.calls.snapshot_begin.add(t, 0);
        r
    }

    fn snapshot_chunk(&mut self, data: &[u8], now: SimTime) -> Result<IoTiming, BackendError> {
        let t = Instant::now();
        let r = self.inner.snapshot_chunk(data, now);
        self.calls.snapshot_chunk.add(t, data.len());
        r
    }

    fn snapshot_commit(&mut self, now: SimTime) -> Result<IoTiming, BackendError> {
        let t = Instant::now();
        let r = self.inner.snapshot_commit(now);
        self.calls.snapshot_commit.add(t, 0);
        r
    }

    fn snapshot_abort(&mut self, now: SimTime) -> Result<IoTiming, BackendError> {
        self.inner.snapshot_abort(now)
    }

    fn load_snapshot(
        &mut self,
        kind: SnapshotKind,
        now: SimTime,
    ) -> Result<(Option<Vec<u8>>, IoTiming), BackendError> {
        let t = Instant::now();
        let r = self.inner.load_snapshot(kind, now);
        let bytes = r
            .as_ref()
            .ok()
            .and_then(|(s, _)| s.as_ref())
            .map_or(0, Vec::len);
        self.calls.load_snapshot.add(t, bytes);
        r
    }

    fn load_wal(&mut self, now: SimTime) -> Result<(Vec<u8>, IoTiming), BackendError> {
        let t = Instant::now();
        let r = self.inner.load_wal(now);
        let bytes = r.as_ref().map_or(0, |(w, _)| w.len());
        self.calls.load_wal.add(t, bytes);
        r
    }
}

/// The `imdb` and `backend` layers' figures.
#[derive(Debug, Default)]
pub struct DriveOut {
    pub set_ns: f64,
    pub view_get_ns: f64,
    pub publish_ns_per_batch: f64,
    pub commit_cpu_ns_per_batch: f64,
    pub wal_bytes_per_set: f64,
    pub snapshot_serialize_s: f64,
    pub snapshot_stored_per_raw: f64,
    pub recover_replay_s: f64,
    pub mem_peak_per_live: f64,
    pub wal_append_us_per_call: f64,
    pub wal_append_bytes_per_call: f64,
    pub wal_sync_us_per_call: f64,
    pub snapshot_chunk_us_per_mb: f64,
    pub snapshot_commit_us: f64,
    pub load_snapshot_s: f64,
    pub load_wal_s: f64,
}

/// Server-like snapshot pacing: 64 entries every 4 commands.
const STEP_ENTRIES_PER_CMD: usize = 16;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Drives `Db<TimedBackend<AnyBackend>>` with the shape's SET stream in
/// batches of `batch` commands, as the server's writer does, then takes
/// an on-demand snapshot and recovers from a crash.
pub fn drive(shape: &Shape, seed: u64, batch: usize, ops: u64) -> Result<DriveOut, String> {
    let err = |e: slimio_imdb::engine::DbError| e.to_string();
    let mut store = Store::new(StoreConfig {
        kind: BackendKind::Passthru,
        fdp: true,
        ratio: shape.device_ratio,
        shards: 1,
    });
    let clock = store.clock();
    let cfg = DbConfig {
        policy: LogPolicy::Always,
        wal_snapshot_threshold: shape.wal_threshold,
        ..DbConfig::default()
    };
    let backend = store.open().map_err(|e| e.to_string())?;
    let mut db = Db::new(TimedBackend::new(backend), cfg);
    let view = db.install_view();
    let reader = view.register().ok_or("read view has no free reader slot")?;
    let mut value = value_template();
    let mut gen = shape.generator(seed, 7);
    let records = gen.key_space();
    for id in 0..records {
        stamp(&mut value, id);
        db.set_queued(&key_of(id), &value);
        if id % 256 == 255 {
            db.batch_commit(clock.now()).map_err(err)?;
        }
    }
    db.publish_view();

    let c0 = db.backend().calls;
    let (mut set_ns, mut sets, mut get_ns, mut gets) = (0u64, 0u64, 0u64, 0u64);
    let (mut publish_ns, mut commit_cpu_ns, mut batches) = (0u64, 0u64, 0u64);
    // The on-demand snapshot starts halfway through the stream and is
    // stepped between batches, as the server's writer paces it.
    let (mut od_begin, mut od_end, mut od_step_ns) = (None, None, 0u64);
    let mut bad = 0u64;
    let mut done = 0u64;
    while done < ops || (od_begin.is_some() && od_end.is_none()) {
        let n = (batch as u64).min(ops.saturating_sub(done));
        for _ in 0..n {
            let op = gen.next_op();
            let key = key_of(op.key);
            stamp(&mut value, op.key);
            let t = Instant::now();
            db.set_queued(&key, &value);
            set_ns += t.elapsed().as_nanos() as u64;
            sets += 1;
        }
        done += n;
        if n > 0 {
            let io0 = db.backend().calls;
            let t = Instant::now();
            db.batch_commit(clock.now()).map_err(err)?;
            let commit = t.elapsed().as_nanos() as u64;
            let io1 = db.backend().calls;
            let io = io1.wal_append.ns - io0.wal_append.ns + io1.wal_sync.ns - io0.wal_sync.ns;
            commit_cpu_ns += commit.saturating_sub(io);
            let t = Instant::now();
            db.publish_view();
            publish_ns += t.elapsed().as_nanos() as u64;
            batches += 1;
            db.tick(clock.now()).map_err(err)?;
        }
        if od_begin.is_none() && done >= ops / 2 && !db.snapshot_active() {
            od_begin = Some(db.backend().calls);
            let t = Instant::now();
            db.snapshot_begin(SnapshotKind::OnDemand, clock.now())
                .map_err(err)?;
            od_step_ns += t.elapsed().as_nanos() as u64;
        }
        db.maybe_wal_snapshot(clock.now()).map_err(err)?;
        if db.snapshot_active() {
            let entries = STEP_ENTRIES_PER_CMD * (n as usize).max(batch);
            let t = Instant::now();
            let finished = db.snapshot_step(entries, clock.now()).map_err(err)?;
            if od_begin.is_some() && od_end.is_none() {
                od_step_ns += t.elapsed().as_nanos() as u64;
                if finished {
                    od_end = Some(db.backend().calls);
                }
            }
        }
    }
    // Read back through the view: the SET stream has no GETs.
    let mut rng = Xoshiro256::new(seed ^ 0x5EEB);
    for _ in 0..4096.min(records) {
        let id = rng.gen_range(records);
        let t = Instant::now();
        let v = reader.get(&key_of(id));
        get_ns += t.elapsed().as_nanos() as u64;
        gets += 1;
        bad += u64::from(!v.is_some_and(|v| value_ok(&v, id)));
    }
    if bad > 0 {
        return Err(format!(
            "direct drive read {bad} wrong values through the view"
        ));
    }
    let c1 = db.backend().calls;
    let mem_peak_per_live = ratio(db.mem_peak() as f64, db.mem_used() as f64);
    let raw = db.len() as f64 * (16 + VALUE_LEN) as f64;

    // Recovery starts from a WAL snapshot plus the shape's WAL tail.
    db.snapshot_run(SnapshotKind::WalSnapshot, clock.now())
        .map_err(err)?;
    for chunk in (0..shape.tail_sets).collect::<Vec<_>>().chunks(batch) {
        for _ in chunk {
            let id = rng.gen_range(records);
            stamp(&mut value, id);
            db.set_queued(&key_of(id), &value);
        }
        db.batch_commit(clock.now()).map_err(err)?;
    }
    db.publish_view();
    let digest = db.digest();
    let len = db.len();
    drop(reader);
    store.crash(db.into_backend().into_inner());
    let backend: AnyBackend = store.open().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let (db, _replayed) = Db::recover(TimedBackend::new(backend), cfg, clock.now()).map_err(err)?;
    let recover_wall = t.elapsed().as_nanos() as u64;
    if db.len() != len || db.digest() != digest {
        return Err("direct drive recovered a different dataset".into());
    }
    let r = db.backend().calls;

    let wal = c1.wal_append.minus(c0.wal_append);
    let sync = c1.wal_sync.minus(c0.wal_sync);
    let commits = c1.snapshot_commit.minus(c0.snapshot_commit);
    let (b, e) = od_begin.zip(od_end).ok_or("on-demand snapshot never ran")?;
    let chunk = e.snapshot_chunk.minus(b.snapshot_chunk);
    let snap_io = chunk.ns
        + e.snapshot_begin.minus(b.snapshot_begin).ns
        + e.snapshot_commit.minus(b.snapshot_commit).ns;
    Ok(DriveOut {
        set_ns: ratio(set_ns as f64, sets as f64),
        view_get_ns: ratio(get_ns as f64, gets as f64),
        publish_ns_per_batch: ratio(publish_ns as f64, batches as f64),
        commit_cpu_ns_per_batch: ratio(commit_cpu_ns as f64, batches as f64),
        wal_bytes_per_set: ratio(wal.bytes as f64, sets as f64),
        snapshot_serialize_s: od_step_ns.saturating_sub(snap_io) as f64 / 1e9,
        snapshot_stored_per_raw: ratio(chunk.bytes as f64, raw),
        recover_replay_s: recover_wall.saturating_sub(r.load_snapshot.ns + r.load_wal.ns) as f64
            / 1e9,
        mem_peak_per_live,
        wal_append_us_per_call: ratio(wal.ns as f64 / 1e3, wal.n as f64),
        wal_append_bytes_per_call: ratio(wal.bytes as f64, wal.n as f64),
        wal_sync_us_per_call: ratio(sync.ns as f64 / 1e3, sync.n as f64),
        snapshot_chunk_us_per_mb: ratio(chunk.ns as f64 / 1e3, chunk.bytes as f64 / 1e6),
        snapshot_commit_us: ratio(commits.ns as f64 / 1e3, commits.n as f64),
        load_snapshot_s: r.load_snapshot.ns as f64 / 1e9,
        load_wal_s: r.load_wal.ns as f64 / 1e9,
    })
}

/// RESP parse cost per command of the shape's SET stream and encode cost
/// per `+OK` reply: the median of five passes over `cmds` commands.
pub fn resp_costs(shape: &Shape, seed: u64, cmds: usize) -> Result<(f64, f64), String> {
    let mut gen = shape.generator(seed, 11);
    let mut value = value_template();
    let mut wire = Vec::new();
    for _ in 0..cmds {
        let op = gen.next_op();
        stamp(&mut value, op.key);
        resp::encode_command_slices(&[b"SET", &key_of(op.key), &value], &mut wire);
    }
    let mut parse = Vec::new();
    let mut encode = Vec::new();
    let mut out = Vec::with_capacity(64 << 10);
    for _ in 0..5 {
        // Socket-sized reads into the parser, as a connection thread does.
        let mut parser = Parser::new();
        let mut src: &[u8] = &wire;
        let t = Instant::now();
        let mut n = 0usize;
        loop {
            while let Some(frame) = parser.next_command_frame().map_err(|e| e.to_string())? {
                std::hint::black_box(frame.arg(1));
                n += 1;
            }
            if parser.fill_from(&mut src).map_err(|e| e.to_string())? == 0 {
                break;
            }
        }
        parse.push(t.elapsed());
        if n != cmds {
            return Err(format!("parser returned {n} of {cmds} commands"));
        }
        let t = Instant::now();
        for _ in 0..cmds {
            if out.len() > (60 << 10) {
                out.clear();
            }
            resp::encode_simple("OK", &mut out);
        }
        std::hint::black_box(&out);
        encode.push(t.elapsed());
    }
    let per = |d: &[Duration]| {
        median(
            &d.iter()
                .map(|d| d.as_nanos() as f64 / cmds as f64)
                .collect::<Vec<_>>(),
        )
    };
    Ok((per(&parse), per(&encode)))
}
