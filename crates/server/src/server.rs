//! The live server: a multi-threaded RESP2 front end over `N` sharded
//! writer engine threads, with a lock-free read fast path.
//!
//! Architecture (a sharded generalization of Redis' single-threaded
//! *write* semantics): per-connection reader threads parse RESP2 frames
//! in place from a reusable read buffer. The keyspace is split across
//! `--shards N` writer threads by [`shard_of`] (FxHash of the key); each
//! writer owns a full `Db<AnyBackend>` over its own disjoint LBA
//! sub-layout, its own FDP placement IDs, its own slice of the
//! admission governor, and its own group-commit batch. Write and admin
//! commands are forwarded over the owning shard's MPSC channel
//! (control-plane commands all route to shard 0); read-only commands
//! (GET, EXISTS, PING) are served directly on the connection thread
//! against the owning shard's published [`ReadView`] — they never
//! enqueue to a writer and never touch the storage stack. Each writer
//! drains its queue into bounded batches and group-commits each batch:
//! commands execute against the engine with their WAL records queued,
//! then one flush (and, under `Always`, one device sync) covers the
//! whole batch, the batch's keyspace mutations are *published* into the
//! shard's read view, and only after that are the batch's replies
//! released — an ack still implies durability, and because the publish
//! precedes the ack, a connection that has seen an ack can already read
//! its own write from the view (read-your-writes). The release is one
//! channel message per destination connection per batch, carrying that
//! connection's replies in execution order plus the shard's publish
//! sequence; the connection queues them per shard and hands them out
//! one at a time. Before serving a local read, a connection waits
//! (trivially, per the ordering above) until the key's shard view has
//! published that shard's newest acked sequence, and first drains any
//! writer replies it still owes the socket so the reply stream stays
//! in request order. Per-key ordering holds because a key always
//! hashes to the same shard; multi-key DEL/EXISTS split per shard and
//! their integer replies are summed. Replies accumulate in a
//! per-connection scratch encoder and go out with one vectored write
//! per drained burst; large values are spliced in as `Arc` slices
//! without copying. Each writer pumps background snapshots between
//! batches, triggers WAL-threshold snapshots exactly like the simulated
//! pipeline does, and runs its own periodic flush timer, so an idle
//! shard can never delay another shard's `appendfsync everysec`
//! deadline.
//!
//! Replication rides the same write path (see [`crate::repl`] for the
//! protocol): after each group commit a writer drains its engine's WAL
//! tap into the replication backlog (a ring: eviction moves no bytes)
//! as one frame, stamped with a global batch sequence under the
//! replication lock — the single total order that linearizes
//! cross-shard effects — and fanned out to the attached
//! replicas' feeds, *before* any reply is released, so a client holding
//! a write's ack knows the backlog already covers it, which is what
//! lets `WAIT` run entirely on the connection thread. `PSYNC` hands the
//! raw socket from the connection thread to shard 0's writer, which
//! registers the replica and gathers a keyspace snapshot across all
//! shards. A replica runs a link thread that re-shards the shipped
//! frames by its own shard function and applies them through these same
//! writers (so applied records land in the replica's own per-shard WALs
//! and views) and rejects client writes with `-READONLY`.

use std::hash::Hasher;
use std::io::{IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use slimio_des::SimTime;
use slimio_imdb::backend::{PersistBackend, SnapshotKind};
use slimio_imdb::engine::{self, DbError};
use slimio_imdb::fxhash::FxHasher;
use slimio_imdb::wal::WalRecord;
use slimio_imdb::{Db, DbConfig, Entry, LogPolicy, ReadHandle, ReadView};
use slimio_metrics::Histogram;
use slimio_uring::SharedClock;

use crate::govern::{lock_ok, Governor, GovernorOpts};
use crate::repl::{self, LinkCtx, ReplState, ReplicaPeer, READONLY_MSG};
use crate::resp::{self, Value};
use crate::store::{AnyBackend, Store};
use crate::telemetry::{self, dur_ns, MetricsCtx, Telemetry, LATENCY_EVENT_THRESHOLD_NS};

/// Most requests one group-committed batch drains from the queue. Bounds
/// reply latency for the batch's first command and the size of the
/// coalesced WAL write; only requests already queued are taken, so an
/// undersubscribed server still commits batches of one with no added
/// wait.
const MAX_BATCH: usize = 128;
/// How many index entries one background snapshot step serializes while
/// the command queue is drained.
const IDLE_STEP_ENTRIES: usize = 512;
/// Step size interleaved with command processing under load.
const BUSY_STEP_ENTRIES: usize = 64;
/// A busy step runs once per this many commands while a snapshot is live.
const BUSY_STEP_EVERY: u32 = 4;
/// Values at least this long are vector-written straight from their
/// `Arc` storage instead of being copied into the reply scratch buffer.
const ZERO_COPY_THRESHOLD: usize = 4096;
/// Most reply segments one `writev` submits (Linux caps iovecs at 1024;
/// stay far below it).
const MAX_IOVECS: usize = 64;
/// How long the writer keeps draining queued requests with an error reply
/// after shutdown begins. Connection threads notice `stop` within their
/// 100 ms read timeout, so one idle window this long means the queue is
/// truly dry.
const SHUTDOWN_DRAIN_IDLE: Duration = Duration::from_millis(150);
/// Hard cap on writer shards: reply bookkeeping packs the shards a
/// command touches into a `u16` bitmask.
pub(crate) const MAX_SHARDS: usize = 16;

/// The shard that owns `key`: FxHash (finalized, so every key byte
/// reaches the low bits) modulo the shard count. Every layer —
/// connection routing, replica link re-sharding, tests — must agree on
/// this function, and a key's shard never changes while the shard count
/// holds, which is what makes per-key ordering a per-shard property.
pub(crate) fn shard_of(key: &[u8], shards: usize) -> usize {
    if shards == 1 {
        return 0;
    }
    let mut h = FxHasher::default();
    h.write(key);
    (h.finish() as usize) % shards
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerOpts {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// WAL durability policy (`Always` = every acked write is synced).
    pub policy: LogPolicy,
    /// WAL bytes that trigger a background WAL snapshot.
    pub wal_snapshot_threshold: u64,
    /// Snapshot serialization chunk size in bytes.
    pub snapshot_chunk: usize,
    /// Serve read-only commands (GET/EXISTS/PING) directly on connection
    /// threads against the published read view. Disable to force every
    /// command through the single writer — the pre-read-path behavior,
    /// kept for A/B benchmarking.
    pub read_path: bool,
    /// Start as a replica of `host:port`: connect, full-sync, apply the
    /// primary's stream, serve reads, reject writes. `REPLICAOF NO ONE`
    /// promotes at runtime.
    pub replica_of: Option<String>,
    /// Bytes of recent WAL stream retained for replica partial resync.
    pub repl_backlog_bytes: usize,
    /// Resource-governance limits: writer queue bound, `maxmemory`,
    /// slow-consumer eviction thresholds.
    pub govern: GovernorOpts,
    /// Bind address for the Prometheus `/metrics` listener; `None`
    /// disables it. Stage histograms and SLOWLOG still record either way.
    pub metrics_addr: Option<String>,
    /// `SLOWLOG` threshold in microseconds; negative disables the log
    /// (Redis' `slowlog-log-slower-than`).
    pub slowlog_threshold_us: i64,
}

impl Default for ServerOpts {
    fn default() -> Self {
        ServerOpts {
            addr: "127.0.0.1:0".to_string(),
            policy: LogPolicy::Always,
            wal_snapshot_threshold: 256 << 20,
            snapshot_chunk: 256 << 10,
            read_path: true,
            replica_of: None,
            repl_backlog_bytes: repl::DEFAULT_BACKLOG_BYTES,
            govern: GovernorOpts::default(),
            metrics_addr: None,
            slowlog_threshold_us: 10_000,
        }
    }
}

/// Server start-up failure.
#[derive(Debug)]
pub enum ServerError {
    /// Socket setup failed.
    Io(std::io::Error),
    /// Backend open failed.
    Backend(slimio_imdb::backend::BackendError),
    /// Engine recovery failed.
    Db(DbError),
    /// Sharded recovery produced a gap in the merged global sequence:
    /// some shard's WAL claims records another shard's tail should
    /// bracket but doesn't hold. Starting would silently drop acked
    /// writes, so the server refuses to.
    Recovery(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "io: {e}"),
            ServerError::Backend(e) => write!(f, "backend: {e}"),
            ServerError::Db(e) => write!(f, "db: {e}"),
            ServerError::Recovery(msg) => write!(f, "recovery: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Per-connection latency histograms, merged on demand. Each connection
/// records into its own slot with an uncontended lock; only INFO walks
/// the registry and merges. This replaces the old single shared
/// `Mutex<Histogram>` that every connection periodically contended on —
/// read-path GETs never touch a global metrics lock.
pub(crate) struct HistRegistry {
    /// Live connections' histograms. The outer lock guards only
    /// registry membership (connect/disconnect/INFO), never recording.
    conns: Mutex<Vec<Arc<Mutex<Histogram>>>>,
    /// Samples from connections that have since closed.
    retired: Mutex<Histogram>,
}

impl HistRegistry {
    fn new() -> Self {
        HistRegistry {
            conns: Mutex::new(Vec::new()),
            retired: Mutex::new(Histogram::new()),
        }
    }

    fn register(&self) -> Arc<Mutex<Histogram>> {
        let h = Arc::new(Mutex::new(Histogram::new()));
        lock_ok(&self.conns).push(Arc::clone(&h));
        h
    }

    // Registry and slot locks recover from poisoning (`lock_ok`): a
    // connection thread that panics mid-record must not turn every later
    // INFO, connect, or disconnect into a panic of its own. A poisoned
    // histogram is still structurally valid — at worst one sample short.
    fn unregister(&self, h: &Arc<Mutex<Histogram>>) {
        let mut conns = lock_ok(&self.conns);
        conns.retain(|x| !Arc::ptr_eq(x, h));
        drop(conns);
        lock_ok(&self.retired).merge(&lock_ok(h));
    }

    /// Merged view of every live and retired histogram.
    fn snapshot(&self) -> Histogram {
        let mut out = Histogram::new();
        out.merge(&lock_ok(&self.retired));
        for h in lock_ok(&self.conns).iter() {
            out.merge(&lock_ok(h));
        }
        out
    }
}

/// State shared between the accept loop, connection threads, the writer,
/// replication threads, and the handle.
pub(crate) struct Shared {
    /// Clean-stop request: stop accepting, drain, flush, exit.
    pub(crate) stop: AtomicBool,
    /// Crash request: abandon everything unsynced (kill -9 equivalent).
    pub(crate) kill: AtomicBool,
    /// Command latency in nanoseconds, one histogram per connection.
    pub(crate) hists: HistRegistry,
    /// Commands processed.
    pub(crate) ops: AtomicU64,
    /// Currently connected clients.
    pub(crate) connections: AtomicU64,
    /// Connections accepted since start.
    pub(crate) total_connections: AtomicU64,
    /// Bytes read from client and replication sockets.
    pub(crate) net_in: AtomicU64,
    /// Bytes written to client and replication sockets.
    pub(crate) net_out: AtomicU64,
    /// Server start, for uptime and throughput.
    pub(crate) start: Instant,
    /// Resource governance: bounded admission and overload accounting,
    /// one gate slice per shard.
    pub(crate) gov: Governor,
    /// `SHUTDOWN NOSAVE` raises this so *every* shard writer skips its
    /// final flush, not just the one that dispatched the command.
    pub(crate) nosave: AtomicBool,
    /// Per-shard observability, one slot per writer. Each writer
    /// publishes its own slot once per batch; shard 0 reads all slots
    /// to answer `INFO`, so no writer ever touches another's engine.
    pub(crate) shard_stats: Vec<ShardStat>,
    /// Telemetry root: stage histograms, sampled Prometheus series,
    /// SLOWLOG and LATENCY state. `Arc` so writers can hold their own
    /// handle without borrowing through `Shared` mid-dispatch.
    pub(crate) tel: Arc<Telemetry>,
}

/// One shard writer's published statistics (see [`Shared::shard_stats`]).
pub(crate) struct ShardStat {
    /// Live keys in this shard's keyspace.
    pub(crate) keys: AtomicU64,
    /// This shard's resident engine memory.
    pub(crate) mem_used: AtomicU64,
    /// This shard's governed (maxmemory-relevant) bytes. Summed across
    /// shards for the global OOM gate.
    pub(crate) mem_governed: AtomicU64,
    /// Bytes in this shard's WAL region.
    pub(crate) wal_len: AtomicU64,
    /// Completed WAL-threshold snapshots.
    pub(crate) wal_snapshots: AtomicU64,
    /// Completed on-demand snapshots.
    pub(crate) od_snapshots: AtomicU64,
    /// A snapshot is mid-flight on this shard.
    pub(crate) snapshot_active: AtomicBool,
    /// Newest global batch sequence this shard stamped onto a frame.
    pub(crate) last_gseq: AtomicU64,
    /// Newest engine sequence published to this shard's read view.
    pub(crate) published_seq: AtomicU64,
    /// Group-commit batch sizes (requests per batch).
    pub(crate) batch_hist: Mutex<Histogram>,
}

impl ShardStat {
    fn new() -> Self {
        ShardStat {
            keys: AtomicU64::new(0),
            mem_used: AtomicU64::new(0),
            mem_governed: AtomicU64::new(0),
            wal_len: AtomicU64::new(0),
            wal_snapshots: AtomicU64::new(0),
            od_snapshots: AtomicU64::new(0),
            snapshot_active: AtomicBool::new(false),
            last_gseq: AtomicU64::new(0),
            published_seq: AtomicU64::new(0),
            batch_hist: Mutex::new(Histogram::new()),
        }
    }
}

/// One reply release from a writer to one reply channel: the replies
/// that channel is owed from one batch, in execution order, and the
/// engine sequence the batch published. Connections track the max
/// sequence as their newest acked one for the read-your-writes guard.
pub(crate) type ReplyMsg = (Vec<Value>, u64);

/// Where a writer sends a request's reply. The `Arc` gives the channel
/// an identity (`Arc::ptr_eq`), so a writer can group a batch's replies
/// by destination and release each group as one [`ReplyMsg`].
pub(crate) type ReplyTx = Arc<mpsc::Sender<ReplyMsg>>;

/// One unit of work in flight to the writer thread.
pub(crate) enum Request {
    /// A client command forwarded by a connection thread.
    Cmd {
        args: Vec<Vec<u8>>,
        /// When the connection thread enqueued this command (after
        /// admission) — the start of the `queue` telemetry stage.
        queued_at: Instant,
        reply: ReplyTx,
    },
    /// A `PSYNC` handoff: the connection thread surrenders the socket;
    /// shard 0's writer registers the replica between batches, gathers
    /// the cross-shard keyspace, and spawns the replica's feed thread.
    Sync {
        args: Vec<Vec<u8>>,
        stream: TcpStream,
        addr: String,
    },
    /// Replica link thread → one shard writer: replace this shard's
    /// slice of the keyspace with its split of a full-sync snapshot
    /// (already parsed and re-sharded by the link). Acked only after
    /// the local group commit.
    ReplSet {
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        epoch: u64,
        reply: ReplyTx,
    },
    /// Replica link thread → one shard writer: apply this shard's
    /// records from decoded stream frames. Acked only after the local
    /// group commit.
    ReplApply {
        records: Vec<WalRecord>,
        epoch: u64,
        reply: ReplyTx,
    },
    /// Shard 0 → another shard: hand back a point-in-time copy of your
    /// keyspace (for `DEBUG DIGEST` and full-sync snapshots). Answered
    /// between batches, after the commit + backlog pump, so the reply
    /// covers every frame the shard has published.
    Entries { reply: mpsc::Sender<Vec<Entry>> },
    /// Shard 0 → another shard: start a background snapshot of the
    /// given kind (the BGSAVE / BGREWRITEAOF broadcast). Replies
    /// whether the snapshot was started.
    Bg {
        kind: SnapshotKind,
        reply: mpsc::Sender<bool>,
    },
}

/// A running server. Tear down with [`ServerHandle::shutdown`] (clean),
/// [`ServerHandle::kill`] (simulated crash), or [`ServerHandle::join`]
/// (wait for a client-issued `SHUTDOWN`). All three give the [`Store`]
/// back so the caller can restart on the same device.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    writers: Option<Vec<JoinHandle<AnyBackend>>>,
    txs: Option<Vec<mpsc::Sender<Request>>>,
    store: Option<Store>,
    recovered_keys: u64,
    wal_records_replayed: u64,
    metrics: Option<JoinHandle<()>>,
    metrics_addr: Option<SocketAddr>,
}

impl ServerHandle {
    /// Bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Keys present after start-up recovery.
    pub fn recovered_keys(&self) -> u64 {
        self.recovered_keys
    }

    /// WAL records replayed during start-up recovery.
    pub fn wal_records_replayed(&self) -> u64 {
        self.wal_records_replayed
    }

    /// Bound address of the Prometheus `/metrics` listener, when one
    /// was requested via [`ServerOpts::metrics_addr`].
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Stops cleanly: finishes any active snapshot, flushes and syncs the
    /// WAL, and returns the store for a later restart.
    pub fn shutdown(mut self) -> Store {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.teardown(false)
    }

    /// Kills the server as if the process died mid-run: no flush, no
    /// sync, no snapshot completion. The store comes back with only the
    /// durable (synced) state, exactly like power loss.
    pub fn kill(mut self) -> Store {
        self.shared.kill.store(true, Ordering::SeqCst);
        self.shared.stop.store(true, Ordering::SeqCst);
        self.teardown(true)
    }

    /// Blocks until a client issues `SHUTDOWN`, then tears down cleanly.
    /// (`SHUTDOWN` dispatches on shard 0, which raises `stop`; every
    /// other shard writer notices within its idle-poll window.)
    pub fn join(mut self) -> Store {
        let backends: Vec<AnyBackend> = self
            .writers
            .take()
            .expect("writers joined twice")
            .into_iter()
            .map(|w| w.join().expect("writer thread panicked"))
            .collect();
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        if let Some(m) = self.metrics.take() {
            let _ = m.join();
        }
        drop(self.txs.take());
        let mut store = self.store.take().expect("store taken twice");
        store.close_shards(backends);
        store
    }

    fn teardown(&mut self, crash: bool) -> Store {
        drop(self.txs.take());
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        if let Some(m) = self.metrics.take() {
            let _ = m.join();
        }
        let backends: Vec<AnyBackend> = self
            .writers
            .take()
            .expect("writers joined twice")
            .into_iter()
            .map(|w| w.join().expect("writer thread panicked"))
            .collect();
        let mut store = self.store.take().expect("store taken twice");
        if crash {
            store.crash_shards(backends);
        } else {
            store.close_shards(backends);
        }
        store
    }
}

/// The listening server factory.
pub struct Server;

impl Server {
    /// Opens (or recovers) the store's shard backends, recovers each
    /// shard's keyspace (asserting the merged global sequence is
    /// gap-free), binds the listener, and spawns the accept thread plus
    /// one writer thread per shard.
    pub fn start(mut store: Store, opts: ServerOpts) -> Result<ServerHandle, ServerError> {
        let clock = store.clock();
        let shards = store.shards();
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count must be in 1..={MAX_SHARDS}, got {shards}"
        );
        let backends = store.open_shards().map_err(ServerError::Backend)?;
        let cfg = DbConfig {
            policy: opts.policy,
            wal_snapshot_threshold: opts.wal_snapshot_threshold,
            snapshot_chunk: opts.snapshot_chunk,
            ..DbConfig::default()
        };
        let mut dbs = Vec::with_capacity(shards);
        let mut seq_lists: Vec<Vec<u64>> = Vec::with_capacity(shards);
        let mut recovered_keys = 0u64;
        let mut replayed = 0u64;
        for backend in backends {
            let (mut db, shard_replayed, seqs) =
                Db::recover_with_seqs(backend, cfg, sim_now(&clock)).map_err(ServerError::Db)?;
            recovered_keys += db.len() as u64;
            replayed += shard_replayed;
            // Mirror every flushed WAL byte for the replication backlog;
            // each writer drains its tap after each group commit.
            db.enable_wal_tap();
            seq_lists.push(seqs);
            dbs.push(db);
        }
        if shards > 1 {
            // Refuse to start on a gap in the merged global sequence —
            // it means some shard's durable WAL is missing records that
            // neighboring shards prove were acked.
            check_merged_recovery(&seq_lists).map_err(ServerError::Recovery)?;
            // One global monotonic record sequence across all shards:
            // seed it past every shard's recovered high-water mark, then
            // install it so each shard's WAL stream stays strictly
            // increasing while cross-shard writes stay totally ordered.
            let max_seq = dbs.iter().map(|d| d.seq()).max().unwrap_or(0);
            let counter = Arc::new(AtomicU64::new(max_seq));
            for db in &mut dbs {
                db.set_shared_seq(Arc::clone(&counter));
            }
        }
        // Install the concurrent read views over the recovered keyspace
        // before any connection is accepted, so readers never observe a
        // pre-recovery view.
        let views: Option<Vec<Arc<ReadView>>> = opts
            .read_path
            .then(|| dbs.iter_mut().map(|db| db.install_view()).collect());

        let listener = TcpListener::bind(&opts.addr).map_err(ServerError::Io)?;
        listener.set_nonblocking(true).map_err(ServerError::Io)?;
        let addr = listener.local_addr().map_err(ServerError::Io)?;

        let tel = Arc::new(Telemetry::new(shards, opts.slowlog_threshold_us));
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            kill: AtomicBool::new(false),
            hists: HistRegistry::new(),
            ops: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            total_connections: AtomicU64::new(0),
            net_in: AtomicU64::new(0),
            net_out: AtomicU64::new(0),
            start: Instant::now(),
            gov: Governor::new(opts.govern, shards),
            nosave: AtomicBool::new(false),
            shard_stats: (0..shards).map(|_| ShardStat::new()).collect(),
            tel: Arc::clone(&tel),
        });
        let repl = Arc::new(ReplState::new(
            opts.replica_of.clone(),
            opts.repl_backlog_bytes,
        ));

        let (txs, rxs): (Vec<_>, Vec<_>) = (0..shards).map(|_| mpsc::channel::<Request>()).unzip();

        let mut writers = Vec::with_capacity(shards);
        for (shard, (db, rx)) in dbs.into_iter().zip(rxs).enumerate() {
            let shared = Arc::clone(&shared);
            let repl = Arc::clone(&repl);
            let tel = Arc::clone(&tel);
            let txs = txs.clone();
            let backend_name = store.kind().name();
            let fdp = store.fdp();
            let clock = clock.clone();
            let snapshot_chunk = opts.snapshot_chunk;
            let port = addr.port();
            let w = std::thread::Builder::new()
                .name(format!("slimio-writer-{shard}"))
                .spawn(move || {
                    Writer {
                        shard,
                        db,
                        rx,
                        txs,
                        tel,
                        shared,
                        repl,
                        port,
                        snapshot_chunk,
                        clock,
                        backend_name,
                        fdp,
                        recovered_keys,
                        wal_records_replayed: replayed,
                        snap_started: None,
                        last_snapshot_ms: None,
                        cmds_since_step: 0,
                        pending_syncs: Vec::new(),
                        pending_gathers: Vec::new(),
                        prev_gc_passes: 0,
                    }
                    .run()
                })
                .map_err(ServerError::Io)?;
            writers.push(w);
        }

        let accept = {
            let shared = Arc::clone(&shared);
            let repl = Arc::clone(&repl);
            let txs = txs.clone();
            std::thread::Builder::new()
                .name("slimio-accept".to_string())
                .spawn(move || accept_loop(listener, txs, shared, views, repl))
                .map_err(ServerError::Io)?
        };

        if opts.replica_of.is_some() {
            repl::spawn_link(LinkCtx {
                txs: txs.clone(),
                repl: Arc::clone(&repl),
                shared: Arc::clone(&shared),
                my_port: addr.port(),
                epoch: repl.epoch(),
            });
        }

        let (metrics, metrics_addr) = match opts.metrics_addr.as_deref() {
            Some(maddr) => {
                let ctx = MetricsCtx {
                    shared: Arc::clone(&shared),
                    repl: Arc::clone(&repl),
                    device: Arc::clone(store.device()),
                };
                let (bound, handle) =
                    telemetry::spawn_metrics_listener(maddr, ctx).map_err(ServerError::Io)?;
                tel.metrics_port
                    .store(bound.port() as u64, Ordering::SeqCst);
                (Some(handle), Some(bound))
            }
            None => (None, None),
        };

        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            writers: Some(writers),
            txs: Some(txs),
            store: Some(store),
            recovered_keys,
            wal_records_replayed: replayed,
            metrics,
            metrics_addr,
        })
    }
}

/// Sharded recovery merge check. Each shard replays its own WAL tail —
/// a contiguous run of *its* records, whose seqs are a strictly
/// increasing subsequence of the global sequence. Inside the window
/// every shard's tail spans (`max` of first replayed seqs ..= `min` of
/// last replayed seqs), every global seq belongs to exactly one shard
/// and must therefore appear in the union; a hole means durable acked
/// records went missing. Vacuously satisfied when any shard replayed
/// nothing (its tail bounds no window).
fn check_merged_recovery(seq_lists: &[Vec<u64>]) -> Result<(), String> {
    if seq_lists.iter().any(|l| l.is_empty()) {
        return Ok(());
    }
    let lo = seq_lists.iter().map(|l| l[0]).max().unwrap();
    let hi = seq_lists.iter().map(|l| *l.last().unwrap()).min().unwrap();
    if lo > hi {
        return Ok(());
    }
    let mut merged: Vec<u64> = seq_lists
        .iter()
        .flatten()
        .copied()
        .filter(|s| (lo..=hi).contains(s))
        .collect();
    merged.sort_unstable();
    let expected = (hi - lo + 1) as usize;
    merged.dedup();
    if merged.len() != expected {
        let mut missing = lo;
        let mut prev = lo.wrapping_sub(1);
        for &s in &merged {
            if s != prev + 1 {
                missing = prev + 1;
                break;
            }
            prev = s;
        }
        return Err(format!(
            "merged WAL replay has a gap at seq {missing}: window [{lo}, {hi}] holds {} of {expected} records",
            merged.len()
        ));
    }
    Ok(())
}

fn sim_now(clock: &SharedClock) -> SimTime {
    clock.now()
}

fn accept_loop(
    listener: TcpListener,
    txs: Vec<mpsc::Sender<Request>>,
    shared: Arc<Shared>,
    views: Option<Vec<Arc<ReadView>>>,
    repl: Arc<ReplState>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) && !shared.kill.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::SeqCst);
                shared.total_connections.fetch_add(1, Ordering::SeqCst);
                let txs = txs.clone();
                let shared = Arc::clone(&shared);
                let views = views.clone();
                let repl = Arc::clone(&repl);
                if let Ok(h) = std::thread::Builder::new()
                    .name("slimio-conn".to_string())
                    .spawn(move || connection_loop(stream, txs, shared, views, repl))
                {
                    conns.push(h);
                }
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// One reply segment: a range of the scratch buffer, or a shared value
/// spliced in without copying.
enum Seg {
    /// `scratch[start..end]`.
    Scratch(usize, usize),
    /// A whole `Arc`'d value (zero-copy GET payload).
    Shared(Arc<[u8]>),
}

/// Per-connection reply accumulator: small replies append to one reusable
/// scratch buffer, large GET payloads ride along as `Arc` segments, and
/// the whole burst goes to the socket with vectored writes.
struct ReplyBuf {
    scratch: Vec<u8>,
    segs: Vec<Seg>,
    /// Start of the scratch range not yet claimed by a segment.
    open: usize,
}

impl ReplyBuf {
    fn new() -> Self {
        ReplyBuf {
            scratch: Vec::with_capacity(16 << 10),
            segs: Vec::new(),
            open: 0,
        }
    }

    fn clear(&mut self) {
        self.scratch.clear();
        self.segs.clear();
        self.open = 0;
    }

    fn is_empty(&self) -> bool {
        self.segs.is_empty() && self.scratch.is_empty()
    }

    /// Bytes currently pending toward the socket (scratch plus spliced
    /// shared values) — what the reply soft limit is measured against.
    fn byte_len(&self) -> usize {
        self.scratch.len()
            + self
                .segs
                .iter()
                .map(|s| match s {
                    Seg::Scratch(..) => 0,
                    Seg::Shared(v) => v.len(),
                })
                .sum::<usize>()
    }

    /// Closes the currently accumulating scratch range into a segment.
    fn seal_scratch(&mut self) {
        if self.open < self.scratch.len() {
            self.segs.push(Seg::Scratch(self.open, self.scratch.len()));
            self.open = self.scratch.len();
        }
    }

    /// Appends a GET hit. Values past [`ZERO_COPY_THRESHOLD`] are spliced
    /// in as shared segments; small ones are cheaper to memcpy than to
    /// spend an iovec on.
    fn push_bulk_value(&mut self, v: Arc<[u8]>) {
        if v.len() < ZERO_COPY_THRESHOLD {
            resp::encode_bulk(&v, &mut self.scratch);
        } else {
            resp::encode_bulk_header(v.len(), &mut self.scratch);
            self.seal_scratch();
            self.segs.push(Seg::Shared(v));
            self.scratch.extend_from_slice(b"\r\n");
        }
    }

    /// Appends an owned reply value (the writer-thread reply path).
    fn push_value(&mut self, v: &Value) {
        resp::encode(v, &mut self.scratch);
    }

    /// Writes every pending segment with as few `writev` calls as
    /// possible, then resets the buffer. Returns the bytes written.
    fn write_to(&mut self, stream: &mut TcpStream) -> std::io::Result<usize> {
        self.seal_scratch();
        let mut slices: Vec<&[u8]> = Vec::with_capacity(self.segs.len());
        for seg in &self.segs {
            match seg {
                Seg::Scratch(s, e) => slices.push(&self.scratch[*s..*e]),
                Seg::Shared(v) => slices.push(v),
            }
        }
        let total: usize = slices.iter().map(|s| s.len()).sum();
        let (mut idx, mut off) = (0usize, 0usize);
        while idx < slices.len() {
            let end = (idx + MAX_IOVECS).min(slices.len());
            let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(end - idx);
            iov.push(IoSlice::new(&slices[idx][off..]));
            for s in &slices[idx + 1..end] {
                iov.push(IoSlice::new(s));
            }
            let mut n = stream.write_vectored(&iov)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket wrote zero bytes",
                ));
            }
            // Advance (idx, off) across however much the kernel took.
            while n > 0 {
                let rem = slices[idx].len() - off;
                if n >= rem {
                    n -= rem;
                    idx += 1;
                    off = 0;
                } else {
                    off += n;
                    n = 0;
                }
            }
        }
        self.clear();
        Ok(total)
    }
}

/// Flushes the reply buffer to the socket, counting the bytes into the
/// server's network-out total. A write stall (the socket refusing bytes
/// past the configured write timeout) counts as a slow-client eviction;
/// every caller treats the error as fatal for the connection, which is
/// what reclaims the buffers.
fn flush_reply(
    reply: &mut ReplyBuf,
    stream: &mut TcpStream,
    shared: &Shared,
) -> std::io::Result<()> {
    match reply.write_to(stream) {
        Ok(n) => {
            shared.net_out.fetch_add(n as u64, Ordering::Relaxed);
            Ok(())
        }
        Err(e) => {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                shared.gov.count_client_eviction();
            }
            Err(e)
        }
    }
}

/// Where a parsed command executes.
enum Route {
    /// Served on this connection thread against the read view.
    Local,
    /// Forwarded to the writer thread.
    Writer,
    /// `WAIT`: parks this connection thread polling replica acks.
    Wait,
    /// `PSYNC`: the socket is handed off to the writer, which turns the
    /// connection into a replication feed.
    Sync,
}

/// Classifies one command frame. Only commands that cannot mutate, sync,
/// or inspect writer-owned state qualify for the local path; INFO and
/// DBSIZE read writer-owned engine stats and keep their writer routing.
fn route_command(frame: &resp::CommandFrame<'_>, has_view: bool) -> Route {
    let cmd = frame.arg(0);
    if cmd.eq_ignore_ascii_case(b"PING") {
        return Route::Local;
    }
    if cmd.eq_ignore_ascii_case(b"WAIT") {
        return Route::Wait;
    }
    if cmd.eq_ignore_ascii_case(b"PSYNC") {
        return Route::Sync;
    }
    if has_view && (cmd.eq_ignore_ascii_case(b"GET") || cmd.eq_ignore_ascii_case(b"EXISTS")) {
        return Route::Local;
    }
    Route::Writer
}

/// `WAIT <numreplicas> <timeout-ms>` on the connection thread. The
/// target is the current end of the replication backlog: the writer
/// publishes each batch's WAL bytes *before* releasing its replies, so
/// once this connection's own acks are drained (the caller guarantees
/// it), the backlog end covers every write this client has seen
/// acknowledged. Polls replica acks until enough replicas reach the
/// target, the timeout lapses (0 = no timeout), or the server stops;
/// replies with the replica count that had reached the target.
fn serve_wait(
    frame: &resp::CommandFrame<'_>,
    repl: &ReplState,
    shared: &Shared,
    reply: &mut ReplyBuf,
) {
    if frame.arg_count() != 3 {
        resp::encode_error(
            "ERR wrong number of arguments for 'wait' command",
            &mut reply.scratch,
        );
        return;
    }
    let parse = |b: &[u8]| {
        std::str::from_utf8(b)
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
    };
    let (Some(need), Some(timeout_ms)) = (parse(frame.arg(1)), parse(frame.arg(2))) else {
        resp::encode_error(
            "ERR value is not an integer or out of range",
            &mut reply.scratch,
        );
        return;
    };
    let target = repl.backlog_end();
    // `timeout 0` is Redis's block-forever: no deadline at all.
    let deadline = (timeout_ms > 0).then(|| Instant::now() + Duration::from_millis(timeout_ms));
    // Acks usually land within a round trip, so start polling tight and
    // back off geometrically: a satisfied WAIT answers in ~a millisecond
    // while a long one settles to a capped cadence instead of spinning.
    let mut backoff = Duration::from_millis(1);
    shared.gov.block();
    let have = loop {
        let have = repl.count_acked(target);
        if have as u64 >= need
            || shared.stop.load(Ordering::SeqCst)
            || shared.kill.load(Ordering::SeqCst)
            || deadline.is_some_and(|d| Instant::now() >= d)
        {
            break have;
        }
        let nap = match deadline {
            Some(d) => backoff.min(d.saturating_duration_since(Instant::now())),
            None => backoff,
        };
        std::thread::sleep(nap);
        backoff = (backoff * 2).min(Duration::from_millis(16));
    };
    shared.gov.unblock();
    resp::encode_int(have as i64, &mut reply.scratch);
}

/// Executes one local (read-path) command against the shard views.
/// GET/EXISTS are only routed here when the [`ReadHandle`]s exist; their
/// arity errors are produced locally too so the reply stream stays in
/// order. Each key is read from *its own shard's* view after waiting
/// (trivially) for that shard's newest acked sequence — waiting on one
/// global sequence would couple a shard's reads to every other shard's
/// publish cadence.
fn serve_local(
    frame: &resp::CommandFrame<'_>,
    readers: Option<&[ReadHandle]>,
    last_acks: &[u64],
    reply: &mut ReplyBuf,
) {
    let cmd = frame.arg(0);
    if cmd.eq_ignore_ascii_case(b"PING") {
        match frame.arg_count() {
            1 => resp::encode_simple("PONG", &mut reply.scratch),
            2 => resp::encode_bulk(frame.arg(1), &mut reply.scratch),
            _ => resp::encode_error(
                "ERR wrong number of arguments for 'ping' command",
                &mut reply.scratch,
            ),
        }
        return;
    }
    let readers = readers.expect("GET/EXISTS routed local without read handles");
    let shards = readers.len();
    if cmd.eq_ignore_ascii_case(b"GET") {
        if frame.arg_count() != 2 {
            resp::encode_error(
                "ERR wrong number of arguments for 'get' command",
                &mut reply.scratch,
            );
            return;
        }
        let s = shard_of(frame.arg(1), shards);
        // Read-your-writes: the newest acked write of *this connection*
        // on this key's shard must be visible. Publish-before-ack makes
        // this a no-op in practice; it is the invariant, not a wait.
        readers[s].wait_published(last_acks[s]);
        match readers[s].get(frame.arg(1)) {
            Some(v) => reply.push_bulk_value(v),
            None => resp::encode_null(&mut reply.scratch),
        }
    } else {
        // EXISTS key [key ...]
        if frame.arg_count() < 2 {
            resp::encode_error(
                "ERR wrong number of arguments for 'exists' command",
                &mut reply.scratch,
            );
            return;
        }
        let mut found = 0i64;
        for i in 1..frame.arg_count() {
            let s = shard_of(frame.arg(i), shards);
            readers[s].wait_published(last_acks[s]);
            if readers[s].contains(frame.arg(i)) {
                found += 1;
            }
        }
        resp::encode_int(found, &mut reply.scratch);
    }
}

/// True for the data-plane commands that must reserve a writer-queue
/// slot before being forwarded. Control-plane commands (INFO, CONFIG,
/// SHUTDOWN, replication handshakes, …) bypass admission so the node
/// stays observable and administrable while saturated — they are bounded
/// by the per-connection in-flight cap instead.
fn governed_cmd(cmd: &[u8]) -> bool {
    cmd.eq_ignore_ascii_case(b"SET")
        || cmd.eq_ignore_ascii_case(b"DEL")
        || cmd.eq_ignore_ascii_case(b"GET")
        || cmd.eq_ignore_ascii_case(b"EXISTS")
}

/// Panic-safe connection teardown: unregisters the histogram and drops
/// the client gauge even when the connection thread unwinds, so one
/// crashed connection can't leak registry slots or strand the
/// `connected_clients` count. Must never panic itself (a panic inside a
/// `Drop` during unwind aborts the process) — which is why every lock it
/// reaches goes through poisoning-tolerant `lock_ok`.
struct ConnGuard {
    shared: Arc<Shared>,
    hist: Arc<Mutex<Histogram>>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.shared.hists.unregister(&self.hist);
        self.shared.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One writer-bound command whose reply (or replies) the socket is
/// still owed, in request order.
struct Owed {
    /// When the command was parsed, for the latency histogram.
    t0: Instant,
    /// The shards that each owe exactly one reply for this command.
    mask: u16,
    /// How the per-shard replies collapse into one client reply.
    combine: Combine,
}

/// Reply-combining rule for one forwarded command.
#[derive(Clone, Copy)]
enum Combine {
    /// Single-shard command: pass its one reply through.
    Pass,
    /// Multi-key command split across shards: sum the integer replies
    /// (DEL's removed count, EXISTS's found count). Any error reply
    /// wins over the sum.
    SumInt,
}

/// One forwarded sub-command: the shard it goes to and its args.
type ShardRequest = (usize, Vec<Vec<u8>>);

/// Decides which shard writer(s) one forwarded command goes to.
/// Multi-key DEL/EXISTS split into one sub-command per owning shard,
/// their integer replies summed; single-key data commands go to the
/// key's shard; everything else — the control plane — runs on shard 0.
fn plan_requests(args: Vec<Vec<u8>>, shards: usize) -> (Vec<ShardRequest>, Combine) {
    let Some(cmd) = args.first() else {
        return (vec![(0, args)], Combine::Pass);
    };
    let multi_key = cmd.eq_ignore_ascii_case(b"DEL") || cmd.eq_ignore_ascii_case(b"EXISTS");
    if shards > 1 && multi_key && args.len() > 2 {
        let mut per: Vec<Vec<Vec<u8>>> = vec![Vec::new(); shards];
        let mut it = args.into_iter();
        let name = it.next().expect("first arg checked above");
        for key in it {
            per[shard_of(&key, shards)].push(key);
        }
        let plan: Vec<(usize, Vec<Vec<u8>>)> = per
            .into_iter()
            .enumerate()
            .filter(|(_, keys)| !keys.is_empty())
            .map(|(s, keys)| {
                let mut sub = Vec::with_capacity(1 + keys.len());
                sub.push(name.clone());
                sub.extend(keys);
                (s, sub)
            })
            .collect();
        return (plan, Combine::SumInt);
    }
    let keyed = multi_key || cmd.eq_ignore_ascii_case(b"SET") || cmd.eq_ignore_ascii_case(b"GET");
    let s = if keyed && args.len() >= 2 {
        shard_of(&args[1], shards)
    } else {
        0
    };
    (vec![(s, args)], Combine::Pass)
}

fn connection_loop(
    mut stream: TcpStream,
    txs: Vec<mpsc::Sender<Request>>,
    shared: Arc<Shared>,
    views: Option<Vec<Arc<ReadView>>>,
    repl: Arc<ReplState>,
) {
    let shards = txs.len();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    // A socket that won't take reply bytes for this long is a slow
    // consumer: the flush fails and the connection is evicted rather
    // than letting its buffers grow or its thread block forever.
    let _ = stream.set_write_timeout(Some(shared.gov.opts().client_write_stall));
    let mut parser = resp::Parser::new();
    let mut reply = ReplyBuf::new();
    let hist = shared.hists.register();
    let _guard = ConnGuard {
        shared: Arc::clone(&shared),
        hist: Arc::clone(&hist),
    };
    // Read handles make GET/EXISTS local — one per shard view, all or
    // nothing. `register` returns None once a registry is full; those
    // connections keep the classic everything-through-the-writer
    // routing.
    let readers: Option<Vec<ReadHandle>> = views.as_ref().and_then(|vs| {
        let mut rs = Vec::with_capacity(vs.len());
        for v in vs.iter() {
            rs.push(v.register()?);
        }
        Some(rs)
    });
    // One reply channel per shard for the whole connection: each shard's
    // writer sends replies back over that shard's pair (in that shard's
    // request order, one message per batch), so a pipelined burst costs
    // no per-command channel allocation and cross-shard replies are
    // re-sequenced by `owed`.
    let (rtxs, mut replies): (Vec<ReplyTx>, Vec<ShardReplies>) = (0..shards)
        .map(|_| {
            let (tx, rx) = mpsc::channel();
            (Arc::new(tx), ShardReplies::new(rx))
        })
        .unzip();
    // Writer-bound commands whose replies are still owed.
    let mut owed: Vec<Owed> = Vec::new();
    // Newest engine sequence this connection has seen acked, per shard.
    let mut last_acks = vec![0u64; shards];
    // The port a replica announced via `REPLCONF listening-port`, kept
    // so its PSYNC handoff can be labeled with a useful address.
    let mut replconf_port: Option<u16> = None;

    'conn: loop {
        match parser.fill_from(&mut stream) {
            Ok(0) => break,
            Ok(n) => {
                shared.net_in.fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.stop.load(Ordering::SeqCst) || shared.kill.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        reply.clear();
        owed.clear();
        let mut fatal: Option<String> = None;
        let mut lost_writer = false;
        let mut handed_off = false;
        // Drain the burst: local commands execute immediately (after any
        // owed writer replies, to keep the reply stream in request
        // order); writer commands are forwarded so the writer can drain
        // them into one group-committed batch.
        loop {
            match parser.next_command_frame() {
                Ok(Some(frame)) => {
                    let t0 = Instant::now();
                    match route_command(&frame, readers.is_some()) {
                        Route::Local => {
                            if !owed.is_empty()
                                && !drain_writer_replies(
                                    &mut replies,
                                    &shared,
                                    &hist,
                                    &mut owed,
                                    &mut last_acks,
                                    &mut reply,
                                )
                            {
                                lost_writer = true;
                                break;
                            }
                            serve_local(&frame, readers.as_deref(), &last_acks, &mut reply);
                            let ns = dur_ns(t0.elapsed());
                            if !frame.arg(0).eq_ignore_ascii_case(b"PING") {
                                shared.tel.reads.record(ns);
                            }
                            lock_ok(&hist).record(ns);
                            shared.ops.fetch_add(1, Ordering::Relaxed);
                        }
                        Route::Writer => {
                            let args = frame.to_owned_args();
                            if args.len() == 2
                                && args[0].eq_ignore_ascii_case(b"DEBUG")
                                && args[1].eq_ignore_ascii_case(b"PANIC")
                            {
                                // Crash hook for the lock-poisoning
                                // regression tests: unwind this thread
                                // *while holding* its histogram lock —
                                // the worst case the registry, INFO, and
                                // the connection gauge must survive.
                                let _poisoner = hist.lock();
                                panic!("DEBUG PANIC requested by client");
                            }
                            if args.len() == 3
                                && args[0].eq_ignore_ascii_case(b"REPLCONF")
                                && args[1].eq_ignore_ascii_case(b"listening-port")
                            {
                                replconf_port = String::from_utf8_lossy(&args[2]).parse().ok();
                            }
                            // Deep pipelines may not park unbounded
                            // replies at the writers: past the in-flight
                            // cap, settle what is owed before forwarding
                            // more.
                            if owed.len() >= shared.gov.opts().conn_inflight_cap
                                && !drain_writer_replies(
                                    &mut replies,
                                    &shared,
                                    &hist,
                                    &mut owed,
                                    &mut last_acks,
                                    &mut reply,
                                )
                            {
                                lost_writer = true;
                                break;
                            }
                            let governed = args.first().is_some_and(|c| governed_cmd(c));
                            let (plan, combine) = plan_requests(args, shards);
                            // `plan` lists shards in ascending order (the
                            // split walks 0..shards), which is the lock
                            // order `admit_all` reserves slots in.
                            let involved: Vec<usize> = plan.iter().map(|(s, _)| *s).collect();
                            let admitted = if governed {
                                let t_adm = Instant::now();
                                let ok = shared.gov.admit_all(&involved, &shared.stop);
                                // Admission wait lands on the first shard
                                // the command touches (recorded even for
                                // refusals — the park before -BUSY is real
                                // client-visible latency).
                                if let Some(&s) = involved.first() {
                                    shared.tel.shards[s]
                                        .admission
                                        .record(dur_ns(t_adm.elapsed()));
                                }
                                ok
                            } else {
                                true
                            };
                            if !admitted {
                                // Some shard's queue full past the
                                // admission park: refuse here, on the
                                // connection thread, after settling owed
                                // replies so the error lands in request
                                // order. (`admit_all` already rolled back
                                // any slots it took.)
                                if !owed.is_empty()
                                    && !drain_writer_replies(
                                        &mut replies,
                                        &shared,
                                        &hist,
                                        &mut owed,
                                        &mut last_acks,
                                        &mut reply,
                                    )
                                {
                                    lost_writer = true;
                                    break;
                                }
                                resp::encode_error(
                                    "BUSY writer queue is full, try again later",
                                    &mut reply.scratch,
                                );
                                shared.ops.fetch_add(1, Ordering::Relaxed);
                            } else {
                                let mut mask = 0u16;
                                let mut send_failed = false;
                                let queued_at = Instant::now();
                                for (s, sub) in plan {
                                    if send_failed
                                        || txs[s]
                                            .send(Request::Cmd {
                                                args: sub,
                                                queued_at,
                                                reply: Arc::clone(&rtxs[s]),
                                            })
                                            .is_err()
                                    {
                                        // A dead writer channel means
                                        // teardown: give this and every
                                        // later slot back; shards already
                                        // sent release theirs on drain.
                                        if governed {
                                            shared.gov.release(s, 1);
                                        }
                                        send_failed = true;
                                    } else {
                                        mask |= 1 << s;
                                    }
                                }
                                if send_failed {
                                    fatal = Some("ERR server shutting down".to_string());
                                    break;
                                }
                                owed.push(Owed { t0, mask, combine });
                            }
                        }
                        Route::Wait => {
                            // Settle this connection's own acks first —
                            // both for reply order and because the WAIT
                            // target must cover them.
                            if !owed.is_empty()
                                && !drain_writer_replies(
                                    &mut replies,
                                    &shared,
                                    &hist,
                                    &mut owed,
                                    &mut last_acks,
                                    &mut reply,
                                )
                            {
                                lost_writer = true;
                                break;
                            }
                            serve_wait(&frame, &repl, &shared, &mut reply);
                            lock_ok(&hist)
                                .record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                            shared.ops.fetch_add(1, Ordering::Relaxed);
                        }
                        Route::Sync => {
                            // Flush everything owed so the sync preamble
                            // is the next thing on the wire, then hand
                            // the socket to shard 0's writer and bow out.
                            if !owed.is_empty()
                                && !drain_writer_replies(
                                    &mut replies,
                                    &shared,
                                    &hist,
                                    &mut owed,
                                    &mut last_acks,
                                    &mut reply,
                                )
                            {
                                lost_writer = true;
                                break;
                            }
                            if !reply.is_empty()
                                && flush_reply(&mut reply, &mut stream, &shared).is_err()
                            {
                                break;
                            }
                            let args = frame.to_owned_args();
                            let peer_ip = stream
                                .peer_addr()
                                .map(|a| a.ip().to_string())
                                .unwrap_or_else(|_| "?".to_string());
                            let addr = match replconf_port {
                                Some(p) => format!("{peer_ip}:{p}"),
                                None => format!("{peer_ip}:?"),
                            };
                            if let Ok(dup) = stream.try_clone() {
                                handed_off = txs[0]
                                    .send(Request::Sync {
                                        args,
                                        stream: dup,
                                        addr,
                                    })
                                    .is_ok();
                            }
                            break;
                        }
                    }
                    // Mid-burst flush once the accumulated reply bytes
                    // pass the soft limit: per-connection reply memory
                    // turns into socket backpressure, and a client that
                    // won't drain it hits the write-stall timeout and is
                    // evicted instead of growing the buffer forever.
                    if reply.byte_len() >= shared.gov.opts().reply_buf_soft_limit
                        && flush_reply(&mut reply, &mut stream, &shared).is_err()
                    {
                        break 'conn;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    fatal = Some(format!("ERR Protocol error: {e}"));
                    break;
                }
            }
        }
        if handed_off {
            // The feed thread owns the socket now; this thread must not
            // read or write it again.
            break 'conn;
        }
        // Collect whatever the writers still owe from this burst.
        if !lost_writer
            && !owed.is_empty()
            && !drain_writer_replies(
                &mut replies,
                &shared,
                &hist,
                &mut owed,
                &mut last_acks,
                &mut reply,
            )
        {
            lost_writer = true;
        }
        if let Some(msg) = fatal {
            resp::encode_error(&msg, &mut reply.scratch);
            let _ = flush_reply(&mut reply, &mut stream, &shared);
            break 'conn;
        }
        if lost_writer {
            let _ = flush_reply(&mut reply, &mut stream, &shared);
            break 'conn;
        }
        if !reply.is_empty() && flush_reply(&mut reply, &mut stream, &shared).is_err() {
            break;
        }
        // The stop check sits *after* the batch is processed and written,
        // so a pipelined batch that contains SHUTDOWN still gets every
        // reply onto the wire before the connection winds down.
        if shared.stop.load(Ordering::SeqCst) || shared.kill.load(Ordering::SeqCst) {
            break;
        }
    }
    // Histogram/gauge cleanup happens in `_guard`'s Drop, shared with
    // the unwind path.
}

/// Collects every owed command's per-shard replies, in request order,
/// combining each command's replies into one client reply. Per shard,
/// replies arrive in that shard's request order, so walking the owed
/// list front to back and each mask in ascending shard order matches
/// sends to replies exactly. Returns false when a writer is gone.
fn drain_writer_replies(
    replies: &mut [ShardReplies],
    shared: &Shared,
    hist: &Arc<Mutex<Histogram>>,
    owed: &mut Vec<Owed>,
    last_acks: &mut [u64],
    reply: &mut ReplyBuf,
) -> bool {
    for o in owed.iter() {
        let mut sum = 0i64;
        let mut first_err: Option<Value> = None;
        let mut single: Option<Value> = None;
        for (s, shard_replies) in replies.iter_mut().enumerate() {
            if o.mask & (1 << s) == 0 {
                continue;
            }
            match shard_replies.wait_reply(shared, &mut last_acks[s]) {
                Some(value) => {
                    match &value {
                        Value::Int(n) => sum += *n,
                        Value::Error(_) if first_err.is_none() => first_err = Some(value.clone()),
                        _ => {}
                    }
                    single = Some(value);
                }
                None => {
                    owed.clear();
                    return false;
                }
            }
        }
        let combined = match o.combine {
            Combine::Pass => single.expect("owed entry with an empty shard mask"),
            Combine::SumInt => first_err.unwrap_or(Value::Int(sum)),
        };
        let ns = dur_ns(o.t0.elapsed());
        shared.tel.e2e.record(ns);
        lock_ok(hist).record(ns);
        shared.ops.fetch_add(1, Ordering::Relaxed);
        reply.push_value(&combined);
    }
    owed.clear();
    true
}

/// One shard's reply stream into a connection. The shard's writer
/// releases each batch's replies for this connection as one message;
/// `ready` hands them out one at a time, in request order.
struct ShardReplies {
    rx: mpsc::Receiver<ReplyMsg>,
    ready: std::vec::IntoIter<Value>,
}

impl ShardReplies {
    fn new(rx: mpsc::Receiver<ReplyMsg>) -> Self {
        ShardReplies {
            rx,
            ready: Vec::new().into_iter(),
        }
    }

    /// The next reply from the writer: one already released, else the
    /// first of the next release, whose published sequence raises
    /// `last_ack`. The connection keeps its own sender alive, so a dead
    /// writer cannot be observed as a disconnect; bail out when the
    /// server is being killed, or when a cleanly stopping server has
    /// stayed silent well past its shutdown drain window (the request
    /// raced past the writer's exit and will never be answered).
    fn wait_reply(&mut self, shared: &Shared, last_ack: &mut u64) -> Option<Value> {
        let mut waited = Duration::ZERO;
        loop {
            if let Some(v) = self.ready.next() {
                return Some(v);
            }
            match self.rx.recv_timeout(Duration::from_millis(100)) {
                Ok((values, seq)) => {
                    *last_ack = (*last_ack).max(seq);
                    self.ready = values.into_iter();
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if shared.kill.load(Ordering::SeqCst) {
                        return None;
                    }
                    waited += Duration::from_millis(100);
                    if shared.stop.load(Ordering::SeqCst) && waited >= Duration::from_secs(2) {
                        return None;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return None,
            }
        }
    }
}

/// Parks `value` for release on `to`, behind the replies already parked
/// for that channel. Returns its slot as (entry, position).
fn park_reply(
    releases: &mut Vec<(ReplyTx, Vec<Value>)>,
    to: ReplyTx,
    value: Value,
) -> (usize, usize) {
    let g = match releases.iter().rposition(|(tx, _)| Arc::ptr_eq(tx, &to)) {
        Some(g) => g,
        None => {
            releases.push((to, Vec::new()));
            releases.len() - 1
        }
    };
    let values = &mut releases[g].1;
    values.push(value);
    (g, values.len() - 1)
}

/// One shard's writer thread: owns that shard's engine (its slice of
/// the keyspace over its own WAL region and FDP placement IDs),
/// serializes that shard's commands, group-commits each batch with one
/// flush+sync, pumps background snapshots, and performs the final flush
/// on clean shutdown. Shard 0 additionally carries the control plane:
/// `INFO`/`DBSIZE`/`DEBUG DIGEST` totals, `BGSAVE` broadcast, `PSYNC`
/// handoffs, and `SHUTDOWN`/`REPLICAOF`. Only shard 0 ever blocks on
/// other shards (gathers, `Bg` broadcasts); other shards never block on
/// shard 0, so there is no cross-writer deadlock. Returns the backend
/// so the store can be reassembled.
struct Writer {
    shard: usize,
    db: Db<AnyBackend>,
    rx: mpsc::Receiver<Request>,
    /// Senders to every shard writer (our own included). Shard 0 uses
    /// them for gathers and snapshot broadcasts; runtime `REPLICAOF`
    /// hands a clone to the spawned link thread. Their existence means
    /// channel disconnect can no longer signal shutdown; the idle wait
    /// polls `stop` instead.
    txs: Vec<mpsc::Sender<Request>>,
    /// Telemetry root (same object as `shared.tel`; an owned handle so
    /// the batch loop can record stages while `self` is mutably
    /// borrowed by dispatch).
    tel: Arc<Telemetry>,
    shared: Arc<Shared>,
    repl: Arc<ReplState>,
    /// Our serving port, announced upstream by link threads.
    port: u16,
    snapshot_chunk: usize,
    clock: SharedClock,
    backend_name: &'static str,
    fdp: bool,
    recovered_keys: u64,
    wal_records_replayed: u64,
    snap_started: Option<Instant>,
    last_snapshot_ms: Option<u64>,
    cmds_since_step: u32,
    /// PSYNC handoffs parked during batch execution, served between
    /// batches (after the commit + backlog pump, so the replica's
    /// attach offset covers every frame this shard has published).
    pending_syncs: Vec<(Vec<Vec<u8>>, TcpStream, String)>,
    /// Keyspace-gather requests from shard 0 parked during batch
    /// execution, answered between batches after the commit + backlog
    /// pump so the reply reflects only published state.
    pending_gathers: Vec<mpsc::Sender<Vec<Entry>>>,
    /// FTL GC pass count at the last batch boundary (for the `gc`
    /// LATENCY event).
    prev_gc_passes: u64,
}

/// Wall-clock cost of one group commit, split at the flush/sync
/// boundary for the `wal_append` and `device_sync` telemetry stages.
/// `flush_stall_ns` is the injected device stall (`slow@` faults)
/// observed during the flush phase; the writer re-attributes it to
/// `device_sync`, so `wal_append` stays a pure software cost. Stall
/// during the sync phase needs no correction — it is already inside
/// `sync_ns`.
#[derive(Clone, Copy, Default)]
struct CommitTiming {
    flush_ns: u64,
    sync_ns: u64,
    flush_stall_ns: u64,
}

impl Writer {
    fn now(&self) -> SimTime {
        sim_now(&self.clock)
    }

    fn run(mut self) -> AnyBackend {
        // The batch's parked replies, one entry per destination channel
        // (in first-use order) holding that channel's replies in
        // execution order; `write_acks` addresses the commit-contingent
        // ones as (entry, position).
        let mut releases: Vec<(ReplyTx, Vec<Value>)> = Vec::new();
        let mut write_acks: Vec<(usize, usize)> = Vec::with_capacity(MAX_BATCH);
        // Slowlog bookkeeping per batch: (enqueue time, queue-stage ns,
        // argv) for each executed client command.
        let mut cmd_meta: Vec<(Instant, u64, Vec<Vec<u8>>)> = Vec::new();
        let tel = Arc::clone(&self.tel);
        // Baseline the GC delta: a restarted server shares the
        // in-process device, whose counters carry prior history.
        self.prev_gc_passes = lock_ok(self.db.backend().device()).ftl_stats().gc_passes;
        loop {
            if self.shared.kill.load(Ordering::SeqCst) {
                return self.db.into_backend();
            }
            // First request of a batch. Pump the snapshot while the queue
            // is empty; poll the Periodical flush timer when WAL bytes
            // are buffered; otherwise park on the channel so an idle
            // server burns no CPU waking every millisecond.
            let first = if self.db.snapshot_active() {
                match self.rx.try_recv() {
                    Ok(r) => Some(r),
                    Err(mpsc::TryRecvError::Empty) => {
                        self.step_snapshot(IDLE_STEP_ENTRIES);
                        continue;
                    }
                    Err(mpsc::TryRecvError::Disconnected) => None,
                }
            } else if self.flush_timer_pending() {
                match self.rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(r) => Some(r),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if self.shared.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let now = self.now();
                        let _ = self.db.tick(now);
                        // A timer-driven flush ships its records too.
                        self.pump_repl();
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => None,
                }
            } else {
                // The writer holds its own sender clone (for link
                // threads), so teardown's sender drop can never surface
                // as a disconnect here — poll `stop` instead of parking
                // indefinitely.
                match self.rx.recv_timeout(Duration::from_millis(100)) {
                    Ok(r) => Some(r),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if self.shared.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => None,
                }
            };
            let Some(first) = first else { break };

            // Drain whatever else is already queued into one batch — no
            // waiting, so a lone request still commits immediately.
            let mut batch = Vec::with_capacity(8);
            batch.push(first);
            while batch.len() < MAX_BATCH {
                match self.rx.try_recv() {
                    Ok(r) => batch.push(r),
                    Err(_) => break,
                }
            }
            let batch_len = batch.len() as u32;
            // Give the drained commands' admission slots back right away
            // so parked connections refill the queue while this batch
            // commits. Queued-but-undrained work is therefore bounded by
            // `queue_cap`, and total writer-held work by `queue_cap`
            // plus one MAX_BATCH batch in flight.
            let governed_drained = batch
                .iter()
                .filter(|r| {
                    matches!(r, Request::Cmd { args, .. }
                        if args.first().is_some_and(|c| governed_cmd(c)))
                })
                .count();
            self.shared.gov.release(self.shard, governed_drained);

            let rec = &tel.shards[self.shard];
            let slowlog_on = tel.slowlog.enabled();
            let t_exec = Instant::now();
            let mut max_queue_ns = 0u64;
            let mut n_cmds = 0u64;
            cmd_meta.clear();

            // Execute every command, queueing WAL records in the engine
            // while deferring the flush; every reply is parked until the
            // group commit lands so no ack precedes its batch's sync.
            write_acks.clear();
            let mut refused = false;
            for req in batch {
                let (sender, value, wrote) = match req {
                    Request::Sync { args, stream, addr } => {
                        // Parked until after the commit/pump below, so
                        // the frozen keyspace matches the backlog end.
                        // A refused (shutting-down) sync just drops the
                        // socket.
                        if !refused {
                            self.pending_syncs.push((args, stream, addr));
                        }
                        continue;
                    }
                    Request::Cmd {
                        args,
                        queued_at,
                        reply,
                    } => {
                        let q_ns = dur_ns(t_exec.saturating_duration_since(queued_at));
                        rec.queue.record(q_ns);
                        max_queue_ns = max_queue_ns.max(q_ns);
                        n_cmds += 1;
                        if refused {
                            // SHUTDOWN landed earlier in this batch:
                            // everything pipelined behind it is refused,
                            // matching what the post-loop drain would
                            // tell it.
                            (
                                reply,
                                Value::Error("ERR server shutting down".to_string()),
                                false,
                            )
                            // (the publish below still stamps these)
                        } else {
                            let (value, wrote) = self.dispatch(&args);
                            if slowlog_on {
                                cmd_meta.push((queued_at, q_ns, args));
                            }
                            (reply, value, wrote)
                        }
                    }
                    Request::ReplSet {
                        entries,
                        epoch,
                        reply,
                    } => {
                        if refused {
                            (
                                reply,
                                Value::Error("ERR server shutting down".to_string()),
                                false,
                            )
                        } else {
                            let (value, wrote) = self.apply_full_reset(&entries, epoch);
                            (reply, value, wrote)
                        }
                    }
                    Request::ReplApply {
                        records,
                        epoch,
                        reply,
                    } => {
                        if refused {
                            (
                                reply,
                                Value::Error("ERR server shutting down".to_string()),
                                false,
                            )
                        } else {
                            let (value, wrote) = self.apply_repl_records(records, epoch);
                            (reply, value, wrote)
                        }
                    }
                    Request::Entries { reply } => {
                        // Parked until after the commit/pump below so the
                        // reply covers every published frame; a refused
                        // (shutting-down) gather drops its sender, which
                        // the waiting shard reads as failure.
                        if !refused {
                            self.pending_gathers.push(reply);
                        }
                        continue;
                    }
                    Request::Bg { kind, reply } => {
                        // BGSAVE/BGREWRITEAOF broadcast from shard 0:
                        // answered inline — whether the snapshot started
                        // does not depend on this batch's commit.
                        let ok = !refused && self.begin_snapshot(kind).is_ok();
                        let _ = reply.send(ok);
                        continue;
                    }
                };
                let slot = park_reply(&mut releases, sender, value);
                if wrote {
                    write_acks.push(slot);
                }
                if self.shared.stop.load(Ordering::SeqCst) {
                    refused = true;
                }
            }
            let shutting_down = refused || self.shared.stop.load(Ordering::SeqCst);
            let t_commit = Instant::now();
            let exec_ns = dur_ns(t_commit.duration_since(t_exec));
            rec.execute.record(exec_ns);

            // Group commit: one WAL flush and (under Always) one device
            // sync cover the whole batch. If it fails, retract every ack
            // that was contingent on this commit.
            let mut commit = CommitTiming::default();
            if !write_acks.is_empty() {
                match self.group_commit() {
                    Ok(t) => commit = t,
                    Err(e) => {
                        let err = Value::err(format!("write failed: {e}"));
                        for &(g, i) in &write_acks {
                            releases[g].1[i] = err.clone();
                        }
                        // The errored acks also cover ReplSet/ReplApply:
                        // the link thread reads an error ack as link
                        // failure and never advances the acked upstream
                        // offset.
                    }
                }
            }
            // Split the commit's wall cost into WAL append vs device
            // sync. An injected `slow@` stall that slept during the flush
            // phase is re-attributed to `device_sync`, where it belongs
            // causally; sync-phase stall is already inside `sync_ns`.
            let (mut wal_ns, mut sync_ns) = (0u64, 0u64);
            let mut gc_delta = 0u64;
            if !write_acks.is_empty() {
                let gc_total = lock_ok(self.db.backend().device()).ftl_stats().gc_passes;
                gc_delta = gc_total.saturating_sub(self.prev_gc_passes);
                self.prev_gc_passes = gc_total;
                wal_ns = commit.flush_ns.saturating_sub(commit.flush_stall_ns);
                sync_ns = commit.sync_ns.saturating_add(commit.flush_stall_ns);
                rec.wal_append.record(wal_ns);
                rec.device_sync.record(sync_ns);
            }
            let t_post = Instant::now();
            // Ship this batch's committed records as one gseq-stamped
            // frame — backlog end now covers every write acked below,
            // which is the invariant `WAIT` relies on.
            self.pump_repl();
            // Publish the batch's keyspace mutations into the read view
            // *before* releasing any reply: a connection that sees an ack
            // must already be able to read its own write locally. (On
            // commit failure the map was still mutated, matching the
            // engine's existing semantics, so the view publishes either
            // way — it mirrors the map, not the WAL.)
            let published_seq = self.db.publish_view();
            self.shared.shard_stats[self.shard]
                .published_seq
                .store(published_seq, Ordering::Relaxed);
            // Publish this shard's observability slot and mirror the
            // cross-shard governed footprint for INFO and its high-water
            // mark; once per batch is plenty of resolution.
            self.update_stats(batch_len);
            self.shared
                .gov
                .record_engine_bytes(self.total_mem_governed());
            // Release replies: one message per destination channel,
            // carrying that channel's replies in request order. The
            // `reply` stage ends just before the last send: a send wakes
            // a connection that records its end-to-end time at once, and
            // on a busy host the writer may not run again until after
            // that, so a later stamp would stretch the stage past the
            // end-to-end window it is part of.
            let last = releases.pop();
            for (tx, values) in releases.drain(..) {
                let _ = tx.send((values, published_seq));
            }
            let t_done = Instant::now();
            if let Some((tx, values)) = last {
                let _ = tx.send((values, published_seq));
            }
            let reply_ns = dur_ns(t_done.duration_since(t_post));
            rec.reply.record(reply_ns);
            rec.batches.inc();
            rec.batch_commands.add(n_cmds);
            // LATENCY spike events: anything that held this batch (and
            // thus every connection parked behind it) at least the
            // threshold.
            if sync_ns >= LATENCY_EVENT_THRESHOLD_NS {
                tel.latency.record("device-sync", sync_ns / 1_000_000);
            }
            if wal_ns >= LATENCY_EVENT_THRESHOLD_NS {
                tel.latency.record("wal-append", wal_ns / 1_000_000);
            }
            if max_queue_ns >= LATENCY_EVENT_THRESHOLD_NS {
                tel.latency.record("writer-stall", max_queue_ns / 1_000_000);
            }
            if gc_delta > 0 {
                let commit_ns = dur_ns(t_post.duration_since(t_commit));
                if commit_ns >= LATENCY_EVENT_THRESHOLD_NS {
                    tel.latency.record("gc", commit_ns / 1_000_000);
                }
            }
            // Slowlog: a command's duration spans its enqueue to this
            // batch's reply release; the attached stage breakdown is the
            // batch's, with the command's own queue wait.
            if slowlog_on && !cmd_meta.is_empty() {
                let thr_us = tel.slowlog.threshold_us().max(0) as u64;
                for (queued_at, q_ns, args) in cmd_meta.drain(..) {
                    let dur = t_done.saturating_duration_since(queued_at);
                    if dur_ns(dur) / 1_000 < thr_us {
                        continue;
                    }
                    tel.slowlog.maybe_record(
                        dur,
                        args,
                        self.shard,
                        vec![
                            ("queue", q_ns / 1_000),
                            ("execute", exec_ns / 1_000),
                            ("wal_append", wal_ns / 1_000),
                            ("device_sync", sync_ns / 1_000),
                            ("reply", reply_ns / 1_000),
                        ],
                    );
                }
            }
            if !write_acks.is_empty() {
                self.after_write();
            }
            self.answer_gathers();
            self.handle_pending_syncs();

            if self.db.snapshot_active() {
                self.cmds_since_step += batch_len;
                if self.cmds_since_step >= BUSY_STEP_EVERY {
                    self.cmds_since_step = 0;
                    self.step_snapshot(BUSY_STEP_ENTRIES);
                }
            }
            if shutting_down {
                break;
            }
        }

        // A kill can race the blocking recv above (teardown drops the
        // sender): never run the clean-flush path once kill is set.
        if self.shared.kill.load(Ordering::SeqCst) {
            return self.db.into_backend();
        }

        // Shutting down cleanly: requests still queued on the channel —
        // pipelined behind the command that initiated shutdown, or raced
        // in from other connections — must not be dropped on the floor.
        // Every forwarded command gets a reply, even if it is an error.
        let final_seq = self.db.publish_view();
        while let Ok(req) = self.rx.recv_timeout(SHUTDOWN_DRAIN_IDLE) {
            if let Request::Cmd { args, .. } = &req {
                // Admitted commands drained here still hold their queue
                // slots; give them back so parked admitters can fail
                // fast instead of riding out their full deadline.
                if args.first().is_some_and(|c| governed_cmd(c)) {
                    self.shared.gov.release(self.shard, 1);
                }
            }
            match req {
                Request::Cmd { reply, .. }
                | Request::ReplSet { reply, .. }
                | Request::ReplApply { reply, .. } => {
                    let _ = reply.send((
                        vec![Value::Error("ERR server shutting down".to_string())],
                        final_seq,
                    ));
                }
                // A sync that raced shutdown just loses its socket; a
                // gather that raced it loses its sender (the waiting
                // shard reads the disconnect as failure).
                Request::Sync { .. } | Request::Entries { .. } => {}
                Request::Bg { reply, .. } => {
                    let _ = reply.send(false);
                }
            }
        }

        // Clean exit: finish any in-flight snapshot, then make the WAL
        // durable — unless the client asked for SHUTDOWN NOSAVE.
        if !self.shared.nosave.load(Ordering::SeqCst) {
            while self.db.snapshot_active() {
                let now = self.now();
                if self.db.snapshot_step(IDLE_STEP_ENTRIES, now).is_err() {
                    break;
                }
            }
            let now = self.now();
            let _ = self.db.flush_wal(now);
            let _ = self.db.sync_wal(now);
        }
        self.db.into_backend()
    }

    fn step_snapshot(&mut self, entries: usize) {
        let now = self.now();
        match self.db.snapshot_step(entries, now) {
            Ok(true) => {
                if let Some(t0) = self.snap_started.take() {
                    self.last_snapshot_ms =
                        Some(t0.elapsed().as_millis().min(u64::MAX as u128) as u64);
                }
            }
            Ok(false) => {}
            Err(_) => {
                self.snap_started = None;
            }
        }
    }

    fn begin_snapshot(&mut self, kind: SnapshotKind) -> Result<(), DbError> {
        let now = self.now();
        self.db.snapshot_begin(kind, now)?;
        self.snap_started = Some(Instant::now());
        Ok(())
    }

    /// True when the Periodical flush timer owes buffered WAL bytes a
    /// flush, so the first-request wait must keep polling `tick` instead
    /// of parking on the channel.
    fn flush_timer_pending(&self) -> bool {
        matches!(self.db.config().policy, LogPolicy::Periodical { .. })
            && self.db.wal_buffered_bytes() > 0
    }

    /// The batch's single commit point. Under `Always` this issues the
    /// flush and sync unconditionally — a mid-batch BGSAVE/BGREWRITEAOF
    /// flushes the buffer as a side effect of forking, and those records
    /// still need this sync before their acks may be released. Under
    /// `Periodical` the flush stays interval-gated, as in the paper.
    fn group_commit(&mut self) -> Result<CommitTiming, DbError> {
        let now = self.now();
        let stall = |db: &Db<AnyBackend>| lock_ok(db.backend().device()).wall_stall_ns();
        match self.db.config().policy {
            LogPolicy::Always => {
                let stall0 = stall(&self.db);
                let t_flush = Instant::now();
                let t = self.db.flush_wal(now)?;
                let flush_ns = dur_ns(t_flush.elapsed());
                let flush_stall_ns = stall(&self.db).saturating_sub(stall0);
                let t_sync = Instant::now();
                self.db.sync_wal(t.done_at)?;
                Ok(CommitTiming {
                    flush_ns,
                    sync_ns: dur_ns(t_sync.elapsed()),
                    flush_stall_ns,
                })
            }
            LogPolicy::Periodical { .. } => {
                let stall0 = stall(&self.db);
                let t_flush = Instant::now();
                self.db.batch_commit(now)?;
                Ok(CommitTiming {
                    flush_ns: dur_ns(t_flush.elapsed()),
                    sync_ns: 0,
                    flush_stall_ns: stall(&self.db).saturating_sub(stall0),
                })
            }
        }
    }

    /// Executes one command. The second return value marks a reply whose
    /// ack is contingent on the batch's group commit: the engine has only
    /// queued its WAL records, and the writer must not release the reply
    /// until the commit lands (or must replace it with an error).
    fn dispatch(&mut self, args: &[Vec<u8>]) -> (Value, bool) {
        let Some(cmd) = args.first() else {
            return (Value::err("empty command"), false);
        };
        let cmd = cmd.to_ascii_uppercase();
        let reply = match cmd.as_slice() {
            b"PING" => match args.len() {
                1 => Value::Simple("PONG".to_string()),
                2 => Value::Bulk(args[1].clone()),
                _ => Value::err("wrong number of arguments for 'ping' command"),
            },
            b"SET" => {
                if args.len() != 3 {
                    return (
                        Value::err("wrong number of arguments for 'set' command"),
                        false,
                    );
                }
                if self.repl.is_replica() {
                    return (Value::Error(READONLY_MSG.to_string()), false);
                }
                // The memory gate covers only client SETs: DELs shrink
                // the keyspace and must always go through (they are the
                // way out of an OOM condition), replica applies must
                // track the primary, and reads never touch the writer.
                // The gate is global: own live footprint plus every
                // other shard's last published one.
                let incoming = (args[1].len() + args[2].len()) as u64;
                if self
                    .shared
                    .gov
                    .refuse_oom(self.total_mem_governed(), incoming)
                {
                    return (
                        Value::Error(
                            "OOM command not allowed when used memory > 'maxmemory'".to_string(),
                        ),
                        false,
                    );
                }
                self.db.set_queued(&args[1], &args[2]);
                return (Value::ok(), true);
            }
            b"GET" => {
                if args.len() != 2 {
                    return (
                        Value::err("wrong number of arguments for 'get' command"),
                        false,
                    );
                }
                match self.db.get(&args[1]) {
                    Some(v) => Value::Bulk(v.to_vec()),
                    None => Value::Null,
                }
            }
            b"DEL" => {
                if args.len() < 2 {
                    return (
                        Value::err("wrong number of arguments for 'del' command"),
                        false,
                    );
                }
                if self.repl.is_replica() {
                    return (Value::Error(READONLY_MSG.to_string()), false);
                }
                let mut removed = 0i64;
                for key in &args[1..] {
                    let (_, was_removed) = self.db.del_queued(key);
                    if was_removed {
                        removed += 1;
                    }
                }
                // Only an effective delete queued a WAL record.
                return (Value::Int(removed), removed > 0);
            }
            b"EXISTS" => {
                if args.len() < 2 {
                    return (
                        Value::err("wrong number of arguments for 'exists' command"),
                        false,
                    );
                }
                let mut found = 0i64;
                for key in &args[1..] {
                    if self.db.get(key).is_some() {
                        found += 1;
                    }
                }
                Value::Int(found)
            }
            b"DBSIZE" => Value::Int(self.total_keys() as i64),
            b"BGSAVE" => self.bg_cmd(SnapshotKind::OnDemand, "Background saving started"),
            b"BGREWRITEAOF" => {
                self.bg_cmd(SnapshotKind::WalSnapshot, "Background WAL snapshot started")
            }
            b"INFO" => Value::Bulk(self.info_text().into_bytes()),
            b"SLOWLOG" => self.slowlog_cmd(args),
            b"LATENCY" => self.latency_cmd(args),
            b"DEBUG" => self.debug_cmd(args),
            b"CONFIG" => self.config_cmd(args),
            b"COMMAND" => Value::Array(Vec::new()),
            // Replicas identify themselves (listening-port) and report
            // stream progress (ACK) with REPLCONF; both just need an OK.
            b"REPLCONF" => Value::ok(),
            b"REPLICAOF" | b"SLAVEOF" => self.replicaof_cmd(args),
            b"SHUTDOWN" => {
                let nosave = args
                    .get(1)
                    .map(|a| a.eq_ignore_ascii_case(b"NOSAVE"))
                    .unwrap_or(false);
                // Raised on the shared state so *every* shard writer
                // (not just this dispatching one) honors it.
                self.shared.nosave.store(nosave, Ordering::SeqCst);
                self.shared.stop.store(true, Ordering::SeqCst);
                Value::ok()
            }
            _ => Value::err(format!(
                "unknown command '{}'",
                String::from_utf8_lossy(&cmd)
            )),
        };
        (reply, false)
    }

    /// `SLOWLOG GET [count] | LEN | RESET` over the shared slowlog.
    /// Entries mirror Redis' shape — `[id, unix_ts, duration_us, argv,
    /// "shard:<n>", "<stage breakdown>"]` — with the last two slots
    /// (Redis' client addr/name) repurposed for the owning shard and the
    /// batch's per-stage timings.
    fn slowlog_cmd(&self, args: &[Vec<u8>]) -> Value {
        let slowlog = &self.tel.slowlog;
        let Some(sub) = args.get(1) else {
            return Value::err("wrong number of arguments for 'slowlog' command");
        };
        if sub.eq_ignore_ascii_case(b"LEN") {
            return Value::Int(slowlog.len() as i64);
        }
        if sub.eq_ignore_ascii_case(b"RESET") {
            slowlog.reset();
            return Value::ok();
        }
        if sub.eq_ignore_ascii_case(b"GET") {
            let count = match args.get(2) {
                None => Some(10),
                Some(raw) => match String::from_utf8_lossy(raw).parse::<i64>() {
                    Ok(n) if n < 0 => None, // -1 = everything
                    Ok(n) => Some(n as usize),
                    Err(_) => return Value::err("value is not an integer or out of range"),
                },
            };
            let entries = slowlog
                .get(count)
                .into_iter()
                .map(|e| {
                    Value::Array(vec![
                        Value::Int(e.id as i64),
                        Value::Int(e.unix_ts as i64),
                        Value::Int(e.dur_us.min(i64::MAX as u64) as i64),
                        Value::Array(e.args.iter().map(|a| Value::Bulk(a.clone())).collect()),
                        Value::Bulk(format!("shard:{}", e.shard).into_bytes()),
                        Value::Bulk(e.stage_summary().into_bytes()),
                    ])
                })
                .collect();
            return Value::Array(entries);
        }
        Value::err("unknown SLOWLOG subcommand; try GET [count]|LEN|RESET")
    }

    /// `LATENCY HISTORY <event> | LATEST | RESET`, Redis-shaped, over
    /// the spike events the writer records (`device-sync`, `wal-append`,
    /// `writer-stall`, `gc`).
    fn latency_cmd(&self, args: &[Vec<u8>]) -> Value {
        let latency = &self.tel.latency;
        let Some(sub) = args.get(1) else {
            return Value::err("wrong number of arguments for 'latency' command");
        };
        if sub.eq_ignore_ascii_case(b"HISTORY") {
            let Some(event) = args.get(2) else {
                return Value::err("wrong number of arguments for 'latency history' command");
            };
            return Value::Array(
                latency
                    .history(event)
                    .into_iter()
                    .map(|(ts, ms)| {
                        Value::Array(vec![Value::Int(ts as i64), Value::Int(ms as i64)])
                    })
                    .collect(),
            );
        }
        if sub.eq_ignore_ascii_case(b"LATEST") {
            return Value::Array(
                latency
                    .latest()
                    .into_iter()
                    .map(|(name, ts, last, max)| {
                        Value::Array(vec![
                            Value::Bulk(name.as_bytes().to_vec()),
                            Value::Int(ts as i64),
                            Value::Int(last as i64),
                            Value::Int(max as i64),
                        ])
                    })
                    .collect(),
            );
        }
        if sub.eq_ignore_ascii_case(b"RESET") {
            return Value::Int(latency.reset() as i64);
        }
        Value::err("unknown LATENCY subcommand; try HISTORY <event>|LATEST|RESET")
    }

    /// `DEBUG FAULT <spec>` arms a deterministic fault plan on the device
    /// (`pc@N`, `torn@N:B`, `fail@N[xK]`); `DEBUG FAULT OFF` disarms it;
    /// `DEBUG FAULT` reports the armed plan and the write-command count.
    fn debug_cmd(&mut self, args: &[Vec<u8>]) -> Value {
        // `DEBUG DIGEST` answers a CRC-32 over the sorted keyspace, the
        // primary/replica convergence check used by tests and CI. On a
        // sharded server the keyspace is gathered from every shard and
        // merged, so the digest is identical to a single-shard server
        // holding the same keys.
        if args.len() == 2 && args[1].eq_ignore_ascii_case(b"DIGEST") {
            if self.txs.len() == 1 {
                return Value::Bulk(format!("{:08x}", self.db.digest()).into_bytes());
            }
            return match self.gather_entries() {
                Some(entries) => {
                    Value::Bulk(format!("{:08x}", engine::digest_of_sorted(&entries)).into_bytes())
                }
                None => Value::err("DIGEST unavailable: shard gather failed"),
            };
        }
        if args.len() < 2 || !args[1].eq_ignore_ascii_case(b"FAULT") {
            return Value::err(
                "unknown DEBUG subcommand; try DEBUG FAULT <spec>|OFF or DEBUG DIGEST",
            );
        }
        let device = self.db.backend().device();
        match args.len() {
            2 => {
                let dev = device.lock().unwrap();
                let plan = dev
                    .fault_plan()
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "off".to_string());
                Value::Bulk(
                    format!("plan:{plan} writes_seen:{}", dev.write_commands()).into_bytes(),
                )
            }
            3 => {
                if args[2].eq_ignore_ascii_case(b"OFF") {
                    device.lock().unwrap().disarm_fault();
                    return Value::ok();
                }
                match String::from_utf8_lossy(&args[2]).parse::<slimio_nvme::FaultPlan>() {
                    Ok(plan) => {
                        device.lock().unwrap().arm_fault(plan);
                        Value::ok()
                    }
                    Err(e) => Value::err(format!("bad fault spec: {e}")),
                }
            }
            _ => Value::err("wrong number of arguments for 'debug fault'"),
        }
    }

    /// Post-write bookkeeping: start a WAL-threshold snapshot if the log
    /// has grown past the configured bound.
    fn after_write(&mut self) {
        if self.db.snapshot_active() {
            return;
        }
        let now = self.now();
        if let Ok(true) = self.db.maybe_wal_snapshot(now) {
            self.snap_started = Some(Instant::now());
        }
    }

    /// Drains the engine's WAL tap into the replication backlog as one
    /// `(shard, gseq)`-tagged frame, fanned out to the attached
    /// replicas' feeds. Everything in the tap has been flushed (and,
    /// under `Always`, synced) — only durable records ever ship. The
    /// gseq is stamped under the repl lock, so backlog byte order *is*
    /// global batch order and the replica's in-order apply linearizes
    /// cross-shard effects.
    fn pump_repl(&mut self) {
        let (shard, repl, gov) = (self.shard, &self.repl, &self.shared.gov);
        let gseq = self.db.drain_wal_tap(|bytes| {
            (!bytes.is_empty()).then(|| repl.publish_frame(shard as u16, bytes, gov))
        });
        if let Some(gseq) = gseq {
            self.shared.shard_stats[shard]
                .last_gseq
                .store(gseq, Ordering::Relaxed);
        }
    }

    /// Publishes this shard's observability slot: read by shard 0 to
    /// answer `INFO`/`DBSIZE` and by the OOM gate on every shard, so no
    /// writer ever touches another writer's engine.
    fn update_stats(&self, batch_len: u32) {
        let st = &self.shared.shard_stats[self.shard];
        st.keys.store(self.db.len() as u64, Ordering::Relaxed);
        st.mem_used.store(self.db.mem_used(), Ordering::Relaxed);
        st.mem_governed
            .store(self.db.mem_governed(), Ordering::Relaxed);
        st.wal_len
            .store(self.db.backend().wal_len(), Ordering::Relaxed);
        let stats = self.db.stats();
        st.wal_snapshots
            .store(stats.wal_snapshots, Ordering::Relaxed);
        st.od_snapshots.store(stats.od_snapshots, Ordering::Relaxed);
        st.snapshot_active
            .store(self.db.snapshot_active(), Ordering::Relaxed);
        lock_ok(&st.batch_hist).record(batch_len as u64);
    }

    /// Cross-shard governed bytes: own engine live, other shards from
    /// their last published slot (at most one batch stale — the gate is
    /// a soft limit either way).
    fn total_mem_governed(&self) -> u64 {
        let mut total = self.db.mem_governed();
        for (i, st) in self.shared.shard_stats.iter().enumerate() {
            if i != self.shard {
                total += st.mem_governed.load(Ordering::Relaxed);
            }
        }
        total
    }

    /// Cross-shard key count, own shard live (exact at `--shards 1`).
    fn total_keys(&self) -> u64 {
        let mut total = self.db.len() as u64;
        for (i, st) in self.shared.shard_stats.iter().enumerate() {
            if i != self.shard {
                total += st.keys.load(Ordering::Relaxed);
            }
        }
        total
    }

    /// Gathers a point-in-time copy of the full keyspace: own shard's
    /// entries plus every other shard's, merged and sorted. Only shard 0
    /// calls this (for `DEBUG DIGEST` and full-sync snapshots); other
    /// shards answer between batches, after their own commit + backlog
    /// pump. Returns `None` on kill, shutdown teardown, or a wedged
    /// shard (~5s cap).
    fn gather_entries(&mut self) -> Option<Vec<Entry>> {
        let mut entries = self.db.sorted_entries();
        if self.txs.len() == 1 {
            return Some(entries);
        }
        let mut pending = Vec::with_capacity(self.txs.len() - 1);
        for (i, tx) in self.txs.iter().enumerate() {
            if i == self.shard {
                continue;
            }
            let (etx, erx) = mpsc::channel();
            if tx.send(Request::Entries { reply: etx }).is_err() {
                return None;
            }
            pending.push(erx);
        }
        for erx in pending {
            let mut waited = Duration::ZERO;
            loop {
                match erx.recv_timeout(Duration::from_millis(100)) {
                    Ok(mut e) => {
                        entries.append(&mut e);
                        break;
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if self.shared.kill.load(Ordering::SeqCst) {
                            return None;
                        }
                        waited += Duration::from_millis(100);
                        if waited >= Duration::from_secs(5) {
                            return None;
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => return None,
                }
            }
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Some(entries)
    }

    /// `BGSAVE`/`BGREWRITEAOF`: starts a snapshot on this shard, then
    /// broadcasts the start to every other shard. Reports the classic
    /// already-in-progress error if any shard refuses (shards that did
    /// start still run their snapshots to completion).
    fn bg_cmd(&mut self, kind: SnapshotKind, started: &str) -> Value {
        if self.begin_snapshot(kind).is_err() {
            return Value::err("Background save already in progress");
        }
        let mut ok = true;
        for (i, tx) in self.txs.iter().enumerate() {
            if i == self.shard {
                continue;
            }
            let (btx, brx) = mpsc::channel();
            if tx.send(Request::Bg { kind, reply: btx }).is_err() {
                ok = false;
                continue;
            }
            match brx.recv_timeout(Duration::from_secs(1)) {
                Ok(b) => ok &= b,
                Err(_) => ok = false,
            }
        }
        if ok {
            Value::Simple(started.to_string())
        } else {
            Value::err("Background save already in progress")
        }
    }

    /// Answers keyspace gathers parked by this batch. Runs after the
    /// commit + backlog pump + view publish, so the handed-back entries
    /// reflect exactly the frames this shard has published.
    fn answer_gathers(&mut self) {
        if self.pending_gathers.is_empty() {
            return;
        }
        for reply in std::mem::take(&mut self.pending_gathers) {
            let _ = reply.send(self.db.sorted_entries());
        }
    }

    /// `REPLICAOF NO ONE` promotes; `REPLICAOF host port` (re-)attaches
    /// this node to a primary and spawns a fresh link thread under a new
    /// epoch, severing any previous link.
    fn replicaof_cmd(&mut self, args: &[Vec<u8>]) -> Value {
        if args.len() != 3 {
            return Value::err("wrong number of arguments for 'replicaof' command");
        }
        if args[1].eq_ignore_ascii_case(b"no") && args[2].eq_ignore_ascii_case(b"one") {
            self.repl.promote();
            return Value::ok();
        }
        let host = String::from_utf8_lossy(&args[1]).to_string();
        let Ok(port) = String::from_utf8_lossy(&args[2]).parse::<u16>() else {
            return Value::err("Invalid master port");
        };
        let epoch = self.repl.set_primary(format!("{host}:{port}"));
        repl::spawn_link(LinkCtx {
            txs: self.txs.clone(),
            repl: Arc::clone(&self.repl),
            shared: Arc::clone(&self.shared),
            my_port: self.port,
            epoch,
        });
        Value::ok()
    }

    /// Full-sync landing on a replica: replace this shard's slice of
    /// the keyspace with its split of the shipped snapshot (the link
    /// thread already parsed and re-sharded it by this node's own
    /// `shard_of`) *through the queued-write path*, so the reset is
    /// logged in this shard's own WAL and committed/published like any
    /// other batch. The link advances the acked upstream offset only
    /// after every shard acks its slice.
    fn apply_full_reset(&mut self, entries: &[(Vec<u8>, Vec<u8>)], epoch: u64) -> (Value, bool) {
        if !self.repl.link_current(epoch) {
            return (Value::err("stale replication link"), false);
        }
        for key in self.db.keys() {
            let _ = self.db.del_queued(&key);
        }
        for (k, v) in entries {
            self.db.set_queued(k, v);
        }
        (Value::ok(), true)
    }

    /// Applies this shard's slice of decoded upstream stream records.
    /// SET/DEL by key are idempotent, so a partial-resync overlap
    /// re-applying a record is harmless.
    fn apply_repl_records(&mut self, records: Vec<WalRecord>, epoch: u64) -> (Value, bool) {
        if !self.repl.link_current(epoch) {
            return (Value::err("stale replication link"), false);
        }
        let mut wrote = false;
        for rec in records {
            match rec {
                WalRecord::Set { key, value, .. } => {
                    self.db.set_queued(&key, &value);
                    wrote = true;
                }
                WalRecord::Del { key, .. } => {
                    let (_, removed) = self.db.del_queued(&key);
                    wrote |= removed;
                }
            }
        }
        (Value::ok(), wrote)
    }

    /// Serves PSYNC handoffs parked by this batch (shard 0 only). Runs
    /// after the commit, so flushing any straggling buffered WAL bytes
    /// (a no-op under `Always`) and pumping the tap makes the backlog
    /// end cover this shard's every published frame.
    ///
    /// On a sharded primary the full-sync snapshot spans every shard,
    /// and other shards keep committing while it is gathered — so the
    /// peer is registered (with its attach offset = backlog end) BEFORE
    /// the gather, under the same repl lock that read the offset.
    /// Frames published during the gather queue in the feed behind the
    /// preamble; the snapshot may already contain some of their
    /// effects, and the replica re-applies them harmlessly because
    /// SET/DEL by key are idempotent and applied in gseq order.
    fn handle_pending_syncs(&mut self) {
        if self.pending_syncs.is_empty() {
            return;
        }
        if self.db.wal_buffered_bytes() > 0 {
            let now = self.now();
            let _ = self.db.flush_wal(now);
        }
        self.pump_repl();
        for (args, stream, addr) in std::mem::take(&mut self.pending_syncs) {
            let (feed_tx, feed_rx) = mpsc::channel();
            let mut inner = self.repl.lock();
            // Partial resync only when the replica followed *this*
            // stream and every byte it is missing is still retained.
            let partial = repl::parse_psync(&args)
                .filter(|(id, _)| *id == inner.replid)
                .and_then(|(_, off)| inner.backlog.tail_from(off).map(|tail| (off, tail)));
            // `acked` stays at the attach offset (0 for a full sync)
            // until the replica reports applied progress (the WAIT
            // contract); `base` carries the attach offset so feed-lag
            // eviction doesn't judge a fresh replica on stream bytes
            // that predate it.
            let (init_acked, base, full_offset) = match &partial {
                Some((off, _)) => (*off, *off, None),
                None => {
                    let offset = inner.backlog.end();
                    (0, offset, Some(offset))
                }
            };
            let acked = Arc::new(AtomicU64::new(init_acked));
            let alive = Arc::new(AtomicBool::new(true));
            let replid = inner.replid.clone();
            inner.peers.push(ReplicaPeer {
                addr,
                acked: Arc::clone(&acked),
                base,
                alive: Arc::clone(&alive),
                feed: feed_tx,
            });
            drop(inner);
            let mut preamble = Vec::new();
            match (partial, full_offset) {
                (Some((_, tail)), _) => {
                    preamble.extend_from_slice(b"+CONTINUE\r\n");
                    preamble.extend_from_slice(&tail);
                }
                (None, Some(offset)) => {
                    let snapshot = if self.txs.len() == 1 {
                        Some(self.db.serialize_keyspace(self.snapshot_chunk))
                    } else {
                        self.gather_entries().map(|entries| {
                            engine::serialize_entries(
                                entries.iter().map(|(k, v)| (k, v)),
                                self.snapshot_chunk,
                            )
                        })
                    };
                    let Some(snapshot) = snapshot else {
                        // Gather failed (kill/teardown mid-gather): the
                        // replica is dropped; it will retry its sync.
                        alive.store(false, Ordering::SeqCst);
                        continue;
                    };
                    preamble
                        .extend_from_slice(format!("+FULLRESYNC {replid} {offset}\r\n").as_bytes());
                    resp::encode_bulk(&snapshot, &mut preamble);
                }
                (None, None) => unreachable!(),
            }
            repl::spawn_feed(
                stream,
                preamble,
                feed_rx,
                acked,
                alive,
                Arc::clone(&self.shared),
            );
        }
    }

    fn config_cmd(&self, args: &[Vec<u8>]) -> Value {
        if args.len() != 3 || !args[1].eq_ignore_ascii_case(b"GET") {
            return Value::err("wrong number of arguments for 'config' command");
        }
        let pattern = String::from_utf8_lossy(&args[2]).to_ascii_lowercase();
        let appendfsync = match self.db.config().policy {
            LogPolicy::Always => "always",
            LogPolicy::Periodical { .. } => "everysec",
        };
        let threshold = self.db.config().wal_snapshot_threshold.to_string();
        let maxmemory = self.shared.gov.opts().maxmemory.to_string();
        let entries: [(&str, &str); 6] = [
            ("appendfsync", appendfsync),
            ("save", ""),
            ("maxmemory", &maxmemory),
            ("backend", self.backend_name),
            ("fdp", if self.fdp { "yes" } else { "no" }),
            ("wal-snapshot-threshold", &threshold),
        ];
        let mut out = Vec::new();
        for (k, v) in entries {
            if pattern == "*" || pattern == k {
                out.push(Value::bulk(k.as_bytes()));
                out.push(Value::bulk(v.as_bytes()));
            }
        }
        Value::Array(out)
    }

    fn info_text(&self) -> String {
        let shards = self.txs.len();
        let stats = self.db.stats();
        // Totals: own shard's live values plus every other shard's last
        // published slot (exact at `--shards 1`).
        let mut keys = self.db.len() as u64;
        let mut mem_used = self.db.mem_used();
        let mut wal_len = self.db.backend().wal_len();
        let mut wal_snapshots = stats.wal_snapshots;
        let mut od_snapshots = stats.od_snapshots;
        let mut snapshot_active = self.db.snapshot_active();
        for (i, st) in self.shared.shard_stats.iter().enumerate() {
            if i == self.shard {
                continue;
            }
            keys += st.keys.load(Ordering::Relaxed);
            mem_used += st.mem_used.load(Ordering::Relaxed);
            wal_len += st.wal_len.load(Ordering::Relaxed);
            wal_snapshots += st.wal_snapshots.load(Ordering::Relaxed);
            od_snapshots += st.od_snapshots.load(Ordering::Relaxed);
            snapshot_active |= st.snapshot_active.load(Ordering::Relaxed);
        }
        let uptime = self.shared.start.elapsed();
        let ops = self.shared.ops.load(Ordering::Relaxed);
        let rps = ops as f64 / uptime.as_secs_f64().max(1e-9);
        let (p50, p99, p999) = {
            let h = self.shared.hists.snapshot();
            (h.p50(), h.p99(), h.p999())
        };
        let device = self.db.backend().device();
        let (waf, capacity) = {
            let d = device.lock().unwrap();
            (d.waf(), d.capacity_bytes())
        };
        let mut s = String::new();
        s.push_str("# Server\r\n");
        s.push_str(&format!("backend:{}\r\n", self.backend_name));
        s.push_str(&format!("fdp:{}\r\n", if self.fdp { 1 } else { 0 }));
        s.push_str(&format!("uptime_in_seconds:{}\r\n", uptime.as_secs()));
        s.push_str("\r\n# Clients\r\n");
        s.push_str(&format!(
            "connected_clients:{}\r\n",
            self.shared.connections.load(Ordering::SeqCst)
        ));
        s.push_str("\r\n# Stats\r\n");
        s.push_str(&format!(
            "total_connections_received:{}\r\n",
            self.shared.total_connections.load(Ordering::SeqCst)
        ));
        s.push_str(&format!("total_commands_processed:{ops}\r\n"));
        s.push_str(&format!(
            "total_net_input_bytes:{}\r\n",
            self.shared.net_in.load(Ordering::Relaxed)
        ));
        s.push_str(&format!(
            "total_net_output_bytes:{}\r\n",
            self.shared.net_out.load(Ordering::Relaxed)
        ));
        s.push_str(&format!("avg_ops_per_sec:{rps:.1}\r\n"));
        s.push_str(&format!("latency_p50_us:{:.1}\r\n", p50 as f64 / 1000.0));
        s.push_str(&format!("latency_p99_us:{:.1}\r\n", p99 as f64 / 1000.0));
        s.push_str(&format!("latency_p999_us:{:.1}\r\n", p999 as f64 / 1000.0));
        s.push_str("\r\n# Persistence\r\n");
        s.push_str(&format!("keys:{keys}\r\n"));
        s.push_str(&format!("mem_used_bytes:{mem_used}\r\n"));
        s.push_str(&format!("wal_len:{wal_len}\r\n"));
        s.push_str(&format!("wal_snapshots:{wal_snapshots}\r\n"));
        s.push_str(&format!("od_snapshots:{od_snapshots}\r\n"));
        s.push_str(&format!(
            "snapshot_in_progress:{}\r\n",
            if snapshot_active { 1 } else { 0 }
        ));
        s.push_str(&format!(
            "last_snapshot_ms:{}\r\n",
            self.last_snapshot_ms
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".to_string())
        ));
        s.push_str(&format!("recovered_keys:{}\r\n", self.recovered_keys));
        s.push_str(&format!(
            "wal_records_replayed:{}\r\n",
            self.wal_records_replayed
        ));
        s.push_str("\r\n# Resources\r\n");
        self.shared.gov.info_lines(&mut s);
        s.push_str("\r\n# Shards\r\n");
        s.push_str(&format!("shards:{shards}\r\n"));
        for i in 0..shards {
            let (cap, hwm, busy) = self.shared.gov.shard_gate_stats(i);
            let depth = self.shared.gov.shard_depth(i);
            let st = &self.shared.shard_stats[i];
            let (skeys, swal, sgseq) = if i == self.shard {
                (
                    self.db.len() as u64,
                    self.db.backend().wal_len(),
                    st.last_gseq.load(Ordering::Relaxed),
                )
            } else {
                (
                    st.keys.load(Ordering::Relaxed),
                    st.wal_len.load(Ordering::Relaxed),
                    st.last_gseq.load(Ordering::Relaxed),
                )
            };
            let batch_p50 = lock_ok(&st.batch_hist).p50();
            s.push_str(&format!(
                "shard{i}:queue_depth={depth},queue_cap={cap},queue_hwm={hwm},\
                 busy_refused={busy},batch_p50={batch_p50},wal_len={swal},\
                 keys={skeys},last_gseq={sgseq}\r\n"
            ));
        }
        s.push_str("\r\n# Replication\r\n");
        self.repl.info_lines(&mut s);
        s.push_str("\r\n# Telemetry\r\n");
        s.push_str(&format!(
            "metrics_port:{}\r\n",
            self.tel.metrics_port.load(Ordering::SeqCst)
        ));
        s.push_str(&format!("slowlog_len:{}\r\n", self.tel.slowlog.len()));
        s.push_str(&format!(
            "slowlog_threshold_us:{}\r\n",
            self.tel.slowlog.threshold_us()
        ));
        s.push_str(&format!(
            "latency_events:{}\r\n",
            self.tel.latency.event_count()
        ));
        let last = self
            .tel
            .latency
            .last_event()
            .map(|(name, _)| name)
            .unwrap_or("-");
        s.push_str(&format!("latency_last_event:{last}\r\n"));
        s.push_str("\r\n# Device\r\n");
        s.push_str(&format!("waf:{waf:.2}\r\n"));
        s.push_str(&format!("device_capacity_bytes:{capacity}\r\n"));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::shard_of;

    /// 32 bench-format keys, 16 short names and 16 binary keys (the empty
    /// key included).
    fn pinned_keys() -> Vec<Vec<u8>> {
        let mut keys = Vec::new();
        for i in 0..32u64 {
            keys.push(format!("key:{:012}", i * 1031).into_bytes());
        }
        for i in 0..16u64 {
            keys.push(format!("user{i}").into_bytes());
        }
        for i in 0..16u8 {
            keys.push(vec![i.wrapping_mul(37); i as usize]);
        }
        keys
    }

    /// Shard routing is on-device state: a sharded store keeps each key's
    /// WAL on the shard this function picks, and recovery and replicas
    /// re-derive it. These are the shards of the keys above, one hex digit
    /// per key, as the store has always routed them; they must never
    /// change.
    #[test]
    fn routing_is_pinned() {
        const WANT: [&str; 4] = [
            "0001100101010010010110101010101001101111100001010001010100110101", // 2 shards
            "0111211221000211221111100121102021212020220210200201222002220010", // 3
            "0221122321212032230110121032323021123111102221030021030302310321", // 4
            "ca6d5aa32161247e6705d4d290beb638219a359558e2a5cb0cadcf83ca71cba5", // 16
        ];
        let keys = pinned_keys();
        for (n, want) in [2, 3, 4, 16].into_iter().zip(WANT) {
            let got: String = keys
                .iter()
                .map(|k| format!("{:x}", shard_of(k, n)))
                .collect();
            assert_eq!(got, want, "{n} shards");
        }
        assert!(keys.iter().all(|k| shard_of(k, 1) == 0));
    }
}
