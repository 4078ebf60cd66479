//! The live workload, `set-always`: an in-process server
//! (`Server::start` on an ephemeral port, as `live_rps` runs it) under
//! closed-loop load from two client connections, then on-demand snapshots
//! under load and kill/restart cycles on the same `Store`.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use slimio_des::Xoshiro256;
use slimio_imdb::LogPolicy;
use slimio_metrics::Histogram;
use slimio_nvme::{DeviceTelemetry, NvmeDevice};
use slimio_server::bench::read_value;
use slimio_server::resp::{self, Parser, Value};
use slimio_server::{BackendKind, Server, ServerHandle, ServerOpts, Store, StoreConfig};
use slimio_workload::{RedisBench, Scale, WorkloadGen};

use crate::scrape::{self, Control, HistDelta, Scrape};
use crate::stats::median;

/// Load connections, each on its own client thread.
const CONNS: usize = 2;
/// Requests each load connection keeps in flight.
const PIPELINE: usize = 16;
/// Bytes of every SET value.
pub const VALUE_LEN: usize = 4096;
/// Bytes of key id at the head of every value.
const PREFIX: usize = 16;
/// Independent set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Kill/restart cycles per run; `recovery_s` is their median.
const RECOVERIES: usize = 5;
/// On-demand snapshots under load per run, started at even intervals over
/// a window as long as the measured phase; `snapshot_s` is their median.
const SNAPSHOTS: usize = 9;
/// GETs of the read-back sweep that checks stored values.
const SWEEP_GETS: u64 = 4096;
/// Windows of a traced measured phase; the probe runs in every other one.
const TRACE_WINDOWS: u32 = 10;
/// How often the measured phase polls `INFO` for WAL-snapshot completions.
const POLL: Duration = Duration::from_millis(20);

/// The sizes of the `set-always` run: redis-benchmark SETs of
/// [`VALUE_LEN`] bytes under appendfsync always.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Preloaded records, the generator's whole key space.
    pub records: u64,
    /// WAL bytes that trigger a WAL snapshot.
    pub wal_threshold: u64,
    /// SETs written after the last WAL snapshot and before each kill, so
    /// every recovery replays the same WAL tail.
    pub tail_sets: u64,
    /// Device scale relative to the paper's 180 GiB FEMU geometry.
    pub device_ratio: f64,
}

impl Shape {
    /// The benchmark's sizes, or small ones for smoke tests.
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Shape {
                records: 512,
                wal_threshold: 1 << 20,
                tail_sets: 256,
                device_ratio: 1.0 / 256.0,
            }
        } else {
            Shape {
                records: 16_384,
                wal_threshold: 256 << 20,
                tail_sets: 8192,
                device_ratio: 1.0 / 64.0,
            }
        }
    }

    /// The op stream of connection `conn`, drawn from `slimio-workload`.
    pub fn generator(&self, seed: u64, conn: u64) -> RedisBench {
        let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(conn);
        let r = self.records as f64 / RedisBench::FULL_KEY_RANGE as f64;
        RedisBench::new(Scale::ratio(r), seed)
    }

    fn store(&self) -> Store {
        Store::new(StoreConfig {
            kind: BackendKind::Passthru,
            fdp: true,
            ratio: self.device_ratio,
            shards: 1,
        })
    }

    fn opts(&self) -> ServerOpts {
        ServerOpts {
            policy: LogPolicy::Always,
            wal_snapshot_threshold: self.wal_threshold,
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServerOpts::default()
        }
    }
}

/// `key:<id, 12 digits>` — the key of record `id`.
pub fn key_of(id: u64) -> [u8; 16] {
    let mut k = *b"key:000000000000";
    write_digits(&mut k[4..], id);
    k
}

fn write_digits(out: &mut [u8], mut v: u64) {
    for b in out.iter_mut().rev() {
        *b = b'0' + (v % 10) as u8;
        v /= 10;
    }
}

/// A value padded with `x`, as redis-benchmark pads; [`stamp`] writes the
/// key id into its first [`PREFIX`] bytes.
pub fn value_template() -> Vec<u8> {
    vec![b'x'; VALUE_LEN]
}

/// Writes record `id`'s key id into a value's prefix.
pub fn stamp(value: &mut [u8], id: u64) {
    write_digits(&mut value[..PREFIX], id);
}

/// Whether a GET reply holds a value written for record `id`.
pub fn value_ok(v: &[u8], id: u64) -> bool {
    let mut want = [0u8; PREFIX];
    write_digits(&mut want, id);
    v.len() == VALUE_LEN && v[..PREFIX] == want
}

/// Outcome counters of one stream of requests.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    /// Error replies, wrong or missing values, and requests lost to a
    /// dropped connection.
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        if self.first_failure.is_none() {
            self.first_failure = o.first_failure;
        }
    }
}

const WARM: u8 = 0;
const MEASURE: u8 = 1;
const POST: u8 = 2;
const STOP: u8 = 3;

/// Phase switch and progress shared with the load threads.
struct Ctl {
    phase: AtomicU8,
    measured: AtomicU64,
}

/// What one load connection measured.
#[derive(Default)]
struct ClientOut {
    /// Latencies of the measured phase.
    hist: Histogram,
    set_bytes: u64,
    tally: Tally,
}

/// Checks one reply against the request it answers.
fn check_reply(reply: &Value, get: Option<u64>, tally: &mut Tally) {
    match (get, reply) {
        (None, Value::Simple(s)) if s == "OK" => {}
        (Some(id), Value::Bulk(v)) if value_ok(v, id) => {}
        (Some(id), Value::Null) => tally.fail(1, || format!("GET of preloaded key {id} was nil")),
        (Some(id), Value::Bulk(v)) => tally.fail(1, || {
            format!("GET of key {id} returned a wrong value ({} bytes)", v.len())
        }),
        (_, other) => tally.fail(1, || format!("unexpected reply {other:?}")),
    }
}

/// One closed-loop connection: bursts of [`PIPELINE`] SETs, each burst
/// sent only after the previous one's replies arrived.
fn client(port: u16, mut gen: RedisBench, ctl: &Ctl) -> ClientOut {
    let mut out = ClientOut::default();
    let mut stream = match TcpStream::connect(("127.0.0.1", port)) {
        Ok(s) => s,
        Err(e) => {
            out.tally.fail(1, || format!("connect: {e}"));
            return out;
        }
    };
    let _ = stream.set_nodelay(true);
    let mut parser = Parser::new();
    let mut rbuf = vec![0u8; 64 << 10];
    let mut cmd = Vec::with_capacity(PIPELINE * (VALUE_LEN + 64));
    let mut value = value_template();
    loop {
        let phase = ctl.phase.load(Ordering::Acquire);
        if phase == STOP {
            break;
        }
        cmd.clear();
        let mut set_bytes = 0u64;
        for _ in 0..PIPELINE {
            let op = gen.next_op();
            let key = key_of(op.key);
            stamp(&mut value, op.key);
            resp::encode_command_slices(&[b"SET", &key, &value], &mut cmd);
            set_bytes += (key.len() + value.len()) as u64;
        }
        out.tally.attempted += PIPELINE as u64;
        let t0 = Instant::now();
        if let Err(e) = stream.write_all(&cmd) {
            out.tally.fail(PIPELINE as u64, || format!("send: {e}"));
            break;
        }
        for i in 0..PIPELINE {
            let reply = match read_value(&mut stream, &mut parser, &mut rbuf) {
                Ok(v) => v,
                Err(e) => {
                    out.tally
                        .fail((PIPELINE - i) as u64, || format!("connection dropped: {e}"));
                    return out;
                }
            };
            let lat = t0.elapsed().as_nanos() as u64;
            check_reply(&reply, None, &mut out.tally);
            if phase == MEASURE {
                out.hist.record(lat);
            }
        }
        if phase == MEASURE {
            out.set_bytes += set_bytes;
            ctl.measured.fetch_add(PIPELINE as u64, Ordering::Relaxed);
        }
    }
    out
}

/// Closed-loop pipelined requests over one fresh connection, outside the
/// load phases (preload, read-back sweep, recovery tail).
fn batch_requests(port: u16, ops: impl Iterator<Item = (bool, u64)>) -> Tally {
    let mut tally = Tally::default();
    let mut stream = match TcpStream::connect(("127.0.0.1", port)) {
        Ok(s) => s,
        Err(e) => {
            tally.fail(1, || format!("connect: {e}"));
            return tally;
        }
    };
    let _ = stream.set_nodelay(true);
    let mut parser = Parser::new();
    let mut rbuf = vec![0u8; 64 << 10];
    let mut value = value_template();
    let mut cmd = Vec::new();
    let ops: Vec<(bool, u64)> = ops.collect();
    for burst in ops.chunks(PIPELINE * 4) {
        cmd.clear();
        for &(get, id) in burst {
            let key = key_of(id);
            if get {
                resp::encode_command_slices(&[b"GET", &key], &mut cmd);
            } else {
                stamp(&mut value, id);
                resp::encode_command_slices(&[b"SET", &key, &value], &mut cmd);
            }
        }
        tally.attempted += burst.len() as u64;
        if let Err(e) = stream.write_all(&cmd) {
            tally.fail(burst.len() as u64, || format!("send: {e}"));
            return tally;
        }
        for (i, &(get, id)) in burst.iter().enumerate() {
            match read_value(&mut stream, &mut parser, &mut rbuf) {
                Ok(reply) => check_reply(&reply, get.then_some(id), &mut tally),
                Err(e) => {
                    tally.fail((burst.len() - i) as u64, || {
                        format!("connection dropped: {e}")
                    });
                    return tally;
                }
            }
        }
    }
    tally
}

/// Writes every record once, striped over the shape's connections.
fn preload(port: u16, records: u64) -> Tally {
    let mut tally = Tally::default();
    thread::scope(|s| {
        let hs: Vec<_> = (0..CONNS as u64)
            .map(|c| {
                s.spawn(move || {
                    batch_requests(port, (c..records).step_by(CONNS).map(|id| (false, id)))
                })
            })
            .collect();
        for h in hs {
            tally.merge(h.join().expect("preload thread"));
        }
    });
    tally
}

/// Samples how long a `lock()` on the shared device waits, plus the
/// free reclaim-unit count, until stopped.
struct LockProbe {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<(Histogram, u64)>,
}

impl LockProbe {
    fn start(device: Arc<Mutex<NvmeDevice>>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut hist = Histogram::new();
            let mut free_min = u64::MAX;
            let mut n = 0u64;
            while !flag.load(Ordering::Relaxed) {
                thread::sleep(Duration::from_micros(500));
                let t = Instant::now();
                let dev = device.lock().expect("device lock poisoned");
                hist.record(t.elapsed().as_nanos() as u64);
                if n.is_multiple_of(64) {
                    free_min = free_min.min(dev.telemetry().free_rus);
                }
                drop(dev);
                n += 1;
            }
            (hist, free_min)
        });
        LockProbe { stop, handle }
    }

    fn finish(self) -> (Histogram, u64) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("lock probe thread")
    }
}

/// The traced run's server, device and overhead figures.
#[derive(Default)]
pub struct LiveLayers {
    pub stages: Vec<(&'static str, HistDelta)>,
    pub batch_cmds_mean: f64,
    pub writer_busy_frac: f64,
    pub read: HistDelta,
    pub queue_hwm: f64,
    pub busy_refused: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub dev0: DeviceTelemetry,
    pub dev1: DeviceTelemetry,
    pub free_rus_min: u64,
    pub lock_wait_us_mean: f64,
    pub lock_wait_us_p99: f64,
    pub ops_per_s_untraced: f64,
    pub ops_per_s_traced: f64,
}

/// Everything one live run measured.
pub struct LiveOut {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub waf: f64,
    pub host_bytes_per_user_byte: f64,
    pub mem_peak_mb: f64,
    pub snapshot_s: f64,
    pub recovery_s: f64,
    pub tally: Tally,
    pub layers: Option<LiveLayers>,
}

const STAGES: [&str; 6] = [
    "admission",
    "queue",
    "execute",
    "wal_append",
    "device_sync",
    "reply",
];

fn telemetry(device: &Arc<Mutex<NvmeDevice>>) -> DeviceTelemetry {
    device.lock().expect("device lock poisoned").telemetry()
}

fn wait_until(
    what: &str,
    limit: Duration,
    mut done: impl FnMut() -> Result<bool, String>,
) -> Result<(), String> {
    let t = Instant::now();
    while !done()? {
        if t.elapsed() > limit {
            return Err(format!("timed out waiting for {what}"));
        }
        thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

/// Starts a snapshot (`BGSAVE` or `BGREWRITEAOF`) once no other one
/// runs, and returns its wall time until the matching INFO counter
/// moves.
fn snapshot(c: &mut Control, cmd: &[u8], counter: &str) -> Result<Duration, String> {
    let limit = Duration::from_secs(60);
    let mut before = 0;
    wait_until("the running snapshot", limit, || {
        let info = c.info()?;
        before = scrape::info_u64(&info, counter)?;
        Ok(info.get("snapshot_in_progress").map(String::as_str) == Some("0"))
    })?;
    let first = Instant::now();
    let started = loop {
        let sent = Instant::now();
        match c.command(&[cmd])? {
            Value::Simple(_) => break sent,
            Value::Error(e) if e.contains("in progress") && first.elapsed() < limit => {
                thread::sleep(Duration::from_millis(5));
            }
            other => {
                return Err(format!(
                    "{} answered {other:?}",
                    String::from_utf8_lossy(cmd)
                ))
            }
        }
    };
    wait_until(counter, limit, || Ok(c.info_u64(counter)? > before))?;
    Ok(started.elapsed())
}

fn dataset_id(c: &mut Control) -> Result<(Value, Value), String> {
    Ok((c.command(&[b"DBSIZE"])?, c.command(&[b"DEBUG", b"DIGEST"])?))
}

/// Scrapes and device telemetry bracketing the measured phase.
struct Measured {
    /// WAL-snapshot cycles the measured phase spans.
    cycles: u64,
    m0: Scrape,
    m1: Scrape,
    d0: DeviceTelemetry,
    d1: DeviceTelemetry,
    wall: f64,
    layers: Option<LiveLayers>,
}

/// Runs `set-always` end to end. With `traced`, the device lock probe
/// runs in every other tenth of the measured phase and the run returns
/// the per-layer figures.
pub fn run(shape: Shape, seed: u64, seconds: f64, traced: bool) -> Result<LiveOut, String> {
    let records = shape.generator(seed, 0).key_space();
    let mut tally = Tally::default();

    let mut setups = Vec::new();
    let mut server: Option<(ServerHandle, Arc<Mutex<NvmeDevice>>)> = None;
    for _ in 0..SETUPS {
        if let Some((h, _)) = server.take() {
            drop(h.shutdown());
        }
        let t = Instant::now();
        let store = shape.store();
        let device = Arc::clone(store.device());
        let h = Server::start(store, shape.opts()).map_err(|e| format!("server start: {e}"))?;
        let t_pre = preload(h.port(), records);
        setups.push(t.elapsed().as_secs_f64());
        tally.merge(t_pre);
        server = Some((h, device));
    }
    let (mut handle, device) = server.expect("at least one set-up");
    let port = handle.port();
    let maddr = handle.metrics_addr().ok_or("metrics listener missing")?;
    let mut control = Control::connect(port)?;

    let ctl = Ctl {
        phase: AtomicU8::new(WARM),
        measured: AtomicU64::new(0),
    };
    let mut outs: Vec<ClientOut> = Vec::new();
    let mut snapshots = Vec::new();
    let mut phase_result: Result<Measured, String> = Err("load never ran".into());
    thread::scope(|s| {
        let hs: Vec<_> = (0..CONNS)
            .map(|c| {
                let gen = shape.generator(seed, c as u64);
                let ctl = &ctl;
                s.spawn(move || client(port, gen, ctl))
            })
            .collect();
        phase_result = (|| {
            // Warm-up: WAL-snapshot cycles are periodic after the first one.
            let mut done = 0;
            wait_until("warm-up", Duration::from_secs(120), || {
                let info = control.info()?;
                done = scrape::info_u64(&info, "wal_snapshots")?;
                Ok(done >= 1 && info.get("snapshot_in_progress").map(String::as_str) == Some("0"))
            })?;
            let first = done;
            let m0 = Scrape::fetch(maddr)?;
            let d0 = telemetry(&device);
            let t = Instant::now();
            ctl.phase.store(MEASURE, Ordering::Release);
            // The phase began as a WAL snapshot completed and ends as the
            // first one after `seconds` completes, so it spans whole
            // WAL-snapshot cycles: every run sees whole cycles. A traced
            // run turns the lock probe on in every other tenth of `seconds`,
            // so both sets of trace windows see the same cycle phases.
            let trace_window = seconds / TRACE_WINDOWS as f64;
            let mut probe: Option<LockProbe> = None;
            let (mut lock, mut free_min) = (Histogram::new(), u64::MAX);
            let (mut ops, mut time) = ([0u64; 2], [Duration::ZERO; 2]);
            let (mut t_w, mut ops_w) = (t, 0u64);
            let mut close_trace_window = |probe: &mut Option<LockProbe>| {
                let now = ctl.measured.load(Ordering::Relaxed);
                let on = probe.is_some() as usize;
                ops[on] += now - ops_w;
                time[on] += t_w.elapsed();
                (t_w, ops_w) = (Instant::now(), now);
                if let Some(p) = probe.take() {
                    let (h, f) = p.finish();
                    lock.merge(&h);
                    free_min = free_min.min(f);
                }
            };
            loop {
                thread::sleep(POLL);
                if traced {
                    let on = (t.elapsed().as_secs_f64() / trace_window) as u64 % 2 == 1;
                    if on != probe.is_some() {
                        close_trace_window(&mut probe);
                        if on {
                            probe = Some(LockProbe::start(Arc::clone(&device)));
                        }
                    }
                }
                let elapsed = t.elapsed().as_secs_f64();
                let n = control.info_u64("wal_snapshots")?;
                let cycle_ended = n > done;
                done = n;
                if cycle_ended && elapsed >= seconds {
                    break;
                }
                if elapsed > seconds + 120.0 {
                    return Err("the measured phase saw no WAL snapshot".into());
                }
            }
            ctl.phase.store(POST, Ordering::Release);
            let wall = t.elapsed().as_secs_f64();
            let mut layers = None;
            if traced {
                close_trace_window(&mut probe);
                layers = Some(LiveLayers {
                    free_rus_min: free_min,
                    lock_wait_us_mean: lock.mean() / 1e3,
                    lock_wait_us_p99: lock.p99() as f64 / 1e3,
                    ops_per_s_untraced: ops[0] as f64 / time[0].as_secs_f64(),
                    ops_per_s_traced: ops[1] as f64 / time[1].as_secs_f64(),
                    ..LiveLayers::default()
                });
            }
            let m1 = Scrape::fetch(maddr)?;
            let d1 = telemetry(&device);
            // On-demand snapshots while the load keeps running, spread over
            // a window as long as the measured phase so that a short slow
            // spell of the host moves few of them.
            let t = Instant::now();
            for i in 0..SNAPSHOTS {
                let due = Duration::from_secs_f64(seconds * i as f64 / SNAPSHOTS as f64);
                thread::sleep(due.saturating_sub(t.elapsed()));
                snapshots.push(snapshot(&mut control, b"BGSAVE", "od_snapshots")?.as_secs_f64());
            }
            Ok(Measured {
                cycles: done - first,
                m0,
                m1,
                d0,
                d1,
                wall,
                layers,
            })
        })();
        ctl.phase.store(STOP, Ordering::Release);
        outs = hs
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect();
    });
    let Measured {
        cycles,
        m0,
        m1,
        d0,
        d1,
        wall,
        mut layers,
    } = phase_result?;

    let mut hist = Histogram::new();
    let mut set_bytes = 0u64;
    for o in outs {
        hist.merge(&o.hist);
        set_bytes += o.set_bytes;
        tally.merge(o.tally);
    }

    // Read back stored values (this is the only read traffic set-always
    // sees), then fix the WAL state every recovery starts from.
    let mut rng = Xoshiro256::new(seed ^ 0x5EEB);
    let sweep: Vec<(bool, u64)> = (0..SWEEP_GETS.min(records))
        .map(|_| (true, rng.gen_range(records)))
        .collect();
    tally.merge(batch_requests(port, sweep.into_iter()));
    let m2 = Scrape::fetch(maddr)?;
    snapshot(&mut control, b"BGREWRITEAOF", "wal_snapshots")?;
    let tail: Vec<(bool, u64)> = (0..shape.tail_sets)
        .map(|_| (false, rng.gen_range(records)))
        .collect();
    tally.merge(batch_requests(port, tail.into_iter()));
    let probe_id = rng.gen_range(records);

    let before = dataset_id(&mut control)?;
    // Every connection is closed before a kill, so none delays it.
    drop(control);
    let mut recoveries = Vec::new();
    for _ in 0..RECOVERIES {
        let t = Instant::now();
        let store = handle.kill();
        handle = Server::start(store, shape.opts()).map_err(|e| format!("restart: {e}"))?;
        let mut c = Control::connect(handle.port())?;
        let reply = c.command(&[b"GET", &key_of(probe_id)])?;
        recoveries.push(t.elapsed().as_secs_f64());
        tally.attempted += 1;
        check_reply(&reply, Some(probe_id), &mut tally);
        let after = dataset_id(&mut c)?;
        if after != before {
            tally.fail(1, || {
                format!("recovered dataset {after:?} differs from {before:?}")
            });
        }
    }
    drop(handle.shutdown());
    let list = |v: &[f64], scale: f64| {
        let v: Vec<String> = v.iter().map(|x| format!("{:.0}", x * scale)).collect();
        v.join(" ")
    };
    println!(
        "live: {} requests in {:.1} s over {} WAL-snapshot cycles, p90/p95/p99/p999 {}/{}/{}/{} us; \
         set-ups ms: {}; snapshots ms: {}; recoveries ms: {}",
        hist.count(),
        wall,
        cycles,
        hist.percentile(90.0) / 1000,
        hist.percentile(95.0) / 1000,
        hist.p99() / 1000,
        hist.p999() / 1000,
        list(&setups, 1e3),
        list(&snapshots, 1e3),
        list(&recoveries, 1e3),
    );

    let host = d1.host_pages - d0.host_pages;
    let nand = host + (d1.gc_copied_pages - d0.gc_copied_pages);
    let waf = if host == 0 {
        0.0
    } else {
        nand as f64 / host as f64
    };
    if waf >= 1.005 {
        tally.fail(1, || {
            format!("FDP WAF over the measured phase is {waf:.4}, want < 1.005")
        });
    }

    if let Some(l) = layers.as_mut() {
        for stage in STAGES {
            let filter = format!("stage=\"{stage}\"");
            let d = m1
                .hist("slimio_write_stage_seconds", &filter)
                .since(&m0.hist("slimio_write_stage_seconds", &filter));
            l.stages.push((stage, d));
        }
        // Batch-scoped stages: execute, wal_append, device_sync, reply.
        let busy: f64 = l.stages[2..].iter().map(|(_, d)| d.sum_s).sum();
        l.writer_busy_frac = busy / wall;
        let batches = m1.value("slimio_write_batches_total{shard=\"0\"}")
            - m0.value("slimio_write_batches_total{shard=\"0\"}");
        let cmds = m1.value("slimio_write_batch_commands_total{shard=\"0\"}")
            - m0.value("slimio_write_batch_commands_total{shard=\"0\"}");
        l.batch_cmds_mean = if batches > 0.0 { cmds / batches } else { 0.0 };
        l.read = m2
            .hist("slimio_read_seconds", "")
            .since(&m0.hist("slimio_read_seconds", ""));
        l.queue_hwm = m1.value("slimio_shard_queue_hwm{shard=\"0\"}");
        l.busy_refused =
            m1.value("slimio_busy_refused_total") - m0.value("slimio_busy_refused_total");
        l.p99_us = hist.p99() as f64 / 1e3;
        l.p999_us = hist.p999() as f64 / 1e3;
        l.dev0 = d0.clone();
        l.dev1 = d1.clone();
    }

    Ok(LiveOut {
        setup_s: median(&setups),
        ops_per_s: hist.count() as f64 / wall,
        p50_us: hist.p50() as f64 / 1e3,
        p90_us: hist.percentile(90.0) as f64 / 1e3,
        waf,
        host_bytes_per_user_byte: host as f64 * 4096.0 / set_bytes.max(1) as f64,
        mem_peak_mb: m1.value("slimio_engine_peak_bytes") / 1e6,
        snapshot_s: median(&snapshots),
        recovery_s: median(&recoveries),
        tally,
        layers,
    })
}
