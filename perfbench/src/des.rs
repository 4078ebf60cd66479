//! The `des-always` workload and the DES layer of every traced run.
//!
//! A cell is built from the public `Experiment` pieces instead of
//! `Experiment::run()`, so the benchmark can wrap the I/O path in a
//! [`TimedPath`] and the generator in a [`TimedGen`] without touching the
//! simulator. With timing off the wrappers only stamp a wall clock every
//! [`SLICE_OPS`] requests and at snapshot begin/commit, and the run's
//! `RunResult` must equal `Experiment::run()` bit for bit.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use slimio_des::SimTime;
use slimio_nvme::NvmeDevice;
use slimio_system::experiment::always;
use slimio_system::model::Policy;
use slimio_system::stack::{LaneTiming, PathModel};
use slimio_system::{Experiment, RunResult, StackKind, SystemModel, WorkloadKind};
use slimio_workload::{Op, WorkloadGen};

use crate::stats::{median, quantile};

/// Requests per wall-clock slice: the DES's per-request latency is its
/// wall time per slice divided by this.
pub const SLICE_OPS: u64 = 1024;

/// Seed of every `des-always` cell. Fixed, so each cell can be checked
/// against the reference below.
pub const DES_SEED: u64 = 42;

/// Scale of the `des-always` cells (1.0 = the paper's configuration).
pub const DES_SCALE: f64 = 1.0 / 128.0;

/// What a cell must reproduce: simulation events, average RPS (as f64
/// bits), SET p999 (ns) and device WAF (as f64 bits).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub events: u64,
    pub avg_rps_bits: u64,
    pub set_p999_ns: u64,
    pub waf_bits: u64,
}

impl Fingerprint {
    pub fn of(r: &RunResult) -> Self {
        Fingerprint {
            events: r.events,
            avg_rps_bits: r.avg_rps.to_bits(),
            set_p999_ns: r.set_lat.p999(),
            waf_bits: r.waf.waf().to_bits(),
        }
    }
}

/// One DES cell: a table3-style experiment plus its stored reference.
pub struct Cell {
    pub label: &'static str,
    pub exp: Experiment,
    pub reference: Option<Fingerprint>,
}

fn experiment(workload: WorkloadKind, stack: StackKind, policy: Policy, scale: f64) -> Experiment {
    let mut e = Experiment::new(workload, stack, policy);
    e.scale = scale;
    e.seed = DES_SEED;
    e
}

/// The Always-Log redis-benchmark cells of table3 (Baseline/F2FS kernel
/// path and SlimIO) at [`DES_SCALE`], with their reference outputs.
pub fn always_cells() -> Vec<Cell> {
    vec![
        Cell {
            label: "baseline",
            exp: experiment(
                WorkloadKind::RedisBench,
                StackKind::KernelF2fs,
                always(),
                DES_SCALE,
            ),
            reference: Some(Fingerprint {
                events: 656_615,
                avg_rps_bits: 4_670_219_251_947_959_856,
                set_p999_ns: 5_242_879,
                waf_bits: 4_608_176_867_796_680_602,
            }),
        },
        Cell {
            label: "slimio",
            exp: experiment(
                WorkloadKind::RedisBench,
                StackKind::PassthruFdp,
                always(),
                DES_SCALE,
            ),
            reference: Some(Fingerprint {
                events: 656_574,
                avg_rps_bits: 4_673_575_086_019_746_661,
                set_p999_ns: 5_636_095,
                waf_bits: 4_607_182_418_800_017_408,
            }),
        },
    ]
}

/// The simulated counterpart of `set-always`, at a small scale: the
/// traced run of every workload reports the DES layer too.
pub fn counterpart_cells(scale: f64) -> Vec<Cell> {
    [
        ("baseline", StackKind::KernelF2fs),
        ("slimio", StackKind::PassthruFdp),
    ]
    .into_iter()
    .map(|(label, stack)| Cell {
        label,
        exp: experiment(WorkloadKind::RedisBench, stack, always(), scale),
        reference: None,
    })
    .collect()
}

/// Wall-clock accounting shared by a cell's two wrappers.
#[derive(Default)]
pub struct CellClock {
    /// Per-slice wall time of [`SLICE_OPS`] requests.
    pub slices: Vec<Duration>,
    slice_start: Option<Instant>,
    gen_calls: u64,
    /// Time inside `next_op` (timed runs only).
    pub gen: Duration,
    /// Time inside `PathModel` calls (timed runs only).
    pub path: Duration,
    snap_started: Option<Instant>,
    /// Wall time from each snapshot's begin to its commit.
    pub snapshots: Vec<Duration>,
}

type Shared = Rc<RefCell<CellClock>>;

/// A `WorkloadGen` that stamps a wall clock every [`SLICE_OPS`] requests
/// and, when `timed`, times every `next_op` call.
pub struct TimedGen<G: WorkloadGen> {
    inner: G,
    clock: Shared,
    timed: bool,
}

impl<G: WorkloadGen> TimedGen<G> {
    pub fn new(inner: G, clock: Shared, timed: bool) -> Self {
        TimedGen {
            inner,
            clock,
            timed,
        }
    }
}

impl<G: WorkloadGen> WorkloadGen for TimedGen<G> {
    fn next_op(&mut self) -> Op {
        let mut c = self.clock.borrow_mut();
        if c.gen_calls.is_multiple_of(SLICE_OPS) {
            let now = Instant::now();
            if let Some(s) = c.slice_start.replace(now) {
                c.slices.push(now - s);
            }
        }
        c.gen_calls += 1;
        if self.timed {
            let t = Instant::now();
            let op = self.inner.next_op();
            c.gen += t.elapsed();
            op
        } else {
            self.inner.next_op()
        }
    }
    fn total_ops(&self) -> u64 {
        self.inner.total_ops()
    }
    fn key_space(&self) -> u64 {
        self.inner.key_space()
    }
    fn value_len(&self) -> u32 {
        self.inner.value_len()
    }
    fn clients(&self) -> u32 {
        self.inner.clients()
    }
    fn preload_records(&self) -> u64 {
        self.inner.preload_records()
    }
}

/// A `PathModel` that stamps snapshot begin/commit and, when `timed`,
/// times every call into the wrapped path.
pub struct TimedPath<P: PathModel> {
    inner: P,
    clock: Shared,
    timed: bool,
}

impl<P: PathModel> TimedPath<P> {
    pub fn new(inner: P, clock: Shared, timed: bool) -> Self {
        TimedPath {
            inner,
            clock,
            timed,
        }
    }

    fn span<T>(&mut self, f: impl FnOnce(&mut P) -> T) -> T {
        if !self.timed {
            return f(&mut self.inner);
        }
        let t = Instant::now();
        let out = f(&mut self.inner);
        self.clock.borrow_mut().path += t.elapsed();
        out
    }
}

impl<P: PathModel> PathModel for TimedPath<P> {
    fn wal_append(&mut self, bytes: u64, now: SimTime) -> LaneTiming {
        self.span(|p| p.wal_append(bytes, now))
    }
    fn wal_sync(&mut self, now: SimTime) -> LaneTiming {
        self.span(|p| p.wal_sync(now))
    }
    fn wal_len(&self) -> u64 {
        self.inner.wal_len()
    }
    fn snap_begin(&mut self, rotate_wal: bool, now: SimTime) {
        self.clock.borrow_mut().snap_started = Some(Instant::now());
        self.span(|p| p.snap_begin(rotate_wal, now))
    }
    fn snap_write(&mut self, bytes: u64, now: SimTime) -> LaneTiming {
        self.span(|p| p.snap_write(bytes, now))
    }
    fn snap_commit(&mut self, now: SimTime) -> LaneTiming {
        let out = self.span(|p| p.snap_commit(now));
        let mut c = self.clock.borrow_mut();
        if let Some(s) = c.snap_started.take() {
            c.snapshots.push(s.elapsed());
        }
        out
    }
    fn device(&self) -> &Arc<Mutex<NvmeDevice>> {
        self.inner.device()
    }
    fn snap_io_cpu(&self) -> SimTime {
        self.inner.snap_io_cpu()
    }
    fn snap_dev_wait(&self) -> SimTime {
        self.inner.snap_dev_wait()
    }
    fn fs_cpu_snapshot(&self) -> SimTime {
        self.inner.fs_cpu_snapshot()
    }
}

/// One executed cell.
pub struct CellRun {
    pub result: RunResult,
    /// Building device, path, generator and model (and preloading).
    pub setup: Duration,
    /// `SystemModel::run` wall time.
    pub run: Duration,
    pub clock: CellClock,
    /// Host pages the cell's device programmed.
    pub host_pages: u64,
}

/// Runs one cell the way `Experiment::run()` does, through the wrappers.
pub fn run_cell(e: &Experiment, timed: bool) -> CellRun {
    let clock: Shared = Rc::default();
    let t0 = Instant::now();
    let device = e.build_device();
    if e.age_device {
        Experiment::age(&device);
    }
    let path = TimedPath::new(e.build_path(Arc::clone(&device)), Rc::clone(&clock), timed);
    let gen = TimedGen::new(e.build_workload(), Rc::clone(&clock), timed);
    let preload = gen.preload_records();
    let mut model = SystemModel::new(e.system_config(), gen, path);
    if preload > 0 {
        model.preload(preload);
    }
    let setup = t0.elapsed();
    let t1 = Instant::now();
    let (result, path) = model.run_keep_path();
    let run = t1.elapsed();
    drop(path);
    let host_pages = device.lock().expect("device lock").telemetry().host_pages;
    let clock = Rc::try_unwrap(clock)
        .ok()
        .expect("wrappers dropped with the model")
        .into_inner();
    CellRun {
        result,
        setup,
        run,
        clock,
        host_pages,
    }
}

/// Checks a cell run against its stored reference.
pub fn check(cell: &Cell, run: &CellRun) -> Result<(), String> {
    let got = Fingerprint::of(&run.result);
    match cell.reference {
        Some(want) if want != got => Err(format!(
            "DES cell {} diverged from its reference: got {got:?}, want {want:?}",
            cell.label
        )),
        _ => Ok(()),
    }
}

/// End-to-end figures of repeated `des-always` rounds.
pub struct DesFigures {
    pub rounds: usize,
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub waf: f64,
    pub host_bytes_per_user_byte: f64,
    pub mem_peak_mb: f64,
    pub snapshot_s: f64,
    pub recovery_s: f64,
    pub ops: u64,
}

/// Wall time of simulating the SlimIO cell's recovery (the table5
/// model over the cell's final dataset).
fn recovery_wall(e: &Experiment, r: &RunResult) -> Duration {
    let w = e.build_workload();
    let entries = w.key_space().min(r.ops);
    let stream = entries * (w.value_len() as u64 + 8);
    let t = Instant::now();
    let rec = slimio_system::recovery::run_recovery(e, entries, stream);
    std::hint::black_box(rec);
    t.elapsed()
}

/// Runs the cells round after round for `seconds`, checking every cell
/// of every round against its reference. Every figure is a median over
/// rounds. Latency quantiles are taken per cell and averaged over the
/// cells: the cells' per-request costs differ about fourfold, so a
/// quantile of their pooled slices would fall in the gap between them.
pub fn run_rounds(cells: &[Cell], seconds: f64, min_rounds: usize) -> Result<DesFigures, String> {
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut round_p50 = Vec::new();
    let mut round_p90 = Vec::new();
    let mut round_snap = Vec::new();
    let mut recoveries = Vec::new();
    let mut ops = 0u64;
    let mut slim: Option<(RunResult, u64)> = None;
    let mut rounds = 0;
    while rounds < min_rounds || started.elapsed().as_secs_f64() < seconds {
        let mut setup = Duration::ZERO;
        let mut run = Duration::ZERO;
        let mut round_ops = 0u64;
        let (mut p50, mut p90) = (0.0, 0.0);
        let mut snaps = Vec::new();
        for cell in cells {
            let r = run_cell(&cell.exp, false);
            check(cell, &r)?;
            setup += r.setup;
            run += r.run;
            round_ops += r.result.ops;
            let slices: Vec<f64> = r
                .clock
                .slices
                .iter()
                .map(|d| d.as_secs_f64() * 1e6 / SLICE_OPS as f64)
                .collect();
            p50 += quantile(&slices, 0.50) / cells.len() as f64;
            p90 += quantile(&slices, 0.90) / cells.len() as f64;
            snaps.extend(r.clock.snapshots.iter().map(|d| d.as_secs_f64()));
            if cell.exp.stack == StackKind::PassthruFdp {
                recoveries.push(recovery_wall(&cell.exp, &r.result).as_secs_f64());
                slim = Some((r.result, r.host_pages));
            }
        }
        round_p50.push(p50);
        round_p90.push(p90);
        round_snap.push(snaps.iter().sum::<f64>() / snaps.len().max(1) as f64);
        setups.push(setup.as_secs_f64());
        rates.push(round_ops as f64 / run.as_secs_f64());
        ops += round_ops;
        rounds += 1;
    }
    let (r, host_pages) = slim.ok_or("des-always needs a SlimIO cell")?;
    let w = cells
        .iter()
        .find(|c| c.exp.stack == StackKind::PassthruFdp)
        .map(|c| c.exp.build_workload())
        .expect("SlimIO cell");
    let user_bytes = r.ops as f64 * (w.value_len() as f64 + 8.0);
    Ok(DesFigures {
        rounds,
        setup_s: median(&setups),
        ops_per_s: median(&rates),
        p50_us: median(&round_p50),
        p90_us: median(&round_p90),
        waf: r.waf.waf(),
        host_bytes_per_user_byte: host_pages as f64 * 4096.0 / user_bytes,
        mem_peak_mb: r.mem_peak as f64 / 1e6,
        snapshot_s: median(&round_snap),
        recovery_s: median(&recoveries),
        ops,
    })
}

/// Per-layer DES figures of one timed pass over `cells`.
pub struct DesLayers {
    pub kpath_path_s: f64,
    pub kpath_model_s: f64,
    pub passthru_path_s: f64,
    pub passthru_model_s: f64,
    pub gen_s: f64,
    pub events: u64,
    pub gc_passes: u64,
    pub events_per_s: f64,
}

/// Runs every cell once with timing on. The model share is the cell's
/// run time minus time spent in the path and the generator.
pub fn trace_cells(cells: &[Cell]) -> Result<DesLayers, String> {
    let mut out = DesLayers {
        kpath_path_s: 0.0,
        kpath_model_s: 0.0,
        passthru_path_s: 0.0,
        passthru_model_s: 0.0,
        gen_s: 0.0,
        events: 0,
        gc_passes: 0,
        events_per_s: 0.0,
    };
    let mut run_s = 0.0;
    for cell in cells {
        let r = run_cell(&cell.exp, true);
        check(cell, &r)?;
        let path = r.clock.path.as_secs_f64();
        let gen = r.clock.gen.as_secs_f64();
        let model = (r.run.as_secs_f64() - path - gen).max(0.0);
        if cell.exp.stack == StackKind::PassthruFdp {
            out.passthru_path_s += path;
            out.passthru_model_s += model;
        } else {
            out.kpath_path_s += path;
            out.kpath_model_s += model;
        }
        out.gen_s += gen;
        out.events += r.result.events;
        out.gc_passes += r.result.gc_passes;
        run_s += r.run.as_secs_f64();
    }
    out.events_per_s = out.events as f64 / run_s;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same(a: &RunResult, b: &RunResult) {
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.avg_rps.to_bits(), b.avg_rps.to_bits());
        assert_eq!(a.wal_only_rps.to_bits(), b.wal_only_rps.to_bits());
        assert_eq!(a.wal_snap_rps.to_bits(), b.wal_snap_rps.to_bits());
        for (x, y) in [(&a.set_lat, &b.set_lat), (&a.get_lat, &b.get_lat)] {
            assert_eq!(x.count(), y.count());
            assert_eq!(x.p50(), y.p50());
            assert_eq!(x.p99(), y.p99());
            assert_eq!(x.p999(), y.p999());
            assert_eq!(x.max(), y.max());
        }
        assert_eq!(a.snapshot_times, b.snapshot_times);
        assert_eq!(a.mem_base, b.mem_base);
        assert_eq!(a.mem_peak, b.mem_peak);
        assert_eq!(a.waf.host_pages(), b.waf.host_pages());
        assert_eq!(a.waf.gc_copied_pages(), b.waf.gc_copied_pages());
        assert_eq!(a.gc_passes, b.gc_passes);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn wrapped_cells_reproduce_experiment_run() {
        // A YCSB-A pair too, so the wrappers also see GETs and buffered
        // (everysec) WAL appends.
        let mut exps: Vec<Experiment> = counterpart_cells(1.0 / 2048.0)
            .into_iter()
            .map(|c| c.exp)
            .collect();
        for stack in [StackKind::KernelF2fs, StackKind::PassthruFdp] {
            exps.push(experiment(
                WorkloadKind::YcsbA,
                stack,
                slimio_system::experiment::periodical(),
                1.0 / 4096.0,
            ));
        }
        for exp in &exps {
            let want = exp.run();
            for timed in [false, true] {
                let got = run_cell(exp, timed);
                same(&got.result, &want);
            }
        }
    }

    #[test]
    fn des_always_cells_match_their_reference() {
        for cell in always_cells() {
            let want = Fingerprint::of(&cell.exp.run());
            assert_eq!(Some(want), cell.reference, "{}", cell.label);
        }
    }
}
