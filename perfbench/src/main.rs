//! The repository benchmark.
//!
//! ```text
//! slimio-perfbench --workload <set-always|des-always> --seed <n>
//!                  --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Prints diagnostics, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics of [`E2E`]; `--trace 1` runs the workload with
//! per-layer tracing and reports the metrics of [`LAYERS`]. A broken
//! correctness check fails the run (exit 1) instead of reporting numbers.
//! `--smoke` shrinks every size for the benchmark's own tests. See
//! README.md for the workloads and the layer-to-end-to-end metric map.

mod des;
mod drive;
mod live;
mod scrape;
mod stats;

use std::process::ExitCode;

use live::Shape;

/// End-to-end metrics: every workload reports every one of them.
pub const E2E: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("waf", "ratio"),
    ("host_bytes_per_user_byte", "ratio"),
    ("mem_peak_mb", "MB"),
    ("snapshot_s", "s"),
    ("recovery_s", "s"),
];

/// Per-layer metrics of a traced run.
pub const LAYERS: [(&str, &str); 62] = [
    ("resp.parse_ns_per_cmd", "ns"),
    ("resp.encode_ns_per_reply", "ns"),
    ("server.admission_us_mean", "us"),
    ("server.admission_us_p99", "us"),
    ("server.queue_us_mean", "us"),
    ("server.queue_us_p99", "us"),
    ("server.execute_us_mean", "us"),
    ("server.execute_us_p99", "us"),
    ("server.wal_append_us_mean", "us"),
    ("server.wal_append_us_p99", "us"),
    ("server.device_sync_us_mean", "us"),
    ("server.device_sync_us_p99", "us"),
    ("server.reply_us_mean", "us"),
    ("server.reply_us_p99", "us"),
    ("server.batch_cmds_mean", "count"),
    ("server.writer_busy_frac", "ratio"),
    ("server.read_us_mean", "us"),
    ("server.read_us_p99", "us"),
    ("server.queue_hwm", "count"),
    ("server.busy_refused", "count"),
    ("client.p99_us", "us"),
    ("client.p999_us", "us"),
    ("imdb.set_ns", "ns"),
    ("imdb.view_get_ns", "ns"),
    ("imdb.publish_ns_per_batch", "ns"),
    ("imdb.commit_cpu_ns_per_batch", "ns"),
    ("imdb.wal_bytes_per_set", "B"),
    ("imdb.snapshot_serialize_s", "s"),
    ("imdb.snapshot_stored_per_raw", "ratio"),
    ("imdb.recover_replay_s", "s"),
    ("imdb.mem_peak_per_live", "ratio"),
    ("backend.wal_append_us_per_call", "us"),
    ("backend.wal_append_bytes_per_call", "B"),
    ("backend.wal_sync_us_per_call", "us"),
    ("backend.snapshot_chunk_us_per_mb", "us/MB"),
    ("backend.snapshot_commit_us", "us"),
    ("backend.load_snapshot_s", "s"),
    ("backend.load_wal_s", "s"),
    ("device.host_pages", "count"),
    ("device.write_commands", "count"),
    ("device.pages_per_command", "ratio"),
    ("device.gc_copied_pages", "count"),
    ("device.gc_passes", "count"),
    ("device.erases", "count"),
    ("device.die_busy_s", "s"),
    ("device.wall_stall_s", "s"),
    ("device.free_rus_min", "count"),
    ("device.lock_wait_us_mean", "us"),
    ("device.lock_wait_us_p99", "us"),
    ("des.kpath.path_s", "s"),
    ("des.kpath.model_s", "s"),
    ("des.passthru.path_s", "s"),
    ("des.passthru.model_s", "s"),
    ("des.gen_s", "s"),
    ("des.events", "count"),
    ("des.gc_passes", "count"),
    ("des.events_per_s", "1/s"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.live_s", "s"),
    ("trace.des_s", "s"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SetAlways,
    DesAlways,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::SetAlways, Workload::DesAlways];

    fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SetAlways => "set-always",
            Workload::DesAlways => "des-always",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) = (None, 1, 10.0, false, false);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => smoke = true,
            f => return Err(format!("unknown argument {f}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// A run's reported figures.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// The result line; errors unless exactly the metrics of `names` are
    /// present, each finite.
    pub fn json(&self, names: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, unit) in names {
            let v = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .ok_or(format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        if self.metrics.len() != names.len() {
            return Err("a metric was reported twice or is not declared".into());
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Runs the untraced workload and returns the end-to-end metrics.
fn end_to_end(a: &Args) -> Result<Report, String> {
    if a.workload == Workload::DesAlways {
        let mut cells = des::always_cells();
        if a.smoke {
            for c in &mut cells {
                c.exp.scale = 1.0 / 4096.0;
                c.reference = None;
            }
        }
        let f = des::run_rounds(&cells, a.seconds, 3)?;
        println!(
            "des-always: {} rounds, {} simulated requests",
            f.rounds, f.ops
        );
        return Ok(Report {
            attempted: f.ops,
            failed: 0,
            metrics: vec![
                ("setup_s", f.setup_s),
                ("ops_per_s", f.ops_per_s),
                ("p50_us", f.p50_us),
                ("p90_us", f.p90_us),
                ("waf", f.waf),
                ("host_bytes_per_user_byte", f.host_bytes_per_user_byte),
                ("mem_peak_mb", f.mem_peak_mb),
                ("snapshot_s", f.snapshot_s),
                ("recovery_s", f.recovery_s),
            ],
        });
    }
    let o = live::run(Shape::new(a.smoke), a.seed, a.seconds, false)?;
    if let Some(why) = &o.tally.first_failure {
        return Err(format!(
            "{} of {} requests failed; first: {why}",
            o.tally.failed, o.tally.attempted
        ));
    }
    Ok(Report {
        attempted: o.tally.attempted,
        failed: o.tally.failed,
        metrics: vec![
            ("setup_s", o.setup_s),
            ("ops_per_s", o.ops_per_s),
            ("p50_us", o.p50_us),
            ("p90_us", o.p90_us),
            ("waf", o.waf),
            ("host_bytes_per_user_byte", o.host_bytes_per_user_byte),
            ("mem_peak_mb", o.mem_peak_mb),
            ("snapshot_s", o.snapshot_s),
            ("recovery_s", o.recovery_s),
        ],
    })
}

/// Runs the traced workload and returns the per-layer metrics. Every
/// traced run covers every layer: the live layers with `set-always`
/// (over a third of the time for `des-always`), and the DES layer with
/// the workload's cells (for `set-always`, its simulated counterpart at
/// a small scale).
fn per_layer(a: &Args) -> Result<Report, String> {
    let shape = Shape::new(a.smoke);
    let live_seconds = if a.workload == Workload::DesAlways {
        a.seconds / 3.0
    } else {
        a.seconds
    };
    let t = std::time::Instant::now();
    let o = live::run(shape, a.seed, live_seconds, true)?;
    if let Some(why) = &o.tally.first_failure {
        return Err(format!(
            "{} of {} requests failed; first: {why}",
            o.tally.failed, o.tally.attempted
        ));
    }
    let live_s = t.elapsed().as_secs_f64();
    let l = o.layers.ok_or("traced live run returned no layers")?;
    let batch = l.batch_cmds_mean.round().max(1.0) as usize;
    let drive_ops = if a.smoke { 2_000 } else { 2 * shape.records };
    let d = drive::drive(&shape, a.seed, batch, drive_ops)?;
    let (parse_ns, encode_ns) =
        drive::resp_costs(&shape, a.seed, if a.smoke { 2_000 } else { 50_000 })?;

    let t = std::time::Instant::now();
    let cells = match a.workload {
        Workload::DesAlways if !a.smoke => des::always_cells(),
        _ => des::counterpart_cells(if a.smoke { 1.0 / 4096.0 } else { 1.0 / 512.0 }),
    };
    let ds = des::trace_cells(&cells)?;
    let des_s = t.elapsed().as_secs_f64();

    let mut m: Vec<(&'static str, f64)> = vec![
        ("resp.parse_ns_per_cmd", parse_ns),
        ("resp.encode_ns_per_reply", encode_ns),
    ];
    let stage_names: [[&'static str; 2]; 6] = [
        ["server.admission_us_mean", "server.admission_us_p99"],
        ["server.queue_us_mean", "server.queue_us_p99"],
        ["server.execute_us_mean", "server.execute_us_p99"],
        ["server.wal_append_us_mean", "server.wal_append_us_p99"],
        ["server.device_sync_us_mean", "server.device_sync_us_p99"],
        ["server.reply_us_mean", "server.reply_us_p99"],
    ];
    for ([mean, p99], (_, h)) in stage_names.iter().zip(&l.stages) {
        m.push((mean, h.mean_s * 1e6));
        m.push((p99, h.p99_s * 1e6));
    }
    let (d0, d1) = (&l.dev0, &l.dev1);
    let host_pages = (d1.host_pages - d0.host_pages) as f64;
    let cmds = (d1.write_commands - d0.write_commands) as f64;
    m.extend([
        ("server.batch_cmds_mean", l.batch_cmds_mean),
        ("server.writer_busy_frac", l.writer_busy_frac),
        ("server.read_us_mean", l.read.mean_s * 1e6),
        ("server.read_us_p99", l.read.p99_s * 1e6),
        ("server.queue_hwm", l.queue_hwm),
        ("server.busy_refused", l.busy_refused),
        ("client.p99_us", l.p99_us),
        ("client.p999_us", l.p999_us),
        ("imdb.set_ns", d.set_ns),
        ("imdb.view_get_ns", d.view_get_ns),
        ("imdb.publish_ns_per_batch", d.publish_ns_per_batch),
        ("imdb.commit_cpu_ns_per_batch", d.commit_cpu_ns_per_batch),
        ("imdb.wal_bytes_per_set", d.wal_bytes_per_set),
        ("imdb.snapshot_serialize_s", d.snapshot_serialize_s),
        ("imdb.snapshot_stored_per_raw", d.snapshot_stored_per_raw),
        ("imdb.recover_replay_s", d.recover_replay_s),
        ("imdb.mem_peak_per_live", d.mem_peak_per_live),
        ("backend.wal_append_us_per_call", d.wal_append_us_per_call),
        (
            "backend.wal_append_bytes_per_call",
            d.wal_append_bytes_per_call,
        ),
        ("backend.wal_sync_us_per_call", d.wal_sync_us_per_call),
        (
            "backend.snapshot_chunk_us_per_mb",
            d.snapshot_chunk_us_per_mb,
        ),
        ("backend.snapshot_commit_us", d.snapshot_commit_us),
        ("backend.load_snapshot_s", d.load_snapshot_s),
        ("backend.load_wal_s", d.load_wal_s),
        ("device.host_pages", host_pages),
        ("device.write_commands", cmds),
        (
            "device.pages_per_command",
            if cmds > 0.0 { host_pages / cmds } else { 0.0 },
        ),
        (
            "device.gc_copied_pages",
            (d1.gc_copied_pages - d0.gc_copied_pages) as f64,
        ),
        ("device.gc_passes", (d1.gc_passes - d0.gc_passes) as f64),
        ("device.erases", (d1.erases - d0.erases) as f64),
        (
            "device.die_busy_s",
            (d1.die_busy_ns - d0.die_busy_ns) as f64 / 1e9,
        ),
        (
            "device.wall_stall_s",
            (d1.wall_stall_ns - d0.wall_stall_ns) as f64 / 1e9,
        ),
        ("device.free_rus_min", l.free_rus_min as f64),
        ("device.lock_wait_us_mean", l.lock_wait_us_mean),
        ("device.lock_wait_us_p99", l.lock_wait_us_p99),
        ("des.kpath.path_s", ds.kpath_path_s),
        ("des.kpath.model_s", ds.kpath_model_s),
        ("des.passthru.path_s", ds.passthru_path_s),
        ("des.passthru.model_s", ds.passthru_model_s),
        ("des.gen_s", ds.gen_s),
        ("des.events", ds.events as f64),
        ("des.gc_passes", ds.gc_passes as f64),
        ("des.events_per_s", ds.events_per_s),
        ("trace.ops_per_s_untraced", l.ops_per_s_untraced),
        ("trace.ops_per_s_traced", l.ops_per_s_traced),
        (
            "trace.overhead_frac",
            1.0 - l.ops_per_s_traced / l.ops_per_s_untraced,
        ),
        ("trace.live_s", live_s),
        ("trace.des_s", des_s),
    ]);
    Ok(Report {
        attempted: o.tally.attempted,
        failed: o.tally.failed,
        metrics: m,
    })
}

/// Runs the benchmark and returns its result line.
pub fn run(a: &Args) -> Result<String, String> {
    if a.trace {
        per_layer(a)?.json(&LAYERS)
    } else {
        end_to_end(a)?.json(&E2E)
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, trace: bool) -> String {
        run(&Args {
            workload,
            seed: 3,
            seconds: 0.5,
            trace,
            smoke: true,
        })
        .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()))
    }

    #[test]
    fn smoke_emits_every_metric_with_its_unit() {
        for w in Workload::ALL {
            for (trace, names) in [(false, &E2E[..]), (true, &LAYERS[..])] {
                let line = smoke(w, trace);
                assert!(
                    line.starts_with("{\"correct\": true, \"attempted\": "),
                    "{line}"
                );
                for (name, unit) in names {
                    let field = format!("\"{name}\": {{\"value\": ");
                    let at = line
                        .find(&field)
                        .unwrap_or_else(|| panic!("{name} missing: {line}"));
                    let rest = &line[at + field.len()..];
                    assert!(rest.contains(&format!("\"unit\": \"{unit}\"}}")), "{name}");
                }
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload des-always --seed 7 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::DesAlways, 7, 2.0, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload set-always --trace 2").is_err());
        assert!(args("--seed 1").is_err());
    }
}
