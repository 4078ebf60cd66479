//! Golden outputs of the kernel-path DES cells.
//!
//! The Baseline (kernel-path) rows of the paper's tables are the
//! reproduction's fidelity anchor: a change to the page cache, the
//! extent map or the write path of `slimio-kpath` that is meant as a pure
//! optimisation must leave every simulated number bit-identical. These
//! tests pin exact fingerprints of small-scale cells that exercise that
//! model end to end — buffered WAL appends, fsync, background writeback
//! and the dirty-limit throttle, snapshot files that are truncated and
//! re-created onto recycled extents, and the cold-cache readahead of
//! recovery. Any drift fails with the full observed fingerprint.

use slimio_suite::system::experiment::{always, periodical};
use slimio_suite::system::model::Policy;
use slimio_suite::system::recovery::run_recovery;
use slimio_suite::system::{Experiment, RunResult, StackKind, WorkloadKind};

/// Scale of every golden cell: small enough for a debug build.
const SCALE: f64 = 1.0 / 256.0;

/// What a DES cell must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    events: u64,
    /// `avg_rps` as f64 bits.
    avg_rps_bits: u64,
    set_p999_ns: u64,
    /// Device WAF as f64 bits.
    waf_bits: u64,
    /// Sum of the snapshot durations, ns.
    snapshot_ns: u64,
    gc_passes: u64,
}

impl Fingerprint {
    fn of(r: &RunResult) -> Self {
        Fingerprint {
            events: r.events,
            avg_rps_bits: r.avg_rps.to_bits(),
            set_p999_ns: r.set_lat.p999(),
            waf_bits: r.waf.waf().to_bits(),
            snapshot_ns: r.snapshot_times.iter().map(|t| t.as_nanos()).sum(),
            gc_passes: r.gc_passes,
        }
    }
}

fn cell(workload: WorkloadKind, stack: StackKind, policy: Policy) -> Experiment {
    let mut e = Experiment::new(workload, stack, policy);
    e.scale = SCALE;
    e
}

fn check(exp: Experiment, want: Fingerprint) {
    let got = Fingerprint::of(&exp.run());
    assert_eq!(
        got, want,
        "{:?}/{:?}/{:?}",
        exp.workload, exp.stack, exp.policy
    );
}

#[test]
fn always_baseline_f2fs_is_unchanged() {
    check(
        cell(WorkloadKind::RedisBench, StackKind::KernelF2fs, always()),
        Fingerprint {
            events: 328_312,
            avg_rps_bits: 4_670_307_231_503_951_083,
            set_p999_ns: 75_497_471,
            waf_bits: 4_607_182_418_800_017_408,
            snapshot_ns: 6_079_534_926,
            gc_passes: 0,
        },
    );
}

#[test]
fn periodical_baseline_ext4_is_unchanged() {
    check(
        cell(
            WorkloadKind::RedisBench,
            StackKind::KernelExt4,
            periodical(),
        ),
        Fingerprint {
            events: 328_270,
            avg_rps_bits: 4_676_509_158_797_889_770,
            set_p999_ns: 2_818_047,
            waf_bits: 4_607_182_418_800_017_408,
            snapshot_ns: 4_868_983_895,
            gc_passes: 0,
        },
    );
}

#[test]
fn ycsb_a_always_baseline_is_unchanged() {
    check(
        cell(WorkloadKind::YcsbA, StackKind::KernelF2fs, always()),
        Fingerprint {
            events: 449_288,
            avg_rps_bits: 4_672_210_450_628_306_500,
            set_p999_ns: 884_735,
            waf_bits: 4_607_182_418_800_017_408,
            snapshot_ns: 1_733_476_536,
            gc_passes: 0,
        },
    );
}

#[test]
fn aged_always_baseline_f2fs_is_unchanged() {
    // A fully written device: every writeback competes with GC, so the
    // WAF pins the exact order in which dirty pages reach the device.
    let mut exp = cell(WorkloadKind::RedisBench, StackKind::KernelF2fs, always());
    exp.age_device = true;
    check(
        exp,
        Fingerprint {
            events: 328_312,
            avg_rps_bits: 4_668_594_437_378_548_811,
            set_p999_ns: 285_212_671,
            waf_bits: 4_609_279_231_406_079_071,
            snapshot_ns: 7_482_291_805,
            gc_passes: 18,
        },
    );
}

#[test]
fn baseline_recovery_is_unchanged() {
    let exp = cell(
        WorkloadKind::RedisBench,
        StackKind::KernelF2fs,
        periodical(),
    );
    let r = run_recovery(&exp, 20_000, 80_000_000);
    assert_eq!(
        (r.bytes, r.time.as_nanos(), r.mbps.to_bits()),
        (80_000_000, 224_736_046, 4_644_969_962_213_099_930),
        "recovery (bytes, time ns, mbps bits)"
    );
}
