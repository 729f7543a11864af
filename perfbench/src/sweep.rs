//! `crash_sweep`: the quick crash-point campaign,
//! `crash_sweep::sweep(&SweepOptions::for_scale(Scale::Quick))` — four
//! workloads, every persist boundary, clean and torn injection, two
//! device crash seeds: 4 992 crash/recover/verify runs and no replay.
//!
//! The traced pass runs the same cells step by step (runtime build,
//! workload drive, crash and recovery, verification, digest) so each
//! step gets its own span.

use poat_harness::crash_sweep::{self, default_pairs, workload_label, SweepOptions};
use poat_harness::runner::{parallel_map, Scale};
use poat_pmem::faultpoint::{state_digest, verify_recovery};
use poat_pmem::{FaultPlan, InjectMode, PmemError, Runtime};
use poat_workloads::{ExpConfig, Micro, Pattern};

use crate::check::Checks;
use crate::spans::Recorder;
use crate::sys::WORKERS;

/// Persist boundaries of each quick sweep workload, in
/// [`default_pairs`] order (LL/ALL, LL/EACH, BST/ALL, BST/EACH).
pub const ENUMERATED: [usize; 4] = [288, 336, 288, 336];
/// Crash/recover/verify runs of the whole campaign.
pub const RUNS: usize = 4992;

// The sweep's own build and drive parameters, which `run_point` keeps
// private: the fixed ASLR seed, the quick operation count and the
// per-workload key seed.
const SWEEP_ASLR_SEED: u64 = 0x5EED_CAFE;
const SWEEP_OPS: usize = 12;

fn sweep_seed(bench: Micro, pattern: Pattern) -> u64 {
    workload_label(bench, pattern)
        .bytes()
        .fold(0xFAu64, |a, c| a.wrapping_mul(31).wrapping_add(c as u64))
}

/// The campaign options: the quick defaults on [`WORKERS`] workers. A
/// non-zero salt replaces the two device crash seeds.
pub fn options(salt: u64) -> SweepOptions {
    let mut opts = SweepOptions::for_scale(Scale::Quick);
    opts.workers = WORKERS;
    if salt != 0 {
        opts.seeds = vec![
            salt.wrapping_mul(2).wrapping_add(1),
            salt.wrapping_mul(2).wrapping_add(2),
        ];
    }
    opts
}

/// One workload's row of the campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// `BENCH/PATTERN`.
    pub workload: String,
    /// Persist boundaries enumerated.
    pub enumerated: usize,
    /// Runs made.
    pub runs: usize,
    /// Runs whose armed point tripped.
    pub crashes: u64,
    /// Recovery-invariant violations.
    pub violations: usize,
    /// Largest undo-record count one recovery applied.
    pub max_undo: u64,
}

/// What one pass produced.
#[derive(Debug)]
pub struct SweepOut {
    /// One row per workload.
    pub rows: Vec<Row>,
}

/// One pass: the harness's own `sweep` untraced, step by step traced.
pub fn run(opts: &SweepOptions, rec: Option<&Recorder>) -> SweepOut {
    let rows = match rec {
        None => crash_sweep::sweep(opts)
            .expect("quick sweep enumerates")
            .into_iter()
            .map(|r| Row {
                workload: r.workload,
                enumerated: r.enumerated,
                runs: r.runs,
                crashes: r.crashes,
                violations: r.violations.len(),
                max_undo: r.max_undo_applied,
            })
            .collect(),
        Some(rec) => step_by_step(opts, rec),
    };
    SweepOut { rows }
}

struct Cell {
    tripped: bool,
    violations: usize,
    undo: u64,
}

/// One cell of the matrix, step by step; the same steps, in the same
/// order, as `faultpoint::run_crash_point` under clean or torn
/// injection.
fn run_cell(
    bench: Micro,
    pattern: Pattern,
    point: u64,
    seed: u64,
    mode: InjectMode,
    rec: &Recorder,
) -> Result<Cell, PmemError> {
    let label = workload_label(bench, pattern);
    rec.span("pmem.sweep.run", &label, || {
        let mut rt = rec.span("pmem.sweep.build", &label, || {
            Runtime::new(ExpConfig::Base.runtime_config(SWEEP_ASLR_SEED))
        });
        rt.arm_fault_plan(FaultPlan {
            crash_after: Some(point),
            torn_lines: mode == InjectMode::Torn,
            ..FaultPlan::default()
        });
        let undo_before = rt.stats().undo_applied;
        let drive = rec.span("pmem.sweep.drive", &label, || {
            bench.run_ops(&mut rt, pattern, sweep_seed(bench, pattern), SWEEP_OPS)
        });
        let tripped = match drive {
            Err(PmemError::InjectedCrash) => true,
            Err(e) => return Err(e),
            Ok(_) => false,
        };
        let mut rt = rec.span("nvm.crash_recover", &label, || rt.crash_and_recover(seed))?;
        let violations = rec.span("pmem.sweep.verify", &label, || verify_recovery(&mut rt))?;
        rec.span("pmem.sweep.digest", &label, || state_digest(&mut rt))?;
        Ok(Cell {
            tripped,
            violations: violations.len(),
            undo: rt.stats().undo_applied - undo_before,
        })
    })
}

fn step_by_step(opts: &SweepOptions, rec: &Recorder) -> Vec<Row> {
    let pairs = default_pairs(opts.scale);
    let mut rows = Vec::new();
    let mut tasks = Vec::new();
    for (wi, &(bench, pattern)) in pairs.iter().enumerate() {
        let label = workload_label(bench, pattern);
        let points = rec
            .span("pmem.sweep.enumerate", &label, || {
                crash_sweep::enumerate(bench, pattern, opts.scale)
            })
            .expect("quick sweep enumerates");
        for p in &points {
            for &mode in &opts.modes {
                for &seed in &opts.seeds {
                    tasks.push((wi, p.index, seed, mode));
                }
            }
        }
        rows.push(Row {
            workload: label,
            enumerated: points.len(),
            runs: 0,
            crashes: 0,
            violations: 0,
            max_undo: 0,
        });
    }
    let pairs = &pairs;
    let cells = parallel_map(tasks, opts.workers, |(wi, point, seed, mode)| {
        let (bench, pattern) = pairs[wi];
        (wi, run_cell(bench, pattern, point, seed, mode, rec))
    });
    for (wi, cell) in cells {
        let row = &mut rows[wi];
        row.runs += 1;
        match cell {
            Ok(c) => {
                row.crashes += c.tripped as u64;
                row.violations += c.violations;
                row.max_undo = row.max_undo.max(c.undo);
            }
            Err(e) => {
                eprintln!("{} point engine error: {e}", row.workload);
                row.violations += 1;
            }
        }
    }
    rows
}

/// Checks a pass: no violations, the pinned boundary counts, every run
/// made and every run crashed.
pub fn check(out: &SweepOut, checks: &mut Checks) {
    checks.eq("crash_sweep workloads", out.rows.len(), ENUMERATED.len());
    for (row, want) in out.rows.iter().zip(ENUMERATED) {
        let id = format!("crash_sweep {}", row.workload);
        checks.eq(&format!("{id} enumerated points"), row.enumerated, want);
        checks.eq(&format!("{id} violations"), row.violations, 0);
        checks.eq(
            &format!("{id} crashes == runs"),
            row.crashes,
            row.runs as u64,
        );
    }
    let runs: usize = out.rows.iter().map(|r| r.runs).sum();
    checks.eq("crash_sweep runs", runs, RUNS);
}
