//! The repository benchmark: runs one workload of the POAT reproduction
//! through the harness's public entry points, checks every output, and
//! prints its metrics as one JSON object on the last line of stdout.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload matrix_quick --seed 0 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run. See `perfbench/README.md`.

mod cell;
mod check;
mod layers;
mod matrix;
mod probes;
mod spans;
mod sweep;
mod sys;
mod tpcc;

use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use poat_harness::runner::{run_micro_seeded, run_tpcc, simulate, Core, Scale};
use poat_harness::{crash_sweep, runner};
use poat_pmem::InjectMode;
use poat_workloads::{ExpConfig, Micro, Pattern, TpccPattern};

use check::Checks;
use layers::{Metrics, Recon, Timing};
use spans::{CpuClock, Recorder, Span};
use sys::RunEnv;

/// Set-ups timed for `setup_s`, each in a fresh process of this
/// binary; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Flag that makes this binary a set-up probe: it sets up as a run
/// would, prints `ready` just before the first call into the workload
/// body, and exits.
const SETUP_PROBE: &str = "--setup-probe";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    MatrixQuick,
    TpccFull,
    CrashSweep,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::MatrixQuick,
        Workload::TpccFull,
        Workload::CrashSweep,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::MatrixQuick => "matrix_quick",
            Workload::TpccFull => "tpcc_full",
            Workload::CrashSweep => "crash_sweep",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_probe: bool,
}

const USAGE: &str = "usage: perfbench --workload <matrix_quick|tpcc_full|crash_sweep> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == SETUP_PROBE {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *Workload::ALL
                        .iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        setup_probe,
    })
}

/// What one pass of a workload produced.
enum Out {
    Matrix(matrix::MatrixOut),
    Tpcc(Box<tpcc::TpccOut>),
    Sweep(sweep::SweepOut),
}

/// One workload with its inputs, made from the seed.
struct Bench {
    workload: Workload,
    salt: u64,
    sweep: crash_sweep::SweepOptions,
}

impl Bench {
    fn new(workload: Workload, salt: u64) -> Self {
        Bench {
            workload,
            salt,
            sweep: sweep::options(salt),
        }
    }

    /// A small pass over the layers the body uses, so code and heap are
    /// warm before the body is timed.
    fn warm_up(&self) {
        match self.workload {
            Workload::MatrixQuick => {
                let run = run_micro_seeded(
                    Micro::Ll,
                    Pattern::All,
                    ExpConfig::Opt,
                    Scale::Quick,
                    self.salt,
                    |_| {},
                );
                simulate(&run, Core::InOrder, runner::pipelined());
                simulate(&run, Core::OutOfOrder, runner::pipelined());
            }
            Workload::TpccFull => {
                let run = run_tpcc(TpccPattern::All, ExpConfig::Opt, Scale::Quick);
                simulate(&run, Core::InOrder, runner::pipelined());
            }
            Workload::CrashSweep => {
                let (bench, pattern) = crash_sweep::default_pairs(Scale::Quick)[0];
                let points = crash_sweep::enumerate(bench, pattern, Scale::Quick)
                    .expect("quick sweep enumerates");
                crash_sweep::run_point(
                    bench,
                    pattern,
                    Scale::Quick,
                    points[points.len() / 2].index,
                    self.sweep.seeds[0],
                    InjectMode::Torn,
                )
                .expect("warm-up crash point");
            }
        }
    }

    fn body(&self, rec: Option<&Recorder>) -> Out {
        match self.workload {
            Workload::MatrixQuick => Out::Matrix(matrix::run(self.salt, rec)),
            Workload::TpccFull => Out::Tpcc(Box::new(tpcc::run(rec))),
            Workload::CrashSweep => Out::Sweep(sweep::run(&self.sweep, rec)),
        }
    }

    /// Whether some outputs of a pass are checked by agreeing with
    /// another pass rather than with pinned values.
    fn self_checked(&self) -> bool {
        self.workload == Workload::MatrixQuick && self.salt != 0
    }

    /// Checks a pass; `first` is this run's first pass, `None` while
    /// checking the first pass itself.
    fn check(&self, out: &Out, first: Option<&Out>, checks: &mut Checks) {
        match (out, first) {
            (Out::Matrix(o), Some(Out::Matrix(f))) => matrix::check(self.salt, o, Some(f), checks),
            (Out::Matrix(o), None) => matrix::check(self.salt, o, None, checks),
            (Out::Tpcc(o), _) => tpcc::check(o, checks),
            (Out::Sweep(o), _) => sweep::check(o, checks),
            _ => unreachable!("passes of one workload"),
        }
    }

    fn clock(&self) -> CpuClock {
        match self.workload {
            // The cell runs alone on the main thread; only its sharded
            // replays fan out, onto threads of their own.
            Workload::TpccFull => CpuClock::Process,
            Workload::MatrixQuick | Workload::CrashSweep => CpuClock::Thread,
        }
    }

    /// Per-layer metrics and reconciliation of a traced pass. Runs the
    /// standalone probes.
    fn layers(&self, out: Out, spans: &[Span]) -> (Metrics, Recon) {
        match out {
            Out::Matrix(o) => {
                let calls = o.calls.expect("traced pass keeps its calls");
                let tpcc_all = o
                    .cells
                    .iter()
                    .find(|c| c.pattern == "TPCC_ALL")
                    .expect("matrix has a TPC-C ALL cell");
                let speedup = tpcc_all.cycles[0] as f64 / tpcc_all.cycles[2] as f64;
                let probe = probes::replay(&calls.runs);
                let phases =
                    probes::tpcc_phases(&[TpccPattern::All, TpccPattern::Each], Scale::Quick);
                layers::sim(&calls, spans, &probe, phases, speedup)
            }
            Out::Tpcc(o) => {
                let speedup = o.speedup(0, 2);
                let calls = cell::Calls {
                    emissions: o.emissions.to_vec(),
                    replays: o.replays,
                    runs: o.runs.into_iter().collect(),
                };
                let probe = probes::replay(&calls.runs);
                let phases = probes::tpcc_phases(&[TpccPattern::All], Scale::Full);
                layers::sim(&calls, spans, &probe, phases, speedup)
            }
            Out::Sweep(o) => layers::sweep(&o.rows, spans),
        }
    }
}

fn sim_instructions(out: &Out) -> u64 {
    match out {
        Out::Matrix(o) => o.sim_instructions,
        Out::Tpcc(o) => o.sim_instructions(),
        Out::Sweep(_) => 0,
    }
}

/// Runs `f`, returning its result with wall and process CPU seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let (t0, c0) = (Instant::now(), sys::process_cpu_ns());
    let r = f();
    let cpu = (sys::process_cpu_ns() - c0) as f64 / 1e9;
    (r, t0.elapsed().as_secs_f64(), cpu)
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn result_json(checks: &Checks, metrics: &[(&str, &str, f64)]) -> String {
    let mut body = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    )
}

/// Where the traced run writes its spans: under the cargo target
/// directory, inside the checkout.
fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target
        .join("perfbench-spans")
        .join(format!("{}-seed{seed}.tsv", workload.name()))
}

/// Runs this binary once more as a set-up probe with the same
/// arguments and returns the seconds from starting it to its `ready`.
fn time_setup_probe() -> f64 {
    let exe = std::env::current_exe().expect("path of the running binary");
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(std::env::args().skip(1))
        .arg(SETUP_PROBE)
        .stdout(Stdio::piped())
        .spawn()
        .expect("start a set-up probe");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read the set-up probe");
    let secs = t0.elapsed().as_secs_f64();
    let status = child.wait().expect("wait for the set-up probe");
    assert!(
        status.success() && line.trim() == "ready",
        "set-up probe failed: {status}, said {line:?}"
    );
    secs
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }

    let set_up = || {
        let env = RunEnv::pin();
        let bench = Bench::new(args.workload, args.seed);
        bench.warm_up();
        (env, bench)
    };
    if args.setup_probe {
        set_up();
        println!("ready");
        return ExitCode::SUCCESS;
    }
    // Each set-up is timed from the start of its own process, so
    // one-time start-up work shows in every repetition.
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| time_setup_probe()).collect();
    let (env, bench) = set_up();
    eprintln!("set-up probes (s): {setups:.4?}");
    println!(
        "env workload={} seed={} seconds={} trace={} workers={} nproc={} profile={} git_revision={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        env.workers,
        env.nproc,
        env.profile,
        env.git_revision
    );

    let budget = Duration::from_secs(args.seconds);
    let mut checks = Checks::default();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let (mut traced_walls, mut traced_cpus) = (Vec::new(), Vec::new());
    let mut first: Option<Out> = None;
    let mut last_traced: Option<(Out, Vec<Span>)> = None;
    let start = Instant::now();
    loop {
        let (out, wall, cpu) = timed(|| bench.body(None));
        bench.check(&out, first.as_ref(), &mut checks);
        walls.push(wall);
        cpus.push(cpu);
        let sim_instr = sim_instructions(&out);
        first.get_or_insert(out);
        eprintln!(
            "pass {} untraced: wall {wall:.3} s, cpu {cpu:.3} s, {sim_instr} sim instructions",
            walls.len()
        );
        if args.trace {
            // Free the previous traced pass's runs before the next one.
            drop(last_traced.take());
            let rec = Recorder::new(bench.clock());
            let (out, wall, cpu) = timed(|| bench.body(Some(&rec)));
            bench.check(&out, first.as_ref(), &mut checks);
            traced_walls.push(wall);
            traced_cpus.push(cpu);
            eprintln!(
                "pass {} traced: wall {wall:.3} s, cpu {cpu:.3} s",
                traced_walls.len()
            );
            last_traced = Some((out, rec.finish()));
        }
        // Start another pass only if it should end within the budget,
        // so a run takes `--seconds` however long one pass is.
        let passes = walls.len() as u32;
        if start.elapsed() + start.elapsed() / passes > budget {
            break;
        }
    }
    let first = first.expect("at least one pass");
    if walls.len() == 1 && !args.trace && bench.self_checked() {
        // The only pass still needs a second replay to agree with.
        let again = bench.body(None);
        bench.check(&again, Some(&first), &mut checks);
    }
    let sim_instr = sim_instructions(&first);
    drop(first);

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let (out, spans) = last_traced.expect("a traced pass ran");
        let t = Timing {
            wall_s: median(&walls),
            cpu_s: median(&cpus),
            traced_wall_s: median(&traced_walls),
            traced_cpu_s: *traced_cpus.last().expect("a traced pass ran"),
        };
        let path = spans_path(args.workload, args.seed);
        if let Err(e) = spans::write_tsv(&path, &spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        let (mut m, recon) = bench.layers(out, &spans);
        layers::common(&mut m, &recon, &t, sim_instr);
        print!("{}", layers::render(args.workload.name(), &recon, &t));
        for name in m.keys() {
            assert!(
                layers::PER_LAYER.iter().any(|(n, _)| n == name),
                "metric {name} is not declared in PER_LAYER"
            );
        }
        layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, m.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let values = [
            median(&walls),
            median(&cpus),
            sys::peak_rss_mb(),
            median(&setups),
        ];
        layers::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    println!(
        "checks attempted={} failed={} fail_ratio={} passes={}",
        checks.attempted,
        checks.failed,
        checks.fail_ratio(),
        walls.len()
    );
    println!("{}", result_json(&checks, &metrics));
    ExitCode::SUCCESS
}
