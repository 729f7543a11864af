//! `matrix_quick`: the 20-cell Figure 9a/9b / Table 8 / instruction
//! matrix behind `repro all --quick`.
//!
//! Salt 0 runs `experiments::main_matrix(Scale::Quick)` itself and
//! checks every cell against values pinned from the seed commit. Any
//! other salt re-seeds the micro cells through `run_micro_seeded` and
//! checks them against the run's first pass; the TPC-C cells have no
//! seed hook and stay checked against their pins. The traced pass runs
//! the same cells call by call so each layer call gets its own span.

use poat_harness::experiments::main_matrix;
use poat_harness::runner::{default_workers, parallel_map, run_micro_seeded, run_tpcc, Scale};
use poat_workloads::{ExpConfig, Micro, Pattern, TpccPattern};

use crate::cell::{emit, replay_cell, Calls, Emission, Replay, OPT_INO_PAR, OPT_INO_PIPE, REPLAYS};
use crate::check::Checks;
use crate::spans::{self, Recorder};

const PINS: &str = include_str!("../pins/matrix_quick.tsv");

/// The outputs of one cell that the checks compare.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Workload abbreviation (`LL` … `TPCC`).
    pub bench: String,
    /// Pattern label.
    pub pattern: String,
    /// Simulated cycles of the seven replays, in [`REPLAYS`] order.
    pub cycles: [u64; 7],
    /// BASE dynamic instructions.
    pub base_instr: u64,
    /// OPT dynamic instructions.
    pub opt_instr: u64,
    /// POLB `(hits, misses)` of the in-order Pipelined and Parallel OPT
    /// replays (the two Table 8 miss rates).
    pub polb: [(u64, u64); 2],
}

impl Cell {
    /// The cell as one line of `pins/matrix_quick.tsv`.
    pub fn pin_line(&self) -> String {
        let mut f: Vec<String> = vec![self.bench.clone(), self.pattern.clone()];
        f.extend(self.cycles.iter().map(u64::to_string));
        f.push(self.base_instr.to_string());
        f.push(self.opt_instr.to_string());
        for (h, m) in self.polb {
            f.push(h.to_string());
            f.push(m.to_string());
        }
        f.join("\t")
    }

    fn parse(line: &str) -> Cell {
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(f.len(), 15, "malformed pin line: {line}");
        let n = |i: usize| -> u64 { f[i].parse().expect("numeric pin field") };
        Cell {
            bench: f[0].to_owned(),
            pattern: f[1].to_owned(),
            cycles: std::array::from_fn(|i| n(2 + i)),
            base_instr: n(9),
            opt_instr: n(10),
            polb: [(n(11), n(12)), (n(13), n(14))],
        }
    }

    fn from_replays(bench: String, pattern: String, base: u64, opt: u64, r: &[Replay]) -> Cell {
        let polb = |i: usize| {
            let p = r[i].result.translation.polb;
            (p.hits, p.misses)
        };
        Cell {
            bench,
            pattern,
            cycles: std::array::from_fn(|i| r[i].result.cycles),
            base_instr: base,
            opt_instr: opt,
            polb: [polb(OPT_INO_PIPE), polb(OPT_INO_PAR)],
        }
    }
}

/// The cells pinned from the seed commit (salt 0).
pub fn pinned() -> Vec<Cell> {
    PINS.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(Cell::parse)
        .collect()
}

/// What one pass of the matrix produced.
#[derive(Debug)]
pub struct MatrixOut {
    /// Every cell, in matrix order.
    pub cells: Vec<Cell>,
    /// Instructions retired across all replays.
    pub sim_instructions: u64,
    /// Per-call records (traced passes only).
    pub calls: Option<Calls>,
}

#[derive(Clone, Copy)]
enum Work {
    M(Micro, Pattern),
    T(TpccPattern),
}

impl Work {
    fn labels(self) -> (&'static str, &'static str) {
        match self {
            Work::M(b, p) => (b.abbrev(), p.label()),
            Work::T(p) => ("TPCC", p.label()),
        }
    }
}

/// The matrix cells in `main_matrix` order.
fn work() -> Vec<Work> {
    let mut w: Vec<Work> = Micro::ALL
        .iter()
        .flat_map(|&b| Pattern::ALL.map(|p| Work::M(b, p)))
        .collect();
    w.push(Work::T(TpccPattern::All));
    w.push(Work::T(TpccPattern::Each));
    w
}

/// One pass of the matrix. Untraced at salt 0 it is the harness's own
/// `main_matrix`; otherwise the cells run call by call.
pub fn run(salt: u64, rec: Option<&Recorder>) -> MatrixOut {
    if salt == 0 && rec.is_none() {
        via_main_matrix()
    } else {
        call_by_call(salt, rec)
    }
}

/// Reads one of the `sim.result.*` counters `main_matrix` publishes.
fn published(bench: &str, pattern: &str, i: usize, series: &str) -> u64 {
    let [config, core, design] = REPLAYS[i].labels();
    let name = poat_telemetry::labeled(
        series,
        &[
            ("artifact", "main_matrix"),
            ("bench", bench),
            ("pattern", pattern),
            ("config", config),
            ("core", core),
            ("design", design),
        ],
    );
    poat_telemetry::global().counter(&name).get()
}

const SERIES: [&str; 4] = [
    "sim.result.cycles",
    "sim.result.instructions",
    "sim.result.polb_hits",
    "sim.result.polb_misses",
];

fn snapshot() -> Vec<[[u64; 4]; 7]> {
    work()
        .into_iter()
        .map(|w| {
            let (b, p) = w.labels();
            std::array::from_fn(|i| std::array::from_fn(|s| published(b, p, i, SERIES[s])))
        })
        .collect()
}

fn via_main_matrix() -> MatrixOut {
    let before = snapshot();
    let results = main_matrix(Scale::Quick);
    let after = snapshot();
    let mut sim_instructions = 0;
    let cells = work()
        .into_iter()
        .zip(before.iter().zip(&after))
        .zip(&results.instrs)
        .map(|((w, (b, a)), instr)| {
            let d = |i: usize, s: usize| a[i][s] - b[i][s];
            sim_instructions += (0..7).map(|i| d(i, 1)).sum::<u64>();
            let (bench, pattern) = w.labels();
            assert_eq!((bench, pattern), (&*instr.bench, &*instr.pattern));
            Cell {
                bench: bench.to_owned(),
                pattern: pattern.to_owned(),
                cycles: std::array::from_fn(|i| d(i, 0)),
                base_instr: instr.base_instructions,
                opt_instr: instr.opt_instructions,
                polb: [
                    (d(OPT_INO_PIPE, 2), d(OPT_INO_PIPE, 3)),
                    (d(OPT_INO_PAR, 2), d(OPT_INO_PAR, 3)),
                ],
            }
        })
        .collect();
    MatrixOut {
        cells,
        sim_instructions,
        calls: None,
    }
}

type CellPass = (
    Cell,
    Vec<Replay>,
    [Emission; 2],
    Option<(poat_harness::WorkloadRun, poat_harness::WorkloadRun)>,
);

fn call_by_call(salt: u64, rec: Option<&Recorder>) -> MatrixOut {
    let outs: Vec<CellPass> = parallel_map(work(), default_workers(), |w| {
        let (bench, pattern) = w.labels();
        let label = format!("{bench}/{pattern}");
        spans::maybe(rec, "harness.cell", &label, || {
            let run = |config: ExpConfig| match w {
                Work::M(b, p) => emit(rec, &label, || {
                    run_micro_seeded(b, p, config, Scale::Quick, salt, |_| {})
                }),
                Work::T(p) => emit(rec, &label, || run_tpcc(p, config, Scale::Quick)),
            };
            let base = run(ExpConfig::Base);
            let opt = run(ExpConfig::Opt);
            let replays = replay_cell(bench, pattern, &base, &opt, rec);
            let cell = Cell::from_replays(
                bench.to_owned(),
                pattern.to_owned(),
                base.summary.instructions,
                opt.summary.instructions,
                &replays,
            );
            let emissions = [Emission::of(&base), Emission::of(&opt)];
            (cell, replays, emissions, rec.map(|_| (base, opt)))
        })
    });
    let mut calls = Calls::default();
    let mut cells = Vec::new();
    for (cell, replays, emissions, runs) in outs {
        cells.push(cell);
        calls.replays.extend(replays);
        calls.emissions.extend(emissions);
        calls.runs.extend(runs);
    }
    MatrixOut {
        cells,
        sim_instructions: calls.replays.iter().map(|r| r.result.instructions).sum(),
        calls: rec.map(|_| calls),
    }
}

/// Checks a pass. The TPC-C cells, which no salt changes, and every
/// cell at salt 0 must equal the pinned cells. At any other salt a
/// micro cell must equal the same cell of this run's first pass; the
/// first pass itself (`first == None`) has nothing to agree with yet.
pub fn check(salt: u64, out: &MatrixOut, first: Option<&MatrixOut>, checks: &mut Checks) {
    let pins = pinned();
    checks.eq("matrix_quick cell count", out.cells.len(), pins.len());
    for cell in &out.cells {
        let id = format!("matrix_quick {}/{}", cell.bench, cell.pattern);
        let want: &[Cell] = match first {
            _ if salt == 0 || cell.bench == "TPCC" => &pins,
            Some(f) => &f.cells,
            None => continue,
        };
        let Some(w) = want
            .iter()
            .find(|w| w.bench == cell.bench && w.pattern == cell.pattern)
        else {
            checks.expect(&id, false, || {
                format!("no reference cell; PIN {}", cell.pin_line())
            });
            continue;
        };
        let before = checks.failed;
        for (i, spec) in REPLAYS.iter().enumerate() {
            let [config, core, design] = spec.labels();
            checks.eq(
                &format!("{id} cycles {config}/{core}/{design}"),
                cell.cycles[i],
                w.cycles[i],
            );
        }
        checks.eq(
            &format!("{id} BASE instructions"),
            cell.base_instr,
            w.base_instr,
        );
        checks.eq(
            &format!("{id} OPT instructions"),
            cell.opt_instr,
            w.opt_instr,
        );
        checks.eq(
            &format!("{id} Pipelined POLB (hits, misses)"),
            cell.polb[0],
            w.polb[0],
        );
        checks.eq(
            &format!("{id} Parallel POLB (hits, misses)"),
            cell.polb[1],
            w.polb[1],
        );
        if checks.failed > before {
            eprintln!("PIN {}", cell.pin_line());
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_matrix_cell_is_pinned_once() {
        let pins = super::pinned();
        let cells: Vec<(&str, &str)> = super::work().into_iter().map(|w| w.labels()).collect();
        assert_eq!(pins.len(), cells.len());
        for (bench, pattern) in cells {
            let n = pins
                .iter()
                .filter(|p| p.bench == bench && p.pattern == pattern)
                .count();
            assert_eq!(n, 1, "{bench}/{pattern}");
        }
    }
}
