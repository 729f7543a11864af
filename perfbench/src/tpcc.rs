//! `tpcc_full`: one full-scale TPC-C ALL cell — `run_tpcc` for BASE and
//! OPT (population included), then `runner::simulate` for the seven
//! (core, design) pairs of the main matrix. Its 6–8 M-op traces are the
//! only ones in the benchmark long enough for the harness to shard.
//!
//! `run_tpcc` fixes its own seeds, so this workload has no seed hook:
//! every salt runs the same inputs and is checked against the same pins.

use std::collections::BTreeMap;

use poat_harness::runner::{run_tpcc, Scale};
use poat_harness::WorkloadRun;
use poat_workloads::{ExpConfig, TpccPattern};

use crate::cell::{emit, replay_cell, Emission, Replay, REPLAYS};
use crate::check::Checks;
use crate::spans::{self, Recorder};

const PINS: &str = include_str!("../pins/tpcc_full.tsv");

/// Relative tolerance on the OPT/BASE speedups against the pinned
/// whole-trace reference. Sharded replay moves them by up to +0.85%
/// (in-order) and +1.6% (out-of-order); an exact whole-trace replay
/// moves them by 0.
pub const SPEEDUP_TOL: f64 = 0.03;

/// The five OPT/BASE speedups: name, BASE replay, OPT replay (indices
/// into [`REPLAYS`]).
pub const SPEEDUPS: [(&str, usize, usize); 5] = [
    ("inorder/pipelined", 0, 2),
    ("inorder/parallel", 0, 3),
    ("inorder/ideal", 0, 4),
    ("ooo/pipelined", 1, 5),
    ("ooo/ideal", 1, 6),
];

/// What one pass produced.
#[derive(Debug)]
pub struct TpccOut {
    /// The seven replays, in [`REPLAYS`] order.
    pub replays: Vec<Replay>,
    /// BASE and OPT emissions.
    pub emissions: [Emission; 2],
    /// The BASE and OPT runs (traced passes only).
    pub runs: Option<(WorkloadRun, WorkloadRun)>,
}

impl TpccOut {
    /// Instructions retired across all replays.
    pub fn sim_instructions(&self) -> u64 {
        self.replays.iter().map(|r| r.result.instructions).sum()
    }

    /// OPT/BASE speedup of one [`SPEEDUPS`] entry.
    pub fn speedup(&self, base: usize, opt: usize) -> f64 {
        self.replays[base].result.cycles as f64 / self.replays[opt].result.cycles as f64
    }
}

/// One pass of the cell.
pub fn run(rec: Option<&Recorder>) -> TpccOut {
    let label = "TPCC/TPCC_ALL";
    spans::maybe(rec, "harness.cell", label, || {
        let base = emit(rec, label, || {
            run_tpcc(TpccPattern::All, ExpConfig::Base, Scale::Full)
        });
        let opt = emit(rec, label, || {
            run_tpcc(TpccPattern::All, ExpConfig::Opt, Scale::Full)
        });
        let replays = replay_cell("TPCC", "TPCC_ALL", &base, &opt, rec);
        TpccOut {
            replays,
            emissions: [Emission::of(&base), Emission::of(&opt)],
            runs: rec.map(|_| (base, opt)),
        }
    })
}

fn pins() -> BTreeMap<String, String> {
    PINS.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (k, v) = l.rsplit_once('\t').expect("pin line is `key<TAB>value`");
            (k.to_owned(), v.trim().to_owned())
        })
        .collect()
}

/// Checks a pass against the pins: the counts sharding cannot change
/// exactly, and the speedups within [`SPEEDUP_TOL`] of the whole-trace
/// reference. Per-replay cycles move under sharding and are not pinned.
pub fn check(out: &TpccOut, checks: &mut Checks) {
    let pins = pins();
    let mut exact = |key: String, got: u64| {
        let want = pins.get(&key).and_then(|v| v.parse::<u64>().ok());
        let ok = want == Some(got);
        checks.expect(&format!("tpcc_full {key}"), ok, || {
            format!("got {got}, want {want:?}; PIN {key}\t{got}")
        });
    };
    for (spec, r) in REPLAYS.iter().zip(&out.replays) {
        exact(
            format!("instructions\t{}", spec.labels().join("/")),
            r.result.instructions,
        );
    }
    for (config, e) in ["base", "opt"].iter().zip(&out.emissions) {
        exact(format!("trace_ops\t{config}"), e.ops);
        exact(format!("nv_ops\t{config}"), e.nv_ops);
        exact(format!("xlat_calls\t{config}"), e.xlat.calls);
    }
    for (name, b, o) in SPEEDUPS {
        let key = format!("speedup\t{name}");
        let got = out.speedup(b, o);
        match pins.get(&key).and_then(|v| v.parse::<f64>().ok()) {
            Some(want) => checks.near(&format!("tpcc_full {key}"), got, want, SPEEDUP_TOL),
            None => checks.expect(&format!("tpcc_full {key}"), false, || {
                format!("no pinned reference; PIN {key}\t{got}")
            }),
        }
    }
}
