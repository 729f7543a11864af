//! One evaluation cell, as the harness's main matrix runs it: emit the
//! BASE and OPT traces through `pmem`, then replay them on the seven
//! (core, design) pairs of Figure 9 through `runner::simulate`.

use poat_core::TranslationConfig;
use poat_harness::runner::{
    ideal, parallel, pipelined, simulate, warm_shard_span, Core, WorkloadRun, SHARD_MIN_OPS,
    SHARD_OPS,
};
use poat_pmem::{Trace, XlatStats};
use poat_sim::SimResult;

use crate::spans::{self, Recorder};

/// One of the seven replays of a cell.
#[derive(Clone, Copy, Debug)]
pub struct ReplaySpec {
    /// Replays the OPT trace (BASE otherwise).
    pub opt: bool,
    /// Core model.
    pub core: Core,
    /// Translation design label, as published by the harness.
    pub design: &'static str,
    /// The translation hardware this replay uses.
    pub translation: fn() -> TranslationConfig,
}

impl ReplaySpec {
    /// `config`/`core`/`design` labels of the harness's published series.
    pub fn labels(&self) -> [&'static str; 3] {
        let config = if self.opt { "opt" } else { "base" };
        let core = match self.core {
            Core::InOrder => "inorder",
            Core::OutOfOrder => "ooo",
        };
        [config, core, self.design]
    }
}

const fn spec(
    opt: bool,
    core: Core,
    design: &'static str,
    translation: fn() -> TranslationConfig,
) -> ReplaySpec {
    ReplaySpec {
        opt,
        core,
        design,
        translation,
    }
}

/// The replays of one cell, in the order the harness's `eval_cell`
/// runs them.
pub const REPLAYS: [ReplaySpec; 7] = [
    spec(false, Core::InOrder, "pipelined", pipelined),
    spec(false, Core::OutOfOrder, "pipelined", pipelined),
    spec(true, Core::InOrder, "pipelined", pipelined),
    spec(true, Core::InOrder, "parallel", parallel),
    spec(true, Core::InOrder, "ideal", ideal),
    spec(true, Core::OutOfOrder, "pipelined", pipelined),
    spec(true, Core::OutOfOrder, "ideal", ideal),
];

/// Index in [`REPLAYS`] of the in-order Pipelined OPT replay.
pub const OPT_INO_PIPE: usize = 2;
/// Index in [`REPLAYS`] of the in-order Parallel OPT replay.
pub const OPT_INO_PAR: usize = 3;

/// What one replay produced.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Which replay this is.
    pub spec: ReplaySpec,
    /// Ops in the replayed trace.
    pub trace_ops: u64,
    /// Ops the replay decoded, shard warmup included (traced passes
    /// only; 0 otherwise).
    pub replayed_ops: u64,
    /// The simulator's result.
    pub result: SimResult,
}

/// What one trace emission produced.
#[derive(Clone, Copy, Debug)]
pub struct Emission {
    /// Ops in the emitted trace.
    pub ops: u64,
    /// Encoded size of the trace in bytes.
    pub bytes: u64,
    /// `nvld` + `nvst` ops in the trace.
    pub nv_ops: u64,
    /// Software-translation counters of the run.
    pub xlat: XlatStats,
}

impl Emission {
    /// Summarizes a finished run.
    pub fn of(run: &WorkloadRun) -> Self {
        Emission {
            ops: run.trace.len() as u64,
            bytes: run.trace.encoded_bytes() as u64,
            nv_ops: run.summary.nvloads + run.summary.nvstores,
            xlat: run.xlat,
        }
    }
}

/// Runs one trace emission (`run_micro*`/`run_tpcc`) in a `pmem.emit`
/// span.
pub fn emit(rec: Option<&Recorder>, label: &str, f: impl FnOnce() -> WorkloadRun) -> WorkloadRun {
    spans::maybe(rec, "pmem.emit", label, f)
}

/// Ops a replay of `trace` decodes: the whole trace, or, for a trace
/// the harness shards, every shard plus its one-chunk warmup.
pub fn replayed_ops(trace: &Trace) -> u64 {
    if trace.len() < SHARD_MIN_OPS {
        return trace.len() as u64;
    }
    let bounds = trace.chunk_bounds(SHARD_OPS);
    if bounds.len() < 2 {
        return trace.len() as u64;
    }
    (0..bounds.len())
        .map(|k| warm_shard_span(&bounds, k).0.ops as u64)
        .sum()
}

/// Replays a cell's BASE and OPT runs on the seven [`REPLAYS`], each in
/// a `sim.inorder`/`sim.ooo` span, and publishes every result under the
/// same labels as the harness's main matrix.
pub fn replay_cell(
    bench: &str,
    pattern: &str,
    base: &WorkloadRun,
    opt: &WorkloadRun,
    rec: Option<&Recorder>,
) -> Vec<Replay> {
    REPLAYS
        .iter()
        .map(|spec| {
            let run = if spec.opt { opt } else { base };
            let name = match spec.core {
                Core::InOrder => "sim.inorder",
                Core::OutOfOrder => "sim.ooo",
            };
            let result = spans::maybe(rec, name, &run.label, || {
                simulate(run, spec.core, (spec.translation)())
            });
            let [config, core, design] = spec.labels();
            result.publish(&[
                ("artifact", "main_matrix"),
                ("bench", bench),
                ("pattern", pattern),
                ("config", config),
                ("core", core),
                ("design", design),
            ]);
            Replay {
                spec: *spec,
                trace_ops: run.trace.len() as u64,
                replayed_ops: if rec.is_some() {
                    replayed_ops(&run.trace)
                } else {
                    0
                },
                result,
            }
        })
        .collect()
}

/// The per-call records of one traced pass.
#[derive(Debug, Default)]
pub struct Calls {
    /// Every trace emission.
    pub emissions: Vec<Emission>,
    /// Every replay.
    pub replays: Vec<Replay>,
    /// The emitted runs, `(base, opt)` per cell, kept for the probes.
    pub runs: Vec<(WorkloadRun, WorkloadRun)>,
}
