//! Standalone layer probes of the traced run. Each probe drives one
//! layer's public functions over the traces the traced pass emitted and
//! reports that layer's cost per operation, on the probing thread's CPU
//! clock. They run after the traced pass, so they do not count in its
//! wall time.

use std::hint::black_box;

use poat_core::{ObjectId, VirtAddr};
use poat_harness::runner::{parallel, pipelined, Core, Scale, WorkloadRun};
use poat_pmem::{Runtime, Trace, TraceOp};
use poat_sim::cache::MemoryHierarchy;
use poat_sim::pagemap::PageMap;
use poat_sim::tlb::Tlb;
use poat_sim::xlate::TranslationUnit;
use poat_sim::{simulate_inorder, SimConfig};
use poat_workloads::{ExpConfig, Tpcc, TpccConfig, TpccPattern};

use crate::cell::REPLAYS;
use crate::sys::thread_cpu_ns;

/// Ops buffered per timed batch: large enough that the two clock reads
/// around a batch cost nothing, small enough to keep memory flat.
const BATCH: usize = 1 << 16;

/// Per-op costs of the replay layers.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    /// `Trace::ops()`, per op decoded.
    pub decode_ns_per_op: f64,
    /// `Trace::push`, per op encoded.
    pub encode_ns_per_op: f64,
    /// `Tlb::access`, per access.
    pub tlb_ns_per_access: f64,
    /// `MemoryHierarchy::access`, per access.
    pub cache_ns_per_access: f64,
    /// `TranslationUnit::translate`, Pipelined design, per op.
    pub xlate_ns_per_op: f64,
    /// `TranslationUnit::translate`, Parallel design, per op.
    pub xlate_parallel_ns_per_op: f64,
    /// Direct `simulate_inorder` over every in-order replay of the
    /// pass, whole trace, never sharded.
    pub whole_trace_inorder_s: f64,
}

fn per_op(ns: u64, ops: u64) -> f64 {
    ns as f64 / ops.max(1) as f64
}

/// Times `work` over the trace's ops in batches of [`BATCH`] items that
/// `pick` selects, returning (CPU ns, items).
fn batched<T>(
    trace: &Trace,
    pick: impl Fn(&TraceOp) -> Option<T>,
    mut work: impl FnMut(&[T]),
) -> (u64, u64) {
    let (mut ns, mut n) = (0, 0);
    let mut buf = Vec::with_capacity(BATCH);
    let mut flush = |buf: &mut Vec<T>| {
        let t0 = thread_cpu_ns();
        work(buf);
        ns += thread_cpu_ns() - t0;
        n += buf.len() as u64;
        buf.clear();
    };
    for op in trace.ops() {
        if let Some(x) = pick(&op) {
            buf.push(x);
            if buf.len() == BATCH {
                flush(&mut buf);
            }
        }
    }
    flush(&mut buf);
    (ns, n)
}

fn mem_va(op: &TraceOp) -> Option<VirtAddr> {
    match *op {
        TraceOp::Load { va, .. }
        | TraceOp::Store { va, .. }
        | TraceOp::NvLoad { va, .. }
        | TraceOp::NvStore { va, .. } => Some(va),
        _ => None,
    }
}

fn nv_op(op: &TraceOp) -> Option<(ObjectId, VirtAddr)> {
    match *op {
        TraceOp::NvLoad { oid, va, .. } | TraceOp::NvStore { oid, va, .. } => Some((oid, va)),
        _ => None,
    }
}

/// Probes the replay layers over a traced pass's `(base, opt)` runs.
pub fn replay(runs: &[(WorkloadRun, WorkloadRun)]) -> Replay {
    let traces = || runs.iter().flat_map(|(b, o)| [b, o]);
    let (mut dec, mut dec_n) = (0, 0);
    let (mut enc, mut enc_n) = (0, 0);
    for run in traces() {
        let t0 = thread_cpu_ns();
        let n = run.trace.ops().map(black_box).count() as u64;
        dec += thread_cpu_ns() - t0;
        dec_n += n;
        let mut fresh = Trace::new();
        let (ns, n) = batched(
            &run.trace,
            |op| Some(*op),
            |ops| {
                for &op in ops {
                    black_box(fresh.push(op));
                }
            },
        );
        enc += ns;
        enc_n += n;
        black_box(fresh.len());
    }

    let cfg = SimConfig::with_translation(pipelined());
    let (mut tlb_ns, mut tlb_n, mut hier_ns, mut hier_n) = (0, 0, 0, 0);
    let mut xlate = [(0, 0); 2];
    for (_, opt) in runs {
        let pmap = PageMap::new(&opt.state.page_table);
        let mut tlb = Tlb::new(cfg.mem.dtlb_entries);
        let (ns, n) = batched(&opt.trace, mem_va, |vas| {
            for va in vas {
                black_box(tlb.access(va.raw()));
            }
        });
        tlb_ns += ns;
        tlb_n += n;
        let mut hier = MemoryHierarchy::new(&cfg.mem);
        let (ns, n) = batched(
            &opt.trace,
            |op| mem_va(op).map(|va| pmap.phys_of(va)),
            |pas| {
                for &pa in pas {
                    black_box(hier.access(pa));
                }
            },
        );
        hier_ns += ns;
        hier_n += n;
        for (slot, design) in xlate.iter_mut().zip([pipelined(), parallel()]) {
            let mut unit = TranslationUnit::new(design, &opt.state);
            let (ns, n) = batched(&opt.trace, nv_op, |ops| {
                for &(oid, va) in ops {
                    black_box(unit.translate(oid, va));
                }
            });
            slot.0 += ns;
            slot.1 += n;
        }
    }

    let t0 = thread_cpu_ns();
    for (base, opt) in runs {
        for spec in REPLAYS.iter().filter(|s| s.core == Core::InOrder) {
            let run = if spec.opt { opt } else { base };
            let cfg = SimConfig::with_translation((spec.translation)());
            black_box(
                simulate_inorder(&run.trace, &run.state, &cfg).expect("in-order runs every design"),
            );
        }
    }
    let whole_ns = thread_cpu_ns() - t0;

    Replay {
        decode_ns_per_op: per_op(dec, dec_n),
        encode_ns_per_op: per_op(enc, enc_n),
        tlb_ns_per_access: per_op(tlb_ns, tlb_n),
        cache_ns_per_access: per_op(hier_ns, hier_n),
        xlate_ns_per_op: per_op(xlate[0].0, xlate[0].1),
        xlate_parallel_ns_per_op: per_op(xlate[1].0, xlate[1].1),
        whole_trace_inorder_s: whole_ns as f64 / 1e9,
    }
}

/// CPU seconds of TPC-C population and of the transaction phase, each
/// on a fresh runtime, summed over the BASE and OPT runs of `patterns`
/// — the two halves of `run_tpcc`, timed apart.
pub fn tpcc_phases(patterns: &[TpccPattern], scale: Scale) -> (f64, f64) {
    let (mut populate, mut txn) = (0, 0);
    for &pattern in patterns {
        for config in [ExpConfig::Base, ExpConfig::Opt] {
            // The seed `run_tpcc` uses for this pattern.
            let seed = 0x7C0C + matches!(pattern, TpccPattern::Each) as u64;
            let mut rt = Runtime::new(config.runtime_config(seed));
            let cfg = TpccConfig {
                scale: scale.tpcc_scale(),
                seed,
            };
            let t0 = thread_cpu_ns();
            let mut tpcc = Tpcc::setup(&mut rt, pattern, cfg).expect("TPC-C population");
            let t1 = thread_cpu_ns();
            rt.take_trace();
            let t2 = thread_cpu_ns();
            tpcc.run(&mut rt, scale.tpcc_transactions())
                .expect("TPC-C transactions");
            let t3 = thread_cpu_ns();
            populate += t1 - t0;
            txn += t3 - t2;
        }
    }
    (populate as f64 / 1e9, txn as f64 / 1e9)
}
