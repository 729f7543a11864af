//! Per-layer metrics of the traced run and the reconciliation of layer
//! time against CPU time.

use std::collections::BTreeMap;

use poat_harness::runner::Core;

use crate::cell::Calls;
use crate::probes;
use crate::spans::{self, Span};
use crate::sweep;
use crate::sys::WORKERS;

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced run): name and unit. A layer a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("pmem.emit_s", "s"),
    ("pmem.emit_ns_per_op", "ns"),
    ("pmem.trace_ops", "count"),
    ("pmem.trace_bytes_per_op", "B"),
    ("pmem.xlat_predictor_hit_ratio", "ratio"),
    ("workloads.tpcc_populate_s", "s"),
    ("workloads.tpcc_txn_s", "s"),
    ("pmem.trace.decode_ns_per_op", "ns"),
    ("pmem.trace.encode_ns_per_op", "ns"),
    ("sim.inorder_s", "s"),
    ("sim.inorder_ns_per_op", "ns"),
    ("sim.ooo_s", "s"),
    ("sim.ooo_ns_per_op", "ns"),
    ("sim.instructions", "count"),
    ("sim.cycles", "count"),
    ("sim.mips", "MIPS"),
    ("sim.tlb_ns_per_access", "ns"),
    ("sim.tlb_accesses", "count"),
    ("sim.tlb_miss_ratio", "ratio"),
    ("sim.cache_ns_per_access", "ns"),
    ("sim.cache_accesses", "count"),
    ("sim.l1_miss_ratio", "ratio"),
    ("core.xlate_ns_per_op", "ns"),
    ("core.xlate_parallel_ns_per_op", "ns"),
    ("core.polb_lookups", "count"),
    ("core.polb_miss_ratio", "ratio"),
    ("core.pot_walks", "count"),
    ("harness.shard_replay_ratio", "ratio"),
    ("harness.whole_trace_inorder_s", "s"),
    ("harness.pool_busy_frac", "ratio"),
    ("harness.cell_s_p50", "s"),
    ("harness.cell_s_max", "s"),
    ("pmem.sweep.enumerate_s", "s"),
    ("pmem.sweep.run_us_p50", "us"),
    ("pmem.sweep.run_us_p99", "us"),
    ("pmem.sweep.build_us", "us"),
    ("pmem.sweep.drive_us", "us"),
    ("nvm.crash_recover_us", "us"),
    ("pmem.sweep.verify_us", "us"),
    ("pmem.sweep.digest_us", "us"),
    ("pmem.sweep.runs", "count"),
    ("pmem.sweep.crashes", "count"),
    ("pmem.sweep.max_undo", "count"),
    ("recon.layer_sum_s", "s"),
    ("recon.residual_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("model.tpcc_all_pipelined_speedup", "x"),
    ("model.tpcc_err_vs_paper", "ratio"),
    ("sim.replay_cpu_frac", "ratio"),
];

/// The paper's TPC-C ALL in-order Pipelined speedup (Figure 9a).
pub const PAPER_TPCC_ALL_SPEEDUP: f64 = 1.10;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Timings of one traced run.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Median untraced pass, wall seconds.
    pub wall_s: f64,
    /// Median untraced pass, CPU seconds.
    pub cpu_s: f64,
    /// Median traced pass, wall seconds.
    pub traced_wall_s: f64,
    /// CPU seconds of the traced pass whose spans are reconciled (the
    /// last one).
    pub traced_cpu_s: f64,
}

/// One row of a reconciliation table: a layer's cost per operation
/// times the operations the traced pass made.
#[derive(Clone, Debug)]
pub struct Row {
    /// Layer.
    pub layer: &'static str,
    /// Cost per operation, ns.
    pub ns_per_op: f64,
    /// Operations.
    pub ops: f64,
}

impl Row {
    fn new(layer: &'static str, ns_per_op: f64, ops: f64) -> Self {
        Row {
            layer,
            ns_per_op,
            ops,
        }
    }

    /// Estimated CPU seconds.
    pub fn est_s(&self) -> f64 {
        self.ns_per_op * self.ops / 1e9
    }
}

/// The reconciliation of one traced pass.
#[derive(Clone, Debug)]
pub struct Recon {
    /// Disjoint layers whose sum is compared with CPU time.
    pub rows: Vec<Row>,
    /// Split of the replay rows by probe cost × body counts (the last
    /// row is the core model, what the probes do not cover).
    pub replay_split: Vec<Row>,
}

impl Recon {
    /// Sum of the layer rows, CPU seconds.
    pub fn layer_sum_s(&self) -> f64 {
        self.rows.iter().map(Row::est_s).sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile of unsorted `v`.
fn percentile(v: &mut [u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn cell_times(m: &mut Metrics, spans: &[Span]) {
    let mut cells: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "harness.cell")
        .map(Span::wall_ns)
        .collect();
    m.insert(
        "harness.cell_s_p50",
        percentile(&mut cells, 0.5) as f64 / 1e9,
    );
    m.insert(
        "harness.cell_s_max",
        percentile(&mut cells, 1.0) as f64 / 1e9,
    );
}

/// Layers of a workload that emits and replays traces.
pub fn sim(
    calls: &Calls,
    spans: &[Span],
    probe: &probes::Replay,
    tpcc_phases: (f64, f64),
    tpcc_all_speedup: f64,
) -> (Metrics, Recon) {
    let mut m = Metrics::new();
    let ops: u64 = calls.emissions.iter().map(|e| e.ops).sum();
    let bytes: u64 = calls.emissions.iter().map(|e| e.bytes).sum();
    let (hits, misses) = calls.emissions.iter().fold((0, 0), |(h, mi), e| {
        (h + e.xlat.predictor_hits, mi + e.xlat.predictor_misses)
    });
    let emit_s = spans::cpu_s(spans, "pmem.emit");
    m.insert("pmem.emit_s", emit_s);
    m.insert("pmem.emit_ns_per_op", ratio(emit_s * 1e9, ops as f64));
    m.insert("pmem.trace_ops", ops as f64);
    m.insert("pmem.trace_bytes_per_op", ratio(bytes as f64, ops as f64));
    m.insert(
        "pmem.xlat_predictor_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    m.insert("workloads.tpcc_populate_s", tpcc_phases.0);
    m.insert("workloads.tpcc_txn_s", tpcc_phases.1);
    m.insert("pmem.trace.decode_ns_per_op", probe.decode_ns_per_op);
    m.insert("pmem.trace.encode_ns_per_op", probe.encode_ns_per_op);

    let replayed = |core: Core| -> u64 {
        calls
            .replays
            .iter()
            .filter(|r| r.spec.core == core)
            .map(|r| r.replayed_ops)
            .sum()
    };
    let (ino_ops, ooo_ops) = (replayed(Core::InOrder), replayed(Core::OutOfOrder));
    let ino_s = spans::cpu_s(spans, "sim.inorder");
    let ooo_s = spans::cpu_s(spans, "sim.ooo");
    m.insert("sim.inorder_s", ino_s);
    m.insert("sim.inorder_ns_per_op", ratio(ino_s * 1e9, ino_ops as f64));
    m.insert("sim.ooo_s", ooo_s);
    m.insert("sim.ooo_ns_per_op", ratio(ooo_s * 1e9, ooo_ops as f64));

    let results = || calls.replays.iter().map(|r| &r.result);
    let sum = |f: &dyn Fn(&poat_sim::SimResult) -> u64| -> u64 { results().map(f).sum() };
    m.insert("sim.instructions", sum(&|r| r.instructions) as f64);
    m.insert("sim.cycles", sum(&|r| r.cycles) as f64);
    let tlb_acc = sum(&|r| r.tlb.hits + r.tlb.misses);
    m.insert("sim.tlb_ns_per_access", probe.tlb_ns_per_access);
    m.insert("sim.tlb_accesses", tlb_acc as f64);
    m.insert(
        "sim.tlb_miss_ratio",
        ratio(sum(&|r| r.tlb.misses) as f64, tlb_acc as f64),
    );
    let l1_acc = sum(&|r| r.cache.l1d.hits + r.cache.l1d.misses);
    m.insert("sim.cache_ns_per_access", probe.cache_ns_per_access);
    m.insert("sim.cache_accesses", l1_acc as f64);
    m.insert(
        "sim.l1_miss_ratio",
        ratio(sum(&|r| r.cache.l1d.misses) as f64, l1_acc as f64),
    );
    let lookups = |design: &str| -> u64 {
        calls
            .replays
            .iter()
            .filter(|r| r.spec.design == design)
            .map(|r| r.result.translation.polb.lookups())
            .sum()
    };
    let polb = sum(&|r| r.translation.polb.lookups());
    m.insert("core.xlate_ns_per_op", probe.xlate_ns_per_op);
    m.insert(
        "core.xlate_parallel_ns_per_op",
        probe.xlate_parallel_ns_per_op,
    );
    m.insert("core.polb_lookups", polb as f64);
    m.insert(
        "core.polb_miss_ratio",
        ratio(sum(&|r| r.translation.polb.misses) as f64, polb as f64),
    );
    m.insert("core.pot_walks", sum(&|r| r.translation.pot_walks) as f64);

    let trace_ops: u64 = calls.replays.iter().map(|r| r.trace_ops).sum();
    m.insert(
        "harness.shard_replay_ratio",
        ratio((ino_ops + ooo_ops) as f64, trace_ops as f64),
    );
    m.insert("harness.whole_trace_inorder_s", probe.whole_trace_inorder_s);
    cell_times(&mut m, spans);
    m.insert("model.tpcc_all_pipelined_speedup", tpcc_all_speedup);
    m.insert(
        "model.tpcc_err_vs_paper",
        (tpcc_all_speedup / PAPER_TPCC_ALL_SPEEDUP - 1.0).abs(),
    );

    let all_ops = (ino_ops + ooo_ops) as f64;
    let mut split = vec![
        Row::new("pmem.trace decode", probe.decode_ns_per_op, all_ops),
        Row::new("sim.tlb", probe.tlb_ns_per_access, tlb_acc as f64),
        Row::new("sim.cache", probe.cache_ns_per_access, l1_acc as f64),
        Row::new(
            "core xlate pipelined",
            probe.xlate_ns_per_op,
            lookups("pipelined") as f64,
        ),
        Row::new(
            "core xlate parallel",
            probe.xlate_parallel_ns_per_op,
            lookups("parallel") as f64,
        ),
    ];
    let covered: f64 = split.iter().map(Row::est_s).sum();
    split.push(Row::new(
        "sim core model (rest)",
        ratio((ino_s + ooo_s - covered) * 1e9, all_ops),
        all_ops,
    ));
    let recon = Recon {
        rows: vec![
            Row::new("pmem emit", ratio(emit_s * 1e9, ops as f64), ops as f64),
            Row::new(
                "sim.inorder",
                ratio(ino_s * 1e9, ino_ops as f64),
                ino_ops as f64,
            ),
            Row::new(
                "sim.ooo",
                ratio(ooo_s * 1e9, ooo_ops as f64),
                ooo_ops as f64,
            ),
        ],
        replay_split: split,
    };
    (m, recon)
}

/// Layers of the crash sweep.
pub fn sweep(rows: &[sweep::Row], spans: &[Span]) -> (Metrics, Recon) {
    let mut m = Metrics::new();
    let runs: usize = rows.iter().map(|r| r.runs).sum();
    let per_run_us = |name: &str| spans::cpu_s(spans, name) * 1e6 / runs.max(1) as f64;
    let enumerate_s = spans::cpu_s(spans, "pmem.sweep.enumerate");
    let enumerations = spans
        .iter()
        .filter(|s| s.name == "pmem.sweep.enumerate")
        .count();
    m.insert("pmem.sweep.enumerate_s", enumerate_s);
    let mut run_ns: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "pmem.sweep.run")
        .map(|s| s.cpu_ns)
        .collect();
    m.insert(
        "pmem.sweep.run_us_p50",
        percentile(&mut run_ns, 0.5) as f64 / 1e3,
    );
    m.insert(
        "pmem.sweep.run_us_p99",
        percentile(&mut run_ns, 0.99) as f64 / 1e3,
    );
    let steps = [
        ("pmem.sweep.build", "pmem.sweep.build_us"),
        ("pmem.sweep.drive", "pmem.sweep.drive_us"),
        ("nvm.crash_recover", "nvm.crash_recover_us"),
        ("pmem.sweep.verify", "pmem.sweep.verify_us"),
        ("pmem.sweep.digest", "pmem.sweep.digest_us"),
    ];
    let mut recon_rows = vec![Row::new(
        "pmem.sweep.enumerate",
        ratio(enumerate_s * 1e9, enumerations as f64),
        enumerations as f64,
    )];
    for (span, metric) in steps {
        let us = per_run_us(span);
        m.insert(metric, us);
        recon_rows.push(Row::new(span, us * 1e3, runs as f64));
    }
    m.insert("pmem.sweep.runs", runs as f64);
    m.insert(
        "pmem.sweep.crashes",
        rows.iter().map(|r| r.crashes).sum::<u64>() as f64,
    );
    m.insert(
        "pmem.sweep.max_undo",
        rows.iter().map(|r| r.max_undo).max().unwrap_or(0) as f64,
    );
    (
        m,
        Recon {
            rows: recon_rows,
            replay_split: Vec::new(),
        },
    )
}

/// The metrics every workload derives from its timings and
/// reconciliation.
pub fn common(m: &mut Metrics, recon: &Recon, t: &Timing, sim_instructions: u64) {
    let layer_sum = recon.layer_sum_s();
    m.insert("recon.layer_sum_s", layer_sum);
    m.insert(
        "recon.residual_frac",
        ratio(t.traced_cpu_s - layer_sum, t.traced_cpu_s),
    );
    m.insert("trace_overhead_frac", t.traced_wall_s / t.wall_s - 1.0);
    m.insert(
        "harness.pool_busy_frac",
        t.cpu_s / (t.wall_s * WORKERS as f64),
    );
    m.insert("sim.mips", sim_instructions as f64 / t.wall_s / 1e6);
    let replay_s: f64 = recon
        .rows
        .iter()
        .filter(|r| r.layer.starts_with("sim."))
        .fold(0.0, |acc, r| acc + r.est_s());
    m.insert("sim.replay_cpu_frac", ratio(replay_s, t.traced_cpu_s));
}

/// Renders the reconciliation table.
pub fn render(workload: &str, recon: &Recon, t: &Timing) -> String {
    let mut out = format!(
        "reconciliation ({workload}, traced pass, CPU seconds)\n{:<24} {:>12} {:>14} {:>10} {:>8}\n",
        "layer", "ns/op", "ops", "est_s", "of cpu"
    );
    let line = |out: &mut String, r: &Row| {
        out.push_str(&format!(
            "{:<24} {:>12.1} {:>14.0} {:>10.4} {:>7.1}%\n",
            r.layer,
            r.ns_per_op,
            r.ops,
            r.est_s(),
            100.0 * ratio(r.est_s(), t.traced_cpu_s)
        ));
    };
    for r in &recon.rows {
        line(&mut out, r);
    }
    let sum = recon.layer_sum_s();
    out.push_str(&format!(
        "{:<24} {:>38.4} {:>7.1}%\n{:<24} {:>38.4}\n{:<24} {:>38.4} {:>7.1}%\n",
        "layer sum",
        sum,
        100.0 * ratio(sum, t.traced_cpu_s),
        "cpu_s (traced pass)",
        t.traced_cpu_s,
        "residual",
        t.traced_cpu_s - sum,
        100.0 * ratio(t.traced_cpu_s - sum, t.traced_cpu_s),
    ));
    if !recon.replay_split.is_empty() {
        out.push_str("replay split (probe ns/op x traced-pass counts)\n");
        for r in &recon.replay_split {
            line(&mut out, r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..json[start..].find(']').map(|e| start + e).unwrap()];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
                        entry[at..at + entry[at..].find('"').unwrap()].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(&END_TO_END));
        assert_eq!(section("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v = vec![5, 1, 4, 2, 3];
        assert_eq!(percentile(&mut v, 0.5), 3);
        assert_eq!(percentile(&mut v, 0.99), 5);
        assert_eq!(percentile(&mut v, 1.0), 5);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }
}
