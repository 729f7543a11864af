//! End-to-end smoke test for `repro --trace` / `--timeline`: the binary
//! must emit a well-formed, non-empty Chrome Trace Format JSON carrying
//! POLB-miss and POT-walk events for BOTH hardware designs (fig9a runs
//! the Pipelined and Parallel in-order matrices), plus per-workload
//! timeline CSVs.

use std::collections::BTreeSet;
use std::process::Command;

#[test]
fn repro_quick_trace_emits_wellformed_chrome_json() {
    let dir = std::env::temp_dir().join("poat_trace_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let tl = dir.join("timelines");

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "fig9a",
            "--quick",
            "--no-ledger",
            "--trace",
            trace.to_str().unwrap(),
            "--timeline",
            tl.to_str().unwrap(),
        ])
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let body = std::fs::read_to_string(&trace).expect("trace file exists");
    assert!(!body.is_empty(), "trace must be non-empty");
    let json: serde_json::Value = serde_json::from_str(&body).expect("trace parses as JSON");
    let events = json["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty(), "trace must carry events");

    // (design pid, event name) pairs present in the trace. Pipelined = 1,
    // Parallel = 2 (see docs/TRACING.md).
    let seen: BTreeSet<(u64, String)> = events
        .iter()
        .filter_map(|e| Some((e["pid"].as_u64()?, e["name"].as_str()?.to_string())))
        .collect();
    for pid in [1u64, 2] {
        for name in ["polb_miss", "pot_walk"] {
            assert!(
                seen.contains(&(pid, name.to_string())),
                "missing {name} events for design pid {pid}"
            );
        }
    }

    // Spans carry their probe count and a positive duration.
    let span = events
        .iter()
        .find(|e| e["ph"].as_str() == Some("X") && e["name"].as_str() == Some("pot_walk"))
        .expect("at least one complete pot_walk span");
    assert!(span["dur"].as_u64().unwrap() >= 1);
    assert!(span["args"]["probes"].as_u64().is_some());

    // The timeline pass wrote per-(bench, design) CSVs with the schema
    // header and at least one data row for a hardware design.
    let csv =
        std::fs::read_to_string(tl.join("timeline_ll_pipelined.csv")).expect("timeline csv exists");
    let mut lines = csv.lines();
    assert!(lines
        .next()
        .unwrap()
        .starts_with("design,start_instr,accesses"));
    assert!(lines.next().is_some(), "timeline csv has data rows");

    // The stdout report carries the timeline and percentile sections.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("## Timeline"));
    // The phase table carries the process-wide (`all`) row of each
    // registry span phase.
    let (_, phases) = stdout
        .split_once("Phase latency percentiles")
        .expect("phase latency section");
    for phase in ["workload_exec", "trace_replay", "polb_sim", "pot_walk"] {
        assert!(
            phases
                .lines()
                .any(|l| l.split_whitespace().take(2).eq([phase, "all"])),
            "phase table has an `{phase}` row:\n{phases}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_help_and_missing_value_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--help")
        .output()
        .expect("run repro --help");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--trace PATH"), "help documents --trace");

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig9a", "--trace"])
        .output()
        .expect("run repro with missing value");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("missing value for --trace"),
        "targeted error for missing flag value"
    );
}
