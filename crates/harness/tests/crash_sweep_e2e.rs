//! End-to-end crash-sweep campaign assertions (quick scale).
//!
//! These drive the same `crash_sweep` entry points as the
//! `repro crash-sweep` subcommand: a sampled campaign over every quick
//! workload must find zero clean/torn violations, replaying one cell
//! must be bit-identical across invocations, four cells must reproduce
//! pinned golden digests, and the drop-clwb negative control must show
//! the verifier actually detects lost persists.

use poat_harness::crash_sweep::{self, SweepOptions};
use poat_harness::Scale;
use poat_pmem::InjectMode;
use poat_workloads::{Micro, Pattern};

#[test]
fn quick_sweep_is_clean_on_every_workload() {
    // Evenly-spaced sample keeps the dev-profile run short; the CI smoke
    // and the release CLI sweep every point.
    let mut opts = SweepOptions::for_scale(Scale::Quick);
    opts.max_points = Some(25);
    let reports = crash_sweep::sweep(&opts).expect("sweep runs");
    assert_eq!(reports.len(), 4, "LL+BST x ALL+EACH");
    for r in &reports {
        assert!(
            r.enumerated > 0,
            "{}: no crash points enumerated",
            r.workload
        );
        assert_eq!(r.swept, 25, "{}: sample size", r.workload);
        assert_eq!(r.runs, 25 * 2 * 2, "{}: swept x modes x seeds", r.workload);
        assert_eq!(
            r.crashes as usize, r.runs,
            "{}: every armed point must trip",
            r.workload
        );
        assert!(
            r.violations.is_empty(),
            "{}: recovery-invariant violations: {:?}",
            r.workload,
            r.violations
        );
    }
    assert_eq!(crash_sweep::total_violations(&reports), 0);
}

#[test]
fn replay_is_bit_identical_across_invocations() {
    let (bench, pattern) = (Micro::Bst, Pattern::Each);
    let points = crash_sweep::enumerate(bench, pattern, Scale::Quick).expect("enumerate");
    assert!(points.len() > 2);
    // First boundary, a mid-transaction one, and the final fence.
    let picks = [
        points[0].index,
        points[points.len() / 2].index,
        points[points.len() - 1].index,
    ];
    for point in picks {
        for mode in [InjectMode::Clean, InjectMode::Torn] {
            let a = crash_sweep::run_point(bench, pattern, Scale::Quick, point, 7, mode)
                .expect("first run");
            let b =
                crash_sweep::replay(bench, pattern, Scale::Quick, point, 7, mode).expect("replay");
            assert_eq!(
                a.digest,
                b.digest,
                "point {point} [{}]: post-recovery state must be bit-identical",
                mode.label()
            );
            assert_eq!(a.tripped, b.tripped, "point {point}");
            assert_eq!(a.undo_applied, b.undo_applied, "point {point}");
            assert_eq!(a.violations, b.violations, "point {point}");
        }
    }
}

/// Exact post-recovery digests of four cells, pinned so the digest value
/// cannot drift silently: a change to the hash, to what it covers, or to
/// the persisted state shows up here rather than as a self-consistent
/// but different number.
#[test]
fn golden_digests_are_pinned() {
    for (workload, point, seed, inject, digest) in [
        ("LL:ALL", 144, 7, "clean", 0xaa7b_cc46_8bc1_75d4),
        ("LL:EACH", 200, 1, "torn", 0x1937_62de_8183_c0b3),
        ("BST:ALL", 144, 7, "torn", 0x71ac_f22c_9f5d_2d94),
        ("BST:EACH", 100, 7, "drop-clwb", 0xa5d6_9612_f27e_b16e),
    ] {
        let (bench, pattern) = crash_sweep::parse_workload(workload).unwrap();
        let mode = crash_sweep::parse_inject(inject).unwrap()[0];
        let out = crash_sweep::run_point(bench, pattern, Scale::Quick, point, seed, mode)
            .expect("cell runs");
        assert_eq!(
            out.digest, digest,
            "{workload} {point}:{seed} [{inject}]: {:016x} != {digest:016x}",
            out.digest
        );
    }
}

#[test]
fn drop_clwb_negative_control_is_detected() {
    // Dropping clwbs breaches the persistence contract the runtime relies
    // on; sweeping every point under that mode must make the verifier
    // fire somewhere — otherwise the invariant checks are vacuous.
    let mut opts = SweepOptions::for_scale(Scale::Quick);
    opts.workload = Some((Micro::Ll, Pattern::All));
    opts.modes = vec![InjectMode::DropClwb];
    opts.seeds = vec![1];
    let reports = crash_sweep::sweep(&opts).expect("sweep runs");
    assert_eq!(reports.len(), 1);
    assert!(
        reports[0].detections > 0,
        "drop-clwb across {} points produced no detection",
        reports[0].swept
    );
    // Detections are scored as the negative control, not as violations.
    assert!(
        reports[0].violations.is_empty(),
        "{:?}",
        reports[0].violations
    );
}

#[test]
fn workload_and_inject_parsing() {
    assert_eq!(
        crash_sweep::parse_workload("LL:ALL"),
        Some((Micro::Ll, Pattern::All))
    );
    assert_eq!(
        crash_sweep::parse_workload("bst:each"),
        Some((Micro::Bst, Pattern::Each))
    );
    assert_eq!(crash_sweep::parse_workload("LL"), None);
    assert_eq!(crash_sweep::parse_workload("XX:ALL"), None);
    assert_eq!(
        crash_sweep::parse_inject("all"),
        Some(vec![
            InjectMode::Clean,
            InjectMode::Torn,
            InjectMode::DropClwb
        ])
    );
    assert_eq!(crash_sweep::parse_inject("bogus"), None);
}
