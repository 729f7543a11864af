// SPDX-License-Identifier: MIT OR Apache-2.0
//! Edge-case pins for `HistogramSnapshot` percentile behavior: empty
//! histograms, single samples, extreme values, and the quantile-range
//! boundaries. These are the cases the ledger and the phase latency
//! table lean on, so their behavior is contractual.

use poat_telemetry::Registry;

#[test]
fn empty_histogram_percentiles_are_zero() {
    let r = Registry::new();
    let h = r.histogram("t.empty");
    for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(h.percentile(q), 0, "q={q} on an empty histogram");
    }
    let s = r
        .snapshot(manifest())
        .histograms
        .get("t.empty")
        .cloned()
        .unwrap();
    assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
    assert_eq!((s.p50, s.p90, s.p99), (0, 0, 0));
    assert_eq!(s.mean, 0.0);
    assert!(s.buckets.is_empty());
}

#[test]
fn single_sample_dominates_every_percentile() {
    for v in [1u64, 2, 3, 37, 1023, 1024, u64::MAX] {
        let r = Registry::new();
        let h = r.histogram("t.single");
        h.record(v);
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(q), v, "q={q} with single sample {v}");
        }
    }
}

#[test]
fn single_zero_sample_is_zero_everywhere() {
    let r = Registry::new();
    let h = r.histogram("t.zero");
    h.record(0);
    let s = r
        .snapshot(manifest())
        .histograms
        .get("t.zero")
        .cloned()
        .unwrap();
    assert_eq!((s.count, s.max), (1, 0));
    assert_eq!((s.p50, s.p90, s.p99), (0, 0, 0));
    assert_eq!(s.buckets.len(), 1);
    assert_eq!(s.buckets[0].lower_bound, 0);
}

#[test]
fn percentiles_never_exceed_max_nor_undershoot_bucket_floor() {
    let r = Registry::new();
    let h = r.histogram("t.mixed");
    // Two samples in the same octave: estimates must stay in [512, 700].
    h.record(513);
    h.record(700);
    let s = r
        .snapshot(manifest())
        .histograms
        .get("t.mixed")
        .cloned()
        .unwrap();
    for (q, v) in [("p50", s.p50), ("p90", s.p90), ("p99", s.p99)] {
        assert!((512..=700).contains(&v), "{q}={v} escaped [512, 700]");
    }
    assert!(s.p50 <= s.p90 && s.p90 <= s.p99, "monotone percentiles");
}

#[test]
fn quantile_extremes_are_clamped_to_the_sample_range() {
    let r = Registry::new();
    let h = r.histogram("t.clamp");
    for v in [4u64, 5, 6, 7, 1000] {
        h.record(v);
    }
    // q=0.0 must rank the first sample (never a negative rank), q=1.0 the
    // observed maximum exactly.
    assert!(h.percentile(0.0) >= 4);
    assert_eq!(h.percentile(1.0), 1000);
}

#[test]
fn bimodal_distribution_separates_median_and_tail() {
    let r = Registry::new();
    let h = r.histogram("t.bimodal");
    for _ in 0..90 {
        h.record(8);
    }
    for _ in 0..10 {
        h.record(100_000);
    }
    let s = r
        .snapshot(manifest())
        .histograms
        .get("t.bimodal")
        .cloned()
        .unwrap();
    assert!(s.p50 < 16, "median stays in the low mode, got {}", s.p50);
    assert!(
        s.p99 >= 65_536,
        "p99 must reach the high mode's octave, got {}",
        s.p99
    );
}

fn manifest() -> poat_telemetry::RunManifest {
    poat_telemetry::RunManifest {
        command: "test".into(),
        scale: "quick".into(),
        git_revision: "deadbeef".into(),
        elapsed_seconds: 0.0,
    }
}
