// SPDX-License-Identifier: MIT OR Apache-2.0
//! The ledger record payload: what one run writes, and its LEB128
//! encoding.
//!
//! A [`RecordData`] is a compact, self-contained projection of one
//! [`poat_telemetry::MetricsSnapshot`]: the run manifest, every counter
//! and gauge, and the summary statistics of every histogram (the log2
//! buckets themselves stay in the JSON artifacts — the ledger keeps the
//! queryable surface). Fields are LEB128 varints; metric names are
//! sorted and *front-coded* (each name stores only the byte length it
//! shares with its predecessor plus the differing suffix), which is
//! worth ~3× on the dot-separated `layer.component.quantity` namespace.
//!
//! The `extra` field carries an opaque blob for subsystem-specific
//! payloads. Nothing in the repository writes it any more; it stays in
//! the layout for format compatibility, so ledgers holding older records
//! with a non-empty `extra` still decode and list.

use std::collections::BTreeMap;

use poat_telemetry::MetricsSnapshot;

use crate::codec::{put_front_coded, put_str, put_varint, Cursor};
use crate::LedgerError;

/// Version of the record payload layout; bump on breaking change.
pub const RECORD_SCHEMA_VERSION: u64 = 1;

/// Summary statistics of one histogram at snapshot time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistStat {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

/// One run's decoded ledger payload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecordData {
    /// Wall-clock seconds since the Unix epoch when the record was cut.
    pub timestamp_unix_secs: u64,
    /// Run duration in microseconds.
    pub elapsed_micros: u64,
    /// The command or artifact selection that produced the run.
    pub command: String,
    /// Experiment scale ("quick" or "full").
    pub scale: String,
    /// Git revision of the source tree, or "unknown".
    pub git_revision: String,
    /// All counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// All gauges, by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram summaries, by name.
    pub histograms: BTreeMap<String, HistStat>,
    /// Opaque subsystem payload; no current writer, kept for format
    /// compatibility.
    pub extra: Vec<u8>,
}

impl RecordData {
    /// Projects a metrics snapshot into a record payload. `timestamp` is
    /// seconds since the Unix epoch (the caller reads the system clock).
    pub fn from_snapshot(snap: &MetricsSnapshot, timestamp_unix_secs: u64) -> Self {
        RecordData {
            timestamp_unix_secs,
            elapsed_micros: (snap.manifest.elapsed_seconds * 1e6) as u64,
            command: snap.manifest.command.clone(),
            scale: snap.manifest.scale.clone(),
            git_revision: snap.manifest.git_revision.clone(),
            counters: snap.counters.clone(),
            gauges: snap.gauges.clone(),
            histograms: snap
                .histograms
                .iter()
                .map(|(name, h)| {
                    (
                        name.clone(),
                        HistStat {
                            count: h.count,
                            sum: h.sum,
                            max: h.max,
                            p50: h.p50,
                            p90: h.p90,
                            p99: h.p99,
                        },
                    )
                })
                .collect(),
            extra: Vec::new(),
        }
    }

    /// Looks up a metric value by name for report queries: counters
    /// first, then gauges; histogram fields are addressed as
    /// `name:stat` where `stat` is one of `count`, `sum`, `max`, `mean`,
    /// `p50`, `p90`, `p99` (`mean` is `sum/count`, rounded down).
    ///
    /// A base name with no exact match rolls up its labelled series:
    /// querying `sim.result.polb_misses` sums every
    /// `sim.result.polb_misses{…}` counter (then gauge) in the record.
    pub fn metric(&self, name: &str) -> Option<u64> {
        if let Some(v) = self.counters.get(name) {
            return Some(*v);
        }
        if let Some(v) = self.gauges.get(name) {
            return Some(*v);
        }
        if !name.contains(['{', ':']) {
            for series in [&self.counters, &self.gauges] {
                let mut sum = 0u64;
                let mut any = false;
                for (k, v) in series {
                    if k.strip_prefix(name)
                        .is_some_and(|rest| rest.starts_with('{'))
                    {
                        sum = sum.saturating_add(*v);
                        any = true;
                    }
                }
                if any {
                    return Some(sum);
                }
            }
        }
        let (base, stat) = name.rsplit_once(':')?;
        let h = self.histograms.get(base)?;
        match stat {
            "count" => Some(h.count),
            "sum" => Some(h.sum),
            "max" => Some(h.max),
            "mean" => Some(if h.count == 0 { 0 } else { h.sum / h.count }),
            "p50" => Some(h.p50),
            "p90" => Some(h.p90),
            "p99" => Some(h.p99),
            _ => None,
        }
    }

    /// Every queryable metric name in this record, sorted: counters and
    /// gauges verbatim, histograms as their `name:p50`-style fields.
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.counters.keys().cloned().collect();
        names.extend(self.gauges.keys().cloned());
        for h in self.histograms.keys() {
            for stat in ["count", "sum", "max", "mean", "p50", "p90", "p99"] {
                names.push(format!("{h}:{stat}"));
            }
        }
        names.sort();
        names
    }

    /// Serializes the payload (the bytes the frame checksum covers).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024);
        put_varint(&mut out, RECORD_SCHEMA_VERSION);
        put_varint(&mut out, self.timestamp_unix_secs);
        put_varint(&mut out, self.elapsed_micros);
        put_str(&mut out, &self.command);
        put_str(&mut out, &self.scale);
        put_str(&mut out, &self.git_revision);
        put_varint(&mut out, self.counters.len() as u64);
        let mut prev = "";
        for (name, v) in &self.counters {
            put_front_coded(&mut out, prev, name);
            put_varint(&mut out, *v);
            prev = name;
        }
        put_varint(&mut out, self.gauges.len() as u64);
        let mut prev = "";
        for (name, v) in &self.gauges {
            put_front_coded(&mut out, prev, name);
            put_varint(&mut out, *v);
            prev = name;
        }
        put_varint(&mut out, self.histograms.len() as u64);
        let mut prev = "";
        for (name, h) in &self.histograms {
            put_front_coded(&mut out, prev, name);
            for v in [h.count, h.sum, h.max, h.p50, h.p90, h.p99] {
                put_varint(&mut out, v);
            }
            prev = name;
        }
        put_varint(&mut out, self.extra.len() as u64);
        out.extend_from_slice(&self.extra);
        out
    }

    /// Decodes a payload produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// [`LedgerError::BadVersion`] for a newer schema,
    /// [`LedgerError::Corrupt`] for any structural violation (truncated
    /// varint, invalid UTF-8, lengths exceeding the payload).
    pub fn decode(bytes: &[u8]) -> Result<Self, LedgerError> {
        let mut cur = Cursor::new(bytes);
        let version = cur.varint()?;
        if version > RECORD_SCHEMA_VERSION {
            return Err(LedgerError::BadVersion(version));
        }
        let timestamp_unix_secs = cur.varint()?;
        let elapsed_micros = cur.varint()?;
        let command = cur.string()?;
        let scale = cur.string()?;
        let git_revision = cur.string()?;
        let mut counters = BTreeMap::new();
        let n = cur.varint()?;
        let mut prev = String::new();
        for _ in 0..n {
            let name = cur.front_coded(&prev)?;
            let v = cur.varint()?;
            counters.insert(name.clone(), v);
            prev = name;
        }
        let mut gauges = BTreeMap::new();
        let n = cur.varint()?;
        let mut prev = String::new();
        for _ in 0..n {
            let name = cur.front_coded(&prev)?;
            let v = cur.varint()?;
            gauges.insert(name.clone(), v);
            prev = name;
        }
        let mut histograms = BTreeMap::new();
        let n = cur.varint()?;
        let mut prev = String::new();
        for _ in 0..n {
            let name = cur.front_coded(&prev)?;
            let h = HistStat {
                count: cur.varint()?,
                sum: cur.varint()?,
                max: cur.varint()?,
                p50: cur.varint()?,
                p90: cur.varint()?,
                p99: cur.varint()?,
            };
            histograms.insert(name.clone(), h);
            prev = name;
        }
        let extra_len = cur.varint()? as usize;
        let extra = cur.take(extra_len)?.to_vec();
        if cur.pos != bytes.len() {
            return Err(LedgerError::Corrupt("trailing bytes after payload"));
        }
        Ok(RecordData {
            timestamp_unix_secs,
            elapsed_micros,
            command,
            scale,
            git_revision,
            counters,
            gauges,
            histograms,
            extra,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_coding_compresses_the_namespace() {
        let mut rec = RecordData::default();
        for name in [
            "core.polb.hits",
            "core.polb.misses",
            "core.pot.walks",
            "core.pot.walk_probes",
        ] {
            rec.counters.insert(name.to_string(), 7);
        }
        let encoded = rec.encode();
        let plain_len: usize = rec.counters.keys().map(|k| k.len()).sum();
        let decoded = RecordData::decode(&encoded).unwrap();
        assert_eq!(decoded, rec);
        // The whole payload must be smaller than the raw names alone
        // would be — the prefixes are genuinely elided.
        assert!(
            encoded.len() < plain_len + 40,
            "front-coding saved nothing: {} vs {} raw name bytes",
            encoded.len(),
            plain_len
        );
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let mut rec = RecordData {
            command: "all".into(),
            scale: "full".into(),
            git_revision: "abc123".into(),
            ..RecordData::default()
        };
        rec.counters.insert("a.b.c".into(), u64::MAX);
        rec.histograms.insert("a.b.lat".into(), HistStat::default());
        rec.extra = b"opaque".to_vec();
        let encoded = rec.encode();
        assert_eq!(RecordData::decode(&encoded).unwrap(), rec);
        for cut in 0..encoded.len() {
            assert!(
                RecordData::decode(&encoded[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn base_name_rolls_up_labelled_series() {
        let mut rec = RecordData::default();
        rec.counters
            .insert("sim.result.polb_misses{bench=LL}".into(), 30);
        rec.counters
            .insert("sim.result.polb_misses{bench=BST}".into(), 12);
        rec.counters
            .insert("sim.result.polb_misses_other{bench=LL}".into(), 999);
        assert_eq!(rec.metric("sim.result.polb_misses"), Some(42));
        assert_eq!(rec.metric("sim.result.polb_misses{bench=LL}"), Some(30));
        assert_eq!(rec.metric("sim.result.nothing"), None);
    }

    #[test]
    fn newer_schema_is_rejected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, RECORD_SCHEMA_VERSION + 1);
        match RecordData::decode(&buf) {
            Err(LedgerError::BadVersion(v)) => assert_eq!(v, RECORD_SCHEMA_VERSION + 1),
            other => panic!("expected BadVersion, got {:?}", other.map(|_| ())),
        }
    }
}
