// SPDX-License-Identifier: MIT OR Apache-2.0
//! # poat-ledger
//!
//! The durable run ledger: an append-only log of one record per
//! `repro` run, so the repository's metric trajectory survives the
//! process instead of being clobbered by the next `results_full.json`.
//! `repro report` queries it, and the crash-point sweep injects faults
//! *into* it — the ledger dogfoods the same `crates/pmem` write/persist
//! primitives the paper's runtime exposes to applications.
//!
//! ## On-disk format (`POATLGR1`)
//!
//! The byte stream starts with an 8-byte magic and is followed by
//! self-delimiting record frames, in the same LEB128/columnar discipline
//! as the `POATTRC2` trace format:
//!
//! ```text
//! magic "POATLGR1" (8 B)
//! frame*:  payload len (u32 LE) | seq (u64 LE) | FNV-1a64 of payload (u64 LE)
//!          payload (len B, LEB128-encoded fields; see `record`)
//! ```
//!
//! Counter/gauge/histogram names inside a payload are sorted and
//! front-coded (shared-prefix length + suffix), which compresses the
//! dot-separated metric namespace by roughly 3× — see
//! [`record::RecordData`].
//!
//! ## Recovery contract
//!
//! [`Ledger::open`] scans frames sequentially and accepts a record only
//! while (a) the frame header is sane, (b) the whole payload is present,
//! (c) the checksum matches, (d) the sequence number is exactly
//! `previous + 1`, and (e) the payload decodes. The first violation ends
//! the scan: everything before it is recovered, everything after it is a
//! *torn tail* and is truncated away so the next append cannot land
//! behind garbage. On a [`PmemMedium`] the tail-length word is persisted
//! strictly after the record bytes, so a crash mid-append simply leaves
//! the record invisible — the crash-sweep smoke in `tests/` asserts no
//! fully-persisted record is ever lost and no torn tail is ever served.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
pub mod medium;
pub mod record;

use poat_telemetry::global;

pub use medium::{FileMedium, Medium, PmemMedium};
pub use record::{HistStat, RecordData};

use std::fmt;

/// Magic bytes opening every ledger byte stream.
pub const MAGIC: &[u8; 8] = b"POATLGR1";

/// Frame header bytes: payload length (u32) + seq (u64) + checksum (u64).
pub const FRAME_HEADER_BYTES: u64 = 4 + 8 + 8;

/// Upper bound on one payload; larger lengths are treated as corruption
/// (a torn length field must not make the scanner allocate gigabytes).
pub const MAX_PAYLOAD_BYTES: u32 = 16 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64 over `bytes` — the frame checksum (same digest family the
/// crash-sweep verifier uses for pool state).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Errors opening, appending to, or decoding a ledger.
#[derive(Debug)]
pub enum LedgerError {
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// A payload declared a schema version newer than this binary.
    BadVersion(u64),
    /// A structurally impossible payload (bad varint, string, or count).
    Corrupt(&'static str),
    /// An underlying file I/O failure.
    Io(std::io::Error),
    /// An underlying persistent-memory runtime failure.
    Pmem(poat_pmem::PmemError),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::BadMagic => write!(f, "not a poat ledger (bad magic)"),
            LedgerError::BadVersion(v) => {
                write!(f, "ledger record schema {v} is newer than this binary")
            }
            LedgerError::Corrupt(what) => write!(f, "corrupt ledger record: {what}"),
            LedgerError::Io(e) => write!(f, "i/o: {e}"),
            LedgerError::Pmem(e) => write!(f, "pmem: {e}"),
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<std::io::Error> for LedgerError {
    fn from(e: std::io::Error) -> Self {
        LedgerError::Io(e)
    }
}

impl From<poat_pmem::PmemError> for LedgerError {
    fn from(e: poat_pmem::PmemError) -> Self {
        LedgerError::Pmem(e)
    }
}

/// One recovered run-ledger record: its sequence number plus the
/// decoded payload.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerRecord {
    /// 1-based, strictly consecutive sequence number.
    pub seq: u64,
    /// The decoded record payload.
    pub data: RecordData,
}

impl LedgerRecord {
    /// Stable run identifier derived from the sequence number
    /// (`run000007`); artifact files are suffixed with it.
    pub fn run_id(&self) -> String {
        run_id(self.seq)
    }
}

/// Formats a sequence number as the canonical run id (`run000007`).
pub fn run_id(seq: u64) -> String {
    format!("run{seq:06}")
}

/// What [`Ledger::open`] found while scanning the medium.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Fully-persisted records recovered.
    pub recovered: usize,
    /// Bytes of torn/garbage tail rejected (0 on a clean stream).
    pub torn_tail_bytes: u64,
    /// Human-readable reason the scan stopped early, if it did.
    pub torn_reason: Option<String>,
}

/// How [`Ledger::open_with`] treats the medium.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenMode {
    /// Read-write: an empty medium is formatted with the magic, a torn
    /// tail is truncated away, and appends are allowed. This is the
    /// single-writer mode.
    Repair,
    /// Read-only: the medium is never written — an empty medium reads as
    /// an empty ledger, a torn tail is reported but left in place, and
    /// appends fail. Safe for readers (`repro report`) of a ledger
    /// another process is appending to: a reader that raced an in-flight
    /// append must not truncate the writer's half-written frame.
    ReadOnly,
}

/// An open run ledger over some [`Medium`]: the recovered records plus
/// the append position.
pub struct Ledger<M: Medium> {
    medium: M,
    records: Vec<LedgerRecord>,
    scan: ScanReport,
    /// Logical length of the valid region (next append offset).
    valid_len: u64,
    read_only: bool,
}

impl<M: Medium> Ledger<M> {
    /// Opens (and if empty, formats) the ledger on `medium`, scanning and
    /// validating every record per the crate-level recovery contract. A
    /// torn tail is truncated away so subsequent appends are readable.
    ///
    /// # Errors
    ///
    /// [`LedgerError::BadMagic`] when the stream is non-empty but does
    /// not start with [`MAGIC`]; medium errors pass through.
    /// Torn or corrupt *tails* are not errors — they are reported in
    /// [`scan_report`](Self::scan_report) and skipped.
    pub fn open(medium: M) -> Result<Self, LedgerError> {
        Self::open_with(medium, OpenMode::Repair)
    }

    /// [`open`](Self::open) in the given [`OpenMode`]; read-only opens
    /// never write to the medium (no formatting, no tail truncation).
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn open_with(mut medium: M, mode: OpenMode) -> Result<Self, LedgerError> {
        let read_only = mode == OpenMode::ReadOnly;
        let len = medium.len()?;
        if len == 0 {
            if !read_only {
                medium.append(MAGIC)?;
            }
            return Ok(Ledger {
                medium,
                records: Vec::new(),
                scan: ScanReport::default(),
                valid_len: if read_only { 0 } else { 8 },
                read_only,
            });
        }
        if len < 8 {
            return Err(LedgerError::BadMagic);
        }
        let mut magic = [0u8; 8];
        medium.read_at(0, &mut magic)?;
        if &magic != MAGIC {
            return Err(LedgerError::BadMagic);
        }
        let mut records: Vec<LedgerRecord> = Vec::new();
        let mut scan = ScanReport::default();
        let mut pos = 8u64;
        let torn = |reason: String, at: u64, scan: &mut ScanReport| {
            scan.torn_tail_bytes = len - at;
            scan.torn_reason = Some(reason);
        };
        loop {
            if pos == len {
                break;
            }
            if pos + FRAME_HEADER_BYTES > len {
                torn("frame header truncated".to_string(), pos, &mut scan);
                break;
            }
            let mut header = [0u8; FRAME_HEADER_BYTES as usize];
            medium.read_at(pos, &mut header)?;
            let payload_len = u32::from_le_bytes(header[0..4].try_into().expect("4-byte slice"));
            let seq = u64::from_le_bytes(header[4..12].try_into().expect("8-byte slice"));
            let crc = u64::from_le_bytes(header[12..20].try_into().expect("8-byte slice"));
            if payload_len == 0 || payload_len > MAX_PAYLOAD_BYTES {
                torn(
                    format!("implausible payload length {payload_len}"),
                    pos,
                    &mut scan,
                );
                break;
            }
            if pos + FRAME_HEADER_BYTES + payload_len as u64 > len {
                torn("payload truncated".to_string(), pos, &mut scan);
                break;
            }
            let expected_seq = records.last().map(|r| r.seq + 1).unwrap_or(1);
            if seq != expected_seq {
                torn(
                    format!("sequence break (got {seq}, expected {expected_seq})"),
                    pos,
                    &mut scan,
                );
                break;
            }
            let mut payload = vec![0u8; payload_len as usize];
            medium.read_at(pos + FRAME_HEADER_BYTES, &mut payload)?;
            if checksum(&payload) != crc {
                torn("checksum mismatch".to_string(), pos, &mut scan);
                break;
            }
            match RecordData::decode(&payload) {
                Ok(data) => records.push(LedgerRecord { seq, data }),
                Err(e) => {
                    torn(format!("payload undecodable: {e}"), pos, &mut scan);
                    break;
                }
            }
            pos += FRAME_HEADER_BYTES + payload_len as u64;
        }
        scan.recovered = records.len();
        if scan.torn_tail_bytes > 0 && !read_only {
            medium.truncate(pos)?;
            global().counter("ledger.torn.tails").inc();
        }
        global()
            .counter("ledger.records.recovered")
            .add(records.len() as u64);
        Ok(Ledger {
            medium,
            records,
            scan,
            valid_len: pos,
            read_only,
        })
    }

    /// Appends one record durably (the medium persists before this
    /// returns) and returns its assigned sequence number.
    ///
    /// # Errors
    ///
    /// Medium write/persist failures — including the injected crashes the
    /// fault-sweep arms, which surface as [`LedgerError::Pmem`] — and
    /// [`LedgerError::Corrupt`] on a ledger opened read-only.
    pub fn append(&mut self, data: RecordData) -> Result<u64, LedgerError> {
        if self.read_only {
            return Err(LedgerError::Corrupt("ledger opened read-only"));
        }
        let seq = self.records.last().map(|r| r.seq + 1).unwrap_or(1);
        let payload = data.encode();
        debug_assert!(payload.len() as u64 <= MAX_PAYLOAD_BYTES as u64);
        let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES as usize + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&checksum(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.medium.append(&frame)?;
        self.valid_len += frame.len() as u64;
        global().counter("ledger.records.appended").inc();
        global()
            .counter("ledger.bytes.appended")
            .add(frame.len() as u64);
        self.records.push(LedgerRecord { seq, data });
        Ok(seq)
    }

    /// All recovered + appended records, ascending by sequence number.
    pub fn records(&self) -> &[LedgerRecord] {
        &self.records
    }

    /// The newest record, if any.
    pub fn last(&self) -> Option<&LedgerRecord> {
        self.records.last()
    }

    /// The record with sequence number `seq`.
    pub fn get(&self, seq: u64) -> Option<&LedgerRecord> {
        self.records.iter().find(|r| r.seq == seq)
    }

    /// What the opening scan found (recovered count, torn tail).
    pub fn scan_report(&self) -> &ScanReport {
        &self.scan
    }

    /// Logical bytes of the valid region (magic + accepted frames).
    pub fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// Whether this ledger was opened [`OpenMode::ReadOnly`].
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Consumes the ledger, returning the medium (tests re-open it).
    pub fn into_medium(self) -> M {
        self.medium
    }
}

/// Opens the ledger file at `path` (creating it, and its parent
/// directory, when missing).
///
/// # Errors
///
/// File I/O failures and the scan errors of [`Ledger::open`].
pub fn open_file(path: &std::path::Path) -> Result<Ledger<FileMedium>, LedgerError> {
    Ledger::open(FileMedium::open(path)?)
}

/// Opens the existing ledger file at `path` for reading only
/// ([`OpenMode::ReadOnly`]): nothing is created, formatted or truncated.
///
/// # Errors
///
/// File I/O failures — including the file not existing — and the scan
/// errors of [`Ledger::open_with`].
pub fn open_file_read_only(path: &std::path::Path) -> Result<Ledger<FileMedium>, LedgerError> {
    Ledger::open_with(FileMedium::open_read_only(path)?, OpenMode::ReadOnly)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample_record(n: u64) -> RecordData {
        let mut counters = BTreeMap::new();
        counters.insert("sim.result.polb_misses".to_string(), 100 + n);
        counters.insert("sim.result.polb_hits".to_string(), 9000 + n);
        let mut gauges = BTreeMap::new();
        gauges.insert("core.polb.entries".to_string(), 32);
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "span.pot_walk.nanos".to_string(),
            HistStat {
                count: 10,
                sum: 1000,
                max: 400,
                p50: 90,
                p90: 300,
                p99: 400,
            },
        );
        RecordData {
            timestamp_unix_secs: 1_700_000_000 + n,
            elapsed_micros: 123_456,
            command: "fig9a".to_string(),
            scale: "quick".to_string(),
            git_revision: "deadbeef".to_string(),
            counters,
            gauges,
            histograms,
            extra: Vec::new(),
        }
    }

    #[test]
    fn append_reopen_roundtrip() {
        let dir = std::env::temp_dir().join(format!("poat_ledger_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.poatlgr");
        let _ = std::fs::remove_file(&path);
        {
            let mut l = open_file(&path).unwrap();
            assert_eq!(l.append(sample_record(0)).unwrap(), 1);
            assert_eq!(l.append(sample_record(1)).unwrap(), 2);
        }
        let l = open_file(&path).unwrap();
        assert_eq!(l.scan_report().recovered, 2);
        assert_eq!(l.scan_report().torn_tail_bytes, 0);
        assert_eq!(l.records().len(), 2);
        assert_eq!(l.records()[0].seq, 1);
        assert_eq!(l.records()[1].data, sample_record(1));
        assert_eq!(l.records()[1].run_id(), "run000002");
        assert_eq!(
            l.records()[0].data.metric("sim.result.polb_misses"),
            Some(100)
        );
        assert_eq!(
            l.records()[0].data.metric("span.pot_walk.nanos:p90"),
            Some(300)
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_rejected_and_truncated() {
        let dir = std::env::temp_dir().join(format!("poat_ledger_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.poatlgr");
        let _ = std::fs::remove_file(&path);
        {
            let mut l = open_file(&path).unwrap();
            l.append(sample_record(0)).unwrap();
            l.append(sample_record(1)).unwrap();
        }
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a torn append: a partial frame of garbage at the tail.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0xAB; 13]).unwrap();
        }
        let l = open_file(&path).unwrap();
        assert_eq!(l.scan_report().recovered, 2, "intact prefix recovered");
        assert_eq!(l.scan_report().torn_tail_bytes, 13);
        assert!(l.scan_report().torn_reason.is_some());
        drop(l);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "torn tail truncated away"
        );
        // And the ledger keeps working after truncation.
        let mut l = open_file(&path).unwrap();
        assert_eq!(l.append(sample_record(2)).unwrap(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_only_observer_sees_the_stream_without_mutating_it() {
        let dir = std::env::temp_dir().join(format!("poat_ledger_ro_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ro.poatlgr");
        let _ = std::fs::remove_file(&path);
        {
            let mut l = open_file(&path).unwrap();
            l.append(sample_record(0)).unwrap();
        }
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // A torn tail (simulating a racing writer's in-flight frame)...
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0xCD; 9]).unwrap();
        }
        // ...is visible to the reader but NOT truncated away.
        let mut l = open_file_read_only(&path).unwrap();
        assert!(l.is_read_only());
        assert_eq!(l.records().len(), 1);
        assert_eq!(l.scan_report().torn_tail_bytes, 9);
        assert!(matches!(
            l.append(sample_record(1)),
            Err(LedgerError::Corrupt(_))
        ));
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len + 9,
            "read-only open must not repair the medium"
        );
        std::fs::remove_file(&path).unwrap();
        // A missing ledger is an error, and the open creates nothing.
        let missing = dir.join("absent").join("none.poatlgr");
        assert!(matches!(
            open_file_read_only(&missing),
            Err(LedgerError::Io(_))
        ));
        assert!(!dir.join("absent").exists());
    }

    #[test]
    fn torn_tail_cut_inside_a_record_is_ignored_on_recovery() {
        // A crash mid-append leaves a *prefix* of a real frame, not
        // appended garbage: the header may be fully intact while the
        // payload is cut short. Recovery must keep every whole record
        // before the cut and drop the partial frame.
        let dir = std::env::temp_dir().join(format!("poat_ledger_midcut_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("midcut.poatlgr");
        let _ = std::fs::remove_file(&path);
        let two_len;
        {
            let mut l = open_file(&path).unwrap();
            l.append(sample_record(0)).unwrap();
            l.append(sample_record(1)).unwrap();
            two_len = std::fs::metadata(&path).unwrap().len();
            l.append(sample_record(2)).unwrap();
        }
        let full_len = std::fs::metadata(&path).unwrap().len();
        // Cut inside the third frame's payload (header intact, payload
        // short) — the hardest case: length and checksum fields parse
        // but the payload bytes run out.
        let cut = two_len + (full_len - two_len) / 2;
        assert!(cut > two_len && cut < full_len);
        {
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(cut).unwrap();
        }
        let l = open_file(&path).unwrap();
        assert_eq!(l.scan_report().recovered, 2, "whole records survive");
        assert_eq!(l.scan_report().torn_tail_bytes, cut - two_len);
        assert_eq!(l.records()[1].data, sample_record(1), "prefix byte-exact");
        drop(l);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            two_len,
            "repair truncates back to the last whole record"
        );
        // The sequence continues from the surviving prefix.
        let mut l = open_file(&path).unwrap();
        assert_eq!(l.append(sample_record(3)).unwrap(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let dir = std::env::temp_dir().join(format!("poat_ledger_crc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crc.poatlgr");
        let _ = std::fs::remove_file(&path);
        {
            let mut l = open_file(&path).unwrap();
            l.append(sample_record(0)).unwrap();
        }
        // Flip one payload byte: the checksum must catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let l = open_file(&path).unwrap();
        assert_eq!(l.scan_report().recovered, 0);
        assert!(l
            .scan_report()
            .torn_reason
            .as_deref()
            .unwrap()
            .contains("checksum"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_ledger_file_is_bad_magic() {
        let dir = std::env::temp_dir().join(format!("poat_ledger_magic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("magic.poatlgr");
        std::fs::write(&path, b"definitely not a ledger").unwrap();
        match open_file(&path) {
            Err(LedgerError::BadMagic) => {}
            other => panic!("expected BadMagic, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_file(&path).unwrap();
    }
}
