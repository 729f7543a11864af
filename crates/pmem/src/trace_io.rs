//! Trace serialization: save a recorded instruction stream to disk and
//! replay it later without re-running the workload ("record once,
//! simulate many" — the workflow trace-driven simulators live by).
//!
//! The on-disk layout is the in-memory columnar encoding (see the
//! [`crate::trace`] module docs) with a fixed header in front, so
//! serialization is a straight copy of the two columns — no per-op
//! re-encoding on either side:
//!
//! ```text
//! magic "POATTRC2" (8 B) | op count (u64 LE) | payload length (u64 LE)
//! tag spine   (op count bytes)
//! payload     (payload length bytes)
//! ```
//!
//! Both [`save`] and [`load`] move the columns through a fixed-size
//! buffer (`CHUNK_BYTES`, 1 MiB), so I/O never stages a second whole-file
//! copy next to the trace: peak memory is the encoded trace plus one
//! chunk. [`load`] validates the whole stream eagerly (every varint,
//! flag combination, and dependency backreference) via
//! [`Trace::from_encoded`], so a loaded trace replays infallibly.
//! DESIGN.md §5a specifies the byte layout.

use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

use crate::trace::{Trace, TraceCorruption};

const MAGIC: &[u8; 8] = b"POATTRC2";
const HEADER_BYTES: usize = 8 + 8 + 8;

/// Size of the staging buffer `save`/`load` stream the columns through.
/// 1 MiB keeps syscall counts low while bounding transient memory.
const CHUNK_BYTES: usize = 1 << 20;

/// Errors decoding a serialized trace.
#[derive(Debug)]
pub enum TraceDecodeError {
    /// The magic header did not match.
    BadMagic,
    /// The input ended before the header or columns were complete.
    Truncated,
    /// A tag byte carries flag bits undefined for its kind.
    BadTag(u8),
    /// The columns are internally inconsistent (bad varint, dangling
    /// dependency backreference, or leftover payload bytes).
    Corrupt(TraceCorruption),
    /// An underlying I/O failure (file read/write).
    Io(std::io::Error),
}

impl fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDecodeError::BadMagic => write!(f, "not a poat trace (bad magic)"),
            TraceDecodeError::Truncated => write!(f, "trace truncated"),
            TraceDecodeError::BadTag(t) => write!(f, "bad op tag {t:#04x}"),
            TraceDecodeError::Corrupt(c) => write!(f, "corrupt trace: {c:?}"),
            TraceDecodeError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for TraceDecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceDecodeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceDecodeError {
    fn from(e: std::io::Error) -> Self {
        TraceDecodeError::Io(e)
    }
}

impl From<TraceCorruption> for TraceDecodeError {
    fn from(c: TraceCorruption) -> Self {
        match c {
            TraceCorruption::Truncated => TraceDecodeError::Truncated,
            TraceCorruption::BadTag(t) => TraceDecodeError::BadTag(t),
            other => TraceDecodeError::Corrupt(other),
        }
    }
}

fn header_for(trace: &Trace) -> ([u8; HEADER_BYTES], usize, usize) {
    let (tags, data) = trace.encoded_columns();
    let mut header = [0u8; HEADER_BYTES];
    header[..8].copy_from_slice(MAGIC);
    header[8..16].copy_from_slice(&(tags.len() as u64).to_le_bytes());
    header[16..24].copy_from_slice(&(data.len() as u64).to_le_bytes());
    (header, tags.len(), data.len())
}

/// Serializes a trace to its binary representation in memory.
pub fn to_bytes(trace: &Trace) -> Vec<u8> {
    let (header, tags_len, data_len) = header_for(trace);
    let (tags, data) = trace.encoded_columns();
    let mut out = Vec::with_capacity(HEADER_BYTES + tags_len + data_len);
    out.extend_from_slice(&header);
    out.extend_from_slice(tags);
    out.extend_from_slice(data);
    out
}

/// Decodes a trace from its binary representation, validating every op.
///
/// # Errors
///
/// [`TraceDecodeError`] on malformed input.
pub fn from_bytes(data: &[u8]) -> Result<Trace, TraceDecodeError> {
    if data.len() < HEADER_BYTES {
        return Err(TraceDecodeError::Truncated);
    }
    if &data[..8] != MAGIC {
        return Err(TraceDecodeError::BadMagic);
    }
    let ops = u64::from_le_bytes(data[8..16].try_into().expect("8-byte slice"));
    let payload = u64::from_le_bytes(data[16..24].try_into().expect("8-byte slice"));
    let body = &data[HEADER_BYTES..];
    let (ops, payload) = columns_extent(ops, payload, body.len() as u64)?;
    let tags = body[..ops].to_vec();
    let payload = body[ops..ops + payload].to_vec();
    Ok(Trace::from_encoded(tags, payload)?)
}

/// Checks the header's column lengths against the available body bytes,
/// returning them as in-range `usize`s.
fn columns_extent(
    ops: u64,
    payload: u64,
    available: u64,
) -> Result<(usize, usize), TraceDecodeError> {
    let total = ops
        .checked_add(payload)
        .ok_or(TraceDecodeError::Truncated)?;
    if total > available {
        return Err(TraceDecodeError::Truncated);
    }
    if total < available {
        return Err(TraceDecodeError::Corrupt(TraceCorruption::TrailingData));
    }
    Ok((ops as usize, payload as usize))
}

/// Writes a trace to a file, streaming the columns in
/// `CHUNK_BYTES`-sized chunks.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save(trace: &Trace, path: impl AsRef<Path>) -> std::io::Result<()> {
    let (header, tags_len, data_len) = header_for(trace);
    let (tags, data) = trace.encoded_columns();
    let mut f = std::fs::File::create(path)?;
    f.write_all(&header)?;
    for chunk in tags.chunks(CHUNK_BYTES) {
        f.write_all(chunk)?;
    }
    for chunk in data.chunks(CHUNK_BYTES) {
        f.write_all(chunk)?;
    }
    poat_telemetry::global()
        .counter("pmem.trace.saved_bytes")
        .add((HEADER_BYTES + tags_len + data_len) as u64);
    Ok(())
}

/// Reads exactly `len` bytes into a fresh `Vec`, pulling from the reader
/// in [`CHUNK_BYTES`]-sized chunks so no second whole-column buffer is
/// ever staged.
fn read_column(f: &mut impl Read, len: usize) -> Result<Vec<u8>, TraceDecodeError> {
    let mut col = Vec::with_capacity(len);
    let mut buf = vec![0u8; CHUNK_BYTES.min(len.max(1))];
    while col.len() < len {
        let want = (len - col.len()).min(buf.len());
        let got = f.read(&mut buf[..want])?;
        if got == 0 {
            return Err(TraceDecodeError::Truncated);
        }
        col.extend_from_slice(&buf[..got]);
    }
    Ok(col)
}

/// Reads a trace from a file, streaming and validating it.
///
/// # Errors
///
/// [`TraceDecodeError`] on I/O failure or malformed contents.
pub fn load(path: impl AsRef<Path>) -> Result<Trace, TraceDecodeError> {
    let mut f = std::fs::File::open(path)?;
    let mut header = [0u8; HEADER_BYTES];
    f.read_exact(&mut header).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceDecodeError::Truncated
        } else {
            TraceDecodeError::Io(e)
        }
    })?;
    if &header[..8] != MAGIC {
        return Err(TraceDecodeError::BadMagic);
    }
    let ops = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
    let payload = u64::from_le_bytes(header[16..24].try_into().expect("8-byte slice"));
    let file_body = f
        .metadata()
        .map(|m| m.len().saturating_sub(HEADER_BYTES as u64))
        .unwrap_or(u64::MAX);
    let (ops_len, payload_len) = columns_extent(ops, payload, file_body)?;
    let tags = read_column(&mut f, ops_len)?;
    let data = read_column(&mut f, payload_len)?;
    let trace = Trace::from_encoded(tags, data)?;
    poat_telemetry::global()
        .counter("pmem.trace.loaded_bytes")
        .add((HEADER_BYTES + ops_len + payload_len) as u64);
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, RuntimeConfig};
    use crate::trace::TraceOp;
    use poat_core::{ObjectId, VirtAddr};
    use proptest::prelude::*;

    fn sample_trace() -> Trace {
        let mut rt = Runtime::new(RuntimeConfig::opt());
        let pool = rt.pool_create("p", 1 << 16).unwrap();
        let oid = rt.pmalloc(pool, 64).unwrap();
        rt.tx_begin(pool).unwrap();
        rt.tx_add_range(oid, 16).unwrap();
        rt.write_u64(oid, 9).unwrap();
        rt.tx_end().unwrap();
        rt.branch(true);
        rt.exec(7);
        rt.take_trace()
    }

    #[test]
    fn roundtrip_preserves_every_op() {
        let t = sample_trace();
        let decoded = from_bytes(&to_bytes(&t)).unwrap();
        assert!(t.ops().eq(decoded.ops()));
        assert_eq!(t.summary(), decoded.summary());
        assert_eq!(t, decoded);
    }

    #[test]
    fn file_roundtrip() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join(format!("poat-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.poattrc");
        save(&t, &path).unwrap();
        let decoded = load(&path).unwrap();
        assert!(t.ops().eq(decoded.ops()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(matches!(
            from_bytes(b"short"),
            Err(TraceDecodeError::Truncated)
        ));
        assert!(matches!(
            from_bytes(b"NOTATRACE\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"),
            Err(TraceDecodeError::BadMagic)
        ));
        // Header promises more column bytes than the body holds.
        let mut data = to_bytes(&sample_trace());
        data.truncate(data.len() - 3);
        assert!(matches!(
            from_bytes(&data),
            Err(TraceDecodeError::Truncated)
        ));
        // Extra bytes after the columns.
        let mut data = to_bytes(&sample_trace());
        data.push(0);
        assert!(matches!(
            from_bytes(&data),
            Err(TraceDecodeError::Corrupt(TraceCorruption::TrailingData))
        ));
        // Column lengths that overflow u64 when summed.
        let mut huge = MAGIC.to_vec();
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            from_bytes(&huge),
            Err(TraceDecodeError::Truncated)
        ));
    }

    #[test]
    fn bad_tag_bits_rejected() {
        // Corrupt the first tag byte: a Fence (kind 6) with an undefined
        // flag bit set. Find a fence in the sample trace's spine.
        let t = sample_trace();
        let mut data = to_bytes(&t);
        let spine = HEADER_BYTES..HEADER_BYTES + t.len();
        let fence_at = data[spine]
            .iter()
            .position(|&b| b == 6)
            .expect("sample trace fences");
        data[HEADER_BYTES + fence_at] = 6 | (1 << 3);
        assert!(matches!(
            from_bytes(&data),
            Err(TraceDecodeError::BadTag(t)) if t == 6 | (1 << 3)
        ));
    }

    #[test]
    fn truncated_payload_column_rejected_on_file_load() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join(format!("poat-trace-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.poattrc");
        let mut bytes = to_bytes(&t);
        bytes.truncate(bytes.len() - 1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path), Err(TraceDecodeError::Truncated)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An arbitrary *valid* op: deps are generated as backreferences
    /// relative to the op's position, so they always point at an earlier
    /// op (the `Trace::push` contract; forward deps are normalized away
    /// and so would not survive a round-trip comparison).
    fn arb_ops() -> impl Strategy<Value = Vec<TraceOp>> {
        prop::collection::vec(
            (
                0u8..8,
                any::<u64>(),
                any::<u64>(),
                any::<u32>(),
                any::<u64>(),
            ),
            0..200,
        )
        .prop_map(|raw| {
            let mut ops = Vec::with_capacity(raw.len());
            for (tag, a, b, n, d) in raw {
                let id = ops.len() as u64;
                let dep = if d % 3 == 0 || id == 0 {
                    None
                } else {
                    Some(id - 1 - (d % id.min(16)))
                };
                let op = match tag {
                    0 => TraceOp::Exec { n: n.max(1) },
                    1 => TraceOp::Load {
                        va: VirtAddr::new(a),
                        dep,
                    },
                    2 => TraceOp::Store {
                        va: VirtAddr::new(a),
                        dep,
                    },
                    3 => TraceOp::NvLoad {
                        oid: ObjectId::from_raw(b),
                        va: VirtAddr::new(a),
                        dep,
                    },
                    4 => TraceOp::NvStore {
                        oid: ObjectId::from_raw(b),
                        va: VirtAddr::new(a),
                        dep,
                    },
                    5 => TraceOp::Clwb {
                        va: VirtAddr::new(a),
                    },
                    6 => TraceOp::Fence,
                    _ => TraceOp::Branch {
                        mispredicted: n % 2 == 0,
                    },
                };
                ops.push(op);
            }
            ops
        })
    }

    proptest! {
        #[test]
        fn arbitrary_traces_roundtrip(ops in arb_ops()) {
            let t: Trace = ops.iter().copied().collect();
            // In-memory encode → decode.
            let decoded = from_bytes(&to_bytes(&t)).unwrap();
            prop_assert!(t.ops().eq(decoded.ops()));
            prop_assert_eq!(t.summary(), decoded.summary());
            // The decoded ops also match the (coalescing-normalized)
            // pushed sequence: re-pushing them reproduces the trace.
            let repushed: Trace = decoded.ops().collect();
            prop_assert_eq!(&repushed, &t);
        }

        #[test]
        fn truncating_any_prefix_never_panics(ops in arb_ops(), cut in 0usize..64) {
            let t: Trace = ops.iter().copied().collect();
            let mut bytes = to_bytes(&t);
            let keep = bytes.len().saturating_sub(cut);
            bytes.truncate(keep);
            // Must either decode (cut == 0) or error cleanly; never panic.
            let _ = from_bytes(&bytes);
        }

        /// Mutate each framing field of a valid file and assert the
        /// exact typed error through BOTH readers — the in-memory
        /// `from_bytes` and the streaming file reader `load`, which parse
        /// the header separately and must agree.
        #[test]
        fn framing_mutations_get_exact_errors(
            ops in arb_ops(),
            field in 0usize..4,
            delta in 1u64..1_000,
        ) {
            let t: Trace = ops.iter().copied().collect();
            let good = to_bytes(&t);
            let mut bytes = good.clone();
            let expect = match field {
                0 => {
                    // Magic.
                    bytes[(delta as usize) % 8] ^= 0xFF;
                    "BadMagic"
                }
                1 => {
                    // Op count inflated: columns overrun the body.
                    let ops_field = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
                    bytes[8..16].copy_from_slice(&ops_field.wrapping_add(delta).to_le_bytes());
                    "Truncated"
                }
                2 => {
                    // Payload length deflated: leftover body bytes
                    // (falls through to trailing garbage when the
                    // payload column is already empty).
                    let pay = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
                    if pay == 0 {
                        bytes.push(0);
                    } else {
                        let cut = delta.min(pay);
                        bytes[16..24].copy_from_slice(&(pay - cut).to_le_bytes());
                    }
                    "TrailingData"
                }
                _ => {
                    // Trailing garbage after the columns.
                    bytes.extend(std::iter::repeat(0u8).take(delta as usize % 16 + 1));
                    "TrailingData"
                }
            };
            let classify = |r: Result<Trace, TraceDecodeError>| match r {
                Err(TraceDecodeError::BadMagic) => "BadMagic",
                Err(TraceDecodeError::Truncated) => "Truncated",
                Err(TraceDecodeError::Corrupt(TraceCorruption::TrailingData)) => "TrailingData",
                Err(_) => "other",
                Ok(_) => "ok",
            };
            prop_assert_eq!(classify(from_bytes(&bytes)), expect);
            let path = std::env::temp_dir()
                .join(format!("poat-trace-mutation-{}.poattrc", std::process::id()));
            std::fs::write(&path, &bytes).unwrap();
            let loaded = load(&path);
            std::fs::remove_file(&path).unwrap();
            prop_assert_eq!(classify(loaded), expect);
        }
    }
}
