// SPDX-License-Identifier: MIT OR Apache-2.0
//! Byte-level codec for ledger payloads ([`crate::record::RecordData`]):
//! LEB128 varints, length-prefixed strings, front-coded name sequences,
//! and a bounds-checked decode cursor.

use crate::LedgerError;

/// Appends `v` as an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `s` as a varint byte length followed by the UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Writes `name` as (shared-prefix byte length with `prev`, suffix) —
/// front-coding, worth ~3× on sorted dot-separated metric namespaces.
pub fn put_front_coded(out: &mut Vec<u8>, prev: &str, name: &str) {
    let shared = prev
        .as_bytes()
        .iter()
        .zip(name.as_bytes())
        .take_while(|(a, b)| a == b)
        .count();
    // Clamp to a char boundary of `name` so the suffix stays valid UTF-8.
    let mut shared = shared.min(name.len());
    while !name.is_char_boundary(shared) {
        shared -= 1;
    }
    put_varint(out, shared as u64);
    put_str(out, &name[shared..]);
}

/// A bounds-checked decoding position over a payload byte slice. Every
/// read is validated; structural violations surface as
/// [`LedgerError::Corrupt`] rather than panics.
pub struct Cursor<'a> {
    /// The payload being decoded.
    pub bytes: &'a [u8],
    /// Current read offset.
    pub pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts a cursor at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Consumes and returns the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Corrupt`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], LedgerError> {
        if self.pos + n > self.bytes.len() {
            return Err(LedgerError::Corrupt("field extends past payload"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Decodes one LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Corrupt`] on truncation or u64 overflow.
    pub fn varint(&mut self) -> Result<u64, LedgerError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let [byte] = *self.take(1)? else {
                return Err(LedgerError::Corrupt("varint truncated"));
            };
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(LedgerError::Corrupt("varint overflows u64"));
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Decodes one length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Corrupt`] on truncation or invalid UTF-8.
    pub fn string(&mut self) -> Result<String, LedgerError> {
        let len = self.varint()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| LedgerError::Corrupt("string not UTF-8"))
    }

    /// Decodes one front-coded name given its predecessor.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Corrupt`] when the shared-prefix length exceeds
    /// `prev` or falls inside a UTF-8 sequence.
    pub fn front_coded(&mut self, prev: &str) -> Result<String, LedgerError> {
        let shared = self.varint()? as usize;
        if shared > prev.len() || !prev.is_char_boundary(shared) {
            return Err(LedgerError::Corrupt("front-coding prefix out of range"));
        }
        let suffix = self.string()?;
        let mut name = String::with_capacity(shared + suffix.len());
        name.push_str(&prev[..shared]);
        name.push_str(&suffix);
        Ok(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX / 2, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.varint().unwrap(), v, "value {v}");
            assert_eq!(cur.pos, buf.len());
        }
    }

    #[test]
    fn front_coding_roundtrips_shared_prefixes() {
        let names = ["core.polb.hits", "core.polb.misses", "core.pot.walks"];
        let mut buf = Vec::new();
        let mut prev = "";
        for n in &names {
            put_front_coded(&mut buf, prev, n);
            prev = n;
        }
        let mut cur = Cursor::new(&buf);
        let mut prev = String::new();
        for n in &names {
            let got = cur.front_coded(&prev).unwrap();
            assert_eq!(&got, n);
            prev = got;
        }
        assert_eq!(cur.pos, buf.len());
    }

    #[test]
    fn string_rejects_bad_utf8() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Cursor::new(&buf).string().is_err());
    }
}
