//! Little-endian byte encoding for `.fsidx` snapshots: one writer and
//! one cursor, shared by the snapshot header (`failindex`) and the view
//! body (`failscope`).
//!
//! The format is hand-rolled (no serde) so the on-disk layout is an
//! explicit, versioned contract: every field is written in
//! little-endian order exactly as documented in `DESIGN.md`.

use std::fmt;
use std::io::Read;

use crate::Crc32;

/// Growable little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` values are stored as the IEEE-754 bit pattern, so NaN
    /// payloads and signed zeros round-trip bit-for-bit.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends `bytes` as they are.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Length-prefixed UTF-8 string (`u32` byte length + bytes).
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.raw(s.as_bytes());
    }

    /// The bytes written.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Why a [`ByteReader`] read failed: the source ended or failed before
/// the declared length, or a string was not UTF-8. The caller names the
/// field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BytesError;

impl fmt::Display for BytesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("truncated or malformed bytes")
    }
}

impl std::error::Error for BytesError {}

/// Bytes pulled from the source per read: few enough syscalls to be a
/// small share of a multi-megabyte body, and a buffer small enough to
/// stay in cache, whose pages are touched once however long the body.
const CHUNK: usize = 256 * 1024;

/// Bounds-checked little-endian cursor over a body of known length that
/// arrives through a reader, a chunk at a time, checksumming every byte
/// it pulls.
///
/// Streaming keeps the decoder from holding the whole body in a buffer
/// next to the columns it decodes into: only one chunk is ever
/// resident. Every read returns [`BytesError`] on underrun (the source
/// ended or failed before the declared length); a failed read does not
/// advance the cursor. The caller maps errors to descriptive decode
/// errors, and [`ByteReader::remaining`] bounds every allocation and
/// serves the trailing-garbage check.
#[derive(Debug)]
pub struct ByteReader<R> {
    source: R,
    /// Declared body bytes not yet pulled from `source`.
    unread: u64,
    buf: Vec<u8>,
    /// The unconsumed window is `buf[pos..end]`.
    pos: usize,
    end: usize,
    crc: Crc32,
}

impl<R: Read> ByteReader<R> {
    /// A cursor over the first `len` bytes `source` yields. `len` must
    /// be a length the source can back (a file's size, a slice's
    /// length): it bounds what a declared count may allocate.
    pub fn new(source: R, len: u64) -> Self {
        // Never below the widest scalar read, however short the body.
        let chunk = usize::try_from(len).map_or(CHUNK, |len| len.min(CHUNK));
        ByteReader {
            source,
            unread: len,
            buf: vec![0; chunk.max(8)],
            pos: 0,
            end: 0,
            crc: Crc32::new(),
        }
    }

    /// Body bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        let unread = usize::try_from(self.unread).unwrap_or(usize::MAX);
        (self.end - self.pos).saturating_add(unread)
    }

    /// Makes at least `want` (at most a chunk) bytes available in the
    /// window.
    fn fill(&mut self, want: usize) -> Result<(), BytesError> {
        if self.end - self.pos >= want {
            return Ok(());
        }
        if want > self.buf.len() {
            return Err(BytesError);
        }
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        while self.end < want {
            let room = self.buf.len() - self.end;
            let room = usize::try_from(self.unread).map_or(room, |unread| unread.min(room));
            if room == 0 {
                return Err(BytesError);
            }
            let got = match self.source.read(&mut self.buf[self.end..self.end + room]) {
                Ok(0) => return Err(BytesError),
                Ok(got) => got,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(BytesError),
            };
            self.crc.update(&self.buf[self.end..self.end + got]);
            self.end += got;
            self.unread -= got as u64;
        }
        Ok(())
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], BytesError> {
        self.fill(N)?;
        let out = self.buf[self.pos..self.pos + N].try_into().expect("N bytes");
        self.pos += N;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, BytesError> {
        Ok(self.take::<1>()?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, BytesError> {
        Ok(u16::from_le_bytes(self.take()?))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, BytesError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, BytesError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// Reads an `i32`.
    pub fn i32(&mut self) -> Result<i32, BytesError> {
        Ok(i32::from_le_bytes(self.take()?))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, BytesError> {
        Ok(i64::from_le_bytes(self.take()?))
    }

    /// A column of `count` values of `W` bytes each: one bounds check of
    /// the whole column against the bytes left, before anything is
    /// allocated, then a straight-line conversion a window at a time.
    pub fn column<const W: usize, T>(
        &mut self,
        count: usize,
        convert: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, BytesError> {
        if count.checked_mul(W).is_none_or(|bytes| bytes > self.remaining()) {
            return Err(BytesError);
        }
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            self.fill(W)?;
            let values = ((self.end - self.pos) / W).min(count - out.len());
            let window = &self.buf[self.pos..self.pos + values * W];
            out.extend(
                window
                    .chunks_exact(W)
                    .map(|c| convert(c.try_into().expect("chunk of W bytes"))),
            );
            self.pos += values * W;
        }
        Ok(out)
    }

    /// Length-prefixed UTF-8 string; rejects invalid UTF-8.
    pub fn str(&mut self) -> Result<String, BytesError> {
        let len = self.u32()? as usize;
        let bytes = self.column(len, |[b]: [u8; 1]| b)?;
        String::from_utf8(bytes).map_err(|_| BytesError)
    }

    /// Pulls whatever the body has left through the checksum and
    /// returns the CRC-32 of every byte of it; `Err` when the source
    /// ended before the declared length.
    pub fn finish(mut self) -> Result<u32, BytesError> {
        while self.unread > 0 {
            self.pos = self.end;
            self.fill(1)?;
        }
        Ok(self.crc.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(bytes: &[u8]) -> ByteReader<&[u8]> {
        ByteReader::new(bytes, bytes.len() as u64)
    }

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::with_capacity(64);
        w.u8(0xAB);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(0x0123_4567_89AB_CDEF);
        w.i32(-12345);
        w.i64(-1_234_567_890_123);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("héllo");
        let bytes = w.into_bytes();

        let mut r = reader(&bytes);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(0x0123_4567_89AB_CDEF));
        assert_eq!(r.i32(), Ok(-12345));
        assert_eq!(r.i64(), Ok(-1_234_567_890_123));
        let z = f64::from_bits(r.u64().unwrap());
        assert!(z == 0.0 && z.is_sign_negative());
        assert!(f64::from_bits(r.u64().unwrap()).is_nan());
        assert_eq!(r.str().as_deref(), Ok("héllo"));
        assert_eq!(r.remaining(), 0);
        assert!(r.u8().is_err());
        assert_eq!(r.finish(), Ok(crate::crc32(&bytes)));
    }

    #[test]
    fn reader_rejects_underruns_and_bad_utf8() {
        let mut r = reader(&[0x01, 0x02]);
        assert!(r.u32().is_err());
        // A failed read must not advance the cursor.
        assert_eq!(r.u16(), Ok(0x0201));

        // Length prefix says 2 bytes, payload is invalid UTF-8.
        let mut w = ByteWriter::default();
        w.u32(2);
        w.raw(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert!(reader(&bytes).str().is_err());

        // Length prefix overruns the buffer.
        let mut w = ByteWriter::default();
        w.u32(100);
        w.raw(b"short");
        let bytes = w.into_bytes();
        assert!(reader(&bytes).str().is_err());

        // A source shorter than the declared length underruns, and so
        // does the checksum over the rest.
        let mut r = ByteReader::new(&[1u8, 2, 3][..], 8);
        assert_eq!(r.remaining(), 8);
        assert!(r.u64().is_err());
        assert!(r.finish().is_err());
    }

    #[test]
    fn columns_stream_across_chunk_boundaries() {
        // More bytes than one chunk, read a few at a time by the source,
        // with a column whose values straddle every chunk boundary.
        struct Trickle<'a>(&'a [u8]);
        impl Read for Trickle<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                let n = out.len().min(self.0.len()).min(1000);
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let values: Vec<u64> = (0..100_000u64).map(|i| i * 0x9E37_79B9).collect();
        let mut w = ByteWriter::default();
        w.u8(7);
        for &v in &values {
            w.u64(v);
        }
        w.str("tail");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(Trickle(&bytes), bytes.len() as u64);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.column(values.len(), u64::from_le_bytes), Ok(values));
        assert_eq!(r.str().as_deref(), Ok("tail"));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.finish(), Ok(crate::crc32(&bytes)));
        // A column longer than what is left is refused before any
        // allocation.
        assert!(reader(&bytes).column(usize::MAX / 8, u64::from_le_bytes).is_err());
        assert!(reader(&bytes).column(usize::MAX, u64::from_le_bytes).is_err());
    }
}
