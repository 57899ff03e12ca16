//! The `.fsidx` header: a fixed 96-byte prefix naming the format
//! version, the source log's fingerprint and file identity, and the
//! length and CRC-32 of the body after it. The body is the view's own
//! encoding, written and read by `failscope`
//! ([`StreamView::encode_body`](failscope::StreamView::encode_body),
//! [`StreamView::decode_body`](failscope::StreamView::decode_body)); this
//! crate only frames and checksums it.
//!
//! All integers are little-endian. The layout is documented
//! field-by-field in `DESIGN.md` and guarded by [`FORMAT_VERSION`]:
//! readers reject any other version, so layout changes must bump it.

use faillog::{crc32, ByteReader, ByteWriter, FileId, ReadStat, FSIDX_MAGIC};
use failscope::FORMAT_VERSION;

use crate::SourceInfo;

/// Total size of the fixed header, in bytes.
pub const HEADER_LEN: usize = 96;

/// Decoded `.fsidx` header: everything needed to decide whether the
/// snapshot is still warm for a given log *without* touching the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version (currently always [`FORMAT_VERSION`]).
    pub version: u16,
    /// Fingerprint of the source log's raw on-disk bytes at save time.
    pub source: SourceInfo,
    /// The identity of the log file the snapshot was built from, and
    /// when it was read; `None` when the build established none.
    pub read: Option<ReadStat>,
    /// Body length in bytes (everything after the header).
    pub body_len: u64,
    /// CRC-32 of the body bytes.
    pub body_crc32: u32,
}

impl Header {
    /// Encodes the header, computing the trailing header CRC. Without an
    /// identity the flag and every identity field are zero, so the
    /// header keeps its fixed length either way.
    pub(crate) fn encode(&self) -> [u8; HEADER_LEN] {
        let mut w = ByteWriter::with_capacity(HEADER_LEN);
        w.raw(&FSIDX_MAGIC);
        w.u16(self.version);
        w.u64(self.source.bytes);
        w.u32(self.source.crc32);
        w.u64(self.source.lines);
        w.u64(self.body_len);
        w.u32(self.body_crc32);
        let none = ReadStat {
            id: FileId {
                dev: 0,
                ino: 0,
                len: 0,
                mtime_ns: 0,
                ctime_ns: 0,
            },
            read_at_ns: 0,
        };
        let read = self.read.unwrap_or(none);
        w.u32(u32::from(self.read.is_some()));
        w.u64(read.id.dev);
        w.u64(read.id.ino);
        w.u64(read.id.len);
        w.i64(read.id.mtime_ns);
        w.i64(read.id.ctime_ns);
        w.i64(read.read_at_ns);
        let bytes = w.into_bytes();
        let mut out = [0u8; HEADER_LEN];
        out[..HEADER_LEN - 4].copy_from_slice(&bytes);
        out[HEADER_LEN - 4..].copy_from_slice(&crc32(&bytes).to_le_bytes());
        out
    }

    /// Decodes and fully validates a header prefix: magic, version,
    /// the header's own CRC, and the identity flag. Returns a
    /// human-readable reason on failure (the caller prefixes the path).
    pub(crate) fn decode(data: &[u8]) -> Result<Header, String> {
        // The magic and version come first, so a snapshot of another
        // format version is named as such even when it is shorter.
        let prefix = FSIDX_MAGIC.len() + 2;
        if data.len() >= prefix {
            if data[..FSIDX_MAGIC.len()] != FSIDX_MAGIC {
                return Err("bad magic (not a .fsidx snapshot)".to_string());
            }
            let version = u16::from_le_bytes([data[prefix - 2], data[prefix - 1]]);
            if version != FORMAT_VERSION {
                return Err(format!(
                    "unsupported format version {version} (this build reads {FORMAT_VERSION})"
                ));
            }
        }
        if data.len() < HEADER_LEN {
            return Err(format!(
                "truncated header ({} of {HEADER_LEN} bytes)",
                data.len()
            ));
        }
        let stored = u32::from_le_bytes(data[HEADER_LEN - 4..HEADER_LEN].try_into().unwrap());
        if crc32(&data[..HEADER_LEN - 4]) != stored {
            return Err("header checksum mismatch".to_string());
        }
        let fields = &data[prefix..HEADER_LEN - 4];
        let mut r = ByteReader::new(fields, fields.len() as u64);
        let source = SourceInfo {
            bytes: r.u64().expect("sized above"),
            crc32: r.u32().expect("sized above"),
            lines: r.u64().expect("sized above"),
        };
        let body_len = r.u64().expect("sized above");
        let body_crc32 = r.u32().expect("sized above");
        let flag = r.u32().expect("sized above");
        let read = ReadStat {
            id: FileId {
                dev: r.u64().expect("sized above"),
                ino: r.u64().expect("sized above"),
                len: r.u64().expect("sized above"),
                mtime_ns: r.i64().expect("sized above"),
                ctime_ns: r.i64().expect("sized above"),
            },
            read_at_ns: r.i64().expect("sized above"),
        };
        let read = match flag {
            0 => None,
            1 => Some(read),
            other => return Err(format!("unknown identity flag {other}")),
        };
        Ok(Header {
            version: FORMAT_VERSION,
            source,
            read,
            body_len,
            body_crc32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> Header {
        Header {
            version: FORMAT_VERSION,
            source: SourceInfo {
                bytes: 123,
                crc32: 0xDEAD_BEEF,
                lines: 9,
            },
            read: Some(ReadStat {
                id: FileId {
                    dev: 2049,
                    ino: 77,
                    len: 123,
                    mtime_ns: 1_700_000_000_123_456_789,
                    ctime_ns: -5,
                },
                read_at_ns: i64::MAX,
            }),
            body_len: 4567,
            body_crc32: 0x0BAD_F00D,
        }
    }

    /// `bytes` with its trailing header CRC recomputed.
    fn resealed(mut bytes: [u8; HEADER_LEN]) -> [u8; HEADER_LEN] {
        let crc = crc32(&bytes[..HEADER_LEN - 4]);
        bytes[HEADER_LEN - 4..].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn header_round_trips_and_is_exactly_96_bytes() {
        let with_identity = sample_header();
        let without = Header {
            read: None,
            ..with_identity
        };
        for h in [with_identity, without] {
            let bytes = h.encode();
            assert_eq!(bytes.len(), HEADER_LEN);
            assert_eq!(&bytes[..FSIDX_MAGIC.len()], &FSIDX_MAGIC);
            assert_eq!(Header::decode(&bytes), Ok(h));
            // Extra trailing bytes (the body) don't confuse the decoder.
            let mut with_body = bytes.to_vec();
            with_body.extend_from_slice(b"body");
            assert_eq!(Header::decode(&with_body), Ok(h));
        }
        // No identity: the flag and every identity field are zero.
        assert!(without.encode()[40..HEADER_LEN - 4].iter().all(|&b| b == 0));
    }

    #[test]
    fn header_decode_rejects_corruption() {
        let good = sample_header().encode();

        let err = Header::decode(&good[..20]).unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        let mut bad_magic = good;
        bad_magic[0] ^= 0xFF;
        let err = Header::decode(&bad_magic).unwrap_err();
        assert!(err.contains("magic"), "{err}");

        // Another version is reported as unsupported, not as a checksum
        // error, whatever its header length.
        let mut next = good;
        next[6..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let err = Header::decode(&resealed(next)).unwrap_err();
        assert!(err.contains(&format!("version {}", FORMAT_VERSION + 1)), "{err}");
        // A version-2 file: the 44-byte header of an older layout.
        let mut v2 = Vec::new();
        v2.extend_from_slice(&FSIDX_MAGIC);
        v2.extend_from_slice(&2u16.to_le_bytes());
        v2.resize(40, 0x5A);
        let crc = crc32(&v2);
        v2.extend_from_slice(&crc.to_le_bytes());
        let err = Header::decode(&v2).unwrap_err();
        assert!(err.starts_with("unsupported format version 2"), "{err}");

        // Any flipped payload byte trips the header CRC.
        let mut flipped = sample_header().encode();
        flipped[12] ^= 0x01;
        let err = Header::decode(&flipped).unwrap_err();
        assert!(err.contains("checksum"), "{err}");

        // An identity flag other than 0 or 1 is refused.
        let mut flag = good;
        flag[40..44].copy_from_slice(&2u32.to_le_bytes());
        let err = Header::decode(&resealed(flag)).unwrap_err();
        assert!(err.contains("identity flag 2"), "{err}");
    }

    /// Fuzzing of the header decoder: any byte string fed through
    /// `Header::decode` yields `Ok` or a typed `Err` and never panics,
    /// and a header it accepts with an identity re-encodes to its bytes.
    /// The body decoder's fuzzing lives beside it, in `failscope`.
    mod fuzz {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        #[test]
        fn any_header_field_overwritten_with_all_ones_is_decoded_or_refused() {
            // Resealed, so each window reaches the field decoders
            // rather than the checksum.
            let good = sample_header().encode();
            for at in 0..HEADER_LEN - 4 {
                for fill in [0xFF, 0x7F] {
                    let mut bad = good;
                    bad[at..(at + 8).min(HEADER_LEN - 4)].fill(fill);
                    // A decoded header with an identity re-encodes to
                    // its bytes.
                    if let Ok(header) = Header::decode(&resealed(bad)) {
                        assert!(header.read.is_none() || header.encode() == resealed(bad));
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn arbitrary_header_bytes_are_decoded_or_refused(
                bytes in vec(any::<u8>(), 0..2 * HEADER_LEN),
            ) {
                let _ = Header::decode(&bytes);
            }

            #[test]
            fn every_header_truncation_is_refused(cut in 0..HEADER_LEN) {
                let header = sample_header().encode();
                prop_assert!(Header::decode(&header[..cut]).is_err());
            }

            #[test]
            fn mutated_headers_are_decoded_or_refused(
                edits in vec((0..HEADER_LEN, 1u8..=255), 1..8),
                reseal in any::<bool>(),
            ) {
                let mut header = sample_header().encode();
                for (at, flip) in edits {
                    header[at] ^= flip;
                }
                if reseal {
                    header = resealed(header);
                }
                if let Ok(decoded) = Header::decode(&header) {
                    prop_assert!(decoded.read.is_none() || decoded.encode() == header);
                }
            }
        }
    }
}
