//! Failure-log ingestion and serialization for the `failscope` workspace.
//!
//! Production failure logs arrive as flat files; this crate defines the
//! `failscope-log v1` text format (a small self-describing CSV, see
//! [`write_log`]), parses it back into validated
//! [`failtypes::FailureLog`]s, and provides the operational helpers a
//! center needs before sharing data: keyed node anonymization
//! ([`anonymize_nodes`]) — the paper's own dataset was released in exactly
//! this shape for business-sensitivity reasons — and quick summaries
//! ([`summarize`]).
//!
//! Batch readers read a file once into a [`LogFile`] (raw bytes plus
//! their [`SourceInfo`] fingerprint, and the file's [`FileId`] as
//! `fstat` saw it around the read) and parse that buffer; for live
//! monitoring, [`LogTailer`] reads the same format incrementally with
//! follow-mode polling. Both sniff and decode a file through one
//! dispatch, and every reader parses body rows with one row loop,
//! [`parse_body_rows`], over one grammar, [`parse_line`]: native CSV,
//! or one-line NDJSON objects. Record filtering
//! (`--where`, and the `--since`/`--until` sugar that desugars into it)
//! is pushed down into the parser itself: a compiled
//! [`failfilter::CompiledPredicate`] carried in [`ParseOptions::filter`]
//! drops non-matching records during chunked ingest.
//!
//! `.fsidx` snapshots are recognised here ([`FSIDX_MAGIC`]) so that one
//! passed as a log is refused, and their bytes are read and written
//! with [`ByteReader`] and [`ByteWriter`], the little-endian cursor and
//! sink the snapshot header and the view body share.
//!
//! # Examples
//!
//! ```
//! use failsim::{Simulator, SystemModel};
//!
//! // Generate, serialize, anonymize, reparse.
//! let log = Simulator::new(SystemModel::tsubame2(), 5).generate().unwrap();
//! let anon = faillog::anonymize_nodes(&log, 1234);
//! let text = faillog::to_string(&anon)?;
//! let parsed = faillog::from_str(&text)?;
//! assert_eq!(parsed.len(), 897);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod bytes;
mod csv;
mod inflate;
mod input;
mod ops;
mod parallel;
mod row;
mod stream;

pub use bytes::{ByteReader, ByteWriter, BytesError};
pub use csv::{from_str, read_log, to_string, write_log};
pub use inflate::{crc32, gzip_compress, gzip_decompress, Crc32};
pub use input::{
    file_id, read_input, Compression, FileId, LogFile, ReadStat, SourceInfo, FSIDX_MAGIC,
};
pub use ops::{anonymize_nodes, load, load_with, save, summarize, LogSummary};
pub use parallel::{from_str_with, parse_body_rows, BodyRows, ParseOptions, DEFAULT_CHUNK_BYTES};
pub use row::{parse_line, parse_ndjson_row, record_to_ndjson};
pub use stream::{LogRotated, LogTailer, Rotation};

#[cfg(test)]
mod tests {
    #[test]
    fn errors_are_the_unified_failtypes_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<failtypes::Error>();
        let err = crate::from_str("not a log").unwrap_err();
        assert!(matches!(err, failtypes::Error::Header(_)), "{err}");
    }
}
