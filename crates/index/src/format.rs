//! The `.fsidx` on-disk layout: a fixed 96-byte header followed by a
//! checksummed body that serializes a [`failscope::StreamView`]'s
//! [`ViewParts`]: everything the view holds except what one pass over
//! the record columns rebuilds.
//!
//! All integers are little-endian; `f64`s are stored as IEEE-754 bit
//! patterns. The layout is documented field-by-field in `DESIGN.md` and
//! guarded by [`FORMAT_VERSION`]: readers reject any other version, so
//! layout changes must bump it.

use faillog::{crc32, FileId, ReadStat, FSIDX_MAGIC};
use failscope::{NodeTally, StreamView, ViewParts};
use failtypes::{
    Category, Date, Generation, GpuSlot, ObservationWindow, SoftwareLocus, SystemSpec,
    T2Category, T3Category,
};

use std::io::Read;

use crate::bytes::{ByteReader, ByteWriter};
use crate::SourceInfo;

/// The `.fsidx` format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 5;

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

fn locus_byte(locus: Option<SoftwareLocus>) -> u8 {
    match locus {
        None => 0,
        Some(l) => {
            let idx = SoftwareLocus::ALL
                .iter()
                .position(|&x| x == l)
                .expect("ALL is exhaustive");
            idx as u8 + 1
        }
    }
}

fn locus_from_byte(b: u8) -> Result<Option<SoftwareLocus>, String> {
    match b {
        0 => Ok(None),
        n => SoftwareLocus::ALL
            .get(n as usize - 1)
            .copied()
            .map(Some)
            .ok_or_else(|| format!("unknown software locus code {n}")),
    }
}

fn category_from_label(generation: Generation, label: &str) -> Result<Category, String> {
    match generation {
        Generation::Tsubame2 => label
            .parse::<T2Category>()
            .map(Category::T2)
            .map_err(|e| e.to_string()),
        Generation::Tsubame3 => label
            .parse::<T3Category>()
            .map(Category::T3)
            .map_err(|e| e.to_string()),
    }
}

fn encode_date(w: &mut ByteWriter, d: Date) {
    w.i32(d.year());
    w.u8(d.month().number());
    w.u8(d.day());
}

/// A column of `count` fixed-width values (see [`ByteReader::column`]).
fn column<R: Read, const W: usize, T>(
    r: &mut ByteReader<R>,
    what: &str,
    count: usize,
    convert: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>, String> {
    r.column(count, convert)
        .map_err(|()| format!("truncated body ({what})"))
}

fn f64_array<R: Read>(r: &mut ByteReader<R>, what: &str, count: usize) -> Result<Vec<f64>, String> {
    column(r, what, count, |b| f64::from_bits(u64::from_le_bytes(b)))
}

/// Window years a snapshot may carry: the four-digit years a log
/// header spells. Bounding them keeps the calendar arithmetic far from
/// `i32` overflow on a corrupt body.
const YEARS: std::ops::RangeInclusive<i32> = 1..=9999;

fn decode_date<R: Read>(r: &mut ByteReader<R>) -> Result<Date, String> {
    let year = r.i32().map_err(|_| "truncated date")?;
    let month = r.u8().map_err(|_| "truncated date")?;
    let day = r.u8().map_err(|_| "truncated date")?;
    if !YEARS.contains(&year) {
        return Err(format!("date year {year} outside {}..={}", YEARS.start(), YEARS.end()));
    }
    Date::new(year, month, day).ok_or_else(|| format!("invalid date {year}-{month}-{day}"))
}

/// Bytes each record occupies across the fixed-width columns: id (4),
/// time (8), TTR (8), category (1), node (4), locus (1), GPU count (1).
const RECORD_COLUMN_BYTES: usize = 27;

/// Serializes `index` into the body byte stream.
///
/// Records are stored column by column in arrival order; categories as
/// the view's own codes into its own palette (first-arrival order),
/// written before them. `f64` arrays (`ttrs_sorted`, `gaps_sorted`,
/// `multi_gpu_times`) are stored raw so loading skips re-sorting. Repair
/// ends are not stored: their one reader, the availability sweep,
/// derives and sorts them itself; nor are the per-rack counts and the
/// GPU-involvement total, which the view sums from the node tallies,
/// the slot counts and the histogram.
pub(crate) fn encode_body(index: &StreamView) -> Vec<u8> {
    let n = index.len();
    let slots = index.slot_involvements();
    // 27 column bytes and two sorted f64s per record, plus the slots.
    let mut w = ByteWriter::with_capacity(43 * n + slots.len() + 4096);

    w.u8(match index.generation() {
        Generation::Tsubame2 => 0,
        Generation::Tsubame3 => 1,
    });
    let spec = index.spec();
    w.str(spec.name());
    w.u32(spec.nodes());
    w.u8(spec.gpus_per_node());
    let window = index.window();
    encode_date(&mut w, window.start());
    encode_date(&mut w, window.end());

    let palette = index.category_palette();
    w.u16(palette.len() as u16);
    for cat in palette {
        w.str(cat.label());
    }

    w.u64(n as u64);
    for &id in index.ids() {
        w.u32(id);
    }
    for &t in index.times() {
        w.f64(t);
    }
    for &ttr in index.ttrs() {
        w.f64(ttr);
    }
    w.raw(index.category_codes());
    for &node in index.nodes() {
        w.u32(node);
    }
    for &locus in index.loci() {
        w.u8(locus_byte(locus));
    }
    for count in index.gpu_counts() {
        w.u8(count);
    }
    for slot in slots {
        w.u8(slot.index());
    }

    for sorted in [index.ttrs_sorted(), index.gaps_sorted()] {
        for &x in sorted {
            w.f64(x);
        }
    }

    let loci = index.locus_counts();
    w.u16(loci.len() as u16);
    for (locus, count) in loci {
        w.str(locus.label());
        w.u64(*count as u64);
    }

    let slot_counts = index.slot_counts();
    w.u16(slot_counts.len() as u16);
    for &c in slot_counts {
        w.u64(c as u64);
    }

    let tallies = index.node_tallies();
    w.u32(tallies.len() as u32);
    for tally in tallies {
        w.u32(tally.failures);
    }
    for tally in tallies {
        w.u32(tally.hardware);
    }
    for tally in tallies {
        w.u32(tally.software);
    }
    for tally in tallies {
        w.f64(tally.first_failure);
    }

    let histogram = index.gpu_count_histogram();
    w.u16(histogram.len() as u16);
    for &c in histogram {
        w.u64(c as u64);
    }

    let multi = index.multi_gpu_times();
    w.u64(multi.len() as u64);
    for &t in multi {
        w.f64(t);
    }

    let months = index.month_ttrs();
    w.u32(months.len() as u32);
    for bucket in months {
        w.u32(bucket.len() as u32);
    }

    w.into_bytes()
}

/// Mirrors `faillog`'s header-reconstruction rule: logs that only name
/// the generation reuse its canonical spec, so a snapshot of such a log
/// rebuilds the *identical* spec object rather than a lookalike.
fn rebuild_spec(generation: Generation, name: &str, nodes: u32, gpus: u8) -> Result<SystemSpec, String> {
    let base = generation.spec();
    if nodes == base.nodes() && gpus == base.gpus_per_node() && name == base.name() {
        return Ok(base);
    }
    SystemSpec::builder(name)
        .nodes(nodes)
        .gpus_per_node(gpus)
        .build()
        .map_err(|e| e.to_string())
}

/// Decodes a body byte stream into [`ViewParts`], consuming all of it.
///
/// Performs structural validation only (bounds, palette labels, locus
/// codes, trailing garbage): every count is checked against the bytes
/// left before anything is allocated for it. Cross-column consistency
/// is enforced by `StreamView::from_parts` downstream, and the body's
/// checksum by the caller, from [`ByteReader::finish`]. Errors are
/// human-readable reasons without the path prefix.
pub(crate) fn decode_body<R: Read>(r: &mut ByteReader<R>) -> Result<ViewParts, String> {
    let trunc = |what: &str| format!("truncated body ({what})");

    let generation = match r.u8().map_err(|_| trunc("generation"))? {
        0 => Generation::Tsubame2,
        1 => Generation::Tsubame3,
        g => return Err(format!("unknown generation code {g}")),
    };
    let name = r.str().map_err(|_| trunc("spec name"))?;
    let nodes = r.u32().map_err(|_| trunc("spec nodes"))?;
    let gpus = r.u8().map_err(|_| trunc("spec gpus"))?;
    let spec = rebuild_spec(generation, &name, nodes, gpus)?;
    let start = decode_date(r)?;
    let end = decode_date(r)?;
    let window = ObservationWindow::new(start, end)
        .ok_or_else(|| "observation window end precedes start".to_string())?;

    let n_cats = r.u16().map_err(|_| trunc("category count"))? as usize;
    // A palette entry is at least its string length.
    if n_cats > r.remaining() / 4 {
        return Err(trunc("category palette"));
    }
    let mut category_palette: Vec<Category> = Vec::with_capacity(n_cats);
    for _ in 0..n_cats {
        let label = r.str().map_err(|_| trunc("category label"))?;
        let cat = category_from_label(generation, &label)?;
        if category_palette.contains(&cat) {
            return Err(format!("duplicate category `{label}` in palette"));
        }
        category_palette.push(cat);
    }

    let n = r.u64().map_err(|_| trunc("record count"))?;
    // Every record fills each fixed-width column; one check of the whole
    // set against the bytes left bounds all the allocations below.
    let n = usize::try_from(n)
        .ok()
        .filter(|&n| n <= r.remaining() / RECORD_COLUMN_BYTES)
        .ok_or_else(|| trunc("record columns"))?;
    let ids = column(r, "record ids", n, u32::from_le_bytes)?;
    let times = f64_array(r, "record times", n)?;
    let ttrs = f64_array(r, "record ttrs", n)?;
    let categories = column(r, "record categories", n, |[b]| b)?;
    let nodes = column(r, "record nodes", n, u32::from_le_bytes)?;
    let locus_codes = column(r, "record loci", n, |[b]| b)?;
    if let Some(&code) = locus_codes.iter().max() {
        locus_from_byte(code)?;
    }
    let loci = locus_codes
        .iter()
        .map(|&code| locus_from_byte(code).expect("every code is at most the largest, valid one"))
        .collect();
    let gpu_counts = column(r, "record gpu counts", n, |[b]| b)?;
    let n_slots: usize = gpu_counts.iter().map(|&c| usize::from(c)).sum();
    let slots = column(r, "record gpu slots", n_slots, |[b]| GpuSlot::new(b))?;

    let ttrs_sorted = f64_array(r, "ttrs", n)?;
    let gaps_sorted = f64_array(r, "gaps", n.saturating_sub(1))?;

    let n_loci = r.u16().map_err(|_| trunc("locus count"))? as usize;
    let mut locus_counts = std::collections::BTreeMap::new();
    for _ in 0..n_loci {
        let label = r.str().map_err(|_| trunc("locus label"))?;
        let locus = label
            .parse::<SoftwareLocus>()
            .map_err(|e| e.to_string())?;
        let count = r.u64().map_err(|_| trunc("locus tally"))? as usize;
        if locus_counts.insert(locus, count).is_some() {
            return Err(format!("duplicate locus `{label}`"));
        }
    }

    let n_slot_tallies = r.u16().map_err(|_| trunc("slot count"))? as usize;
    let slot_counts = column(r, "slot tallies", n_slot_tallies, |b| {
        u64::from_le_bytes(b) as usize
    })?;

    let n_tallies = r.u32().map_err(|_| trunc("node count"))? as usize;
    // Four columns of node tallies: three u32 counts and an f64 time.
    if n_tallies > r.remaining() / 20 {
        return Err(trunc("node tallies"));
    }
    let failures = column(r, "node failures", n_tallies, u32::from_le_bytes)?;
    let hardware = column(r, "node hardware failures", n_tallies, u32::from_le_bytes)?;
    let software = column(r, "node software failures", n_tallies, u32::from_le_bytes)?;
    let first = f64_array(r, "node first failures", n_tallies)?;
    let node_tallies = (0..n_tallies)
        .map(|i| NodeTally {
            failures: failures[i],
            hardware: hardware[i],
            software: software[i],
            first_failure: first[i],
        })
        .collect();

    let n_histogram = r.u16().map_err(|_| trunc("gpu histogram count"))? as usize;
    let gpu_count_histogram = column(r, "gpu histogram", n_histogram, |b| {
        u64::from_le_bytes(b) as usize
    })?;

    let n_multi = r.u64().map_err(|_| trunc("multi-gpu count"))?;
    let n_multi = usize::try_from(n_multi).map_err(|_| trunc("multi-gpu times"))?;
    let multi_gpu_times = f64_array(r, "multi-gpu times", n_multi)?;

    let n_months = r.u32().map_err(|_| trunc("month count"))? as usize;
    let month_counts = column(r, "month tallies", n_months, |b| {
        u32::from_le_bytes(b) as usize
    })?;

    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes after body", r.remaining()));
    }

    Ok(ViewParts {
        generation,
        spec,
        window,
        ids,
        times,
        ttrs,
        category_palette,
        categories,
        nodes,
        loci,
        gpu_counts,
        slots,
        ttrs_sorted,
        gaps_sorted,
        locus_counts,
        node_tallies,
        gpu_count_histogram,
        slot_counts,
        multi_gpu_times,
        month_counts,
    })
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

    /// Fuzzing of the header and body decoders: any byte string, fed
    /// through `Header::decode`, or through `decode_body` then
    /// `StreamView::from_parts`, yields `Ok` or a typed `Err` and never
    /// panics. Every count the body carries — the record count that
    /// sizes the columns, the GPU-slot total the counts column sums to,
    /// each tally length — is checked against the bytes left before
    /// anything is allocated for it, and the tables `from_parts` derives
    /// are sized by the spec only after the spec's node count matched
    /// the stored node tallies; an unguarded count set to all ones would
    /// abort the test process on its allocation.
    mod fuzz {
        use super::*;
        use failsim::{ScenarioBuilder, Simulator};
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// The bulk view of a small log: a few dozen records, some
        /// multi-GPU, over two months.
        fn valid_view() -> StreamView {
            let model = ScenarioBuilder::new("fuzz")
                .nodes(16)
                .gpus_per_node(4)
                .system_mtbf_hours(20.0)
                .window_days(60)
                .build()
                .expect("scenario parameters are valid");
            StreamView::from(Simulator::new(model, 5).generate().expect("simulates"))
        }

        /// The body of a small valid snapshot: [`valid_view`]'s.
        fn valid_body() -> Vec<u8> {
            encode_body(&valid_view())
        }

        fn decode(bytes: &[u8]) -> Result<StreamView, String> {
            let mut r = ByteReader::new(bytes, bytes.len() as u64);
            StreamView::from_parts(decode_body(&mut r)?).map_err(|e| e.to_string())
        }

        #[test]
        fn the_valid_body_round_trips() {
            let body = valid_body();
            let view = decode(&body).expect("valid body decodes");
            assert!(view.len() > 20 && view.gpu_count_histogram()[2] > 0);
            assert_eq!(encode_body(&view), body);
        }

        /// Where the palette sits in `valid_body`: after the generation,
        /// the spec (name length, name, nodes, GPUs per node) and the
        /// window's two dates.
        const PALETTE_AT: usize = 1 + 4 + "fuzz".len() + 4 + 1 + 2 * 6;

        #[test]
        fn a_palette_in_another_order_with_an_unused_label_decodes_to_the_bulk_view() {
            let bulk = valid_view();
            let body = encode_body(&bulk);
            let palette = bulk.category_palette();
            assert!(palette.len() > 1);
            let all: Vec<Category> = match bulk.generation() {
                Generation::Tsubame2 => T2Category::ALL.iter().map(|&c| Category::T2(c)).collect(),
                Generation::Tsubame3 => T3Category::ALL.iter().map(|&c| Category::T3(c)).collect(),
            };
            let unused = *all
                .iter()
                .find(|c| !palette.contains(c))
                .expect("the log leaves a category unused");
            // The palette in reverse first-arrival order, then a label no
            // record uses, and every code renumbered to match.
            let mut w = ByteWriter::with_capacity(256);
            w.u16(palette.len() as u16 + 1);
            for cat in palette.iter().rev().chain([&unused]) {
                w.str(cat.label());
            }
            let stored = 2 + palette.iter().map(|c| 4 + c.label().len()).sum::<usize>();
            let mut bytes = body[..PALETTE_AT].to_vec();
            bytes.extend_from_slice(&w.into_bytes());
            let records_at = bytes.len();
            bytes.extend_from_slice(&body[PALETTE_AT + stored..]);
            let n = bulk.len();
            let codes_at = records_at + 8 + n * (4 + 8 + 8);
            let last = palette.len() as u8 - 1;
            for code in &mut bytes[codes_at..codes_at + n] {
                *code = last - *code;
            }

            let mut r = ByteReader::new(&bytes[..], bytes.len() as u64);
            let parts = decode_body(&mut r).expect("the reordered body decodes");
            assert_eq!(parts.category_palette.len(), palette.len() + 1);
            assert_ne!(parts.categories, bulk.category_codes());
            let view = StreamView::from_parts(parts).expect("the payload is consistent");
            assert_eq!(view, bulk);
            assert_eq!(encode_body(&view), body);
        }

        #[test]
        fn any_field_overwritten_with_all_ones_is_decoded_or_refused() {
            // Every 8-byte window of the body in turn: this reaches each
            // count, length and id field at its largest values.
            let body = valid_body();
            for at in 0..body.len() {
                for fill in [0xFF, 0x7F] {
                    let mut bad = body.clone();
                    let end = (at + 8).min(bad.len());
                    bad[at..end].fill(fill);
                    let _ = decode(&bad);
                }
            }
        }

        /// Where the record count sits in `valid_body`: after the
        /// generation, the spec, the window and the category palette.
        fn record_count_at(body: &[u8]) -> usize {
            let view = decode(body).expect("valid body decodes");
            let palette: usize = view
                .category_palette()
                .iter()
                .map(|c| 4 + c.label().len())
                .sum();
            PALETTE_AT + 2 + palette
        }

        #[test]
        fn oversized_record_and_slot_counts_are_refused_before_allocating() {
            let body = valid_body();
            let at = record_count_at(&body);
            let n = u64::from_le_bytes(body[at..at + 8].try_into().unwrap()) as usize;
            assert_eq!(n, decode(&body).unwrap().len());
            for count in [n as u64 + 1, u64::MAX / 27, u64::MAX] {
                let mut bad = body.clone();
                bad[at..at + 8].copy_from_slice(&count.to_le_bytes());
                let err = decode(&bad).expect_err("count exceeds the body");
                assert!(err.contains("truncated body"), "{err}");
            }
            // Every GPU count at its maximum: the slot total (255 n)
            // exceeds what is left, and is refused before the slot
            // column is allocated.
            let counts_at = at + 8 + n * (4 + 8 + 8 + 1 + 4 + 1);
            let mut bad = body.clone();
            bad[counts_at..counts_at + n].fill(0xFF);
            let err = decode(&bad).expect_err("slot total exceeds the body");
            assert!(err.contains("record gpu slots"), "{err}");
            // A category code outside the palette is refused.
            let codes_at = at + 8 + n * (4 + 8 + 8);
            let mut bad = body.clone();
            bad[codes_at] = 0xFF;
            let err = decode(&bad).expect_err("code outside the palette");
            assert!(err.contains("outside the palette"), "{err}");
        }

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

        #[test]
        fn window_years_beyond_four_digits_are_refused() {
            // The start year follows the generation byte and the spec
            // (name length, name, nodes, GPUs per node).
            let body = valid_body();
            let at = 1 + 4 + "fuzz".len() + 4 + 1;
            assert_eq!(body[at..at + 4], 2020i32.to_le_bytes());
            for year in [i32::MIN, -1, 0, 10_000, i32::MAX] {
                let mut bad = body.clone();
                bad[at..at + 4].copy_from_slice(&year.to_le_bytes());
                let err = decode(&bad).expect_err("year out of range");
                assert!(err.contains("outside 1..=9999"), "{err}");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn arbitrary_bytes_are_decoded_or_refused(bytes in vec(any::<u8>(), 0..2048)) {
                let _ = decode(&bytes);
            }

            // A valid prefix gets the decoder past the generation and
            // spec fields, so the random tail lands in the later ones.
            #[test]
            fn a_valid_prefix_with_arbitrary_tail_is_decoded_or_refused(
                cut in any::<usize>(),
                tail in vec(any::<u8>(), 0..512),
            ) {
                let body = valid_body();
                let mut bytes = body[..cut % body.len()].to_vec();
                bytes.extend_from_slice(&tail);
                let _ = decode(&bytes);
            }

            #[test]
            fn every_truncation_is_refused(cut in any::<usize>()) {
                let body = valid_body();
                prop_assert!(decode(&body[..cut % body.len()]).is_err());
            }

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

            #[test]
            fn mutated_bodies_are_decoded_or_refused(
                edits in vec((any::<usize>(), 1u8..=255), 1..8),
            ) {
                let mut body = valid_body();
                for (at, flip) in edits {
                    let i = at % body.len();
                    body[i] ^= flip;
                }
                let _ = decode(&body);
            }
        }
    }

    #[test]
    fn locus_bytes_cover_every_variant() {
        assert_eq!(locus_from_byte(0), Ok(None));
        for (i, &l) in SoftwareLocus::ALL.iter().enumerate() {
            let b = locus_byte(Some(l));
            assert_eq!(b as usize, i + 1);
            assert_eq!(locus_from_byte(b), Ok(Some(l)));
        }
        assert!(locus_from_byte(SoftwareLocus::ALL.len() as u8 + 1).is_err());
    }
}
