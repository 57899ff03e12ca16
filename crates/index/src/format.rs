//! The `.fsidx` on-disk layout: a fixed 44-byte header followed by a
//! checksummed body that serializes a [`failscope::StreamView`]'s
//! [`ViewParts`]: everything the view holds except what one pass over
//! the records rebuilds.
//!
//! All integers are little-endian; `f64`s are stored as IEEE-754 bit
//! patterns. The layout is documented field-by-field in `DESIGN.md` and
//! guarded by [`FORMAT_VERSION`]: readers reject any other version, so
//! layout changes must bump it.

use std::collections::BTreeMap;

use faillog::{crc32, FSIDX_MAGIC};
use failscope::{StreamView, ViewParts};
use failtypes::{
    Category, Date, FailureRecord, Generation, GpuSlot, Hours, NodeId, ObservationWindow,
    SoftwareLocus, SystemSpec, T2Category, T3Category,
};

use crate::bytes::{ByteReader, ByteWriter};
use crate::SourceInfo;

/// The `.fsidx` format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 2;

/// Total size of the fixed header, in bytes.
pub const HEADER_LEN: usize = 44;

/// Decoded `.fsidx` header: everything needed to decide whether the
/// snapshot is still warm for a given log *without* touching the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version (currently always [`FORMAT_VERSION`]).
    pub version: u16,
    /// Fingerprint of the source log's raw on-disk bytes at save time.
    pub source: SourceInfo,
    /// Body length in bytes (everything after the header).
    pub body_len: u64,
    /// CRC-32 of the body bytes.
    pub body_crc32: u32,
}

impl Header {
    /// Encodes the header, computing the trailing header CRC.
    pub(crate) fn encode(&self) -> [u8; HEADER_LEN] {
        let mut w = ByteWriter::with_capacity(HEADER_LEN);
        w.raw(&FSIDX_MAGIC);
        w.u16(self.version);
        w.u64(self.source.bytes);
        w.u32(self.source.crc32);
        w.u64(self.source.lines);
        w.u64(self.body_len);
        w.u32(self.body_crc32);
        let bytes = w.into_bytes();
        let mut out = [0u8; HEADER_LEN];
        out[..HEADER_LEN - 4].copy_from_slice(&bytes);
        out[HEADER_LEN - 4..].copy_from_slice(&crc32(&bytes).to_le_bytes());
        out
    }

    /// Decodes and fully validates a header prefix: magic, version,
    /// and the header's own CRC. Returns a human-readable reason on
    /// failure (the caller prefixes the path).
    pub(crate) fn decode(data: &[u8]) -> Result<Header, String> {
        if data.len() < HEADER_LEN {
            return Err(format!(
                "truncated header ({} of {HEADER_LEN} bytes)",
                data.len()
            ));
        }
        let stored = u32::from_le_bytes(data[HEADER_LEN - 4..HEADER_LEN].try_into().unwrap());
        let mut r = ByteReader::new(&data[..HEADER_LEN - 4]);
        let magic = r.take(FSIDX_MAGIC.len()).expect("sized above");
        if magic != FSIDX_MAGIC {
            return Err("bad magic (not a .fsidx snapshot)".to_string());
        }
        let version = r.u16().expect("sized above");
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported format version {version} (this build reads {FORMAT_VERSION})"
            ));
        }
        if crc32(&data[..HEADER_LEN - 4]) != stored {
            return Err("header checksum mismatch".to_string());
        }
        let source = SourceInfo {
            bytes: r.u64().expect("sized above"),
            crc32: r.u32().expect("sized above"),
            lines: r.u64().expect("sized above"),
        };
        let body_len = r.u64().expect("sized above");
        let body_crc32 = r.u32().expect("sized above");
        Ok(Header {
            version,
            source,
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

fn f64_array(r: &mut ByteReader<'_>, what: &str, count: usize) -> Result<Vec<f64>, String> {
    // One bounds check for the whole array, then a straight-line bulk
    // conversion — these arrays are the largest part of the body.
    let bytes = r
        .take(count.checked_mul(8).ok_or_else(|| format!("truncated body ({what})"))?)
        .map_err(|_| format!("truncated body ({what})"))?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunk of 8"))))
        .collect())
}

/// Window years a snapshot may carry: the four-digit years a log
/// header spells. Bounding them keeps the calendar arithmetic far from
/// `i32` overflow on a corrupt body.
const YEARS: std::ops::RangeInclusive<i32> = 1..=9999;

fn decode_date(r: &mut ByteReader<'_>) -> Result<Date, String> {
    let year = r.i32().map_err(|_| "truncated date")?;
    let month = r.u8().map_err(|_| "truncated date")?;
    let day = r.u8().map_err(|_| "truncated date")?;
    if !YEARS.contains(&year) {
        return Err(format!("date year {year} outside {}..={}", YEARS.start(), YEARS.end()));
    }
    Date::new(year, month, day).ok_or_else(|| format!("invalid date {year}-{month}-{day}"))
}

/// Serializes the persisted parts of `index` into the body byte stream.
///
/// The category section doubles as the palette for per-record category
/// bytes: records store an index into it, in `BTreeMap` iteration
/// order. `f64` arrays (`ttrs_sorted`, `recoveries_sorted`,
/// `gaps_sorted`, `multi_gpu_times`) are stored raw so loading skips
/// re-sorting.
pub(crate) fn encode_body(index: &StreamView) -> Vec<u8> {
    let records = index.records();
    let n = records.len();
    // Rough per-record cost ~40 bytes + three raw f64 arrays.
    let mut w = ByteWriter::with_capacity(64 * n + 4096);

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

    // Category partition — and the palette records point into.
    let cats = index.category_indices();
    w.u16(cats.len() as u16);
    let mut palette: BTreeMap<Category, u8> = BTreeMap::new();
    for (i, (cat, indices)) in cats.iter().enumerate() {
        palette.insert(*cat, i as u8);
        w.str(cat.label());
        w.u64(indices.len() as u64);
        for &idx in indices {
            w.u32(idx);
        }
    }

    w.u64(n as u64);
    for rec in records {
        w.u32(rec.id());
        w.f64(rec.time().get());
        w.f64(rec.ttr().get());
        w.u8(palette[&rec.category()]);
        w.u32(rec.node().index());
        w.u8(locus_byte(rec.locus()));
        let gpus = rec.gpus();
        w.u8(gpus.len() as u8);
        for g in gpus {
            w.u8(g.index());
        }
    }

    for &t in index.ttrs_sorted() {
        w.f64(t);
    }
    for &t in index.recoveries_sorted() {
        w.f64(t);
    }
    for &t in index.gaps_sorted() {
        w.f64(t);
    }

    let loci = index.locus_counts();
    w.u16(loci.len() as u16);
    for (locus, count) in loci {
        w.str(locus.label());
        w.u64(*count as u64);
    }

    let slots = index.slot_counts();
    w.u16(slots.len() as u16);
    for &c in slots {
        w.u64(c as u64);
    }

    let racks = index.rack_counts();
    w.u32(racks.len() as u32);
    for &c in racks {
        w.u64(c as u64);
    }

    w.u64(index.gpu_involvements() as u64);

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

/// Decodes a body byte stream into [`ViewParts`].
///
/// Performs structural validation only (bounds, palette indices,
/// trailing garbage); cross-array consistency is enforced by
/// `StreamView::from_parts` downstream. Errors are human-readable
/// reasons without the path prefix.
pub(crate) fn decode_body(data: &[u8]) -> Result<ViewParts, String> {
    let trunc = |what: &str| format!("truncated body ({what})");
    let mut r = ByteReader::new(data);

    let generation = match r.u8().map_err(|_| trunc("generation"))? {
        0 => Generation::Tsubame2,
        1 => Generation::Tsubame3,
        g => return Err(format!("unknown generation code {g}")),
    };
    let name = r.str().map_err(|_| trunc("spec name"))?;
    let nodes = r.u32().map_err(|_| trunc("spec nodes"))?;
    let gpus = r.u8().map_err(|_| trunc("spec gpus"))?;
    let spec = rebuild_spec(generation, name, nodes, gpus)?;
    let start = decode_date(&mut r)?;
    let end = decode_date(&mut r)?;
    let window = ObservationWindow::new(start, end)
        .ok_or_else(|| "observation window end precedes start".to_string())?;

    let n_cats = r.u16().map_err(|_| trunc("category count"))? as usize;
    // A category entry is at least a string length and an index count.
    if n_cats > r.remaining() / 12 {
        return Err(trunc("categories"));
    }
    let mut category_indices: BTreeMap<Category, Vec<u32>> = BTreeMap::new();
    let mut palette: Vec<Category> = Vec::with_capacity(n_cats);
    for _ in 0..n_cats {
        let label = r.str().map_err(|_| trunc("category label"))?;
        let cat = category_from_label(generation, label)?;
        let count = r.u64().map_err(|_| trunc("category index count"))? as usize;
        if count > r.remaining() / 4 {
            return Err(trunc("category indices"));
        }
        let bytes = r.take(count * 4).map_err(|_| trunc("category indices"))?;
        let indices: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
            .collect();
        if category_indices.insert(cat, indices).is_some() {
            return Err(format!("duplicate category `{label}` in palette"));
        }
        palette.push(cat);
    }

    let n = r.u64().map_err(|_| trunc("record count"))? as usize;
    // 30 bytes is the minimum encoded record size; a cheap overflow guard
    // so a corrupt count can't trigger a huge allocation.
    if n > r.remaining() / 30 {
        return Err(trunc("records"));
    }
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        // The fixed-width prefix (id, time, ttr, category, node, locus,
        // gpu count = 27 bytes) is pulled in one bounds check; only the
        // variable GPU-slot suffix needs a second read.
        let fixed = r.take(27).map_err(|_| trunc("record"))?;
        let id = u32::from_le_bytes(fixed[0..4].try_into().expect("4 bytes"));
        let time = f64::from_bits(u64::from_le_bytes(fixed[4..12].try_into().expect("8 bytes")));
        let ttr = f64::from_bits(u64::from_le_bytes(fixed[12..20].try_into().expect("8 bytes")));
        let cat_idx = fixed[20] as usize;
        let cat = *palette
            .get(cat_idx)
            .ok_or_else(|| format!("record category index {cat_idx} outside palette"))?;
        let node = u32::from_le_bytes(fixed[21..25].try_into().expect("4 bytes"));
        let locus = locus_from_byte(fixed[25])?;
        let n_gpus = fixed[26] as usize;
        let mut rec = FailureRecord::new(
            id,
            Hours::new(time),
            Hours::new(ttr),
            cat,
            NodeId::new(node),
        );
        if n_gpus > 0 {
            let slots = r.take(n_gpus).map_err(|_| trunc("record gpu slots"))?;
            rec = rec.with_gpus(slots.iter().map(|&b| GpuSlot::new(b)));
        }
        if let Some(l) = locus {
            rec = rec.with_locus(l);
        }
        records.push(rec);
    }

    let ttrs_sorted = f64_array(&mut r, "ttrs", n)?;
    let recoveries_sorted = f64_array(&mut r, "recoveries", n)?;
    let gaps_sorted = f64_array(&mut r, "gaps", n.saturating_sub(1))?;

    let n_loci = r.u16().map_err(|_| trunc("locus count"))? as usize;
    let mut locus_counts: BTreeMap<SoftwareLocus, usize> = BTreeMap::new();
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

    let n_slots = r.u16().map_err(|_| trunc("slot count"))? as usize;
    if n_slots > r.remaining() / 8 {
        return Err(trunc("slot tallies"));
    }
    let mut slot_counts = Vec::with_capacity(n_slots);
    for _ in 0..n_slots {
        slot_counts.push(r.u64().map_err(|_| trunc("slot tally"))? as usize);
    }

    let n_racks = r.u32().map_err(|_| trunc("rack count"))? as usize;
    if n_racks > r.remaining() / 8 {
        return Err(trunc("rack tallies"));
    }
    let mut rack_counts = Vec::with_capacity(n_racks);
    for _ in 0..n_racks {
        rack_counts.push(r.u64().map_err(|_| trunc("rack tally"))? as usize);
    }

    let gpu_involvements = r.u64().map_err(|_| trunc("gpu involvements"))? as usize;

    let n_multi = r.u64().map_err(|_| trunc("multi-gpu count"))? as usize;
    if n_multi > r.remaining() / 8 {
        return Err(trunc("multi-gpu times"));
    }
    let multi_gpu_times = f64_array(&mut r, "multi-gpu times", n_multi)?;

    let n_months = r.u32().map_err(|_| trunc("month count"))? as usize;
    if n_months > r.remaining() / 4 {
        return Err(trunc("month tallies"));
    }
    let mut month_counts = Vec::with_capacity(n_months);
    for _ in 0..n_months {
        month_counts.push(r.u32().map_err(|_| trunc("month tally"))? as usize);
    }

    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes after body", r.remaining()));
    }

    Ok(ViewParts {
        generation,
        spec,
        window,
        records,
        ttrs_sorted,
        recoveries_sorted,
        gaps_sorted,
        category_indices,
        locus_counts,
        slot_counts,
        rack_counts,
        gpu_involvements,
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
            body_len: 4567,
            body_crc32: 0x0BAD_F00D,
        }
    }

    #[test]
    fn header_round_trips_and_is_exactly_44_bytes() {
        let h = sample_header();
        let bytes = h.encode();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(&bytes[..FSIDX_MAGIC.len()], &FSIDX_MAGIC);
        assert_eq!(Header::decode(&bytes), Ok(h));
        // Extra trailing bytes (the body) don't confuse the decoder.
        let mut with_body = bytes.to_vec();
        with_body.extend_from_slice(b"body");
        assert_eq!(Header::decode(&with_body), Ok(h));
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

        // A bumped version is reported as unsupported, not a checksum error.
        let mut next = sample_header();
        next.version = FORMAT_VERSION + 1;
        let mut bytes = ByteWriter::with_capacity(HEADER_LEN);
        bytes.raw(&FSIDX_MAGIC);
        bytes.u16(next.version);
        bytes.u64(next.source.bytes);
        bytes.u32(next.source.crc32);
        bytes.u64(next.source.lines);
        bytes.u64(next.body_len);
        bytes.u32(next.body_crc32);
        let mut raw = bytes.into_bytes();
        let crc = faillog::crc32(&raw);
        raw.extend_from_slice(&crc.to_le_bytes());
        let err = Header::decode(&raw).unwrap_err();
        assert!(err.contains(&format!("version {}", FORMAT_VERSION + 1)), "{err}");

        // Any flipped payload byte trips the header CRC.
        let mut flipped = sample_header().encode();
        flipped[12] ^= 0x01;
        let err = Header::decode(&flipped).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    /// Fuzzing of the body decoder: any byte string, fed through
    /// `decode_body` then `StreamView::from_parts`, yields `Ok` or a
    /// typed `Err` and never panics. Every count the body carries is
    /// checked against the bytes left before anything is allocated for
    /// it, and the tables `from_parts` derives are sized by the spec
    /// only after the spec's rack count matched the stored rack
    /// tallies; an unguarded count set to all ones would abort the test
    /// process on its allocation.
    mod fuzz {
        use super::*;
        use failsim::{ScenarioBuilder, Simulator};
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// The body of a small valid snapshot: a few dozen records, some
        /// multi-GPU, over two months.
        fn valid_body() -> Vec<u8> {
            let model = ScenarioBuilder::new("fuzz")
                .nodes(16)
                .gpus_per_node(4)
                .system_mtbf_hours(20.0)
                .window_days(60)
                .build()
                .expect("scenario parameters are valid");
            let log = Simulator::new(model, 5).generate().expect("simulates");
            encode_body(&StreamView::from(log))
        }

        fn decode(bytes: &[u8]) -> Result<StreamView, String> {
            StreamView::from_parts(decode_body(bytes)?).map_err(|e| e.to_string())
        }

        #[test]
        fn the_valid_body_round_trips() {
            let body = valid_body();
            let view = decode(&body).expect("valid body decodes");
            assert!(view.len() > 20 && view.gpu_count_histogram()[2] > 0);
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
