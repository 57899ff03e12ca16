//! The `.fsidx` body: which of a [`StreamView`]'s facts a snapshot
//! stores, and the one encoder and decoder of them.
//!
//! The body holds the record columns in arrival order beside the indexes
//! that cost more to rebuild than to read: the two sorted order
//! statistics (re-deriving them costs a sort on every load, and every
//! report reads both), the per-node tallies and the GPU-count histogram
//! (rebuilding them costs a scattered or branchy pass over every record,
//! several times the cost of a few kilobytes of stored counts), the slot
//! counts, the multi-GPU times, the locus counts and the month counts.
//! What one pass over the columns rebuilds is left out and derived on
//! load: the per-record slot offsets, the category counts, the month
//! sums and the TTR total. The per-rack counts and the GPU-involvement
//! total are sums the view reads on demand, and repair ends are sorted by
//! their one reader, the availability sweep.
//!
//! All integers are little-endian; `f64`s are stored as IEEE-754 bit
//! patterns, so NaN payloads and signed zeros round-trip. The layout is
//! documented field by field in `DESIGN.md` §7 and guarded by
//! [`FORMAT_VERSION`]: readers refuse any other version, so a layout
//! change must bump it.

use std::collections::BTreeMap;
use std::io::Read;

use faillog::{ByteReader, ByteWriter};
use failtypes::{Category, Date, Generation, GpuSlot, ObservationWindow, SoftwareLocus, SystemSpec};

#[cfg(debug_assertions)]
use super::RecordRef;
use super::{first_arrival_palette, month_starts, MonthBuckets, NodeTally, SortedRun, StreamView};

/// The `.fsidx` format version this build reads and writes: the header
/// carries it, and any change to the body layout below must bump it.
pub const FORMAT_VERSION: u16 = 5;

/// Bytes each record occupies across the fixed-width columns: id (4),
/// time (8), TTR (8), category (1), node (4), locus (1), GPU count (1).
const RECORD_COLUMN_BYTES: usize = 27;

/// Window years a snapshot may carry: the four-digit years a log
/// header spells. Bounding them keeps the calendar arithmetic far from
/// `i32` overflow on a corrupt body.
const YEARS: std::ops::RangeInclusive<i32> = 1..=9999;

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

fn encode_date(w: &mut ByteWriter, d: Date) {
    w.i32(d.year());
    w.u8(d.month().number());
    w.u8(d.day());
}

fn decode_date<R: Read>(r: &mut ByteReader<R>) -> Result<Date, String> {
    let year = r.i32().map_err(|_| "truncated date")?;
    let month = r.u8().map_err(|_| "truncated date")?;
    let day = r.u8().map_err(|_| "truncated date")?;
    if !YEARS.contains(&year) {
        return Err(format!("date year {year} outside {}..={}", YEARS.start(), YEARS.end()));
    }
    Date::new(year, month, day).ok_or_else(|| format!("invalid date {year}-{month}-{day}"))
}

/// A column of `count` fixed-width values (see [`ByteReader::column`]).
fn column<R: Read, const W: usize, T>(
    r: &mut ByteReader<R>,
    what: &str,
    count: usize,
    convert: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>, String> {
    r.column(count, convert)
        .map_err(|_| format!("truncated body ({what})"))
}

fn f64_array<R: Read>(r: &mut ByteReader<R>, what: &str, count: usize) -> Result<Vec<f64>, String> {
    column(r, what, count, |b| f64::from_bits(u64::from_le_bytes(b)))
}

impl StreamView {
    /// Serializes the view into the `.fsidx` body bytes.
    ///
    /// Records are stored column by column in arrival order; categories
    /// as the view's own codes into its own palette (first-arrival
    /// order), written before them. The `f64` arrays (the two sorted
    /// order statistics, the multi-GPU times) are stored raw so a load
    /// skips re-sorting.
    pub fn encode_body(&self) -> Vec<u8> {
        let n = self.len();
        // 27 column bytes and two sorted f64s per record, plus the slots.
        let mut w = ByteWriter::with_capacity(43 * n + self.slot_involvements.len() + 4096);

        w.u8(match self.generation {
            Generation::Tsubame2 => 0,
            Generation::Tsubame3 => 1,
        });
        w.str(self.spec.name());
        w.u32(self.spec.nodes());
        w.u8(self.spec.gpus_per_node());
        encode_date(&mut w, self.window.start());
        encode_date(&mut w, self.window.end());

        w.u16(self.palette.len() as u16);
        for cat in &self.palette {
            w.str(cat.label());
        }

        w.u64(n as u64);
        for &id in &self.ids {
            w.u32(id);
        }
        for &t in &self.times {
            w.f64(t);
        }
        for &ttr in &self.ttrs {
            w.f64(ttr);
        }
        w.raw(&self.codes);
        for &node in &self.nodes {
            w.u32(node);
        }
        for &locus in &self.loci {
            w.u8(locus_byte(locus));
        }
        for count in self.gpu_counts() {
            w.u8(count);
        }
        for slot in &self.slot_involvements {
            w.u8(slot.index());
        }

        for sorted in [self.ttrs_sorted(), self.gaps_sorted()] {
            for &x in sorted {
                w.f64(x);
            }
        }

        w.u16(self.locus_counts.len() as u16);
        for (locus, &count) in &self.locus_counts {
            w.str(locus.label());
            w.u64(count as u64);
        }

        w.u16(self.slot_counts.len() as u16);
        for &c in &self.slot_counts {
            w.u64(c as u64);
        }

        let tallies = &self.node_tallies;
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

        w.u16(self.gpu_count_histogram.len() as u16);
        for &c in &self.gpu_count_histogram {
            w.u64(c as u64);
        }

        w.u64(self.multi_gpu_times.len() as u64);
        for &t in &self.multi_gpu_times {
            w.f64(t);
        }

        w.u32(self.month_buckets.counts.len() as u32);
        for &count in &self.month_buckets.counts {
            w.u32(count as u32);
        }

        w.into_bytes()
    }

    /// Decodes a body written by [`encode_body`](StreamView::encode_body),
    /// consuming all of it, into the view it stores.
    ///
    /// The record columns move in as they are read. Every count is
    /// checked against the bytes left before anything is allocated for
    /// it, and nothing is sized by the spec or the window until the
    /// stored tallies and month counts have matched them. The indexes the
    /// body omits are derived in O(n), with no per-record allocation, no
    /// sorting and no re-validation of individual records (the caller
    /// vouches for the bytes with the body checksum, which it reads from
    /// [`ByteReader::finish`]). In debug builds the result is also checked
    /// against a full per-record rebuild, and refused when it differs.
    ///
    /// # Errors
    ///
    /// A human-readable reason, without a path: a truncated body, an
    /// unknown generation, category, locus or date, trailing bytes, or a
    /// body whose facts disagree (month buckets not matching the window,
    /// tallies or the GPU-count histogram not matching the spec, a record
    /// naming a node outside the spec, a sorted array out of order, a
    /// category code outside the palette) — the signal for a snapshot
    /// loader to fall back to a cold parse.
    pub fn decode_body<R: Read>(r: &mut ByteReader<R>) -> Result<StreamView, String> {
        let trunc = |what: &str| format!("truncated body ({what})");

        let generation = match r.u8().map_err(|_| trunc("generation"))? {
            0 => Generation::Tsubame2,
            1 => Generation::Tsubame3,
            g => return Err(format!("unknown generation code {g}")),
        };
        let name = r.str().map_err(|_| trunc("spec name"))?;
        let nodes = r.u32().map_err(|_| trunc("spec nodes"))?;
        let gpus = r.u8().map_err(|_| trunc("spec gpus"))?;
        let spec = SystemSpec::rebuild(generation, Some(&name), Some(nodes), Some(gpus))
            .map_err(|e| e.to_string())?;
        let start = decode_date(r)?;
        let end = decode_date(r)?;
        let window = ObservationWindow::new(start, end)
            .ok_or_else(|| "observation window end precedes start".to_string())?;

        let n_cats = r.u16().map_err(|_| trunc("category count"))? as usize;
        // A palette entry is at least its string length.
        if n_cats > r.remaining() / 4 {
            return Err(trunc("category palette"));
        }
        let mut stored_palette: Vec<Category> = Vec::with_capacity(n_cats);
        for _ in 0..n_cats {
            let label = r.str().map_err(|_| trunc("category label"))?;
            let cat = Category::from_label(generation, &label).map_err(|e| e.to_string())?;
            if stored_palette.contains(&cat) {
                return Err(format!("duplicate category `{label}` in palette"));
            }
            stored_palette.push(cat);
        }

        let n = r.u64().map_err(|_| trunc("record count"))?;
        // Every record fills each fixed-width column; one check of the
        // whole set against the bytes left bounds all the allocations
        // below.
        let n = usize::try_from(n)
            .ok()
            .filter(|&n| n <= r.remaining() / RECORD_COLUMN_BYTES)
            .ok_or_else(|| trunc("record columns"))?;
        let ids = column(r, "record ids", n, u32::from_le_bytes)?;
        let times = f64_array(r, "record times", n)?;
        let ttrs = f64_array(r, "record ttrs", n)?;
        let mut codes = column(r, "record categories", n, |[b]| b)?;
        let record_nodes = column(r, "record nodes", n, u32::from_le_bytes)?;
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
        let slot_involvements = column(r, "record gpu slots", n_slots, |[b]| GpuSlot::new(b))?;

        let ttrs_sorted = f64_array(r, "ttrs", n)?;
        let gaps_sorted = f64_array(r, "gaps", n.saturating_sub(1))?;

        let n_loci = r.u16().map_err(|_| trunc("locus count"))? as usize;
        let mut locus_counts = BTreeMap::new();
        for _ in 0..n_loci {
            let label = r.str().map_err(|_| trunc("locus label"))?;
            let locus = label.parse::<SoftwareLocus>().map_err(|e| e.to_string())?;
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
        let node_tallies: Vec<NodeTally> = (0..n_tallies)
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

        // The reads above fix every column's length and keep the palette
        // distinct; these checks refuse the facts that still disagree.
        let shape_err = |what: &str| format!("inconsistent snapshot payload: {what}");
        // Count the window's months before listing them, so a corrupt
        // window never allocates more buckets than the body stores.
        if window.month_count() != month_counts.len() {
            return Err(shape_err("month buckets do not match the window"));
        }
        if u32::try_from(n_slots).is_err() {
            return Err(shape_err("GPU slots overflow the per-record offsets"));
        }
        if month_counts.iter().sum::<usize>() != n {
            return Err(shape_err("month bucket totals do not match the record count"));
        }
        if slot_counts.len() != spec.gpus_per_node() as usize
            || node_tallies.len() != spec.nodes() as usize
            || gpu_count_histogram.len() != spec.gpus_per_node() as usize + 1
        {
            return Err(shape_err("per-node/slot tallies do not match the spec"));
        }
        if record_nodes.iter().any(|&node| node >= spec.nodes()) {
            return Err(shape_err("a record names a node outside the spec"));
        }
        let ascending = |xs: &[f64]| xs.windows(2).all(|w| w[0] <= w[1]);
        if !ascending(&ttrs_sorted) || !ascending(&gaps_sorted) {
            return Err(shape_err("sorted arrays are not in ascending order"));
        }

        // The view lists its palette in first-arrival order, as a push
        // or a bulk build meets the categories, and palette entries no
        // record uses drop out.
        let (palette, category_counts) = first_arrival_palette(&mut codes, &stored_palette)
            .ok_or_else(|| shape_err("a category code lies outside the palette"))?;
        let mut slot_end = 0u32;
        let slot_ends = gpu_counts
            .iter()
            .map(|&count| {
                slot_end += u32::from(count);
                slot_end
            })
            .collect();
        // Each month's bucket is a contiguous run of the arrival-order
        // TTRs (time order makes each month one run), summed exactly.
        // Every record lies in one bucket, so the TTR total is the merge
        // of the month sums, as in the bulk build.
        let mut offset = 0usize;
        let sums = month_counts
            .iter()
            .map(|&count| {
                offset += count;
                ttrs[offset - count..offset].iter().copied().collect()
            })
            .collect();
        let month_buckets = MonthBuckets {
            counts: month_counts,
            sums,
        };
        let ttr_sum = month_buckets.total();
        let month_cursor = month_buckets
            .counts
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(0);

        let view = StreamView {
            generation,
            spec,
            window,
            month_starts: month_starts(window),
            month_cursor,
            ids,
            times,
            ttrs,
            codes,
            palette,
            category_counts,
            nodes: record_nodes,
            loci,
            slot_ends,
            slot_involvements,
            ttrs_sorted: SortedRun::from_sorted(ttrs_sorted),
            ttr_sum,
            gaps_sorted: SortedRun::from_sorted(gaps_sorted),
            locus_counts,
            node_tallies,
            slot_counts,
            gpu_count_histogram,
            multi_gpu_times,
            month_buckets,
        };
        #[cfg(debug_assertions)]
        {
            let mut rebuilt = StreamView::empty(view.generation, view.spec.clone(), view.window);
            for rec in view.rows().map(RecordRef::to_record) {
                rebuilt
                    .push(rec)
                    .map_err(|e| shape_err(&format!("records do not revalidate: {e}")))?;
            }
            // A checksummed body never diverges; one that does is
            // refused like any other inconsistent body.
            if rebuilt != view {
                return Err(shape_err("diverges from a per-record rebuild"));
            }
        }
        Ok(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{Simulator, SystemModel};
    use failtypes::{T2Category, T3Category};

    fn decode(bytes: &[u8]) -> Result<StreamView, String> {
        StreamView::decode_body(&mut ByteReader::new(bytes, bytes.len() as u64))
    }

    #[test]
    fn the_v5_body_is_pinned() {
        assert_eq!(FORMAT_VERSION, 5, "re-pin the bodies below for the new version");
        for (model, seed, len, crc) in [
            (SystemModel::tsubame2(), 42, 69_863, 0x51ec_afa1),
            (SystemModel::tsubame3(), 43, 26_322, 0x6495_31df),
        ] {
            let log = Simulator::new(model, seed).generate().unwrap();
            let body = StreamView::from(log).encode_body();
            assert_eq!(
                (body.len(), faillog::crc32(&body)),
                (len, crc),
                "the body layout changed: bump `FORMAT_VERSION` and re-pin"
            );
        }
    }

    /// A sorted run holding `values` in descending order.
    fn reversed(values: &[f64]) -> SortedRun {
        SortedRun {
            run: values.iter().rev().copied().collect(),
            ..SortedRun::default()
        }
    }

    /// A consistent view's body with one stored fact edited to disagree
    /// with the rest is refused, naming the disagreement: month buckets
    /// against the window and the record count, tallies and the
    /// histogram against the spec, a node outside the spec, a sorted run
    /// out of order, a code outside the palette, a palette naming a
    /// category twice.
    #[test]
    fn inconsistent_bodies_are_refused() {
        let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
        let good = StreamView::from(log);
        type Edit = fn(&mut StreamView);
        let edits: [(&str, Edit); 10] = [
            ("month buckets do not match the window", |v| {
                v.month_buckets.counts.pop();
            }),
            ("month bucket totals do not match", |v| v.month_buckets.counts[0] += 1),
            ("tallies do not match the spec", |v| v.slot_counts.push(0)),
            ("tallies do not match the spec", |v| {
                v.node_tallies.pop();
            }),
            ("tallies do not match the spec", |v| v.gpu_count_histogram.push(0)),
            ("node outside the spec", |v| v.nodes[0] = v.spec.nodes()),
            ("not in ascending order", |v| v.ttrs_sorted = reversed(v.ttrs_sorted())),
            ("not in ascending order", |v| v.gaps_sorted = reversed(v.gaps_sorted())),
            ("outside the palette", |v| v.codes[0] = v.palette.len() as u8),
            ("duplicate category", |v| v.palette.push(v.palette[0])),
        ];
        for (what, edit) in edits {
            let mut bad = good.clone();
            edit(&mut bad);
            let err = decode(&bad.encode_body()).expect_err(what);
            assert!(err.contains(what), "{what}: {err}");
        }
        assert_eq!(decode(&good.encode_body()), Ok(good));
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

    /// Fuzzing of the body decoder: any byte string fed through
    /// `decode_body` yields `Ok` or a typed `Err` and never panics. Every
    /// count the body carries — the record count that sizes the columns,
    /// the GPU-slot total the counts column sums to, each tally length —
    /// is checked against the bytes left before anything is allocated for
    /// it, and the tables the decoder derives are sized by the spec only
    /// after the spec's node count matched the stored node tallies; an
    /// unguarded count set to all ones would abort the test process on its
    /// allocation.
    mod fuzz {
        use super::*;
        use failsim::ScenarioBuilder;
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
            valid_view().encode_body()
        }

        #[test]
        fn the_valid_body_round_trips() {
            let body = valid_body();
            let view = decode(&body).expect("valid body decodes");
            assert!(view.len() > 20 && view.gpu_count_histogram()[2] > 0);
            assert_eq!(view.encode_body(), body);
        }

        /// Where the palette sits in `valid_body`: after the generation,
        /// the spec (name length, name, nodes, GPUs per node) and the
        /// window's two dates.
        const PALETTE_AT: usize = 1 + 4 + "fuzz".len() + 4 + 1 + 2 * 6;

        #[test]
        fn a_palette_in_another_order_with_an_unused_label_decodes_to_the_bulk_view() {
            let bulk = valid_view();
            let body = bulk.encode_body();
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
            assert_ne!(&bytes[codes_at..codes_at + n], bulk.category_codes());

            let view = decode(&bytes).expect("the reordered body decodes");
            assert_eq!(view, bulk);
            assert_eq!(view.encode_body(), body);
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
}
