//! In-repo gzip codec: a complete RFC 1951 DEFLATE decoder plus a
//! small LZ77/fixed-Huffman compressor, wrapped in the RFC 1952 gzip
//! member format.
//!
//! The build environment vendors no compression crates, so transparent
//! ingestion of `.fslog.gz` fleet archives needs its own decoder. The
//! decoder side is complete — stored, fixed-Huffman, and
//! dynamic-Huffman blocks, multi-member streams, CRC32 and length
//! trailers — so archives produced by any standard `gzip`/`zlib`
//! implementation inflate correctly. It is table-driven in the style of
//! zlib's `inflate_fast` and libdeflate: a 10-bit primary table per
//! Huffman code whose packed entries give a literal, or a length or
//! distance with its extra bits, from one lookup (the rare longer codes
//! take the canonical walk); a fast loop that refills a 64-bit
//! accumulator with one branchless 8-byte load per symbol; and output
//! written by index into a zero-extended window of the caller's buffer,
//! matches 8 bytes at a time. A checked per-symbol decoder takes the
//! input's last bytes, the window's edge and the long codes. The encoder
//! side is deliberately small: greedy LZ77 matching over a 32 KiB window emitted
//! with the fixed Huffman code, which shrinks the repetitive
//! `failscope-log v1` text about 1.66× (a 6.99 MB simulated year packs
//! into 4.22 MB) while staying ~150 lines. Output from
//! [`gzip_compress`] is a fully standard gzip member any external
//! `gunzip` accepts.
//!
//! Errors are plain `String` descriptions; the [`crate::input`] layer
//! maps them onto [`failtypes::Error`] with I/O context.

use std::sync::OnceLock;

/// Maximum bits in a DEFLATE Huffman code.
const MAX_BITS: usize = 15;
/// Code bits one [`Huffman`] table lookup resolves; longer codes take
/// the canonical walk.
const TABLE_BITS: u32 = 10;
/// The most output one compressed byte can yield (RFC 1951's 1032:1
/// ceiling: a 258-byte copy costs at least a 1-bit length code plus a
/// 1-bit distance code). No output buffer is reserved past it.
const MAX_EXPANSION: usize = 1032;
/// Window bytes the fast loop needs past the output length: a 258-byte
/// match written in whole 8-byte words, plus one spare word.
const FAST_OUT: usize = 258 + 8;
/// The most an [`Output`] window runs ahead of the output length.
const WINDOW: usize = 256 * 1024;
/// The least an [`Output`] window opens at a time, so that a small
/// member zero-fills little more than it writes.
const MIN_WINDOW: usize = 4 * 1024;
const END_OF_STREAM: &str = "unexpected end of deflate stream";
const ISIZE_MISMATCH: &str = "gzip length (ISIZE) mismatch";
const BAD_DISTANCE: &str = "invalid distance code";
const BEFORE_START: &str = "back-reference before start of output";
/// Length-code bases and extra bits, codes 257..=285 (RFC 1951 §3.2.5).
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115,
    131, 163, 195, 227, 258,
];
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// Distance-code bases and extra bits, codes 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12,
    13, 13,
];
/// Order in which code-length code lengths are stored (RFC 1951 §3.2.7).
const CLEN_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// A decoded symbol packed into one `u32`: bits 0–7 hold the bits it
/// takes with its extra bits (`len + extra`), bits 8–11 its code length
/// `len`, bit 12 [`LITERAL`], bit 13 [`SLOW`], and bits 16–31 its value
/// — the literal byte, the length or distance base, or the symbol of a
/// slow entry. A length or distance is then `value + ((acc & mask(len +
/// extra)) >> len)`, read from one lookup.
type Entry = u32;
const LITERAL: Entry = 1 << 12;
/// End of block, a symbol no valid stream sends, or (with code length
/// 0) a table slot whose code is longer than [`TABLE_BITS`] or absent:
/// the fast loop leaves these to [`inflate_symbol`].
const SLOW: Entry = 1 << 13;
const VALUE_SHIFT: u32 = 16;

#[inline(always)]
fn value(e: Entry) -> u32 {
    e >> VALUE_SHIFT
}

#[inline(always)]
fn code_len(e: Entry) -> u32 {
    (e >> 8) & 0xF
}

#[inline(always)]
fn total_bits(e: Entry) -> u32 {
    e & 0xFF
}

/// The value plus the extra bits of `e` from the accumulator `acc`.
#[inline(always)]
fn with_extra(e: Entry, acc: u64) -> usize {
    (value(e) + ((acc & ((1u64 << total_bits(e)) - 1)) >> code_len(e)) as u32) as usize
}

/// The literal/length alphabet's entries, code length 0.
fn litlen_entry(sym: usize) -> Entry {
    match sym {
        0..=255 => LITERAL | (sym as u32) << VALUE_SHIFT,
        257..=285 => {
            u32::from(LENGTH_BASE[sym - 257]) << VALUE_SHIFT | u32::from(LENGTH_EXTRA[sym - 257])
        }
        // End of block, and 286/287, which only the fixed code assigns.
        _ => SLOW | (sym as u32) << VALUE_SHIFT,
    }
}

/// The distance alphabet's entries; 30 and 31 only the fixed code
/// assigns.
fn dist_entry(sym: usize) -> Entry {
    match sym {
        0..=29 => u32::from(DIST_BASE[sym]) << VALUE_SHIFT | u32::from(DIST_EXTRA[sym]),
        _ => SLOW | (sym as u32) << VALUE_SHIFT,
    }
}

/// LSB-first bit reader over a byte slice, buffering up to 63 bits in a
/// 64-bit accumulator.
#[derive(Clone, Copy)]
struct Bits<'a> {
    data: &'a [u8],
    /// Next byte not yet loaded into the accumulator.
    pos: usize,
    /// Bit accumulator, low bits first. Bits at and above `count` are
    /// zero or the stream's own next bits, so a refill may OR the same
    /// bytes in again.
    acc: u64,
    /// Number of valid bits in the accumulator.
    count: u32,
}

impl<'a> Bits<'a> {
    fn new(data: &'a [u8]) -> Self {
        Bits { data, pos: 0, acc: 0, count: 0 }
    }

    /// Whether [`refill_word`](Bits::refill_word) may load.
    #[inline(always)]
    fn has_word(&self) -> bool {
        self.pos + 8 <= self.data.len()
    }

    /// Tops the accumulator up to at least 56 bits with one 8-byte load
    /// and no branch, libdeflate style: the bytes past the whole ones it
    /// counts are loaded again by the next refill. Needs
    /// [`has_word`](Bits::has_word).
    #[inline(always)]
    fn refill_word(&mut self) {
        let word = &self.data[self.pos..self.pos + 8];
        let word = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
        self.acc |= word << self.count;
        self.pos += 7 - ((self.count >> 3) & 7) as usize;
        self.count |= 56;
    }

    /// Tops the accumulator up to at least 56 bits, byte by byte within
    /// the last 8 bytes of the input.
    #[inline(always)]
    fn refill(&mut self) {
        if self.has_word() {
            self.refill_word();
        } else {
            while self.count < 56 && self.pos < self.data.len() {
                self.acc |= u64::from(self.data[self.pos]) << self.count;
                self.pos += 1;
                self.count += 8;
            }
        }
    }

    /// Drops `n` bits the caller has already looked at.
    #[inline(always)]
    fn consume(&mut self, n: u32) -> Result<(), String> {
        if n > self.count {
            return Err(END_OF_STREAM.into());
        }
        self.acc >>= n;
        self.count -= n;
        Ok(())
    }

    /// Reads an `n`-bit (`n <= 16`) little-endian value.
    #[inline(always)]
    fn take(&mut self, n: u32) -> Result<u32, String> {
        if self.count < n {
            self.refill();
        }
        let value = (self.acc & ((1u64 << n) - 1)) as u32;
        self.consume(n)?;
        Ok(value)
    }

    /// Discards partial bits so the next read starts on a byte boundary.
    fn align(&mut self) {
        let drop = self.count % 8;
        self.acc >>= drop;
        self.count -= drop;
    }

    /// Byte offset of the next unconsumed input byte (accumulator
    /// included), exact when byte-aligned.
    fn byte_pos(&self) -> usize {
        self.pos - (self.count / 8) as usize
    }

    /// Restarts reading at byte `pos` with an empty accumulator.
    fn seek(&mut self, pos: usize) {
        self.pos = pos;
        self.acc = 0;
        self.count = 0;
    }
}

/// A canonical Huffman decoding table: a primary lookup resolving every
/// code of at most [`TABLE_BITS`] bits at once, plus the `puff.c`
/// counts/symbols form — `count[l]` codes of length `l`, symbols sorted
/// by (length, symbol order) — walked for the longer codes.
struct Huffman {
    /// Indexed by the next `TABLE_BITS` input bits: the [`Entry`] of the
    /// code they begin, or a [`SLOW`] entry of code length 0 when that
    /// code is longer than `TABLE_BITS` or there is none.
    table: [Entry; 1 << TABLE_BITS],
    count: [u16; MAX_BITS + 1],
    /// The entries of the coded symbols in canonical order, code length
    /// not yet added.
    symbol: Vec<Entry>,
}

impl Huffman {
    /// Builds a table from per-symbol code lengths (0 = unused), with
    /// `entry` giving each symbol's [`Entry`].
    fn new(lengths: &[u8], entry: fn(usize) -> Entry) -> Result<Huffman, String> {
        let mut count = [0u16; MAX_BITS + 1];
        for &len in lengths {
            count[len as usize] += 1;
        }
        let mut table = [SLOW; 1 << TABLE_BITS];
        if count[0] as usize == lengths.len() {
            // No codes at all — legal for an unused distance table.
            return Ok(Huffman { table, count, symbol: Vec::new() });
        }
        // An over-subscribed or incomplete code is invalid, except for
        // the degenerate one-code case gzip emits for single-distance
        // streams (left incomplete by construction).
        let mut left = 1i32;
        for &n in count.iter().skip(1) {
            left <<= 1;
            left -= i32::from(n);
            if left < 0 {
                return Err("over-subscribed Huffman code".into());
            }
        }
        let mut offsets = [0u16; MAX_BITS + 1];
        for len in 1..MAX_BITS {
            offsets[len + 1] = offsets[len] + count[len];
        }
        let mut symbol = vec![0; lengths.len()];
        for (sym, (&len, code)) in lengths.iter().zip(canonical_codes(lengths)).enumerate() {
            if len == 0 {
                continue;
            }
            symbol[offsets[len as usize] as usize] = entry(sym);
            offsets[len as usize] += 1;
            let len = u32::from(len);
            if len <= TABLE_BITS {
                // Codes are sent MSB first, so the table is indexed by
                // the reversed code, repeated for every unused high bit.
                let e = with_len(entry(sym), len);
                let first = (code.reverse_bits() >> (32 - len)) as usize;
                for slot in table.iter_mut().skip(first).step_by(1 << len) {
                    *slot = e;
                }
            }
        }
        Ok(Huffman { table, count, symbol })
    }

    /// The primary-table entry for the accumulator's next bits.
    #[inline(always)]
    fn entry(&self, acc: u64) -> Entry {
        self.table[(acc & ((1 << TABLE_BITS) - 1)) as usize]
    }

    /// Decodes one symbol's entry, consuming its code but not its extra
    /// bits.
    #[inline(always)]
    fn decode(&self, r: &mut Bits<'_>) -> Result<Entry, String> {
        if r.count < MAX_BITS as u32 {
            r.refill();
        }
        let e = self.entry(r.acc);
        if code_len(e) == 0 {
            return self.decode_long(r);
        }
        r.consume(code_len(e))?;
        Ok(e)
    }

    /// The canonical walk for bits the primary table leaves open: a code
    /// longer than `TABLE_BITS`, or none at all. Reads the code
    /// MSB-first from the accumulator without consuming past it.
    #[cold]
    fn decode_long(&self, r: &mut Bits<'_>) -> Result<Entry, String> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..=MAX_BITS {
            code |= ((r.acc >> (len - 1)) & 1) as i32;
            let count = i32::from(self.count[len]);
            if code - count < first {
                r.consume(len as u32)?;
                return Ok(with_len(self.symbol[(index + (code - first)) as usize], len as u32));
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        // Bit by bit, input that runs out before 15 bits ends the stream
        // before the code can be judged.
        Err(if r.count < MAX_BITS as u32 { END_OF_STREAM } else { "invalid Huffman code" }.into())
    }
}

/// `e` with its code length `len` added to the length field and to the
/// bits it takes.
fn with_len(e: Entry, len: u32) -> Entry {
    e + (len << 8 | len)
}

/// The canonical code value of every symbol (RFC 1951 §3.2.2); symbols
/// of length 0 get a meaningless value.
fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
    let mut count = [0u32; MAX_BITS + 1];
    for &len in lengths {
        count[len as usize] += 1;
    }
    count[0] = 0;
    let mut next = [0u32; MAX_BITS + 1];
    for bits in 1..=MAX_BITS {
        next[bits] = (next[bits - 1] + count[bits - 1]) << 1;
    }
    lengths
        .iter()
        .map(|&len| {
            let code = next[len as usize];
            next[len as usize] += 1;
            code
        })
        .collect()
}

fn fixed_literal_lengths() -> [u8; 288] {
    let mut lengths = [8u8; 288];
    lengths[144..256].fill(9);
    lengths[256..280].fill(7);
    lengths
}

/// The fixed literal/length and distance tables, built once per process.
/// Both assign codes to symbols no valid stream sends (286, 287 and
/// distances 30, 31), which decode as errors.
fn fixed_tables() -> &'static (Huffman, Huffman) {
    static TABLES: OnceLock<(Huffman, Huffman)> = OnceLock::new();
    TABLES.get_or_init(|| {
        let lit = Huffman::new(&fixed_literal_lengths(), litlen_entry);
        let dist = Huffman::new(&[5u8; 32], dist_entry);
        (lit.expect("the fixed code is valid"), dist.expect("the fixed code is valid"))
    })
}

/// Inflates the raw DEFLATE stream at the front of `data`, appending
/// its output to `out`. Returns the number of input bytes consumed (so
/// the gzip layer can find the trailer and any following member).
///
/// Back-references reach only this stream's own output, never bytes
/// already in `out`. Once the stream has produced more than `limit`
/// bytes it may only be a non-final gzip member, so it goes on only if
/// the bytes `1f 8b 08` of a member header still occur somewhere later
/// in `data` — even by chance inside this stream — and otherwise stops
/// with the ISIZE error its trailer would have raised.
fn inflate(data: &[u8], out: &mut Vec<u8>, limit: usize) -> Result<usize, String> {
    let start = out.len();
    let mut s = Output { start, len: start, limit: start.saturating_add(limit), out };
    let result = inflate_blocks(&mut Bits::new(data), &mut s);
    // Drop the window's unwritten tail, on errors too.
    s.out.truncate(s.len);
    result
}

fn inflate_blocks(r: &mut Bits<'_>, s: &mut Output<'_>) -> Result<usize, String> {
    loop {
        let bfinal = r.take(1)?;
        match r.take(2)? {
            0 => inflate_stored(r, s)?,
            1 => {
                let (lit, dist) = fixed_tables();
                inflate_block(r, lit, dist, s)?;
            }
            2 => {
                let (lit, dist) = read_dynamic_tables(r)?;
                inflate_block(r, &lit, &dist, s)?;
            }
            _ => return Err("reserved deflate block type 3".into()),
        }
        s.check_limit(r)?;
        if bfinal == 1 {
            break;
        }
    }
    r.align();
    Ok(r.byte_pos())
}

/// The limit of a stream that has outgrown its own: none while the bytes
/// of a member header follow in the input, else the ISIZE error.
#[cold]
fn lifted_limit(r: &Bits<'_>) -> Result<usize, String> {
    let rest = &r.data[r.byte_pos()..];
    if rest.windows(3).any(|w| w == [GZIP_MAGIC[0], GZIP_MAGIC[1], 8]) {
        Ok(usize::MAX)
    } else {
        Err(ISIZE_MISMATCH.into())
    }
}

/// The output buffer one DEFLATE stream appends to. Bytes are written by
/// index into a window: `out` zero-extended past the output length
/// `len`, at most [`WINDOW`] bytes ahead and within the capacity while
/// that has room, so the window never makes the buffer grow.
struct Output<'o> {
    out: &'o mut Vec<u8>,
    /// Output length so far; `out` holds window bytes past it.
    len: usize,
    /// Where this stream's output begins in `out`.
    start: usize,
    /// Output length past which the stream must not be the final member
    /// (see [`inflate`]).
    limit: usize,
}

impl Output<'_> {
    /// Past `limit`, lets the stream go on only while another member
    /// header follows it in the input (see [`inflate`]).
    #[inline(always)]
    fn check_limit(&mut self, r: &Bits<'_>) -> Result<(), String> {
        if self.len > self.limit {
            self.limit = lifted_limit(r)?;
        }
        Ok(())
    }

    /// Makes at least `need` bytes past `len` writable. The window opens
    /// about as far as the stream has written (4 KiB to [`WINDOW`]),
    /// within the spare capacity when that holds `need`; only when it
    /// does not does the buffer grow.
    fn open(&mut self, need: usize) {
        if self.out.len() - self.len >= need {
            return;
        }
        let ahead = (self.len - self.start).clamp(MIN_WINDOW, WINDOW).max(need);
        let spare = self.out.capacity() - self.len;
        let ahead = if spare >= need { ahead.min(spare) } else { ahead };
        self.out.resize(self.len + ahead, 0);
    }

    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.open(bytes.len());
        self.out[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// Appends the `len` bytes that start `distance` bytes back, byte by
    /// byte, so a source overlapping the bytes being written (`distance
    /// < len`, how DEFLATE encodes runs) repeats.
    fn copy_match(&mut self, distance: usize, len: usize) -> Result<(), String> {
        if distance > self.len - self.start {
            return Err(BEFORE_START.into());
        }
        self.open(len);
        for at in self.len..self.len + len {
            self.out[at] = self.out[at - distance];
        }
        self.len += len;
        Ok(())
    }
}

fn inflate_stored(r: &mut Bits<'_>, s: &mut Output<'_>) -> Result<(), String> {
    r.align();
    let len = r.take(16)? as usize;
    let nlen = r.take(16)? as usize;
    if len ^ nlen != 0xFFFF {
        return Err("stored block length check failed".into());
    }
    let start = r.byte_pos();
    let end = start + len;
    if end > r.data.len() {
        return Err("stored block overruns the input".into());
    }
    s.extend_from_slice(&r.data[start..end]);
    r.seek(end);
    Ok(())
}

fn read_dynamic_tables(r: &mut Bits<'_>) -> Result<(Huffman, Huffman), String> {
    let hlit = r.take(5)? as usize + 257;
    let hdist = r.take(5)? as usize + 1;
    let hclen = r.take(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err("dynamic block declares too many codes".into());
    }
    let mut clen_lengths = [0u8; 19];
    for &idx in CLEN_ORDER.iter().take(hclen) {
        clen_lengths[idx] = r.take(3)? as u8;
    }
    // Code-length symbols carry their extra bits themselves.
    let clen = Huffman::new(&clen_lengths, |sym| (sym as u32) << VALUE_SHIFT)?;

    let mut lengths = vec![0u8; hlit + hdist];
    let mut i = 0;
    while i < lengths.len() {
        let sym = value(clen.decode(r)?);
        match sym {
            0..=15 => {
                lengths[i] = sym as u8;
                i += 1;
            }
            16 => {
                if i == 0 {
                    return Err("length repeat with no previous length".into());
                }
                let prev = lengths[i - 1];
                let reps = 3 + r.take(2)? as usize;
                for _ in 0..reps {
                    if i >= lengths.len() {
                        return Err("length repeats overflow the tables".into());
                    }
                    lengths[i] = prev;
                    i += 1;
                }
            }
            17 | 18 => {
                let reps = if sym == 17 {
                    3 + r.take(3)? as usize
                } else {
                    11 + r.take(7)? as usize
                };
                if i + reps > lengths.len() {
                    return Err("length repeats overflow the tables".into());
                }
                i += reps; // already zero
            }
            _ => return Err("invalid code-length symbol".into()),
        }
    }
    if lengths[256] == 0 {
        return Err("dynamic block has no end-of-block code".into());
    }
    let lit = Huffman::new(&lengths[..hlit], litlen_entry)?;
    let dist = Huffman::new(&lengths[hlit..], dist_entry)?;
    Ok((lit, dist))
}

/// Inflates one Huffman block: the fast loop for as long as it can go,
/// and [`inflate_symbol`] for each symbol it stops at.
fn inflate_block(
    r: &mut Bits<'_>,
    lit: &Huffman,
    dist: &Huffman,
    s: &mut Output<'_>,
) -> Result<(), String> {
    loop {
        inflate_fast(r, lit, dist, s)?;
        if inflate_symbol(r, lit, dist, s)? {
            return Ok(());
        }
    }
}

/// The fast loop, in the style of zlib's `inflate_fast` and libdeflate.
/// While at least 8 input bytes and [`FAST_OUT`] window bytes remain,
/// one branchless refill covers a whole symbol (at most 10 + 5
/// literal/length and 10 + 13 distance bits), each length and distance
/// comes from one table lookup, and output is written by index, matches
/// in whole 8-byte words where the distance allows. It returns at a
/// symbol the tables leave [`SLOW`] (end of block, codes longer than
/// [`TABLE_BITS`], invalid literal/length symbols) for
/// [`inflate_symbol`], and raises every other error itself.
fn inflate_fast(
    r: &mut Bits<'_>,
    lit: &Huffman,
    dist: &Huffman,
    s: &mut Output<'_>,
) -> Result<(), String> {
    // The window must not grow the buffer (the tail decoder grows it).
    if s.out.capacity() - s.len < FAST_OUT {
        return Ok(());
    }
    s.open(FAST_OUT);
    let mut b = *r;
    let mut op = s.len;
    let start = s.start;
    let out = &mut s.out[..];
    let out_end = out.len() - FAST_OUT;
    if b.has_word() {
        b.refill_word();
    }
    // The next literal/length entry, looked up before the refill and the
    // copy it does not depend on: its bits are already in the accumulator.
    let mut e = lit.entry(b.acc);
    let result = loop {
        if !b.has_word() || op > out_end {
            break Ok(());
        }
        if op > s.limit {
            match lifted_limit(&b) {
                Ok(limit) => s.limit = limit,
                Err(err) => break Err(err),
            }
        }
        b.refill_word();
        if e & LITERAL != 0 {
            out[op] = value(e) as u8;
            op += 1;
            b.acc >>= code_len(e);
            b.count -= code_len(e);
            e = lit.entry(b.acc);
            continue;
        }
        let d = dist.entry(b.acc >> total_bits(e));
        if (e | d) & SLOW != 0 {
            if e & SLOW == 0 && code_len(d) != 0 {
                break Err(BAD_DISTANCE.into());
            }
            break Ok(());
        }
        let len = with_extra(e, b.acc);
        b.acc >>= total_bits(e);
        let distance = with_extra(d, b.acc);
        b.acc >>= total_bits(d);
        b.count -= total_bits(e) + total_bits(d);
        if distance > op - start {
            break Err(BEFORE_START.into());
        }
        e = lit.entry(b.acc);
        let from = op - distance;
        if distance >= 8 {
            // Most matches are 3–8 bytes long: one word.
            copy_word(out, from, op);
            if len > 8 {
                copy_words(out, from, op, len);
            }
        } else if distance == 1 {
            let word = [out[from]; 8];
            let mut at = op;
            while at < op + len {
                out[at..at + 8].copy_from_slice(&word);
                at += 8;
            }
        } else {
            for at in op..op + len {
                out[at] = out[at - distance];
            }
        }
        op += len;
    };
    *r = b;
    s.len = op;
    result
}

/// Copies the 8 bytes at `from` to `to`, which is at least 8 bytes on.
#[inline(always)]
fn copy_word(out: &mut [u8], from: usize, to: usize) {
    let word: [u8; 8] = out[from..from + 8].try_into().expect("8 bytes");
    out[to..to + 8].copy_from_slice(&word);
}

/// The rest of a match past its first word, word by word: each source
/// word lies wholly before the word it is copied to.
fn copy_words(out: &mut [u8], from: usize, to: usize, len: usize) {
    let mut at = 8;
    while at < len {
        copy_word(out, from + at, to + at);
        at += 8;
    }
}

/// Decodes one symbol with a check on every take: whatever
/// [`inflate_fast`] leaves — the last 8 input bytes, the window edge, the
/// end of the block and codes longer than [`TABLE_BITS`]. Returns `true`
/// at the end of the block.
fn inflate_symbol(
    r: &mut Bits<'_>,
    lit: &Huffman,
    dist: &Huffman,
    s: &mut Output<'_>,
) -> Result<bool, String> {
    s.check_limit(r)?;
    // One refill holds a whole symbol: at most 15 + 5 literal/length
    // and 15 + 13 distance bits.
    r.refill();
    let e = lit.decode(r)?;
    if e & LITERAL != 0 {
        s.extend_from_slice(&[value(e) as u8]);
        return Ok(false);
    }
    if e & SLOW != 0 {
        return match value(e) {
            256 => Ok(true),
            _ => Err("invalid literal/length symbol".into()),
        };
    }
    let len = value(e) + r.take(total_bits(e) - code_len(e))?;
    let d = dist.decode(r)?;
    if d & SLOW != 0 {
        return Err(BAD_DISTANCE.into());
    }
    let distance = value(d) + r.take(total_bits(d) - code_len(d))?;
    s.copy_match(distance as usize, len as usize)?;
    Ok(false)
}

/// The 16 × 256 slicing tables for [`Crc32`], built once per process.
///
/// `table[0]` is the classic byte-at-a-time table; `table[k]` maps a
/// byte processed `k` positions earlier in a 16-byte block to its
/// contribution to the running CRC, letting [`Crc32::update`] fold 16
/// input bytes per iteration instead of one.
fn crc32_tables() -> &'static [[u32; 256]; 16] {
    static TABLES: std::sync::OnceLock<Box<[[u32; 256]; 16]>> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 16]);
        for n in 0..256usize {
            let mut c = n as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            t[0][n] = c;
        }
        for k in 1..16 {
            for n in 0..256usize {
                let prev = t[k - 1][n];
                t[k][n] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// Inputs this long or longer are folded by [`Crc32::update`] in three
/// interleaved lanes; below it, joining the lanes costs more than the
/// overlap saves.
const LANES_MIN: usize = 4096;

/// Folds one 16-byte block into the CRC register `crc` (slicing-by-16).
#[inline(always)]
fn fold16(t: &[[u32; 256]; 16], crc: u32, block: &[u8]) -> u32 {
    let lo = u32::from_le_bytes([block[0], block[1], block[2], block[3]]) ^ crc;
    t[15][(lo & 0xFF) as usize]
        ^ t[14][((lo >> 8) & 0xFF) as usize]
        ^ t[13][((lo >> 16) & 0xFF) as usize]
        ^ t[12][(lo >> 24) as usize]
        ^ t[11][block[4] as usize]
        ^ t[10][block[5] as usize]
        ^ t[9][block[6] as usize]
        ^ t[8][block[7] as usize]
        ^ t[7][block[8] as usize]
        ^ t[6][block[9] as usize]
        ^ t[5][block[10] as usize]
        ^ t[4][block[11] as usize]
        ^ t[3][block[12] as usize]
        ^ t[2][block[13] as usize]
        ^ t[1][block[14] as usize]
        ^ t[0][block[15] as usize]
}

/// `a(x) · b(x) mod p(x)` over GF(2), in the reflected bit order of the
/// CRC register (bit 31 is `x^0`): zlib's `multmodp`.
fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    // From `x^0` up: add `b · x^k` for each term of `a`, then step `b`
    // to `b · x^(k+1)`.
    for k in (0..32).rev() {
        if a >> k & 1 == 1 {
            product ^= b;
        }
        b = if b & 1 == 1 { (b >> 1) ^ 0xEDB8_8320 } else { b >> 1 };
    }
    product
}

/// The register `crc` moved past `len` zero bytes: `crc · x^(8·len) mod
/// p(x)`, with the power built by squaring (zlib's `x2nmodp`).
fn shifted(crc: u32, len: usize) -> u32 {
    let mut power = 1u32 << 31; // x^0
    let mut square = 1u32 << 23; // x^8, one byte
    let mut n = len;
    while n != 0 {
        if n & 1 == 1 {
            power = multmodp(square, power);
        }
        square = multmodp(square, square);
        n >>= 1;
    }
    multmodp(power, crc)
}

/// Streaming CRC-32 hasher (IEEE, reflected polynomial `0xEDB88320`) —
/// the gzip-trailer checksum, also used by `failindex` to fingerprint
/// source logs for `.fsidx` snapshots.
///
/// Feed bytes incrementally with [`update`](Crc32::update) and read the
/// digest with [`finish`](Crc32::finish); streaming any split of the
/// input produces the same digest as the one-shot [`crc32`] helper.
/// The hot loop folds 16 bytes per step (slicing-by-16), sustaining
/// multi-GB/s so checksumming never dominates warm-path loads.
///
/// # Examples
///
/// ```
/// use faillog::{crc32, Crc32};
///
/// let mut hasher = Crc32::new();
/// hasher.update(b"123");
/// hasher.update(b"456789");
/// assert_eq!(hasher.finish(), 0xCBF4_3926);
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    /// Running CRC state, pre-inverted (`!crc` of the digest so far).
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh hasher (digest of the empty input is `0`).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `data` into the running checksum.
    ///
    /// An input of at least `LANES_MIN` (4 KiB) is cut into three equal
    /// runs of whole 16-byte blocks and a tail. One loop folds a block
    /// of each run per step, so the three table-lookup chains overlap
    /// instead of waiting on each other; the second and third runs start
    /// from a zero register, and `shifted` moves the first two
    /// registers past the runs after them before the three are joined
    /// (the CRC is linear over GF(2), as zlib's `crc32_combine` uses).
    /// The tail then folds into the joined register.
    pub fn update(&mut self, data: &[u8]) {
        let t = crc32_tables();
        let mut crc = self.state;
        let mut rest = data;
        if data.len() >= LANES_MIN {
            let lane = data.len() / 48 * 16;
            let (runs, tail) = data.split_at(3 * lane);
            let (a, bc) = runs.split_at(lane);
            let (b, c) = bc.split_at(lane);
            let (mut ca, mut cb, mut cc) = (crc, 0, 0);
            for ((a, b), c) in a.chunks_exact(16).zip(b.chunks_exact(16)).zip(c.chunks_exact(16)) {
                ca = fold16(t, ca, a);
                cb = fold16(t, cb, b);
                cc = fold16(t, cc, c);
            }
            crc = shifted(shifted(ca, lane) ^ cb, lane) ^ cc;
            rest = tail;
        }
        let mut chunks = rest.chunks_exact(16);
        for chunk in &mut chunks {
            crc = fold16(t, crc, chunk);
        }
        for &byte in chunks.remainder() {
            crc = t[0][((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The digest of everything fed so far (the hasher stays usable —
    /// further [`update`](Crc32::update) calls keep extending it).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 (IEEE, reflected `0xEDB88320`) over `data` — the
/// gzip trailer checksum. Equivalent to streaming `data` through
/// [`Crc32`] in any number of pieces.
pub fn crc32(data: &[u8]) -> u32 {
    let mut hasher = Crc32::new();
    hasher.update(data);
    hasher.finish()
}


/// The two gzip magic bytes.
pub(crate) const GZIP_MAGIC: [u8; 2] = [0x1F, 0x8B];

/// Decompresses a complete gzip stream (one or more members, as
/// produced by concatenating gzip files), validating each member's
/// CRC32 and length trailer.
///
/// Every member inflates straight into the one returned buffer. The
/// final member's ISIZE — the input's last 4 bytes — sizes it up front,
/// but only as a hint: capped at what the compressed length can legally
/// expand to, and skipped when the allocator refuses it, since the
/// sender controls those bytes. That ISIZE also bounds the final member:
/// one that outgrows it stops with the length error unless the bytes
/// `1f 8b 08` (a member header) appear anywhere later in the input.
pub fn gzip_decompress(data: &[u8]) -> Result<Vec<u8>, String> {
    if !data.starts_with(&GZIP_MAGIC) {
        return Err("missing gzip magic bytes".into());
    }
    let final_isize = match data {
        [.., a, b, c, d] => u32::from_le_bytes([*a, *b, *c, *d]),
        _ => 0,
    };
    let mut out = Vec::new();
    let hint = (final_isize as usize).min(MAX_EXPANSION.saturating_mul(data.len()));
    let _ = out.try_reserve_exact(hint);
    let mut rest = data;
    while !rest.is_empty() {
        rest = gzip_member(rest, final_isize, &mut out)?;
        if !rest.is_empty() && !rest.starts_with(&GZIP_MAGIC) {
            return Err("trailing garbage after gzip member".into());
        }
    }
    Ok(out)
}

/// The most output a DEFLATE stream of `stream_len` bytes can produce
/// and still end as the final member whose trailer declares
/// `final_isize` (the length mod 2^32).
fn final_member_limit(final_isize: u32, stream_len: usize) -> usize {
    let bound = MAX_EXPANSION.saturating_mul(stream_len) as u64;
    let isize = u64::from(final_isize);
    let wraps = bound.saturating_sub(isize) >> 32;
    usize::try_from(isize + (wraps << 32)).unwrap_or(usize::MAX)
}

/// Decodes one member, appending to `out`; returns the remaining bytes.
fn gzip_member<'a>(
    data: &'a [u8],
    final_isize: u32,
    out: &mut Vec<u8>,
) -> Result<&'a [u8], String> {
    if data.len() < 10 {
        return Err("truncated gzip header".into());
    }
    if data[0..2] != GZIP_MAGIC {
        return Err("missing gzip magic bytes".into());
    }
    if data[2] != 8 {
        return Err(format!("unsupported gzip compression method {}", data[2]));
    }
    let flg = data[3];
    if flg & 0xE0 != 0 {
        return Err("reserved gzip FLG bits set".into());
    }
    let mut pos = 10;
    if flg & 0x04 != 0 {
        // FEXTRA: u16 little-endian length, then the field.
        if data.len() < pos + 2 {
            return Err("truncated gzip FEXTRA".into());
        }
        let xlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2 + xlen;
    }
    for flag in [0x08u8, 0x10] {
        // FNAME, FCOMMENT: zero-terminated strings.
        if flg & flag != 0 {
            let end = data[pos.min(data.len())..]
                .iter()
                .position(|&b| b == 0)
                .ok_or_else(|| "unterminated gzip name/comment".to_string())?;
            pos += end + 1;
        }
    }
    if flg & 0x02 != 0 {
        pos += 2; // FHCRC: header CRC16, not validated.
    }
    if pos > data.len() {
        return Err("truncated gzip header fields".into());
    }

    let before = out.len();
    let stream = &data[pos..];
    let consumed = inflate(stream, out, final_member_limit(final_isize, stream.len()))?;
    let trailer_at = pos + consumed;
    if data.len() < trailer_at + 8 {
        return Err("truncated gzip trailer".into());
    }
    let t = &data[trailer_at..trailer_at + 8];
    let expect_crc = u32::from_le_bytes([t[0], t[1], t[2], t[3]]);
    let expect_len = u32::from_le_bytes([t[4], t[5], t[6], t[7]]);
    let member = &out[before..];
    if crc32(member) != expect_crc {
        return Err("gzip CRC32 mismatch".into());
    }
    if member.len() as u32 != expect_len {
        return Err(ISIZE_MISMATCH.into());
    }
    Ok(&data[trailer_at + 8..])
}

/// LSB-first bit writer, the mirror of [`Bits`].
struct BitWriter {
    out: Vec<u8>,
    bits: u32,
    count: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter { out: Vec::new(), bits: 0, count: 0 }
    }

    fn put(&mut self, value: u32, n: u32) {
        self.bits |= value << self.count;
        self.count += n;
        while self.count >= 8 {
            self.out.push((self.bits & 0xFF) as u8);
            self.bits >>= 8;
            self.count -= 8;
        }
    }

    /// Huffman codes are transmitted MSB first; reverse before writing.
    fn put_code(&mut self, (code, n): (u32, u32)) {
        self.put(code.reverse_bits() >> (32 - n), n);
    }

    /// Emits a length/distance pair with the literal/length codes `codes`
    /// and the distance codes `dist`.
    fn put_match(
        &mut self,
        codes: &[(u32, u32)],
        dist: &[(u32, u32)],
        length: usize,
        distance: usize,
    ) {
        let li = LENGTH_BASE
            .iter()
            .rposition(|&b| b as usize <= length)
            .expect("length >= 3");
        // Code 284 covers 227..=257; 258 has its own code 285.
        let li = if length == 258 { 28 } else { li.min(27) };
        self.put_code(codes[257 + li]);
        self.put(
            (length - LENGTH_BASE[li] as usize) as u32,
            u32::from(LENGTH_EXTRA[li]),
        );
        let di = DIST_BASE
            .iter()
            .rposition(|&b| b as usize <= distance)
            .expect("distance >= 1");
        self.put_code(dist[di]);
        self.put(
            (distance - DIST_BASE[di] as usize) as u32,
            u32::from(DIST_EXTRA[di]),
        );
    }

    /// Pads the last byte with zero bits.
    fn finish(mut self) -> Vec<u8> {
        if self.count > 0 {
            self.out.push((self.bits & 0xFF) as u8);
        }
        self.out
    }
}

/// Canonical (code, length) pairs for the code `lengths`.
fn codes_of(lengths: &[u8]) -> Vec<(u32, u32)> {
    canonical_codes(lengths)
        .into_iter()
        .zip(lengths)
        .map(|(code, &len)| (code, u32::from(len)))
        .collect()
}

/// Canonical (code, length) pairs for the fixed literal/length alphabet.
fn fixed_literal_codes() -> Vec<(u32, u32)> {
    codes_of(&fixed_literal_lengths())
}

/// The fixed distance codes: 5 bits each.
fn fixed_distance_codes() -> Vec<(u32, u32)> {
    codes_of(&[5; 32])
}

/// Greedy LZ77 + fixed-Huffman DEFLATE of `data` as one block, final
/// when `last` is set.
fn deflate_fixed(w: &mut BitWriter, data: &[u8], last: bool) {
    const WINDOW: usize = 32 * 1024;
    const MIN_MATCH: usize = 3;
    const MAX_MATCH: usize = 258;
    const HASH_BITS: u32 = 15;

    let codes = fixed_literal_codes();
    let dist = fixed_distance_codes();
    w.put(u32::from(last), 1); // BFINAL
    w.put(1, 2); // BTYPE = fixed Huffman

    let hash = |p: usize| -> usize {
        let v = u32::from(data[p])
            | u32::from(data[p + 1]) << 8
            | u32::from(data[p + 2]) << 16;
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    };
    // Single-probe hash table of the most recent position for each
    // 3-byte prefix; greedy matching is plenty for log text.
    let mut head = vec![usize::MAX; 1 << HASH_BITS];

    let mut pos = 0;
    while pos < data.len() {
        let mut matched = 0usize;
        let mut match_dist = 0usize;
        if pos + MIN_MATCH <= data.len() {
            let h = hash(pos);
            let candidate = head[h];
            head[h] = pos;
            if candidate != usize::MAX && pos - candidate <= WINDOW {
                let limit = (data.len() - pos).min(MAX_MATCH);
                let mut n = 0;
                while n < limit && data[candidate + n] == data[pos + n] {
                    n += 1;
                }
                if n >= MIN_MATCH {
                    matched = n;
                    match_dist = pos - candidate;
                }
            }
        }
        if matched >= MIN_MATCH {
            w.put_match(&codes, &dist, matched, match_dist);
            // Index the skipped positions so later matches can land in
            // the middle of this run.
            let end = (pos + matched).min(data.len().saturating_sub(MIN_MATCH - 1));
            for p in pos + 1..end {
                head[hash(p)] = p;
            }
            pos += matched;
        } else {
            w.put_code(codes[data[pos] as usize]);
            pos += 1;
        }
    }
    w.put_code(codes[256]); // end of block
}

/// Compresses `data` into a standard single-member gzip stream
/// (fixed-Huffman DEFLATE, zeroed MTIME, OS = unknown).
pub fn gzip_compress(data: &[u8]) -> Vec<u8> {
    let mut out = vec![
        GZIP_MAGIC[0],
        GZIP_MAGIC[1],
        8,    // CM = deflate
        0,    // FLG
        0, 0, 0, 0, // MTIME
        0,    // XFL
        255,  // OS = unknown
    ];
    let mut w = BitWriter::new();
    deflate_fixed(&mut w, data, true);
    out.extend_from_slice(&w.finish());
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello world"), 0x0D4A_1185);
    }

    /// The one-lane slicing-by-16 fold, as [`Crc32::update`] ran before
    /// it split long inputs into lanes: the reference the lanes must
    /// match.
    fn one_lane_crc32(data: &[u8]) -> u32 {
        let t = crc32_tables();
        let mut chunks = data.chunks_exact(16);
        let mut crc = chunks.by_ref().fold(0xFFFF_FFFF, |crc, block| fold16(t, crc, block));
        for &byte in chunks.remainder() {
            crc = t[0][((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Bytes with no period a lane length could hide behind.
    fn scrambled(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn three_lanes_match_the_one_lane_fold_at_every_length() {
        let data = scrambled(LANES_MIN + 200);
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), one_lane_crc32(&data[..len]), "len={len}");
        }
        // Long inputs, not multiples of 48, whose lanes hold many blocks.
        let long = scrambled(3 << 20);
        for len in [LANES_MIN * 7 + 47, 1 << 20, (3 << 20) - 1, 3 << 20] {
            assert_eq!(crc32(&long[..len]), one_lane_crc32(&long[..len]), "len={len}");
        }
        // A streaming split puts a lane run in either piece, or both.
        let expect = one_lane_crc32(&long);
        for split in [0, 1, 17, LANES_MIN - 1, LANES_MIN, 100_003, long.len() - LANES_MIN, long.len()] {
            let mut hasher = Crc32::new();
            hasher.update(&long[..split]);
            hasher.update(&long[split..]);
            assert_eq!(hasher.finish(), expect, "split={split}");
        }
    }

    #[test]
    fn lane_joins_multiply_mod_the_polynomial() {
        // x^0 is the identity; moving a register past n zero bytes is
        // what folding n zero bytes into it does.
        assert_eq!(multmodp(1 << 31, 0x1234_5678), 0x1234_5678);
        let t = crc32_tables();
        for (crc, len) in [(0xFFFF_FFFF, 1), (0x0BAD_F00D, 16), (0xDEAD_BEEF, 4097)] {
            let zeros = (0..len).fold(crc, |crc, _| t[0][(crc & 0xFF) as usize] ^ (crc >> 8));
            assert_eq!(shifted(crc, len), zeros, "len={len}");
        }
    }

    #[test]
    fn crc32_streaming_matches_one_shot_at_any_split() {
        // Long enough to exercise the 16-byte slicing fast path, odd
        // enough to leave a remainder tail.
        let data: Vec<u8> = (0..=255u8).cycle().take(1037).collect();
        let expect = crc32(&data);
        for split in [0, 1, 7, 15, 16, 17, 64, 500, 1036, 1037] {
            let mut hasher = Crc32::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            assert_eq!(hasher.finish(), expect, "split={split}");
        }
        // Byte-at-a-time streaming (worst case for the hasher) agrees too.
        let mut hasher = Crc32::new();
        for byte in &data {
            hasher.update(std::slice::from_ref(byte));
        }
        assert_eq!(hasher.finish(), expect);
        assert_eq!(Crc32::default().finish(), 0);
    }

    #[test]
    fn roundtrip_small_and_empty() {
        for data in [&b""[..], b"a", b"abc", b"hello hello hello hello"] {
            let gz = gzip_compress(data);
            assert_eq!(gzip_decompress(&gz).unwrap(), data, "{data:?}");
        }
    }

    #[test]
    fn roundtrip_repetitive_log_text_compresses() {
        let line = b"12345,8760.25,4.5,GPU,539,0|1|2|3,\n";
        let mut data = Vec::new();
        for _ in 0..2000 {
            data.extend_from_slice(line);
        }
        let gz = gzip_compress(&data);
        assert!(
            gz.len() * 3 < data.len(),
            "repetitive text should compress >3x: {} vs {}",
            gz.len(),
            data.len()
        );
        assert_eq!(gzip_decompress(&gz).unwrap(), data);
    }

    #[test]
    fn roundtrip_incompressible_bytes() {
        // SplitMix64 noise: matches are rare, mostly literals.
        let mut state = 0x1234_5678u64;
        let mut data = Vec::new();
        for _ in 0..10_000 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            data.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        let gz = gzip_compress(&data);
        assert_eq!(gzip_decompress(&gz).unwrap(), data);
    }

    #[test]
    fn decodes_stored_blocks() {
        // Hand-built member: one stored block, "stored!".
        let payload = b"stored!";
        let mut gz = vec![0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255];
        gz.push(0b001); // BFINAL=1, BTYPE=00
        gz.extend_from_slice(&(payload.len() as u16).to_le_bytes());
        gz.extend_from_slice(&(!(payload.len() as u16)).to_le_bytes());
        gz.extend_from_slice(payload);
        gz.extend_from_slice(&crc32(payload).to_le_bytes());
        gz.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        assert_eq!(gzip_decompress(&gz).unwrap(), payload);
    }

    #[test]
    fn decodes_reference_dynamic_huffman_member() {
        // Produced by zlib level 9 (dynamic-Huffman block, BTYPE=2) over
        // 5323 bytes of varied fleet-log vocabulary — exercises the
        // dynamic table reader against a real external encoder.
        let gz = reference_gzip();
        assert_eq!((gz[10] >> 1) & 3, 2, "vector must be a dynamic block");
        let raw = gzip_decompress(&gz).unwrap();
        assert_eq!(raw.len(), 5323);
        assert!(raw.starts_with(b"multi970 failure404 icache49 node840"));
        assert!(raw.ends_with(b"icache111 xid739"));
        // And our own compressor round-trips the same content.
        assert_eq!(gzip_decompress(&gzip_compress(&raw)).unwrap(), raw);
    }

    #[test]
    fn multi_member_streams_concatenate() {
        let mut gz = gzip_compress(b"first,");
        gz.extend_from_slice(&gzip_compress(b"second"));
        assert_eq!(gzip_decompress(&gz).unwrap(), b"first,second");
    }

    #[test]
    fn skips_optional_header_fields() {
        // FLG = FNAME | FCOMMENT | FEXTRA | FHCRC.
        let payload = b"with headers";
        let deflate_and_trailer = {
            let full = gzip_compress(payload);
            full[10..].to_vec()
        };
        let mut gz = vec![0x1F, 0x8B, 8, 0x1E, 0, 0, 0, 0, 0, 255];
        gz.extend_from_slice(&3u16.to_le_bytes()); // FEXTRA len
        gz.extend_from_slice(b"xyz");
        gz.extend_from_slice(b"name.fslog\0");
        gz.extend_from_slice(b"a comment\0");
        gz.extend_from_slice(&[0xAB, 0xCD]); // FHCRC (unvalidated)
        gz.extend_from_slice(&deflate_and_trailer);
        assert_eq!(gzip_decompress(&gz).unwrap(), payload);
    }

    #[test]
    fn rejects_corruption() {
        let gz = gzip_compress(b"check me");
        // Flip a payload bit: CRC must catch it (or the stream breaks).
        let mut bad = gz.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(gzip_decompress(&bad).is_err());
        // Truncation.
        assert!(gzip_decompress(&gz[..gz.len() - 3]).is_err());
        assert!(gzip_decompress(&gz[..5]).is_err());
        // Wrong magic / method / reserved flags.
        assert!(gzip_decompress(b"not gzip at all").is_err());
        let mut wrong_cm = gz.clone();
        wrong_cm[2] = 7;
        assert!(gzip_decompress(&wrong_cm).is_err());
        let mut reserved = gz.clone();
        reserved[3] = 0x80;
        assert!(gzip_decompress(&reserved).is_err());
        // Bad trailer CRC.
        let mut bad_crc = gz.clone();
        let n = bad_crc.len();
        bad_crc[n - 8] ^= 0xFF;
        assert!(gzip_decompress(&bad_crc).unwrap_err().contains("CRC32"));
        // Trailing garbage.
        let mut garbage = gz;
        garbage.extend_from_slice(b"????");
        assert!(gzip_decompress(&garbage).is_err());
    }

    #[test]
    fn decodes_codes_longer_than_the_primary_table() {
        let gz = long_code_gzip();
        let mut r = Bits::new(&gz[10..]);
        assert_eq!(r.take(3).unwrap(), 0b101, "vector must be one final dynamic block");
        let (lit, _) = read_dynamic_tables(&mut r).unwrap();
        let longest = (1..=MAX_BITS).rev().find(|&len| lit.count[len] > 0).unwrap();
        assert!(longest > TABLE_BITS as usize, "longest literal code is {longest} bits");
        let raw = gzip_decompress(&gz).unwrap();
        assert_eq!(raw.len(), 2000);
        assert!(raw.starts_with(b"ugLY81YxtoYYOjtjN18k"));
        assert!(raw.ends_with(b"jius,z"));
        for rare in b"!#$%" {
            assert_eq!(raw.iter().filter(|&b| b == rare).count(), 1, "{}", *rare as char);
        }
        assert_eq!(gzip_decompress(&gzip_compress(&raw)).unwrap(), raw);
    }

    #[test]
    fn decodes_one_stream_mixing_stored_fixed_and_dynamic_blocks() {
        let dynamic = long_code_gzip();
        let mut w = BitWriter::new();
        deflate_fixed(&mut w, b"fixed, fixed, fixed; ", false);
        // BFINAL=0, BTYPE=00: a stored block, whose LEN starts on the
        // byte boundary the writer pads to.
        w.put(0, 3);
        let mut stream = w.finish();
        let stored = b"stored; ";
        stream.extend_from_slice(&(stored.len() as u16).to_le_bytes());
        stream.extend_from_slice(&(!(stored.len() as u16)).to_le_bytes());
        stream.extend_from_slice(stored);
        // The reference member's one final dynamic block.
        stream.extend_from_slice(&dynamic[10..dynamic.len() - 8]);
        let mut expect = b"fixed, fixed, fixed; stored; ".to_vec();
        expect.extend_from_slice(&gzip_decompress(&dynamic).unwrap());
        assert_eq!(gzip_decompress(&member(&stream, &expect)).unwrap(), expect);
    }

    #[test]
    fn overlapping_copies_repeat_their_source() {
        let codes = fixed_literal_codes();
        let dist = fixed_distance_codes();
        let mut w = BitWriter::new();
        w.put(1, 1); // BFINAL
        w.put(1, 2); // BTYPE = fixed Huffman
        w.put_code(codes[b'a' as usize]);
        w.put_match(&codes, &dist, 258, 1); // a run
        for &b in b"xyz" {
            w.put_code(codes[b as usize]);
        }
        w.put_match(&codes, &dist, 10, 3); // distance < length
        w.put_match(&codes, &dist, 200, 13); // words from bytes this copy wrote
        w.put_code(codes[256]);
        let mut expect = vec![b'a'; 259];
        let pattern = b"xyzxyzxyzxyzx";
        expect.extend(pattern.iter().cycle().take(pattern.len() + 200));
        assert_eq!(gzip_decompress(&member(&w.finish(), &expect)).unwrap(), expect);
    }

    #[test]
    fn long_literal_and_distance_codes_decode_mid_stream() {
        // Chosen code lengths: every literal/length symbol 9 bits except
        // 'Q' (15), 'Z' (12) and length code 259 (13); every distance 5
        // bits except codes 4 (14) and 9 (11). Both codes are incomplete,
        // which the decoder accepts.
        let mut lit = [9u8; 286];
        lit[b'Q' as usize] = 15;
        lit[b'Z' as usize] = 12;
        lit[259] = 13;
        let mut dist_lengths = [5u8; 30];
        dist_lengths[4] = 14;
        dist_lengths[9] = 11;
        for len in [lit[b'Q' as usize], lit[b'Z' as usize], lit[259], dist_lengths[4], dist_lengths[9]] {
            assert!(u32::from(len) > TABLE_BITS);
        }
        let (codes, dist) = (codes_of(&lit), codes_of(&dist_lengths));
        let mut w = BitWriter::new();
        put_dynamic_header(&mut w, &lit, &dist_lengths);
        let mut expect = Vec::new();
        for round in 0..64 {
            for &b in b"abcdefghijklmnopqrstuvwxyz0123456789" {
                w.put_code(codes[b as usize]);
                expect.push(b);
            }
            let rare = if round % 2 == 0 { b'Q' } else { b'Z' };
            w.put_code(codes[rare as usize]);
            expect.push(rare);
            // A long length code with a short distance code, short with
            // long (distances 26 and 30 take code 9, 5 takes code 4), and
            // long with long.
            for (length, distance) in [(5, 20), (4, 26), (10, 5), (5, 30)] {
                w.put_match(&codes, &dist, length, distance);
                for _ in 0..length {
                    expect.push(expect[expect.len() - distance]);
                }
            }
        }
        w.put_code(codes[256]);
        assert_eq!(gzip_decompress(&member(&w.finish(), &expect)).unwrap(), expect);
    }

    #[test]
    fn a_long_mixed_stream_reenters_the_window() {
        // ~600 KB of noise, runs at every distance 1..=7 and log text:
        // more than two windows, each reopened over the last one's slack.
        let mut data = Vec::new();
        let mut state = 0x5EED_u64;
        while data.len() < 600_000 {
            for _ in 0..300 {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                data.push((state >> 56) as u8);
            }
            for distance in 1..=7 {
                for _ in 0..40 + 13 * distance {
                    data.push(data[data.len() - distance]);
                }
            }
            data.extend_from_slice(b"12345,8760.25,4.5,GPU,539,0|1|2|3,\n");
        }
        let gz = gzip_compress(&data);
        // Into the buffer the ISIZE sizes, which the window never grows,
        // and into one that must grow.
        let out = gzip_decompress(&gz).unwrap();
        assert_eq!(out, data);
        assert_eq!(out.capacity(), data.len());
        let mut out = b"earlier member".to_vec();
        inflate(&gz[10..], &mut out, usize::MAX).unwrap();
        assert_eq!(&out[14..], &data[..]);
    }

    #[test]
    fn the_fast_loop_rejects_bad_distances_with_input_left() {
        let codes = fixed_literal_codes();
        let dist = fixed_distance_codes();
        for bad in [None, Some(30), Some(31)] {
            let mut w = BitWriter::new();
            w.put(1, 1);
            w.put(1, 2);
            for &b in b"sixteen literals" {
                w.put_code(codes[b as usize]);
            }
            match bad {
                // Reaches 100 bytes back, past the 16 written.
                None => w.put_match(&codes, &dist, 3, 100),
                // Length 3, then a distance code no valid stream sends.
                Some(code) => {
                    w.put_code(codes[257]);
                    w.put_code(dist[code]);
                }
            }
            // Input left after the bad symbol keeps the fast loop running.
            for _ in 0..8 {
                for &b in b"more literals" {
                    w.put_code(codes[b as usize]);
                }
            }
            w.put_code(codes[256]);
            // The trailer declares enough output for the fast loop's window.
            let gz = member(&w.finish(), &[0; 1 << 16]);
            let err = gzip_decompress(&gz).unwrap_err();
            match bad {
                None => assert_eq!(err, BEFORE_START),
                Some(_) => assert_eq!(err, BAD_DISTANCE),
            }
        }
    }

    #[test]
    fn back_references_cannot_reach_an_earlier_member() {
        let codes = fixed_literal_codes();
        let dist = fixed_distance_codes();
        let mut w = BitWriter::new();
        w.put(1, 1);
        w.put(1, 2);
        w.put_match(&codes, &dist, 3, 1); // reaches the byte before this member
        w.put_code(codes[256]);
        let second = member(&w.finish(), b"ddd");
        let mut gz = gzip_compress(b"abcd");
        gz.extend_from_slice(&second);
        let err = gzip_decompress(&gz).unwrap_err();
        assert!(err.contains("back-reference"), "{err}");
        assert!(gzip_decompress(&second).unwrap_err().contains("back-reference"));
    }

    #[test]
    fn a_final_member_stops_at_its_declared_isize() {
        let data = vec![b'z'; 1 << 20];
        let mut gz = gzip_compress(&data);
        let n = gz.len();
        gz[n - 4..].copy_from_slice(&1000u32.to_le_bytes());
        assert_eq!(gzip_decompress(&gz).unwrap_err(), ISIZE_MISMATCH);
        // It stops within one copy of the declared size rather than
        // inflating the whole megabyte first.
        let stream = &gz[10..];
        let mut out = Vec::new();
        let err = inflate(stream, &mut out, final_member_limit(1000, stream.len())).unwrap_err();
        assert_eq!(err, ISIZE_MISMATCH);
        assert!(out.len() <= 1000 + 2 * 258, "inflated {} bytes", out.len());
    }

    #[test]
    fn a_later_member_header_anywhere_lifts_the_isize_stop() {
        // The stop only asks whether `1f 8b 08` occurs in the rest of
        // the input, so those three bytes after a lying final member let
        // it inflate in full (up to the 1032:1 format bound) before the
        // stray bytes are rejected.
        let data = vec![b'z'; 1 << 20];
        let mut gz = gzip_compress(&data);
        let n = gz.len();
        gz[n - 4..].copy_from_slice(&1000u32.to_le_bytes());
        gz.extend_from_slice(&[0x1F, 0x8B, 8]);
        assert!(gzip_decompress(&gz).is_err());
        let stream = &gz[10..];
        let mut out = Vec::new();
        inflate(stream, &mut out, final_member_limit(1000, stream.len())).unwrap();
        assert_eq!(out.len(), data.len());
    }

    #[test]
    fn a_huge_isize_trailer_on_garbage_fails_cleanly() {
        let mut gz = vec![0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255];
        gz.extend((0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8));
        gz.extend_from_slice(&[0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(gzip_decompress(&gz).is_err());
    }

    #[test]
    fn an_earlier_member_may_outgrow_the_final_isize() {
        let mut expect = vec![b'q'; 100_000];
        let mut gz = gzip_compress(&expect);
        gz.extend_from_slice(&gzip_compress(b"tail"));
        expect.extend_from_slice(b"tail");
        assert_eq!(gzip_decompress(&gz).unwrap(), expect);
    }

    #[test]
    fn final_member_limit_follows_isize_modulo_2_pow_32() {
        assert_eq!(final_member_limit(5, 10), 5);
        // A stream too short to wrap can never reach a larger ISIZE,
        // so the limit never bites.
        assert_eq!(final_member_limit(u32::MAX, 10), u32::MAX as usize);
        // Long enough to exceed 4 GiB: the next length with that ISIZE.
        assert_eq!(final_member_limit(7, 5_000_000), 7 + (1 << 32));
    }

    /// Wraps a raw DEFLATE stream in a gzip member whose trailer
    /// describes `payload`.
    fn member(deflate: &[u8], payload: &[u8]) -> Vec<u8> {
        let mut gz = vec![0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255];
        gz.extend_from_slice(deflate);
        gz.extend_from_slice(&crc32(payload).to_le_bytes());
        gz.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        gz
    }

    /// A final dynamic-Huffman block header for the literal/length code
    /// `lit` and distance code `dist`, whose lengths go out with a 4-bit
    /// code for each of 0..=15 and no repeat codes.
    fn put_dynamic_header(w: &mut BitWriter, lit: &[u8], dist: &[u8]) {
        w.put(1, 1); // BFINAL
        w.put(2, 2); // BTYPE = dynamic Huffman
        w.put((lit.len() - 257) as u32, 5);
        w.put((dist.len() - 1) as u32, 5);
        w.put(19 - 4, 4);
        let mut clen = [4u8; 19];
        clen[16..].fill(0);
        for &idx in &CLEN_ORDER {
            w.put(u32::from(clen[idx]), 3);
        }
        let clen_codes = codes_of(&clen);
        for &len in lit.iter().chain(dist) {
            w.put_code(clen_codes[len as usize]);
        }
    }

    /// The zlib-produced dynamic-Huffman reference member.
    fn reference_gzip() -> Vec<u8> {
        from_hex("1f8b08000000000002034d5859925c370ebc4a1d81000192384e4baa1977583d52b4a509fbf6c6cefaaaeeb790583213c9f7f1fbfbaf77d9e3f19fb7f7efbf3f9f34e8f1fef5edeb1f4f92c7ff7e7c7b1e1a8f8fe7c78fcf7f643d3eec69d63ffefbf3b74cc81b086217ce79fcf5fdc72fc2e32f222dffe5457e7d8dc7dfefdf78c7b2b6e5e7f3e7dbfbe722ce1d736116bdf5f6f54f1ab18f483e493b373cba48c68bfa8ead0e7d13305e9fc0f5f8ac1de070c424eccf2ca65c7b1ec868c7e3db97a7c6ecf7c17f10f4e2e7fbff9f9fcb8ae08bd2dc8f9f5fdf9f1321efb1061a7f4d4deed75fbfbfbc7d3c5177b0c7e090adbbe5e486674694a3e2e691f5dd5ab8580725c2d814b1615412d689adb9db26ccf90e695bac6aa772d65ad9c3bc2397338ef5c1c28edd20ff587aa31299fe0aad1d10d09a78cff4ff4c8b74792bd3893b0b3d3938757fe9152fa06cdb8d78d59d3da72721ba5d043835768b78cd2a9ffe95792dcc860d7f063122b3c2e4135b974e7868297de5e919f2081cc2aee61134624fbf7f66c0f6e8a5bae9b9916e1d85d1befabaa7200b1c0d81d30d408543a483baa0864a8a148d628dce059774f99a6e28b9ebdcc72b6604f9085272e738bc8a8c3b8aaa19656f79fb5ecbef1bb86c4bdd393a8e41c8ac0b69281635697b93e28a6b7d1d248a8c501d8015dc9d9441c59b412ccb3ea9a62b4689d073d60d757f84e8fd3c9dc0a24e5d34cf780712ef94a404f0f0a9694452d49a10aa612cb7dfad09077ab92147e202b3b5edb92b4754c6deaaf1b8252d22cb7499d9bb2ecc51d4314cf8761089addd0b756a7305c151374b2227e51928336528adc3108d33f277cf9203455b0943b4cb7aeb0b4fcc3b3c4733c4d5044377c7c595aa4afe090a066328249c28971316bb3e392b786a7518a585742ade491515a51409a68cac11281fcd62f4f51707ed0ed720010c1c9e01ae12ebf43e2de344946fa71a9d9038599e050d7ee1b05e901580d884b504ec661536049626152f5a81331e05a3a7a03aeb73a6a5d26ae3bb03172d594740adeac27a20eaba5298a6975354855e5251b080c2587f8e5455b1918ad03aca5000d8275933bb85cc81042b65eba137cf7e621ea56a9c493d979c06322b03d005f32fae89c8da12cb458af05b2e5755638d0f92838b5bc080aa984bd7d438006be9554220cd02aa7b942bed941919152b17124c810ac2a1f0308ab4b4660b736002621de2569fe2e5c27a0b4730e45486dcb70ed67c65286bb1af59906e8e50052a505d34dca746aa31f2699c5399940039bf6b125078935d2fafd3699e81510c3859e68015f7547c8133374f446a7b444fd0a684174315e56a77ca1737b7578c34aa014890b533bb905c5f39efc417b6fd150693daf0acd2e58dcefd29b906a3a497c1aad79929e99c1a46e9249a03dbb5595210e15666ef7967734cdea35b674af3ea3d3464999aaea720ba21054e8748f1294abdc71dbf3327df767bb1caf362fbb71346f1ecd53dec5b9924adac54a190b021b4e68b2ee4ed8db59694b112bc26c1eb62f5c86794fcb5185d69489ad86cab7a70756a9dd63fdc2df3ce78641f76e0e96e1ead7205516e7220d7f485b66a56feb40e2abce9da7b929a4eb9519262ac79706321967332cb9a44e2f08cb45a96c318a61d3c2a7ead3b6132c9adb98c9b32b538731896a5a3cbdc6d7801860a57e456f14aeecbe0acace1ce2403458edb7a6ceee4b848e9c5bc046a089b4d8d3972764063a690576d4fbdbe76bd8e6dab4c7afd80d5489babed4f1ca562f80e57ea39d645c8d5a918d7a7556fcf169aac0938d14d899cbd92a78ad0766b6b9fb1e24c3467b7ca417a62d2ed59b45f84695d7c489f3e2102d5237b37e68e9baa33c337c00af716c11c65af6d2952aa986985df6dbaac125d39a1a7663acd44aeda5043c9a04b43985aa0b9d5748f32d22e116132f8ea7f098cd4bb3c4f5a512f17bd487b1e80cfba6a17d0dd3d09503b9a2e2247d1e0002ea4472f5f85393d29bd3ff53923edfc8296b339e51ec0bc802f10372972fb1e7ed74e01fe73c79db4430aa7867839de22bab1a08b522e84760d9f9d5e5e7a9eda20aec2f488bae7c8f471a7ed8ab4e937fe199ab087ef4e5077fbf7ea6d561e2b60a662cfeef75573c933a14d307fdafbe0bb598b339ba0152c574cd9edb564b709bdd38a5ece7279a0310c462caa03d6d4e93e7d26d26da41a44c7ce53754de93d47ccc419e6bee1531f2768a493ce2f24759492d4051b9d5d6bd7103c3b3f1df8c970dfc174bf1d205ff3d5d37e62aba494251f75720f815676bb654f9723b3dde54b46f90d68c489ba3fa3607c94002a765a4a7d90db217fed5be7fd3c756a483420e705987d0b30de4ab51e57c4765576deaf1c7d8aae8331ecd68a5527e276346954781450118bbb82d987dd3cb0af433d996ae461da0ba8be71a27fb62398b7432623fef1293e83ed38e3531ea62840c2b3dfbc026400f3cecc1e3779789351c0ac21c04dd4954730b33576d845486bb46b0789daaf550c351350d1ae3cee047702c966af4c844e009f320c5313cb28dd426093c947366d69ff91071080feec728ff6b34f97003184e45f149ef097cb140000")
    }

    /// GNU gzip 1.12 at `-9 -n` over 2000 bytes: 64 alphanumerics drawn
    /// uniformly plus one each of `!#$%`, so two of those rare
    /// literals get 11-bit codes, past the primary table.
    fn long_code_gzip() -> Vec<u8> {
        from_hex("1f8b08000000000002030dd545ae85880204d0b5747eff1921b80c71776786cbc51d56df6f0355833a499d8d9e5070f21c739258fdd19b30f5c339f44d4ccf0a5aadc05a707b7cce3515e790d1ef2796dbcbd4549ae60ae5f408ebb9358e1bd277623c4497d8e2b04f8fcb82d61a466496af7f72fec3c9b02b20464b4ab1aa7e004222fa1d71c2f8ff49d01fce28d186dfdf539cfca214a53d1832790bdfbdc66661fae44c695cf68d1597751dcce91728f5772c62e48362ea0bc7169f80d37ae04ec4212ab9b95352dd97ba1eceaf81009b78afd7231211221bbc26a814cb01e127d08a6972da334b5edd404636e27a64e03ea18382eb46c8b5bdb4b77b0d2aea4f1dd746299450d29d269e17c688ca355aa50c9763675990e2449fd31559b76e296e669ccecf4d7bbbff15601a4cedbb74c2c13aefc6236f6a2ca3768a69e7a66b8ca6b48dc7c7496df7393fed84dd032e4c5e9ed5f9c3626a2843a824f90640af80d508f547fb557017ba1eb24f2957a04ab2533fea515d7692cb4d51ca8f5439596af1be26d1e2e97ba9921d522a58f56f5155d3ec5a4d67cdc3b8dc3a8b068e29f02097a233541ec0182df3860515d3b7714ea0da4183882c4a4a9b6199bc528bbf0342893bf4f2b3c084f2568043e2c80ea608bb353dd4ec1d5a1fbd8be6df8a0cf680b6d510001389d8a1e060c469e31688ee676126f320554a4db05fcc01d78bca8a90937e0e95688e0c584accd292caa98219bc95b3935399923d9aeaa4b9c111a4ca3b9800de0f489c17c24912612ce9103ddba5cc5761b69e44dfc1d5c1acbb2bccf198e1155a2c7756c6f65e028a1d566c60ac151473b4accc00ad79d47629a474fa41766fe2b06eb1abcf4eea24188b4c05dab36482cfeb07f898122f4c57069c13d06b0f3086fef3f938d9358641635de5ae7fe0a64706025a6355c380e9843f5f268a907f2ed07d641cf5b0e16a1db9fd9001470032fa2b1ad8896e4b470da2ef0e995e68310738a217152aa0f9ded2a7750c08675e994c4b20de0d13048bc11af77632f058b2aa8618ca7fd3f86589f10486ae1f630bee2c621af9b9e9887e334adf9cd0af6caa8e6d4c959e21bd4b2f4a054a214194c089f9a08fcc851db941789786209db1827fb5ad7f791c88dd2646baa02a32c3bd53bdcb17e3bf61934a634050aec792a7616eb4b69160ed9b1acce9ba1de825d8893ba453509bada2cf2c282a04da16c8b5b1272dcfccf598f9a86240c0947cadb9fa9ccf14191588142ca65e21b9bbb8587ff2ce6c3a128b51a263e1e456538535247d7e06b7a98c6a6b13264c042f933c6dcddc47e6561e42aed69d0bc6e14ad74d3b46cb1bb94027b30840c6d70577f36ffb74ac5cb9134ba5e3d23ed4415c59728e111d16f6142fd5a78b9dcd4afc09c068c58ba39564ba0c435dd4a6607d54fa09c7536f55aafbdda34fcfb25f8f2297459bed915489dd80036fab079ee7dfec6bf63836f8d0d6acfa8dab4bfddb68c063fa4afef769f3ac2da0cc8a82678428c61d204c16b512df4c3810f7203c21653b7eae55584275b1056aa3f2be448fb17a3c358605d3050d3fec1a5bd320955e2e02230944a630a1b07c02707cc3e7365ecd67f6b3da21e32090d2c0cc952c3f9651914f9fe45ed5e249dd7491c993b04f73128a31bc7d57367c5cb334ebdddb63419dd24e53c35f128bfc2173d15a555d6e6ce3f9dd6ff34021406f4416ccad66966c35af5d3a7289db560be2ceeea36f65657b655baac8bb49eb619670e595bc746de5bceb1a1d0565d845a2122847621120088614aa073dfd8c2532124d83a5140ce184e6a7a31ac747c834689760c218ca5001e0c8cfca3c5bca2f93d09508b07a13034e846778f39b3fd149cb31f4314881790aacac0cac4e4f2617d9fe5628901690d10d023397d340600dcbd33ed0b89c51cdea7301fde500b8c08e11c827f2492d98462bd088253fb118fe7726247c081d73298ad1479e4dc63692bd2eafd5f05438b8e55db48fffb9f0140739d4c3d455e67768d0f5039eb94d82c1be0d2b5f8d72d5d4bf8ff37b8566c46f9ead6d3bf427bcea0a71309e579be61e13f3397f6936ab3040ba7e65090ea7da743cd377503dd4a97c97e81034d42d7bb9a8433e5811528aabe1ee259e53dc320553aed040df9d3bf0fd0752021e14d0070000")
    }

    fn from_hex(hex: &str) -> Vec<u8> {
        let nibble = |c: u8| -> u8 {
            match c {
                b'0'..=b'9' => c - b'0',
                b'a'..=b'f' => c - b'a' + 10,
                _ => unreachable!("vector is lowercase hex"),
            }
        };
        hex.as_bytes()
            .chunks_exact(2)
            .map(|pair| nibble(pair[0]) << 4 | nibble(pair[1]))
            .collect()
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn compress_then_decompress_is_identity(data in vec(any::<u8>(), 0..2048)) {
                prop_assert_eq!(gzip_decompress(&gzip_compress(&data)).unwrap(), data);
            }

            #[test]
            fn arbitrary_bytes_decode_or_fail_cleanly(
                body in vec(any::<u8>(), 0..512),
                with_header in any::<bool>(),
            ) {
                // Behind a valid header, the bytes reach the DEFLATE decoder.
                let mut data = if with_header {
                    vec![0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255]
                } else {
                    Vec::new()
                };
                data.extend_from_slice(&body);
                let _ = gzip_decompress(&data);
            }

            #[test]
            fn truncated_members_fail(data in vec(any::<u8>(), 0..1024), cut in any::<usize>()) {
                let gz = gzip_compress(&data);
                prop_assert!(gzip_decompress(&gz[..cut % gz.len()]).is_err());
            }

            #[test]
            fn bit_flips_fail_or_decode_the_same_bytes(
                data in vec(any::<u8>(), 0..1024),
                bit in any::<usize>(),
                member in 0..3u8,
            ) {
                let mut gz = match member {
                    0 => gzip_compress(&data),
                    1 => long_code_gzip(),
                    // ~64 KiB: the data repeated between counters, long
                    // enough that most flips land in the fast loop.
                    _ => {
                        let mut big = Vec::new();
                        while big.len() < 1 << 16 {
                            big.extend_from_slice(&data);
                            big.extend_from_slice(format!("{},", big.len()).as_bytes());
                        }
                        gzip_compress(&big)
                    }
                };
                let expect = gzip_decompress(&gz).unwrap();
                let bit = bit % (gz.len() * 8);
                gz[bit / 8] ^= 1 << (bit % 8);
                if let Ok(out) = gzip_decompress(&gz) {
                    prop_assert_eq!(out, expect);
                }
            }
        }
    }
}
