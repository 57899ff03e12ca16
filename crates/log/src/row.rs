//! The one body-row grammar every reader of the format shares.
//!
//! A body row is either a native CSV row (see [`crate::write_log`]) or
//! a one-line JSON object, told apart by its first byte. Every reader
//! reaches it through one row loop, [`crate::parse_body_rows`]: the
//! batch chunk parser, the streaming [`crate::LogTailer`] and
//! `failindex`'s snapshot-tail extension all accept exactly the same
//! lines:
//!
//! ```text
//! 0,10.5,4.25,GPU,12,0|3,
//! {"id":1,"time_h":22.125,"ttr_h":1,"category":"Software","node":7,"gpus":[],"locus":"GPUDriverProblem"}
//! ```
//!
//! [`parse_line`] only *parses*; callers validate the record against
//! the header's spec and window.

use std::str::FromStr;

use failtypes::{
    Category, Error, FailureRecord, Generation, GpuSlot, Hours, JsonValue, NodeId, Result,
    SoftwareLocus,
};

/// Parses one trimmed, non-empty body line: lines starting with `{`
/// are NDJSON rows ([`parse_ndjson_row`]), everything else a CSV row.
///
/// # Errors
///
/// [`Error::Row`] carrying `lineno` (and the offending field, when one
/// is to blame) for malformed rows.
pub fn parse_line(lineno: usize, line: &str, generation: Generation) -> Result<FailureRecord> {
    if line.starts_with('{') {
        parse_ndjson_row(lineno, line, generation)
    } else {
        parse_row(lineno, line, generation)
    }
}

/// Parses one native CSV row (`id,time_h,ttr_h,category,node,gpus,locus`).
///
/// One byte pass over the line slices the seven fields into a fixed
/// array, with no per-row allocation beyond the record's GPU slots. The
/// fields are exactly what `line.split(',')` yields, so every accepted
/// value and every error message equals the split-based parse's (a
/// test keeps that parse as its oracle); a line with the wrong shape
/// reports its true field count, one more than its commas.
pub(crate) fn parse_row(
    lineno: usize,
    line: &str,
    generation: Generation,
) -> Result<FailureRecord> {
    let mut fields = [""; 7];
    let found = split_each(line, b',', |i, field| {
        if let Some(slot) = fields.get_mut(i) {
            *slot = field;
        }
        Ok(())
    })?;
    if found != fields.len() {
        return Err(Error::row(
            lineno,
            format!("expected 7 fields, found {found}"),
        ));
    }
    let [id, time, ttr, category, node, gpus, locus] = fields;
    let id = u32::from_str(id)
        .map_err(|_| Error::row_field(lineno, "id", format!("invalid id `{id}`")))?;
    let time = f64::from_str(time)
        .map_err(|_| Error::row_field(lineno, "time_h", format!("invalid time `{time}`")))?;
    let ttr = f64::from_str(ttr)
        .map_err(|_| Error::row_field(lineno, "ttr_h", format!("invalid ttr `{ttr}`")))?;
    let category = Category::from_label(generation, category)
        .map_err(|e| Error::row_field(lineno, "category", e.to_string()))?;
    let node = u32::from_str(node)
        .map_err(|_| Error::row_field(lineno, "node", format!("invalid node `{node}`")))?;

    let mut rec = FailureRecord::new(
        id,
        Hours::new(time),
        Hours::new(ttr),
        category,
        NodeId::new(node),
    );
    if !gpus.is_empty() {
        // Every slot takes at least one digit and every separator one
        // byte, so this never reallocates.
        let mut slots = Vec::with_capacity(gpus.len().div_ceil(2));
        split_each(gpus, b'|', |_, part| {
            let idx = u8::from_str(part).map_err(|_| {
                Error::row_field(lineno, "gpus", format!("invalid GPU slot `{part}`"))
            })?;
            slots.push(GpuSlot::new(idx));
            Ok(())
        })?;
        rec = rec.with_gpus(slots);
    }
    if !locus.is_empty() {
        let locus = SoftwareLocus::from_str(locus)
            .map_err(|e| Error::row_field(lineno, "locus", e.to_string()))?;
        rec = rec.with_locus(locus);
    }
    Ok(rec)
}

/// Calls `field(i, piece)` on each `sep`-separated piece of `text`, left
/// to right — the pieces `text.split(sep)` yields — in one byte pass,
/// and returns how many there were. Stops at the first error `field`
/// returns. `sep` is ASCII, so every cut is a char boundary.
fn split_each<'a>(
    text: &'a str,
    sep: u8,
    mut field: impl FnMut(usize, &'a str) -> Result<()>,
) -> Result<usize> {
    debug_assert!(sep.is_ascii());
    let mut count = 0;
    let mut start = 0;
    for (end, &b) in text.as_bytes().iter().enumerate() {
        if b == sep {
            field(count, &text[start..end])?;
            count += 1;
            start = end + 1;
        }
    }
    field(count, &text[start..])?;
    Ok(count + 1)
}

/// Serializes one record as a one-line JSON object (no trailing
/// newline), the inverse of [`parse_ndjson_row`].
///
/// Category and locus labels come from fixed vocabularies that contain
/// no characters needing JSON escapes, so the output is plain `format!`.
pub fn record_to_ndjson(rec: &FailureRecord) -> String {
    let gpus = rec
        .gpus()
        .iter()
        .map(|s| s.index().to_string())
        .collect::<Vec<_>>()
        .join(",");
    let locus = match rec.locus() {
        Some(l) => format!("\"{}\"", l.label()),
        None => "null".to_string(),
    };
    format!(
        "{{\"id\":{},\"time_h\":{},\"ttr_h\":{},\"category\":\"{}\",\"node\":{},\"gpus\":[{gpus}],\"locus\":{locus}}}",
        rec.id(),
        rec.time().get(),
        rec.ttr().get(),
        rec.category().label(),
        rec.node().index(),
    )
}

/// Parses one NDJSON row (see the module docs for the shape) through
/// [`JsonValue::parse`], so standard JSON string escapes are legal.
///
/// `gpus` and `locus` are optional; every other key is required, and
/// unknown keys are rejected so schema drift surfaces immediately.
///
/// # Errors
///
/// [`Error::Row`] carrying `lineno` for invalid JSON, a non-object
/// document, unknown or missing keys, and ill-typed values.
pub fn parse_ndjson_row(
    lineno: usize,
    line: &str,
    generation: Generation,
) -> Result<FailureRecord> {
    let doc =
        JsonValue::parse(line).map_err(|e| Error::row(lineno, format!("invalid JSON: {e}")))?;
    let Some(pairs) = doc.as_object() else {
        return Err(Error::row(lineno, "expected a JSON object"));
    };
    let mut id = None;
    let mut time = None;
    let mut ttr = None;
    let mut category = None;
    let mut node = None;
    let mut gpus = Vec::new();
    let mut locus = None;
    for (key, value) in pairs {
        match key.as_str() {
            "id" => id = Some(json_u32(lineno, "id", value)?),
            "time_h" => time = Some(json_f64(lineno, "time_h", value)?),
            "ttr_h" => ttr = Some(json_f64(lineno, "ttr_h", value)?),
            "category" => {
                let label = json_str(lineno, "category", value)?;
                category = Some(
                    Category::from_label(generation, label)
                        .map_err(|e| Error::row_field(lineno, "category", e.to_string()))?,
                );
            }
            "node" => node = Some(json_u32(lineno, "node", value)?),
            "gpus" => {
                let items = value
                    .as_array()
                    .ok_or_else(|| Error::row_field(lineno, "gpus", "expected an array"))?;
                gpus = items
                    .iter()
                    .map(|item| {
                        let idx = json_u32(lineno, "gpus", item)?;
                        u8::try_from(idx).map(GpuSlot::new).map_err(|_| {
                            Error::row_field(
                                lineno,
                                "gpus",
                                format!("GPU slot `{idx}` out of range"),
                            )
                        })
                    })
                    .collect::<Result<_>>()?;
            }
            "locus" => {
                locus = match value {
                    JsonValue::Null => None,
                    other => Some(
                        SoftwareLocus::from_str(json_str(lineno, "locus", other)?)
                            .map_err(|e| Error::row_field(lineno, "locus", e.to_string()))?,
                    ),
                };
            }
            other => return Err(Error::row(lineno, format!("unknown key `{other}`"))),
        }
    }

    let missing = |field| Error::row_field(lineno, field, "missing required key");
    let mut rec = FailureRecord::new(
        id.ok_or_else(|| missing("id"))?,
        Hours::new(time.ok_or_else(|| missing("time_h"))?),
        Hours::new(ttr.ok_or_else(|| missing("ttr_h"))?),
        category.ok_or_else(|| missing("category"))?,
        NodeId::new(node.ok_or_else(|| missing("node"))?),
    );
    if !gpus.is_empty() {
        rec = rec.with_gpus(gpus);
    }
    if let Some(l) = locus {
        rec = rec.with_locus(l);
    }
    Ok(rec)
}

fn json_u32(lineno: usize, field: &'static str, value: &JsonValue) -> Result<u32> {
    match value {
        JsonValue::Int(i) => u32::try_from(*i).ok(),
        _ => None,
    }
    .ok_or_else(|| Error::row_field(lineno, field, format!("invalid integer `{value}`")))
}

fn json_f64(lineno: usize, field: &'static str, value: &JsonValue) -> Result<f64> {
    value
        .as_f64()
        .ok_or_else(|| Error::row_field(lineno, field, format!("invalid number `{value}`")))
}

fn json_str<'a>(lineno: usize, field: &'static str, value: &'a JsonValue) -> Result<&'a str> {
    value
        .as_str()
        .ok_or_else(|| Error::row_field(lineno, field, "expected a string"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{Simulator, SystemModel};
    use failtypes::{T2Category, T3Category};
    use proptest::prelude::*;

    /// The split-based CSV row parse the byte scanner replaced, kept as
    /// the oracle the scanner must match value for value and error for
    /// error.
    fn split_parse_row(lineno: usize, line: &str, generation: Generation) -> Result<FailureRecord> {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 7 {
            return Err(Error::row(
                lineno,
                format!("expected 7 fields, found {}", fields.len()),
            ));
        }
        let id: u32 = fields[0]
            .parse()
            .map_err(|_| Error::row_field(lineno, "id", format!("invalid id `{}`", fields[0])))?;
        let time: f64 = fields[1].parse().map_err(|_| {
            Error::row_field(lineno, "time_h", format!("invalid time `{}`", fields[1]))
        })?;
        let ttr: f64 = fields[2].parse().map_err(|_| {
            Error::row_field(lineno, "ttr_h", format!("invalid ttr `{}`", fields[2]))
        })?;
        let category = Category::from_label(generation, fields[3])
            .map_err(|e| Error::row_field(lineno, "category", e.to_string()))?;
        let node: u32 = fields[4].parse().map_err(|_| {
            Error::row_field(lineno, "node", format!("invalid node `{}`", fields[4]))
        })?;
        let mut rec = FailureRecord::new(
            id,
            Hours::new(time),
            Hours::new(ttr),
            category,
            NodeId::new(node),
        );
        if !fields[5].is_empty() {
            let mut slots = Vec::new();
            for part in fields[5].split('|') {
                let idx: u8 = part.parse().map_err(|_| {
                    Error::row_field(lineno, "gpus", format!("invalid GPU slot `{part}`"))
                })?;
                slots.push(GpuSlot::new(idx));
            }
            rec = rec.with_gpus(slots);
        }
        if !fields[6].is_empty() {
            let locus = SoftwareLocus::from_str(fields[6])
                .map_err(|e| Error::row_field(lineno, "locus", e.to_string()))?;
            rec = rec.with_locus(locus);
        }
        Ok(rec)
    }

    /// `parse_line` with the oracle in place of the scanner.
    fn oracle_line(lineno: usize, line: &str, generation: Generation) -> Result<FailureRecord> {
        if line.starts_with('{') {
            parse_ndjson_row(lineno, line, generation)
        } else {
            split_parse_row(lineno, line, generation)
        }
    }

    /// Asserts the scanner and the oracle agree on `line` for both
    /// generations: the same record (compared through `Debug`, so NaN
    /// and signed-zero fields compare by what they print) or the same
    /// error, variant, field and `Display` string alike.
    fn assert_agrees(line: &str) {
        for generation in [Generation::Tsubame2, Generation::Tsubame3] {
            let got = parse_line(9, line, generation);
            let want = oracle_line(9, line, generation);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "line {line:?}");
            if let (Err(got), Err(want)) = (&got, &want) {
                assert_eq!(got.to_string(), want.to_string(), "line {line:?}");
            }
        }
    }

    /// Real rows of both generations, CSV and NDJSON, simulated once.
    fn real_rows() -> &'static [String] {
        static ROWS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        ROWS.get_or_init(|| {
            let mut rows = Vec::new();
            for (model, seed) in [(SystemModel::tsubame2(), 42), (SystemModel::tsubame3(), 43)] {
                let log = Simulator::new(model, seed).generate().unwrap();
                let text = crate::to_string(&log).unwrap();
                rows.extend(
                    text.lines()
                        .filter(|l| !l.starts_with('#') && !l.starts_with("id,"))
                        .take(200)
                        .map(str::to_string),
                );
                rows.extend(log.records().iter().take(50).map(record_to_ndjson));
            }
            rows
        })
    }

    /// Every category and locus label of both generations, plus junk.
    fn labels() -> Vec<&'static str> {
        T2Category::ALL
            .iter()
            .map(|c| c.label())
            .chain(T3Category::ALL.iter().map(|c| c.label()))
            .chain(SoftwareLocus::ALL.iter().map(|l| l.label()))
            .chain(["", "gpu", "GPU ", "Nope"])
            .collect()
    }

    const TOKENS: &[&str] = &[
        "inf",
        "-inf",
        "NaN",
        "nan",
        "infinity",
        "+0",
        "-0",
        "0x10",
        "1_0",
        "1e400",
        "4.9e-324",
        "+",
        "-",
        ".",
        "e5",
        "00",
        "\u{0}",
        "{",
        "}",
        "\"\"",
        "\u{e9}",
        "\u{1F600}",
        "|",
        "||",
    ];

    /// One CSV field of a shape chosen by `kind`, its content drawn from
    /// `seed` and `text` (printable ASCII with some multi-byte chars).
    fn field(kind: u8, seed: u64, text: String) -> String {
        let digits = || (seed % 10u64.pow((seed >> 60) as u32 % 12 + 1)).to_string();
        match kind {
            0 => digits(),
            1 => f64::from_bits(seed).to_string(),
            2 => TOKENS[seed as usize % TOKENS.len()].to_string(),
            3 => format!(
                "{}{}{}",
                " ".repeat(seed as usize % 2),
                digits(),
                "\t".repeat((seed >> 1) as usize % 2)
            ),
            4 => (0..seed % 5)
                .map(|i| ((seed >> (8 * i)) % 300).to_string())
                .collect::<Vec<_>>()
                .join("|"),
            5 => {
                let labels = labels();
                labels[seed as usize % labels.len()].to_string()
            }
            6 => text,
            7 => format!(
                "{}{}",
                ["+", "-", ""][seed as usize % 3],
                (seed % 1000) as f64 / 8.0
            ),
            _ => String::new(),
        }
    }

    /// The characters a mutation inserts or substitutes.
    const EDITS: &[char] = &[
        ',',
        '|',
        '+',
        '-',
        ' ',
        '.',
        '0',
        '9',
        'e',
        '{',
        '\u{e9}',
        '\u{1F600}',
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn scanner_matches_the_split_oracle_on_arbitrary_lines(
            fields in proptest::collection::vec((0u8..9, any::<u64>(), ".{0,6}"), 0..=12),
            plus in any::<bool>(),
        ) {
            let fields: Vec<String> = fields
                .into_iter()
                .map(|(kind, seed, text)| field(kind, seed, text))
                .collect();
            let mut line = fields.join(",");
            if plus {
                line.insert(0, '+');
            }
            assert_agrees(&line);
        }

        #[test]
        fn scanner_matches_the_split_oracle_on_mutated_real_rows(
            pick in any::<usize>(),
            edits in proptest::collection::vec((any::<usize>(), 0u8..4, any::<usize>()), 1..4),
        ) {
            let rows = real_rows();
            let mut line: Vec<char> = rows[pick % rows.len()].chars().collect();
            for (at, op, with) in edits {
                let ch = EDITS[with % EDITS.len()];
                let i = at % (line.len() + 1);
                match op {
                    0 => line.insert(i, ch),
                    1 if i < line.len() => {
                        line.remove(i);
                    }
                    2 if i < line.len() => line[i] = ch,
                    _ => line.truncate(i),
                }
            }
            assert_agrees(&line.into_iter().collect::<String>());
        }
    }

    #[test]
    fn scanner_matches_the_split_oracle_on_real_rows_and_edge_cases() {
        for row in real_rows() {
            assert_agrees(row);
        }
        for line in [
            "",
            ",",
            ",,,,,,",
            ",,,,,,,",
            "0,1.0,1.0,GPU,0,,",
            "+0,+1.0,+1.0,GPU,+0,+1,",
            "0,1.0,1.0,GPU,0,0|3|,",
            "0,1.0,1.0,GPU,0,|,",
            "0,1.0,1.0,GPU,0,256,",
            "0,1.0,1.0,GPU,0,0|2,,",
            "0,-0,-0.0,GPU,0,,",
            "0,1e400,NaN,GPU,0,,",
            "é,1.0,1.0,GPU,0,,",
            "0,1.0,1.0,GPU,0,0|2,GPUDriverProblem,extra,fields,here,and,more",
            "{\"id\":1}",
        ] {
            assert_agrees(line);
        }
    }
}
