//! The one body-row grammar every reader of the format shares.
//!
//! A body row is either a native CSV row (see [`crate::write_log`]) or
//! a one-line JSON object, told apart by its first byte, so the batch
//! chunk parser, the streaming [`crate::LogTailer`] and `failindex`'s
//! snapshot-tail extension all accept exactly the same lines:
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
    SoftwareLocus, T2Category, T3Category,
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
pub(crate) fn parse_row(
    lineno: usize,
    line: &str,
    generation: Generation,
) -> Result<FailureRecord> {
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
    let time: f64 = fields[1]
        .parse()
        .map_err(|_| Error::row_field(lineno, "time_h", format!("invalid time `{}`", fields[1])))?;
    let ttr: f64 = fields[2]
        .parse()
        .map_err(|_| Error::row_field(lineno, "ttr_h", format!("invalid ttr `{}`", fields[2])))?;
    let category = parse_category(fields[3], generation)
        .map_err(|msg| Error::row_field(lineno, "category", msg))?;
    let node: u32 = fields[4]
        .parse()
        .map_err(|_| Error::row_field(lineno, "node", format!("invalid node `{}`", fields[4])))?;

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

pub(crate) fn parse_category(
    label: &str,
    generation: Generation,
) -> std::result::Result<Category, String> {
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
                    parse_category(label, generation)
                        .map_err(|msg| Error::row_field(lineno, "category", msg))?,
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
