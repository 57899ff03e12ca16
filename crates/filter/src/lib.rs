//! `failfilter` — the `--where` record filter expression language.
//!
//! The pipeline's analyses repeatedly slice the fleet log along the same
//! axes: failure category, TTR magnitude, node/rack locality, multi-GPU
//! involvement, time window. This crate turns those slices into one
//! small expression language that every consumer compiles **once**,
//! then evaluates two ways with one meaning per leaf:
//!
//! * **by column** ([`CompiledPredicate::select`] over [`Columns`]):
//!   reports and compares load the unfiltered view (a cold parse or a
//!   decoded `.fsidx` snapshot) and filter it
//!   (`StreamView::filtered_by`), so every source and index mode keeps
//!   the same records. Each leaf is resolved once per view and read off
//!   a column into a [`RowMask`].
//! * **per record** ([`CompiledPredicate::matches`]): `watch` drops
//!   unmatched records from each chunk it pulls, before they reach its
//!   state, and the parser can evaluate a predicate while parsing
//!   (`faillog::ParseOptions::filter`), a library entry point no
//!   command takes.
//!
//! ```text
//! failctl report t3.fslog --where 'category == gpu && ttr > 24'
//! failctl watch  t3.fslog --where 'node ~ "rack12" && gpus >= 2'
//! ```
//!
//! # Fields
//!
//! | field      | type    | meaning                                               |
//! |------------|---------|-------------------------------------------------------|
//! | `category` | string  | failure category (label, component class, or domain)  |
//! | `ttr`      | hours   | time to repair                                        |
//! | `recovery` | hours   | failure time + TTR (unclamped)                        |
//! | `time`     | hours   | failure time offset (also compares to `"YYYY-MM-DD"`) |
//! | `node`     | integer | node index; `~` matches the `rackR/nodeN` path        |
//! | `slot`     | integer | any involved GPU slot index (existential)             |
//! | `rack`     | integer | rack index; `~` matches `rackR`                       |
//! | `gpus`     | integer | number of GPU slots involved                          |
//! | `month`    | 1..=12  | calendar month of the failure date                    |
//!
//! Operators: `&&`, `||`, `!`, comparisons (`==` `!=` `<` `<=` `>`
//! `>=`), case-insensitive substring match `~`, and set membership
//! `in (a, b, c)`. Category values match the per-system labels of
//! Table II (`"System Board"`, `GPUDriver`, ...), the shared component
//! classes (`gpu`, `memory`, ...), and the domains (`hardware`,
//! `software`, `unknown`), case-insensitively and ignoring spaces,
//! hyphens, and underscores.
//!
//! # Two stages, spans throughout
//!
//! [`parse`] produces a syntax-checked [`Expr`]; [`Expr::compile`] (or
//! the one-shot [`compile`]) type-checks it into a [`CompiledPredicate`]
//! — the validated IR the ingest layers evaluate. Every error from
//! either stage is a [`failtypes::Error::Args`] whose message carries
//! the source expression with a caret span under the offending token:
//!
//! ```text
//! unknown field `ttrs` (fields: category, ttr, recovery, time, node, slot, rack, gpus, month)
//!   ttrs > 24
//!   ^^^^
//! ```
//!
//! # Examples
//!
//! ```
//! use failfilter::compile;
//! use failsim::{Simulator, SystemModel};
//!
//! let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
//! let pred = compile("category == gpu && ttr > 24").unwrap();
//! let n = log
//!     .records()
//!     .iter()
//!     .filter(|r| pred.matches(r, log.spec(), log.window()))
//!     .count();
//! assert!(n > 0 && n < log.len());
//! assert!(compile("ttrs > 24").is_err());
//! ```

use failtypes::{
    Category, ComponentClass, Date, Error, FailureRecord, GpuSlot, Month, NodeId,
    ObservationWindow, Result, SystemSpec, T2Category, T3Category,
};

mod columns;
mod lexer;
mod parser;

pub use columns::{slot_range, Columns, RowMask};

use lexer::Span;
use parser::{Ast, CmpOp, Value, ValueKind};

/// The field vocabulary, for error messages.
const FIELDS: &str = "category, ttr, recovery, time, node, slot, rack, gpus, month";

/// A syntax-checked filter expression, not yet type-checked.
///
/// Produced by [`parse`]; [`Expr::compile`] turns it into the
/// evaluatable [`CompiledPredicate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    src: String,
    root: Ast,
}

impl Expr {
    /// The original expression text.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// Type-checks the expression into an evaluatable predicate.
    ///
    /// # Errors
    ///
    /// [`Error::Args`] with a span-annotated message for unknown
    /// fields, operators that do not apply to a field's type, and
    /// malformed values (unknown categories, non-integer node numbers,
    /// out-of-range months, undated time strings).
    pub fn compile(&self) -> Result<CompiledPredicate> {
        let root = check(&self.root, &self.src)?;
        Ok(CompiledPredicate {
            source: self.src.clone(),
            root,
        })
    }
}

/// Parses an expression without type-checking it.
///
/// # Errors
///
/// [`Error::Args`] with a span-annotated message on lexical or syntax
/// errors.
pub fn parse(src: &str) -> Result<Expr> {
    let tokens = lexer::lex(src).map_err(|(msg, span)| annotate(src, span, &msg))?;
    let root =
        parser::parse(&tokens, src.len()).map_err(|(msg, span)| annotate(src, span, &msg))?;
    Ok(Expr {
        src: src.to_string(),
        root,
    })
}

/// Parses and type-checks an expression in one step.
///
/// # Errors
///
/// As [`parse`] and [`Expr::compile`].
pub fn compile(src: &str) -> Result<CompiledPredicate> {
    parse(src)?.compile()
}

/// Validates a `--since`/`--until` style time bound — a number of hours
/// or a `YYYY-MM-DD` date — and returns it as an expression literal
/// (dates come back quoted), ready to splice into a desugared
/// `time >= X && time < Y` expression.
///
/// # Errors
///
/// [`Error::Args`] naming the offending value when it is neither.
///
/// # Examples
///
/// ```
/// assert_eq!(failfilter::time_literal("36.5").unwrap(), "36.5");
/// assert_eq!(failfilter::time_literal("2018-03-01").unwrap(), "\"2018-03-01\"");
/// assert!(failfilter::time_literal("banana").is_err());
/// ```
pub fn time_literal(raw: &str) -> Result<String> {
    let t = raw.trim();
    if let Ok(h) = t.parse::<f64>() {
        if h.is_finite() {
            return Ok(format!("{h}"));
        }
    }
    if Date::parse_ymd(t).is_some() {
        return Ok(format!("\"{t}\""));
    }
    Err(Error::args(format!(
        "not a time bound: expected hours (e.g. 36.5) or a date (YYYY-MM-DD), got `{raw}`"
    )))
}

/// A type-checked predicate over failure records — the IR every ingest
/// layer evaluates.
///
/// Evaluation needs the record's system context: the [`SystemSpec`]
/// (for rack topology) and the [`ObservationWindow`] (for calendar
/// fields and date literals), both known wherever records are parsed
/// or replayed.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPredicate {
    source: String,
    root: Node,
}

impl CompiledPredicate {
    /// The expression this predicate was compiled from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Evaluates the predicate against one record.
    pub fn matches(
        &self,
        rec: &FailureRecord,
        spec: &SystemSpec,
        window: ObservationWindow,
    ) -> bool {
        eval(&self.root, rec, spec, window)
    }

    /// Conjoins two predicates: the result matches when both do. The
    /// source reads `(a) && (b)`.
    #[must_use]
    pub fn and(self, other: CompiledPredicate) -> CompiledPredicate {
        CompiledPredicate {
            source: format!("({}) && ({})", self.source, other.source),
            root: Node::And(Box::new(self.root), Box::new(other.root)),
        }
    }
}

/// A numeric record field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NumField {
    Ttr,
    Recovery,
    Time,
    Node,
    Slot,
    Rack,
    Gpus,
    Month,
}

impl NumField {
    fn name(self) -> &'static str {
        match self {
            NumField::Ttr => "ttr",
            NumField::Recovery => "recovery",
            NumField::Time => "time",
            NumField::Node => "node",
            NumField::Slot => "slot",
            NumField::Rack => "rack",
            NumField::Gpus => "gpus",
            NumField::Month => "month",
        }
    }
}

/// A field with a textual rendering `~` can match against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StrField {
    Node,
    Rack,
}

/// A comparison bound: plain hours, or a date literal resolved against
/// the observation window at evaluation time (so compilation never
/// needs the log header).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Bound {
    Hours(f64),
    Date(Date),
}

/// What a numeric leaf asks of its field's value: a comparison, or
/// membership of an `in` set.
#[derive(Debug, Clone, PartialEq)]
enum Test {
    Cmp { op: CmpOp, bound: Bound },
    In(Vec<f64>),
}

impl Test {
    /// The test with its bound resolved against `window`: the one form
    /// both the per-record and the column evaluation apply.
    fn resolve(&self, window: ObservationWindow) -> Check<'_> {
        match self {
            Test::Cmp { op, bound } => Check::Cmp(
                *op,
                match bound {
                    Bound::Hours(h) => *h,
                    Bound::Date(d) => window.start().hours_until(*d).get(),
                },
            ),
            Test::In(values) => Check::In(values),
        }
    }
}

/// A [`Test`] resolved for one observation window.
#[derive(Debug, Clone, Copy)]
enum Check<'a> {
    Cmp(CmpOp, f64),
    In(&'a [f64]),
}

impl Check<'_> {
    /// Whether a field value passes the test.
    fn holds(self, value: f64) -> bool {
        match self {
            Check::Cmp(op, rhs) => num_cmp(value, op, rhs),
            Check::In(values) => values.contains(&value),
        }
    }
}

/// The categories a token (label, component class, or domain) resolves
/// to. The set is computed once at compile time over the closed
/// [`Category`] vocabulary, so evaluation is a handful of `Copy`-enum
/// compares with no string work on the record path.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CategoryMatcher {
    matched: Vec<Category>,
}

impl CategoryMatcher {
    fn matches(&self, category: Category) -> bool {
        self.matched.contains(&category)
    }

    /// The categories of either vocabulary this matcher does not match:
    /// `category != x`.
    fn complement(&self) -> CategoryMatcher {
        CategoryMatcher {
            matched: all_categories().filter(|&c| !self.matches(c)).collect(),
        }
    }

    /// The categories any of `matchers` matches: `category in (...)`.
    fn union(matchers: &[CategoryMatcher]) -> CategoryMatcher {
        CategoryMatcher {
            matched: all_categories().filter(|&c| matchers.iter().any(|m| m.matches(c))).collect(),
        }
    }
}

/// Every category either generation's vocabulary defines.
fn all_categories() -> impl Iterator<Item = Category> {
    T2Category::ALL
        .iter()
        .copied()
        .map(Category::T2)
        .chain(T3Category::ALL.iter().copied().map(Category::T3))
}

fn domain_name(category: Category) -> &'static str {
    match category.domain() {
        failtypes::Domain::Hardware => "hardware",
        failtypes::Domain::Software => "software",
        failtypes::Domain::Unknown => "unknown",
    }
}

/// The typed predicate tree. Each leaf reads one field through one
/// comparison, which the per-record [`eval`] and the column
/// evaluation ([`columns`]) both call.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
    /// A numeric field against a comparison or an `in` set.
    Num { field: NumField, test: Test },
    /// The record's category lies in a set resolved at compile time
    /// (`==`, `!=`, `~` and `in` all reduce to one set).
    Category(CategoryMatcher),
    /// `~`: the node's or rack's path contains `needle`.
    Text { field: StrField, needle: String },
}

// ---------------------------------------------------------------------------
// Type checking
// ---------------------------------------------------------------------------

fn check(ast: &Ast, src: &str) -> Result<Node> {
    match ast {
        Ast::And(a, b) => Ok(Node::And(
            Box::new(check(a, src)?),
            Box::new(check(b, src)?),
        )),
        Ast::Or(a, b) => Ok(Node::Or(
            Box::new(check(a, src)?),
            Box::new(check(b, src)?),
        )),
        Ast::Not(a) => Ok(Node::Not(Box::new(check(a, src)?))),
        Ast::Cmp {
            field,
            field_span,
            op,
            op_span,
            value,
        } => check_cmp(src, field, *field_span, *op, *op_span, value),
        Ast::In {
            field,
            field_span,
            values,
        } => check_in(src, field, *field_span, values),
    }
}

fn unknown_field(src: &str, field: &str, span: Span) -> Error {
    annotate(
        src,
        span,
        &format!("unknown field `{field}` (fields: {FIELDS})"),
    )
}

fn num_field(field: &str) -> Option<NumField> {
    Some(match field {
        "ttr" => NumField::Ttr,
        "recovery" => NumField::Recovery,
        "time" => NumField::Time,
        "node" => NumField::Node,
        "slot" => NumField::Slot,
        "rack" => NumField::Rack,
        "gpus" => NumField::Gpus,
        "month" => NumField::Month,
        _ => return None,
    })
}

fn check_cmp(
    src: &str,
    field: &str,
    field_span: Span,
    op: CmpOp,
    op_span: Span,
    value: &Value,
) -> Result<Node> {
    if field == "category" {
        return match op {
            CmpOp::Eq => Ok(Node::Category(category_matcher(src, value)?)),
            CmpOp::Ne => Ok(Node::Category(category_matcher(src, value)?.complement())),
            CmpOp::Match => Ok(Node::Category(category_substring_matcher(
                &text_value(src, value, "category")?.to_lowercase(),
            ))),
            other => Err(annotate(
                src,
                op_span,
                &format!(
                    "operator `{}` does not apply to `category` (use `==`, `!=`, `~`, or `in`)",
                    other.symbol()
                ),
            )),
        };
    }
    let Some(nf) = num_field(field) else {
        return Err(unknown_field(src, field, field_span));
    };
    if op == CmpOp::Match {
        return match nf {
            NumField::Node => Ok(Node::Text {
                field: StrField::Node,
                needle: text_value(src, value, "node")?.to_lowercase(),
            }),
            NumField::Rack => Ok(Node::Text {
                field: StrField::Rack,
                needle: text_value(src, value, "rack")?.to_lowercase(),
            }),
            other => Err(annotate(
                src,
                op_span,
                &format!(
                    "operator `~` does not apply to numeric field `{}`",
                    other.name()
                ),
            )),
        };
    }
    let bound = bound_value(src, nf, value)?;
    Ok(Node::Num {
        field: nf,
        test: Test::Cmp { op, bound },
    })
}

fn check_in(src: &str, field: &str, field_span: Span, values: &[Value]) -> Result<Node> {
    if field == "category" {
        let matchers = values
            .iter()
            .map(|v| category_matcher(src, v))
            .collect::<Result<Vec<_>>>()?;
        return Ok(Node::Category(CategoryMatcher::union(&matchers)));
    }
    let Some(nf) = num_field(field) else {
        return Err(unknown_field(src, field, field_span));
    };
    let nums = values
        .iter()
        .map(|v| match bound_value(src, nf, v)? {
            Bound::Hours(h) => Ok(h),
            Bound::Date(_) => Err(annotate(
                src,
                v.span,
                "date literals are not supported in `in` sets (compare `time` directly)",
            )),
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Node::Num {
        field: nf,
        test: Test::In(nums),
    })
}

/// The textual payload of a string-ish value (quoted or bareword).
fn text_value<'v>(src: &str, value: &'v Value, field: &str) -> Result<&'v str> {
    match &value.kind {
        ValueKind::Str(s) => Ok(s),
        ValueKind::Word(w) => Ok(w),
        ValueKind::Num(_) => Err(annotate(
            src,
            value.span,
            &format!("field `{field}` expects a string here, got a number"),
        )),
    }
}

fn category_matcher(src: &str, value: &Value) -> Result<CategoryMatcher> {
    let text = text_value(src, value, "category")?;
    let token = normalize(text);
    if token.is_empty() || !known_category_token(&token) {
        return Err(annotate(
            src,
            value.span,
            &format!(
                "unknown category `{text}` (a Table II label like \"System Board\", a component \
                 class like gpu/memory/network, or a domain: hardware, software, unknown)"
            ),
        ));
    }
    let matched = all_categories()
        .filter(|c| {
            normalize(c.label()) == token
                || normalize(c.component_class().name()) == token
                || normalize(domain_name(*c)) == token
        })
        .collect();
    Ok(CategoryMatcher { matched })
}

/// Resolves `category ~ "needle"` to the label-substring match set at
/// compile time, for the same reason as [`category_matcher`].
fn category_substring_matcher(needle: &str) -> CategoryMatcher {
    let matched = all_categories()
        .filter(|c| c.label().to_lowercase().contains(needle))
        .collect();
    CategoryMatcher { matched }
}

fn known_category_token(token: &str) -> bool {
    T2Category::ALL
        .iter()
        .any(|c| normalize(c.label()) == token)
        || T3Category::ALL
            .iter()
            .any(|c| normalize(c.label()) == token)
        || ComponentClass::ALL
            .iter()
            .any(|c| normalize(c.name()) == token)
        || ["hardware", "software", "unknown"].contains(&token)
}

/// Lowercases and strips the separators log vocabularies disagree on,
/// so `system_board`, `"System Board"`, and `system-board` all meet.
fn normalize(s: &str) -> String {
    s.chars()
        .filter(|c| !matches!(c, ' ' | '-' | '_'))
        .flat_map(char::to_lowercase)
        .collect()
}

fn bound_value(src: &str, field: NumField, value: &Value) -> Result<Bound> {
    match &value.kind {
        ValueKind::Num(n) => {
            match field {
                NumField::Month => {
                    if n.fract() != 0.0 || !(1.0..=12.0).contains(n) {
                        return Err(annotate(
                            src,
                            value.span,
                            &format!("field `month` expects a calendar month 1..=12, got `{n}`"),
                        ));
                    }
                }
                NumField::Node | NumField::Slot | NumField::Rack | NumField::Gpus => {
                    if n.fract() != 0.0 || *n < 0.0 {
                        return Err(annotate(
                            src,
                            value.span,
                            &format!(
                                "field `{}` expects a non-negative integer, got `{n}`",
                                field.name()
                            ),
                        ));
                    }
                }
                NumField::Ttr | NumField::Recovery | NumField::Time => {}
            }
            Ok(Bound::Hours(*n))
        }
        ValueKind::Str(s) if field == NumField::Time => match Date::parse_ymd(s) {
            Some(date) => Ok(Bound::Date(date)),
            None => Err(annotate(
                src,
                value.span,
                &format!("field `time` expects hours or a date (YYYY-MM-DD), got \"{s}\""),
            )),
        },
        ValueKind::Str(_) | ValueKind::Word(_) => {
            let hint = if field == NumField::Time {
                "hours or a date (YYYY-MM-DD)"
            } else {
                "a number"
            };
            Err(annotate(
                src,
                value.span,
                &format!("field `{}` expects {hint}", field.name()),
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

fn eval(node: &Node, rec: &FailureRecord, spec: &SystemSpec, window: ObservationWindow) -> bool {
    match node {
        Node::And(a, b) => eval(a, rec, spec, window) && eval(b, rec, spec, window),
        Node::Or(a, b) => eval(a, rec, spec, window) || eval(b, rec, spec, window),
        Node::Not(a) => !eval(a, rec, spec, window),
        Node::Num { field, test } => {
            let check = test.resolve(window);
            match field {
                NumField::Ttr => check.holds(rec.ttr().get()),
                NumField::Recovery => check.holds(rec.recovery_time().get()),
                NumField::Time => check.holds(rec.time().get()),
                NumField::Node | NumField::Rack => {
                    check.holds(node_value(*field, rec.node().index(), spec))
                }
                // `slot` is existential over the involved GPU slots.
                NumField::Slot => rec.gpus().iter().any(|&s| check.holds(slot_value(s))),
                NumField::Gpus => check.holds(rec.gpus().len() as f64),
                NumField::Month => check.holds(month_value(window.date_of(rec.time()).month())),
            }
        }
        Node::Category(matcher) => matcher.matches(rec.category()),
        Node::Text { field, needle } => text_matches(*field, needle, rec.node().index(), spec),
    }
}

/// The value a `node` or `rack` leaf compares for a record on `node`.
fn node_value(field: NumField, node: u32, spec: &SystemSpec) -> f64 {
    match field {
        NumField::Rack => f64::from(spec.rack_of(NodeId::new(node)).index()),
        _ => f64::from(node),
    }
}

/// The value a `slot` leaf compares for one involved GPU slot.
fn slot_value(slot: GpuSlot) -> f64 {
    f64::from(slot.index())
}

/// The value a `month` leaf compares.
fn month_value(month: Month) -> f64 {
    f64::from(month.number())
}

/// Whether `needle` lies in the path `~` matches for a record on
/// `node`: `rackR/nodeN`, or `rackR`.
fn text_matches(field: StrField, needle: &str, node: u32, spec: &SystemSpec) -> bool {
    let rack = spec.rack_of(NodeId::new(node)).index();
    let haystack = match field {
        StrField::Node => format!("rack{rack}/node{node}"),
        StrField::Rack => format!("rack{rack}"),
    };
    haystack.contains(needle)
}

fn num_cmp(lhs: f64, op: CmpOp, rhs: f64) -> bool {
    match op {
        CmpOp::Eq => lhs == rhs,
        CmpOp::Ne => lhs != rhs,
        CmpOp::Lt => lhs < rhs,
        CmpOp::Le => lhs <= rhs,
        CmpOp::Gt => lhs > rhs,
        CmpOp::Ge => lhs >= rhs,
        CmpOp::Match => unreachable!("`~` never reaches numeric comparison"),
    }
}

// ---------------------------------------------------------------------------
// Error rendering
// ---------------------------------------------------------------------------

/// Formats a span-annotated error: the message, the source line, and a
/// caret run under the offending span (column math in characters, so
/// multi-byte input stays aligned).
fn annotate(src: &str, span: Span, msg: &str) -> Error {
    let start = span.start.min(src.len());
    let end = span.end.min(src.len()).max(start);
    let col = src[..start].chars().count();
    let width = src[start..end].chars().count().max(1);
    Error::args(format!(
        "{msg}\n  {src}\n  {}{}",
        " ".repeat(col),
        "^".repeat(width)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{Simulator, SystemModel};
    use failtypes::FailureLog;

    fn t3log() -> FailureLog {
        Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap()
    }

    fn keep(log: &FailureLog, expr: &str) -> Vec<usize> {
        let pred = compile(expr).unwrap();
        log.records()
            .iter()
            .enumerate()
            .filter(|(_, r)| pred.matches(r, log.spec(), log.window()))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn category_matches_label_class_and_domain() {
        let log = t3log();
        let by_label = keep(&log, "category == \"GPU\"");
        let by_class = keep(&log, "category == gpu");
        assert_eq!(by_label, by_class);
        assert!(!by_class.is_empty());
        let hw = keep(&log, "category == hardware");
        let sw = keep(&log, "category == software");
        let unknown = keep(&log, "category == unknown");
        assert_eq!(hw.len() + sw.len() + unknown.len(), log.len());
        // != is the exact complement of ==.
        let not_gpu = keep(&log, "category != gpu");
        assert_eq!(by_class.len() + not_gpu.len(), log.len());
    }

    #[test]
    fn category_normalization_crosses_spellings() {
        let log = t3log();
        assert_eq!(
            keep(&log, "category == \"Omni-Path\""),
            keep(&log, "category == omnipath")
        );
        assert_eq!(
            keep(&log, "category == sxm2_cable"),
            keep(&log, "category == \"SXM2_Cable\"")
        );
    }

    #[test]
    fn in_sets_union() {
        let log = t3log();
        let gpu = keep(&log, "category == gpu");
        let mem = keep(&log, "category == memory");
        let both = keep(&log, "category in (gpu, memory)");
        assert_eq!(both.len(), gpu.len() + mem.len());
        let months = keep(&log, "month in (1, 2, 3)");
        let manual = keep(&log, "month == 1 || month == 2 || month == 3");
        assert_eq!(months, manual);
    }

    #[test]
    fn numeric_fields_and_boolean_algebra() {
        let log = t3log();
        let a = keep(&log, "ttr > 24");
        let b = keep(&log, "!(ttr <= 24)");
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() < log.len());
        let c = keep(&log, "ttr > 24 && category == gpu");
        let d = keep(&log, "category == gpu && ttr > 24");
        assert_eq!(c, d);
        // recovery is time + ttr.
        let pred = compile("recovery >= 0").unwrap();
        assert!(log
            .records()
            .iter()
            .all(|r| pred.matches(r, log.spec(), log.window())));
    }

    #[test]
    fn rack_and_node_topology() {
        let log = t3log();
        let rack0_eq = keep(&log, "rack == 0");
        // Tsubame-3 racks hold 36 nodes: rack 0 is nodes 0..=35.
        let node_range = keep(&log, "node <= 35");
        assert_eq!(rack0_eq, node_range);
        // `~` on node matches the rack-qualified topology path.
        let via_match = keep(&log, "node ~ \"rack3/\"");
        assert_eq!(via_match, keep(&log, "rack == 3"));
        assert_eq!(keep(&log, "rack ~ \"rack1\"").len(), {
            // substring: rack1, rack10..rack14
            let mut n = keep(&log, "rack == 1").len();
            for r in 10..=14 {
                n += keep(&log, &format!("rack == {r}")).len();
            }
            n
        });
    }

    #[test]
    fn slot_is_existential_and_gpus_counts() {
        let log = t3log();
        let pred = compile("slot == 0").unwrap();
        for (i, rec) in log.records().iter().enumerate() {
            let expect = rec.gpus().iter().any(|s| s.index() == 0);
            assert_eq!(
                pred.matches(rec, log.spec(), log.window()),
                expect,
                "record {i}"
            );
        }
        let multi = keep(&log, "gpus >= 2");
        for &i in &multi {
            assert!(log.records()[i].gpus().len() >= 2);
        }
    }

    #[test]
    fn month_uses_the_calendar_of_the_window() {
        let log = t3log();
        let pred = compile("month == 12").unwrap();
        for rec in log.records() {
            let expect = log.window().date_of(rec.time()).month().number() == 12;
            assert_eq!(pred.matches(rec, log.spec(), log.window()), expect);
        }
    }

    #[test]
    fn time_compares_hours_and_dates() {
        let log = t3log();
        // The Tsubame-3 window starts 2017-05-09; 2017-06-08 is 720 h in.
        let by_date = keep(&log, "time >= \"2017-06-08\"");
        let by_hours = keep(&log, "time >= 720");
        assert_eq!(by_date, by_hours);
        let window = keep(&log, "time >= 100 && time < 1000");
        for &i in &window {
            let t = log.records()[i].time().get();
            assert!((100.0..1000.0).contains(&t));
        }
    }

    #[test]
    fn predicate_and_composes() {
        let log = t3log();
        let a = compile("category == gpu").unwrap();
        let b = compile("ttr > 24").unwrap();
        let both = a.and(b);
        assert_eq!(both.source(), "(category == gpu) && (ttr > 24)");
        assert_eq!(
            log.records()
                .iter()
                .filter(|r| both.matches(r, log.spec(), log.window()))
                .count(),
            keep(&log, "category == gpu && ttr > 24").len()
        );
    }

    #[test]
    fn time_literals() {
        assert_eq!(time_literal(" 1000 ").unwrap(), "1000");
        assert_eq!(time_literal("36.5").unwrap(), "36.5");
        assert_eq!(time_literal("2017-06-08").unwrap(), "\"2017-06-08\"");
        for bad in ["banana", "inf", "NaN", "2017-13-40", "2017-06", ""] {
            let err = time_literal(bad).unwrap_err();
            assert!(err.to_string().contains("not a time bound"), "{bad}: {err}");
        }
    }

    #[test]
    fn expr_parse_then_compile_matches_one_shot() {
        let expr = parse("category == gpu && ttr > 24").unwrap();
        assert_eq!(expr.source(), "category == gpu && ttr > 24");
        assert_eq!(expr.compile().unwrap(), compile(expr.source()).unwrap());
    }

    // -- golden span errors ------------------------------------------------

    fn err_text(src: &str) -> String {
        compile(src).unwrap_err().to_string()
    }

    #[test]
    fn golden_unknown_field_span() {
        assert_eq!(
            err_text("category == gpu && ttrs > 2"),
            "unknown field `ttrs` (fields: category, ttr, recovery, time, node, slot, rack, \
             gpus, month)\n  category == gpu && ttrs > 2\n                     ^^^^"
        );
    }

    #[test]
    fn golden_single_equals_span() {
        assert_eq!(
            err_text("category = gpu"),
            "single `=` is not an operator (use `==`)\n  category = gpu\n           ^"
        );
    }

    #[test]
    fn golden_bad_value_type_span() {
        assert_eq!(
            err_text("ttr > banana"),
            "field `ttr` expects a number\n  ttr > banana\n        ^^^^^^"
        );
    }

    #[test]
    fn golden_unknown_category_span() {
        let text = err_text("category == quantum");
        assert!(text.starts_with("unknown category `quantum`"), "{text}");
        assert!(text.ends_with("\n  category == quantum\n              ^^^^^^^"), "{text}");
    }

    #[test]
    fn golden_operator_type_mismatch_span() {
        assert_eq!(
            err_text("category < gpu"),
            "operator `<` does not apply to `category` (use `==`, `!=`, `~`, or `in`)\n  \
             category < gpu\n           ^"
        );
        assert_eq!(
            err_text("ttr ~ \"2\""),
            "operator `~` does not apply to numeric field `ttr`\n  ttr ~ \"2\"\n      ^"
        );
    }

    #[test]
    fn golden_end_of_expression_span() {
        assert_eq!(
            err_text("ttr >"),
            "expected a value, found end of expression\n  ttr >\n       ^"
        );
    }

    #[test]
    fn golden_month_range_span() {
        assert_eq!(
            err_text("month == 13"),
            "field `month` expects a calendar month 1..=12, got `13`\n  month == 13\n           ^^"
        );
    }

    #[test]
    fn more_malformed_expressions_fail_with_spans() {
        for src in [
            "",
            "ttr",
            "ttr 24",
            "(ttr > 2",
            "ttr > 2)",
            "node == -1",
            "node == 1.5",
            "gpus in (banana)",
            "time >= \"2018-13-01\"",
            "time in (\"2018-01-01\")",
            "category in ()",
            "category == 7",
            "node ~ 12",
            "slot ~ \"a\"",
            "ttr > 1 &&",
            "ttr > 1 zebra == 2",
        ] {
            let err = compile(src).unwrap_err();
            assert!(
                matches!(err, Error::Args(_)),
                "{src}: unexpected error kind {err:?}"
            );
            let text = err.to_string();
            if !src.is_empty() {
                assert!(text.contains('^'), "{src}: no caret in {text}");
                assert!(text.contains(src), "{src}: source not echoed in {text}");
            }
        }
    }
}
