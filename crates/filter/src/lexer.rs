//! Tokenizer for the `--where` expression language.
//!
//! Produces a flat token stream with byte-offset spans; every error the
//! later stages report points back into the original source through
//! these spans.

/// A half-open byte range `[start, end)` into the source expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    pub(crate) fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }
}

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    /// A bareword: field names, unquoted values, and the `in` keyword.
    Word(String),
    /// A numeric literal.
    Number(f64),
    /// A quoted string literal (quotes stripped, escapes resolved).
    Str(String),
    AndAnd,
    OrOr,
    Bang,
    EqEq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Tilde,
    LParen,
    RParen,
    Comma,
}

impl Tok {
    /// How the token reads in an error message.
    pub(crate) fn describe(&self) -> String {
        match self {
            Tok::Word(w) => format!("`{w}`"),
            Tok::Number(n) => format!("`{n}`"),
            Tok::Str(s) => format!("\"{s}\""),
            Tok::AndAnd => "`&&`".into(),
            Tok::OrOr => "`||`".into(),
            Tok::Bang => "`!`".into(),
            Tok::EqEq => "`==`".into(),
            Tok::Ne => "`!=`".into(),
            Tok::Lt => "`<`".into(),
            Tok::Le => "`<=`".into(),
            Tok::Gt => "`>`".into(),
            Tok::Ge => "`>=`".into(),
            Tok::Tilde => "`~`".into(),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::Comma => "`,`".into(),
        }
    }
}

/// A token plus where it came from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Lexed {
    pub tok: Tok,
    pub span: Span,
}

/// Tokenizes `src`. Errors carry a message and the offending span.
pub(crate) fn lex(src: &str) -> Result<Vec<Lexed>, (String, Span)> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        let tok = match b {
            b'(' => {
                i += 1;
                Tok::LParen
            }
            b')' => {
                i += 1;
                Tok::RParen
            }
            b',' => {
                i += 1;
                Tok::Comma
            }
            b'~' => {
                i += 1;
                Tok::Tilde
            }
            b'&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    i += 2;
                    Tok::AndAnd
                } else {
                    return Err((
                        "single `&` is not an operator (use `&&`)".into(),
                        Span::new(start, start + 1),
                    ));
                }
            }
            b'|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    i += 2;
                    Tok::OrOr
                } else {
                    return Err((
                        "single `|` is not an operator (use `||`)".into(),
                        Span::new(start, start + 1),
                    ));
                }
            }
            b'=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    Tok::EqEq
                } else {
                    return Err((
                        "single `=` is not an operator (use `==`)".into(),
                        Span::new(start, start + 1),
                    ));
                }
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    Tok::Ne
                } else {
                    i += 1;
                    Tok::Bang
                }
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    Tok::Le
                } else {
                    i += 1;
                    Tok::Lt
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    Tok::Ge
                } else {
                    i += 1;
                    Tok::Gt
                }
            }
            b'"' | b'\'' => {
                let quote = b;
                let mut text = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err((
                                "unterminated string literal".into(),
                                Span::new(start, bytes.len()),
                            ))
                        }
                        Some(&c) if c == quote => {
                            i += 1;
                            break;
                        }
                        Some(b'\\') => match bytes.get(i + 1) {
                            Some(&e) if e == quote || e == b'\\' => {
                                text.push(e as char);
                                i += 2;
                            }
                            _ => {
                                // Span the backslash and the whole
                                // character after it, which may be
                                // multi-byte.
                                let next = src[i + 1..].chars().next().map_or(0, char::len_utf8);
                                return Err((
                                    "unsupported escape in string literal".into(),
                                    Span::new(i, i + 1 + next),
                                ));
                            }
                        },
                        Some(_) => {
                            // Advance one whole UTF-8 character.
                            let ch = src[i..].chars().next().expect("in-bounds char");
                            text.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                Tok::Str(text)
            }
            // A `-` directly before a digit or `.` signs the number, so
            // `time >= -5` (and `--since -5`, which desugars to it) lex.
            b'-' | b'0'..=b'9' | b'.'
                if b != b'-' || matches!(bytes.get(i + 1), Some(c) if c.is_ascii_digit() || *c == b'.') =>
            {
                if b == b'-' {
                    i += 1;
                }
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                // `2020-03-01` would lex as three signed numbers; say
                // what was meant instead.
                if bytes.get(i) == Some(&b'-') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    let end = i + bytes[i..]
                        .iter()
                        .take_while(|&&c| c.is_ascii_digit() || c == b'-')
                        .count();
                    let date = &src[start..end];
                    return Err((
                        format!("unquoted date `{date}`: quote dates, as in \"{date}\""),
                        Span::new(start, end),
                    ));
                }
                let text = &src[start..i];
                match text.parse::<f64>() {
                    Ok(n) if n.is_finite() => Tok::Number(n),
                    _ => {
                        return Err((
                            format!("malformed number `{text}`"),
                            Span::new(start, i),
                        ))
                    }
                }
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                i += 1;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'-')
                {
                    i += 1;
                }
                Tok::Word(src[start..i].to_string())
            }
            _ => {
                let ch = src[start..].chars().next().expect("in-bounds char");
                return Err((
                    format!("unexpected character `{ch}`"),
                    Span::new(start, start + ch.len_utf8()),
                ));
            }
        };
        out.push(Lexed {
            tok,
            span: Span::new(start, i),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|l| l.tok).collect()
    }

    #[test]
    fn operators_and_atoms() {
        assert_eq!(
            toks("category == gpu && ttr > 24.5"),
            vec![
                Tok::Word("category".into()),
                Tok::EqEq,
                Tok::Word("gpu".into()),
                Tok::AndAnd,
                Tok::Word("ttr".into()),
                Tok::Gt,
                Tok::Number(24.5),
            ]
        );
        assert_eq!(
            toks("!(a != b) || c <= 1 , ~ >="),
            vec![
                Tok::Bang,
                Tok::LParen,
                Tok::Word("a".into()),
                Tok::Ne,
                Tok::Word("b".into()),
                Tok::RParen,
                Tok::OrOr,
                Tok::Word("c".into()),
                Tok::Le,
                Tok::Number(1.0),
                Tok::Comma,
                Tok::Tilde,
                Tok::Ge,
            ]
        );
    }

    #[test]
    fn strings_both_quotes_and_escapes() {
        assert_eq!(toks(r#"node ~ "rack12""#)[2], Tok::Str("rack12".into()));
        assert_eq!(toks("x == 'System Board'")[2], Tok::Str("System Board".into()));
        assert_eq!(toks(r#"x == "a\"b\\c""#)[2], Tok::Str("a\"b\\c".into()));
    }

    #[test]
    fn a_minus_before_a_digit_signs_the_number() {
        assert_eq!(toks("time >= -5")[2], Tok::Number(-5.0));
        assert_eq!(toks("ttr>-.5"), vec![Tok::Word("ttr".into()), Tok::Gt, Tok::Number(-0.5)]);
        assert_eq!(toks("rack-1")[0], Tok::Word("rack-1".into()));
        let (msg, span) = lex("ttr > - 5").unwrap_err();
        assert!(msg.contains("unexpected character `-`"), "{msg}");
        assert_eq!(span, Span::new(6, 7));
        assert!(lex("ttr > --5").unwrap_err().0.contains("unexpected character `-`"));
        assert!(lex("ttr > -5-").unwrap_err().0.contains("unexpected character `-`"));
        let (msg, span) = lex("time >= 2020-03-01").unwrap_err();
        assert_eq!(msg, r#"unquoted date `2020-03-01`: quote dates, as in "2020-03-01""#);
        assert_eq!(span, Span::new(8, 18));
        assert!(lex("time >= 2020 -3").is_ok());
    }

    #[test]
    fn words_allow_hyphens_after_first_char() {
        assert_eq!(toks("Omni-Path")[0], Tok::Word("Omni-Path".into()));
        assert_eq!(toks("in")[0], Tok::Word("in".into()));
    }

    #[test]
    fn spans_point_at_the_source() {
        let lexed = lex("ttr  >= 7").unwrap();
        assert_eq!(lexed[0].span, Span::new(0, 3));
        assert_eq!(lexed[1].span, Span::new(5, 7));
        assert_eq!(lexed[2].span, Span::new(8, 9));
    }

    #[test]
    fn rejects_bad_input() {
        for (src, what) in [
            ("a = b", "single `=`"),
            ("a & b", "single `&`"),
            ("a | b", "single `|`"),
            ("x == \"open", "unterminated"),
            ("x == 1.2.3", "malformed number"),
            ("x == #", "unexpected character"),
            (r#"x == "a\nb""#, "unsupported escape"),
        ] {
            let (msg, _) = lex(src).unwrap_err();
            assert!(msg.contains(what), "{src}: {msg}");
        }
    }

    #[test]
    fn escape_spans_end_on_a_char_boundary() {
        // A backslash before a multi-byte character spans that whole
        // character, so the caret annotation can slice the source.
        let src = "x ~ \"\\é\"";
        let (_, span) = lex(src).unwrap_err();
        assert_eq!(span, Span::new(5, 8));
        assert!(src.is_char_boundary(span.end));
        let (_, span) = lex("x ~ \"\\").unwrap_err();
        assert_eq!(span, Span::new(5, 6));
    }
}
