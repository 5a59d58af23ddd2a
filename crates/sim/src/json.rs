//! The workspace's JSON toolkit: one lexer under two readers, plus the
//! writers.
//!
//! The workspace is dependency-free by design, so everything that reads
//! or writes JSON shares this module instead of pulling in serde:
//!
//! * **One lexer.** Whitespace, strings, numbers and the three literals
//!   are each scanned by exactly one routine, to RFC 8259: a number has
//!   no leading zero, a string holds no raw control character and only
//!   the standard escapes. Both readers call it, so they cannot disagree
//!   about where a token starts or ends.
//! * **[`parse_json`]** builds a [`Json`] DOM from any document: the
//!   bench record, the serve client's replies, the tests that check
//!   emitted documents. It accepts the full value grammar minus `\u`
//!   surrogate pairs (lone surrogates degrade to U+FFFD; no writer in
//!   this workspace emits `\u` escapes above U+001F).
//! * **[`parse_flat`]** reads one flat object (scalar members only, at
//!   most [`FLAT_MEMBERS`], no duplicate keys, no escapes) into a fixed
//!   array that borrows from the input, so it never allocates. `mmtag
//!   serve` reads every request line with it. Numbers stay lexemes, so
//!   a `u64` seed above 2⁵³ survives, where the DOM's `f64` would round
//!   it.
//! * **Writers.** [`write_str`], [`write_num`], [`write_list`] and
//!   [`write_tables`] are the one string, number, array and table
//!   encoders, shared by `RunRecord::to_json` and the serve responses.
//!   They escape with
//!   [`escape_into`], which lives in `mmtag_rf::obs` (the lowest crate
//!   that writes JSON) and is re-exported here.

use std::fmt::Write as _;

pub use mmtag_rf::obs::escape_into;

use crate::experiment::Table;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (`None` for missing keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object members, if this is an object. A test reference: the
    /// bench-record and perfbench tests walk parsed records through it.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document into a [`Json`] DOM. Rejects trailing
/// garbage.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut lx = Lexer { s, i: 0 };
    let v = lx.value()?;
    lx.end()?;
    Ok(v)
}

/// The most members [`parse_flat`] reads. The serve protocol defines
/// 11 keys; the rest of the cap leaves room for members a client adds
/// and the daemon ignores.
pub const FLAT_MEMBERS: usize = 16;

/// A member value read by [`parse_flat`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scalar<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its lexeme: the caller parses it to the type it
    /// needs.
    Num(&'a str),
    /// A string's content. [`parse_flat`] refuses escapes, so these are
    /// the bytes between the quotes.
    Str(&'a str),
}

impl<'a> Scalar<'a> {
    /// The number's lexeme, if this is a number.
    pub fn as_num(self) -> Option<&'a str> {
        match self {
            Scalar::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(self) -> Option<&'a str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One flat object read by [`parse_flat`]: its members in document
/// order, borrowed from the input.
#[derive(Clone, Debug)]
pub struct Flat<'a> {
    members: [(&'a str, Scalar<'a>); FLAT_MEMBERS],
    len: usize,
}

impl<'a> Flat<'a> {
    /// The value of member `key`, if present.
    pub fn get(&self, key: &str) -> Option<Scalar<'a>> {
        self.members()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }

    /// Every member, in document order.
    pub fn members(&self) -> &[(&'a str, Scalar<'a>)] {
        &self.members[..self.len]
    }
}

/// Reads one flat JSON object without allocating. Rejects anything
/// else: a document that is not a single object, a nested value, a
/// duplicate key, a key or string value holding an escape, more than
/// [`FLAT_MEMBERS`] members, an unclosed object, trailing bytes, and
/// everything [`parse_json`] rejects. Only the error message allocates.
pub fn parse_flat(s: &str) -> Result<Flat<'_>, String> {
    let mut lx = Lexer { s, i: 0 };
    let mut flat = Flat {
        members: [("", Scalar::Null); FLAT_MEMBERS],
        len: 0,
    };
    if lx.ws() != Some(b'{') {
        return lx.err("expected an object");
    }
    lx.seq(b'}', |lx| {
        let key = lx.key()?;
        let Token::Scalar(value) = lx.token()? else {
            return lx.err("nested value");
        };
        if key.contains('\\') || value.as_str().is_some_and(|v| v.contains('\\')) {
            return lx.err("escaped string");
        }
        if flat.get(key).is_some() {
            return lx.err("duplicate key");
        }
        if flat.len == FLAT_MEMBERS {
            return lx.err("too many members");
        }
        flat.members[flat.len] = (key, value);
        flat.len += 1;
        Ok(())
    })?;
    lx.end()?;
    Ok(flat)
}

/// What starts at a value position.
enum Token<'a> {
    /// `{` or `[`, not yet consumed.
    Open(u8),
    /// A scalar, consumed; a string's content still holds its escapes.
    Scalar(Scalar<'a>),
}

/// The one lexer under both readers: a byte cursor over the document.
struct Lexer<'a> {
    s: &'a str,
    i: usize,
}

impl<'a> Lexer<'a> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    /// Skips whitespace and returns the next byte, unconsumed.
    fn ws(&mut self) -> Option<u8> {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
        self.peek()
    }

    /// Consumes the next byte if it is one of `any_of`.
    fn skip(&mut self, any_of: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|c| any_of.contains(&c));
        self.i += usize::from(hit);
        hit
    }

    /// Consumes a run of digits; `false` if there was none.
    fn digits(&mut self) -> bool {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i > start
    }

    /// Nothing but whitespace may follow the document.
    fn end(&mut self) -> Result<(), String> {
        match self.ws() {
            None => Ok(()),
            Some(_) => self.err("trailing garbage"),
        }
    }

    /// The token at the next value position.
    fn token(&mut self) -> Result<Token<'a>, String> {
        let literal = |lx: &mut Self, lit: &str, v: Scalar<'a>| {
            if lx.s[lx.i..].starts_with(lit) {
                lx.i += lit.len();
                Ok(Token::Scalar(v))
            } else {
                lx.err("bad literal")
            }
        };
        match self.ws() {
            Some(c @ (b'{' | b'[')) => Ok(Token::Open(c)),
            Some(b'"') => self.string().map(|s| Token::Scalar(Scalar::Str(s))),
            Some(b't') => literal(self, "true", Scalar::Bool(true)),
            Some(b'f') => literal(self, "false", Scalar::Bool(false)),
            Some(b'n') => literal(self, "null", Scalar::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(|n| Token::Scalar(Scalar::Num(n))),
            _ => self.err("expected a JSON value"),
        }
    }

    /// The string at `"`: returns its content with escapes still
    /// encoded (each one checked) and moves past the closing quote.
    fn string(&mut self) -> Result<&'a str, String> {
        let b = self.s.as_bytes();
        self.i += 1;
        let start = self.i;
        loop {
            match b.get(self.i) {
                None => return self.err("unterminated string"),
                Some(b'"') => break,
                Some(b'\\') => match b.get(self.i + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.i += 2,
                    Some(b'u')
                        if b.get(self.i + 2..self.i + 6)
                            .is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) =>
                    {
                        self.i += 6
                    }
                    _ => return self.err("bad escape"),
                },
                Some(0..=0x1f) => return self.err("control character in string"),
                Some(_) => self.i += 1,
            }
        }
        self.i += 1;
        Ok(&self.s[start..self.i - 1])
    }

    /// The number here, as its lexeme: `-? (0 | [1-9][0-9]*) (. [0-9]+)?
    /// ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.i;
        self.skip(b"-");
        // A zero stands alone: `01` is a zero followed by junk.
        let integer = self.skip(b"0") || matches!(self.peek(), Some(b'1'..=b'9')) && self.digits();
        if !integer {
            return self.err("expected digits");
        }
        if self.skip(b".") && !self.digits() {
            return self.err("expected fraction digits");
        }
        if self.skip(b"eE") {
            self.skip(b"+-");
            if !self.digits() {
                return self.err("expected exponent digits");
            }
        }
        Ok(&self.s[start..self.i])
    }

    /// An object key and its `:`.
    fn key(&mut self) -> Result<&'a str, String> {
        if self.ws() != Some(b'"') {
            return self.err("expected object key");
        }
        let key = self.string()?;
        if self.ws() != Some(b':') {
            return self.err("expected ':'");
        }
        self.i += 1;
        Ok(key)
    }

    /// The items of an object or array whose opening byte is next:
    /// `item` reads each one, the separators and `close` are checked
    /// here.
    fn seq(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.i += 1;
        if self.ws() == Some(close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.ws() {
                Some(b',') => self.i += 1,
                Some(c) if c == close => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return self.err(&format!("expected ',' or '{}'", close as char)),
            }
        }
    }

    /// The DOM reader's value.
    fn value(&mut self) -> Result<Json, String> {
        Ok(match self.token()? {
            Token::Open(b'{') => {
                let mut members = Vec::new();
                self.seq(b'}', |lx| {
                    let key = unescape(lx.key()?);
                    members.push((key, lx.value()?));
                    Ok(())
                })?;
                Json::Obj(members)
            }
            Token::Open(_) => {
                let mut items = Vec::new();
                self.seq(b']', |lx| {
                    items.push(lx.value()?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Token::Scalar(Scalar::Null) => Json::Null,
            Token::Scalar(Scalar::Bool(b)) => Json::Bool(b),
            Token::Scalar(Scalar::Num(n)) => {
                Json::Num(n.parse().expect("every JSON number lexeme parses as f64"))
            }
            Token::Scalar(Scalar::Str(s)) => Json::Str(unescape(s)),
        })
    }
}

/// Decodes the content of a string the lexer has checked.
fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next() {
            Some('b') => '\u{8}',
            Some('f') => '\u{c}',
            Some('n') => '\n',
            Some('r') => '\r',
            Some('t') => '\t',
            Some('u') => {
                let code = chars
                    .by_ref()
                    .take(4)
                    .fold(0, |acc, h| acc * 16 + h.to_digit(16).unwrap_or(0));
                // Lone surrogates degrade to the replacement character.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            Some(c) => c, // `"`, `\` or `/`
            None => break,
        });
    }
    out
}

/// Writes `s` as a quoted, escaped JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Writes `v` as a JSON number: a finite value in `Display`'s shortest
/// round-trip form, a non-finite one as `null` (JSON has no NaN or
/// infinity).
pub fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Writes `tables` as one compact JSON array: per table, an object
/// with `title`, `columns`, `labels` (one per row) and `rows` (arrays
/// of cells, non-finite ones as `null`), in that key order.
pub fn write_tables(out: &mut String, tables: &[Table]) {
    write_list(out, tables, |out, t| {
        out.push_str("{\"title\":");
        write_str(out, t.title());
        out.push_str(",\"columns\":");
        write_list(out, t.columns(), |out, c| write_str(out, c));
        out.push_str(",\"labels\":");
        write_list(out, 0..t.len(), |out, row| write_str(out, t.label(row)));
        out.push_str(",\"rows\":");
        write_list(out, 0..t.len(), |out, row| {
            write_list(out, 0..t.columns().len(), |out, col| {
                write_num(out, t.cell(row, col));
            });
        });
        out.push('}');
    });
}

/// Writes `items` as a compact JSON array, each item by `write`.
pub fn write_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_builds_the_dom() {
        let v = parse_json(r#"{"a": [1, -2.5e1, null, true], "b": "x\"y"}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-25.0),
                Json::Null,
                Json::Bool(true)
            ]))
        );
        assert_eq!(v.get("b"), Some(&Json::Str("x\"y".into())));
        assert!(parse_json("{} junk").is_err());
        assert!(parse_json("{\"a\":}").is_err());
    }

    #[test]
    fn accessors_reject_wrong_shapes() {
        let v = parse_json(r#"{"n": 3, "s": "hi", "a": [1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_num), Some(3.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("n").and_then(Json::as_str), None);
        assert_eq!(v.get("s").and_then(Json::as_num), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.0).get("k"), None);
    }

    #[test]
    fn validate_json_accepts_the_report_shape_and_valid_documents() {
        // A `BENCH_report.json`-shaped document, written the way its
        // writer writes it, with a key that needs escaping.
        let mut key = String::from("\"");
        escape_into(&mut key, "k \"quoted\"");
        key.push('"');
        let doc = format!(
            "{{\"host\": {{\"nproc\": 2}}, \"workloads\": {{\"w\": {{\"per_layer\": \
             {{{key}: {{\"unit\": \"ns\", \"median\": 1.5, \"q1\": 1, \"q3\": 2e0}}}}}}}}}}"
        );
        let dom = parse_json(&doc).unwrap();
        let row = dom
            .get("workloads")
            .and_then(|w| w.get("w"))
            .and_then(|w| w.get("per_layer"))
            .and_then(|r| r.get("k \"quoted\""));
        assert_eq!(
            row.and_then(|r| r.get("median")).and_then(Json::as_num),
            Some(1.5)
        );
        assert_eq!(
            row.and_then(|r| r.get("q3")).and_then(Json::as_num),
            Some(2.0)
        );
        assert_eq!(
            row.and_then(|r| r.get("unit")).and_then(Json::as_str),
            Some("ns")
        );
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            r#""a \"quoted\" é string""#,
            r#"{"a": [1, {"b": null}, true], "c": "d"}"#,
            "  {\n}\t",
        ] {
            assert!(parse_json(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn validate_json_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1, 2",
            "\"unterminated",
            "01x",
            "1.",
            "1e",
            "{\"a\" 1}",
            "{} trailing",
            "nul",
            r#""bad \q escape""#,
            // RFC 8259: no leading zeros...
            "007",
            "[01]",
            "-01",
            "00.5",
            // ...and no raw control characters inside a string.
            "\"a\u{1}b\"",
            "\"a\tb\"",
            "{\"k\u{1f}\": 1}",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} must be rejected");
            assert!(parse_flat(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn flat_reader_keeps_lexemes_and_refuses_what_the_dom_would_guess_at() {
        let flat = parse_flat(
            r#" {"seed": 18446744073709551615, "x": -2.5e1, "s": "é", "b": false, "n": null} "#,
        )
        .unwrap();
        // A u64 above 2^53 keeps every digit; the DOM's f64 cannot.
        assert_eq!(
            flat.get("seed").and_then(Scalar::as_num).map(str::parse),
            Some(Ok(u64::MAX))
        );
        assert_eq!(flat.get("x"), Some(Scalar::Num("-2.5e1")));
        assert_eq!(flat.get("s"), Some(Scalar::Str("é")));
        assert_eq!(flat.get("b"), Some(Scalar::Bool(false)));
        assert_eq!(flat.get("n"), Some(Scalar::Null));
        assert_eq!(flat.get("missing"), None);
        assert_eq!(flat.members().len(), 5);
        assert!(parse_flat("{}").unwrap().members().is_empty());
        let members = |n: usize| {
            let body: Vec<String> = (0..n).map(|i| format!("\"k{i}\":{i}")).collect();
            format!("{{{}}}", body.join(","))
        };
        assert_eq!(
            parse_flat(&members(FLAT_MEMBERS)).unwrap().members().len(),
            FLAT_MEMBERS
        );
        // The DOM reads all but the last two of these; the flat reader
        // refuses their shape, not just their syntax.
        for bad in [
            members(FLAT_MEMBERS + 1),
            r#"{"a":1,"a":2}"#.to_string(),
            r#"{"a":{"b":1}}"#.to_string(),
            r#"{"a":[1]}"#.to_string(),
            r#"{"a":"x\ny"}"#.to_string(),
            r#"{"a\u0062":1}"#.to_string(),
            r#"[{"a":1}]"#.to_string(),
            r#""a""#.to_string(),
            r#"{"a":1"#.to_string(),
            r#"{"a":1} x"#.to_string(),
        ] {
            assert!(parse_flat(&bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn escape_into_round_trips() {
        let mut out = String::from("\"");
        escape_into(&mut out, "a\"b\\c\nd\te\u{1}f");
        out.push('"');
        let back = parse_json(&out).unwrap();
        assert_eq!(back, Json::Str("a\"b\\c\nd\te\u{1}f".to_string()));
    }
}
