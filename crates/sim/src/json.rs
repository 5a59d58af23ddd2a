//! The workspace's JSON toolkit: a minimal DOM and recursive-descent
//! parser, plus the one string escaper.
//!
//! The workspace is dependency-free by design, so every place that must
//! *read* JSON — the bench-record writer and its test, the serve-protocol
//! client, the tests that check emitted documents — shares this tiny DOM
//! instead of pulling in serde. Writers stay hand-rolled at each call site
//! (`RunRecord::to_json`, the obs metrics block, the serve responses):
//! emitting JSON with a fixed key order is a `format!` away, while
//! parsing benefits from one careful implementation. All of them escape
//! strings with [`escape_into`], which lives in `mmtag_rf::obs` (the
//! lowest crate that writes JSON) and is re-exported here.
//!
//! The parser accepts the full RFC 8259 value grammar minus `\u`
//! surrogate pairs (lone surrogates degrade to U+FFFD; no writer in this
//! workspace emits `\u` escapes above U+001F).

pub use mmtag_rf::obs::escape_into;

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

    /// The object members, if this is an object.
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
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != s.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal(b"true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal(b"false").map(|()| Json::Bool(false)),
            Some(b'n') => self.literal(b"null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &[u8]) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.i;
            while matches!(p.b.get(p.i), Some(b'0'..=b'9')) {
                p.i += 1;
            }
            p.i > s
        };
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            if !digits(self) {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("digits are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("unparsable number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(&c @ (b'"' | b'\\' | b'/')) => {
                            out.push(c as char);
                            self.i += 1;
                        }
                        Some(b'b') => {
                            out.push('\u{8}');
                            self.i += 1;
                        }
                        Some(b'f') => {
                            out.push('\u{c}');
                            self.i += 1;
                        }
                        Some(b'n') => {
                            out.push('\n');
                            self.i += 1;
                        }
                        Some(b'r') => {
                            out.push('\r');
                            self.i += 1;
                        }
                        Some(b't') => {
                            out.push('\t');
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let d = match self.b.get(self.i) {
                                    Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                                    Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                                    Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                                    _ => return Err(self.err("bad \\u escape")),
                                };
                                code = code * 16 + d;
                                self.i += 1;
                            }
                            // Lone surrogates degrade to the replacement
                            // character — no writer in this workspace
                            // emits \u escapes.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(_) => {
                    // Copy the full UTF-8 sequence starting here.
                    let s = self.i;
                    self.i += 1;
                    while self.i < self.b.len() && self.b[self.i] & 0xC0 == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[s..self.i])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.i += 1; // '{'
        self.ws();
        let mut members = Vec::new();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.ws();
            if self.b.get(self.i) != Some(&b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.ws();
            if self.b.get(self.i) != Some(&b':') {
                return Err(self.err("expected ':'"));
            }
            self.i += 1;
            let val = self.value()?;
            members.push((key, val));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.i += 1; // '['
        self.ws();
        let mut items = Vec::new();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
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
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} must be rejected");
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
