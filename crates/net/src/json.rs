//! A minimal JSON value, parser, and writer — enough for the wire protocol,
//! nothing more. No dependencies; strict on structure (trailing garbage,
//! unterminated strings, bad escapes are errors), forgiving on whitespace.
//!
//! Numbers are kept as `f64` (the wire protocol's integers — item ids, rule
//! ids, versions — fit exactly below 2^53, far beyond anything a catalog
//! feed carries).

use std::fmt::{self, Write as _};

/// Hard cap on parser recursion (arrays/objects nested deeper than this are
/// rejected rather than risking a stack overflow on hostile input).
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key-value pairs in document order (duplicate keys: first wins on
    /// lookup).
    Obj(Vec<(String, Json)>),
}

/// Where and why a JSON parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
        let mut p = Parser { input, pos: 0, validated: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.input.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(value)
    }

    /// Member lookup on an object (`None` on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes the value to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.len_hint());
        self.render_into(&mut out);
        out
    }

    /// The rendered length if no string needs an escape and every number
    /// fits in 24 bytes: a pre-sizing hint, not a bound.
    fn len_hint(&self) -> usize {
        match self {
            Json::Null | Json::Bool(_) => 5,
            Json::Num(_) => 24,
            Json::Str(s) => s.len() + 2,
            Json::Arr(items) => 1 + items.iter().map(|v| v.len_hint() + 1).sum::<usize>(),
            Json::Obj(members) => {
                1 + members.iter().map(|(k, v)| k.len() + 4 + v.len_hint()).sum::<usize>()
            }
        }
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Writing into a `String` cannot fail.
            Json::Num(n) => {
                let _ = if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                    write!(out, "{}", *n as i64)
                } else {
                    write!(out, "{n}")
                };
            }
            Json::Str(s) => escape_string_into(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_string_into(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// Builds an object from `(key, value)` pairs (the handlers' one-liner;
/// an array of pairs builds it with one allocation for the members).
pub fn obj<'k>(members: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Appends `s` as a JSON string literal, copying each run of characters
/// that need no escape with one `push_str`. Every escaped character is
/// ASCII, so the run boundaries are character boundaries.
fn escape_string_into(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            b if b < 0x20 => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Bytes handed to UTF-8 validation so far (the linear-work tests read
    /// it).
    validated: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { at: self.pos, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.input.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &[u8], value: Json) -> Result<Json, JsonError> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = self.utf8(start, self.pos).map_err(|_| self.err("invalid number bytes"))?;
        let n: f64 = text.parse().map_err(|_| self.err(format!("invalid number {text:?}")))?;
        if !n.is_finite() {
            return Err(self.err("non-finite number"));
        }
        Ok(Json::Num(n))
    }

    /// Validates `input[start..end]` as UTF-8, counting the bytes handed
    /// over: every byte of a document is validated at most once.
    fn utf8(&mut self, start: usize, end: usize) -> Result<&'a str, std::str::Utf8Error> {
        self.validated += end - start;
        std::str::from_utf8(&self.input[start..end])
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // A run of plain bytes (all but '"', '\\' and control bytes) is
            // validated and copied whole. Continuation bytes are never
            // stoppers, so a run never splits a valid scalar.
            let start = self.pos;
            let rest = &self.input[start..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            let end = start + run.unwrap_or(rest.len());
            if end > start {
                match self.utf8(start, end) {
                    Ok(s) => out.push_str(s),
                    Err(e) => {
                        self.pos = start + e.valid_up_to();
                        return Err(self.err("invalid utf-8 in string"));
                    }
                }
                self.pos = end;
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue; // unicode_escape consumed its bytes
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character")),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        // self.pos is at the 'u'.
        self.pos += 1;
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: require the low half.
            if self.input[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("lone high surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.input.len() < self.pos + 4 {
            return Err(self.err("truncated \\u escape"));
        }
        // Exactly four hex digits: no sign, no space (`from_str_radix`
        // would take a leading `+`).
        let mut v = 0;
        for &b in &self.input[self.pos..self.pos + 4] {
            let digit = (b as char).to_digit(16).ok_or_else(|| self.err("invalid \\u escape"))?;
            v = v * 16 + digit;
        }
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = br#"{"id": 7, "title": "area rug 5'x7'", "attrs": {"Brand": "Mainstays"}, "tags": ["a", "b"], "price": 19.99, "ok": true, "gone": null}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("title").and_then(Json::as_str), Some("area rug 5'x7'"));
        assert_eq!(
            v.get("attrs").and_then(|a| a.get("Brand")).and_then(Json::as_str),
            Some("Mainstays")
        );
        assert_eq!(v.get("tags").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(v.get("price").and_then(Json::as_f64), Some(19.99));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("gone"), Some(&Json::Null));
    }

    #[test]
    fn round_trips_escapes_and_unicode() {
        let original = Json::Obj(vec![(
            "s".to_string(),
            Json::Str("quote \" slash \\ newline \n tab \t é 日本 \u{1}".to_string()),
        )]);
        let text = original.render();
        assert_eq!(Json::parse(text.as_bytes()).unwrap(), original);
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        let v = Json::parse("\"é 😀\"".as_bytes()).unwrap();
        assert_eq!(v.as_str(), Some("é 😀"));
        assert!(Json::parse(br#""\ud83d""#).is_err(), "lone surrogate rejected");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            &b"{"[..],
            b"[1,",
            b"\"unterminated",
            b"{\"a\": }",
            b"nulla",
            b"1 2",
            b"{\"a\":1,}",
            b"[01e]",
            b"\"\x01\"",
            b"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {:?}", String::from_utf8_lossy(bad));
        }
    }

    /// A `\u` escape is exactly four hex digits: `u32::from_str_radix`
    /// alone took a leading `+`, so `"\u+041"` decoded as `"A"`.
    #[test]
    fn unicode_escape_takes_only_four_hex_digits() {
        for bad in [r#""\u+041""#, r#""\u+04""#, r#""\u 041""#, r#""\u-041""#] {
            let err = Json::parse(bad.as_bytes()).expect_err(bad);
            assert_eq!((err.at, err.message.as_str()), (3, "invalid \\u escape"), "{bad}");
        }
        assert_eq!(Json::parse(br#""\u0041\u00e9""#).unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn rejects_pathological_nesting() {
        let mut doc = Vec::new();
        doc.extend(std::iter::repeat_n(b'[', 2000));
        doc.extend(std::iter::repeat_n(b']', 2000));
        assert!(Json::parse(&doc).is_err());
    }

    /// Parses `doc` as one string value and returns the bytes handed to
    /// UTF-8 validation.
    fn validated_bytes(doc: &[u8]) -> usize {
        let mut p = Parser { input: doc, pos: 0, validated: 0 };
        p.string().expect("a valid string");
        assert_eq!(p.pos, doc.len());
        p.validated
    }

    /// Work in bytes validated, not time: at most each input byte once.
    /// The per-character scan this replaced validated the whole rest of the
    /// input for every character (~n²/2 bytes, some 5·10¹¹ on 1 MiB).
    #[test]
    fn utf8_validation_is_linear_in_the_input() {
        const MIB: usize = 1 << 20;
        let ascii = format!("\"{}\"", "a".repeat(MIB));
        assert_eq!(validated_bytes(ascii.as_bytes()), MIB);
        let wide = format!("\"{}\"", "é日😀".repeat(MIB / 9));
        let escapes = format!("\"{}\"", r#"a\"\\\n\u00e9\ud83d\ude00/"#.repeat(MIB / 26));
        for doc in [wide, escapes] {
            let n = validated_bytes(doc.as_bytes());
            assert!(n <= doc.len(), "validated {n} bytes of a {}-byte document", doc.len());
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(3.5).render(), "3.5");
    }
}
