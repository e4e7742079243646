//! Seeded differential for the JSON decoder: `Json::parse` against the
//! per-scalar parser it replaced, kept below verbatim as the oracle.
//!
//! The oracle validated the whole rest of the input for every character of
//! a string; the parser under test validates each run of plain bytes once.
//! Both must accept the same documents with the same value and reject the
//! same documents with the same `JsonError { at, message }`, and
//! `product_from_json` must agree on every accepted document. Documents
//! are product-shaped objects built from a fragment palette: plain ASCII,
//! 2-, 3- and 4-byte UTF-8, every escape, surrogate pairs and lone
//! surrogates, raw control bytes, invalid and truncated UTF-8, unterminated
//! strings, the `Title` / `Item ID` aliases and first-wins duplicate keys;
//! some are then cut short or have a random byte spliced in.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rulekit_net::json::JsonError;
use rulekit_net::wire::product_from_json;
use rulekit_net::Json;

const MAX_DEPTH: usize = 64;

/// The oracle's `Json::parse`.
fn oracle_parse(input: &[u8]) -> Result<Json, JsonError> {
    let mut p = Oracle { input, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(value)
}

// ---- the oracle: the parser as it was before the run-at-a-time scan ----

struct Oracle<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Oracle<'a> {
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
        let text = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        let n: f64 = text.parse().map_err(|_| self.err(format!("invalid number {text:?}")))?;
        if !n.is_finite() {
            return Err(self.err("non-finite number"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
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
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences whole).
                    let rest = &self.input[self.pos..];
                    let s = match std::str::from_utf8(rest) {
                        Ok(s) => s,
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&rest[..e.valid_up_to()]).unwrap()
                        }
                        Err(_) => return Err(self.err("invalid utf-8 in string")),
                    };
                    let c = s.chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
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
        let bytes = self
            .input
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(bytes).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
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

// ---- document generator ----

/// String contents that keep a document valid.
const CLEAN: &[&str] = &[
    "gold ring",
    "a",
    " ",
    "5'x7' ",
    "Mainstays",
    "é",
    "ß",
    "Ω",
    "日本",
    "€",
    "\u{fffd}",
    "😀",
    "𝄞",
    "\u{7f}",
    r#"\""#,
    r"\\",
    r"\/",
    r"\b",
    r"\f",
    r"\n",
    r"\r",
    r"\t",
    r"\u0041",
    r"\u00e9",
    r"\u65e5",
    r"\u0000",
    r"\u001f",
    r"\ud83d\ude00",
    r"\ud834\udd1e",
];

/// Byte sequences that make a string invalid, each in its own way.
const BROKEN: &[&[u8]] = &[
    br"\ud83d",
    br"\ud83d x",
    br"\ude00",
    br"\ud83dA",
    br"\ud83d\n",
    br"\x",
    br"\u12",
    br"\uZZZZ",
    br"\u00e",
    b"\\",
    b"\x01",
    b"\x1f",
    b"\n",
    b"\t",
    b"\x00",
    b"\xff",
    b"\xc0\x80",
    b"\x80",
    b"\xed\xa0\x80",
    b"\xf4\x90\x80\x80",
    b"\xe6\x97",
    b"\xf0\x9f\x98",
    b"\xc3",
];

/// Member keys: the product fields, their Figure 1 aliases, and others.
const KEYS: &[&str] =
    &["title", "Title", "id", "Item ID", "description", "Description", "vendor", "attributes", "x"];

struct Gen {
    rng: StdRng,
    /// Chance that one string fragment is drawn from [`BROKEN`].
    broken: f64,
}

impl Gen {
    fn string(&mut self, out: &mut Vec<u8>) {
        out.push(b'"');
        for _ in 0..self.rng.gen_range(0..6usize) {
            if self.rng.gen_bool(self.broken) {
                out.extend_from_slice(BROKEN.choose(&mut self.rng).unwrap());
            } else {
                out.extend_from_slice(CLEAN.choose(&mut self.rng).unwrap().as_bytes());
            }
        }
        if !self.rng.gen_bool(self.broken / 4.0) {
            out.push(b'"');
        }
    }

    fn number(&mut self, out: &mut Vec<u8>) {
        let n = match self.rng.gen_range(0..8u32) {
            0 => "-3".to_string(),
            1 => "1.5".to_string(),
            2 => "2e3".to_string(),
            3 => "1e999".to_string(),
            4 => "4294967296".to_string(),
            _ => self.rng.gen_range(0..2_000_000u64).to_string(),
        };
        out.extend_from_slice(n.as_bytes());
    }

    fn value(&mut self, out: &mut Vec<u8>, depth: usize) {
        match self.rng.gen_range(0..10u32) {
            0..=3 => self.string(out),
            4 | 5 => self.number(out),
            6 => out.extend_from_slice(
                [&b"true"[..], b"false", b"null"].choose(&mut self.rng).unwrap(),
            ),
            7 if depth < 3 => {
                out.push(b'[');
                for i in 0..self.rng.gen_range(0..4usize) {
                    if i > 0 {
                        out.push(b',');
                    }
                    self.value(out, depth + 1);
                }
                out.push(b']');
            }
            8 | 9 if depth < 3 => self.object(out, depth + 1, false),
            _ => self.string(out),
        }
    }

    /// An object; a product draws most of its members from [`KEYS`] with
    /// the values a product decode reads.
    fn object(&mut self, out: &mut Vec<u8>, depth: usize, product: bool) {
        out.push(b'{');
        for i in 0..self.rng.gen_range(0..7usize) {
            if i > 0 {
                out.push(b',');
            }
            if self.rng.gen_bool(0.2) {
                out.push(b' ');
            }
            let key = *KEYS.choose(&mut self.rng).unwrap();
            if product && self.rng.gen_bool(0.8) {
                out.extend_from_slice(format!("\"{key}\":").as_bytes());
                match key {
                    "id" | "Item ID" | "vendor" if self.rng.gen_bool(0.8) => self.number(out),
                    "attributes" if self.rng.gen_bool(0.8) => self.object(out, depth + 1, false),
                    _ => self.string(out),
                }
            } else {
                self.string(out);
                out.push(b':');
                self.value(out, depth);
            }
        }
        out.push(b'}');
    }

    fn document(&mut self) -> Vec<u8> {
        let mut doc = Vec::new();
        if self.rng.gen_bool(0.1) {
            self.value(&mut doc, 0);
        } else {
            self.object(&mut doc, 0, true);
        }
        match self.rng.gen_range(0..10u32) {
            0 => {
                let cut = self.rng.gen_range(0..doc.len());
                doc.truncate(cut);
            }
            1 => {
                let at = self.rng.gen_range(0..=doc.len());
                let byte = self.rng.gen_range(0..=255u32) as u8;
                doc.insert(at, byte);
            }
            _ => {}
        }
        doc
    }
}

#[test]
fn parse_agrees_with_the_per_scalar_oracle() {
    let (mut accepted, mut products, mut rejected) = (0, 0, 0);
    for seed in [1u64, 47, 48, 49] {
        for broken in [0.0, 0.02, 0.1] {
            let mut gen = Gen { rng: StdRng::seed_from_u64(seed), broken };
            for _ in 0..1500 {
                let doc = gen.document();
                let got = Json::parse(&doc);
                let want = oracle_parse(&doc);
                assert_eq!(got, want, "seed {seed}: {:?}", String::from_utf8_lossy(&doc));
                let Ok(value) = got else {
                    rejected += 1;
                    continue;
                };
                accepted += 1;
                let product = product_from_json(&value);
                products += usize::from(product.is_ok());
                assert_eq!(product, product_from_json(&want.unwrap()));
            }
        }
    }
    // Both sides of the differential are exercised, decodes included.
    assert!(accepted > 3000 && rejected > 3000, "{accepted} accepted, {rejected} rejected");
    assert!(products > 1000, "{products} products decoded");
}

#[test]
fn every_broken_fragment_fails_where_the_oracle_fails() {
    for fragment in BROKEN {
        for tail in [&b"\""[..], b"", b"\"\"", b"a\""] {
            let doc = [&b"{\"title\":\"x"[..], fragment, tail, b"}"].concat();
            assert_eq!(Json::parse(&doc), oracle_parse(&doc), "{doc:?}");
            let doc = [&b"\"x"[..], fragment, tail].concat();
            assert_eq!(Json::parse(&doc), oracle_parse(&doc), "{doc:?}");
        }
    }
}
