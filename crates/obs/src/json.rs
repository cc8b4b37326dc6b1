//! A minimal, dependency-free JSON value type with a recursive-descent
//! parser and a writer — just enough for the serve protocol and the
//! trace recorder's JSONL events, hermetic by construction (the
//! workspace vendors no serde). `dctopo-serve` re-exports this module
//! as `dctopo_serve::json`, its historical home.
//!
//! ## Number fidelity
//!
//! Numbers serialize through Rust's `f64` `Display`, which emits the
//! shortest decimal string that round-trips to the same bits — so a
//! throughput value survives a write/parse cycle **bitwise**, which is
//! what lets the CLI test suite compare serve responses against
//! in-process engine results with `to_bits()` equality. Non-finite
//! values serialize as `null`.

use std::fmt;

/// Maximum nesting depth the parser accepts. The protocol needs 3;
/// the cap turns pathological inputs into a typed error instead of a
/// stack overflow (a server must survive hostile stdin).
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the serialization of non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always finite when produced by the parser).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: key/value pairs in insertion order (duplicate keys
    /// keep the last value on lookup, like most JSON readers).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document from `text`, requiring it to span the
    /// whole input (trailing non-whitespace is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (last duplicate wins); `None` for missing
    /// keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer number
    /// representable exactly in an `f64` (i.e. up to 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(x) if (0.0..=9.007_199_254_740_992e15).contains(&x) && x.fract() == 0.0 => {
                Some(x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Field names of an object (insertion order), empty otherwise.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// A number, mapping non-finite values to [`Json::Null`].
    pub fn num(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x)
        } else {
            Json::Null
        }
    }
}

// Conversions for ergonomic event building. Counters go through `f64`
// (exact up to 2^53 — far beyond any settle or bucket count the
// solvers produce); non-finite floats become `null` like everywhere
// else in the writer.
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::num(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::num(x as f64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::num(x as f64)
    }
}

impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::num(f64::from(x))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
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

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // shortest-roundtrip decimal: bitwise through a cycle
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte '{}' at {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        let x: f64 = text
            .parse()
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))?;
        if !x.is_finite() {
            return Err(format!("non-finite number '{text}' at byte {start}"));
        }
        Ok(Json::Num(x))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // surrogate pair (we reject lone surrogates)
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(cp).ok_or("lone surrogate")?
                            };
                            out.push(c);
                        }
                        b => return Err(format!("invalid escape '\\{}'", b as char)),
                    }
                }
                Some(b) if b < 0x20 => return Err("raw control byte in string".into()),
                Some(_) => {
                    // consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid)
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().ok_or("invalid utf-8")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or("unterminated \\u escape")?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| format!("invalid hex digit at byte {}", self.pos))?;
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let src = r#"{"op":"query","id":7,"degrade":[{"kind":"fail-links","count":3,"seed":5}],"drift":{"spread":0.1,"seed":42},"warm":true,"note":"a\"b\\c\nd"}"#;
        let v = Json::parse(src).unwrap();
        let twice = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, twice);
        assert_eq!(v.get("op").unwrap().as_str(), Some("query"));
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(
            v.get("drift").unwrap().get("spread").unwrap().as_f64(),
            Some(0.1)
        );
    }

    #[test]
    fn floats_round_trip_bitwise() {
        for x in [
            0.7431294118225724_f64,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            -0.0,
            4221.0,
        ] {
            let s = Json::Num(x).to_string();
            let back = Json::parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x} -> {s} -> {back}");
        }
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::num(f64::INFINITY), Json::Null);
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "nul",
            "1 2",
            "\"\\q\"",
            "\"unterminated",
            "{\"a\" 1}",
            "@",
            "Infinity",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // nesting bomb → typed error, not a stack overflow
        let bomb = "[".repeat(100_000);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(2.0));
    }
}
