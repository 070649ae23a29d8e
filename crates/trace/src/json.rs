//! The workspace's one RFC 8259 JSON reader, dependency-free.
//!
//! It sits in the bottom-level crate so everything above can reach it: the
//! tracer's and the metrics registry's tests and the `json_check` CLI use
//! [`parse`] to check that exported reports, traces and series are
//! well-formed; the `serve` bin reads NDJSON frames with it
//! (`ripples_bench::json` re-exports this module). It is deliberately
//! small: full RFC 8259 grammar, numbers surfaced as `f64`, object keys kept
//! in file order. Errors carry byte offsets and no recovery. Its inputs
//! include frames from `serve` clients, so nothing in a document may crash
//! the reader: nesting deeper than 128 arrays or objects is an error, not a
//! stack overflow.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (read as `f64`; all harness numbers fit).
    Num(f64),
    /// A string with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keys in file order (our files never repeat keys).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object, if this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: `self[key]` as f64.
    #[must_use]
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Value::as_f64)
    }

    /// Convenience: `self[key]` as &str.
    #[must_use]
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }
}

/// The deepest array/object nesting [`parse`] accepts. The reader recurses
/// once per level; the deepest document the workspace writes, a run report,
/// nests 8 deep.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (one value plus trailing whitespace).
///
/// # Errors
///
/// Returns a message with the byte offset of the first violation, including
/// the first bracket that nests deeper than 128 levels.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let nested = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
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
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(format!("lone surrogate at byte {}", self.pos));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(format!("lone surrogate at byte {}", self.pos));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or(format!("bad codepoint at byte {}", self.pos))?,
                            );
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos));
                }
                Some(_) => {
                    // Copy the whole UTF-8 code point (input is a &str, so
                    // the bytes are valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| (b & 0xC0) == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .filter(|s| s.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(digits.iter().fold(0, |code, &b| {
            code * 16 + char::from(b).to_digit(16).expect("checked hex digit")
        }))
    }

    /// Skips a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // RFC 8259 is stricter than `f64::from_str`: the integer part is
        // `0` or starts with 1–9, and a fraction or exponent, once opened,
        // needs a digit.
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let mut ok = int_digits == 1 || (int_digits > 1 && !leading_zero);
        if self.peek() == Some(b'.') {
            self.pos += 1;
            ok &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok &= self.digits() > 0;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .ok()
            .filter(|_| ok)
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5, 1e3], "b": {"c": "x\n\"y\""}, "d": null, "e": true}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2],
            Value::Num(1000.0)
        );
        assert_eq!(v.get("b").unwrap().str("c"), Some("x\n\"y\""));
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert_eq!(v.get("e"), Some(&Value::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn decodes_unicode_escapes() {
        let v = parse(r#""café 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("café 😀"));
        let v = parse(r#""caf\u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("café 😀"));
    }

    #[test]
    fn accepts_valid_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "0",
            "-0.5e+3",
            "\"a\\n\\u00e9\"",
            r#"{"a":[1,2,{"b":null}],"c":"x","d":1.25e-2}"#,
            " { \"k\" : [ 1 , 2 ] } ",
        ] {
            parse(ok).unwrap_or_else(|e| panic!("rejected {ok}: {e}"));
        }
    }

    #[test]
    fn rejects_invalid_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a':1}",
            "01",
            "-",
            "-01",
            "1.",
            ".5",
            "1e",
            "1e+",
            "\"\\x\"",
            "\"unterminated",
            "{} extra",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        // A high surrogate must be followed by a low one; four hex digits
        // means digits, not a sign.
        assert!(parse(r#""\ud800""#).is_err());
        assert!(parse(r#""\ud800\u0041""#).is_err());
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u00""#).is_err());
    }

    #[test]
    fn rejects_nesting_past_the_bound() {
        let deep = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        // Without the bound this recursed once per bracket and overflowed
        // the stack, aborting the process.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn roundtrips_a_real_snapshot_shape() {
        let doc = r#"{
  "schema": "ripples-perf-snapshot-v4",
  "host": {"threads": 4},
  "records": [
    {"graph": "er-sparse", "engine": "mt", "wall_s": 0.291616}
  ]
}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.str("schema"), Some("ripples-perf-snapshot-v4"));
        let rec = &v.get("records").unwrap().as_array().unwrap()[0];
        assert_eq!(rec.num("wall_s"), Some(0.291616));
        assert_eq!(v.get("host").unwrap().num("threads"), Some(4.0));
    }
}
