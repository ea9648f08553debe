//! The workspace's one JSON reader and its string and number writers.
//!
//! [`json_string`] (or [`write_json_string`] into a writer) and
//! [`json_number`] encode every hand-written
//! JSON/JSONL document in the workspace: the tracer, history and alerts
//! here, the engine's row sinks and journals, and the serve API.
//! [`Json::parse`] reads them back: request bodies, fleet claims,
//! history replay, trace uploads and benchmark baselines.
//!
//! The workspace builds with no external crates, so the parser is a
//! hand-rolled recursive descent. It covers the full JSON grammar
//! (objects, arrays, strings with escapes, numbers, booleans, null)
//! with two deliberate restrictions that keep it safe to expose to a
//! socket:
//!
//! - input depth is capped ([`MAX_DEPTH`]) so a hostile body of nested
//!   `[[[[…]]]]` cannot overflow the stack;
//! - every number becomes an `f64` (the only numeric type the sweep
//!   schema needs); integers beyond 2⁵³ would lose precision, which the
//!   schema's validators reject anyway.
//!
//! Object keys keep their order of appearance; duplicate keys keep the
//! last value, like every mainstream parser. Readers that must not build
//! a tree (the engine's journal reader) decode their string literals
//! with [`parse_json_string`], the parser's own string decoder.

use std::fmt;
use std::io;

/// How deep nested arrays/objects may go before the parser refuses.
pub(crate) const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON does not distinguish integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in key order of appearance.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up a key of an object (`None` for other kinds or a missing
    /// key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with an
    /// exact `u64` representation.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
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

    /// The elements to iterate for an axis that may be written as a
    /// scalar or an array (`"tau": 0.4` and `"tau": [0.4, 0.45]` both
    /// work).
    pub fn as_list(&self) -> Vec<&Json> {
        match self {
            Json::Arr(xs) => xs.iter().collect(),
            other => vec![other],
        }
    }
}

impl fmt::Display for Json {
    /// Renders compact JSON (no whitespace), with the same
    /// shortest-round-trip float formatting the engine's sinks use.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => f.write_str(&json_number(*x)),
            Json::Str(s) => f.write_str(&json_string(s)),
            Json::Arr(xs) => {
                f.write_str("[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", json_string(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
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
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected {lit:?} at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => Ok(Json::Arr(self.members(b']', |p| p.value(depth + 1))?)),
            Some(b'{') => Ok(Json::Obj(self.members(b'}', |p| {
                let key = p.string()?;
                p.skip_ws();
                p.eat(b':')?;
                p.skip_ws();
                Ok((key, p.value(depth + 1)?))
            })?)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!(
                "unexpected byte {:?} at offset {}",
                c as char, self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    /// The comma-separated members of the array or object opening at
    /// the cursor, up to its `close` bracket, each read by `member`.
    fn members<T>(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(member(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => {
                    let want = close as char;
                    return Err(format!("expected ',' or {want:?} at offset {}", self.pos));
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        let rest = &self.text[self.pos..];
        let (value, tail) = parse_json_string(rest)?;
        self.pos += rest.len() - tail.len();
        Ok(value)
    }
}

/// Decodes the JSON string literal at the start of `text`, returning
/// its value and the text after the closing quote.
///
/// # Errors
///
/// A message when `text` does not start with a well-formed literal: no
/// opening quote, no closing quote, a raw control byte, or a bad or
/// unpaired escape.
pub fn parse_json_string(text: &str) -> Result<(String, &str), String> {
    let bytes = text.as_bytes();
    if bytes.first() != Some(&b'"') {
        return Err("expected a string".into());
    }
    let mut pos = 1;
    let mut out = String::new();
    // collect chars, decoding escapes; surrogate pairs are combined
    let mut pending_surrogate: Option<u16> = None;
    loop {
        let c = *bytes.get(pos).ok_or("unterminated string")?;
        match c {
            b'"' => {
                if pending_surrogate.is_some() {
                    return Err("unpaired surrogate escape".into());
                }
                return Ok((out, &text[pos + 1..]));
            }
            b'\\' => {
                pos += 1;
                let e = *bytes.get(pos).ok_or("unterminated escape")?;
                pos += 1;
                let simple = match e {
                    b'"' => Some('"'),
                    b'\\' => Some('\\'),
                    b'/' => Some('/'),
                    b'b' => Some('\u{8}'),
                    b'f' => Some('\u{c}'),
                    b'n' => Some('\n'),
                    b'r' => Some('\r'),
                    b't' => Some('\t'),
                    b'u' => None,
                    other => {
                        return Err(format!("bad escape \\{}", other as char));
                    }
                };
                match simple {
                    Some(c) => {
                        if pending_surrogate.is_some() {
                            return Err("unpaired surrogate escape".into());
                        }
                        out.push(c);
                    }
                    None => {
                        let hex = bytes.get(pos..pos + 4).ok_or("truncated \\u escape")?;
                        // exactly four hex digits: `u16::from_str_radix`
                        // would also take a leading `+`
                        let unit = hex
                            .iter()
                            .try_fold(0u16, |u, &b| {
                                Some(u << 4 | (b as char).to_digit(16)? as u16)
                            })
                            .ok_or_else(|| {
                                format!("bad \\u escape {:?}", String::from_utf8_lossy(hex))
                            })?;
                        pos += 4;
                        match (pending_surrogate.take(), unit) {
                            (None, 0xD800..=0xDBFF) => pending_surrogate = Some(unit),
                            (None, 0xDC00..=0xDFFF) => return Err("unpaired low surrogate".into()),
                            (None, _) => out.push(char::from_u32(unit as u32).expect("BMP scalar")),
                            (Some(hi), 0xDC00..=0xDFFF) => {
                                let c =
                                    0x10000 + ((hi as u32 - 0xD800) << 10) + (unit as u32 - 0xDC00);
                                out.push(char::from_u32(c).ok_or("bad surrogate pair")?);
                            }
                            (Some(_), _) => return Err("unpaired surrogate escape".into()),
                        }
                    }
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte {c:#x} in string")),
            _ => {
                if pending_surrogate.is_some() {
                    return Err("unpaired surrogate escape".into());
                }
                // copy the run up to the next quote, backslash or control
                // byte verbatim: those are all ASCII, so the run ends on a
                // char boundary of the (valid) text
                let run = bytes[pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .map_or(text.len(), |i| pos + i);
                out.push_str(&text[pos..run]);
                pos = run;
            }
        }
    }
}

/// Quotes and escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len() + 2);
    write_json_string(&mut out, s).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("escaping keeps UTF-8")
}

/// Writes `s` to `out` as a JSON string literal, [`json_string`]'s
/// bytes: `"` and `\` are backslash-escaped, control characters below
/// 0x20 take their short or `\u00XX` form, and every other run of
/// bytes is copied through whole.
///
/// # Errors
///
/// Any error from `out`.
pub fn write_json_string<W: io::Write + ?Sized>(out: &mut W, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    out.write_all(b"\"")?;
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            b if b < 0x20 => {
                out.write_all(&bytes[start..i])?;
                write!(out, "\\u{b:04x}")?;
                start = i + 1;
                continue;
            }
            _ => continue,
        };
        out.write_all(&bytes[start..i])?;
        out.write_all(escape)?;
        start = i + 1;
    }
    out.write_all(&bytes[start..])?;
    out.write_all(b"\"")
}

/// Formats a float as a JSON number: the shortest round-trip decimal,
/// with `.0` on integral values (`3` renders as `3.0`, like the engine's
/// CSV cells); non-finite values render as `null`, since JSON has no
/// Inf/NaN.
pub fn json_number(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_sweep_request_shape() {
        let v = Json::parse(
            r#"{"side": [32, 64], "tau": 0.4, "variant": ["paper", "noise:0.01"],
                "replicas": 3, "nested": {"a": [true, false, null]}}"#,
        )
        .unwrap();
        assert_eq!(v.get("tau").unwrap().as_f64(), Some(0.4));
        assert_eq!(v.get("replicas").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("side").unwrap().as_list().len(), 2);
        assert_eq!(v.get("tau").unwrap().as_list().len(), 1);
        assert_eq!(
            v.get("variant").unwrap().as_list()[1].as_str(),
            Some("noise:0.01")
        );
        assert_eq!(
            v.get("nested").unwrap().get("a").unwrap().as_list().len(),
            3
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""a\"b\\c\n\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA😀"));
        let rendered = Json::Str("x\"\n\u{1}".into()).to_string();
        assert_eq!(rendered, r#""x\"\n\u0001""#);
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some("x\"\n\u{1}"));
    }

    #[test]
    fn string_writer_escapes_quote_backslash_and_controls_only() {
        // the escaping rule, char by char: quote and backslash take a
        // backslash, \n \r \t their short form, other controls \u00XX,
        // everything else (multi-byte UTF-8 included) passes through
        let reference = |s: &str| {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        };
        let every_ascii: String = (0u8..0x80).map(char::from).collect();
        for s in [
            "",
            "plain_name",
            "noise(0.01)",
            "a\"b\\c\nd",
            "é\u{1}😀\u{1f}",
            &every_ascii,
        ] {
            let mut buf = Vec::new();
            write_json_string(&mut buf, s).unwrap();
            assert_eq!(String::from_utf8(buf).unwrap(), reference(s), "{s:?}");
            assert_eq!(json_string(s), reference(s), "{s:?}");
            assert_eq!(Json::parse(&json_string(s)).unwrap().as_str(), Some(s));
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\": 1,}",
            "\"\\ud800\"",
            "01a",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(
            Json::parse(r#""\u004a\u004A""#).unwrap().as_str(),
            Some("JJ")
        );
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u04""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // one string field filling a default-sized (1 MiB) request body,
        // with multi-byte characters and escapes mixed in
        let unit = "abcdé😀\\n";
        let reps = ((1 << 20) - 16) / unit.len();
        let body = format!(r#"{{"name": "{}"}}"#, unit.repeat(reps));
        assert!(body.len() <= 1 << 20);
        let started = std::time::Instant::now();
        let v = Json::parse(&body).unwrap();
        let elapsed = started.elapsed();
        let name = v.get("name").unwrap().as_str().unwrap();
        assert_eq!(name.chars().count(), 7 * reps);
        assert!(name.starts_with("abcdé😀\n"));
        assert!(elapsed.as_secs() < 5, "1 MiB string took {elapsed:?}");
    }

    #[test]
    fn depth_limit_refuses_hostile_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn numbers_and_rendering() {
        assert_eq!(Json::parse("-2.5e3").unwrap().as_f64(), Some(-2500.0));
        assert_eq!(Json::parse("3").unwrap().to_string(), "3.0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::parse("2.5").unwrap().as_u64(), None);
        let obj = Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            ("b".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(obj.to_string(), r#"{"a":1.0,"b":[null,true]}"#);
        // duplicate keys: last wins
        let dup = Json::parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(dup.get("a").unwrap().as_f64(), Some(2.0));
    }
}
