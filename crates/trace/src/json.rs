//! A minimal JSON value, renderer, and parser for the result store.
//!
//! The build environment is offline (no serde), and the store only needs
//! flat records of numbers, strings, and small arrays — so this is a
//! deliberately small, total implementation: every value [`render`]ed by
//! this module parses back to an equal value. Numbers are `f64`; integral
//! values up to 2^53 (far above any simulator counter, which is bounded by
//! the 2×10^10 execution fuel) round-trip exactly and render without a
//! decimal point.
//!
//! [`render`]: Json::render

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for integer counters.
    pub fn u64(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders to compact JSON text (no whitespace, one line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    // {:?} prints the shortest representation that
                    // round-trips through f64 parsing.
                    let _ = write!(out, "{n:?}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text. Rejects trailing garbage and arrays/objects
    /// nested deeper than [`MAX_DEPTH`].
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }
}

/// JSON string escaping (mirrors `wasmperf_trace::export::json_escape`).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, and the serving paths parse untrusted request
/// bodies on threads with the default 2 MiB stack; without a cap one body
/// of a million `[` overflows that stack, which aborts the whole process.
/// Nothing this project writes nests deeper than a few levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one value whose enclosing arrays/objects number `depth`.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos).map(Json::Num),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hi = hex4(b, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: a following `\uXXXX` low
                            // surrogate completes the UTF-16 pair
                            // (RFC 8259 §7); anything else leaves the high
                            // half unpaired.
                            let lo = (b.get(*pos + 1) == Some(&b'\\')
                                && b.get(*pos + 2) == Some(&b'u'))
                            .then(|| hex4(b, *pos + 3).ok())
                            .flatten();
                            match lo {
                                Some(lo) if (0xDC00..0xE000).contains(&lo) => {
                                    let code = 0x10000
                                        + ((u32::from(hi) - 0xD800) << 10)
                                        + (u32::from(lo) - 0xDC00);
                                    out.push(
                                        char::from_u32(code).expect("supplementary-plane scalar"),
                                    );
                                    *pos += 6;
                                }
                                _ => out.push('\u{fffd}'),
                            }
                        } else if (0xDC00..0xE000).contains(&hi) {
                            // A low surrogate with no preceding high half.
                            out.push('\u{fffd}');
                        } else {
                            out.push(char::from_u32(u32::from(hi)).expect("BMP non-surrogate"));
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always well-formed).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Four hex digits starting at `b[at]`, as one UTF-16 code unit.
fn hex4(b: &[u8], at: usize) -> Result<u16, String> {
    let hex = b
        .get(at..at + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or("truncated \\u escape")?;
    u16::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let text = v.render();
        assert_eq!(&Json::parse(&text).expect(&text), v, "{text}");
    }

    #[test]
    fn scalar_roundtrips() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-17.0),
            Json::Num(0.25),
            Json::Num(1e300),
            Json::u64(20_000_000_000),
            Json::Str("plain".into()),
            Json::Str("quotes \" and \\ and \n tabs \t and unicode ünïcødé".into()),
            Json::Str("control \u{1} char".into()),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn nested_roundtrip() {
        let v = Json::Obj(vec![
            ("key".into(), Json::Str("0123abcd".into())),
            (
                "outputs".into(),
                Json::Arr(vec![Json::Arr(vec![
                    Json::Str("/out.264".into()),
                    Json::Str("deadbeef".into()),
                ])]),
            ),
            ("checksum".into(), Json::Num(-123456.0)),
            ("empty_obj".into(), Json::Obj(vec![])),
            ("empty_arr".into(), Json::Arr(vec![])),
        ]);
        roundtrip(&v);
        assert_eq!(v.get("key").and_then(Json::as_str), Some("0123abcd"));
        assert_eq!(v.get("checksum").and_then(Json::as_f64), Some(-123456.0));
        assert_eq!(v.get("checksum").and_then(Json::as_u64), None);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::u64(42).render(), "42");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::u64(20_000_000_000).render(), "20000000000");
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        // 😀 is U+1F600 = \ud83d\ude00 in UTF-16.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".into())
        );
        // Mixed with surrounding text and a second non-BMP scalar.
        assert_eq!(
            Json::parse("\"a\\ud83d\\ude00b\\ud834\\udd1ec\"").unwrap(),
            Json::Str("a😀b𝄞c".into())
        );
        // Raw UTF-8 (our own renderer's form) also round-trips.
        roundtrip(&Json::Str("emoji 😀 and clef 𝄞".into()));
    }

    #[test]
    fn lone_surrogates_become_replacement_chars() {
        // Unpaired high, unpaired low, high followed by a BMP escape.
        assert_eq!(
            Json::parse("\"\\ud83d\"").unwrap(),
            Json::Str("\u{fffd}".into())
        );
        assert_eq!(
            Json::parse("\"\\ude00\"").unwrap(),
            Json::Str("\u{fffd}".into())
        );
        assert_eq!(
            Json::parse("\"\\ud83dx\"").unwrap(),
            Json::Str("\u{fffd}x".into())
        );
        // The unconsumed BMP escape after a lone high half still decodes.
        assert_eq!(
            Json::parse("\"\\ud83d\\u0041\"").unwrap(),
            Json::Str("\u{fffd}A".into())
        );
        // Truncated or malformed second halves are still errors.
        assert!(Json::parse("\"\\ud83d\\u00\"").is_err());
        assert!(Json::parse("\"\\uzzzz\"").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // Uncapped, a body of a million `[` overflows a default-size
        // (2 MiB) thread stack, which aborts the process.
        let deep = "[".repeat(1_000_000);
        let res = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Json::parse(&deep))
            .unwrap()
            .join()
            .expect("parser thread survives");
        assert!(res.unwrap_err().contains("nesting"));
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn accepts_whitespace() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).map(|a| a.len()), Some(2));
    }
}
