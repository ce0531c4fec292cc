//! Property tests for the farm JSON codec: `parse(render(v)) == v` over
//! nested values, control characters, and non-BMP unicode — plus decoding
//! of the `\uXXXX`-escaped (UTF-16) form external producers send on the
//! wasmperf-serve wire protocol.

use proptest::prelude::*;
use std::fmt::Write as _;
use wasmperf_farm::Json;

/// Characters that exercise every escaping path: ASCII, the JSON escape
/// set, raw control characters, BMP unicode, and supplementary-plane
/// scalars (emoji, musical symbols).
fn arb_char() -> BoxedStrategy<char> {
    prop_oneof![
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        (0x00u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        Just('"'),
        Just('\\'),
        Just('/'),
        (0xa0u32..0xd800).prop_map(|c| char::from_u32(c).unwrap()),
        (0xe000u32..0x1_0000).prop_map(|c| char::from_u32(c).unwrap()),
        (0x1_0000u32..0x2_0000).prop_map(|c| char::from_u32(c).unwrap()),
        Just('😀'),
    ]
    .boxed()
}

fn arb_string() -> BoxedStrategy<String> {
    proptest::collection::vec(arb_char(), 0..12)
        .prop_map(|cs| cs.into_iter().collect())
        .boxed()
}

/// Numbers the codec promises to round-trip: exact integers up to 2^53
/// and finite floats (rendered via `{:?}`, the shortest form that parses
/// back exactly).
fn arb_num() -> BoxedStrategy<f64> {
    prop_oneof![
        (-9_007_199_254_740_992i64..9_007_199_254_740_992).prop_map(|n| n as f64),
        (-1_000_000i64..1_000_000).prop_map(|n| n as f64 / 1024.0),
        any::<i64>().prop_map(|bits| {
            let f = f64::from_bits(bits as u64);
            if f.is_finite() {
                f
            } else {
                0.5
            }
        }),
    ]
    .boxed()
}

fn arb_json() -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        arb_num().prop_map(Json::Num),
        arb_string().prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            proptest::collection::vec((arb_string(), inner), 0..4).prop_map(Json::Obj),
        ]
        .boxed()
    })
    .boxed()
}

/// The string with every character spelled as `\uXXXX` escapes —
/// supplementary-plane scalars as UTF-16 surrogate pairs. This is the
/// form serde-style producers may put on the wire.
fn escape_utf16(s: &str) -> String {
    let mut out = String::with_capacity(2 + 6 * s.len());
    out.push('"');
    for unit in s.encode_utf16() {
        let _ = write!(out, "\\u{unit:04x}");
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn render_parse_roundtrip(v in arb_json()) {
        let text = v.render();
        let parsed = Json::parse(&text);
        prop_assert!(parsed.is_ok(), "render produced unparseable `{text}`");
        prop_assert_eq!(parsed.unwrap(), v);
    }

    #[test]
    fn rendered_strings_are_single_line(v in arb_json()) {
        // The result store and access logs are JSONL: a rendered value
        // must never contain a raw newline (or any raw control char).
        let text = v.render();
        prop_assert!(!text.chars().any(|c| (c as u32) < 0x20), "{text}");
    }

    #[test]
    fn utf16_escaped_strings_decode_exactly(s in arb_string()) {
        // parse(\u-escaped s) == s, including surrogate pairs for every
        // non-BMP character — the satellite fix this test guards.
        let parsed = Json::parse(&escape_utf16(&s));
        prop_assert!(parsed.is_ok());
        prop_assert_eq!(parsed.unwrap(), Json::Str(s));
    }

    #[test]
    fn reparse_is_idempotent(v in arb_json()) {
        // render(parse(render(v))) == render(v): the wire form is a
        // fixed point, which is what byte-identity checks lean on.
        let once = v.render();
        let twice = Json::parse(&once).unwrap().render();
        prop_assert_eq!(once, twice);
    }
}

#[test]
fn emoji_roundtrip_both_forms() {
    // The concrete case from the issue: 😀 used to decode to two U+FFFD.
    let v = Json::Str("😀".into());
    assert_eq!(Json::parse(&v.render()).unwrap(), v);
    assert_eq!(Json::parse("\"\\ud83d\\ude00\"").unwrap(), v);
}

/// `depth` nested arrays (`obj`: objects) around a number, closed or
/// (`closed == false`) left open.
fn bracket_run(depth: usize, obj: bool, closed: bool) -> String {
    let (open, close) = if obj { ("{\"k\":", "}") } else { ("[", "]") };
    let mut text = open.repeat(depth) + "0";
    if closed {
        text += &close.repeat(depth);
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn parse_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Either Ok or Err — panics and stack overflows are bugs.
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn bracket_runs_parse_iff_within_the_depth_cap(
        depth in 0usize..4096,
        obj in any::<bool>(),
        closed in any::<bool>(),
    ) {
        let parsed = Json::parse(&bracket_run(depth, obj, closed));
        let max = wasmperf_farm::json::MAX_DEPTH;
        prop_assert_eq!(parsed.is_ok(), closed && depth <= max);
        if depth > max {
            prop_assert!(parsed.unwrap_err().contains("nesting"));
        }
    }
}
