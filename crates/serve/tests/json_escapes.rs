//! JSON strings as the in-tree `serde_json` writes and decodes them for
//! every decoder of this crate (query lines, HTTP bodies, the delta log):
//! any string survives `to_string` then `from_str`, every `char` written
//! as a `\u` escape, or as a surrogate pair, decodes back to itself, and
//! arbitrary escape text decodes to a value or a typed error, never a
//! panic.

use proptest::prelude::*;

/// Hex digits, the other bytes of an escape, and bytes that end one early.
const ESCAPE_BYTES: &[u8] = b"0123456789abcdefABCDEFdDxu\\\"+- ";

/// The `char` that `pick` names: with `bmp`, one of the Basic Multilingual
/// Plane (surrogates skipped), else any.
fn char_of(bmp: bool, pick: u32) -> char {
    let code = if bmp { pick % 0xF800 } else { pick };
    let code = if code >= 0xD800 { code + 0x800 } else { code };
    char::from_u32(code).expect("surrogates are skipped")
}

/// `c` written as `\u` escapes of its UTF-16 units: one inside the Basic
/// Multilingual Plane, a surrogate pair past it.
fn escaped(c: char, upper: bool) -> String {
    let mut units = [0u16; 2];
    c.encode_utf16(&mut units)
        .iter()
        .map(|u| match upper {
            true => format!("\\u{u:04X}"),
            false => format!("\\u{u:04x}"),
        })
        .collect()
}

/// The `char` that `(kind, pick)` names: printable ASCII, a control
/// character, a quote or backslash, a Basic Multilingual Plane `char`
/// past ASCII, or any `char`.
fn any_char((kind, pick): (u8, u32)) -> char {
    match kind {
        0 => char::from(b' ' + (pick % 95) as u8),
        1 => [char::from((pick % 0x20) as u8), '\u{7f}'][(pick % 2) as usize],
        2 => ['"', '\\'][(pick % 2) as usize],
        3 => char_of(true, 0x80 + pick % (0xF800 - 0x80)),
        _ => char_of(false, pick),
    }
}

/// Four hex digits (`mode` 0: a surrogate, high or low; 1: any unit) or,
/// for any other `mode`, up to five bytes an escape may hold.
fn unit_text(mode: u8, unit: u32, junk: &[usize]) -> String {
    match mode {
        0 => format!("{:04x}", 0xD800 + unit % 0x800),
        1 => format!("{unit:04x}"),
        _ => junk.iter().map(|&i| ESCAPE_BYTES[i] as char).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn any_string_survives_a_write_and_a_read(
        picks in prop::collection::vec((0..5u8, 0..0x10F800u32), 0..48),
    ) {
        let text: String = picks.into_iter().map(any_char).collect();
        let written = serde_json::to_string(&text).unwrap();
        let read: String = serde_json::from_str(&written)
            .map_err(|e| TestCaseError::Fail(format!("{written}: {e}")))?;
        prop_assert_eq!(read, text);
    }

    #[test]
    fn every_char_written_as_an_escape_decodes_to_itself(
        (bmp, pick) in (any::<bool>(), 0..0x10F800u32),
        upper in any::<bool>(),
    ) {
        let c = char_of(bmp, pick);
        let text = format!("\"a{}b\"", escaped(c, upper));
        let decoded: String = serde_json::from_str(&text)
            .map_err(|e| TestCaseError::Fail(format!("{text}: {e}")))?;
        prop_assert_eq!(decoded, format!("a{c}b"));
    }

    #[test]
    fn arbitrary_escape_pairs_give_a_value_or_an_error(
        first in (0..3u8, 0..0x10000u32, prop::collection::vec(0..ESCAPE_BYTES.len(), 0..6)),
        second in (0..3u8, 0..0x10000u32, prop::collection::vec(0..ESCAPE_BYTES.len(), 0..6)),
        separator in 0..4usize,
        closed in any::<bool>(),
    ) {
        let separator = ["\\u", "\\", "u", ""][separator];
        let text = format!(
            "\"\\u{}{separator}{}{}",
            unit_text(first.0, first.1, &first.2),
            unit_text(second.0, second.1, &second.2),
            if closed { "\"" } else { "" },
        );
        // A value that decodes writes back as text that decodes to it.
        if let Ok(value) = serde_json::from_str::<String>(&text) {
            let again = serde_json::to_string(&value).unwrap();
            prop_assert_eq!(serde_json::from_str::<String>(&again).unwrap(), value);
        }
    }
}

#[test]
fn unpaired_and_malformed_surrogates_are_errors() {
    for text in [
        r#""\ud800""#,
        r#""\ud800x""#,
        r#""\ud800A""#,
        r#""\ud800\ux0041""#,
        r#""\ud800\ud800""#,
        r#""\udc00""#,
        r#""\udfff\ud800""#,
        r#""\u+041""#,
        r#""\ud83d\ude0""#,
    ] {
        assert!(
            serde_json::from_str::<String>(text).is_err(),
            "{text} decoded"
        );
    }
    let pairs: String = serde_json::from_str(r#""\ud83d\ude00\uD83D\uDE00""#).unwrap();
    assert_eq!(pairs, "\u{1F600}\u{1F600}");
}
