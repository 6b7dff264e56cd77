//! The per-character string decoder the run scanner replaced, kept as the
//! differential oracle for [`super::parse_string`] (the same pattern as
//! `projtile_arith::reference`: the simple algorithm stays, and the fast one
//! is checked against it exactly).
//!
//! The reference re-validates the whole rest of the document for every plain
//! character, so it is quadratic; it exists for tests only. It shares
//! [`super::parse_hex4`] with the fast decoder, so both read `\u` escapes the
//! same way, and it still accepts raw control characters, which the fast
//! decoder rejects (RFC 8259 §7). The differential corpus below therefore
//! never puts a raw control byte inside a string; a separate test pins the
//! rejection.

use super::{parse_hex4, parse_string, Error};

/// Decodes the string literal starting at `*pos`, one character at a time.
pub(super) fn parse_string_per_char(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::custom(format!("expected a string at byte {}", *pos)));
    }
    let start = *pos;
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(Error::custom(format!(
                    "unterminated string starting at byte {start}"
                )))
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            if bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u')
                            {
                                let lo = parse_hex4(bytes, *pos + 3)?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::custom(format!(
                                        "high surrogate not followed by a low surrogate at byte {}",
                                        *pos + 1
                                    )));
                                }
                                *pos += 6;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                return Err(Error::custom(format!(
                                    "lone surrogate in string at byte {}",
                                    *pos - 5
                                )));
                            }
                        } else {
                            hi
                        };
                        out.push(char::from_u32(code).ok_or_else(|| {
                            Error::custom(format!("invalid \\u escape at byte {}", *pos - 5))
                        })?);
                    }
                    _ => {
                        return Err(Error::custom(format!(
                            "invalid escape sequence at byte {}",
                            *pos - 1
                        )))
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                let rest = std::str::from_utf8(bytes.get(*pos..).unwrap_or_default())
                    .map_err(|_| Error::custom(format!("invalid UTF-8 at byte {}", *pos)))?;
                let Some(c) = rest.chars().next() else {
                    return Err(Error::custom(format!(
                        "unterminated string at byte {}",
                        *pos
                    )));
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Deterministic splitmix64 stream for the seeded corpus.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Every escape form, valid or not, as it appears between two runs.
const ESCAPES: &[&str] = &[
    r#"\""#,
    r"\\",
    r"\/",
    r"\n",
    r"\r",
    r"\t",
    r"\b",
    r"\f",
    // `\u` escapes: ASCII, upper- and lower-case hex, the BMP's edges, and
    // surrogate pairs.
    r"\u0041",
    r"\u00e9",
    r"\u00E9",
    r"\u2264",
    r"\uffff",
    r"\ud83d\ude00",
    r"\ud834\udd1e",
    // Lone and mismatched surrogates.
    r"\ud800",
    r"\udc00",
    r"\ud800A",
    r"\ud800\ud800",
    r"\ud800\n",
    // Invalid escapes and non-hex `\u` digits.
    r"\q",
    r"\x41",
    "\\é",
    r"\u12G4",
    r"\u+041",
    r"\u-041",
    r"\u 041",
    "\\u00é",
];

/// Plain runs: ASCII and multi-byte UTF-8, with no `"`, `\` or control byte.
const RUNS: &[&str] = &[
    "a",
    "plain text",
    "{[,:]} 0.5e-3",
    "é",
    "héllo wörld",
    "≤ θ ∑",
    "中文",
    "😀",
    "a😀b",
    "\u{7f}\u{80}",
];

/// Truncated tails: a literal cut inside an escape or a character.
const TAILS: &[&str] = &[r"\", r"\u", r"\u00", r"\ud83d", r"\ud83d\", r"\ud83d\ude0"];

fn assert_same(doc: &str) {
    let bytes = doc.as_bytes();
    let (mut fast_pos, mut ref_pos) = (0, 0);
    let fast = parse_string(bytes, &mut fast_pos);
    let reference = parse_string_per_char(bytes, &mut ref_pos);
    assert_eq!(fast, reference, "decoders disagree on {doc:?}");
    if fast.is_ok() {
        assert_eq!(fast_pos, ref_pos, "end offsets disagree on {doc:?}");
    }
}

#[test]
fn every_escape_next_to_every_run() {
    for esc in ESCAPES {
        for run in RUNS {
            for body in [
                esc.to_string(),
                format!("{run}{esc}"),
                format!("{esc}{run}"),
                format!("{run}{esc}{run}"),
                format!("{esc}{esc}"),
            ] {
                assert_same(&format!("\"{body}\""));
                assert_same(&format!("\"{body}\",1]"));
                // Unterminated: the same body with no closing quote.
                assert_same(&format!("\"{body}"));
            }
        }
    }
}

#[test]
fn unterminated_strings_agree() {
    for doc in [
        "\"",
        "\"abc",
        "\"abcé",
        "\"😀",
        "\"a\\\"",
        "\"\\\\",
        "\"é\\u00e9",
    ] {
        assert_same(doc);
    }
    for run in RUNS {
        for tail in TAILS {
            assert_same(&format!("\"{run}{tail}"));
        }
    }
}

#[test]
fn seeded_corpus_agrees_with_reference() {
    let mut rng = Rng(0x5EED_0012);
    let mut ok = 0usize;
    for _ in 0..4000 {
        let mut doc = String::from("\"");
        for _ in 0..rng.below(9) {
            match rng.below(3) {
                0 => doc.push_str(rng.pick(ESCAPES)),
                _ => doc.push_str(rng.pick(RUNS)),
            }
        }
        match rng.below(8) {
            0 => doc.push_str(rng.pick(TAILS)),
            1 => {}
            _ => doc.push('"'),
        }
        assert_same(&doc);
        let mut pos = 0;
        ok += usize::from(parse_string(doc.as_bytes(), &mut pos).is_ok());
    }
    // The corpus must exercise both outcomes in earnest.
    assert!((500..3500).contains(&ok), "{ok} of 4000 decoded");
}

#[test]
fn raw_control_bytes_are_rejected_where_they_sit() {
    // Parts that decode on their own, so a control byte between two of them
    // is the first thing the decoder can object to.
    let parts: Vec<&str> = ESCAPES
        .iter()
        .chain(RUNS)
        .copied()
        .filter(|part| parse_string_per_char(format!("\"{part}\"").as_bytes(), &mut 0).is_ok())
        .collect();
    let mut rng = Rng(0xC0_7E01);
    for _ in 0..1000 {
        let chosen: Vec<&str> = (0..1 + rng.below(6)).map(|_| rng.pick(&parts)).collect();
        let cut = rng.below(chosen.len() + 1);
        let (before, after) = (chosen[..cut].concat(), chosen[cut..].concat());
        let control = char::from(rng.below(0x20) as u8);
        let doc = format!("\"{before}{control}{after}\"");
        let err = parse_string(doc.as_bytes(), &mut 0).expect_err("raw control byte");
        assert_eq!(
            err,
            Error::custom(format!(
                "unescaped control character U+{:04X} in string at byte {}",
                u32::from(control),
                1 + before.len()
            )),
            "{doc:?}"
        );
        // The reference accepted it: this is the behaviour that changed.
        assert!(parse_string_per_char(doc.as_bytes(), &mut 0).is_ok());
    }
}
