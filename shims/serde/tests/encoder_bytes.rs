//! Byte-for-byte pins of the encoder's output. Both fixtures were printed by
//! the per-character encoder that the run-copying one replaced, so equality
//! here means the rewrite changed no output byte:
//!
//! * `shared_snapshot_multikind.json` is a real `SharedEngine::snapshot_json`
//!   (three nests, every query kind, built like the bench document
//!   `serde/parse/shared_snapshot_multikind`);
//! * `encoder_pinned.json` is [`pinned_value`]: integer extremes, every float
//!   shape (integral, fractional, huge, subnormal, signed zero, non-finite)
//!   and every character class of the string escaper.

use serde::{json, Value};

const SNAPSHOT: &str = include_str!("fixtures/shared_snapshot_multikind.json");
const PINNED: &str = include_str!("fixtures/encoder_pinned.json");

fn pinned_value() -> Value {
    let floats = [
        0.0,
        -0.0,
        1.5,
        262144.0,
        1e300,
        1.0 / 3.0,
        6.02214076e23,
        f64::MIN_POSITIVE,
        5e-324,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let mut items = vec![
        Value::Int(i128::MIN),
        Value::Int(i128::MAX),
        Value::Int(0),
        Value::Int(-7),
    ];
    items.extend(floats.map(Value::Float));
    items.push(Value::String((0u8..0x20).map(char::from).collect()));
    items.push(Value::String("q\"b\\s/é≤😀\u{7f}".into()));
    items.push(Value::Object(vec![
        ("k\"\n".into(), Value::Null),
        (String::new(), Value::Bool(true)),
    ]));
    Value::Array(items)
}

#[test]
fn real_snapshot_reprints_byte_identically() {
    let value = json::parse(SNAPSHOT).expect("fixture parses");
    assert_eq!(json::to_string(&value), SNAPSHOT);
}

#[test]
fn every_value_shape_prints_as_before() {
    assert_eq!(json::to_string(&pinned_value()), PINNED);
    // The decoder reads it back to a tree that prints the same bytes.
    let back = json::parse(PINNED).expect("pinned output parses");
    assert_eq!(json::to_string(&back), PINNED);
}
