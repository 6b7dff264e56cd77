//! Result lines: a human-readable table, then one JSON object as the last
//! line of standard output.

use serde::{json, Value};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Stable metric name (as listed in `BENCHMARK.json`).
    pub name: String,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// Sample count, base, or provenance, printed beside the value.
    pub note: String,
}

impl Metric {
    /// A metric with a note.
    pub fn new(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        note: impl Into<String>,
    ) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            note: note.into(),
        }
    }
}

/// Prints `metrics` as an aligned table under `title`.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<36} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// The final result line: `correct`, `attempted`, `failed` and the metrics
/// with their units, values printed with all their digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::String(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    json::to_string(&Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Int(attempted as i128)),
        ("failed".to_string(), Value::Int(failed as i128)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]))
}
