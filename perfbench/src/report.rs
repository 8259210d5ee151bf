//! The result line: the one JSON object the benchmark prints last.
//!
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`

use rmdp_observe::{write_json_f64, write_json_string};
use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Its unit (`ms`, `s`, `1/s`, `count`, …).
    pub unit: &'static str,
}

/// Everything the result line carries.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (queries and ingests).
    pub attempted: u64,
    /// Operations that failed, were refused, or gave a wrong output.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Renders the result as one JSON line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(&mut out, m.name);
            out.push_str(": {\"value\": ");
            write_json_f64(&mut out, m.value);
            out.push_str(", \"unit\": ");
            write_json_string(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmdp_observe::{parse_json, JsonValue};

    /// Parses a result line back into `(correct, attempted, failed, [(name,
    /// value, unit)])`, in name order. Used by the tests to prove the line
    /// round-trips.
    /// `(correct, attempted, failed, [(name, value, unit)])`.
    type Parsed = (bool, u64, u64, Vec<(String, f64, String)>);

    fn parse(line: &str) -> Option<Parsed> {
        let doc = parse_json(line).ok()?;
        let correct = match doc.get("correct")? {
            JsonValue::Bool(b) => *b,
            _ => return None,
        };
        let attempted = doc.get("attempted")?.as_u64()?;
        let failed = doc.get("failed")?.as_u64()?;
        let mut metrics = Vec::new();
        for (name, m) in doc.get("metrics")?.as_object()? {
            metrics.push((
                name.clone(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?.to_owned(),
            ));
        }
        Some((correct, attempted, failed, metrics))
    }

    #[test]
    fn the_result_line_round_trips_bit_for_bit() {
        let report = Report {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "release_p50_ms",
                    value: 0.123_456_789_012_345_67,
                    unit: "ms",
                },
                Metric {
                    name: "setup_s",
                    value: 1.0 / 3.0,
                    unit: "s",
                },
                Metric {
                    name: "releases_per_s",
                    value: 98_765.432_1,
                    unit: "1/s",
                },
            ],
        };
        let line = report.to_json();
        assert!(!line.contains('\n'));
        let (correct, attempted, failed, metrics) = parse(&line).expect("valid JSON");
        assert!(correct);
        assert_eq!((attempted, failed), (1234, 0));
        assert_eq!(metrics.len(), 3);
        for m in &report.metrics {
            let (_, value, unit) = metrics.iter().find(|(n, _, _)| n == m.name).unwrap();
            assert_eq!(value.to_bits(), m.value.to_bits(), "{}", m.name);
            assert_eq!(unit, m.unit);
        }
    }

    #[test]
    fn a_failed_run_says_so() {
        let report = Report {
            correct: false,
            attempted: 10,
            failed: 3,
            metrics: Vec::new(),
        };
        let (correct, attempted, failed, metrics) = parse(&report.to_json()).unwrap();
        assert!(!correct);
        assert_eq!((attempted, failed), (10, 3));
        assert!(metrics.is_empty());
    }
}
