//! Order statistics, response fingerprints and the JSON result line.

use cc_service::Response;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` by the nearest-rank rule.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// FNV-1a over the 64-bit words of every response, in submission order:
/// equal fingerprints mean bitwise-equal response streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn dist(&mut self, d: Option<i64>) {
        match d {
            Some(d) => {
                self.word(1);
                self.word(d as u64);
            }
            None => self.word(0),
        }
    }

    /// Folds one response in (floats by their bits).
    pub fn add(&mut self, response: &Response) {
        match response {
            Response::Potentials { x, iterations } => {
                self.word(1);
                self.word(*iterations as u64);
                x.iter().for_each(|v| self.word(v.to_bits()));
            }
            Response::Resistance { value, iterations } => {
                self.word(2);
                self.word(*iterations as u64);
                self.word(value.to_bits());
            }
            Response::MaxFlow { flow, value } => {
                self.word(3);
                self.word(*value as u64);
                flow.iter().for_each(|f| self.word(*f as u64));
            }
            Response::MinCostFlow { flow, cost } => {
                self.word(4);
                self.word(*cost as u64);
                flow.iter().for_each(|f| self.word(*f as u64));
            }
            Response::Sssp {
                dist,
                negative_cycle,
            } => {
                self.word(5);
                self.word(u64::from(*negative_cycle));
                dist.iter().for_each(|d| self.dist(*d));
            }
            Response::Apsp { dist } => {
                self.word(6);
                dist.iter().flatten().for_each(|d| self.dist(*d));
            }
        }
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Appends a metric.
pub fn push(metrics: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    metrics.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

/// A JSON number with every digit Rust's shortest round-trip format
/// gives (non-finite values, which no metric should produce, become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal (the benchmark only emits ASCII names).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Vec::new();
        push(&mut m, "latency_p50_ms", 1.25, "ms");
        let line = result_json(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
