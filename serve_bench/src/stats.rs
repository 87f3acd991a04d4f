//! Order statistics, and the `stats` verb's counters as a map that can
//! be differenced.

use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them — the spread the benchmark's
/// bounds are judged against is (q3 − q1) ÷ median.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// Counters and gauges of one `stats` response, by name. Histograms are
/// skipped: their percentiles cannot be differenced.
#[derive(Debug, Default, Clone)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    pub fn parse(body: &str) -> Counters {
        let mut map = BTreeMap::new();
        let mut keep = false;
        for line in body.lines() {
            if !line.starts_with(' ') {
                keep = matches!(line.trim(), "counters:" | "gauges:");
                continue;
            }
            let mut parts = line.split_whitespace();
            if let (true, Some(name), Some(value)) = (keep, parts.next(), parts.next()) {
                if let Ok(v) = value.parse() {
                    map.insert(name.to_string(), v);
                }
            }
        }
        Counters(map)
    }

    /// A counter the server has not touched yet is absent, which is 0.
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Growth of `name` since `earlier`.
    pub fn delta(&self, earlier: &Counters, name: &str) -> f64 {
        self.get(name).saturating_sub(earlier.get(name)) as f64
    }
}

/// `num ÷ den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn stats_body_parses_counters_and_gauges_only() {
        let body = "counters:\n  engine.queries   12\n  server.shed  3\ngauges:\n  engine.snapshots_live  1\nhistograms (count / p50 / p95 / p99 / max):\n  engine.query_ns   2 / 5 / 6 / 7 / 8\n";
        let later = Counters::parse(body);
        assert_eq!(later.get("engine.queries"), 12);
        assert_eq!(later.get("engine.snapshots_live"), 1);
        assert_eq!(later.get("engine.query_ns"), 0);
        let earlier = Counters::parse("counters:\n  engine.queries   2\n");
        assert_eq!(later.delta(&earlier, "engine.queries"), 10.0);
        assert_eq!(later.delta(&earlier, "server.shed"), 3.0);
    }
}
