//! Result sets on disk and their comparison against the bounds.

use crate::report::END_TO_END;
use crate::stats::{median, worsening};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeSet;

/// Any JSON document, kept as the parsed tree.
pub struct Raw(pub Value);

impl Deserialize for Raw {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(Raw(v.clone()))
    }
}

/// One end-to-end value of one workload in one set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    pub set: usize,
    pub workload: String,
    pub metric: String,
    pub value: f64,
}

/// What `--sets N --out FILE` writes and `--compare` reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SetFile {
    pub seed: u64,
    pub seconds: f64,
    pub rows: Vec<Row>,
}

impl SetFile {
    /// The rows of one set, as a file of their own.
    pub fn set(&self, set: usize) -> SetFile {
        SetFile {
            seed: self.seed,
            seconds: self.seconds,
            rows: self.rows.iter().filter(|r| r.set == set).cloned().collect(),
        }
    }
}

/// Pulls `metrics.<name>.value` out of a driver result line.
pub fn metric_values(line: &str) -> Result<Vec<(String, f64)>, String> {
    let raw: Raw = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let top = raw.0.as_map().ok_or("result line is not an object")?;
    let metrics = serde::map_field(top, "metrics", "result")
        .map_err(|e| e.to_string())?
        .as_map()
        .ok_or("metrics is not an object")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .as_map()
                .and_then(|m| serde::map_field(m, "value", "metric").ok())
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {name} has no numeric value"))?;
            Ok((name.clone(), value))
        })
        .collect()
}

/// One line of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    /// Share of `base` by which `new` is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub breach: bool,
}

/// Compares the per-workload medians of `b` against those of `a`: a
/// metric breaches when `b` is worse than `a` by more than its bound.
/// `virtual_time_s` is simulated — for equal seeds it must be equal to
/// the last bit, whatever its bound allows.
pub fn compare(a: &SetFile, b: &SetFile) -> Vec<Verdict> {
    let workloads: BTreeSet<&str> = a.rows.iter().map(|r| r.workload.as_str()).collect();
    let med = |f: &SetFile, w: &str, m: &str| {
        let v: Vec<f64> = f
            .rows
            .iter()
            .filter(|r| r.workload == w && r.metric == m)
            .map(|r| r.value)
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    let mut out = Vec::new();
    for w in workloads {
        for (def, bound) in END_TO_END {
            let (Some(base), Some(new)) = (med(a, w, def.name), med(b, w, def.name)) else {
                continue;
            };
            let worse_by = worsening(def.better, base, new);
            let exact = def.unit == "sim_s" && a.seed == b.seed;
            out.push(Verdict {
                workload: w.to_string(),
                metric: def.name,
                base,
                new,
                worse_by,
                bound,
                breach: if exact { base != new } else { worse_by > bound },
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(seed: u64, rate: f64, rss: f64, vt: f64) -> SetFile {
        let row = |metric: &str, value| Row {
            set: 0,
            workload: "w".into(),
            metric: metric.into(),
            value,
        };
        SetFile {
            seed,
            seconds: 1.0,
            rows: vec![
                row("dispatches_per_s", rate),
                row("peak_rss_mb", rss),
                row("virtual_time_s", vt),
            ],
        }
    }

    fn breaches(a: &SetFile, b: &SetFile) -> Vec<&'static str> {
        compare(a, b)
            .into_iter()
            .filter(|v| v.breach)
            .map(|v| v.metric)
            .collect()
    }

    fn bound(metric: &str) -> f64 {
        END_TO_END.iter().find(|(d, _)| d.name == metric).unwrap().1
    }

    #[test]
    fn bounds_cut_in_the_worse_direction_only() {
        let base = file(7, 1000.0, 100.0, 2.0);
        let (rate, rss) = (bound("dispatches_per_s"), bound("peak_rss_mb"));
        // A point inside each bound passes, a point beyond it breaches.
        let inside = file(7, 1000.0 * (1.01 - rate), 100.0 * (0.99 + rss), 2.0);
        assert!(breaches(&base, &inside).is_empty());
        let slower = file(7, 1000.0 * (0.99 - rate), 100.0, 2.0);
        assert_eq!(breaches(&base, &slower), ["dispatches_per_s"]);
        let fatter = file(7, 1000.0, 100.0 * (1.01 + rss), 2.0);
        assert_eq!(breaches(&base, &fatter), ["peak_rss_mb"]);
        // Better never breaches, however far.
        assert!(breaches(&base, &file(7, 5000.0, 10.0, 2.0)).is_empty());
    }

    #[test]
    fn simulated_time_must_repeat_exactly_for_a_seed() {
        let base = file(7, 1000.0, 100.0, 2.0);
        // Within the bound but not identical: a breach for equal seeds…
        assert_eq!(
            breaches(&base, &file(7, 1000.0, 100.0, 2.000_001)),
            ["virtual_time_s"]
        );
        assert_eq!(
            breaches(&base, &file(7, 1000.0, 100.0, 1.9)),
            ["virtual_time_s"]
        );
        // …and judged by the bound across seeds.
        assert!(breaches(&base, &file(8, 1000.0, 100.0, 2.000_001)).is_empty());
        let slow = 2.0 * (1.01 + bound("virtual_time_s"));
        assert_eq!(
            breaches(&base, &file(8, 1000.0, 100.0, slow)),
            ["virtual_time_s"]
        );
    }

    #[test]
    fn set_files_and_result_lines_round_trip() {
        let f = file(7, 1.5, 2.5, 3.5);
        let back: SetFile = serde_json::from_str(&serde_json::to_string(&f).unwrap()).unwrap();
        assert_eq!(back, f);
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
                    \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"s\"}}}";
        assert_eq!(metric_values(line).unwrap(), [("a".to_string(), 1.25)]);
    }
}
