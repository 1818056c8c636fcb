//! The CI bench-regression gate.
//!
//! Compares freshly emitted benchmark JSON (the `$FP_BENCH_JSON` report
//! written by the vendored criterion) against a committed baseline and
//! fails on a throughput regression beyond a tolerance: a benchmark
//! regresses when its fresh median exceeds `baseline × (1 + tolerance)`,
//! or — for kernel benches that report GFLOP/s — when its fresh
//! throughput falls below `baseline ÷ (1 + tolerance)`. The throughput
//! gate matters when a bench's shape (and so its flop count) changes: a
//! smaller shape can post a faster median while the kernel itself got
//! slower.
//!
//! Benchmarks present on only one side are reported but never fail the
//! gate (adding a bench must not break CI retroactively); improvements
//! are reported as such. The `bench_check` binary
//! (`cargo run -p fp-bench --bin bench_check`) wires this into the
//! workflow right after the bench-smoke step.

use serde::Deserialize;

/// One benchmark measurement (the subset of the report the gate needs;
/// extra report fields are ignored on deserialization).
#[derive(Debug, Clone, Deserialize)]
pub struct BenchEntry {
    /// Benchmark id, e.g. `matmul/parallel/512`.
    pub id: String,
    /// Median wall-clock per iteration in nanoseconds.
    pub median_ns: f64,
    /// Arithmetic throughput, when the bench declared its flop count
    /// (absent from reports emitted before the packed-GEMM work).
    #[serde(default)]
    pub gflops: Option<f64>,
}

/// A kernel-bench report: `{"benchmarks": [...]}` (criterion's
/// `$FP_BENCH_JSON` shape).
#[derive(Deserialize)]
struct KernelReport {
    benchmarks: Vec<BenchEntry>,
}

/// Parses a kernel-bench report out of a JSON document.
///
/// # Errors
///
/// Returns a message when the document has no `benchmarks` array.
pub fn parse_report(json: &str) -> Result<Vec<BenchEntry>, String> {
    serde_json::from_str::<KernelReport>(json)
        .map(|k| k.benchmarks)
        .map_err(|_| "document has no `benchmarks` array".to_string())
}

/// The verdict on one benchmark id.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Fresh median within tolerance of the baseline (ratio reported).
    Ok(f64),
    /// Fresh median beyond `baseline × (1 + tolerance)`.
    Regressed(f64),
    /// Fresh GFLOP/s below `baseline ÷ (1 + tolerance)` even though the
    /// wall median stayed within bounds (slowdown ratio reported).
    ThroughputRegressed(f64),
    /// Present only in the baseline.
    MissingFresh,
    /// Present only in the fresh report.
    MissingBaseline,
}

/// One compared benchmark.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Benchmark id.
    pub id: String,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares fresh results against a baseline with the given relative
/// tolerance (`0.25` = fail beyond a 25 % slowdown, in wall median or
/// in GFLOP/s throughput where both sides report it). Ordering follows
/// the baseline, with fresh-only entries appended.
pub fn compare(baseline: &[BenchEntry], fresh: &[BenchEntry], tolerance: f64) -> Vec<Comparison> {
    let mut out = Vec::new();
    for b in baseline {
        let verdict = match fresh.iter().find(|f| f.id == b.id) {
            None => Verdict::MissingFresh,
            Some(f) => {
                let ratio = f.median_ns / b.median_ns;
                let slowdown = match (b.gflops, f.gflops) {
                    (Some(bg), Some(fg)) if fg > 0.0 => Some(bg / fg),
                    _ => None,
                };
                if ratio > 1.0 + tolerance {
                    Verdict::Regressed(ratio)
                } else if let Some(s) = slowdown.filter(|s| *s > 1.0 + tolerance) {
                    Verdict::ThroughputRegressed(s)
                } else {
                    Verdict::Ok(ratio)
                }
            }
        };
        out.push(Comparison {
            id: b.id.clone(),
            verdict,
        });
    }
    for f in fresh {
        if !baseline.iter().any(|b| b.id == f.id) {
            out.push(Comparison {
                id: f.id.clone(),
                verdict: Verdict::MissingBaseline,
            });
        }
    }
    out
}

/// Renders the comparison and returns whether the gate passes (no
/// [`Verdict::Regressed`] or [`Verdict::ThroughputRegressed`] entry).
pub fn render(comparisons: &[Comparison], tolerance: f64) -> (String, bool) {
    let mut s = String::new();
    let mut pass = true;
    for c in comparisons {
        let line = match &c.verdict {
            Verdict::Ok(r) if *r < 1.0 => format!("  ok       {:<44} {:.2}x (faster)", c.id, r),
            Verdict::Ok(r) => format!("  ok       {:<44} {:.2}x", c.id, r),
            Verdict::Regressed(r) => {
                pass = false;
                format!(
                    "  REGRESSED {:<43} {:.2}x > {:.2}x allowed",
                    c.id,
                    r,
                    1.0 + tolerance
                )
            }
            Verdict::ThroughputRegressed(r) => {
                pass = false;
                format!(
                    "  REGRESSED {:<43} {:.2}x slower (GFLOP/s) > {:.2}x allowed",
                    c.id,
                    r,
                    1.0 + tolerance
                )
            }
            Verdict::MissingFresh => format!("  missing  {:<44} (not in fresh run)", c.id),
            Verdict::MissingBaseline => format!("  new      {:<44} (no baseline yet)", c.id),
        };
        s.push_str(&line);
        s.push('\n');
    }
    (s, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, median_ns: f64) -> BenchEntry {
        BenchEntry {
            id: id.to_string(),
            median_ns,
            gflops: None,
        }
    }

    fn entry_g(id: &str, median_ns: f64, gflops: f64) -> BenchEntry {
        BenchEntry {
            id: id.to_string(),
            median_ns,
            gflops: Some(gflops),
        }
    }

    #[test]
    fn parses_the_kernel_report_shape() {
        let kernel = r#"{"benchmarks": [{"id": "a", "median_ns": 10.0, "min_ns": 9.0, "max_ns": 11.0, "samples": 10}]}"#;
        assert_eq!(parse_report(kernel).unwrap()[0].id, "a");
        assert!(parse_report("{}").is_err());
    }

    #[test]
    fn gflops_field_is_optional_and_parsed_when_present() {
        // Pre-roofline baselines omit `gflops`; fresh kernel reports
        // carry it. Both must parse, side by side in one report.
        let kernel = r#"{"benchmarks": [
            {"id": "old", "median_ns": 10.0, "min_ns": 9.0, "max_ns": 11.0, "samples": 10},
            {"id": "new", "median_ns": 10.0, "min_ns": 9.0, "max_ns": 11.0, "samples": 10, "gflops": 104.7}
        ]}"#;
        let entries = parse_report(kernel).unwrap();
        assert_eq!(entries[0].gflops, None);
        assert_eq!(entries[1].gflops, Some(104.7));
    }

    #[test]
    fn within_tolerance_passes() {
        let base = vec![entry("m", 100.0)];
        let fresh = vec![entry("m", 124.0)];
        let cmp = compare(&base, &fresh, 0.25);
        assert!(matches!(cmp[0].verdict, Verdict::Ok(_)));
        let (_, pass) = render(&cmp, 0.25);
        assert!(pass);
    }

    #[test]
    fn injected_regression_fails_the_gate() {
        // The acceptance demonstration: a 30 % slowdown on one benchmark
        // trips the 25 % gate even when every other id is fine.
        let base = vec![entry("matmul/parallel/512", 100.0), entry("conv", 200.0)];
        let fresh = vec![entry("matmul/parallel/512", 130.0), entry("conv", 190.0)];
        let cmp = compare(&base, &fresh, 0.25);
        assert!(matches!(cmp[0].verdict, Verdict::Regressed(r) if (r - 1.3).abs() < 1e-9));
        assert!(matches!(cmp[1].verdict, Verdict::Ok(_)));
        let (report, pass) = render(&cmp, 0.25);
        assert!(!pass, "a >25% regression must fail the gate:\n{report}");
        assert!(report.contains("REGRESSED"));
    }

    #[test]
    fn throughput_drop_fails_even_with_faster_median() {
        // A shape shrink can post a faster wall median while the kernel
        // itself got slower — the GFLOP/s gate catches exactly this.
        let base = vec![entry_g("matmul/parallel/512", 100.0, 100.0)];
        let fresh = vec![entry_g("matmul/parallel/512", 80.0, 60.0)];
        let cmp = compare(&base, &fresh, 0.25);
        assert!(
            matches!(cmp[0].verdict, Verdict::ThroughputRegressed(r) if (r - 100.0 / 60.0).abs() < 1e-9)
        );
        let (report, pass) = render(&cmp, 0.25);
        assert!(!pass, "a >25% GFLOP/s drop must fail the gate:\n{report}");
        assert!(report.contains("GFLOP/s"));
    }

    #[test]
    fn throughput_within_tolerance_passes() {
        let base = vec![entry_g("m", 100.0, 100.0)];
        let fresh = vec![entry_g("m", 100.0, 85.0)];
        let cmp = compare(&base, &fresh, 0.25);
        assert!(matches!(cmp[0].verdict, Verdict::Ok(_)));
    }

    #[test]
    fn gflops_gate_skipped_when_either_side_lacks_it() {
        // A baseline without gflops (pre-roofline pin) never trips the
        // throughput gate, whatever the fresh report says — and vice
        // versa — so re-pinning baselines is not forced.
        let base = vec![entry("m", 100.0)];
        let fresh = vec![entry_g("m", 100.0, 1.0)];
        assert!(matches!(
            compare(&base, &fresh, 0.25)[0].verdict,
            Verdict::Ok(_)
        ));
        let base = vec![entry_g("m", 100.0, 100.0)];
        let fresh = vec![entry("m", 100.0)];
        assert!(matches!(
            compare(&base, &fresh, 0.25)[0].verdict,
            Verdict::Ok(_)
        ));
    }

    #[test]
    fn boundary_is_exclusive() {
        // Exactly 1.25x is allowed; the gate fires strictly beyond it.
        let base = vec![entry("m", 100.0)];
        let cmp = compare(&base, &[entry("m", 125.0)], 0.25);
        assert!(matches!(cmp[0].verdict, Verdict::Ok(_)));
        let cmp = compare(&base, &[entry("m", 125.1)], 0.25);
        assert!(matches!(cmp[0].verdict, Verdict::Regressed(_)));
    }

    #[test]
    fn missing_ids_never_fail() {
        let base = vec![entry("gone", 100.0)];
        let fresh = vec![entry("new", 100.0)];
        let cmp = compare(&base, &fresh, 0.25);
        assert_eq!(cmp.len(), 2);
        assert_eq!(cmp[0].verdict, Verdict::MissingFresh);
        assert_eq!(cmp[1].verdict, Verdict::MissingBaseline);
        let (_, pass) = render(&cmp, 0.25);
        assert!(pass);
    }

    #[test]
    fn committed_baselines_parse() {
        // The committed baselines a workflow gates must stay parseable,
        // or the CI gate would dry-run green.
        for name in ["BENCH_tensor.json", "BENCH_fl_round.json"] {
            let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), name);
            let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let entries = parse_report(&json).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(!entries.is_empty(), "{path} has no benchmarks");
            assert!(entries.iter().all(|b| b.median_ns > 0.0));
        }
    }
}
