//! `fpbench`: the end-to-end + per-layer benchmark of the FedProphet loop
//! and the fleet engines. See `README.md` beside this crate for the
//! metric glossary and the rationale of each workload; `BENCHMARK.json`
//! at the repository root is the contract the driver reads.
//!
//! ```text
//! fpbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//! fpbench [--seed N] [--seconds S] [--sets N] [--out FILE] [--trace 0|1]
//! fpbench --compare A.json B.json
//! ```
//!
//! With `--workload` it runs that workload in this process — the gated
//! pass (`--trace 0`, end-to-end metrics) or the traced pass (`--trace
//! 1`, per-layer metrics) — prints every metric by name with its unit,
//! and ends with the one-line JSON result. Without it, it runs every
//! workload, each in a child process of its own so that `peak_rss_mb`
//! is per workload.

mod compare;
mod probes;
mod report;
mod run;
mod stats;
mod timed;
mod trace;
mod workloads;

use compare::{Row, SetFile};
use report::{end_to_end_defs, PER_LAYER};
use run::Options;
use std::process::{Command, ExitCode};
use workloads::Workload;

const USAGE: &str = "usage:
  fpbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]
  fpbench [--seed N] [--seconds S] [--sets N] [--out FILE] [--trace 0|1] [--smoke]
  fpbench --compare A.json B.json
workloads: prophet_sync jfat_sync fleet_async_dense fleet_async_planes fleet_sync_deadline";

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    trace_out: Option<String>,
    smoke: bool,
    sets: usize,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 7,
        seconds: 10.0,
        sets: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                });
            }
            "--trace-out" => a.trace_out = Some(value()?.clone()),
            "--smoke" => a.smoke = true,
            "--sets" => {
                a.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?;
                if !(1..=100).contains(&a.sets) {
                    return Err("--sets must be between 1 and 100".into());
                }
            }
            "--out" => a.out = Some(value()?.clone()),
            "--compare" => a.compare = Some((value()?.clone(), value()?.clone())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("fpbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &args.compare {
        compare_files(a, b)
    } else if let Some(w) = args.workload {
        one_workload(w, &args)
    } else {
        all_workloads(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("fpbench: {why}");
            ExitCode::from(2)
        }
    }
}

/// glibc keeps the freed memory of every per-round scoped thread in that
/// thread's own arena, so `VmHWM` of the two-thread workloads wandered
/// 44–54 MB for identical work (25 MB ± 1.5 % with one arena, at the
/// same throughput). Measured runs therefore happen in a child whose
/// allocator has one arena, whatever the caller's environment says.
const ARENA_KNOB: (&str, &str) = ("MALLOC_ARENA_MAX", "1");

/// Re-runs this command line in a child with [`ARENA_KNOB`] set, unless
/// this process already is that child. The child inherits stdout, so its
/// result line is the last line printed.
fn in_measured_child() -> Result<Option<bool>, String> {
    if std::env::var(ARENA_KNOB.0).is_ok_and(|v| v == ARENA_KNOB.1) {
        return Ok(None);
    }
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let status = Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(ARENA_KNOB.0, ARENA_KNOB.1)
        .status()
        .map_err(|e| format!("spawn measured child: {e}"))?;
    Ok(Some(status.success()))
}

/// Runs one pass of one workload in the measured child. The process
/// exits 0 whenever the pass ran: failed checks are reported through
/// `correct` and `failed` in the result line.
fn one_workload(w: Workload, args: &Args) -> Result<bool, String> {
    if let Some(ran) = in_measured_child()? {
        return Ok(ran);
    }
    let o = Options {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let traced = args.trace.unwrap_or(false);
    println!(
        "fpbench {} seed {} seconds {} trace {} ({} hardware threads)",
        w.name(),
        o.seed,
        o.seconds,
        u8::from(traced),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let (out, defs) = if traced {
        let mut spans = trace::Spans::new();
        let out = run::traced(&o, &mut spans);
        if let Some(path) = &args.trace_out {
            std::fs::write(path, spans.to_json()).map_err(|e| format!("{path}: {e}"))?;
        }
        (out, PER_LAYER.to_vec())
    } else {
        (run::gated(&o), end_to_end_defs())
    };
    print!("{}", out.table(&defs));
    println!("{}", out.json_line(&defs));
    Ok(true)
}

/// Runs one pass in a child process and returns its result line.
fn child(w: Workload, args: &Args, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let done = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&done.stdout);
    print!("{stdout}");
    if !done.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            w.name(),
            done.status,
            String::from_utf8_lossy(&done.stderr)
        ));
    }
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("{} printed no result", w.name()))
}

/// Every workload, `--sets` times through the gated pass and once
/// through the traced pass. True when every check of every run passed
/// and the sets agree with the first within the bounds.
fn all_workloads(args: &Args) -> Result<bool, String> {
    let mut rows = Vec::new();
    let mut clean = true;
    for set in 0..args.sets {
        for w in workloads::ALL {
            let line = child(w, args, false)?;
            clean &= line.contains("\"correct\": true");
            for (metric, value) in compare::metric_values(&line)? {
                rows.push(Row {
                    set,
                    workload: w.name().to_string(),
                    metric,
                    value,
                });
            }
        }
    }
    if args.trace.unwrap_or(true) {
        for w in workloads::ALL {
            clean &= child(w, args, true)?.contains("\"correct\": true");
        }
    }
    let file = SetFile {
        seed: args.seed,
        seconds: args.seconds,
        rows,
    };
    // Two or more sets of one commit must agree within the bounds.
    for later in 1..args.sets {
        println!("set 0 against set {later}:");
        clean &= print_verdicts(&compare::compare(&file.set(0), &file.set(later)));
    }
    if let Some(path) = &args.out {
        let json = serde_json::to_string(&file).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(clean)
}

/// Prints, per workload × end-to-end metric, how the medians of `b`
/// stand against those of `a` and the metric's bound. False on a breach.
fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<SetFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let verdicts = compare::compare(&load(a)?, &load(b)?);
    if verdicts.is_empty() {
        return Err("the two files share no workload × metric".into());
    }
    Ok(print_verdicts(&verdicts))
}

fn print_verdicts(verdicts: &[compare::Verdict]) -> bool {
    println!(
        "{:<22} {:<18} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "a (median)", "b (median)", "worse by", "bound"
    );
    for v in verdicts {
        println!(
            "{:<22} {:<18} {:>16.6} {:>16.6} {:>8.2}% {:>6.0}%{}",
            v.workload,
            v.metric,
            v.base,
            v.new,
            100.0 * v.worse_by,
            100.0 * v.bound,
            if v.breach { "  BREACH" } else { "" }
        );
    }
    verdicts.iter().all(|v| !v.breach)
}

#[cfg(test)]
mod tests {
    use super::*;
    use compare::Raw;
    use serde::Value;

    /// `BENCHMARK.json` is the contract; the tables in `report.rs` are
    /// what the binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let raw: Raw = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let top = raw.0.as_map().unwrap();
        let field =
            |m: &[(String, Value)], k: &str| serde::map_field(m, k, "BENCHMARK").unwrap().clone();
        let text = |v: &Value| match v {
            Value::Str(s) => s.clone(),
            other => panic!("expected a string, got {other:?}"),
        };

        let names: Vec<String> = field(top, "workloads")
            .as_seq()
            .unwrap()
            .iter()
            .map(|w| text(&field(w.as_map().unwrap(), "name")))
            .collect();
        let ours: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);

        let e2e = field(top, "end_to_end");
        let e2e = e2e.as_seq().unwrap();
        assert_eq!(e2e.len(), report::END_TO_END.len());
        for (j, (def, bound)) in e2e.iter().zip(report::END_TO_END) {
            let j = j.as_map().unwrap();
            assert_eq!(text(&field(j, "name")), def.name);
            assert_eq!(text(&field(j, "unit")), def.unit);
            assert_eq!(text(&field(j, "better")), def.better.as_str());
            assert_eq!(field(j, "bound").as_f64(), Some(bound));
        }

        let layers = field(top, "per_layer");
        let layers = layers.as_seq().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, def) in layers.iter().zip(PER_LAYER) {
            let j = j.as_map().unwrap();
            assert_eq!(text(&field(j, "name")), def.name);
            assert_eq!(text(&field(j, "unit")), def.unit);
            assert_eq!(text(&field(j, "better")), def.better.as_str());
        }
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let p = |s: &str| parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = p("--workload jfat_sync --seed 11 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::JfatSync));
        assert_eq!((a.seed, a.seconds, a.trace), (11, 2.5, Some(true)));
        assert!(p("--workload nope").is_err());
        assert!(p("--trace 2").is_err());
        assert!(p("--seconds -1").is_err());
        assert!(p("--seconds NaN").is_err());
        assert!(p("--sets 0").is_err());
        assert!(p("--seed").is_err());
    }

    /// The `--smoke` scale: every workload through both passes, every
    /// check on, in seconds.
    #[test]
    fn smoke_scale_runs_all_workloads_and_checks() {
        for w in workloads::ALL {
            let o = Options {
                workload: w,
                seed: 5,
                seconds: 0.0,
                smoke: true,
            };
            let gated = run::gated(&o);
            assert_eq!(gated.failed, 0, "{}: {:?}", w.name(), gated.failures);
            assert!(gated.attempted > 0);
            for (def, _) in report::END_TO_END {
                let v = gated.get(def.name).unwrap();
                assert!(
                    v > 0.0 || def.name == "peak_rss_mb",
                    "{} {}",
                    w.name(),
                    def.name
                );
            }
        }
        // The traced pass once, on the workload with every plane on.
        let o = Options {
            workload: Workload::FleetAsyncPlanes,
            seed: 5,
            seconds: 0.2,
            smoke: true,
        };
        let traced = run::traced(&o, &mut trace::Spans::new());
        assert_eq!(traced.failed, 0, "{:?}", traced.failures);
        for def in PER_LAYER {
            // FedProphet's own outputs belong to `prophet_sync`, and a
            // smoke unit has too few records for a tail percentile.
            let elsewhere = [
                "core.accounted",
                "core.mean",
                "core.virtual",
                "core.mem",
                "train.",
            ]
            .iter()
            .any(|p| def.name.starts_with(p));
            if !elsewhere && def.name != "fl.agg_wall_us_tail" {
                assert!(traced.get(def.name).is_some(), "missing {}", def.name);
            }
        }
        assert!(traced.get("fl.bundles").unwrap() > 0.0);
        assert_eq!(traced.get("fl.resume_identical"), Some(1.0));
    }
}
