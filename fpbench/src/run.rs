//! One run of one workload: the gated pass (tracing off, end-to-end
//! metrics) or the traced pass (per-layer metrics).

use crate::probes;
use crate::report::Outcome;
use crate::stats::{median, self_times, tail};
use crate::trace::Spans;
use crate::workloads::{async_conservation, quality_floor, Unit, Workload};
use fp_fl::FlEnv;
use std::time::{Duration, Instant};

/// What the command line asked of one run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// Set-ups per gated run: `setup_s` is their median.
const SETUPS: usize = 3;

/// Builds the environment from the seed and runs the untimed warm-up —
/// everything a user pays before the first measured round.
fn setup(o: &Options) -> FlEnv {
    let w = o.workload;
    let (unit, warm) = w.lengths(o.smoke);
    let mut env = w.env(o.seed, o.smoke);
    env.cfg.rounds = warm;
    std::hint::black_box(w.run_unit(&env, false));
    env.cfg.rounds = unit;
    env
}

/// Folds a unit's record- and unit-level checks into the outcome.
fn absorb(out: &mut Outcome, u: &Unit) {
    out.attempted += u.records + u.checks;
    out.failed += u.bad_records + u.failures.len() as u64;
    if u.bad_records > 0 {
        out.failures.push(format!(
            "{} records with a non-finite loss or a clock running backwards",
            u.bad_records
        ));
    }
    out.failures.extend(u.failures.iter().cloned());
}

fn check(out: &mut Outcome, result: Result<(), String>) {
    out.attempted += 1;
    if let Err(why) = result {
        out.failed += 1;
        out.failures.push(why);
    }
}

/// Checks over the whole run: repeats are bit-identical, training clears
/// its quality floor, asynchronous dispatches are conserved.
fn run_checks(out: &mut Outcome, o: &Options, env: &FlEnv, units: &[&Unit]) {
    let first = units[0].fingerprint();
    for (i, u) in units.iter().enumerate().skip(1) {
        check(
            out,
            (u.fingerprint() == first).then_some(()).ok_or_else(|| {
                format!(
                    "unit {i} did not reproduce unit 0: {:x?} vs {first:x?}",
                    u.fingerprint()
                )
            }),
        );
    }
    if let (Some((clean, adv)), false) = (quality_floor(o.workload), o.smoke) {
        let (c, a) = units[0].final_val.unwrap_or((0.0, 0.0));
        check(
            out,
            (c >= clean && a >= adv).then_some(()).ok_or_else(|| {
                format!("validation accuracy {c:.3} clean / {a:.3} adversarial under the floor {clean} / {adv}")
            }),
        );
    }
    if o.workload.is_async() {
        let mut short = o.workload.env(o.seed, o.smoke);
        short.cfg.rounds = env.cfg.rounds.min(400);
        check(out, async_conservation(o.workload, &short));
    }
}

/// The gated pass: several set-ups, then units until `seconds` have
/// passed (at least two, so the determinism check always has a pair).
pub fn gated(o: &Options) -> Outcome {
    let w = o.workload;
    fp_tensor::parallel::set_thread_budget(w.threads());
    let mut out = Outcome::default();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut env = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        env = Some(setup(o));
        setups.push(t.elapsed().as_secs_f64());
    }
    let env = env.expect("at least one set-up");

    let start = Instant::now();
    let mut units: Vec<Unit> = Vec::new();
    while units.len() < 2 || start.elapsed().as_secs_f64() < o.seconds {
        units.push(w.run_unit(&env, false));
    }
    for u in &units {
        absorb(&mut out, u);
    }
    run_checks(&mut out, o, &env, &units.iter().collect::<Vec<_>>());

    let rates: Vec<f64> = units
        .iter()
        .map(|u| u.dispatches as f64 / u.wall_s)
        .collect();
    out.push(
        "setup_s",
        median(&setups),
        format!("median of {SETUPS} set-ups"),
    );
    out.push(
        "dispatches_per_s",
        median(&rates),
        format!(
            "median of {} units of {} dispatches ({:.6}–{:.6}), {} threads",
            units.len(),
            units[0].dispatches,
            rates.iter().copied().fold(f64::INFINITY, f64::min),
            rates.iter().copied().fold(0.0, f64::max),
            w.threads()
        ),
    );
    out.push("peak_rss_mb", peak_rss_mb(), "VmHWM");
    out.push(
        "virtual_time_s",
        units[0].virtual_s,
        "one unit, exact for the seed",
    );
    out
}

/// The traced pass: one set-up, untraced and traced units side by side
/// (their difference is the tracing overhead), then the layer probes.
pub fn traced(o: &Options, spans: &mut Spans) -> Outcome {
    let w = o.workload;
    fp_tensor::parallel::set_thread_budget(w.threads());
    let mut out = Outcome::default();
    let env = spans.span("setup", || setup(o));

    // FedProphet's loop takes no trainer, so nothing inside it can be
    // wrapped: one unit gives the counts, and there is no overhead to
    // measure.
    let wraps = w != Workload::ProphetSync;
    let run_budget = o.seconds * 0.3;
    let start = Instant::now();
    let (mut plain, mut timed): (Vec<Unit>, Vec<Unit>) = (Vec::new(), Vec::new());
    while timed.is_empty() || (wraps && start.elapsed().as_secs_f64() < run_budget) {
        if wraps {
            plain.push(spans.span("unit", || w.run_unit(&env, false)));
        }
        timed.push(spans.span("unit.traced", || w.run_unit(&env, true)));
    }
    for u in plain.iter().chain(&timed) {
        absorb(&mut out, u);
    }
    let all: Vec<&Unit> = plain.iter().chain(&timed).collect();
    spans.span("checks", || run_checks(&mut out, o, &env, &all));

    let wall = |us: &[Unit]| median(&us.iter().map(|u| u.wall_s).collect::<Vec<_>>());
    let overhead = if plain.is_empty() {
        0.0
    } else {
        (wall(&timed) - wall(&plain)) / wall(&plain)
    };
    out.push(
        "bench.trace_overhead_share",
        overhead,
        format!("{} untraced vs {} traced units", plain.len(), timed.len()),
    );

    let u = timed.last().expect("a traced unit ran");
    unit_metrics(&mut out, w, &env, u);
    spans.unit_counters(u);

    let probe_budget = Duration::from_secs_f64(o.seconds * 0.55);
    let probed = spans.span("probes", || probes::run_all(o.seed, probe_budget, o.smoke));
    for (name, value, n) in &probed {
        out.push(name, *value, format!("median of {n}"));
    }
    if let Some(p) = &u.prophet {
        let share = accounted_share(&out, u, p, w.threads());
        out.push(
            "core.accounted_share",
            share,
            "Σ probe × calls along the blocking path / unit wall",
        );
    }
    out
}

/// Counts, ratios and self times of one traced unit.
fn unit_metrics(out: &mut Outcome, w: Workload, env: &FlEnv, u: &Unit) {
    let c = u.counts;
    let merged = u.merged.max(1) as f64;
    let exact = "exact for the seed";
    if !u.levels.is_empty() {
        let busy: Vec<u64> = u.levels.iter().map(|l| l.busy_ns).collect();
        let selfs = self_times(&busy);
        for (l, s) in u.levels.iter().zip(&selfs) {
            let per_update = *s as f64 / 1e3 / merged;
            match l.name {
                "byz" => out.push("fl.byz_self_us", per_update, "self time per merged update"),
                "quant" => out.push(
                    "fl.quant_self_us",
                    per_update,
                    "self time per merged update",
                ),
                "synthetic" => {
                    let calls = l.train_calls.max(1) as f64;
                    out.push(
                        "fl.synthetic_train_us",
                        l.train_ns as f64 / 1e3 / calls,
                        format!("{} calls", l.train_calls),
                    );
                    out.push(
                        "fl.synthetic_merge_us",
                        l.merge_ns as f64 / 1e3 / merged,
                        "per merged update",
                    );
                }
                _ => {}
            }
        }
        // Engine self time: the unit's wall minus the outermost trainer
        // level and the sink. Only meaningful where the trainer runs on
        // the scheduler thread (budget 1); with a fan-out the busy time
        // of two workers exceeds the wall.
        if w.threads() == 1 {
            let engine_ns = (u.wall_s * 1e9 - busy[0] as f64 - u.sink_ns as f64).max(0.0);
            out.push(
                "fl.engine_self_us_per_dispatch",
                engine_ns / 1e3 / u.dispatches.max(1) as f64,
                format!("{} dispatches", u.dispatches),
            );
        }
    }
    if !u.gaps_s.is_empty() {
        out.push(
            "fl.sink_us_per_record",
            u.sink_ns as f64 / 1e3 / u.records.max(1) as f64,
            format!("{} records", u.records),
        );
        out.push(
            "fl.agg_wall_us_p50",
            median(&u.gaps_s) * 1e6,
            format!("{} records", u.gaps_s.len()),
        );
        if let Some((pct, v)) = tail(&u.gaps_s) {
            out.push(
                "fl.agg_wall_us_tail",
                v * 1e6,
                format!("p{pct:.1} of {}", u.gaps_s.len()),
            );
        }
    }
    if w != Workload::ProphetSync {
        out.push(
            "fl.merged_per_dispatch",
            u.merged as f64 / u.dispatches.max(1) as f64,
            exact,
        );
        let dense = u.merged * env.model_param_bytes();
        out.push(
            "fl.up_reduction_vs_dense",
            dense as f64 / u.up_bytes.max(1) as f64,
            exact,
        );
        out.push("fl.delta_hit_share", c.delta as f64 / merged, exact);
        out.push("fl.mean_staleness", c.staleness_sum / merged, exact);
        out.push("fl.up_bytes", u.up_bytes as f64, exact);
        out.push("fl.down_bytes", u.down_bytes as f64, exact);
    }
    for (name, v) in [
        ("fl.dropped_out", c.dropped_out),
        ("fl.stragglers", c.stragglers),
        ("fl.timed_out", c.timed_out),
        ("fl.unavailable", c.unavailable),
        ("fl.outage_lost", c.outage_lost),
        ("fl.throttled", c.throttled),
        ("fl.filtered", c.filtered),
        ("fl.clip_applied", c.clip_applied),
        ("fl.max_staleness", c.max_staleness),
        ("fl.bundles", c.bundles),
    ] {
        out.push(name, v as f64, exact);
    }
    if let Some(p) = &u.prophet {
        out.push("core.mean_assigned", p.mean_assigned, exact);
        out.push("core.virtual_compute_s", p.compute_s, exact);
        out.push("core.virtual_data_s", p.data_s, exact);
        out.push("core.virtual_transfer_s", p.transfer_s, exact);
        out.push("core.mem_reduction", p.mem_reduction, exact);
    }
    if let (true, Some((clean, adv))) = (w.trains(), u.final_val) {
        out.push("train.final_val_clean", f64::from(clean), exact);
        out.push("train.final_val_adv", f64::from(adv), exact);
    }
}

/// How much of a `prophet_sync` unit the layer table explains: each
/// round blocks on `ceil(clients / workers)` client-rounds of its
/// module's window (plus the share of prophet clients that also train
/// the modules after it) and one adversarial validation; each fixed
/// module adds one Δz probe.
fn accounted_share(
    out: &Outcome,
    u: &Unit,
    p: &crate::workloads::ProphetExtra,
    workers: usize,
) -> f64 {
    let ms = |name: &str| out.get(name).unwrap_or(0.0);
    let window: Vec<f64> = (0..p.n_modules.min(4))
        .map(|m| ms(&format!("core.window_train_ms.m{m}")))
        .collect();
    let mut explained_ms = 0.0;
    for &(m, completed, assigned) in &p.rounds {
        let mut client = window.get(m).copied().unwrap_or(0.0);
        // `assigned − 1` extra modules on average, spread over the
        // modules that follow `m` in order.
        let mut extra = f64::from(assigned) - 1.0;
        let mut next = m + 1;
        while extra > 0.0 && next < window.len() {
            client += extra.min(1.0) * window[next];
            extra -= 1.0;
            next += 1;
        }
        let waves = completed.div_ceil(workers.max(1));
        explained_ms += waves as f64 * client + ms("attack.eval_adv_ms");
    }
    explained_ms += p.n_modules.saturating_sub(1) as f64 * ms("core.probe_dz_ms");
    explained_ms / 1e3 / u.wall_s
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc`
/// does not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
