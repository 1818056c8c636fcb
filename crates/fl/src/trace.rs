//! The availability-trace plane: diurnal participation curves, thermal
//! throttling, and correlated edge outages on the virtual clock.
//!
//! Without this plane, whether a selected client participates is a flat
//! per-`(round, client)` draw — realistic fleets are nothing like that.
//! Devices follow time-of-day cycles (phones charge at night, idle at
//! work), hot devices throttle, and whole regions drop off the network
//! together. [`TracePlan`] models all three deterministically:
//!
//! * **Device classes.** Each client is assigned one of the plan's
//!   [`TraceClass`] profiles by the same stateless salted hash that
//!   assigns topology cohorts and Byzantine flags
//!   (`fp_hwsim::splitmix64`): no membership table, O(1) per touch, so
//!   lazily-materialized 100k fleets stay O(active) in memory.
//! * **Diurnal curve.** A class's availability at virtual time `t` is a
//!   triangle wave over the plan's `day_s` period — pure arithmetic, so
//!   the curve is bit-identical on every platform — and a selected
//!   client participates iff its per-`(version, client)` unit draw falls
//!   under the curve.
//! * **Thermal throttling.** Consecutive virtual-time busy seconds
//!   (tracked in [`TraceState`], pruned once a client cools) scale the
//!   hwsim compute/data-access latency up to the class's cap; network
//!   transfer legs are unaffected. Stragglers that grind past the round
//!   close accumulate heat and throttle in their next dispatch.
//! * **Correlated outages.** Virtual time is cut into windows; each
//!   (region, window) pair is dark with probability `p`. On a
//!   hierarchical topology the region *is* the edge cohort, so a whole
//!   edge goes dark at once; its in-flight dispatches are reclaimed
//!   through the async scheduler's existing timeout path (and count as
//!   `outage_lost` in the ledgers, not `timed_out`).
//! * **Timing adversary.** An optional [`StragglePlan`] flags a cohort
//!   (by the Byzantine plane's `SALT_ATTACK` hash — the same
//!   `(fraction, salt)` as an [`crate::byz::AttackPlan`] flags the same
//!   clients) that inflates its round trips on purpose: in the async
//!   buffer, deliberately stale poisoned updates are the worst-case
//!   composition of the two planes.
//!
//! Everything stays a pure function of `(seed, version, client, clock)`:
//! trace-disabled schedulers execute none of this and reproduce every
//! pre-trace golden byte-for-byte.

use crate::topology::TopologyConfig;
use fp_hwsim::{salted_unit, splitmix64, ClientLatency};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Domain-separation salt for class assignment and participation draws.
pub const SALT_TRACE: u64 = 0x7_AACE;

/// Domain-separation salt for outage regions and dark-window draws.
const SALT_OUTAGE: u64 = 0x0FF_1D4C;

/// Weyl-sequence constant mixing the version into per-dispatch draws.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

// ------------------------------------------------------------ device class

/// One device-class profile: a diurnal availability curve plus a thermal
/// envelope.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceClass {
    /// Mean availability, in `[0, 1]`.
    pub base: f64,
    /// Diurnal swing amplitude: availability oscillates `base ± swing`
    /// (clamped to `[0, 1]`).
    pub swing: f64,
    /// Fraction of the day at which the class peaks, in `[0, 1)` (0.0 =
    /// midnight-peaked, 0.5 = noon-peaked).
    pub peak_frac: f64,
    /// Consecutive busy seconds before throttling begins.
    pub throttle_after_s: f64,
    /// Latency-multiplier growth per busy second beyond the threshold.
    pub throttle_per_s: f64,
    /// Maximum thermal latency multiplier (≥ 1).
    pub throttle_cap: f64,
    /// Idle seconds after which the busy streak (and the heat) resets.
    pub cooldown_s: f64,
}

impl TraceClass {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate values, naming the offending field.
    pub fn validate(&self) {
        assert!(
            self.base.is_finite() && (0.0..=1.0).contains(&self.base),
            "TraceClass field `base`: must be in [0, 1]"
        );
        assert!(
            self.swing.is_finite() && (0.0..=1.0).contains(&self.swing),
            "TraceClass field `swing`: must be in [0, 1]"
        );
        assert!(
            self.peak_frac.is_finite() && (0.0..1.0).contains(&self.peak_frac),
            "TraceClass field `peak_frac`: must be in [0, 1)"
        );
        assert!(
            self.throttle_after_s.is_finite() && self.throttle_after_s >= 0.0,
            "TraceClass field `throttle_after_s`: must be finite and non-negative"
        );
        assert!(
            self.throttle_per_s.is_finite() && self.throttle_per_s >= 0.0,
            "TraceClass field `throttle_per_s`: must be finite and non-negative"
        );
        assert!(
            self.throttle_cap.is_finite() && self.throttle_cap >= 1.0,
            "TraceClass field `throttle_cap`: must be finite and >= 1"
        );
        assert!(
            self.cooldown_s.is_finite() && self.cooldown_s >= 0.0,
            "TraceClass field `cooldown_s`: must be finite and non-negative"
        );
    }

    /// The curve value at day-fraction distance `phase ∈ [0, 1)` from
    /// the peak: a triangle wave, 1 at the peak, −1 at the trough.
    fn wave(phase: f64) -> f64 {
        1.0 - 4.0 * phase.min(1.0 - phase)
    }
}

// ----------------------------------------------------------------- outages

/// Correlated outage windows: virtual time is cut into `window_s`-long
/// windows, and each (region, window) pair goes dark independently with
/// probability `p`. On a hierarchical topology the region is the edge
/// cohort; on the flat topology clients hash into `regions` synthetic
/// regions so outages stay correlated (whole neighborhoods, not
/// individual devices).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutagePlan {
    /// Per-(region, window) dark probability, in `[0, 1)`.
    pub p: f64,
    /// Window length in virtual seconds.
    pub window_s: f64,
    /// Synthetic region count used on the flat topology (ignored when
    /// the topology supplies edge cohorts).
    pub regions: usize,
}

impl OutagePlan {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate values, naming the offending field.
    pub fn validate(&self) {
        assert!(
            self.p.is_finite() && (0.0..1.0).contains(&self.p),
            "OutagePlan field `p`: must be in [0, 1)"
        );
        assert!(
            self.window_s.is_finite() && self.window_s > 0.0,
            "OutagePlan field `window_s`: must be finite and positive"
        );
        assert!(
            self.regions >= 1,
            "OutagePlan field `regions`: must be >= 1"
        );
    }
}

// --------------------------------------------------------- timing adversary

/// The timing adversary: a flagged cohort inflates its round trips on
/// purpose. Flagging uses the Byzantine plane's hash
/// (`seed ^ SALT_ATTACK ^ salt ^ k`), so a [`StragglePlan`] with the
/// same `(fraction, salt)` as an [`crate::byz::AttackPlan`] flags
/// exactly the attack cohort — poisoned updates arrive maximally stale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StragglePlan {
    /// Expected fraction of the fleet that straggles, in `[0, 1]`.
    pub fraction: f64,
    /// Plan salt (match an `AttackPlan`'s salt to flag its cohort).
    pub salt: u64,
    /// Round-trip latency multiplier for flagged clients (≥ 1).
    pub factor: f64,
}

impl StragglePlan {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate values, naming the offending field.
    pub fn validate(&self) {
        assert!(
            self.fraction.is_finite() && (0.0..=1.0).contains(&self.fraction),
            "StragglePlan field `fraction`: must be in [0, 1]"
        );
        assert!(
            self.factor.is_finite() && self.factor >= 1.0,
            "StragglePlan field `factor`: must be finite and >= 1"
        );
    }

    /// Whether client `k` is flagged under `seed` (the Byzantine plane's
    /// flagging hash, so it composes with an equal-salted attack plan).
    pub fn is_straggler(&self, seed: u64, k: usize) -> bool {
        salted_unit(splitmix64(
            seed ^ crate::byz::SALT_ATTACK ^ self.salt ^ (k as u64),
        )) < self.fraction
    }
}

// -------------------------------------------------------------------- plan

/// The full availability-trace policy: a day length, the device-class
/// roster, and the optional outage / timing-adversary sub-plans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracePlan {
    /// Virtual seconds per simulated day (the diurnal period).
    pub day_s: f64,
    /// Plan salt: different salts assign different (independent) class
    /// rosters and participation streams under the same master seed.
    pub salt: u64,
    /// Device-class profiles; clients hash uniformly over them.
    pub classes: Vec<TraceClass>,
    /// Correlated outage windows (`None` disables outages).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub outage: Option<OutagePlan>,
    /// Timing adversary (`None` disables deliberate straggling).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub straggle: Option<StragglePlan>,
}

impl TracePlan {
    /// A three-class diurnal fleet over a `day_s`-second day: always-on
    /// chargers, evening-peaked phones, and flaky daytime devices — a
    /// reasonable default mix for experiments.
    pub fn diurnal(day_s: f64) -> TracePlan {
        TracePlan {
            day_s,
            salt: 0,
            classes: vec![
                // Plugged-in, always responsive, generous thermal budget.
                TraceClass {
                    base: 0.95,
                    swing: 0.05,
                    peak_frac: 0.0,
                    throttle_after_s: day_s,
                    throttle_per_s: 0.0,
                    throttle_cap: 1.0,
                    cooldown_s: day_s / 96.0,
                },
                // Evening-peaked phones that heat up quickly.
                TraceClass {
                    base: 0.55,
                    swing: 0.4,
                    peak_frac: 0.875,
                    throttle_after_s: day_s / 48.0,
                    throttle_per_s: 2.0 / day_s,
                    throttle_cap: 2.5,
                    cooldown_s: day_s / 96.0,
                },
                // Flaky daytime devices with a tight thermal envelope.
                TraceClass {
                    base: 0.35,
                    swing: 0.3,
                    peak_frac: 0.5,
                    throttle_after_s: day_s / 96.0,
                    throttle_per_s: 4.0 / day_s,
                    throttle_cap: 4.0,
                    cooldown_s: day_s / 96.0,
                },
            ],
            outage: None,
            straggle: None,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate values, naming the offending field.
    pub fn validate(&self) {
        assert!(
            self.day_s.is_finite() && self.day_s > 0.0,
            "TracePlan field `day_s`: must be finite and positive"
        );
        assert!(
            !self.classes.is_empty(),
            "TracePlan field `classes`: must name at least one device class"
        );
        for c in &self.classes {
            c.validate();
        }
        if let Some(o) = &self.outage {
            o.validate();
        }
        if let Some(s) = &self.straggle {
            s.validate();
        }
    }

    /// Client `k`'s device class under `seed` (stateless salted hash —
    /// the cohort-assignment mechanism of [`crate::topology`]).
    pub fn class_of(&self, seed: u64, k: usize) -> &TraceClass {
        let h = splitmix64(seed ^ SALT_TRACE ^ self.salt ^ (k as u64));
        &self.classes[(h % self.classes.len() as u64) as usize]
    }

    /// Client `k`'s availability at virtual time `clock_s`, in `[0, 1]`.
    pub fn availability(&self, seed: u64, k: usize, clock_s: f64) -> f64 {
        let c = self.class_of(seed, k);
        let phase = (clock_s / self.day_s - c.peak_frac).rem_euclid(1.0);
        (c.base + c.swing * TraceClass::wave(phase)).clamp(0.0, 1.0)
    }

    /// Whether client `k`, touched at version/round `v` with the clock at
    /// `clock_s`, is reachable: its per-`(version, client)` unit draw
    /// falls under the diurnal curve.
    pub fn participates(&self, seed: u64, v: usize, k: usize, clock_s: f64) -> bool {
        let h =
            splitmix64(seed ^ SALT_TRACE ^ self.salt ^ (v as u64).wrapping_mul(PHI) ^ (k as u64));
        salted_unit(h) < self.availability(seed, k, clock_s)
    }

    /// Client `k`'s outage region: the edge cohort on a hierarchical
    /// topology (a dark window takes the whole edge down), a synthetic
    /// hashed region on the flat one. `None` when outages are disabled.
    pub fn region_of(&self, seed: u64, topo: &TopologyConfig, k: usize) -> Option<usize> {
        let o = self.outage.as_ref()?;
        Some(if topo.is_hierarchical() {
            topo.cohort_of(seed, k)
        } else {
            (splitmix64(seed ^ SALT_OUTAGE ^ (k as u64)) % o.regions as u64) as usize
        })
    }

    /// Whether `region` is dark during window index `w`.
    fn dark(&self, seed: u64, region: usize, w: u64) -> bool {
        let o = self.outage.as_ref().expect("outage plan present");
        let h = splitmix64(seed ^ SALT_OUTAGE ^ self.salt ^ (region as u64).wrapping_mul(PHI) ^ w);
        salted_unit(h) < o.p
    }

    /// Whether client `k`'s region is dark at virtual time `t`.
    pub fn outage_at(&self, seed: u64, topo: &TopologyConfig, k: usize, t: f64) -> bool {
        let Some(region) = self.region_of(seed, topo, k) else {
            return false;
        };
        let o = self.outage.as_ref().expect("region implies outage plan");
        self.dark(seed, region, (t / o.window_s) as u64)
    }

    /// The first instant in `(from_s, to_s]` at which client `k`'s
    /// region goes dark — the onset that reclaims a mid-flight dispatch.
    /// (`from_s` itself is the caller's at-dispatch check.)
    pub fn first_outage_in(
        &self,
        seed: u64,
        topo: &TopologyConfig,
        k: usize,
        from_s: f64,
        to_s: f64,
    ) -> Option<f64> {
        let region = self.region_of(seed, topo, k)?;
        let o = self.outage.as_ref().expect("region implies outage plan");
        let first = (from_s / o.window_s) as u64 + 1;
        let last = (to_s / o.window_s) as u64;
        (first..=last)
            .find(|&w| self.dark(seed, region, w))
            .map(|w| w as f64 * o.window_s)
    }

    /// The timing-adversary latency multiplier for client `k` (1 when no
    /// straggle plan is set or the client is not flagged).
    pub fn straggle_factor(&self, seed: u64, k: usize) -> f64 {
        match &self.straggle {
            Some(s) if s.is_straggler(seed, k) => s.factor,
            _ => 1.0,
        }
    }
}

// --------------------------------------------------------------- run state

/// Why the trace plane lost a dispatch (recorded on the pending entry so
/// the reclaim is attributed to the right ledger counter, and so a
/// checkpoint taken mid-flight resumes with the same attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum TraceLoss {
    /// The client's diurnal draw said unreachable — the download was
    /// never delivered, so its cache entry stays valid.
    #[serde(rename = "unavail")]
    Unavailable,
    /// The client's region went dark (at dispatch or mid-flight).
    Outage,
}

/// Mutable trace-plane state of a live run: the per-client thermal map
/// plus the loss counters the next ledger record reports.
///
/// The thermal map is keyed deterministically (`BTreeMap`) and pruned as
/// clients cool, so it stays O(recently busy clients) — absent and cold
/// entries behave identically, which is what makes pruning free of
/// observable effect.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceState {
    /// `client -> (consecutive busy seconds, busy-until clock)`.
    thermal: BTreeMap<usize, (f64, f64)>,
    /// Dispatches lost to the diurnal curve since the last flush (async
    /// ledger reporting; the sync scheduler reports per round directly).
    pub unavailable: usize,
    /// Dispatches lost to dark windows since the last flush.
    pub outage_lost: usize,
}

impl TraceState {
    /// Fresh, cold state.
    pub fn new() -> TraceState {
        TraceState::default()
    }

    /// Client `k`'s thermal latency multiplier for a dispatch starting
    /// at `start_s` (reads the busy streak; does not accrue).
    pub fn throttle_mult(&self, plan: &TracePlan, seed: u64, k: usize, start_s: f64) -> f64 {
        let c = plan.class_of(seed, k);
        let streak = match self.thermal.get(&k) {
            Some(&(busy, end)) if start_s <= end + c.cooldown_s => busy,
            _ => 0.0,
        };
        let over = (streak - c.throttle_after_s).max(0.0);
        (1.0 + c.throttle_per_s * over).min(c.throttle_cap)
    }

    /// Accrues `dur_s` busy seconds for client `k` starting at
    /// `start_s` (extends the streak, or restarts it after a cooldown
    /// gap). Called only for dispatches whose device actually ran.
    pub fn note_busy(&mut self, plan: &TracePlan, seed: u64, k: usize, start_s: f64, dur_s: f64) {
        let c = plan.class_of(seed, k);
        let streak = match self.thermal.get(&k) {
            Some(&(busy, end)) if start_s <= end + c.cooldown_s => busy,
            _ => 0.0,
        };
        self.thermal.insert(k, (streak + dur_s, start_s + dur_s));
    }

    /// Applies the thermal multiplier (compute + data-access legs) and
    /// the timing-adversary factor (whole round trip) to `lat`,
    /// returning the scaled latency and whether any scaling applied.
    pub fn cost(
        &self,
        plan: &TracePlan,
        seed: u64,
        k: usize,
        start_s: f64,
        lat: ClientLatency,
    ) -> (ClientLatency, bool) {
        let m = self.throttle_mult(plan, seed, k, start_s);
        let f = plan.straggle_factor(seed, k);
        let out = ClientLatency {
            compute_s: lat.compute_s * m,
            data_access_s: lat.data_access_s * m,
            transfer_s: lat.transfer_s,
        }
        .scale(f);
        (out, m > 1.0 || f > 1.0)
    }

    /// Drops entries whose streak would reset anyway at clock `now_s` —
    /// cold and absent entries are indistinguishable, so pruning never
    /// changes results.
    pub fn prune(&mut self, plan: &TracePlan, seed: u64, now_s: f64) {
        self.thermal
            .retain(|&k, &mut (_, end)| now_s <= end + plan.class_of(seed, k).cooldown_s);
    }

    /// Snapshot for a checkpoint, paired with the plan it ran under.
    pub fn to_checkpoint(&self, plan: &TracePlan) -> TraceCheckpoint {
        TraceCheckpoint {
            plan: plan.clone(),
            thermal: self.thermal.iter().map(|(&k, &(b, e))| (k, b, e)).collect(),
            unavailable: self.unavailable,
            outage_lost: self.outage_lost,
        }
    }

    /// Restores run state from a checkpoint snapshot.
    pub fn from_checkpoint(ckpt: &TraceCheckpoint) -> TraceState {
        TraceState {
            thermal: ckpt.thermal.iter().map(|&(k, b, e)| (k, (b, e))).collect(),
            unavailable: ckpt.unavailable,
            outage_lost: ckpt.outage_lost,
        }
    }
}

// -------------------------------------------------------------- checkpoint

/// The trace plane as carried in a checkpoint: the plan (validated on
/// resume with a field-named mismatch panic) plus the thermal map and
/// in-progress loss counters. State fields serialize only when
/// non-trivial, so a cold checkpoint is just the plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceCheckpoint {
    /// The availability-trace policy the run was started with.
    pub plan: TracePlan,
    /// Thermal map rows, ascending by client:
    /// `(client, busy seconds, busy-until clock)`.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub thermal: Vec<(usize, f64, f64)>,
    /// Dispatches lost to the diurnal curve since the last flush.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub unavailable: usize,
    /// Dispatches lost to dark windows since the last flush.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub outage_lost: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_class(base: f64) -> TraceClass {
        TraceClass {
            base,
            swing: 0.0,
            peak_frac: 0.0,
            throttle_after_s: 10.0,
            throttle_per_s: 0.1,
            throttle_cap: 3.0,
            cooldown_s: 5.0,
        }
    }

    fn plan_with(classes: Vec<TraceClass>) -> TracePlan {
        TracePlan {
            day_s: 86_400.0,
            salt: 0,
            classes,
            outage: None,
            straggle: None,
        }
    }

    #[test]
    fn class_assignment_is_stateless_and_covers_all_classes() {
        let plan = plan_with(vec![flat_class(0.2), flat_class(0.5), flat_class(0.9)]);
        let mut seen = [false; 3];
        for k in 0..256 {
            let a = plan.class_of(7, k).base;
            assert_eq!(a, plan.class_of(7, k).base, "stateless hash");
            let idx = plan.classes.iter().position(|c| c.base == a).unwrap();
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s), "256 clients hit every class");
    }

    #[test]
    fn diurnal_curve_peaks_at_peak_frac_and_troughs_opposite() {
        let mut c = flat_class(0.5);
        c.swing = 0.4;
        c.peak_frac = 0.25;
        let plan = plan_with(vec![c]);
        let day = plan.day_s;
        let at = |t: f64| plan.availability(3, 0, t);
        assert!((at(0.25 * day) - 0.9).abs() < 1e-12, "peak = base + swing");
        assert!(
            (at(0.75 * day) - 0.1).abs() < 1e-12,
            "trough = base - swing"
        );
        // Periodic: one full day later the curve repeats exactly.
        assert_eq!(at(0.25 * day), at(1.25 * day));
    }

    #[test]
    fn participation_matches_curve_frequency() {
        let mut c = flat_class(0.8);
        c.swing = 0.0;
        let plan = plan_with(vec![c]);
        let n = 10_000;
        let hits = (0..n).filter(|&k| plan.participates(11, 0, k, 0.0)).count();
        let frac = hits as f64 / n as f64;
        assert!(
            (frac - 0.8).abs() < 0.02,
            "participation tracks availability: {frac}"
        );
    }

    #[test]
    fn throttle_kicks_in_after_threshold_and_caps() {
        let plan = plan_with(vec![flat_class(1.0)]);
        let mut st = TraceState::new();
        assert_eq!(st.throttle_mult(&plan, 1, 0, 0.0), 1.0, "cold device");
        // 30 busy seconds: 20 over the 10s threshold at 0.1/s → 3.0 = cap.
        st.note_busy(&plan, 1, 0, 0.0, 30.0);
        assert_eq!(st.throttle_mult(&plan, 1, 0, 30.0), 3.0, "capped");
        // 15 busy seconds from cold: 5 over threshold → 1.5.
        let mut st2 = TraceState::new();
        st2.note_busy(&plan, 1, 0, 0.0, 15.0);
        assert_eq!(st2.throttle_mult(&plan, 1, 0, 15.0), 1.5);
        // After the cooldown gap the streak resets.
        assert_eq!(st2.throttle_mult(&plan, 1, 0, 15.0 + 5.1), 1.0);
    }

    #[test]
    fn prune_drops_only_cold_entries() {
        let plan = plan_with(vec![flat_class(1.0)]);
        let mut st = TraceState::new();
        st.note_busy(&plan, 1, 0, 0.0, 4.0); // busy until 4, cold after 9
        st.note_busy(&plan, 1, 7, 0.0, 100.0); // busy until 100
        st.prune(&plan, 1, 50.0);
        assert_eq!(st.throttle_mult(&plan, 1, 0, 50.0), 1.0);
        assert!(st.thermal.contains_key(&7), "hot entry survives");
        assert!(!st.thermal.contains_key(&0), "cold entry pruned");
    }

    #[test]
    fn outage_windows_are_correlated_within_a_region() {
        let mut plan = plan_with(vec![flat_class(1.0)]);
        plan.outage = Some(OutagePlan {
            p: 0.5,
            window_s: 100.0,
            regions: 4,
        });
        let topo = TopologyConfig::single();
        // All clients of one region agree on every window.
        let region0: Vec<usize> = (0..64)
            .filter(|&k| plan.region_of(9, &topo, k) == Some(0))
            .collect();
        assert!(region0.len() > 1, "region 0 is populated");
        for w in 0..32 {
            let t = w as f64 * 100.0 + 50.0;
            let darks: Vec<bool> = region0
                .iter()
                .map(|&k| plan.outage_at(9, &topo, k, t))
                .collect();
            assert!(
                darks.iter().all(|&d| d == darks[0]),
                "window {w}: a region goes dark as one"
            );
        }
        // And some window is dark while another is not (p = 0.5).
        let any_dark = (0..32).any(|w| plan.outage_at(9, &topo, region0[0], w as f64 * 100.0));
        let any_up = (0..32).any(|w| !plan.outage_at(9, &topo, region0[0], w as f64 * 100.0));
        assert!(any_dark && any_up);
    }

    #[test]
    fn first_outage_scans_forward_only() {
        let mut plan = plan_with(vec![flat_class(1.0)]);
        plan.outage = Some(OutagePlan {
            p: 0.4,
            window_s: 10.0,
            regions: 1,
        });
        let topo = TopologyConfig::single();
        // Find a window w >= 1 that is dark; the scan from mid-window
        // w-1 must report exactly its onset.
        let dark_w = (1..200u64).find(|&w| plan.dark(5, 0, w)).unwrap();
        let from = (dark_w - 1) as f64 * 10.0 + 5.0;
        let onset = plan.first_outage_in(5, &topo, 0, from, from + 10.0);
        assert_eq!(onset, Some(dark_w as f64 * 10.0));
        // A scan that ends before the onset sees nothing.
        let prior = plan.first_outage_in(5, &topo, 0, from, dark_w as f64 * 10.0 - 0.5);
        assert_eq!(prior, None);
    }

    #[test]
    fn straggle_flags_match_attack_plan_cohort() {
        let straggle = StragglePlan {
            fraction: 0.25,
            salt: 42,
            factor: 3.0,
        };
        let attack = crate::byz::AttackPlan {
            fraction: 0.25,
            salt: 42,
            kind: crate::byz::AttackKind::SignFlip { scale: 1.0 },
        };
        for k in 0..512 {
            assert_eq!(
                straggle.is_straggler(77, k),
                attack.is_attacker(77, k),
                "same (fraction, salt) flags the same cohort"
            );
        }
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let mut plan = TracePlan::diurnal(86_400.0);
        plan.outage = Some(OutagePlan {
            p: 0.1,
            window_s: 3_600.0,
            regions: 8,
        });
        plan.straggle = Some(StragglePlan {
            fraction: 0.2,
            salt: 9,
            factor: 2.0,
        });
        plan.validate();
        let json = serde_json::to_string(&plan).unwrap();
        let back: TracePlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn checkpoint_omits_trivial_state() {
        let plan = TracePlan::diurnal(1_000.0);
        let cold = TraceState::new().to_checkpoint(&plan);
        let json = serde_json::to_string(&cold).unwrap();
        assert!(!json.contains("\"thermal\""));
        assert!(!json.contains("\"unavailable\""));
        assert!(!json.contains("\"outage_lost\""));
        let back: TraceCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(cold, back);
        // Hot state round-trips exactly.
        let mut st = TraceState::new();
        st.note_busy(&plan, 1, 3, 0.0, 12.0);
        st.unavailable = 2;
        let hot = st.to_checkpoint(&plan);
        let json = serde_json::to_string(&hot).unwrap();
        let back: TraceCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(TraceState::from_checkpoint(&back), st);
    }

    #[test]
    #[should_panic(expected = "TracePlan field `day_s`")]
    fn zero_day_rejected() {
        let mut plan = TracePlan::diurnal(86_400.0);
        plan.day_s = 0.0;
        plan.validate();
    }

    #[test]
    #[should_panic(expected = "TraceClass field `throttle_cap`")]
    fn sub_unit_throttle_cap_rejected() {
        let mut c = flat_class(0.5);
        c.throttle_cap = 0.5;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "OutagePlan field `p`")]
    fn certain_outage_rejected() {
        OutagePlan {
            p: 1.0,
            window_s: 10.0,
            regions: 1,
        }
        .validate();
    }
}
