//! The Byzantine-client plane: seeded hostile clients and robust
//! server-side aggregation.
//!
//! Large fleets contain misbehaving workers — compromised, buggy, or
//! actively adversarial. This module injects them through the **existing
//! dispatch path** and defends the server with pluggable robust rules,
//! without either scheduler learning anything about attacks:
//!
//! * [`AttackPlan`] flags a seeded fraction of the fleet as hostile by a
//!   stateless salted hash (`fp_hwsim::splitmix64`, the same mechanism
//!   that assigns cohorts in [`crate::topology`]): no membership table,
//!   any client's disposition computable in isolation, deterministic in
//!   `(seed, salt, client)`.
//! * [`AttackKind`] corrupts a flagged client's uplink update vector —
//!   sign flips reflected about the dispatched parameters, seeded
//!   Gaussian noise, or *targeted* poisoning that drags the update toward
//!   an attacker-chosen point inside a stealth ball
//!   ([`fp_attack::poison_params`], the PGD machinery turned on
//!   parameter space).
//! * [`RobustRule`] replaces the server's plain weighted merge:
//!   coordinate-wise trimmed mean or norm-clipped multi-Krum (FedAvg
//!   stays available as the exact passthrough). The rule slots into
//!   [`ScheduledTrainer::merge_weighted`], so it composes with
//!   **whatever weights the scheduler computed** — in the async buffer
//!   that means the rule sees the staleness-discounted weights of each
//!   flush, defending and discounting in one pass.
//!
//! [`ByzTrainer`] wraps any trainer whose updates are flat parameter
//! vectors and whose merge is a weighted average of them (the
//! [`crate::SyntheticTrainer`] contract). Everything stays a pure
//! function of `(seed, version, client)`: attacks draw from
//! domain-separated RNG streams and the rules break ties by client
//! order, so ledgers, checkpoints, and final models remain bit-identical
//! across 1/2/4 worker threads. With [`RobustRule::FedAvg`] and no
//! (effective) attackers the wrapper is exactly the inner trainer —
//! ledgers and checkpoints byte-for-byte, which is what keeps every
//! pre-Byzantine golden meaningful.

use crate::aggregate::{clip_to_median_norm, krum_scores, trimmed_mean};
use crate::engine::FlEnv;
use crate::sched::ScheduledTrainer;
use fp_attack::NormBall;
use fp_hwsim::{salted_unit, splitmix64, LatencyModel, PayloadSpec};
use fp_nn::CascadeModel;
use fp_tensor::{BackendHandle, Tensor};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Domain-separation salt for attacker flagging and noise streams.
pub const SALT_ATTACK: u64 = 0xBAD_C117;

// ------------------------------------------------------------------ attacks

/// How a flagged client corrupts its uplink update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum AttackKind {
    /// Reflects the honest update about the dispatched parameters,
    /// amplified: `u' = p + scale·(p − u)`. The classic sign-flip /
    /// gradient-reversal attack, expressed on parameter-vector updates.
    SignFlip {
        /// Amplification factor (1 = pure reflection).
        scale: f32,
    },
    /// Adds seeded Gaussian noise: `u' = u + σ·z`, with `z` drawn from
    /// the per-`(version, client)` stream — same dispatch, same noise,
    /// at any thread count.
    GaussNoise {
        /// Noise standard deviation.
        sigma: f32,
    },
    /// Targeted poisoning: PGD steps in parameter space toward the null
    /// model (all-zero parameters), constrained to an ℓ∞ ball of radius
    /// `eps` around the honest update — stealthy by construction, it
    /// survives norm-based defenses and must be caught geometrically.
    Targeted {
        /// Stealth-ball radius around the honest update.
        eps: f32,
        /// PGD steps toward the target.
        steps: usize,
    },
}

impl AttackKind {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate values.
    pub fn validate(&self) {
        match *self {
            AttackKind::SignFlip { scale } => {
                assert!(
                    scale.is_finite() && scale > 0.0,
                    "AttackKind field `scale`: must be finite and positive"
                );
            }
            AttackKind::GaussNoise { sigma } => {
                assert!(
                    sigma.is_finite() && sigma > 0.0,
                    "AttackKind field `sigma`: must be finite and positive"
                );
            }
            AttackKind::Targeted { eps, steps } => {
                assert!(
                    eps.is_finite() && eps > 0.0,
                    "AttackKind field `eps`: must be finite and positive"
                );
                assert!(steps > 0, "AttackKind field `steps`: must be >= 1");
            }
        }
    }

    /// Corrupts `update` in place, as client `k` reporting against model
    /// version `t`. `dispatched` is the server state's deployable model
    /// at dispatch time (the reflection point for sign flips).
    pub fn corrupt(
        &self,
        env: &FlEnv,
        dispatched: &CascadeModel,
        t: usize,
        k: usize,
        update: &mut Vec<f32>,
    ) {
        match *self {
            AttackKind::SignFlip { scale } => {
                let p = dispatched.flat_params();
                if p.len() == update.len() {
                    for (u, &pv) in update.iter_mut().zip(&p) {
                        *u = pv + scale * (pv - *u);
                    }
                } else {
                    // Sub-model payloads have no aligned reflection
                    // point; flip about the origin instead.
                    for u in update.iter_mut() {
                        *u *= -scale;
                    }
                }
            }
            AttackKind::GaussNoise { sigma } => {
                let mut rng = env.client_rng(t, k, SALT_ATTACK);
                let noise = Tensor::randn(&[update.len()], sigma, &mut rng);
                for (u, &z) in update.iter_mut().zip(noise.data()) {
                    *u += z;
                }
            }
            AttackKind::Targeted { eps, steps } => {
                let target = vec![0.0f32; update.len()];
                *update = fp_attack::poison_params(update, &target, NormBall::Linf(eps), steps);
            }
        }
    }
}

/// The seeded hostile-client plan: which fraction of the fleet is
/// flagged, under which salt, doing what.
///
/// Flagging mirrors cohort assignment in [`crate::topology`]: client `k`
/// is an attacker iff the salted hash of `(seed, salt, k)` maps below
/// `fraction` — stateless, order-free, and independent of fleet size, so
/// the same clients are hostile whether they are dispatched by the sync
/// scheduler, the async scheduler, or behind an edge aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackPlan {
    /// Expected fraction of the fleet that is hostile, in `[0, 1]`.
    pub fraction: f64,
    /// Plan salt: different salts flag different (independent) subsets
    /// under the same master seed.
    pub salt: u64,
    /// What flagged clients do to their updates.
    pub kind: AttackKind,
}

impl AttackPlan {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate values.
    pub fn validate(&self) {
        assert!(
            self.fraction.is_finite() && (0.0..=1.0).contains(&self.fraction),
            "AttackPlan field `fraction`: must be in [0, 1]"
        );
        self.kind.validate();
    }

    /// Whether client `k` is flagged hostile under `seed`.
    pub fn is_attacker(&self, seed: u64, k: usize) -> bool {
        salted_unit(splitmix64(seed ^ SALT_ATTACK ^ self.salt ^ (k as u64))) < self.fraction
    }

    /// The flagged clients among `0..n` (ascending), for tests and
    /// reports.
    pub fn attackers(&self, seed: u64, n: usize) -> Vec<usize> {
        (0..n).filter(|&k| self.is_attacker(seed, k)).collect()
    }
}

// ------------------------------------------------------------ robust rules

/// Why the robust rule removed a client's update from a merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FilterReason {
    /// Multi-Krum scored the update an outlier (far from its nearest
    /// peers).
    Krum,
    /// The trimmed mean discarded the update on a majority of
    /// coordinates.
    Trimmed,
}

impl FilterReason {
    /// Stable string form, as serialized in ledgers.
    pub fn as_str(&self) -> &'static str {
        match self {
            FilterReason::Krum => "krum",
            FilterReason::Trimmed => "trimmed",
        }
    }
}

/// One client the robust rule filtered out of a merge, with the reason —
/// the ledger evidence trail (`SchedRound::filtered`,
/// `AsyncAggRecord::filtered`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilteredClient {
    /// The filtered client.
    pub client: usize,
    /// Why its update was removed.
    pub reason: FilterReason,
}

/// Bookkeeping of one robust merge: who was filtered and why, and how
/// many updates had their norm clipped. Trivial (empty / zero) under
/// plain FedAvg — and then omitted from every serialized ledger record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RobustStats {
    /// Clients whose updates the rule removed, in merge order.
    pub filtered: Vec<FilteredClient>,
    /// Updates whose norm was clipped before scoring.
    pub clip_applied: usize,
}

impl RobustStats {
    /// Whether there is nothing to report (the serialized fields are
    /// omitted).
    pub fn is_trivial(&self) -> bool {
        self.filtered.is_empty() && self.clip_applied == 0
    }
}

/// What [`RobustRule::apply`] hands the inner merge: the surviving
/// `(client, update)` pairs, their weights, and the evidence trail.
pub type RuleOutcome = (Vec<(usize, Vec<f32>)>, Vec<f32>, RobustStats);

/// The server's aggregation rule — how a buffer of (possibly hostile)
/// weighted updates becomes one merge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "rule", rename_all = "snake_case")]
pub enum RobustRule {
    /// Plain weighted FedAvg: the exact passthrough. A [`ByzTrainer`]
    /// under this rule merges bit-identically to its inner trainer.
    FedAvg,
    /// Coordinate-wise trimmed mean: per coordinate, drop the
    /// `⌊trim·n⌋` lowest and highest values, average the survivors with
    /// their weights. A client trimmed on a strict majority of
    /// coordinates is reported filtered.
    TrimmedMean {
        /// Fraction trimmed from each end, in `[0, 0.5)`.
        trim: f64,
    },
    /// Norm-clipped multi-Krum: every update is first clipped to
    /// `clip × median norm`, then Krum-scored assuming at most `f`
    /// hostile updates, and only the `m` best-scored survive into the
    /// merge. Degenerate buffers (`n ≤ f + 2` or `m ≥ n`) fall back to
    /// merging everyone — clipped, but unfiltered — so a merge is never
    /// empty.
    MultiKrum {
        /// Assumed upper bound on hostile updates per merge.
        f: usize,
        /// Updates selected into the merge.
        m: usize,
        /// Norm-clip threshold as a multiple of the median norm.
        clip: f64,
    },
}

impl RobustRule {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate values.
    pub fn validate(&self) {
        match *self {
            RobustRule::FedAvg => {}
            RobustRule::TrimmedMean { trim } => {
                assert!(
                    trim.is_finite() && (0.0..0.5).contains(&trim),
                    "RobustRule field `trim`: must be in [0, 0.5)"
                );
            }
            RobustRule::MultiKrum { m, clip, .. } => {
                assert!(
                    m >= 1,
                    "RobustRule field `m`: must select at least one update"
                );
                assert!(
                    clip.is_finite() && clip > 0.0,
                    "RobustRule field `clip`: must be finite and positive"
                );
            }
        }
    }

    /// Applies the rule to one merge's updates and weights, returning
    /// what the inner trainer should actually merge plus the evidence
    /// trail. Pure and deterministic: ties break by merge order.
    ///
    /// The trimmed mean collapses the buffer into a single robust vector
    /// (weight 1 — the inner merge renormalizes); Krum forwards the
    /// surviving subset with its original weights, which is how the rule
    /// composes with staleness discounts instead of replacing them.
    pub fn apply(&self, updates: Vec<(usize, Vec<f32>)>, weights: &[f32]) -> RuleOutcome {
        match *self {
            RobustRule::FedAvg => (updates, weights.to_vec(), RobustStats::default()),
            RobustRule::TrimmedMean { trim } => {
                let n = updates.len();
                let g = ((trim * n as f64).floor() as usize).min((n - 1) / 2);
                if g == 0 {
                    return (updates, weights.to_vec(), RobustStats::default());
                }
                let dim = updates[0].1.len();
                let (robust, counts) = trimmed_mean(&updates, weights, g);
                let filtered: Vec<FilteredClient> = updates
                    .iter()
                    .zip(&counts)
                    .filter(|(_, &c)| 2 * c > dim)
                    .map(|((k, _), _)| FilteredClient {
                        client: *k,
                        reason: FilterReason::Trimmed,
                    })
                    .collect();
                let anchor = updates[0].0;
                (
                    vec![(anchor, robust)],
                    vec![1.0],
                    RobustStats {
                        filtered,
                        clip_applied: 0,
                    },
                )
            }
            RobustRule::MultiKrum { f, m, clip } => {
                let mut updates = updates;
                let clip_applied = clip_to_median_norm(&mut updates, clip);
                let n = updates.len();
                if n <= f + 2 || m >= n {
                    return (
                        updates,
                        weights.to_vec(),
                        RobustStats {
                            filtered: Vec::new(),
                            clip_applied,
                        },
                    );
                }
                let scores = krum_scores(&updates, f);
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
                let mut keep = vec![false; n];
                for &i in &order[..m] {
                    keep[i] = true;
                }
                let mut selected = Vec::with_capacity(m);
                let mut sel_weights = Vec::with_capacity(m);
                let mut filtered = Vec::with_capacity(n - m);
                for (i, entry) in updates.into_iter().enumerate() {
                    if keep[i] {
                        sel_weights.push(weights[i]);
                        selected.push(entry);
                    } else {
                        filtered.push(FilteredClient {
                            client: entry.0,
                            reason: FilterReason::Krum,
                        });
                    }
                }
                (
                    selected,
                    sel_weights,
                    RobustStats {
                        filtered,
                        clip_applied,
                    },
                )
            }
        }
    }
}

/// The full Byzantine policy a run executes under: the server's rule and
/// the fleet's attack plan. Checkpoints carry it (under the optional
/// `byz` key, absent for trivial policies) and resume validates it, so a
/// checkpoint can never silently continue under different threat rules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ByzPolicy {
    /// The server's aggregation rule.
    pub rule: RobustRule,
    /// The fleet's attack plan, if any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub plan: Option<AttackPlan>,
}

// ----------------------------------------------------------------- wrapper

/// Wraps a flat-vector trainer with a hostile-client plane and a robust
/// aggregation rule.
///
/// The wrapper intercepts exactly two hooks: [`ScheduledTrainer::train`]
/// (corrupting flagged clients' uplink vectors) and
/// [`ScheduledTrainer::merge_weighted`] (applying the rule to the buffer
/// the scheduler assembled, staleness discounts included). Costing,
/// payload specs, and the communication plane pass through untouched, so
/// dispatch timing and wire traffic are identical to the honest run —
/// an attacker corrupts *content*, not *timing*.
///
/// Requires `Update = Vec<f32>` and a merge that is a weighted average
/// of those vectors (the [`crate::SyntheticTrainer`] contract): the
/// trimmed mean substitutes a single pre-aggregated vector, which is
/// only sound for linear merges.
#[derive(Debug)]
pub struct ByzTrainer<T> {
    /// The honest trainer being wrapped.
    pub inner: T,
    /// The server's aggregation rule.
    pub rule: RobustRule,
    /// The fleet's attack plan, if any.
    pub plan: Option<AttackPlan>,
    /// Evidence trail of the most recent merge, drained by the
    /// schedulers into the ledger (interior mutability:
    /// `merge_weighted` takes `&self`).
    stats: Mutex<RobustStats>,
}

impl<T: Clone> Clone for ByzTrainer<T> {
    fn clone(&self) -> Self {
        // Stats are per-merge scratch, not configuration: clones start
        // with a clean trail.
        ByzTrainer {
            inner: self.inner.clone(),
            rule: self.rule,
            plan: self.plan,
            stats: Mutex::new(RobustStats::default()),
        }
    }
}

impl<T> ByzTrainer<T> {
    /// Wraps `inner` under `rule` and an optional attack `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the rule or plan is invalid.
    pub fn new(inner: T, rule: RobustRule, plan: Option<AttackPlan>) -> Self {
        rule.validate();
        if let Some(p) = &plan {
            p.validate();
        }
        ByzTrainer {
            inner,
            rule,
            plan,
            stats: Mutex::new(RobustStats::default()),
        }
    }

    /// The policy this wrapper enforces, in checkpoint form — `None`
    /// when trivially honest (FedAvg rule and no effective attackers),
    /// which is what keeps such checkpoints byte-identical to the
    /// unwrapped trainer's.
    pub fn policy(&self) -> Option<ByzPolicy> {
        let attackers = self.plan.is_some_and(|p| p.fraction > 0.0);
        if self.rule == RobustRule::FedAvg && !attackers {
            return None;
        }
        Some(ByzPolicy {
            rule: self.rule,
            plan: self.plan,
        })
    }
}

impl<T> ScheduledTrainer for ByzTrainer<T>
where
    T: ScheduledTrainer<Update = Vec<f32>>,
{
    type Update = Vec<f32>;
    type ServerState = T::ServerState;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cost(&self, env: &FlEnv, t: usize, k: usize) -> LatencyModel {
        self.inner.cost(env, t, k)
    }

    fn payload_spec(&self, env: &FlEnv, t: usize, k: usize) -> PayloadSpec {
        self.inner.payload_spec(env, t, k)
    }

    fn payload_params(
        &self,
        env: &FlEnv,
        state: &Self::ServerState,
        t: usize,
        k: usize,
    ) -> Vec<f32> {
        self.inner.payload_params(env, state, t, k)
    }

    fn init(&self, env: &FlEnv) -> Self::ServerState {
        self.inner.init(env)
    }

    fn global_model<'a>(&self, state: &'a Self::ServerState) -> &'a CascadeModel {
        self.inner.global_model(state)
    }

    fn global_model_mut<'a>(&self, state: &'a mut Self::ServerState) -> &'a mut CascadeModel {
        self.inner.global_model_mut(state)
    }

    fn train(
        &self,
        env: &FlEnv,
        state: &Self::ServerState,
        t: usize,
        k: usize,
        lr: f32,
        backend: BackendHandle,
    ) -> (Vec<f32>, f32) {
        let (mut update, loss) = self.inner.train(env, state, t, k, lr, backend);
        if let Some(plan) = &self.plan {
            if plan.is_attacker(env.cfg.seed, k) {
                plan.kind
                    .corrupt(env, self.inner.global_model(state), t, k, &mut update);
            }
        }
        // The reported loss stays honest: attackers hide in plain sight,
        // which is exactly what the geometric rules must catch.
        (update, loss)
    }

    fn merge_weighted(
        &self,
        env: &FlEnv,
        state: &mut Self::ServerState,
        t: usize,
        updates: Vec<(usize, Vec<f32>)>,
        weights: &[f32],
    ) {
        let (fwd, fwd_weights, stats) = self.rule.apply(updates, weights);
        *self.stats.lock().expect("byz stats lock") = stats;
        self.inner.merge_weighted(env, state, t, fwd, &fwd_weights);
    }

    fn byz_policy(&self) -> Option<ByzPolicy> {
        self.policy()
    }

    fn take_robust_stats(&self) -> RobustStats {
        std::mem::take(&mut *self.stats.lock().expect("byz stats lock"))
    }

    // The quantization plane passes through: `ByzTrainer<QuantTrainer<T>>`
    // corrupts the already-quantized update (what a hostile client would
    // actually put on the wire), and the robust rule sees what the wire
    // saw.

    fn quant_policy(&self) -> Option<crate::quant::QuantConfig> {
        self.inner.quant_policy()
    }

    fn quant_up_bytes(&self, spec: &PayloadSpec) -> Option<u64> {
        self.inner.quant_up_bytes(spec)
    }

    fn quant_invalidate(&self, k: usize, cause: crate::quant::QuantLoss) {
        self.inner.quant_invalidate(k, cause);
    }

    fn quant_state(&self) -> Option<crate::quant::QuantState> {
        self.inner.quant_state()
    }

    fn restore_quant(&self, state: &crate::quant::QuantState) {
        self.inner.restore_quant(state);
    }

    fn reset_quant(&self) {
        self.inner.reset_quant();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_plan_is_a_stateless_seeded_fraction() {
        let plan = AttackPlan {
            fraction: 0.25,
            salt: 7,
            kind: AttackKind::SignFlip { scale: 1.0 },
        };
        let a = plan.attackers(42, 10_000);
        assert_eq!(a, plan.attackers(42, 10_000), "stateless hash");
        let share = a.len() as f64 / 10_000.0;
        assert!((share - 0.25).abs() < 0.02, "fraction off: {share}");
        // A different salt flags a (mostly) different subset.
        let other = AttackPlan { salt: 8, ..plan }.attackers(42, 10_000);
        let overlap = a.iter().filter(|k| other.binary_search(k).is_ok()).count();
        assert!(
            overlap < a.len() / 2,
            "salts must decorrelate plans: {overlap}"
        );
        // Zero fraction flags nobody; full fraction flags everybody.
        let none = AttackPlan {
            fraction: 0.0,
            ..plan
        };
        assert!(none.attackers(42, 1_000).is_empty());
        let all = AttackPlan {
            fraction: 1.0,
            ..plan
        };
        assert_eq!(all.attackers(42, 100).len(), 100);
    }

    #[test]
    fn fedavg_rule_is_exact_passthrough() {
        let updates = vec![(2, vec![1.0f32, 2.0]), (5, vec![3.0, 4.0])];
        let weights = [0.3f32, 0.7];
        let (fwd, w, stats) = RobustRule::FedAvg.apply(updates.clone(), &weights);
        assert_eq!(fwd, updates);
        assert_eq!(w, weights);
        assert!(stats.is_trivial());
    }

    #[test]
    fn krum_filters_the_poisoned_update_and_reports_it() {
        let rule = RobustRule::MultiKrum {
            f: 1,
            m: 3,
            clip: 2.0,
        };
        let updates = vec![
            (1, vec![1.0f32, 1.0]),
            (3, vec![1.1, 0.9]),
            (4, vec![0.9, 1.0]),
            (9, vec![-40.0, 40.0]),
        ];
        let (fwd, w, stats) = rule.apply(updates, &[1.0; 4]);
        assert_eq!(fwd.len(), 3);
        assert_eq!(w.len(), 3);
        assert!(fwd.iter().all(|(k, _)| *k != 9), "client 9 filtered");
        assert_eq!(
            stats.filtered,
            vec![FilteredClient {
                client: 9,
                reason: FilterReason::Krum
            }]
        );
        // The inflated norm was clipped before scoring.
        assert_eq!(stats.clip_applied, 1);
    }

    #[test]
    fn krum_degenerate_buffer_falls_back_to_everyone() {
        let rule = RobustRule::MultiKrum {
            f: 2,
            m: 2,
            clip: 10.0,
        };
        let updates = vec![(0, vec![1.0f32]), (1, vec![2.0])];
        let (fwd, _, stats) = rule.apply(updates, &[1.0; 2]);
        assert_eq!(fwd.len(), 2, "n <= f + 2 must not filter");
        assert!(stats.filtered.is_empty());
    }

    #[test]
    fn trimmed_mean_reports_majority_trimmed_clients() {
        let rule = RobustRule::TrimmedMean { trim: 0.25 };
        let updates = vec![
            (0, vec![1.0f32, 1.0]),
            (2, vec![1.1, 0.9]),
            (5, vec![0.9, 1.1]),
            (7, vec![90.0, 90.0]),
        ];
        let (fwd, w, stats) = rule.apply(updates, &[1.0; 4]);
        assert_eq!(fwd.len(), 1, "trimmed mean collapses the buffer");
        assert_eq!(w, vec![1.0]);
        assert!(fwd[0].1[0] < 2.0, "poison trimmed: {}", fwd[0].1[0]);
        assert_eq!(
            stats.filtered,
            vec![FilteredClient {
                client: 7,
                reason: FilterReason::Trimmed
            }]
        );
    }

    #[test]
    fn serde_round_trips_policy_plan_and_stats_types() {
        let policy = ByzPolicy {
            rule: RobustRule::MultiKrum {
                f: 2,
                m: 4,
                clip: 2.0,
            },
            plan: Some(AttackPlan {
                fraction: 0.2,
                salt: 99,
                kind: AttackKind::Targeted {
                    eps: 0.05,
                    steps: 5,
                },
            }),
        };
        let json = serde_json::to_string(&policy).unwrap();
        let back: ByzPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, policy);
        let trivial = ByzPolicy {
            rule: RobustRule::FedAvg,
            plan: None,
        };
        let json = serde_json::to_string(&trivial).unwrap();
        assert!(!json.contains("plan"), "absent plan stays absent: {json}");
        assert_eq!(serde_json::from_str::<ByzPolicy>(&json).unwrap(), trivial);
        let f = FilteredClient {
            client: 12,
            reason: FilterReason::Krum,
        };
        let json = serde_json::to_string(&vec![f]).unwrap();
        assert_eq!(json, r#"[{"client":12,"reason":"krum"}]"#);
        assert_eq!(
            serde_json::from_str::<Vec<FilteredClient>>(&json).unwrap(),
            vec![f]
        );
    }
}
