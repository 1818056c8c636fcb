//! Knowledge-distillation baselines: FedDF-AT and FedET-AT.
//!
//! These were the last algorithms on the old lockstep loop: their server
//! state is a **model zoo** (one persistent prototype per architecture)
//! plus the distillation temperature schedule, which the single-model
//! trainer contract could not express. They now implement
//! [`ScheduledTrainer`] directly with [`DistillState`] as the server
//! state, so they run under the event-driven sync scheduler (straggler
//! deadlines, dropout, over-selection, per-round ledger) and the
//! barrier-free async loop (staleness-discounted zoo averaging at flush)
//! with mid-flight checkpoint/resume — and the wait-all default
//! reproduces the retired lockstep loop bit-for-bit (pinned in
//! `tests/distill_sched_e2e.rs`).

use super::{fedavg_into, init_global};
use crate::engine::{FlAlgorithm, FlEnv};
use crate::local::{local_train, LocalTrainConfig};
use crate::metrics::FlOutcome;
use crate::sched::{EventScheduler, SchedConfig, ScheduledTrainer};
use fp_attack::PgdConfig;
use fp_hwsim::{forward_macs, model_mem_req, param_transfer_bytes, TrainingPassProfile};
use fp_nn::checkpoint::Checkpoint;
use fp_nn::spec::AtomSpec;
use fp_nn::{CascadeModel, Mode, Sgd};
use fp_tensor::{seeded_rng, softmax_rows, Tensor};
use serde::{Deserialize, Serialize};

/// Which ensemble-transfer rule the server uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistillVariant {
    /// FedDF (Lin et al. 2020): uniform average of teacher logits.
    FedDf,
    /// FedET (Cho et al. 2022): confidence-weighted ensemble — each
    /// teacher's per-sample weight is proportional to its prediction
    /// confidence (inverse-entropy; a simplification of FedET's
    /// uncertainty weighting, recorded in DESIGN.md).
    FedEt,
}

/// The distillation baselines' server state: the global (student) model,
/// the per-architecture zoo prototypes the clients train, and the current
/// distillation temperature. Everything the server mutates across rounds
/// lives here, so a between-round checkpoint resumes the zoo and the
/// temperature schedule exactly — not just the student.
#[derive(Debug, Clone)]
pub struct DistillState {
    /// The large global model updated by ensemble distillation.
    pub student: CascadeModel,
    /// One persistent prototype per zoo architecture (ascending memory).
    pub zoo: Vec<CascadeModel>,
    /// Current softmax temperature τ of the transfer step.
    pub temperature: f32,
}

// Hand-written: converts the live models to and from their `Checkpoint`s.
impl Serialize for DistillState {
    fn serialize(&self) -> serde::Value {
        serde::Value::Map(vec![
            (
                "student".to_string(),
                Checkpoint::capture(&self.student).serialize(),
            ),
            (
                "zoo".to_string(),
                serde::Value::Seq(
                    self.zoo
                        .iter()
                        .map(|m| Checkpoint::capture(m).serialize())
                        .collect(),
                ),
            ),
            ("temperature".to_string(), self.temperature.serialize()),
        ])
    }
}

impl Deserialize for DistillState {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        const TY: &str = "DistillState";
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for DistillState"))?;
        let student = Checkpoint::deserialize(serde::map_field(m, "student", TY)?)?
            .restore()
            .map_err(serde::Error::custom)?;
        let zoo = serde::map_field(m, "zoo", TY)?
            .as_seq()
            .ok_or_else(|| serde::Error::custom("expected sequence for DistillState zoo"))?
            .iter()
            .map(|c| {
                Checkpoint::deserialize(c)?
                    .restore()
                    .map_err(serde::Error::custom)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DistillState {
            student,
            zoo,
            temperature: Deserialize::deserialize(serde::map_field(m, "temperature", TY)?)?,
        })
    }
}

/// Knowledge-distillation FAT: each client trains the **largest zoo model
/// that fits its memory budget** (Appendix B.2: {CNN3, VGG11, VGG13,
/// VGG16}); same-architecture models are FedAvg'd (staleness-discounted
/// under the async scheduler), and the large global model is updated by
/// ensemble distillation on a public dataset (we use the validation split
/// as the public set) at the state's current temperature.
#[derive(Debug, Clone)]
pub struct Distill {
    /// Ensemble rule.
    pub variant: DistillVariant,
    /// Zoo of architectures, ascending by memory requirement. The last
    /// entry must be the reference (large) architecture.
    pub zoo: Vec<Vec<AtomSpec>>,
    /// Distillation iterations per round (paper §B.4: 128).
    pub distill_iters: usize,
    /// Initial softmax temperature τ₀ of the transfer step. `1.0` (the
    /// default) reproduces the historical un-softened ensemble exactly.
    pub temperature0: f32,
    /// Per-aggregation multiplicative temperature decay, floored at 1.0
    /// (anneal from soft early-round targets toward plain softmax).
    pub temperature_decay: f32,
}

impl Distill {
    /// Creates a distillation baseline with the given zoo and the
    /// historical temperature schedule (τ ≡ 1, i.e. no softening).
    ///
    /// # Panics
    ///
    /// Panics if the zoo is empty.
    pub fn new(variant: DistillVariant, zoo: Vec<Vec<AtomSpec>>, distill_iters: usize) -> Self {
        assert!(!zoo.is_empty(), "zoo must not be empty");
        Distill {
            variant,
            zoo,
            distill_iters,
            temperature0: 1.0,
            temperature_decay: 1.0,
        }
    }

    /// Sets an annealed temperature schedule: τ starts at `t0` and is
    /// multiplied by `decay` after every aggregation, floored at 1.0.
    ///
    /// # Panics
    ///
    /// Panics on a τ₀ below 1 or a decay outside (0, 1].
    pub fn with_temperature(mut self, t0: f32, decay: f32) -> Self {
        assert!(t0 >= 1.0, "temperature0 must be >= 1");
        assert!(
            decay > 0.0 && decay <= 1.0,
            "temperature_decay must be in (0, 1]"
        );
        self.temperature0 = t0;
        self.temperature_decay = decay;
        self
    }

    /// The zoo index client `k` trains: the largest architecture that
    /// fits its memory budget, the smallest as fallback. A pure function
    /// of the static budgets, shared by `cost` and `train` (recomputed
    /// per call — `model_mem_req` is a handful of integer ops per spec).
    fn fit_arch(&self, env: &FlEnv, k: usize) -> usize {
        self.zoo
            .iter()
            .map(|s| model_mem_req(s, &env.input_shape, env.cfg.batch_size).total())
            .rposition(|m| m <= env.mem_budget(k))
            .unwrap_or(0)
    }
}

impl ScheduledTrainer for Distill {
    /// `(zoo architecture index, trained local model)`.
    type Update = (usize, CascadeModel);
    type ServerState = DistillState;

    fn name(&self) -> &'static str {
        match self.variant {
            DistillVariant::FedDf => "FedDF-AT",
            DistillVariant::FedEt => "FedET-AT",
        }
    }

    fn cost(&self, env: &FlEnv, _t: usize, k: usize) -> fp_hwsim::LatencyModel {
        // Each dispatch ships the client's own zoo member down and its
        // update back up — so a CNN3 client pays CNN3 bytes and MACs, not
        // the reference model's (the bytes ride in via `payload_spec`).
        let specs = &self.zoo[self.fit_arch(env, k)];
        fp_hwsim::LatencyModel {
            mem_req_bytes: model_mem_req(specs, &env.input_shape, env.cfg.batch_size).total(),
            fwd_macs_per_sample: forward_macs(specs, &env.input_shape),
            batch: env.cfg.batch_size,
            profile: TrainingPassProfile::adversarial(env.cfg.pgd_steps),
        }
    }

    fn payload_spec(&self, env: &FlEnv, _t: usize, k: usize) -> fp_hwsim::PayloadSpec {
        // The payload is the client's fitted zoo prototype; its shape is
        // the architecture index, so a client whose prototype went
        // untouched since its last dispatch (no same-arch client merged)
        // gets a near-empty delta.
        let arch = self.fit_arch(env, k);
        fp_hwsim::PayloadSpec::window(
            param_transfer_bytes(&self.zoo[arch]),
            0xD15_7111 ^ (arch as u64 + 1),
        )
    }

    fn payload_params(&self, env: &FlEnv, state: &DistillState, _t: usize, k: usize) -> Vec<f32> {
        state.zoo[self.fit_arch(env, k)].flat_params()
    }

    fn init(&self, env: &FlEnv) -> DistillState {
        let cfg = &env.cfg;
        let n_classes = env.data.train.n_classes();
        DistillState {
            student: init_global(env),
            zoo: self
                .zoo
                .iter()
                .enumerate()
                .map(|(i, specs)| {
                    let mut rng = seeded_rng(cfg.seed ^ 0x200 ^ i as u64);
                    fp_nn::models::instantiate(specs, &env.input_shape, n_classes, &mut rng)
                })
                .collect(),
            temperature: self.temperature0,
        }
    }

    fn global_model<'a>(&self, state: &'a DistillState) -> &'a CascadeModel {
        &state.student
    }

    fn global_model_mut<'a>(&self, state: &'a mut DistillState) -> &'a mut CascadeModel {
        &mut state.student
    }

    fn train(
        &self,
        env: &FlEnv,
        state: &DistillState,
        t: usize,
        k: usize,
        lr: f32,
        backend: fp_tensor::BackendHandle,
    ) -> (Self::Update, f32) {
        let cfg = &env.cfg;
        let arch = self.fit_arch(env, k);
        let mut model = state.zoo[arch].clone();
        model.set_backend(&backend);
        let ltc = LocalTrainConfig {
            iters: cfg.local_iters,
            batch_size: cfg.batch_size,
            lr,
            momentum: cfg.momentum,
            weight_decay: cfg.weight_decay,
            pgd: Some(PgdConfig {
                steps: cfg.pgd_steps,
                ..PgdConfig::train_linf(cfg.eps0)
            }),
            seed: cfg.seed ^ (t as u64) << 24 ^ k as u64,
        };
        let loss = local_train(&mut model, &env.data.train, &env.splits[k].indices, &ltc);
        ((arch, model), loss)
    }

    fn merge_weighted(
        &self,
        env: &FlEnv,
        state: &mut DistillState,
        t: usize,
        updates: Vec<(usize, Self::Update)>,
        weights: &[f32],
    ) {
        // Per-architecture FedAvg of the zoo prototypes with the given
        // weights. `fedavg_into` renormalizes within the group, which
        // would cancel a uniform staleness discount (a maximally stale
        // singleton would still fully overwrite its prototype) — so the
        // FedAvg mass the discount removed (full `env.splits` weight
        // minus the handed weight) is anchored on the *current*
        // prototype: a stale update drags its prototype, and through it
        // the ensemble's logits, proportionally less. Undiscounted
        // weights make the anchor mass exactly 0.0 and the arithmetic
        // is bit-identical to plain per-arch FedAvg (the lockstep- and
        // `a = 0`-equivalence suites pin this).
        #[allow(clippy::needless_range_loop)] // index shared across several buffers
        for arch in 0..state.zoo.len() {
            let mut members: Vec<(&CascadeModel, f32)> = Vec::new();
            let mut anchor = 0.0f32;
            for ((k, (a, m)), &w) in updates.iter().zip(weights) {
                if *a == arch {
                    members.push((m, w));
                    anchor += env.splits[*k].weight - w;
                }
            }
            if members.is_empty() {
                continue;
            }
            // The anchor is the prototype being overwritten: the one
            // clone aliasing forces.
            let prototype;
            if anchor > 0.0 {
                prototype = state.zoo[arch].clone();
                members.push((&prototype, anchor));
            }
            fedavg_into(&mut state.zoo[arch], &members);
        }
        // Server-side ensemble distillation into the student at the
        // current temperature, then advance the schedule.
        let DistillState {
            student,
            zoo,
            temperature,
        } = state;
        self.distill(student, zoo, *temperature, env, t);
        state.temperature = (state.temperature * self.temperature_decay).max(1.0);
    }
}

impl FlAlgorithm for Distill {
    fn name(&self) -> &'static str {
        ScheduledTrainer::name(self)
    }

    fn run(&self, env: &FlEnv) -> FlOutcome {
        // The default scheduler config (wait-all barrier, no dropout)
        // reproduces the retired lockstep distillation loop bit-for-bit.
        EventScheduler::new(self.clone(), SchedConfig::default())
            .run(env)
            .into_fl_outcome()
    }
}

impl Distill {
    fn distill(
        &self,
        student: &mut CascadeModel,
        teachers: &[CascadeModel],
        temperature: f32,
        env: &FlEnv,
        round: usize,
    ) {
        let cfg = &env.cfg;
        let public = &env.data.val;
        let idx: Vec<usize> = (0..public.len()).collect();
        let mut it = fp_data::BatchIter::new(
            public,
            &idx,
            cfg.batch_size,
            cfg.seed ^ 0xD157 ^ round as u64,
        );
        let mut teachers: Vec<CascadeModel> = teachers.to_vec();
        let mut opt = Sgd::new(cfg.momentum, cfg.weight_decay);
        let lr = cfg.lr.at(round);
        let inv_t = 1.0 / temperature;
        for _ in 0..self.distill_iters {
            let (x, _) = it.next_batch();
            let target = self.ensemble_probs(&mut teachers, &x, temperature);
            // Soft cross-entropy on τ-softened logits:
            // L = −Σ p_T · log_softmax(student/τ); the gradient w.r.t.
            // the raw logits is (softmax(z/τ) − p_T)/(batch·τ) — the
            // usual KD τ² loss scaling is folded out (recorded
            // simplification), and τ = 1 is bit-identical to the
            // un-softened historical rule.
            let logits = student.forward(&x, Mode::Train);
            let batch = logits.shape()[0];
            let probs = softmax_rows(&logits.scale(inv_t));
            let grad = probs.sub(&target).scale(1.0 / (batch as f32 * temperature));
            student.zero_grad();
            student.backward(&grad);
            opt.step(&mut student.params_mut(), lr);
        }
    }

    /// The ensemble's target distribution for a public batch at
    /// temperature τ (teacher logits are divided by τ before softmax).
    fn ensemble_probs(
        &self,
        teachers: &mut [CascadeModel],
        x: &Tensor,
        temperature: f32,
    ) -> Tensor {
        let inv_t = 1.0 / temperature;
        let per_teacher: Vec<Tensor> = teachers
            .iter_mut()
            .map(|m| softmax_rows(&m.forward(x, Mode::Eval).scale(inv_t)))
            .collect();
        let (batch, classes) = (per_teacher[0].shape()[0], per_teacher[0].shape()[1]);
        let mut out = Tensor::zeros(&[batch, classes]);
        match self.variant {
            DistillVariant::FedDf => {
                for p in &per_teacher {
                    out.axpy(1.0 / per_teacher.len() as f32, p);
                }
            }
            DistillVariant::FedEt => {
                // Per-sample inverse-entropy weights.
                for r in 0..batch {
                    let mut weights = Vec::with_capacity(per_teacher.len());
                    for p in &per_teacher {
                        let row = &p.data()[r * classes..(r + 1) * classes];
                        let ent: f32 = -row
                            .iter()
                            .map(|&q| if q > 1e-12 { q * q.ln() } else { 0.0 })
                            .sum::<f32>();
                        weights.push((-ent).exp());
                    }
                    let wsum: f32 = weights.iter().sum::<f32>().max(1e-12);
                    for (p, w) in per_teacher.iter().zip(&weights) {
                        let row = &p.data()[r * classes..(r + 1) * classes];
                        let o = &mut out.data_mut()[r * classes..(r + 1) * classes];
                        for (ov, &pv) in o.iter_mut().zip(row) {
                            *ov += pv * w / wsum;
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::testenv::make_env;
    use super::*;
    use fp_nn::models::{cnn_atom_specs, vgg_atom_specs, CnnConfig, VggConfig};

    fn tiny_zoo() -> Vec<Vec<AtomSpec>> {
        vec![
            cnn_atom_specs(&CnnConfig {
                in_channels: 3,
                input_hw: 8,
                n_classes: 4,
                widths: vec![4],
                first_stride: 1,
            }),
            vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[4, 8])),
            vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16])),
        ]
    }

    #[test]
    fn feddf_runs_and_produces_history() {
        let env = make_env(4, 31);
        let alg = Distill::new(DistillVariant::FedDf, tiny_zoo(), 16);
        let outcome = alg.run(&env);
        assert_eq!(outcome.history.len(), 4);
        assert!(outcome.final_val_clean().is_some());
    }

    #[test]
    fn fedet_weighted_ensemble_is_a_distribution() {
        let env = make_env(1, 3);
        let alg = Distill::new(DistillVariant::FedEt, tiny_zoo(), 2);
        let mut teachers: Vec<CascadeModel> = alg
            .zoo
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut rng = fp_tensor::seeded_rng(i as u64);
                fp_nn::models::instantiate(s, &[3, 8, 8], 4, &mut rng)
            })
            .collect();
        let x = Tensor::rand_uniform(&[3, 3, 8, 8], 0.0, 1.0, &mut fp_tensor::seeded_rng(5));
        for temperature in [1.0, 2.5] {
            let probs = alg.ensemble_probs(&mut teachers, &x, temperature);
            for r in 0..3 {
                let sum: f32 = probs.data()[r * 4..(r + 1) * 4].iter().sum();
                assert!(
                    (sum - 1.0).abs() < 1e-4,
                    "row {r} sums to {sum} at τ={temperature}"
                );
            }
        }
        let _ = env;
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(
            ScheduledTrainer::name(&Distill::new(DistillVariant::FedDf, tiny_zoo(), 1)),
            "FedDF-AT"
        );
        assert_eq!(
            ScheduledTrainer::name(&Distill::new(DistillVariant::FedEt, tiny_zoo(), 1)),
            "FedET-AT"
        );
    }

    #[test]
    fn cost_charges_the_fitted_zoo_member() {
        // The most constrained client must be costed for a strictly
        // smaller dispatch (memory, MACs, and wire bytes) than the best
        // one — the per-zoo-member costing the scheduler's deadlines and
        // the async transfer accounting rely on.
        let env = make_env(1, 31);
        let alg = Distill::new(DistillVariant::FedDf, tiny_zoo(), 1);
        let budgets: Vec<u64> = (0..env.cfg.n_clients).map(|k| env.mem_budget(k)).collect();
        let k_min = (0..budgets.len()).min_by_key(|&k| budgets[k]).unwrap();
        let k_max = (0..budgets.len()).max_by_key(|&k| budgets[k]).unwrap();
        assert_eq!(alg.fit_arch(&env, k_min), 0, "smallest budget gets CNN");
        assert!(alg.fit_arch(&env, k_max) > 0, "largest budget gets VGG");
        let lo = alg.cost(&env, 0, k_min);
        let hi = alg.cost(&env, 0, k_max);
        let lo_payload = alg.payload_spec(&env, 0, k_min);
        let hi_payload = alg.payload_spec(&env, 0, k_max);
        assert!(lo_payload.bytes < hi_payload.bytes);
        assert_ne!(
            lo_payload.shape_id, hi_payload.shape_id,
            "different zoo members must carry different payload shapes"
        );
        assert!(lo.fwd_macs_per_sample < hi.fwd_macs_per_sample);
        assert!(lo.mem_req_bytes < hi.mem_req_bytes);
    }

    #[test]
    fn temperature_schedule_anneals_to_one_across_merges() {
        let env = make_env(1, 7);
        let alg = Distill::new(DistillVariant::FedDf, tiny_zoo(), 1).with_temperature(4.0, 0.25);
        let mut state = ScheduledTrainer::init(&alg, &env);
        assert_eq!(state.temperature, 4.0);
        let backend = fp_tensor::backend_for_threads(1);
        let (u, _) = alg.train(&env, &state, 0, 0, env.cfg.lr.at(0), backend);
        alg.merge(&env, &mut state, 0, vec![(0, u.clone())]);
        assert_eq!(state.temperature, 1.0, "4.0 × 0.25 hits the floor");
        alg.merge(&env, &mut state, 1, vec![(0, u)]);
        assert_eq!(state.temperature, 1.0, "the floor is sticky");
    }

    #[test]
    fn staleness_discount_survives_per_arch_renormalization() {
        // A singleton arch group must NOT fully overwrite its prototype
        // when its weight arrives staleness-discounted: the removed
        // FedAvg mass anchors on the current prototype. With the full
        // (undiscounted) weight the historical full overwrite stands.
        let env = make_env(1, 19);
        let alg = Distill::new(DistillVariant::FedDf, tiny_zoo(), 1);
        let fresh = ScheduledTrainer::init(&alg, &env);
        let k = 0usize;
        let arch = alg.fit_arch(&env, k);
        let backend = fp_tensor::backend_for_threads(1);
        let (u, _) = alg.train(&env, &fresh, 0, k, env.cfg.lr.at(0), backend);
        let trained = u.1.flat_params();
        let proto = fresh.zoo[arch].flat_params();

        let w_full = env.splits[k].weight;
        let mut full_state = fresh.clone();
        alg.merge_weighted(&env, &mut full_state, 0, vec![(k, u.clone())], &[w_full]);
        assert_eq!(
            full_state.zoo[arch].flat_params(),
            trained,
            "undiscounted singleton keeps the plain-FedAvg overwrite"
        );

        let mut stale_state = fresh.clone();
        alg.merge_weighted(&env, &mut stale_state, 0, vec![(k, u)], &[w_full * 0.5]);
        let blended = stale_state.zoo[arch].flat_params();
        assert_ne!(blended, trained, "discounted update must not overwrite");
        assert_ne!(blended, proto, "discounted update must still move");
        for ((b, t), p) in blended.iter().zip(&trained).zip(&proto) {
            let mid = 0.5 * (t + p);
            assert!(
                (b - mid).abs() <= 1e-6 * (1.0 + mid.abs()),
                "half the mass anchored on the prototype lands midway: {b} vs {mid}"
            );
        }
    }

    #[test]
    fn state_checkpoint_round_trips_bit_identically() {
        let env = make_env(2, 11);
        let alg = Distill::new(DistillVariant::FedEt, tiny_zoo(), 4).with_temperature(2.0, 0.5);
        let sched = EventScheduler::new(alg, SchedConfig::default());
        let ckpt = sched.run_until(&env, 1);
        let json = serde_json::to_string(&ckpt).expect("serialize");
        let back: crate::sched::SchedCheckpoint<DistillState> =
            serde_json::from_str(&json).expect("deserialize");
        assert_eq!(
            back.state.student.flat_params(),
            ckpt.state.student.flat_params()
        );
        assert_eq!(back.state.zoo.len(), ckpt.state.zoo.len());
        for (a, b) in back.state.zoo.iter().zip(&ckpt.state.zoo) {
            assert_eq!(a.flat_params(), b.flat_params());
        }
        assert_eq!(back.state.temperature, ckpt.state.temperature);
    }
}
