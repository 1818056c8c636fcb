//! Cross-crate property-based tests (proptest): invariants that must hold
//! for arbitrary shapes, seeds, and configurations.

use fedprophet_repro::attack::{AttackTarget, ModelTarget, NormBall, Pgd, PgdConfig};
use fedprophet_repro::fedprophet::partition_model;
use fedprophet_repro::fl::aggregate::{weighted_average, PartialAccumulator};
use fedprophet_repro::fl::submodel::{
    channel_groups, extract_submodel, keep_sets, SubmodelAccumulator, SubmodelScheme,
};
use fedprophet_repro::fl::{
    adaptive_k, model_hash, simulate_round, staleness_weight, AsyncConfig, AsyncScheduler,
    AsyncStopPoint, DeadlinePolicy, FlConfig, FlEnv, JFat, SchedConfig,
};
use fedprophet_repro::hwsim::ClientLatency;
use fedprophet_repro::nn::models::{self, vgg_atom_specs, VggConfig};
use fedprophet_repro::nn::Mode;
use fedprophet_repro::tensor::{seeded_rng, softmax_rows, Tensor};
use proptest::prelude::*;
use rand::seq::SliceRandom;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PGD never leaves the ℓ∞ ball or the data range, for any ε, step
    /// count, and seed.
    #[test]
    fn pgd_linf_stays_in_ball(
        eps in 0.005f32..0.2,
        steps in 1usize..6,
        seed in 0u64..50,
    ) {
        let mut rng = seeded_rng(seed);
        let mut model = models::tiny_vgg(3, 8, 4, &[4, 8], &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let pgd = Pgd::new(PgdConfig {
            steps,
            alpha: None,
            ball: NormBall::Linf(eps),
            random_start: true,
            restarts: 1,
            clamp: Some((0.0, 1.0)),
        });
        let mut target = ModelTarget::new(&mut model);
        let adv = pgd.attack(&mut target, &x, &[0, 1], &mut rng);
        prop_assert!(adv.sub(&x).norm_linf() <= eps + 1e-5);
        prop_assert!(adv.min() >= 0.0 && adv.max() <= 1.0);
    }

    /// Per-sample ℓ2 projections bound every sample independently.
    #[test]
    fn pgd_l2_per_sample_ball(
        eps in 0.05f32..2.0,
        seed in 0u64..50,
    ) {
        let mut rng = seeded_rng(seed);
        let mut model = models::tiny_vgg(3, 8, 4, &[4, 8], &mut rng);
        let x = Tensor::rand_uniform(&[3, 3, 8, 8], 0.0, 1.0, &mut rng);
        let pgd = Pgd::new(PgdConfig {
            steps: 3,
            alpha: None,
            ball: NormBall::L2(eps),
            random_start: true,
            restarts: 1,
            clamp: None,
        });
        let mut target = ModelTarget::new(&mut model);
        let adv = pgd.attack(&mut target, &x, &[0, 1, 2], &mut rng);
        let delta = adv.sub(&x);
        let per: usize = 3 * 8 * 8;
        for s in 0..3 {
            let n: f32 = delta.data()[s * per..(s + 1) * per]
                .iter()
                .map(|v| v * v)
                .sum::<f32>()
                .sqrt();
            prop_assert!(n <= eps + 1e-4, "sample {} norm {} > {}", s, n, eps);
        }
    }

    /// The greedy partition covers every atom exactly once, in order, for
    /// any budget.
    #[test]
    fn partition_covers_atoms(
        budget_kb in 1u64..100_000,
        w1 in 2usize..12,
        w2 in 2usize..12,
        w3 in 2usize..12,
    ) {
        let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[w1, w2, w3]));
        let p = partition_model(&specs, &[3, 8, 8], 8, 4, budget_kb * 1024);
        let mut next = 0;
        for &(f, t) in &p.windows {
            prop_assert_eq!(f, next);
            prop_assert!(t > f);
            next = t;
        }
        prop_assert_eq!(next, specs.len());
        // Memory and MACs are reported for every module.
        prop_assert_eq!(p.mem_bytes.len(), p.windows.len());
        prop_assert_eq!(p.fwd_macs.len(), p.windows.len());
    }

    /// Sub-model extraction followed by scatter-aggregation of the
    /// unmodified sub-model reproduces the global parameters exactly,
    /// for any ratio and scheme.
    #[test]
    fn submodel_roundtrip(
        ratio in 0.15f32..1.0,
        scheme_idx in 0usize..3,
        round in 0usize..20,
        seed in 0u64..30,
    ) {
        let scheme = [
            SubmodelScheme::Static,
            SubmodelScheme::Rolling,
            SubmodelScheme::Random,
        ][scheme_idx];
        let mut rng = seeded_rng(seed);
        let global = models::tiny_vgg(3, 8, 4, &[6, 10], &mut rng);
        let groups = channel_groups(&global.specs());
        let keep = keep_sets(&groups, ratio, scheme, round, &mut rng);
        let sub = extract_submodel(&global, &keep, &mut rng);
        let mut acc = SubmodelAccumulator::new(&global);
        acc.add(&sub, &keep, 1.0);
        let mut merged = global.clone();
        acc.apply(&mut merged);
        let a = global.flat_params();
        let b = merged.flat_params();
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }

    /// A sliced sub-model still produces valid logits.
    #[test]
    fn submodel_forward_valid(
        ratio in 0.15f32..1.0,
        seed in 0u64..30,
    ) {
        let mut rng = seeded_rng(seed);
        let global = models::tiny_resnet(3, 8, 5, &[4, 8], &mut rng);
        let groups = channel_groups(&global.specs());
        let keep = keep_sets(&groups, ratio, SubmodelScheme::Static, 0, &mut rng);
        let mut sub = extract_submodel(&global, &keep, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = sub.forward(&x, Mode::Eval);
        prop_assert_eq!(y.shape(), &[2usize, 5]);
        prop_assert!(y.data().iter().all(|v| v.is_finite()));
    }

    /// Weighted FedAvg is client-permutation-invariant: the scheduler
    /// aggregates in ascending client-id order, and this pins that the
    /// result never depends on that ordering choice (up to f32 rounding
    /// of the f64 accumulator).
    #[test]
    fn weighted_average_is_permutation_invariant(
        a in proptest::collection::vec(-10.0f32..10.0, 5),
        b in proptest::collection::vec(-10.0f32..10.0, 5),
        c in proptest::collection::vec(-10.0f32..10.0, 5),
        w1 in 0.01f32..10.0,
        w2 in 0.01f32..10.0,
        w3 in 0.01f32..10.0,
    ) {
        let fwd = weighted_average(&[(a.clone(), w1), (b.clone(), w2), (c.clone(), w3)]);
        let rot = weighted_average(&[(c.clone(), w3), (a.clone(), w1), (b.clone(), w2)]);
        let swp = weighted_average(&[(b, w2), (a, w1), (c, w3)]);
        for i in 0..5 {
            prop_assert!((fwd[i] - rot[i]).abs() <= 1e-5, "rot[{}]: {} vs {}", i, fwd[i], rot[i]);
            prop_assert!((fwd[i] - swp[i]).abs() <= 1e-5, "swp[{}]: {} vs {}", i, fwd[i], swp[i]);
        }
    }

    /// Single-client aggregation is the exact identity, whatever the
    /// weight: renormalization makes it 1.0 and `1.0 · v` is exact.
    #[test]
    fn weighted_average_single_client_is_identity(
        v in proptest::collection::vec(-100.0f32..100.0, 8),
        w in 0.001f32..1000.0,
    ) {
        let avg = weighted_average(&[(v.clone(), w)]);
        prop_assert_eq!(avg, v);
    }

    /// Clients that all hold the same model leave it unchanged when their
    /// weights sum to 1 (and by renormalization, for any positive sum) —
    /// a fixed-point property every FedAvg round relies on.
    #[test]
    fn weighted_average_preserves_constant_model(
        v in proptest::collection::vec(-10.0f32..10.0, 6),
        w1 in 0.01f32..1.0,
        w2 in 0.01f32..1.0,
    ) {
        // Weights summing exactly to 1.
        let w3 = 1.0 - (w1 / (w1 + w2 + 1.0)) - (w2 / (w1 + w2 + 1.0));
        let u1 = w1 / (w1 + w2 + 1.0);
        let u2 = w2 / (w1 + w2 + 1.0);
        prop_assert!((u1 + u2 + w3 - 1.0).abs() < 1e-6);
        let avg = weighted_average(&[(v.clone(), u1), (v.clone(), u2), (v.clone(), w3)]);
        for (got, want) in avg.iter().zip(&v) {
            prop_assert!((got - want).abs() <= 1e-5, "{} vs {}", got, want);
        }
    }

    /// Weighted averaging is a convex combination: the result stays within
    /// the per-coordinate min/max envelope of the inputs.
    #[test]
    fn weighted_average_is_convex(
        a in proptest::collection::vec(-10.0f32..10.0, 4),
        b in proptest::collection::vec(-10.0f32..10.0, 4),
        w1 in 0.01f32..10.0,
        w2 in 0.01f32..10.0,
    ) {
        let avg = weighted_average(&[(a.clone(), w1), (b.clone(), w2)]);
        for i in 0..4 {
            let lo = a[i].min(b[i]) - 1e-4;
            let hi = a[i].max(b[i]) + 1e-4;
            prop_assert!(avg[i] >= lo && avg[i] <= hi);
        }
    }

    /// Partial averaging preserves uncovered coordinates bit-exactly.
    #[test]
    fn partial_average_preserves_uncovered(
        prev in proptest::collection::vec(-5.0f32..5.0, 6),
        idx in 0usize..6,
        v in -5.0f32..5.0,
    ) {
        let mut acc = PartialAccumulator::new(6);
        acc.add(idx, v, 1.0);
        let out = acc.finish(&prev);
        for i in 0..6 {
            if i == idx {
                prop_assert!((out[i] - v).abs() < 1e-6);
            } else {
                prop_assert_eq!(out[i], prev[i]);
            }
        }
    }

    /// Softmax rows always lie on the probability simplex.
    #[test]
    fn softmax_simplex(
        vals in proptest::collection::vec(-30.0f32..30.0, 12),
    ) {
        let t = Tensor::from_vec(vals, &[3, 4]);
        let s = softmax_rows(&t);
        for r in 0..3 {
            let row = &s.data()[r * 4..(r + 1) * 4];
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    /// Staleness-weighted aggregation reduces to plain FedAvg at `a = 0`,
    /// bit-for-bit: the discount is exactly 1.0 for every staleness, so
    /// `w · discount` is exactly `w`.
    #[test]
    fn staleness_aggregation_reduces_to_fedavg_at_zero_exponent(
        a in proptest::collection::vec(-10.0f32..10.0, 6),
        b in proptest::collection::vec(-10.0f32..10.0, 6),
        c in proptest::collection::vec(-10.0f32..10.0, 6),
        w in proptest::collection::vec(0.01f32..5.0, 3),
        stale in proptest::collection::vec(0usize..100, 3),
    ) {
        let discounted: Vec<f32> = w
            .iter()
            .zip(&stale)
            .map(|(&w, &s)| w * staleness_weight(s, 0.0))
            .collect();
        let plain = weighted_average(&[
            (a.clone(), w[0]),
            (b.clone(), w[1]),
            (c.clone(), w[2]),
        ]);
        let disc = weighted_average(&[
            (a, discounted[0]),
            (b, discounted[1]),
            (c, discounted[2]),
        ]);
        prop_assert_eq!(plain, disc);
    }

    /// Staleness discounting is monotone and normalized: fresh updates
    /// keep full weight, staler updates never gain weight.
    #[test]
    fn staleness_weight_is_normalized_and_monotone(
        exp in 0.0f64..4.0,
        s in 0usize..50,
    ) {
        prop_assert_eq!(staleness_weight(0, exp), 1.0);
        let w0 = staleness_weight(s, exp);
        let w1 = staleness_weight(s + 1, exp);
        prop_assert!(w1 <= w0, "staleness {} → {} vs {}", s, w0, w1);
        prop_assert!(w1 > 0.0);
    }

    /// Buffer-flush order invariance: updates arriving at equal
    /// timestamps may enter the buffer in any order; the flush sorts by
    /// (client, version), so the aggregate is bit-identical under any
    /// arrival permutation.
    #[test]
    fn buffer_flush_is_arrival_order_invariant_for_equal_timestamps(
        vals in proptest::collection::vec(
            proptest::collection::vec(-5.0f32..5.0, 4),
            6,
        ),
        n in 2usize..6,
        exp in 0.0f64..2.0,
        shuffle_seed in 0u64..1000,
    ) {
        // Entries: client id = index, version = index % 2, equal finish
        // times. The flush contract sorts by (client, version).
        let entries: Vec<(usize, usize, Vec<f32>, f32)> = vals
            .iter()
            .take(n)
            .enumerate()
            .map(|(i, v)| (i, i % 2, v.clone(), 0.5 + i as f32 * 0.25))
            .collect();
        let flush = |order: &[usize]| -> Vec<f32> {
            let mut buf: Vec<&(usize, usize, Vec<f32>, f32)> =
                order.iter().map(|&i| &entries[i]).collect();
            buf.sort_by_key(|e| (e.0, e.1));
            let weighted: Vec<(Vec<f32>, f32)> = buf
                .iter()
                .map(|(_, ver, v, w)| (v.clone(), w * staleness_weight(*ver, exp)))
                .collect();
            weighted_average(&weighted)
        };
        let arrival: Vec<usize> = (0..entries.len()).collect();
        let mut shuffled = arrival.clone();
        shuffled.shuffle(&mut seeded_rng(shuffle_seed));
        prop_assert_eq!(flush(&arrival), flush(&shuffled));
    }

    /// The adaptive flush threshold always lands inside its configured
    /// bounds, for any buffer size and observed staleness.
    #[test]
    fn adaptive_k_always_respects_bounds(
        buffer_k in 1usize..64,
        mean_staleness in 0.0f32..1000.0,
        k_min in 1usize..16,
        span in 0usize..16,
    ) {
        let k_max = k_min + span;
        let k = adaptive_k(buffer_k, mean_staleness, k_min, k_max);
        prop_assert!((k_min..=k_max).contains(&k), "k = {} outside [{}, {}]", k, k_min, k_max);
        // Zero staleness returns the configured threshold (clamped).
        prop_assert_eq!(adaptive_k(buffer_k, 0.0, k_min, k_max), buffer_k.clamp(k_min, k_max));
    }

    /// The `MedianMultiple(1.0)` deadline closes at the exact median of
    /// the survivor totals: with distinct integer latencies, an odd
    /// survivor count completes `(n+1)/2` clients (the median client
    /// finishes exactly at the deadline, and finish events rank before
    /// deadline events) and an even count completes `n/2` (the deadline
    /// is the midpoint between the two middle totals).
    #[test]
    fn median_multiple_deadline_splits_at_the_median(
        n in 3usize..12,
        shuffle_seed in 0u64..1000,
    ) {
        let cfg = SchedConfig {
            deadline: DeadlinePolicy::MedianMultiple(1.0),
            ..SchedConfig::default()
        };
        // Distinct totals 1..=n seconds, in arbitrary dispatch order.
        let mut totals: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        totals.shuffle(&mut seeded_rng(shuffle_seed));
        let ids: Vec<usize> = (0..n).collect();
        let latency: Vec<ClientLatency> = totals
            .iter()
            .map(|&t| ClientLatency { compute_s: t, data_access_s: 0.0, transfer_s: 0.0 })
            .collect();
        let sim = simulate_round(&ids, &latency, &vec![false; n], n, &cfg);
        let expect = if n % 2 == 1 { n.div_ceil(2) } else { n / 2 };
        prop_assert!(sim.completed.len() == expect,
            "n = {}: completed {:?}", n, sim.completed);
        prop_assert_eq!(sim.completed.len() + sim.stragglers.len(), n);
        // The round closes exactly at the median total.
        let median = if n % 2 == 1 {
            (n / 2 + 1) as f64
        } else {
            0.5 * ((n / 2) as f64 + (n / 2 + 1) as f64)
        };
        prop_assert!((sim.round_time_s - median).abs() < 1e-12,
            "close at {} expected {}", sim.round_time_s, median);
    }

    /// Attacks never mutate model parameters.
    #[test]
    fn attacks_leave_parameters_untouched(seed in 0u64..40) {
        let mut rng = seeded_rng(seed);
        let mut model = models::tiny_vgg(3, 8, 4, &[4, 8], &mut rng);
        let before = model.flat_params();
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let pgd = Pgd::new(PgdConfig::fast(0.05));
        let mut target = ModelTarget::new(&mut model);
        let _ = pgd.attack(&mut target, &x, &[0, 1], &mut rng);
        let _ = target.logits(&x);
        prop_assert_eq!(model.flat_params(), before);
    }
}

fn async_env(seed: u64) -> FlEnv {
    use fedprophet_repro::data::{generate, partition_pathological, SynthConfig};
    use fedprophet_repro::hwsim::{sample_fleet, SamplingMode, CIFAR_POOL};
    let cfg = FlConfig::fast(3, seed);
    let data = generate(&SynthConfig::tiny(4, 8), seed);
    let splits = partition_pathological(&data.train, cfg.n_clients, 0.8, 0.25, seed);
    let mut rng = seeded_rng(seed ^ 0xF1EE7);
    let fleet = sample_fleet(&CIFAR_POOL, cfg.n_clients, SamplingMode::Balanced, &mut rng);
    let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16]));
    FlEnv::new(data, splits, fleet, specs, cfg)
}

proptest! {
    // These cases train real (tiny) models — keep the count low.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Async checkpoint save → JSON round-trip → resume is bit-identical
    /// to the uninterrupted run, for arbitrary policies and stop points —
    /// including stops with buffered updates and clients in flight.
    #[test]
    fn async_checkpoint_resume_is_bit_identical(
        seed in 0u64..1000,
        concurrency in 2usize..5,
        buffer_k in 1usize..4,
        stop_aggs in 1usize..3,
        buffered in 0usize..3,
    ) {
        let buffer_k = buffer_k.min(concurrency);
        let buffered = buffered.min(buffer_k - 1);
        let env = async_env(seed);
        let sched = AsyncScheduler::new(
            JFat::new(),
            AsyncConfig { concurrency, buffer_k, staleness_exp: 0.5, ..AsyncConfig::default() },
        );
        let full = sched.run(&env);
        let ckpt = sched.run_until(&env, AsyncStopPoint { aggregations: stop_aggs, buffered });
        let json = serde_json::to_string(&ckpt).expect("checkpoint serializes");
        let restored = serde_json::from_str(&json).expect("checkpoint deserializes");
        let resumed = sched.resume(&env, &restored);
        prop_assert_eq!(&resumed.ledger, &full.ledger);
        prop_assert_eq!(model_hash(&resumed.model), model_hash(&full.model));
    }
}

/// Asserts the omit-when-trivial contract of a derived ledger/checkpoint
/// record: optional key `keys[i]` is on the wire iff bit `i` of `mask`
/// made its field non-trivial, and the record reads back equal.
macro_rules! assert_keys_follow_mask {
    ($value:expr, $ty:ty, $mask:expr, [$($key:literal),* $(,)?]) => {{
        let json = serde_json::to_string(&$value).expect("serializes");
        for (i, key) in [$($key),*].iter().enumerate() {
            prop_assert!(
                json.contains(&format!("\"{key}\":")) == ($mask >> i & 1 == 1),
                "key `{key}` vs mask {:#b} in {json}",
                $mask
            );
        }
        prop_assert_eq!(serde_json::from_str::<$ty>(&json).expect("deserializes"), $value);
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every optional key of the derived ledger and pending-dispatch
    /// records is present exactly when its field is non-trivial, for any
    /// combination of trivial and non-trivial fields.
    #[test]
    fn derived_records_omit_exactly_the_trivial_fields(
        mask in 0u32..(1 << 12),
        n in 1usize..1000,
    ) {
        use fedprophet_repro::fl::{
            AsyncAggRecord, FilterReason, FilteredClient, PendingDispatch, SchedRound, TraceLoss,
        };
        use fedprophet_repro::hwsim::Payload;
        let on = |i: u32| mask >> i & 1 == 1;
        let count = |i: u32| if on(i) { n } else { 0 };
        let filtered = |i: u32| {
            let reason = if n % 2 == 0 { FilterReason::Krum } else { FilterReason::Trimmed };
            if on(i) { vec![FilteredClient { client: n, reason }] } else { Vec::new() }
        };

        let round = SchedRound {
            round: n,
            selected: 8,
            dropped_out: 1,
            stragglers: 2,
            completed: 5,
            participation_weight: 0.5,
            train_loss: 1.25,
            val_clean: on(0).then_some(0.5),
            val_adv: None,
            round_time_s: 2.5,
            clock_s: 10.0,
            down_bytes: count(0) as u64,
            up_bytes: count(1) as u64,
            delta_dispatches: count(2),
            edges_active: count(3),
            filtered: filtered(4),
            clip_applied: count(5),
            unavailable: count(6),
            outage_lost: count(7),
            throttled: count(8),
        };
        assert_keys_follow_mask!(round, SchedRound, mask, [
            "down_bytes", "up_bytes", "delta_dispatches", "edges_active", "filtered",
            "clip_applied", "unavailable", "outage_lost", "throttled",
        ]);

        let agg = AsyncAggRecord {
            agg: n,
            merged: 2,
            clients: vec![1, n],
            mean_staleness: 0.5,
            max_staleness: 1,
            weight_retained: 0.75,
            participation_weight: 0.5,
            train_loss: 1.25,
            val_clean: None,
            val_adv: on(0).then_some(0.25),
            mean_transfer_s: 0.125,
            round_time_s: 2.5,
            clock_s: 10.0,
            down_bytes: count(0) as u64,
            up_bytes: count(1) as u64,
            delta_merged: count(2),
            timed_out: count(3),
            flush_k: on(4).then_some(n),
            bundles: count(5),
            edge_flushes: count(6),
            filtered: filtered(7),
            clip_applied: count(8),
            unavailable: count(9),
            outage_lost: count(10),
            throttled: count(11),
        };
        assert_keys_follow_mask!(agg, AsyncAggRecord, mask, [
            "down_bytes", "up_bytes", "delta_merged", "timed_out", "flush_k", "bundles",
            "edge_flushes", "filtered", "clip_applied", "unavailable", "outage_lost", "throttled",
        ]);

        let pending = PendingDispatch {
            client: n,
            version: 1,
            dispatch_s: 0.5,
            finish_s: 1.5,
            transfer_s: 0.25,
            payload: on(0).then(|| Payload::delta(1, n as u64, 100)),
            lost: on(1),
            cause: on(2)
                .then_some(if n % 2 == 0 { TraceLoss::Outage } else { TraceLoss::Unavailable }),
            throttled: on(3),
        };
        assert_keys_follow_mask!(pending, PendingDispatch, mask, [
            "payload", "lost", "cause", "throttled",
        ]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The single-model `ModelState` wrapper serializes
    /// **byte-identically** to the bare pre-generalization model
    /// `Checkpoint`, and round-trips parameters and BN statistics
    /// bit-exactly — so generalized-server-state checkpoints of
    /// single-model algorithms *are* the historical format (the committed
    /// v1 fixtures in `tests/checkpoint_compat.rs` pin the same property
    /// against on-disk JSON).
    #[test]
    fn model_state_wrapper_matches_bare_checkpoint_json(
        w1 in 2usize..8,
        w2 in 2usize..8,
        seed in 0u64..500,
    ) {
        use fedprophet_repro::fl::ModelState;
        use fedprophet_repro::nn::checkpoint::Checkpoint;
        let mut rng = seeded_rng(seed);
        let mut model = models::tiny_vgg(3, 8, 4, &[w1, w2], &mut rng);
        // Make the BN running statistics non-trivial.
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let _ = model.forward(&x, Mode::Train);
        let wrapper_json = serde_json::to_string(&ModelState(model.clone())).expect("serialize");
        let bare_json = serde_json::to_string(&Checkpoint::capture(&model)).expect("serialize");
        prop_assert_eq!(&wrapper_json, &bare_json);
        let back: ModelState = serde_json::from_str(&wrapper_json).expect("deserialize");
        prop_assert_eq!(back.0.flat_params(), model.flat_params());
        let (a, b) = (back.0.bn_stats(), model.bn_stats());
        prop_assert_eq!(a.len(), b.len());
        for ((m1, v1), (m2, v2)) in a.iter().zip(&b) {
            prop_assert_eq!(m1.data(), m2.data());
            prop_assert_eq!(v1.data(), v2.data());
        }
    }
}
