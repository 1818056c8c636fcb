//! Full-scale training-cost simulation for every method (Figures 2/6/7,
//! Table 4).
//!
//! These experiments evaluate the paper's *actual* workloads — VGG16 on
//! CIFAR-10 (batch 64) and ResNet34 on Caltech-256 (batch 32) — as
//! weight-free specs against the Appendix-B.1 device pools, using the
//! `fp-hwsim` latency model. Per-client memory budgets follow the same
//! ρ-mapping as the training environments
//! (`budget = (0.2 + 0.8·avail/max_avail)·MemReq(full)`), which realizes
//! the paper's "R_min ≈ 20 %" scenario: the weakest clients hold one
//! module, the strongest hold the whole model.

use fedprophet::{assign_modules, partition_model, ModuleAssignment, ModulePartition};
use fp_hwsim::{
    forward_macs, model_mem_req, sample_fleet, ClientLatency, Device, DeviceSample, LatencyModel,
    SamplingMode, TrainingPassProfile, CALTECH_POOL, CIFAR_POOL,
};
use fp_nn::models::{
    cnn_atom_specs, resnet10_spec, resnet18_spec, resnet34_spec_caltech, vgg11_spec, vgg13_spec,
    vgg16_spec_cifar, CnnConfig,
};
use fp_nn::spec::AtomSpec;
use fp_tensor::seeded_rng;
use rand::seq::SliceRandom;
use rand::Rng;

/// A paper workload: architecture spec + data shape + fleet pool.
pub struct Workload {
    /// Display name.
    pub name: &'static str,
    /// Backbone atoms.
    pub specs: Vec<AtomSpec>,
    /// Per-sample input shape.
    pub input_shape: Vec<usize>,
    /// Batch size.
    pub batch: usize,
    /// Number of classes.
    pub n_classes: usize,
    /// Device pool.
    pub pool: &'static [Device],
    /// Zoo for the knowledge-distillation baselines, ascending.
    pub zoo: Vec<Vec<AtomSpec>>,
    /// Total FedProphet rounds across all modules (Figure 10's x-extent).
    pub prophet_rounds: usize,
}

/// "VGG16 on CIFAR-10" (paper Tables 5/7).
pub fn cifar_workload() -> Workload {
    Workload {
        name: "VGG16/CIFAR-10",
        specs: vgg16_spec_cifar(),
        input_shape: vec![3, 32, 32],
        batch: 64,
        n_classes: 10,
        pool: &CIFAR_POOL,
        zoo: vec![
            cnn_atom_specs(&CnnConfig::cnn3(10)),
            vgg11_spec(),
            vgg13_spec(),
            vgg16_spec_cifar(),
        ],
        prophet_rounds: 2500,
    }
}

/// "ResNet34 on Caltech-256" (paper Tables 6/8).
pub fn caltech_workload() -> Workload {
    Workload {
        name: "ResNet34/Caltech-256",
        specs: resnet34_spec_caltech(),
        input_shape: vec![3, 224, 224],
        batch: 32,
        n_classes: 256,
        pool: &CALTECH_POOL,
        zoo: vec![
            cnn_atom_specs(&CnnConfig::cnn4(256)),
            resnet10_spec(),
            resnet18_spec(),
            resnet34_spec_caltech(),
        ],
        prophet_rounds: 1500,
    }
}

/// The costed methods (Figure 7's bar groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// End-to-end FAT with swapping, 500 rounds.
    JFat,
    /// Knowledge distillation (client trains largest fitting zoo model).
    FedDfAt,
    /// Same cost structure as FedDF (server-side weighting differs only).
    FedEtAt,
    /// Partial training, static slice.
    HeteroFlAt,
    /// Partial training, random mask.
    FedDropAt,
    /// Partial training, rolling window.
    FedRolexAt,
    /// Full model; AT only on memory-rich clients.
    FedRbn,
    /// Cascade training with DMA.
    FedProphet,
    /// Ablation: FedProphet without DMA (Table 4).
    FedProphetNoDma,
}

impl Method {
    /// Paper-table display name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::JFat => "jFAT",
            Method::FedDfAt => "FedDF-AT",
            Method::FedEtAt => "FedET-AT",
            Method::HeteroFlAt => "HeteroFL-AT",
            Method::FedDropAt => "FedDrop-AT",
            Method::FedRolexAt => "FedRolex-AT",
            Method::FedRbn => "FedRBN",
            Method::FedProphet => "FedProphet",
            Method::FedProphetNoDma => "FedProphet w/o DMA",
        }
    }

    /// Every Table-2 method, in paper order.
    pub fn all() -> [Method; 8] {
        [
            Method::JFat,
            Method::FedDfAt,
            Method::FedEtAt,
            Method::HeteroFlAt,
            Method::FedDropAt,
            Method::FedRolexAt,
            Method::FedRbn,
            Method::FedProphet,
        ]
    }

    fn rounds(&self) -> usize {
        match self {
            Method::JFat => 500,
            Method::FedProphet | Method::FedProphetNoDma => 0, // per-workload
            _ => 1000,
        }
    }
}

/// A method's simulated total training time.
#[derive(Debug, Clone, Copy)]
pub struct CostResult {
    /// Computation seconds.
    pub compute_s: f64,
    /// Data-access (swap) seconds.
    pub data_s: f64,
}

impl CostResult {
    /// Total seconds.
    pub fn total(&self) -> f64 {
        self.compute_s + self.data_s
    }
}

const N_CLIENTS: usize = 100;
const CLIENTS_PER_ROUND: usize = 10;
const LOCAL_ITERS: usize = 30;
const PGD_STEPS: usize = 10;

struct Fleet {
    samples: Vec<DeviceSample>,
    budgets: Vec<u64>,
}

fn build_fleet(w: &Workload, het: SamplingMode, seed: u64) -> (Fleet, u64) {
    let mut rng = seeded_rng(seed ^ 0xC057);
    let samples = sample_fleet(w.pool, N_CLIENTS, het, &mut rng);
    let full_mem = model_mem_req(&w.specs, &w.input_shape, w.batch).total();
    let budgets = fp_fl::scale_budgets(&samples, full_mem);
    (Fleet { samples, budgets }, full_mem)
}

fn sample_ids(round: usize, seed: u64) -> Vec<usize> {
    let mut rng = seeded_rng(seed ^ (round as u64).wrapping_mul(0x9E37_79B9));
    let mut ids: Vec<usize> = (0..N_CLIENTS).collect();
    ids.shuffle(&mut rng);
    ids.truncate(CLIENTS_PER_ROUND);
    ids
}

/// Simulates the total training time of `method` on `w` under the given
/// heterogeneity (deterministic in `seed`).
pub fn method_cost(w: &Workload, method: Method, het: SamplingMode, seed: u64) -> CostResult {
    let (fleet, full_mem) = build_fleet(w, het, seed);
    let full_macs = forward_macs(&w.specs, &w.input_shape);
    match method {
        Method::FedProphet | Method::FedProphetNoDma => {
            prophet_cost(w, &fleet, method == Method::FedProphet, seed)
        }
        _ => generic_cost(w, method, &fleet, full_mem, full_macs, seed),
    }
}

fn generic_cost(
    w: &Workload,
    method: Method,
    fleet: &Fleet,
    full_mem: u64,
    full_macs: u64,
    seed: u64,
) -> CostResult {
    let zoo_costs: Vec<(u64, u64)> = w
        .zoo
        .iter()
        .map(|s| {
            (
                model_mem_req(s, &w.input_shape, w.batch).total(),
                forward_macs(s, &w.input_shape),
            )
        })
        .collect();
    let mut total = ClientLatency::zero();
    let mut rng = seeded_rng(seed ^ 0x4AD);
    for t in 0..method.rounds() {
        let ids = sample_ids(t, seed);
        let per: Vec<ClientLatency> = ids
            .iter()
            .map(|&k| {
                let budget = (fleet.budgets[k] as f64 * (0.8 + 0.2 * rng.gen::<f64>())) as u64;
                let perf = fleet.samples[k].device.tflops * (0.2 + 0.8 * rng.gen::<f64>());
                let (mem_req, macs, profile) = match method {
                    Method::JFat => (
                        full_mem,
                        full_macs,
                        TrainingPassProfile::adversarial(PGD_STEPS),
                    ),
                    Method::FedDfAt | Method::FedEtAt => {
                        let arch = zoo_costs
                            .iter()
                            .rposition(|&(m, _)| m <= budget)
                            .unwrap_or(0);
                        (
                            zoo_costs[arch].0,
                            zoo_costs[arch].1,
                            TrainingPassProfile::adversarial(PGD_STEPS),
                        )
                    }
                    Method::HeteroFlAt | Method::FedDropAt | Method::FedRolexAt => {
                        let r = (budget as f64 / full_mem as f64).clamp(0.1, 1.0);
                        (
                            (full_mem as f64 * r) as u64,
                            (full_macs as f64 * r * r) as u64,
                            TrainingPassProfile::adversarial(PGD_STEPS),
                        )
                    }
                    Method::FedRbn => {
                        let profile = if budget >= full_mem {
                            TrainingPassProfile::adversarial(PGD_STEPS)
                        } else {
                            TrainingPassProfile::standard()
                        };
                        (full_mem, full_macs, profile)
                    }
                    Method::FedProphet | Method::FedProphetNoDma => {
                        unreachable!("handled by prophet_cost")
                    }
                };
                let mut sample = fleet.samples[k];
                sample.avail_mem_bytes = budget;
                sample.avail_tflops = perf;
                LatencyModel {
                    mem_req_bytes: mem_req,
                    fwd_macs_per_sample: macs,
                    // Figure cost models reproduce compute/swap numbers
                    // only; no dispatch transfer is charged.
                    batch: w.batch,
                    profile,
                }
                .local_training(&sample, LOCAL_ITERS)
            })
            .collect();
        total = total.add(&fp_hwsim::latency::round_sync_latency(&per));
    }
    CostResult {
        compute_s: total.compute_s,
        data_s: total.data_access_s,
    }
}

fn prophet_cost(w: &Workload, fleet: &Fleet, use_dma: bool, seed: u64) -> CostResult {
    let r_min = *fleet.budgets.iter().min().unwrap();
    let partition = prophet_partition(w, r_min);
    let n_modules = partition.num_modules();
    let per_module = (w.prophet_rounds / n_modules).max(1);
    let mut total = ClientLatency::zero();
    let mut rng = seeded_rng(seed ^ 0x920);
    let mut round = 0usize;
    for m in 0..n_modules {
        for _ in 0..per_module {
            let ids = sample_ids(round, seed);
            let avail: Vec<(u64, f64)> = ids
                .iter()
                .map(|&k| {
                    let mem = (fleet.budgets[k] as f64 * (0.8 + 0.2 * rng.gen::<f64>())) as u64;
                    let perf = fleet.samples[k].device.tflops * (0.2 + 0.8 * rng.gen::<f64>());
                    (mem, perf)
                })
                .collect();
            let perf_min = avail.iter().map(|&(_, p)| p).fold(f64::INFINITY, f64::min);
            let per: Vec<ClientLatency> = ids
                .iter()
                .zip(avail.iter())
                .map(|(&k, &(mem, perf))| {
                    let assign = if use_dma {
                        assign_modules(&partition, m, mem, perf, perf_min)
                    } else {
                        ModuleAssignment::only(m)
                    };
                    let mut sample = fleet.samples[k];
                    sample.avail_mem_bytes = mem;
                    sample.avail_tflops = perf;
                    assign
                        .latency_model(&partition, w.batch, PGD_STEPS)
                        .local_training(&sample, LOCAL_ITERS)
                })
                .collect();
            total = total.add(&fp_hwsim::latency::round_sync_latency(&per));
            round += 1;
        }
    }
    CostResult {
        compute_s: total.compute_s,
        data_s: total.data_access_s,
    }
}

/// FedProphet's partition of a workload under `r_min`.
pub fn prophet_partition(w: &Workload, r_min: u64) -> ModulePartition {
    partition_model(&w.specs, &w.input_shape, w.batch, w.n_classes, r_min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jfat_swaps_heavily_on_cifar() {
        // Figure 7's headline: jFAT's data-access time dominates.
        let w = cifar_workload();
        let cost = method_cost(&w, Method::JFat, SamplingMode::Balanced, 1);
        assert!(cost.data_s > cost.compute_s * 0.5, "{cost:?}");
    }

    #[test]
    fn fedprophet_beats_jfat_end_to_end() {
        // Paper §7.2: 2.4×/1.9× (CIFAR) and 10.8×/7.7× (Caltech) speedup.
        for (w, min_speedup) in [(cifar_workload(), 1.3), (caltech_workload(), 2.0)] {
            for het in [SamplingMode::Balanced, SamplingMode::Unbalanced] {
                let jfat = method_cost(&w, Method::JFat, het, 2).total();
                let fp = method_cost(&w, Method::FedProphet, het, 2).total();
                let speedup = jfat / fp;
                assert!(
                    speedup > min_speedup,
                    "{} {het:?}: speedup {speedup:.2} below {min_speedup}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn partial_training_avoids_swap() {
        let w = cifar_workload();
        let cost = method_cost(&w, Method::FedRolexAt, SamplingMode::Balanced, 3);
        assert_eq!(cost.data_s, 0.0, "sub-models must fit memory");
    }

    #[test]
    fn dma_does_not_slow_down_fedprophet() {
        // Table 4: DMA's FLOPs constraint keeps round time unchanged.
        let w = cifar_workload();
        let with_dma = method_cost(&w, Method::FedProphet, SamplingMode::Balanced, 4).total();
        let without = method_cost(&w, Method::FedProphetNoDma, SamplingMode::Balanced, 4).total();
        assert!(
            with_dma <= without * 1.15,
            "DMA {with_dma} vs no-DMA {without}"
        );
    }

    #[test]
    fn cost_is_deterministic() {
        let w = caltech_workload();
        let a = method_cost(&w, Method::FedRbn, SamplingMode::Unbalanced, 7);
        let b = method_cost(&w, Method::FedRbn, SamplingMode::Unbalanced, 7);
        assert_eq!(a.total(), b.total());
    }
}
