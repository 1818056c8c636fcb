//! The edge-device pools of Appendix B.1 and real-time availability
//! sampling.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A device model: peak compute, memory capacity, and storage I/O
/// bandwidth (used for memory-swap traffic).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Device {
    /// Marketing name.
    pub name: &'static str,
    /// Peak performance in TFLOPS.
    pub tflops: f64,
    /// Memory capacity in GiB.
    pub mem_gb: f64,
    /// Storage I/O bandwidth in GiB/s.
    pub io_gbps: f64,
}

impl Device {
    /// Validates that the latency model can cost this device: every rate
    /// must be finite and positive, or downstream durations turn into
    /// `inf`/`NaN` (a zero `io_gbps` makes [`crate::transfer_seconds`]
    /// infinite) deep inside the schedulers' event loops.
    ///
    /// # Panics
    ///
    /// Panics with the offending field named.
    pub fn validate(&self) {
        assert!(
            self.tflops.is_finite() && self.tflops > 0.0,
            "Device `{}` field `tflops`: must be finite and positive, got {}",
            self.name,
            self.tflops
        );
        assert!(
            self.mem_gb.is_finite() && self.mem_gb > 0.0,
            "Device `{}` field `mem_gb`: must be finite and positive, got {}",
            self.name,
            self.mem_gb
        );
        assert!(
            self.io_gbps.is_finite() && self.io_gbps > 0.0,
            "Device `{}` field `io_gbps`: must be finite and positive, got {}",
            self.name,
            self.io_gbps
        );
    }
}

/// The CIFAR-10 device pool (paper Table 5).
pub const CIFAR_POOL: [Device; 10] = [
    Device {
        name: "GTX 1650m",
        tflops: 3.1,
        mem_gb: 4.0,
        io_gbps: 16.0,
    },
    Device {
        name: "TX2",
        tflops: 1.3,
        mem_gb: 4.0,
        io_gbps: 1.5,
    },
    Device {
        name: "KCU1500",
        tflops: 0.2,
        mem_gb: 2.0,
        io_gbps: 2.0,
    },
    Device {
        name: "VC709",
        tflops: 0.1,
        mem_gb: 2.0,
        io_gbps: 1.5,
    },
    Device {
        name: "Radeon HD 6870",
        tflops: 2.7,
        mem_gb: 1.0,
        io_gbps: 16.0,
    },
    Device {
        name: "Quadro M2200",
        tflops: 2.1,
        mem_gb: 4.0,
        io_gbps: 1.5,
    },
    Device {
        name: "A12 GPU",
        tflops: 0.5,
        mem_gb: 4.0,
        io_gbps: 1.5,
    },
    Device {
        name: "Geforce 750",
        tflops: 1.1,
        mem_gb: 1.0,
        io_gbps: 16.0,
    },
    Device {
        name: "Grid K240q",
        tflops: 2.3,
        mem_gb: 1.0,
        io_gbps: 16.0,
    },
    Device {
        name: "Radeon RX 6300m",
        tflops: 3.7,
        mem_gb: 2.0,
        io_gbps: 16.0,
    },
];

/// The Caltech-256 device pool (paper Table 6).
pub const CALTECH_POOL: [Device; 10] = [
    Device {
        name: "Radeon RX 7600",
        tflops: 21.8,
        mem_gb: 8.0,
        io_gbps: 16.0,
    },
    Device {
        name: "Radeon RX 6800",
        tflops: 16.2,
        mem_gb: 16.0,
        io_gbps: 16.0,
    },
    Device {
        name: "Arc A770",
        tflops: 19.7,
        mem_gb: 16.0,
        io_gbps: 16.0,
    },
    Device {
        name: "Quadro P5000",
        tflops: 5.3,
        mem_gb: 16.0,
        io_gbps: 1.5,
    },
    Device {
        name: "RTX 3080m",
        tflops: 19.0,
        mem_gb: 8.0,
        io_gbps: 16.0,
    },
    Device {
        name: "RTX 4090m",
        tflops: 33.0,
        mem_gb: 16.0,
        io_gbps: 16.0,
    },
    Device {
        name: "A17 GPU",
        tflops: 2.1,
        mem_gb: 8.0,
        io_gbps: 1.5,
    },
    Device {
        name: "GTX 1650m",
        tflops: 3.1,
        mem_gb: 4.0,
        io_gbps: 16.0,
    },
    Device {
        name: "TX2",
        tflops: 1.3,
        mem_gb: 4.0,
        io_gbps: 1.5,
    },
    Device {
        name: "P104 101",
        tflops: 8.6,
        mem_gb: 4.0,
        io_gbps: 16.0,
    },
];

/// Systematic-heterogeneity level (paper §7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SamplingMode {
    /// Devices are sampled uniformly.
    Balanced,
    /// Weak devices (small memory × low peak TFLOPS) are over-sampled.
    Unbalanced,
}

/// One sampled client device with its real-time availability after the
/// co-running-application degradation of §B.1: available memory is
/// `capacity × (1 − U[0, 0.2])` and available performance is
/// `peak × U[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DeviceSample {
    /// The underlying device model.
    pub device: Device,
    /// Real-time available memory, bytes.
    pub avail_mem_bytes: u64,
    /// Real-time available performance, TFLOPS.
    pub avail_tflops: f64,
}

impl DeviceSample {
    /// Resamples only the real-time degradation factors, keeping the
    /// device (used between communication rounds).
    ///
    /// Memory: `capacity × (1 − U[0, 0.2])` as in §B.1. Performance:
    /// `peak × U[0.2, 1]` — the paper samples `U[0, 1]`, but with a hard
    /// synchronization barrier an unbounded tail would let a single
    /// near-zero draw dominate every round; the 0.2 floor keeps stragglers
    /// realistic (a deliberate deviation from the paper).
    pub fn resample_availability(&mut self, rng: &mut StdRng) {
        let mem_factor = 1.0 - 0.2 * rng.gen::<f64>();
        let perf_factor = 0.2 + 0.8 * rng.gen::<f64>();
        self.avail_mem_bytes = (self.device.mem_gb * mem_factor * 1024.0 * 1024.0 * 1024.0) as u64;
        self.avail_tflops = self.device.tflops * perf_factor;
    }
}

/// Samples `n` client devices from `pool`.
///
/// `Balanced` picks uniformly; `Unbalanced` weights devices by
/// `1 / (mem_gb · tflops)` so constrained devices dominate (paper §7.1).
pub fn sample_fleet(
    pool: &[Device],
    n: usize,
    mode: SamplingMode,
    rng: &mut StdRng,
) -> Vec<DeviceSample> {
    assert!(!pool.is_empty(), "empty device pool");
    for d in pool {
        d.validate();
    }
    let weights: Vec<f64> = match mode {
        SamplingMode::Balanced => vec![1.0; pool.len()],
        SamplingMode::Unbalanced => pool.iter().map(|d| 1.0 / (d.mem_gb * d.tflops)).collect(),
    };
    let total: f64 = weights.iter().sum();
    (0..n)
        .map(|_| {
            let mut r = rng.gen::<f64>() * total;
            let mut pick = pool.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if r < *w {
                    pick = i;
                    break;
                }
                r -= w;
            }
            let mut s = DeviceSample {
                device: pool[pick],
                avail_mem_bytes: 0,
                avail_tflops: 0.0,
            };
            s.resample_availability(rng);
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_tensor::seeded_rng;

    #[test]
    fn pools_match_paper_tables() {
        assert_eq!(CIFAR_POOL.len(), 10);
        assert_eq!(CALTECH_POOL.len(), 10);
        assert_eq!(CIFAR_POOL[1].name, "TX2");
        assert_eq!(CIFAR_POOL[1].io_gbps, 1.5);
        assert_eq!(CALTECH_POOL[5].name, "RTX 4090m");
        assert_eq!(CALTECH_POOL[5].tflops, 33.0);
    }

    #[test]
    fn availability_respects_degradation_bounds() {
        let mut rng = seeded_rng(0);
        let fleet = sample_fleet(&CIFAR_POOL, 200, SamplingMode::Balanced, &mut rng);
        for s in &fleet {
            let cap = (s.device.mem_gb * 1024.0 * 1024.0 * 1024.0) as u64;
            assert!(s.avail_mem_bytes <= cap);
            assert!(s.avail_mem_bytes as f64 >= 0.8 * cap as f64 - 1.0);
            assert!(s.avail_tflops <= s.device.tflops);
            assert!(s.avail_tflops > 0.0);
        }
    }

    #[test]
    fn unbalanced_oversamples_weak_devices() {
        let mut rng = seeded_rng(1);
        let n = 2000;
        let count_weak = |fleet: &[DeviceSample]| {
            fleet
                .iter()
                .filter(|s| s.device.mem_gb * s.device.tflops < 2.0)
                .count()
        };
        let bal = sample_fleet(&CIFAR_POOL, n, SamplingMode::Balanced, &mut rng);
        let unbal = sample_fleet(&CIFAR_POOL, n, SamplingMode::Unbalanced, &mut rng);
        assert!(
            count_weak(&unbal) > count_weak(&bal) * 2,
            "unbalanced {} vs balanced {}",
            count_weak(&unbal),
            count_weak(&bal)
        );
    }

    #[test]
    #[should_panic(expected = "field `io_gbps`")]
    fn validate_names_zero_io_bandwidth() {
        Device {
            name: "broken-nic",
            tflops: 1.0,
            mem_gb: 4.0,
            io_gbps: 0.0,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "field `tflops`")]
    fn validate_names_non_finite_compute() {
        Device {
            name: "overclocked",
            tflops: f64::INFINITY,
            mem_gb: 4.0,
            io_gbps: 16.0,
        }
        .validate();
    }

    #[test]
    fn paper_pools_pass_validation() {
        for d in CIFAR_POOL.iter().chain(&CALTECH_POOL) {
            d.validate();
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = sample_fleet(
            &CALTECH_POOL,
            10,
            SamplingMode::Balanced,
            &mut seeded_rng(7),
        );
        let b = sample_fleet(
            &CALTECH_POOL,
            10,
            SamplingMode::Balanced,
            &mut seeded_rng(7),
        );
        assert_eq!(a, b);
    }
}
