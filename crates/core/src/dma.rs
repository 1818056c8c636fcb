//! Differentiated Module Assignment (paper §6.3).

use crate::partition::ModulePartition;
use fp_hwsim::{LatencyModel, TrainingPassProfile};
use serde::Serialize;

/// One client's assignment for a round: it trains modules
/// `[current, last]` (inclusive), i.e. the paper's `{m, …, M_k^{(t)}}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ModuleAssignment {
    /// First module index (the module currently being learned, `m`).
    pub current: usize,
    /// Last assigned module `M_k` (≥ `current`).
    pub last: usize,
}

impl ModuleAssignment {
    /// The assignment without DMA: module `m` alone.
    pub fn only(m: usize) -> Self {
        ModuleAssignment {
            current: m,
            last: m,
        }
    }

    /// Number of modules assigned.
    pub fn count(&self) -> usize {
        self.last - self.current + 1
    }

    /// The atom window `[from, to)` covered by the assignment.
    pub fn atom_window(&self, partition: &ModulePartition) -> (usize, usize) {
        (
            partition.windows[self.current].0,
            partition.windows[self.last].1,
        )
    }

    /// The `fp-hwsim` cost description of adversarially training the
    /// assigned window: memory requirement and forward MACs are the sums
    /// of the partition's per-module costs over `[current, last]` — the
    /// same conservative sums [`assign_modules`] bounds against `R_k` and
    /// the FLOPs limit — at mini-batch `batch` under a `pgd_steps`-step
    /// PGD inner loop. The training loop and the full-scale cost model
    /// both charge a window through this one description.
    pub fn latency_model(
        &self,
        partition: &ModulePartition,
        batch: usize,
        pgd_steps: usize,
    ) -> LatencyModel {
        let modules = self.current..=self.last;
        LatencyModel {
            mem_req_bytes: partition.mem_bytes[modules.clone()].iter().sum(),
            fwd_macs_per_sample: partition.fwd_macs[modules].iter().sum(),
            batch,
            profile: TrainingPassProfile::adversarial(pgd_steps),
        }
    }
}

/// Chooses the largest `M_k` satisfying the memory constraint (Eq. 14)
/// and the FLOPs constraint (Eq. 15):
///
/// * cumulative `MemReq(w_m ∘ ⋯ ∘ w_{M_k} ∘ θ_{M_k}) ≤ R_k`, and
/// * `FLOPs(w_m ∘ ⋯ ∘ w_{M_k} ∘ θ_{M_k}) ≤ (P_k / P_min) · FLOPs(w_m)` —
///   training the extended window on this client must not take longer
///   than the slowest client training module `m` alone, so "prophet"
///   clients never stretch the synchronization barrier.
///
/// `mem_budget` is `R_k` in bytes, `perf` is `P_k`, `perf_min` is
/// `P_min^{(t)}` over this round's participants. Module memory/FLOPs come
/// from the partition's per-module costing; the cumulative window cost is
/// approximated by summing module costs (the shared-boundary activations
/// counted once per module make this a slight over-estimate — the
/// conservative direction).
///
/// # Panics
///
/// Panics if `current` is out of range or `perf_min` is not positive.
pub fn assign_modules(
    partition: &ModulePartition,
    current: usize,
    mem_budget: u64,
    perf: f64,
    perf_min: f64,
) -> ModuleAssignment {
    assert!(
        current < partition.num_modules(),
        "module index out of range"
    );
    assert!(perf_min > 0.0, "perf_min must be positive");
    let flops_limit = (perf / perf_min) * partition.fwd_macs[current] as f64;
    let mut last = current;
    let mut mem = 0u64;
    let mut flops = 0u64;
    for m in current..partition.num_modules() {
        mem = mem.saturating_add(partition.mem_bytes[m]);
        flops = flops.saturating_add(partition.fwd_macs[m]);
        let fits_mem = mem <= mem_budget;
        let fits_flops = flops as f64 <= flops_limit;
        if m == current {
            // The current module is always assigned (the partitioner
            // guarantees it fits R_min ≤ R_k; if availability dipped
            // below, the client trains it anyway — with swapping charged
            // by the latency model).
            continue;
        }
        if fits_mem && fits_flops {
            last = m;
        } else {
            break;
        }
    }
    ModuleAssignment { current, last }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition() -> ModulePartition {
        ModulePartition {
            windows: vec![(0, 2), (2, 4), (4, 5), (5, 7)],
            mem_bytes: vec![100, 80, 60, 90],
            fwd_macs: vec![1000, 800, 500, 700],
            oversized: false,
        }
    }

    #[test]
    fn slowest_client_gets_only_current_module() {
        let p = partition();
        let a = assign_modules(&p, 1, 80, 1.0, 1.0);
        assert_eq!(
            a,
            ModuleAssignment {
                current: 1,
                last: 1
            }
        );
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn memory_constraint_limits_assignment() {
        let p = partition();
        // Plenty of compute (P_k/P_min = 100) but memory for two modules.
        let a = assign_modules(&p, 1, 145, 100.0, 1.0);
        assert_eq!(a.last, 2, "80+60 fits 145, adding 90 does not");
    }

    #[test]
    fn flops_constraint_limits_assignment() {
        let p = partition();
        // Plenty of memory but only 2× compute: limit = 2·800 = 1600;
        // 800+500 = 1300 fits, +700 = 2000 does not.
        let a = assign_modules(&p, 1, u64::MAX, 2.0, 1.0);
        assert_eq!(a.last, 2);
    }

    #[test]
    fn prophet_client_takes_everything() {
        let p = partition();
        let a = assign_modules(&p, 0, u64::MAX, 1000.0, 1.0);
        assert_eq!(a.last, 3);
        assert_eq!(a.atom_window(&p), (0, 7));
    }

    #[test]
    fn assignment_never_skips_current() {
        let p = partition();
        // Budget below even the current module: still assigned.
        let a = assign_modules(&p, 2, 1, 1.0, 1.0);
        assert_eq!(
            a,
            ModuleAssignment {
                current: 2,
                last: 2
            }
        );
    }

    #[test]
    fn window_spans_modules() {
        let p = partition();
        let a = ModuleAssignment {
            current: 1,
            last: 2,
        };
        assert_eq!(a.atom_window(&p), (2, 5));
    }
}
