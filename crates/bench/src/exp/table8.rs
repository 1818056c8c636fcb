//! Table 8: the ResNet34 model partition.

use crate::costmodel::{caltech_workload, prophet_partition};
use crate::report::{mb, Table};

/// Paper Table 8 (R_min = 224 MB, batch 32): per-module memory (MB).
pub const PAPER_MEM_MB: [f64; 7] = [148.6, 130.2, 130.2, 197.9, 221.6, 206.5, 204.0];
/// Paper per-module forward FLOPs in G.
pub const PAPER_FLOPS_G: [f64; 7] = [3.9, 7.5, 7.5, 13.3, 28.1, 37.1, 20.6];

/// Prints our partition side by side with the paper's.
pub fn run() {
    let w = caltech_workload();
    let r_min = 224 * 1024 * 1024;
    let p = prophet_partition(&w, r_min);
    let mut t = Table::new(
        "Table 8 — ResNet34 partition (R_min = 224 MB, batch 32)",
        &[
            "Module",
            "Atoms",
            "Mem. Req.",
            "FLOPs (batch 32)",
            "paper mem/FLOPs",
        ],
    );
    for (i, &(f, to)) in p.windows.iter().enumerate() {
        let atoms: Vec<&str> = w.specs[f..to].iter().map(|a| a.name.as_str()).collect();
        let paper = if i < 7 {
            format!("{:.1} MB / {:.1} G", PAPER_MEM_MB[i], PAPER_FLOPS_G[i])
        } else {
            "-".to_string()
        };
        t.rowd(&[
            (i + 1).to_string(),
            atoms.join(","),
            mb(p.mem_bytes[i]),
            format!("{:.1} G", p.fwd_macs[i] as f64 * w.batch as f64 / 1e9),
            paper,
        ]);
    }
    t.print();
    println!(
        "notes: our stem memory includes the stored BN output (239 MB vs paper 148.6 MB, \
         whose figure implies an in-place stem BN); modules {} (paper 7)\n",
        p.num_modules()
    );
}
