//! Explore the algorithm registry: every `<m̃,k̃,ñ>` shape of the paper's
//! Figure 2 with its rank, provenance, theoretical speedup, and the
//! model's pick of the best variant for two problem shapes.
//!
//! ```sh
//! cargo run --release --example algorithm_explorer
//! ```

use fmm_core::counts::PlanCounts;
use fmm_core::registry::Registry;
use fmm_core::FmmPlan;
use fmm_model::{predict_fmm, predict_gemm, ArchParams, Impl};

fn main() {
    let reg = Registry::shared();
    let arch = ArchParams::paper_machine();
    println!(
        "{:<10} {:>4} {:>8} {:>9} {:>10} {:>16} {:>16}",
        "dims", "R", "R_paper", "theory%", "nnz(UVW)", "best@rank-k", "best@square"
    );
    for (entry, algo) in reg.paper_rows() {
        let plan = FmmPlan::from_arcs(vec![algo.clone()]);
        let counts = PlanCounts::of(&plan);
        let best_for = |m: usize, k: usize, n: usize| -> String {
            let mut best = ("GEMM", predict_gemm(m, k, n, &arch).total);
            for impl_ in Impl::FMM_VARIANTS {
                let p = predict_fmm(impl_, &counts, m, k, n, &arch);
                if p.total < best.1 {
                    best = (impl_.name(), p.total);
                }
            }
            best.0.to_string()
        };
        let (mt, kt, nt) = entry.dims;
        println!(
            "{:<10} {:>4} {:>8} {:>9.1} {:>10} {:>16} {:>16}",
            format!("<{mt},{kt},{nt}>"),
            algo.rank(),
            entry.r_paper,
            (algo.speedup_per_level() - 1.0) * 100.0,
            counts.nnz_u + counts.nnz_v + counts.nnz_w,
            best_for(14400, 480, 14400),
            best_for(12000, 12000, 12000),
        );
    }
    println!("\nEvery algorithm above passed the exact Brent-equation check at load.");
    println!("R > R_paper rows use constructive fallbacks: direct sums, nesting and");
    println!("orientations of smaller verified algorithms (fmm_core::compose).");
}
