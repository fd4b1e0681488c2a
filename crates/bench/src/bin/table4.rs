//! Regenerates Table 4: per-operation overflows in the Bessel benchmark
//! with the inputs that trigger them.

use wdm_bench::{run_fpod, GslBenchmark};
use wdm_core::driver::AnalysisConfig;

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let config = AnalysisConfig::thorough(42)
        .with_max_evals(budget)
        .with_rounds(3);
    let result = run_fpod(GslBenchmark::Bessel, &config);
    println!("Table 4. Floating-point overflow detected in Bessel.");
    println!("{:<58} nu*, x*", "floating-point operation");
    for op in &result.overflow.operations {
        match &op.witness {
            Some(w) => println!("{:<58} {:.2e}, {:.2e}", op.site.label, w[0], w[1]),
            None => println!("{:<58} missed", op.site.label),
        }
    }
    println!(
        "\n{} of {} operations overflowed in {} rounds ({} evaluations)",
        result.overflow.num_overflows(),
        result.overflow.num_ops(),
        result.overflow.rounds,
        result.overflow.evals
    );
    let rows: Vec<(String, Option<Vec<f64>>)> = result
        .overflow
        .operations
        .iter()
        .map(|o| (o.site.label.clone(), o.witness.clone()))
        .collect();
    wdm_bench::emit_json("table4", &rows);
}
