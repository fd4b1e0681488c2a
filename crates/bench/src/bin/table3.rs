//! Regenerates Table 3: overflow-detection summary on the three GSL
//! benchmarks (|Op|, |O|, |I|, |B|, time).

use wdm_bench::{run_fpod, GslBenchmark};
use wdm_core::driver::AnalysisConfig;

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let mut rows = Vec::new();
    println!("Table 3. Result summary: floating-point overflow detection.");
    println!(
        "{:<30} {:>5} {:>5} {:>5} {:>5} {:>9}",
        "function", "|Op|", "|O|", "|I|", "|B|", "T (sec)"
    );
    for benchmark in GslBenchmark::all() {
        let config = AnalysisConfig::thorough(42)
            .with_max_evals(budget)
            .with_rounds(3);
        let result = run_fpod(benchmark, &config);
        let row = result.table3_row();
        println!(
            "{:<30} {:>5} {:>5} {:>5} {:>5} {:>9.1}",
            row.function, row.ops, row.overflows, row.inconsistencies, row.bugs, row.seconds
        );
        rows.push(row);
    }
    wdm_bench::emit_json("table3", &rows);
}
