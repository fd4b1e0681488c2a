//! Regenerates Table 5: inconsistencies detected in the three GSL
//! benchmarks and their classified root causes.

use wdm_bench::{run_fpod, GslBenchmark};
use wdm_core::driver::AnalysisConfig;

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    println!("Table 5. Inconsistencies detected and their root causes.");
    println!(
        "{:<12} {:<40} {:>6} {:>12} {:>12}  root cause",
        "benchmark", "input", "status", "val", "err"
    );
    let mut serializable = Vec::new();
    for benchmark in GslBenchmark::all() {
        let config = AnalysisConfig::thorough(42)
            .with_max_evals(budget)
            .with_rounds(3);
        let result = run_fpod(benchmark, &config);
        for inc in result.distinct_causes() {
            let input: Vec<String> = inc.input.iter().map(|v| format!("{v:.3e}")).collect();
            let val = inc
                .outcome
                .values
                .first()
                .map(|(_, v)| *v)
                .unwrap_or(f64::NAN);
            let err = inc
                .outcome
                .values
                .get(1)
                .map(|(_, v)| *v)
                .unwrap_or(f64::NAN);
            println!(
                "{:<12} {:<40} {:>6} {:>12.3e} {:>12.3e}  {}",
                result
                    .benchmark
                    .function_name()
                    .split('_')
                    .next_back()
                    .unwrap_or("?"),
                input.join(", "),
                0,
                val,
                err,
                inc.cause
            );
            serializable.push((
                result.benchmark.function_name().to_string(),
                inc.input.clone(),
                val,
                err,
                inc.cause.to_string(),
            ));
        }
    }
    wdm_bench::emit_json("table5", &serializable);
}
