//! Regenerates Table 2 and Fig. 9: boundary value analysis of the Glibc
//! `sin` port (8 reachable boundary conditions out of 10).

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40_000);
    let study = wdm_bench::table2_fig9(42, budget);
    println!("Table 2. Case study with Glibc sin: boundary value analysis.");
    println!(
        "{:<20} {:>4} {:>14} {:>14} {:>14} {:>6} {:>10} {:>8}",
        "branch", "sign", "ref |x|", "min found", "max found", "hits", "reachable", "evals"
    );
    for c in &study.conditions {
        println!(
            "{:<20} {:>4} {:>14.6e} {:>14} {:>14} {:>6} {:>10} {:>8}",
            c.label,
            c.sign,
            c.reference,
            c.min_found
                .map(|v| format!("{v:.6e}"))
                .unwrap_or_else(|| "-".into()),
            c.max_found
                .map(|v| format!("{v:.6e}"))
                .unwrap_or_else(|| "-".into()),
            c.hits,
            c.reachable,
            c.evals
        );
    }
    println!(
        "\nFigure 9: {} reachable boundary conditions triggered with {} samples in {:.1} s",
        study.triggered, study.total_samples, study.seconds
    );
    for (samples, conditions) in &study.progress {
        println!("  after {samples:>9} samples: {conditions} conditions triggered");
    }
    wdm_bench::emit_json("table2_fig9", &study);
}
