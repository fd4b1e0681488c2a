//! `ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the layer-ledger benchmark (`native_suite`,
//! `fpir_suite` or `service_tcp`) and prints its metrics, the last line
//! being one JSON object. `--workload all` runs the three, each in its own
//! process, one after the other. Exits non-zero, without a result, when an
//! oracle rejects a witness or a deterministic count fails to repeat.

use std::process::Command;
use wdm_ledger::fpir_suite::FpirSuite;
use wdm_ledger::native::NativeSuite;
use wdm_ledger::report::{self, Kind};
use wdm_ledger::run::Args;
use wdm_ledger::service_tcp;

const WORKLOADS: [&str; 3] = ["native_suite", "fpir_suite", "service_tcp"];

/// Runs every workload in a child process of this executable.
fn all(argv: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    for workload in WORKLOADS {
        let mut args = argv.to_vec();
        let at = args
            .iter()
            .position(|a| a == "--workload")
            .ok_or("missing --workload")?;
        args[at + 1] = workload.to_string();
        let status = Command::new(&exe)
            .args(&args)
            .status()
            .map_err(|e| format!("{workload}: {e}"))?;
        if !status.success() {
            return Err(format!("{workload} failed ({status})"));
        }
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            eprintln!(
                "usage: ledger --workload <native_suite|fpir_suite|service_tcp|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let output = match args.workload.as_str() {
        "native_suite" => report::in_process(Kind::Native, &NativeSuite, &args, |_| 0.0),
        "fpir_suite" => {
            report::in_process(Kind::Fpir, &FpirSuite, &args, FpirSuite::static_info_ms)
        }
        "service_tcp" => service_tcp::run(&args),
        "all" => match all(&argv) {
            Ok(()) => return,
            Err(e) => Err(e),
        },
        other => Err(format!("unknown workload {other:?}")),
    };
    match output {
        Ok(output) => output.print(),
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(1);
        }
    }
}
