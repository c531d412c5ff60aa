//! `gtn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match gtn_perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gtn-perfbench: {e}");
            eprintln!("usage: gtn-perfbench --workload <jacobi_halo|allreduce_bulk|dragonfly_lossy> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]");
            return ExitCode::from(2);
        }
    };
    match gtn_perfbench::run(&args) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gtn-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
