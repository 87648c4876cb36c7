//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric, then the result as one JSON object on the
//! last line of standard output. Exits with 1 when a reply or a check
//! failed, and with 2 on a usage error.
//!
//! `perfbench --recover-round <dir>` is the child process a run starts
//! for each timed recovery: it recovers `<dir>` once and prints the
//! timings.

use std::path::Path;
use std::process::ExitCode;

use magik_perfbench::gen::Workload;
use magik_perfbench::run::{recover_round, run, run_traced, Config, RECOVER_FLAG};

const USAGE: &str = "usage: perfbench --workload <hot_reads|cold_reasoning|durable_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        exe: std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, dir] = &args[..] {
        if flag == RECOVER_FLAG {
            println!("{}", recover_round(Path::new(dir)));
            return ExitCode::SUCCESS;
        }
    }
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if cfg.trace {
        run_traced(&cfg)
    } else {
        run(&cfg)
    };
    print!("{}", report.render());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
