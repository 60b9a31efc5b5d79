//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its metrics as the last line of stdout.
//! Add `--report <runs>` to run it that many times with consecutive seeds
//! and print each metric's median, quartiles and relative spread.

use perfbench::drive::{self, RunConfig};
use perfbench::output::{parse_result_line, result_line};
use perfbench::schedule::Workload;
use perfbench::stats::quartiles;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perfbench --workload <point-paged|scan-hot|write-mix> --seed <n> \
                     --seconds <1..=600> --trace <0|1> [--report <runs>]";

/// The prefix of the stderr line that carries the calibration loop times.
const CALIB_PREFIX: &str = "perfbench: host.calib_ms";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    report: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut report = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--report" => report = Some(value.parse::<usize>().map_err(bad)?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        report,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.report {
        Some(runs) => report(&args, runs),
        None => run_once(&args),
    }
}

fn run_once(args: &Args) -> ExitCode {
    let state = PathBuf::from(".perfbench");
    let mut cfg = RunConfig::new(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        state.join(format!("run-{}", std::process::id())),
    );
    if args.trace {
        cfg.span_file = Some(state.join("spans").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        )));
    }
    let outcome = match drive::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&cfg.work_dir);
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "{CALIB_PREFIX} before={:.3} after={:.3}",
        outcome.calib_ms.0, outcome.calib_ms.1
    );
    println!(
        "{}",
        result_line(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    match &outcome.first_bad {
        None => ExitCode::SUCCESS,
        Some(bad) => {
            eprintln!("perfbench: first bad operation: {bad}");
            ExitCode::from(1)
        }
    }
}

/// Steadiness report: `runs` runs with seeds `seed, seed+1, …`, each in
/// its own process, then each metric's median, quartiles and spread.
fn report(args: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for i in 0..runs {
        let seed = args.seed + i as u64;
        let out = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: run {i}: {e}");
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let parsed = stdout.lines().last().and_then(parse_result_line);
        let Some((true, metrics)) = parsed.filter(|_| out.status.success()) else {
            eprintln!("perfbench: run {i} (seed {seed}) failed:\n{stderr}");
            return ExitCode::from(1);
        };
        let calib = stderr
            .lines()
            .find_map(|l| l.strip_prefix(CALIB_PREFIX))
            .unwrap_or(" ?");
        println!("run {i} seed {seed}: host.calib_ms{calib}");
        for (name, v) in metrics {
            values.entry(name).or_default().push(v);
        }
    }
    println!(
        "{:<32} {:>14} {:>14} {:>14} {:>9}",
        "metric", "q1", "median", "q3", "spread"
    );
    for (name, v) in &values {
        if let Some((q1, med, q3)) = quartiles(v) {
            let spread = if med != 0.0 { (q3 - q1) / med } else { 0.0 };
            println!("{name:<32} {q1:>14.6} {med:>14.6} {q3:>14.6} {spread:>9.4}");
        }
    }
    println!("values by run:");
    for (name, v) in &values {
        let shown: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        println!("{name:<32} {}", shown.join(" "));
    }
    ExitCode::SUCCESS
}
