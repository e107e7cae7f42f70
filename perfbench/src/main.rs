//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <search|serve_store|serve_repeat> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root, e.g.
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! search --seed 1 --seconds 10 --trace 0`. The last line of standard
//! output is the result object; a full report lands in `perfbench/out/`.
//! `EM_THREADS` sets the pool width; unset, see
//! [`perfbench::default_threads`].

use perfbench::util::{RunArgs, WORKLOADS};
use perfbench::Sizes;
use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload <search|serve_store|serve_repeat> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir: PathBuf::from("perfbench").join("out"),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if std::env::var("EM_THREADS").is_err() {
        em_rt::set_threads(perfbench::default_threads(&args.workload));
    }
    match perfbench::run(&args, &Sizes::full()) {
        Ok(outcome) => {
            for note in &outcome.notes {
                eprintln!("perfbench: {note}");
            }
            println!("{}", outcome.result_line());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
