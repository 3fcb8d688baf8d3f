//! The repository's performance benchmark. See README.md beside this
//! package and BENCHMARK.json at the repository root.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! ... -- agree [--sets K] [--seed N] [--seconds S]
//! ... -- smoke
//! ```
//!
//! The parent only parses arguments, starts one child at a time (this
//! same binary, `TGL_*` scrubbed from its environment), waits for it
//! and prints what it measured.

mod host;
mod measure;
mod metrics;
mod parent;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

/// Options shared by every subcommand; each uses the ones it names.
pub struct Options {
    /// `None` selects every workload.
    pub workload: Option<&'static workload::Workload>,
    pub seed: u64,
    pub seconds: f64,
    /// `None` runs untraced, then traced.
    pub trace: Option<bool>,
    pub scale: usize,
    pub sets: usize,
}

/// `run_seconds` of BENCHMARK.json: how long an untraced timed region
/// lasts when `--seconds` is not given.
const RUN_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: tgl-benchmark <run|agree|smoke> [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--sets K]
  run    every workload (or --workload W), untraced then traced (or only --trace 0|1)
  agree  the untraced benchmark --sets times (default 2); fails when two sets disagree
  smoke  every workload on a dataset an eighth the size, one timed unit each
workloads: tgat_train tgat_train_1t tgat_infer tgn_move";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS,
        trace: None,
        scale: 1,
        sets: 2,
    };
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        let bad = |what: &str| format!("{key} {value}: expected {what}");
        match key.as_str() {
            "--workload" => {
                let found = workload::WORKLOADS.iter().find(|w| w.name == value);
                o.workload = Some(found.ok_or_else(|| bad("one of the four workloads"))?);
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(0.0..=60.0).contains(&o.seconds) {
                    return Err(bad("0 to 60 seconds"));
                }
            }
            "--trace" => {
                o.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--scale" => {
                o.scale = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| bad("a factor >= 1"))?
            }
            "--sets" => {
                o.sets = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 2)
                    .ok_or_else(|| bad("at least 2"))?
            }
            _ => return Err(format!("unknown option {key}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let options = match parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let passed = match command.as_str() {
        "run" => parent::run(&options),
        "agree" => parent::agree(&options),
        "smoke" => parent::smoke(),
        "child" => parent::child(&options),
        _ => {
            eprintln!("error: unknown command {command}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
