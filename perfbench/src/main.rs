//! End-to-end and per-layer benchmark of the sqe workspace.
//!
//! ```text
//! cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload subplans --seed 1 --seconds 36 --trace 0
//! ```
//!
//! One workload runs per process. `BENCHMARK.json` gates `subplans`,
//! `tenants-http` and `deadline-wide`; `cold-stream` runs by hand only,
//! because the host's drift moves it past any bound (see `README.md`). The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer split with
//! `--trace 1`. `README.md` beside this crate explains the workloads,
//! the metrics and how steady they are.

mod checks;
mod host;
mod snow;
mod spec;
mod stats;
mod tenants;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use checks::Outcome;

/// Command-line arguments; every one is required.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            let bad = |what: &str| format!("{key}: {what}, got {value:?}");
            match key.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("must be in (0, 600]"));
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument {key}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

const USAGE: &str = "usage: sqe-perfbench \
    --workload <cold-stream|subplans|tenants-http|deadline-wide> \
    --seed <u64> --seconds <s> --trace <0|1>";

fn main() -> ExitCode {
    // Armed failpoints would inject faults into the measured code.
    if std::env::var_os("SQE_FAILPOINTS").is_some() {
        eprintln!("refusing to run: SQE_FAILPOINTS is set");
        return ExitCode::from(2);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args) -> Outcome = match args.workload.as_str() {
        "cold-stream" => snow::cold_stream,
        "subplans" => snow::subplans,
        "deadline-wide" => snow::deadline_wide,
        "tenants-http" => tenants::run,
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let probe_start = host::probe();
    let mut outcome = run(&args);
    let probe_end = host::probe();
    eprintln!("host probes: start {probe_start}, end {probe_end}");
    if args.trace {
        probe_start.put(&mut outcome.metrics, "start");
        probe_end.put(&mut outcome.metrics, "end");
    }
    let spec = if args.trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    outcome.metrics = std::mem::take(&mut outcome.metrics).conform(spec);
    outcome.report(&args, &format!("start {probe_start}, end {probe_end}"));
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
