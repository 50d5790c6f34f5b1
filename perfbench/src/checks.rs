//! Output checks and the result of one run.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::stats::Metrics;
use crate::Args;

/// Violations kept verbatim; the rest are only counted.
const KEPT: usize = 20;

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Diagnostics that are not metrics (sample counts, spreads, ...),
    /// printed to standard error and kept in the run record.
    pub notes: Vec<String>,
    violations: Vec<String>,
    violation_count: u64,
}

impl Outcome {
    /// Records a violated output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violation_count += 1;
            if self.violations.len() < KEPT {
                self.violations.push(what());
            }
        }
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn correct(&self) -> bool {
        self.violation_count == 0
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics.to_json()
        )
    }

    /// Prints notes and violations to standard error and writes the run
    /// record under `out/` in this crate's directory.
    pub fn report(&self, args: &Args, host: &str) {
        let mut text = String::new();
        let _ = writeln!(
            text,
            "workload {} seed {} seconds {} trace {}",
            args.workload,
            args.seed,
            args.seconds.as_secs_f64(),
            args.trace as u8
        );
        let _ = writeln!(text, "host probes: {host}");
        for n in &self.notes {
            let _ = writeln!(text, "note: {n}");
        }
        for (name, value, unit) in self.metrics.iter() {
            let _ = writeln!(text, "metric {name} = {value} {unit}");
        }
        let _ = writeln!(
            text,
            "attempted {} failed {} violations {}",
            self.attempted, self.failed, self.violation_count
        );
        for v in &self.violations {
            let _ = writeln!(text, "VIOLATION: {v}");
        }
        eprint!("{text}");
        let path = out_dir().join(format!(
            "{}-seed{}-trace{}.txt",
            args.workload, args.seed, args.trace as u8
        ));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
}

/// Where runs leave their records and traces (ignored by git).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("could not create {}: {e}", dir.display());
    }
    dir
}
