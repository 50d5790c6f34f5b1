//! The metrics every run prints, in print order: the lists of
//! `BENCHMARK.json` at the repository root, read at build time.

use std::sync::OnceLock;

/// One metric as `BENCHMARK.json` lists it.
#[derive(serde::Deserialize)]
pub struct Listed {
    pub name: String,
    pub unit: String,
}

#[derive(serde::Deserialize)]
struct Benchmark {
    end_to_end: Vec<Listed>,
    per_layer: Vec<Listed>,
}

fn benchmark() -> &'static Benchmark {
    static PARSED: OnceLock<Benchmark> = OnceLock::new();
    PARSED.get_or_init(|| {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json lists end_to_end and per_layer metrics")
    })
}

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub fn end_to_end() -> &'static [Listed] {
    &benchmark().end_to_end
}

/// Per-layer metrics, printed with `--trace 1` on every workload; a layer
/// the workload does not reach reads 0.
pub fn per_layer() -> &'static [Listed] {
    &benchmark().per_layer
}
