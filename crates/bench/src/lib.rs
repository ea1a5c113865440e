#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # amnesiac-bench
//!
//! Hand-rolled benchmark harness (no external dependencies). Each bench
//! target regenerates one of the paper's tables or figures (at test scale,
//! so `cargo bench` stays minutes, not hours) and measures the stages of
//! the amnesic pipeline:
//!
//! * `paper_artifacts` — one benchmark per paper artifact (Table 1,
//!   Figs. 3–8, Tables 4–6): the cost of producing each result.
//! * `pipeline_stages` — profiling, compilation, classic execution, and
//!   amnesic execution per policy, on representative kernels.
//!
//! The *numbers the paper reports* are produced by the
//! `amnesiac-experiments` binaries (`cargo run --release -p
//! amnesiac-experiments --bin all`); these benches track the harness's own
//! performance and act as end-to-end smoke tests under `cargo bench`.
//! For the committed, CI-gated baseline see `amnesiac bench-snapshot` and
//! `amnesiac bench-compare` (`BENCH_paper.json` at the repository root).

use std::time::Instant;

use amnesiac_telemetry::Json;

/// One measured benchmark: name plus per-iteration wall time statistics.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark id (e.g. `"fig3_edp_gains"`).
    pub name: String,
    /// Iterations measured (after warmup).
    pub iterations: u32,
    /// Minimum per-iteration time, milliseconds.
    pub min_ms: f64,
    /// Mean per-iteration time, milliseconds.
    pub mean_ms: f64,
    /// Maximum per-iteration time, milliseconds.
    pub max_ms: f64,
}

impl Measurement {
    /// Renders as a JSON object (`name`, `iterations`, `min_ms`, …).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with("iterations", u64::from(self.iterations))
            .with("min_ms", self.min_ms)
            .with("mean_ms", self.mean_ms)
            .with("max_ms", self.max_ms)
    }
}

/// A minimal fixed-iteration benchmark runner: one warmup pass, then
/// `iterations` timed passes. Results print criterion-style and are kept
/// for an optional JSON dump at the end of the target.
#[derive(Debug, Default)]
pub struct Bencher {
    iterations: u32,
    results: Vec<Measurement>,
}

impl Bencher {
    /// Creates a runner measuring `iterations` timed passes per benchmark.
    pub fn new(iterations: u32) -> Self {
        Bencher {
            iterations: iterations.max(1),
            results: Vec::new(),
        }
    }

    /// Times `f`, discarding its output via [`std::hint::black_box`].
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        std::hint::black_box(f()); // warmup (and lazy-init amortization)
        let mut min_ms = f64::INFINITY;
        let mut max_ms: f64 = 0.0;
        let mut total_ms = 0.0;
        for _ in 0..self.iterations {
            let start = Instant::now();
            std::hint::black_box(f());
            let ms = start.elapsed().as_secs_f64() * 1e3;
            min_ms = min_ms.min(ms);
            max_ms = max_ms.max(ms);
            total_ms += ms;
        }
        let m = Measurement {
            name: name.to_string(),
            iterations: self.iterations,
            min_ms,
            mean_ms: total_ms / f64::from(self.iterations),
            max_ms,
        };
        println!(
            "{:<40} {:>10.3} ms/iter (min {:.3}, max {:.3}, {} iters)",
            m.name, m.mean_ms, m.min_ms, m.max_ms, m.iterations
        );
        self.results.push(m);
    }

    /// All measurements so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// All measurements as a JSON array.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.results.iter().map(Measurement::to_json).collect())
    }

    /// Writes the measurements to `path` as pretty JSON (the benches do
    /// this when the `AMNESIAC_BENCH_JSON` environment variable names a
    /// destination file).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be written.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_sane_measurements() {
        let mut b = Bencher::new(3);
        b.bench("spin", || (0..1000u64).sum::<u64>());
        let m = &b.results()[0];
        assert_eq!(m.iterations, 3);
        assert!(m.min_ms <= m.mean_ms && m.mean_ms <= m.max_ms);
        assert!(m.min_ms >= 0.0);
        let json = b.to_json();
        assert_eq!(json.as_arr().map(|a| a.len()), Some(1));
    }
}
