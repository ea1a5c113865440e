//! The repository benchmark.
//!
//! ```text
//! amnesiac-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    --amnesiac <path to the amnesiac binary> --work-dir <dir>
//! ```
//!
//! Runs one workload (`eval-paper`, `serve-warm`, `serve-miss`,
//! `cluster-warm`), checks every output it gets, and prints one JSON
//! object as its last line: the end-to-end metrics, or with `--trace 1`
//! the per-layer ones. `perfbench/run.py` builds this binary and the
//! `amnesiac` binary from source and calls it; see `perfbench/README.md`.

mod check;
mod driver;
mod eval;
mod pinned;
mod proc;
mod report;
mod serve_wl;
mod server;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, SPAN_LAYERS};
use trace::Tracer;

/// The workloads. `BENCHMARK.json` gates all but `serve-warm`, whose
/// latency swings with the load of the shared host (see README.md).
pub const WORKLOADS: [&str; 4] = ["eval-paper", "serve-warm", "serve-miss", "cluster-warm"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `amnesiac` binary the serve workloads start.
    pub amnesiac: PathBuf,
    /// Scratch directory for generated programs and trace files.
    pub work_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut amnesiac = None;
    let mut work_dir = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?
            .clone();
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("`{flag}` takes a number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                other => return Err(format!("`--trace` takes 0 or 1, got `{other}`")),
            },
            "--amnesiac" => amnesiac = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        amnesiac: amnesiac.ok_or("missing --amnesiac")?,
        work_dir: work_dir.ok_or("missing --work-dir")?,
    })
}

/// Writes the traced run's spans and fills the span-derived metrics,
/// with self times divided by the number of `passes` the spans cover.
pub fn finish_trace(tracer: &Tracer, args: &Args, passes: f64, out: &mut Outcome) {
    let self_ms = tracer.self_ms_by_layer();
    for layer in SPAN_LAYERS {
        let ms = self_ms.get(layer).copied().unwrap_or(0.0);
        out.set(&format!("self_ms.{layer}"), ms / passes);
    }
    out.set("trace.spans", tracer.spans().len() as f64);
    let path = args
        .work_dir
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    match amnesiac_telemetry::write_json_file(&path, &tracer.to_chrome_json()) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    match args.workload.as_str() {
        "eval-paper" => Ok(eval::run(args)),
        "serve-warm" => serve_wl::run_warm(args, false),
        "cluster-warm" => serve_wl::run_warm(args, true),
        "serve-miss" => serve_wl::run_miss(args),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv)
        .and_then(|args| run(&args).and_then(|outcome| outcome.result_json(args.trace)));
    match result {
        Ok(json) => {
            println!("{}", json.compact());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("amnesiac-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
