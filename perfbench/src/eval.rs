//! `eval-paper`: the paper's experiment, closed loop, one bench at a time.
//!
//! For each of the 11 focal benches at paper scale: `profile_program`,
//! an independent `ClassicCore::run`, `compile` for the probabilistic and
//! the oracle slice sets, the verifier and `Analysis::of_program` on both
//! annotated binaries, then `AmnesicCore::run` under the five policies.
//! Every policy's final memory must equal the classic run's, and the
//! per-policy EDP gains must equal the values pinned in [`crate::pinned`].

use std::time::Instant;

use amnesiac_absint::Analysis;
use amnesiac_compiler::{compile, CompileOptions, CompileReport, SiteOutcome};
use amnesiac_core::{AmnesicConfig, AmnesicCore, AmnesicRunResult, Policy};
use amnesiac_isa::Program;
use amnesiac_profile::profile_program;
use amnesiac_sim::{ClassicCore, CoreConfig, RunResult};
use amnesiac_workloads::{build_focal, build_focal_with_input, Scale, FOCAL_NAMES};

use crate::pinned;
use crate::report::{median, quantile, Outcome, POLICY_STEMS};
use crate::trace::Tracer;
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The benches whose inputs the seed draws.
const SEEDED: [&str; 3] = ["mcf", "is", "ca"];

/// The focal programs at paper scale. Seed 0 keeps every bench's stock
/// input; any other seed draws the inputs of `mcf`, `is` and `ca`.
pub fn build_benches(seed: u64) -> Vec<(&'static str, Program)> {
    FOCAL_NAMES
        .iter()
        .map(|&name| {
            let workload = if seed != 0 && SEEDED.contains(&name) {
                build_focal_with_input(name, Scale::Paper, seed)
            } else {
                build_focal(name, Scale::Paper)
            };
            (name, workload.program)
        })
        .collect()
}

/// The five policy configurations: which binary each runs and under
/// which runtime policy, in [`POLICY_STEMS`] order.
fn policy_runs() -> [(Policy, bool); 5] {
    // (policy, runs the oracle-set binary)
    [
        (Policy::Oracle, true),
        (Policy::Oracle, false),
        (Policy::Compiler, false),
        (Policy::Flc, false),
        (Policy::Llc, false),
    ]
}

/// Per-layer sums over one measured phase.
#[derive(Default)]
struct Layers {
    profile_ms: f64,
    classic_ms: f64,
    classic_insts: f64,
    prob_ms: f64,
    oracle_ms: f64,
    verify_ms: f64,
    absint_ms: f64,
    core_ms: [f64; 5],
    core_insts: f64,
    validation_rounds: f64,
    rounds_saved_static: f64,
    selected: f64,
    dropped: f64,
    fired: f64,
    rcmps: f64,
    recompute_insts: f64,
    hist_reads: f64,
    classic_loads: [f64; 3],
    compiler_loads: [f64; 3],
    classic_nj: f64,
    compiler_nj: f64,
}

impl Layers {
    fn add_report(&mut self, report: &CompileReport) {
        self.validation_rounds += f64::from(report.validation_rounds);
        self.rounds_saved_static += f64::from(report.validation_rounds_saved_static);
        for decision in &report.decisions {
            match decision.outcome {
                SiteOutcome::Selected { .. } => self.selected += 1.0,
                SiteOutcome::DroppedByValidation => {
                    self.selected += 1.0;
                    self.dropped += 1.0;
                }
                _ => {}
            }
        }
    }

    fn write(&self, passes: f64, out: &mut Outcome) {
        let per_pass = |x: f64| x / passes;
        let minst_per_s = |insts: f64, ms: f64| if ms > 0.0 { insts / ms / 1e3 } else { 0.0 };
        out.set("profile.ms", per_pass(self.profile_ms));
        out.set(
            "profile.minst_per_s",
            minst_per_s(self.classic_insts, self.profile_ms),
        );
        out.set("profile.over_classic", self.profile_ms / self.classic_ms);
        out.set("sim.classic_ms", per_pass(self.classic_ms));
        out.set(
            "sim.minst_per_s",
            minst_per_s(self.classic_insts, self.classic_ms),
        );
        out.set("compiler.prob_ms", per_pass(self.prob_ms));
        out.set("compiler.oracle_ms", per_pass(self.oracle_ms));
        out.set(
            "compiler.validation_rounds",
            per_pass(self.validation_rounds),
        );
        out.set(
            "compiler.rounds_saved_static",
            per_pass(self.rounds_saved_static),
        );
        out.set("compiler.slices_selected", per_pass(self.selected));
        out.set("compiler.slices_dropped", per_pass(self.dropped));
        if self.selected > 0.0 {
            out.set("compiler.keep_ratio", 1.0 - self.dropped / self.selected);
        }
        out.set("verify.ms", per_pass(self.verify_ms));
        out.set("absint.ms", per_pass(self.absint_ms));
        for (stem, ms) in POLICY_STEMS.iter().zip(self.core_ms) {
            out.set(&format!("core.{stem}_ms"), per_pass(ms));
        }
        out.set(
            "core.minst_per_s",
            minst_per_s(self.core_insts, self.core_ms.iter().sum()),
        );
        out.set("core.fired", per_pass(self.fired));
        out.set("core.recompute_insts", per_pass(self.recompute_insts));
        out.set("core.hist_reads", per_pass(self.hist_reads));
        if self.rcmps > 0.0 {
            out.set("core.fire_ratio", self.fired / self.rcmps);
        }
        for (run, loads) in [
            ("classic", self.classic_loads),
            ("compiler", self.compiler_loads),
        ] {
            for (level, n) in ["l1", "l2", "dram"].iter().zip(loads) {
                out.set(&format!("mem.{run}.{level}_loads"), per_pass(n));
            }
        }
        out.set("energy.classic_nj", per_pass(self.classic_nj));
        out.set("energy.compiler_nj", per_pass(self.compiler_nj));
    }
}

/// What one measured phase saw.
struct Phase {
    passes: usize,
    /// Each bench's fastest pipeline over the passes, in bench order.
    bench_ms: Vec<f64>,
    compiler_gain: Vec<f64>,
    oracle_gain: Vec<f64>,
    layers: Layers,
}

/// `100 × (1 − amnesic/classic)`.
fn pct_gain(amnesic: f64, classic: f64) -> f64 {
    100.0 * (1.0 - amnesic / classic)
}

/// The modelled EDP gains (Compiler, Oracle) of one program: what the
/// serve workloads report for the programs their compile requests name.
pub fn modelled_gains(program: &Program) -> Result<(f64, f64), String> {
    let config = CoreConfig::paper();
    let (profile, classic) = profile_program(program, &config).map_err(|e| format!("{e:?}"))?;
    let gain = |options: &CompileOptions, policy: Policy| {
        let (binary, _) = compile(program, &profile, options).map_err(|e| format!("{e:?}"))?;
        let amnesic = AmnesicConfig {
            core: config.clone(),
            ..AmnesicConfig::paper(policy)
        };
        let run = AmnesicCore::new(amnesic)
            .run(&binary)
            .map_err(|e| format!("{e:?}"))?;
        if run.run.final_memory != classic.final_memory {
            return Err(format!(
                "{}: final memory differs from classic",
                program.name
            ));
        }
        Ok::<f64, String>(pct_gain(run.edp(), classic.edp()))
    };
    let compiler = gain(&CompileOptions::default(), Policy::Compiler)?;
    let oracle = gain(&CompileOptions::oracle(), Policy::Oracle)?;
    Ok((compiler, oracle))
}

/// One bench through the whole pipeline. Returns the per-policy EDP
/// gains, or `None` when a layer call failed.
fn eval_bench(
    name: &'static str,
    program: &Program,
    seed: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Option<[f64; 5]> {
    let config = CoreConfig::paper();
    let (profiled, ms) = tracer.time("profile", name, || profile_program(program, &config));
    layers.profile_ms += ms;
    out.op(profiled.is_ok());
    let (classic, ms) = tracer.time("sim", name, || {
        ClassicCore::new(config.clone()).run(program)
    });
    layers.classic_ms += ms;
    out.op(classic.is_ok());
    let (Ok((profile, _)), Ok(classic)) = (profiled, classic) else {
        eprintln!("eval-paper: {name}: profiling or classic run failed");
        return None;
    };
    layers.classic_insts += classic.instructions as f64;

    let mut binaries: Vec<Program> = Vec::with_capacity(2);
    for (options, oracle) in [
        (CompileOptions::default(), false),
        (CompileOptions::oracle(), true),
    ] {
        let (compiled, ms) = tracer.time("compiler", name, || compile(program, &profile, &options));
        *(if oracle {
            &mut layers.oracle_ms
        } else {
            &mut layers.prob_ms
        }) += ms;
        out.op(compiled.is_ok());
        let Ok((binary, report)) = compiled else {
            eprintln!("eval-paper: {name}: compile failed");
            return None;
        };
        layers.add_report(&report);
        let (verified, ms) = tracer.time("verify", name, || amnesiac_verify::verify(&binary));
        layers.verify_ms += ms;
        out.op(verified.is_clean());
        let (analysis, ms) = tracer.time("absint", name, || Analysis::of_program(&binary));
        layers.absint_ms += ms;
        drop(analysis);
        binaries.push(binary);
    }

    let pins = pinned::gains(name, seed);
    let mut gains = [0.0; 5];
    for (i, (policy, oracle_set)) in policy_runs().into_iter().enumerate() {
        let binary = &binaries[usize::from(oracle_set)];
        let amnesic = AmnesicConfig {
            core: config.clone(),
            ..AmnesicConfig::paper(policy)
        };
        let (run, ms) = tracer.time("core", name, || AmnesicCore::new(amnesic).run(binary));
        layers.core_ms[i] += ms;
        let Ok(run) = run else {
            eprintln!("eval-paper: {name}: {} run failed", POLICY_STEMS[i]);
            out.op(false);
            return None;
        };
        gains[i] = pct_gain(run.edp(), classic.edp());
        let memory_ok = run.run.final_memory == classic.final_memory;
        let gain_ok = pins.is_none_or(|pins| pins[i].to_bits() == gains[i].to_bits());
        if !memory_ok {
            eprintln!(
                "eval-paper: {name}: {} final memory differs from classic",
                POLICY_STEMS[i]
            );
        }
        if !gain_ok {
            eprintln!(
                "eval-paper: {name}: {} EDP gain {:?} != pinned {:?}",
                POLICY_STEMS[i],
                gains[i],
                pins.map(|p| p[i])
            );
        }
        out.op(memory_ok && gain_ok);
        record_run(layers, &classic, &run, i);
    }
    Some(gains)
}

fn record_run(layers: &mut Layers, classic: &RunResult, run: &AmnesicRunResult, policy: usize) {
    layers.core_insts += run.run.instructions as f64;
    layers.fired += run.stats.fired_total() as f64;
    layers.rcmps += run.stats.rcmp_total() as f64;
    layers.recompute_insts += run.stats.recompute_insts as f64;
    layers.hist_reads += run.stats.hist_reads as f64;
    if POLICY_STEMS[policy] == "compiler" {
        for level in 0..3 {
            layers.classic_loads[level] += classic.hierarchy.loads.by_level[level] as f64;
            layers.compiler_loads[level] += run.run.hierarchy.loads.by_level[level] as f64;
        }
        layers.classic_nj += classic.account.total_nj();
        layers.compiler_nj += run.run.account.total_nj();
    }
}

/// Runs passes over the benches until `seconds` have passed (at least
/// one full pass). Host interference only ever adds time and comes in
/// bursts of seconds, so each bench keeps its fastest pipeline, the way
/// `EvalSuite::compute_sequential` keeps minimum stage timings.
fn measure(
    benches: &[(&'static str, Program)],
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase {
        passes: 0,
        bench_ms: vec![f64::INFINITY; benches.len()],
        compiler_gain: Vec::new(),
        oracle_gain: Vec::new(),
        layers: Layers::default(),
    };
    let start = Instant::now();
    while phase.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        for ((name, program), fastest) in benches.iter().zip(phase.bench_ms.iter_mut()) {
            let open = tracer.begin("bench", name);
            let bench = Instant::now();
            let gains = eval_bench(name, program, seed, tracer, &mut phase.layers, out);
            *fastest = fastest.min(bench.elapsed().as_secs_f64() * 1e3);
            tracer.end(open);
            if let (Some(gains), 0) = (gains, phase.passes) {
                phase.oracle_gain.push(gains[0]);
                phase.compiler_gain.push(gains[2]);
            }
        }
        phase.passes += 1;
    }
    phase
}

/// The `eval-paper` workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let mut build_s = Vec::with_capacity(SETUPS);
    let mut benches = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        benches = build_benches(args.seed);
        build_s.push(start.elapsed().as_secs_f64());
    }
    let setup_s = median(&build_s);

    let seconds = args.seconds as f64;
    let untraced = if args.trace {
        // the untraced baseline the tracing overhead is measured against
        let mut quiet = Tracer::new(false);
        Some(measure(&benches, args.seed, seconds, &mut quiet, &mut out))
    } else {
        None
    };
    let mut tracer = Tracer::new(args.trace);
    let phase = measure(&benches, args.seed, seconds, &mut tracer, &mut out);
    let eval_s = phase.bench_ms.iter().sum::<f64>() / 1e3;

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    out.e2e.insert("eval_s", eval_s);
    out.e2e.insert("setup_s", setup_s);
    out.e2e
        .insert("peak_rss_mb", crate::proc::peak_rss_mb(std::process::id()));
    out.e2e.insert("edp_gain_pct", mean(&phase.compiler_gain));
    out.e2e
        .insert("edp_gain_oracle_pct", mean(&phase.oracle_gain));
    out.e2e.insert("p50_ms", median(&phase.bench_ms));
    out.e2e.insert("p99_ms", quantile(&phase.bench_ms, 0.99));

    if args.trace {
        out.set("workloads.build_ms", setup_s * 1e3);
        phase.layers.write(phase.passes as f64, &mut out);
        if let Some(untraced) = untraced {
            let base = untraced.bench_ms.iter().sum::<f64>() / 1e3;
            out.set("trace.overhead_ms", (eval_s - base) * 1e3);
            out.set("trace.overhead_pct", 100.0 * (eval_s - base) / base);
        }
        crate::finish_trace(&tracer, args, phase.passes as f64, &mut out);
    }
    out
}
