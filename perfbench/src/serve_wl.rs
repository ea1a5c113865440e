//! The serve workloads: `serve-warm`, `cluster-warm` and `serve-miss`.
//!
//! Each starts the real program (`amnesiac serve` with two pool workers,
//! or `amnesiac cluster` with two worker processes), drives an open-loop
//! Poisson schedule at it over one connection, and checks every answer
//! against the typed core. The schedules come from
//! `amnesiac_loadgen::schedule`, so the traffic model is the one
//! `BENCH_serve.json` pins.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use amnesiac_isa::{decode_program, encode_program, Program};
use amnesiac_loadgen::{schedule, Arrival, LoadgenConfig, LogHistogram, Mix};
use amnesiac_rng::Rng;
use amnesiac_serve::Request;
use amnesiac_telemetry::Json;
use amnesiac_workloads::{build_focal_with_input, Scale};

use crate::check::{plan, tally, Case, Expect, Tally};
use crate::driver::{drive, Drive};
use crate::eval::modelled_gains;
use crate::report::{median, quantile, Outcome, MIX_VERBS};
use crate::server::Served;
use crate::trace::Tracer;
use crate::Args;

/// Offered rate of the warm workloads, requests per second.
const WARM_RATE: f64 = 300.0;
/// Offered rate of `serve-miss`, requests per second.
const MISS_RATE: f64 = 100.0;
/// Deadline attached to every request.
const TIMEOUT_MS: u64 = 10_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Requests per warm-up wave (under the server's backlog of 64).
const WARM_WAVE: usize = 16;
/// The benchmark's latency limit on `p99_ms`, for the knee search and
/// the generator's own lateness.
const LATENCY_LIMIT_MS: f64 = 50.0;
/// Offered rates the knee search steps through, and each step's length.
const KNEE_RATES: [f64; 8] = [300.0, 450.0, 600.0, 800.0, 1000.0, 1250.0, 1500.0, 2000.0];
const KNEE_STEP_MS: u64 = 2_000;
/// Requests per latency window: enough that a window's p99 has ten
/// samples beyond it.
const WINDOW_REQUESTS: usize = 1_000;
/// The kernels `serve-miss` draws input variants of.
const MISS_KERNELS: [&str; 3] = ["mcf", "is", "ca"];

/// A distinct request: verb, target, scale.
type Key = (String, Option<String>, Option<String>);

fn key_of(arrival: &Arrival) -> Key {
    (
        arrival.verb.clone(),
        arrival.target.clone(),
        arrival.scale.clone(),
    )
}

/// The typed-core command line equivalent to a wire request.
fn cli_args(key: &Key) -> Option<Vec<String>> {
    let verb = match key.0.as_str() {
        "simulate" | "run" => "run",
        "compile" | "verify" | "disasm" | "trace" | "profile" => key.0.as_str(),
        _ => return None,
    };
    let mut args = vec![verb.to_string()];
    args.extend(key.1.clone());
    if let Some(scale) = &key.2 {
        args.extend(["--scale".to_string(), scale.clone()]);
    }
    Some(args)
}

/// What the typed core answers for `key`.
fn expected(key: &Key) -> Result<Expect, String> {
    if key.0 == "stats" {
        return Ok(Expect::Stats);
    }
    let args = cli_args(key).ok_or_else(|| format!("no typed-core equivalent of `{}`", key.0))?;
    let command = amnesiac_cli::parse_args(&args).map_err(|e| e.message().to_string())?;
    let response = amnesiac_cli::run(&command).map_err(|e| e.message().to_string())?;
    Ok(Expect::Payload(response.payload_json()))
}

/// Maps `f` over `items` on every available core.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .max(1);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..items.len())
                        .step_by(threads)
                        .map(|i| (i, f(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("worker thread panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// Expected answers for every distinct key.
fn expectations(keys: &BTreeSet<Key>) -> Result<BTreeMap<Key, Arc<Expect>>, String> {
    let keys: Vec<Key> = keys.iter().cloned().collect();
    let answers = par_map(&keys, expected);
    keys.into_iter()
        .zip(answers)
        .map(|(key, answer)| answer.map(|a| (key, Arc::new(a))))
        .collect()
}

fn case(key: &Key, expect: &Arc<Expect>, routed: bool) -> Case {
    let mut request = Request::new(key.0.clone()).with_timeout_ms(TIMEOUT_MS);
    if let Some(target) = &key.1 {
        request = request.with_target(target.clone());
    }
    if let Some(scale) = &key.2 {
        request = request.with_scale(scale.clone());
    }
    if routed {
        request = request.with_proto(2);
    }
    Case {
        verb: key.0.clone(),
        request,
        expect: Arc::clone(expect),
    }
}

fn loadgen(rate: f64, duration_ms: u64, seed: u64, mix: Mix) -> LoadgenConfig {
    LoadgenConfig {
        rate,
        duration_ms,
        seed,
        mix,
        connections: 1,
        timeout_ms: TIMEOUT_MS,
    }
}

/// A schedule turned into checked cases plus their offsets.
struct Schedule {
    cases: Vec<Case>,
    offsets: Vec<u64>,
}

impl Schedule {
    fn of(arrivals: &[Arrival], expects: &BTreeMap<Key, Arc<Expect>>, routed: bool) -> Schedule {
        Schedule {
            cases: arrivals
                .iter()
                .map(|a| {
                    let key = key_of(a);
                    case(&key, &expects[&key], routed)
                })
                .collect(),
            offsets: arrivals.iter().map(|a| a.offset_us).collect(),
        }
    }

    fn run(&self, served: &Served) -> Result<(Drive, Tally), String> {
        let planned = plan(&self.cases, &self.offsets);
        let drive = drive(served.addr(), &planned).map_err(|e| format!("drive: {e}"))?;
        let tally = tally(&self.cases, &planned, &drive.sent_us, &drive.received);
        Ok((drive, tally))
    }
}

/// Sends every case once, in waves, and checks the answers.
fn warm_up(served: &Served, cases: &[Case], out: &mut Outcome) -> Result<(), String> {
    for wave in cases.chunks(WARM_WAVE) {
        let (_, tally) = Schedule {
            cases: wave.to_vec(),
            offsets: vec![0; wave.len()],
        }
        .run(served)?;
        out.attempted += tally.attempted;
        out.failed += tally.failed;
    }
    Ok(())
}

/// Summed cache and server counters over the processes owning a cache.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    hits: f64,
    misses: f64,
    evictions: f64,
    inflight_waits: f64,
    bytes: f64,
    expired_skipped: f64,
    overloaded: f64,
    forwarded: f64,
    rerouted: f64,
    unavailable: f64,
}

impl Counters {
    fn read(served: &Served, routed: bool) -> Result<Counters, String> {
        let mut c = Counters::default();
        for stats in served.cache_owner_stats()? {
            let n = |path: &str| stats.get_path(path).and_then(Json::as_f64).unwrap_or(0.0);
            c.hits += n("cache.hits");
            c.misses += n("cache.misses");
            c.evictions += n("cache.evictions");
            c.inflight_waits += n("cache.inflight_waits");
            c.bytes += n("cache.bytes");
            c.expired_skipped += n("expired_skipped");
            c.overloaded += n("rejected_overload");
        }
        if routed {
            let router = served.stats()?;
            let n = |key: &str| router.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            c.forwarded = n("forwarded");
            c.rerouted = n("rerouted");
            c.unavailable = n("unavailable");
        }
        Ok(c)
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            inflight_waits: self.inflight_waits - before.inflight_waits,
            bytes: self.bytes,
            expired_skipped: self.expired_skipped - before.expired_skipped,
            overloaded: self.overloaded - before.overloaded,
            forwarded: self.forwarded - before.forwarded,
            rerouted: self.rerouted - before.rerouted,
            unavailable: self.unavailable - before.unavailable,
        }
    }

    fn write(&self, out: &mut Outcome) {
        out.set("cache.hits", self.hits);
        out.set("cache.misses", self.misses);
        let looked_up = self.hits + self.misses;
        out.set(
            "cache.hit_ratio",
            if looked_up > 0.0 {
                self.hits / looked_up
            } else {
                0.0
            },
        );
        out.set("cache.evictions", self.evictions);
        out.set("cache.inflight_waits", self.inflight_waits);
        out.set("cache.bytes", self.bytes);
        out.set("serve.expired_skipped", self.expired_skipped);
        out.set("serve.overloaded", self.overloaded);
        out.set("router.forwarded", self.forwarded);
        out.set("router.rerouted", self.rerouted);
        out.set("router.unavailable", self.unavailable);
    }
}

/// One measured drive: its answers checked, its counters read.
struct Measured {
    drive: Drive,
    tally: Tally,
    counters: Counters,
}

fn measure(schedule: &Schedule, served: &Served, routed: bool) -> Result<Measured, String> {
    let before = Counters::read(served, routed)?;
    let (drive, tally) = schedule.run(served)?;
    let counters = Counters::read(served, routed)?.since(before);
    Ok(Measured {
        drive,
        tally,
        counters,
    })
}

impl Measured {
    fn latencies(&self) -> Vec<f64> {
        self.tally.answers.iter().map(|a| a.latency_ms).collect()
    }

    fn p50_ms(&self) -> f64 {
        median(&self.latencies())
    }

    /// Generator lateness (actual minus scheduled send), µs histogram.
    fn lateness(&self, offsets: &[u64]) -> LogHistogram {
        let mut late = LogHistogram::new();
        for (sent, &due) in self.drive.sent_us.iter().zip(offsets) {
            if let Some(sent) = sent {
                late.record(sent.saturating_sub(due));
            }
        }
        late
    }

    /// Counts the drive's operations and flags a generator that fell
    /// behind.
    fn account(&self, offsets: &[u64], out: &mut Outcome) {
        out.attempted += self.tally.attempted;
        out.failed += self.tally.failed;
        // Lateness is already charged to each request's latency; the
        // offered load itself is wrong only once the generator alone makes
        // 1% of requests miss the latency limit.
        let late_p99_ms = self.lateness(offsets).quantile(0.99) as f64 / 1e3;
        if late_p99_ms > LATENCY_LIMIT_MS {
            eprintln!("generator fell behind: p99 send lateness {late_p99_ms:.1} ms; run invalid");
            out.valid = false;
        }
    }

    /// `p50_ms` and `p99_ms`: the median and p99 of each window of
    /// [`WINDOW_REQUESTS`] consecutive requests, and of those the lowest.
    /// Interference from other tenants of the host only ever adds
    /// latency and lasts seconds, so the least disturbed window is the
    /// steadiest reading of the program's own latency.
    fn write_e2e(&self, out: &mut Outcome) {
        let latencies = self.latencies();
        let windows = windows(&latencies, WINDOW_REQUESTS);
        let lowest = |q: f64| {
            windows
                .iter()
                .map(|w| quantile(w, q))
                .fold(f64::INFINITY, f64::min)
        };
        out.e2e.insert("eval_s", self.drive.makespan_s);
        out.e2e.insert("p50_ms", lowest(0.5));
        out.e2e.insert("p99_ms", lowest(0.99));
    }

    fn write_layers(&self, offsets: &[u64], out: &mut Outcome) {
        let answers = &self.tally.answers;
        let server_ms = |a: &crate::check::Answer| a.worker_ms.unwrap_or(a.elapsed_ms);
        let all: Vec<f64> = answers.iter().map(server_ms).collect();
        out.set("serve.elapsed_p50_ms", median(&all));
        out.set("serve.elapsed_p99_ms", quantile(&all, 0.99));
        for verb in MIX_VERBS {
            let mut hist = LogHistogram::new();
            for a in answers.iter().filter(|a| a.verb == verb) {
                hist.record((server_ms(a) * 1e3) as u64);
            }
            out.set(
                &format!("serve.{verb}.elapsed_p50_ms"),
                hist.quantile(0.5) as f64 / 1e3,
            );
            out.set(
                &format!("serve.{verb}.elapsed_p99_ms"),
                hist.quantile(0.99) as f64 / 1e3,
            );
        }
        let wire: Vec<f64> = answers.iter().map(|a| a.wire_ms).collect();
        out.set("serve.wire_p50_ms", median(&wire));
        out.set("serve.wire_p99_ms", quantile(&wire, 0.99));
        let hops: Vec<f64> = answers
            .iter()
            .filter_map(|a| a.worker_ms.map(|w| a.elapsed_ms - w))
            .collect();
        out.set("router.hop_p50_ms", median(&hops));
        out.set("router.hop_p99_ms", quantile(&hops, 0.99));
        let late = self.lateness(offsets);
        out.set("driver.late_max_ms", late.max() as f64 / 1e3);
        out.set("driver.late_p99_ms", late.quantile(0.99) as f64 / 1e3);
        self.counters.write(out);
    }

    /// Request spans from the client's view, with the router and server
    /// hops each response reports as children ending at its arrival.
    fn record_spans(&self, tracer: &mut Tracer) {
        let base = tracer.offset_us(self.drive.epoch);
        for (index, a) in self.tally.answers.iter().enumerate() {
            let id = format!("req{index}");
            let recv = base + a.recv_us as f64;
            let request = tracer.record("request", base + a.offset_us as f64, recv, None, &id);
            let parent = match a.worker_ms {
                Some(worker_ms) => {
                    let router =
                        tracer.record("router", recv - a.elapsed_ms * 1e3, recv, request, &id);
                    tracer.record("serve", recv - worker_ms * 1e3, recv, router, &id);
                    continue;
                }
                None => request,
            };
            tracer.record("serve", recv - a.elapsed_ms * 1e3, recv, parent, &id);
        }
    }
}

/// Splits `samples` into consecutive windows of `size`; a short tail
/// joins the last full window (one window if there are fewer samples).
fn windows(samples: &[f64], size: usize) -> Vec<&[f64]> {
    let full = (samples.len() / size).max(1);
    (0..full)
        .map(|i| {
            let end = if i + 1 == full {
                samples.len()
            } else {
                (i + 1) * size
            };
            &samples[i * size..end]
        })
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Mean modelled (Compiler, Oracle) gains over `programs`.
fn mean_gains(programs: &[Program], out: &mut Outcome) -> (f64, f64) {
    let mut compiler = Vec::new();
    let mut oracle = Vec::new();
    for gain in par_map(programs, modelled_gains) {
        out.op(gain.is_ok());
        match gain {
            Ok((c, o)) => {
                compiler.push(c);
                oracle.push(o);
            }
            Err(e) => eprintln!("modelled gains: {e}"),
        }
    }
    (mean(&compiler), mean(&oracle))
}

/// `serve-warm` (`routed = false`) and `cluster-warm` (`routed = true`).
pub fn run_warm(args: &Args, routed: bool) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut tracer = Tracer::new(args.trace);
    let duration_ms = args.seconds * 1000;
    let arrivals = schedule(&loadgen(WARM_RATE, duration_ms, args.seed, Mix::default()));
    let knee_runs = args.trace && !routed;
    let knee_arrivals: Vec<Vec<Arrival>> = if knee_runs {
        KNEE_RATES
            .iter()
            .map(|&rate| schedule(&loadgen(rate, KNEE_STEP_MS, args.seed, Mix::default())))
            .collect()
    } else {
        Vec::new()
    };
    let keys: BTreeSet<Key> = arrivals
        .iter()
        .chain(knee_arrivals.iter().flatten())
        .map(key_of)
        .collect();
    let expects = expectations(&keys)?;
    let warm_cases: Vec<Case> = keys
        .iter()
        .filter(|k| k.0 != "stats")
        .map(|k| case(k, &expects[k], routed))
        .collect();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut served = None;
    for _ in 0..SETUPS {
        if let Some(previous) = served.take() {
            Served::stop(previous)?;
        }
        let start = Instant::now();
        let fresh = Served::start(&args.amnesiac, &args.work_dir, routed)?;
        warm_up(&fresh, &warm_cases, &mut out)?;
        setup_s.push(start.elapsed().as_secs_f64());
        served = Some(fresh);
    }
    let served = served.expect("at least one set-up");
    let main = Schedule::of(&arrivals, &expects, routed);

    let untraced = if args.trace {
        let quiet = measure(&main, &served, routed)?;
        quiet.account(&main.offsets, &mut out);
        Some(quiet)
    } else {
        None
    };
    let measured = measure(&main, &served, routed)?;
    measured.account(&main.offsets, &mut out);
    // every compile, verify and disasm must have been a cache hit
    out.op(measured.counters.misses == 0.0);

    // the modelled gains of the artifacts the compile requests fetch
    let targets: BTreeSet<(&str, bool)> = arrivals
        .iter()
        .filter(|a| a.verb == "compile")
        .filter_map(|a| Some((a.target.as_deref()?, a.scale.as_deref() == Some("paper"))))
        .collect();
    let programs = targets
        .into_iter()
        .map(|(target, paper)| amnesiac_cli::load_program(target, paper))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.message().to_string())?;
    let (compiler_gain, oracle_gain) = mean_gains(&programs, &mut out);

    if args.trace {
        measured.write_layers(&main.offsets, &mut out);
        measured.record_spans(&mut tracer);
        if let Some(quiet) = untraced {
            let (traced, base) = (measured.p50_ms(), quiet.p50_ms());
            out.set("trace.overhead_ms", traced - base);
            out.set("trace.overhead_pct", 100.0 * (traced - base) / base);
        }
        time_simulated_targets(&keys, &mut tracer, &mut out);
        if knee_runs {
            knee(&served, &knee_arrivals, &expects, &mut out)?;
        }
    }
    out.e2e.insert("setup_s", median(&setup_s));
    out.e2e.insert("edp_gain_pct", compiler_gain);
    out.e2e.insert("edp_gain_oracle_pct", oracle_gain);
    out.e2e.insert("peak_rss_mb", served.peak_rss_mb());
    measured.write_e2e(&mut out);
    served.stop()?;
    if args.trace {
        crate::finish_trace(&tracer, args, 1.0, &mut out);
    }
    Ok(out)
}

/// Times the classic simulation behind the `simulate` and `trace`
/// requests, the layer those verbs reach on a warm server.
fn time_simulated_targets(keys: &BTreeSet<Key>, tracer: &mut Tracer, out: &mut Outcome) {
    let config = amnesiac_sim::CoreConfig::paper();
    for key in keys.iter().filter(|k| k.0 == "simulate" || k.0 == "trace") {
        let Some(target) = &key.1 else { continue };
        let Ok(program) = amnesiac_cli::load_program(target, key.2.as_deref() == Some("paper"))
        else {
            out.op(false);
            continue;
        };
        let (run, ms) = tracer.time("sim", target, || {
            amnesiac_sim::ClassicCore::new(config.clone()).run(&program)
        });
        out.op(run.is_ok());
        out.add("sim.classic_ms", ms);
        if let Ok(run) = run {
            out.add("sim.instructions", run.instructions as f64);
        }
    }
    let insts = out.layer.remove("sim.instructions").unwrap_or(0.0);
    let ms = out.layer.get("sim.classic_ms").copied().unwrap_or(0.0);
    if ms > 0.0 {
        out.set("sim.minst_per_s", insts / ms / 1e3);
    }
}

/// Steps the offered rate up until `p99_ms` exceeds the latency limit,
/// an answer fails, or the backlog grows (the last third of a step waits
/// more than twice as long as the first third, plus 1 ms).
fn knee(
    served: &Served,
    steps: &[Vec<Arrival>],
    expects: &BTreeMap<Key, Arc<Expect>>,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut best = (0.0, 0.0);
    for (rate, arrivals) in KNEE_RATES.iter().zip(steps) {
        let step = Schedule::of(arrivals, expects, false);
        let (_, tally) = step.run(served)?;
        let latencies: Vec<f64> = tally.answers.iter().map(|a| a.latency_ms).collect();
        let p99 = quantile(&latencies, 0.99);
        let third = latencies.len() / 3;
        let growing =
            third > 0 && median(&latencies[2 * third..]) > 2.0 * median(&latencies[..third]) + 1.0;
        eprintln!(
            "knee step {rate} req/s: p99 {p99:.2} ms, {} failed, backlog {}",
            tally.failed,
            if growing { "growing" } else { "steady" }
        );
        if tally.failed > 0 || p99 > LATENCY_LIMIT_MS || growing {
            break;
        }
        best = (*rate, p99);
    }
    out.set("knee.rps", best.0);
    out.set("knee.p99_ms", best.1);
    Ok(())
}

/// The seeded test-scale input variants `serve-miss` compiles, each
/// distinct, written as `.bin` files. Returns their paths and the input
/// seeds of the first variant of each kernel.
fn write_miss_programs(
    seed: u64,
    count: usize,
    dir: &Path,
) -> Result<(Vec<String>, Vec<u64>), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut rng = Rng::seed_from_u64(seed ^ 0x6d69_7373);
    let mut seen = HashSet::new();
    let mut paths = Vec::with_capacity(count);
    let mut first_seeds = Vec::new();
    for index in 0..count {
        let kernel = MISS_KERNELS[index % MISS_KERNELS.len()];
        let (bytes, input_seed) = loop {
            let input_seed = rng.next_u64();
            let program = build_focal_with_input(kernel, Scale::Test, input_seed).program;
            let bytes = encode_program(&program);
            if seen.insert(bytes.clone()) {
                break (bytes, input_seed);
            }
        };
        if index < MISS_KERNELS.len() {
            first_seeds.push(input_seed);
        }
        let path = dir.join(format!("p{index:05}.bin"));
        std::fs::write(&path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        paths.push(path.to_string_lossy().into_owned());
    }
    Ok((paths, first_seeds))
}

/// `serve-miss`: every request compiles a program the server never saw.
pub fn run_miss(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut tracer = Tracer::new(args.trace);
    let compile_only = Mix::parse("compile").expect("static mix spec");
    let arrivals = schedule(&loadgen(
        MISS_RATE,
        args.seconds * 1000,
        args.seed,
        compile_only,
    ));
    let dir = args.work_dir.join("miss");

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut served = None;
    let mut paths = Vec::new();
    let mut input_seeds = Vec::new();
    for _ in 0..SETUPS {
        if let Some(previous) = served.take() {
            Served::stop(previous)?;
        }
        let start = Instant::now();
        (paths, input_seeds) = write_miss_programs(args.seed, arrivals.len(), &dir)?;
        let fresh = Served::start(&args.amnesiac, &args.work_dir, false)?;
        setup_s.push(start.elapsed().as_secs_f64());
        served = Some(fresh);
    }
    let mut served = served.expect("at least one set-up");

    let keys: Vec<Key> = paths
        .iter()
        .map(|p| ("compile".to_string(), Some(p.clone()), None))
        .collect();
    let expects = expectations(&keys.iter().cloned().collect())?;
    let miss = Schedule {
        cases: keys.iter().map(|k| case(k, &expects[k], false)).collect(),
        offsets: arrivals.iter().map(|a| a.offset_us).collect(),
    };

    let untraced = if args.trace {
        // the traced phase needs a server that has not seen the programs
        let quiet = measure(&miss, &served, false)?;
        quiet.account(&miss.offsets, &mut out);
        Served::stop(served)?;
        served = Served::start(&args.amnesiac, &args.work_dir, false)?;
        Some(quiet)
    } else {
        None
    };
    let measured = measure(&miss, &served, false)?;
    measured.account(&miss.offsets, &mut out);
    // every compile must have inserted; none may have hit
    let compiles = measured.tally.answers.len() as f64;
    out.op(measured.counters.hits == 0.0 && measured.counters.misses == compiles);

    // At test scale the oracle slice set is empty and every gain reads
    // 0, so the modelled gains are those of the same kernels on the same
    // seeded inputs at paper scale, one variant per kernel.
    let variants: Vec<Program> = MISS_KERNELS
        .iter()
        .zip(&input_seeds)
        .map(|(kernel, &seed)| build_focal_with_input(kernel, Scale::Paper, seed).program)
        .collect();
    let (compiler_gain, oracle_gain) = mean_gains(&variants, &mut out);

    out.e2e.insert("setup_s", median(&setup_s));
    out.e2e.insert("edp_gain_pct", compiler_gain);
    out.e2e.insert("edp_gain_oracle_pct", oracle_gain);
    out.e2e.insert("peak_rss_mb", served.peak_rss_mb());
    measured.write_e2e(&mut out);
    served.stop()?;

    if args.trace {
        out.set("workloads.build_ms", median(&setup_s) * 1e3);
        measured.write_layers(&miss.offsets, &mut out);
        measured.record_spans(&mut tracer);
        if let Some(quiet) = untraced {
            let (traced, base) = (measured.p50_ms(), quiet.p50_ms());
            out.set("trace.overhead_ms", traced - base);
            out.set("trace.overhead_pct", 100.0 * (traced - base) / base);
        }
        time_miss_layers(&paths, &mut tracer, &mut out);
        crate::finish_trace(&tracer, args, 1.0, &mut out);
    }
    Ok(out)
}

/// The layers a compile miss runs through, timed in-process on every
/// generated program: decode, profile, a plain classic run, compile,
/// verify and the abstract interpreter.
fn time_miss_layers(paths: &[String], tracer: &mut Tracer, out: &mut Outcome) {
    let config = amnesiac_sim::CoreConfig::paper();
    let (mut insts, mut selected, mut dropped) = (0.0, 0.0, 0.0);
    for (index, path) in paths.iter().enumerate() {
        let id = format!("p{index}");
        let Ok(bytes) = std::fs::read(path) else {
            out.op(false);
            continue;
        };
        let (decoded, ms) = tracer.time("isa", &id, || decode_program(&bytes));
        out.add("isa.decode_ms", ms);
        out.op(decoded.is_ok());
        let Ok(program) = decoded else { continue };
        let (profiled, ms) = tracer.time("profile", &id, || {
            amnesiac_profile::profile_program(&program, &config)
        });
        out.add("profile.ms", ms);
        let (classic, ms) = tracer.time("sim", &id, || {
            amnesiac_sim::ClassicCore::new(config.clone()).run(&program)
        });
        out.add("sim.classic_ms", ms);
        out.op(profiled.is_ok() && classic.is_ok());
        let (Ok((profile, _)), Ok(classic)) = (profiled, classic) else {
            continue;
        };
        insts += classic.instructions as f64;
        let options = amnesiac_compiler::CompileOptions::default();
        let (compiled, ms) = tracer.time("compiler", &id, || {
            amnesiac_compiler::compile(&program, &profile, &options)
        });
        out.add("compiler.prob_ms", ms);
        out.op(compiled.is_ok());
        let Ok((binary, report)) = compiled else {
            continue;
        };
        out.add(
            "compiler.validation_rounds",
            f64::from(report.validation_rounds),
        );
        out.add(
            "compiler.rounds_saved_static",
            f64::from(report.validation_rounds_saved_static),
        );
        for decision in &report.decisions {
            match decision.outcome {
                amnesiac_compiler::SiteOutcome::Selected { .. } => selected += 1.0,
                amnesiac_compiler::SiteOutcome::DroppedByValidation => {
                    selected += 1.0;
                    dropped += 1.0;
                }
                _ => {}
            }
        }
        let (verified, ms) = tracer.time("verify", &id, || amnesiac_verify::verify(&binary));
        out.add("verify.ms", ms);
        out.op(verified.is_clean());
        let (_, ms) = tracer.time("absint", &id, || {
            amnesiac_absint::Analysis::of_program(&binary)
        });
        out.add("absint.ms", ms);
    }
    out.set("compiler.slices_selected", selected);
    out.set("compiler.slices_dropped", dropped);
    if selected > 0.0 {
        out.set("compiler.keep_ratio", 1.0 - dropped / selected);
    }
    let get = |out: &Outcome, k: &str| out.layer.get(k).copied().unwrap_or(0.0);
    let (profile_ms, classic_ms) = (get(out, "profile.ms"), get(out, "sim.classic_ms"));
    if classic_ms > 0.0 {
        out.set("profile.over_classic", profile_ms / classic_ms);
        out.set("sim.minst_per_s", insts / classic_ms / 1e3);
    }
    if profile_ms > 0.0 {
        out.set("profile.minst_per_s", insts / profile_ms / 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_keep_every_sample_and_a_minimum_size() {
        let samples: Vec<f64> = (0..2_500).map(f64::from).collect();
        let w = windows(&samples, 1_000);
        assert_eq!(
            w.iter().map(|w| w.len()).collect::<Vec<_>>(),
            vec![1_000, 1_500]
        );
        assert_eq!(windows(&samples[..10], 1_000).len(), 1);
        assert!(windows(&[], 1_000)[0].is_empty());
    }

    #[test]
    fn schedule_and_generated_programs_repeat_for_a_seed() {
        let a = schedule(&loadgen(WARM_RATE, 2_000, 7, Mix::default()));
        let b = schedule(&loadgen(WARM_RATE, 2_000, 7, Mix::default()));
        assert_eq!(a, b);
        assert_ne!(a, schedule(&loadgen(WARM_RATE, 2_000, 8, Mix::default())));

        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("test-{}", std::process::id()));
        let read = |paths: &[String]| -> Vec<Vec<u8>> {
            paths
                .iter()
                .map(|p| std::fs::read(p).expect("written"))
                .collect()
        };
        let (first, seeds) = write_miss_programs(5, 6, &dir.join("a")).expect("written");
        let (again, seeds_again) = write_miss_programs(5, 6, &dir.join("b")).expect("written");
        let (other, _) = write_miss_programs(6, 6, &dir.join("c")).expect("written");
        assert_eq!(read(&first), read(&again));
        assert_eq!(seeds, seeds_again);
        assert_ne!(read(&first), read(&other));
        let distinct: HashSet<Vec<u8>> = read(&first).into_iter().collect();
        assert_eq!(distinct.len(), 6, "every miss program is new to the server");
        std::fs::remove_dir_all(&dir).ok();
    }
}
