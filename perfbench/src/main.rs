//! The evcap benchmark: one command, three workloads, every end-to-end
//! metric by name and unit, and a traced mode that breaks the same work
//! down by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve-grid|replicate|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! With `--trace 0` it carries the end-to-end metrics, measured with the
//! benchmark's spans off; with `--trace 1` it carries the per-layer metrics
//! and the tracing overhead. A full report (and, when traced, every span)
//! is written under `.bench_out/`.

mod grid;
mod loadgen;
mod metrics_delta;
mod replicate;
mod serve_mix;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use evcap_obs::jsonl::{escape, num};

use crate::spans::Tracer;
use crate::stats::{median, Tail};

/// Set-ups per run. `setup_s` is the median of their wall times; the
/// first is counted from process start and is also reported on its own as
/// the cold set-up time.
pub const SETUPS: usize = 5;

/// Run settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase, seconds (split in half when traced).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// `available_parallelism`: the bound on client and server threads.
    pub nproc: usize,
    /// Where reports, spans and scratch state go.
    pub out_dir: PathBuf,
    /// Process start, as near as `main` can tell.
    pub start: Instant,
}

/// Runs the workload's set-up [`SETUPS`] times and keeps the state of the
/// last, which alone is traced: its spans describe the state the timed
/// phase uses. Each earlier state is dropped before the next set-up
/// starts. Returns the state and the wall time of every set-up, seconds.
pub fn set_up<S>(
    cfg: &Config,
    tracer: &mut Tracer,
    mut once: impl FnMut(&mut Tracer) -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for rep in 0..SETUPS {
        drop(state.take());
        let t = if rep == 0 { cfg.start } else { Instant::now() };
        let mut off = Tracer::new(false, cfg.start);
        let tr = if rep + 1 == SETUPS {
            &mut *tracer
        } else {
            &mut off
        };
        state = Some(once(tr)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let state = state.ok_or("no set-up ran")?;
    Ok((state, times))
}

/// The untraced phase and, when traced, the traced one, each with what
/// the workload's phase function returned beside it.
pub type Timed<D> = ((Phase, D), Option<(Phase, D)>);

/// Runs the untraced timed phase and, on `--trace 1`, a traced one after
/// it; a traced run gives each half of the seconds. `phase` receives the
/// seconds and the tracer to record into (off for the untraced phase).
pub fn timed<D>(
    cfg: &Config,
    tracer: &mut Tracer,
    mut phase: impl FnMut(f64, &mut Tracer) -> Result<(Phase, D), String>,
) -> Result<Timed<D>, String> {
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = phase(seconds, &mut Tracer::new(false, cfg.start))?;
    let traced = if cfg.trace {
        Some(phase(seconds, tracer)?)
    } else {
        None
    };
    Ok((plain, traced))
}

/// A slice of a compute workload's timed phase that holds the workload's
/// full mix.
#[derive(Debug, Clone)]
pub struct Window {
    /// Work per second.
    pub rate: f64,
    /// Median latency, milliseconds.
    pub median_ms: f64,
    /// Indices of the window's operations in [`Phase::latencies_ms`].
    pub ops: Range<usize>,
}

/// What one timed phase produced.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Units of work completed (the workload states the unit).
    pub work: f64,
    /// Wall time of the phase, seconds.
    pub elapsed_s: f64,
    /// Latency of every attempted operation, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or failed their correctness check.
    pub failed: u64,
    /// Operations that succeeded, passed their check, and met the limit.
    pub slo_met: u64,
    /// The phase's windows. Empty when the phase is rate-limited.
    pub windows: Vec<Window>,
}

/// Compute-bound workloads report the throughput of their slow windows
/// (this quantile of window rates) and the median latency of their slow
/// windows (the mirror quantile of window medians). Spare capacity left by
/// neighbours on a shared machine only ever makes a window faster than the
/// loaded floor, and nearly every run spends a few windows at that floor,
/// so the slow windows repeat from run to run while a change to the
/// program moves every window. Of the twenty to forty windows a 30 s run
/// holds this is the slowest or the second-slowest.
const SLOW_WINDOWS: f64 = 0.05;

/// A compute workload's tail is taken over the slower half of its windows,
/// or over as many of its slowest windows as it takes to hold this many
/// latencies if the half holds fewer: enough for a 99th percentile with
/// ten samples beyond. A tail over every window would move with the share
/// of the run the neighbours left fast, since its top percent falls where
/// the heavy operations' fast and slow runs meet.
const TAIL_POOL: usize = 1_000;

impl Phase {
    /// Closes one window: `work` done in `secs` seconds by the operations
    /// from index `first_op` on.
    pub fn window(&mut self, work: f64, secs: f64, first_op: usize) {
        let ops = first_op..self.latencies_ms.len();
        self.windows.push(Window {
            rate: work / secs.max(1e-9),
            median_ms: median(&self.latencies_ms[ops.clone()]),
            ops,
        });
    }

    /// The latencies the tail is taken over: every one for a rate-limited
    /// phase, else those of the slowest windows (see [`TAIL_POOL`]).
    fn tail_pool(&self) -> Vec<f64> {
        if self.windows.is_empty() {
            return self.latencies_ms.clone();
        }
        let mut slowest: Vec<&Window> = self.windows.iter().collect();
        slowest.sort_by(|a, b| a.rate.total_cmp(&b.rate));
        let want = TAIL_POOL.max(self.latencies_ms.len() / 2);
        let mut pool = Vec::new();
        for w in slowest {
            if pool.len() >= want {
                break;
            }
            pool.extend_from_slice(&self.latencies_ms[w.ops.clone()]);
        }
        pool
    }

    /// The end-to-end figures of the phase, counting `check_failures`
    /// operations that failed a check made after the phase.
    fn end_to_end(&self, check_failures: usize) -> EndToEnd {
        let attempted = self.attempted.max(1) as f64;
        let failed = (self.failed + check_failures as u64).min(self.attempted);
        let (throughput_per_s, p50_ms) = if self.windows.is_empty() {
            (
                self.work / self.elapsed_s.max(1e-9),
                median(&self.latencies_ms),
            )
        } else {
            let rates: Vec<f64> = self.windows.iter().map(|w| w.rate).collect();
            let medians: Vec<f64> = self.windows.iter().map(|w| w.median_ms).collect();
            (
                stats::quantile(&rates, SLOW_WINDOWS),
                stats::quantile(&medians, 1.0 - SLOW_WINDOWS),
            )
        };
        EndToEnd {
            throughput_per_s,
            p50_ms,
            tail: stats::tail(&self.tail_pool()).unwrap_or(Tail {
                pct: 50.0,
                value: 0.0,
                beyond: 0,
                samples: 0,
            }),
            ok_frac: (self.attempted - failed) as f64 / attempted,
            slo_frac: self.slo_met as f64 / attempted,
        }
    }
}

/// The end-to-end figures of one phase.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    throughput_per_s: f64,
    p50_ms: f64,
    tail: Tail,
    ok_frac: f64,
    slo_frac: f64,
}

/// Everything a workload hands back.
#[derive(Debug)]
pub struct Outcome {
    /// One wall time per set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// The untraced timed phase (the only one end-to-end metrics use).
    pub plain: Phase,
    /// The traced timed phase, on `--trace 1`.
    pub traced: Option<Phase>,
    /// Per-layer metrics the workload measured (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Correctness failures found by checks made after the timed phases;
    /// each counts as one failed operation.
    pub check_failures: Vec<String>,
    /// The latency limit behind `slo_frac`, milliseconds.
    pub slo_limit_ms: f64,
    /// The unit of work behind `throughput_per_s`.
    pub work_unit: &'static str,
    /// Workload-specific facts for the report file.
    pub notes: Vec<(String, String)>,
}

/// Every per-layer metric with its unit. A traced run prints all of them;
/// a layer the workload bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("dist.discretize_ms", "ms"),
    ("core.greedy_ms", "ms"),
    ("core.myopic_ms", "ms"),
    ("core.clustering_ms", "ms"),
    ("core.clustering_candidates", "count"),
    ("audit.certify_ms", "ms"),
    ("sim.single_ms", "ms"),
    ("sim.batch_ms", "ms"),
    ("sim.lane_slots", "count"),
    ("sim.phase.generate_ms", "ms"),
    ("sim.phase.recharge_ms", "ms"),
    ("sim.phase.decide_ms", "ms"),
    ("sim.phase.events_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.append_ms", "ms"),
    ("serve.hit_ms", "ms"),
    ("serve.simulate_ms", "ms"),
    ("serve.store_ms", "ms"),
    ("serve.fresh_ms", "ms"),
    ("serve.error_ms", "ms"),
    ("serve.metrics_ms", "ms"),
    ("serve.solve_cache_hits", "count"),
    ("serve.solve_cache_misses", "count"),
    ("serve.artifact_cache_hits", "count"),
    ("serve.store_hits", "count"),
    ("serve.store_appends", "count"),
    ("serve.store_rejects", "count"),
    ("serve.responses_4xx", "count"),
    ("serve.responses_5xx", "count"),
    ("serve.hit_ratio", "frac"),
    ("obs.trace_ms", "ms"),
    ("loadgen.lag_ms", "ms"),
    ("trace.overhead.throughput_per_s", "1/s"),
    ("trace.overhead.p50_ms", "ms"),
    ("trace.overhead.tail_ms", "ms"),
];

/// Mean self time per span of every `name` in the tracer, milliseconds.
pub fn self_ms(tracer: &Tracer, name: &str) -> f64 {
    tracer
        .self_times()
        .get(name)
        .map_or(0.0, spans::SelfTime::mean_ms)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad("positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required (solve-grid, replicate, serve-mix)".to_owned());
    }
    Ok(args)
}

/// The first line a command prints, or `unknown` if it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size (`VmHWM`), megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metric = (String, f64, &'static str);

/// Every end-to-end metric with its unit, in report order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ok_frac", "frac"),
    ("slo_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

fn end_to_end_metrics(o: &Outcome, e: &EndToEnd) -> Vec<Metric> {
    let values = [
        median(&o.setup_s),
        e.throughput_per_s,
        e.p50_ms,
        e.tail.value,
        e.ok_frac,
        e.slo_frac,
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_owned(), value, unit))
        .collect()
}

fn per_layer_metrics(o: &Outcome, plain: &EndToEnd, traced_phase: &Phase) -> Vec<Metric> {
    let traced = traced_phase.end_to_end(0);
    let mut layers = o.layers.clone();
    layers.insert(
        "trace.overhead.throughput_per_s",
        traced.throughput_per_s - plain.throughput_per_s,
    );
    layers.insert("trace.overhead.p50_ms", traced.p50_ms - plain.p50_ms);
    // The halves may hold different sample counts, so compare them at the
    // untraced half's percentile.
    let traced_tail = stats::quantile(&traced_phase.tail_pool(), plain.tail.pct / 100.0);
    layers.insert("trace.overhead.tail_ms", traced_tail - plain.tail.value);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_owned(),
                layers.get(name).copied().unwrap_or(0.0),
                unit,
            )
        })
        .collect()
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                escape(name),
                num(*value),
                escape(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn num_array(xs: &[f64]) -> String {
    format!(
        "[{}]",
        xs.iter().map(|v| num(*v)).collect::<Vec<_>>().join(",")
    )
}

fn phase_json(p: &Phase, e: &EndToEnd) -> String {
    let rates: Vec<f64> = p.windows.iter().map(|w| w.rate).collect();
    let medians: Vec<f64> = p.windows.iter().map(|w| w.median_ms).collect();
    format!(
        "{{\"window_rates\":{},\"window_medians_ms\":{},\"overall_rate\":{},\
         \"overall_p50_ms\":{},\"work\":{},\"elapsed_s\":{},\"attempted\":{},\"failed\":{},\"slo_met\":{},\
         \"throughput_per_s\":{},\"p50_ms\":{},\"tail_pct\":{},\"tail_ms\":{},\
         \"tail_beyond\":{},\"samples\":{}}}",
        num_array(&rates),
        num_array(&medians),
        num(p.work / p.elapsed_s.max(1e-9)),
        num(median(&p.latencies_ms)),
        num(p.work),
        num(p.elapsed_s),
        p.attempted,
        p.failed,
        p.slo_met,
        num(e.throughput_per_s),
        num(e.p50_ms),
        num(e.tail.pct),
        num(e.tail.value),
        e.tail.beyond,
        e.tail.samples
    )
}

fn write_report(path: &Path, fields: &[(&str, String)]) -> std::io::Result<()> {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", escape(k), v))
        .collect();
    std::fs::write(path, format!("{{{}}}\n", body.join(",")))
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_dir,
        start,
    };
    let mut tracer = Tracer::new(cfg.trace, start);
    let outcome = match args.workload.as_str() {
        "solve-grid" => grid::run(&cfg, &mut tracer),
        "replicate" => replicate::run(&cfg, &mut tracer),
        "serve-mix" => serve_mix::run(&cfg, &mut tracer),
        other => Err(format!("unknown workload `{other}`")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let rustc = command_line("rustc", &["-V"]);
    let revision = command_line("git", &["rev-parse", "HEAD"]);
    let check_failures = outcome.check_failures.len();
    let plain = outcome.plain.end_to_end(check_failures);
    let metrics = match &outcome.traced {
        Some(t) => per_layer_metrics(&outcome, &plain, t),
        None => end_to_end_metrics(&outcome, &plain),
    };
    let mut attempted = outcome.plain.attempted;
    let mut failed = outcome.plain.failed;
    if let Some(t) = &outcome.traced {
        attempted += t.attempted;
        failed += t.failed;
    }
    failed = (failed + check_failures as u64).min(attempted);
    let correct = failed == 0 && check_failures == 0 && attempted > 0;
    let cold_setup_s = outcome.setup_s.first().copied().unwrap_or(0.0);

    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut fields = vec![
        ("workload", quoted(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("nproc", cfg.nproc.to_string()),
        ("rustc", quoted(&rustc)),
        ("revision", quoted(&revision)),
        ("work_unit", quoted(outcome.work_unit)),
        ("slo_limit_ms", num(outcome.slo_limit_ms)),
        ("setup_cold_s", num(cold_setup_s)),
        ("setup_samples_s", num_array(&outcome.setup_s)),
        ("plain", phase_json(&outcome.plain, &plain)),
        ("metrics", metrics_json(&metrics)),
        (
            "check_failures",
            format!(
                "[{}]",
                outcome
                    .check_failures
                    .iter()
                    .map(|s| quoted(s))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    if let Some(p) = &outcome.traced {
        fields.push(("traced", phase_json(p, &p.end_to_end(0))));
    }
    for (k, v) in &outcome.notes {
        fields.push((k.as_str(), quoted(v)));
    }
    let report_path = cfg.out_dir.join(format!("{tag}.json"));
    if let Err(e) = write_report(&report_path, &fields) {
        eprintln!("perfbench: cannot write {}: {e}", report_path.display());
    }
    if tracer.on() {
        let spans_path = cfg.out_dir.join(format!("{tag}.spans.jsonl"));
        if let Err(e) = tracer.write_jsonl(&spans_path) {
            eprintln!("perfbench: cannot write {}: {e}", spans_path.display());
        }
    }
    for failure in &outcome.check_failures {
        eprintln!("perfbench: check failed: {failure}");
    }

    println!(
        "# {} seed={} nproc={} rustc=\"{}\" revision={}",
        args.workload, args.seed, cfg.nproc, rustc, revision
    );
    println!(
        "# work: {} {} in {:.3} s; tail = p{} with {} of {} samples beyond; slo limit {} ms",
        outcome.plain.work,
        outcome.work_unit,
        outcome.plain.elapsed_s,
        plain.tail.pct,
        plain.tail.beyond,
        plain.tail.samples,
        outcome.slo_limit_ms
    );
    println!(
        "# set-up: median {:.4} s of {SETUPS}; cold (from process start) {:.4} s",
        median(&outcome.setup_s),
        cold_setup_s
    );
    println!("# report: {}", report_path.display());
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        correct,
        attempted,
        failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use evcap_obs::jsonl::{parse_line, JsonValue};

    fn listed(bench: &JsonValue, key: &str) -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    /// A phase of whole windows, each `(rate, latencies)` over one second.
    fn phase_of(windows: &[(f64, Vec<f64>)]) -> Phase {
        let mut p = Phase::default();
        for (rate, latencies) in windows {
            let first = p.latencies_ms.len();
            p.latencies_ms.extend(latencies);
            p.attempted += latencies.len() as u64;
            p.work += rate;
            p.window(*rate, 1.0, first);
        }
        p.elapsed_s = windows.len() as f64;
        p
    }

    #[test]
    fn tail_is_taken_over_the_slowest_windows() {
        // Alternate slow windows (rate 1, latencies 5 ms and up) with fast
        // ones (rate 2, 1 ms); 200 latencies each.
        let slow: Vec<f64> = (0..200).map(|i| 5.0 + f64::from(i) / 100.0).collect();
        let windows: Vec<(f64, Vec<f64>)> = (0..10)
            .map(|k| {
                if k % 2 == 0 {
                    (1.0, slow.clone())
                } else {
                    (2.0, vec![1.0; 200])
                }
            })
            .collect();
        let p = phase_of(&windows);
        let pool = p.tail_pool();
        assert_eq!(pool.len(), TAIL_POOL);
        assert!(pool.iter().all(|&x| x >= 5.0));
        let e = p.end_to_end(0);
        assert_eq!(
            (e.tail.pct, e.tail.beyond, e.tail.samples),
            (99.0, 10, 1_000)
        );
        assert!((e.tail.value - 6.97).abs() < 1e-9, "{}", e.tail.value);
        assert_eq!(e.throughput_per_s, 1.0);
        // With more windows, the slower half of them.
        let many: Vec<(f64, Vec<f64>)> = windows.iter().cycle().take(30).cloned().collect();
        let pool = phase_of(&many).tail_pool();
        assert_eq!(pool.len(), 3_000);
        assert!(pool.iter().all(|&x| x >= 5.0));
        // A rate-limited phase has no windows: its tail and median are
        // taken over every latency.
        let mut limited = p.clone();
        limited.windows.clear();
        assert_eq!(limited.tail_pool().len(), 2_000);
        assert_eq!(limited.end_to_end(0).p50_ms, 3.0);
    }

    #[test]
    fn failed_checks_count_against_ok_frac() {
        let p = Phase {
            attempted: 100,
            failed: 1,
            work: 99.0,
            elapsed_s: 1.0,
            latencies_ms: vec![1.0; 100],
            ..Phase::default()
        };
        assert_eq!(p.end_to_end(0).ok_frac, 0.99);
        assert_eq!(p.end_to_end(3).ok_frac, 0.96);
        assert_eq!(p.end_to_end(500).ok_frac, 0.0);
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let bench = parse_line(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&bench, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&bench, "per_layer"), owned(PER_LAYER));
    }
}
