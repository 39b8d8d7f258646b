//! `serve-mix`: an in-process `evcap_serve::Server` with a disk store,
//! driven open-loop at one fixed offered rate over one keep-alive
//! connection. One unit of work is one request.
//!
//! Each request is timed from when it was due, so a stall is charged to
//! every request it delays. The mix is drawn in blocks of exact
//! composition: mostly hot-cache solves, then simulations with fresh
//! seeds, solves only the store holds, fresh solves that write through to
//! the store, malformed bodies and `/metrics` reads.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use evcap_obs::jsonl::parse_line;
use evcap_serve::{Conn, ServeConfig, Server};
use evcap_spec::{parse_dist, parse_objective, solve, PolicySpec, Scenario};
use evcap_store::Store;

use crate::grid::core_span;
use crate::loadgen::{block_sequence, due_ns, Timing};
use crate::metrics_delta::{self, Snapshot};
use crate::spans::Tracer;
use crate::stats::{mean, median, Rng};
use crate::{self_ms, set_up, timed, Config, Outcome, Phase};

/// Offered load, requests per second: below the mix's capacity on two
/// shared cores, so the queue stays short and latency, not throughput,
/// carries the signal. At 30 s a run sends 7 500 requests, mid-way between
/// the sample counts where the tail rule changes percentile.
const RATE: f64 = 250.0;
/// A request answered correctly within this limit counts toward
/// `slo_frac`. It sits above the hit path's 90th percentile and below the
/// fresh solves on two shared cores: simulations, store loads and fresh
/// solves miss it, and a hit misses it when the hit path slows or queues
/// behind them.
const SLO_MS: f64 = 0.3;
/// Store-only scenarios per block of 16, by kind: most are Pareto
/// periodic artifacts, whose every load re-discretizes a 65 536-state
/// heavy tail and certifies it; one is a Markov clustering artifact,
/// rehydrated without a search; the rest are cheap families. Pareto loads
/// are 3% of all requests, so the tail percentile falls inside them.
const STORE_BLOCK: [(&str, &str); 16] = [
    ("pareto:2,10", "periodic"),
    ("", ""),
    ("pareto:2,10", "periodic"),
    ("pareto:2,10", "periodic"),
    ("", ""),
    ("pareto:2,10", "periodic"),
    ("pareto:2,10", "periodic"),
    ("markov:0.9,0.2", "clustering"),
    ("pareto:2,10", "periodic"),
    ("", ""),
    ("pareto:2,10", "periodic"),
    ("pareto:2,10", "periodic"),
    ("", ""),
    ("pareto:2,10", "periodic"),
    ("pareto:2,10", "periodic"),
    ("", ""),
];
/// The generator sleeps until this long before a request is due, then
/// spins, so timer slack does not pass for server latency.
const SPIN: Duration = Duration::from_micros(100);
/// Socket timeout for clients and the server's idle keep-alive reads.
const TIMEOUT: Duration = Duration::from_secs(2);

/// Request classes, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Hit,
    Simulate,
    Store,
    Fresh,
    Error,
    Metrics,
}

impl Class {
    /// The per-layer metric of the class's client-side latency.
    fn metric(self) -> &'static str {
        match self {
            Class::Hit => "serve.hit_ms",
            Class::Simulate => "serve.simulate_ms",
            Class::Store => "serve.store_ms",
            Class::Fresh => "serve.fresh_ms",
            Class::Error => "serve.error_ms",
            Class::Metrics => "serve.metrics_ms",
        }
    }

    fn name(self) -> &'static str {
        match self {
            Class::Hit => "serve.hit",
            Class::Simulate => "serve.simulate",
            Class::Store => "serve.store",
            Class::Fresh => "serve.fresh",
            Class::Error => "serve.error",
            Class::Metrics => "serve.metrics",
        }
    }
}

/// Requests of each class per block of 100.
const MIX: [(Class, usize); 6] = [
    (Class::Hit, 75),
    (Class::Simulate, 10),
    (Class::Store, 5),
    (Class::Fresh, 3),
    (Class::Error, 5),
    (Class::Metrics, 2),
];

/// Cheap families for the hot set, the store and fresh solves.
const CHEAP_DISTS: [&str; 4] = [
    "weibull:40,3",
    "exp:0.1",
    "markov:0.9,0.2",
    "lognormal:3,0.5",
];
const CHEAP_POLICIES: [&str; 3] = ["greedy", "periodic", "aggressive"];
const OBJECTIVES: [&str; 3] = ["qom", "aoi-mean", "aoi-peak"];

/// Malformed bodies and the error `kind` each must draw.
const BAD_BODIES: [(&str, &str); 5] = [
    (r#"{"dist":"weibull:40,3""#, "invalid_json"),
    (r#"{"dist":"weibull:40,3"}"#, "missing_field"),
    (
        r#"{"dist":"weibull:40,3","e":0.3,"colour":"red"}"#,
        "unknown_field",
    ),
    (r#"{"dist":"weibull:40,3","e":-1}"#, "invalid_field"),
    (r#"{"dist":"zipf:1","e":0.3}"#, "invalid_spec"),
];

/// One scenario as a request body and as the server will key it.
#[derive(Debug, Clone)]
struct Spec {
    dist: &'static str,
    policy: &'static str,
    objective: &'static str,
    e: f64,
}

impl Spec {
    fn body(&self) -> String {
        format!(
            r#"{{"dist":"{}","policy":"{}","objective":"{}","e":{}}}"#,
            self.dist, self.policy, self.objective, self.e
        )
    }

    fn scenario(&self) -> Result<Scenario, String> {
        let policy = PolicySpec::parse(self.policy).map_err(|e| e.to_string())?;
        let objective = parse_objective(self.objective).map_err(|e| e.to_string())?;
        Ok(Scenario::new(self.dist, policy, self.e)
            .map_err(|e| e.to_string())?
            .with_objective(objective))
    }
}

/// One prepared request and what its response must show.
#[derive(Debug, Clone)]
struct Req {
    class: Class,
    method: &'static str,
    path: &'static str,
    body: String,
    /// Expected `x-evcap-cache` label (`None`: no header).
    cache: Option<&'static str>,
    /// Expected error `kind` for a 400.
    kind: Option<&'static str>,
}

impl Req {
    /// A `/v1/simulate` of `spec`; a new `seed` misses the response cache.
    fn simulate(spec: &Spec, slots: u64, replications: u64, seed: u64) -> Self {
        Req {
            class: Class::Simulate,
            method: "POST",
            path: "/v1/simulate",
            body: spec.body().trim_end_matches('}').to_owned()
                + &format!(r#","slots":{slots},"replications":{replications},"seed":{seed}}}"#),
            cache: Some("miss"),
            kind: None,
        }
    }

    fn solve(class: Class, spec: &Spec, cache: &'static str) -> Self {
        Req {
            class,
            method: "POST",
            path: "/v1/solve",
            body: spec.body(),
            cache: Some(cache),
            kind: None,
        }
    }
}

/// Every input of one run, drawn from the seed.
struct Inputs {
    hot: Vec<Spec>,
    sim: Vec<Spec>,
    store: Vec<Spec>,
    fresh: Vec<Spec>,
}

/// `n` distinct specs with `e` spread over `[lo, lo + 0.1)` so no two
/// collide. With `kinds`, spec `k` takes kind `k mod kinds.len()`; an empty
/// kind (and every spec without `kinds`) draws a cheap family.
fn distinct_specs(
    n: usize,
    lo: f64,
    kinds: &[(&'static str, &'static str)],
    rng: &mut Rng,
) -> Vec<Spec> {
    (0..n)
        .map(|k| {
            let e = lo + 0.1 * (k as f64 + rng.unit()) / n as f64;
            let objective = OBJECTIVES[rng.below(3)];
            let (dist, policy) = match kinds.get(k % kinds.len().max(1)) {
                Some(&(dist, policy)) if !dist.is_empty() => (dist, policy),
                _ => (
                    CHEAP_DISTS[rng.below(CHEAP_DISTS.len())],
                    CHEAP_POLICIES[rng.below(CHEAP_POLICIES.len())],
                ),
            };
            Spec {
                dist,
                policy,
                objective,
                e,
            }
        })
        .collect()
}

fn inputs(seed: u64, requests: usize) -> Inputs {
    let mut rng = Rng::new(seed, 10);
    let mut hot = Vec::new();
    for dist in CHEAP_DISTS {
        for policy in CHEAP_POLICIES {
            for objective in &OBJECTIVES[..2] {
                hot.push(Spec {
                    dist,
                    policy,
                    objective,
                    e: 0.2 + 0.2 * rng.unit(),
                });
            }
        }
    }
    let sim = hot.iter().step_by(5).cloned().collect();
    // Enough store-only and fresh scenarios that none is requested twice.
    let share = |c: Class| MIX.iter().find(|m| m.0 == c).map_or(0, |m| m.1);
    let store_n = requests * share(Class::Store) / 100 + share(Class::Store);
    let fresh_n = requests * share(Class::Fresh) / 100 + share(Class::Fresh);
    Inputs {
        hot,
        sim,
        store: distinct_specs(store_n, 0.45, &STORE_BLOCK, &mut rng),
        fresh: distinct_specs(fresh_n, 0.6, &[], &mut rng),
    }
}

/// The timed request sequence.
fn requests(inp: &Inputs, n: usize, seed: u64, first_sim_seed: u64) -> Vec<Req> {
    let mut rng = Rng::new(seed, 11);
    let classes = block_sequence(&MIX, n, &mut rng);
    let (mut store, mut fresh, mut sims) = (inp.store.iter(), inp.fresh.iter(), 0u64);
    classes
        .into_iter()
        .map(|class| match class {
            Class::Hit => Req::solve(class, &inp.hot[rng.below(inp.hot.len())], "hit"),
            Class::Store => Req::solve(class, store.next().expect("sized for n"), "miss"),
            Class::Fresh => Req::solve(class, fresh.next().expect("sized for n"), "miss"),
            Class::Simulate => {
                let spec = &inp.sim[rng.below(inp.sim.len())];
                // Fresh seeds miss the response cache; the artifact is warm.
                let (slots, reps) = if sims % 2 == 0 {
                    (20_000, 1)
                } else {
                    (5_000, 4)
                };
                let req = Req::simulate(spec, slots, reps, first_sim_seed + sims);
                sims += 1;
                req
            }
            Class::Error => {
                let (body, kind) = BAD_BODIES[rng.below(BAD_BODIES.len())];
                Req {
                    class,
                    method: "POST",
                    path: "/v1/solve",
                    body: body.to_owned(),
                    cache: None,
                    kind: Some(kind),
                }
            }
            Class::Metrics => Req {
                class,
                method: "GET",
                path: "/metrics",
                body: String::new(),
                cache: None,
                kind: None,
            },
        })
        .collect()
}

/// Whether a response is what the request's class must get.
fn check(req: &Req, resp: &evcap_serve::Response) -> bool {
    let status_ok = match req.class {
        Class::Error => resp.status == 400,
        _ => resp.status == 200,
    };
    let kind_ok = req.kind.is_none_or(|want| {
        parse_line(&resp.text())
            .ok()
            .and_then(|v| v.get("kind").and_then(|k| k.as_str().map(str::to_owned)))
            .as_deref()
            == Some(want)
    });
    status_ok && resp.cache.as_deref() == req.cache && kind_ok
}

/// A running server and its store directory; dropping it stops the
/// server and removes the directory.
struct Stage {
    server: Option<Server>,
    addr: SocketAddr,
    dir: PathBuf,
}

impl Drop for Stage {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn start_server(threads: usize, store: Option<&Path>, trace: bool) -> Result<Server, String> {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads,
        read_timeout: TIMEOUT,
        store: store.map(|d| d.display().to_string()),
        trace,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

fn connect(addr: SocketAddr) -> Result<Conn, String> {
    Conn::connect(addr, TIMEOUT).map_err(|e| format!("connect: {e}"))
}

/// Set-up: solve and store the store-only scenarios, start the server on
/// the store, and warm the hot cache and the simulation artifacts.
fn setup(cfg: &Config, inp: &Inputs, tracer: &mut Tracer) -> Result<Stage, String> {
    let dir = cfg
        .out_dir
        .join(format!("serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut store = Store::open(&dir).map_err(|e| format!("store open: {e}"))?;
        for spec in &inp.store {
            let scenario = spec.scenario()?;
            let solved = tracer
                .span(core_span(spec.policy), 0, |_| solve(&scenario))
                .map_err(|e| format!("solving {}: {e}", scenario.canonical_key()))?;
            tracer
                .span("store.append", 0, |_| store.append(&solved))
                .map_err(|e| format!("store append: {e}"))?;
        }
    }
    // Reopen to rebuild the index from disk, as the server will, and check
    // every record came back.
    let reopened = tracer
        .span("store.open", 0, |_| Store::open(&dir))
        .map_err(|e| format!("store reopen: {e}"))?;
    if reopened.len() != inp.store.len() {
        return Err(format!(
            "store holds {} of {} records",
            reopened.len(),
            inp.store.len()
        ));
    }
    drop(reopened);
    let server = tracer.span("serve.start", 0, |_| {
        start_server(cfg.nproc, Some(&dir), true)
    })?;
    let stage = Stage {
        addr: server.local_addr(),
        server: Some(server),
        dir,
    };
    tracer.span("serve.warm", 0, |_| -> Result<(), String> {
        let mut conn = connect(stage.addr)?;
        let mut warm: Vec<Req> = inp
            .hot
            .iter()
            .map(|s| Req::solve(Class::Hit, s, "miss"))
            .collect();
        warm.extend(inp.sim.iter().map(|spec| Req::simulate(spec, 1_000, 1, 1)));
        for req in &warm {
            let resp = conn
                .request(req.method, req.path, req.body.as_bytes())
                .map_err(|e| format!("warm-up request: {e}"))?;
            if !check(req, &resp) {
                return Err(format!(
                    "warm-up {} {} got {}",
                    req.path, req.body, resp.status
                ));
            }
        }
        Ok(())
    })?;
    Ok(stage)
}

/// Reads `/metrics` over a connection of its own, closed at once so it
/// does not hold one of the server's workers.
fn snapshot(addr: SocketAddr) -> Result<Snapshot, String> {
    let resp = connect(addr)?
        .request("GET", "/metrics", b"")
        .map_err(|e| format!("/metrics: {e}"))?;
    metrics_delta::parse(&resp.text())
}

/// One timed request's record.
struct Sample {
    class: Class,
    timing: Timing,
    ok: bool,
}

/// Sends `reqs` open-loop at `RATE` over one keep-alive connection.
fn drive(
    addr: SocketAddr,
    reqs: &[Req],
    tracer: &mut Tracer,
) -> Result<(Vec<Sample>, f64), String> {
    let mut conn = connect(addr)?;
    let mut samples = Vec::with_capacity(reqs.len());
    let t0 = Instant::now();
    let epoch_ns = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
    let spin = SPIN.as_nanos() as u64;
    for (i, req) in reqs.iter().enumerate() {
        let due = due_ns(i as u64, RATE);
        let now = epoch_ns(Instant::now());
        if now + spin < due {
            std::thread::sleep(Duration::from_nanos(due - spin - now));
        }
        while epoch_ns(Instant::now()) < due {
            std::hint::spin_loop();
        }
        let sent = Instant::now();
        let resp = conn.request(req.method, req.path, req.body.as_bytes());
        let done = Instant::now();
        tracer.record(req.class.name(), i as u64, sent, done);
        samples.push(Sample {
            class: req.class,
            timing: Timing {
                due_ns: due,
                sent_ns: epoch_ns(sent),
                done_ns: epoch_ns(done),
            },
            ok: resp.as_ref().is_ok_and(|r| check(req, r)),
        });
        if resp.is_err() {
            // A broken connection fails this request; open a new one for
            // the rest.
            conn = connect(addr)?;
        }
    }
    Ok((samples, t0.elapsed().as_secs_f64()))
}

/// What a timed phase leaves beside its [`Phase`]: every request's record,
/// the `/metrics` counter deltas, and the deltas that disagree with the
/// mix that was sent.
struct Sent {
    samples: Vec<Sample>,
    deltas: Snapshot,
    mismatches: Vec<String>,
}

/// One timed phase: snapshot, drive, snapshot, check the deltas.
fn phase(addr: SocketAddr, reqs: &[Req], tracer: &mut Tracer) -> Result<(Phase, Sent), String> {
    let before = snapshot(addr)?;
    let (samples, elapsed_s) = drive(addr, reqs, tracer)?;
    let after = snapshot(addr)?;
    let deltas = metrics_delta::delta(&before, &after);
    let count = |c: Class| reqs.iter().filter(|r| r.class == c).count() as u64;
    let (hit, sim, store, fresh, err) = (
        count(Class::Hit),
        count(Class::Simulate),
        count(Class::Store),
        count(Class::Fresh),
        count(Class::Error),
    );
    let mismatches = metrics_delta::mismatches(
        &deltas,
        &[
            ("solve_cache_hits", hit),
            ("solve_cache_misses", store + fresh),
            ("sim_cache_misses", sim),
            ("artifact_cache_hits", sim),
            ("artifact_cache_misses", store + fresh),
            ("store_hits", store),
            ("store_misses", fresh),
            ("store_appends", fresh),
            ("store_rejects", 0),
            ("responses_4xx", err),
            ("responses_5xx", 0),
        ],
    );
    let mut p = Phase {
        elapsed_s,
        ..Phase::default()
    };
    for s in &samples {
        let ms = s.timing.latency_ns() as f64 / 1e6;
        p.attempted += 1;
        p.latencies_ms.push(ms);
        if s.ok {
            p.work += 1.0;
            if ms <= SLO_MS {
                p.slo_met += 1;
            }
        } else {
            p.failed += 1;
        }
    }
    Ok((
        p,
        Sent {
            samples,
            deltas,
            mismatches,
        },
    ))
}

/// Traced probe of the store tier from outside: load, discretize and
/// certify a seeded sample of the store-only scenarios.
fn store_probe(dir: &Path, inp: &Inputs, tracer: &mut Tracer, rng: &mut Rng) -> Result<(), String> {
    let mut store = Store::open(dir).map_err(|e| format!("store open: {e}"))?;
    for k in 0..24 {
        let spec = &inp.store[rng.below(inp.store.len())];
        let scenario = spec.scenario()?;
        let id = 1_000_000 + k;
        let loaded = tracer
            .span("store.load", id, |_| store.load(&scenario.canonical_key()))
            .map_err(|e| format!("store load: {e}"))?;
        tracer.span("dist.discretize", id, |_| {
            std::hint::black_box(parse_dist(scenario.dist(), scenario.horizon()).is_ok())
        });
        tracer
            .span("audit.certify", id, |_| {
                evcap_audit::certify(&scenario, &loaded)
            })
            .map_err(|e| format!("certify stored {}: {e}", scenario.canonical_key()))?;
    }
    Ok(())
}

/// `serve.hit_ms` with the server's request tracing on minus off:
/// alternating closed-loop blocks of hits against two otherwise identical
/// servers.
fn trace_cost(threads: usize, spec: &Spec) -> Result<f64, String> {
    let on = start_server(threads, None, true)?;
    let off = match start_server(threads, None, false) {
        Ok(s) => s,
        Err(e) => {
            on.shutdown();
            return Err(e);
        }
    };
    let body = spec.body();
    let measured = (|| -> Result<(Vec<f64>, Vec<f64>), String> {
        let mut conns = [connect(on.local_addr())?, connect(off.local_addr())?];
        let mut ms = [Vec::new(), Vec::new()];
        for block in 0..40 {
            for (side, conn) in conns.iter_mut().enumerate() {
                for n in 0..50 {
                    let t = Instant::now();
                    let resp = conn
                        .request("POST", "/v1/solve", body.as_bytes())
                        .map_err(|e| format!("trace probe: {e}"))?;
                    // The first request of each server is the miss.
                    if block > 0 || n > 0 {
                        if resp.status != 200 {
                            return Err(format!("trace probe status {}", resp.status));
                        }
                        ms[side].push(t.elapsed().as_secs_f64() * 1e3);
                    }
                }
            }
        }
        let [a, b] = ms;
        Ok((a, b))
    })();
    on.shutdown();
    off.shutdown();
    let (with, without) = measured?;
    Ok(median(&with) - median(&without))
}

/// Per class: count, median, 90th percentile and maximum latency (ms), and
/// the mean generator lag.
fn class_summary(samples: &[Sample]) -> String {
    let mut by: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for s in samples {
        by.entry(s.class)
            .or_default()
            .push(s.timing.latency_ns() as f64 / 1e6);
    }
    let mut parts: Vec<String> = by
        .iter()
        .map(|(c, v)| {
            let mut v = v.clone();
            v.sort_by(f64::total_cmp);
            let p90 = v[(v.len() * 9 / 10).min(v.len() - 1)];
            format!(
                "{} n={} p50={:.3} p90={:.3} max={:.3}",
                c.name(),
                v.len(),
                median(&v),
                p90,
                v[v.len() - 1]
            )
        })
        .collect();
    let lags: Vec<f64> = samples
        .iter()
        .map(|s| s.timing.lag_ns() as f64 / 1e6)
        .collect();
    parts.push(format!("lag mean={:.4}", mean(&lags)));
    parts.join("; ")
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Result<Outcome, String> {
    let per_phase = (RATE * cfg.seconds / if cfg.trace { 2.0 } else { 1.0 })
        .round()
        .max(1.0) as usize;
    let total = per_phase * if cfg.trace { 2 } else { 1 };
    let inp = inputs(cfg.seed, total);
    let reqs = requests(&inp, total, cfg.seed, 1_000);
    let (plain_reqs, traced_reqs) = reqs.split_at(per_phase);

    let (stage, setup_s) = set_up(cfg, tracer, |tr| setup(cfg, &inp, tr))?;
    let ((plain, sent), traced) = timed(cfg, tracer, |_, tr| {
        phase(
            stage.addr,
            if tr.on() { traced_reqs } else { plain_reqs },
            tr,
        )
    })?;
    let mut check_failures = sent.mismatches;
    let mut layers = BTreeMap::new();
    let mut notes = vec![
        (
            "offered_rate_per_s".to_owned(),
            format!("{RATE} over one connection"),
        ),
        ("classes_ms".to_owned(), class_summary(&sent.samples)),
    ];
    let traced = match traced {
        None => None,
        Some((p, sent)) => {
            check_failures.extend(sent.mismatches);
            for c in [
                Class::Hit,
                Class::Simulate,
                Class::Store,
                Class::Fresh,
                Class::Error,
                Class::Metrics,
            ] {
                let ms: Vec<f64> = sent
                    .samples
                    .iter()
                    .filter(|s| s.class == c)
                    .map(|s| s.timing.latency_ns() as f64 / 1e6)
                    .collect();
                layers.insert(c.metric(), median(&ms));
            }
            let lags: Vec<f64> = sent
                .samples
                .iter()
                .map(|s| s.timing.lag_ns() as f64 / 1e6)
                .collect();
            layers.insert("loadgen.lag_ms", mean(&lags));
            let d = |k: &str| sent.deltas.get(k).copied().unwrap_or(0.0);
            for (metric, key) in [
                ("serve.solve_cache_hits", "solve_cache_hits"),
                ("serve.solve_cache_misses", "solve_cache_misses"),
                ("serve.artifact_cache_hits", "artifact_cache_hits"),
                ("serve.store_hits", "store_hits"),
                ("serve.store_appends", "store_appends"),
                ("serve.store_rejects", "store_rejects"),
                ("serve.responses_4xx", "responses_4xx"),
                ("serve.responses_5xx", "responses_5xx"),
            ] {
                layers.insert(metric, d(key));
            }
            let lookups = d("solve_cache_hits") + d("solve_cache_misses");
            layers.insert("serve.hit_ratio", d("solve_cache_hits") / lookups.max(1.0));
            store_probe(&stage.dir, &inp, tracer, &mut Rng::new(cfg.seed, 12))?;
            layers.insert("obs.trace_ms", trace_cost(cfg.nproc, &inp.hot[0])?);
            for (metric, span) in [
                ("dist.discretize_ms", "dist.discretize"),
                ("core.greedy_ms", "core.greedy"),
                ("core.clustering_ms", "core.clustering"),
                ("audit.certify_ms", "audit.certify"),
                ("store.open_ms", "store.open"),
                ("store.load_ms", "store.load"),
                ("store.append_ms", "store.append"),
            ] {
                layers.insert(metric, self_ms(tracer, span));
            }
            notes.push(("metrics_deltas".to_owned(), format!("{:?}", sent.deltas)));
            Some(p)
        }
    };
    Ok(Outcome {
        setup_s,
        plain,
        traced,
        layers,
        check_failures,
        slo_limit_ms: SLO_MS,
        work_unit: "requests",
        notes,
    })
}
