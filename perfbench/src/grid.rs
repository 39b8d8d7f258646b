//! `solve-grid`: single-threaded cold `evcap_spec::solve` followed by
//! `evcap_audit::certify`, over a seeded grid of distribution × policy ×
//! `e` × objective. One operation is one scenario solved and certified.
//!
//! Every round runs the same multiset of cells (the seed shuffles the
//! order and draws `e` for all but the heavy cells), so the share of cheap,
//! medium and heavy solves is fixed and the median and tail fall inside a
//! cost class rather than between two. Each round is one measurement
//! window.

use std::collections::BTreeMap;
use std::time::Instant;

use evcap_spec::{
    parse_dist, parse_objective, solve, Objective, PolicyParams, PolicySpec, Scenario,
    SolvedPolicy, DEFAULT_HORIZON,
};

use crate::spans::Tracer;
use crate::stats::{digest, Rng};
use crate::{self_ms, set_up, timed, Config, Outcome, Phase};

/// Operations slower than this miss the workload's latency limit; it sits
/// in the gap between the medium solves and the clustering searches.
const SLO_MS: f64 = 50.0;

const OBJECTIVES: [&str; 3] = ["qom", "aoi-mean", "aoi-peak"];

/// One grid cell: what to solve, before the seed draws `e`.
#[derive(Debug, Clone, Copy)]
struct Cell {
    dist: &'static str,
    policy: &'static str,
    objective: &'static str,
    horizon: usize,
    /// A fixed `e`, or `None` for one drawn from the seed.
    e: Option<f64>,
}

/// Horizon of the Pareto myopic cell: the myopic derivation over the full
/// 65 536-state heavy tail takes about 0.4 s, which would leave too few
/// rounds per run.
const PARETO_MYOPIC_HORIZON: usize = 1024;

/// The 60 cells of round `round`: 25 cheap (under 0.2 ms), 30 medium
/// (3–25 ms) and 5 heavy (100–300 ms). The median falls inside the 3–4 ms
/// group and the tail inside the three `exp:0.1` clustering searches, 5%
/// of the cells, so ten samples beyond the 99th percentile are their
/// slowest fifth rather than one or two outliers. Cheap families and the
/// heavy cells rotate their objective by round.
fn round_cells(round: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    let mut push = |dist, policy, objective, horizon, e| {
        cells.push(Cell {
            dist,
            policy,
            objective,
            horizon,
            e,
        })
    };
    let full = DEFAULT_HORIZON;
    let rotating = |k: usize| OBJECTIVES[(round + k) % 3];
    // Cheap: closed forms and water-filling on short supports.
    for (i, dist) in [
        "weibull:40,3",
        "exp:0.1",
        "markov:0.9,0.2",
        "lognormal:3,0.5",
    ]
    .into_iter()
    .enumerate()
    {
        for (j, policy) in ["greedy", "periodic", "aggressive"].into_iter().enumerate() {
            push(dist, policy, rotating(i + j), full, None);
            push(dist, policy, rotating(i + j + 1), full, None);
        }
    }
    push("markov:0.9,0.2", "myopic", rotating(0), full, None);
    for objective in OBJECTIVES {
        // Medium: heavy-tail discretization and certification.
        for policy in ["greedy", "periodic", "aggressive"] {
            push("pareto:2,10", policy, objective, full, None);
        }
        // Medium: myopic derivations and the Markov clustering search.
        for dist in [
            "weibull:40,3",
            "weibull:20,1.5",
            "exp:0.1",
            "exp:0.05",
            "lognormal:3,0.5",
        ] {
            push(dist, "myopic", objective, full, None);
        }
        push("markov:0.9,0.2", "clustering", objective, full, None);
        push("markov:0.7,0.4", "clustering", objective, full, None);
    }
    // Heavy: the full clustering enumeration and a heavy-tail myopic
    // derivation. Their cost swings up to threefold across the `e` band,
    // and five of them take most of a round, so they keep one `e`.
    let heavy = Some(0.3);
    push("weibull:40,3", "clustering", rotating(1), full, heavy);
    for k in 0..3 {
        push("exp:0.1", "clustering", rotating(k), full, heavy);
    }
    push(
        "pareto:2,10",
        "myopic",
        rotating(0),
        PARETO_MYOPIC_HORIZON,
        heavy,
    );
    cells
}

/// A drawn scenario, ready to solve.
#[derive(Debug, Clone)]
struct Op {
    cell: Cell,
    scenario: Scenario,
}

fn draw(cell: Cell, rng: &mut Rng) -> Result<Op, String> {
    // A narrow band: the seed changes the inputs, not the cost mix.
    let e = cell.e.unwrap_or_else(|| 0.28 + 0.04 * rng.unit());
    let policy = PolicySpec::parse(cell.policy).map_err(|e| e.to_string())?;
    let objective: Objective = parse_objective(cell.objective).map_err(|e| e.to_string())?;
    let scenario = Scenario::new(cell.dist, policy, e)
        .map_err(|e| e.to_string())?
        .with_objective(objective)
        .with_horizon(cell.horizon);
    Ok(Op { cell, scenario })
}

/// Bit-exact digest of an artifact's solver outputs and metadata.
fn artifact_digest(solved: &SolvedPolicy) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    match &solved.params {
        PolicyParams::Greedy {
            coefficients,
            tail_coefficient,
            ideal_qom,
            discharge_rate,
        } => {
            words.extend(coefficients.iter().map(|c| c.to_bits()));
            words.extend([tail_coefficient, ideal_qom, discharge_rate].map(|v| v.to_bits()));
        }
        other => words.push(digest(format!("{other:?}").as_bytes())),
    }
    words.push(digest(format!("{:?}", solved.meta).as_bytes()));
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    digest(&bytes)
}

/// Span name of a solve, by policy family.
pub fn core_span(policy: &str) -> &'static str {
    match policy {
        "greedy" => "core.greedy",
        "myopic" => "core.myopic",
        "clustering" => "core.clustering",
        "periodic" => "core.periodic",
        _ => "core.aggressive",
    }
}

/// The result of one timed operation.
struct Done {
    op: Op,
    ms: f64,
    digest: u64,
    iterations: u64,
    ok: bool,
}

fn run_op(op: Op, id: u64, tracer: &mut Tracer) -> Done {
    if tracer.on() {
        // The solve discretizes internally; this call repeats that work on
        // its own so the trace can attribute it to `dist`.
        tracer.span("dist.discretize", id, |_| {
            std::hint::black_box(parse_dist(op.scenario.dist(), op.scenario.horizon()).is_ok())
        });
    }
    let t = Instant::now();
    let (solved, certified) = tracer.span("grid.op", id, |tr| {
        let solved = tr.span(core_span(op.cell.policy), id, |_| solve(&op.scenario));
        let certified = match &solved {
            Ok(s) => tr.span("audit.certify", id, |_| {
                evcap_audit::certify(&op.scenario, s).is_ok()
            }),
            Err(_) => false,
        };
        (solved, certified)
    });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let (digest, iterations) = solved
        .as_ref()
        .map_or((0, 0), |s| (artifact_digest(s), s.meta.iterations));
    Done {
        op,
        ms,
        digest,
        iterations,
        ok: solved.is_ok() && certified,
    }
}

/// Runs whole rounds until `seconds` have passed; returns the phase and
/// every operation it ran.
fn phase(seconds: f64, rng: &mut Rng, tracer: &mut Tracer) -> Result<(Phase, Vec<Done>), String> {
    let mut done = Vec::new();
    let mut p = Phase::default();
    let t0 = Instant::now();
    let mut round = 0;
    while t0.elapsed().as_secs_f64() < seconds {
        // Each round is one window: it holds the grid's full mix.
        let (round_start, first_op, work_before) = (Instant::now(), p.latencies_ms.len(), p.work);
        let mut cells = round_cells(round);
        rng.shuffle(&mut cells);
        for cell in cells {
            let op = draw(cell, rng)?;
            let d = run_op(op, done.len() as u64, tracer);
            p.attempted += 1;
            p.latencies_ms.push(d.ms);
            if d.ok {
                p.work += 1.0;
                if d.ms <= SLO_MS {
                    p.slo_met += 1;
                }
            } else {
                p.failed += 1;
            }
            done.push(d);
        }
        let secs = round_start.elapsed().as_secs_f64();
        p.window(p.work - work_before, secs, first_op);
        round += 1;
    }
    p.elapsed_s = t0.elapsed().as_secs_f64();
    Ok((p, done))
}

/// Re-solves a seeded subset and compares digests bit for bit: eight
/// operations under the limit and one above it.
fn resolve_subset(done: &[Done], rng: &mut Rng) -> Vec<String> {
    let (light, heavy): (Vec<&Done>, Vec<&Done>) = done.iter().partition(|d| d.ms <= SLO_MS);
    let mut picks = Vec::new();
    for _ in 0..8.min(light.len()) {
        picks.push(light[rng.below(light.len())]);
    }
    if !heavy.is_empty() {
        picks.push(heavy[rng.below(heavy.len())]);
    }
    let mut failures = Vec::new();
    for d in picks {
        let again = run_op(d.op.clone(), 0, &mut Tracer::new(false, Instant::now()));
        if again.digest != d.digest || !again.ok {
            failures.push(format!(
                "re-solve of {} differs (digest {:016x} vs {:016x})",
                d.op.scenario.canonical_key(),
                again.digest,
                d.digest
            ));
        }
    }
    failures
}

/// Set-up: solve and certify every cell of one round but the heavy ones,
/// so first-call costs (page faults, lazy tables) stay out of the timed
/// phase. The Markov cells warm the clustering search.
fn setup(seed: u64, tracer: &mut Tracer) -> Result<(), String> {
    let mut rng = Rng::new(seed, 99);
    for (id, cell) in round_cells(0).into_iter().enumerate() {
        if cell.e.is_some() {
            continue;
        }
        let d = run_op(draw(cell, &mut rng)?, id as u64, tracer);
        if !d.ok {
            return Err(format!(
                "warm-up solve of {} failed",
                d.op.scenario.canonical_key()
            ));
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Result<Outcome, String> {
    // The warm-up's spans would only repeat the timed phase's, so it runs
    // untraced.
    let ((), setup_s) = set_up(cfg, &mut Tracer::new(false, cfg.start), |tr| {
        setup(cfg.seed, tr)
    })?;
    let mut rng = Rng::new(cfg.seed, 1);
    let ((plain, mut done), traced) = timed(cfg, tracer, |secs, tr| phase(secs, &mut rng, tr))?;
    let mut layers = BTreeMap::new();
    let traced = traced.map(|(p, d)| {
        let clustering: Vec<&Done> = d
            .iter()
            .filter(|x| x.op.cell.policy == "clustering")
            .collect();
        let candidates = clustering.iter().map(|x| x.iterations).sum::<u64>() as f64
            / clustering.len().max(1) as f64;
        layers.insert("core.clustering_candidates", candidates);
        for (metric, span) in [
            ("dist.discretize_ms", "dist.discretize"),
            ("core.greedy_ms", "core.greedy"),
            ("core.myopic_ms", "core.myopic"),
            ("core.clustering_ms", "core.clustering"),
            ("audit.certify_ms", "audit.certify"),
        ] {
            layers.insert(metric, self_ms(tracer, span));
        }
        done.extend(d);
        p
    });
    let check_failures = resolve_subset(&done, &mut Rng::new(cfg.seed, 2));
    Ok(Outcome {
        setup_s,
        plain,
        traced,
        layers,
        check_failures,
        slo_limit_ms: SLO_MS,
        work_unit: "scenarios solved and certified",
        notes: vec![("ops_per_round".to_owned(), round_cells(0).len().to_string())],
    })
}
