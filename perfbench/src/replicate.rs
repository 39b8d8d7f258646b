//! `replicate`: policies solved in set-up, then a seeded sequence of
//! simulation operations of equal size. One unit of work is one
//! lane-slot (one replication advanced by one slot).
//!
//! A batch operation is `ReplicationBatch::run` with `REPS` replications of
//! `SLOTS` slots; a single operation is `Simulation::run` with one
//! replication of `REPS × SLOTS` slots. Both run on one thread, so the two
//! kinds cost about the same and the median stays meaningful.

use std::collections::BTreeMap;
use std::time::Instant;

use evcap_energy::Energy;
use evcap_sim::{BatchReport, ReplicationBatch, SimReport, Simulation};
use evcap_spec::{
    parse_dist, parse_objective, parse_recharge, solve, PolicySpec, Scenario, SolvedPolicy,
};

use crate::grid::core_span;
use crate::spans::Tracer;
use crate::stats::{digest, Rng};
use crate::{self_ms, set_up, timed, Config, Outcome, Phase};

/// Replications per batch operation.
const REPS: usize = 8;
/// Slots per replication in a batch operation.
const SLOTS: u64 = 12_500;
/// Lane-slots per operation, either kind.
const LANE_SLOTS: u64 = REPS as u64 * SLOTS;
/// Worker threads for batches: one, so batch and single operations do the
/// same work on the same core budget.
const THREADS: usize = 1;
/// Operations slower than this miss the workload's latency limit.
const SLO_MS: f64 = 12.0;
/// Single operations per round of `VARIANTS` operations.
const SINGLES_PER_ROUND: usize = 15;

/// Policies solved in set-up: table-driven families (greedy, clustering,
/// aggressive, myopic) and one without a table (periodic), across the
/// three objectives.
const POLICIES: [(&str, &str, &str); 5] = [
    ("weibull:40,3", "greedy", "qom"),
    ("weibull:40,3", "clustering", "aoi-mean"),
    ("exp:0.1", "myopic", "aoi-peak"),
    ("exp:0.1", "periodic", "qom"),
    ("lognormal:3,0.5", "aggressive", "aoi-mean"),
];

/// Recharge processes, each with mean rate 0.3 (the solve budget).
const RECHARGE: [&str; 4] = [
    "bernoulli:0.5,0.6",
    "periodic:3,10",
    "constant:0.3",
    "uniformrand:0,0.6",
];

/// Sensor count and whether sensors rotate (`true`) or act independently.
const FLEETS: [(usize, bool); 3] = [(1, true), (3, true), (3, false)];

/// Rounds per measurement window (about a second of work).
const ROUNDS_PER_WINDOW: usize = 3;

/// Operations per round: every policy × recharge × fleet once.
const VARIANTS: usize = POLICIES.len() * RECHARGE.len() * FLEETS.len();

/// Pre-solved artifacts, indexed `[policy][fleet size == 3]`.
type Artifacts = Vec<[SolvedPolicy; 2]>;

/// One simulation operation.
#[derive(Debug, Clone, Copy)]
struct Op {
    policy: usize,
    recharge: usize,
    fleet: usize,
    batch: bool,
    seed: u64,
}

fn solve_policy(
    (dist, policy, objective): (&str, &str, &str),
    sensors: usize,
    tracer: &mut Tracer,
) -> Result<SolvedPolicy, String> {
    let scenario = Scenario::new(
        dist,
        PolicySpec::parse(policy).map_err(|e| e.to_string())?,
        0.3,
    )
    .map_err(|e| e.to_string())?
    .with_objective(parse_objective(objective).map_err(|e| e.to_string())?)
    .with_sensors(sensors);
    if tracer.on() {
        tracer.span("dist.discretize", 0, |_| {
            std::hint::black_box(parse_dist(scenario.dist(), scenario.horizon()).is_ok())
        });
    }
    let solved = tracer
        .span(core_span(policy), 0, |_| solve(&scenario))
        .map_err(|e| format!("solving {}: {e}", scenario.canonical_key()))?;
    tracer
        .span("audit.certify", 0, |_| {
            evcap_audit::certify(&scenario, &solved)
        })
        .map_err(|e| format!("certifying {}: {e}", scenario.canonical_key()))?;
    Ok(solved)
}

/// Set-up: solve and certify every policy, then run every variant once,
/// so first-call costs (page faults, lazy tables) stay out of the timed
/// phase.
fn setup(tracer: &mut Tracer) -> Result<Artifacts, String> {
    let arts = POLICIES
        .iter()
        .map(|&p| Ok([solve_policy(p, 1, tracer)?, solve_policy(p, 3, tracer)?]))
        .collect::<Result<Artifacts, String>>()?;
    for op in round_ops(&mut Rng::new(0, 3)) {
        simulate(&arts, &op, false).map_err(|e| format!("warm-up {op:?}: {e}"))?;
    }
    Ok(arts)
}

fn builder<'a>(s: &'a SolvedPolicy, op: &Op) -> Simulation<'a> {
    let (sensors, rotating) = FLEETS[op.fleet];
    let b = Simulation::builder(&s.pmf)
        .sensors(sensors)
        .consumption(s.consumption)
        .battery(Energy::from_units(s.scenario.battery()))
        .seed(op.seed);
    if rotating {
        b
    } else {
        b.independent()
    }
}

fn recharge(op: &Op) -> Box<dyn evcap_energy::RechargeProcess> {
    parse_recharge(RECHARGE[op.recharge]).expect("recharge specs are constants")
}

/// Either kind of result, for digests and comparisons.
enum Report {
    Single(SimReport),
    Batch(BatchReport),
}

impl Report {
    fn digest(&self) -> u64 {
        match self {
            Report::Single(r) => digest(format!("{r:?}").as_bytes()),
            Report::Batch(r) => digest(format!("{r:?}").as_bytes()),
        }
    }
}

fn simulate(arts: &Artifacts, op: &Op, phased: bool) -> Result<Report, String> {
    let art = &arts[op.policy][usize::from(FLEETS[op.fleet].0 == 3)];
    let policy = art.policy.as_ref();
    if op.batch {
        ReplicationBatch::new(builder(art, op).slots(SLOTS), REPS)
            .map_err(|e| e.to_string())?
            .precompiled(art.table.clone())
            .threads(THREADS)
            .phase_timing(phased)
            .run(policy, &|_| recharge(op))
            .map(Report::Batch)
            .map_err(|e| e.to_string())
    } else {
        builder(art, op)
            .slots(LANE_SLOTS)
            .run(policy, &mut |_| recharge(op))
            .map(Report::Single)
            .map_err(|e| e.to_string())
    }
}

/// The operations of one round, in seeded order.
fn round_ops(rng: &mut Rng) -> Vec<Op> {
    let mut kinds: Vec<bool> = (0..VARIANTS).map(|i| i >= SINGLES_PER_ROUND).collect();
    rng.shuffle(&mut kinds);
    let mut ops: Vec<Op> = (0..VARIANTS)
        .map(|v| Op {
            policy: v % POLICIES.len(),
            recharge: (v / POLICIES.len()) % RECHARGE.len(),
            fleet: v / (POLICIES.len() * RECHARGE.len()),
            batch: kinds[v],
            seed: rng.next_u64() >> 1,
        })
        .collect();
    rng.shuffle(&mut ops);
    ops
}

struct Done {
    op: Op,
    digest: u64,
}

fn phase(arts: &Artifacts, seconds: f64, rng: &mut Rng, tracer: &mut Tracer) -> (Phase, Vec<Done>) {
    let mut p = Phase::default();
    let mut done = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        // Every `ROUNDS_PER_WINDOW` rounds close one window.
        let (window_start, first_op, work_before) = (Instant::now(), p.latencies_ms.len(), p.work);
        let ops: Vec<Op> = (0..ROUNDS_PER_WINDOW)
            .flat_map(|_| round_ops(rng))
            .collect();
        for op in ops {
            let id = done.len() as u64;
            let kind = if op.batch { "sim.batch" } else { "sim.single" };
            let t = Instant::now();
            let report = tracer.span("replicate.op", id, |tr| {
                tr.span(kind, id, |t| simulate(arts, &op, t.on()))
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            p.attempted += 1;
            p.latencies_ms.push(ms);
            match report {
                Ok(r) => {
                    p.work += LANE_SLOTS as f64;
                    if ms <= SLO_MS {
                        p.slo_met += 1;
                    }
                    done.push(Done {
                        op,
                        digest: r.digest(),
                    });
                }
                Err(_) => p.failed += 1,
            }
        }
        let secs = window_start.elapsed().as_secs_f64();
        p.window(p.work - work_before, secs, first_op);
    }
    p.elapsed_s = t0.elapsed().as_secs_f64();
    (p, done)
}

/// Repeats a seeded subset: each repeat must reproduce its digest, and for
/// a batch one sampled replication must equal a standalone single run
/// with that replication's seed.
fn check(arts: &Artifacts, done: &[Done], rng: &mut Rng) -> Vec<String> {
    let mut failures = Vec::new();
    for _ in 0..12.min(done.len()) {
        let d = &done[rng.below(done.len())];
        match simulate(arts, &d.op, false) {
            Ok(again) if again.digest() == d.digest => {
                if let Report::Batch(b) = &again {
                    let j = rng.below(b.seeds.len());
                    let single = Op {
                        seed: b.seeds[j],
                        batch: false,
                        ..d.op
                    };
                    let art = &arts[single.policy][usize::from(FLEETS[single.fleet].0 == 3)];
                    let run = builder(art, &single)
                        .slots(SLOTS)
                        .run(art.policy.as_ref(), &mut |_| recharge(&single));
                    if run.as_ref().ok() != Some(&b.reports[j]) {
                        failures.push(format!(
                            "replication {j} of {:?} differs from its single run",
                            d.op
                        ));
                    }
                }
            }
            Ok(_) => failures.push(format!("repeat of {:?} changed its digest", d.op)),
            Err(e) => failures.push(format!("repeat of {:?} failed: {e}", d.op)),
        }
    }
    failures
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Result<Outcome, String> {
    let (arts, setup_s) = set_up(cfg, tracer, setup)?;
    let mut rng = Rng::new(cfg.seed, 1);
    let ((plain, mut done), traced) = timed(cfg, tracer, |secs, tr| {
        // The traced phase also collects the simulator's own phase samples.
        evcap_obs::timing::reset();
        evcap_obs::timing::set_enabled(tr.on());
        let out = phase(&arts, secs, &mut rng, tr);
        evcap_obs::timing::set_enabled(false);
        Ok(out)
    })?;
    let mut layers = BTreeMap::new();
    let traced = traced.map(|(p, d)| {
        let batches = d.iter().filter(|x| x.op.batch).count().max(1) as f64;
        // Program-side phase samples, recorded by the simulator itself.
        for (name, stats) in evcap_obs::timing::drain_spans() {
            let metric = match name {
                "sim.batch.phase.generate" => "sim.phase.generate_ms",
                "sim.batch.phase.recharge" => "sim.phase.recharge_ms",
                "sim.batch.phase.decide" => "sim.phase.decide_ms",
                "sim.batch.phase.events" => "sim.phase.events_ms",
                _ => continue,
            };
            layers.insert(metric, stats.total_ns as f64 / batches / 1e6);
        }
        layers.insert("sim.lane_slots", p.work);
        for (metric, span) in [
            ("dist.discretize_ms", "dist.discretize"),
            ("core.greedy_ms", "core.greedy"),
            ("core.myopic_ms", "core.myopic"),
            ("core.clustering_ms", "core.clustering"),
            ("audit.certify_ms", "audit.certify"),
            ("sim.single_ms", "sim.single"),
            ("sim.batch_ms", "sim.batch"),
        ] {
            layers.insert(metric, self_ms(tracer, span));
        }
        done.extend(d);
        p
    });
    let check_failures = check(&arts, &done, &mut Rng::new(cfg.seed, 2));
    Ok(Outcome {
        setup_s,
        plain,
        traced,
        layers,
        check_failures,
        slo_limit_ms: SLO_MS,
        work_unit: "lane-slots",
        notes: vec![(
            "op_shape".to_owned(),
            format!("{REPS}x{SLOTS} batch or 1x{LANE_SLOTS} single, {THREADS} thread"),
        )],
    })
}
