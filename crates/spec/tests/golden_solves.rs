//! Golden solver outputs: every solve below must reproduce, bit for bit,
//! the `params` and `meta` it produced when this table was recorded.
//!
//! The cells cover the solves that run the age-belief DP thousands of
//! times (the clustering search, including its warm-hinted screen, and
//! the myopic derivation) plus a heavy-tail greedy water-filling, across
//! all three objectives and the `e` band of the perfbench `solve-grid`
//! workload. Each solve is reduced to its candidate count and a digest of
//! every solver output, with each `f64` taken as its bit pattern, so a
//! change that moves any float by one ulp — or evaluates one candidate
//! more or less — fails here.
//!
//! On a mismatch the test prints the full table as it now computes it, in
//! the source format of [`GOLDEN`]; only paste it back after proving the
//! change in outputs is intended.

use evcap_spec::{
    parse_objective, solve, solve_with_hint, PolicyParams, PolicySpec, Scenario, SolvedPolicy,
    DEFAULT_HORIZON,
};

/// Energy budgets of the `solve-grid` band.
const E: [f64; 3] = [0.28, 0.30, 0.315];
const OBJECTIVES: [&str; 3] = ["qom", "aoi-mean", "aoi-peak"];

/// `cell id | candidate count | digest`, recorded from the solvers before
/// the belief-DP hazard table and one-pass step.
const GOLDEN: &[&str] = &[
    "markov:0.9,0.2 clustering qom e=0.28 h=65536 | 1764 | 51597562ba2dd1b3",
    "markov:0.9,0.2 clustering qom e=0.3 h=65536 | 1756 | a0c18de371559311",
    "markov:0.9,0.2 clustering qom e=0.315 h=65536 | 1759 | 4e6855b98735807e",
    "markov:0.9,0.2 clustering aoi-mean e=0.28 h=65536 | 1756 | 23871cae68eae930",
    "markov:0.9,0.2 clustering aoi-mean e=0.3 h=65536 | 1758 | 9f30a803fe745f3a",
    "markov:0.9,0.2 clustering aoi-mean e=0.315 h=65536 | 1756 | 4bb15e3b4a172688",
    "markov:0.9,0.2 clustering aoi-peak e=0.28 h=65536 | 1764 | dcc10159b39f9949",
    "markov:0.9,0.2 clustering aoi-peak e=0.3 h=65536 | 1756 | 9e5702d552f3998c",
    "markov:0.9,0.2 clustering aoi-peak e=0.315 h=65536 | 1759 | 4b9632bc32751b7e",
    "markov:0.7,0.4 clustering qom e=0.28 h=65536 | 1760 | 3a3e462575db74bc",
    "markov:0.7,0.4 clustering qom e=0.3 h=65536 | 1762 | 9f4dec9913eb8bc8",
    "markov:0.7,0.4 clustering qom e=0.315 h=65536 | 1756 | f4595036b936a7fa",
    "markov:0.7,0.4 clustering aoi-mean e=0.28 h=65536 | 1756 | f5bac8d2544b31e5",
    "markov:0.7,0.4 clustering aoi-mean e=0.3 h=65536 | 1756 | 3fa50067ff0d9dc3",
    "markov:0.7,0.4 clustering aoi-mean e=0.315 h=65536 | 1756 | 139ca1fd17e7a84a",
    "markov:0.7,0.4 clustering aoi-peak e=0.28 h=65536 | 1760 | c0886345e46bbecf",
    "markov:0.7,0.4 clustering aoi-peak e=0.3 h=65536 | 1762 | 1cd62885d225c11b",
    "markov:0.7,0.4 clustering aoi-peak e=0.315 h=65536 | 1756 | 4c5baaca2dce3f5a",
    "weibull:40,3 clustering qom e=0.28 h=65536 | 832 | e50786eb1a6d9fef",
    "weibull:40,3 clustering qom e=0.3 h=65536 | 832 | f6c017ba5086c8fc",
    "weibull:40,3 clustering qom e=0.315 h=65536 | 832 | 82ad8dc8d662b06a",
    "weibull:40,3 clustering aoi-mean e=0.28 h=65536 | 832 | a23bd99c1c6fe263",
    "weibull:40,3 clustering aoi-mean e=0.3 h=65536 | 832 | da0da2ebe3a5ea15",
    "weibull:40,3 clustering aoi-mean e=0.315 h=65536 | 832 | 9446fc491b242b34",
    "weibull:40,3 clustering aoi-peak e=0.28 h=65536 | 832 | 5401f0f5f8ccd7c8",
    "weibull:40,3 clustering aoi-peak e=0.3 h=65536 | 832 | cd8fdaa396a249db",
    "weibull:40,3 clustering aoi-peak e=0.315 h=65536 | 832 | 5f1bcd0b6f82a03d",
    "exp:0.1 clustering qom e=0.28 h=65536 | 840 | 9f24aefc33fe97b0",
    "exp:0.1 clustering qom e=0.3 h=65536 | 832 | 9eb7ab40fb6f9d10",
    "exp:0.1 clustering qom e=0.315 h=65536 | 834 | e6b20b841e2b308d",
    "exp:0.1 clustering aoi-mean e=0.28 h=65536 | 840 | f6b1f52e39df4ac3",
    "exp:0.1 clustering aoi-mean e=0.3 h=65536 | 828 | 8cd3f03349612d21",
    "exp:0.1 clustering aoi-mean e=0.315 h=65536 | 836 | 701f8b5002a17519",
    "exp:0.1 clustering aoi-peak e=0.28 h=65536 | 840 | 717ab2fd4f8fd6d0",
    "exp:0.1 clustering aoi-peak e=0.3 h=65536 | 832 | 77bb2b8af81fd795",
    "exp:0.1 clustering aoi-peak e=0.315 h=65536 | 834 | 0c38c98e63c25021",
    "weibull:40,3 myopic qom e=0.28 h=65536 | 145 | 46609f5da838faa0",
    "weibull:40,3 myopic qom e=0.3 h=65536 | 145 | 46609f5da838faa0",
    "weibull:40,3 myopic qom e=0.315 h=65536 | 145 | 46609f5da838faa0",
    "weibull:40,3 myopic aoi-mean e=0.28 h=65536 | 145 | 05eea65fcf77e513",
    "weibull:40,3 myopic aoi-mean e=0.3 h=65536 | 145 | 05eea65fcf77e513",
    "weibull:40,3 myopic aoi-mean e=0.315 h=65536 | 145 | 05eea65fcf77e513",
    "weibull:40,3 myopic aoi-peak e=0.28 h=65536 | 145 | 01856d4cb78c6282",
    "weibull:40,3 myopic aoi-peak e=0.3 h=65536 | 145 | 01856d4cb78c6282",
    "weibull:40,3 myopic aoi-peak e=0.315 h=65536 | 145 | 01856d4cb78c6282",
    "weibull:20,1.5 myopic qom e=0.28 h=65536 | 75 | 70e7528c80c894ec",
    "weibull:20,1.5 myopic qom e=0.3 h=65536 | 75 | 70e7528c80c894ec",
    "weibull:20,1.5 myopic qom e=0.315 h=65536 | 75 | 70e7528c80c894ec",
    "weibull:20,1.5 myopic aoi-mean e=0.28 h=65536 | 75 | 5d53e3a67a494051",
    "weibull:20,1.5 myopic aoi-mean e=0.3 h=65536 | 75 | 5d53e3a67a494051",
    "weibull:20,1.5 myopic aoi-mean e=0.315 h=65536 | 75 | 5d53e3a67a494051",
    "weibull:20,1.5 myopic aoi-peak e=0.28 h=65536 | 75 | 521d79a985a87464",
    "weibull:20,1.5 myopic aoi-peak e=0.3 h=65536 | 75 | 521d79a985a87464",
    "weibull:20,1.5 myopic aoi-peak e=0.315 h=65536 | 75 | 521d79a985a87464",
    "exp:0.1 myopic qom e=0.28 h=65536 | 43 | f7e2895c0a79b1f4",
    "exp:0.1 myopic qom e=0.3 h=65536 | 43 | f7e2895c0a79b1f4",
    "exp:0.1 myopic qom e=0.315 h=65536 | 43 | 9b707fbc432b4f1c",
    "exp:0.1 myopic aoi-mean e=0.28 h=65536 | 43 | 6c868554288437ce",
    "exp:0.1 myopic aoi-mean e=0.3 h=65536 | 43 | 6c868554288437ce",
    "exp:0.1 myopic aoi-mean e=0.315 h=65536 | 43 | 70edbdc53e743396",
    "exp:0.1 myopic aoi-peak e=0.28 h=65536 | 43 | d0a3b354b6430f5e",
    "exp:0.1 myopic aoi-peak e=0.3 h=65536 | 43 | d0a3b354b6430f5e",
    "exp:0.1 myopic aoi-peak e=0.315 h=65536 | 43 | 37faf065ce84cf06",
    "exp:0.05 myopic qom e=0.28 h=65536 | 83 | 6e078c749703e7fb",
    "exp:0.05 myopic qom e=0.3 h=65536 | 83 | 6e078c749703e7fb",
    "exp:0.05 myopic qom e=0.315 h=65536 | 83 | 6e078c749703e7fb",
    "exp:0.05 myopic aoi-mean e=0.28 h=65536 | 83 | 1a588611c93c4ba0",
    "exp:0.05 myopic aoi-mean e=0.3 h=65536 | 83 | 1a588611c93c4ba0",
    "exp:0.05 myopic aoi-mean e=0.315 h=65536 | 83 | 1a588611c93c4ba0",
    "exp:0.05 myopic aoi-peak e=0.28 h=65536 | 83 | d7d271a0eb2e3210",
    "exp:0.05 myopic aoi-peak e=0.3 h=65536 | 83 | d7d271a0eb2e3210",
    "exp:0.05 myopic aoi-peak e=0.315 h=65536 | 83 | d7d271a0eb2e3210",
    "lognormal:3,0.5 myopic qom e=0.28 h=65536 | 94 | 0e7da3470328fc12",
    "lognormal:3,0.5 myopic qom e=0.3 h=65536 | 94 | 0e7da3470328fc12",
    "lognormal:3,0.5 myopic qom e=0.315 h=65536 | 94 | 0e7da3470328fc12",
    "lognormal:3,0.5 myopic aoi-mean e=0.28 h=65536 | 94 | 13265181844f7457",
    "lognormal:3,0.5 myopic aoi-mean e=0.3 h=65536 | 94 | 13265181844f7457",
    "lognormal:3,0.5 myopic aoi-mean e=0.315 h=65536 | 94 | 13265181844f7457",
    "lognormal:3,0.5 myopic aoi-peak e=0.28 h=65536 | 94 | c9108ba0327f5b8b",
    "lognormal:3,0.5 myopic aoi-peak e=0.3 h=65536 | 94 | c9108ba0327f5b8b",
    "lognormal:3,0.5 myopic aoi-peak e=0.315 h=65536 | 94 | c9108ba0327f5b8b",
    "markov:0.9,0.2 myopic qom e=0.28 h=65536 | 5 | 4b5633615f9a214d",
    "markov:0.9,0.2 myopic qom e=0.3 h=65536 | 5 | 4b5633615f9a214d",
    "markov:0.9,0.2 myopic qom e=0.315 h=65536 | 5 | 4b5633615f9a214d",
    "markov:0.9,0.2 myopic aoi-mean e=0.28 h=65536 | 5 | 264894ed0e75c0f5",
    "markov:0.9,0.2 myopic aoi-mean e=0.3 h=65536 | 5 | 264894ed0e75c0f5",
    "markov:0.9,0.2 myopic aoi-mean e=0.315 h=65536 | 5 | 264894ed0e75c0f5",
    "markov:0.9,0.2 myopic aoi-peak e=0.28 h=65536 | 5 | 6b22ec82a3eb7f6e",
    "markov:0.9,0.2 myopic aoi-peak e=0.3 h=65536 | 5 | 6b22ec82a3eb7f6e",
    "markov:0.9,0.2 myopic aoi-peak e=0.315 h=65536 | 5 | 6b22ec82a3eb7f6e",
    "pareto:2,10 myopic qom e=0.28 h=1024 | 82 | b4781f2c0ace5f8b",
    "pareto:2,10 myopic qom e=0.3 h=1024 | 82 | 63f5a7b1aeb1f20d",
    "pareto:2,10 myopic qom e=0.315 h=1024 | 82 | 63f5a7b1aeb1f20d",
    "pareto:2,10 myopic aoi-mean e=0.28 h=1024 | 82 | e4bde82084f5eba0",
    "pareto:2,10 myopic aoi-mean e=0.3 h=1024 | 82 | fe810047ec25fb20",
    "pareto:2,10 myopic aoi-mean e=0.315 h=1024 | 82 | fe810047ec25fb20",
    "pareto:2,10 myopic aoi-peak e=0.28 h=1024 | 82 | 443cea1973031c59",
    "pareto:2,10 myopic aoi-peak e=0.3 h=1024 | 82 | eaa7ed788b245a06",
    "pareto:2,10 myopic aoi-peak e=0.315 h=1024 | 82 | eaa7ed788b245a06",
    "pareto:2,10 greedy qom e=0.28 h=65536 | 4 | e37143e67534a06a",
    "pareto:2,10 greedy qom e=0.3 h=65536 | 5 | c43fd6f3d86cd8f4",
    "pareto:2,10 greedy qom e=0.315 h=65536 | 5 | d11c15de8eaf9c7f",
    "pareto:2,10 greedy aoi-mean e=0.28 h=65536 | 4 | d8017d92444b0098",
    "pareto:2,10 greedy aoi-mean e=0.3 h=65536 | 5 | daee92301d8f3bc3",
    "pareto:2,10 greedy aoi-mean e=0.315 h=65536 | 5 | b8e392cd6884f6e0",
    "pareto:2,10 greedy aoi-peak e=0.28 h=65536 | 4 | 1d88cbba95b1e274",
    "pareto:2,10 greedy aoi-peak e=0.3 h=65536 | 5 | 7e584d16b9492e43",
    "pareto:2,10 greedy aoi-peak e=0.315 h=65536 | 5 | cceeb47b74138789",
    "weibull:40,3 clustering qom e=0.3 h=65536 hint=31,31,76 | 618 | 3822f6164a24e65d",
    "weibull:40,3 clustering qom e=0.315 h=65536 hint=31,31,70 | 583 | 6f249813dbab7c5e",
    "markov:0.7,0.4 clustering qom e=0.3 h=65536 hint=25,25,30 | 1763 | fe267e1df4c8b82d",
    "markov:0.7,0.4 clustering qom e=0.315 h=65536 hint=21,22,31 | 1757 | fe0a29167cd6a6af",
];

/// One solve to pin: what to solve and, for clustering, an optional warm
/// hint from a neighbouring solve.
struct Cell {
    dist: &'static str,
    policy: &'static str,
    objective: &'static str,
    e: f64,
    horizon: usize,
    hint: Option<(usize, usize, usize)>,
}

impl Cell {
    fn id(&self) -> String {
        let hint = self
            .hint
            .map_or(String::new(), |(a, b, c)| format!(" hint={a},{b},{c}"));
        format!(
            "{} {} {} e={} h={}{hint}",
            self.dist, self.policy, self.objective, self.e, self.horizon
        )
    }

    fn solve(&self) -> SolvedPolicy {
        let scenario = Scenario::new(self.dist, PolicySpec::parse(self.policy).unwrap(), self.e)
            .unwrap()
            .with_objective(parse_objective(self.objective).unwrap())
            .with_horizon(self.horizon);
        match self.hint {
            Some(h) => solve_with_hint(&scenario, Some(h)),
            None => solve(&scenario),
        }
        .unwrap_or_else(|e| panic!("{}: {e}", self.id()))
    }
}

fn cell(dist: &'static str, policy: &'static str, objective: &'static str, e: f64) -> Cell {
    Cell {
        dist,
        policy,
        objective,
        e,
        horizon: DEFAULT_HORIZON,
        hint: None,
    }
}

/// The pinned solves: every family × objective × `e` of the band.
fn cells() -> Vec<Cell> {
    let families = [
        ("markov:0.9,0.2", "clustering", DEFAULT_HORIZON),
        ("markov:0.7,0.4", "clustering", DEFAULT_HORIZON),
        ("weibull:40,3", "clustering", DEFAULT_HORIZON),
        ("exp:0.1", "clustering", DEFAULT_HORIZON),
        ("weibull:40,3", "myopic", DEFAULT_HORIZON),
        ("weibull:20,1.5", "myopic", DEFAULT_HORIZON),
        ("exp:0.1", "myopic", DEFAULT_HORIZON),
        ("exp:0.05", "myopic", DEFAULT_HORIZON),
        ("lognormal:3,0.5", "myopic", DEFAULT_HORIZON),
        ("markov:0.9,0.2", "myopic", DEFAULT_HORIZON),
        ("pareto:2,10", "myopic", 1024),
        ("pareto:2,10", "greedy", DEFAULT_HORIZON),
    ];
    let mut cells = Vec::new();
    for (dist, policy, horizon) in families {
        for objective in OBJECTIVES {
            for e in E {
                cells.push(Cell {
                    horizon,
                    ..cell(dist, policy, objective, e)
                });
            }
        }
    }
    cells
}

/// Warm-hinted clustering solves: the optimum at one `e` seeds the search
/// at the next, the way fleet solves hand hints between neighbours.
fn hinted_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for dist in ["weibull:40,3", "markov:0.7,0.4"] {
        let mut hint = None;
        for e in E {
            let mut c = cell(dist, "clustering", "qom", e);
            c.hint = hint;
            let solved = c.solve();
            if let PolicyParams::Clustering { n1, n2, n3, .. } = solved.params {
                hint = Some((n1, n2, n3));
            }
            if c.hint.is_some() {
                cells.push(c);
            }
        }
    }
    cells
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
}

fn push_str(words: &mut Vec<u64>, s: &str) {
    words.push(s.len() as u64);
    words.extend(s.bytes().map(u64::from));
}

fn push_opt(words: &mut Vec<u64>, v: Option<f64>) {
    match v {
        Some(x) => words.extend([1, x.to_bits()]),
        None => words.push(0),
    }
}

/// Digest of every solver output in `params` and `meta`, floats as bits.
fn digest(solved: &SolvedPolicy) -> u64 {
    let mut w: Vec<u64> = Vec::new();
    push_str(&mut w, solved.params.family());
    match &solved.params {
        PolicyParams::Greedy {
            coefficients,
            tail_coefficient,
            ideal_qom,
            discharge_rate,
        } => {
            w.extend(coefficients.iter().map(|c| c.to_bits()));
            w.extend([tail_coefficient, ideal_qom, discharge_rate].map(|v| v.to_bits()));
        }
        PolicyParams::Clustering {
            n1,
            n2,
            n3,
            boundary,
        } => {
            w.extend([*n1, *n2, *n3].map(|n| n as u64));
            w.extend([boundary.0, boundary.1, boundary.2].map(f64::to_bits));
        }
        PolicyParams::Myopic {
            active,
            threshold,
            evaluation,
        } => {
            w.extend(active.iter().map(|&a| u64::from(a)));
            w.push(threshold.to_bits());
            w.extend(
                [
                    evaluation.capture_probability,
                    evaluation.discharge_rate,
                    evaluation.expected_cycle,
                    evaluation.truncated_survival,
                ]
                .map(f64::to_bits),
            );
        }
        PolicyParams::Aggressive | PolicyParams::Periodic { .. } => {
            push_str(&mut w, &format!("{:?}", solved.params));
        }
    }
    let m = &solved.meta;
    push_str(&mut w, &m.label);
    push_str(&mut w, &format!("{:?}", m.info));
    push_str(&mut w, m.objective_kind.name());
    push_opt(&mut w, m.objective);
    push_opt(&mut w, m.objective_value);
    push_opt(&mut w, m.discharge_rate);
    push_opt(&mut w, m.expected_cycle);
    match m.regions {
        Some(r) => {
            w.extend([1, r.n1 as u64, r.n2 as u64, r.n3 as u64]);
            w.extend([r.boundary.0, r.boundary.1, r.boundary.2].map(f64::to_bits));
        }
        None => w.push(0),
    }
    w.push(m.mean_gap.to_bits());
    w.push(m.iterations);
    fnv(&w)
}

#[test]
fn solver_outputs_match_the_golden_table() {
    let mut all = cells();
    all.extend(hinted_cells());
    let actual: Vec<String> = all
        .iter()
        .map(|c| {
            let solved = c.solve();
            format!(
                "{} | {} | {:016x}",
                c.id(),
                solved.meta.iterations,
                digest(&solved)
            )
        })
        .collect();
    if actual != GOLDEN {
        for line in &actual {
            println!("    {line:?},");
        }
        for (i, (a, x)) in actual.iter().zip(GOLDEN).enumerate() {
            assert_eq!(a, x, "golden cell {i} diverged");
        }
        assert_eq!(actual.len(), GOLDEN.len(), "golden cell count changed");
    }
}
