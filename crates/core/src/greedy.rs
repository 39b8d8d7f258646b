//! The full-information greedy policy (Theorem 1).
//!
//! Under full information the sensor always knows the state `h_i` (the last
//! event was `i` slots ago) and activates with probability `c_i`. The
//! constrained-MDP reduction (Section IV-A) yields the linear program
//!
//! ```text
//! maximize    U = Σ α_i c_i
//! subject to  Σ ξ_i c_i = e·μ,   ξ_i = δ1·(1 − F(i−1)) + δ2·α_i,   0 ≤ c_i ≤ 1.
//! ```
//!
//! Theorem 1 (with Remark 1 for non-monotone hazards): the optimum
//! water-fills the slots in decreasing order of the conditional probability
//! `β_i`, with at most one fractional coefficient. That is a fractional
//! knapsack filled by "efficiency" `α_i/ξ_i`, which is monotone in `β_i`.

use evcap_dist::SlotPmf;
use evcap_energy::ConsumptionModel;
use evcap_lp::{Problem, Relation};

use crate::policy::{ActivationPolicy, DecisionContext, InfoModel, PolicyTable};
use crate::{PolicyError, Result};

/// The mean recharge rate `e` (energy units per slot) a policy must balance
/// against.
///
/// # Example
///
/// ```
/// use evcap_core::EnergyBudget;
///
/// let budget = EnergyBudget::per_slot(0.5);
/// assert_eq!(budget.rate(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBudget {
    rate: f64,
}

impl EnergyBudget {
    /// Creates a budget from a mean recharge rate in energy units per slot.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative, NaN, or infinite.
    pub fn per_slot(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "recharge rate must be a finite non-negative number, got {rate}"
        );
        Self { rate }
    }

    /// The rate `e` in energy units per slot.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The per-renewal budget `e·μ` available to spend across one expected
    /// inter-arrival time.
    pub fn per_renewal(&self, mean_gap: f64) -> f64 {
        self.rate * mean_gap
    }
}

/// One allocatable item of the water-filling: a slot (or the aggregated
/// geometric tail) with its hazard, energy cost, and capture reward.
#[derive(Debug, Clone, Copy)]
struct Item {
    /// Slot index, or `usize::MAX` for the aggregated tail.
    slot: usize,
    hazard: f64,
    /// `ξ_i`: expected energy cost of setting `c_i = 1`, per renewal.
    cost: f64,
    /// `α_i`: expected captures of setting `c_i = 1`, per renewal.
    reward: f64,
}

/// The optimal full-information activation policy `π*_FI(e)` of Theorem 1.
///
/// See the [crate-level example](crate) for the worked two-slot instance from
/// Section IV-A of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyPolicy {
    coefficients: Vec<f64>,
    tail_coefficient: f64,
    ideal_qom: f64,
    discharge_rate: f64,
    mean_gap: f64,
    label: String,
}

impl GreedyPolicy {
    /// Computes the optimal policy for the event process `pmf` under the
    /// recharge budget and consumption model.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::BudgetTooSmall`] if the budget is exactly zero
    /// (no activation is ever possible, so the policy would be vacuous).
    pub fn optimize(
        pmf: &SlotPmf,
        budget: EnergyBudget,
        consumption: &ConsumptionModel,
    ) -> Result<Self> {
        let mu = pmf.mean();
        let per_renewal = budget.per_renewal(mu);
        if per_renewal <= 0.0 {
            return Err(PolicyError::BudgetTooSmall {
                budget: per_renewal,
            });
        }
        let d1 = consumption.delta1_units();
        let d2 = consumption.delta2_units();
        let horizon = pmf.horizon();

        let mut items = Vec::with_capacity(horizon + 1);
        for i in 1..=horizon {
            let alpha = pmf.pmf(i);
            let surv_prev = pmf.survival(i - 1);
            let cost = d1 * surv_prev + d2 * alpha;
            if cost <= 0.0 {
                continue; // unreachable slot: costs nothing, captures nothing
            }
            items.push(Item {
                slot: i,
                hazard: pmf.hazard(i),
                cost,
                reward: alpha,
            });
        }
        let tail_mass = pmf.tail_mass();
        if tail_mass > 0.0 {
            let h = pmf.tail_hazard();
            // Σ_{i>H} ξ_i = δ1·Σ_{j≥H} (1 − F(j)) + δ2·tail_mass
            //             = δ1·tail_mass/h + δ2·tail_mass.
            items.push(Item {
                slot: usize::MAX,
                hazard: h,
                cost: d1 * tail_mass / h + d2 * tail_mass,
                reward: tail_mass,
            });
        }

        // Remark 1: sort by conditional probability, best first; ties go to
        // the earlier slot (load-balancing-friendly and deterministic). Slots
        // are unique, so this is a total order and the unstable sort (no
        // scratch buffer) yields the same order as a stable one.
        items.sort_unstable_by(|a, b| b.hazard.total_cmp(&a.hazard).then(a.slot.cmp(&b.slot)));

        let mut remaining = per_renewal;
        let mut coefficients = vec![0.0; horizon];
        let mut tail_coefficient = 0.0;
        let mut ideal_qom = 0.0;
        let mut spent = 0.0;
        for item in &items {
            if remaining <= 0.0 {
                break;
            }
            let c = (remaining / item.cost).min(1.0);
            remaining -= c * item.cost;
            spent += c * item.cost;
            ideal_qom += c * item.reward;
            if item.slot == usize::MAX {
                tail_coefficient = c;
            } else {
                coefficients[item.slot - 1] = c;
            }
        }

        Ok(Self {
            coefficients,
            tail_coefficient,
            ideal_qom,
            discharge_rate: spent / mu,
            mean_gap: mu,
            label: format!("greedy-FI(e={}, {})", budget.rate(), pmf.label()),
        })
    }

    /// The activation probability `c_i` for state `h_i` (`i ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `slot == 0`; states are 1-based.
    pub fn coefficient(&self, slot: usize) -> f64 {
        assert!(slot >= 1, "states are 1-based");
        if slot <= self.coefficients.len() {
            self.coefficients[slot - 1]
        } else {
            self.tail_coefficient
        }
    }

    /// The ideal QoM `U(π*_FI(e))` achieved under the energy assumption —
    /// the "Upper Bound" curve of the paper's Fig. 3(a).
    pub fn ideal_qom(&self) -> f64 {
        self.ideal_qom
    }

    /// The planned long-run discharge rate; equals `e` when the budget is
    /// binding, and less when the sensor has surplus energy.
    pub fn discharge_rate(&self) -> f64 {
        self.discharge_rate
    }

    /// Number of explicitly stored coefficients.
    pub fn horizon(&self) -> usize {
        self.coefficients.len()
    }

    /// The mean inter-arrival time `μ` the policy was optimized for.
    pub fn mean_gap(&self) -> f64 {
        self.mean_gap
    }

    /// Re-solves the truncated LP (7)–(8) with the simplex solver from
    /// `evcap-lp` and returns its optimal objective, certifying Theorem 1
    /// (the caller asserts it matches [`ideal_qom`](Self::ideal_qom)).
    ///
    /// `horizon` bounds the number of LP variables; it should cover
    /// essentially all probability mass of `pmf`.
    ///
    /// # Errors
    ///
    /// Propagates LP construction/solution failures as [`PolicyError::Lp`].
    pub fn certify_against_lp(
        &self,
        pmf: &SlotPmf,
        budget: EnergyBudget,
        consumption: &ConsumptionModel,
        horizon: usize,
    ) -> Result<f64> {
        let d1 = consumption.delta1_units();
        let d2 = consumption.delta2_units();
        let rewards: Vec<f64> = (1..=horizon).map(|i| pmf.pmf(i)).collect();
        let costs: Vec<f64> = (1..=horizon)
            .map(|i| d1 * pmf.survival(i - 1) + d2 * pmf.pmf(i))
            .collect();
        let total_cost: f64 = costs.iter().sum();
        // The paper states the constraint as an equality; when the budget
        // exceeds what full activation can spend, the equality is infeasible
        // and the effective constraint is Σ ξ c ≤ budget.
        let per_renewal = budget.per_renewal(pmf.mean()).min(total_cost);
        let mut problem = Problem::maximize(rewards);
        problem.constraint(costs, Relation::Eq, per_renewal)?;
        for i in 0..horizon {
            problem.upper_bound(i, 1.0)?;
        }
        let solution = problem.solve()?;
        Ok(solution.objective)
    }

    /// Reassembles a policy from previously solved parts — the fields a
    /// persisted artifact recorded — without re-running the water-filling.
    ///
    /// This is the rehydration door used by the scenario layer when loading
    /// artifacts from the on-disk store; validation here keeps a corrupted
    /// record from materializing as an out-of-range policy.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::InvalidParameter`] if any coefficient (or the
    /// tail) is not a probability, the QoM is not a probability, the
    /// discharge rate is negative or non-finite, or the mean gap is not a
    /// positive finite number.
    pub fn from_parts(
        coefficients: Vec<f64>,
        tail_coefficient: f64,
        ideal_qom: f64,
        discharge_rate: f64,
        mean_gap: f64,
        label: String,
    ) -> Result<Self> {
        let prob = |name: &'static str, v: f64| -> Result<f64> {
            if v.is_finite() && (0.0..=1.0).contains(&v) {
                Ok(v)
            } else {
                Err(PolicyError::InvalidParameter {
                    name,
                    value: v,
                    expected: "a probability in [0, 1]",
                })
            }
        };
        for &c in &coefficients {
            prob("coefficient", c)?;
        }
        prob("tail_coefficient", tail_coefficient)?;
        prob("ideal_qom", ideal_qom)?;
        if !(discharge_rate.is_finite() && discharge_rate >= 0.0) {
            return Err(PolicyError::InvalidParameter {
                name: "discharge_rate",
                value: discharge_rate,
                expected: "a finite non-negative rate",
            });
        }
        if !(mean_gap.is_finite() && mean_gap > 0.0) {
            return Err(PolicyError::InvalidParameter {
                name: "mean_gap",
                value: mean_gap,
                expected: "a positive finite mean gap",
            });
        }
        Ok(Self {
            coefficients,
            tail_coefficient,
            ideal_qom,
            discharge_rate,
            mean_gap,
            label,
        })
    }
}

impl ActivationPolicy for GreedyPolicy {
    fn probability(&self, ctx: &DecisionContext) -> f64 {
        self.coefficient(ctx.state)
    }

    fn info_model(&self) -> InfoModel {
        InfoModel::Full
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn planned_discharge_rate(&self) -> Option<f64> {
        Some(self.discharge_rate)
    }

    fn table(&self) -> Option<PolicyTable> {
        Some(PolicyTable::new(
            self.coefficients.clone(),
            self.tail_coefficient,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evcap_dist::{Discretizer, Pareto, SlotPmf, Weibull};
    use evcap_energy::{ConsumptionModel, Energy};

    fn paper_consumption() -> ConsumptionModel {
        ConsumptionModel::paper_defaults()
    }

    #[test]
    fn section_iv_a_worked_example() {
        // α1 = 0.6, α2 = 0.4; β1 = 0.6 < β2 = 1. Slot 2 costs
        // ξ2 = δ1·0.4 + δ2·0.4 = 2.8 per renewal; slot 1 costs
        // ξ1 = δ1·1 + δ2·0.6 = 4.6.
        let pmf = SlotPmf::from_pmf(vec![0.6, 0.4]).unwrap();
        let consumption = paper_consumption();
        let mu = pmf.mean();

        // Budget exactly ξ2: everything goes to slot 2.
        let policy =
            GreedyPolicy::optimize(&pmf, EnergyBudget::per_slot(2.8 / mu), &consumption).unwrap();
        assert!(policy.coefficient(1).abs() < 1e-12);
        assert!((policy.coefficient(2) - 1.0).abs() < 1e-12);
        assert!((policy.ideal_qom() - 0.4).abs() < 1e-12);

        // Surplus budget flows to slot 1 at 60% efficiency.
        let policy =
            GreedyPolicy::optimize(&pmf, EnergyBudget::per_slot((2.8 + 2.3) / mu), &consumption)
                .unwrap();
        assert!((policy.coefficient(2) - 1.0).abs() < 1e-12);
        assert!((policy.coefficient(1) - 0.5).abs() < 1e-12);
        assert!((policy.ideal_qom() - (0.4 + 0.5 * 0.6)).abs() < 1e-12);
    }

    #[test]
    fn from_parts_round_trips_an_optimized_policy() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        let policy =
            GreedyPolicy::optimize(&pmf, EnergyBudget::per_slot(0.5), &paper_consumption())
                .unwrap();
        let rebuilt = GreedyPolicy::from_parts(
            (1..=policy.horizon())
                .map(|i| policy.coefficient(i))
                .collect(),
            policy.coefficient(policy.horizon() + 1),
            policy.ideal_qom(),
            policy.discharge_rate(),
            policy.mean_gap(),
            policy.label(),
        )
        .unwrap();
        assert_eq!(policy, rebuilt);
    }

    #[test]
    fn from_parts_rejects_corrupted_fields() {
        let ok = || (vec![0.0, 1.0], 0.5, 0.4, 0.5, 40.0, "g".to_owned());
        let (c, t, q, d, m, l) = ok();
        assert!(GreedyPolicy::from_parts(c, t, q, d, m, l).is_ok());
        let (_, t, q, d, m, l) = ok();
        assert!(GreedyPolicy::from_parts(vec![1.5], t, q, d, m, l).is_err());
        let (c, _, q, d, m, l) = ok();
        assert!(GreedyPolicy::from_parts(c, f64::NAN, q, d, m, l).is_err());
        let (c, t, _, d, m, l) = ok();
        assert!(GreedyPolicy::from_parts(c, t, 2.0, d, m, l).is_err());
        let (c, t, q, _, m, l) = ok();
        assert!(GreedyPolicy::from_parts(c, t, q, -1.0, m, l).is_err());
        let (c, t, q, d, _, l) = ok();
        assert!(GreedyPolicy::from_parts(c, t, q, d, 0.0, l).is_err());
    }

    #[test]
    fn theorem_1_structure_for_increasing_hazard() {
        // Weibull(40, 3) has increasing hazard, so the optimal policy is
        // (0, …, 0, c_{k+1}, 1, 1, …): a single threshold with one
        // fractional coefficient.
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        let policy =
            GreedyPolicy::optimize(&pmf, EnergyBudget::per_slot(0.5), &paper_consumption())
                .unwrap();
        let mut fractional = 0;
        let mut seen_positive = false;
        for i in 1..=pmf.horizon() {
            let c = policy.coefficient(i);
            if pmf.survival(i - 1) < 1e-12 {
                break; // unreachable states carry arbitrary (zero) c
            }
            if c > 1e-12 && c < 1.0 - 1e-12 {
                fractional += 1;
            }
            if seen_positive && pmf.hazard(i) >= pmf.hazard(i - 1) {
                // Once activation starts it never stops (hazard increasing).
                assert!(c > 1e-12, "gap in activation at slot {i}");
            }
            if c > 1e-12 {
                seen_positive = true;
            }
        }
        assert!(seen_positive);
        assert!(fractional <= 1, "{fractional} fractional coefficients");
    }

    #[test]
    fn matches_lp_on_weibull() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(15.0, 3.0).unwrap())
            .unwrap();
        for e in [0.2, 0.5, 1.0] {
            let budget = EnergyBudget::per_slot(e);
            let policy = GreedyPolicy::optimize(&pmf, budget, &paper_consumption()).unwrap();
            let lp = policy
                .certify_against_lp(&pmf, budget, &paper_consumption(), pmf.horizon())
                .unwrap();
            assert!(
                (policy.ideal_qom() - lp).abs() < 1e-6,
                "e={e}: greedy {} vs lp {lp}",
                policy.ideal_qom()
            );
        }
    }

    #[test]
    fn matches_lp_on_decreasing_hazard() {
        // Pareto hazards decrease, exercising Remark 1's sorting.
        let pmf = Discretizer::new()
            .max_horizon(400)
            .discretize(&Pareto::new(2.0, 10.0).unwrap())
            .unwrap();
        let budget = EnergyBudget::per_slot(0.3);
        let policy = GreedyPolicy::optimize(&pmf, budget, &paper_consumption()).unwrap();
        let lp = policy
            .certify_against_lp(&pmf, budget, &paper_consumption(), 400)
            .unwrap();
        // The greedy includes the analytic tail beyond the LP's truncation,
        // so allow the truncation error.
        assert!(
            (policy.ideal_qom() - lp).abs() < 1e-3,
            "greedy {} vs lp {lp}",
            policy.ideal_qom()
        );
    }

    #[test]
    fn saturates_at_full_activation() {
        // e ≥ δ1 + δ2/μ lets the sensor always activate: U = 1.
        let pmf = SlotPmf::from_pmf(vec![0.5, 0.5]).unwrap();
        let consumption = paper_consumption();
        let e_full = consumption.delta1_units() + consumption.delta2_units() / pmf.mean();
        let policy =
            GreedyPolicy::optimize(&pmf, EnergyBudget::per_slot(e_full + 0.1), &consumption)
                .unwrap();
        assert!((policy.ideal_qom() - 1.0).abs() < 1e-9);
        assert!((policy.coefficient(1) - 1.0).abs() < 1e-12);
        assert!((policy.coefficient(2) - 1.0).abs() < 1e-12);
        // Discharge never exceeds what full activation costs.
        assert!(policy.discharge_rate() <= e_full + 1e-12);
    }

    #[test]
    fn discharge_rate_matches_budget_when_binding() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        let policy =
            GreedyPolicy::optimize(&pmf, EnergyBudget::per_slot(0.1), &paper_consumption())
                .unwrap();
        assert!((policy.discharge_rate() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_is_rejected() {
        let pmf = SlotPmf::from_pmf(vec![1.0]).unwrap();
        let err = GreedyPolicy::optimize(&pmf, EnergyBudget::per_slot(0.0), &paper_consumption())
            .unwrap_err();
        assert!(matches!(err, PolicyError::BudgetTooSmall { .. }));
    }

    #[test]
    fn heavier_budget_never_decreases_qom() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(20.0, 2.0).unwrap())
            .unwrap();
        let mut last = 0.0;
        for e in [0.05, 0.1, 0.2, 0.4, 0.8, 1.6] {
            let policy =
                GreedyPolicy::optimize(&pmf, EnergyBudget::per_slot(e), &paper_consumption())
                    .unwrap();
            assert!(policy.ideal_qom() + 1e-12 >= last, "e={e}");
            last = policy.ideal_qom();
        }
    }

    #[test]
    fn tail_allocation_for_markov_process() {
        use evcap_dist::MarkovEvents;
        // Markov events: β1 = a = 0.8 > 1 − b = 0.3 for k ≥ 2 — the tail
        // bucket must be filled only after slot 1.
        let pmf = MarkovEvents::new(0.8, 0.7).unwrap().to_slot_pmf().unwrap();
        let consumption = paper_consumption();
        // Budget enough for slot 1 (ξ1 = 1 + 6·0.8 = 5.8) plus a bit.
        let mu = pmf.mean();
        let policy =
            GreedyPolicy::optimize(&pmf, EnergyBudget::per_slot(6.5 / mu), &consumption).unwrap();
        assert!((policy.coefficient(1) - 1.0).abs() < 1e-12);
        // The remainder goes to the (uniform-hazard) tail, fractionally.
        let tail_c = policy.coefficient(2);
        assert!(tail_c > 0.0 && tail_c < 1.0, "{tail_c}");
        assert_eq!(policy.coefficient(2), policy.coefficient(50));
    }

    #[test]
    fn policy_trait_wiring() {
        let pmf = SlotPmf::from_pmf(vec![0.6, 0.4]).unwrap();
        let consumption =
            ConsumptionModel::new(Energy::from_units(1.0), Energy::from_units(6.0)).unwrap();
        let policy =
            GreedyPolicy::optimize(&pmf, EnergyBudget::per_slot(0.5), &consumption).unwrap();
        assert_eq!(policy.info_model(), InfoModel::Full);
        assert!(policy.label().contains("greedy-FI"));
        let ctx = DecisionContext::stationary(2);
        assert_eq!(policy.probability(&ctx), policy.coefficient(2));
        assert!(policy.planned_discharge_rate().is_some());
    }

    #[test]
    fn table_matches_probability_everywhere() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        let policy =
            GreedyPolicy::optimize(&pmf, EnergyBudget::per_slot(0.5), &paper_consumption())
                .unwrap();
        let table = policy.table().expect("greedy is stationary");
        for i in 1..=(pmf.horizon() + 64) {
            let ctx = DecisionContext::stationary(i);
            assert_eq!(table.probability(i), policy.probability(&ctx), "state {i}");
        }
    }
}
