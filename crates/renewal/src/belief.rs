//! Exact age-belief propagation under a censoring activation policy.
//!
//! This module is the slotted-time replacement for the paper's Appendix B.
//! After a sensor captures an event (renewing its schedule at slot 0), the
//! partial-information chain needs, for every subsequent slot `i`, the
//! probability `β̂_i` that an event occurs in slot `i` **given** that the
//! sensor has not captured anything in slots `1..i` — where "not captured"
//! means: in every slot the sensor was active, no event occurred; in slots it
//! slept, anything may have happened.
//!
//! Because the event process is renewal, the only latent state is the *age*
//! `a` — the number of slots since the last actual event (captured or
//! missed). Conditioned on the age, an event occurs in the current slot with
//! the pmf's hazard `β_a`. The belief over ages is propagated exactly:
//!
//! * event & sensor active (prob `β_a · c_i`): **capture** — the mass leaves
//!   the "no capture yet" chain;
//! * event & sensor asleep (prob `β_a · (1 − c_i)`): **miss** — the age
//!   resets, so the mass moves to the bucket "last event at slot `i`";
//! * no event (prob `1 − β_a`): the age grows by one.
//!
//! Keying buckets by the *slot of the last actual event* (rather than the
//! age) keeps the representation stable: only slots with `c_i < 1` can ever
//! create a new bucket, so the belief stays as small as the policy's cooling
//! region regardless of how long the chain runs.

use evcap_dist::SlotPmf;

/// Belief mass below which a bucket is dropped (the pruned mass is tracked
/// and reported via [`AgeBeliefDp::pruned_mass`]).
const PRUNE_EPS: f64 = 1e-15;

/// The outcome of advancing the belief by one slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeliefStep {
    /// The slot index `i` that was just processed (1-based, counted from the
    /// renewing capture).
    pub slot: usize,
    /// `β̂_i`: probability that an event occurs in slot `i`, conditioned on
    /// no capture in slots `1..i`.
    pub hazard: f64,
    /// Joint probability of reaching slot `i` uncaptured *and* capturing in
    /// it: `S_i · c_i · β̂_i` where `S_i` is the chain survival.
    pub capture_mass: f64,
    /// Chain survival *after* this slot: `P(no capture in slots 1..=i)`.
    pub survival: f64,
}

/// Exact belief over the renewal process age, censored by an activation
/// policy; yields the conditional hazards `β̂_i` of the paper's
/// partial-information chain.
///
/// # Example
///
/// With a sensor that is always active (`c ≡ 1`), no event is ever missed,
/// so `β̂_i` equals the plain inter-arrival hazard `β_i`:
///
/// ```
/// use evcap_dist::SlotPmf;
/// use evcap_renewal::AgeBeliefDp;
///
/// # fn main() -> Result<(), evcap_dist::DistError> {
/// let pmf = SlotPmf::from_pmf(vec![0.2, 0.5, 0.3])?;
/// let mut dp = AgeBeliefDp::new(&pmf);
/// for i in 1..=3 {
///     let step = dp.step(1.0);
///     assert!((step.hazard - pmf.hazard(i)).abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AgeBeliefDp<'a> {
    hazards: Hazards<'a>,
    /// `(slot of last actual event, joint mass)`; masses sum to the chain
    /// survival `P(no capture yet)` (up to pruning).
    buckets: Vec<(usize, f64)>,
    /// The next slot to process (1-based).
    slot: usize,
    /// Chain survival after the last processed slot: the sum of the live
    /// bucket masses, in bucket order.
    survival: f64,
    /// Total mass dropped by pruning, for diagnostics.
    pruned: f64,
}

/// The hazards `β_1..=β_H` of one pmf, exactly as [`SlotPmf::hazards`]
/// returns them: computed once and shared by every chain a solve runs on
/// that pmf (see [`AgeBeliefDp::with_table`]).
#[derive(Debug, Clone)]
pub struct HazardTable<'a> {
    pmf: &'a SlotPmf,
    hazards: Vec<f64>,
}

impl<'a> HazardTable<'a> {
    /// Tabulates the hazard of every explicit slot of `pmf`.
    pub fn new(pmf: &'a SlotPmf) -> Self {
        Self {
            pmf,
            hazards: pmf.hazards(pmf.horizon()),
        }
    }

    /// The pmf this table was computed from.
    pub fn pmf(&self) -> &'a SlotPmf {
        self.pmf
    }
}

/// Where the DP reads the inter-arrival hazard `β_a` of an age.
#[derive(Debug, Clone, Copy)]
struct Hazards<'a> {
    pmf: &'a SlotPmf,
    /// A [`HazardTable`]'s entries, or empty to call [`SlotPmf::hazard`] on
    /// every lookup.
    table: &'a [f64],
    /// The constant hazard of every age past the pmf horizon.
    tail: f64,
}

impl Hazards<'_> {
    #[inline]
    fn at(&self, age: usize) -> f64 {
        match self.table.get(age - 1) {
            Some(&beta) => beta,
            None if self.table.is_empty() => self.pmf.hazard(age),
            None => self.tail,
        }
    }
}

impl<'a> AgeBeliefDp<'a> {
    /// Starts a fresh chain: an event was captured at slot 0, so the age is
    /// known exactly.
    pub fn new(pmf: &'a SlotPmf) -> Self {
        Self::start(pmf, &[])
    }

    /// Like [`AgeBeliefDp::new`] on `table.pmf()`, reading hazards from
    /// the table. The steps are bit-identical to the table-less DP's; a
    /// caller that runs many chains on one pmf builds the table once and
    /// saves a division per bucket per slot.
    pub fn with_table(table: &'a HazardTable<'a>) -> Self {
        Self::start(table.pmf, &table.hazards)
    }

    fn start(pmf: &'a SlotPmf, table: &'a [f64]) -> Self {
        Self {
            hazards: Hazards {
                pmf,
                table,
                tail: pmf.hazard(pmf.horizon() + 1),
            },
            buckets: vec![(0, 1.0)],
            slot: 1,
            survival: 1.0,
            pruned: 0.0,
        }
    }

    /// Advances one slot under activation probability `c ∈ [0, 1]`, returning
    /// the slot's conditional hazard and capture mass.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside `[0, 1]`.
    pub fn step(&mut self, c: f64) -> BeliefStep {
        assert!(
            (0.0..=1.0).contains(&c) && c.is_finite(),
            "activation probability must lie in [0, 1], got {c}"
        );
        let i = self.slot;
        let hazards = self.hazards;
        // The buckets are unchanged since the last step summed them.
        let total = self.survival;
        let mut event_mass = 0.0;
        let mut missed_mass = 0.0;
        // Update, prune and re-sum in one pass; the sum starts at -0.0 as
        // `Iterator::sum` does, so an emptied belief keeps its signed zero.
        // An index loop, because `retain_mut` with these accumulators
        // measured up to 1.8× slower.
        let mut remaining = -0.0;
        let mut kept = 0;
        for k in 0..self.buckets.len() {
            let (last_event, mass) = self.buckets[k];
            let event = mass * hazards.at(i - last_event);
            event_mass += event;
            missed_mass += event * (1.0 - c);
            let mass = mass - event;
            // Drop negligible buckets to keep the representation compact.
            if mass >= PRUNE_EPS {
                self.buckets[kept] = (last_event, mass);
                kept += 1;
                remaining += mass;
            }
        }
        self.buckets.truncate(kept);
        let capture_mass = event_mass * c;
        if missed_mass >= PRUNE_EPS {
            self.buckets.push((i, missed_mass));
            remaining += missed_mass;
        }
        // Track what pruning dropped so invariants can account for it.
        self.pruned += (total - capture_mass - remaining).max(0.0);
        self.survival = remaining;
        self.slot = i + 1;
        BeliefStep {
            slot: i,
            hazard: conditional_hazard(event_mass, total),
            capture_mass,
            survival: self.survival,
        }
    }

    /// The hazard `β̂` the next [`step`](Self::step) will report, without
    /// advancing the DP. It does not depend on that step's `c`.
    pub fn peek_hazard(&self) -> f64 {
        let i = self.slot;
        let event_mass = self.buckets.iter().fold(0.0, |acc, &(last_event, mass)| {
            acc + mass * self.hazards.at(i - last_event)
        });
        conditional_hazard(event_mass, self.survival)
    }

    /// Chain survival after the last processed slot:
    /// `P(no capture in slots 1..slot)`.
    pub fn survival(&self) -> f64 {
        self.survival
    }

    /// The next slot [`step`](Self::step) will process.
    pub fn next_slot(&self) -> usize {
        self.slot
    }

    /// Number of live belief buckets (bounded by 1 + the number of processed
    /// slots with `c < 1`).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Total probability mass dropped by pruning so far (diagnostic; should
    /// stay ≪ any tolerance used downstream).
    pub fn pruned_mass(&self) -> f64 {
        self.pruned
    }

    /// Runs the DP for `horizon` slots under the per-slot activation
    /// probabilities given by `policy(i)`, collecting every step.
    pub fn run(pmf: &'a SlotPmf, policy: impl Fn(usize) -> f64, horizon: usize) -> Vec<BeliefStep> {
        let mut dp = AgeBeliefDp::new(pmf);
        (0..horizon)
            .map(|_| dp.step(policy(dp.next_slot())))
            .collect()
    }
}

/// `β̂ = P(event) / P(no capture yet)`, or 0 once the chain has no mass.
fn conditional_hazard(event_mass: f64, total: f64) -> f64 {
    if total > 0.0 {
        (event_mass / total).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::renewal_fn::RenewalFunction;
    use evcap_dist::{Discretizer, MarkovEvents, SlotPmf, Weibull};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn always_active_reproduces_plain_hazard() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(12.0, 3.0).unwrap())
            .unwrap();
        let steps = AgeBeliefDp::run(&pmf, |_| 1.0, 30);
        for step in &steps {
            assert!(
                (step.hazard - pmf.hazard(step.slot)).abs() < 1e-12,
                "slot {}",
                step.slot
            );
        }
    }

    #[test]
    fn never_active_reproduces_renewal_density() {
        // With no observations, P(event in slot i) is the renewal mass u_i.
        let pmf = SlotPmf::from_pmf(vec![0.3, 0.3, 0.4]).unwrap();
        let renewal = RenewalFunction::new(&pmf, 40);
        let steps = AgeBeliefDp::run(&pmf, |_| 0.0, 40);
        for step in &steps {
            assert!(
                (step.hazard - renewal.mass(step.slot)).abs() < 1e-9,
                "slot {}: {} vs {}",
                step.slot,
                step.hazard,
                renewal.mass(step.slot)
            );
            // Nothing is ever captured.
            assert_eq!(step.capture_mass, 0.0);
            assert!((step.survival - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn capture_masses_and_survival_are_consistent() {
        let pmf = SlotPmf::from_pmf(vec![0.5, 0.5]).unwrap();
        let mut dp = AgeBeliefDp::new(&pmf);
        let mut total_captured = 0.0;
        let mut prev_survival = 1.0;
        for _ in 0..200 {
            let step = dp.step(0.7);
            total_captured += step.capture_mass;
            // capture_mass = prev_survival · c · hazard.
            assert!((step.capture_mass - prev_survival * 0.7 * step.hazard).abs() < 1e-12);
            prev_survival = step.survival;
        }
        // Eventually everything is captured.
        assert!((total_captured + dp.survival() - 1.0).abs() < 1e-9);
        assert!(dp.survival() < 1e-9);
    }

    #[test]
    fn markov_chain_hazards_match_closed_form() {
        // For the two-state Markov renewal process with an always-active
        // sensor, β̂_1 = a and β̂_k = 1 − b thereafter.
        let chain = MarkovEvents::new(0.3, 0.6).unwrap();
        let pmf = chain.to_slot_pmf().unwrap();
        let steps = AgeBeliefDp::run(&pmf, |_| 1.0, 10);
        assert!((steps[0].hazard - 0.3).abs() < 1e-12);
        for step in &steps[1..] {
            assert!((step.hazard - 0.4).abs() < 1e-12, "slot {}", step.slot);
        }
    }

    #[test]
    fn bucket_count_bounded_by_cooling_slots() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(12.0, 3.0).unwrap())
            .unwrap();
        // Policy: sleep in slots 1..=9, active afterwards.
        let mut dp = AgeBeliefDp::new(&pmf);
        for _ in 0..200 {
            let c = if dp.next_slot() <= 9 { 0.0 } else { 1.0 };
            dp.step(c);
        }
        // Buckets: the initial one plus at most one per cooling slot.
        assert!(dp.bucket_count() <= 10, "{}", dp.bucket_count());
        assert!(dp.pruned_mass() < 1e-9);
    }

    #[test]
    fn missed_events_raise_later_hazard() {
        // Deterministic gaps of 3: if the sensor sleeps through slot 3, the
        // event recurs at slot 6 with certainty.
        let pmf = SlotPmf::from_pmf(vec![0.0, 0.0, 1.0]).unwrap();
        let steps = AgeBeliefDp::run(&pmf, |i| if i <= 3 { 0.0 } else { 1.0 }, 6);
        assert!((steps[2].hazard - 1.0).abs() < 1e-12); // slot 3: missed
        assert!((steps[3].hazard - 0.0).abs() < 1e-12);
        assert!((steps[5].hazard - 1.0).abs() < 1e-12); // slot 6: captured
        assert!(steps[5].survival < 1e-12);
    }

    /// A seeded activation sequence mixing sleep, full activity and
    /// fractional probabilities (a quarter of the slots each, the rest
    /// fractional), with runs of sleep long enough to grow the belief.
    fn random_policy(seed: u64, len: usize) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..len)
            .map(|_| match rng.random_range(0..4u32) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.random::<f64>(),
            })
            .collect()
    }

    /// The textbook form of [`AgeBeliefDp::step`]: sum the belief, update
    /// it reading `pmf.hazard`, push the miss bucket, `retain`, re-sum.
    /// The one-pass step must reproduce it bit for bit.
    struct ReferenceDp<'a> {
        pmf: &'a SlotPmf,
        buckets: Vec<(usize, f64)>,
        slot: usize,
        pruned: f64,
    }

    impl ReferenceDp<'_> {
        fn step(&mut self, c: f64) -> BeliefStep {
            let i = self.slot;
            let total: f64 = self.buckets.iter().map(|&(_, m)| m).sum();
            let (mut event_mass, mut missed_mass) = (0.0, 0.0);
            for (last_event, mass) in &mut self.buckets {
                let event = *mass * self.pmf.hazard(i - *last_event);
                event_mass += event;
                missed_mass += event * (1.0 - c);
                *mass -= event;
            }
            let capture_mass = event_mass * c;
            if missed_mass > 0.0 {
                self.buckets.push((i, missed_mass));
            }
            self.buckets.retain(|&(_, m)| m >= PRUNE_EPS);
            let remaining: f64 = self.buckets.iter().map(|&(_, m)| m).sum();
            self.pruned += (total - capture_mass - remaining).max(0.0);
            self.slot = i + 1;
            BeliefStep {
                slot: i,
                hazard: conditional_hazard(event_mass, total),
                capture_mass,
                survival: remaining,
            }
        }
    }

    /// Steps the reference, a table-less and a table-backed DP side by
    /// side and demands they agree bit for bit on every observable after
    /// every step. Returns how many steps left the belief empty.
    fn assert_table_matches_direct(pmf: &SlotPmf, steps: usize) -> usize {
        let table = HazardTable::new(pmf);
        let mut emptied = 0;
        for seed in 0..8 {
            let mut reference = ReferenceDp {
                pmf,
                buckets: vec![(0, 1.0)],
                slot: 1,
                pruned: 0.0,
            };
            let mut direct = AgeBeliefDp::new(pmf);
            let mut tabled = AgeBeliefDp::with_table(&table);
            for (k, c) in random_policy(seed, steps).into_iter().enumerate() {
                let ctx = format!("seed {seed}, step {k}, c = {c}");
                let r = reference.step(c);
                let a = direct.step(c);
                assert_eq!(r.hazard.to_bits(), a.hazard.to_bits(), "{ctx}");
                assert_eq!(r.capture_mass.to_bits(), a.capture_mass.to_bits(), "{ctx}");
                assert_eq!(r.survival.to_bits(), a.survival.to_bits(), "{ctx}");
                assert_eq!(reference.pruned.to_bits(), direct.pruned_mass().to_bits());
                assert_eq!(reference.buckets, direct.buckets, "{ctx}");
                let b = tabled.step(c);
                assert_eq!(a.slot, b.slot, "{ctx}");
                assert_eq!(a.hazard.to_bits(), b.hazard.to_bits(), "{ctx}");
                assert_eq!(a.capture_mass.to_bits(), b.capture_mass.to_bits(), "{ctx}");
                assert_eq!(a.survival.to_bits(), b.survival.to_bits(), "{ctx}");
                assert_eq!(
                    direct.pruned_mass().to_bits(),
                    tabled.pruned_mass().to_bits(),
                    "{ctx}"
                );
                assert_eq!(direct.bucket_count(), tabled.bucket_count(), "{ctx}");
                emptied += usize::from(tabled.bucket_count() == 0);
            }
        }
        emptied
    }

    #[test]
    fn hazard_table_is_bit_identical_on_weibull() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        assert_table_matches_direct(&pmf, 400);
    }

    #[test]
    fn hazard_table_is_bit_identical_past_a_geometric_tail() {
        // Ten explicit slots and a geometric tail: the chain runs far past
        // the horizon, where the DP reads the cached tail hazard.
        let pmf = SlotPmf::with_tail(
            vec![0.02, 0.05, 0.08, 0.1, 0.1, 0.08, 0.06, 0.05, 0.04, 0.02],
            0.4,
            0.07,
            "tailed".into(),
        )
        .unwrap();
        assert!(pmf.tail_mass() > 0.0);
        assert_table_matches_direct(&pmf, 300);
    }

    #[test]
    fn hazard_table_is_bit_identical_when_support_runs_out() {
        // No tail mass: past the horizon the hazard is 1, so every bucket
        // resolves and the belief can empty out entirely.
        let pmf = SlotPmf::from_pmf(vec![0.1, 0.3, 0.2, 0.4]).unwrap();
        assert_eq!(pmf.tail_mass(), 0.0);
        assert_eq!(pmf.hazard(pmf.horizon() + 1), 1.0);
        assert!(assert_table_matches_direct(&pmf, 120) > 0);
    }

    #[test]
    fn peek_hazard_matches_a_probe_step_and_does_not_advance() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(12.0, 3.0).unwrap())
            .unwrap();
        let table = HazardTable::new(&pmf);
        for mut dp in [AgeBeliefDp::new(&pmf), AgeBeliefDp::with_table(&table)] {
            for c in random_policy(3, 200) {
                let (slot, survival, buckets) = (dp.next_slot(), dp.survival(), dp.bucket_count());
                let peeked = dp.peek_hazard();
                assert_eq!(
                    peeked.to_bits(),
                    dp.clone().step(0.0).hazard.to_bits(),
                    "slot {slot}"
                );
                assert_eq!(dp.next_slot(), slot);
                assert_eq!(dp.survival().to_bits(), survival.to_bits());
                assert_eq!(dp.bucket_count(), buckets);
                assert_eq!(dp.step(c).hazard.to_bits(), peeked.to_bits(), "slot {slot}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "activation probability")]
    fn step_rejects_invalid_probability() {
        let pmf = SlotPmf::from_pmf(vec![1.0]).unwrap();
        let mut dp = AgeBeliefDp::new(&pmf);
        dp.step(1.5);
    }
}
