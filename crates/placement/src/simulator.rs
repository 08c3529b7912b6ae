//! The single-server fit simulator (Fig. 4 of the paper).
//!
//! Given a set of workloads assigned to one server, the simulator replays
//! their per-CoS allocation traces against a candidate capacity `L` and
//! checks the pool's resource access CoS commitments:
//!
//! 1. **CoS1 guarantee** — the sum of per-workload *peak* CoS1 allocations
//!    must not exceed `L` (§IV);
//! 2. **access probability** — the measured
//!    `θ = min_w min_t Σ_days min(A,L) / Σ_days A` must reach the committed
//!    `θ` (§IV's definition, computed per week and slot-of-day);
//! 3. **deadline** — demand not satisfied on request carries over and must
//!    be fully served within `s` slots.
//!
//! [`FitRequest::required_capacity`] binary-searches the smallest `L`
//! satisfying all three, which is the per-server `C_requ` contribution in
//! Table I. [`FitRequest`] paired with [`FitOptions`] is the single entry
//! point.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use ropus_qos::PoolCommitments;
use ropus_trace::{kernels, Calendar};

use crate::sumtree::{SlotArena, SumTree};
use crate::workload::{validate_workloads, Workload};
use crate::PlacementError;

/// Numerical slack for capacity comparisons, absorbing accumulated
/// floating-point error in trace sums.
const EPSILON: f64 = 1e-9;

/// Pre-aggregated load of a workload set on one server.
///
/// Aggregating once makes each candidate-capacity evaluation O(trace
/// length) regardless of how many workloads share the server.
///
/// The aggregate retains its members (cheap: traces are `Arc`-backed) in
/// canonical (name-sorted) order and keeps their slot sums in a
/// `SumTree` — a treap whose shape, and therefore whose floating-point
/// association, is a pure function of the member *set*. That makes
/// [`AggregateLoad::add`] / [`AggregateLoad::remove`] bit-identical to a
/// cold [`AggregateLoad::of`] over the same set while recomputing only
/// the O(log n) partial sums on the touched root path, instead of the
/// full O(n) re-sum the previous flat representation needed. Nothing is
/// ever subtracted, so there is no incremental drift to reconcile — the
/// periodic rebuild (every `RECONCILE_EVERY` mutations) is a structural
/// compaction, and debug builds assert bit-equality against a cold build
/// after every mutation. Duplicate member names have no canonical set
/// order; such degenerate aggregates fall back to a cold rebuild per
/// mutation.
#[derive(Debug, Clone)]
pub struct AggregateLoad {
    calendar: Calendar,
    members: Vec<Workload>,
    tree: SumTree,
    /// Materialized per-slot total (CoS1 + CoS2) allocation — the one
    /// contiguous vector every fit evaluation scans.
    totals: Vec<f64>,
    cos1_peak_sum: f64,
    memory_peak: f64,
    /// Incremental mutations since the tree was last cold-built.
    mutations: u32,
    /// Whether member names are pairwise distinct (the set-pure fast path).
    unique_names: bool,
}

/// Incremental mutations between cold tree rebuilds. The rebuild drops
/// freed tree slots and excess pooled buffers; it is *not* a numerical
/// correction (incremental sums are bit-identical by construction).
const RECONCILE_EVERY: u32 = 64;

/// Whether the (sorted) member names are pairwise distinct.
fn names_unique(members: &[Workload]) -> bool {
    members
        .iter()
        .zip(members.iter().skip(1))
        .all(|(a, b)| a.name() != b.name())
}

impl PartialEq for AggregateLoad {
    /// Structural equality on the aggregated state; the sum tree and the
    /// reconciliation bookkeeping are maintenance details and do not
    /// participate.
    fn eq(&self, other: &Self) -> bool {
        self.calendar == other.calendar
            && self.cos1_peak_sum == other.cos1_peak_sum
            && self.memory_peak == other.memory_peak
            && self.totals == other.totals
            && self.members == other.members
    }
}

impl AggregateLoad {
    /// Aggregates a set of workloads.
    ///
    /// # Errors
    ///
    /// Returns a [`PlacementError`] if the set is empty, misaligned, or
    /// does not cover whole weeks.
    pub fn of(workloads: &[&Workload]) -> Result<Self, PlacementError> {
        Self::of_pooled(workloads, &mut SlotArena::new())
    }

    /// [`AggregateLoad::of`], drawing every slot buffer from `arena`.
    ///
    /// Paired with [`AggregateLoad::recycle`], this is the
    /// allocation-free path for the transient aggregates hot placement
    /// loops build per candidate assignment: after warm-up, construction
    /// reuses the buffers the previous candidate returned.
    ///
    /// # Errors
    ///
    /// Returns a [`PlacementError`] if the set is empty, misaligned, or
    /// does not cover whole weeks.
    pub fn of_pooled(
        workloads: &[&Workload],
        arena: &mut SlotArena,
    ) -> Result<Self, PlacementError> {
        validate_workloads(workloads.iter().copied())?;
        let calendar = workloads[0].cos1().calendar();
        let mut members: Vec<Workload> = workloads.iter().map(|w| (*w).clone()).collect();
        members.sort_by(|a, b| a.name().cmp(b.name()));
        let unique_names = names_unique(&members);
        let mut tree = SumTree::build(&members, arena);
        let totals = tree.take_buf();
        let mut load = AggregateLoad {
            calendar,
            members,
            tree,
            totals,
            cos1_peak_sum: 0.0,
            memory_peak: 0.0,
            mutations: 0,
            unique_names,
        };
        load.rematerialize();
        Ok(load)
    }

    /// Consumes the aggregate, returning its slot buffers to `arena` so
    /// the next [`AggregateLoad::of_pooled`] allocates nothing.
    pub fn recycle(self, arena: &mut SlotArena) {
        arena.give(self.totals);
        self.tree.recycle_into(arena);
    }

    /// Refreshes the materialized totals and peaks from the tree root and
    /// the canonical member list.
    fn rematerialize(&mut self) {
        self.totals.clear();
        if let Some(cos1) = self.tree.root_cos1() {
            self.totals.extend_from_slice(cos1);
        }
        if let Some(cos2) = self.tree.root_cos2() {
            kernels::add_assign(&mut self.totals, cos2);
        }
        // Memory is not time-shareable, so only its aggregate peak matters.
        self.memory_peak = self
            .tree
            .root_memory()
            .map_or(0.0, |m| m.iter().copied().fold(0.0, f64::max));
        self.cos1_peak_sum = self.members.iter().map(Workload::cos1_peak).sum();
    }

    /// Cold-rebuilds the tree from the canonical member list, recycling
    /// the old tree's buffers, and resets the reconciliation counter.
    fn rebuild_tree(&mut self) {
        let mut arena = SlotArena::new();
        let old = std::mem::replace(&mut self.tree, SumTree::empty());
        old.recycle_into(&mut arena);
        self.tree = SumTree::build(&self.members, &mut arena);
        self.unique_names = names_unique(&self.members);
        self.mutations = 0;
    }

    /// Counts one incremental mutation, compacting the tree periodically.
    fn note_mutation(&mut self) {
        self.mutations += 1;
        if self.mutations >= RECONCILE_EVERY {
            self.rebuild_tree();
        }
    }

    /// Debug-build reconciliation: the incrementally maintained state
    /// must be bit-identical to a cold build of the current member set.
    #[cfg(debug_assertions)]
    fn debug_reconcile(&self) {
        let refs: Vec<&Workload> = self.members.iter().collect();
        // lint:allow(panic-expect): debug-build-only check; the members
        // were validated as aligned when they were admitted.
        let cold = AggregateLoad::of(&refs).expect("members were validated on admission");
        assert_eq!(self.totals.len(), cold.totals.len());
        for (a, b) in self.totals.iter().zip(&cold.totals) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "incremental aggregate diverged from a cold rebuild"
            );
        }
        assert_eq!(self.cos1_peak_sum.to_bits(), cold.cos1_peak_sum.to_bits());
        assert_eq!(self.memory_peak.to_bits(), cold.memory_peak.to_bits());
    }

    #[cfg(not(debug_assertions))]
    fn debug_reconcile(&self) {}

    /// Adds one workload to the aggregate.
    ///
    /// The member joins at its canonical (name-sorted) position and the
    /// sum tree recomputes the partial sums on its root path, so the
    /// result is bit-identical to a cold [`AggregateLoad::of`] over the
    /// enlarged set at O(slots · log n) cost.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::MisalignedWorkloads`] when the workload's
    /// calendar or length differs from the existing members'.
    pub fn add(&mut self, workload: &Workload) -> Result<(), PlacementError> {
        let aligned = workload.len() == self.len() && workload.cos1().calendar() == self.calendar;
        if !aligned {
            return Err(PlacementError::MisalignedWorkloads {
                name: workload.name().to_string(),
            });
        }
        let at = self
            .members
            .partition_point(|m| m.name() <= workload.name());
        // The insertion point sits after any members of the same name, so
        // a duplicate (if present) is exactly the predecessor.
        let duplicate = self
            .members
            .get(at.wrapping_sub(1))
            .is_some_and(|m| m.name() == workload.name());
        self.members.insert(at, workload.clone());
        if self.unique_names && !duplicate {
            self.tree.insert(workload.clone());
            self.note_mutation();
        } else {
            self.rebuild_tree();
        }
        self.rematerialize();
        self.debug_reconcile();
        Ok(())
    }

    /// Removes the named workload from the aggregate.
    ///
    /// The sum tree recomputes the partial sums on the removed member's
    /// root path, so the result is bit-identical to a cold
    /// [`AggregateLoad::of`] over the reduced set — removing and
    /// re-adding a member round-trips exactly.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::NoWorkloads`] when the named workload
    /// either is not a member or is the last one (an empty aggregate is
    /// not representable; drop the aggregate instead).
    pub fn remove(&mut self, name: &str) -> Result<Workload, PlacementError> {
        let at = self
            .members
            .iter()
            .position(|m| m.name() == name)
            .filter(|_| self.members.len() > 1)
            .ok_or(PlacementError::NoWorkloads)?;
        let removed = self.members.remove(at);
        if self.unique_names {
            if self.tree.remove(name).is_some() {
                self.note_mutation();
            } else {
                // Unreachable while the flag is accurate; rebuild to stay
                // safe rather than serve stale sums.
                self.rebuild_tree();
            }
        } else {
            self.rebuild_tree();
        }
        self.rematerialize();
        self.debug_reconcile();
        Ok(removed)
    }

    /// The member workloads, in canonical (name-sorted) order.
    pub fn members(&self) -> &[Workload] {
        &self.members
    }

    /// Peak of the aggregate memory footprint (GB); 0 when no workload
    /// carries a memory trace.
    pub fn memory_peak(&self) -> f64 {
        self.memory_peak
    }

    /// The calendar shared by the aggregated traces.
    pub fn calendar(&self) -> Calendar {
        self.calendar
    }

    /// Sum of per-workload peak CoS1 allocations (the guarantee constraint).
    pub fn cos1_peak_sum(&self) -> f64 {
        self.cos1_peak_sum
    }

    /// Number of aggregated slots.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// Whether there are no slots (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// Total aggregate allocation at a slot.
    fn total(&self, index: usize) -> f64 {
        // lint:allow(panic-slice-index): the materialized totals cover
        // exactly `0..len()` and callers iterate that range.
        self.totals[index]
    }

    /// The materialized per-slot total allocation trace.
    pub(crate) fn totals(&self) -> &[f64] {
        &self.totals
    }

    /// Peak of the total aggregate allocation trace.
    pub fn total_peak(&self) -> f64 {
        self.totals.iter().copied().fold(0.0, f64::max)
    }
}

/// Why a workload set does not fit at a candidate capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FitViolation {
    /// The sum of peak CoS1 allocations exceeds the capacity.
    Cos1Overflow,
    /// The aggregate memory footprint exceeds the server's memory.
    MemoryOverflow,
    /// The measured access probability fell short of the commitment.
    ThetaShortfall,
    /// Carried-over demand was not served within the deadline.
    DeadlineMissed,
}

/// Outcome of evaluating one workload set at one candidate capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitReport {
    /// Whether all commitments are satisfied.
    pub fits: bool,
    /// The first violated constraint, when `fits` is false.
    pub violation: Option<FitViolation>,
    /// Sum of per-workload peak CoS1 allocations.
    pub cos1_peak_sum: f64,
    /// The measured access probability (1.0 when demand never exceeds
    /// capacity).
    pub measured_theta: f64,
    /// Whether every carried-over demand met the deadline.
    pub deadline_met: bool,
}

/// Measures the resource access probability `θ` at capacity `capacity`:
/// the minimum over weeks and slots-of-day of
/// `Σ_days min(A, L) / Σ_days A` (the paper's §IV definition).
///
/// Slots with no demand in any day count as fully satisfied.
pub fn access_probability(load: &AggregateLoad, capacity: f64) -> f64 {
    theta_scan(load, capacity, f64::NEG_INFINITY)
}

/// The [`access_probability`] scan, stopping as soon as the running
/// minimum `θ` satisfies `θ + EPSILON < target`. The final minimum can
/// only be lower, so a stopped scan still fails `θ + EPSILON >= target`
/// exactly as the full scan would; with `target = -∞` it never stops.
fn theta_scan(load: &AggregateLoad, capacity: f64, target: f64) -> f64 {
    let per_day = load.calendar.slots_per_day();
    let per_week = load.calendar.slots_per_week();
    let weeks = load.len() / per_week;
    let mut theta: f64 = 1.0;
    for w in 0..weeks {
        for t in 0..per_day {
            let mut satisfied = 0.0;
            let mut requested = 0.0;
            for day in 0..7 {
                let idx = w * per_week + day * per_day + t;
                let a = load.total(idx);
                satisfied += a.min(capacity);
                requested += a;
            }
            if requested > 0.0 {
                theta = theta.min(satisfied / requested);
                if theta + EPSILON < target {
                    return theta;
                }
            }
        }
    }
    theta
}

/// A deadline-bounded FIFO of deferred demand: `(arrival slot, amount)`
/// entries served oldest first.
///
/// This is the one carry-over rule (§III: CoS2 demand not satisfied on
/// request must be served within the deadline `s`). The fit simulator's
/// [`deadline_satisfied`] and the chaos replay's carry-over both drive
/// it; amounts at or below the simulator's `1e-9` slack count as served.
#[derive(Debug, Clone, Default)]
pub struct Backlog {
    entries: VecDeque<(usize, f64)>,
}

impl Backlog {
    /// An empty backlog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Defers `amount` of demand that arrived in `slot`. Slots must not
    /// decrease between pushes.
    pub fn push(&mut self, slot: usize, amount: f64) {
        self.entries.push_back((slot, amount));
    }

    /// Serves deferred demand oldest first from `budget` spare capacity,
    /// retiring entries that drop to the slack, and returns the amount
    /// served. A budget at or below the slack serves nothing.
    pub fn drain(&mut self, mut budget: f64) -> f64 {
        let mut served = 0.0;
        while budget > EPSILON {
            let Some(front) = self.entries.front_mut() else {
                break;
            };
            let take = front.1.min(budget);
            front.1 -= take;
            served += take;
            budget -= take;
            if front.1 <= EPSILON {
                self.entries.pop_front();
            }
        }
        served
    }

    /// Retires the oldest entry when its deadline has passed at `slot`
    /// (it arrived `deadline_slots` or more slots earlier) and returns its
    /// outstanding amount. Entries are in arrival order, so calling this
    /// until it returns `None` expires everything overdue.
    pub fn expire(&mut self, slot: usize, deadline_slots: usize) -> Option<f64> {
        let &(arrival, amount) = self.entries.front()?;
        if slot < arrival.saturating_add(deadline_slots) {
            return None;
        }
        self.entries.pop_front();
        Some(amount)
    }

    /// Total deferred demand still outstanding, summed oldest first.
    pub fn outstanding(&self) -> f64 {
        self.entries.iter().map(|e| e.1).sum()
    }

    /// Whether nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Checks that every unit of demand unsatisfied on request is served
/// within `deadline_slots` slots, using surplus capacity in later slots
/// (oldest shortfall first).
pub fn deadline_satisfied(load: &AggregateLoad, capacity: f64, deadline_slots: usize) -> bool {
    let mut backlog = Backlog::new();
    for (slot, &total) in load.totals().iter().enumerate() {
        if total > capacity {
            backlog.push(slot, total - capacity);
        } else {
            backlog.drain(capacity - total);
        }
        if backlog.expire(slot, deadline_slots).is_some() {
            return false;
        }
    }
    backlog.is_empty()
}

/// Options of a fit evaluation: the optional memory attribute and the
/// binary-search tolerance.
///
/// This is the options half of the [`FitRequest`]/[`FitOptions`] API that
/// replaces the former `evaluate_fit`/`evaluate_fit_with_memory` and
/// `required_capacity`/`required_capacity_with_memory` function pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitOptions {
    /// Memory limit in GB; `None` means the attribute is unconstrained.
    memory_capacity: Option<f64>,
    /// Capacity tolerance of the required-capacity binary search.
    tolerance: f64,
}

impl FitOptions {
    /// Default options: unlimited memory, tolerance 0.05 capacity units
    /// (the thorough search setting).
    pub fn new() -> Self {
        FitOptions {
            memory_capacity: None,
            tolerance: 0.05,
        }
    }

    /// Constrains the memory attribute to `capacity` GB. Memory is a
    /// guaranteed, non-statistical attribute: the aggregate footprint must
    /// stay within the limit at every slot (checked via the aggregate
    /// peak).
    pub fn with_memory_capacity(mut self, capacity: f64) -> Self {
        self.memory_capacity = Some(capacity);
        self
    }

    /// Sets the binary-search tolerance, in capacity units.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// The memory limit in force (`f64::INFINITY` when unconstrained).
    pub fn memory_capacity(&self) -> f64 {
        self.memory_capacity.unwrap_or(f64::INFINITY)
    }

    /// The binary-search tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }
}

impl Default for FitOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// A fit question about one aggregated load under one set of pool
/// commitments: evaluate a candidate capacity, or binary-search the
/// smallest sufficient one.
#[derive(Debug, Clone, Copy)]
pub struct FitRequest<'a> {
    load: &'a AggregateLoad,
    commitments: &'a PoolCommitments,
    options: FitOptions,
}

impl<'a> FitRequest<'a> {
    /// Creates a request with default [`FitOptions`].
    pub fn new(load: &'a AggregateLoad, commitments: &'a PoolCommitments) -> Self {
        FitRequest {
            load,
            commitments,
            options: FitOptions::new(),
        }
    }

    /// Replaces the options.
    pub fn with_options(mut self, options: FitOptions) -> Self {
        self.options = options;
        self
    }

    /// Evaluates the fit constraints at a candidate CPU capacity.
    ///
    /// CPU keeps the paper's three constraints (CoS1 guarantee, access
    /// probability `θ`, carry-over deadline); memory, when constrained by
    /// the options, is a pass/fail attribute checked first.
    pub fn evaluate(&self, capacity: f64) -> FitReport {
        let load = self.load;
        let cos1_peak_sum = load.cos1_peak_sum();
        if let Some(violation) = self.guarantee_violation(capacity) {
            return FitReport {
                fits: false,
                violation: Some(violation),
                cos1_peak_sum,
                measured_theta: 0.0,
                deadline_met: false,
            };
        }
        let measured_theta = access_probability(load, capacity);
        let deadline_met = deadline_satisfied(load, capacity, self.deadline_slots());
        let theta_ok = measured_theta + EPSILON >= self.commitments.cos2.theta();
        let violation = if !theta_ok {
            Some(FitViolation::ThetaShortfall)
        } else if !deadline_met {
            Some(FitViolation::DeadlineMissed)
        } else {
            None
        };
        FitReport {
            fits: violation.is_none(),
            violation,
            cos1_peak_sum,
            measured_theta,
            deadline_met,
        }
    }

    /// The violated non-statistical constraint at `capacity`, memory
    /// before CoS1, if any.
    fn guarantee_violation(&self, capacity: f64) -> Option<FitViolation> {
        if self.load.memory_peak() > self.options.memory_capacity() + EPSILON {
            Some(FitViolation::MemoryOverflow)
        } else if self.load.cos1_peak_sum() > capacity + EPSILON {
            Some(FitViolation::Cos1Overflow)
        } else {
            None
        }
    }

    /// The CoS2 deadline in slots of the load's calendar.
    fn deadline_slots(&self) -> usize {
        self.load
            .calendar()
            .slots_in_minutes(self.commitments.cos2.deadline_minutes())
    }

    /// `evaluate(capacity).fits`, stopping at the first failed constraint
    /// in [`evaluate`](Self::evaluate)'s order (memory, CoS1, θ,
    /// deadline): the θ scan stops once its running minimum fails the
    /// commitment, and the deadline scan runs only when θ passes.
    fn fits(&self, capacity: f64) -> bool {
        if self.guarantee_violation(capacity).is_some() {
            return false;
        }
        let target = self.commitments.cos2.theta();
        theta_scan(self.load, capacity, target) + EPSILON >= target
            && deadline_satisfied(self.load, capacity, self.deadline_slots())
    }

    /// Binary-searches the smallest capacity in `[0, limit]` that
    /// satisfies the commitments, to within the options' tolerance.
    ///
    /// Returns `None` when the workloads do not fit even at `limit` — the
    /// "commitments cannot be satisfied" outcome of Fig. 4.
    ///
    /// All three constraints are monotone in capacity, which is what makes
    /// the binary search sound.
    ///
    /// # Panics
    ///
    /// Panics if the options' tolerance is not positive or `limit` is not
    /// positive.
    pub fn required_capacity(&self, limit: f64) -> Option<f64> {
        let tolerance = self.options.tolerance();
        assert!(tolerance > 0.0, "tolerance must be positive");
        assert!(limit > 0.0, "capacity limit must be positive");
        if !self.fits(limit) {
            return None;
        }
        let mut hi = limit;
        let mut lo = 0.0f64;
        if self.fits(lo.max(EPSILON)) {
            return Some(0.0);
        }
        while hi - lo > tolerance {
            let mid = 0.5 * (hi + lo);
            if self.fits(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropus_qos::CosSpec;
    use ropus_trace::Trace;

    fn cal() -> Calendar {
        Calendar::five_minute()
    }

    fn week() -> usize {
        cal().slots_per_week()
    }

    fn commitments(theta: f64) -> PoolCommitments {
        PoolCommitments::new(CosSpec::new(theta, 60).unwrap())
    }

    fn fit(load: &AggregateLoad, capacity: f64, commitments: &PoolCommitments) -> FitReport {
        FitRequest::new(load, commitments).evaluate(capacity)
    }

    fn required(
        load: &AggregateLoad,
        commitments: &PoolCommitments,
        limit: f64,
        tolerance: f64,
    ) -> Option<f64> {
        FitRequest::new(load, commitments)
            .with_options(FitOptions::new().with_tolerance(tolerance))
            .required_capacity(limit)
    }

    fn fit_mem(
        load: &AggregateLoad,
        capacity: f64,
        memory: f64,
        commitments: &PoolCommitments,
    ) -> FitReport {
        FitRequest::new(load, commitments)
            .with_options(FitOptions::new().with_memory_capacity(memory))
            .evaluate(capacity)
    }

    fn required_mem(
        load: &AggregateLoad,
        commitments: &PoolCommitments,
        limit: f64,
        memory: f64,
        tolerance: f64,
    ) -> Option<f64> {
        FitRequest::new(load, commitments)
            .with_options(
                FitOptions::new()
                    .with_memory_capacity(memory)
                    .with_tolerance(tolerance),
            )
            .required_capacity(limit)
    }

    fn constant_workload(name: &str, c1: f64, c2: f64) -> Workload {
        Workload::new(
            name,
            Trace::constant(cal(), c1, week()).unwrap(),
            Trace::constant(cal(), c2, week()).unwrap(),
        )
        .unwrap()
    }

    /// A workload whose CoS2 trace spikes to `spike` for `spike_len` slots
    /// at the start of each day, and is `base` otherwise.
    fn spiky_workload(name: &str, base: f64, spike: f64, spike_len: usize) -> Workload {
        let per_day = cal().slots_per_day();
        let samples: Vec<f64> = (0..week())
            .map(|i| if i % per_day < spike_len { spike } else { base })
            .collect();
        Workload::new(
            name,
            Trace::constant(cal(), 0.0, week()).unwrap(),
            Trace::from_samples(cal(), samples).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn aggregate_sums_and_peaks() {
        let a = constant_workload("a", 1.0, 2.0);
        let b = constant_workload("b", 0.5, 1.0);
        let load = AggregateLoad::of(&[&a, &b]).unwrap();
        assert_eq!(load.cos1_peak_sum(), 1.5);
        assert_eq!(load.total_peak(), 4.5);
        assert_eq!(load.len(), week());
    }

    #[test]
    fn cos1_overflow_is_detected() {
        let a = constant_workload("a", 10.0, 0.0);
        let b = constant_workload("b", 8.0, 0.0);
        let load = AggregateLoad::of(&[&a, &b]).unwrap();
        let report = fit(&load, 16.0, &commitments(0.9));
        assert!(!report.fits);
        assert_eq!(report.violation, Some(FitViolation::Cos1Overflow));
    }

    #[test]
    fn theta_is_one_when_capacity_covers_demand() {
        let a = constant_workload("a", 2.0, 3.0);
        let load = AggregateLoad::of(&[&a]).unwrap();
        assert_eq!(access_probability(&load, 5.0), 1.0);
        assert_eq!(access_probability(&load, 100.0), 1.0);
        let report = fit(&load, 5.0, &commitments(1.0));
        assert!(report.fits);
    }

    #[test]
    fn theta_measures_overflow_fraction() {
        // Demand 10 every slot; capacity 8: every slot satisfies 0.8.
        let a = constant_workload("a", 0.0, 10.0);
        let load = AggregateLoad::of(&[&a]).unwrap();
        let theta = access_probability(&load, 8.0);
        assert!((theta - 0.8).abs() < 1e-12);
    }

    #[test]
    fn theta_is_min_over_slots() {
        // One hour per day of demand 10, the rest 1; capacity 5 satisfies
        // the quiet slots fully, the busy slot at 0.5.
        let a = spiky_workload("a", 1.0, 10.0, 12);
        let load = AggregateLoad::of(&[&a]).unwrap();
        let theta = access_probability(&load, 5.0);
        assert!((theta - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deadline_requires_backlog_to_drain() {
        // Spike of 2 slots at 10, then base 1: capacity 6 leaves a backlog
        // of 8 that drains at 5/slot -> cleared within 2 slots of arrival.
        let a = spiky_workload("a", 1.0, 10.0, 2);
        let load = AggregateLoad::of(&[&a]).unwrap();
        assert!(deadline_satisfied(&load, 6.0, 3));
        // With deadline 1 slot, the backlog from slot 0 (4 units) cannot be
        // fully served by slot 1 (slot 1 is also overloaded).
        assert!(!deadline_satisfied(&load, 6.0, 1));
    }

    #[test]
    fn backlog_drains_oldest_first_and_expires_at_the_deadline() {
        let mut backlog = Backlog::new();
        backlog.push(0, 3.0);
        backlog.push(1, 2.0);
        assert_eq!(backlog.outstanding(), 5.0);
        // A budget at the slack serves nothing.
        assert_eq!(backlog.drain(EPSILON), 0.0);
        // 4 units retire the first entry and half the second.
        assert_eq!(backlog.drain(4.0), 4.0);
        assert_eq!(backlog.outstanding(), 1.0);
        // The slot-1 entry is due at slot 1 + 2.
        assert_eq!(backlog.expire(2, 2), None);
        assert_eq!(backlog.expire(3, 2), Some(1.0));
        assert_eq!(backlog.expire(3, 2), None);
        assert!(backlog.is_empty());
        // A deadline past the end of time saturates instead of wrapping.
        backlog.push(5, 1.0);
        assert_eq!(backlog.expire(usize::MAX - 1, usize::MAX), None);
        // More budget than backlog serves only what is outstanding.
        assert_eq!(backlog.drain(10.0), 1.0);
        assert!(backlog.is_empty());
    }

    #[test]
    fn deadline_never_met_when_average_demand_exceeds_capacity() {
        let a = constant_workload("a", 0.0, 10.0);
        let load = AggregateLoad::of(&[&a]).unwrap();
        assert!(!deadline_satisfied(&load, 8.0, 12));
    }

    #[test]
    fn evaluate_fit_orders_violations() {
        let a = spiky_workload("a", 1.0, 30.0, 24);
        let load = AggregateLoad::of(&[&a]).unwrap();
        // Capacity 2: theta for the busy slots = tiny -> theta violation.
        let report = fit(&load, 2.0, &commitments(0.9));
        assert_eq!(report.violation, Some(FitViolation::ThetaShortfall));
        assert!(report.measured_theta < 0.9);
    }

    #[test]
    fn deadline_violation_reported_when_theta_passes() {
        // 2-hour spike at 10 once per day, base 4, capacity 8: busy-slot
        // theta = 0.8, so commit theta = 0.75 passes, but the backlog of
        // 2/slot x 24 slots = 48 drains at 4/slot, needing 12 h >> 60 min.
        let a = spiky_workload("a", 4.0, 10.0, 24);
        let load = AggregateLoad::of(&[&a]).unwrap();
        let report = fit(&load, 8.0, &commitments(0.75));
        assert!(report.measured_theta >= 0.75);
        assert_eq!(report.violation, Some(FitViolation::DeadlineMissed));
    }

    #[test]
    fn required_capacity_matches_known_answer() {
        // Constant total demand 5.0 with theta = 1.0 commitment: required
        // capacity is 5.0 (to tolerance).
        let a = constant_workload("a", 2.0, 3.0);
        let load = AggregateLoad::of(&[&a]).unwrap();
        let req = required(&load, &commitments(1.0), 16.0, 0.01).unwrap();
        assert!((req - 5.0).abs() < 0.02, "required {req}");
    }

    #[test]
    fn required_capacity_with_statistical_theta_is_below_peak() {
        // 1 hour per day at 10, rest at 1, theta = 0.6: the busy slot only
        // needs 0.6 coverage, so required capacity sits near 6.
        let a = spiky_workload("a", 1.0, 10.0, 12);
        let load = AggregateLoad::of(&[&a]).unwrap();
        let req = required(&load, &commitments(0.6), 16.0, 0.01).unwrap();
        assert!(req < 10.0, "required {req}");
        assert!(req >= 6.0 - 0.02, "required {req}");
        // And the result actually fits while tolerance below does not.
        assert!(fit(&load, req, &commitments(0.6)).fits);
        assert!(!fit(&load, req - 0.05, &commitments(0.6)).fits);
    }

    #[test]
    fn required_capacity_is_none_when_infeasible() {
        let a = constant_workload("a", 20.0, 0.0);
        let load = AggregateLoad::of(&[&a]).unwrap();
        assert_eq!(required(&load, &commitments(0.9), 16.0, 0.01), None);
    }

    #[test]
    fn required_capacity_zero_demand() {
        let a = constant_workload("a", 0.0, 0.0);
        let load = AggregateLoad::of(&[&a]).unwrap();
        let req = required(&load, &commitments(0.9), 16.0, 0.01).unwrap();
        assert_eq!(req, 0.0);
    }

    #[test]
    fn higher_theta_commitment_needs_more_capacity() {
        let a = spiky_workload("a", 1.0, 10.0, 12);
        let load = AggregateLoad::of(&[&a]).unwrap();
        let lo = required(&load, &commitments(0.6), 16.0, 0.01).unwrap();
        let hi = required(&load, &commitments(0.95), 16.0, 0.01).unwrap();
        assert!(hi > lo, "hi {hi} lo {lo}");
    }

    #[test]
    fn memory_overflow_is_detected_before_cpu() {
        let a = constant_workload("a", 1.0, 1.0);
        let mem = Trace::constant(cal(), 48.0, week()).unwrap();
        let a = a.with_memory(mem).unwrap();
        let b = constant_workload("b", 1.0, 1.0)
            .with_memory(Trace::constant(cal(), 24.0, week()).unwrap())
            .unwrap();
        let load = AggregateLoad::of(&[&a, &b]).unwrap();
        assert_eq!(load.memory_peak(), 72.0);
        // CPU easily fits, memory (72 > 64) does not.
        let report = fit_mem(&load, 16.0, 64.0, &commitments(0.9));
        assert!(!report.fits);
        assert_eq!(report.violation, Some(FitViolation::MemoryOverflow));
        // With enough memory the same set fits.
        let report = fit_mem(&load, 16.0, 128.0, &commitments(0.9));
        assert!(report.fits);
        // The single-attribute entry point ignores memory entirely.
        assert!(fit(&load, 16.0, &commitments(0.9)).fits);
    }

    #[test]
    fn workloads_without_memory_have_zero_footprint() {
        let a = constant_workload("a", 1.0, 1.0);
        let load = AggregateLoad::of(&[&a]).unwrap();
        assert_eq!(load.memory_peak(), 0.0);
        assert!(fit_mem(&load, 16.0, 0.5, &commitments(0.9)).fits);
    }

    #[test]
    fn required_capacity_with_memory_gates_on_the_memory_attribute() {
        let a = constant_workload("a", 1.0, 2.0)
            .with_memory(Trace::constant(cal(), 40.0, week()).unwrap())
            .unwrap();
        let load = AggregateLoad::of(&[&a]).unwrap();
        assert_eq!(
            required_mem(&load, &commitments(1.0), 16.0, 32.0, 0.05),
            None
        );
        let req = required_mem(&load, &commitments(1.0), 16.0, 64.0, 0.05)
            .expect("fits with enough memory");
        // Memory does not change the CPU requirement.
        assert!((req - 3.0).abs() < 0.1, "required {req}");
    }

    #[test]
    fn aggregate_is_canonical_in_member_order() {
        let a = spiky_workload("a", 0.3, 7.1, 5);
        let b = spiky_workload("b", 1.7, 3.3, 9);
        let c = spiky_workload("c", 0.9, 2.2, 3);
        let fwd = AggregateLoad::of(&[&a, &b, &c]).unwrap();
        let rev = AggregateLoad::of(&[&c, &a, &b]).unwrap();
        assert_eq!(fwd, rev);
        let names: Vec<&str> = fwd.members().iter().map(Workload::name).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn remove_then_readd_round_trips_bit_identically() {
        let a = spiky_workload("a", 0.3, 7.1, 5);
        let b = spiky_workload("b", 1.7, 3.3, 9);
        let c = spiky_workload("c", 0.9, 2.2, 3);
        let cold = AggregateLoad::of(&[&a, &b, &c]).unwrap();
        let mut load = cold.clone();
        let removed = load.remove("b").unwrap();
        assert_eq!(removed.name(), "b");
        assert_eq!(load, AggregateLoad::of(&[&a, &c]).unwrap());
        load.add(&removed).unwrap();
        assert_eq!(load, cold);
        // Bitwise, not just PartialEq: the slot sums carry no residue.
        for i in 0..load.len() {
            assert_eq!(load.total(i).to_bits(), cold.total(i).to_bits());
        }
        assert_eq!(
            load.cos1_peak_sum().to_bits(),
            cold.cos1_peak_sum().to_bits()
        );
    }

    #[test]
    fn incremental_add_matches_cold_build() {
        let a = spiky_workload("a", 0.3, 7.1, 5);
        let b = spiky_workload("b", 1.7, 3.3, 9);
        let mut load = AggregateLoad::of(&[&b]).unwrap();
        load.add(&a).unwrap();
        assert_eq!(load, AggregateLoad::of(&[&a, &b]).unwrap());
    }

    #[test]
    fn add_rejects_misaligned_remove_rejects_unknown_and_last() {
        let a = constant_workload("a", 1.0, 1.0);
        let mut load = AggregateLoad::of(&[&a]).unwrap();
        let short = Workload::new(
            "s",
            Trace::constant(cal(), 1.0, week() * 2).unwrap(),
            Trace::constant(cal(), 1.0, week() * 2).unwrap(),
        )
        .unwrap();
        assert!(matches!(
            load.add(&short),
            Err(PlacementError::MisalignedWorkloads { .. })
        ));
        assert!(load.remove("nope").is_err());
        // Removing the last member is rejected: drop the aggregate instead.
        assert!(load.remove("a").is_err());
        assert_eq!(load.members().len(), 1);
    }

    #[test]
    fn long_mutation_history_stays_bit_exact() {
        // 200 admit/depart/readmit mutations over a 12-workload pool,
        // crossing the periodic-compaction boundary several times; the
        // final state must be bit-identical to a cold build of the set.
        let pool: Vec<Workload> = (0..12)
            .map(|i| {
                spiky_workload(
                    &format!("w{i:02}"),
                    0.2 + i as f64 * 0.13,
                    3.0 + i as f64 * 0.7,
                    3 + i % 7,
                )
            })
            .collect();
        let mut load = AggregateLoad::of(&[&pool[0], &pool[1], &pool[2]]).unwrap();
        for step in 0..200 {
            let w = &pool[step % pool.len()];
            let is_member = load.members().iter().any(|m| m.name() == w.name());
            if is_member && load.members().len() > 1 {
                load.remove(w.name()).unwrap();
            } else if !is_member {
                load.add(w).unwrap();
            }
        }
        let refs: Vec<&Workload> = load.members().iter().collect();
        let names: Vec<String> = refs.iter().map(|w| w.name().to_string()).collect();
        let cold_members: Vec<&Workload> = pool
            .iter()
            .filter(|w| names.contains(&w.name().to_string()))
            .collect();
        let cold = AggregateLoad::of(&cold_members).unwrap();
        assert_eq!(load, cold);
        for i in 0..load.len() {
            assert_eq!(load.total(i).to_bits(), cold.total(i).to_bits());
        }
        assert_eq!(
            load.cos1_peak_sum().to_bits(),
            cold.cos1_peak_sum().to_bits()
        );
    }

    #[test]
    fn duplicate_names_fall_back_to_cold_rebuilds() {
        // Duplicate names have no canonical set order; the aggregate must
        // still mutate correctly via its cold-rebuild fallback.
        let a1 = spiky_workload("dup", 0.5, 2.0, 4);
        let a2 = spiky_workload("dup", 1.0, 3.0, 6);
        let b = spiky_workload("z", 0.2, 1.0, 2);
        let mut load = AggregateLoad::of(&[&a1, &a2]).unwrap();
        load.add(&b).unwrap();
        assert_eq!(load.members().len(), 3);
        let removed = load.remove("dup").unwrap();
        assert_eq!(removed.name(), "dup");
        assert_eq!(load.members().len(), 2);
        assert!(load.total_peak() > 0.0);
    }

    #[test]
    fn pooled_aggregates_recycle_their_buffers() {
        let a = spiky_workload("a", 0.3, 7.1, 5);
        let b = spiky_workload("b", 1.7, 3.3, 9);
        let mut arena = SlotArena::new();
        let pooled = AggregateLoad::of_pooled(&[&a, &b], &mut arena).unwrap();
        assert_eq!(pooled, AggregateLoad::of(&[&a, &b]).unwrap());
        pooled.recycle(&mut arena);
        let before = arena.pooled();
        assert!(before > 0);
        // A second pooled build reuses the returned buffers.
        let again = AggregateLoad::of_pooled(&[&a, &b], &mut arena).unwrap();
        again.recycle(&mut arena);
        assert_eq!(arena.pooled(), before);
    }

    #[test]
    fn aggregate_rejects_empty_set() {
        assert!(matches!(
            AggregateLoad::of(&[]),
            Err(PlacementError::NoWorkloads)
        ));
    }
}
