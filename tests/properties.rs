//! Property-based tests over the core R-Opus invariants.
//!
//! These use an hourly calendar (24 slots/day, 168/week) so each generated
//! trace stays small while still exercising the weekly θ machinery.

use proptest::prelude::*;
use ropus_obs::ObsCtx;

use ropus::case_study::{translate_fleet_threaded, CaseConfig};
use ropus::prelude::*;
use ropus_placement::failure::{
    analyze_multi_failures, single_failure_sweep, MultiFailureAnalysis,
};
use ropus_placement::server::Pool;
use ropus_placement::simulator::{
    access_probability, deadline_satisfied, AggregateLoad, Backlog, FitOptions, FitRequest,
};
use ropus_placement::workload::Workload;
use ropus_placement::PlacementError;
use ropus_qos::portfolio::{breakpoint, split_demand, worst_case_utilization};
use ropus_qos::translation::translate;
use ropus_trace::gen::AppWorkload;
use ropus_trace::{kernels, stats};

fn hourly() -> Calendar {
    Calendar::new(60).unwrap()
}

/// A week of non-negative hourly demand samples.
fn demand_week() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..20.0, 168)
}

/// Slack below which deferred demand counts as served, in both the fit
/// simulator and the chaos replay.
const BACKLOG_EPSILON: f64 = 1e-9;

/// The fit simulator's deadline check as it stood before [`Backlog`]: a
/// FIFO of `(arrival, amount)` drained oldest first from each slot's
/// surplus, failing as soon as the oldest entry reaches its deadline.
fn reference_deadline_satisfied(totals: &[f64], capacity: f64, deadline_slots: usize) -> bool {
    let mut backlog: std::collections::VecDeque<(usize, f64)> = Default::default();
    for (slot, &total) in totals.iter().enumerate() {
        if total > capacity {
            backlog.push_back((slot, total - capacity));
        } else {
            let mut surplus = capacity - total;
            while surplus > BACKLOG_EPSILON {
                let Some(front) = backlog.front_mut() else {
                    break;
                };
                let served = front.1.min(surplus);
                front.1 -= served;
                surplus -= served;
                if front.1 <= BACKLOG_EPSILON {
                    backlog.pop_front();
                }
            }
        }
        if let Some(&(arrival, _)) = backlog.front() {
            if slot >= arrival + deadline_slots {
                return false;
            }
        }
    }
    backlog.is_empty()
}

/// `FitRequest::required_capacity` as it stood before the early-exit
/// fit check: the same bisection, driven by the full
/// `evaluate(..).fits` report at every probe.
fn reference_required_capacity(
    request: &FitRequest<'_>,
    limit: f64,
    tolerance: f64,
) -> Option<f64> {
    if !request.evaluate(limit).fits {
        return None;
    }
    let mut hi = limit;
    let mut lo = 0.0f64;
    if request.evaluate(lo.max(BACKLOG_EPSILON)).fits {
        return Some(0.0);
    }
    while hi - lo > tolerance {
        let mid = 0.5 * (hi + lo);
        if request.evaluate(mid).fits {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// A one-week CoS2 trace whose access probability at capacity `limit`
/// first dips to just under `theta` (within the fit slack), on
/// slot-of-day 0, and then falls far below it on slot-of-day `spike`.
/// Every other slot stays under a quarter of `limit`, so the carried-over
/// demand drains within three slots. Only a θ check that keeps the slack
/// in its early exit still rejects this load at `limit`.
fn near_theta_week(background: &[f64], limit: f64, theta: f64, spike: usize) -> Vec<f64> {
    let mut samples: Vec<f64> = background.iter().map(|b| b * limit / 80.0).collect();
    for day in 0..7 {
        samples[day * 24] = 0.0;
        samples[day * 24 + spike] = 0.0;
    }
    samples[0] = limit / (theta - 0.5 * BACKLOG_EPSILON);
    samples[spike] = 3.0 * limit;
    samples
}

/// The chaos replay's per-app carry-over as it stood before [`Backlog`]:
/// every slot drains leftover grant into the backlog, defers the slot's
/// shortfall, then sheds entries past their deadline. Returns the bits
/// of every amount the replay accumulated — served late, shed, and the
/// outstanding total — slot by slot.
fn reference_carry_over(slots: &[(f64, f64)], deadline_slots: usize) -> Vec<u64> {
    let mut backlog: std::collections::VecDeque<(usize, f64)> = Default::default();
    let (mut served_late, mut shed) = (0.0f64, 0.0f64);
    let mut bits = Vec::new();
    for (slot, &(leftover, shortfall)) in slots.iter().enumerate() {
        let mut leftover = leftover;
        let mut late = 0.0f64;
        while leftover > BACKLOG_EPSILON {
            let Some(front) = backlog.front_mut() else {
                break;
            };
            let take = front.1.min(leftover);
            front.1 -= take;
            late += take;
            leftover -= take;
            if front.1 <= BACKLOG_EPSILON {
                backlog.pop_front();
            }
        }
        served_late += late;
        if shortfall > BACKLOG_EPSILON {
            backlog.push_back((slot, shortfall));
        }
        let mut slot_shed = 0.0f64;
        while let Some(&(arrival, amount)) = backlog.front() {
            if slot >= arrival + deadline_slots {
                shed += amount;
                slot_shed += amount;
                backlog.pop_front();
            } else {
                break;
            }
        }
        let outstanding: f64 = backlog.iter().map(|e| e.1).sum();
        bits.extend([late, served_late, shed, slot_shed, outstanding].map(f64::to_bits));
    }
    bits
}

/// [`reference_carry_over`] driven through [`Backlog`].
fn backlog_carry_over(slots: &[(f64, f64)], deadline_slots: usize) -> Vec<u64> {
    let mut backlog = Backlog::new();
    let (mut served_late, mut shed) = (0.0f64, 0.0f64);
    let mut bits = Vec::new();
    for (slot, &(leftover, shortfall)) in slots.iter().enumerate() {
        let late = backlog.drain(leftover);
        served_late += late;
        if shortfall > BACKLOG_EPSILON {
            backlog.push(slot, shortfall);
        }
        let mut slot_shed = 0.0f64;
        while let Some(amount) = backlog.expire(slot, deadline_slots) {
            shed += amount;
            slot_shed += amount;
        }
        let outstanding = backlog.outstanding();
        bits.extend([late, served_late, shed, slot_shed, outstanding].map(f64::to_bits));
    }
    bits
}

/// A valid utilization band with visible gaps between the bounds.
fn band_strategy() -> impl Strategy<Value = UtilizationBand> {
    (0.05f64..0.7, 0.05f64..0.25)
        .prop_map(|(low, gap)| UtilizationBand::new(low, (low + gap).min(0.97)).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn breakpoint_is_a_probability_and_monotone_in_theta(
        band in band_strategy(),
        theta_lo in 0.01f64..1.0,
        delta in 0.0f64..0.5,
    ) {
        let theta_hi = (theta_lo + delta).min(1.0);
        let p_lo = breakpoint(band, &CosSpec::new(theta_lo, 60).unwrap());
        let p_hi = breakpoint(band, &CosSpec::new(theta_hi, 60).unwrap());
        prop_assert!((0.0..=1.0).contains(&p_lo));
        prop_assert!((0.0..=1.0).contains(&p_hi));
        prop_assert!(p_hi <= p_lo + 1e-12, "p({theta_hi}) = {p_hi} > p({theta_lo}) = {p_lo}");
    }

    #[test]
    fn split_reassembles_capped_demand(
        demand in 0.0f64..50.0,
        p in 0.0f64..=1.0,
        cap in 0.0f64..30.0,
    ) {
        let split = split_demand(demand, p, cap);
        prop_assert!(split.cos1 >= 0.0 && split.cos2 >= 0.0);
        prop_assert!((split.total() - demand.min(cap)).abs() < 1e-9);
        prop_assert!(split.cos1 <= p * cap + 1e-9);
    }

    #[test]
    fn worst_case_utilization_never_exceeds_u_degr_after_translation(
        samples in demand_week(),
        theta in 0.05f64..=1.0,
        t_degr in prop::option::of(1u32..240),
    ) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let qos = AppQos::new(
            UtilizationBand::new(0.5, 0.66).unwrap(),
            Some(DegradationSpec::new(0.03, 0.9, t_degr).unwrap()),
        );
        let cos2 = CosSpec::new(theta, 60).unwrap();
        let t = translate(&trace, &qos, &cos2, ObsCtx::none()).unwrap();
        prop_assert!(t.report.max_worst_case_utilization <= 0.9 + 1e-9);
        prop_assert!(t.report.degraded_fraction <= 0.03 + 1e-9);
        prop_assert!(t.report.d_new_max <= t.report.d_max + 1e-9);
        prop_assert!(t.report.max_cap_reduction >= -1e-12);
        prop_assert!(t.report.max_cap_reduction <= 1.0 - 0.66 / 0.9 + 1e-9);
    }

    #[test]
    fn time_limit_only_raises_the_cap(
        samples in demand_week(),
        theta in 0.05f64..=1.0,
    ) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let cos2 = CosSpec::new(theta, 60).unwrap();
        let free = AppQos::new(
            UtilizationBand::new(0.5, 0.66).unwrap(),
            Some(DegradationSpec::new(0.03, 0.9, None).unwrap()),
        );
        let limited = AppQos::new(
            UtilizationBand::new(0.5, 0.66).unwrap(),
            Some(DegradationSpec::new(0.03, 0.9, Some(120)).unwrap()),
        );
        let t_free = translate(&trace, &free, &cos2, ObsCtx::none()).unwrap();
        let t_limited = translate(&trace, &limited, &cos2, ObsCtx::none()).unwrap();
        prop_assert!(t_limited.report.d_new_max >= t_free.report.d_new_max - 1e-9);
        prop_assert_eq!(
            t_free.report.d_new_max_before_time_limit,
            t_limited.report.d_new_max_before_time_limit
        );
    }

    #[test]
    fn translation_respects_u_low_below_breakpoint_share(
        samples in demand_week(),
        theta in 0.05f64..=1.0,
    ) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let band = UtilizationBand::new(0.5, 0.66).unwrap();
        let qos = AppQos::strict(band);
        let cos2 = CosSpec::new(theta, 60).unwrap();
        let t = translate(&trace, &qos, &cos2, ObsCtx::none()).unwrap();
        // Strict QoS: cap = D_max, so every observation's worst-case
        // utilization is at most U_high.
        for &d in trace.samples() {
            let u = worst_case_utilization(d, band, &cos2, t.report.d_new_max);
            if t.report.d_max > 0.0 {
                prop_assert!(u <= band.high() + 1e-9, "u = {u} for d = {d}");
            }
        }
    }

    #[test]
    fn access_probability_is_monotone_in_capacity(
        samples in demand_week(),
        cap_lo in 0.5f64..10.0,
        extra in 0.0f64..10.0,
    ) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let zero = Trace::constant(hourly(), 0.0, 168).unwrap();
        let w = Workload::new("w", zero, trace).unwrap();
        let load = AggregateLoad::of(&[&w]).unwrap();
        let lo = access_probability(&load, cap_lo);
        let hi = access_probability(&load, cap_lo + extra);
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!(hi >= lo - 1e-12);
    }

    #[test]
    fn required_capacity_is_minimal_and_sufficient(
        samples in demand_week(),
        theta in 0.5f64..=1.0,
    ) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let zero = Trace::constant(hourly(), 0.0, 168).unwrap();
        let w = Workload::new("w", zero, trace).unwrap();
        let load = AggregateLoad::of(&[&w]).unwrap();
        let commitments = PoolCommitments::new(CosSpec::new(theta, 60).unwrap());
        let limit = load.total_peak().max(1.0) + 1.0;
        let request = FitRequest::new(&load, &commitments)
            .with_options(FitOptions::new().with_tolerance(0.01));
        if let Some(req) = request.required_capacity(limit) {
            prop_assert!(request.evaluate(req).fits);
            if req > 0.05 {
                prop_assert!(
                    !request.evaluate(req - 0.05).fits,
                    "required {req} is not minimal"
                );
            }
        } else {
            // Must genuinely not fit at the limit.
            prop_assert!(!request.evaluate(limit).fits);
        }
    }

    #[test]
    fn epoch_budget_never_lowers_the_cap_and_meets_the_budget(
        samples in demand_week(),
        theta in 0.05f64..=1.0,
        budget in 1u32..6,
    ) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let cos2 = CosSpec::new(theta, 60).unwrap();
        let free = AppQos::new(
            UtilizationBand::new(0.5, 0.66).unwrap(),
            Some(DegradationSpec::new(0.03, 0.9, None).unwrap()),
        );
        let budgeted = AppQos::new(
            UtilizationBand::new(0.5, 0.66).unwrap(),
            Some(
                DegradationSpec::new(0.03, 0.9, None)
                    .unwrap()
                    .with_epoch_budget(budget)
                    .unwrap(),
            ),
        );
        let t_free = translate(&trace, &free, &cos2, ObsCtx::none()).unwrap();
        let t_budgeted = translate(&trace, &budgeted, &cos2, ObsCtx::none()).unwrap();
        prop_assert!(t_budgeted.report.d_new_max >= t_free.report.d_new_max - 1e-9);
        prop_assert!(
            t_budgeted.report.max_degraded_epochs_per_week <= budget as usize,
            "epochs {} > budget {budget}",
            t_budgeted.report.max_degraded_epochs_per_week
        );
        // All other guarantees survive the extra constraint.
        prop_assert!(t_budgeted.report.degraded_fraction <= 0.03 + 1e-9);
        prop_assert!(t_budgeted.report.max_worst_case_utilization <= 0.9 + 1e-9);
    }

    #[test]
    fn memory_attribute_only_ever_shrinks_feasibility(
        samples in demand_week(),
        memory_gb in 1.0f64..100.0,
        capacity in 8.0f64..64.0,
    ) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let zero = Trace::constant(hourly(), 0.0, 168).unwrap();
        let memory = Trace::constant(hourly(), memory_gb, 168).unwrap();
        let plain = Workload::new("w", zero.clone(), trace.clone()).unwrap();
        let with_memory =
            Workload::new("w", zero, trace).unwrap().with_memory(memory).unwrap();
        let commitments = PoolCommitments::new(CosSpec::new(0.9, 60).unwrap());
        let plain_load = AggregateLoad::of(&[&plain]).unwrap();
        let mem_load = AggregateLoad::of(&[&with_memory]).unwrap();
        let plain_fits = FitRequest::new(&plain_load, &commitments)
            .evaluate(capacity)
            .fits;
        let mem_fits = FitRequest::new(&mem_load, &commitments)
            .with_options(FitOptions::new().with_memory_capacity(64.0))
            .evaluate(capacity)
            .fits;
        // Adding a memory requirement can only remove feasibility.
        if mem_fits {
            prop_assert!(plain_fits);
        }
        // And it is exactly the peak test.
        prop_assert_eq!(mem_fits, plain_fits && memory_gb <= 64.0 + 1e-9);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded(
        samples in proptest::collection::vec(0.0f64..100.0, 1..300),
        q1 in 0.0f64..=100.0,
        dq in 0.0f64..=50.0,
    ) {
        let q2 = (q1 + dq).min(100.0);
        let p1 = ropus_trace::stats::percentile(&samples, q1);
        let p2 = ropus_trace::stats::percentile(&samples, q2);
        prop_assert!(p1 <= p2 + 1e-12);
        let max = samples.iter().copied().fold(f64::MIN, f64::max);
        let min = samples.iter().copied().fold(f64::MAX, f64::min);
        prop_assert!(p1 >= min - 1e-12 && p1 <= max + 1e-12);
    }

    #[test]
    fn multi_failure_unsupported_fraction_is_monotone_in_k(
        levels in proptest::collection::vec(0.5f64..6.0, 6),
        seed in 0u64..1000,
    ) {
        // Six constant 7-CPU workloads force exactly two per 16-way in
        // normal mode (three at 21 CPUs breaks θ = 0.9); the failure-mode
        // sizes are drawn per app, so whether the survivors can absorb
        // k simultaneous failures varies case to case.
        let week = hourly().slots_per_week();
        let zero = Trace::constant(hourly(), 0.0, week).unwrap();
        let constant = |level: f64| Trace::constant(hourly(), level, week).unwrap();
        let normal: Vec<Workload> = (0..6)
            .map(|i| Workload::new(format!("w{i}"), zero.clone(), constant(7.0)).unwrap())
            .collect();
        let failure: Vec<Workload> = levels
            .iter()
            .enumerate()
            .map(|(i, &f)| Workload::new(format!("w{i}"), zero.clone(), constant(f)).unwrap())
            .collect();
        let commitments = PoolCommitments::new(CosSpec::new(0.9, 60).unwrap());
        let c = Consolidator::new(
            ServerSpec::sixteen_way(),
            commitments,
            ConsolidationOptions::fast(seed),
        );
        let report = c.consolidate(&normal, ObsCtx::none()).unwrap();
        prop_assert_eq!(report.servers_used, 3);

        let sweep = |k: usize| -> Result<MultiFailureAnalysis, PlacementError> {
            analyze_multi_failures(
                &c,
                &report,
                &normal,
                &failure,
                FailureScope::AllApplications,
                k,
            )
        };
        let one = sweep(1).unwrap();
        let two = sweep(2).unwrap();
        // The unsupported *fraction* never shrinks as failures compound;
        // cross-multiplied so no float division is involved.
        prop_assert!(
            two.unsupported_count() * one.cases.len()
                >= one.unsupported_count() * two.cases.len(),
            "fraction dropped: {}/{} at k=1 vs {}/{} at k=2",
            one.unsupported_count(),
            one.cases.len(),
            two.unsupported_count(),
            two.cases.len()
        );
        if one.unsupported_count() > 0 {
            prop_assert!(two.unsupported_count() > 0);
        }

        // Degenerate sweeps (no failures, or nothing left standing) are
        // rejected up front rather than reported as an empty analysis.
        for k in [0, report.servers_used, report.servers_used + 1] {
            let err = sweep(k).unwrap_err();
            prop_assert!(matches!(err, PlacementError::InvalidServer { .. }), "k = {}", k);
        }
    }

    /// Every element-wise columnar kernel is *bitwise* equal to the
    /// obvious scalar loop it replaced — not approximately, since chunked
    /// independent elements never reassociate anything.
    #[test]
    fn elementwise_kernels_are_bit_identical_to_scalar_loops(
        pairs in proptest::collection::vec((0.0f64..50.0, 0.0f64..50.0), 0..200),
        cap in 0.0f64..30.0,
        factor in 0.0f64..2.0,
        p in 0.0f64..=1.0,
    ) {
        let (a, b): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();

        let mut acc = a.clone();
        kernels::add_assign(&mut acc, &b);
        for ((&x, &y), &got) in a.iter().zip(&b).zip(&acc) {
            prop_assert_eq!((x + y).to_bits(), got.to_bits());
        }

        let mut out = Vec::new();
        kernels::sub_saturating_into(&mut out, &a, &b);
        for ((&x, &y), &got) in a.iter().zip(&b).zip(&out) {
            prop_assert_eq!((x - y).max(0.0).to_bits(), got.to_bits());
        }

        kernels::cap_scale_into(&mut out, &a, cap, factor);
        for (&x, &got) in a.iter().zip(&out) {
            prop_assert_eq!((x.min(cap) * factor).to_bits(), got.to_bits());
        }

        // The fused CoS split reproduces per-sample `split_demand` exactly.
        let mut cos1 = Vec::new();
        let mut cos2 = Vec::new();
        kernels::split_cos_into(&a, p, cap, factor, &mut cos1, &mut cos2);
        for ((&d, &c1), &c2) in a.iter().zip(&cos1).zip(&cos2) {
            let split = split_demand(d, p, cap);
            prop_assert_eq!((split.cos1 * factor).to_bits(), c1.to_bits());
            prop_assert_eq!((split.cos2 * factor).to_bits(), c2.to_bits());
        }
    }

    /// The `Backlog`-based deadline check and carry-over reproduce the
    /// loops they replaced bit for bit, over random totals, capacities,
    /// grants, shortfalls and deadlines from 0 to 24 slots.
    #[test]
    fn backlog_matches_the_replaced_deadline_and_carry_over_loops(
        totals in demand_week(),
        capacity in 2.0f64..20.0,
        deadline in 0usize..=24,
        slots in proptest::collection::vec((0.0f64..6.0, 0.0f64..4.0, 0u8..4), 1..120),
    ) {
        let zeros = Trace::constant(hourly(), 0.0, 168).unwrap();
        let workload =
            Workload::new("w", zeros, Trace::from_samples(hourly(), totals.clone()).unwrap())
                .unwrap();
        let load = AggregateLoad::of(&[&workload]).unwrap();
        prop_assert_eq!(
            deadline_satisfied(&load, capacity, deadline),
            reference_deadline_satisfied(&totals, capacity, deadline)
        );
        // Zero out some grants and shortfalls so idle slots, pure drains
        // and pure deferrals all occur.
        let slots: Vec<(f64, f64)> = slots
            .iter()
            .map(|&(grant, short, mode)| match mode {
                0 => (0.0, short),
                1 => (grant, 0.0),
                _ => (grant, short),
            })
            .collect();
        prop_assert_eq!(
            backlog_carry_over(&slots, deadline),
            reference_carry_over(&slots, deadline)
        );
    }

    /// The early-exit `required_capacity` (stop at the first failed
    /// constraint, cut the θ scan once its running minimum fails)
    /// returns the same `Option<f64>`, bit for bit, as the bisection over
    /// full `evaluate` reports, for random loads with and without memory,
    /// θ from 0.5 to 1.0, deadlines from 0 to 24 slots, and limits near
    /// the answer. Half the cases place a slot-of-day whose ratio sits
    /// inside the θ slack ahead of a far lower one, at the limit itself.
    #[test]
    fn early_exit_required_capacity_matches_full_evaluation(
        loads in proptest::collection::vec(
            (demand_week(), 0.0f64..3.0, proptest::option::of(1.0f64..48.0)),
            1..4,
        ),
        theta in 0.5f64..=1.0,
        deadline in 0u32..=24,
        memory_limit in 8.0f64..96.0,
        coarse in 0u8..2,
        offset in -0.5f64..0.5,
        edge in (0u8..2, 2.0f64..16.0, 1usize..24),
    ) {
        let near_theta = (edge.0 == 1).then_some((edge.1, edge.2));
        let commitments = PoolCommitments::new(CosSpec::new(theta, deadline * 60).unwrap());
        let tolerance = if coarse == 1 { 0.05 } else { 0.01 };
        let workloads: Vec<Workload> = loads
            .iter()
            .enumerate()
            .map(|(i, (cos2, cos1, memory))| {
                let cos2 = match near_theta {
                    Some((limit, spike)) if i == 0 => near_theta_week(cos2, limit, theta, spike),
                    _ => cos2.clone(),
                };
                let cos1 = if near_theta.is_some() { 0.0 } else { *cos1 };
                let w = Workload::new(
                    format!("w{i}"),
                    Trace::constant(hourly(), cos1, 168).unwrap(),
                    Trace::from_samples(hourly(), cos2).unwrap(),
                )
                .unwrap();
                match memory {
                    Some(gb) => w.with_memory(Trace::constant(hourly(), *gb, 168).unwrap()).unwrap(),
                    None => w,
                }
            })
            .collect();
        let workloads = match near_theta {
            Some(_) => workloads[..1].to_vec(),
            None => workloads,
        };
        let refs: Vec<&Workload> = workloads.iter().collect();
        let load = AggregateLoad::of(&refs).unwrap();
        let request = FitRequest::new(&load, &commitments).with_options(
            FitOptions::new()
                .with_memory_capacity(memory_limit)
                .with_tolerance(tolerance),
        );
        let generous = load.total_peak().max(1.0) + 1.0;
        let mut limits = vec![generous];
        if let Some(answer) = reference_required_capacity(&request, generous, tolerance) {
            limits.push((answer + offset).max(0.01));
            limits.push((answer + 0.5 * tolerance).max(0.01));
        }
        if let Some((limit, _)) = near_theta {
            limits.push(limit);
        }
        for limit in limits {
            prop_assert_eq!(
                request.required_capacity(limit).map(f64::to_bits),
                reference_required_capacity(&request, limit, tolerance).map(f64::to_bits),
                "limit {}", limit
            );
        }
    }

    /// Fleet aggregation agrees bitwise between the `add_assign` column
    /// accumulation and the scalar per-slot sum, and quickselect
    /// percentiles match the sorted-cache path.
    #[test]
    fn fleet_aggregation_and_percentiles_match_scalar_references(
        fleet in proptest::collection::vec(proptest::collection::vec(0.0f64..20.0, 168), 1..6),
        q in 0.0f64..=100.0,
    ) {
        let traces: Vec<Trace> = fleet
            .iter()
            .map(|s| Trace::from_samples(hourly(), s.clone()).unwrap())
            .collect();
        let mut columnar = vec![0.0; 168];
        for column in &fleet {
            kernels::add_assign(&mut columnar, column);
        }
        for slot in 0..168 {
            let mut scalar = 0.0;
            for column in &fleet {
                scalar += column[slot];
            }
            prop_assert_eq!(scalar.to_bits(), columnar[slot].to_bits());
        }

        // Quickselect, one-shot sort, and the per-trace sorted cache all
        // return the same order statistic, bit for bit.
        let mut scratch = Vec::new();
        for (trace, column) in traces.iter().zip(&fleet) {
            let select = kernels::percentile_upper_select(column, q, &mut scratch);
            prop_assert_eq!(select.to_bits(), stats::percentile_upper(column, q).to_bits());
            prop_assert_eq!(select.to_bits(), trace.percentile_upper(q).to_bits());
        }
    }

    /// The threaded fleet translation (the 10k-plan entry point) is a pure
    /// function of the fleet: 1 worker and 4 workers produce bit-identical
    /// reports and workload columns for arbitrary demand traces.
    #[test]
    fn threaded_translation_matches_serial_on_arbitrary_fleets(
        fleet in proptest::collection::vec(proptest::collection::vec(0.0f64..20.0, 168), 1..6),
    ) {
        let apps: Vec<AppWorkload> = fleet
            .into_iter()
            .enumerate()
            .map(|(i, samples)| AppWorkload {
                name: format!("app-{i}"),
                trace: Trace::from_samples(hourly(), samples).unwrap(),
            })
            .collect();
        let case = CaseConfig::table1()[2];
        let serial = translate_fleet_threaded(&apps, &case, 1).unwrap();
        let threaded = translate_fleet_threaded(&apps, &case, 4).unwrap();
        prop_assert_eq!(&serial, &threaded);
        for (s, t) in serial.iter().zip(&threaded) {
            for (a, b) in s
                .workload
                .cos1()
                .samples()
                .iter()
                .zip(t.workload.cos1().samples())
            {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in s
                .workload
                .cos2()
                .samples()
                .iter()
                .zip(t.workload.cos2().samples())
            {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn fleet_savings_aggregate_is_bounded_by_components(
        samples in demand_week(),
    ) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let qos = AppQos::paper_default(None);
        let cos2 = CosSpec::new(0.9, 60).unwrap();
        let r = translate(&trace, &qos, &cos2, ObsCtx::none()).unwrap().report;
        let agg = ropus_qos::analysis::FleetSavings::aggregate(&[r, r]);
        prop_assert!((agg.total_peak_allocation - 2.0 * r.peak_allocation).abs() < 1e-9);
        prop_assert!(agg.max_cap_reduction >= agg.mean_cap_reduction - 1e-12);
    }
}

/// The pre-dedupe failure sweep, kept as the differential oracle: one
/// serial `consolidate_onto` per combination of `k` failed used servers.
fn naive_sweep(
    consolidator: &Consolidator,
    report: &ropus_placement::consolidate::PlacementReport,
    normal: &[Workload],
    failure: &[Workload],
    scope: FailureScope,
    k: usize,
) -> Vec<(
    Vec<usize>,
    Vec<usize>,
    Option<ropus_placement::consolidate::PlacementReport>,
)> {
    fn combos(n: usize, k: usize, start: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            combos(n, k, i + 1, cur, out);
            cur.pop();
        }
    }
    let mut all = Vec::new();
    combos(report.servers.len(), k, 0, &mut Vec::new(), &mut all);
    all.into_iter()
        .map(|combo| {
            let failed: Vec<usize> = combo.iter().map(|&i| report.servers[i].server).collect();
            let affected: Vec<usize> = combo
                .iter()
                .flat_map(|&i| report.servers[i].workloads.iter().copied())
                .collect();
            let mixed: Vec<Workload> = (0..normal.len())
                .map(|i| match scope {
                    FailureScope::AllApplications => failure[i].clone(),
                    FailureScope::AffectedOnly if affected.contains(&i) => failure[i].clone(),
                    FailureScope::AffectedOnly => normal[i].clone(),
                })
                .collect();
            let placement = if report.servers_used <= k {
                None
            } else {
                let pool = Pool::homogeneous(consolidator.server(), report.servers_used - k);
                consolidator
                    .consolidate_onto(&mixed, pool, ObsCtx::none())
                    .ok()
            };
            (failed, affected, placement)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Solving each distinct re-consolidation once returns exactly what
    /// the per-case loop returns (reports compare without engine stats),
    /// for single and double failures, both scopes, 1 and 4 threads, on
    /// fleets where a random subset of apps has a changed failure-mode
    /// workload — and a random subset of the rest an unchanged copy that
    /// is bit-identical, or differs only in the sign of a zero.
    #[test]
    fn deduped_failure_sweep_matches_the_per_case_loop(
        apps in proptest::collection::vec((2.0f64..9.0, 0u8..4, 0.2f64..0.9), 4..9),
        seed in 0u64..1000,
    ) {
        let week = hourly().slots_per_week();
        let constant = |level: f64| Trace::constant(hourly(), level, week).unwrap();
        let normal: Vec<Workload> = apps
            .iter()
            .enumerate()
            .map(|(i, &(level, _, _))| Workload::new(format!("w{i}"), constant(0.0), constant(level)).unwrap())
            .collect();
        // Kind 0: a clone; 1: a rebuilt bit-identical copy; 2: a changed
        // (smaller) workload; 3: CoS1 of -0.0 instead of 0.0.
        let failure: Vec<Workload> = apps
            .iter()
            .enumerate()
            .map(|(i, &(level, kind, factor))| match kind {
                0 => normal[i].clone(),
                1 => Workload::new(format!("w{i}"), constant(0.0), constant(level)).unwrap(),
                2 => Workload::new(format!("w{i}"), constant(0.0), constant(level * factor)).unwrap(),
                _ => Workload::new(format!("w{i}"), constant(-0.0), constant(level)).unwrap(),
            })
            .collect();
        let commitments = PoolCommitments::new(CosSpec::new(0.9, 60).unwrap());
        let consolidator = |threads: usize| {
            Consolidator::new(
                ServerSpec::sixteen_way(),
                commitments,
                ConsolidationOptions::fast(seed).with_threads(threads),
            )
        };
        let serial = consolidator(1);
        let report = serial.consolidate(&normal, ObsCtx::none()).unwrap();
        for scope in [FailureScope::AffectedOnly, FailureScope::AllApplications] {
            let oracle = naive_sweep(&serial, &report, &normal, &failure, scope, 1);
            let mut solves = Vec::new();
            for threads in [1, 4] {
                let (single, n) =
                    single_failure_sweep(&consolidator(threads), &report, &normal, &failure, scope)
                        .unwrap();
                solves.push(n);
                prop_assert_eq!(single.cases.len(), oracle.len());
                for (case, (failed, affected, placement)) in single.cases.iter().zip(&oracle) {
                    prop_assert_eq!(vec![case.failed_server], failed.clone());
                    prop_assert_eq!(&case.affected, affected);
                    prop_assert_eq!(&case.placement, placement);
                }
                prop_assert!(n <= single.cases.len());
                if scope == FailureScope::AllApplications && report.servers_used > 1 {
                    prop_assert_eq!(n, 1);
                }
            }
            prop_assert_eq!(solves[0], solves[1]);

            if report.servers_used > 2 {
                let oracle = naive_sweep(&serial, &report, &normal, &failure, scope, 2);
                for threads in [1, 4] {
                    let double = analyze_multi_failures(
                        &consolidator(threads), &report, &normal, &failure, scope, 2,
                    )
                    .unwrap();
                    prop_assert_eq!(double.cases.len(), oracle.len());
                    for (case, (failed, affected, placement)) in double.cases.iter().zip(&oracle) {
                        prop_assert_eq!(&case.failed_servers, failed);
                        prop_assert_eq!(&case.affected, affected);
                        prop_assert_eq!(&case.placement, placement);
                    }
                }
            }
        }
    }
}
