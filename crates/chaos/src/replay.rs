//! The degraded-mode replay engine.
//!
//! [`replay`] walks a fleet's demand traces slot by slot over a
//! [`FailureSchedule`], re-placing displaced applications onto the
//! surviving servers at every change of the failed-server set and
//! emulating each server's two-priority scheduler (CoS1 granted first,
//! CoS2 shares the remainder proportionally). Unserved demand is either
//! shed immediately or carried over as deferred CoS2 work with a
//! deadline, per the [`DegradationPolicy`].
//!
//! The replay runs in four stages: validate the inputs, fix every
//! segment's execution plan (`segment_plans`), step the slots, and
//! assemble the report. The slot loop is a driver of the shared slot
//! rules: managers replay through [`replay_requests`], each server's
//! scales come from [`grant_scales`], and carry-over lives in a
//! [`Backlog`] per application.
//!
//! # Determinism
//!
//! The replay is a pure function of its inputs. Re-placements go through
//! the failure sweep's
//! [`solve_replacements`](ropus_placement::failure::solve_replacements()):
//! each distinct re-consolidation problem among the failed-server sets is
//! solved once, on the order-preserving worker pool when the consolidator
//! has more than one thread, with each inner search single-threaded, so
//! results are bit-identical across `--threads` settings. The slot loop
//! itself is serial.

use ropus_obs::{BurnRateRule, ObsCtx, SloEngine};
use ropus_placement::consolidate::{Consolidator, PlacementReport};
use ropus_placement::failure::{solve_replacements, FailureScope, Replacement};
use ropus_placement::migration::{
    MigrationConfig, MigrationOrchestrator, MigrationPhase, Transition,
};
use ropus_placement::simulator::Backlog;
use ropus_placement::workload::Workload;
use ropus_qos::AppQos;
use ropus_trace::{Calendar, Trace, TraceError};
use ropus_wlm::host::grant_scales;
use ropus_wlm::manager::{replay_requests, WlmPolicy};
use ropus_wlm::metrics::{audit, slo_contract};
use ropus_wlm::WlmError;

use crate::error::ChaosError;
use crate::report::{AppChaosOutcome, ChaosReport, DegradedWindow};
use crate::schedule::{FailureSchedule, Segment};

/// Amounts below this are treated as fully served/drained.
const EPSILON: f64 = 1e-9;

/// Everything the replay needs to know about one application.
#[derive(Debug, Clone)]
pub struct ChaosApp {
    /// Application name (report key).
    pub name: String,
    /// Raw demand trace.
    pub demand: Trace,
    /// Manager policy derived from the normal-mode translation.
    pub normal_policy: WlmPolicy,
    /// Manager policy derived from the failure-mode translation.
    pub failure_policy: WlmPolicy,
    /// Normal-mode QoS contract (audited outside degraded windows).
    pub normal_qos: AppQos,
    /// Failure-mode QoS contract (audited inside degraded windows).
    pub failure_qos: AppQos,
    /// Normal-mode workload (drives placement when the app keeps its
    /// normal contract during an outage).
    pub normal_workload: Workload,
    /// Failure-mode workload (drives placement when the app is relaxed
    /// to its failure contract).
    pub failure_workload: Workload,
}

/// What happens to demand the survivors cannot absorb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Defer unserved demand as CoS2 carry-over work instead of shedding
    /// it immediately.
    pub carry_over: bool,
    /// Slots deferred demand may wait before it is shed. `None` uses the
    /// pool's CoS2 carry-forward deadline `s` from its commitments.
    pub deadline_slots: Option<usize>,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            carry_over: true,
            deadline_slots: None,
        }
    }
}

impl DegradationPolicy {
    /// Sheds unserved demand immediately instead of deferring it.
    pub fn shed_immediately() -> Self {
        DegradationPolicy {
            carry_over: false,
            deadline_slots: Some(0),
        }
    }
}

/// Knobs of a chaos replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOptions {
    /// Which applications relax to failure-mode QoS during an outage.
    pub scope: FailureScope,
    /// Graceful-degradation policy for demand the survivors cannot
    /// absorb.
    pub degradation: DegradationPolicy,
    /// Migration lifecycle model. `None` teleports workloads between
    /// servers at segment boundaries (the historical behavior);
    /// `Some(config)` drives every re-placement through the
    /// [`MigrationOrchestrator`] state machine — with
    /// [`MigrationConfig::teleport`] the replay is bit-identical to
    /// `None` except for the extra [`MigrationReport`] in the output.
    ///
    /// [`MigrationReport`]: ropus_placement::migration::MigrationReport
    pub migration: Option<MigrationConfig>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            scope: FailureScope::AffectedOnly,
            degradation: DegradationPolicy::default(),
            migration: None,
        }
    }
}

impl ReplayOptions {
    /// Sets the failure scope.
    pub fn with_scope(mut self, scope: FailureScope) -> Self {
        self.scope = scope;
        self
    }

    /// Sets the graceful-degradation policy.
    pub fn with_degradation(mut self, degradation: DegradationPolicy) -> Self {
        self.degradation = degradation;
        self
    }

    /// Routes re-placements through the migration state machine.
    pub fn with_migration(mut self, migration: MigrationConfig) -> Self {
        self.migration = Some(migration);
        self
    }
}

/// Per-segment execution plan: where every app runs and under which
/// contract.
#[derive(Debug, Clone)]
struct SegmentPlan {
    /// App → physical server (`None` = nowhere to run, blackout).
    assignment: Vec<Option<usize>>,
    /// App → whether it runs under its failure-mode policy/contract.
    use_failure: Vec<bool>,
    /// Apps displaced from a failed server (relative to normal mode).
    affected: Vec<usize>,
    /// Whether the consolidator found this placement (vs. best-effort).
    feasible: bool,
    /// Whether some server is down.
    degraded: bool,
}

/// Replays the fleet's demand over `schedule`, starting from
/// `normal_placement`.
///
/// `consolidator` supplies the server type, pool commitments, and search
/// options used to re-place displaced workloads onto survivors; its
/// thread count also parallelizes the per-failed-set placements.
///
/// When `obs` carries an enabled handle the replay emits
/// `chaos.segment.replan` events as each degraded segment's execution
/// plan is fixed, `chaos.window.recovery` events when the per-window
/// metrics are assembled, and counters for shed / carried / contended
/// slots plus `chaos.replay.infeasible_segments` — degraded segments
/// whose re-placement fell back to best-effort packing, an outcome
/// previous versions dropped silently. All spans and events come from
/// the serial slot loop, so the collector's report is bit-identical
/// across `--threads` settings when timings are suppressed.
///
/// # Errors
///
/// Returns [`ChaosError::NoApplications`] for an empty fleet,
/// [`ChaosError::UnknownServer`] when an event names a server the normal
/// placement does not use, [`ChaosError::Wlm`] for a degenerate server
/// capacity, and [`ChaosError::Trace`] for demand traces on different
/// calendars ([`TraceError::CalendarMismatch`]) or of different lengths
/// ([`TraceError::Misaligned`]).
pub fn replay(
    consolidator: &Consolidator,
    normal_placement: &PlacementReport,
    apps: &[ChaosApp],
    schedule: &FailureSchedule,
    options: &ReplayOptions,
    obs: ObsCtx<'_>,
) -> Result<ChaosReport, ChaosError> {
    let setup = validate(consolidator, normal_placement, apps, schedule, options)?;
    let segments = schedule.segments(setup.horizon);
    let plans = {
        let _span = obs.span("chaos.replay.plan_segments");
        segment_plans(
            consolidator,
            normal_placement,
            apps,
            &segments,
            options,
            obs,
        )?
    };
    let infeasible = plans.iter().filter(|p| p.degraded && !p.feasible).count();
    obs.counter("chaos.replay.infeasible_segments", infeasible as u64);

    let window_ranges = degraded_windows(&segments);
    let mut slots = SlotLoop::new(&setup, normal_placement, apps, options, &window_ranges);
    {
        let _span = obs.span("chaos.replay.slots");
        for (k, seg) in segments.iter().enumerate() {
            slots.run_segment(k, seg, &plans, obs);
        }
    }
    slots.into_report(&setup, normal_placement, options, &segments, &plans, obs)
}

/// Replay-wide constants fixed by validation.
struct Setup {
    calendar: Calendar,
    horizon: usize,
    /// One past the largest server id of the normal placement.
    id_cap: usize,
    capacity: f64,
    deadline_slots: usize,
    carry_over: bool,
}

/// Checks the replay's inputs and derives its constants.
fn validate(
    consolidator: &Consolidator,
    normal_placement: &PlacementReport,
    apps: &[ChaosApp],
    schedule: &FailureSchedule,
    options: &ReplayOptions,
) -> Result<Setup, ChaosError> {
    let first = apps.first().ok_or(ChaosError::NoApplications)?;
    let capacity = consolidator.server().capacity();
    if !capacity.is_finite() || capacity <= 0.0 {
        return Err(ChaosError::Wlm(WlmError::InvalidCapacity { capacity }));
    }
    for app in apps {
        first.demand.check_aligned(&app.demand)?;
    }
    if normal_placement.assignment.len() != apps.len() {
        return Err(ChaosError::Trace(TraceError::Misaligned {
            left: apps.len(),
            right: normal_placement.assignment.len(),
        }));
    }
    let pool_ids: Vec<usize> = normal_placement.servers.iter().map(|s| s.server).collect();
    for e in schedule.events() {
        if !pool_ids.contains(&e.server) {
            return Err(ChaosError::UnknownServer {
                server: e.server,
                pool: pool_ids.len(),
            });
        }
    }
    let calendar = first.demand.calendar();
    let deadline_slots = match options.degradation.deadline_slots {
        Some(s) => s,
        None => calendar.slots_in_minutes(consolidator.commitments().cos2.deadline_minutes()),
    };
    Ok(Setup {
        calendar,
        horizon: first.demand.len(),
        id_cap: pool_ids.iter().max().map_or(0, |m| m + 1),
        capacity,
        deadline_slots,
        carry_over: options.degradation.carry_over && deadline_slots > 0,
    })
}

/// Windows: maximal runs of degraded segments, as inclusive segment index
/// ranges.
fn degraded_windows(segments: &[Segment]) -> Vec<(usize, usize)> {
    let mut window_ranges: Vec<(usize, usize)> = Vec::new();
    for (k, seg) in segments.iter().enumerate() {
        if seg.is_degraded() {
            match window_ranges.last_mut() {
                Some((_, hi)) if *hi + 1 == k => *hi = k,
                _ => window_ranges.push((k, k)),
            }
        }
    }
    window_ranges
}

/// Which application runs where, as the slot loop sees it.
struct Views {
    /// App → the server serving it (`None` = nowhere to run).
    serving: Vec<Option<usize>>,
    /// Server id → the apps it serves, ascending.
    hosted: Vec<Vec<usize>>,
    /// Server id → the migrating apps whose demand it double-books.
    reserved: Vec<Vec<usize>>,
}

impl Views {
    /// Rebuilds every view from an authoritative serving assignment and
    /// its `(app, server)` reservations.
    fn rebuild(&mut self, serving: &[Option<usize>], reservations: &[(usize, usize)]) {
        self.serving.clear();
        self.serving.extend_from_slice(serving);
        for list in self.hosted.iter_mut() {
            list.clear();
        }
        for (i, &s) in serving.iter().enumerate() {
            if let Some(list) = s.and_then(|s| self.hosted.get_mut(s)) {
                list.push(i);
            }
        }
        for list in self.reserved.iter_mut() {
            list.clear();
        }
        for &(app, server) in reservations {
            if let Some(list) = self.reserved.get_mut(server) {
                list.push(app);
            }
        }
    }
}

/// One application's running state in the slot loop.
#[derive(Debug, Clone, Default)]
struct AppRun {
    /// CoS1 and CoS2 request columns of the current segment.
    cos1: Vec<f64>,
    cos2: Vec<f64>,
    backlog: Backlog,
    /// Backlog outstanding at the start of the slot, requested as CoS2.
    extra: f64,
    /// This slot's grant for current demand and for the backlog.
    grant_base: f64,
    grant_extra: f64,
    /// Upper bound of the utilization band the active contract allows.
    band_high: f64,
    util_normal: Vec<f64>,
    util_degraded: Vec<f64>,
    demand_total: f64,
    served_on_time: f64,
    served_late: f64,
    shed: f64,
    migrations: usize,
}

/// The serial slot loop: per-app request columns, the shared grant rule
/// per server, and the carry-over backlog per app.
struct SlotLoop<'a> {
    apps: &'a [ChaosApp],
    runs: Vec<AppRun>,
    capacity: f64,
    carry_over: bool,
    deadline_slots: usize,
    window_ranges: &'a [(usize, usize)],
    window_migrations: Vec<usize>,
    window_shed: Vec<f64>,
    migrations_total: usize,
    contended_slots: usize,
    /// Fleet-wide outstanding backlog after every slot.
    backlog_series: Vec<f64>,
    /// The previous segment's assignment (teleport move counting).
    prev_assignment: Vec<Option<usize>>,
    /// The migration machine, when enabled: its serving assignment
    /// replaces the segment plan's instantaneous one, moving only as it
    /// commits cutovers.
    orch: Option<MigrationOrchestrator>,
    views: Views,
    slo: SloEngine,
    /// Per-server contention and per-app health verdicts of the slot,
    /// fed to the migration machine.
    contended_flags: Vec<bool>,
    healthy: Vec<bool>,
}

impl<'a> SlotLoop<'a> {
    fn new(
        setup: &Setup,
        normal_placement: &PlacementReport,
        apps: &'a [ChaosApp],
        options: &ReplayOptions,
        window_ranges: &'a [(usize, usize)],
    ) -> Self {
        let home: Vec<Option<usize>> = normal_placement
            .assignment
            .iter()
            .map(|&s| Some(s))
            .collect();
        // Streaming SLO attainment against the *normal* contract for the
        // whole replay: planned degradation during an outage still spends
        // the app's error budget, which is exactly what the burn-rate
        // alerts should surface.
        let mut slo = SloEngine::new(BurnRateRule::default_rules());
        for app in apps {
            slo.register(slo_contract(
                app.name.clone(),
                &app.normal_qos,
                setup.calendar.slot_minutes(),
            ));
        }
        SlotLoop {
            apps,
            runs: vec![AppRun::default(); apps.len()],
            capacity: setup.capacity,
            carry_over: setup.carry_over,
            deadline_slots: setup.deadline_slots,
            window_ranges,
            window_migrations: vec![0; window_ranges.len()],
            window_shed: vec![0.0; window_ranges.len()],
            migrations_total: 0,
            contended_slots: 0,
            backlog_series: Vec::with_capacity(setup.horizon),
            orch: options
                .migration
                .map(|config| MigrationOrchestrator::new(config, home.clone())),
            views: Views {
                serving: home.clone(),
                hosted: vec![Vec::new(); setup.id_cap],
                reserved: vec![Vec::new(); setup.id_cap],
            },
            prev_assignment: home,
            slo,
            contended_flags: vec![false; setup.id_cap],
            healthy: vec![true; apps.len()],
        }
    }

    /// The window segment `k` belongs to.
    fn window_of(&self, k: usize) -> Option<usize> {
        self.window_ranges
            .iter()
            .position(|&(lo, hi)| lo <= k && k <= hi)
    }

    /// Books committed transitions into the per-app / fleet / per-window
    /// migration tallies — the machine-driven twin of the teleport path's
    /// boundary counting.
    fn count_commits(&mut self, transitions: &[Transition]) {
        for t in transitions {
            if t.phase != MigrationPhase::Committed {
                continue;
            }
            if let Some(run) = self.runs.get_mut(t.app) {
                run.migrations += 1;
            }
            self.migrations_total += 1;
            if let Some(count) = t.window.and_then(|w| self.window_migrations.get_mut(w)) {
                *count += 1;
            }
        }
    }

    /// Enters segment `k` and steps its slots.
    fn run_segment(&mut self, k: usize, seg: &Segment, plans: &[SegmentPlan], obs: ObsCtx<'_>) {
        let plan = &plans[k];
        // Attribute boundary moves to the window they enter, or — for
        // the moves back home at repair — to the window that just ended.
        let attributed = if plan.degraded {
            self.window_of(k)
        } else if k > 0 && plans[k - 1].degraded {
            self.window_of(k - 1)
        } else {
            None
        };
        match self.orch.as_mut() {
            None => {
                // Teleport: an app moved if it now runs on a different
                // server (losing its server entirely is displacement,
                // not a migration).
                let mut moved = 0usize;
                for ((now, before), run) in plan
                    .assignment
                    .iter()
                    .zip(&self.prev_assignment)
                    .zip(&mut self.runs)
                {
                    if now != before && now.is_some() {
                        run.migrations += 1;
                        moved += 1;
                    }
                }
                self.prev_assignment.clone_from(&plan.assignment);
                self.migrations_total += moved;
                if let Some(w) = attributed {
                    self.window_migrations[w] += moved;
                }
                // The plan's assignment takes effect instantly.
                self.views.rebuild(&plan.assignment, &[]);
            }
            Some(orch) => {
                // The new plan becomes the machine's target; moves count
                // only when they commit (inside the slot loop below).
                orch.retarget(&plan.assignment, &seg.failed, seg.start, attributed, obs);
            }
        }

        // Managers restart at the segment boundary under the active
        // policy; with smoothing 1.0 the estimate equals current demand,
        // so the reset is seamless. The replay overwrites every entry of
        // the resized columns.
        for ((app, run), &relaxed) in self.apps.iter().zip(&mut self.runs).zip(&plan.use_failure) {
            let (policy, qos) = if relaxed {
                (app.failure_policy, &app.failure_qos)
            } else {
                (app.normal_policy, &app.normal_qos)
            };
            run.band_high = qos.band().high();
            run.cos1.resize(seg.end - seg.start, 0.0);
            run.cos2.resize(seg.end - seg.start, 0.0);
            replay_requests(
                policy,
                &app.demand.samples()[seg.start..seg.end],
                &mut run.cos1,
                &mut run.cos2,
            );
        }

        for slot in seg.start..seg.end {
            self.step(slot, slot - seg.start, k, plan, obs);
        }
    }

    /// One slot: migration progress, grants, then serving.
    fn step(&mut self, slot: usize, off: usize, k: usize, plan: &SegmentPlan, obs: ObsCtx<'_>) {
        // Migration machine, slot start: begin eligible moves under the
        // storm caps, then refresh the serving/reservation views if
        // anything changed (including the segment's retarget).
        if let Some(orch) = self.orch.as_mut() {
            let transitions = orch.begin_slot(slot, obs);
            if orch.take_dirty() {
                self.views.rebuild(orch.serving(), &orch.reservations());
            }
            self.count_commits(&transitions);
        }
        if self.grant(off) {
            self.contended_slots += 1;
            obs.counter("chaos.replay.contended_slots", 1);
        }
        let (slot_shed, slot_carried) = self.serve(slot, plan, obs);
        // Migration machine, slot end: apply drain/health progress.
        if let Some(orch) = self.orch.as_mut() {
            let transitions = orch.complete_slot(slot, &self.contended_flags, &self.healthy, obs);
            self.count_commits(&transitions);
        }
        if slot_shed > EPSILON {
            obs.counter("chaos.replay.shed_slots", 1);
        }
        if slot_carried {
            obs.counter("chaos.replay.carried_slots", 1);
        }
        if plan.degraded {
            if let Some(w) = self.window_of(k) {
                self.window_shed[w] += slot_shed;
            }
        }
    }

    /// Each server grants by [`grant_scales`]; outstanding backlog rides
    /// along as extra CoS2, and migrating apps' reserved demand presses
    /// on the destination's scales (capacity double-booked mid-move)
    /// without drawing grants there. Returns whether any server was
    /// contended.
    fn grant(&mut self, off: usize) -> bool {
        for run in &mut self.runs {
            run.extra = run.backlog.outstanding();
        }
        let runs = &mut self.runs;
        let mut contended = false;
        self.contended_flags.fill(false);
        for ((ids, resv), flag) in self
            .views
            .hosted
            .iter()
            .zip(&self.views.reserved)
            .zip(&mut self.contended_flags)
        {
            if ids.is_empty() && resv.is_empty() {
                continue;
            }
            let mut cos1_sum: f64 = ids.iter().map(|&i| runs[i].cos1[off]).sum();
            let mut cos2_sum: f64 = ids.iter().map(|&i| runs[i].cos2[off] + runs[i].extra).sum();
            if !resv.is_empty() {
                cos1_sum += resv.iter().map(|&i| runs[i].cos1[off]).sum::<f64>();
                cos2_sum += resv.iter().map(|&i| runs[i].cos2[off]).sum::<f64>();
            }
            let (cos1_scale, cos2_scale) = grant_scales(self.capacity, cos1_sum, cos2_sum);
            if cos1_scale < 1.0 || cos2_scale < 1.0 {
                contended = true;
                *flag = true;
            }
            for &i in ids {
                let run = &mut runs[i];
                run.grant_base = run.cos1[off] * cos1_scale + run.cos2[off] * cos2_scale;
                run.grant_extra = run.extra * cos2_scale;
            }
        }
        contended
    }

    /// Serves current demand first, drains backlog FIFO with whatever
    /// grant is left, then defers or sheds the shortfall. Returns the
    /// slot's shed amount and whether anything was carried.
    fn serve(&mut self, slot: usize, plan: &SegmentPlan, obs: ObsCtx<'_>) -> (f64, bool) {
        let mut slot_backlog = 0.0f64;
        let mut slot_shed = 0.0f64;
        let mut slot_carried = false;
        for (i, (app, run)) in self.apps.iter().zip(&mut self.runs).enumerate() {
            let recovering = !run.backlog.is_empty();
            let (g_base, g_extra) = if self.views.serving[i].is_some() {
                (run.grant_base, run.grant_extra)
            } else {
                (0.0, 0.0)
            };
            let g_total = g_base + g_extra;
            let d = app.demand.samples()[slot];
            let serve_now = d.min(g_total);
            let late = run.backlog.drain((g_total - serve_now).max(0.0));
            run.demand_total += d;
            run.served_on_time += serve_now;
            run.served_late += late;
            let shortfall = d - serve_now;
            if shortfall > EPSILON {
                if self.carry_over {
                    run.backlog.push(slot, shortfall);
                    slot_carried = true;
                } else {
                    run.shed += shortfall;
                    slot_shed += shortfall;
                }
            }
            // Expire deferred work past its deadline.
            while let Some(amount) = run.backlog.expire(slot, self.deadline_slots) {
                run.shed += amount;
                slot_shed += amount;
            }
            slot_backlog += run.backlog.outstanding();
            // Utilization of (own) allocation for current demand —
            // backlog drain uses headroom and is not charged against
            // the band.
            let u = if g_base > EPSILON {
                serve_now.min(g_base) / g_base
            } else {
                0.0
            };
            if plan.degraded || recovering {
                run.util_degraded.push(u);
            } else {
                run.util_normal.push(u);
            }
            self.slo.observe(i, slot, u, obs);
            // Health verdict for the migration machine: the slot is
            // healthy when current demand was fully served within the
            // app's utilization band.
            self.healthy[i] = shortfall <= EPSILON && u <= run.band_high + EPSILON;
        }
        self.backlog_series.push(slot_backlog);
        (slot_shed, slot_carried)
    }

    /// Assembles the report: per-window recovery metrics (emitting
    /// `chaos.window.recovery`), per-app outcomes and audits, the
    /// migration machine's report, and the SLO summary.
    fn into_report(
        mut self,
        setup: &Setup,
        normal_placement: &PlacementReport,
        options: &ReplayOptions,
        segments: &[Segment],
        plans: &[SegmentPlan],
        obs: ObsCtx<'_>,
    ) -> Result<ChaosReport, ChaosError> {
        let mut windows = Vec::with_capacity(self.window_ranges.len());
        for (w, &(lo, hi)) in self.window_ranges.iter().enumerate() {
            let window = degraded_window(
                &segments[lo..=hi],
                &plans[lo..=hi],
                &self.backlog_series,
                self.window_migrations[w],
                self.window_shed[w],
            );
            let mut recovery_event = obs
                .event("chaos.window.recovery")
                .with_u64("start", window.start as u64)
                .with_u64("end", window.end as u64)
                .with_str("feasible", if window.feasible { "true" } else { "false" })
                .with_u64("displaced", window.displaced as u64)
                .with_u64("migrations", window.migrations as u64)
                .with_f64("shed", window.shed);
            if let Some(r) = window.recovery_slots {
                recovery_event = recovery_event.with_u64("recovery_slots", r as u64);
            }
            recovery_event.emit();
            windows.push(window);
        }

        let calendar = setup.calendar;
        let audited = |util: Vec<f64>, qos: &AppQos| -> Result<_, ChaosError> {
            if util.is_empty() {
                return Ok(None);
            }
            Ok(Some(audit(&Trace::from_samples(calendar, util)?, qos)))
        };
        let mut out_apps = Vec::with_capacity(self.runs.len());
        for ((app, run), &home_server) in self
            .apps
            .iter()
            .zip(&mut self.runs)
            .zip(&normal_placement.assignment)
        {
            let served = run.served_on_time + run.served_late;
            let unserved_fraction = if run.demand_total > 0.0 {
                ((run.demand_total - served) / run.demand_total).max(0.0)
            } else {
                0.0
            };
            out_apps.push(AppChaosOutcome {
                name: app.name.clone(),
                home_server,
                demand_total: run.demand_total,
                served_on_time: run.served_on_time,
                served_late: run.served_late,
                shed: run.shed,
                backlog_remaining: run.backlog.outstanding(),
                unserved_fraction,
                migrations: run.migrations,
                normal_audit: audited(std::mem::take(&mut run.util_normal), &app.normal_qos)?,
                degraded_audit: audited(std::mem::take(&mut run.util_degraded), &app.failure_qos)?,
            });
        }

        // Per-move timelines and recovery metrics when the machine ran.
        let migration = self.orch.map(|o| {
            let names: Vec<&str> = self.apps.iter().map(|a| a.name.as_str()).collect();
            o.report(&names)
        });

        self.slo.record_counters(obs);
        let runs = &self.runs;
        let total = |field: fn(&AppRun) -> f64| runs.iter().map(field).sum::<f64>();
        Ok(ChaosReport {
            slots: setup.horizon,
            slot_minutes: calendar.slot_minutes(),
            scope: options.scope,
            carry_over: setup.carry_over,
            deadline_slots: setup.deadline_slots,
            degraded_slots: segments
                .iter()
                .filter(|s| s.is_degraded())
                .map(|s| s.end - s.start)
                .sum(),
            contended_slots: self.contended_slots,
            migrations_total: self.migrations_total,
            demand_total: total(|r| r.demand_total),
            served_total: total(|r| r.served_on_time) + total(|r| r.served_late),
            served_late_total: total(|r| r.served_late),
            shed_total: total(|r| r.shed),
            apps: out_apps,
            windows,
            migration,
            slo: Some(self.slo.summary()),
            obs: None,
        })
    }
}

/// One degraded window's metrics from its segments and plans: the union
/// of failed servers and displaced apps, joint feasibility, and the
/// slots after the window until the fleet's backlog first drains.
fn degraded_window(
    segments: &[Segment],
    plans: &[SegmentPlan],
    backlog_series: &[f64],
    migrations: usize,
    shed: f64,
) -> DegradedWindow {
    let start = segments.first().map_or(0, |s| s.start);
    let end = segments.last().map_or(start, |s| s.end);
    let mut failed: Vec<usize> = Vec::new();
    let mut displaced: Vec<usize> = Vec::new();
    let mut feasible = true;
    for (seg, plan) in segments.iter().zip(plans) {
        failed.extend_from_slice(&seg.failed);
        displaced.extend_from_slice(&plan.affected);
        feasible &= plan.feasible;
    }
    failed.sort_unstable();
    failed.dedup();
    displaced.sort_unstable();
    displaced.dedup();
    let recovery_slots = backlog_series
        .iter()
        .enumerate()
        .skip(end - 1)
        .find(|&(_, &outstanding)| outstanding <= EPSILON)
        .map(|(t, _)| (t + 1).saturating_sub(end));
    DegradedWindow {
        start,
        end,
        failed,
        feasible,
        displaced: displaced.len(),
        migrations,
        shed,
        recovery_slots,
    }
}

/// Builds the per-segment execution plans, re-placing displaced
/// workloads for every distinct failed-server set.
fn segment_plans(
    consolidator: &Consolidator,
    normal_placement: &PlacementReport,
    apps: &[ChaosApp],
    segments: &[Segment],
    options: &ReplayOptions,
    obs: ObsCtx<'_>,
) -> Result<Vec<SegmentPlan>, ChaosError> {
    let n = apps.len();
    let pool_ids: Vec<usize> = normal_placement.servers.iter().map(|s| s.server).collect();

    // Distinct failed sets in first-appearance order; every segment maps
    // to its set's index (usize::MAX sentinel is never read for normal
    // segments).
    let mut distinct: Vec<Vec<usize>> = Vec::new();
    for seg in segments {
        if seg.is_degraded() && !distinct.contains(&seg.failed) {
            distinct.push(seg.failed.clone());
        }
    }

    // Per distinct failed set: the displaced apps and the surviving ids.
    let sets: Vec<(Vec<usize>, Vec<usize>)> = distinct
        .iter()
        .map(|failed| {
            let affected = (0..n)
                .filter(|&i| failed.contains(&normal_placement.assignment[i]))
                .collect();
            let survivors = pool_ids
                .iter()
                .copied()
                .filter(|s| !failed.contains(s))
                .collect();
            (affected, survivors)
        })
        .collect();
    // One re-placement problem per set; sets that leave the same survivor
    // count and relax the same workloads share a solve.
    let problems: Vec<Replacement> = sets
        .iter()
        .map(|(affected, survivors)| Replacement {
            survivors: survivors.len(),
            relaxed: match options.scope {
                FailureScope::AllApplications => (0..n).collect(),
                FailureScope::AffectedOnly => affected.clone(),
            },
        })
        .collect();
    let normal: Vec<Workload> = apps.iter().map(|a| a.normal_workload.clone()).collect();
    let failure: Vec<Workload> = apps.iter().map(|a| a.failure_workload.clone()).collect();
    let (solved, solves) = solve_replacements(consolidator, &normal, &failure, &problems)?;
    obs.counter("chaos.replan.solves", solves as u64);

    // Map each set's re-placement onto its own survivor ids.
    let placements: Vec<(bool, Vec<Option<usize>>)> = sets
        .iter()
        .zip(&problems)
        .zip(&solved)
        .map(|(((_, survivors), problem), placement)| match placement {
            // Blackout: nowhere to run anything.
            _ if survivors.is_empty() => (false, vec![None; n]),
            Some(report) => (
                true,
                report
                    .assignment
                    .iter()
                    .map(|&s| survivors.get(s).copied())
                    .collect(),
            ),
            // The survivors cannot absorb the fleet within commitments:
            // fall back to deterministic best-effort packing and let the
            // slot loop degrade gracefully.
            None => (
                false,
                best_effort_assignment(&problem.workloads(&normal, &failure), survivors),
            ),
        })
        .collect();

    let mut plans = Vec::with_capacity(segments.len());
    for seg in segments {
        if !seg.is_degraded() {
            plans.push(SegmentPlan {
                assignment: normal_placement
                    .assignment
                    .iter()
                    .map(|&s| Some(s))
                    .collect(),
                use_failure: vec![false; n],
                affected: Vec::new(),
                feasible: true,
                degraded: false,
            });
            continue;
        }
        let ix = distinct
            .iter()
            .position(|f| *f == seg.failed)
            .unwrap_or_default();
        let affected = &sets[ix].0;
        let (feasible, ref assignment) = placements[ix];
        // The re-placements above ran in parallel workers; this assembly
        // loop is serial, so events keep their deterministic order.
        obs.event("chaos.segment.replan")
            .with_u64("start", seg.start as u64)
            .with_u64("end", seg.end as u64)
            .with_u64("failed", seg.failed.len() as u64)
            .with_u64("displaced", affected.len() as u64)
            .with_str("feasible", if feasible { "true" } else { "false" })
            .emit();
        let use_failure: Vec<bool> = (0..n)
            .map(|i| match options.scope {
                FailureScope::AllApplications => true,
                FailureScope::AffectedOnly => affected.contains(&i),
            })
            .collect();
        plans.push(SegmentPlan {
            assignment: assignment.clone(),
            use_failure,
            affected: affected.clone(),
            feasible,
            degraded: true,
        });
    }
    Ok(plans)
}

/// Deterministic greedy fallback: largest workloads first, each onto the
/// least-loaded survivor (ties break to the lowest server id).
fn best_effort_assignment(mixed: &[Workload], survivors: &[usize]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..mixed.len()).collect();
    order.sort_by(|&a, &b| {
        mixed[b]
            .total_peak()
            .partial_cmp(&mixed[a].total_peak())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut load = vec![0.0f64; survivors.len()];
    let mut assignment = vec![None; mixed.len()];
    for i in order {
        let mut best = 0usize;
        for (j, &l) in load.iter().enumerate() {
            if l < load[best] {
                best = j;
            }
        }
        assignment[i] = Some(survivors[best]);
        load[best] += mixed[i].total_peak();
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FailureEvent;
    use ropus_placement::consolidate::ConsolidationOptions;
    use ropus_placement::server::ServerSpec;
    use ropus_qos::translation::translate;
    use ropus_qos::{CosSpec, PoolCommitments};
    use ropus_trace::Calendar;

    /// One week on the five-minute calendar; the consolidator requires
    /// whole-week traces.
    const WEEK: usize = 2016;

    fn commitments() -> PoolCommitments {
        PoolCommitments::new(CosSpec::new(0.9, 60).unwrap())
    }

    fn consolidator(threads: usize) -> Consolidator {
        Consolidator::new(
            ServerSpec::new(4, 4.0),
            commitments(),
            ConsolidationOptions::fast(11).with_threads(threads),
        )
    }

    /// Builds an app with constant demand plus its translations.
    fn app(name: &str, level: f64, slots: usize) -> ChaosApp {
        let calendar = Calendar::five_minute();
        let demand = Trace::constant(calendar, level, slots).unwrap();
        let normal_qos = AppQos::paper_default(Some(30));
        let failure_qos = AppQos::paper_default(None);
        let normal = translate(&demand, &normal_qos, &commitments().cos2, ObsCtx::none()).unwrap();
        let failure =
            translate(&demand, &failure_qos, &commitments().cos2, ObsCtx::none()).unwrap();
        ChaosApp {
            name: name.to_string(),
            demand,
            normal_policy: WlmPolicy::from_translation(&normal_qos, &normal.report),
            failure_policy: WlmPolicy::from_translation(&failure_qos, &failure.report),
            normal_qos,
            failure_qos,
            normal_workload: Workload::from_translation(name, normal),
            failure_workload: Workload::from_translation(name, failure),
        }
    }

    fn fleet(levels: &[f64], slots: usize) -> Vec<ChaosApp> {
        levels
            .iter()
            .enumerate()
            .map(|(i, &l)| app(&format!("app-{i}"), l, slots))
            .collect()
    }

    fn normal_placement(cons: &Consolidator, apps: &[ChaosApp]) -> PlacementReport {
        let workloads: Vec<Workload> = apps.iter().map(|a| a.normal_workload.clone()).collect();
        cons.consolidate(&workloads, ObsCtx::none()).unwrap()
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let cons = consolidator(1);
        let apps = fleet(&[1.0], WEEK);
        let placement = normal_placement(&cons, &apps);
        let err = replay(
            &cons,
            &placement,
            &[],
            &FailureSchedule::none(),
            &ReplayOptions::default(),
            ObsCtx::none(),
        );
        assert!(matches!(err, Err(ChaosError::NoApplications)));
    }

    #[test]
    fn unknown_server_is_rejected() {
        let cons = consolidator(1);
        let apps = fleet(&[1.0, 1.2], WEEK);
        let placement = normal_placement(&cons, &apps);
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: 40,
            start: 0,
            duration: 4,
        }])
        .unwrap();
        let err = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default(),
            ObsCtx::none(),
        );
        assert!(matches!(
            err,
            Err(ChaosError::UnknownServer { server: 40, .. })
        ));
    }

    #[test]
    fn calendar_mismatch_is_rejected() {
        // Same slot count on an hourly calendar: twelve weeks, not one.
        let cons = consolidator(1);
        let mut apps = fleet(&[1.0, 1.2], WEEK);
        let placement = normal_placement(&cons, &apps);
        apps[1].demand = Trace::constant(Calendar::new(60).unwrap(), 1.2, WEEK).unwrap();
        let err = replay(
            &cons,
            &placement,
            &apps,
            &FailureSchedule::none(),
            &ReplayOptions::default(),
            ObsCtx::none(),
        );
        assert_eq!(
            err,
            Err(ChaosError::Trace(TraceError::CalendarMismatch {
                left: 5,
                right: 60
            }))
        );
    }

    #[test]
    fn no_failures_replays_clean() {
        let cons = consolidator(1);
        let apps = fleet(&[1.0, 1.2, 0.8], WEEK);
        let placement = normal_placement(&cons, &apps);
        let report = replay(
            &cons,
            &placement,
            &apps,
            &FailureSchedule::none(),
            &ReplayOptions::default(),
            ObsCtx::none(),
        )
        .unwrap();
        assert_eq!(report.degraded_slots, 0);
        assert_eq!(report.migrations_total, 0);
        assert!(report.windows.is_empty());
        assert!(report.shed_total.abs() < 1e-9);
        assert!(report.all_compliant(), "clean replay must be compliant");
        for a in &report.apps {
            assert!(a.degraded_audit.is_none());
            assert!((a.served_total() - a.demand_total).abs() < 1e-6);
        }
    }

    #[test]
    fn accounting_identity_holds() {
        // Demand = served + shed + backlog for every app, whatever the
        // degradation policy.
        let cons = consolidator(1);
        let apps = fleet(&[2.6, 2.4, 2.8, 2.2], WEEK);
        let placement = normal_placement(&cons, &apps);
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: placement.servers[0].server,
            start: 8,
            duration: 16,
        }])
        .unwrap();
        for degradation in [
            DegradationPolicy::default(),
            DegradationPolicy::shed_immediately(),
            DegradationPolicy {
                carry_over: true,
                deadline_slots: Some(2),
            },
        ] {
            let report = replay(
                &cons,
                &placement,
                &apps,
                &schedule,
                &ReplayOptions::default().with_degradation(degradation),
                ObsCtx::none(),
            )
            .unwrap();
            for a in &report.apps {
                let balance = a.served_total() + a.shed + a.backlog_remaining;
                assert!(
                    (balance - a.demand_total).abs() < 1e-6,
                    "{}: demand {} vs balance {balance}",
                    a.name,
                    a.demand_total
                );
            }
            assert_eq!(report.windows.len(), 1);
            assert_eq!(report.degraded_slots, 16);
        }
    }

    #[test]
    fn blackout_shreds_or_carries_everything() {
        let cons = consolidator(1);
        let apps = fleet(&[1.5], WEEK);
        let placement = normal_placement(&cons, &apps);
        assert_eq!(placement.servers_used, 1);
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: placement.servers[0].server,
            start: 4,
            duration: 4,
        }])
        .unwrap();
        let report = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default().with_degradation(DegradationPolicy::shed_immediately()),
            ObsCtx::none(),
        )
        .unwrap();
        // 4 slots × 1.5 CPU shed, the rest served.
        assert!((report.shed_total - 6.0).abs() < 1e-6);
        assert!(!report.windows[0].feasible);
        assert_eq!(report.windows[0].displaced, 1);
        assert_eq!(report.windows[0].recovery_slots, Some(0));
    }

    #[test]
    fn carried_demand_recovers_after_repair() {
        let cons = consolidator(1);
        let apps = fleet(&[1.5], WEEK);
        let placement = normal_placement(&cons, &apps);
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: placement.servers[0].server,
            start: 4,
            duration: 4,
        }])
        .unwrap();
        let report = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default().with_degradation(DegradationPolicy {
                carry_over: true,
                deadline_slots: Some(100),
            }),
            ObsCtx::none(),
        )
        .unwrap();
        let recovery = report.windows[0].recovery_slots.expect("must recover");
        assert!(recovery > 0, "backlog must take time to drain");
        // Deferred outage demand is eventually served late, not shed.
        assert!(report.shed_total.abs() < 1e-9);
        assert!(report.served_late_total > 0.0);
        let a = &report.apps[0];
        assert!((a.served_total() - a.demand_total).abs() < 1e-6);
    }

    #[test]
    fn deadline_zero_disables_carry_over() {
        let cons = consolidator(1);
        let apps = fleet(&[1.5], WEEK);
        let placement = normal_placement(&cons, &apps);
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: placement.servers[0].server,
            start: 4,
            duration: 4,
        }])
        .unwrap();
        let report = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default().with_degradation(DegradationPolicy {
                carry_over: true,
                deadline_slots: Some(0),
            }),
            ObsCtx::none(),
        )
        .unwrap();
        assert!(!report.carry_over);
        assert!((report.shed_total - 6.0).abs() < 1e-6);
    }

    #[test]
    fn default_deadline_comes_from_commitments() {
        let cons = consolidator(1);
        let apps = fleet(&[1.0], WEEK);
        let placement = normal_placement(&cons, &apps);
        let report = replay(
            &cons,
            &placement,
            &apps,
            &FailureSchedule::none(),
            &ReplayOptions::default(),
            ObsCtx::none(),
        )
        .unwrap();
        // 60-minute deadline on a 5-minute calendar.
        assert_eq!(report.deadline_slots, 12);
        assert!(report.carry_over);
    }

    #[test]
    fn displaced_apps_migrate_and_return() {
        let cons = consolidator(1);
        // Two servers' worth of load.
        let apps = fleet(&[2.6, 2.4, 2.8, 2.2], WEEK);
        let placement = normal_placement(&cons, &apps);
        assert!(placement.servers_used >= 2, "fixture must span servers");
        let failed = placement.servers[0].server;
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: failed,
            start: 8,
            duration: 16,
        }])
        .unwrap();
        let report = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default(),
            ObsCtx::none(),
        )
        .unwrap();
        let displaced = report.windows[0].displaced;
        assert!(displaced > 0);
        // Each displaced app moves out and back home.
        assert_eq!(report.migrations_total, 2 * displaced);
        assert_eq!(report.windows[0].migrations, report.migrations_total);
        for a in &report.apps {
            assert!(a.migrations == 0 || a.migrations == 2);
        }
    }

    #[test]
    fn replay_is_deterministic_across_threads() {
        let apps = fleet(&[2.6, 2.4, 2.8, 2.2, 1.9], WEEK);
        let schedule = FailureSchedule::stochastic(
            &crate::schedule::StochasticProfile {
                seed: 5,
                mtbf_slots: 30,
                mttr_slots: 6,
            },
            2,
            WEEK,
        )
        .unwrap();
        let run = |threads: usize| {
            let cons = consolidator(threads);
            let placement = normal_placement(&consolidator(1), &apps);
            replay(
                &cons,
                &placement,
                &apps,
                &schedule,
                &ReplayOptions::default(),
                ObsCtx::none(),
            )
            .unwrap()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn teleport_migration_reproduces_legacy_replay_byte_for_byte() {
        let cons = consolidator(1);
        let apps = fleet(&[2.6, 2.4, 2.8, 2.2], WEEK);
        let placement = normal_placement(&cons, &apps);
        let failed = placement.servers[0].server;
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: failed,
            start: 8,
            duration: 16,
        }])
        .unwrap();
        let legacy = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default(),
            ObsCtx::none(),
        )
        .unwrap();
        let mut machine = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default().with_migration(MigrationConfig::teleport()),
            ObsCtx::none(),
        )
        .unwrap();
        let report = machine.migration.take().expect("machine report attached");
        assert!(report.committed > 0);
        assert_eq!(report.rolled_back, 0);
        assert_eq!(report.deferred_slots, 0);
        // Modulo the attached migration report, the zero-cost machine is
        // the teleport replay, byte for byte.
        assert_eq!(
            serde_json::to_string(&legacy).unwrap(),
            serde_json::to_string(&machine).unwrap()
        );
    }

    #[test]
    fn paced_migration_walks_phases_and_lands_in_band() {
        let cons = consolidator(1);
        let apps = fleet(&[2.6, 2.4, 2.8, 2.2], WEEK);
        let placement = normal_placement(&cons, &apps);
        let failed = placement.servers[0].server;
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: failed,
            start: 8,
            duration: 30,
        }])
        .unwrap();
        let report = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default().with_migration(MigrationConfig::paced()),
            ObsCtx::none(),
        )
        .unwrap();
        let migration = report.migration.as_ref().expect("paced report attached");
        assert!(migration.committed > 0);
        // Paced moves take real slots: nothing commits in the planning
        // slot, and transfers double-book live sources along the way.
        assert!(migration.first_commit_slot.unwrap() > 8);
        assert!(migration.double_booked_slots > 0);
        for mov in &migration.moves {
            assert!(!mov.timeline.is_empty());
        }
        // Report-level migration totals come from committed cutovers.
        let per_app: usize = report.apps.iter().map(|a| a.migrations).sum();
        assert_eq!(per_app, report.migrations_total);
        assert_eq!(migration.committed, report.migrations_total);
    }

    #[test]
    fn storm_cap_defers_moves_in_replay() {
        let cons = consolidator(1);
        let apps = fleet(&[2.6, 2.4, 2.8, 2.2, 1.9, 2.1], WEEK);
        let placement = normal_placement(&cons, &apps);
        assert!(placement.servers_used >= 2, "fixture must span servers");
        let failed = placement.servers[0].server;
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: failed,
            start: 8,
            duration: 40,
        }])
        .unwrap();
        let run = |config: MigrationConfig| {
            replay(
                &cons,
                &placement,
                &apps,
                &schedule,
                &ReplayOptions::default().with_migration(config),
                ObsCtx::none(),
            )
            .unwrap()
            .migration
            .unwrap()
        };
        let unlimited = run(MigrationConfig::paced());
        let capped = run(MigrationConfig::paced().with_max_in_flight(1));
        assert!(capped.peak_in_flight <= 1);
        assert!(capped.committed > 0);
        if unlimited.peak_in_flight > 1 {
            assert!(capped.deferred_slots > 0);
        }
    }

    #[test]
    fn observed_blackout_counts_infeasible_segments_and_window_events() {
        let cons = consolidator(1);
        let apps = fleet(&[1.5], WEEK);
        let placement = normal_placement(&cons, &apps);
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: placement.servers[0].server,
            start: 4,
            duration: 4,
        }])
        .unwrap();
        let obs = ropus_obs::Obs::deterministic();
        let report = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default().with_degradation(DegradationPolicy::shed_immediately()),
            ObsCtx::from(&obs),
        )
        .unwrap();
        assert!(report.obs.is_none(), "replay itself never attaches obs");
        let snapshot = obs.report();
        // The blackout segment has no survivors: its re-placement is the
        // silent best-effort fallback, now surfaced as a counter.
        assert_eq!(snapshot.counter("chaos.replay.infeasible_segments"), 1);
        // All four outage slots shed the whole demand.
        assert_eq!(snapshot.counter("chaos.replay.shed_slots"), 4);
        assert_eq!(snapshot.counter("chaos.replay.carried_slots"), 0);
        assert_eq!(snapshot.events_named("chaos.segment.replan").count(), 1);
        let recovery: Vec<_> = snapshot.events_named("chaos.window.recovery").collect();
        assert_eq!(recovery.len(), 1);
        assert!(recovery[0]
            .attrs
            .iter()
            .any(|a| a.key == "feasible" && a.value == "false"));
        // NullClock suppresses durations on the replay spans.
        assert_eq!(snapshot.spans_named("chaos.replay.slots").count(), 1);
        assert!(snapshot.spans.iter().all(|s| s.wall_ms == 0.0));
    }

    #[test]
    fn segment_plans_match_a_per_set_solve() {
        // Three single-server outages and one double outage: the three
        // singles share a survivor count, so each scope solves at most
        // one problem per distinct relaxed set rather than one per set.
        let cons = consolidator(4);
        let mut apps = fleet(&[2.6, 2.4, 2.8, 2.2, 1.9, 2.5, 2.7, 2.3], WEEK);
        // One app's failure mode really frees capacity, so the scopes
        // differ in which failed sets share a problem.
        apps[0].failure_workload = app("app-0", 0.5, WEEK).normal_workload;
        let placement = normal_placement(&consolidator(1), &apps);
        assert!(placement.servers_used >= 3, "{placement:?}");
        let server = |k: usize| placement.servers[k].server;
        assert!((0..3).any(|k| server(k) == placement.assignment[0]));
        let event = |k: usize, start: usize| FailureEvent {
            server: server(k),
            start,
            duration: 8,
        };
        let mut events = vec![event(0, 8), event(1, 24), event(2, 40), event(0, 56)];
        events.push(event(1, 60));
        let schedule = FailureSchedule::scripted(events).unwrap();
        let segments = schedule.segments(WEEK);
        let pool_ids: Vec<usize> = placement.servers.iter().map(|s| s.server).collect();
        let serial = consolidator(1);
        for scope in [FailureScope::AffectedOnly, FailureScope::AllApplications] {
            let options = ReplayOptions::default().with_scope(scope);
            let obs = ropus_obs::Obs::deterministic();
            let plans = segment_plans(
                &cons,
                &placement,
                &apps,
                &segments,
                &options,
                ObsCtx::from(&obs),
            )
            .unwrap();
            let mut distinct: Vec<&Vec<usize>> = Vec::new();
            for (seg, plan) in segments.iter().zip(&plans) {
                assert_eq!(plan.degraded, seg.is_degraded());
                if !seg.is_degraded() {
                    continue;
                }
                if !distinct.contains(&&seg.failed) {
                    distinct.push(&seg.failed);
                }
                let affected: Vec<usize> = (0..apps.len())
                    .filter(|&i| seg.failed.contains(&placement.assignment[i]))
                    .collect();
                let relaxed =
                    |i: usize| scope == FailureScope::AllApplications || affected.contains(&i);
                let mixed: Vec<Workload> = apps
                    .iter()
                    .enumerate()
                    .map(|(i, a)| {
                        if relaxed(i) {
                            a.failure_workload.clone()
                        } else {
                            a.normal_workload.clone()
                        }
                    })
                    .collect();
                let survivors: Vec<usize> = pool_ids
                    .iter()
                    .copied()
                    .filter(|s| !seg.failed.contains(s))
                    .collect();
                let pool =
                    ropus_placement::server::Pool::homogeneous(cons.server(), survivors.len());
                let (feasible, assignment) =
                    match serial.consolidate_onto(&mixed, pool, ObsCtx::none()) {
                        Ok(report) => (
                            true,
                            report
                                .assignment
                                .iter()
                                .map(|&s| Some(survivors[s]))
                                .collect(),
                        ),
                        Err(_) => (false, best_effort_assignment(&mixed, &survivors)),
                    };
                assert_eq!(plan.feasible, feasible, "{scope:?} {seg:?}");
                assert_eq!(plan.assignment, assignment, "{scope:?} {seg:?}");
                assert_eq!(plan.affected, affected);
                let use_failure: Vec<bool> = (0..apps.len()).map(relaxed).collect();
                assert_eq!(plan.use_failure, use_failure);
            }
            assert_eq!(distinct.len(), 4);
            // Singles: app-0's server relaxes a changed workload under
            // AffectedOnly, the other two share the unchanged problem;
            // AllApplications makes all three one problem. The double
            // outage is its own problem either way.
            let expected = match scope {
                FailureScope::AffectedOnly => 3,
                FailureScope::AllApplications => 2,
            };
            assert_eq!(
                obs.report().counter("chaos.replan.solves"),
                expected,
                "{scope:?}"
            );
        }
    }

    #[test]
    fn scope_all_relaxes_every_app() {
        let cons = consolidator(1);
        let apps = fleet(&[2.6, 2.4, 2.8, 2.2], WEEK);
        let placement = normal_placement(&cons, &apps);
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: placement.servers[0].server,
            start: 8,
            duration: 16,
        }])
        .unwrap();
        let all = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default().with_scope(FailureScope::AllApplications),
            ObsCtx::none(),
        )
        .unwrap();
        assert_eq!(all.scope, FailureScope::AllApplications);
        // Under AllApplications every app has degraded-window samples.
        for a in &all.apps {
            assert!(a.degraded_audit.is_some(), "{} must be degraded", a.name);
        }
    }
}
