//! The medium-term control loop (§II: "Assignments may be adjusted
//! periodically as service levels are evaluated or as circumstances
//! change") — and with it, an *out-of-sample* test of the paper's core
//! premise that "traces capture past demands and ... future demands will
//! be roughly similar".
//!
//! Each epoch (one week), the controller:
//!
//! 1. plans a placement from the trailing window of demand history,
//! 2. runs the *next, unseen* week of demand through the placed hosts,
//! 3. audits every application's delivered QoS out of sample, and
//! 4. carries the placement forward, counting the migrations each
//!    re-planning step would require.
//!
//! A healthy fleet (slowly changing demands) should show near-total
//! out-of-sample compliance and few migrations — exactly the regime the
//! paper argues trace-based management is sound in.

use ropus_obs::{BurnRateRule, ObsCtx, SloEngine, SloSummary};
use serde::{Deserialize, Serialize};

use ropus_placement::migration::{
    MigrationConfig, MigrationOrchestrator, MigrationPhase, MigrationReport, MoveRecord,
};
use ropus_trace::Trace;
use ropus_wlm::host::{Host, HostedWorkload};
use ropus_wlm::manager::WlmPolicy;
use ropus_wlm::metrics::{audit, slo_contract};

use crate::framework::{AppPlan, AppSpec, Framework};
use crate::FrameworkError;

/// Outcome of one lifecycle epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochOutcome {
    /// The (zero-based) week that was replayed out of sample.
    pub week: usize,
    /// Servers the trailing-window plan used.
    pub servers: usize,
    /// Applications whose delivered QoS violated their requirement
    /// during the unseen week.
    pub violations: usize,
    /// Fraction of applications compliant out of sample.
    pub compliant_fraction: f64,
    /// Workloads that changed servers relative to the previous epoch's
    /// placement (0 for the first epoch). Under a paced migration config
    /// this counts moves the state machine actually *committed*, not
    /// re-plan deltas.
    pub migrations: usize,
    /// Rollbacks the epoch's migration machine performed (always 0 under
    /// the teleport config).
    #[serde(default)]
    pub rolled_back: usize,
    /// Moves abandoned after exhausting retries (always 0 under the
    /// teleport config).
    #[serde(default)]
    pub failed: usize,
    /// Burn-rate alert transitions (fires + clears) the streaming SLO
    /// engine produced during this epoch's out-of-sample week.
    #[serde(default)]
    pub slo_alerts: usize,
}

/// Result of a lifecycle run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifecycleReport {
    /// Trailing-window length used for planning, in weeks.
    pub window_weeks: usize,
    /// One outcome per replayed week.
    pub epochs: Vec<EpochOutcome>,
    /// Whole-run SLO attainment and alert log from the streaming engine,
    /// fed every epoch's out-of-sample utilization at global slot
    /// offsets (`week × slots_per_week + t`). `None` only in reports
    /// deserialized from older runs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub slo: Option<SloSummary>,
}

impl LifecycleReport {
    /// Total migrations across all epochs.
    pub fn total_migrations(&self) -> usize {
        self.epochs.iter().map(|e| e.migrations).sum()
    }

    /// Worst per-epoch out-of-sample compliance.
    pub fn worst_compliance(&self) -> f64 {
        self.epochs
            .iter()
            .map(|e| e.compliant_fraction)
            .fold(1.0, f64::min)
    }
}

impl Framework {
    /// Runs the medium-term control loop over the fleet's trace history
    /// under a migration cost model.
    ///
    /// For every week `w >= window_weeks` of the common history, plans on
    /// weeks `[w - window_weeks, w)` and replays week `w` out of sample.
    ///
    /// With the zero-cost [`MigrationConfig::teleport`] each epoch's
    /// re-plan takes effect instantly and `migrations` counts assignment
    /// deltas. A paced config drives every epoch adjustment through the
    /// migration state machine instead: moves start under the storm caps,
    /// the source serves until cutover, the destination is double-booked
    /// while a move is in flight, and the out-of-sample replay models all
    /// of it with residency windows and reservation pressure on each
    /// host. `migrations` then counts *committed* moves, and
    /// `rolled_back`/`failed` surface the machine's failures.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::NoApplications`] for an empty fleet, a
    /// trace error when histories are shorter than `window_weeks + 1`
    /// whole weeks or misaligned, and propagates planning failures.
    ///
    /// # Panics
    ///
    /// Panics if `window_weeks` is zero.
    pub fn run_lifecycle(
        &self,
        apps: &[AppSpec],
        window_weeks: usize,
        migration: MigrationConfig,
    ) -> Result<LifecycleReport, FrameworkError> {
        assert!(window_weeks > 0, "window must cover at least one week");
        let first = apps.first().ok_or(FrameworkError::NoApplications)?;
        let weeks = first.demand().weeks();
        if weeks < window_weeks + 1 {
            return Err(FrameworkError::Trace(
                ropus_trace::TraceError::PartialWeek {
                    len: first.demand().len(),
                    per_week: (window_weeks + 1) * first.demand().calendar().slots_per_week(),
                },
            ));
        }

        let mut epochs = Vec::new();
        let mut previous_assignment: Option<Vec<usize>> = None;
        let calendar = first.demand().calendar();
        let slots_per_week = calendar.slots_per_week();

        // One streaming SLO engine across the whole run, so burn-rate
        // windows and error budgets carry over epoch boundaries.
        let mut slo = SloEngine::new(BurnRateRule::default_rules());
        for app in apps {
            slo.register(slo_contract(
                app.name(),
                &app.policy().normal,
                calendar.slot_minutes(),
            ));
        }

        for week in window_weeks..weeks {
            // Plan on the trailing window.
            let history: Result<Vec<AppSpec>, FrameworkError> = apps
                .iter()
                .map(|app| {
                    let demand = app.demand().weeks_range(week - window_weeks, week).ok_or(
                        FrameworkError::Trace(ropus_trace::TraceError::PartialWeek {
                            len: app.demand().len(),
                            per_week: app.demand().calendar().slots_per_week(),
                        }),
                    )?;
                    Ok(AppSpec::new(app.name(), demand, app.policy()))
                })
                .collect();
            let history = history?;
            let (plans, workloads, _) = self.translate_fleet(&history)?;
            let consolidator = ropus_placement::consolidate::Consolidator::new(
                self.server(),
                self.commitments(),
                self.options(),
            );
            let placement = consolidator.consolidate(&workloads, ObsCtx::none())?;

            // Under a paced config (and once a baseline exists), walk the
            // epoch's adjustment through the migration state machine;
            // otherwise the re-plan takes effect at the week's start.
            let (machine, windows) = match &previous_assignment {
                Some(prev) if !migration.is_teleport() => {
                    let names: Vec<&str> = apps.iter().map(AppSpec::name).collect();
                    let report = drive_epoch_moves(
                        prev,
                        &placement.assignment,
                        migration,
                        slots_per_week,
                        &names,
                    );
                    let windows = WeekWindows::paced(
                        prev,
                        &placement.assignment,
                        &report,
                        apps.len(),
                        slots_per_week,
                    );
                    (Some(report), windows)
                }
                _ => (
                    None,
                    WeekWindows::teleport(&placement.assignment, slots_per_week),
                ),
            };
            let util = self.replay_week(apps, &plans, &windows, week, slots_per_week)?;

            // Audit each stitched row against the normal contract and
            // stream it through the SLO engine slot-major, so the alert
            // log interleaves apps in global slot order.
            let mut violations = 0usize;
            for (row, app) in util.iter().zip(apps) {
                let stitched =
                    Trace::from_samples(calendar, row.clone()).map_err(FrameworkError::Trace)?;
                if !audit(&stitched, &app.policy().normal).is_compliant() {
                    violations += 1;
                }
            }
            let base = week * slots_per_week;
            for t in 0..slots_per_week {
                for (i, row) in util.iter().enumerate() {
                    if let Some(&u) = row.get(t) {
                        slo.observe(i, base + t, u, ObsCtx::none());
                    }
                }
            }
            let slo_alerts = slo.drain_alerts().len();

            let (migrations, rolled_back, failed) = match (&machine, &previous_assignment) {
                (Some(report), _) => (report.committed, report.rolled_back, report.failed),
                (None, Some(prev)) => (
                    prev.iter()
                        .zip(&placement.assignment)
                        .filter(|(a, b)| a != b)
                        .count(),
                    0,
                    0,
                ),
                (None, None) => (0, 0, 0),
            };
            previous_assignment = Some(placement.assignment.clone());
            epochs.push(EpochOutcome {
                week,
                servers: placement.servers_used,
                violations,
                compliant_fraction: 1.0 - violations as f64 / apps.len() as f64,
                migrations,
                rolled_back,
                failed,
                slo_alerts,
            });
        }

        Ok(LifecycleReport {
            window_weeks,
            epochs,
            slo: Some(slo.summary()),
        })
    }

    /// Replays the unseen week through every host that has a member
    /// window, modeling each server's member windows as residency and its
    /// reservation windows as capacity pressure. Returns every
    /// application's stitched utilization-of-allocation row for the week,
    /// in fleet order.
    fn replay_week(
        &self,
        apps: &[AppSpec],
        plans: &[AppPlan],
        windows: &WeekWindows,
        week: usize,
        slots_per_week: usize,
    ) -> Result<Vec<Vec<f64>>, FrameworkError> {
        let mut util: Vec<Vec<f64>> = vec![vec![0.0; slots_per_week]; apps.len()];
        for (members, reserved) in windows.members.iter().zip(&windows.reserved) {
            let segs: Vec<(usize, usize, usize)> =
                members.iter().copied().filter(|&(_, s, e)| s < e).collect();
            if segs.is_empty() {
                continue;
            }
            let build = |&(app, start, end): &(usize, usize, usize)| {
                // lint:allow(panic-slice-index): window builders only
                // emit apps of this fleet.
                let (a, plan) = (&apps[app], &plans[app]);
                let demand = a
                    .demand()
                    .weeks_range(week, week + 1)
                    // lint:allow(panic-expect): `week` iterates
                    // `window_weeks..weeks`, inside the trace.
                    .expect("week bounds checked by run_lifecycle");
                let policy = WlmPolicy::from_translation(&a.policy().normal, &plan.normal);
                HostedWorkload::new(a.name(), demand, policy).with_window(start, end)
            };
            let hosted: Vec<HostedWorkload> = segs.iter().map(build).collect();
            let reserved: Vec<HostedWorkload> = reserved
                .iter()
                .filter(|&&(_, s, e)| s < e)
                .map(build)
                .collect();
            let host = Host::new(self.server().capacity())?;
            let outcome = host.run_with_reservations(&hosted, &reserved, ObsCtx::none())?;
            // Stitch: each member window's utilization belongs to its
            // app for exactly those slots.
            for (wo, &(app, start, end)) in outcome.workloads.iter().zip(&segs) {
                let u = wo.utilization.samples();
                // lint:allow(panic-slice-index): windows are clamped to
                // `slots_per_week`, the length of both buffers.
                util[app][start..end].copy_from_slice(&u[start..end]);
            }
        }
        Ok(util)
    }
}

/// Per-server residency (member) and reservation windows of one
/// out-of-sample week, as `(app, start, end)` half-open slot ranges,
/// indexed by server id.
struct WeekWindows {
    members: Vec<Vec<(usize, usize, usize)>>,
    reserved: Vec<Vec<(usize, usize, usize)>>,
}

impl WeekWindows {
    /// A teleport epoch: every app is a full-week member on its new
    /// server and nothing is reserved. Members are listed in ascending
    /// app order, the order the placement reports each server's
    /// workloads in, so every host sums its members in that order.
    fn teleport(assignment: &[usize], slots_per_week: usize) -> Self {
        let server_count = assignment.iter().max().map_or(0, |m| m + 1);
        let mut members = vec![Vec::new(); server_count];
        for (app, &server) in assignment.iter().enumerate() {
            // lint:allow(panic-slice-index): server < server_count.
            members[server].push((app, 0, slots_per_week));
        }
        WeekWindows {
            members,
            reserved: vec![Vec::new(); server_count],
        }
    }

    /// A paced epoch: the machine's moves become residency and
    /// reservation windows (see [`segment_move`]); apps that did not move
    /// stay full-week members of their previous server.
    fn paced(
        prev: &[usize],
        assignment: &[usize],
        report: &MigrationReport,
        apps: usize,
        slots_per_week: usize,
    ) -> Self {
        let server_count = prev
            .iter()
            .chain(assignment.iter())
            .copied()
            .max()
            .map_or(0, |m| m + 1);
        let mut members = vec![Vec::new(); server_count];
        let mut reserved = vec![Vec::new(); server_count];
        let mut moved = vec![false; apps];
        for m in &report.moves {
            if m.app >= apps || m.to >= server_count {
                continue;
            }
            // lint:allow(panic-slice-index): m.app < apps checked above;
            // moved has one entry per app.
            moved[m.app] = true;
            segment_move(m, slots_per_week, &mut members, &mut reserved);
        }
        for (app, &server) in prev.iter().enumerate() {
            // lint:allow(panic-slice-index): prev and moved both have
            // one entry per app.
            if !moved[app] && server < server_count {
                // lint:allow(panic-slice-index): server < server_count.
                members[server].push((app, 0, slots_per_week));
            }
        }
        WeekWindows { members, reserved }
    }
}

/// Drives one epoch's assignment delta through the migration state
/// machine over an idealized week — no contention, healthy destinations
/// — bounded by the week's slot count. The storm caps, drain/transfer
/// costs, and backoffs still pace the wave; the caller's replay then
/// models the capacity impact of the resulting windows.
fn drive_epoch_moves(
    prev: &[usize],
    next: &[usize],
    config: MigrationConfig,
    max_slots: usize,
    names: &[&str],
) -> MigrationReport {
    let initial: Vec<Option<usize>> = prev.iter().map(|&s| Some(s)).collect();
    let target: Vec<Option<usize>> = next.iter().map(|&s| Some(s)).collect();
    let mut orch = MigrationOrchestrator::new(config, initial);
    orch.retarget(&target, &[], 0, None, ObsCtx::none());
    for slot in 0..max_slots {
        if orch.is_idle() {
            break;
        }
        orch.begin_slot(slot, ObsCtx::none());
        orch.complete_slot(slot, &[], &[], ObsCtx::none());
    }
    orch.report(names)
}

/// Converts one move's timeline into residency and reservation windows,
/// clamped to the week: the source serves until the cutover slot ends,
/// the destination is booked from drain start through cutover, and the
/// source stays booked through the health check (rollbacks hand serving
/// back and release both ends).
fn segment_move(
    m: &MoveRecord,
    slots_per_week: usize,
    member_segs: &mut [Vec<(usize, usize, usize)>],
    reserve_segs: &mut [Vec<(usize, usize, usize)>],
) {
    let clamp = |slot: usize| slot.min(slots_per_week);
    let mut serving = m.from;
    let mut seg_start = 0usize;
    let mut dest_res: Option<usize> = None;
    let mut src_res: Option<usize> = None;
    for p in &m.timeline {
        match p.phase {
            MigrationPhase::Draining | MigrationPhase::Transferring => {
                dest_res = dest_res.or(Some(p.slot));
            }
            MigrationPhase::Cutover => {
                let end = clamp(p.slot + 1);
                if let Some(s) = dest_res.take() {
                    // lint:allow(panic-slice-index): caller checked
                    // `m.to < server_count`.
                    reserve_segs[m.to].push((m.app, s, end));
                }
                if let Some(srv) = serving {
                    // lint:allow(panic-slice-index): `from` servers are
                    // drawn from the previous assignment.
                    member_segs[srv].push((m.app, seg_start, end));
                }
                if m.from.is_some() {
                    src_res = Some(end);
                }
                serving = Some(m.to);
                seg_start = end;
            }
            MigrationPhase::Committed => {
                if let (Some(s), Some(src)) = (src_res.take(), m.from) {
                    // lint:allow(panic-slice-index): see above.
                    reserve_segs[src].push((m.app, s, clamp(p.slot + 1)));
                }
            }
            MigrationPhase::RolledBack => {
                let end = clamp(p.slot + 1);
                if let Some(s) = dest_res.take() {
                    // lint:allow(panic-slice-index): see above.
                    reserve_segs[m.to].push((m.app, s, end));
                }
                if let Some(s) = src_res.take() {
                    if let Some(src) = m.from {
                        // lint:allow(panic-slice-index): see above.
                        reserve_segs[src].push((m.app, s, end));
                    }
                    // The destination served since cutover; rollback
                    // hands the app back to its source.
                    if let Some(srv) = serving {
                        // lint:allow(panic-slice-index): see above.
                        member_segs[srv].push((m.app, seg_start, end));
                    }
                    serving = m.from;
                    seg_start = end;
                }
            }
            _ => {}
        }
    }
    if let Some(s) = dest_res {
        // lint:allow(panic-slice-index): see above.
        reserve_segs[m.to].push((m.app, s, slots_per_week));
    }
    if let (Some(s), Some(src)) = (src_res, m.from) {
        // lint:allow(panic-slice-index): see above.
        reserve_segs[src].push((m.app, s, slots_per_week));
    }
    if let Some(srv) = serving {
        if seg_start < slots_per_week {
            // lint:allow(panic-slice-index): see above.
            member_segs[srv].push((m.app, seg_start, slots_per_week));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropus_placement::consolidate::ConsolidationOptions;
    use ropus_placement::server::ServerSpec;
    use ropus_qos::{AppQos, CosSpec, PoolCommitments, QosPolicy};
    use ropus_trace::gen::{case_study_fleet, FleetConfig};

    fn framework(seed: u64) -> Framework {
        Framework::builder()
            .server(ServerSpec::sixteen_way())
            .commitments(PoolCommitments::new(CosSpec::new(0.9, 60).unwrap()))
            .options(ConsolidationOptions::fast(seed))
            .build()
    }

    /// Fleet slice `[from, to)` of a `to`-app case-study fleet; indices
    /// 0-9 are bursty, 10+ smooth.
    fn fleet_specs(from: usize, to: usize, weeks: usize) -> Vec<AppSpec> {
        case_study_fleet(&FleetConfig {
            apps: to,
            weeks,
            ..FleetConfig::paper()
        })
        .into_iter()
        .skip(from)
        .map(|a| {
            AppSpec::new(
                a.name,
                a.trace,
                QosPolicy::uniform(AppQos::paper_default(Some(30))),
            )
        })
        .collect()
    }

    #[test]
    fn smooth_fleet_is_compliant_out_of_sample() {
        // Six *smooth* apps (the regime where the paper's trace-based
        // premise holds): 3 weeks of history, 2-week planning window, one
        // out-of-sample epoch (week 2 replayed on a weeks-0..2 plan).
        let apps = fleet_specs(10, 16, 3);
        let report = framework(1)
            .run_lifecycle(&apps, 2, MigrationConfig::teleport())
            .unwrap();
        assert_eq!(report.epochs.len(), 1);
        let epoch = &report.epochs[0];
        assert_eq!(epoch.week, 2);
        assert_eq!(epoch.migrations, 0, "first epoch has no baseline");
        assert!(
            epoch.compliant_fraction >= 0.8,
            "compliance {} with {} violations",
            epoch.compliant_fraction,
            epoch.violations
        );
        assert_eq!(report.worst_compliance(), epoch.compliant_fraction);
    }

    #[test]
    fn bursty_apps_can_violate_out_of_sample() {
        // The burstiest slice of the fleet: unseen-week spikes can exceed
        // the trailing window's peak, so out-of-sample compliance is NOT
        // guaranteed — the caveat behind the paper's "significant changes
        // in demand ... are best forecast by business units".
        let apps = fleet_specs(0, 6, 3);
        let report = framework(1)
            .run_lifecycle(&apps, 2, MigrationConfig::teleport())
            .unwrap();
        // No assertion that violations occur (seed-dependent), only that
        // the loop reports coherently.
        let epoch = &report.epochs[0];
        assert!(epoch.compliant_fraction >= 0.0 && epoch.compliant_fraction <= 1.0);
        assert_eq!(
            epoch.violations,
            ((1.0 - epoch.compliant_fraction) * apps.len() as f64).round() as usize
        );
    }

    #[test]
    fn multiple_epochs_count_migrations() {
        // 4 weeks, 1-week window: epochs for weeks 1, 2, 3.
        let apps = fleet_specs(10, 15, 4);
        let report = framework(2)
            .run_lifecycle(&apps, 1, MigrationConfig::teleport())
            .unwrap();
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(report.epochs[0].migrations, 0);
        // Determinism: re-running gives identical epochs.
        let again = framework(2)
            .run_lifecycle(&apps, 1, MigrationConfig::teleport())
            .unwrap();
        assert_eq!(report, again);
        assert_eq!(
            report.total_migrations(),
            report.epochs.iter().map(|e| e.migrations).sum::<usize>()
        );
    }

    #[test]
    fn teleport_windows_host_members_in_placement_order() {
        // The teleport epoch is the windowed replay's degenerate case: each
        // host must see exactly its placed members, full-week, in the
        // order the placement lists them, so its request sums associate
        // as a direct replay of the placement would.
        let apps = fleet_specs(0, 12, 1);
        let placement = framework(3).plan_normal_only(&apps).unwrap();
        assert!(placement.servers_used >= 2, "fixture must span servers");
        let windows = WeekWindows::teleport(&placement.assignment, 2016);
        let mut hosting = 0;
        for (server, members) in windows.members.iter().enumerate() {
            let listed: Vec<usize> = members.iter().map(|&(app, _, _)| app).collect();
            match placement.servers.iter().find(|sp| sp.server == server) {
                Some(sp) => {
                    assert_eq!(listed, sp.workloads, "server {server}");
                    hosting += 1;
                }
                None => assert!(listed.is_empty(), "server {server} hosts nothing"),
            }
            assert!(members.iter().all(|&(_, s, e)| (s, e) == (0, 2016)));
        }
        assert_eq!(hosting, placement.servers_used);
        assert!(windows.reserved.iter().all(Vec::is_empty));
    }

    #[test]
    fn paced_config_drives_epoch_moves_through_the_machine() {
        let apps = fleet_specs(0, 8, 4);
        let plain = framework(2)
            .run_lifecycle(&apps, 1, MigrationConfig::teleport())
            .unwrap();
        let paced = framework(2)
            .run_lifecycle(&apps, 1, MigrationConfig::paced().with_max_in_flight(1))
            .unwrap();
        assert_eq!(paced.epochs.len(), plain.epochs.len());
        // Same plans are produced either way, so committed moves can
        // never exceed the re-plan deltas the teleport path counts.
        for (p, t) in paced.epochs.iter().zip(&plain.epochs) {
            assert_eq!(p.week, t.week);
            assert_eq!(p.servers, t.servers);
            assert!(
                p.migrations + p.failed <= t.migrations,
                "week {}: {} committed + {} failed > {} deltas",
                p.week,
                p.migrations,
                p.failed,
                t.migrations
            );
        }
        // Determinism of the paced path.
        let again = framework(2)
            .run_lifecycle(&apps, 1, MigrationConfig::paced().with_max_in_flight(1))
            .unwrap();
        assert_eq!(paced, again);
    }

    #[test]
    fn lifecycle_reports_streaming_slo_attainment() {
        let apps = fleet_specs(10, 15, 4);
        let report = framework(2)
            .run_lifecycle(&apps, 1, MigrationConfig::teleport())
            .unwrap();
        let slo = report.slo.as_ref().expect("replay always attaches slo");
        assert_eq!(slo.apps.len(), apps.len());
        let slots_per_week = 2016; // five-minute calendar
        for a in &slo.apps {
            assert_eq!(
                a.samples,
                report.epochs.len() * slots_per_week,
                "every out-of-sample slot is observed"
            );
        }
        assert_eq!(
            report.epochs.iter().map(|e| e.slo_alerts).sum::<usize>(),
            slo.alerts.len(),
            "per-epoch alert counts partition the alert log"
        );
    }

    #[test]
    fn insufficient_history_is_rejected() {
        let apps = fleet_specs(0, 3, 2);
        assert!(matches!(
            framework(0).run_lifecycle(&apps, 2, MigrationConfig::teleport()),
            Err(FrameworkError::Trace(_))
        ));
        assert!(matches!(
            framework(0).run_lifecycle(&[], 1, MigrationConfig::teleport()),
            Err(FrameworkError::NoApplications)
        ));
    }
}
