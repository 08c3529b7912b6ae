//! `chaos-100x1w`: `chaos_replay_on_with` on a 100-app × 1-week fleet.
//!
//! Set-up computes the normal placement and draws the failure schedule
//! from the run's seed: MTBF 336 h and MTTR 4 h per used server, drawn
//! until the schedule holds 24 distinct failed-server sets. Each
//! repetition is one replay with paced migrations capped at 4 in flight.

use std::collections::BTreeMap;

use ropus::prelude::*;
use ropus_chaos::DegradationPolicy;
use ropus_obs::names::SLO_SAMPLES;
use ropus_placement::consolidate::PlacementReport;

use crate::spans::Tracer;
use crate::{busy_median, digest, fleet, framework, obs_span_secs, repeat, stats, timed_setup};
use crate::{Mix, Opts, Outcome};

/// Mean time between failures per server, in hours.
const MTBF_HOURS: usize = 336;
/// Mean time to repair, in hours.
const MTTR_HOURS: usize = 4;
/// Storm cap on concurrent moves.
const MAX_IN_FLIGHT: usize = 4;
/// Survivor re-plans per replay. The replay re-plans once per distinct
/// set of failed servers, and those re-plans are the bulk of its time.
/// How many sets one draw yields depends on the seed (from under 20 to
/// over 50 over four weeks), so the schedule is built from successive
/// draws to exactly this many (see [`schedule`]) and the work is alike
/// across seeds.
const REPLANS: usize = 24;
/// Draws tried before settling for fewer re-plans.
const MAX_DRAWS: u64 = 64;

struct Inputs {
    apps: Vec<AppSpec>,
    screened: usize,
    placement: PlacementReport,
    schedule: FailureSchedule,
}

fn setup(opts: &Opts, fw: &Framework) -> Result<Inputs, String> {
    let size = opts.size;
    let (apps, screened) = fleet(opts.seed, size.chaos_apps, size.chaos_weeks);
    let placement = fw
        .plan_normal_only(&apps)
        .map_err(|e| format!("normal placement: {e}"))?;
    let horizon = apps[0].demand().len();
    let slots_per_hour = apps[0].demand().calendar().slots_in_minutes(60);
    let servers: Vec<usize> = placement.servers.iter().map(|p| p.server).collect();
    let schedule = schedule(opts.seed, slots_per_hour, &servers, horizon)?;
    Ok(Inputs {
        apps,
        screened,
        placement,
        schedule,
    })
}

pub fn run(opts: &Opts, tracer: &mut Tracer) -> Result<Outcome, String> {
    let fw = framework();
    let (inputs, setup_s) = timed_setup(opts.size.setups[2], || setup(opts, &fw))?;
    let migration = Some(MigrationConfig::paced().with_max_in_flight(MAX_IN_FLIGHT));

    let mut digests = Vec::new();
    let mut first: Option<ChaosReport> = None;
    // Per traced replay, from the product's obs: re-plan seconds, slot-loop
    // seconds, infeasible degraded segments, SLO samples.
    let mut product: Vec<[f64; 4]> = Vec::new();
    let reps = repeat(opts, 2, tracer, |tracer| {
        let obs = if tracer.is_on() {
            Obs::wall()
        } else {
            Obs::off()
        };
        let mut report = tracer
            .span("chaos.replay", |_| {
                fw.chaos_replay_on_with(
                    PlanRequest::of(&inputs.apps).with_obs(&obs),
                    &inputs.placement,
                    &inputs.schedule,
                    DegradationPolicy::default(),
                    migration,
                )
            })
            .map_err(|e| format!("replay: {e}"))?;
        if tracer.is_on() {
            let r = obs.report();
            product.push([
                obs_span_secs(&r, "chaos.replay.plan_segments"),
                obs_span_secs(&r, "chaos.replay.slots"),
                r.counter("chaos.replay.infeasible_segments") as f64,
                r.counter(SLO_SAMPLES) as f64,
            ]);
        }
        report.obs = None;
        let json = serde_json::to_string(&report).map_err(|e| format!("serialize: {e}"))?;
        digests.push(digest(json.as_bytes()));
        first.get_or_insert(report);
        Ok(())
    })?;
    let report = first.ok_or("no repetition ran")?;

    let mut out = Outcome {
        // Every replay of the same inputs must produce the same report,
        // and each app's balance sheet must close.
        correct: digests.windows(2).all(|w| w[0] == w[1]) && balances(&report),
        attempted: digests.len() as u64,
        failed: 0,
        values: BTreeMap::new(),
    };
    out.values.insert("setup_s", setup_s);
    reps.record(&mut out);

    let v = &mut out.values;
    let horizon = inputs.apps[0].demand().len();
    let degraded = inputs
        .schedule
        .segments(horizon)
        .iter()
        .filter(|s| s.is_degraded())
        .count();
    let replans = failed_sets(&inputs.schedule, horizon);
    v.insert("bench.screened_apps", inputs.screened as f64);
    v.insert("chaos.replay_s", busy_median(tracer, "chaos.replay"));
    let column = |k: usize| stats::median(&product.iter().map(|p| p[k]).collect::<Vec<_>>());
    v.insert("chaos.plan_segments_s", column(0));
    v.insert("chaos.slots_s", column(1));
    v.insert("obs.slo.samples", column(3));
    v.insert("chaos.replans", replans as f64);
    // The product counts infeasible re-plans per degraded segment.
    if degraded > 0 && !product.is_empty() {
        v.insert(
            "chaos.replan_feasible_ratio",
            1.0 - column(2) / degraded as f64,
        );
    }
    if report.demand_total > 0.0 {
        v.insert(
            "chaos.unserved_frac",
            (report.demand_total - report.served_total) / report.demand_total,
        );
    }
    if let Some(m) = &report.migration {
        v.insert("chaos.migration.committed", m.committed as f64);
        v.insert("chaos.migration.rolled_back", m.rolled_back as f64);
        v.insert("chaos.migration.deferred_slots", m.deferred_slots as f64);
        v.insert("chaos.migration.peak_in_flight", m.peak_in_flight as f64);
    }
    Ok(out)
}

/// A seeded outage schedule over `servers` with exactly [`REPLANS`]
/// distinct failed sets. Outages come from successive seeded MTBF/MTTR
/// draws, in each draw's time order. An outage is kept when it does not
/// touch another on the same server and does not take the schedule past
/// [`REPLANS`] sets.
fn schedule(
    seed: u64,
    slots_per_hour: usize,
    servers: &[usize],
    horizon: usize,
) -> Result<FailureSchedule, String> {
    let mut kept: Vec<FailureEvent> = Vec::new();
    let mut schedule = FailureSchedule::none();
    for draw in 0..MAX_DRAWS {
        let profile = StochasticProfile {
            seed: Mix::new(seed, draw).next_u64(),
            mtbf_slots: MTBF_HOURS * slots_per_hour,
            mttr_slots: MTTR_HOURS * slots_per_hour,
        };
        let events = FailureSchedule::stochastic(&profile, servers.len(), horizon)
            .map_err(|e| format!("schedule: {e}"))?;
        for e in events.events() {
            // The draw numbers servers 0..n; name the placement's servers.
            let e = FailureEvent {
                server: servers[e.server],
                ..*e
            };
            let touches =
                |k: &FailureEvent| k.server == e.server && k.start <= e.end() && e.start <= k.end();
            if kept.iter().any(touches) {
                continue;
            }
            kept.push(e);
            let candidate =
                FailureSchedule::scripted(kept.clone()).map_err(|e| format!("schedule: {e}"))?;
            match failed_sets(&candidate, horizon) {
                n if n > REPLANS => {
                    kept.pop();
                }
                n => {
                    schedule = candidate;
                    if n == REPLANS {
                        return Ok(schedule);
                    }
                }
            }
        }
    }
    Ok(schedule)
}

/// Distinct failed-server sets over the degraded segments: one survivor
/// re-plan each.
fn failed_sets(schedule: &FailureSchedule, horizon: usize) -> usize {
    let mut sets: Vec<Vec<usize>> = schedule
        .segments(horizon)
        .into_iter()
        .filter(|s| s.is_degraded())
        .map(|s| s.failed)
        .collect();
    sets.sort();
    sets.dedup();
    sets.len()
}

/// Served + shed + still-backlogged demand equals offered demand per app.
fn balances(report: &ChaosReport) -> bool {
    report.apps.iter().all(|a| {
        let balance = a.served_total() + a.shed + a.backlog_remaining;
        (balance - a.demand_total).abs() <= 1e-6 * a.demand_total.max(1.0)
    })
}
