//! `plan-100`: one `Framework::plan` per repetition on a 100-app × 1-week
//! fleet — the `ropus plan --fast --threads 2` batch command.
//!
//! The failure sweep re-consolidates once per used server, so plan time
//! grows with the square of the server count, and 100-app fleets drawn
//! from different seeds pack onto 24 to 28 servers. Set-up therefore
//! draws [`CANDIDATES`] fleets from the seed and plans the first whose
//! normal placement uses exactly [`Size::plan_servers`](crate::Size)
//! servers, or else the closest: every seed plans a problem of one size.
//!
//! Traced repetitions run the same pipeline as its three public stages
//! (`translate_fleet` → `consolidate` → `analyze_single_failures`) inside
//! the benchmark's spans, with an `Obs::wall()` collector attached so the
//! product's own `placement.seed/search/report` spans can be read back.

use std::collections::BTreeMap;

use ropus::prelude::*;
use ropus::CapacityPlan;
use ropus_placement::failure::analyze_single_failures;
use ropus_qos::analysis::FleetSavings;

use crate::spans::Tracer;
use crate::{busy_median, digest, fleet, framework, obs_span_secs, repeat, stats, timed_setup};
use crate::{Mix, Opts, Outcome};

/// Fleets drawn per set-up. All are placed, whichever matches, so set-up
/// costs the same for every seed.
const CANDIDATES: u64 = 6;

/// Per-layer values of one traced repetition that the product reports.
type Layers = BTreeMap<&'static str, f64>;

pub fn run(opts: &Opts, tracer: &mut Tracer) -> Result<Outcome, String> {
    let size = opts.size;
    let fw = framework();
    let ((apps, screened), setup_s) = timed_setup(size.setups[0], || setup(opts, &fw))?;

    let mut digests = Vec::new();
    let mut first: Option<CapacityPlan> = None;
    let mut traced_layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let reps = repeat(opts, 2, tracer, |tracer| {
        let plan = if tracer.is_on() {
            let (plan, layers) = traced_plan(&fw, &apps, tracer)?;
            for (name, value) in layers {
                traced_layers.entry(name).or_default().push(value);
            }
            plan
        } else {
            fw.plan(&apps).map_err(|e| format!("plan: {e}"))?
        };
        digests.push(plan_digest(&plan)?);
        first.get_or_insert(plan);
        Ok(())
    })?;
    let plan = first.ok_or("no repetition ran")?;

    let mut out = Outcome {
        // Every repetition — `Framework::plan` and the traced three-stage
        // decomposition alike — must yield the same plan.
        correct: digests.windows(2).all(|w| w[0] == w[1]) && plan_is_sane(&plan, apps.len()),
        attempted: digests.len() as u64,
        failed: 0,
        values: BTreeMap::new(),
    };
    out.values.insert("setup_s", setup_s);
    reps.record(&mut out);

    let v = &mut out.values;
    v.insert("bench.screened_apps", screened as f64);
    v.insert("placement.plan_servers", plan.normal_servers() as f64);
    v.insert(
        "placement.plan_required_cpus",
        plan.normal_placement.required_capacity_total,
    );
    let cases = &plan.failure_analysis.cases;
    v.insert("placement.failure.cases", cases.len() as f64);
    if !cases.is_empty() {
        let supported = cases.iter().filter(|c| c.is_supported()).count();
        v.insert(
            "placement.failure.supported_ratio",
            supported as f64 / cases.len() as f64,
        );
    }
    for (metric, span) in [
        ("qos.translate_fleet_s", "qos.translate_fleet"),
        ("placement.consolidate_s", "placement.consolidate"),
        ("placement.failure_sweep_s", "placement.failure_sweep"),
    ] {
        v.insert(metric, busy_median(tracer, span));
    }
    for (name, values) in &traced_layers {
        v.insert(name, stats::median(values));
    }
    Ok(out)
}

/// The fleet to plan and how many generated apps it dropped: of
/// [`CANDIDATES`] seeded fleets, the first whose normal placement is
/// closest to `plan_servers` servers.
fn setup(opts: &Opts, fw: &Framework) -> Result<(Vec<AppSpec>, usize), String> {
    let size = opts.size;
    let mut best: Option<(usize, (Vec<AppSpec>, usize))> = None;
    for candidate in 0..CANDIDATES {
        let seed = match candidate {
            0 => opts.seed,
            c => Mix::new(opts.seed, c).next_u64(),
        };
        let drawn = fleet(seed, size.plan_apps, size.plan_weeks);
        let servers = fw
            .plan_normal_only(&drawn.0)
            .map_err(|e| format!("normal placement: {e}"))?
            .servers_used;
        let miss = servers.abs_diff(size.plan_servers);
        if best.as_ref().is_none_or(|(m, _)| miss < *m) {
            best = Some((miss, drawn));
        }
    }
    best.map(|(_, drawn)| drawn)
        .ok_or_else(|| "no fleet drawn".to_string())
}

/// The pipeline as its three public stages, each inside a span.
fn traced_plan(
    fw: &Framework,
    apps: &[AppSpec],
    tracer: &mut Tracer,
) -> Result<(CapacityPlan, Layers), String> {
    let obs = Obs::wall();
    let (plans, normal, failure) = tracer
        .span("qos.translate_fleet", |_| {
            fw.translate_fleet(PlanRequest::of(apps).with_obs(&obs))
        })
        .map_err(|e| format!("translate: {e}"))?;
    let consolidator = Consolidator::new(fw.server(), fw.commitments(), fw.options());
    let normal_placement = tracer
        .span("placement.consolidate", |_| {
            consolidator.consolidate(&normal, (&obs).into())
        })
        .map_err(|e| format!("consolidate: {e}"))?;
    let failure_analysis = tracer
        .span("placement.failure_sweep", |_| {
            analyze_single_failures(
                &consolidator,
                &normal_placement,
                &normal,
                &failure,
                fw.failure_scope(),
            )
        })
        .map_err(|e| format!("failure sweep: {e}"))?;
    let savings = FleetSavings::aggregate(&plans.iter().map(|p| p.normal).collect::<Vec<_>>());

    let report = obs.report();
    let stats = normal_placement.stats;
    let layers = Layers::from([
        ("placement.seed_s", obs_span_secs(&report, "placement.seed")),
        (
            "placement.search_s",
            obs_span_secs(&report, "placement.search"),
        ),
        (
            "placement.report_s",
            obs_span_secs(&report, "placement.report"),
        ),
        ("placement.engine.evaluations", stats.evaluations as f64),
        ("placement.engine.hit_ratio", stats.hit_rate()),
        ("placement.search.generations", stats.generations as f64),
    ]);
    let plan = CapacityPlan {
        apps: plans,
        normal_placement,
        failure_analysis,
        savings,
    };
    Ok((plan, layers))
}

/// Digest of the plan's JSON with the engine statistics (which vary with
/// thread timing) and obs snapshots stripped.
fn plan_digest(plan: &CapacityPlan) -> Result<u64, String> {
    let mut plan = plan.clone();
    let placements = std::iter::once(&mut plan.normal_placement).chain(
        plan.failure_analysis
            .cases
            .iter_mut()
            .filter_map(|c| c.placement.as_mut()),
    );
    for p in placements {
        p.stats = EngineStats::default();
        p.obs = None;
    }
    let json = serde_json::to_string(&plan).map_err(|e| format!("serialize plan: {e}"))?;
    Ok(digest(json.as_bytes()))
}

/// Structural checks: every app placed, one failure case per used server.
fn plan_is_sane(plan: &CapacityPlan, apps: usize) -> bool {
    let placement = &plan.normal_placement;
    plan.apps.len() == apps
        && placement.assignment.len() == apps
        && placement.servers_used >= 1
        && plan.failure_analysis.cases.len() == placement.servers_used
}
