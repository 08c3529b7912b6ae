//! `serve-churn-1k`: one closed-loop client driving `Daemon` directly.
//!
//! Set-up (untimed, but reported as `setup_s`) admits 1,000 generated
//! apps with their sample traces. Each repetition is one round of 50
//! admit+depart pairs at constant population, a `tick` after every 10th
//! admit or depart, and a teleport `migrate` every 50 pairs to the first
//! other server that fits the app. A run makes at least 20 rounds
//! (1,000 pairs). Short rounds give a run many repetitions to take the
//! median of.

use std::collections::{BTreeMap, VecDeque};

use ropus::prelude::*;
use ropus_trace::Calendar;

use crate::spans::Tracer;
use crate::{busy_median, fleet, pool, repeat, stats, timed_setup, Mix, Opts, Outcome, THREADS};

/// Admits and departs between ticks.
const TICK_EVERY: u64 = 10;
/// Pairs between migrations.
const MIGRATE_EVERY: usize = 50;

/// The daemon plus the client's view of who is resident.
struct Pool {
    daemon: Daemon,
    /// Every generated app's name and offered demand.
    apps: Vec<(String, DemandSpec)>,
    /// Indices of resident apps.
    live: Vec<usize>,
    /// Indices of apps waiting to arrive, in arrival order.
    idle: VecDeque<usize>,
    /// Generated apps dropped because the planner cannot take them.
    screened: usize,
}

fn setup(opts: &Opts) -> Result<Pool, String> {
    let size = opts.size;
    let (server, commitments) = pool();
    let mut config = DaemonConfig::new(
        server,
        commitments,
        crate::policy().normal,
        Calendar::five_minute(),
    );
    config.threads = THREADS;
    let mut daemon = Daemon::new(config);
    let (fleet, screened) = fleet(opts.seed, size.serve_apps + size.serve_spare, 1);
    let apps: Vec<(String, DemandSpec)> = fleet
        .into_iter()
        .map(|a| {
            let samples = a.demand().samples().to_vec();
            (a.name().to_string(), DemandSpec::Samples(samples))
        })
        .collect();
    if apps.len() <= size.serve_apps {
        return Err(format!("only {} plannable apps generated", apps.len()));
    }
    for (name, demand) in &apps[..size.serve_apps] {
        let r = daemon.admit(name, demand, ObsCtx::none());
        if r.decision.as_deref() != Some("accepted") {
            return Err(format!("set-up admit of {name} was not accepted: {r:?}"));
        }
    }
    Ok(Pool {
        daemon,
        live: (0..size.serve_apps).collect(),
        idle: (size.serve_apps..apps.len()).collect(),
        apps,
        screened,
    })
}

/// Command tallies over the timed phase.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    admits: u64,
    accepted: u64,
    /// Admits and departs issued, for the tick cadence.
    churn: u64,
    /// SLO samples the ticks fed: one per resident (watched) app per tick.
    slo_samples: u64,
}

impl Tally {
    fn count(&mut self, response: &Response, refused: bool) {
        self.attempted += 1;
        if !response.ok || refused {
            self.failed += 1;
        }
    }
}

pub fn run(opts: &Opts, tracer: &mut Tracer) -> Result<Outcome, String> {
    let size = opts.size;
    let (mut pool, setup_s) = timed_setup(size.setups[1], || setup(opts))?;
    let before = pool.daemon.stats();
    let mut mix = Mix::new(opts.seed, 0x5e7e);
    let mut tally = Tally::default();
    let mut population_held = true;

    let reps = repeat(opts, size.serve_min_rounds, tracer, |tracer| {
        let obs = if tracer.is_on() {
            Obs::wall()
        } else {
            Obs::off()
        };
        for pair in 0..size.serve_pairs {
            round_pair(&mut pool, &mut mix, &mut tally, pair, tracer, (&obs).into())?;
        }
        population_held &= pool.daemon.session_mut().len() == size.serve_apps
            && pool.daemon.queued_names().is_empty();
        Ok(())
    })?;
    let after = pool.daemon.stats();

    let mut out = Outcome {
        correct: population_held,
        attempted: tally.attempted,
        failed: tally.failed,
        values: BTreeMap::new(),
    };
    out.values.insert("setup_s", setup_s);
    reps.record(&mut out);
    let v = &mut out.values;
    for (metric, span) in [
        ("core.daemon.admit_s", "core.daemon.admit"),
        ("core.daemon.depart_s", "core.daemon.depart"),
        ("core.daemon.tick_s", "core.daemon.tick"),
        ("core.daemon.migrate_s", "core.daemon.migrate"),
    ] {
        v.insert(metric, busy_median(tracer, span));
    }
    for (span, [p50, tail, pct, samples]) in [
        (
            "core.daemon.admit",
            [
                "core.daemon.admit_p50_ms",
                "core.daemon.admit_tail_ms",
                "core.daemon.admit_tail_pct",
                "core.daemon.admit_samples",
            ],
        ),
        (
            "core.daemon.tick",
            [
                "core.daemon.tick_p50_ms",
                "core.daemon.tick_tail_ms",
                "core.daemon.tick_tail_pct",
                "core.daemon.tick_samples",
            ],
        ),
    ] {
        let ms: Vec<f64> = tracer.durations(span).iter().map(|s| s * 1e3).collect();
        v.insert(p50, stats::median(&ms));
        v.insert(samples, ms.len() as f64);
        if let Some(t) = stats::tail(&ms) {
            v.insert(tail, t.value);
            v.insert(pct, t.pct);
        }
    }
    let rounds = (reps.plain.len() + reps.traced.len()) as f64;
    let ticks = (after.ticks - before.ticks) as f64;
    let cmds_per_round = tally.attempted as f64 / rounds;
    v.insert(
        "core.daemon.cmds_per_s",
        cmds_per_round / stats::median(&reps.plain),
    );
    if tally.admits > 0 {
        v.insert(
            "core.daemon.accept_ratio",
            tally.accepted as f64 / tally.admits as f64,
        );
    }
    v.insert("core.daemon.queued", (after.queued - before.queued) as f64);
    v.insert(
        "core.daemon.retries",
        (after.retries - before.retries) as f64,
    );
    if ticks > 0.0 {
        v.insert(
            "placement.session.recomputes",
            (after.recomputes - before.recomputes) as f64 / ticks,
        );
    }
    v.insert(
        "placement.session.servers",
        pool.daemon.session_mut().server_count() as f64,
    );
    v.insert("obs.slo.samples", tally.slo_samples as f64 / rounds);
    v.insert("bench.screened_apps", pool.screened as f64);
    Ok(out)
}

/// One admit+depart pair, plus the tick and migration they fall due for.
fn round_pair(
    pool: &mut Pool,
    mix: &mut Mix,
    tally: &mut Tally,
    pair: usize,
    tracer: &mut Tracer,
    obs: ObsCtx<'_>,
) -> Result<(), String> {
    let arriving = pool.idle.pop_front().ok_or("no app waiting to arrive")?;
    let (name, demand) = &pool.apps[arriving];
    let daemon = &mut pool.daemon;
    let r = tracer.span("core.daemon.admit", |_| daemon.admit(name, demand, obs));
    let accepted = r.decision.as_deref() == Some("accepted");
    tally.count(&r, !accepted);
    tally.admits += 1;
    tally.accepted += u64::from(accepted);
    churn_tick(pool, tally, tracer, obs);

    let leaving = pool.live.swap_remove(mix.below(pool.live.len()));
    let daemon = &mut pool.daemon;
    let r = tracer.span("core.daemon.depart", |_| {
        daemon.depart(&pool.apps[leaving].0, obs)
    });
    tally.count(&r, false);
    pool.idle.push_back(leaving);
    if accepted {
        pool.live.push(arriving);
    } else {
        pool.idle.push_back(arriving);
    }
    churn_tick(pool, tally, tracer, obs);

    if pair % MIGRATE_EVERY == MIGRATE_EVERY - 1 {
        migrate_one(pool, mix, tally, tracer, obs)?;
    }
    Ok(())
}

/// Counts one admit or depart and ticks after every [`TICK_EVERY`]th.
fn churn_tick(pool: &mut Pool, tally: &mut Tally, tracer: &mut Tracer, obs: ObsCtx<'_>) {
    tally.churn += 1;
    if tally.churn.is_multiple_of(TICK_EVERY) {
        let daemon = &mut pool.daemon;
        tally.slo_samples += daemon.session_mut().len() as u64;
        let r = tracer.span("core.daemon.tick", |_| daemon.tick(1, obs));
        tally.count(&r, false);
    }
}

/// Teleports a random resident app to the first other server, scanning
/// from a random start, whose probe says it fits.
fn migrate_one(
    pool: &mut Pool,
    mix: &mut Mix,
    tally: &mut Tally,
    tracer: &mut Tracer,
    obs: ObsCtx<'_>,
) -> Result<(), String> {
    let name = &pool.apps[pool.live[mix.below(pool.live.len())]].0;
    let session = pool.daemon.session_mut();
    let id = session
        .find(name)
        .ok_or("resident app not in the session")?;
    let from = session.assignment_of(id);
    // Probe with a renamed copy: the session refuses to probe a resident
    // app under its own name.
    let resident = session.workload(id).ok_or("resident app has no workload")?;
    let workload = Workload::new(
        format!("{name}.move"),
        resident.cos1().clone(),
        resident.cos2().clone(),
    )
    .map_err(|e| e.to_string())?;
    let servers = session.server_count();
    let start = mix.below(servers);
    let mut target = None;
    for k in 0..servers {
        let s = (start + k) % servers;
        if Some(s) != from
            && session
                .probe(&workload, s)
                .map_err(|e| e.to_string())?
                .is_some()
        {
            target = Some(s);
            break;
        }
    }
    // No other server fits: open a fresh one.
    let target = target.unwrap_or(servers);
    let daemon = &mut pool.daemon;
    let r = tracer.span("core.daemon.migrate", |_| daemon.migrate(name, target, obs));
    tally.count(&r, r.decision.as_deref() != Some("committed"));
    Ok(())
}
