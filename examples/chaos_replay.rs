//! Fault-injection replay: what does a server outage *feel like*?
//!
//! The static planner (§VII) asks whether the survivors could absorb a
//! failure. This example replays an actual outage over the demand traces:
//! a mid-week failure takes a server down for three hours, the displaced
//! applications are re-placed onto the survivors under failure-mode QoS,
//! unserved demand is carried over within the CoS2 deadline, and the
//! report measures compliance, migrations, shed demand, and
//! time-to-recover.
//!
//! Run with: `cargo run --release -p ropus --example chaos_replay`

use ropus::prelude::*;

fn main() -> Result<(), FrameworkError> {
    let fleet = case_study_fleet(&FleetConfig {
        apps: 16,
        weeks: 1,
        ..FleetConfig::paper()
    });
    let policy = QosPolicy {
        normal: AppQos::paper_default(Some(30)),
        failure: AppQos::paper_default(None),
    };
    let framework = Framework::builder()
        .server(ServerSpec::sixteen_way())
        .commitments(PoolCommitments::new(CosSpec::new(0.9, 60)?))
        .options(ConsolidationOptions::fast(11))
        .failure_scope(FailureScope::AllApplications)
        .build();
    let apps: Vec<AppSpec> = fleet
        .into_iter()
        .map(|app| AppSpec::new(app.name, app.trace, policy))
        .collect();

    let placement = framework.plan_normal_only(&apps)?;
    println!(
        "normal mode: {} apps on {} servers",
        apps.len(),
        placement.servers_used
    );

    // Scripted scenario: the busiest server dies Wednesday afternoon for
    // three hours (36 five-minute slots).
    let horizon = apps[0].demand().len();
    let victim = placement.servers[0].server;
    let schedule = FailureSchedule::scripted(vec![FailureEvent {
        server: victim,
        start: horizon / 2,
        duration: 36,
    }])?;

    let report = framework.chaos_replay_on_with(
        &apps,
        &placement,
        &schedule,
        DegradationPolicy::default(),
        None,
    )?;

    println!(
        "outage: server {victim} down for {} slots ({} degraded slots total)",
        36, report.degraded_slots
    );
    for w in &report.windows {
        println!(
            "window [{}, {}): failed {:?}, {} displaced, {} migrations, {:.2} CPU·slots shed, recovery {}",
            w.start,
            w.end,
            w.failed,
            w.displaced,
            w.migrations,
            w.shed,
            match w.recovery_slots {
                Some(r) => format!("{r} slot(s)"),
                None => "not reached".to_string(),
            }
        );
    }

    println!(
        "\n{:<10} {:>9} {:>9} {:>7} {:>6} {:>8} {:>8}",
        "app", "demand", "served", "late", "shed", "migr", "degrOK"
    );
    for a in &report.apps {
        println!(
            "{:<10} {:>9.1} {:>9.1} {:>7.1} {:>6.1} {:>8} {:>8}",
            a.name,
            a.demand_total,
            a.served_total(),
            a.served_late,
            a.shed,
            a.migrations,
            if a.degraded_compliant() { "yes" } else { "NO" }
        );
    }

    println!(
        "\nfleet: {:.1}% of demand shed, {} migrations, degraded compliance: {}",
        100.0 * report.shed_fraction(),
        report.migrations_total,
        if report.all_degraded_compliant() {
            "every app within failure-mode QoS"
        } else {
            "VIOLATED"
        }
    );
    Ok(())
}
