//! Criterion benchmarks of the fault-injection replay: the per-slot
//! degraded-mode simulation that turns a placement plus a failure
//! schedule into a `ChaosReport`.
//!
//! Planning is benched separately (`placement.rs`); here the placement
//! is computed once in setup and only `chaos_replay_on_with` is measured, at
//! one and four worker threads, plus the stochastic schedule draw that
//! feeds it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ropus::prelude::*;

fn policy() -> QosPolicy {
    QosPolicy {
        normal: AppQos::paper_default(Some(30)),
        failure: AppQos::paper_default(None),
    }
}

fn framework(threads: usize) -> Framework {
    Framework::builder()
        .server(ServerSpec::sixteen_way())
        .commitments(PoolCommitments::new(
            CosSpec::new(0.9, 60).expect("valid CoS spec"),
        ))
        .options(ConsolidationOptions::fast(9).with_threads(threads))
        .failure_scope(FailureScope::AllApplications)
        .build()
}

fn apps(n: usize) -> Vec<AppSpec> {
    case_study_fleet(&FleetConfig {
        apps: n,
        weeks: 1,
        ..FleetConfig::paper()
    })
    .into_iter()
    .map(|a| AppSpec::new(a.name, a.trace, policy()))
    .collect()
}

fn bench_replay_scripted(c: &mut Criterion) {
    let apps = apps(12);
    let mut group = c.benchmark_group("chaos_replay_scripted_12_apps");
    for threads in [1usize, 4] {
        let fw = framework(threads);
        let placement = fw.plan_normal_only(&apps).expect("placement succeeds");
        // One 3-hour outage of the first placed server, mid-week.
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: placement.servers[0].server,
            start: 1008,
            duration: 36,
        }])
        .expect("valid schedule");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{threads}_threads")),
            &threads,
            |b, _| {
                b.iter(|| {
                    black_box(
                        fw.chaos_replay_on_with(
                            black_box(&apps),
                            black_box(&placement),
                            black_box(&schedule),
                            DegradationPolicy::default(),
                            None,
                        )
                        .expect("replay succeeds"),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_stochastic_draw(c: &mut Criterion) {
    let horizon = Calendar::five_minute().slots_per_week();
    c.bench_function("chaos_schedule_stochastic_8_servers", |b| {
        b.iter(|| {
            black_box(
                FailureSchedule::stochastic(
                    &StochasticProfile {
                        seed: 42,
                        mtbf_slots: 700,
                        mttr_slots: 48,
                    },
                    black_box(8),
                    black_box(horizon),
                )
                .expect("draw succeeds"),
            )
        })
    });
}

criterion_group!(benches, bench_replay_scripted, bench_stochastic_draw);
criterion_main!(benches);
