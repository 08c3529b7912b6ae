//! Criterion benchmarks of the serve-mode incremental re-fit: the cost
//! of one daemon tick (a single-workload delta refreshed through
//! `EngineSession`) against a cold full re-plan of the same 50-app pool.
//!
//! The acceptance bar for the online planner is a per-tick latency at
//! least 10× below the full re-plan — the delta path recomputes one
//! touched server where the cold path re-sums and re-searches every
//! server in the pool. Results are recorded in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ropus::case_study::{translate_fleet, CaseConfig};
use ropus_placement::server::ServerSpec;
use ropus_placement::session::EngineSession;
use ropus_placement::workload::Workload;
use ropus_qos::PoolCommitments;
use ropus_trace::gen::{case_study_fleet, FleetConfig};

const APPS: usize = 50;

fn bench_pool() -> (Vec<Workload>, Vec<usize>, PoolCommitments) {
    let case = CaseConfig::table1()[2];
    let fleet = case_study_fleet(&FleetConfig {
        apps: APPS,
        weeks: 1,
        ..FleetConfig::paper()
    });
    let workloads: Vec<Workload> = translate_fleet(&fleet, &case)
        .expect("translation succeeds")
        .into_iter()
        .map(|t| t.workload)
        .collect();
    // First-fit with at most two apps per server: a wide steady-state
    // pool (the shape serve converges to) whose every server is feasible.
    let commitments = case.commitments();
    let mut session = EngineSession::new(ServerSpec::sixteen_way(), commitments);
    let mut assignment = Vec::with_capacity(workloads.len());
    for workload in &workloads {
        let probes = session
            .probe_all(workload)
            .expect("bench workloads are valid");
        let server = probes
            .iter()
            .enumerate()
            .position(|(s, required)| session.server_members(s).len() < 2 && required.is_some())
            .unwrap_or(session.server_count());
        session
            .admit(workload.clone(), server)
            .expect("bench admission succeeds");
        assignment.push(server);
    }
    (workloads, assignment, commitments)
}

fn bench_serve_tick(c: &mut Criterion) {
    let (workloads, assignment, commitments) = bench_pool();
    let mut group = c.benchmark_group("serve_tick");

    // Steady state: everything placed and refreshed. Each tick departs
    // one application and re-admits it — the single-server delta a live
    // daemon processes — and refreshes exactly the touched server.
    let mut session = EngineSession::new(ServerSpec::sixteen_way(), commitments)
        .with_assignment(&workloads, &assignment)
        .expect("bulk load succeeds");
    session.refresh();
    let victim = workloads.last().expect("non-empty fleet").clone();
    let server = *assignment.last().expect("non-empty assignment");
    group.bench_function("incremental_tick_50_apps", |b| {
        b.iter(|| {
            let id = session.find(victim.name()).expect("victim is live");
            session.depart(id).expect("depart succeeds");
            session
                .admit(victim.clone(), black_box(server))
                .expect("re-admit succeeds");
            black_box(session.refresh().recomputed)
        });
    });

    // The cold path serve replaces: bulk-load the whole fleet and re-fit
    // every server from scratch.
    group.bench_function("full_replan_50_apps", |b| {
        b.iter(|| {
            let mut cold = EngineSession::new(ServerSpec::sixteen_way(), commitments)
                .with_assignment(black_box(&workloads), &assignment)
                .expect("bulk load succeeds");
            black_box(cold.report().expect("plan is feasible"))
        });
    });

    group.finish();
}

criterion_group!(benches, bench_serve_tick);
criterion_main!(benches);
