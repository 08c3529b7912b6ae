//! Integration tests for the observability layer: deterministic
//! collectors must produce byte-identical JSON across runs and thread
//! counts, reports without a collector must serialize exactly as before,
//! and counters must be commutative under concurrent updates.

use proptest::prelude::*;
use ropus::prelude::*;

fn policy() -> QosPolicy {
    QosPolicy {
        normal: AppQos::paper_default(Some(30)),
        failure: AppQos::paper_default(None),
    }
}

fn framework(seed: u64, threads: usize) -> Framework {
    Framework::builder()
        .server(ServerSpec::sixteen_way())
        .commitments(PoolCommitments::new(CosSpec::new(0.9, 60).unwrap()))
        .options(ConsolidationOptions::fast(seed).with_threads(threads))
        .failure_scope(FailureScope::AllApplications)
        .build()
}

fn case_study_apps(n: usize) -> Vec<AppSpec> {
    case_study_fleet(&FleetConfig {
        apps: n,
        weeks: 1,
        ..FleetConfig::paper()
    })
    .into_iter()
    .map(|a| AppSpec::new(a.name, a.trace, policy()))
    .collect()
}

/// Runs the full observed pipeline (plan + chaos replay) and returns the
/// collector's snapshot as JSON.
fn observed_run_json(seed: u64, threads: usize) -> String {
    let apps = case_study_apps(5);
    let horizon = apps[0].demand().len();
    let fw = framework(seed, threads);
    let obs = Obs::deterministic();
    let placement = fw
        .plan_normal_only(PlanRequest::of(&apps).with_obs(&obs))
        .unwrap();
    let schedule = FailureSchedule::scripted(vec![FailureEvent {
        server: placement.servers[0].server,
        start: horizon / 4,
        duration: 24,
    }])
    .unwrap();
    let _report = fw
        .chaos_replay_on_with(
            PlanRequest::of(&apps).with_obs(&obs),
            &placement,
            &schedule,
            DegradationPolicy::default(),
            None,
        )
        .unwrap();
    serde_json::to_string(&obs.report()).unwrap()
}

#[test]
fn obs_json_is_byte_identical_across_runs_and_threads() {
    let first = observed_run_json(9, 1);
    let second = observed_run_json(9, 1);
    assert_eq!(first, second, "same seed must observe identically");

    let parallel = observed_run_json(9, 4);
    assert_eq!(
        first, parallel,
        "deterministic obs JSON must be bit-identical across --threads"
    );

    // The snapshot round-trips into the same bytes.
    let decoded: ObsReport = serde_json::from_str(&first).unwrap();
    assert_eq!(serde_json::to_string(&decoded).unwrap(), first);

    // Spot-check that every layer actually reported something.
    assert!(decoded.spans_named("pipeline.translate").count() >= 1);
    assert!(decoded.spans_named("pipeline.consolidate").count() >= 1);
    assert!(decoded.spans_named("placement.search").count() >= 1);
    assert!(decoded.spans_named("chaos.replay.slots").count() >= 1);
    assert!(
        decoded.counter("qos.translations") >= 10,
        "2 modes x 5 apps"
    );
    assert!(decoded.events_named("qos.translate.breakpoint").count() >= 10);
    assert!(decoded.events_named("chaos.window.recovery").count() >= 1);
    // NullClock suppresses every duration.
    assert!(decoded.spans.iter().all(|s| s.wall_ms == 0.0));
}

#[test]
fn reports_without_a_collector_serialize_without_an_obs_key() {
    let apps = case_study_apps(3);
    let fw = framework(3, 1);
    let placement = fw.plan_normal_only(&apps).unwrap();
    let json = serde_json::to_string(&placement).unwrap();
    assert!(
        !json.contains("\"obs\""),
        "absent collector must leave report JSON unchanged"
    );

    // Attaching a snapshot round-trips through the optional field.
    let obs = Obs::deterministic();
    obs.counter("example.counter", 3);
    let mut with_obs = placement.clone();
    with_obs.obs = Some(obs.report());
    let json = serde_json::to_string(&with_obs).unwrap();
    assert!(json.contains("\"obs\""));
    let decoded: PlacementReport = serde_json::from_str(&json).unwrap();
    assert_eq!(decoded.obs.unwrap().counter("example.counter"), 3);
}

proptest! {
    /// Counter totals are commutative: however the same deltas are
    /// spread across worker threads, the snapshot total is their sum.
    #[test]
    fn counter_totals_are_invariant_under_thread_count(
        deltas in prop::collection::vec(0u64..1_000, 1..40),
        threads in 1usize..5,
    ) {
        let expected: u64 = deltas.iter().sum();
        let obs = Obs::deterministic();
        let chunk = deltas.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for part in deltas.chunks(chunk) {
                let obs = &obs;
                scope.spawn(move || {
                    for &d in part {
                        obs.counter("prop.total", d);
                    }
                });
            }
        });
        prop_assert_eq!(obs.report().counter("prop.total"), expected);
    }
}

/// Bounds for the quantile/delta proptests below.
static PROP_BOUNDS: &[f64] = &[0.5, 1.0, 2.0, 4.0, 8.0];

proptest! {
    /// Bucket-resolution quantile estimates are monotone in `q` and
    /// always land on a bucket edge, for any sample distribution —
    /// including ones that overflow the last bound.
    #[test]
    fn histogram_quantiles_are_monotone_and_bounded(
        values in prop::collection::vec(0.0f64..20.0, 1..200),
        qs in prop::collection::vec(0.0f64..=1.0, 2..8),
    ) {
        let mut qs = qs;
        let obs = Obs::deterministic();
        for &v in &values {
            obs.histogram("prop.dist", PROP_BOUNDS, v);
        }
        let report = obs.report();
        let hist = report.histogram("prop.dist").unwrap();
        prop_assert_eq!(hist.total, values.len() as u64);

        qs.sort_by(f64::total_cmp);
        let estimates: Vec<f64> = qs
            .iter()
            .map(|&q| hist.quantile(q).unwrap())
            .collect();
        for pair in estimates.windows(2) {
            prop_assert!(pair[0] <= pair[1], "quantiles must be monotone: {estimates:?}");
        }
        for &e in &estimates {
            prop_assert!(PROP_BOUNDS.contains(&e), "estimate {e} is not a bucket edge");
        }
        // The fixed percentile triple the CLI prints obeys the same order.
        let (p50, p95, p99) = (
            hist.quantile(0.50).unwrap(),
            hist.quantile(0.95).unwrap(),
            hist.quantile(0.99).unwrap(),
        );
        prop_assert!(p50 <= p95 && p95 <= p99);
    }

    /// `delta_since` / `absorb` are exact inverses: absorbing a delta
    /// into the earlier snapshot reproduces the later one bit-for-bit,
    /// for arbitrary two-phase recording histories.
    #[test]
    fn snapshot_deltas_absorb_back_bit_exactly(
        phase1 in prop::collection::vec((0u64..100, 0.0f64..10.0), 0..30),
        phase2 in prop::collection::vec((0u64..100, 0.0f64..10.0), 0..30),
    ) {
        let obs = Obs::deterministic();
        let record = |batch: &[(u64, f64)]| {
            for &(c, v) in batch {
                obs.counter("prop.count", c);
                obs.gauge("prop.gauge", v);
                obs.histogram("prop.dist", PROP_BOUNDS, v);
                if c % 3 == 0 {
                    obs.event("prop.event").with_u64("c", c).emit();
                }
            }
        };
        record(&phase1);
        let earlier = obs.report();
        record(&phase2);
        let later = obs.report();

        let delta = later.delta_since(&earlier);
        let mut rebuilt = earlier.clone();
        rebuilt.absorb(&delta);
        prop_assert_eq!(
            serde_json::to_string(&rebuilt).unwrap(),
            serde_json::to_string(&later).unwrap(),
            "absorb(delta_since) must reproduce the later snapshot bit-exactly"
        );
    }
}
