//! End-to-end and per-layer benchmark of the R-Opus plan, serve and chaos
//! paths. See `perfbench/README.md` for the workloads and the metric map.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-100 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.

mod chaos;
mod plan;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ropus::prelude::*;

use spans::Tracer;

/// Worker threads for the placement engine and the daemon's refreshes.
pub const THREADS: usize = 2;

/// The seed used when `--seed` is absent; the notes record a held-out one.
pub const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("wall_s", "s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("qos.translate_fleet_s", "s"),
    ("placement.consolidate_s", "s"),
    ("placement.seed_s", "s"),
    ("placement.search_s", "s"),
    ("placement.report_s", "s"),
    ("placement.failure_sweep_s", "s"),
    ("placement.failure.cases", "count"),
    ("placement.failure.supported_ratio", "ratio"),
    ("placement.engine.evaluations", "count-timing"),
    ("placement.engine.hit_ratio", "ratio-timing"),
    ("placement.search.generations", "count"),
    ("placement.plan_servers", "count"),
    ("placement.plan_required_cpus", "cpus"),
    ("placement.session.recomputes", "count/tick"),
    ("placement.session.servers", "count"),
    ("core.daemon.admit_s", "s"),
    ("core.daemon.depart_s", "s"),
    ("core.daemon.tick_s", "s"),
    ("core.daemon.migrate_s", "s"),
    ("core.daemon.admit_p50_ms", "ms"),
    ("core.daemon.admit_tail_ms", "ms"),
    ("core.daemon.admit_tail_pct", "pct"),
    ("core.daemon.admit_samples", "count"),
    ("core.daemon.tick_p50_ms", "ms"),
    ("core.daemon.tick_tail_ms", "ms"),
    ("core.daemon.tick_tail_pct", "pct"),
    ("core.daemon.tick_samples", "count"),
    ("core.daemon.cmds_per_s", "1/s"),
    ("core.daemon.accept_ratio", "ratio"),
    ("core.daemon.queued", "count"),
    ("core.daemon.retries", "count"),
    ("obs.slo.samples", "count"),
    ("chaos.replay_s", "s"),
    ("chaos.plan_segments_s", "s"),
    ("chaos.slots_s", "s"),
    ("chaos.replans", "count"),
    ("chaos.replan_feasible_ratio", "ratio"),
    ("chaos.unserved_frac", "ratio"),
    ("chaos.migration.committed", "count"),
    ("chaos.migration.rolled_back", "count"),
    ("chaos.migration.deferred_slots", "count"),
    ("chaos.migration.peak_in_flight", "count"),
    ("bench.screened_apps", "count"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.reps", "count"),
    ("bench.traced_reps", "count"),
];

/// Workload sizes. [`Size::full`] is the benchmark; tests use tiny ones.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Applications in the `plan-100` fleet.
    pub plan_apps: usize,
    /// Weeks of history in the `plan-100` fleet.
    pub plan_weeks: usize,
    /// Servers the `plan-100` fleet's normal placement should use.
    pub plan_servers: usize,
    /// Applications resident after the `serve-churn-1k` set-up.
    pub serve_apps: usize,
    /// Applications waiting to arrive during the churn.
    pub serve_spare: usize,
    /// Admit+depart pairs per `serve-churn-1k` round.
    pub serve_pairs: usize,
    /// Rounds every `serve-churn-1k` run makes at least.
    pub serve_min_rounds: usize,
    /// Applications in the `chaos-100x1w` fleet.
    pub chaos_apps: usize,
    /// Weeks of history in the `chaos-100x1w` fleet.
    pub chaos_weeks: usize,
    /// Set-ups per run that each workload's `setup_s` is the median of:
    /// `plan-100`, `serve-churn-1k`, `chaos-100x1w`.
    pub setups: [usize; 3],
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Size {
        Size {
            plan_apps: 100,
            plan_weeks: 1,
            plan_servers: 26,
            serve_apps: 1000,
            serve_spare: 500,
            serve_pairs: 50,
            serve_min_rounds: 20,
            chaos_apps: 100,
            chaos_weeks: 1,
            setups: [5, 3, 9],
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Drives the fleet, the churn choices and the failure schedule.
    pub seed: u64,
    /// Measuring time; repetitions continue until it has passed.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Workload sizes.
    pub size: Size,
}

/// What a workload hands back: its checks, its operation tallies, and
/// the metric values it measured (absent per-layer values read 0).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

/// The pool every workload plans for: the paper's 16-way servers under
/// θ = 0.95 with a 60-minute deadline.
pub fn pool() -> (ServerSpec, PoolCommitments) {
    (
        ServerSpec::sixteen_way(),
        PoolCommitments::paper_defaults().0,
    )
}

/// The case-study QoS policy (`ropus generate --policy` template).
pub fn policy() -> QosPolicy {
    QosPolicy {
        normal: AppQos::paper_default(Some(30)),
        failure: AppQos::paper_default(None),
    }
}

/// A generated fleet of `apps` applications over `weeks` weeks, less the
/// apps the planner cannot take on their own: those whose translation
/// fails or whose normal-mode demand does not fit an empty server. Either
/// would fail a whole batch plan. Returns the kept apps and how many were
/// dropped.
pub fn fleet(seed: u64, apps: usize, weeks: usize) -> (Vec<AppSpec>, usize) {
    let config = FleetConfig {
        seed,
        apps,
        weeks,
        ..FleetConfig::paper()
    };
    let fw = framework();
    let (server, commitments) = pool();
    let empty = EngineSession::new(server, commitments);
    let plannable = |app: &AppSpec| {
        fw.translate_fleet(std::slice::from_ref(app))
            .is_ok_and(|(_, normal, _)| matches!(empty.probe(&normal[0], 0), Ok(Some(_))))
    };
    let (kept, dropped): (Vec<AppSpec>, Vec<AppSpec>) = case_study_fleet(&config)
        .into_iter()
        .map(|a| AppSpec::new(a.name, a.trace, policy()))
        .partition(plannable);
    (kept, dropped.len())
}

/// The planner with fast search options on [`THREADS`] workers.
pub fn framework() -> Framework {
    let (server, commitments) = pool();
    Framework::builder()
        .server(server)
        .commitments(commitments)
        .options(ConsolidationOptions::fast(0).with_threads(THREADS))
        .build()
}

/// Runs `setup` `reps` times and returns the last result with the
/// median set-up seconds.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        last = Some(setup()?);
        secs.push(start.elapsed().as_secs_f64());
    }
    let last = last.ok_or("set-up never ran")?;
    Ok((last, stats::median(&secs)))
}

/// Wall seconds of each repetition, split by whether it was traced.
#[derive(Debug, Default)]
pub struct Reps {
    /// Untraced repetitions' wall seconds.
    pub plain: Vec<f64>,
    /// Traced repetitions' wall seconds.
    pub traced: Vec<f64>,
}

impl Reps {
    /// Records the shared metrics: `wall_s` (untraced median), the
    /// repetition counts, and the tracing overhead.
    pub fn record(&self, out: &mut Outcome) {
        let plain = stats::median(&self.plain);
        out.values.insert("wall_s", plain);
        out.values
            .insert("bench.reps", (self.plain.len() + self.traced.len()) as f64);
        out.values
            .insert("bench.traced_reps", self.traced.len() as f64);
        if !self.traced.is_empty() && plain > 0.0 {
            out.values.insert(
                "bench.trace_overhead_frac",
                stats::median(&self.traced) / plain - 1.0,
            );
        }
    }
}

/// Repeats `rep` until `opts.seconds` have passed and at least
/// `min_reps` (and never fewer than 2, so repetitions can be compared)
/// ran. In the traced run repetitions alternate: even ones untraced, odd
/// ones traced, so both sides see the same conditions.
pub fn repeat(
    opts: &Opts,
    min_reps: usize,
    tracer: &mut Tracer,
    mut rep: impl FnMut(&mut Tracer) -> Result<(), String>,
) -> Result<Reps, String> {
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut reps = Reps::default();
    let mut i = 0;
    while i < min_reps.max(2) || started.elapsed() < budget {
        let traced = opts.trace && i % 2 == 1;
        tracer.set_on(traced);
        tracer.set_run(i);
        let start = Instant::now();
        rep(tracer)?;
        let secs = start.elapsed().as_secs_f64();
        eprintln!(
            "perfbench: rep {i} ({}) {secs:.3} s",
            if traced { "traced" } else { "plain" }
        );
        if traced {
            reps.traced.push(secs);
        } else {
            reps.plain.push(secs);
        }
        i += 1;
    }
    tracer.set_on(false);
    Ok(reps)
}

/// Median over traced repetitions of `name`'s busy seconds.
pub fn busy_median(tracer: &Tracer, name: &str) -> f64 {
    stats::median(&tracer.busy_by_run(name).into_values().collect::<Vec<_>>())
}

/// Per-layer figures read from the product's own obs spans: the summed
/// wall seconds of every span called `name`.
pub fn obs_span_secs(report: &ObsReport, name: &str) -> f64 {
    report.spans_named(name).map(|s| s.wall_ms).sum::<f64>() / 1000.0
}

/// FNV-1a digest of a serialized output, for cheap equality checks.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64: a seeded stream for the benchmark's own choices.
#[derive(Debug, Clone)]
pub struct Mix(u64);

impl Mix {
    /// A stream derived from `seed` and a per-use `salt`.
    pub fn new(seed: u64, salt: u64) -> Mix {
        Mix(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where unknown.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload by name.
pub fn run_workload(name: &str, opts: &Opts, tracer: &mut Tracer) -> Result<Outcome, String> {
    match name {
        "plan-100" => plan::run(opts, tracer),
        "serve-churn-1k" => serve::run(opts, tracer),
        "chaos-100x1w" => chaos::run(opts, tracer),
        other => Err(format!(
            "unknown workload {other:?} (plan-100, serve-churn-1k, chaos-100x1w)"
        )),
    }
}

/// The result line: the end-to-end or the per-layer metrics.
fn result_json(out: &Outcome, trace: bool) -> Result<String, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = out.values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

/// Parsed command line.
#[derive(Debug)]
struct Cli {
    workload: String,
    opts: Opts,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        size: Size::full(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = || format!("flag {flag} has an invalid value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Cli { workload, opts })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(false);
    let mut out = match run_workload(&cli.workload, &cli.opts, &mut tracer) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cli.workload);
            std::process::exit(1);
        }
    };
    out.values.insert("peak_rss_mb", peak_rss_mb());
    if out.attempted > 0 {
        out.values.insert(
            "ok_frac",
            (out.attempted - out.failed.min(out.attempted)) as f64 / out.attempted as f64,
        );
    }
    if cli.opts.trace {
        let path = PathBuf::from(".bench_out").join(format!(
            "spans-{}-seed{}.jsonl",
            cli.workload, cli.opts.seed
        ));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    match result_json(&out, cli.opts.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if !out.correct {
        eprintln!("perfbench: correctness check failed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Size {
        Size {
            plan_apps: 6,
            plan_weeks: 1,
            plan_servers: 2,
            serve_apps: 12,
            serve_spare: 6,
            serve_pairs: 15,
            serve_min_rounds: 2,
            chaos_apps: 6,
            chaos_weeks: 1,
            setups: [1, 1, 1],
        }
    }

    fn smoke(workload: &str, trace: bool) -> Outcome {
        let opts = Opts {
            seed: DEFAULT_SEED,
            seconds: 0.001,
            trace,
            size: tiny(),
        };
        let mut tracer = Tracer::new(false);
        let out = run_workload(workload, &opts, &mut tracer).unwrap();
        assert!(out.correct, "{workload} failed its checks");
        assert!(out.attempted >= 1 && out.failed == 0);
        assert!(out.values["wall_s"] > 0.0 && out.values["setup_s"] > 0.0);
        result_json(&out, trace).unwrap();
        out
    }

    #[test]
    fn plan_smoke() {
        smoke("plan-100", false);
        let traced = smoke("plan-100", true);
        assert!(traced.values["placement.failure_sweep_s"] > 0.0);
        assert!(traced.values["placement.plan_servers"] >= 1.0);
    }

    #[test]
    fn serve_smoke() {
        smoke("serve-churn-1k", false);
        let traced = smoke("serve-churn-1k", true);
        assert!(traced.values["core.daemon.admit_s"] > 0.0);
        assert_eq!(traced.values["core.daemon.accept_ratio"], 1.0);
    }

    #[test]
    fn chaos_smoke() {
        smoke("chaos-100x1w", false);
        let traced = smoke("chaos-100x1w", true);
        assert!(traced.values["chaos.replay_s"] > 0.0);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let opts = Opts {
            seed: 1,
            seconds: 1.0,
            trace: false,
            size: tiny(),
        };
        assert!(run_workload("nope", &opts, &mut Tracer::new(false)).is_err());
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok(name), "bad metric name {name:?}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).unwrap();
        let spec: serde_json::Value = serde_json::from_str(&raw).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let expect = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), expect(&END_TO_END));
        assert_eq!(names("per_layer"), expect(&PER_LAYER));
    }

    #[test]
    fn cli_parses_the_benchmark_flags() {
        let args: Vec<String> = "--workload plan-100 --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_cli(&args).unwrap();
        assert_eq!(cli.workload, "plan-100");
        assert_eq!(
            (cli.opts.seed, cli.opts.seconds, cli.opts.trace),
            (7, 10.0, true)
        );
        assert!(parse_cli(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_cli(&["--seed".into()]).is_err());
    }
}
