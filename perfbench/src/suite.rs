//! The paper suite workload: `bgl_harness::run_suite` at quick scale,
//! the only workload that goes through the harness runner (dedup cache
//! and worker pool) and the indirect strategy programs.

use crate::aa::{self, Schedule};
use crate::report::{fnv1a, peak_rss_mb, repeat_within, timed, EndToEnd, Layers, Outcome};
use crate::Size;
use bgl_core::AaReport;
use bgl_harness::conformance::golden::fingerprint;
use bgl_harness::experiments::points_by_id;
use bgl_harness::runner::RunPoint;
use bgl_harness::{run_suite, ExperimentReport, Runner, Scale};
use bgl_model::MachineParams;
use bgl_sim::{Engine, EngineMode, SimConfig};
use bgl_torus::{AaLoadAnalysis, Partition};
use std::collections::HashSet;
use std::time::Instant;

pub struct SuiteSpec {
    pub ids: &'static [&'static str],
    pub seed: u64,
    /// Runner worker threads.
    pub jobs: usize,
    /// Digest of the suite's report text at the default seed.
    pub golden: u64,
}

impl SuiteSpec {
    pub fn new(size: Size, seed: u64, jobs: usize) -> SuiteSpec {
        let (ids, golden): (&'static [&'static str], u64) = match size {
            Size::Full => (
                &[
                    "table1", "table2", "fig3", "fig4", "table3", "fig6", "fig7", "flow",
                ],
                0xf483_83ae_b705_8bb9,
            ),
            Size::Smoke => (&["fig4", "fig7"], 0xab54_8cc3_1c16_68f6),
        };
        SuiteSpec {
            ids,
            seed,
            jobs,
            golden,
        }
    }

    /// Runner construction (part of set-up).
    fn runner(&self) -> Runner {
        let mut runner = Runner::new(Scale::Quick).with_jobs(self.jobs);
        runner.seed = self.seed;
        runner
    }

    /// Every distinct simulation point the suite declares, in order.
    fn points(&self, runner: &Runner) -> Vec<RunPoint> {
        let mut seen = HashSet::new();
        self.ids
            .iter()
            .filter_map(|id| points_by_id(runner, id))
            .flatten()
            .filter(|p| seen.insert(p.key.clone()))
            .collect()
    }

    /// One complete execution: a fresh runner and the whole suite.
    fn execute(&self) -> (Runner, Vec<ExperimentReport>) {
        let runner = self.runner();
        let reports = run_suite(&runner, self.ids);
        (runner, reports)
    }
}

/// Workload inputs of one point, as the runner rebuilds them.
fn workload(point: &RunPoint, seed: u64) -> bgl_core::AaWorkload {
    let key = &point.key;
    let mut w = if key.is_full() {
        bgl_core::AaWorkload::full(key.m)
    } else {
        bgl_core::AaWorkload::sampled(key.m, key.coverage())
    };
    w.seed = seed;
    w
}

fn text_digest(reports: &[ExperimentReport]) -> u64 {
    fnv1a(reports.iter().flat_map(|r| r.to_text().into_bytes()))
}

/// Every point's report (cache hits after the suite has run).
fn collect(runner: &Runner, points: &[RunPoint]) -> Vec<Result<AaReport, String>> {
    points
        .iter()
        .map(|p| runner.report(p).map_err(|e| e.to_string()))
        .collect()
}

/// FNV-1a over every point's `NetStats` fingerprint, in point order.
fn combined_fingerprint(reports: &[Result<AaReport, String>]) -> u64 {
    fnv1a(reports.iter().flat_map(|r| {
        r.as_ref()
            .map_or(0, |rep| fingerprint(&rep.stats))
            .to_le_bytes()
    }))
}

/// Check one suite execution point by point, plus its report digest at
/// the default seed.
fn check(
    out: &mut Outcome,
    spec: &SuiteSpec,
    points: &[RunPoint],
    expected: &[Schedule],
    reports: &[Result<AaReport, String>],
    digest: u64,
    default_seed: bool,
) {
    for ((point, want), rep) in points.iter().zip(expected).zip(reports) {
        let what = format!(
            "{} {} m={}",
            point.key.part,
            point.key.strategy.name(),
            point.key.m
        );
        out.tally(
            rep.as_ref()
                .map_err(|e| format!("{what}: {e}"))
                .and_then(|r| aa::check_delivery(&what, &r.stats, &r.strategy, want)),
        );
    }
    if default_seed && digest != spec.golden {
        out.failed += 1;
        out.problem(format!(
            "suite report digest {digest:016x} differs from the recorded {:016x}",
            spec.golden
        ));
    }
}

/// What each point's programs schedule (outside any timed region).
fn schedules(spec: &SuiteSpec, points: &[RunPoint], params: &MachineParams) -> Vec<Schedule> {
    points
        .iter()
        .map(|p| aa::schedule(&p.key.part, &workload(p, spec.seed), params))
        .collect()
}

/// The timed run: whole-suite executions, each checked point by point,
/// for nine tenths of `seconds`, then set-ups in what is left.
pub fn timed_run(spec: &SuiteSpec, seconds: f64, default_seed: bool) -> Outcome {
    let start = Instant::now();
    let params = MachineParams::bgl();
    let mut out = Outcome::default();
    let points = spec.points(&spec.runner());
    let expected = schedules(spec, &points, &params);

    let mut walls = Vec::new();
    let mut digests = Vec::new();
    let mut sim_cycles = 0;
    repeat_within(start, seconds * 0.9, (1, 1000), || {
        let (secs, (runner, reports)) = timed(|| spec.execute());
        walls.push(secs);
        let digest = text_digest(&reports);
        let results = collect(&runner, &points);
        check(
            &mut out,
            spec,
            &points,
            &expected,
            &results,
            digest,
            default_seed,
        );
        sim_cycles = results.iter().flatten().map(|r| r.cycles).sum();
        digests.push((digest, combined_fingerprint(&results)));
        secs
    });
    if digests.windows(2).any(|w| w[0] != w[1]) {
        out.problem("suite results differ between repetitions".into());
    }
    if let Some((digest, fp)) = digests.first() {
        out.notes.push(format!("suite_report_digest {digest:016x}"));
        out.notes.push(format!(
            "netstats_fingerprint {fp:016x} ({} points)",
            points.len()
        ));
    }
    let peak_rss_mb = peak_rss_mb();

    // Set-up: runner construction and point declaration.
    let mut setups = Vec::new();
    repeat_within(start, seconds, (11, 101), || {
        let (secs, points) = timed(|| {
            let runner = spec.runner();
            spec.points(&runner)
        });
        drop(points);
        setups.push(secs);
        secs
    });
    EndToEnd {
        walls,
        setups,
        sim_cycles,
        peak_rss_mb,
    }
    .push_into(&mut out);
    out
}

/// Mean absolute gap between simulated and paper % of peak over the
/// table rows for which `bgl_harness::paper` has a value.
fn paper_gap(reports: &[ExperimentReport]) -> (f64, usize) {
    let mut gaps = Vec::new();
    for rep in reports {
        let strategy = match rep.id.as_str() {
            "table1" | "table2" => bgl_core::StrategyKind::ar(),
            "table3" => bgl_core::StrategyKind::tps(),
            _ => continue,
        };
        let col = |pred: &dyn Fn(&str) -> bool| rep.columns.iter().position(|c| pred(c));
        let (Some(shape_col), Some(sim_col)) =
            (col(&|c| c == "Partition"), col(&|c| c.contains("% (sim)")))
        else {
            continue;
        };
        for row in &rep.rows {
            let sim = row[sim_col].parse::<f64>();
            if let (Some(paper), Ok(sim)) = (aa::paper_percent(&row[shape_col], &strategy), sim) {
                gaps.push((paper - sim).abs());
            }
        }
    }
    let n = gaps.len();
    (gaps.iter().fold(0.0, |a, g| a + g) / n.max(1) as f64, n)
}

/// The traced run: one untraced suite, then the harness layer (runner
/// accounting), the strategy programs one point at a time, the
/// event-driven core, and the torus, core and engine construction of
/// every point, each timed from outside.
pub fn traced_run(spec: &SuiteSpec, default_seed: bool) -> Outcome {
    let params = MachineParams::bgl();
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let points = spec.points(&spec.runner());
    let expected = schedules(spec, &points, &params);

    let (untraced_s, (runner, reports)) = timed(|| spec.execute());
    let digest = text_digest(&reports);
    let results = collect(&runner, &points);
    check(
        &mut out,
        spec,
        &points,
        &expected,
        &results,
        digest,
        default_seed,
    );
    let reference = combined_fingerprint(&results);
    drop(runner);
    let (gap, rows) = paper_gap(&reports);
    layers.paper_gap_pct = gap;
    out.notes
        .push(format!("paper_gap_pct {gap} % over {rows} table rows"));

    // Harness layer: the suite again with runner accounting on.
    let runner = spec.runner().with_perf(true);
    let (traced_s, _) = timed(|| run_suite(&runner, spec.ids));
    let timing = runner.timing();
    let results = collect(&runner, &points);
    layers.points_executed = timing.points_executed;
    layers.cache_hits = timing.cache_hits;
    layers.execute_s = timing.execute_secs;
    layers.queue_wait_s = timing.queue_wait_secs;
    layers.worker_util = timing.execute_secs / (spec.jobs as f64 * traced_s);
    layers.trace_overhead = traced_s / untraced_s;
    if combined_fingerprint(&results) == reference {
        out.notes.push(format!(
            "netstats_fingerprint {reference:016x} (timed and traced)"
        ));
    } else {
        out.problem("traced suite NetStats differ from the timed run".into());
    }
    let mut direct_gaps = Vec::new();
    let mut occupancy = 0.0;
    let mut stepped = 0u64;
    for r in results.iter().flatten() {
        layers.stats.add(&r.stats);
        layers.node_cycles += r.partition.num_nodes() as f64 * r.cycles as f64;
        if let Some(perf) = &r.perf {
            layers.run_s += perf.total_secs;
            layers.phases.add(&perf.phase_totals());
            occupancy += perf.active_occupancy_mean * perf.stepped_cycles as f64;
            stepped += perf.stepped_cycles;
        }
        if aa::is_direct(&r.strategy) {
            let model = bgl_model::direct::predicted_percent_of_peak(
                &r.partition,
                r.workload.m_bytes,
                &params,
            );
            direct_gaps.push((model - r.percent_of_peak).abs());
        }
    }
    layers.active_occupancy_mean = occupancy / stepped.max(1) as f64;
    layers.eq3_gap_pct =
        direct_gaps.iter().fold(0.0, |a, g| a + g) / direct_gaps.len().max(1) as f64;
    drop(runner);

    // Strategy programs: every point once, one at a time, by group.
    let runner = spec.runner().with_jobs(1);
    for p in &points {
        let (secs, _) = timed(|| runner.report(p));
        let g = aa::GROUPS
            .iter()
            .position(|&g| g == aa::group(&p.key.strategy))
            .expect("known group");
        layers.exec_s[g] += secs;
    }
    drop(runner);

    // The event-driven core on the same points.
    let runner = spec
        .runner()
        .with_engine(EngineMode::EventDriven)
        .with_perf(true);
    runner.run_points(&points);
    let results = collect(&runner, &points);
    if combined_fingerprint(&results) != reference {
        out.problem("event-engine suite NetStats differ from the default engine".into());
    }
    let mut event_run_s = 0.0;
    for perf in results.iter().flatten().filter_map(|r| r.perf.as_ref()) {
        event_run_s += perf.total_secs;
        let event = perf.event.clone().unwrap_or_default();
        layers.skipped_cycles += event.skipped_cycles;
        layers.fresh_suppressions += event.fresh_suppressions;
    }
    layers.event_speedup = layers.run_s / event_run_s.max(f64::MIN_POSITIVE);
    drop(runner);

    // Torus, core and engine construction, point by point.
    let mut plans = 0usize;
    let mut plan_ns = 0.0;
    for (p, sched) in points.iter().zip(&expected) {
        let w = workload(p, spec.seed);
        let text = p.key.part.to_string();
        let (secs, part) = timed(|| text.parse::<Partition>().expect("valid shape"));
        layers.parse_s += secs;
        let (secs, peak) = timed(|| AaLoadAnalysis::new(part).peak_time_byte_times(w.m_bytes));
        std::hint::black_box(peak);
        layers.analysis_s += secs;
        plan_ns += aa::hop_plan_ns(&part, &sched.pairs, 1) * sched.pairs.len() as f64;
        plans += sched.pairs.len();
        let mut cfg = SimConfig::new(part);
        let strategy = aa::configure(&part, &w, &p.key.strategy, &params, &mut cfg);
        let (secs, programs) = timed(|| aa::programs(&part, &w, &strategy, &params));
        layers.build_s += secs;
        layers.packets_scheduled += sched.packets;
        let (secs, engine) = timed(|| Engine::new(cfg, programs));
        drop(engine);
        layers.new_s += secs;
    }
    layers.hop_plan_ns = plan_ns / plans.max(1) as f64;
    layers.push_into(&mut out);
    out
}
