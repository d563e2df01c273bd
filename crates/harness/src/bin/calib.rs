//! Scratch calibration binary kept as a handy one-off runner for a
//! single (shape, strategies, m, coverage) point set.
//!
//! ```text
//! calib <shape> <AR|DR|TPS|VM|THR|MPI>[,<...>] <m_bytes> <coverage> [--jobs N]
//!       [--json] [--perf] [--progress]
//! ```
//!
//! Several strategies (comma-separated) run concurrently across
//! `--jobs` worker threads; results are identical for any thread
//! count. The coverage must lie in `(0, 1]`. `--json` emits the full [`AaReport`](bgl_core::AaReport)
//! per strategy. `--perf` collects host-side profiles (results stay
//! byte-identical; the profile rides `--json` output) and prints a
//! runner timing summary to stderr; `--progress` adds a rate-limited
//! stderr heartbeat to each run.
//!
//! Malformed input never panics: every parse failure prints a one-line
//! error to stderr and exits with status 2. Unknown flags are rejected.

use bgl_core::*;
use bgl_harness::runner::{RunPoint, Runner, Scale};
use bgl_torus::Partition;

fn fail(msg: &str) -> ! {
    eprintln!("calib: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut json = false;
    let mut jobs: Option<usize> = None;
    let mut perf = false;
    let mut progress = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--perf" => perf = true,
            "--progress" => progress = true,
            "--jobs" => {
                let v = it.next().unwrap_or_default();
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => jobs = Some(n),
                    _ => fail(&format!("--jobs needs a positive integer, got {v:?}")),
                }
            }
            other if other.starts_with("--") => fail(&format!("unknown flag {other}")),
            other => positional.push(other.to_string()),
        }
    }
    if positional.len() > 4 {
        fail(&format!("unexpected argument {:?}", positional[4]));
    }
    let shape = positional.first().map(String::as_str).unwrap_or("8x8x8");
    let strats = positional.get(1).map(String::as_str).unwrap_or("AR");
    let m: u64 = positional.get(2).map_or(912, |s| {
        s.parse()
            .unwrap_or_else(|_| fail(&format!("m_bytes needs a number, got {s:?}")))
    });
    let cov: f64 = positional.get(3).map_or(1.0, |s| {
        s.parse()
            .unwrap_or_else(|_| fail(&format!("coverage needs a fraction, got {s:?}")))
    });
    if !(cov > 0.0 && cov <= 1.0) {
        fail(&format!("coverage must be within (0, 1], got {cov}"));
    }
    let part: Partition = shape
        .parse()
        .unwrap_or_else(|e| fail(&format!("invalid shape {shape:?}: {e}")));
    let strategies: Vec<StrategyKind> = strats
        .split(',')
        .map(|s| match s.trim() {
            "AR" => StrategyKind::ar(),
            "DR" => StrategyKind::dr(),
            "TPS" => StrategyKind::tps(),
            "VM" => StrategyKind::vmesh_with(bgl_torus::VmeshLayout::Auto),
            "THR" => StrategyKind::throttled(1.0),
            "MPI" => StrategyKind::mpi(),
            other => fail(&format!(
                "unknown strategy {other:?} (AR|DR|TPS|VM|THR|MPI)"
            )),
        })
        .collect();
    for s in &strategies {
        if let Err(e) = s.check_dims(&part) {
            fail(&e.to_string());
        }
    }
    let mut runner = Runner::new(Scale::Paper)
        .with_perf(perf)
        .with_progress(progress);
    if let Some(n) = jobs {
        runner = runner.with_jobs(n);
    }
    let points: Vec<RunPoint> = strategies
        .iter()
        .map(|s| RunPoint::new(part, s.clone(), m, cov))
        .collect();
    let t0 = std::time::Instant::now();
    runner.run_points(&points);
    let elapsed = t0.elapsed();
    if perf {
        let t = runner.timing();
        eprintln!(
            "calib: perf: {} point(s) executed in {:.3}s host time \
             (queue wait {:.3}s), {} cache hit(s)",
            t.points_executed, t.execute_secs, t.queue_wait_secs, t.cache_hits,
        );
    }
    if json {
        let reports: Vec<AaReport> = points
            .iter()
            .filter_map(|p| runner.report(p).ok())
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&reports).expect("serialize")
        );
        return;
    }
    for point in &points {
        match runner.report(point) {
            Ok(r) => {
                let utils: Vec<String> = part
                    .dims()
                    .map(|d| format!("{}={:.2}", d, r.stats.dim_utilization(&part, d)))
                    .collect();
                println!(
                    "{shape} {} m={m} cov={cov}: {:.1}% of peak, {} cycles, {} [{:.1?}]",
                    r.strategy.name(),
                    r.percent_of_peak,
                    r.cycles,
                    utils.join(" "),
                    elapsed
                );
            }
            Err(e) => println!("{shape} {}: ERROR {e}", point.key.strategy.name()),
        }
    }
}
