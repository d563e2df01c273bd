//! Table 4: one-byte all-to-all latency, TPS vs AR.
//!
//! On small partitions the extra store-and-forward hop makes TPS slower;
//! past ~4096 nodes network contention on even 64-byte packets makes the
//! indirect schedule *faster* — the paper's crossover.

use crate::experiment::ExperimentReport;
use crate::paper::TABLE4_LATENCY_MS;
use crate::runner::{RunPoint, Runner, Scale};
use bgl_core::StrategyKind;

/// Partitions evaluated at each scale.
pub fn shapes(scale: Scale) -> Vec<&'static str> {
    match scale {
        Scale::Quick => vec!["8x8x8", "8x8x16"],
        Scale::Paper => TABLE4_LATENCY_MS.iter().map(|(s, _, _)| *s).collect(),
    }
}

/// Declare every simulation point this experiment needs.
pub fn points(runner: &Runner) -> Vec<RunPoint> {
    let tps = StrategyKind::tps();
    let ar = StrategyKind::ar();
    shapes(runner.scale)
        .iter()
        .flat_map(|shape| [runner.point(shape, &tps, 1), runner.point(shape, &ar, 1)])
        .collect()
}

/// Run Table 4.
pub fn run(runner: &Runner) -> ExperimentReport {
    runner.run_points(&points(runner));
    let mut rep = ExperimentReport::new(
        "table4",
        "1-byte all-to-all latency in ms, TPS vs AR (paper Table 4)",
        &[
            "Partition",
            "TPS ms (sim)",
            "AR ms (sim)",
            "TPS ms (paper)",
            "AR ms (paper)",
            "TPS/AR (sim)",
        ],
    );
    let tps = StrategyKind::tps();
    let ar = StrategyKind::ar();
    for shape in shapes(runner.scale) {
        let (p_tps, p_ar) = TABLE4_LATENCY_MS
            .iter()
            .find(|(s, _, _)| *s == shape)
            .map(|(_, t, a)| (format!("{t}"), format!("{a}")))
            .unwrap_or_else(|| ("-".into(), "-".into()));
        let run_ms = |strategy: &StrategyKind| -> Result<f64, String> {
            let r = runner.aa(shape, strategy, 1).map_err(|e| e.to_string())?;
            // When the run was coverage-sampled, extrapolate the full-AA
            // latency linearly in the traffic volume, the fraction of
            // destinations actually sent to (the regime is
            // bandwidth-dominated even at 64-byte packets — Section 4.1).
            let p = r.partition.num_nodes();
            Ok(r.time_secs * 1e3 / r.workload.effective_fraction(p))
        };
        match (run_ms(&tps), run_ms(&ar)) {
            (Ok(t), Ok(a)) => rep.push_row(vec![
                shape.to_string(),
                format!("{t:.2}"),
                format!("{a:.2}"),
                p_tps,
                p_ar,
                format!("{:.2}", t / a),
            ]),
            (t, a) => rep.push_row(vec![
                shape.to_string(),
                t.map(|v| format!("{v:.2}")).unwrap_or_else(|e| e),
                a.map(|v| format!("{v:.2}")).unwrap_or_else(|e| e),
                p_tps,
                p_ar,
                "-".into(),
            ]),
        }
    }
    rep.note(
        "1-byte payload rides the 64-byte minimum packet; sampled runs scaled up by the fraction of destinations sent to",
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table4_tps_slower_on_midplane() {
        let r = Runner::new(Scale::Quick);
        let rep = run(&r);
        // On 8x8x8, TPS pays the forwarding hop: TPS/AR > 1.
        let ratio: f64 = rep.rows[0][5].parse().expect("ratio");
        assert!(ratio > 1.0, "TPS/AR = {ratio}");
    }
}
