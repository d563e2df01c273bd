//! Figure 1: AR measured time vs the Equation-3 model and the Equation-2
//! peak on the 8×8×8 midplane, across message sizes.

use crate::experiment::ExperimentReport;
use crate::experiments::{cov, pct};
use crate::runner::{RunPoint, Runner, Scale};
use bgl_core::StrategyKind;
use bgl_model::{direct, peak, MachineParams};
use bgl_torus::Partition;

/// The partition this figure sweeps.
pub const SHAPE: &str = "8x8x8";

/// Message sizes per scale.
pub fn sizes(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Quick => vec![64, 240, 912],
        Scale::Paper => vec![16, 64, 192, 432, 912, 1872, 3792, 7632],
    }
}

/// Declare every simulation point this experiment needs.
pub fn points(runner: &Runner) -> Vec<RunPoint> {
    sizes(runner.scale)
        .iter()
        .map(|&m| runner.point(SHAPE, &StrategyKind::ar(), m))
        .collect()
}

/// Shared implementation for Figures 1 and 2.
pub(crate) fn ar_vs_model(
    id: &str,
    shape: &str,
    sizes: &[u64],
    runner: &Runner,
) -> ExperimentReport {
    let mut rep = ExperimentReport::new(
        id,
        &format!("AR measured vs Equation-3 model vs Equation-2 peak on {shape}"),
        &[
            "m (B)",
            "AA time sim (ms)",
            "model (ms)",
            "peak (ms)",
            "% of peak",
            "coverage",
        ],
    );
    let part: Partition = shape.parse().unwrap();
    let params = MachineParams::bgl();
    for &m in sizes {
        let t_model = direct::aa_direct_time_secs(&part, m, &params) * 1e3;
        let t_peak = peak::aa_peak_time_secs(&part, m, &params) * 1e3;
        match runner.aa(shape, &StrategyKind::ar(), m) {
            Ok(r) => {
                let t_meas = r.time_secs * 1e3 / r.workload.effective_fraction(part.num_nodes());
                rep.push_row(vec![
                    m.to_string(),
                    format!("{t_meas:.3}"),
                    format!("{t_model:.3}"),
                    format!("{t_peak:.3}"),
                    pct(r.percent_of_peak),
                    cov(r.workload.coverage),
                ]);
            }
            Err(e) => rep.push_row(vec![
                m.to_string(),
                format!("ERROR: {e}"),
                format!("{t_model:.3}"),
                format!("{t_peak:.3}"),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    rep.note("sampled runs scaled up by the fraction of destinations sent to; model is Equation 3 (P·α + P·C·(m+h)·β)");
    rep
}

/// Run Figure 1.
pub fn run(runner: &Runner) -> ExperimentReport {
    runner.run_points(&points(runner));
    ar_vs_model("fig1", SHAPE, &sizes(runner.scale), runner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig1_measured_tracks_model() {
        let r = Runner::new(Scale::Quick);
        let rep = run(&r);
        for row in &rep.rows {
            let meas: f64 = row[1].parse().unwrap();
            let model: f64 = row[2].parse().unwrap();
            let peak: f64 = row[3].parse().unwrap();
            assert!(meas >= peak * 0.95, "measured below peak: {row:?}");
            // Model and measurement agree within a factor ~2 everywhere.
            assert!(meas / model < 2.0 && model / meas < 2.0, "{row:?}");
        }
    }
}
