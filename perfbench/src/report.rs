//! What one benchmark run reports: named metrics with units, the
//! attempted/failed tally behind `failed_frac`, and the final JSON line.

use bgl_sim::{NetStats, PhaseSecs};
use std::time::Instant;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Human note printed beside the value (sample count, provenance).
    pub note: String,
}

/// Everything a run prints.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Simulations (or suite points) run.
    pub attempted: u64,
    /// Runs that returned a `SimError` or failed a correctness check.
    pub failed: u64,
    /// One line per failed check, printed before the result.
    pub problems: Vec<String>,
    /// Lines printed before the metrics (fingerprints, digests).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push_noted(name, value, unit, String::new());
    }

    pub fn push_noted(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// Record a failed check without failing a run (the run count is
    /// tallied separately).
    pub fn problem(&mut self, msg: String) {
        if !self.problems.contains(&msg) {
            self.problems.push(msg);
        }
    }

    /// Tally one attempted run; `Err` marks it failed with its reason.
    pub fn tally(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            self.problem(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Human-readable lines, then the one-line JSON result.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for m in &self.metrics {
            println!(
                "{:<34} {:>16} {:<6} {}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.note
            );
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<34} {:>16} {:<6} {} of {} runs failed",
            "failed_frac",
            fmt_value(frac),
            "ratio",
            self.failed,
            self.attempted
        );
        for p in &self.problems {
            println!("FAILED: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Per-layer figures of one traced run. Every workload reports every
/// field; a layer the workload does not exercise reads 0 (the harness
/// layer on single simulations, the two-shard engine off the dense run).
#[derive(Default)]
pub struct Layers {
    pub parse_s: f64,
    pub analysis_s: f64,
    pub hop_plan_ns: f64,
    pub eq3_gap_pct: f64,
    pub paper_gap_pct: f64,
    pub build_s: f64,
    pub packets_scheduled: u64,
    pub new_s: f64,
    pub run_s: f64,
    /// Simulated node-cycles (nodes x completion cycles, summed).
    pub node_cycles: f64,
    pub stats: NetCounts,
    pub phases: PhaseSecs,
    pub active_occupancy_mean: f64,
    pub event_speedup: f64,
    pub skipped_cycles: u64,
    pub fresh_suppressions: u64,
    pub shard2_speedup: f64,
    pub barrier_wait_s: f64,
    pub points_executed: u64,
    pub cache_hits: u64,
    pub execute_s: f64,
    pub queue_wait_s: f64,
    pub worker_util: f64,
    /// Seconds per strategy group, in `aa::GROUPS` order.
    pub exec_s: [f64; 6],
    pub trace_overhead: f64,
}

/// The exact `NetStats` counts a pure speed-up must leave unchanged,
/// summed over every simulation of a run.
#[derive(Default, Clone, Copy)]
pub struct NetCounts {
    pub packets_delivered: u64,
    pub hops: u64,
    pub bubble_hops: u64,
    pub reception_stall_events: u64,
    pub pacing_blocked_cycles: u64,
}

impl NetCounts {
    pub fn add(&mut self, s: &NetStats) {
        self.packets_delivered += s.packets_delivered;
        self.hops += s.hops_taken.iter().sum::<u64>();
        self.bubble_hops += s.bubble_hops;
        self.reception_stall_events += s.reception_stall_events;
        self.pacing_blocked_cycles += s.pacing_blocked_cycles;
    }
}

impl Layers {
    pub fn push_into(&self, out: &mut Outcome) {
        let count = |n: u64| n as f64;
        out.push("torus.parse_s", self.parse_s, "s");
        out.push("torus.analysis_s", self.analysis_s, "s");
        out.push("torus.hop_plan_ns", self.hop_plan_ns, "ns");
        out.push("model.eq3_gap_pct", self.eq3_gap_pct, "%");
        out.push("model.paper_gap_pct", self.paper_gap_pct, "%");
        out.push("core.build_s", self.build_s, "s");
        out.push(
            "core.packets_scheduled",
            count(self.packets_scheduled),
            "count",
        );
        out.push("sim.new_s", self.new_s, "s");
        out.push("sim.run_s", self.run_s, "s");
        out.push(
            "sim.ns_per_node_cycle",
            self.run_s * 1e9 / self.node_cycles.max(1.0),
            "ns",
        );
        out.push(
            "sim.ns_per_hop",
            self.run_s * 1e9 / self.stats.hops.max(1) as f64,
            "ns",
        );
        out.push(
            "sim.packets_delivered",
            count(self.stats.packets_delivered),
            "count",
        );
        out.push("sim.hops", count(self.stats.hops), "count");
        out.push("sim.bubble_hops", count(self.stats.bubble_hops), "count");
        out.push(
            "sim.reception_stall_events",
            count(self.stats.reception_stall_events),
            "count",
        );
        out.push(
            "sim.pacing_blocked_cycles",
            count(self.stats.pacing_blocked_cycles),
            "count",
        );
        for (name, secs) in self.phases.named() {
            out.push(&format!("sim.phase.{name}_s"), secs, "s");
        }
        out.push(
            "sim.active_occupancy_mean",
            self.active_occupancy_mean,
            "nodes",
        );
        out.push("sim.alt.event_speedup", self.event_speedup, "x");
        out.push(
            "sim.event.skipped_cycles",
            count(self.skipped_cycles),
            "count",
        );
        out.push(
            "sim.event.fresh_suppressions",
            count(self.fresh_suppressions),
            "count",
        );
        out.push("sim.alt.shard2_speedup", self.shard2_speedup, "x");
        out.push("sim.shard.barrier_wait_s", self.barrier_wait_s, "s");
        out.push(
            "harness.points_executed",
            count(self.points_executed),
            "count",
        );
        out.push("harness.cache_hits", count(self.cache_hits), "count");
        out.push("harness.execute_s", self.execute_s, "s");
        out.push("harness.queue_wait_s", self.queue_wait_s, "s");
        out.push("harness.worker_util", self.worker_util, "ratio");
        for (group, secs) in crate::aa::GROUPS.iter().zip(self.exec_s) {
            out.push(&format!("harness.exec.{group}_s"), secs, "s");
        }
        out.push("trace_overhead", self.trace_overhead, "x");
    }
}

/// The end-to-end figures of one timed run.
pub struct EndToEnd {
    /// Seconds per complete execution.
    pub walls: Vec<f64>,
    /// Seconds per set-up (workload inputs to a ready engine).
    pub setups: Vec<f64>,
    /// Simulated completion cycles of one execution.
    pub sim_cycles: u64,
    /// VmHWM after the executions, before the set-ups.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn push_into(&self, out: &mut Outcome) {
        // The fastest execution: host noise on shared machines only ever
        // slows a run down, so the minimum is the steadiest estimate of
        // what the code costs (the median is printed beside it).
        let (lo, hi) = self
            .walls
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| {
                (lo.min(w), hi.max(w))
            });
        out.push_noted(
            "wall_s",
            lo,
            "s",
            format!(
                "fastest of {} executions, median {:.4}, slowest {hi:.4}",
                self.walls.len(),
                median(&self.walls)
            ),
        );
        out.push_noted(
            "setup_s",
            median(&self.setups),
            "s",
            format!("median of {} set-ups", self.setups.len()),
        );
        out.push_noted(
            "peak_rss_mb",
            self.peak_rss_mb,
            "MB",
            "VmHWM of this process".into(),
        );
        out.push_noted(
            "sim_cycles",
            self.sim_cycles as f64,
            "cycles",
            "simulated time, exact".into(),
        );
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON number with every digit the measurement has (Rust's shortest
/// round-trip form); non-finite values, which JSON cannot carry, become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Seconds elapsed while running `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Repeat `f` until the time budget is spent: always `min` times, then
/// again only while the next repetition (estimated as the slowest so far)
/// still ends within `budget_secs` of `start`, and never more than `max`
/// times.
pub fn repeat_within(
    start: Instant,
    budget_secs: f64,
    (min, max): (usize, usize),
    mut f: impl FnMut() -> f64,
) {
    let mut slowest = 0.0f64;
    for i in 0..max {
        if i >= min && start.elapsed().as_secs_f64() + slowest > budget_secs {
            break;
        }
        slowest = slowest.max(f());
    }
}

/// 64-bit FNV-1a, for digests of report text and fingerprint lists.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn repeat_within_runs_at_least_once() {
        let mut n = 0;
        repeat_within(Instant::now(), 0.0, (1, 10), || {
            n += 1;
            1.0
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(0.1234567891), "0.1234567891");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0.0");
    }
}
