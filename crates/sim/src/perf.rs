//! Host-side performance profiling: where *wall-clock* time goes inside
//! the engine, as opposed to [`crate::trace`], which records *simulated*
//! time. A [`Trace`](crate::Trace) answers "at which cycle did the Y
//! FIFOs fill up?"; a [`PerfProfile`] answers "which engine phase or skip
//! decision did the host spend its seconds on?".
//!
//! Enable collection by setting [`SimConfig::perf`](crate::SimConfig::perf)
//! to a [`PerfConfig`]; retrieve the profile after the run via
//! [`Engine::take_perf`](crate::Engine::take_perf). The collector records:
//!
//! * per-phase wall-clock time for every engine phase (arrivals,
//!   deliveries, CPU, arbitration, boundary drain);
//! * event-engine counters: a power-of-two skip-length histogram, the
//!   wake-up cause breakdown (arrival ring, open poll, rate window,
//!   credit sleeper, link busy, watchdog/cycle-limit clamps) and
//!   fresh-activity suppressions;
//! * worklist occupancy;
//! * exact operation counts ([`OpCounts`]): CPU visits, injection scans,
//!   hop plans built, arbitration visits, head probes and wins.
//!
//! Collection is purely observational: the profiler reads the host clock
//! and its own counters, never simulation state, so `NetStats`, traces
//! and error cycles are byte-identical with profiling on or off in every
//! engine mode (pinned by the engine equivalence tests). Disabled, it costs one predictable branch beside
//! the tracer's. Wall-clock fields are host-dependent by nature and are
//! excluded from golden fingerprints and run-cache identity.

use serde::{Deserialize, Serialize};

/// Number of power-of-two skip-length buckets in
/// [`EventPerf::skip_histogram`]: bucket `k` counts fast-forward jumps of
/// `c` cycles with `floor(log2(c)) == k` (bucket 0 holds length-1 skips).
/// 24 buckets cover skips up to 16M cycles, far beyond the watchdog clamp.
pub const SKIP_BUCKETS: usize = 24;

/// Profiler configuration; attach to
/// [`SimConfig::perf`](crate::SimConfig::perf) to enable collection.
/// Carries no knobs today — the struct exists so future sampling options
/// (e.g. occupancy sampling stride) extend the wire format compatibly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PerfConfig {}

/// Progress-heartbeat configuration; attach to
/// [`SimConfig::progress`](crate::SimConfig::progress) to make the engine
/// print a rate-limited status line to **stderr** during long runs
/// (current cycle, packets delivered, elapsed wall time, ETA). Stdout is
/// never touched, so piped output stays byte-identical. Off by default.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProgressConfig {
    /// Minimum wall-clock seconds between heartbeat lines.
    pub interval_secs: f64,
}

impl Default for ProgressConfig {
    fn default() -> Self {
        ProgressConfig { interval_secs: 1.0 }
    }
}

/// Wall-clock seconds spent in each engine phase (see the phase walk in
/// `crates/sim/src/engine/phases.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseSecs {
    /// Phase 1: committing in-flight ring arrivals into VC FIFOs.
    pub arrivals: f64,
    /// Phase 2: moving deliverable FIFO heads into reception FIFOs.
    pub deliveries: f64,
    /// Phase 3: reception drains, program pulls and injections.
    pub cpu: f64,
    /// Always 0: packet ids are final at injection. The slot stays so the
    /// six-phase report and wire format keep their shape.
    pub id_fixup: f64,
    /// Phase 4: output-link arbitration, launching wins into the
    /// in-flight ring.
    pub arbitration: f64,
    /// The cycle-boundary drain: deferred credit releases.
    pub drain: f64,
}

impl PhaseSecs {
    /// Sum of all six phase slots.
    pub fn total(&self) -> f64 {
        self.arrivals + self.deliveries + self.cpu + self.id_fixup + self.arbitration + self.drain
    }

    /// Accumulate another record into this one.
    pub fn add(&mut self, other: &PhaseSecs) {
        self.arrivals += other.arrivals;
        self.deliveries += other.deliveries;
        self.cpu += other.cpu;
        self.id_fixup += other.id_fixup;
        self.arbitration += other.arbitration;
        self.drain += other.drain;
    }

    /// `(label, seconds)` pairs in phase order, for reports and CSV.
    pub fn named(&self) -> [(&'static str, f64); 6] {
        [
            ("arrivals", self.arrivals),
            ("deliveries", self.deliveries),
            ("cpu", self.cpu),
            ("id_fixup", self.id_fixup),
            ("arbitration", self.arbitration),
            ("drain", self.drain),
        ]
    }
}

/// Event-engine counters: what the skip-ahead layer did and why it woke.
/// Wake-cause counts classify each actual fast-forward jump by the
/// component whose bound won the earliest-event minimum; clamp counts
/// record jumps cut short by the watchdog or cycle-limit horizon.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EventPerf {
    /// Cycles the engine never stepped (total fast-forward distance).
    pub skipped_cycles: u64,
    /// Number of fast-forward jumps taken.
    pub skips: u64,
    /// Power-of-two histogram of jump lengths (see [`SKIP_BUCKETS`]).
    pub skip_histogram: [u64; SKIP_BUCKETS],
    /// Skip decisions suppressed because a stepped event marked a node
    /// fresh during the previous cycle (arbitration inputs changed — the
    /// engine must re-arbitrate next cycle).
    pub fresh_suppressions: u64,
    /// Jumps bounded by the earliest in-flight ring arrival.
    pub wake_arrival_ring: u64,
    /// Jumps bounded by a CPU-ready node with an open poll (queued sends
    /// or a program that may accept a pull as soon as its CPU frees up).
    pub wake_open_poll: u64,
    /// Jumps bounded by a closed rate window's `next_allowed` boundary.
    pub wake_rate_window: u64,
    /// Jumps bounded by a `SleepUntilDelivery` sleeper (typically a
    /// credit-window-blocked program) whose reception FIFO has work.
    pub wake_credit_sleeper: u64,
    /// Jumps bounded by a busy output link's release cycle.
    pub wake_link_busy: u64,
    /// Jumps clamped to the watchdog horizon
    /// (`last_progress + watchdog_cycles + 1`).
    pub wake_watchdog_clamp: u64,
    /// Jumps clamped to the `max_cycles` safety limit.
    pub wake_cycle_limit_clamp: u64,
}

impl EventPerf {
    /// Record one fast-forward jump of `len` cycles (`len > 0`).
    pub fn record_skip(&mut self, len: u64) {
        debug_assert!(len > 0, "a skip must move the clock");
        self.skipped_cycles += len;
        self.skips += 1;
        let bucket = (63 - len.max(1).leading_zeros() as usize).min(SKIP_BUCKETS - 1);
        self.skip_histogram[bucket] += 1;
    }

    /// `(label, count)` pairs for the wake-cause breakdown, in the order
    /// reports render them.
    pub fn wake_causes(&self) -> [(&'static str, u64); 7] {
        [
            ("arrival_ring", self.wake_arrival_ring),
            ("open_poll", self.wake_open_poll),
            ("rate_window", self.wake_rate_window),
            ("credit_sleeper", self.wake_credit_sleeper),
            ("link_busy", self.wake_link_busy),
            ("watchdog_clamp", self.wake_watchdog_clamp),
            ("cycle_limit_clamp", self.wake_cycle_limit_clamp),
        ]
    }
}

/// Deterministic operation counts of the cycle phases. Unlike the
/// wall-clock fields they do not depend on the host: a repeated run with
/// the same configuration and engine mode counts exactly the same, so a
/// changed count is a real change in the work done, never host noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OpCounts {
    /// Phase-3 node visits that reached the CPU loop (CPU free and some
    /// work queued or a program still running).
    pub cpu_visits: u64,
    /// Injection scans over a node's queued sends.
    pub inject_scans: u64,
    /// Injection scans that found no send an injection FIFO could take.
    pub failed_inject_scans: u64,
    /// Routes computed (`HopPlan::new`): one per injected packet plus one
    /// per fault detour.
    pub hop_plans_built: u64,
    /// Non-minimal fault detours taken.
    pub detours: u64,
    /// Phase-4 node visits (nodes with at least one queued head).
    pub arb_node_visits: u64,
    /// FIFO heads examined while picking link winners.
    pub arb_head_probes: u64,
    /// Arbitration wins (packets launched onto a link).
    pub arb_wins: u64,
}

impl OpCounts {
    /// `(label, count)` pairs in report order.
    pub fn named(&self) -> [(&'static str, u64); 8] {
        [
            ("cpu_visits", self.cpu_visits),
            ("inject_scans", self.inject_scans),
            ("failed_inject_scans", self.failed_inject_scans),
            ("hop_plans_built", self.hop_plans_built),
            ("detours", self.detours),
            ("arb_node_visits", self.arb_node_visits),
            ("arb_head_probes", self.arb_head_probes),
            ("arb_wins", self.arb_wins),
        ]
    }
}

/// A completed run's host-side performance profile (see the module docs
/// for what is collected). All times are wall-clock seconds on the host;
/// none of this data describes *simulated* time.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PerfProfile {
    /// Wall-clock seconds of the whole `Engine::run` call, every exit
    /// path included (completion, stall, cycle limit).
    pub total_secs: f64,
    /// Cycles actually stepped through the four phases. Equals the final
    /// cycle count only in the full-scan reference; the production core
    /// leaves skipped cycles out.
    pub stepped_cycles: u64,
    /// Mean marked worklist population (CPU + arbitration worklists) over
    /// the stepped cycles.
    pub active_occupancy_mean: f64,
    /// Largest marked worklist population seen in any stepped cycle.
    pub active_occupancy_max: u64,
    /// Wall-clock seconds per engine phase.
    pub phases: PhaseSecs,
    /// Exact operation counts of the phases.
    pub ops: OpCounts,
    /// Event-engine counters; `None` only for the full-scan reference
    /// ([`EngineMode::FullScan`](crate::EngineMode)).
    pub event: Option<EventPerf>,
}

impl PerfProfile {
    /// Wall-clock seconds per engine phase.
    pub fn phase_totals(&self) -> PhaseSecs {
        self.phases
    }

    /// Seconds spent waiting at inter-thread barriers: always 0.0, since
    /// the engine runs every cycle on the caller's thread.
    pub fn barrier_wait_secs(&self) -> f64 {
        0.0
    }

    /// Cycles skipped by the event engine (0 outside event mode).
    pub fn skipped_cycles(&self) -> u64 {
        self.event.as_ref().map_or(0, |e| e.skipped_cycles)
    }

    /// RFC-4180 CSV rendering (CRLF rows, via the shared
    /// [`crate::csv::push_row`] writer): a `metric,value` pair per row —
    /// run totals, per-phase totals, operation counts, and the event counters + skip
    /// histogram when present.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let mut row = |metric: String, value: String| {
            crate::csv::push_row(&mut out, [metric, value], "\r\n");
        };
        row("metric".into(), "value".into());
        row("total_secs".into(), self.total_secs.to_string());
        row("stepped_cycles".into(), self.stepped_cycles.to_string());
        row(
            "active_occupancy_mean".into(),
            self.active_occupancy_mean.to_string(),
        );
        row(
            "active_occupancy_max".into(),
            self.active_occupancy_max.to_string(),
        );
        for (label, secs) in self.phases.named() {
            row(format!("phase_{label}_secs"), secs.to_string());
        }
        for (label, count) in self.ops.named() {
            row(format!("op_{label}"), count.to_string());
        }
        if let Some(ev) = &self.event {
            row("skipped_cycles".into(), ev.skipped_cycles.to_string());
            row("skips".into(), ev.skips.to_string());
            row(
                "fresh_suppressions".into(),
                ev.fresh_suppressions.to_string(),
            );
            for (label, count) in ev.wake_causes() {
                row(format!("wake_{label}"), count.to_string());
            }
            for (k, count) in ev.skip_histogram.iter().enumerate() {
                row(format!("skip_len_2e{k}"), count.to_string());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases(busy: f64) -> PhaseSecs {
        PhaseSecs {
            cpu: busy * 0.5,
            arbitration: busy * 0.5,
            ..PhaseSecs::default()
        }
    }

    #[test]
    fn skip_histogram_buckets_are_powers_of_two() {
        let mut ev = EventPerf::default();
        for len in [1, 2, 3, 4, 7, 8, 1 << 20, 1 << 40] {
            ev.record_skip(len);
        }
        assert_eq!(ev.skips, 8);
        assert_eq!(ev.skip_histogram[0], 1); // 1
        assert_eq!(ev.skip_histogram[1], 2); // 2, 3
        assert_eq!(ev.skip_histogram[2], 2); // 4, 7
        assert_eq!(ev.skip_histogram[3], 1); // 8
        assert_eq!(ev.skip_histogram[20], 1);
        // Out-of-range lengths land in the last bucket.
        assert_eq!(ev.skip_histogram[SKIP_BUCKETS - 1], 1);
        assert_eq!(
            ev.skipped_cycles,
            1 + 2 + 3 + 4 + 7 + 8 + (1 << 20) + (1 << 40)
        );
    }

    #[test]
    fn phase_secs_sum_and_accumulate() {
        let mut t = phases(1.0);
        t.add(&phases(3.0));
        assert!((t.cpu - 2.0).abs() < 1e-12);
        assert!((t.total() - 4.0).abs() < 1e-12);
        let p = PerfProfile {
            phases: t,
            ..PerfProfile::default()
        };
        assert_eq!(p.phase_totals(), t);
        assert_eq!(p.barrier_wait_secs(), 0.0);
    }

    #[test]
    fn csv_is_metric_value_pairs() {
        let p = PerfProfile {
            total_secs: 0.5,
            stepped_cycles: 100,
            phases: phases(0.25),
            event: Some(EventPerf::default()),
            ..PerfProfile::default()
        };
        let csv = p.to_csv();
        let rows = crate::csv::parse(&csv);
        assert_eq!(rows[0], vec!["metric", "value"]);
        for r in &rows {
            assert_eq!(r.len(), 2, "{r:?}");
        }
        assert!(rows.iter().any(|r| r[0] == "total_secs" && r[1] == "0.5"));
        assert!(rows.iter().any(|r| r[0] == "phase_cpu_secs"));
        assert!(rows.iter().any(|r| r[0] == "op_hop_plans_built"));
        assert!(rows.iter().any(|r| r[0] == "wake_rate_window"));
        assert!(rows.iter().any(|r| r[0] == "skip_len_2e0"));
        // No quoting ever triggers: metrics and numbers are comma-free.
        assert!(!csv.contains('"'));
    }

    #[test]
    fn profile_round_trips_json() {
        let mut ev = EventPerf::default();
        ev.record_skip(37);
        ev.wake_rate_window += 1;
        let p = PerfProfile {
            total_secs: 1.25,
            stepped_cycles: 10,
            active_occupancy_mean: 3.5,
            active_occupancy_max: 9,
            phases: phases(0.5),
            ops: OpCounts {
                inject_scans: 7,
                arb_wins: 3,
                ..OpCounts::default()
            },
            event: Some(ev),
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: PerfProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
        // The config structs round-trip through the value tree too.
        let cfg = PerfConfig::default();
        assert_eq!(PerfConfig::from_value(&cfg.to_value()).unwrap(), cfg);
        let pr = ProgressConfig::default();
        assert_eq!(ProgressConfig::from_value(&pr.to_value()).unwrap(), pr);
    }
}
