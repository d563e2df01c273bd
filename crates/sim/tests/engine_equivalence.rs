//! The production engine core must be a pure optimization: for any
//! workload, every statistic it produces — cycle counts, histograms,
//! per-link counters — is byte-identical to the reference full-scan
//! engine (see [`EngineMode`]).

use bgl_sim::{
    Engine, EngineMode, NetStats, NodeProgram, PerfConfig, ScriptedProgram, SendSpec, SimConfig,
};
use bgl_torus::Partition;

fn uniform(part: &Partition, k: u64, chunks: u8, deterministic: bool) -> Vec<Box<dyn NodeProgram>> {
    let p = part.num_nodes();
    (0..p)
        .map(|r| {
            let sends: Vec<SendSpec> = (0..p)
                .filter(|&d| d != r)
                .flat_map(|d| {
                    (0..k).map(move |_| {
                        if deterministic {
                            SendSpec::deterministic(d, chunks, chunks as u32 * 30)
                        } else {
                            SendSpec::adaptive(d, chunks, chunks as u32 * 30)
                        }
                    })
                })
                .collect();
            let expect = (p as u64 - 1) * k;
            Box::new(ScriptedProgram::new(sends, expect)) as Box<dyn NodeProgram>
        })
        .collect()
}

/// Run the same workload under both [`EngineMode`]s and assert their
/// `NetStats` are byte-identical; returns the reference (full-scan) stats.
fn run_all_modes(cfg: &SimConfig, programs: impl Fn() -> Vec<Box<dyn NodeProgram>>) -> NetStats {
    let mut results = EngineMode::ALL.map(|mode| {
        let mut c = cfg.clone();
        c.engine = mode;
        Some(
            Engine::new(c, programs())
                .run()
                .unwrap_or_else(|e| panic!("{mode} run completes: {e}")),
        )
    });
    let reference = results[0].take().expect("full-scan ran");
    for (mode, got) in EngineMode::ALL.iter().zip(&results).skip(1) {
        assert_eq!(
            got.as_ref().expect("ran"),
            &reference,
            "{mode} must match full-scan"
        );
    }
    reference
}

/// Scripted all-to-alls across symmetric and asymmetric shapes, adaptive
/// and deterministic routing, sparse and saturating load: identical stats.
#[test]
fn scripted_workloads_match_across_modes() {
    let grid: [(&str, u64, u8, bool); 5] = [
        ("4x4x4", 1, 8, false), // symmetric, one round, adaptive
        ("8x4x4", 4, 8, false), // asymmetric, saturating, adaptive
        ("8x4x4", 2, 8, true),  // asymmetric, deterministic (bubble VC)
        ("8x1x1", 8, 8, false), // ring
        ("4x3x2", 1, 2, false), // odd shape, small packets
    ];
    for (shape, k, chunks, det) in grid {
        let part: Partition = shape.parse().unwrap();
        let cfg = SimConfig::new(part);
        run_all_modes(&cfg, || uniform(&part, k, chunks, det));
    }
}

/// Extremely sparse traffic — the regime the worklists and event skips
/// exist for — with detailed per-link stats enabled so the comparison
/// covers every counter.
#[test]
fn sparse_point_traffic_matches_across_modes() {
    let part: Partition = "8x8x4".parse().unwrap();
    let p = part.num_nodes();
    let mut cfg = SimConfig::new(part);
    cfg.detailed_link_stats = true;
    let programs = || {
        let mut programs: Vec<Box<dyn NodeProgram>> = (0..p)
            .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
            .collect();
        // Three long streams in an otherwise silent partition (all six
        // endpoints distinct).
        let pairs = [(0u32, p - 1), (1, p - 2), (p / 2, 2)];
        for (src, dst) in pairs {
            programs[src as usize] = Box::new(ScriptedProgram::new(
                (0..20).map(|_| SendSpec::adaptive(dst, 8, 240)).collect(),
                0,
            ));
            programs[dst as usize] = Box::new(ScriptedProgram::new(vec![], 20));
        }
        programs
    };
    let reference = run_all_modes(&cfg, programs);
    assert_eq!(reference.packets_delivered, 60);
    assert!(
        !reference.link_busy_per_link.is_empty(),
        "detailed stats compared"
    );
}

/// The invariant oracle must hold (it additionally checks per-cell
/// credit conservation every cycle), and its presence must not change
/// results.
#[test]
fn oracle_run_matches_unchecked_run() {
    let part: Partition = "8x4x4".parse().unwrap();
    let run = |check: bool| {
        let mut cfg = SimConfig::new(part);
        cfg.check_invariants = check;
        Engine::new(cfg, uniform(&part, 2, 8, false))
            .run()
            .unwrap_or_else(|e| panic!("oracle={check}: {e}"))
    };
    assert_eq!(run(true), run(false), "the oracle must not change results");
}

/// Host profiling must be provably non-perturbing: the same workload with
/// `SimConfig::perf` on and off, in both engine modes, produces
/// byte-identical `NetStats` — and the collected profile is internally
/// consistent (one phase record, event counters present exactly outside
/// the full scan, phase time bounded by the run's wall-clock; the wall-clock
/// bounds are deliberately loose, so only gross misattribution would
/// trip them).
#[test]
fn perf_profiling_is_invisible_and_consistent() {
    let grid: [(&str, u64, u8, bool); 2] = [
        ("8x4x4", 2, 8, false), // asymmetric, saturating, adaptive
        ("4x3x2", 1, 2, true),  // odd shape, deterministic (bubble VC)
    ];
    for (shape, k, chunks, det) in grid {
        let part: Partition = shape.parse().unwrap();
        for mode in EngineMode::ALL {
            let mut cfg = SimConfig::new(part);
            cfg.engine = mode;
            cfg.detailed_link_stats = true;
            let plain = Engine::new(cfg.clone(), uniform(&part, k, chunks, det))
                .run()
                .unwrap_or_else(|e| panic!("{shape} {mode} plain: {e}"));
            cfg.perf = Some(PerfConfig::default());
            let mut engine = Engine::new(cfg, uniform(&part, k, chunks, det));
            let profiled = engine
                .run()
                .unwrap_or_else(|e| panic!("{shape} {mode} profiled: {e}"));
            assert_eq!(
                profiled, plain,
                "{shape} {mode}: --perf must not perturb NetStats"
            );
            let p = engine.take_perf().expect("profile collected");
            let ctx = format!("{shape} {mode}");
            assert!(p.stepped_cycles > 0, "{ctx}: cycles were stepped");
            assert_eq!(p.phase_totals(), p.phases, "{ctx}: one phase record");
            assert_eq!(p.phases.id_fixup, 0.0, "{ctx}: ids are final at injection");
            assert_eq!(p.barrier_wait_secs(), 0.0, "{ctx}: no barriers");
            assert_eq!(
                p.event.is_some(),
                mode == EngineMode::EventDriven,
                "{ctx}: event counters iff production core"
            );
            assert!(p.total_secs > 0.0, "{ctx}: wall-clock measured");
            assert!(
                p.active_occupancy_mean <= p.active_occupancy_max as f64,
                "{ctx}: occupancy mean bounded by max"
            );
            // Loose timing sanity: phase laps are disjoint slices of the
            // run, so their sum cannot (grossly) exceed the whole run's
            // wall-clock. A little slack absorbs clock quantization on
            // near-zero laps.
            let busy = p.phases.total();
            assert!(
                busy <= 1e-3 + p.total_secs,
                "{ctx}: phases sum to {busy} vs total {}",
                p.total_secs
            );
            // In the full scan every stepped cycle's work happens inside
            // a timed phase lap, so the phase sum must account for the
            // bulk of the wall-clock (10 % is far below the ~90 % seen in
            // practice; the production core spends its time in
            // fast-forward, which is deliberately not a phase).
            if mode == EngineMode::FullScan {
                assert!(
                    busy >= 0.1 * p.total_secs,
                    "{ctx}: phases sum to {busy} of total {}",
                    p.total_secs
                );
            }
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(12))]

    /// Randomized equivalence fuzzer with a perf on/off dimension: any
    /// (shape, routing, engine mode, perf) cell must match the
    /// byte-identical reference stats of its perf-off sibling.
    #[test]
    fn fuzzed_configs_match_with_and_without_perf(
        shape_i in 0usize..4,
        deterministic in proptest::arbitrary::any::<bool>(),
        engine_i in 0usize..EngineMode::ALL.len(),
        perf in proptest::arbitrary::any::<bool>(),
    ) {
        let shapes = ["4x4", "4x2x2", "8x1x1", "3x3x2"];
        let part: Partition = shapes[shape_i].parse().unwrap();
        let mut cfg = SimConfig::new(part);
        cfg.engine = EngineMode::ALL[engine_i];
        let reference = Engine::new(cfg.clone(), uniform(&part, 1, 4, deterministic))
            .run()
            .expect("reference run completes");
        cfg.perf = perf.then(PerfConfig::default);
        let got = Engine::new(cfg, uniform(&part, 1, 4, deterministic))
            .run()
            .expect("run completes");
        proptest::prop_assert_eq!(got, reference);
    }
}

/// Backpressure corner: a hot sink with a tiny reception FIFO exercises
/// blocked-delivery retries and CPU re-activation; stats stay identical.
#[test]
fn hotspot_backpressure_matches_across_modes() {
    let part: Partition = "4x4".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.reception_fifo_chunks = 8;
    cfg.cpu.chunks_per_cycle = 0.5;
    let programs = || {
        (0..16u32)
            .map(|r| {
                if r == 0 {
                    Box::new(ScriptedProgram::new(vec![], 15 * 10)) as Box<dyn NodeProgram>
                } else {
                    Box::new(ScriptedProgram::new(
                        (0..10).map(|_| SendSpec::adaptive(0, 8, 240)).collect(),
                        0,
                    ))
                }
            })
            .collect()
    };
    let reference = run_all_modes(&cfg, programs);
    assert!(reference.reception_stall_events > 0);
}
