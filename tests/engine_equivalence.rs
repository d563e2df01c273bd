//! Differential fuzzer for the engine's observational equivalences.
//!
//! Random (partition, strategy, message size, coverage, trace interval)
//! configurations drawn across the real strategy stack, asserting three
//! independences the simulator promises:
//!
//! 1. **Engine mode**: the production core, profiled, produces
//!    byte-identical `NetStats` — cycle counts, latency histograms,
//!    per-dimension link counters — to the reference full-scan path
//!    (`SimConfig::engine`, see `EngineMode`).
//! 2. **Tracing**: enabling `SimConfig::trace` changes nothing in
//!    `NetStats`, in either engine mode, and the recorded per-dimension
//!    link-busy deltas sum exactly to the run's `link_busy_chunks`.
//! 3. **Runner parallelism**: `Runner` results are byte-identical
//!    between `--jobs 1` and a many-thread pool.
//!
//! This replaces an earlier hand-picked 8-configuration grid: the fuzzer
//! spans the same symmetric/asymmetric × full/sampled × direct/indirect
//! space but resamples it freshly each run (seeds are deterministic per
//! test; failing cases persist to `proptest-regressions/` for replay).

use bgl_alltoall::harness::runner::{RunPoint, Runner, Scale};
use bgl_alltoall::prelude::*;
use bgl_sim::{EngineMode, FaultPlan, LinkFault, PerfConfig, TraceConfig};
use proptest::prelude::*;

/// The strategy pool: every class once — direct adaptive/deterministic,
/// throttled, and the three software-forwarding schemes.
fn strategy_pool() -> [StrategyKind; 6] {
    [
        StrategyKind::ar(),
        StrategyKind::dr(),
        StrategyKind::throttled(1.25),
        StrategyKind::tps(),
        StrategyKind::vmesh(),
        StrategyKind::xyz(),
    ]
}

/// Shapes spanning 1D/2D/3D, symmetric and asymmetric, torus and mesh.
const SHAPES: [&str; 6] = ["8x1x1", "4x4", "4x4x4", "8x4x4", "4x4x8", "8x8x4M"];

/// One drawn configuration, with coverage scaled down on the larger
/// partitions so a fuzz case stays sub-second.
fn config(
    shape_i: usize,
    strat_i: usize,
    m_i: usize,
    cov_i: usize,
) -> (Partition, StrategyKind, u64, f64) {
    let part: Partition = SHAPES[shape_i % SHAPES.len()].parse().unwrap();
    let strategy = strategy_pool()[strat_i % 6].clone();
    let m = [1u64, 64, 240, 912][m_i % 4];
    let cov = if part.num_nodes() >= 256 {
        [0.125, 0.25][cov_i % 2]
    } else {
        [1.0, 0.5][cov_i % 2]
    };
    (part, strategy, m, cov)
}

fn workload(m: u64, coverage: f64) -> AaWorkload {
    if coverage >= 1.0 {
        AaWorkload::full(m)
    } else {
        AaWorkload::sampled(m, coverage)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Equivalences 1 and 2: the production core (with host profiling
    /// on, which must not perturb it either) vs the full-scan reference,
    /// traced and untraced, on a random configuration with a random
    /// trace interval.
    #[test]
    fn engine_modes_and_tracing_agree(
        shape_i in 0usize..6,
        strat_i in 0usize..6,
        m_i in 0usize..4,
        cov_i in 0usize..2,
        interval in 100u64..2000,
    ) {
        let (part, strategy, m, cov) = config(shape_i, strat_i, m_i, cov_i);
        let workload = workload(m, cov);
        let params = MachineParams::bgl();
        let label = format!(
            "{part} {} m={m} cov={cov} every={interval}",
            strategy.name()
        );
        let mut cfg = SimConfig::new(part);
        cfg.engine = EngineMode::FullScan;
        let reference =
            run_aa(part, &workload, &strategy, &params, cfg).expect("full-scan run completes");
        let mut cfg = SimConfig::new(part);
        cfg.perf = Some(PerfConfig::default());
        let got = run_aa(part, &workload, &strategy, &params, cfg)
            .expect("production run completes");
        prop_assert_eq!(got.cycles, reference.cycles, "{}", &label);
        prop_assert_eq!(&got.stats, &reference.stats, "{}", &label);

        // Tracing on, both engine modes: NetStats must stay
        // identical and the trace's busy deltas must telescope to the
        // run totals.
        for mode in EngineMode::ALL {
            let mut cfg = SimConfig::new(part);
            cfg.engine = mode;
            cfg.trace = Some(TraceConfig::every(interval));
            let traced =
                run_aa(part, &workload, &strategy, &params, cfg).expect("traced run completes");
            prop_assert_eq!(
                &traced.stats, &reference.stats,
                "{} traced {}", &label, mode
            );
            let trace = traced.trace.expect("trace recorded");
            prop_assert_eq!(
                trace.link_busy_totals(),
                traced.stats.link_busy_chunks,
                "{} busy deltas must sum to totals ({})", &label, mode
            );
        }
    }
}

/// Draw up to `picks.len()` distinct, topologically present directed
/// links from the partition (mesh edges have no wrap link and are
/// skipped). May legitimately come up empty for unlucky draws.
fn draw_dead_links(part: &Partition, picks: &[u32]) -> Vec<LinkFault> {
    let n = part.num_nodes() as usize * 6;
    let mut seen = vec![false; n];
    let mut out = Vec::new();
    for &p in picks {
        let idx = p as usize % n;
        let node = (idx / 6) as u32;
        let dir = bgl_torus::Direction::from_index(idx % 6);
        if seen[idx] || part.neighbor(part.coord_of(node), dir).is_none() {
            continue;
        }
        seen[idx] = true;
        out.push(LinkFault::dead(node, dir));
    }
    out
}

/// Case count for the chaos suite: 8 in a normal run, raised via
/// `PROPTEST_CASES` by the weekly chaos CI job (an explicit
/// `with_cases` would silently override the environment variable).
fn chaos_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    /// Fault dimension of equivalence 1: a random set of statically dead
    /// links must leave the run's entire `Result` — completed `NetStats`
    /// byte-for-byte, or the exact same `SimError` — invariant across
    /// both engine modes. Also pins the
    /// no-op guarantee: a fault scheduled far past completion runs the
    /// degraded-mode arbitration code yet stays byte-identical to the
    /// healthy run.
    #[test]
    fn fault_plans_are_engine_invariant(
        shape_i in 0usize..6,
        strat_i in 0usize..6,
        m_i in 0usize..2,
        cov_i in 0usize..2,
        picks in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 1..4),
    ) {
        let (part, strategy, _, cov) = config(shape_i, strat_i, 0, cov_i);
        let m = [64u64, 240][m_i];
        let workload = workload(m, cov);
        let params = MachineParams::bgl();
        let plan = FaultPlan {
            links: draw_dead_links(&part, &picks),
            nodes: vec![],
        };
        let label = format!(
            "{part} {} m={m} cov={cov} faults={:?}",
            strategy.name(),
            plan.links
        );

        // An unreachable pair parks its packets until the watchdog; a
        // short (but progress-based, so never spuriously firing) fuse
        // keeps those fuzz cases fast. Identical in every compared run.
        let fuse = 10_000;
        let base = |mode: EngineMode, fault: FaultPlan| {
            let mut cfg = SimConfig::new(part);
            cfg.engine = mode;
            cfg.watchdog_cycles = fuse;
            cfg.fault = fault;
            cfg
        };

        let reference = run_aa(
            part, &workload, &strategy, &params,
            base(EngineMode::FullScan, plan.clone()),
        );
        let got = run_aa(
            part, &workload, &strategy, &params,
            base(EngineMode::EventDriven, plan.clone()),
        );
        match (&reference, &got) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.cycles, b.cycles, "{}", &label);
                prop_assert_eq!(&a.stats, &b.stats, "{}", &label);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}", &label),
            (a, b) => prop_assert!(
                false,
                "{}: reference {:?} vs {:?}",
                &label, a.is_ok(), b.is_ok()
            ),
        }

        // No-op plan: same links, dead only at a cycle no run reaches.
        let noop = FaultPlan {
            links: plan.links.iter().map(|l| LinkFault {
                fail_at: 1 << 40,
                recover_at: None,
                ..*l
            }).collect(),
            nodes: vec![],
        };
        let healthy = run_aa(
            part, &workload, &strategy, &params,
            base(EngineMode::FullScan, FaultPlan::default()),
        ).expect("healthy run completes");
        let nooped = run_aa(
            part, &workload, &strategy, &params,
            base(EngineMode::FullScan, noop),
        ).expect("noop-fault run completes");
        prop_assert_eq!(healthy.cycles, nooped.cycles, "{} noop", &label);
        prop_assert_eq!(&healthy.stats, &nooped.stats, "{} noop", &label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Equivalence 3: a random point set run through a serial and a
    /// many-thread `Runner` yields byte-identical reports per key.
    #[test]
    fn runner_parallelism_is_invisible(
        picks in proptest::arbitrary::any::<[u8; 3]>(),
        jobs in 2usize..5,
    ) {
        let serial = Runner::new(Scale::Quick).with_jobs(1);
        let parallel = Runner::new(Scale::Quick).with_jobs(jobs);
        let points: Vec<RunPoint> = picks
            .iter()
            .map(|&p| {
                let (part, strategy, m, cov) = config(
                    p as usize,
                    (p / 6) as usize,
                    (p / 36) as usize,
                    (p / 144) as usize,
                );
                RunPoint::new(part, strategy, m, cov)
            })
            .collect();
        serial.run_points(&points);
        parallel.run_points(&points);
        for point in &points {
            let a = serial.report(point).expect("serial run completes");
            let b = parallel.report(point).expect("parallel run completes");
            prop_assert_eq!(a.cycles, b.cycles, "{:?}", &point.key);
            prop_assert_eq!(&a.stats, &b.stats, "{:?}", &point.key);
        }
    }
}
