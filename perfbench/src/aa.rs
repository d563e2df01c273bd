//! The all-to-all stack taken apart from outside: the same steps
//! `bgl_core::run_aa` performs, one public call at a time, so each layer
//! can be timed on its own. The traced runs check that a simulation built
//! this way produces exactly the `NetStats` of `run_aa`.

use bgl_core::{
    destination_schedule, packetize, peak_injection_rate, tps_inj_class_masks, xyz_inj_class_masks,
    AaWorkload, DirectConfig, DirectProgram, Pacer, StrategyKind, TpsConfig, TpsProgram,
    VmeshConfig, VmeshProgram, XyzProgram,
};
use bgl_model::MachineParams;
use bgl_sim::{NodeProgram, SimConfig};
use bgl_torus::{Partition, TieBreak};

/// Resolve `strategy` for `(part, m)` and apply its engine requirements
/// (pacer flow spec, reserved injection FIFOs) to `cfg`, as `run_aa` does.
pub fn configure(
    part: &Partition,
    workload: &AaWorkload,
    strategy: &StrategyKind,
    params: &MachineParams,
    cfg: &mut SimConfig,
) -> StrategyKind {
    let strategy = strategy.resolve(part, workload.m_bytes);
    let pacer = strategy.pacer();
    if !pacer.is_unpaced() {
        cfg.flow = pacer.resolve(peak_injection_rate(part, workload, params));
    }
    match &strategy {
        StrategyKind::TwoPhaseSchedule { .. } => {
            cfg.inj_class_masks = tps_inj_class_masks(cfg.inj_fifo_count);
        }
        StrategyKind::XyzRouting { .. } => {
            cfg.inj_class_masks = xyz_inj_class_masks(cfg.inj_fifo_count, part.ndims());
        }
        _ => {}
    }
    strategy
}

/// One node program per rank for a resolved strategy (the core layer).
pub fn programs(
    part: &Partition,
    workload: &AaWorkload,
    strategy: &StrategyKind,
    params: &MachineParams,
) -> Vec<Box<dyn NodeProgram>> {
    let direct = |cfg: DirectConfig| -> Vec<Box<dyn NodeProgram>> {
        (0..part.num_nodes())
            .map(|r| {
                Box::new(DirectProgram::new(r, part, workload, &cfg, params))
                    as Box<dyn NodeProgram>
            })
            .collect()
    };
    match strategy {
        StrategyKind::MpiBaseline { .. } => direct(DirectConfig::mpi(params)),
        StrategyKind::AdaptiveRandomized { .. } => direct(DirectConfig::ar(params)),
        StrategyKind::DeterministicRouted { .. } => direct(DirectConfig::dr(params)),
        StrategyKind::TwoPhaseSchedule { linear, .. } => {
            let cfg = TpsConfig { linear: *linear };
            (0..part.num_nodes())
                .map(|r| {
                    Box::new(TpsProgram::new(r, part, workload, &cfg, params))
                        as Box<dyn NodeProgram>
                })
                .collect()
        }
        StrategyKind::VirtualMesh { layout, .. } => {
            let cfg = VmeshConfig {
                layout: *layout,
                ..VmeshConfig::default()
            };
            (0..part.num_nodes())
                .map(|r| {
                    Box::new(VmeshProgram::new(r, part, workload, &cfg, params))
                        as Box<dyn NodeProgram>
                })
                .collect()
        }
        StrategyKind::XyzRouting { .. } => (0..part.num_nodes())
            .map(|r| Box::new(XyzProgram::new(r, part, workload, params)) as Box<dyn NodeProgram>)
            .collect(),
        StrategyKind::Auto => unreachable!("configure resolves Auto"),
    }
}

/// Whether a strategy sends every packet straight to its destination
/// (so delivered traffic must equal the scheduled traffic exactly).
pub fn is_direct(strategy: &StrategyKind) -> bool {
    matches!(
        strategy,
        StrategyKind::MpiBaseline { .. }
            | StrategyKind::AdaptiveRandomized { .. }
            | StrategyKind::DeterministicRouted { .. }
    )
}

/// The benchmark's strategy groups for per-strategy harness timing.
pub fn group(strategy: &StrategyKind) -> &'static str {
    match strategy {
        StrategyKind::AdaptiveRandomized {
            pacer: Pacer::RateWindow { .. },
        } => "throttled",
        StrategyKind::AdaptiveRandomized { .. } | StrategyKind::MpiBaseline { .. } => "ar",
        StrategyKind::DeterministicRouted { .. } => "dr",
        StrategyKind::XyzRouting { .. } => "xyz",
        StrategyKind::TwoPhaseSchedule { .. } => "tps",
        StrategyKind::VirtualMesh { .. } | StrategyKind::Auto => "vmesh",
    }
}

pub const GROUPS: [&str; 6] = ["ar", "dr", "throttled", "xyz", "tps", "vmesh"];

/// The application-level traffic of an all-to-all: every (source,
/// destination) pair the workload schedules, and the packets and payload
/// bytes those pairs carry.
pub struct Schedule {
    pub pairs: Vec<(u32, u32)>,
    pub packets: u64,
    pub payload_bytes: u64,
}

pub fn schedule(part: &Partition, workload: &AaWorkload, params: &MachineParams) -> Schedule {
    let p = part.num_nodes();
    let dests = workload.dests_per_node(p);
    let shapes = packetize(
        workload.m_bytes,
        params.software_header_bytes,
        params.min_packet_bytes,
        params,
    );
    let per_pair_payload: u64 = shapes.iter().map(|s| s.payload as u64).sum();
    let pairs: Vec<(u32, u32)> = (0..p)
        .flat_map(|src| {
            destination_schedule(src, p, dests, workload.seed)
                .into_iter()
                .map(move |dst| (src, dst))
        })
        .collect();
    let n = pairs.len() as u64;
    Schedule {
        pairs,
        packets: n * shapes.len() as u64,
        payload_bytes: n * per_pair_payload,
    }
}

/// Mean nanoseconds per `HopPlan::new` over `pairs` (the torus routing
/// layer), repeated until at least `min_plans` plans are timed so tiny
/// pair sets still measure above clock resolution.
pub fn hop_plan_ns(part: &Partition, pairs: &[(u32, u32)], min_plans: usize) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let coords: Vec<_> = (0..part.num_nodes()).map(|r| part.coord_of(r)).collect();
    let passes = min_plans.div_ceil(pairs.len()).max(1);
    let t0 = std::time::Instant::now();
    let mut hops = 0u64;
    for _ in 0..passes {
        for &(s, d) in pairs {
            let plan = bgl_torus::HopPlan::new(
                part,
                coords[s as usize],
                coords[d as usize],
                TieBreak::SrcParity,
            );
            hops += std::hint::black_box(plan).total_hops() as u64;
        }
    }
    std::hint::black_box(hops);
    t0.elapsed().as_secs_f64() * 1e9 / (passes * pairs.len()) as f64
}

/// Check a completed all-to-all against what its programs scheduled:
/// exactly-once delivery always, and for direct strategies the delivered
/// packets and payload bytes equal the schedule.
pub fn check_delivery(
    what: &str,
    stats: &bgl_sim::NetStats,
    strategy: &StrategyKind,
    expected: &Schedule,
) -> Result<(), String> {
    if stats.packets_delivered + stats.dropped_by_fault != stats.packets_injected {
        return Err(format!(
            "{what}: {} delivered + {} dropped != {} injected",
            stats.packets_delivered, stats.dropped_by_fault, stats.packets_injected
        ));
    }
    if is_direct(strategy)
        && (stats.packets_delivered != expected.packets
            || stats.payload_bytes_delivered != expected.payload_bytes)
    {
        return Err(format!(
            "{what}: delivered {} packets / {} B, scheduled {} / {} B",
            stats.packets_delivered,
            stats.payload_bytes_delivered,
            expected.packets,
            expected.payload_bytes
        ));
    }
    if stats.payload_bytes_delivered < expected.payload_bytes {
        return Err(format!(
            "{what}: delivered {} B, less than the {} B scheduled",
            stats.payload_bytes_delivered, expected.payload_bytes
        ));
    }
    Ok(())
}

/// The paper's reported % of peak for `shape` under `strategy`, if any.
pub fn paper_percent(shape: &str, strategy: &StrategyKind) -> Option<f64> {
    use bgl_harness::paper;
    match strategy {
        StrategyKind::AdaptiveRandomized {
            pacer: Pacer::Unpaced,
        } => paper::TABLE1_AR_SYMMETRIC
            .iter()
            .chain(paper::TABLE2_AR_ASYMMETRIC)
            .find(|(s, _)| *s == shape)
            .map(|&(_, v)| v),
        StrategyKind::TwoPhaseSchedule { .. } => paper::TABLE3_TPS
            .iter()
            .find(|(s, _, _)| *s == shape)
            .map(|&(_, v, _)| v),
        _ => None,
    }
}
