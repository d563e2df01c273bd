//! `engine-bench` — wall-clock comparison of the two engine modes
//! (`SimConfig::engine`, see [`EngineMode`]): the reference `full-scan`
//! core and the `event`-driven production core (per-cycle cost scales
//! with *active* nodes, and cycles with no state change are skipped
//! outright). Workloads span the sparse regime, where the production
//! core should win, and the dense regime, where its bookkeeping must not
//! regress.
//!
//! ```text
//! engine-bench [--reps N] [--out FILE] [--full-scale] [--perf]
//! ```
//!
//! Writes a JSON report (default `BENCH_engine.json` in the current
//! directory): per workload, the minimum-of-`reps` wall-clock for each
//! mode (`full_scan_secs`, `event_secs`), the production core's speedup
//! over the full scan, and the (identical) simulated cycle counts.
//! `--full-scale` adds the paper's full 20,480-node machine (32x32x20,
//! Table 2) and a dense 4,096-node machine (8x32x16) as final rows,
//! timed once per mode regardless of `--reps`. Malformed or unknown
//! arguments exit with status 2.
//!
//! `--perf` enables `SimConfig::perf` host profiling inside every timed
//! run. Results stay byte-identical (the cycle assertions still hold);
//! the point is to measure what profiling itself costs — diff a `--perf`
//! report against a plain one. The JSON records the flag, and every
//! report carries a `"host"` stamp (logical CPUs, git commit, argv) so
//! committed numbers stay interpretable.

use bgl_bench::{host_meta_json, json_escape};
use bgl_core::{run_aa, AaWorkload, StrategyKind};
use bgl_model::MachineParams;
use bgl_sim::{
    Engine, EngineMode, FlowSpec, NodeProgram, PerfConfig, ScriptedProgram, SendSpec, SimConfig,
};
use bgl_torus::{Coord, Partition};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Whether `--perf` was passed: every timed run then collects a host
/// profile (the overhead-measurement mode; results stay byte-identical).
static PERF: AtomicBool = AtomicBool::new(false);

/// The `SimConfig::perf` knob for the current invocation.
fn perf_knob() -> Option<PerfConfig> {
    PERF.load(Ordering::Relaxed).then(PerfConfig::default)
}

fn fail(msg: &str) -> ! {
    eprintln!("engine-bench: {msg}");
    std::process::exit(2);
}

struct Outcome {
    name: &'static str,
    description: &'static str,
    cycles: u64,
    full_scan_secs: f64,
    event_secs: f64,
}

/// Minimum wall-clock over `reps` runs plus the simulated cycle count
/// (asserted stable across repetitions).
fn time_runs(reps: u32, mut run: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut cycles = 0u64;
    for rep in 0..reps {
        let t0 = Instant::now();
        let c = run();
        best = best.min(t0.elapsed().as_secs_f64());
        if rep == 0 {
            cycles = c;
        } else {
            assert_eq!(c, cycles, "nondeterministic cycle count");
        }
    }
    (best, cycles)
}

/// Time one workload in both engine modes and check they simulate
/// the exact same number of cycles (the equivalence tests pin full
/// stats; here the cycle count guards against benchmarking two
/// different runs).
fn compare(
    name: &'static str,
    description: &'static str,
    reps: u32,
    run: impl Fn(EngineMode) -> u64,
) -> Outcome {
    let (full_scan_secs, full_cycles) = time_runs(reps, || run(EngineMode::FullScan));
    let (event_secs, event_cycles) = time_runs(reps, || run(EngineMode::EventDriven));
    assert_eq!(
        event_cycles, full_cycles,
        "{name}: event-driven disagrees with full-scan on cycles"
    );
    eprintln!(
        "  {name}: full-scan {full_scan_secs:.3}s  event {event_secs:.3}s  \
         ({:.2}x, {full_cycles} cycles)",
        full_scan_secs / event_secs,
    );
    Outcome {
        name,
        description,
        cycles: full_cycles,
        full_scan_secs,
        event_secs,
    }
}

fn aa_cycles(
    shape: &str,
    strategy: &StrategyKind,
    workload: &AaWorkload,
    engine: EngineMode,
) -> u64 {
    let part: Partition = shape.parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.engine = engine;
    cfg.perf = perf_knob();
    run_aa(part, workload, strategy, &MachineParams::bgl(), cfg)
        .expect("run completes")
        .cycles
}

/// A handful of long rate-paced point-to-point streams on an otherwise
/// idle 16x8x8 partition: the extreme sparse case (8 of 1024 nodes ever
/// active), with the injection window throttled to 1/32 chunk per cycle
/// so even the busy nodes spend most cycles waiting — the regime the
/// event-driven core skips outright.
fn stream_cycles(engine: EngineMode) -> u64 {
    let part: Partition = "16x8x8".parse().unwrap();
    let p = part.num_nodes();
    let mut cfg = SimConfig::new(part);
    cfg.engine = engine;
    cfg.perf = perf_knob();
    cfg.flow = FlowSpec::Rate {
        chunks_per_cycle: 1.0 / 32.0,
    };
    let mut programs: Vec<Box<dyn NodeProgram>> = (0..p)
        .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
        .collect();
    let pairs = [(0u32, p - 1), (1, p - 2), (p / 2, 2), (p / 2 + 1, 3)];
    for (src, dst) in pairs {
        programs[src as usize] = Box::new(ScriptedProgram::new(
            (0..400).map(|_| SendSpec::adaptive(dst, 8, 240)).collect(),
            0,
        ));
        programs[dst as usize] = Box::new(ScriptedProgram::new(vec![], 400));
    }
    Engine::new(cfg, programs)
        .run()
        .expect("completes")
        .completion_cycle
}

/// Table 4-style latency shape: a 1-byte all-to-all among an 8-node
/// subcommunicator (the paper's smallest Table 4 partition) embedded in
/// an otherwise idle 2048-node machine, repeated 200 times back-to-back
/// the way latency benchmarks measure — long run, 8 active nodes.
fn subcomm_aa_cycles(engine: EngineMode) -> u64 {
    let part: Partition = "16x16x8".parse().unwrap();
    let p = part.num_nodes();
    let mut cfg = SimConfig::new(part);
    cfg.engine = engine;
    cfg.perf = perf_knob();
    let comm: Vec<u32> = (0..8u16)
        .map(|x| part.rank_of(Coord::new(x, 0, 0)))
        .collect();
    let programs: Vec<Box<dyn NodeProgram>> = (0..p)
        .map(|r| {
            if comm.contains(&r) {
                let sends: Vec<SendSpec> = (0..200)
                    .flat_map(|_| {
                        comm.iter()
                            .filter(move |&&d| d != r)
                            .map(|&d| SendSpec::adaptive(d, 1, 1))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                Box::new(ScriptedProgram::new(sends, 7 * 200)) as Box<dyn NodeProgram>
            } else {
                Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>
            }
        })
        .collect();
    Engine::new(cfg, programs)
        .run()
        .expect("completes")
        .completion_cycle
}

/// One benchmark row: name, description, reps, and the run closure
/// (returns the simulated cycle count, asserted equal across modes).
type Workload = (
    &'static str,
    &'static str,
    u32,
    Box<dyn Fn(EngineMode) -> u64>,
);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps = 3u32;
    let mut out = "BENCH_engine.json".to_string();
    let mut full_scale = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reps" => {
                let v = it.next().unwrap_or_default();
                reps = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => fail(&format!("--reps needs a positive integer, got {v:?}")),
                };
            }
            "--out" => match it.next() {
                Some(p) if !p.is_empty() && !p.starts_with("--") => out = p,
                _ => fail("--out needs a file path"),
            },
            "--full-scale" => full_scale = true,
            "--perf" => PERF.store(true, Ordering::Relaxed),
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    eprintln!("engine-bench: {reps} reps per mode, min wall-clock reported");
    let ar = StrategyKind::ar();
    let tps = StrategyKind::tps();
    let mut workloads: Vec<Workload> = vec![
        (
            "sparse_streams_16x8x8",
            "4 long rate-paced adaptive streams (1/32 chunk per cycle) on an idle \
             1024-node partition (8 nodes ever active)",
            reps,
            Box::new(stream_cycles),
        ),
        (
            "subcomm_aa_1byte_16x16x8",
            "Table 4 latency shape: 200 back-to-back 1-byte all-to-alls among an \
             8-node subcommunicator of an idle 2048-node machine",
            reps,
            Box::new(subcomm_aa_cycles),
        ),
        (
            "aa_1byte_8x8x8_ar",
            "Table 4 shape: 1-byte all-to-all on 8x8x8, adaptive randomized",
            reps,
            Box::new({
                let ar = ar.clone();
                move |e| aa_cycles("8x8x8", &ar, &AaWorkload::full(1), e)
            }),
        ),
        (
            "aa_sampled_8x8x8_m912_tps",
            "sampled Table 3 shape: m=912 on 8x8x8 at 1/16 coverage, two-phase schedule",
            reps,
            Box::new(move |e| aa_cycles("8x8x8", &tps, &AaWorkload::sampled(912, 1.0 / 16.0), e)),
        ),
        (
            "aa_dense_8x8x8_m912_ar",
            "dense regression guard: full-coverage m=912 all-to-all on 8x8x8",
            reps,
            Box::new({
                let ar = ar.clone();
                move |e| aa_cycles("8x8x8", &ar, &AaWorkload::full(912), e)
            }),
        ),
        (
            "aa_4d_4x4x4x4_m64_ar",
            "4-D torus row: full-coverage m=64 all-to-all on 4x4x4x4 \
             (256 nodes, 8 links per node) — the arity-generalized router path",
            reps,
            Box::new({
                let ar = ar.clone();
                move |e| aa_cycles("4x4x4x4", &ar, &AaWorkload::full(64), e)
            }),
        ),
    ];
    if full_scale {
        // The full BG/L machine of the paper's Table 2: 20,480 nodes.
        // Destination sampling (16 per node) keeps the run in budget;
        // one rep per mode — the full-scan reference alone is minutes.
        workloads.push((
            "table2_full_machine_32x32x20_ar",
            "paper's full 20,480-node machine (32x32x20, Table 2): sampled \
             1-byte adaptive all-to-all, 16 destinations per node",
            1,
            Box::new({
                let ar = ar.clone();
                move |e| aa_cycles("32x32x20", &ar, &AaWorkload::sampled(1, 16.0 / 20_479.0), e)
            }),
        ));
        // A dense 4,096-node run where every node stays active every
        // cycle, so the worklists and event skips buy nothing: the
        // per-node-cycle cost row. 32 m=912 destinations per node keeps
        // one rep in budget.
        workloads.push((
            "aa_dense_8x32x16_m912_ar",
            "dense 4,096-node machine (8x32x16): sampled m=912 adaptive all-to-all, \
             32 destinations per node, every node active",
            1,
            Box::new(move |e| {
                aa_cycles("8x32x16", &ar, &AaWorkload::sampled(912, 32.0 / 4_095.0), e)
            }),
        ));
    }

    let results: Vec<Outcome> = workloads
        .iter()
        .map(|(name, description, reps, run)| compare(name, description, *reps, run))
        .collect();
    let mut body = String::from("{\n");
    body.push_str("  \"benchmark\": \"engine modes: full-scan vs event-driven\",\n");
    body.push_str("  \"tool\": \"engine-bench\",\n");
    body.push_str(&format!("  \"reps_per_mode\": {reps},\n"));
    body.push_str(&format!("  \"perf\": {},\n", PERF.load(Ordering::Relaxed)));
    body.push_str(&format!("  {},\n", host_meta_json()));
    body.push_str("  \"metric\": \"min wall-clock seconds per full simulation\",\n");
    body.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"description\": \"{}\", \"cycles\": {}, \
             \"full_scan_secs\": {:.4}, \"event_secs\": {:.4}, \"speedup\": {:.3}}}{}\n",
            json_escape(r.name),
            json_escape(r.description),
            r.cycles,
            r.full_scan_secs,
            r.event_secs,
            r.full_scan_secs / r.event_secs,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    body.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out, &body) {
        fail(&format!("cannot write {out}: {e}"));
    }
    eprintln!("wrote {out}");
}
