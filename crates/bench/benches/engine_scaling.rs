//! Engine scaling: per-cycle cost must track *active* nodes, not
//! partition size. Each workload runs under both engine modes
//! (`SimConfig::engine`): the reference full-scan core and the
//! event-driven production core — so the criterion report shows the win
//! in the sparse regime and the (absence of) overhead in the dense one. `engine-bench` produces the same
//! comparison as a one-shot JSON (`BENCH_engine.json`).

use bgl_core::{run_aa, AaWorkload, StrategyKind};
use bgl_model::MachineParams;
use bgl_sim::{Engine, EngineMode, NodeProgram, ScriptedProgram, SendSpec, SimConfig};
use bgl_torus::Partition;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Sparse extreme: two long streams on an otherwise idle 16x8x8
/// partition — 4 of 1024 nodes ever hold work.
fn bench_sparse_streams(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_scaling/sparse_streams_16x8x8");
    g.sample_size(10);
    for engine in EngineMode::ALL {
        g.bench_function(engine.name(), |b| {
            b.iter(|| {
                let part: Partition = "16x8x8".parse().unwrap();
                let p = part.num_nodes();
                let mut cfg = SimConfig::new(part);
                cfg.engine = engine;
                let mut programs: Vec<Box<dyn NodeProgram>> = (0..p)
                    .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
                    .collect();
                for (src, dst) in [(0u32, p - 1), (1, p - 2)] {
                    programs[src as usize] = Box::new(ScriptedProgram::new(
                        (0..100).map(|_| SendSpec::adaptive(dst, 8, 240)).collect(),
                        0,
                    ));
                    programs[dst as usize] = Box::new(ScriptedProgram::new(vec![], 100));
                }
                black_box(Engine::new(cfg, programs).run().expect("completes"))
            })
        });
    }
    g.finish();
}

/// Table 4 shape: latency-bound 1-byte all-to-all. Injection finishes
/// almost immediately; the long drain tail is where the worklists and
/// event skips pay off.
fn bench_one_byte_aa(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_scaling/aa_1byte_8x8x8");
    g.sample_size(10);
    let params = MachineParams::bgl();
    for engine in EngineMode::ALL {
        g.bench_function(engine.name(), |b| {
            b.iter(|| {
                let part: Partition = "8x8x8".parse().unwrap();
                let mut cfg = SimConfig::new(part);
                cfg.engine = engine;
                black_box(
                    run_aa(
                        part,
                        &AaWorkload::full(1),
                        &StrategyKind::ar(),
                        &params,
                        cfg,
                    )
                    .expect("run completes"),
                )
            })
        });
    }
    g.finish();
}

/// Dense regression guard: saturating full-coverage all-to-all where
/// every node stays busy and the worklists can only add bookkeeping.
fn bench_dense_aa(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_scaling/aa_dense_4x4x4_m912");
    g.sample_size(10);
    let params = MachineParams::bgl();
    for engine in EngineMode::ALL {
        g.bench_function(engine.name(), |b| {
            b.iter(|| {
                let part: Partition = "4x4x4".parse().unwrap();
                let mut cfg = SimConfig::new(part);
                cfg.engine = engine;
                black_box(
                    run_aa(
                        part,
                        &AaWorkload::full(912),
                        &StrategyKind::ar(),
                        &params,
                        cfg,
                    )
                    .expect("run completes"),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    engine_scaling,
    bench_sparse_streams,
    bench_one_byte_aa,
    bench_dense_aa
);
criterion_main!(engine_scaling);
