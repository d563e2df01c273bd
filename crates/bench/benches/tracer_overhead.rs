//! Tracer overhead: with `SimConfig::trace` unset, the engine pays one
//! predictable branch per cycle; this group pins that the disabled cost
//! is within noise, and shows the (modest) cost of active sampling at
//! the default and an aggressive interval. `trace-bench` produces the
//! same comparison as a one-shot JSON (`BENCH_trace.json`).

use bgl_core::{run_aa, AaWorkload, StrategyKind};
use bgl_model::MachineParams;
use bgl_sim::{SimConfig, TraceConfig};
use bgl_torus::Partition;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn variants() -> [(&'static str, Option<u64>); 3] {
    [
        ("disabled", None),
        ("interval_1k", Some(1000)),
        ("interval_100", Some(100)),
    ]
}

fn aa(shape: &str, m: u64, coverage: f64, trace_interval: Option<u64>) -> u64 {
    let part: Partition = shape.parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.trace = trace_interval.map(TraceConfig::every);
    let workload = if coverage >= 1.0 {
        AaWorkload::full(m)
    } else {
        AaWorkload::sampled(m, coverage)
    };
    run_aa(
        part,
        &workload,
        &StrategyKind::ar(),
        &MachineParams::bgl(),
        cfg,
    )
    .expect("run completes")
    .cycles
}

/// Dense all-to-all (every node busy every cycle): the regime where any
/// per-cycle tracing cost would be most visible.
fn bench_dense_aa(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracer_overhead/aa_dense_4x4x4_m912");
    g.sample_size(10);
    for (label, interval) in variants() {
        g.bench_function(label, |b| {
            b.iter(|| black_box(aa("4x4x4", 912, 1.0, interval)))
        });
    }
    g.finish();
}

/// Sparse sampled run: the engine's worklists skip most nodes, so the
/// relative weight of a sampling sweep is highest.
fn bench_sampled_aa(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracer_overhead/aa_sampled_8x8x8_m912");
    g.sample_size(10);
    for (label, interval) in variants() {
        g.bench_function(label, |b| {
            b.iter(|| black_box(aa("8x8x8", 912, 1.0 / 16.0, interval)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_dense_aa, bench_sampled_aa);
criterion_main!(benches);
