//! The single-simulation workloads: one all-to-all (or one set of
//! streams) per execution, closed loop, one at a time.

use crate::aa::{self, Schedule};
use crate::report::{peak_rss_mb, repeat_within, timed, EndToEnd, Layers, Outcome};
use crate::Size;
use bgl_core::{run_aa, AaWorkload, StrategyKind};
use bgl_harness::conformance::golden::fingerprint;
use bgl_model::MachineParams;
use bgl_sim::{
    Engine, EngineMode, FlowSpec, NetStats, NodeProgram, PerfConfig, PerfProfile, ScriptedProgram,
    SendSpec, SimConfig,
};
use bgl_torus::{AaLoadAnalysis, Partition};
use std::num::NonZeroUsize;
use std::time::Instant;

/// What one single-simulation workload runs.
pub enum Traffic {
    /// An adaptive randomized all-to-all.
    AllToAll(AaWorkload),
    /// Long adaptive streams between `pairs`, `sends` packets each,
    /// paced to 1/32 chunk per cycle.
    Streams { pairs: Vec<(u32, u32)>, sends: u32 },
}

pub struct Spec {
    pub shape: &'static str,
    pub traffic: Traffic,
    /// Simulate once more on two shards in the traced run.
    pub shard_alt: bool,
    /// Committed `NetStats` fingerprint at the default seed.
    pub golden: u64,
}

/// Stream packets: 8 chunks carrying 240 payload bytes.
const STREAM_CHUNKS: u8 = 8;
const STREAM_PAYLOAD: u32 = 240;

impl Spec {
    pub fn dense(size: Size, seed: u64) -> Spec {
        let (shape, golden) = match size {
            Size::Full => ("8x8x8", 0xe1bb_f038_f274_fc6d),
            Size::Smoke => ("4x4x4", 0x7d21_7886_f173_0c5a),
        };
        Spec {
            shape,
            // A quarter of the destinations keeps every node busy every
            // cycle while making each execution short enough that a run
            // holds a dozen of them.
            traffic: Traffic::AllToAll(AaWorkload {
                seed,
                ..AaWorkload::sampled(912, 0.25)
            }),
            shard_alt: true,
            golden,
        }
    }

    pub fn full_machine(size: Size, seed: u64) -> Spec {
        let (shape, nodes, golden) = match size {
            Size::Full => ("32x32x20", 20_480.0, 0x59b8_7862_a695_e8a7),
            Size::Smoke => ("8x8x4", 256.0, 0x71e7_ceec_3ae2_8191),
        };
        Spec {
            shape,
            traffic: Traffic::AllToAll(AaWorkload {
                seed,
                ..AaWorkload::sampled(1, 16.0 / (nodes - 1.0))
            }),
            shard_alt: false,
            golden,
        }
    }

    pub fn sparse_streams(size: Size, seed: u64) -> Spec {
        let part: Partition = "16x8x8".parse().expect("valid shape");
        let (sends, golden) = match size {
            Size::Full => (8000, 0x4bd2_06fd_1e4f_0908),
            Size::Smoke => (200, 0x8c4c_7497_9818_5c03),
        };
        Spec {
            shape: "16x8x8",
            traffic: Traffic::Streams {
                pairs: stream_pairs(part.num_nodes(), seed),
                sends,
            },
            shard_alt: false,
            golden,
        }
    }

    fn partition(&self) -> Partition {
        self.shape.parse().expect("valid shape")
    }

    /// The traffic the programs schedule, with the (src, dst) pairs.
    fn schedule(&self, part: &Partition, params: &MachineParams) -> Schedule {
        match &self.traffic {
            Traffic::AllToAll(w) => aa::schedule(part, w, params),
            Traffic::Streams { pairs, sends } => Schedule {
                pairs: pairs.clone(),
                packets: pairs.len() as u64 * *sends as u64,
                payload_bytes: pairs.len() as u64 * *sends as u64 * STREAM_PAYLOAD as u64,
            },
        }
    }

    /// Base engine configuration and node programs (the core layer).
    fn build(
        &self,
        part: &Partition,
        params: &MachineParams,
    ) -> (SimConfig, Vec<Box<dyn NodeProgram>>) {
        let mut cfg = SimConfig::new(*part);
        let programs = match &self.traffic {
            Traffic::AllToAll(w) => {
                let strategy = aa::configure(part, w, &StrategyKind::ar(), params, &mut cfg);
                aa::programs(part, w, &strategy, params)
            }
            Traffic::Streams { pairs, sends } => {
                cfg.flow = FlowSpec::Rate {
                    chunks_per_cycle: 1.0 / 32.0,
                };
                let mut programs: Vec<Box<dyn NodeProgram>> = (0..part.num_nodes())
                    .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
                    .collect();
                for &(src, dst) in pairs {
                    programs[src as usize] = Box::new(ScriptedProgram::new(
                        (0..*sends)
                            .map(|_| SendSpec::adaptive(dst, STREAM_CHUNKS, STREAM_PAYLOAD))
                            .collect(),
                        0,
                    ));
                    programs[dst as usize] = Box::new(ScriptedProgram::new(vec![], *sends as u64));
                }
                programs
            }
        };
        (cfg, programs)
    }

    /// One complete execution through the program's own entry point:
    /// `run_aa` for an all-to-all, build-and-run for the streams.
    fn execute(&self, part: &Partition, params: &MachineParams) -> Result<NetStats, String> {
        match &self.traffic {
            Traffic::AllToAll(w) => {
                run_aa(*part, w, &StrategyKind::ar(), params, SimConfig::new(*part))
                    .map(|r| r.stats)
                    .map_err(|e| e.to_string())
            }
            Traffic::Streams { .. } => {
                let (cfg, programs) = self.build(part, params);
                Engine::new(cfg, programs).run().map_err(|e| e.to_string())
            }
        }
    }

    fn check(
        &self,
        stats: &NetStats,
        expected: &Schedule,
        default_seed: bool,
    ) -> Result<(), String> {
        aa::check_delivery(self.shape, stats, &StrategyKind::ar(), expected)?;
        let fp = fingerprint(stats);
        if default_seed && fp != self.golden {
            return Err(format!(
                "{}: NetStats fingerprint {fp:016x} differs from the recorded {:016x}",
                self.shape, self.golden
            ));
        }
        Ok(())
    }
}

/// Four disjoint (source, destination) pairs drawn from `seed`.
fn stream_pairs(nodes: u32, seed: u64) -> Vec<(u32, u32)> {
    let mut state = seed;
    let mut picked: Vec<u32> = Vec::with_capacity(8);
    while picked.len() < 8 {
        let r = (splitmix64(&mut state) % nodes as u64) as u32;
        if !picked.contains(&r) {
            picked.push(r);
        }
    }
    picked.chunks(2).map(|c| (c[0], c[1])).collect()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The timed run: complete executions, each checked, for nine tenths of
/// `seconds`, then set-ups in what is left.
pub fn timed_run(spec: &Spec, seconds: f64, default_seed: bool) -> Outcome {
    let start = Instant::now();
    let params = MachineParams::bgl();
    let part = spec.partition();
    let expected = spec.schedule(&part, &params);
    let mut out = Outcome::default();

    let mut walls = Vec::new();
    let mut fps = Vec::new();
    let mut sim_cycles = 0;
    repeat_within(start, seconds * 0.9, (1, 1000), || {
        let (secs, result) = timed(|| spec.execute(&part, &params));
        walls.push(secs);
        out.tally(result.and_then(|stats| {
            sim_cycles = stats.completion_cycle;
            fps.push(fingerprint(&stats));
            spec.check(&stats, &expected, default_seed)
        }));
        secs
    });
    if fps.windows(2).any(|w| w[0] != w[1]) {
        out.problem(format!(
            "{}: NetStats differ between repetitions",
            spec.shape
        ));
    }
    if let Some(fp) = fps.first() {
        out.notes.push(format!("netstats_fingerprint {fp:016x}"));
    }
    let peak_rss_mb = peak_rss_mb();

    // Set-up, workload inputs to a ready engine, in what is left of the
    // budget (at least 11 times).
    let mut setups = Vec::new();
    repeat_within(start, seconds, (11, 101), || {
        let (secs, engine) = timed(|| {
            let part: Partition = spec.shape.parse().expect("valid shape");
            let (cfg, programs) = spec.build(&part, &params);
            Engine::new(cfg, programs)
        });
        drop(engine);
        setups.push(secs);
        secs
    });
    EndToEnd {
        walls,
        setups,
        sim_cycles,
        peak_rss_mb,
    }
    .push_into(&mut out);
    out
}

/// The traced run: one untraced execution, then the same simulation
/// rebuilt layer by layer with each public call timed, then the
/// alternative engine cores. Every variant must reproduce the untraced
/// `NetStats` exactly.
pub fn traced_run(spec: &Spec, default_seed: bool) -> Outcome {
    let params = MachineParams::bgl();
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let part = spec.partition();
    let expected = spec.schedule(&part, &params);

    let (untraced_s, untraced) = timed(|| spec.execute(&part, &params));
    let reference = match untraced.and_then(|stats| {
        spec.check(&stats, &expected, default_seed)?;
        Ok(fingerprint(&stats))
    }) {
        Ok(fp) => fp,
        Err(e) => {
            out.tally(Err(e));
            return out;
        }
    };
    out.attempted += 1;

    let t0 = Instant::now();
    let (parse_s, part) = timed(|| spec.shape.parse::<Partition>().expect("valid shape"));
    let m = match &spec.traffic {
        Traffic::AllToAll(w) => w.m_bytes,
        Traffic::Streams { .. } => STREAM_PAYLOAD as u64,
    };
    let (analysis_s, peak_byte_times) = timed(|| AaLoadAnalysis::new(part).peak_time_byte_times(m));
    layers.parse_s = parse_s;
    layers.analysis_s = analysis_s;
    layers.hop_plan_ns = aa::hop_plan_ns(&part, &expected.pairs, 200_000);
    let (build_s, (mut cfg, programs)) = timed(|| spec.build(&part, &params));
    cfg.perf = Some(PerfConfig::default());
    let (new_s, mut engine) = timed(|| Engine::new(cfg, programs));
    let (run_s, result) = timed(|| engine.run());
    let perf = engine.take_perf().unwrap_or_default();
    drop(engine);
    let traced_s = t0.elapsed().as_secs_f64();
    out.tally(match result {
        Ok(stats) if fingerprint(&stats) == reference => {
            layers.stats.add(&stats);
            layers.node_cycles = part.num_nodes() as f64 * stats.completion_cycle as f64;
            if let Traffic::AllToAll(w) = &spec.traffic {
                let peak_cycles = peak_byte_times * w.effective_fraction(part.num_nodes())
                    / params.payload_bytes_per_cycle();
                let sim = bgl_model::percent_of_peak(peak_cycles, stats.completion_cycle as f64);
                let model = bgl_model::direct::predicted_percent_of_peak(&part, w.m_bytes, &params);
                layers.eq3_gap_pct = (model - sim).abs();
                layers.paper_gap_pct = aa::paper_percent(&part.to_string(), &StrategyKind::ar())
                    .map_or(0.0, |paper| (paper - sim).abs());
            }
            Ok(())
        }
        Ok(_) => Err(format!(
            "{}: traced NetStats differ from the timed run",
            spec.shape
        )),
        Err(e) => Err(format!("{} traced: {e}", spec.shape)),
    });
    out.notes.push(format!(
        "netstats_fingerprint {reference:016x} (timed and traced)"
    ));
    layers.build_s = build_s;
    layers.packets_scheduled = expected.packets;
    layers.new_s = new_s;
    layers.run_s = run_s;
    layers.phases = perf.phase_totals();
    layers.active_occupancy_mean = perf.active_occupancy_mean;
    layers.trace_overhead = traced_s / untraced_s;

    // The same simulation on the alternative engine cores.
    let mut alt = |mode: EngineMode, shards: usize| -> Option<(f64, PerfProfile)> {
        let (mut cfg, programs) = spec.build(&part, &params);
        cfg.engine = mode;
        cfg.shards = NonZeroUsize::new(shards).expect("positive shard count");
        cfg.perf = Some(PerfConfig::default());
        let mut engine = Engine::new(cfg, programs);
        let (secs, result) = timed(|| engine.run());
        let ok = match result {
            Ok(stats) if fingerprint(&stats) == reference => Ok(()),
            Ok(_) => Err(format!("{}: {mode} x{shards} NetStats differ", spec.shape)),
            Err(e) => Err(format!("{} {mode} x{shards}: {e}", spec.shape)),
        };
        let passed = ok.is_ok();
        out.tally(ok);
        passed.then(|| (secs, engine.take_perf().unwrap_or_default()))
    };
    if let Some((secs, perf)) = alt(EngineMode::EventDriven, 1) {
        let event = perf.event.unwrap_or_default();
        layers.event_speedup = run_s / secs;
        layers.skipped_cycles = event.skipped_cycles;
        layers.fresh_suppressions = event.fresh_suppressions;
    }
    if spec.shard_alt {
        if let Some((secs, perf)) = alt(EngineMode::default(), 2) {
            layers.shard2_speedup = run_s / secs;
            layers.barrier_wait_s = perf.barrier_wait_secs();
        }
    }
    layers.push_into(&mut out);
    out
}
