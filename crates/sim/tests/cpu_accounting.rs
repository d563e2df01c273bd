//! Regression tests for the engine's CPU phase.
//!
//! The per-node `cpu_free` timeline is an absolute clock; every charge must
//! anchor at `max(cpu_free, now)`. A node that has been idle carries a
//! `cpu_free` far in the past, and an unanchored `cpu_free += cost` lets it
//! absorb new work retroactively — paying nothing in wall-clock.
//!
//! The injection scan is skipped while a node's `inject_blocked` flag is
//! set, so the flag must clear on everything that can let a queued send
//! in: a send of another class queued behind a full class FIFO, and a
//! send released by a credit acknowledgement.

use bgl_sim::{
    Engine, EngineMode, FaultPlan, FlowSpec, LinkFault, NetStats, NodeApi, NodeProgram, Packet,
    ScriptedProgram, SendSpec, SimConfig, SimError,
};
use bgl_torus::{Dim, Direction, Partition, Sign};

/// Wakes up at cycle `release` after a long idle stretch, charges `charge`
/// CPU cycles with the first of two sends (a paced sender paying a batch
/// bookkeeping cost), then follows with an uncharged second send.
struct LateCharger {
    release: u64,
    charge: f64,
    sent: u8,
}

impl NodeProgram for LateCharger {
    fn next_send(&mut self, api: &mut NodeApi<'_>) -> Option<SendSpec> {
        if api.now < self.release || self.sent == 2 {
            return None;
        }
        self.sent += 1;
        if self.sent == 1 {
            api.charge_cpu(self.charge);
        }
        Some(SendSpec::adaptive(1, 1, 32))
    }

    fn is_complete(&self) -> bool {
        self.sent == 2
    }
}

/// An idle node that charges CPU at cycle `t` must pay the full charge
/// *from `t`*, not from its stale `cpu_free`. With the backdating bug,
/// `cpu_free ≈ 0 + charge` lands in the past, the charge is absorbed
/// entirely, and the follow-up send injects at `release` instead of
/// `release + charge` — visible as an early completion cycle.
#[test]
fn idle_node_cannot_absorb_extra_cpu_retroactively() {
    let part: Partition = "2x1x1".parse().unwrap();
    let release = 500u64;
    let charge = 100.0;
    let cfg = SimConfig::new(part);
    let programs: Vec<Box<dyn NodeProgram>> = vec![
        Box::new(LateCharger {
            release,
            charge,
            sent: 0,
        }),
        Box::new(ScriptedProgram::new(vec![], 2)),
    ];
    let stats = Engine::new(cfg, programs).run().expect("completes");
    // The second send cannot leave the CPU before the first send's
    // 100-cycle charge is served: completion lands after cycle 600.
    assert!(
        stats.completion_cycle >= release + charge as u64,
        "completion {} absorbed the late CPU charge",
        stats.completion_cycle
    );
    // ... but the charge is not paid twice either: wire time for a 1-chunk
    // packet plus bookkeeping is well under 40 cycles.
    assert!(
        stats.completion_cycle < release + charge as u64 + 40,
        "{}",
        stats.completion_cycle
    );
    // The busy-cycle counter saw the charge regardless of anchoring.
    assert!(stats.cpu_busy_cycles >= charge, "{}", stats.cpu_busy_cycles);
}

/// A program whose only queued packet can never inject (no injection FIFO
/// accepts its class) stalls the watchdog — as `Stalled`, never
/// `CycleLimit` — and the diagnostics count the stuck packet and the
/// incomplete receiver exactly.
#[test]
fn stuck_program_reports_stalled_with_accurate_counts() {
    let part: Partition = "2x1x1".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.inj_fifo_count = 2;
    cfg.inj_class_masks = vec![0b01, 0b01]; // class 3 has no home
    cfg.watchdog_cycles = 1_000;
    cfg.max_cycles = 1_000_000; // plenty: the watchdog must fire first
    let programs: Vec<Box<dyn NodeProgram>> = vec![
        Box::new(ScriptedProgram::new(
            vec![SendSpec::adaptive(1, 1, 32).with_class(3)],
            0,
        )),
        Box::new(ScriptedProgram::new(vec![], 1)),
    ];
    match Engine::new(cfg, programs).run() {
        Err(SimError::Stalled {
            cycle,
            live_packets,
            incomplete_programs,
            ..
        }) => {
            assert!(cycle > 1_000, "watchdog fired early at {cycle}");
            assert_eq!(live_packets, 1, "exactly the class-3 packet is stuck");
            assert_eq!(incomplete_programs, 1, "exactly the receiver is incomplete");
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
}

/// A 4-node ring whose link 0→1 (+X) dies at cycle 0, recovering at
/// `recover_at`, with two injection FIFOs reserved one per class (the
/// TPS/XYZ layout: FIFO 0 takes class 0, FIFO 1 class 1).
fn reserved_class_ring(recover_at: Option<u64>) -> SimConfig {
    let part: Partition = "4x1x1".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.inj_fifo_count = 2;
    cfg.inj_class_masks = vec![0b01, 0b10];
    cfg.watchdog_cycles = 500;
    cfg.check_invariants = true;
    cfg.fault = FaultPlan {
        links: vec![LinkFault {
            node: 0,
            dir: Direction {
                dim: Dim::X,
                sign: Sign::Plus,
            },
            fail_at: 0,
            recover_at,
        }],
        nodes: vec![],
    };
    cfg
}

/// Run `cfg` in both engine modes and require byte-identical results
/// (statistics and outcome); returns them.
fn run_all_modes(
    cfg: &SimConfig,
    programs: impl Fn() -> Vec<Box<dyn NodeProgram>>,
) -> (NetStats, Result<NetStats, SimError>) {
    let mut first: Option<(NetStats, Result<NetStats, SimError>)> = None;
    for mode in EngineMode::ALL {
        let mut cfg = cfg.clone();
        cfg.engine = mode;
        let mut engine = Engine::new(cfg, programs());
        let outcome = engine.run();
        let got = (engine.stats().clone(), outcome);
        match &first {
            None => first = Some(got),
            Some(want) => assert_eq!(&got, want, "{mode:?} diverged from the full scan"),
        }
    }
    first.expect("both modes ran")
}

/// Node 0 queues three 8-chunk class-1 packets toward the dead link (the
/// 16-chunk class-1 FIFO takes two; the third waits) and then one
/// class-0 packet the other way round the ring.
fn class_programs() -> Vec<Box<dyn NodeProgram>> {
    let c1 = || SendSpec::deterministic(1, 8, 240).with_class(1);
    let c0 = SendSpec::deterministic(3, 1, 32);
    vec![
        Box::new(ScriptedProgram::new(vec![c1(), c1(), c1(), c0], 0)),
        Box::new(ScriptedProgram::new(vec![], 3)),
        Box::new(ScriptedProgram::idle()),
        Box::new(ScriptedProgram::new(vec![], 1)),
    ]
}

/// A full class-1 FIFO must not block a class-0 send: the failed scan
/// that parks the third class-1 packet sets the node's injection-blocked
/// flag, and the class-0 pull behind it must clear the flag and inject.
#[test]
fn full_class_fifo_does_not_block_another_class() {
    let (stats, outcome) = run_all_modes(&reserved_class_ring(None), class_programs);
    match outcome {
        Err(SimError::Unreachable {
            blocked_packets, ..
        }) => assert_eq!(blocked_packets, 3, "exactly the class-1 packets park"),
        other => panic!("expected Unreachable, got {other:?}"),
    }
    assert_eq!(
        stats.packets_injected, 3,
        "two class-1 and the class-0 packet"
    );
    assert_eq!(stats.packets_delivered, 1, "the class-0 packet got through");
}

/// The same traffic with the link back at cycle 300: the class-1 FIFO
/// sits full and the node sits flagged until the recovery lets a head
/// leave, and both engine modes agree on the whole run.
#[test]
fn fault_recovery_with_reserved_classes_is_mode_invariant() {
    let (stats, outcome) = run_all_modes(&reserved_class_ring(Some(300)), class_programs);
    let done = outcome.expect("the recovery drains the parked packets");
    assert_eq!(done, stats);
    assert_eq!(stats.packets_delivered, 4);
    assert!(stats.completion_cycle > 300, "{}", stats.completion_cycle);
}

/// Node 0: three class-1 packets toward the dead link, queued at start,
/// then three class-0 packets to node 3 behind a one-packet credit
/// window that node 3's acknowledgements reopen.
struct CreditedSender {
    sent: u32,
    acked: u32,
}

impl NodeProgram for CreditedSender {
    fn start(&mut self, api: &mut NodeApi<'_>) {
        for _ in 0..3 {
            api.send(SendSpec::deterministic(1, 8, 240).with_class(1));
        }
    }

    fn next_send(&mut self, api: &mut NodeApi<'_>) -> Option<SendSpec> {
        if self.sent == 3 || !api.try_acquire_credit(3) {
            return None;
        }
        self.sent += 1;
        Some(SendSpec::deterministic(3, 1, 32))
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, _ack: &Packet) {
        self.acked += 1;
        api.apply_credit(3, 1);
    }

    fn is_complete(&self) -> bool {
        self.acked == 3
    }
}

/// Node 3: acknowledges every receipt with a one-chunk credit packet.
struct Acker {
    got: u32,
}

impl NodeProgram for Acker {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: &Packet) {
        self.got += 1;
        if api.credit_receipt(pkt.src_rank).is_some() {
            api.send(SendSpec::deterministic(pkt.src_rank, 1, 0));
        }
    }

    fn is_complete(&self) -> bool {
        self.got == 3
    }
}

/// A credit acknowledgement arriving while node 0 is flagged
/// injection-blocked (its third class-1 packet cannot fit, and the credit
/// window holds the class-0 stream back) must clear the flag: the ack
/// reopens the window, the next pull queues a class-0 send, and that send
/// injects. A stale flag would leave two class-0 packets unsent.
#[test]
fn credit_ack_clears_injection_blocked_flag() {
    let mut cfg = reserved_class_ring(None);
    cfg.flow = FlowSpec::Credit {
        window_packets: 1,
        credit_every: 1,
    };
    let programs = || -> Vec<Box<dyn NodeProgram>> {
        vec![
            Box::new(CreditedSender { sent: 0, acked: 0 }),
            Box::new(ScriptedProgram::new(vec![], 0)),
            Box::new(ScriptedProgram::idle()),
            Box::new(Acker { got: 0 }),
        ]
    };
    let (stats, outcome) = run_all_modes(&cfg, programs);
    match outcome {
        Err(SimError::Unreachable {
            blocked_packets, ..
        }) => assert_eq!(blocked_packets, 3, "exactly the class-1 packets park"),
        other => panic!("expected Unreachable, got {other:?}"),
    }
    assert_eq!(stats.packets_delivered, 6, "three data packets, three acks");
    assert!(stats.credit_blocked_events > 0, "the window did close");
}
