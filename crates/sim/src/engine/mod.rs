//! The simulation engine.
//!
//! One cycle is the time a 32-byte chunk takes to cross a link. Each cycle
//! runs four phases (see [`phases`]), in an order fixed for determinism:
//!
//! 1. **Arrivals** — packets whose last chunk crossed a link this cycle are
//!    committed into the downstream VC FIFO (space was reserved at
//!    arbitration time, so credits are never oversubscribed).
//! 2. **Deliveries** — VC-FIFO heads that have reached their destination
//!    move into the reception FIFO (or stall, back-pressuring the network,
//!    when it is full).
//! 3. **CPU** — each node's simulated cores drain the reception FIFO
//!    (running the program's `on_packet` hook), pull new sends from the
//!    program and pay the injection costs to place packets into injection
//!    FIFOs. All costs are charged against a single per-node CPU timeline.
//! 4. **Arbitration** — every idle output link picks, round-robin, a
//!    feasible head among the `2n · 3` transit VC FIFOs (18 on a 3-D
//!    torus) and the injection FIFOs.
//!    Adaptive packets choose a dynamic VC by join-shortest-queue, with an
//!    optional dimension-ordered bubble-VC escape; deterministic packets
//!    use the bubble VC only, honouring the bubble deadlock-avoidance rule.
//!
//! Which nodes a phase visits, and how *time* advances between cycles, is
//! the [`EngineMode`](crate::EngineMode). The production core visits only
//! the nodes on its CPU and arbitration worklists, and skips from stepped
//! cycle to stepped cycle when it can prove the intervening cycles inert
//! (see [`event`]). The full-scan reference visits every node in every
//! cycle. Both produce byte-identical [`NetStats`] and traces.
//!
//! The cycle closes with a **boundary drain**: credit freed by this
//! cycle's phase-4 pops is released only now, not mid-phase, so
//! arbitration sees one credit snapshot whatever the node visit order.
//! Two further rules fix the order of everything else that results
//! depend on: a win goes straight into the in-flight ring, so arrivals
//! commit in ascending win order; and CPU-busy time accumulates per node
//! and is folded into `NetStats::cpu_busy_cycles` in ascending node order,
//! at observation points only, so the one float sum has a fixed order.
//!
//! Beside those rules sits one memo, the per-node `inject_blocked` flag.
//! Phase 3 sets it when a node's injection scan finds no queued send an
//! injection FIFO of its class can take. An injection-FIFO pop in phase
//! 4 clears it, and so does any growth of the node's `pending` or
//! `pulled` queue (a `next_send` pull, or reactive sends from `start`,
//! `on_packet` or another hook). Nothing else changes the scan's outcome,
//! so while the flag is set phase 3 skips the scan and the event layer
//! sets no injection wake-up for the node.
//!
//! The run ends when every program reports complete and no packet remains
//! anywhere; a watchdog aborts with diagnostics if traffic stops moving.
//!
//! With [`SimConfig::trace`] set, the engine additionally records a
//! [`TraceSample`](crate::trace::TraceSample) time series (see
//! [`crate::trace`]) at a fixed cycle interval — purely observational
//! sampling that never changes results.

mod event;
mod oracle;
mod perf;
mod phases;
mod tracer;

use crate::config::{EngineMode, SimConfig, Vc};
use crate::node::{class_fifos, vc_fifo_index, NodeState};
use crate::packet::{Packet, RoutingMode, DETOUR_BUDGET};
use crate::program::{NodeApi, NodeProgram};
use crate::stats::{NetStats, LATENCY_BUCKETS};
use bgl_torus::{Coord, Dim, Direction, Partition, MAX_PORTS};
use event::EventState;
use oracle::Oracle;
use perf::{PerfState, ProgressState};
use phases::{Cycle, Router};
use std::cell::Cell;
use tracer::Tracer;

/// In-flight ring size; must exceed max packet chunks + hop latency.
const RING: usize = 64;

/// Why frozen traffic is frozen, computed from the queue state at the
/// moment the watchdog fires so a stall is diagnosable without a trace
/// run. The three causes are not exclusive and do not partition the live
/// packets — each counts a distinct blocking condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallBreakdown {
    /// Incomplete programs with at least one full credit window (their
    /// next sends are flow-control blocked, see [`crate::flow`]).
    pub credit_blocked_nodes: usize,
    /// Total full credit windows across those nodes.
    pub closed_credit_windows: u64,
    /// Transit-FIFO head packets with every allowed output direction
    /// busy or out of downstream VC credit (head-of-line blocking).
    pub hol_blocked_heads: u64,
    /// VC FIFOs whose deliverable head found the reception FIFO full.
    pub reception_stalled_fifos: u64,
    /// Transit- or injection-FIFO head packets parked purely behind
    /// faulted links (every direction their routing allows is dead and,
    /// for adaptive packets, no detour move remains). Counted separately
    /// from `hol_blocked_heads`: a fault park is a topology problem, not
    /// congestion.
    pub fault_blocked_heads: u64,
}

impl std::fmt::Display for StallBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nodes credit-blocked ({} closed windows), {} HOL-blocked heads, \
             {} reception-stalled FIFOs, {} fault-blocked heads",
            self.credit_blocked_nodes,
            self.closed_credit_windows,
            self.hol_blocked_heads,
            self.reception_stalled_fifos,
            self.fault_blocked_heads
        )
    }
}

/// One dead directed link and how many queued packets it is blocking, in
/// the per-fault breakdown of [`SimError::Unreachable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBlock {
    /// Rank of the node the dead link leaves.
    pub node: u32,
    /// Output direction of the dead link.
    pub dir: Direction,
    /// FIFO-head packets parked behind it at the watchdog snapshot.
    pub blocked: u64,
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No packet moved and no CPU work happened for `watchdog_cycles`
    /// while traffic remained (deadlock or stuck program).
    Stalled {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Packets still alive in FIFOs or flight.
        live_packets: u64,
        /// Programs not yet complete.
        incomplete_programs: usize,
        /// Why the frozen traffic is frozen (credit vs HOL vs reception),
        /// snapshotted at the watchdog.
        breakdown: StallBreakdown,
        /// With tracing enabled, compact summaries of the last few
        /// [`TraceSample`](crate::trace::TraceSample)s (the final one
        /// taken at the stall itself), so a deadlock is debuggable from
        /// the error text alone. Empty when tracing was off.
        trace_tail: Vec<String>,
    },
    /// `max_cycles` exceeded.
    CycleLimit {
        /// The configured limit.
        limit: u64,
    },
    /// Traffic froze behind permanently dead links with no recovery
    /// scheduled: deterministic routing cannot leave its dimension-ordered
    /// path, and adaptive packets exhausted their detour options. Reported
    /// instead of [`SimError::Stalled`] so a fault-induced park is never
    /// mistaken for congestion deadlock.
    Unreachable {
        /// Cycle at which the watchdog classified the park.
        cycle: u64,
        /// Packets that will never be delivered (queued plus pending).
        blocked_packets: u64,
        /// Per-dead-link breakdown of the parked FIFO heads, sorted by
        /// (node, direction).
        faults: Vec<FaultBlock>,
    },
    /// The requested component is not defined for the partition's
    /// dimensionality (e.g. the two-phase indirect schedules factor a
    /// 3-D torus and reject higher-arity shapes before simulating).
    /// Raised up front, never after cycles have run.
    UnsupportedDims {
        /// The rejecting component (a strategy's short name).
        what: &'static str,
        /// The partition's dimensionality.
        ndims: usize,
        /// Highest dimensionality the component supports.
        max_dims: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled {
                cycle,
                live_packets,
                incomplete_programs,
                breakdown,
                trace_tail,
            } => {
                write!(
                    f,
                    "simulation stalled at cycle {cycle}: {live_packets} live packets, \
                     {incomplete_programs} incomplete programs; {breakdown}"
                )?;
                for line in trace_tail {
                    write!(f, "\n  trace {line}")?;
                }
                Ok(())
            }
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} exceeded"),
            SimError::Unreachable {
                cycle,
                blocked_packets,
                faults,
            } => {
                write!(
                    f,
                    "destination unreachable at cycle {cycle}: {blocked_packets} packets \
                     blocked behind dead links with no recovery scheduled"
                )?;
                for fb in faults {
                    write!(
                        f,
                        "\n  dead link {}:{} blocking {} queued packets",
                        fb.node, fb.dir, fb.blocked
                    )?;
                }
                Ok(())
            }
            SimError::UnsupportedDims {
                what,
                ndims,
                max_dims,
            } => write!(
                f,
                "{what} supports partitions of at most {max_dims} dimensions, \
                 got a {ndims}-dimensional shape"
            ),
        }
    }
}

impl std::error::Error for SimError {}

struct Arrival {
    node: u32,
    port: u8,
    pkt: Packet,
}

#[derive(Clone, Copy)]
enum WinSource {
    Transit { fifo: u8 },
    Inject { fifo: u8 },
}

#[derive(Clone, Copy)]
struct Win {
    source: WinSource,
    vc: Vc,
    /// Non-minimal fault sidestep: the winner re-plans its route from the
    /// downstream node (see `apply_win`). Always false on a healthy run.
    detour: bool,
}

/// A lazily-cleared bitset over node indices, scanned in ascending index
/// order (never hash order) so the production core visits nodes in
/// exactly the sequence the full scan would.
///
/// The engine maintains the invariant that every node with work is marked;
/// a marked node that turns out to be idle is cleared when visited. Bits
/// are only ever *set* between phases (arrivals mark arbitration work,
/// deliveries mark CPU work), so a phase can iterate a snapshot of each
/// word without missing work.
struct Worklist {
    words: Vec<u64>,
}

impl Worklist {
    /// A set over `n` nodes with every node marked (the engine prunes
    /// lazily from the conservative side).
    fn all(n: usize) -> Worklist {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            let tail = n % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        Worklist { words }
    }

    #[inline]
    fn mark(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.words[i >> 6] &= !(1 << (i & 63));
    }

    /// Marked-node count: an upper bound on the nodes with real work.
    fn popcount(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The engine's work queues. Every index stored here (ring arrivals,
/// `deliver_q`, worklist bits) is a global node rank.
struct Queues {
    /// In-flight ring: slot `t % RING` holds the packets arriving at
    /// cycle `t`, in win order.
    ring: Vec<Vec<Arrival>>,
    deliver_q: Vec<(u32, u8)>,
    /// Nodes that may have CPU work (non-empty reception/pending/pulled
    /// queues, or a program that has not declared completion).
    cpu_active: Worklist,
    /// Nodes that may have a packet to arbitrate out (non-zero `vc_mask`
    /// or `inj_mask`).
    arb_active: Worklist,
    /// Credit releases from this cycle's phase-4 pops, applied at the
    /// cycle boundary: `(credit cell, chunks)`.
    deferred: Vec<(u32, u32)>,
}

impl Queues {
    fn new(n: usize) -> Queues {
        Queues {
            ring: (0..RING).map(|_| Vec::new()).collect(),
            deliver_q: Vec::new(),
            cpu_active: Worklist::all(n),
            arb_active: Worklist::all(n),
            deferred: Vec::new(),
        }
    }
}

/// Run-wide packet and program counters, updated in place by the cycle
/// phases.
#[derive(Default)]
struct Counters {
    live_packets: u64,
    pending_total: u64,
    done_programs: usize,
    /// Id of the next injected packet: ids are dense and ascend in
    /// (cycle, node, injection order).
    next_packet_id: u64,
    /// Last cycle in which any packet moved or any program made progress
    /// (the watchdog's reference point).
    last_progress: u64,
}

/// One scheduled liveness flip of one directed link, expanded from the
/// [`FaultPlan`](crate::FaultPlan) at engine construction.
#[derive(Debug, Clone, Copy)]
struct FaultEvent {
    cycle: u64,
    link: u32,
    alive: bool,
}

/// The simulator.
pub struct Engine {
    cfg: SimConfig,
    part: Partition,
    now: u64,
    nodes: Vec<NodeState>,
    programs: Vec<Box<dyn NodeProgram>>,
    /// `neighbors[n][dir]`: node on the other end of the link, or
    /// `u32::MAX` at a mesh edge (and for directions beyond the
    /// partition's `2n` ports).
    neighbors: Vec<[u32; MAX_PORTS]>,
    /// Directed output ports per node (`2 · partition.ndims()`): the
    /// stride of every dense per-link array below.
    ports: usize,
    /// Credit cells per node (`ports · NUM_VCS`, one per transit VC FIFO).
    vc_cells: usize,
    /// The injection FIFOs of each class (see [`class_fifos`]).
    class_fifos: [u32; 8],
    /// `busy_until[n*ports+dir]`.
    link_busy_until: Vec<u64>,
    /// Available downstream space per transit VC FIFO, indexed
    /// `node * vc_cells + vc_fifo_index(port, vc)`, counting in-flight
    /// reservations (spent at the upstream win, released when the packet
    /// is popped). Cells, so the read-only [`Router`] view can spend them.
    credits: Vec<Cell<u32>>,
    queues: Queues,
    /// Event-driven wake bookkeeping; `None` exactly in the full-scan
    /// reference ([`EngineMode::FullScan`]), which visits every node and
    /// steps every cycle.
    events: Option<Box<EventState>>,
    counts: Counters,
    stats: NetStats,
    started: bool,
    /// Time-series sampler; `None` unless `SimConfig::trace` is set.
    tracer: Option<Box<Tracer>>,
    /// Conservation-law oracle; `None` unless
    /// `SimConfig::check_invariants` is set.
    oracle: Option<Box<Oracle>>,
    /// Host-side wall-clock profiler; `None` unless `SimConfig::perf` is
    /// set (see [`crate::perf`]).
    perf: Option<Box<PerfState>>,
    /// Stderr progress heartbeat; `None` unless `SimConfig::progress` is
    /// set.
    progress: Option<Box<ProgressState>>,
    /// Per-directed-link liveness (`node·ports + dir`), *empty* on a healthy
    /// run so the hot paths keep a `None` fast path instead of a bounds
    /// check per probe. Mutated only by `apply_fault_transitions`, at the
    /// top of a cycle.
    fault_alive: Vec<bool>,
    /// The fault plan expanded to per-link liveness flips, sorted by
    /// (cycle, link).
    fault_schedule: Vec<FaultEvent>,
    /// First unapplied entry of `fault_schedule`.
    fault_cursor: usize,
}

impl Engine {
    /// Build an engine over `cfg` with one program per node (rank order).
    ///
    /// # Panics
    /// Panics if `programs.len() != partition.num_nodes()` or the
    /// configuration is internally inconsistent.
    pub fn new(cfg: SimConfig, programs: Vec<Box<dyn NodeProgram>>) -> Engine {
        let part = cfg.partition;
        let p = part.num_nodes() as usize;
        assert_eq!(programs.len(), p, "need exactly one program per node");
        assert!(
            (8 + cfg.router.hop_latency_cycles as usize) < RING,
            "hop latency too large for the in-flight ring"
        );
        assert!(
            cfg.cpu.chunks_per_cycle > 0.0,
            "CPU bandwidth must be positive"
        );
        assert!(cfg.inj_fifo_count <= 32, "inj_mask is a u32 bitmask");
        cfg.flow.validate();
        if let Err(e) = cfg.fault.validate(&part) {
            panic!("invalid fault plan: {e}");
        }
        let ports = part.ports();
        let vc_cells = ports * crate::config::NUM_VCS;
        let class_fifos = class_fifos(&cfg);
        let nodes: Vec<NodeState> = (0..p as u32)
            .map(|r| NodeState::new(part.coord_of(r), &cfg, ports))
            .collect();
        let neighbors: Vec<[u32; MAX_PORTS]> = (0..p as u32)
            .map(|r| {
                let c = part.coord_of(r);
                let mut row = [u32::MAX; MAX_PORTS];
                for d in part.directions() {
                    if let Some(nc) = part.neighbor(c, d) {
                        row[d.index()] = part.rank_of(nc);
                    }
                }
                row
            })
            .collect();
        let stats = NetStats {
            link_busy_chunks: vec![0; part.ndims()],
            hops_taken: vec![0; part.ndims()],
            latency_histogram: vec![0; LATENCY_BUCKETS],
            link_busy_per_link: if cfg.detailed_link_stats {
                vec![0; p * ports]
            } else {
                Vec::new()
            },
            ..NetStats::default()
        };
        let credits = vec![Cell::new(cfg.router.vc_fifo_chunks); p * vc_cells];
        let events = (cfg.engine != EngineMode::FullScan).then(|| Box::new(EventState::new(p)));
        let tracer = cfg
            .trace
            .as_ref()
            .map(|tc| Box::new(Tracer::new(tc, part.ndims())));
        let oracle = cfg.check_invariants.then(|| Box::new(Oracle::new()));
        let perf = cfg
            .perf
            .is_some()
            .then(|| Box::new(PerfState::new(events.is_some())));
        let progress = cfg
            .progress
            .as_ref()
            .map(|pc| Box::new(ProgressState::new(pc)));
        let mut fault_alive = Vec::new();
        let mut fault_schedule = Vec::new();
        if !cfg.fault.is_empty() {
            fault_alive = vec![true; p * ports];
            for s in cfg.fault.link_schedules(&part) {
                fault_schedule.push(FaultEvent {
                    cycle: s.fail_at,
                    link: s.link as u32,
                    alive: false,
                });
                if let Some(r) = s.recover_at {
                    fault_schedule.push(FaultEvent {
                        cycle: r,
                        link: s.link as u32,
                        alive: true,
                    });
                }
            }
            fault_schedule.sort_by_key(|e| (e.cycle, e.link));
        }
        Engine {
            cfg,
            part,
            now: 0,
            nodes,
            programs,
            neighbors,
            ports,
            vc_cells,
            class_fifos,
            link_busy_until: vec![0; p * ports],
            credits,
            queues: Queues::new(p),
            events,
            counts: Counters::default(),
            stats,
            started: false,
            tracer,
            oracle,
            perf,
            progress,
            fault_alive,
            fault_schedule,
            fault_cursor: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Statistics so far. `cpu_busy_cycles` is folded from the per-node
    /// accumulators only at observation points (trace samples, run end),
    /// so mid-run reads of that one field may lag.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Run to completion. Returns the final statistics.
    pub fn run(&mut self) -> Result<NetStats, SimError> {
        // Time the whole call — every exit path included — when profiling
        // is on; off, this is one branch and no clock read.
        let t0 = self.perf.as_ref().map(|_| std::time::Instant::now());
        let result = self.run_inner();
        if let Some(t0) = t0 {
            if let Some(p) = self.perf.as_deref_mut() {
                p.profile.total_secs += t0.elapsed().as_secs_f64();
            }
        }
        result
    }

    fn run_inner(&mut self) -> Result<NetStats, SimError> {
        if !self.started {
            self.start_programs();
        }
        while !self.is_complete() {
            if self.progress_due() {
                self.progress_heartbeat();
            }
            if self.now >= self.cfg.max_cycles {
                self.sync_cpu_busy();
                return Err(SimError::CycleLimit {
                    limit: self.cfg.max_cycles,
                });
            }
            if self.now.saturating_sub(self.counts.last_progress) > self.cfg.watchdog_cycles {
                // Capture the stalled queue state itself as a final
                // sample, then report the tail: the last windows before
                // the deadlock plus the frozen snapshot.
                if self.tracer.is_some() {
                    self.record_trace_sample(true);
                }
                self.sync_cpu_busy();
                let breakdown = self.stall_breakdown();
                // Heads parked purely behind dead links, with no recovery
                // left in the schedule, will never move: report the
                // topology problem (with its per-link breakdown) rather
                // than a generic stall.
                if breakdown.fault_blocked_heads > 0 && !self.fault_recovery_pending() {
                    return Err(SimError::Unreachable {
                        cycle: self.now,
                        blocked_packets: self.counts.live_packets + self.counts.pending_total,
                        faults: self.fault_block_report(),
                    });
                }
                let trace_tail = self
                    .tracer
                    .as_ref()
                    .map(|t| t.trace.summary_tail(4))
                    .unwrap_or_default();
                return Err(SimError::Stalled {
                    cycle: self.now,
                    live_packets: self.counts.live_packets + self.counts.pending_total,
                    incomplete_programs: self.programs.len() - self.counts.done_programs,
                    breakdown,
                    trace_tail,
                });
            }
            self.step();
            // Jump over cycles no component can act in. Stepped cycles
            // behave identically in both modes, so apart from which nodes
            // a phase visits, this is the only place they differ.
            if self.events.is_some() && !self.is_complete() {
                self.fast_forward();
            }
        }
        self.sync_cpu_busy();
        if self.oracle.is_some() {
            self.oracle_quiesce_check();
        }
        Ok(self.stats.clone())
    }

    /// Whether the simulation has fully drained and every program reports
    /// complete.
    pub fn is_complete(&self) -> bool {
        self.started
            && self.counts.live_packets == 0
            && self.counts.pending_total == 0
            && self.counts.done_programs == self.programs.len()
    }

    fn start_programs(&mut self) {
        self.started = true;
        let mut programs = std::mem::take(&mut self.programs);
        for (i, prog) in programs.iter_mut().enumerate() {
            let node = &mut self.nodes[i];
            let before = node.pending.len();
            let mut api = NodeApi::new(i as u32, node.coord, 0, &self.part, &mut node.pending)
                .with_flow(&mut node.flow);
            prog.start(&mut api);
            let extra = api.take_extra_cpu();
            self.stats.credit_blocked_events += api.take_credit_blocked();
            let after = node.pending.len();
            // Anchoring at `max(cpu_free, now)` is implicit here: `start`
            // runs at cycle 0 with every `cpu_free` still 0.0.
            node.cpu_free += extra;
            if after > before {
                node.inject_blocked = false;
            }
            self.counts.pending_total += (after - before) as u64;
            if prog.is_complete() {
                node.program_done = true;
                self.counts.done_programs += 1;
            }
        }
        self.programs = programs;
    }

    /// Fold the per-node CPU-busy accumulators into
    /// `stats.cpu_busy_cycles`, in ascending node order — the one float
    /// reduction in the stats, pinned to a fixed order.
    fn sync_cpu_busy(&mut self) {
        self.stats.cpu_busy_cycles = self.nodes.iter().map(|n| n.cpu_busy).sum();
    }

    /// The shared link-liveness view, `None` on a healthy run so the hot
    /// paths keep a branch-free fast path.
    fn fault_link_alive(&self) -> Option<&[bool]> {
        (!self.fault_alive.is_empty()).then_some(&self.fault_alive[..])
    }

    /// Cycle of the next unapplied fault transition (`u64::MAX` once the
    /// schedule is exhausted) — the event-driven skip must never jump over
    /// it.
    fn next_fault_cycle(&self) -> u64 {
        self.fault_schedule
            .get(self.fault_cursor)
            .map_or(u64::MAX, |e| e.cycle)
    }

    /// Apply every fault transition scheduled at or before the current
    /// cycle: flip link liveness, drop packets in flight on dying links,
    /// and wake the affected endpoints. Runs at the top of `step()`,
    /// before any phase, so both engine modes observe transitions at
    /// exactly the same point and results stay byte-identical.
    fn apply_fault_transitions(&mut self) {
        while let Some(&ev) = self.fault_schedule.get(self.fault_cursor) {
            if ev.cycle > self.now {
                break;
            }
            self.fault_cursor += 1;
            let link = ev.link as usize;
            self.fault_alive[link] = ev.alive;
            let u = link / self.ports;
            let d = Direction::from_index(link % self.ports);
            let v = self.neighbors[u][d.index()];
            debug_assert_ne!(v, u32::MAX, "validated plans never fault mesh edges");
            if !ev.alive {
                self.drop_in_flight(d, v as usize);
            }
            // A transition is progress: the topology changed, so the
            // watchdog clock restarts (a long wait for a scheduled
            // recovery must not fire it).
            self.counts.last_progress = self.now;
            self.wake_for_fault(u, v as usize);
        }
    }

    /// Mark both endpoints of a flipped link active (and the cycle
    /// fresh): a recovery can unpark their heads, a failure changes what
    /// their arbitration may do.
    fn wake_for_fault(&mut self, u: usize, v: usize) {
        if let Some(ev) = &mut self.events {
            ev.mark_fresh();
        }
        for g in [u, v] {
            self.queues.arb_active.mark(g);
            self.queues.cpu_active.mark(g);
        }
    }

    /// Remove every packet still crossing a link into `v` on port `dp`
    /// (the receive port of a link that just died). Dropped packets
    /// release their reserved downstream credit, count into
    /// `NetStats::dropped_by_fault`, and notify the destination program —
    /// exactly-once delivery becomes "delivered or dropped, exactly
    /// once", which the oracle checks at quiesce.
    fn drop_in_flight(&mut self, d: Direction, v: usize) {
        let dp = d.opposite().index();
        let keep = (self.now % RING as u64) as usize;
        let mut dropped: Vec<Packet> = Vec::new();
        for (slot, ring) in self.queues.ring.iter_mut().enumerate() {
            // Arrivals of the current cycle finished crossing before the
            // transition; they arrive normally. Every other slot holds
            // future arrivals: chunks still on the dying wire.
            if slot == keep {
                continue;
            }
            let mut i = 0;
            while i < ring.len() {
                if ring[i].node as usize == v && ring[i].port as usize == dp {
                    dropped.push(ring.remove(i).pkt);
                } else {
                    i += 1;
                }
            }
        }
        for pkt in dropped {
            let cell = v * self.vc_cells + vc_fifo_index(dp, pkt.vc.index());
            self.router().release(cell, pkt.chunks as u32);
            self.counts.live_packets -= 1;
            self.stats.dropped_by_fault += 1;
            if let Some(o) = self.oracle.as_deref_mut() {
                o.on_drop(&pkt);
            }
            let dst = self.part.rank_of(pkt.dst) as usize;
            let prog = &mut self.programs[dst];
            prog.on_packet_dropped(&pkt);
            if prog.is_complete() && !self.nodes[dst].program_done {
                self.nodes[dst].program_done = true;
                self.counts.done_programs += 1;
            }
            if let Some(ev) = &mut self.events {
                ev.mark_fresh();
            }
            self.queues.cpu_active.mark(dst);
        }
    }

    /// Borrow the engine as one cycle's phase context.
    fn cycle(&mut self) -> Cycle<'_> {
        Cycle {
            router: Router {
                cfg: &self.cfg,
                neighbors: &self.neighbors,
                credits: &self.credits,
                link_alive: (!self.fault_alive.is_empty()).then_some(&self.fault_alive[..]),
                ports: self.ports,
                vc_cells: self.vc_cells,
                ndims: self.part.ndims(),
            },
            part: &self.part,
            class_fifos: self.class_fifos,
            now: self.now,
            nodes: &mut self.nodes,
            programs: &mut self.programs,
            link_busy_until: &mut self.link_busy_until,
            q: &mut self.queues,
            counts: &mut self.counts,
            stats: &mut self.stats,
            events: self.events.as_deref_mut(),
            oracle: self.oracle.as_deref_mut(),
            perf: self.perf.as_deref_mut().map(|p| &mut p.profile),
        }
    }

    /// Advance one cycle (starting the programs first if needed).
    pub fn step(&mut self) {
        if !self.started {
            self.start_programs();
        }
        if let Some(ev) = &mut self.events {
            ev.clear_fresh();
        }
        if self.fault_cursor < self.fault_schedule.len() {
            self.apply_fault_transitions();
        }
        if self.perf.is_some() {
            self.perf_note_step();
        }
        self.cycle().run();
        let t = self.now;
        self.now = t + 1;
        // Cycle-boundary oracle sweep: all four phases have run, so the
        // global counters must agree and no FIFO may be over its credit
        // budget. Disabled, this is one predictable branch per cycle.
        if self.oracle.is_some() {
            self.oracle_cycle_check(t);
        }
        // The only tracing cost in the disabled case: one predictable
        // branch per cycle (None → fall through).
        if let Some(tr) = &self.tracer {
            if self.now >= tr.next_at {
                self.record_trace_sample(false);
            }
        }
    }

    /// Diagnostic: dimension utilization snapshot helper.
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// Diagnostic: where packets currently are (for stall reports/tests).
    pub fn live_packet_count(&self) -> u64 {
        self.counts.live_packets + self.counts.pending_total
    }

    /// Diagnostic: coordinate of a rank.
    pub fn coord_of(&self, rank: u32) -> Coord {
        self.part.coord_of(rank)
    }

    /// Diagnostic: hops between two ranks under the engine's partition.
    pub fn hops_between(&self, a: u32, b: u32) -> u32 {
        self.part.hops(self.part.coord_of(a), self.part.coord_of(b))
    }

    /// Diagnostic: per-dimension utilization so far.
    pub fn dim_utilization(&self, dim: Dim) -> f64 {
        self.stats.dim_utilization(&self.part, dim)
    }

    /// The routing-feasibility view shared by phase 4 and the engine-side
    /// diagnostics (HOL probes read only the credit array, never another
    /// node's FIFO state).
    fn router(&self) -> Router<'_> {
        Router {
            cfg: &self.cfg,
            neighbors: &self.neighbors,
            credits: &self.credits,
            link_alive: self.fault_link_alive(),
            ports: self.ports,
            vc_cells: self.vc_cells,
            ndims: self.part.ndims(),
        }
    }

    /// Whether the head packet of transit FIFO `fifo` at node `n` cannot
    /// move right now: every output direction its routing mode allows
    /// (its minimal quadrant, shaped by the longest-first bias /
    /// dimension order) is either mid-transmission or out of downstream
    /// VC credit. This is the paper's head-of-line blocking signal —
    /// packets parked behind saturated long-dimension links.
    fn head_is_hol_blocked(&self, n: usize, fifo: usize, pkt: &Packet) -> bool {
        let router = self.router();
        let from_dim = Some(fifo / crate::config::NUM_VCS / 2); // port index / 2 = dimension
        let mut any_dir = false;
        for d in self.part.directions() {
            if !router.wants(pkt, d) {
                continue;
            }
            let nb = self.neighbors[n][d.index()];
            if nb == u32::MAX {
                continue;
            }
            // A dead link is not congestion: faulted directions neither
            // count as available nor as HOL evidence (the fault-blocked
            // classifier owns them).
            if !router.alive(n, d) {
                continue;
            }
            any_dir = true;
            if self.link_busy_until[n * self.ports + d.index()] <= self.now
                && router
                    .feasible_vc(pkt, n, from_dim, d, nb as usize)
                    .is_some()
            {
                return false;
            }
        }
        any_dir
    }

    /// Whether `pkt`, queued at node `n`, is parked purely behind dead
    /// links: every direction its routing allows is faulted and, for an
    /// adaptive packet with detour budget left, no live link is available
    /// to sidestep through either. Returns the first dead direction the
    /// packet wanted, attributing the park to that link.
    fn head_is_fault_blocked(&self, n: usize, pkt: &Packet) -> Option<Direction> {
        if self.fault_alive.is_empty() {
            return None;
        }
        let router = self.router();
        let mut first_dead = None;
        for d in self.part.directions() {
            if !router.wants(pkt, d) {
                continue;
            }
            if self.neighbors[n][d.index()] == u32::MAX {
                continue;
            }
            if router.alive(n, d) {
                // A live wanted direction exists: any park here is
                // congestion (HOL/credit), not the fault's fault.
                return None;
            }
            if first_dead.is_none() {
                first_dead = Some(d);
            }
        }
        let first_dead = first_dead?;
        if pkt.routing == RoutingMode::Adaptive && pkt.detour_count() < DETOUR_BUDGET {
            for d in self.part.directions() {
                if self.neighbors[n][d.index()] != u32::MAX
                    && router.alive(n, d)
                    && pkt.detour_from() != Some(d.index())
                {
                    // A detour move is still open; the packet is waiting
                    // on credit or a busy wire, not unroutable.
                    return None;
                }
            }
        }
        Some(first_dead)
    }

    /// Visit every fault-blocked transit- and injection-FIFO head with
    /// the dead link it is parked behind.
    fn scan_fault_blocked<F: FnMut(usize, Direction)>(&self, mut f: F) {
        if self.fault_alive.is_empty() {
            return;
        }
        for (ni, node) in self.nodes.iter().enumerate() {
            let mut mask = node.vc_mask;
            while mask != 0 {
                let fifo = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if let Some(head) = node.vcs[fifo].head() {
                    if !head.plan.is_done() {
                        if let Some(d) = self.head_is_fault_blocked(ni, head) {
                            f(ni, d);
                        }
                    }
                }
            }
            let mut imask = node.inj_mask;
            while imask != 0 {
                let fifo = imask.trailing_zeros() as usize;
                imask &= imask - 1;
                if let Some(head) = node.inj[fifo].head() {
                    if let Some(d) = self.head_is_fault_blocked(ni, head) {
                        f(ni, d);
                    }
                }
            }
        }
    }

    /// Whether any recovery remains in the unapplied tail of the fault
    /// schedule (if so, parked heads may yet move and the watchdog
    /// reports a stall, not unreachability).
    fn fault_recovery_pending(&self) -> bool {
        self.fault_schedule[self.fault_cursor..]
            .iter()
            .any(|e| e.alive)
    }

    /// Aggregate the fault-blocked heads per dead link, sorted by
    /// (node, direction) — the `faults` payload of
    /// [`SimError::Unreachable`].
    fn fault_block_report(&self) -> Vec<FaultBlock> {
        let mut counts: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
        let ports = self.ports;
        self.scan_fault_blocked(|n, d| {
            *counts.entry(n * ports + d.index()).or_insert(0) += 1;
        });
        counts
            .into_iter()
            .map(|(link, blocked)| FaultBlock {
                node: (link / ports) as u32,
                dir: Direction::from_index(link % ports),
                blocked,
            })
            .collect()
    }

    /// Diagnostic snapshot of why live traffic is blocked, taken when the
    /// watchdog fires (also usable from tests via [`Engine::run`]'s
    /// [`SimError::Stalled`] payload).
    fn stall_breakdown(&self) -> StallBreakdown {
        let mut b = StallBreakdown::default();
        for (ni, node) in self.nodes.iter().enumerate() {
            if !node.program_done {
                let closed = node.flow.closed_windows();
                if closed > 0 {
                    b.credit_blocked_nodes += 1;
                    b.closed_credit_windows += closed as u64;
                }
            }
            b.reception_stalled_fifos += node.blocked_deliveries.len() as u64;
            let mut mask = node.vc_mask;
            while mask != 0 {
                let f = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if let Some(head) = node.vcs[f].head() {
                    if !head.plan.is_done() {
                        // Fault parks are classified first so a head with
                        // only dead exits never inflates the HOL count.
                        if self.head_is_fault_blocked(ni, head).is_some() {
                            b.fault_blocked_heads += 1;
                        } else if self.head_is_hol_blocked(ni, f, head) {
                            b.hol_blocked_heads += 1;
                        }
                    }
                }
            }
            let mut imask = node.inj_mask;
            while imask != 0 {
                let f = imask.trailing_zeros() as usize;
                imask &= imask - 1;
                if let Some(head) = node.inj[f].head() {
                    if self.head_is_fault_blocked(ni, head).is_some() {
                        b.fault_blocked_heads += 1;
                    }
                }
            }
        }
        b
    }
}
