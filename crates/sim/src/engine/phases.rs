//! The per-cycle phases (arrivals → deliveries → CPU → arbitration →
//! boundary drain) and their helpers. Identical code serves both
//! [`EngineMode`](crate::EngineMode)s: the production core and the full
//! scan differ only in which nodes a phase visits (the worklists or every
//! node), and the production core steps these phases only at the cycles
//! it cannot prove frozen.
//!
//! Arbitration never reads another node's FIFOs directly; every
//! downstream-feasibility probe ([`Router::feasible_vc`] and friends) is
//! a load from the credit array. Credit freed by a phase-4 pop is
//! released only at the boundary drain, so within one cycle those loads
//! see a fixed snapshot, and the node visit order of phase 4 cannot leak
//! into results.

use super::event::{EventState, PollState};
use super::{Arrival, Counters, Queues, Win, WinSource, RING};
use crate::config::{SimConfig, Vc, NUM_VCS};
use crate::flow::FlowSpec;
use crate::node::{vc_fifo_index, NodeState};
use crate::packet::{Packet, RoutingMode, SendSpec, DETOUR_BUDGET, NO_DETOUR};
use crate::perf::{OpCounts, PerfProfile, PhaseSecs};
use crate::program::{NodeApi, NodeProgram, PollHint};
use crate::stats::NetStats;
use bgl_torus::{Dim, Direction, HopPlan, Partition, TieBreak, MAX_DIMS, MAX_PORTS};
use std::cell::Cell;

/// Below this pending-queue depth the engine keeps pulling the
/// program's own sends, so reactive sends waiting for FIFO space do not
/// starve a node's proactive schedule.
pub(super) const PULL_THRESHOLD: usize = 8;

/// How far into the pending queue the injector looks for a packet whose
/// class FIFO has room: without this, one full class FIFO would
/// head-of-line block packets of other classes (e.g. TPS phase-1
/// packets stuck behind a congested phase-2 forward).
const INJECT_SCAN: usize = 16;

/// Occupied-FIFO count above which the sendable-directions summary is
/// skipped. Building the summary costs one pass over every head; the
/// per-direction probes it can skip are passes that *stop at the
/// first winner*. With many heads queued, probes win almost
/// immediately and the full build costs more than it saves — the
/// summary pays off exactly in the sparse regime it exists for.
const SUMMARY_MAX_HEADS: u32 = 6;

/// The routing-feasibility view: configuration, topology and the
/// downstream-credit array. Everything phase 4 needs to know about
/// *other* nodes flows through here, which is why it is equally usable
/// from the phases and from the engine's own diagnostics (HOL probes,
/// stall breakdowns).
#[derive(Clone, Copy)]
pub(super) struct Router<'a> {
    pub(super) cfg: &'a SimConfig,
    pub(super) neighbors: &'a [[u32; MAX_PORTS]],
    pub(super) credits: &'a [Cell<u32>],
    /// Per-directed-link liveness under an active fault plan; `None` on a
    /// healthy run, so every probe below stays one branch.
    pub(super) link_alive: Option<&'a [bool]>,
    /// Directed ports per node (`2 · ndims`): stride of the per-link
    /// arrays and bound of every direction scan.
    pub(super) ports: usize,
    /// Credit cells per node (`ports · NUM_VCS`).
    pub(super) vc_cells: usize,
    /// Partition dimensionality.
    pub(super) ndims: usize,
}

impl Router<'_> {
    /// Available space (counting in-flight reservations) of the transit
    /// VC FIFO at node `n`, input port `port`, VC `vc`.
    #[inline]
    fn credit(&self, n: usize, port: usize, vc: usize) -> u32 {
        self.credits[n * self.vc_cells + vc_fifo_index(port, vc)].get()
    }

    /// Return `chunks` of space to credit cell `cell`.
    #[inline]
    pub(super) fn release(&self, cell: usize, chunks: u32) {
        let c = &self.credits[cell];
        c.set(c.get() + chunks);
    }

    /// Whether the directed link out of node `n` along `d` is up.
    /// Arbitration refuses dead links outright; everything else (HOL
    /// probes, escape preconditions) treats them as permanently blocked.
    #[inline]
    pub(super) fn alive(&self, n: usize, d: Direction) -> bool {
        match self.link_alive {
            None => true,
            Some(a) => a[n * self.ports + d.index()],
        }
    }

    /// Whether this packet routes with the longest-first shaping (its own
    /// flag unless the router config overrides it).
    fn shaped(&self, pkt: &Packet) -> bool {
        self.cfg
            .router
            .longest_first_bias
            .unwrap_or(pkt.longest_first)
    }

    /// Longest-remaining-dimension preference: true when no other dimension
    /// has more hops left than `d.dim`. With the bias enabled, adaptive
    /// packets move only along their longest remaining dimension(s): on an
    /// asymmetric torus they spend bottleneck-dimension hops while
    /// bottleneck links are reachable instead of burning the short
    /// dimensions first and piling up behind the long one — the tree
    /// saturation Section 3.2 of the paper describes. On a symmetric torus
    /// hop counts stay balanced, so near-full adaptivity is retained.
    fn prefers(pkt: &Packet, d: Direction) -> bool {
        // Iterating every representable dimension is arity-correct: a
        // HopPlan carries zero hops in dimensions beyond its partition's
        // arity, and 0 <= here always holds.
        let here = pkt.plan.hops(d.dim);
        Dim::all(MAX_DIMS).all(|o| pkt.plan.hops(o) <= here)
    }

    /// True when every preferred direction of `pkt` at node `n` lacks
    /// dynamic-VC credit downstream — the precondition for taking the
    /// dimension-ordered escape from a non-preferred output.
    fn preferred_blocked(&self, n: usize, pkt: &Packet) -> bool {
        let chunks = pkt.chunks as u32;
        for dir in pkt.plan.minimal_directions() {
            if !Self::prefers(pkt, dir) {
                continue;
            }
            let nb = self.neighbors[n][dir.index()];
            if nb == u32::MAX {
                continue;
            }
            // A dead preferred link can never open: it counts as blocked,
            // so the dimension-ordered escape becomes reachable.
            if !self.alive(n, dir) {
                continue;
            }
            let nb_port = dir.opposite().index();
            for vc in 0..2 {
                if self.credit(nb as usize, nb_port, vc) >= chunks {
                    return false;
                }
            }
        }
        true
    }

    /// Does `pkt`'s routing allow it to take output `d`? Adaptive packets
    /// under the longest-first bias move only along preferred (longest
    /// remaining) dimensions, plus the dimension-ordered direction, which
    /// stays available as the deadlock-free bubble escape.
    pub(super) fn wants(&self, pkt: &Packet, d: Direction) -> bool {
        match pkt.routing {
            RoutingMode::Adaptive => {
                if pkt.plan.direction(d.dim) != Some(d) {
                    return false;
                }
                if !self.shaped(pkt) {
                    return true;
                }
                Self::prefers(pkt, d) || pkt.plan.dimension_order_next() == Some(d)
            }
            RoutingMode::Deterministic => pkt.plan.dimension_order_next() == Some(d),
        }
    }

    /// Choose the downstream VC for `pkt` over output `d`, or `None` if no
    /// VC has credit. `from_dim` is the dimension of the input port the
    /// packet currently occupies (`None` for injection); `n` and `nb` are
    /// node ranks.
    pub(super) fn feasible_vc(
        &self,
        pkt: &Packet,
        n: usize,
        from_dim: Option<usize>,
        d: Direction,
        nb: usize,
    ) -> Option<Vc> {
        let chunks = pkt.chunks as u32;
        let nb_port = d.opposite().index();
        match pkt.routing {
            RoutingMode::Adaptive => {
                // Under the bias, a non-preferred (dimension-order-only)
                // direction is an escape path: bubble VC only, and only
                // once every preferred direction is credit-blocked —
                // otherwise the escape becomes a side door that leaks
                // short-dimension hops and recreates the congestion it
                // exists to break.
                if self.shaped(pkt) && !Self::prefers(pkt, d) {
                    if self.cfg.router.adaptive_bubble_escape
                        && pkt.plan.dimension_order_next() == Some(d)
                        && self.preferred_blocked(n, pkt)
                    {
                        return self.bubble_feasible(pkt, from_dim, d, nb, nb_port);
                    }
                    return None;
                }
                let f0 = self.credit(nb, nb_port, 0);
                let f1 = self.credit(nb, nb_port, 1);
                let c0 = f0 >= chunks;
                let c1 = f1 >= chunks;
                match (c0, c1) {
                    // Join the shorter queue = the FIFO with more free space.
                    (true, true) => Some(match f0.cmp(&f1) {
                        std::cmp::Ordering::Greater => Vc::Dynamic0,
                        std::cmp::Ordering::Less => Vc::Dynamic1,
                        std::cmp::Ordering::Equal => {
                            if pkt.id & 1 == 0 {
                                Vc::Dynamic0
                            } else {
                                Vc::Dynamic1
                            }
                        }
                    }),
                    (true, false) => Some(Vc::Dynamic0),
                    (false, true) => Some(Vc::Dynamic1),
                    (false, false) => {
                        // Escape onto the bubble VC, dimension-ordered only.
                        if self.cfg.router.adaptive_bubble_escape
                            && pkt.plan.dimension_order_next() == Some(d)
                        {
                            self.bubble_feasible(pkt, from_dim, d, nb, nb_port)
                        } else {
                            None
                        }
                    }
                }
            }
            RoutingMode::Deterministic => self.bubble_feasible(pkt, from_dim, d, nb, nb_port),
        }
    }

    /// The bubble rule: a packet *continuing* along the same dimension on
    /// the bubble VC needs space for itself; a packet *entering* the bubble
    /// VC (from injection, from a dynamic VC, or turning a dimension) must
    /// additionally leave `bubble_slack_chunks` free.
    fn bubble_feasible(
        &self,
        pkt: &Packet,
        from_dim: Option<usize>,
        d: Direction,
        nb: usize,
        nb_port: usize,
    ) -> Option<Vc> {
        let chunks = pkt.chunks as u32;
        let continuing = pkt.vc == Vc::Bubble && from_dim == Some(d.dim.index());
        let required = chunks
            + if continuing {
                0
            } else {
                self.cfg.router.bubble_slack_chunks
            };
        if self.credit(nb, nb_port, Vc::Bubble.index()) >= required {
            Some(Vc::Bubble)
        } else {
            None
        }
    }

    /// Whether every minimal direction of `pkt` at node `n` is a dead
    /// link — the precondition for a non-minimal fault detour. `false` on
    /// a healthy run (no liveness map) or while any minimal link is up.
    fn minimal_dead(&self, n: usize, pkt: &Packet) -> bool {
        let Some(alive) = self.link_alive else {
            return false;
        };
        let mut any = false;
        for d in pkt.plan.minimal_directions() {
            if self.neighbors[n][d.index()] == u32::MAX {
                continue;
            }
            any = true;
            if alive[n * self.ports + d.index()] {
                return false;
            }
        }
        any
    }

    /// Fault-detour feasibility: may `pkt` take the *non-minimal* output
    /// `d` out of node `n`, and on which VC? Allowed only for adaptive
    /// packets whose entire minimal quadrant is dead, onto a live link
    /// that does not immediately undo the previous detour, with budget
    /// left ([`DETOUR_BUDGET`]) — and strictly on the dynamic VCs: the
    /// bubble VC stays dimension-ordered, so the escape network's
    /// deadlock freedom is untouched by rerouting. After a detour win the
    /// packet re-plans from the downstream node (see `apply_win`).
    pub(super) fn detour_vc(&self, pkt: &Packet, n: usize, d: Direction, nb: usize) -> Option<Vc> {
        self.link_alive?;
        if pkt.routing != RoutingMode::Adaptive
            || pkt.detour_count() >= DETOUR_BUDGET
            || pkt.detour_from() == Some(d.index())
            || !self.alive(n, d)
            || !self.minimal_dead(n, pkt)
        {
            return None;
        }
        let chunks = pkt.chunks as u32;
        let nb_port = d.opposite().index();
        let f0 = self.credit(nb, nb_port, 0);
        let f1 = self.credit(nb, nb_port, 1);
        match (f0 >= chunks, f1 >= chunks) {
            (true, true) => Some(match f0.cmp(&f1) {
                std::cmp::Ordering::Greater => Vc::Dynamic0,
                std::cmp::Ordering::Less => Vc::Dynamic1,
                std::cmp::Ordering::Equal => {
                    if pkt.id & 1 == 0 {
                        Vc::Dynamic0
                    } else {
                        Vc::Dynamic1
                    }
                }
            }),
            (true, false) => Some(Vc::Dynamic0),
            (false, true) => Some(Vc::Dynamic1),
            (false, false) => None,
        }
    }

    /// A freshly detoured head must not immediately bounce back through
    /// the link it arrived on while any *other* minimal direction is
    /// structurally alive at this node: waiting for credits on a live
    /// forward link always beats burning detour budget on a ping-pong
    /// (the systematic bounce would exhaust [`DETOUR_BUDGET`] against a
    /// single dead link). When the return is the only live minimal
    /// direction it stays allowed — it is a normal minimal move and
    /// clears the detour mark on a win.
    pub(super) fn suppress_return(&self, pkt: &Packet, n: usize, d: Direction) -> bool {
        if self.link_alive.is_none() || pkt.detour_from() != Some(d.index()) {
            return false;
        }
        pkt.plan
            .minimal_directions()
            .any(|o| o != d && self.neighbors[n][o.index()] != u32::MAX && self.alive(n, o))
    }
}

/// Bitmask of output directions `pkt` may take: a conservative
/// superset of the directions [`Router::wants`] approves. Every
/// direction `wants` can return true for — preferred, unshaped
/// minimal, dimension-ordered escape, deterministic next hop — lies
/// along the packet's remaining minimal quadrant, so the quadrant
/// bits suffice. Over-inclusion only costs a wasted probe (identical
/// to what the full scan does on every direction); under-inclusion
/// would change results, so this must stay a superset of `wants`.
fn wanted_dirs(pkt: &Packet) -> u16 {
    let mut dirs = 0u16;
    for d in pkt.plan.minimal_directions() {
        dirs |= 1 << d.index();
    }
    dirs
}

/// Union of [`wanted_dirs`] over every FIFO head of `node`: the only
/// output directions arbitration could possibly assign this cycle.
/// Stops as soon as all `ports` directions are covered — under
/// saturation a couple of heads suffice, so the build stays O(1) in the
/// dense regime where the summary cannot skip anything.
pub(super) fn sendable_dirs(node: &NodeState, ports: usize) -> u16 {
    let all: u16 = (1 << ports) - 1;
    let mut dirs = 0u16;
    let mut vcs = node.vc_mask;
    while vcs != 0 && dirs != all {
        let f = vcs.trailing_zeros() as usize;
        vcs &= vcs - 1;
        dirs |= wanted_dirs(node.vcs[f].head().expect("mask says non-empty"));
    }
    let mut inj = node.inj_mask;
    while inj != 0 && dirs != all {
        let f = inj.trailing_zeros() as usize;
        inj &= inj - 1;
        dirs |= wanted_dirs(node.inj[f].head().expect("mask says non-empty"));
    }
    dirs
}

/// The first of the injection FIFOs in the bit set `fifos` with `chunks`
/// free, if any.
fn first_fit(node: &NodeState, mut fifos: u32, chunks: u32) -> Option<usize> {
    while fifos != 0 {
        let f = fifos.trailing_zeros() as usize;
        fifos &= fifos - 1;
        if node.inj[f].free_chunks() >= chunks {
            return Some(f);
        }
    }
    None
}

/// Position, in scan order, of the first queued send some injection FIFO
/// of its class can take now: the first [`INJECT_SCAN`] reactive sends,
/// then the first [`INJECT_SCAN`] pulled ones. Reads only FIFO space and
/// the queues, so nothing is routed for a send that cannot go.
/// `class_fifos` is the engine's per-class FIFO table.
fn injectable(node: &NodeState, class_fifos: &[u32; 8]) -> Option<usize> {
    let fits = |s: &SendSpec| {
        debug_assert!((1..=8).contains(&s.chunks), "packet must be 1..=8 chunks");
        first_fit(node, class_fifos[s.class as usize], s.chunks as u32).is_some()
    };
    node.pending
        .iter()
        .take(INJECT_SCAN)
        .chain(node.pulled.iter().take(INJECT_SCAN))
        .position(fits)
}

/// The engine, borrowed for one cycle: the read-only routing view plus
/// exclusive access to the node state, queues and observers the phases
/// mutate.
pub(super) struct Cycle<'a> {
    pub(super) router: Router<'a>,
    pub(super) part: &'a Partition,
    /// The injection FIFOs of each class (see [`crate::node::class_fifos`]).
    pub(super) class_fifos: [u32; 8],
    /// The cycle being run.
    pub(super) now: u64,
    pub(super) nodes: &'a mut [NodeState],
    pub(super) programs: &'a mut [Box<dyn NodeProgram>],
    pub(super) link_busy_until: &'a mut [u64],
    pub(super) q: &'a mut Queues,
    pub(super) counts: &'a mut Counters,
    pub(super) stats: &'a mut NetStats,
    /// Event-driven bookkeeping; `None` only in the full-scan reference,
    /// which visits every node instead of the worklists.
    pub(super) events: Option<&'a mut EventState>,
    /// Invariant oracle; `Some` only with `check_invariants`.
    pub(super) oracle: Option<&'a mut crate::engine::oracle::Oracle>,
    /// The host profiler's phase clock and operation counters
    /// (`SimConfig::perf`). The profiler only reads the host clock and
    /// writes its own accumulators, so enabling it can never perturb
    /// simulation results.
    pub(super) perf: Option<&'a mut PerfProfile>,
}

impl Cycle<'_> {
    /// Start a lap clock — `Some` only when profiling is on, so the
    /// off-path cost of every lap call site is one predictable branch.
    #[inline]
    fn perf_clock(&self) -> Option<std::time::Instant> {
        self.perf.as_ref().map(|_| std::time::Instant::now())
    }

    /// Accumulate the time since the last lap into the phase slot chosen
    /// by `slot`, and restart the clock.
    #[inline]
    fn perf_lap(
        &mut self,
        clk: &mut Option<std::time::Instant>,
        slot: fn(&mut PhaseSecs) -> &mut f64,
    ) {
        if let Some(t0) = clk {
            let p = self
                .perf
                .as_deref_mut()
                .expect("lap clock only runs with profiling on");
            let now = std::time::Instant::now();
            *slot(&mut p.phases) += now.duration_since(*t0).as_secs_f64();
            *t0 = now;
        }
    }

    /// Add to the operation counters when profiling is on; off, one
    /// predictable branch.
    #[inline]
    fn count(&mut self, f: impl FnOnce(&mut OpCounts)) {
        if let Some(p) = self.perf.as_deref_mut() {
            f(&mut p.ops);
        }
    }

    /// Run the cycle: the four phases, then the boundary drain of the
    /// credits freed by this cycle's phase-4 pops.
    pub(super) fn run(&mut self) {
        let t = self.now;
        let mut clk = self.perf_clock();
        self.phase_arrivals(t);
        self.perf_lap(&mut clk, |p| &mut p.arrivals);
        self.phase_deliveries();
        self.perf_lap(&mut clk, |p| &mut p.deliveries);
        self.phase_cpu(t);
        self.perf_lap(&mut clk, |p| &mut p.cpu);
        self.phase_arbitration(t);
        self.perf_lap(&mut clk, |p| &mut p.arbitration);
        for (cell, chunks) in self.q.deferred.drain(..) {
            self.router.release(cell as usize, chunks);
        }
        self.perf_lap(&mut clk, |p| &mut p.drain);
    }

    // ---- Phase 1: arrivals -------------------------------------------------

    fn phase_arrivals(&mut self, t: u64) {
        let slot = (t % RING as u64) as usize;
        let mut arrivals = std::mem::take(&mut self.q.ring[slot]);
        for Arrival { node, port, pkt } in arrivals.drain(..) {
            let i = node as usize;
            let n = &mut self.nodes[i];
            let fi = vc_fifo_index(port as usize, pkt.vc.index());
            let was_empty = n.vcs[fi].is_empty();
            let done = pkt.plan.is_done();
            // Space was spent from the credit cell at the upstream win.
            n.vcs[fi].push(pkt);
            n.vc_mask |= 1 << fi;
            self.q.arb_active.mark(i);
            if was_empty && done {
                self.q.deliver_q.push((node, fi as u8));
            }
            self.counts.last_progress = t;
        }
        self.q.ring[slot] = arrivals; // hand the allocation back
    }

    // ---- Phase 2: deliveries ----------------------------------------------

    fn phase_deliveries(&mut self) {
        if self.q.deliver_q.is_empty() {
            return;
        }
        let mut dq = std::mem::take(&mut self.q.deliver_q);
        for (node, fi) in dq.drain(..) {
            self.try_deliver(node as usize, fi as usize);
        }
        // Hand the allocation back. `try_deliver` parks stalled FIFOs in
        // the node's `blocked_deliveries` (re-queued here only after the
        // CPU frees reception space), so nothing lands in `deliver_q`
        // during the loop above.
        debug_assert!(self.q.deliver_q.is_empty());
        self.q.deliver_q = dq;
    }

    /// Move deliverable head packets of `fifo` at node `i` into the
    /// reception FIFO.
    fn try_deliver(&mut self, i: usize, fifo: usize) {
        loop {
            let n = &mut self.nodes[i];
            let Some(head) = n.vcs[fifo].head() else {
                return;
            };
            if !head.plan.is_done() {
                return;
            }
            let chunks = head.chunks as u32;
            if n.reception.free_chunks() < chunks {
                self.stats.reception_stall_events += 1;
                if !n.blocked_deliveries.contains(&(fifo as u8)) {
                    n.blocked_deliveries.push(fifo as u8);
                }
                return;
            }
            let pkt = n.vcs[fifo].pop().expect("head exists");
            if n.vcs[fifo].is_empty() {
                n.vc_mask &= !(1 << fifo);
            }
            assert!(n.reception.try_push(pkt).is_ok(), "space checked");
            // The pop freed downstream space: release the credit now, so
            // the upstream sees it in this cycle's phase 4.
            self.router.release(i * self.router.vc_cells + fifo, chunks);
            self.q.cpu_active.mark(i);
            if let Some(ev) = self.events.as_deref_mut() {
                // The freed credit means the upstream neighbour may win
                // this link again.
                ev.mark_fresh();
            }
            self.counts.last_progress = self.now;
        }
    }

    // ---- Phase 3: CPU ------------------------------------------------------

    fn phase_cpu(&mut self, t: u64) {
        let programs = std::mem::take(&mut self.programs);
        if self.events.is_none() {
            for (i, prog) in programs.iter_mut().enumerate() {
                self.cpu_visit(i, prog, t, false);
            }
        } else {
            // A node acquires CPU work only through a reception-FIFO push
            // (which marks it) or through its own hooks (it is being
            // visited), so iterating a snapshot of each word misses
            // nothing. Idle marked nodes are cleared as they are visited.
            for w in 0..self.q.cpu_active.words.len() {
                let mut bits = self.q.cpu_active.words[w];
                while bits != 0 {
                    let i = (w << 6) + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.cpu_visit(i, &mut programs[i], t, true);
                }
            }
        }
        self.programs = programs;
    }

    /// Run one node's CPU for cycle `t` if it has work; with `prune`,
    /// drop provably workless nodes from the CPU worklist.
    fn cpu_visit(&mut self, i: usize, prog: &mut Box<dyn NodeProgram>, t: u64, prune: bool) {
        let horizon = (t + 1) as f64;
        {
            let n = &self.nodes[i];
            if n.cpu_free >= horizon {
                // Still booked into the future: keep it marked.
                return;
            }
            if n.reception.is_empty()
                && n.pending.is_empty()
                && n.pulled.is_empty()
                && n.program_done
            {
                if prune {
                    // Only a delivery can give this node CPU work again,
                    // and deliveries re-mark it.
                    self.q.cpu_active.clear(i);
                }
                return;
            }
        }
        self.cpu_node(i, prog, t);
    }

    fn cpu_node(&mut self, i: usize, prog: &mut Box<dyn NodeProgram>, t: u64) {
        let horizon = (t + 1) as f64;
        let mut declined = false;
        self.count(|o| o.cpu_visits += 1);
        if let Some(ev) = self.events.as_deref_mut() {
            // Re-derive this node's poll state from scratch: the branches
            // below overwrite the default with whatever actually blocked.
            ev.polls[i] = PollState::Open;
        }
        for _guard in 0..64 {
            if self.nodes[i].cpu_free >= horizon {
                break;
            }
            // Reception drain has priority: it keeps the network moving.
            if !self.nodes[i].reception.is_empty() {
                self.cpu_drain_one(i, prog, t);
                continue;
            }
            // Top up the pulled queue from the program's schedule.
            if self.nodes[i].pulled.len() < PULL_THRESHOLD
                && !self.nodes[i].program_done
                && !declined
            {
                if self.rate_blocked(i, t) {
                    // Engine-enforced rate window: the program is not
                    // polled for new sends until `next_allowed`. The
                    // completion check still runs, exactly as if the
                    // program had declined the pull itself.
                    declined = true;
                    self.stats.pacing_blocked_cycles += 1;
                    if let Some(ev) = self.events.as_deref_mut() {
                        ev.polls[i] = PollState::Rate;
                    }
                    if prog.is_complete() && !self.nodes[i].program_done {
                        self.nodes[i].program_done = true;
                        self.counts.done_programs += 1;
                    }
                } else {
                    let node = &mut self.nodes[i];
                    let before = node.pending.len();
                    let mut api =
                        NodeApi::new(i as u32, node.coord, t, self.part, &mut node.pending)
                            .with_flow(&mut node.flow);
                    let spec = prog.next_send(&mut api);
                    let extra = api.take_extra_cpu();
                    let denials = api.take_credit_blocked();
                    self.stats.credit_blocked_events += denials;
                    let after = node.pending.len();
                    if extra > 0.0 {
                        // Anchor at now: a node idle since an earlier cycle
                        // must not absorb the charge retroactively (its stale
                        // `cpu_free` may lie far in the past).
                        node.cpu_free = node.cpu_free.max(t as f64) + extra;
                        node.cpu_busy += extra;
                    }
                    if after > before {
                        node.inject_blocked = false;
                    }
                    self.counts.pending_total += (after - before) as u64;
                    match spec {
                        Some(s) => {
                            self.rate_charge(i, t, s.chunks);
                            let node = &mut self.nodes[i];
                            node.pulled.push_back(s);
                            node.inject_blocked = false;
                            self.counts.pending_total += 1;
                        }
                        None => {
                            declined = true;
                            if let Some(ev) = self.events.as_deref_mut() {
                                if prog.poll_hint() == PollHint::SleepUntilDelivery {
                                    // The SleepUntilDelivery contract: a decline
                                    // is pure (frozen program state, repeatable
                                    // denial count) until a delivery.
                                    debug_assert!(
                                        extra == 0.0 && after == before,
                                        "SleepUntilDelivery program mutated state on decline"
                                    );
                                    ev.polls[i] = PollState::Asleep { denials };
                                }
                            }
                            if prog.is_complete() && !self.nodes[i].program_done {
                                self.nodes[i].program_done = true;
                                self.counts.done_programs += 1;
                            }
                        }
                    }
                }
            }
            let node = &self.nodes[i];
            if node.pending.is_empty() && node.pulled.is_empty() {
                break;
            }
            if node.inject_blocked {
                // The last scan failed and nothing it depends on changed.
                debug_assert!(
                    injectable(node, &self.class_fifos).is_none(),
                    "injection-blocked flag set while a queued send fits"
                );
                break;
            }
            if !self.cpu_inject_one(i, t) {
                break; // no injection FIFO can take any queued packet now
            }
        }
    }

    /// Whether the engine-level rate window ([`FlowSpec::Rate`]) blocks
    /// pulling new sends from node `i`'s program at cycle `t`.
    fn rate_blocked(&self, i: usize, t: u64) -> bool {
        matches!(self.router.cfg.flow, FlowSpec::Rate { .. })
            && (t as f64) < self.nodes[i].flow.next_allowed
    }

    /// Advance node `i`'s rate window after pulling a `chunks`-chunk
    /// send at cycle `t`. No-op unless the flow spec is [`FlowSpec::Rate`].
    fn rate_charge(&mut self, i: usize, t: u64, chunks: u8) {
        if let FlowSpec::Rate { chunks_per_cycle } = self.router.cfg.flow {
            let ledger = &mut self.nodes[i].flow;
            ledger.next_allowed =
                ledger.next_allowed.max(t as f64) + chunks as f64 / chunks_per_cycle;
        }
    }

    /// Drain one packet from the reception FIFO and run `on_packet`.
    fn cpu_drain_one(&mut self, i: usize, prog: &mut Box<dyn NodeProgram>, t: u64) {
        let cpu = &self.router.cfg.cpu;
        let node = &mut self.nodes[i];
        let pkt = node.reception.pop().expect("checked non-empty");
        let cost = cpu.per_packet_receive_cycles + pkt.chunks as f64 / cpu.chunks_per_cycle;
        node.cpu_free = node.cpu_free.max(t as f64) + cost;
        node.cpu_busy += cost;
        let st = &mut *self.stats;
        st.packets_delivered += 1;
        st.payload_bytes_delivered += pkt.payload_bytes as u64;
        st.completion_cycle = t;
        let latency = t - pkt.injected_at;
        st.total_latency_cycles += latency;
        st.max_latency_cycles = st.max_latency_cycles.max(latency);
        let bucket = (64 - latency.max(1).leading_zeros() as usize - 1)
            .min(crate::stats::LATENCY_BUCKETS - 1);
        st.latency_histogram[bucket] += 1;
        if let Some(o) = self.oracle.as_deref_mut() {
            o.on_deliver(&pkt, t);
        }
        let node = &mut self.nodes[i];
        let before = node.pending.len();
        let mut api = NodeApi::new(i as u32, node.coord, t, self.part, &mut node.pending)
            .with_flow(&mut node.flow);
        prog.on_packet(&mut api, &pkt);
        let extra = api.take_extra_cpu();
        self.stats.credit_blocked_events += api.take_credit_blocked();
        let after = node.pending.len();
        node.cpu_free += extra;
        node.cpu_busy += extra;
        if after > before {
            node.inject_blocked = false;
        }
        self.counts.pending_total += (after - before) as u64;
        self.counts.live_packets -= 1;
        if !node.program_done && prog.is_complete() {
            node.program_done = true;
            self.counts.done_programs += 1;
        }
        // Freed reception space: retry stalled deliveries.
        let blocked = std::mem::take(&mut self.nodes[i].blocked_deliveries);
        self.q
            .deliver_q
            .extend(blocked.into_iter().map(|f| (i as u32, f)));
        self.counts.last_progress = t;
    }

    /// Pay for and inject the first injectable queued send (see
    /// [`injectable`]). Returns false, and sets the node's
    /// `inject_blocked` flag, if no injection FIFO takes any of them now.
    fn cpu_inject_one(&mut self, i: usize, t: u64) -> bool {
        let found = injectable(&self.nodes[i], &self.class_fifos);
        self.count(|o| {
            o.inject_scans += 1;
            o.failed_inject_scans += found.is_none() as u64;
        });
        let node = &mut self.nodes[i];
        let Some(qi) = found else {
            node.inject_blocked = true;
            return false;
        };
        let reactive_len = node.pending.len().min(INJECT_SCAN);
        let spec = if qi < reactive_len {
            node.pending.remove(qi)
        } else {
            node.pulled.remove(qi - reactive_len)
        }
        .expect("scanned index exists");
        self.counts.pending_total -= 1;
        let dst = self.part.coord_of(spec.dst_rank);
        assert_ne!(dst, node.coord, "programs must not send to themselves");
        // Direction-affine placement: BG/L messaging software binds
        // injection FIFOs to link directions so one FIFO's blocked head
        // never starves an idle link of a different direction. Map the
        // packet's first route direction onto the FIFOs of its class,
        // falling back to the first class FIFO with space.
        let plan = HopPlan::new(self.part, node.coord, dst, TieBreak::SrcParity);
        let primary = plan.dimension_order_next().map_or(0, |d| d.index()) as u32;
        let chunks = spec.chunks as u32;
        let class_fifos = self.class_fifos[spec.class as usize];
        let mut fifos = class_fifos;
        for _ in 0..primary % fifos.count_ones() {
            fifos &= fifos - 1;
        }
        let pref = fifos.trailing_zeros() as usize;
        let f = if node.inj[pref].free_chunks() >= chunks {
            pref
        } else {
            first_fit(node, class_fifos, chunks).expect("injectable found a fit")
        };
        let cpu = &self.router.cfg.cpu;
        let cost = spec.cpu_cost_cycles
            + cpu.per_packet_inject_cycles
            + spec.chunks as f64 / cpu.chunks_per_cycle;
        node.cpu_free = node.cpu_free.max(t as f64) + cost;
        node.cpu_busy += cost;
        let pkt = Packet {
            id: self.counts.next_packet_id,
            src_rank: i as u32,
            dst,
            chunks: spec.chunks,
            payload_bytes: spec.payload_bytes,
            // The plan computed for FIFO affinity, reused.
            plan,
            routing: spec.routing,
            vc: Vc::Dynamic0,
            class: spec.class,
            meta: spec.meta,
            longest_first: spec.longest_first,
            injected_at: t,
            detour: NO_DETOUR,
        };
        if let Some(o) = self.oracle.as_deref_mut() {
            o.on_inject(&pkt);
        }
        assert!(node.inj[f].try_push(pkt).is_ok(), "space checked");
        node.inj_mask |= 1 << f;
        self.q.arb_active.mark(i);
        self.counts.next_packet_id += 1;
        self.counts.live_packets += 1;
        self.stats.packets_injected += 1;
        self.counts.last_progress = t;
        self.count(|o| o.hop_plans_built += 1);
        true
    }

    // ---- Phase 4: arbitration ----------------------------------------------

    fn phase_arbitration(&mut self, t: u64) {
        if self.events.is_none() {
            for i in 0..self.nodes.len() {
                // Quick skip: nothing to move out of this node.
                if self.nodes[i].vc_mask == 0 && self.nodes[i].inj_mask == 0 {
                    continue;
                }
                self.arbitrate_node(i, t, false);
            }
        } else {
            // A node acquires arbitration work only through an arrival
            // commit (which marks it) or its own injections (phase 3
            // marks it), never from another node's arbitration — wins
            // hand packets to the in-flight ring, not directly to the
            // neighbour's FIFOs — so a snapshot scan misses nothing.
            for w in 0..self.q.arb_active.words.len() {
                let mut bits = self.q.arb_active.words[w];
                while bits != 0 {
                    let i = (w << 6) + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if self.nodes[i].vc_mask == 0 && self.nodes[i].inj_mask == 0 {
                        self.q.arb_active.clear(i);
                        continue;
                    }
                    self.arbitrate_node(i, t, true);
                }
            }
        }
    }

    /// Arbitrate every output link of node `i`. With `use_summary`,
    /// probe only the directions some queued head actually wants (a
    /// per-direction bit summary built from the FIFO heads, extended when
    /// a win exposes a new head) instead of scanning all FIFOs per link. The summary is
    /// built lazily, on the first *free* link: under saturation most
    /// links are mid-transmission and the busy check alone disposes of
    /// them, so an eager build would cost a head scan per node-cycle for
    /// nothing. Nodes with many occupied FIFOs skip it entirely (see
    /// [`SUMMARY_MAX_HEADS`]).
    fn arbitrate_node(&mut self, i: usize, t: u64, use_summary: bool) {
        let mut probes = 0u64;
        let mut wins = 0u64;
        let use_summary = use_summary && {
            let node = &self.nodes[i];
            node.vc_mask.count_ones() + node.inj_mask.count_ones() <= SUMMARY_MAX_HEADS
        };
        // Under an active fault plan the summary is disabled: detours send
        // packets along directions outside their minimal quadrant, so
        // `wanted_dirs` is no longer a superset of what arbitration may
        // assign. Probing all 2n directions keeps refusal + detour exact.
        let ports = self.router.ports;
        let all_dirs: u16 = (1 << ports) - 1;
        let mut summary: Option<u16> = if use_summary && self.router.link_alive.is_none() {
            None
        } else {
            Some(all_dirs)
        };
        for d in Direction::all(self.router.ndims) {
            let link = i * ports + d.index();
            if self.link_busy_until[link] > t {
                continue;
            }
            let nb = self.router.neighbors[i][d.index()];
            if nb == u32::MAX {
                continue;
            }
            // A dead output link refuses arbitration outright.
            if !self.router.alive(i, d) {
                continue;
            }
            let s = match summary {
                Some(s) => s,
                None => {
                    let s = sendable_dirs(&self.nodes[i], ports);
                    summary = Some(s);
                    s
                }
            };
            if s & (1 << d.index()) == 0 {
                continue;
            }
            if let Some(win) = self.arbitrate_output(i, d, nb as usize, t, &mut probes) {
                wins += 1;
                self.apply_win(i, d, nb as usize, win, t);
                if use_summary && s != all_dirs {
                    // The pop exposed a new head whose wanted directions
                    // the start-of-visit summary may not cover.
                    let head = match win.source {
                        WinSource::Transit { fifo } => self.nodes[i].vcs[fifo as usize].head(),
                        WinSource::Inject { fifo } => self.nodes[i].inj[fifo as usize].head(),
                    };
                    if let Some(pkt) = head {
                        summary = Some(s | wanted_dirs(pkt));
                    }
                }
            }
        }
        self.count(|o| {
            o.arb_node_visits += 1;
            o.arb_head_probes += probes;
            o.arb_wins += wins;
        });
    }

    /// Pick a winner for output `d` of node `i`, or `None`, adding the
    /// FIFO heads examined to `probes`.
    fn arbitrate_output(
        &self,
        i: usize,
        d: Direction,
        nb: usize,
        t: u64,
        probes: &mut u64,
    ) -> Option<Win> {
        let inject_first = !self.router.cfg.router.transit_priority && (t & 1) == 1;
        if inject_first {
            if let Some(w) = self.arbitrate_inject(i, d, nb, probes) {
                return Some(w);
            }
        }
        if let Some(w) = self.arbitrate_transit(i, d, nb, probes) {
            return Some(w);
        }
        if !inject_first {
            return self.arbitrate_inject(i, d, nb, probes);
        }
        None
    }

    fn arbitrate_transit(
        &self,
        i: usize,
        d: Direction,
        nb: usize,
        probes: &mut u64,
    ) -> Option<Win> {
        let node = &self.nodes[i];
        if node.vc_mask == 0 {
            return None;
        }
        let total = self.router.vc_cells;
        let start = node.rr[d.index()] as usize % total;
        // Visit only the set bits, in round-robin order from `start`:
        // first the bits at indices >= start (ascending), then the wrap.
        let below_start = node.vc_mask & ((1u64 << start) - 1);
        for mut half in [node.vc_mask ^ below_start, below_start] {
            while half != 0 {
                let f = half.trailing_zeros() as usize;
                half &= half - 1;
                let pkt = node.vcs[f].head().expect("mask says non-empty");
                *probes += 1;
                if self.router.wants(pkt, d) {
                    if self.router.suppress_return(pkt, i, d) {
                        continue;
                    }
                    let from_dim = Some(f / NUM_VCS / 2); // port index / 2 = dimension
                    if let Some(vc) = self.router.feasible_vc(pkt, i, from_dim, d, nb) {
                        return Some(Win {
                            source: WinSource::Transit { fifo: f as u8 },
                            vc,
                            detour: false,
                        });
                    }
                } else if let Some(vc) = self.router.detour_vc(pkt, i, d, nb) {
                    return Some(Win {
                        source: WinSource::Transit { fifo: f as u8 },
                        vc,
                        detour: true,
                    });
                }
            }
        }
        None
    }

    fn arbitrate_inject(&self, i: usize, d: Direction, nb: usize, probes: &mut u64) -> Option<Win> {
        let node = &self.nodes[i];
        let mut mask = node.inj_mask;
        while mask != 0 {
            let f = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let pkt = node.inj[f].head().expect("mask says non-empty");
            *probes += 1;
            if self.router.wants(pkt, d) {
                if self.router.suppress_return(pkt, i, d) {
                    continue;
                }
                if let Some(vc) = self.router.feasible_vc(pkt, i, None, d, nb) {
                    return Some(Win {
                        source: WinSource::Inject { fifo: f as u8 },
                        vc,
                        detour: false,
                    });
                }
            } else if let Some(vc) = self.router.detour_vc(pkt, i, d, nb) {
                return Some(Win {
                    source: WinSource::Inject { fifo: f as u8 },
                    vc,
                    detour: true,
                });
            }
        }
        None
    }

    fn apply_win(&mut self, i: usize, d: Direction, nb: usize, win: Win, t: u64) {
        // Pop the winner from its source FIFO.
        let mut pkt = match win.source {
            WinSource::Transit { fifo } => {
                let f = fifo as usize;
                let node = &mut self.nodes[i];
                node.rr[d.index()] = fifo.wrapping_add(1);
                let pkt = node.vcs[f].pop().expect("winner exists");
                if node.vcs[f].is_empty() {
                    node.vc_mask &= !(1 << f);
                } else if node.vcs[f].head().expect("non-empty").plan.is_done() {
                    self.q.deliver_q.push((i as u32, fifo));
                }
                // The freed space becomes upstream credit only at the
                // cycle boundary: deferring the release gives arbitration
                // a credit snapshot independent of node visit order.
                self.q
                    .deferred
                    .push(((i * self.router.vc_cells + f) as u32, pkt.chunks as u32));
                pkt
            }
            WinSource::Inject { fifo } => {
                let node = &mut self.nodes[i];
                let pkt = node.inj[fifo as usize].pop().expect("winner exists");
                if node.inj[fifo as usize].is_empty() {
                    node.inj_mask &= !(1 << fifo);
                }
                // Freed injection space may fit a queued send.
                node.inject_blocked = false;
                pkt
            }
        };
        // Spend downstream credit and launch.
        let nb_port = d.opposite().index();
        let chunks = pkt.chunks as u32;
        let cell = &self.router.credits
            [nb * self.router.vc_cells + vc_fifo_index(nb_port, win.vc.index())];
        debug_assert!(cell.get() >= chunks, "feasible_vc checked credit");
        cell.set(cell.get() - chunks);
        pkt.vc = win.vc;
        if win.detour {
            // Non-minimal fault sidestep: re-plan the whole route from the
            // downstream node and remember not to bounce straight back
            // through the link just crossed (its reverse is `nb_port`).
            pkt.plan = HopPlan::new(
                self.part,
                self.part.coord_of(nb as u32),
                pkt.dst,
                TieBreak::SrcParity,
            );
            pkt.note_detour(nb_port);
            self.count(|o| {
                o.hop_plans_built += 1;
                o.detours += 1;
            });
        } else {
            pkt.plan.advance(d.dim);
            pkt.clear_detour_from();
        }
        if let Some(o) = self.oracle.as_deref_mut() {
            if win.detour {
                // Rebase the hop ledger before recording the hop: the
                // replanned route supersedes the old planned count.
                o.on_detour(pkt.id, pkt.plan.total_hops());
            }
            o.on_hop(pkt.id, t);
        }
        if let Some(ev) = self.events.as_deref_mut() {
            // The pop changed this node's head lineup mid-visit
            // (directions the per-visit summary already passed must be
            // retried next cycle), a transit pop freed upstream credit,
            // and the reservation at `nb` may flip the bubble-escape
            // eligibility (`preferred_blocked`) of `nb`'s neighbours.
            ev.mark_fresh();
        }
        let arrive = t + chunks as u64 + self.router.cfg.router.hop_latency_cycles as u64;
        // `arrive` lies 1..RING cycles ahead, so this never lands in the
        // slot phase 1 drained this cycle.
        self.q.ring[(arrive % RING as u64) as usize].push(Arrival {
            node: nb as u32,
            port: nb_port as u8,
            pkt,
        });
        let ports = self.router.ports;
        self.link_busy_until[i * ports + d.index()] = t + chunks as u64;
        let di = d.dim.index();
        let st = &mut *self.stats;
        st.link_busy_chunks[di] += chunks as u64;
        // Empty when detailed link stats are off.
        if !st.link_busy_per_link.is_empty() {
            st.link_busy_per_link[i * ports + d.index()] += chunks as u64;
        }
        st.hops_taken[di] += 1;
        match win.vc {
            Vc::Bubble => st.bubble_hops += 1,
            _ => st.dynamic_hops += 1,
        }
        self.counts.last_progress = t;
    }
}
