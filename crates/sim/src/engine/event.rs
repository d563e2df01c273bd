//! Event-driven time: skip from interesting cycle to interesting cycle.
//!
//! The production core, [`EngineMode::EventDriven`](crate::EngineMode),
//! steps the same four phases as the full-scan reference and adds a
//! *skip-ahead* layer on top: after each stepped cycle,
//! [`Engine::fast_forward`] computes a conservative earliest next-event
//! cycle from per-component wake-ups — in-flight arrivals (the rings),
//! pending deliveries, CPU timelines, program poll hints, rate windows,
//! and link-busy horizons — and jumps `now` straight there.
//!
//! ## Why the skip is exact
//!
//! A cycle may be skipped only when stepping it would have mutated
//! *nothing* except two closed-form counters:
//!
//! - no arrivals (the in-flight rings are empty until the next wake-up),
//! - no deliveries (`deliver_q` empty, and stalled
//!   deliveries are only re-queued by a CPU drain, which is itself a
//!   stepped event),
//! - every CPU visit is a blocked poll — a rate-window check or a pure
//!   `next_send` decline ([`PollHint::SleepUntilDelivery`]) — whose only
//!   effect is incrementing `pacing_blocked_cycles` /
//!   `credit_blocked_events` by a per-cycle constant, replayed in closed
//!   form by [`Engine::replay_blocked_counters`],
//! - no arbitration win is possible: every candidate head lost its last
//!   stepped arbitration on *feasibility* (downstream credit), which only
//!   changes when a downstream FIFO pops or a win spends credit — both
//!   stepped events that set the freshness flag — or on a busy link,
//!   whose release cycle is known exactly (`link_busy_until`).
//!
//! The wake-up invariant (see DESIGN.md): **no component may be woken
//! later than its true next state change.** Waking too early merely steps
//! a provably-inert cycle (identical to what the full scan does); waking
//! too late would diverge. Every bound below is therefore conservative —
//! `u64::MAX` is only ever reported by a component that provably cannot
//! act until another component's stepped event sets the freshness flag
//! or re-marks it.
//!
//! Trace samples land at exactly the cycles the full scan would produce:
//! a skip is segmented at every tracer `next_at` boundary and a periodic
//! sample (frozen deltas, live occupancy snapshot) is recorded there, so
//! traced runs are byte-identical too.

use super::phases::{sendable_dirs, PULL_THRESHOLD};
use super::{Engine, RING};

/// What the last completed CPU visit learned about a node's ability to
/// make progress on its own (without a delivery).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) enum PollState {
    /// No standing decline: the node may accept a pull whenever its CPU is
    /// free (also the conservative state for programs that decline with
    /// [`PollHint::EveryCycle`](crate::PollHint) — they force a wake every
    /// cycle, trading skips for unconditional correctness).
    #[default]
    Open,
    /// The engine-level rate window was closed; re-poll no earlier than
    /// `next_allowed` (read live from the node's flow ledger at wake
    /// computation, since `rate_charge` may move it).
    Rate,
    /// The program declined with `SleepUntilDelivery`: no timed wake at
    /// all. `denials` credit acquisitions failed during the declining
    /// poll; the decline is pure, so stepping would repeat exactly that
    /// count every idle cycle — replayed in closed
    /// form over skipped windows.
    Asleep { denials: u64 },
}

/// Engine-wide event-mode state: per-node poll states (rewritten at each
/// CPU visit), indexed by node rank, plus a one-cycle freshness flag set
/// when some node's arbitration inputs changed during the current stepped
/// cycle (a win, a downstream pop freeing credit, a fault transition or
/// a dropped packet). A changed input must be re-arbitrated next cycle,
/// so any freshness suppresses skipping entirely — which node changed
/// never matters, so none is recorded.
pub(super) struct EventState {
    pub(super) polls: Vec<PollState>,
    fresh: bool,
}

impl EventState {
    pub(super) fn new(n: usize) -> EventState {
        EventState {
            polls: vec![PollState::Open; n],
            fresh: false,
        }
    }

    #[inline]
    pub(super) fn mark_fresh(&mut self) {
        self.fresh = true;
    }

    /// Forget last cycle's freshness (called at the start of each stepped
    /// cycle; it has served its purpose by suppressing the skip decision
    /// at the previous cycle boundary).
    #[inline]
    pub(super) fn clear_fresh(&mut self) {
        self.fresh = false;
    }
}

/// Which component's bound won the earliest-event minimum. Tracked for
/// the host profiler's wake-cause breakdown only — the skip logic itself
/// never consults it, so profiling cannot perturb skip decisions. Ties
/// keep the earlier-evaluated cause (strict-`<` updates below leave the
/// minimum value itself exactly as the plain `min` fold computed it).
#[derive(Clone, Copy)]
pub(super) enum WakeCause {
    /// The freshness flag forced an immediate re-step.
    Fresh,
    /// A pending delivery forced an immediate re-step.
    DeliverQ,
    /// The earliest in-flight ring arrival.
    Arrival,
    /// A CPU-phase wake of node `g` (classified for the profile by
    /// the node's [`PollState`] at skip time).
    Cpu(usize),
    /// A busy output link's release cycle.
    LinkBusy,
    /// No component has any scheduled wake at all.
    Idle,
}

impl Engine {
    /// Earliest cycle at which any component can change state, evaluated
    /// at a cycle boundary (`self.now` is the next unstepped cycle).
    /// Returns `self.now` as soon as any immediate work is found, along
    /// with the component that set the bound.
    fn next_event_cycle(&self) -> (u64, WakeCause) {
        let now = self.now;
        let ev = self.events.as_ref().expect("event mode");
        if ev.fresh {
            return (now, WakeCause::Fresh);
        }
        if !self.queues.deliver_q.is_empty() {
            return (now, WakeCause::DeliverQ);
        }
        // Earliest in-flight arrival. Every launched packet lands within
        // RING cycles (asserted at construction), so one lap suffices.
        let mut e = u64::MAX;
        let mut cause = WakeCause::Idle;
        'lap: for off in 0..RING as u64 {
            let slot = ((now + off) % RING as u64) as usize;
            if !self.queues.ring[slot].is_empty() {
                e = now + off;
                cause = WakeCause::Arrival;
                break 'lap;
            }
        }
        if e == now {
            return (now, cause);
        }
        let q = &self.queues;
        for w in 0..q.cpu_active.words.len() {
            let mut bits = q.cpu_active.words[w];
            while bits != 0 {
                let g = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let wake = self.cpu_wake(g);
                if wake < e {
                    e = wake;
                    cause = WakeCause::Cpu(g);
                }
                if e <= now {
                    return (now, cause);
                }
            }
        }
        for w in 0..q.arb_active.words.len() {
            let mut bits = q.arb_active.words[w];
            while bits != 0 {
                let g = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let wake = self.arb_wake(g);
                if wake < e {
                    e = wake;
                    cause = WakeCause::LinkBusy;
                }
                if e <= now {
                    return (now, cause);
                }
            }
        }
        (e, cause)
    }

    /// Next cycle node `g`'s CPU phase could do anything but a
    /// replayable blocked poll. `cpu_visit` skips cycles with
    /// `cpu_free >= t + 1`, so the first visitable cycle is
    /// `floor(cpu_free)` — before that, even a pending drain cannot run.
    fn cpu_wake(&self, g: usize) -> u64 {
        let n = &self.nodes[g];
        let poll = self.events.as_ref().expect("event mode").polls[g];
        let ready = (n.cpu_free as u64).max(self.now);
        if !n.reception.is_empty() {
            // A drain mutates real state: never skip past it.
            return ready;
        }
        let mut wake = u64::MAX;
        if (!n.pending.is_empty() || !n.pulled.is_empty()) && !n.inject_blocked {
            // Queued sends the last scan did not rule out: injections
            // happen as soon as the CPU frees up. A blocked node waits for
            // an injection-FIFO pop (an arbitration win, which sets the
            // freshness flag) or a new queued send (a stepped CPU visit).
            wake = ready;
        }
        if !n.program_done && n.pulled.len() < PULL_THRESHOLD {
            match poll {
                PollState::Open => wake = wake.min(ready),
                PollState::Rate => {
                    // First cycle `t` with `t >= next_allowed`; every
                    // earlier visit is a pure `pacing_blocked_cycles`
                    // increment, replayed in closed form.
                    let open = n.flow.next_allowed.ceil() as u64;
                    wake = wake.min(ready.max(open));
                }
                PollState::Asleep { .. } => {}
            }
        }
        wake
    }

    /// Next cycle node `g`'s arbitration could win an output.
    /// Heads on *free* links already lost their last stepped arbitration
    /// on downstream feasibility, which only a stepped event can change
    /// (the freshness flag handles that); so the only timed wake is a busy
    /// link becoming usable. `busy_until == now` must wake now: the link was
    /// busy during the last stepped cycle but is usable this cycle.
    fn arb_wake(&self, g: usize) -> u64 {
        let node = &self.nodes[g];
        if node.vc_mask == 0 && node.inj_mask == 0 {
            return u64::MAX;
        }
        // Under an active fault plan, fault detours may route heads along
        // directions outside their minimal quadrant, so the sendable
        // summary is no longer a superset of what arbitration may try:
        // consider every direction (waking early is always safe). Fault
        // transitions themselves set the freshness flag, so dead links
        // becoming live never rely on this bound.
        let ports = self.ports;
        let dirs = if self.fault_alive.is_empty() {
            sendable_dirs(node, ports)
        } else {
            (1u16 << ports) - 1
        };
        let mut wake = u64::MAX;
        for d in 0..ports {
            if dirs & (1 << d) == 0 || self.neighbors[g][d] == u32::MAX {
                continue;
            }
            let busy = self.link_busy_until[g * ports + d];
            if busy >= self.now {
                wake = wake.min(busy);
            }
        }
        wake
    }

    /// Apply the per-cycle blocked-poll counter increments the
    /// full scan would have made over the skipped window
    /// `[self.now, stop)`, in closed form. For each cpu-active node the
    /// eligible cycles are those from `max(now, floor(cpu_free))` on
    /// (earlier ones are CPU-booked no-ops); `stop` never exceeds the
    /// node's own wake, so a `Rate` window is closed and an `Asleep`
    /// decline repeats verbatim across the whole eligible span.
    fn replay_blocked_counters(&mut self, stop: u64) {
        for w in 0..self.queues.cpu_active.words.len() {
            let mut bits = self.queues.cpu_active.words[w];
            while bits != 0 {
                let g = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let n = &self.nodes[g];
                if n.program_done || n.pulled.len() >= PULL_THRESHOLD || !n.reception.is_empty() {
                    continue;
                }
                let from = (n.cpu_free as u64).max(self.now);
                if stop <= from {
                    continue;
                }
                let cycles = stop - from;
                match self.events.as_ref().expect("event mode").polls[g] {
                    PollState::Rate => self.stats.pacing_blocked_cycles += cycles,
                    PollState::Asleep { denials } if denials > 0 => {
                        self.stats.credit_blocked_events += denials * cycles;
                    }
                    _ => {}
                }
            }
        }
    }

    /// Jump `now` to the next event cycle, replaying blocked-poll
    /// counters over the skipped window and recording the periodic trace
    /// samples that fall inside it. Bounded so the `run` loop's watchdog
    /// and cycle-limit checks fire at exactly the cycle the full scan
    /// would report.
    pub(super) fn fast_forward(&mut self) {
        let (raw, cause) = self.next_event_cycle();
        if raw <= self.now {
            // Profiling only: count the skips suppressed purely by the
            // freshness flag (arbitration inputs changed last cycle).
            if matches!(cause, WakeCause::Fresh) && self.perf.is_some() {
                self.perf_note_fresh_suppression();
            }
            return;
        }
        let watchdog_fire = self
            .counts
            .last_progress
            .saturating_add(self.cfg.watchdog_cycles)
            .saturating_add(1);
        // Never skip over a scheduled fault transition: the transition
        // cycle is stepped, as in the full scan, keeping fault runs
        // byte-identical to the reference.
        let e = raw
            .min(watchdog_fire)
            .min(self.cfg.max_cycles)
            .min(self.next_fault_cycle());
        if self.perf.is_some() {
            self.perf_note_skip(raw, e, watchdog_fire, cause);
        }
        while self.now < e {
            let stop = match &self.tracer {
                Some(tr) => e.min(tr.next_at),
                None => e,
            };
            // `next_at > now` is an invariant here: `step`/`fast_forward`
            // record any due sample immediately, and recording advances
            // `next_at` past the sample cycle.
            debug_assert!(stop > self.now, "tracer boundary must advance");
            self.replay_blocked_counters(stop);
            self.now = stop;
            if let Some(tr) = &self.tracer {
                if self.now >= tr.next_at {
                    self.record_trace_sample(false);
                }
            }
        }
    }
}
