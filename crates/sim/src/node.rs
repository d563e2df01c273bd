//! Per-node simulator state: VC FIFOs, injection FIFOs, reception FIFO and
//! CPU accounting.

use crate::config::{SimConfig, NUM_VCS};
use crate::fifo::ChunkFifo;
use crate::flow::FlowLedger;
use crate::packet::SendSpec;
use bgl_torus::{Coord, MAX_PORTS};
use std::collections::VecDeque;

/// Index of the VC FIFO for (input port, VC). The number of ports — and so
/// the number of VC FIFOs, `2n · NUM_VCS` — is the partition's, not a
/// constant: a 2D node has 12 transit FIFOs, a 3D node 18, a 6D node 36.
#[inline]
pub fn vc_fifo_index(port: usize, vc: usize) -> usize {
    port * NUM_VCS + vc
}

/// The injection FIFOs of each class, from `SimConfig::inj_class_masks`
/// (every FIFO takes every class when it is empty): FIFO `f` accepts
/// class `c` iff bit `f` of entry `c` is set. The masks are fixed for the
/// whole run and the same on every node, so the engine builds this once.
pub(crate) fn class_fifos(cfg: &SimConfig) -> [u32; 8] {
    if cfg.inj_class_masks.is_empty() {
        return [((1u64 << cfg.inj_fifo_count) - 1) as u32; 8];
    }
    assert_eq!(
        cfg.inj_class_masks.len(),
        cfg.inj_fifo_count as usize,
        "inj_class_masks length must equal inj_fifo_count"
    );
    let mut fifos = [0u32; 8];
    for (f, &classes) in cfg.inj_class_masks.iter().enumerate() {
        for (c, set) in fifos.iter_mut().enumerate() {
            if classes & (1 << c) != 0 {
                *set |= 1 << f;
            }
        }
    }
    fifos
}

/// All simulator state for one node.
pub struct NodeState {
    /// Node coordinate.
    pub coord: Coord,
    /// Input VC FIFOs, indexed by [`vc_fifo_index`].
    pub vcs: Vec<ChunkFifo>,
    /// Bitmask of non-empty VC FIFOs (bit `i` ⇔ `vcs[i]` non-empty). At the
    /// 6-dimension maximum there are 12 ports × 3 VCs = 36 FIFOs, so this
    /// must be wider than 32 bits.
    pub vc_mask: u64,
    /// Injection FIFOs.
    pub inj: Vec<ChunkFifo>,
    /// Bitmask of non-empty injection FIFOs (bit `f` ⇔ `inj[f]` non-empty),
    /// mirroring [`vc_mask`](Self::vc_mask) so arbitration never probes
    /// empty FIFOs.
    pub inj_mask: u32,
    /// Reception FIFO.
    pub reception: ChunkFifo,
    /// Reactive sends queued by the program (api.send from hooks), not yet
    /// paid for / injected.
    pub pending: VecDeque<SendSpec>,
    /// Sends pulled from the program's own schedule (`next_send`), kept
    /// separate so a backlog of reactive forwards can never starve a
    /// node's proactive stream (and vice versa).
    pub pulled: VecDeque<SendSpec>,
    /// Absolute time (cycles, fractional) the CPU becomes free.
    pub cpu_free: f64,
    /// Total CPU-cycles this node has been charged so far. Kept per node
    /// (not accumulated straight into `NetStats`) so the global
    /// `cpu_busy_cycles` float is always the ascending-node-order fold of
    /// these values — one fixed summation order, so the statistic is
    /// byte-identical in every engine mode.
    pub cpu_busy: f64,
    /// Round-robin arbitration pointers, one per output direction (only the
    /// first `2n` entries are used).
    pub rr: [u8; MAX_PORTS],
    /// VC FIFO indices whose head is deliverable but found the reception
    /// FIFO full; retried after the CPU drains a packet.
    pub blocked_deliveries: Vec<u8>,
    /// Injection flow-control state (see [`crate::flow`]): the engine's
    /// rate window and the program-visible credit ledger.
    pub flow: FlowLedger,
    /// Cached program completion flag.
    pub program_done: bool,
    /// The last injection scan found no queued send that an injection
    /// FIFO of its class could take. Only an injection-FIFO pop or a new
    /// queued send (`pending` or `pulled` growing) can change that
    /// outcome, and both clear the flag, so while it is set the CPU phase
    /// skips the scan and the event engine sets no injection wake.
    pub inject_blocked: bool,
}

impl NodeState {
    /// Fresh state per `cfg`, with `ports = 2n` transit input ports.
    pub fn new(coord: Coord, cfg: &SimConfig, ports: usize) -> NodeState {
        debug_assert!(ports <= MAX_PORTS && ports.is_multiple_of(2));
        let vcs = (0..ports * NUM_VCS)
            .map(|_| ChunkFifo::new(cfg.router.vc_fifo_chunks))
            .collect();
        let inj = (0..cfg.inj_fifo_count)
            .map(|_| ChunkFifo::new(cfg.inj_fifo_chunks))
            .collect();
        NodeState {
            coord,
            vcs,
            vc_mask: 0,
            inj,
            inj_mask: 0,
            reception: ChunkFifo::new(cfg.reception_fifo_chunks),
            pending: VecDeque::new(),
            pulled: VecDeque::new(),
            cpu_free: 0.0,
            cpu_busy: 0.0,
            rr: [0; MAX_PORTS],
            blocked_deliveries: Vec::new(),
            flow: FlowLedger::new(cfg.flow),
            program_done: false,
            inject_blocked: false,
        }
    }

    /// Whether any packet sits anywhere in this node (diagnostics /
    /// completion checking).
    pub fn holds_packets(&self) -> bool {
        self.vc_mask != 0
            || self.inj_mask != 0
            || !self.pending.is_empty()
            || !self.pulled.is_empty()
            || !self.reception.is_empty()
    }
}
