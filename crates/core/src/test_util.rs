//! Shared helpers for the scheme unit tests.

use crate::{DispatchInst, IssueSink, Side};
use diq_isa::{ArchReg, InstId, OpClass, PhysReg, RegClass};

/// Builds an integer-side `DispatchInst` where architectural and physical
/// register indices coincide (convenient for table-driven tests).
pub(crate) fn di(id: u64, op: OpClass, dst: Option<u8>, srcs: [Option<u8>; 2]) -> DispatchInst {
    make(RegClass::Int, id, op, dst, srcs)
}

/// Builds an FP-side `DispatchInst` (FP registers for sources/destination).
pub(crate) fn fp_di(id: u64, op: OpClass, dst: Option<u8>, srcs: [Option<u8>; 2]) -> DispatchInst {
    make(RegClass::Fp, id, op, dst, srcs)
}

fn make(
    class: RegClass,
    id: u64,
    op: OpClass,
    dst: Option<u8>,
    srcs: [Option<u8>; 2],
) -> DispatchInst {
    let arch = |i: u8| ArchReg::new(class, i % 32);
    let phys = |i: u8| PhysReg::new(class, u16::from(i));
    DispatchInst {
        id: InstId(id),
        op,
        dst: dst.map(phys),
        srcs: [srcs[0].map(phys), srcs[1].map(phys)],
        srcs_ready: [srcs[0].is_none(), srcs[1].is_none()],
        src_arch: [srcs[0].map(arch), srcs[1].map(arch)],
        dst_arch: dst.map(arch),
    }
}

/// A test sink with unlimited functional units. Its scoreboard is what the
/// head-polling FIFOs read; the event-driven schemes keep their own ready
/// bits (set via `srcs_ready` at dispatch and `on_result` broadcasts) and
/// never ask it.
pub(crate) struct BoundedSink {
    /// Accepted instructions, in acceptance order.
    pub issued: Vec<InstId>,
    /// Maximum acceptances per call sequence.
    pub width: usize,
    /// Queues the acceptances came from (side, queue).
    pub from: Vec<Option<(Side, usize)>>,
    /// Registers currently in a speculative-wakeup window (load-hit
    /// speculation tests): `is_spec_ready` answers from this set, so an
    /// issue consuming one must be held by the scheduler.
    pub spec: Vec<PhysReg>,
    /// Registers whose value is not yet produced: `is_ready` answers
    /// `false` for these and `true` for every other register.
    pub pending: Vec<PhysReg>,
}

impl BoundedSink {
    pub(crate) fn all_ready() -> Self {
        BoundedSink::with_width(usize::MAX)
    }

    pub(crate) fn with_width(width: usize) -> Self {
        BoundedSink {
            issued: Vec::new(),
            width,
            from: Vec::new(),
            spec: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// A sink whose scoreboard has not yet seen `pending`.
    pub(crate) fn waiting_on(pending: &[PhysReg]) -> Self {
        BoundedSink {
            pending: pending.to_vec(),
            ..BoundedSink::all_ready()
        }
    }
}

impl IssueSink for BoundedSink {
    fn is_ready(&self, r: PhysReg) -> bool {
        !self.pending.contains(&r)
    }

    fn is_spec_ready(&self, r: PhysReg) -> bool {
        self.spec.contains(&r)
    }

    fn try_issue(&mut self, inst: InstId, _op: OpClass, queue: Option<(Side, usize)>) -> bool {
        if self.issued.len() >= self.width {
            return false;
        }
        self.issued.push(inst);
        self.from.push(queue);
        true
    }
}
