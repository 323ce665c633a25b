//! Dynamic (in-flight) instruction state.

use lf_isa::{Inst, RegionId};
use lf_uarch::bpred::BpLookup;
use lf_uarch::rename::PhysReg;

pub(crate) use crate::arena::Uid;

/// An instruction sitting in a fetch queue, with the front end's predictions
/// and fetch-side hint decisions attached.
#[derive(Debug, Clone)]
pub(crate) struct FetchedInst {
    pub pc: usize,
    pub inst: Inst,
    /// Conditional-branch predictor state (for training and repair).
    pub bp: Option<BpLookup>,
    /// Predicted next PC (fall-through, predicted target, or RAS target).
    pub pred_next: usize,
    /// Packing decision attached to a detach at fetch time.
    pub pack_factor: u32,
    /// Predicted successor start values for a packed detach:
    /// `(arch_reg, decide-time value, stride)`.
    pub pack_predictions: Vec<(usize, u64, i64)>,
    /// The dynamic deselector suppressed this hint at fetch (treat as NOP).
    pub suppressed: bool,
}

/// Destination rename record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DstInfo {
    /// Architectural register index.
    pub arch: usize,
    /// Newly allocated physical register.
    pub new: PhysReg,
    /// Previous mapping; its reference is owned by this instruction until
    /// commit (released) or squash (restored into the map).
    pub old: PhysReg,
}

/// An instruction in the out-of-order window.
#[derive(Debug, Clone)]
pub(crate) struct DynInst {
    pub uid: Uid,
    pub tid: usize,
    pub pc: usize,
    pub inst: Inst,
    pub srcs: [Option<PhysReg>; 2],
    pub dst: Option<DstInfo>,

    // Execution state.
    pub issued: bool,
    pub completed: bool,
    /// Computed result value (register writes; store data bytes are kept in
    /// `store_data`).
    pub result: u64,
    /// The instruction faulted (out-of-bounds access); it never completes
    /// and is fatal if it reaches the head of the architectural threadlet.
    pub faulted: bool,

    // Control flow.
    pub bp: Option<BpLookup>,
    pub pred_next: usize,
    /// Resolved next PC (valid once executed, for control instructions).
    pub actual_next: usize,

    // Memory.
    pub eff_addr: Option<u64>,
    pub store_data: u64,
    /// The store has drained (to SSB or L1D).
    pub drained: bool,
    /// Loads parked in the issue queue until this store issues or drains
    /// (see `LoopFrogCore::load_blocker`); freed with the store.
    pub waiters: Vec<Uid>,

    // LoopFrog bookkeeping.
    /// Rename-side region state *after* this instruction, for squash
    /// recovery of fetch/rename hint state.
    pub region_after: (Option<RegionId>, u32),
    /// Threadlet context spawned by this detach, if any.
    pub spawned: Option<usize>,
    /// This reattach ends the epoch (threadlet halts after committing it).
    pub is_halting_reattach: bool,
    /// This sync exits the region: successors are squashed at commit.
    pub is_sync_exit: bool,
    /// This detach deferred its spawn (pending); unwound on squash.
    pub made_pending: bool,
    /// Induction-variable mappings captured at a detach's rename; their
    /// values train the packing value predictor when the detach commits
    /// (guaranteed ready, and wrong-path detaches never train).
    pub iv_capture: Vec<(usize, PhysReg)>,
    /// This instruction performed the epoch's first write of its destination
    /// register (so wrong-path squash can unwind `written_regs`).
    pub epoch_first_write: bool,
    /// Architectural registers this instruction newly inserted into the
    /// epoch's read-before-write set (unwound on wrong-path squash).
    pub epoch_first_rbw: [Option<usize>; 2],
}

impl DynInst {
    /// Builds the in-flight record for `f`. The identity (`uid`) is
    /// assigned by [`crate::arena::InstArena::insert`]; until then the
    /// instruction carries [`Uid::INVALID`].
    pub fn new(tid: usize, f: &FetchedInst) -> DynInst {
        DynInst {
            uid: Uid::INVALID,
            tid,
            pc: f.pc,
            inst: f.inst,
            srcs: [None, None],
            dst: None,
            issued: false,
            completed: false,
            result: 0,
            faulted: false,
            bp: f.bp,
            pred_next: f.pred_next,
            actual_next: f.pred_next,
            eff_addr: None,
            store_data: 0,
            drained: false,
            waiters: Vec::new(),
            region_after: (None, 0),
            spawned: None,
            is_halting_reattach: false,
            is_sync_exit: false,
            made_pending: false,
            iv_capture: Vec::new(),
            epoch_first_write: false,
            epoch_first_rbw: [None, None],
        }
    }
}

/// Whether an instruction requires an execution pipe / IQ entry. Takes the
/// raw decoded instruction so rename's resource pre-check can run before
/// the `DynInst` is built.
pub(crate) fn inst_needs_execute(inst: &Inst) -> bool {
    use lf_isa::Inst::*;
    match inst {
        Alu { .. }
        | Fpu { .. }
        | MovImm { .. }
        | Load { .. }
        | Store { .. }
        | Branch { .. }
        | JumpReg { .. } => true,
        Jump { .. } | Call { .. } | Hint { .. } | Nop | Halt => false,
    }
}
